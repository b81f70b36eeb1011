"""The validating constructors as the oracle of what the library builds
without validating.

A library construction builds its ring, projection, module and
multiplicative set through the classes' ``_built`` paths, and its stock
expansions with their records made first, because a standard theorem proves
each of them. Here each is rebuilt through the public path that proves caller
data, and the two must agree: the same tables, zero, one and element names.
Used by the Tier-1 tests and by ``tests/large_tier.py``.
"""

from __future__ import annotations

from collections import Counter

from ringlab.catalog import _localization_sets
from ringlab.constructions import (
    FiniteModule,
    LocalizationOf,
    MultiplicativeSet,
    QuotientOf,
    TrivialExtensionOf,
)
from ringlab.errors import ConstructionError
from ringlab.expansions import ExpansionFunction
from ringlab.ideals import _sum_masks
from ringlab.rings import FiniteRing, RingHom


def _is_table(rows) -> bool:
    return type(rows) is tuple and all(type(row) is tuple for row in rows)


def assert_ring(R: FiniteRing) -> None:
    """R's tables prove a ring with R's zero, one and names."""
    V = FiniteRing(R.add_table, R.mul_table, R.label, element_names=R.element_names)
    got = (R.add_table, R.mul_table, R.zero, R.one, R.element_names)
    assert got == (V.add_table, V.mul_table, V.zero, V.one, V.element_names), R.label
    assert _is_table(R.add_table) and _is_table(R.mul_table), R.label


def assert_projection(f: RingHom) -> None:
    """f's table proves a unital ring homomorphism."""
    assert type(f.mapping) is tuple and RingHom(f.domain, f.codomain, f.mapping).mapping == f.mapping


def assert_module(E: FiniteModule) -> None:
    """E's tables prove a module over E.ring with E's zero and names."""
    V = FiniteModule(E.ring, E.add_table, E.action, E.spec_label, element_names=E.element_names)
    got = (E.add_table, E.action, E.zero, E.element_names)
    assert got == (V.add_table, V.action, V.zero, V.element_names), E
    assert _is_table(E.add_table) and _is_table(E.action), E


def closure_by_pairs(R: FiniteRing, gens) -> frozenset:
    """One and the generators, closed under products of any two members."""
    members = {R.one, *gens}
    while True:
        new = {R.mul_table[a][b] for a in members for b in members} - members
        if not new:
            return frozenset(members)
        members |= new


def assert_set(R: FiniteRing, members, generators) -> None:
    """The set passes the constructor's closure test and is the closure of
    its generators."""
    S = MultiplicativeSet(R, members, generators)
    assert S.members == closure_by_pairs(R, generators), (R.label, generators)


def assert_generated_sets(R: FiniteRing) -> int:
    """``from_generators`` on each single element against the pair closure,
    and every set the catalog localizes R at through the constructor; the
    number of sets."""
    sets = _localization_sets(R)
    for S in sets:
        assert_set(R, S.members, S.generators)
    for x in range(R.order):
        want = closure_by_pairs(R, (x,))
        try:
            got = MultiplicativeSet.from_generators(R, (x,))
        except ConstructionError:
            assert R.zero in want, (R.label, x)
            continue
        assert got.members == want and got.generators == (x,), (R.label, x)
    return len(sets) + R.order


def assert_stock(R: FiniteRing, expansions) -> None:
    """Each stock table passes the full expansion validation and is the
    translation I -> I + J, with J the image of the zero ideal."""
    masks = [I.mask for I in R.ideals()]
    for d in expansions:
        ExpansionFunction._validate(d)
        j = masks[d.table[0]]
        assert [masks[q] for q in d.table] == [_sum_masks(R, m, j) for m in masks], (R.label, d)


def assert_catalog(catalog) -> Counter:
    """The oracle on every entry of a catalog, with the counts of what it
    rebuilt, by kind."""
    seen: Counter = Counter()
    for entry in catalog:
        R, info = entry.ring, entry.ring.construction
        assert_stock(R, entry.expansions)
        seen["stock tables"] += len(entry.expansions)
        if info is None:
            seen["sets"] += assert_generated_sets(R)
            seen["bases"] += 1
            continue
        assert_ring(R)
        seen["rings"] += 1
        if isinstance(info, (QuotientOf, LocalizationOf)):
            assert_projection(info.projection)
            seen["projections"] += 1
        if isinstance(info, LocalizationOf):
            assert_set(info.parent, info.set_members, info.set_generators)
            seen["sets"] += 1
        if isinstance(info, TrivialExtensionOf):
            assert_module(info.module)
            seen["modules"] += 1
    return seen
