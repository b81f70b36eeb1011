"""Expansion functions: axioms, stock families, side conditions, induced maps."""

from __future__ import annotations

import random
import re

import pytest

from expansion_tables import entry_expansions
from lattice_oracle import scaling_differences
import ringlab.expansions as expansions
import ringlab.predicates as predicates
from ringlab.catalog import CatalogConfig, build_catalog
from ringlab.constructions import (
    LocalizationOf,
    MultiplicativeSet,
    ProductOf,
    QuotientOf,
    TrivialExtensionOf,
    _correspondence,
    localize,
    make_product,
    make_quotient,
    make_trivial_extension,
    regular_module,
)
from ringlab.errors import ExpansionAxiomError, RingMismatchError
from ringlab.expansions import (
    ExpansionFunction,
    commutes_with_scaling,
    constant_ring,
    delta_gamma_hom_check,
    from_rule,
    identity_expansion,
    induced_localization,
    induced_product,
    induced_quotient,
    induced_trivial_extension,
    is_delta_gamma_hom,
    is_idempotent_at,
    is_intersection_preserving,
    is_prime_expansion,
    localization_compatibility,
    plus_fixed,
    preserves_jacobson,
    radical_expansion,
    satisfies_star,
    scaling_check,
    standard_expansions,
)
from ringlab.ideals import (
    Ideal,
    _principal_masks,
    _radical_positions,
    ideal_intersection,
    prime_check,
    radical,
    scale,
    span,
)
from ringlab.predicates import one_absorbing_delta_primary_check
from ringlab.rings import FiniteRing, make_zn
from ringlab.verifier import verify


def test_identity_and_radical(z12):
    d_id = identity_expansion(z12)
    d_rad = radical_expansion(z12)
    I4 = span(z12, [4])
    assert d_id(I4).mask == I4.mask
    assert d_rad(I4).mask == span(z12, [2]).mask
    assert d_id.label == "id"
    assert d_rad.label == "rad"


def test_plus_fixed(z36):
    J = span(z36, [2])
    d = plus_fixed(z36, J)
    assert d.label == "plus:(2)"
    I6 = span(z36, [6])
    assert d(I6).mask == span(z36, [2]).mask
    I9 = span(z36, [9])
    assert d(I9).mask == span(z36, [1]).mask  # (9)+(2)=(1)


def test_constant_ring(z8):
    d = constant_ring(z8)
    assert d.label == "full"
    for I in z8.ideals():
        assert d(I).num_elements == 8


def test_axiom_extensive_rejected(z12):
    with pytest.raises(ExpansionAxiomError):
        from_rule(z12, lambda I: span(z12, [0]), "to-zero")


def test_axiom_monotone_rejected(z12):
    # swap values on a comparable pair: (4) maps high, (2) maps to itself
    def rule(I):
        if I.mask == span(z12, [4]).mask:
            return span(z12, [1])
        return I

    with pytest.raises(ExpansionAxiomError):
        from_rule(z12, rule, "jagged")


def test_wrong_ring_rejected(z12, z8):
    d = identity_expansion(z12)
    with pytest.raises(RingMismatchError):
        d(span(z8, [2]))


def test_from_rule_rejects_a_value_that_is_not_an_ideal_of_its_ring(z4):
    """Z2's zero ideal has Z4's zero mask, which names an ideal of Z4: a rule
    that returns it, or an ideal of a twin of Z4 with equal tables, or a
    bare mask, is refused at the ideal it was given."""
    z2, twin = make_zn(2), make_zn(4)
    assert twin.mul_table == z4.mul_table and twin is not z4
    for value in (lambda I: z2.zero_ideal(), lambda I: Ideal(twin, I.mask), lambda I: I.mask):
        with pytest.raises(RingMismatchError, match=r"^rule value at \(0\) is not an ideal of Z4$"):
            from_rule(z4, lambda I, value=value: value(I) if I.is_zero else I, "x")
    assert from_rule(z4, lambda I: I, "x").table == identity_expansion(z4).table


def test_standard_expansions_dedup(z8, f4):
    # one translation I -> I + J per ideal J: a field has two ideals
    labels_f4 = [d.label for d in standard_expansions(f4)]
    assert labels_f4 == ["id", "full"]
    labels_z8 = [d.label for d in standard_expansions(z8)]
    assert labels_z8[0] == "id"
    assert "rad" in labels_z8
    assert "full" in labels_z8
    # J = (0) is built once, as id, and J = Jac once, as rad
    assert "plus:(0)" not in labels_z8 and "plus:(2)" not in labels_z8
    tables = [d.table for d in standard_expansions(z8)]
    assert len(tables) == len(set(tables))


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_stock_tables_match_their_rules(request, tier, monkeypatch):
    """The radical and every translation I + J, read off the lattice masks,
    equal the tables ``from_rule`` builds from the ideal maps. On a fresh copy
    of each ring, with its lattice and radicals built, ``standard_expansions``
    builds no ideal and makes no ``from_rule`` call."""
    rings = [entry.ring for entry in request.getfixturevalue(tier)]
    for R in rings:
        assert radical_expansion(R).table == from_rule(R, radical, "rad").table, R.label
        for J in R.proper_ideals():
            want = from_rule(R, lambda I: I + J, "plus").table
            assert plus_fixed(R, J).table == want, (R.label, J.label)
    fresh = []
    for R in rings:
        S = FiniteRing(R.add_table, R.mul_table, R.label)
        _radical_positions(S)
        fresh.append(S)
    built = []
    original = Ideal.__init__

    def counting(self, ring, mask):
        built.append(ring.label)
        original(self, ring, mask)

    def refuse(*args):
        raise AssertionError("from_rule on the build path")

    monkeypatch.setattr(Ideal, "__init__", counting)
    monkeypatch.setattr(expansions, "from_rule", refuse)
    for S in fresh:
        standard_expansions(S)
    assert built == []


def test_star_and_jacobson(z8):
    d_rad = radical_expansion(z8)
    d_full = constant_ring(z8)
    assert satisfies_star(d_rad)
    assert not satisfies_star(d_full)
    assert preserves_jacobson(d_rad)
    assert not preserves_jacobson(d_full)
    d_id = identity_expansion(z8)
    assert satisfies_star(d_id)
    assert preserves_jacobson(d_id)


def _fixes_jacobson(d) -> bool:
    """δ(Jac) = Jac by definition: Jac(R) is the meet of the maximal ideals."""
    R = d.ring
    jac = (1 << R.order) - 1
    for M in R.maximal_ideals():
        jac &= M.mask
    return d(Ideal(R, jac)).mask == jac


def test_preserves_jacobson_matches_the_definition(catalog16, catalog_enlarged):
    """The one table entry agrees with δ(Jac) = Jac on every stock expansion
    of both tiers, which hold both verdicts, and on Z8 expansions from
    ``from_rule``: one that moves Jac = (2) to the ring, one that moves only
    (0) and so fixes Jac."""
    stock = _catalog_expansions(catalog16) + _catalog_expansions(catalog_enlarged)
    assert len(stock) == 2675
    verdicts = [preserves_jacobson(d) for d in stock]
    assert verdicts == [_fixes_jacobson(d) for d in stock]
    assert True in verdicts and False in verdicts
    z8 = make_zn(8)
    moves = from_rule(z8, lambda I: I if I.num_elements <= 2 else z8.unit_ideal(), "jac->R")
    fixes = from_rule(z8, lambda I: I if I.num_elements > 1 else span(z8, [4]), "0->(4)")
    assert [z8.ideals()[q].label for q in moves.table] == ["(0)", "(4)", "(1)", "(1)"]
    assert [z8.ideals()[q].label for q in fixes.table] == ["(4)", "(4)", "(2)", "(1)"]
    assert (preserves_jacobson(moves), _fixes_jacobson(moves)) == (False, False)
    assert (preserves_jacobson(fixes), _fixes_jacobson(fixes)) == (True, True)


def test_satisfies_star_matches_the_scan(catalog16):
    """Condition (*) against its definition on every attached expansion, and
    on a Z6 expansion that sends only the maximal ideal (2) to the ring."""
    z6 = make_zn(6)
    lattice = z6.ideals()
    assert [I.label for I in lattice] == ["(0)", "(3)", "(2)", "(1)"]
    only_top = ExpansionFunction(z6, [0, 1, 3, 3], "(2)->R")
    for d in [*_catalog_expansions(catalog16), only_top]:
        assert satisfies_star(d) == all(d(I).is_proper for I in d.ring.proper_ideals()), d
    assert not satisfies_star(only_top)


def test_scaling_witness_z8():
    z8 = make_zn(8)
    d_rad = radical_expansion(z8)
    ok, wit = scaling_check(d_rad)
    assert not ok
    x, I = wit
    assert x == 2
    assert I.label == "(2)"
    assert not commutes_with_scaling(d_rad)
    assert commutes_with_scaling(identity_expansion(z8))


def test_scaling_skips_zero_products(z12):
    """xI = (0) pairs are exempt, so id always commutes."""
    assert commutes_with_scaling(identity_expansion(z12))


def test_intersection_preserving(z12, z8):
    assert is_intersection_preserving(identity_expansion(z12))
    assert is_intersection_preserving(radical_expansion(z12))
    # constant expansions preserve intersections trivially
    assert is_intersection_preserving(constant_ring(z12))
    assert is_intersection_preserving(constant_ring(z8))


def test_intersection_preserving_fails_off_distributive_lattices():
    # Z2 idealized by a rank-2 module has three incomparable middle ideals,
    # and translating by one of them breaks the intersection identity
    from ringlab.constructions import module_product

    A = make_zn(2)
    E = module_product(regular_module(A), regular_module(A))
    T = make_trivial_extension(A, E)
    bad = [d for d in standard_expansions(T) if not is_intersection_preserving(d)]
    assert bad
    assert all(d.label.startswith("plus:") for d in bad)


def test_idempotent_at(z12):
    d_rad = radical_expansion(z12)
    for I in z12.proper_ideals():
        assert is_idempotent_at(d_rad, I)
    d_plus = plus_fixed(z12, span(z12, [4]))
    assert is_idempotent_at(d_plus, span(z12, [4]))


def test_prime_expansion(z8, z12):
    assert is_prime_expansion(radical_expansion(z8))
    # on Z12, (0) is 1abs-rad-primary? no: rad is prime-valued on primaries only
    d_id_z8 = identity_expansion(z8)
    assert not is_prime_expansion(d_id_z8)  # (4) is 1abs-id-primary but not prime


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_prime_expansion_matches_the_definition(request, tier):
    """``is_prime_expansion`` reads verdict vectors; under every attached
    expansion of both tiers it agrees with the definition, the checks at
    each proper I and at delta(I), with the ring as an image counted as not
    prime. ``full`` sends every proper ideal, each 1-absorbing under it, to
    the ring, so it is never a prime expansion."""
    held = 0
    for entry in request.getfixturevalue(tier):
        for d in entry.expansions:
            want = all(
                d(I).is_proper and prime_check(d(I))[0]
                for I in entry.ring.proper_ideals()
                if one_absorbing_delta_primary_check(I, d)[0])
            assert is_prime_expansion(d) == want, (entry.provenance, d.label)
            held += want
        assert entry.expansions[-1].label == "full"
        assert not is_prime_expansion(entry.expansions[-1])
    assert held > 0


def test_delta_gamma_hom(z12):
    Q = make_quotient(z12, span(z12, [4]))
    proj = Q.construction.projection
    d = radical_expansion(z12)
    g = induced_quotient(Q, d)
    ok, wit = delta_gamma_hom_check(proj, d, g)
    assert ok, wit
    assert is_delta_gamma_hom(proj, d, g)
    # identity downstairs against radical upstairs fails on a non-radical ideal
    g_id = identity_expansion(Q)
    ok2, wit2 = delta_gamma_hom_check(proj, d, g_id)
    assert not ok2
    assert wit2 is not None


def test_an_induced_quotient_expansion_is_always_delta_gamma(catalog_every_expansion):
    """T-HOM's delta-gamma hypothesis holds for every extensive delta on R and
    the gamma it induces on any quotient R/I, along the projection f:
    delta(f^-1 J) contains f^-1 J, hence ker f, so f^-1(f(delta(f^-1 J))),
    which is delta(f^-1 J) + ker f, is delta(f^-1 J). Checked for every
    extensive monotone table on each base ring and each of its quotients in
    the default catalog, whether or not the projection preserves nonunits."""
    sources = entry_expansions(catalog_every_expansion)
    pairs = 0
    for entry in catalog_every_expansion:
        info = entry.ring.construction
        if isinstance(info, QuotientOf):
            for d in sources[id(info.parent)]:
                g = induced_quotient(entry.ring, d)
                assert delta_gamma_hom_check(info.projection, d, g) == (True, None), g.label
                pairs += 1
    assert pairs == 624


def test_induced_product_upstairs(z4):
    z9 = make_zn(9)
    P = make_product(z4, z9)
    d1 = radical_expansion(z4)
    d2 = identity_expansion(z9)
    dx = induced_product(P, d1, d2)
    assert dx.label == "prod(rad,id)"
    info = P.construction
    for I1 in z4.ideals():
        for I2 in z9.ideals():
            J = Ideal(P, info.pair_mask(I1.mask, I2.mask))
            expect = info.pair_mask(d1(I1).mask, d2(I2).mask)
            assert dx(J).mask == expect


def test_induced_quotient_values(z12):
    Q = make_quotient(z12, span(z12, [6]))
    d = radical_expansion(z12)
    g = induced_quotient(Q, d)
    assert g.label == "bar(rad,(6))"
    proj = Q.construction.projection
    for J in Q.ideals():
        up = proj.preimage_ideal(J)
        assert g(J).mask == proj.image_ideal(d(up)).mask


def test_induced_localization_values(z12):
    from ringlab.constructions import MultiplicativeSet

    S = MultiplicativeSet.from_generators(z12, [3])
    L = localize(z12, S).ring
    d = radical_expansion(z12)
    ds = induced_localization(L, d)
    assert ds.label.startswith("loc(rad")
    assert localization_compatibility(L, d)


def test_induced_trivial_extension(z4):
    T = make_trivial_extension(z4, regular_module(z4))
    d = radical_expansion(z4)
    dt = induced_trivial_extension(T, d)
    assert dt.label == "triv(rad)"
    info = T.construction
    full = (1 << info.module.order) - 1
    # value on I x E is delta(I) x E
    for I in z4.proper_ideals():
        J = Ideal(T, info.pair_mask(I.mask, full))
        expect = info.pair_mask(d(I).mask, full)
        assert dt(J).mask == expect


def test_expansion_table_validation():
    z4 = make_zn(4)
    n = len(z4.ideals())
    with pytest.raises(ExpansionAxiomError):
        ExpansionFunction(z4, [0] * (n + 1), "wrong-size")


# ----------------------------------------------------------------------
# lookups against their definitional oracles


def scaling_scan(delta):
    """The definitional scaling check: scale every (x, I) pair and compare masks.

    Same skip of pairs whose x*I is zero and same witness order (x
    ascending, then I in canonical order) as ``scaling_check``.
    """
    R = delta.ring
    zero_mask = 1 << R.zero
    for x in range(R.order):
        for I in R.proper_ideals():
            xI = scale(x, I)
            if xI.mask == zero_mask:
                continue
            if delta(xI).mask != scale(x, delta(I)).mask:
                return False, (x, I)
    return True, None


def _catalog_expansions(catalog):
    return [d for entry in catalog for d in entry.expansions]


def test_expansion_lookup_matches_table(catalog16):
    expansions = _catalog_expansions(catalog16)
    assert len(expansions) == 995
    for d in expansions:
        R = d.ring
        lattice = R.ideals()
        for I in lattice:
            assert d(I) is lattice[d.table[R.lattice_position(I.mask)]]
    foreign = catalog16.entries[1].ring.zero_ideal()
    with pytest.raises(RingMismatchError):
        expansions[0](foreign)


def test_scaling_check_matches_scan(catalog16):
    expansions = _catalog_expansions(catalog16)
    failing = 0
    for d in expansions:
        ok, wit = scaling_check(d)
        ok0, wit0 = scaling_scan(d)
        assert ok == ok0, (d, d.ring)
        if ok:
            assert wit is None and wit0 is None
        else:
            failing += 1
            assert wit[0] == wit0[0] and wit[1] == wit0[1], (d, d.ring)
    assert 0 < failing < len(expansions)


def test_scaling_table_matches_scale(catalog16):
    """The table sums principal masks over generators; ``scale`` multiplies
    every member. They agree at every x and every lattice ideal."""
    for entry in catalog16:
        R = entry.ring
        want = tuple(
            tuple(R.lattice_position(scale(x, I).mask) for I in R.ideals())
            for x in range(R.order)
        )
        assert expansions._scaling_table(R) == want, entry.provenance


def test_scaling_rows_match_scale_on_the_enlarged_tier(catalog_enlarged):
    """On the enlarged tier, where more entries are joins over several
    generators, each principal ideal's row, read at its smallest generator,
    agrees with ``scale`` at every lattice ideal. Associates share that row
    (``test_associates_share_one_scaling_row``)."""
    for entry in catalog_enlarged:
        assert scaling_differences(entry.ring) == [], entry.provenance


def test_associates_share_one_scaling_row(request):
    """x*I = (x)*I, so elements generating the same principal ideal share
    one row object, and there is one row per principal ideal."""
    for tier in ("catalog16", "catalog_enlarged"):
        for entry in request.getfixturevalue(tier):
            R = entry.ring
            table, pm = expansions._scaling_table(R), _principal_masks(R)
            for x in range(R.order):
                for y in range(x):
                    assert (table[x] is table[y]) == (pm[x] == pm[y]), (entry.provenance, x, y)
            assert len({id(row) for row in table}) == len(set(pm))


def intersection_scan(delta):
    """The definitional check: delta(I & J) = delta(I) & delta(J) for every
    pair of lattice ideals, comparing masks."""
    lattice = delta.ring.ideals()
    return all(
        delta(ideal_intersection(I, J)).mask == delta(I).mask & delta(J).mask
        for I in lattice
        for J in lattice
    )


def test_intersection_preserving_matches_the_pair_scan(request):
    """The meet-table check agrees with the pair scan on every attached
    expansion of both catalog tiers, and on id, rad and full, and both
    verdicts occur."""
    verdicts = set()
    for tier in ("catalog16", "catalog_enlarged"):
        for entry in request.getfixturevalue(tier):
            R = entry.ring
            stock = (identity_expansion(R), radical_expansion(R), constant_ring(R))
            for d in (*entry.expansions, *stock):
                got = is_intersection_preserving(d)
                assert got == intersection_scan(d), (entry.provenance, d.label)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_meet_table_is_the_lattice_intersection(catalog16):
    for entry in catalog16:
        R = entry.ring
        lattice = R.ideals()
        meet = expansions._meet_table(R)
        assert meet is expansions._meet_table(R)
        for p, I in enumerate(lattice):
            for q, J in enumerate(lattice):
                assert lattice[meet[p][q]].mask == ideal_intersection(I, J).mask


def test_proper_ideals_drop_only_the_unit_ideal(catalog16):
    for entry in catalog16:
        R = entry.ring
        proper = R.proper_ideals()
        assert proper is R.proper_ideals()
        assert proper == tuple(I for I in R.ideals() if I.is_proper)


def _count_expansions_built(monkeypatch) -> list:
    """Record (ring, label) for every ExpansionFunction constructed, through
    the constructor or through ``_built``."""
    built = []
    original, built_by = ExpansionFunction.__init__, ExpansionFunction._built

    def counting(self, ring, table, label):
        built.append((ring.label, label))
        original(self, ring, table, label)

    def counting_built(cls, ring, table, label):
        built.append((ring.label, label))
        return built_by(ring, table, label)

    monkeypatch.setattr(ExpansionFunction, "__init__", counting)
    monkeypatch.setattr(ExpansionFunction, "_built", classmethod(counting_built))
    identity_expansion(make_zn(2))
    ExpansionFunction(make_zn(2), (0, 1), "caller")
    assert built == [("Z2", "id"), ("Z2", "caller")]
    built.clear()
    return built


def test_catalog_builds_each_stock_expansion_once(monkeypatch):
    """An uncached catalog build constructs exactly the expansions it attaches,
    and each entry attaches the ring's ``standard_expansions`` tuple itself."""
    built = _count_expansions_built(monkeypatch)
    cat = build_catalog.__wrapped__(CatalogConfig(max_order=8))
    assert len(built) == sum(len(e.expansions) for e in cat)
    assert all(e.expansions is standard_expansions(e.ring) for e in cat)


def test_transfer_sweeps_validate_no_induced_table(catalog8, monkeypatch):
    """The transfer sweeps induce what they test on each run and validate
    none of it, and each ring keeps one record per table: a second run adds
    no record, though it builds its induced expansions again."""
    sweeps = ("T-HOM", "T-QUOT", "T-LOC", "T-PROD", "T-TRIV", "T-TRIV-COR")
    validated = []
    original = ExpansionFunction._validate
    monkeypatch.setattr(ExpansionFunction, "_validate",
                        lambda self: validated.append(self.label) or original(self))
    for tid in sweeps:
        verify(tid, catalog8)
    assert validated == []

    def record_count() -> int:
        rings = {id(e.ring): e.ring for e in catalog8}
        for R in list(rings.values()):
            rings.update((id(Q), Q) for Q in R.cache.get("quotients", {}).values())
        return sum(len(R.cache.get("expansion_records", ())) for R in rings.values())

    records = record_count()
    built = _count_expansions_built(monkeypatch)
    validated.clear()
    for tid in sweeps:
        verify(tid, catalog8)
    assert validated == []
    assert record_count() == records
    assert any(label.startswith(("prod(", "bar(", "loc(", "triv(")) for _, label in built)


def test_transfer_sweeps_build_no_ideals(catalog16, monkeypatch):
    """Warm transfer sweeps read positions only: no ideal is built, mapped
    along a projection, split into factors or paired with a submodule."""
    from ringlab.constructions import ProductOf, TrivialExtensionOf
    from ringlab.rings import RingHom

    sweeps = ("T-HOM", "T-QUOT", "T-LOC", "T-PROD", "T-TRIV", "T-TRIV-COR")
    for tid in sweeps:
        verify(tid, catalog16)
    calls = []
    for cls, name in ((Ideal, "__init__"), (RingHom, "image_ideal"), (RingHom, "preimage_ideal"),
                      (ProductOf, "decompose_mask"), (ProductOf, "pair_mask"),
                      (TrivialExtensionOf, "pair_mask")):
        original = getattr(cls, name)

        def counting(*args, _original=original, _name=f"{cls.__name__}.{name}"):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cls, name, counting)
    Ideal(catalog16.entries[0].ring, 1)
    assert calls == ["Ideal.__init__"]
    calls.clear()
    for tid in sweeps:
        verify(tid, catalog16)
    assert calls == []


def test_char_cor_builds_no_expansion(catalog8, monkeypatch):
    """T-CHAR-COR reads id off the ring, as its 1-absorbing prime vector."""
    verify("T-CHAR-COR", catalog8)
    built = _count_expansions_built(monkeypatch)
    report = verify("T-CHAR-COR", catalog8)
    assert built == []
    assert report.instances_checked == len(catalog8)
    assert all(e.expansions[0].label == "id" for e in catalog8)


def test_induced_expansions_keep_the_label_of_their_source(z4):
    z9 = make_zn(9)
    P = make_product(z4, z9)
    Q = make_quotient(z4, span(z4, [2]))
    T = make_trivial_extension(z4, regular_module(z4))
    L = localize(z4, MultiplicativeSet.from_generators(z4, [1])).ring
    d = identity_expansion(z4)
    twin = ExpansionFunction(z4, d.table, "twin")
    assert twin == d
    e9 = identity_expansion(z9)
    cases = [
        (lambda src: induced_product(P, src, e9), "prod({},id)"),
        (lambda src: induced_quotient(Q, src), "bar({},(2))"),
        (lambda src: induced_localization(L, src), "loc({},1)"),
        (lambda src: induced_trivial_extension(T, src), "triv({})"),
    ]
    for induce, label in cases:
        first = induce(d)
        other = induce(twin)
        assert other == first == induce(d)
        assert first.label == label.format("id")
        assert other.label == label.format("twin")


def test_quotients_are_built_once(z12, catalog16):
    I = span(z12, [4])
    assert make_quotient(z12, I) is make_quotient(z12, Ideal(z12, I.mask))
    quotients = [e.ring for e in catalog16 if isinstance(e.ring.construction, QuotientOf)]
    assert quotients
    for Q in quotients:
        parent = Q.construction.parent
        assert make_quotient(parent, Ideal(parent, Q.construction.ideal_mask)) is Q


# ----------------------------------------------------------------------
# induced expansions against the rules they were first defined by


def product_rule(P, d1, d2):
    """I = I1 x I2 goes to d1(I1) x d2(I2)."""
    info = P.construction

    def rule(I):
        m1, m2 = info.decompose_mask(I.mask)
        D1 = d1(Ideal(info.left, m1))
        D2 = d2(Ideal(info.right, m2))
        return Ideal(P, info.pair_mask(D1.mask, D2.mask))

    return rule


def projection_rule(f, delta):
    """J goes to f(delta(f^-1(J))), for a quotient or localization map f."""
    return lambda J: f.image_ideal(delta(f.preimage_ideal(J)))


def trivial_extension_rule(T, delta):
    """J goes to delta(I) x E, I the base part of J's pair envelope."""
    info = T.construction

    def rule(J):
        imask, _ = info.pair_envelope(J.mask)
        D = delta(Ideal(info.base, imask))
        return Ideal(T, info.pair_mask(D.mask, (1 << info.module.order) - 1))

    return rule


def _induced_with_rules(R, sources):
    """Every expansion that the transfer sweeps induce on R from the
    expansions that ``sources`` gives its parent, factors or base, with its
    oracle rule."""
    info = R.construction
    if isinstance(info, ProductOf):
        for d1 in sources[id(info.left)]:
            for d2 in sources[id(info.right)]:
                yield induced_product(R, d1, d2), product_rule(R, d1, d2)
    elif isinstance(info, QuotientOf):
        for d in sources[id(info.parent)]:
            yield induced_quotient(R, d), projection_rule(info.projection, d)
    elif isinstance(info, LocalizationOf):
        for d in sources[id(info.parent)]:
            yield induced_localization(R, d), projection_rule(info.projection, d)
    elif isinstance(info, TrivialExtensionOf):
        for d in sources[id(info.base)]:
            yield induced_trivial_extension(R, d), trivial_extension_rule(R, d)


@pytest.mark.parametrize("tier, count", [
    ("catalog16", 905), ("catalog_enlarged", 1523), ("catalog_every_expansion", 3448)])
def test_induced_tables_match_their_rules(request, tier, count):
    """Each induced table equals ``from_rule`` of the rule that defines it,
    from the stock expansions of both tiers and from every extensive
    monotone table on the bases, which are not translations."""
    seen = 0
    catalog = request.getfixturevalue(tier)
    sources = entry_expansions(catalog)
    for entry in catalog:
        for got, rule in _induced_with_rules(entry.ring, sources):
            want = from_rule(entry.ring, rule, got.label)
            assert got.table == want.table, (entry.provenance, got.label)
            seen += 1
    assert seen == count


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_every_catalog_expansion_is_a_stock_translation(request, tier):
    """Every stock expansion is a translation I -> I + J, one per ideal J, and
    every expansion induced from stock ones along a construction has a stock
    table. The catalog attaches only stock expansions because of this; a
    stock family that is not a translation would fail here."""
    induced = 0
    catalog = request.getfixturevalue(tier)
    sources = entry_expansions(catalog)
    for entry in catalog:
        R = entry.ring
        rad = radical_expansion(R).table
        assert rad == plus_fixed(R, R.jacobson_radical()).table, entry.provenance
        stock = {d.table for d in standard_expansions(R)}
        assert len(stock) == len(standard_expansions(R)) == len(R.ideals()), entry.provenance
        for got, _ in _induced_with_rules(R, sources):
            assert got.table in stock, (entry.provenance, got.label)
            induced += 1
    assert induced


# The configs of the two tiers, for a catalog that no other test has swept.
TIER_CONFIGS = {
    "catalog16": CatalogConfig(max_order=16),
    "catalog_enlarged": CatalogConfig(product_order_limit=64, trivial_extension_limit=128),
}


def _collect_induced(monkeypatch) -> list:
    """Record every expansion that the verifier's sweeps induce, by wrapping
    the four ``induced_*`` functions where the verifier imports them."""
    import ringlab.verifier as verifier

    induced = []
    for name in ("induced_product", "induced_quotient", "induced_localization",
                 "induced_trivial_extension"):
        def collecting(*args, _original=getattr(verifier, name)):
            got = _original(*args)
            induced.append(got)
            return got

        monkeypatch.setattr(verifier, name, collecting)
    return induced


def test_induced_tables_pass_the_validator(catalog_every_expansion, monkeypatch):
    """The ``induced_*`` functions build through ``_built``, which validates
    nothing: a table induced from an expansion is extensive and monotone by
    its construction. The validator is the oracle for that. It accepts every
    expansion that the six transfer sweeps induce on the every-expansion
    catalog, 3,078 of them from its 172 non-stock tables, and T-PROD-EX's
    induced product of its two ``from_rule`` tables."""
    induced = _collect_induced(monkeypatch)
    for tid in ("T-HOM", "T-QUOT", "T-LOC", "T-PROD", "T-TRIV", "T-TRIV-COR", "T-PROD-EX"):
        verify(tid, catalog_every_expansion)
    for d in induced:
        d._validate()
    assert sum(bool(re.search(r"[(,]t\d+[,)]", d.label)) for d in induced) == 3078
    assert [d.label for d in induced if "rad+(2)" in d.label] == ["prod(rad+(2),rad+(2))"]


@pytest.mark.parametrize("tier, count", [("catalog16", 855), ("catalog_enlarged", 1473)])
def test_induced_expansions_share_the_record_of_their_table(tier, count, monkeypatch):
    """Every expansion the six transfer sweeps induce on a fresh catalog
    keeps its own label and takes the table and verdicts of the stock
    expansion with its table on its ring. Its 1-absorbing and delta-primary
    vectors equal ones read fresh from the ring's pass sets at its table."""
    induced = _collect_induced(monkeypatch)
    catalog = build_catalog.__wrapped__(TIER_CONFIGS[tier])
    for tid in ("T-HOM", "T-QUOT", "T-LOC", "T-PROD", "T-TRIV", "T-TRIV-COR"):
        verify(tid, catalog)
    seen = set()
    for got in induced:
        R = got.ring
        if (id(R), got.label) not in seen:
            seen.add((id(R), got.label))
            twin = {d.table: d for d in standard_expansions(R)}[got.table]
            assert got.label.startswith(("prod(", "bar(", "loc(", "triv(")), got.label
            assert got.table is twin.table and got.verdicts is twin.verdicts, got.label
            for name in ("1abs-delta-primary", "delta-primary"):
                pass_sets = predicates._PASS_SETS[name][0](R)
                bits = (s >> q & 1 for s, q in zip(pass_sets, got.table))
                fresh = sum(b << p for p, b in enumerate(bits))
                assert predicates._verdicts(name, R, got) == fresh, (got.label, name)
    assert len(seen) == count


def test_quotient_sweeps_build_only_what_an_instance_reads(monkeypatch):
    """On a fresh default catalog, T-HOM and T-QUOT build no base ring's
    quotient by (0), and induce an expansion along each projection that
    preserves nonunits and along no other: 50 of the 114 (quotient,
    expansion) pairs induce nothing."""
    induced = _collect_induced(monkeypatch)
    catalog = build_catalog.__wrapped__(TIER_CONFIGS["catalog16"])
    for tid in ("T-HOM", "T-QUOT"):
        verify(tid, catalog)
    sources: dict[int, set] = {}
    for got in induced:
        sources.setdefault(id(got.ring), set()).add(got.label)
    bases = [e.ring for e in catalog if e.ring.construction is None]
    unread = read = 0
    for R in bases:
        quotients = R.cache.get("quotients", {})
        assert 1 << R.zero not in quotients, R.label
        for Q in quotients.values():
            pairs = len(standard_expansions(R))
            if Q.construction.projection.is_nonunit_preserving()[0]:
                assert len(sources[id(Q)]) == pairs, Q.label
                read += pairs
            else:
                assert id(Q) not in sources, Q.label
                unread += pairs
    assert (unread, read) == (50, 64)


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_quotient_by_zero_is_the_ring_itself(request, tier):
    """T-QUOT reads its zero row from R and no longer builds R/(0), so that
    row cannot fail in a sweep; this test carries the equivalence instead.
    R/(0) has R's tables, the identity projection, which preserves nonunits,
    and the identity correspondence, and each stock expansion of R induces
    on it its own table and its own verdict vectors."""
    bases = [e.ring for e in request.getfixturevalue(tier) if e.ring.construction is None]
    assert len(bases) == 23
    for R in bases:
        zero = R.proper_ideals()[0]
        assert zero.mask == 1 << R.zero, R.label
        Q0 = make_quotient(R, zero)
        assert (Q0.add_table, Q0.mul_table) == (R.add_table, R.mul_table), R.label
        f = Q0.construction.projection
        assert f.mapping == tuple(range(R.order)), R.label
        assert f.is_nonunit_preserving() == (True, None), R.label
        identity = tuple(range(len(R.ideals())))
        assert _correspondence(Q0) == (identity, identity), R.label
        for d in standard_expansions(R):
            g = induced_quotient(Q0, d)
            assert g.table == d.table, (R.label, d.label)
            for name in ("1abs-delta-primary", "delta-primary"):
                want = predicates._verdicts(name, R, d)
                assert predicates._verdicts(name, Q0, g) == want, (R.label, d.label, name)


def test_invalid_tables_raise_on_rings_that_hold_valid_ones(catalog16):
    """A ring that already holds validated tables rejects an invalid one with
    the error a fresh copy of the ring gives: a short table, a float copy of
    a stock table, an entry off the lattice, a non-extensive table and a
    non-monotone one."""
    rings = 0
    for entry in catalog16:
        R = entry.ring
        n = len(R.ideals())
        if n < 4:
            continue
        rad = list(radical_expansion(R).table)
        assert tuple(rad) in R.cache["expansion_records"]
        shrunk, swapped = list(range(n)), list(range(n))
        shrunk[1], swapped[0] = 0, n - 2
        names = [R.element_name(a) for a in range(R.order)]
        fresh = FiniteRing(R.add_table, R.mul_table, R.label, element_names=names)
        for table, start in ((rad[:-1], "table length"), ([float(q) for q in rad], "image"),
                             (rad[:-1] + [n], "image"), (shrunk, "not extensive"),
                             (swapped, "not monotone")):
            with pytest.raises(ExpansionAxiomError, match=f"^{start}") as want:
                ExpansionFunction(fresh, table, "bad")
            with pytest.raises(ExpansionAxiomError) as got:
                ExpansionFunction(R, table, "bad")
            assert str(got.value) == str(want.value), (entry.provenance, table)
        rings += 1
    assert rings == 114
    # a valid table equal to a recorded one, bools for ints, takes its record
    z4 = make_zn(4)
    d = identity_expansion(z4)
    twin = ExpansionFunction(z4, (False, True, 2), "bools")
    assert twin.table is d.table and twin.verdicts is d.verdicts
    assert ExpansionFunction(z4, [0, 1, 2], "again").table is d.table
    # a float equals an int but is no lattice position, a recorded table or not
    with pytest.raises(ExpansionAxiomError, match=r"^image 1\.0 at \S+ is not a lattice position"):
        ExpansionFunction(z4, (0, 1.0, 2), "bad")


def delta_gamma_hom_scan(f, delta, gamma):
    """The definitional check: compare delta(f^-1(J)) with f^-1(gamma(J)) as ideals."""
    for J in f.codomain.ideals():
        if delta(f.preimage_ideal(J)).mask != f.preimage_ideal(gamma(J)).mask:
            return False, J
    return True, None


def localization_compatibility_scan(L, delta):
    """The definitional check, by images of ideals along the projection."""
    info = L.construction
    f, ds = info.projection, induced_localization(L, delta)
    return all(
        ds(f.image_ideal(I)).mask == f.image_ideal(delta(I)).mask
        for I in info.parent.ideals()
        if not any(s in I for s in info.set_members)
    )


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_compatibility_checks_match_their_scans(request, tier):
    """The position comparisons of ``delta_gamma_hom_check`` and
    ``localization_compatibility`` agree with the ideal-by-ideal scans, both
    verdicts occurring, along every quotient and localization of the tier."""
    outcomes = set()
    for entry in request.getfixturevalue(tier):
        R, info = entry.ring, entry.ring.construction
        if isinstance(info, QuotientOf):
            for d in standard_expansions(info.parent):
                for g in (induced_quotient(R, d), *standard_expansions(R)):
                    got = delta_gamma_hom_check(info.projection, d, g)
                    assert got == delta_gamma_hom_scan(info.projection, d, g)
                    outcomes.add(("hom", got[0]))
        elif isinstance(info, LocalizationOf):
            for d in standard_expansions(info.parent):
                got = localization_compatibility(R, d)
                assert got == localization_compatibility_scan(R, d)
                outcomes.add(("loc", got))
    # the stock families are all compatible; lifting (4) to (2) on Z12 is not
    # at 3, where (0) and (4) have the same extension
    z12 = make_zn(12)
    L = localize(z12, MultiplicativeSet.from_generators(z12, [3])).ring
    four, two = span(z12, [4]), span(z12, [2])
    jump = from_rule(z12, lambda I: two if I.mask == four.mask else I, "jump")
    assert localization_compatibility(L, jump) is localization_compatibility_scan(L, jump) is False
    assert outcomes == {("hom", True), ("hom", False), ("loc", True)}


def test_table_entries_must_be_lattice_positions():
    z4 = make_zn(4)
    n = len(z4.ideals())
    for bad in ([-1] * n, [0, 1, n], [0, 1.0, 2]):
        with pytest.raises(ExpansionAxiomError, match="is not a lattice position"):
            ExpansionFunction(z4, bad, "bad")


def monotone_by_pair_scan(R, table) -> str:
    """The definition: for every pair I inside J, delta(I) inside delta(J).
    The message names the first failing pair in lattice order."""
    lattice = R.ideals()
    for p, I in enumerate(lattice):
        for q, J in enumerate(lattice):
            if not I.mask & ~J.mask and lattice[table[p]].mask & ~lattice[table[q]].mask:
                return f"not monotone at pair ({I.label}, {J.label})"
    return "ok"


def test_validator_matches_the_pair_scan(catalog16):
    """Seeded random extensive tables, eight per ring of the default catalog:
    the validator accepts and rejects exactly as ``monotone_by_pair_scan``
    does, with the same first failing pair in the same message."""
    rng = random.Random(3)
    outcomes = {"ok": 0, "bad": 0}
    for entry in catalog16:
        R = entry.ring
        masks = [I.mask for I in R.ideals()]
        above = [[q for q, b in enumerate(masks) if not a & ~b] for a in masks]
        for _ in range(8):
            table = [rng.choice(qs) for qs in above]
            expect = monotone_by_pair_scan(R, table)
            try:
                ExpansionFunction(R, table, "random")
                got = "ok"
            except ExpansionAxiomError as exc:
                got = str(exc)
            assert got == expect, (entry.provenance, table)
            outcomes["ok" if got == "ok" else "bad"] += 1
    assert outcomes == {"ok": 799, "bad": 721}
