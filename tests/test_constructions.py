"""Products, quotients, trivial extensions, and finite localizations."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringlab
import ringlab.cli as cli
from construction_oracle import assert_catalog, assert_module, assert_projection, assert_ring
from ringlab.catalog import CatalogConfig, base_rings, build_catalog
from ringlab.constructions import (
    FiniteModule,
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
    module_product,
    quotient_module,
    quotient_projection,
    regular_module,
)
from ringlab.errors import ConstructionError, ExpansionAxiomError, RingMismatchError, TableError
from ringlab.expansions import ExpansionFunction, from_rule
from ringlab.ideals import (
    Ideal,
    _bounds_containing,
    _principal_colons,
    _principal_masks,
    _principal_table,
    _sum_closure,
    _up_sets,
    all_ideals,
    is_ideal_mask,
    span,
)
from ringlab.rings import FiniteRing, RingHom, _colon_rows, make_zn
from ringlab.specparse import parse_ring
from ringlab.verifier import verify_all


def test_product_structure(z4):
    z9 = make_zn(9)
    P = make_product(z4, z9)
    assert P.order == 36
    assert P.label == "Z4xZ9"
    info = P.construction
    # componentwise arithmetic
    for a1 in range(4):
        for a2 in range(9):
            i = info.encode(a1, a2)
            j = info.encode(z4.neg(a1), z9.neg(a2))
            assert P.neg(i) == j
    assert P.element_name(info.encode(3, 7)) == "(3,7)"
    assert not P.is_local()


def test_product_ideals_decompose(z4):
    z9 = make_zn(9)
    P = make_product(z4, z9)
    info = P.construction
    for I in all_ideals(P):
        m1, m2 = info.decompose_mask(I.mask)
        assert info.pair_mask(m1, m2) == I.mask
    # ideal count multiplies
    assert len(all_ideals(P)) == len(all_ideals(z4)) * len(all_ideals(z9))


def test_quotient_values(z12):
    Q = make_quotient(z12, span(z12, [4]))
    assert Q.order == 4
    assert Q.label == "Z12/(4)"
    proj = quotient_projection(Q)
    assert proj.domain is z12
    assert proj.is_surjective()
    assert sorted(proj.kernel().members) == [0, 4, 8]
    # projection is a ring hom
    for a in range(12):
        for b in range(12):
            assert proj(z12.add(a, b)) == Q.add(proj(a), proj(b))
            assert proj(z12.mul(a, b)) == Q.mul(proj(a), proj(b))


def test_quotient_of_whole_ring_rejected(z12):
    with pytest.raises(ConstructionError):
        make_quotient(z12, span(z12, [1]))


def test_image_preimage_galois(z12):
    Q = make_quotient(z12, span(z12, [6]))
    proj = quotient_projection(Q)
    for J in all_ideals(Q):
        up = proj.preimage_ideal(J)
        assert proj.image_ideal(up).mask == J.mask
    for I in all_ideals(z12):
        if span(z12, [6]) <= I:
            down = proj.image_ideal(I)
            assert proj.preimage_ideal(down).mask == I.mask


def test_invariant_checks_survive_optimize_flag():
    """python -O strips asserts; the invariant checks are real errors."""
    code = (
        "from ringlab.constructions import make_product\n"
        "from ringlab.errors import InvariantError\n"
        "from ringlab.rings import make_zn\n"
        "P = make_product(make_zn(2), make_zn(2))\n"
        "try:\n"
        "    P.construction.decompose_mask(0b1001)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    src = str(Path(ringlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised"


def test_module_axioms_and_colon(z4):
    E = regular_module(z4)
    assert E.order == 4
    # module colon: (F : c) over the regular module is the ideal colon
    fmask = 0b0101  # {0, 2} inside Z4 as a module
    got = E.module_colon(fmask, 2)
    assert got == 0b1111  # 2*x always lands in {0,2}
    got1 = E.module_colon(fmask, 1)
    assert got1 == 0b0101


def test_module_element_arguments_are_range_checked(z4, z8):
    # Z4/(2) has order 2: span takes module elements, module_colon ring elements
    E = quotient_module(z4, span(z4, [2]))
    assert E.span([1]) == 0b11
    assert E.module_colon(0b01, 3) == 0b01
    for bad in (2, 9, -1):
        with pytest.raises(ConstructionError, match=f"{bad} is not an element index of FiniteModule"):
            E.span([bad])
    for bad in (4, 9, -1):
        with pytest.raises(ConstructionError, match=f"{bad} is not an element index of FiniteRing"):
            E.module_colon(0b01, bad)
    assert E.module_colon(0b01, z4.element(2)) == 0b11
    with pytest.raises(RingMismatchError):
        E.module_colon(0b01, z8.element(2))


def test_quotient_module(z4):
    J = span(z4, [2])
    E = quotient_module(z4, J)
    assert E.order == 2
    assert E.spec_label == "quot:(2)"


def test_module_product(z4):
    E = module_product(regular_module(z4), regular_module(z4))
    assert E.order == 16
    subs = E.submodules()
    assert (1 << 0) in subs  # zero submodule as mask over pair indices
    assert len(subs) >= 5


def test_trivial_extension_multiplication(z4):
    T = make_trivial_extension(z4, regular_module(z4))
    assert T.order == 16
    assert T.label == "triv(Z4,reg)"
    info = T.construction
    # (a,e)(b,f) = (ab, af+be); squared module part vanishes
    for a in range(4):
        for e in range(4):
            i = info.encode(a, e)
            j = info.encode(0, e)
            k = T.mul(info.encode(0, e), info.encode(0, e))
            assert k == info.encode(0, 0)
            b, f = info.decode(T.mul(i, i))
            assert b == z4.mul(a, a)
            assert f == z4.mul(2, z4.mul(a, e))
    # local iff base local: Z4 local, so T local
    assert T.is_local()


def test_trivial_extension_pair_ideals(z4):
    T = make_trivial_extension(z4, regular_module(z4))
    info = T.construction
    pairs = info.pair_ideals()
    # every pair I x F with I E inside F really is an ideal mask
    for I, fmask in pairs:
        assert is_ideal_mask(T, info.pair_mask(I.mask, fmask))
    # and conversely, every ideal of pair shape appears
    seen = {info.pair_mask(I.mask, fmask) for I, fmask in pairs}
    for J in all_ideals(T):
        sp = info.split_pair_mask(J.mask)
        if sp is not None:
            assert info.pair_mask(*sp) in seen


def test_pair_envelope(z4):
    T = make_trivial_extension(z4, regular_module(z4))
    info = T.construction
    for J in all_ideals(T):
        imask, fmask = info.pair_envelope(J.mask)
        assert J.mask & ~info.pair_mask(imask, fmask) == 0
        assert info.is_ideal_pair(Ideal(z4, imask), fmask)


@pytest.mark.parametrize("tier, extensions", [("catalog16", 32), ("catalog_enlarged", 42)])
def test_pair_ideals_are_the_ideal_pairs(request, tier, extensions):
    """``pair_ideals``, which tests I E inside F with one mask per base
    ideal, lists the (I, F) that ``is_ideal_pair`` accepts, in base lattice
    then submodule order, on every trivial extension of both tiers. Their
    bases are principal ideal rings, so one more extension has a base whose
    maximal ideal needs two generators: Z2 extended by Z2 x Z2."""
    z2 = make_zn(2)
    A = make_trivial_extension(z2, module_product(regular_module(z2), regular_module(z2)))
    rings = [entry.ring for entry in request.getfixturevalue(tier)]
    seen = 0
    for R in rings + [make_trivial_extension(A, regular_module(A))]:
        info = R.construction
        if isinstance(info, TrivialExtensionOf):
            want = tuple((I, F) for I in info.base.ideals() for F in info.module.submodules()
                         if info.is_ideal_pair(I, F))
            assert info.pair_ideals() == want, R.label
            seen += 1
    assert seen == extensions + 1


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_pair_encoding_matches_the_scans_on_every_construction(request, tier):
    """The row-major pair encoding that products and trivial extensions
    share, against definitional scans on every one of both tiers: each
    pair mask is the set of encoded pairs; a product ideal, and a pair ideal
    of an extension (a product of an ideal and a submodule that the ideal
    scan accepts), splits into its parts; every other ideal of an extension
    has no split; and the pair envelope of an ideal is the smallest pair
    ideal that contains it."""
    seen = Counter()
    for entry in request.getfixturevalue(tier):
        R, info = entry.ring, entry.ring.construction
        if isinstance(info, ProductOf):
            seen["product"] += 1
            for I1 in info.left.ideals():
                for I2 in info.right.ideals():
                    mask = pair_mask_scan(info, I1.mask, I2.mask, info.right.order)
                    assert info.pair_mask(I1.mask, I2.mask) == mask, R.label
                    assert info.decompose_mask(mask) == (I1.mask, I2.mask), R.label
        elif isinstance(info, TrivialExtensionOf):
            seen["trivial extension"] += 1
            A, E = info.base, info.module
            pairs = {}
            for I in A.ideals():
                for F in E.submodules():
                    mask = pair_mask_scan(info, I.mask, F, E.order)
                    assert info.pair_mask(I.mask, F) == mask, R.label
                    if is_ideal_mask(R, mask):
                        pairs[mask] = (I.mask, F)
            assert list(pairs.values()) == [(I.mask, F) for I, F in info.pair_ideals()], R.label
            for J in R.ideals():
                assert info.split_pair_mask(J.mask) == pairs.get(J.mask), (R.label, J.label)
                above = [m for m in pairs if not J.mask & ~m]
                smallest = min(above, key=int.bit_count)
                assert all(not smallest & ~m for m in above), (R.label, J.label)
                assert info.pair_envelope(J.mask) == pairs[smallest], (R.label, J.label)
    assert seen["product"] and seen["trivial extension"], seen


def test_multiplicative_set_validation(z12):
    with pytest.raises(ConstructionError):
        MultiplicativeSet(z12, {1, 2})  # 2*2=4 missing
    with pytest.raises(ConstructionError):
        MultiplicativeSet(z12, {0, 1})
    with pytest.raises(ConstructionError):
        MultiplicativeSet(z12, {3, 9})  # missing one
    S = MultiplicativeSet.from_generators(z12, [5])
    assert S.members == {1, 5}


def test_multiplicative_set_rejects_non_elements():
    z2 = make_zn(2)
    with pytest.raises(ConstructionError, match="set member 5 is not an element of Z2"):
        MultiplicativeSet(z2, {1, 5})
    with pytest.raises(ConstructionError, match="set member '1' is not an element of Z2"):
        MultiplicativeSet(z2, {1, "1"})
    for gens in ([5], [1.0], [-1]):
        with pytest.raises(ConstructionError, match=f"set member {gens[0]!r} is not an element"):
            MultiplicativeSet.from_generators(z2, gens)


def test_multiplicative_set_checks_the_generators_it_is_given(z12):
    """Generators given with the members must be elements whose products
    are exactly the members, as ``from_generators`` computes them; the
    localization's label is made from them. (5) generates {1, 5}, not
    {1, 3, 9}, and 99 is no element of Z12."""
    with pytest.raises(ConstructionError,
                       match=r"^generators \[5\] do not generate the set \[1, 3, 9\]$"):
        MultiplicativeSet(z12, {1, 3, 9}, generators=(5,))
    with pytest.raises(ConstructionError, match="^set member 99 is not an element of Z12$"):
        MultiplicativeSet(z12, {1, 5, 7, 11}, generators=(99,))
    S = MultiplicativeSet(z12, {1, 5, 7, 11}, generators=(5, 7))
    assert S.generators == (5, 7)
    assert localize(z12, S).ring.label == "loc(Z12,5,7)"
    assert MultiplicativeSet(z12, {1, 3, 9}, generators=(3,)).members == {1, 3, 9}


def test_localize_z12_at_3(z12):
    S = MultiplicativeSet.from_generators(z12, [3])
    loc = localize(z12, S)
    L = loc.ring
    # killing the 3-torsion leaves Z4
    assert L.order == 4
    assert sorted(loc.kernel.members) == [0, 4, 8]
    assert L.is_local()
    assert loc.projection.is_surjective()
    assert L.label == "loc(Z12,3)"


def test_localize_at_units_is_identity_quotient(z12):
    S = MultiplicativeSet.from_generators(z12, [5])
    loc = localize(z12, S)
    assert loc.ring.order == 12
    assert loc.kernel.is_zero


def test_localize_at_prime_complement(z12):
    # complement of (2): odd residues, multiplicatively closed
    comp = [a for a in range(12) if a not in span(z12, [2])]
    S = MultiplicativeSet(z12, comp)
    loc = localize(z12, S)
    assert loc.ring.order == 4
    assert loc.ring.is_local()


def test_localization_kernel_formula(z12):
    S = MultiplicativeSet.from_generators(z12, [2])
    loc = localize(z12, S)
    expect = {r for r in range(12) if any(z12.mul(s, r) == 0 for s in S.members)}
    assert set(loc.kernel.members) == expect
    # 2 becomes a unit downstairs
    img = loc.projection(2)
    assert loc.ring.is_unit(img)


def test_cross_ring_module_rejected(z4, z12):
    E = regular_module(z4)
    with pytest.raises(RingMismatchError):
        make_trivial_extension(z12, E)


def test_arithmetical_matches_the_localizations_on_default_catalog():
    """``is_arithmetical`` reads R/K_M off the ideals containing K_M; the
    oracle localizes at every maximal ideal and asks whether the
    localization is chained."""
    seen = []
    for entry in build_catalog(CatalogConfig()):
        R = entry.ring
        want = all(
            localize(R, MultiplicativeSet(R, frozenset(range(R.order)) - M.members)).ring.is_chained()
            for M in R.maximal_ideals()
        )
        assert R.is_arithmetical() == want, entry.provenance
        seen.append(want)
    assert len(seen) == 190 and any(seen) and not all(seen)


def pair_mask_scan(info, left_mask, right_mask, right_order):
    """The mask of every (a, b) with a in the left mask and b in the right."""
    return sum(
        1 << info.encode(a, b)
        for a in range(left_mask.bit_length())
        if (left_mask >> a) & 1
        for b in range(right_order)
        if (right_mask >> b) & 1
    )


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_correspondence_matches_the_ideal_maps(request, tier):
    """Every lattice-position map of ``_correspondence`` against the ideal
    maps it stands for: images and preimages along the projection, the
    factors of a product ideal, and pair envelopes and pair ideals."""
    kinds = set()
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        info = R.construction
        if info is None:
            continue
        kinds.add(type(info).__name__)
        pos, lattice = R.lattice_position, R.ideals()
        if isinstance(info, (QuotientOf, LocalizationOf)):
            f, P = info.projection, info.parent
            img, pre = _correspondence(R)
            assert img == tuple(pos(f.image_ideal(I).mask) for I in P.ideals())
            assert pre == tuple(P.lattice_position(f.preimage_ideal(J).mask) for J in lattice)
        elif isinstance(info, ProductOf):
            comp, inv = _correspondence(R)
            R1, R2 = info.left, info.right
            assert comp == tuple(
                (R1.lattice_position(m1), R2.lattice_position(m2))
                for m1, m2 in (info.decompose_mask(J.mask) for J in lattice)
            )
            assert inv == {
                (p1, p2): pos(pair_mask_scan(info, I1.mask, I2.mask, R2.order))
                for p1, I1 in enumerate(R1.ideals())
                for p2, I2 in enumerate(R2.ideals())
            }
        else:
            env, up, pairs = _correspondence(R)
            A, m = info.base, info.module.order
            full = (1 << m) - 1
            assert env == tuple(A.lattice_position(info.pair_envelope(J.mask)[0]) for J in lattice)
            assert up == tuple(pos(pair_mask_scan(info, I.mask, full, m)) for I in A.ideals())
            assert pairs == tuple(
                (A.lattice_position(I.mask), pos(pair_mask_scan(info, I.mask, F, m)), F)
                for I, F in info.pair_ideals()
            )
    assert kinds == {"ProductOf", "QuotientOf", "LocalizationOf", "TrivialExtensionOf"}


def test_product_tables_match_their_definitional_routes(request):
    """Every table that a product reads off its factors against its route on
    the product's own tables, on every product of both tiers and on Z2^6,
    Z4xZ4xZ4 and Z2xZ3xZ4: the principal masks are the row images, the
    lattice is their sum closure in the same order, the principal colons map
    the generators' rows, the up-sets are scanned from the lattice masks,
    and the correspondence pairs the factors' ideals entry by
    entry."""
    products = [entry.ring for tier in ("catalog16", "catalog_enlarged")
                for entry in request.getfixturevalue(tier)
                if isinstance(entry.ring.construction, ProductOf)]
    products += map(parse_ring, ("Z2xZ2xZ2xZ2xZ2xZ2", "Z4xZ4xZ4", "Z2xZ3xZ4"))
    for P in products:
        label = P.label
        info, rows = P.construction, P.mul_table
        pm = tuple(sum(1 << v for v in set(row)) for row in rows)
        assert _principal_masks(P) == pm, label
        first = {}
        for x, m in enumerate(pm):
            first.setdefault(m, x)
        assert list(_principal_table(P).items()) == list(first.items()), label
        masks = tuple(I.mask for I in P.ideals())
        assert masks == _sum_closure(P, pm), label
        pos = P.lattice_position
        gens, _, table = _principal_colons(P)
        assert gens == tuple(first.values()), label
        colon_rows = [rows[g] for g in gens]
        assert table == tuple(tuple(map(pos, _colon_rows(colon_rows, m))) for m in masks[:-1]), label
        assert _up_sets(P) == tuple(_bounds_containing(P, m) for m in masks), label
        R1, R2 = info.left, info.right
        inv = {
            (p1, p2): pos(pair_mask_scan(info, I1.mask, I2.mask, R2.order))
            for p1, I1 in enumerate(R1.ideals())
            for p2, I2 in enumerate(R2.ideals())
        }
        assert _correspondence(P) == (tuple(sorted(inv, key=inv.__getitem__)), inv), label
        assert list(_correspondence(P)[1]) == list(inv), label
    assert len(products) == 76 + 139 + 3, len(products)


def product_tables_by_entry(R1, R2):
    """The product's tables, one entry at a time: the oracle of the row
    assembly in ``make_product``."""
    n1, n2 = R1.order, R2.order
    n = n1 * n2
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for b1 in range(n2):
            i = a1 * n2 + b1
            arow1, mrow1 = R1.add_table[a1], R1.mul_table[a1]
            arow2, mrow2 = R2.add_table[b1], R2.mul_table[b1]
            for a2 in range(n1):
                base_a = arow1[a2] * n2
                base_m = mrow1[a2] * n2
                for b2 in range(n2):
                    j = a2 * n2 + b2
                    add[i][j] = base_a + arow2[b2]
                    mul[i][j] = base_m + mrow2[b2]
    return add, mul


def trivial_extension_tables_by_entry(A, E):
    """The trivial extension's tables, one entry at a time: the oracle of the
    row assembly in ``make_trivial_extension``."""
    n, m = A.order, E.order
    order = n * m
    add = [[0] * order for _ in range(order)]
    mul = [[0] * order for _ in range(order)]
    for a in range(n):
        for e in range(m):
            i = a * m + e
            arowA, mrowA = A.add_table[a], A.mul_table[a]
            act_a = E.action[a]
            for b in range(n):
                act_b = E.action[b]
                base_a = arowA[b] * m
                base_m = mrowA[b] * m
                for f_ in range(m):
                    j = b * m + f_
                    add[i][j] = base_a + E.add_table[e][f_]
                    mul[i][j] = base_m + E.add_table[act_a[f_]][act_b[e]]
    return add, mul


SMALL_BASES = base_rings(CatalogConfig(max_order=9))


def _tables(add, mul):
    return tuple(map(tuple, add)), tuple(map(tuple, mul))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_BASES), st.sampled_from(SMALL_BASES), st.data())
def test_row_built_tables_match_the_entry_builders(R1, R2, data):
    """Products and trivial extensions of random small bases, one of them
    itself a product or a quotient, against the entry-by-entry builders."""
    shape = data.draw(st.sampled_from(["base", "product", "quotient"]))
    if shape == "product" and R1.order * R2.order <= 16:
        R1 = make_product(R1, R2)
        assert_ring(R1)
    elif shape == "quotient" and len(R1.proper_ideals()) > 1:
        R1 = make_quotient(R1, data.draw(st.sampled_from(R1.proper_ideals()[1:])))
        assert_ring(R1)
        assert_projection(quotient_projection(R1))
    P = make_product(R1, R2)
    assert (P.add_table, P.mul_table) == _tables(*product_tables_by_entry(R1, R2))
    assert_ring(P)
    modules = [regular_module(R1)] + [quotient_module(R1, J) for J in R1.proper_ideals()[1:]]
    E = data.draw(st.sampled_from(modules))
    E2 = data.draw(st.sampled_from(modules))
    if data.draw(st.booleans()) and R1.order * E.order * E2.order <= 128:
        E = module_product(E, E2)
    assert_module(E)
    T = make_trivial_extension(R1, E)
    assert (T.add_table, T.mul_table) == _tables(*trivial_extension_tables_by_entry(R1, E))
    assert_ring(T)


# ----------------------------------------------------------------------
# submodule lattices against the definitional scan


def _is_submodule_mask(E, mask):
    """Definitional scan: holds zero, closed under + and under the action."""
    if not (mask >> E.zero) & 1:
        return False
    elems = [e for e in range(E.order) if (mask >> e) & 1]
    for e in elems:
        row = E.add_table[e]
        if any(not (mask >> row[f]) & 1 for f in elems):
            return False
        if any(not (mask >> E.action[r][e]) & 1 for r in range(E.ring.order)):
            return False
    return True


def _module_cases(request):
    """Every module of both catalog tiers, by (base, module) label, plus
    direct products of small modules."""
    modules = {}
    for tier in ("catalog16", "catalog_enlarged"):
        for entry in request.getfixturevalue(tier):
            info = entry.ring.construction
            if isinstance(info, TrivialExtensionOf):
                modules.setdefault((info.base.label, info.module.spec_label), info.module)
    z2, z3, z4 = make_zn(2), make_zn(3), make_zn(4)
    dual = parse_ring("Z2[x]/(x^2)")
    products = [
        module_product(regular_module(z2), regular_module(z2)),
        module_product(module_product(regular_module(z2), regular_module(z2)), regular_module(z2)),
        module_product(regular_module(z3), regular_module(z3)),
        module_product(quotient_module(z4, span(z4, [2])), regular_module(z4)),
        module_product(regular_module(dual), quotient_module(dual, span(dual, [2]))),
        module_product(regular_module(z4), regular_module(z4)),
    ]
    return list(modules.values()) + products


def test_submodules_and_spans_match_the_definitional_scan(request):
    """submodules() is every mask that passes the scan over all 2^m subsets,
    in canonical order, and span of each pair of elements is the smallest."""
    cases = _module_cases(request)
    assert len(cases) == 42 + 6
    for E in cases:
        scanned = [m for m in range(1 << E.order) if _is_submodule_mask(E, m)]
        assert E.submodules() == tuple(sorted(scanned, key=lambda m: (m.bit_count(), m))), E
        for e in range(E.order):
            for f in range(e, E.order):
                want = (1 << E.order) - 1
                for m in scanned:
                    if (m >> e) & 1 and (m >> f) & 1:
                        want &= m
                assert E.span((e, f)) == want, (E, e, f)
        assert E.span(()) == 1 << E.zero


def _z2_module(add=None, action=None):
    """Z2 as a module over Z2, with one table replaced."""
    z2 = make_zn(2)
    return FiniteModule(
        z2,
        [[0, 1], [1, 0]] if add is None else add,
        [[0, 0], [0, 1]] if action is None else action,
        "bad",
    )


# Z2 x Z2 as a group, indexed 0..3 by bits
KLEIN = [[a ^ b for b in range(4)] for a in range(4)]


@pytest.mark.parametrize("add, action, error, message", [
    ([], [[], []], ConstructionError, "module must be nonempty"),
    ([[0, 1], [1]], None, TableError, r"module addition table row 1 has length 1, expected 2"),
    ([[0, 1], [1, 2]], None, TableError, r"module addition table entry \[1\]\[1\] = 2 out of range"),
    ([[0, 1], [1, 0.0]], None, TableError, r"module addition table entry \[1\]\[1\] = 0.0 is not an integer"),
    (None, [[0, 0]], TableError, "module action table must have one row per ring element"),
    (None, [[0, 0], [0]], TableError, "module action table is malformed"),
    (None, [[0, 0], [0, 2]], TableError, "module action table is malformed"),
    (None, [[0, 0], [0, "1"]], TableError, "module action table is malformed"),
    ([[0, 1], [0, 0]], None, TableError, r"module addition is not commutative, witness \(0, 1\)"),
    ([[1, 1], [1, 1]], None, TableError, "module addition has no identity"),
    ([[0, 1, 2], [1, 2, 2], [2, 2, 1]], [[0, 0, 0], [0, 1, 2]], TableError,
     "module element 1 has no additive inverse"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], [[0, 0, 0], [0, 1, 2]], TableError,
     r"module addition not associative at \(1, ?1, ?2\)"),
    (None, [[0, 0], [0, 0]], TableError, "module action of one is not the identity"),
    (KLEIN, [[0, 1, 0, 0], [0, 1, 2, 3]], TableError, r"action not additive at \(0, ?1, ?2\)"),
    (None, [[0, 1], [0, 1]], TableError, r"action not linear in the ring at \(0, ?0, ?1\)"),
])
def test_module_rejects_each_broken_table(add, action, error, message):
    with pytest.raises(error, match=message):
        _z2_module(add, action)


def test_module_rejects_element_names_of_the_wrong_length():
    with pytest.raises(ConstructionError, match="element_names length must equal the module order"):
        FiniteModule(make_zn(2), [[0, 1], [1, 0]], [[0, 0], [0, 1]], "bad", element_names=["a"])


def test_module_rejects_a_non_associative_action(f4):
    """F4 on Z2 x Z2 through the additive map sending 1 and a to the identity
    and a + 1 to zero: additive and linear in the ring, but a*a = a + 1 acts
    as zero while a(a e) = e."""
    a = next(x for x in range(4) if x not in (f4.zero, f4.one))
    ident = list(range(4))
    action = [ident if r in (f4.one, a) else [0] * 4 for r in range(4)]
    with pytest.raises(TableError, match="action not associative at"):
        FiniteModule(f4, KLEIN, action, "bad")


# ----------------------------------------------------------------------
# constructions carry their proofs: the validating constructors as oracle


@pytest.mark.parametrize("tier, counts", [
    ("catalog16", {"bases": 23, "rings": 167, "projections": 59, "modules": 32, "sets": 275,
                   "stock tables": 995}),
    ("catalog_enlarged", {"bases": 23, "rings": 240, "projections": 59, "modules": 42,
                          "sets": 275, "stock tables": 1680}),
])
def test_constructions_match_their_validating_rebuilds(request, tier, counts):
    """Every constructed ring of the tier, its projection, module and
    multiplicative set, every set the catalog localizes a base ring at, and
    every stock table, rebuilt through the public validating path: the same
    tables, zero, one and names (see ``construction_oracle``)."""
    assert assert_catalog(request.getfixturevalue(tier)) == counts


@pytest.mark.parametrize("build", [make_quotient, quotient_module])
@pytest.mark.parametrize("mask", [0b110, 1 << 12 | 1, 0b10])
def test_a_coset_construction_rejects_a_mask_that_is_no_ideal(z12, build, mask):
    """R/K is a ring, and A/J a module, when K and J are ideals: a quotient
    is no longer validated, so its construction checks that hypothesis."""
    with pytest.raises(ConstructionError, match=f"^{mask} is not the mask of an ideal of"):
        build(z12, Ideal(z12, mask))


def _count_validations(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for cls in (FiniteRing, RingHom, ExpansionFunction):
        def counted(self, validate=cls._validate, name=cls.__name__):
            calls[name] += 1
            return validate(self)

        monkeypatch.setattr(cls, "_validate", counted)
    return calls


def test_a_catalog_build_validates_only_its_base_rings(monkeypatch):
    """Building the default catalog proves the 23 base rings and nothing
    else: no projection and no expansion is validated."""
    calls = _count_validations(monkeypatch)
    catalog = build_catalog.__wrapped__(CatalogConfig())
    assert (len(catalog), sum(len(e.expansions) for e in catalog)) == (190, 995)
    assert (calls["FiniteRing"], calls["RingHom"], calls["ExpansionFunction"]) == (23, 0, 0)


def test_only_caller_expansions_are_validated(monkeypatch, capsys):
    """Expansion validation runs on caller data only: never in a default
    build, in the whole suite only on T-PROD-EX's two ``from_rule`` tables,
    and never when classifying each stock expansion of each catalog ring
    from its specs. An induced table is proven by its construction, and
    ``test_induced_tables_pass_the_validator`` runs the validator on it."""
    validated: list = []

    def counted(self, validate=ExpansionFunction._validate):
        validated.append(self.ring.label)
        return validate(self)

    monkeypatch.setattr(ExpansionFunction, "_validate", counted)
    catalog = build_catalog.__wrapped__(CatalogConfig())
    assert validated == []
    verify_all(catalog)
    assert validated == ["Z4", "Z9"]
    validated.clear()
    for entry in catalog:
        for d in entry.expansions:
            assert cli.main(["classify", "--ring", entry.provenance, "--delta", d.label,
                             "--json"]) == 0, (entry.provenance, d.label)
            capsys.readouterr()
    assert validated == []


def _z2_ring_with_mul(mul):
    return FiniteRing([[0, 1], [1, 0]], mul, "bad")


@pytest.mark.parametrize("build, error, message, validated", [
    (lambda z: _z2_ring_with_mul([[0, 1], [0, 1]]), TableError,
     r"multiplication is not commutative, witness \(0, 1\)", "FiniteRing"),
    (lambda z: _z2_ring_with_mul([[0, 0], [0, 0]]), TableError,
     "multiplication has no identity element", "FiniteRing"),
    (lambda z: RingHom(z[4], z[2], [0, 1, 1, 1]), TableError,
     r"homomorphism is not additive, witness \(1, 1\)", "RingHom"),
    (lambda z: RingHom(z[2], z[4], [0, 1]), TableError,
     r"homomorphism is not additive, witness \(1, 1\)", "RingHom"),
    (lambda z: FiniteModule(z[2], [[0, 1], [1, 0]], [[0, 0], [0, 0]], "bad"), TableError,
     "module action of one is not the identity", None),
    (lambda z: MultiplicativeSet(z[12], {1, 2}), ConstructionError,
     r"set is not multiplicatively closed, witness \(2, 2\)", None),
    (lambda z: MultiplicativeSet(z[8], {0, 1}), ConstructionError,
     "multiplicative set contains zero, localization would be the zero ring", None),
    (lambda z: MultiplicativeSet(z[8], {3}), ConstructionError,
     "multiplicative set must contain one", None),
    (lambda z: MultiplicativeSet.from_generators(z[8], (3, 2)), ConstructionError,
     "multiplicative set contains zero, localization would be the zero ring", None),
    (lambda z: MultiplicativeSet.from_generators(z[8], (8,)), ConstructionError,
     "set member 8 is not an element of Z8", None),
    (lambda z: ExpansionFunction(z[8], (0, 1, 2), "bad"), ExpansionAxiomError,
     "table length 3 does not match lattice size 4", "ExpansionFunction"),
    (lambda z: ExpansionFunction(z[8], (0, 1, 2, 7), "bad"), ExpansionAxiomError,
     r"image 7 at \(1\) is not a lattice position", "ExpansionFunction"),
    (lambda z: ExpansionFunction(z[8], (0, 0, 2, 3), "bad"), ExpansionAxiomError,
     r"not extensive at \(4\): image \(0\)", "ExpansionFunction"),
    (lambda z: ExpansionFunction(z[8], (2, 1, 2, 3), "bad"), ExpansionAxiomError,
     r"not monotone at pair \(\(0\), \(4\)\)", "ExpansionFunction"),
    (lambda z: from_rule(z[8], lambda I: z[8].zero_ideal(), "bad"), ExpansionAxiomError,
     r"not extensive at \(4\): image \(0\)", "ExpansionFunction"),
])
def test_the_public_constructors_still_prove_caller_data(monkeypatch, build, error, message,
                                                           validated):
    """The constructors and ``from_rule``, given caller data, run their
    validation and raise what they raised before constructions stopped
    validating, after the stock expansions of each ring are made."""
    z = {n: make_zn(n) for n in (2, 4, 8, 12)}
    for R in z.values():
        ringlab.standard_expansions(R)
    calls = _count_validations(monkeypatch)
    with pytest.raises(error, match=f"^{message}$"):
        build(z)
    assert calls == (Counter({validated: 1}) if validated else Counter())
