"""Ideal arithmetic, enumeration, and the elementwise predicates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracle import walk_differences
from ringlab.errors import ConstructionError, ProperIdealError, RingMismatchError
from ringlab.ideals import (
    _jacobson_square,
    _join_column,
    _radical_positions,
    _sum_masks,
    _up_sets,
    all_ideals,
    colon,
    generator_list,
    ideal_colon,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_ideal_mask,
    is_maximal,
    is_prime,
    is_prime_element,
    is_primary,
    is_principal,
    is_radical_ideal,
    principal_generator,
    radical,
    scale,
    span,
)
from ringlab.catalog import CatalogConfig, build_catalog
from ringlab.constructions import ProductOf, QuotientOf, TrivialExtensionOf
from ringlab.ideals import Ideal, _principal_colons, _principal_masks, _principal_table
from ringlab.rings import _colon_rows, make_galois_field, make_zn


def members(I):
    return sorted(I.members)


def closure_span(R, gens):
    """Definitional oracle for span: close the generators under ring
    multiples and sums, one element at a time."""
    n = R.order
    add, mul = R.add_table, R.mul_table
    mask = 1 << R.zero
    members = [R.zero]
    stack = list(gens)
    while stack:
        e = stack.pop()
        if (mask >> e) & 1:
            continue
        mask |= 1 << e
        row = mul[e]
        for r in range(n):
            v = row[r]
            if not (mask >> v) & 1:
                stack.append(v)
        arow = add[e]
        for m in members:
            v = arow[m]
            if not (mask >> v) & 1:
                stack.append(v)
        members.append(e)
    return mask


def _generator_sets(n, max_size):
    yield ()
    for a in range(n):
        yield (a,)
        if max_size >= 2:
            for b in range(a + 1, n):
                yield (a, b)


def test_span_matches_closure_oracle_on_zn():
    for n in range(2, 37):
        R = make_zn(n)
        for gens in _generator_sets(n, 2):
            assert span(R, gens).mask == closure_span(R, gens), (n, gens)


def test_span_matches_closure_oracle_on_constructed_rings():
    """Products, quotients and trivial extensions of the default catalog:
    every single generator, and every pair on rings up to order 24."""
    kinds = (ProductOf, QuotientOf, TrivialExtensionOf)
    rings = [e.ring for e in build_catalog(CatalogConfig())
             if isinstance(e.ring.construction, kinds)]
    assert {type(R.construction) for R in rings} == set(kinds)
    for R in rings:
        for gens in _generator_sets(R.order, 2 if R.order <= 24 else 1):
            assert span(R, gens).mask == closure_span(R, gens), (R.label, gens)
        for I in R.ideals():
            assert span(R, generator_list(I)) == I


def test_principal_masks_are_row_images(z12):
    pm = _principal_masks(z12)
    assert isinstance(pm, tuple) and _principal_masks(z12) is pm
    assert pm[4] == sum(1 << v for v in (0, 4, 8))
    for x in range(12):
        assert Ideal(z12, pm[x]).members == frozenset(z12.mul_table[x])


def test_span_in_z12(z12):
    assert members(span(z12, [4])) == [0, 4, 8]
    assert members(span(z12, [6])) == [0, 6]
    assert members(span(z12, [4, 6])) == [0, 2, 4, 6, 8, 10]
    assert members(span(z12, [])) == [0]
    assert members(span(z12, [5])) == list(range(12))


def test_all_ideals_z12(z12):
    # ideals of Z12 = divisors of 12
    lattice = all_ideals(z12)
    assert len(lattice) == 6
    gens = sorted(min(I.members - {0}) if I.num_elements > 1 else 0 for I in lattice)
    assert gens == [0, 1, 2, 3, 4, 6]
    # canonical order: by size then mask
    sizes = [I.num_elements for I in lattice]
    assert sizes == sorted(sizes)


def test_all_ideals_counts(z36, f4):
    assert len(all_ideals(z36)) == 9  # divisors of 36
    assert len(all_ideals(f4)) == 2
    assert len(all_ideals(make_galois_field(2, 3))) == 2
    assert len(all_ideals(make_zn(16))) == 5


def test_ideal_order_and_containment(z12):
    I4 = span(z12, [4])
    I2 = span(z12, [2])
    assert I4 < I2
    assert I4 <= I2
    assert not I2 <= I4
    assert 4 in I4
    assert 2 not in I4


def test_ring_mismatch_rejected(z12, z8):
    I = span(z12, [4])
    J = span(z8, [4])
    with pytest.raises(RingMismatchError):
        _ = I <= J


# every public call that takes an element argument, on Z4 with I = (2)
ELEMENT_CALLS = {
    "span": lambda R, I, x: span(R, [x]),
    "FiniteRing.span": lambda R, I, x: R.span([x]),
    "FiniteRing.element": lambda R, I, x: R.element(x),
    "colon": lambda R, I, x: colon(I, x),
    "scale": lambda R, I, x: scale(x, I),
    "is_prime_element": lambda R, I, x: is_prime_element(R, x),
}


@pytest.mark.parametrize("call", sorted(ELEMENT_CALLS))
def test_element_arguments_are_range_checked(z4, z8, call):
    fn = ELEMENT_CALLS[call]
    I = span(z4, [2])
    for bad in (4, 9, -1, -2, "1"):
        with pytest.raises(ConstructionError, match=f"{bad!r} is not an element index of .*Z4"):
            fn(z4, I, bad)
    with pytest.raises(RingMismatchError):
        fn(z4, I, z8.element(1))
    assert fn(z4, I, z4.element(3)) == fn(z4, I, 3)


def test_membership_of_an_index_outside_the_ring_is_false(z4, z8):
    I = span(z4, [2])
    assert [x for x in (-2, -1, 0, 1, 2, 3, 4, 9) if x in I] == [0, 2]
    assert z4.element(2) in I
    with pytest.raises(RingMismatchError):
        _ = z8.element(2) in I


def test_sum_product_intersection(z12):
    I4 = span(z12, [4])
    I6 = span(z12, [6])
    assert members(ideal_sum(I4, I6)) == [0, 2, 4, 6, 8, 10]
    assert members(ideal_product(I4, I6)) == [0]
    assert members(ideal_intersection(I4, I6)) == [0]
    I2 = span(z12, [2])
    I3 = span(z12, [3])
    assert members(ideal_product(I2, I3)) == [0, 6]
    assert members(ideal_intersection(I2, I3)) == [0, 6]
    # operator sugar agrees
    assert (I2 + I3).mask == ideal_sum(I2, I3).mask
    assert (I2 * I3).mask == ideal_product(I2, I3).mask
    assert (I2 & I3).mask == ideal_intersection(I2, I3).mask


def test_colon_values(z12):
    I6 = span(z12, [6])
    assert members(colon(I6, 2)) == [0, 3, 6, 9]
    assert members(colon(I6, 3)) == [0, 2, 4, 6, 8, 10]
    assert members(colon(I6, 5)) == [0, 6]
    I4 = span(z12, [4])
    assert members(ideal_colon(I4, span(z12, [2]))) == [0, 2, 4, 6, 8, 10]


def test_radical_values(z12, z36):
    assert members(radical(span(z12, [4]))) == [0, 2, 4, 6, 8, 10]
    assert members(radical(span(z12, [6]))) == [0, 6]
    assert members(radical(span(z36, [4]))) == sorted(range(0, 36, 2))
    assert members(radical(span(z36, [12]))) == sorted(range(0, 36, 6))
    # radical of the unit ideal is the unit ideal
    assert radical(span(z12, [1])).num_elements == 12


def test_scale(z12):
    I = span(z12, [2])
    assert members(scale(3, I)) == [0, 6]
    assert members(scale(0, I)) == [0]
    assert members(scale(5, I)) == members(I)


def test_principal_detection(z12):
    I = span(z12, [4])
    assert is_principal(I)
    assert principal_generator(I) == 4
    assert generator_list(I) == (4,)
    # every ideal of Zn is principal
    for J in all_ideals(z12):
        assert is_principal(J)


def test_nonprincipal_ideal_exists():
    # idealizing Z2 by a rank-2 module gives a maximal ideal needing 2 generators
    from ringlab.constructions import make_trivial_extension, module_product, regular_module

    A = make_zn(2)
    E = module_product(regular_module(A), regular_module(A))
    T = make_trivial_extension(A, E)
    target = None
    for I in all_ideals(T):
        if not is_principal(I):
            target = I
            break
    assert target is not None
    assert len(generator_list(target)) >= 2
    assert span(T, generator_list(target)).mask == target.mask


def test_generators_of_a_mask_that_is_no_ideal(z12):
    """{0, 2} is no ideal of Z12: its generators, and the product and colon
    that span from them, raise ConstructionError instead of computing on
    another ideal."""
    bad, I = Ideal(z12, 0b101), span(z12, [4])
    for call in (lambda: generator_list(bad), lambda: ideal_product(I, bad),
                 lambda: ideal_colon(I, bad)):
        with pytest.raises(ConstructionError, match=r"^5 is not the mask of an ideal of .*Z12"):
            call()


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_generator_walk_matches_the_mask_walk(request, tier):
    """The walk of ``generator_list`` steps through joins; it returns
    exactly the generators of the same walk with its sums formed as masks,
    which the plus:(...) and quotient labels print, at every ideal of both
    tiers. Some of them take the non-principal walk."""
    walked = 0
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        assert walk_differences(R) == [], entry.provenance
        walked += sum(not is_principal(I) for I in R.ideals())
    assert walked


def test_is_ideal_mask(z12):
    for I in all_ideals(z12):
        assert is_ideal_mask(z12, I.mask)
    assert not is_ideal_mask(z12, 0b10)  # {1} misses 0
    assert not is_ideal_mask(z12, 0b11)  # {0,1} not closed under addition


def test_prime_maximal_primary_z12(z12):
    I2 = span(z12, [2])
    I3 = span(z12, [3])
    I4 = span(z12, [4])
    I6 = span(z12, [6])
    I0 = span(z12, [0])
    assert is_prime(I2) and is_maximal(I2)
    assert is_prime(I3) and is_maximal(I3)
    assert not is_prime(I4) and is_primary(I4)
    assert not is_prime(I6) and not is_primary(I6)
    assert not is_primary(I0)
    assert is_radical_ideal(I6)
    assert not is_radical_ideal(I4)


def test_proper_required(z12):
    top = span(z12, [1])
    with pytest.raises(ProperIdealError):
        is_prime(top)


def test_prime_elements(z8, z12):
    # prime elements generate prime ideals
    assert is_prime_element(z8, 2)
    assert not is_prime_element(z8, 4)
    assert not is_prime_element(z8, 1)  # units excluded
    assert not is_prime_element(z8, 0)
    assert is_prime_element(z12, 2)
    assert is_prime_element(z12, 3)
    assert not is_prime_element(z12, 6)


def test_field_has_two_ideals(f4):
    lat = all_ideals(f4)
    assert lat[0].is_zero
    assert not lat[0].is_proper or lat[0].num_elements == 1
    assert lat[1].num_elements == 4
    assert is_maximal(lat[0])
    assert is_prime(lat[0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.data())
def test_ideal_ops_against_integer_arithmetic(n, data):
    """In Zn span(a) is the divisor lattice, so ops reduce to gcd and lcm."""
    import math

    R = make_zn(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    I = span(R, [a])
    J = span(R, [b])
    da = math.gcd(a, n)
    db = math.gcd(b, n)
    assert members(ideal_sum(I, J)) == sorted(range(0, n, math.gcd(da, db)))
    lcm = da * db // math.gcd(da, db)
    expect_inter = sorted(range(0, n, math.lcm(da, db) if lcm else n))
    assert members(ideal_intersection(I, J)) == expect_inter
    prod_gen = math.gcd(da * db, n)
    assert members(ideal_product(I, J)) == sorted(range(0, n, prod_gen))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.data())
def test_colon_definition(n, data):
    R = make_zn(n)
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    d = data.draw(st.integers(min_value=0, max_value=n - 1))
    I = span(R, [a])
    C = colon(I, d)
    expect = {x for x in range(n) if R.mul(d, x) in I}
    assert set(C.members) == expect


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=23))
def test_radical_definition(n, a):
    R = make_zn(n)
    I = span(R, [a % n])
    right = radical(I)
    expect = set()
    for x in range(n):
        y = x
        for _ in range(n):
            if y in I:
                expect.add(x)
                break
            y = R.mul(y, x)
    assert set(right.members) == expect


def radical_scan(I):
    """The definitional radical: x is in it when some power x^k, k up to the
    ring order, lies in I."""
    R = I.ring
    mask = 0
    for x in range(R.order):
        p = x
        for _ in range(R.order):
            if (I.mask >> p) & 1:
                mask |= 1 << x
                break
            p = R.mul_table[p][x]
    return mask


@pytest.mark.parametrize("tier, count", [("catalog16", 7583), ("catalog_enlarged", 15610)])
def test_join_columns_match_the_sums(request, tier, count):
    """At every pair (p, q) of lattice positions, the lowest bit of
    UP[p] & UP[q], entry p of the join column at q, is the position of
    I_p + I_q summed by ``_sum_masks``."""
    pairs = 0
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        masks = [I.mask for I in R.ideals()]
        up = _up_sets(R)
        for q, mq in enumerate(masks):
            want = tuple(R.lattice_position(_sum_masks(R, mp, mq)) for mp in masks)
            both = [u & up[q] for u in up]
            assert tuple((b & -b).bit_length() - 1 for b in both) == want, (entry.provenance, q)
            assert _join_column(R, q) == want, (entry.provenance, q)
            pairs += len(masks)
    assert pairs == count


@pytest.mark.parametrize("tier, count", [("catalog16", 995), ("catalog_enlarged", 1680)])
def test_radical_matches_the_power_scan(request, tier, count):
    """The meet of the maximal ideals above I is the power-scan radical,
    and an ideal, at every lattice ideal of both tiers; so is the ideal at
    I's entry of ``_radical_positions``."""
    seen = 0
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        lattice = R.ideals()
        rpos = _radical_positions(R)
        for I, q in zip(lattice, rpos):
            got = radical(I).mask
            assert got == radical_scan(I), (entry.provenance, I.label)
            assert is_ideal_mask(R, got)
            assert lattice[q].mask == got, (entry.provenance, I.label)
            seen += 1
    assert seen == count


def prime_scan(R, im):
    """The definitional prime test of the ideal mask im: no a, b outside
    it have a*b inside it."""
    outside = [a for a in range(R.order) if not (im >> a) & 1]
    mul = R.mul_table
    return not any((im >> mul[a][b]) & 1 for a in outside for b in outside)


@pytest.mark.parametrize("tier, count", [("catalog16", (296, 296, 812)),
                                         ("catalog_enlarged", (461, 461, 2006))])
def test_maximal_ideals_spectrum_and_prime_elements_match_their_definitions(
        request, tier, count):
    """On every ring of both tiers, ``maximal_ideals()`` holds the proper
    ideals with no proper ideal strictly above them, and ``spectrum()`` those
    that pass the element pair scan, both in lattice order; and
    ``is_prime_element`` holds at the nonzero nonunits x whose spanned ideal
    (x) passes that scan. The counts are of maximal ideals, prime ideals and
    prime elements."""
    seen = [0, 0, 0]
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        proper = R.proper_ideals()
        prime = {I.mask: prime_scan(R, I.mask) for I in proper}
        maximal = tuple(I for I in proper if not any(I < J for J in proper))
        spectrum = tuple(I for I in proper if prime[I.mask])
        assert R.maximal_ideals() == maximal, entry.provenance
        assert R.spectrum() == spectrum, entry.provenance
        elements = 0
        for x, row in enumerate(R.mul_table):
            want = x != R.zero and R.one not in row and prime[span(R, [x]).mask]
            assert is_prime_element(R, x) == want, (entry.provenance, x)
            elements += want
        for k, n in enumerate((len(maximal), len(spectrum), elements)):
            seen[k] += n
    assert tuple(seen) == count


def closure_product(I, J):
    """The products a*b of members, closed under addition: the definitional
    product ideal, the oracle for ``ideal_product``."""
    R = I.ring
    mul, add = R.mul_table, R.add_table
    prods = 0
    for a in I.members_sorted:
        row = mul[a]
        for b in J.members_sorted:
            prods |= 1 << row[b]
    mask = 1 << R.zero
    members = [R.zero]
    stack = [v for v in range(R.order) if (prods >> v) & 1]
    while stack:
        e = stack.pop()
        if (mask >> e) & 1:
            continue
        mask |= 1 << e
        arow = add[e]
        for m in members:
            v = arow[m]
            if not (mask >> v) & 1:
                stack.append(v)
        members.append(e)
    return mask


def test_product_matches_the_closure(catalog16):
    """The span of generator products is the closure of all member products
    at every pair of lattice ideals of the default catalog."""
    pairs = 0
    for entry in catalog16:
        lattice = entry.ring.ideals()
        for I in lattice:
            for J in lattice:
                assert ideal_product(I, J).mask == closure_product(I, J), (
                    entry.provenance, I.label, J.label)
                pairs += 1
    assert pairs == 7583


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_jacobson_square_matches_the_closure(request, tier):
    """The ideal at the cached square's lattice position is the closure
    product of the Jacobson radical with itself on every ring of both tiers,
    and M^2 on the local ones."""
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        jac = R.jacobson_radical()
        square = R.ideals()[_jacobson_square(R)].mask
        assert square == closure_product(jac, jac), entry.provenance
        if R.is_local():
            M = R.maximal_ideals()[0]
            assert square == closure_product(M, M), entry.provenance


@pytest.mark.parametrize("tier, count", [("catalog16", 20963), ("catalog_enlarged", 58862)])
def test_principal_colons_match_colon(request, tier, count):
    """gens lists the smallest generator of each principal ideal in
    ``_principal_table`` order, cls[x] is the index of (x), and
    table[p][cls[x]] is the lattice position of (I_p : x), as the
    entry-by-entry scan ``_colon_rows`` finds it, at every proper ideal and
    element of both tiers."""
    seen = 0
    for entry in request.getfixturevalue(tier):
        seen += _check_principal_colons(entry.ring)
    assert seen == count


def test_principal_colons_above_order_256():
    """Above order 256 the table maps the generators' tuple rows; it agrees
    with the entry-by-entry scan on Z257, a field, and on Z262 = Z2 x Z131."""
    for n, ideals in ((257, 2), (262, 4)):
        R = make_zn(n)
        assert len(R.ideals()) == ideals
        assert _check_principal_colons(R) == (ideals - 1) * n


def _check_principal_colons(R) -> int:
    gens, cls, table = _principal_colons(R)
    pm = _principal_masks(R)
    assert gens == tuple(_principal_table(R).values())
    assert all(pm[gens[cls[x]]] == pm[x] for x in range(R.order))
    assert len(table) == len(R.proper_ideals())
    seen = 0
    for I, row in zip(R.proper_ideals(), table):
        assert len(row) == len(gens)
        for x, m in enumerate(_colon_rows(R.mul_table, I.mask)):
            assert row[cls[x]] == R.lattice_position(m), (R.label, I.label, x)
            seen += 1
    return seen


def test_ideal_colon_matches_the_definition(catalog16):
    """ideal_colon, the meet of (I : g) over the generators g of J, equals
    {x : x*J inside I} at every pair (I, J) of ideals, the unit ideal
    included, of every catalog ring of order at most 16."""
    pairs = 0
    for entry in catalog16:
        R = entry.ring
        if R.order > 16:
            continue
        lattice = R.ideals()
        for I in lattice:
            for J in lattice:
                want = sum(1 << x for x in range(R.order)
                           if all(R.mul(x, j) in I for j in J.members_sorted))
                assert ideal_colon(I, J).mask == want, (entry.provenance, I.label, J.label)
                pairs += 1
    assert pairs == 1776
