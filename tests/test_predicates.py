"""Membership predicates and their witnesses, checked against slow oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.errors import ProperIdealError
from ringlab.expansions import (
    constant_ring,
    identity_expansion,
    plus_fixed,
    radical_expansion,
    standard_expansions,
)
from ringlab.ideals import primary_check, prime_check, radical, span
from ringlab.predicates import (
    PREDICATE_NAMES,
    classify,
    delta_primary_check,
    delta_semiprimary_check,
    evaluate_predicate,
    idealwise_one_absorbing_check,
    idealwise_one_absorbing_scan,
    is_delta_primary,
    is_delta_semiprimary,
    is_one_absorbing_delta_primary,
    is_one_absorbing_primary,
    is_one_absorbing_prime,
    is_two_absorbing,
    is_two_absorbing_delta_primary,
    one_absorbing_delta_primary_check,
    one_absorbing_delta_primary_scan,
    one_absorbing_primary_check,
    one_absorbing_prime_check,
    two_absorbing_check,
    two_absorbing_delta_primary_check,
    two_absorbing_delta_primary_scan,
)
from ringlab.catalog import CatalogConfig, build_catalog
from ringlab.rings import make_zn


def definitional_pair_scan(I, dm, skip):
    """a*b in I forces a in skip or b in dm, by a plain double loop over all
    elements: the oracle for the pair kernel behind the prime, primary,
    delta-primary and delta-semiprimary checks."""
    R = I.ring
    im = I.mask
    mul = R.mul_table
    for a in range(R.order):
        if (skip >> a) & 1:
            continue
        row = mul[a]
        for b in range(R.order):
            if (im >> row[b]) & 1 and not (dm >> b) & 1:
                return False, (a, b)
    return True, None


def test_delta_primary_z12():
    z12 = make_zn(12)
    d_rad = radical_expansion(z12)
    d_id = identity_expansion(z12)
    assert is_delta_primary(span(z12, [4]), d_rad)  # primary ideal
    assert not is_delta_primary(span(z12, [4]), d_id)  # id-primary means prime
    assert is_delta_primary(span(z12, [2]), d_id)
    ok, wit = delta_primary_check(span(z12, [6]), d_id)
    assert not ok
    a, b = wit
    assert z12.mul(a, b) in span(z12, [6])
    assert a not in span(z12, [6])
    assert b not in span(z12, [6])
    # (6) = (2)(3) is not primary either: rad((6)) = (6) misses both factors
    assert not is_delta_primary(span(z12, [6]), d_rad)


def test_delta_semiprimary_values():
    z12 = make_zn(12)
    d_rad = radical_expansion(z12)
    ok, wit = delta_semiprimary_check(span(z12, [6]), d_rad)
    # 2*3 = 6 with 2 in rad((6)) = (6)? 2 not in (6); 3 not in (6): witness (2,3)
    assert not ok
    assert wit == (2, 3)
    assert is_delta_semiprimary(span(z12, [6]), constant_ring(z12))


def test_one_absorbing_witness_is_lexicographic_minimal():
    z36 = make_zn(36)
    d = plus_fixed(z36, span(z36, [2]))
    I6 = span(z36, [6])
    ok, wit = one_absorbing_delta_primary_check(I6, d)
    assert not ok
    assert wit == (2, 2, 3)
    a, b, c = wit
    assert z36.mul(z36.mul(a, b), c) in I6
    assert z36.mul(a, b) not in I6
    assert c not in d(I6)
    assert not z36.is_unit(a) and not z36.is_unit(b) and not z36.is_unit(c)


def test_two_absorbing_values():
    z36 = make_zn(36)
    d = plus_fixed(z36, span(z36, [2]))
    I6 = span(z36, [6])
    assert is_two_absorbing_delta_primary(I6, d)
    assert is_two_absorbing(I6)
    I8 = span(make_zn(16), [8])
    ok, wit = two_absorbing_check(I8)
    assert not ok
    assert wit == (2, 2, 2)


def test_one_absorbing_prime_vs_prime():
    # primes are 1-absorbing prime; in local rings the converse can fail
    z8 = make_zn(8)
    I4 = span(z8, [4])
    assert not is_one_absorbing_prime(span(z8, [0]))
    assert is_one_absorbing_prime(I4)  # nonunit products land in (4)... check
    z12 = make_zn(12)
    assert is_one_absorbing_prime(span(z12, [2]))
    assert not is_one_absorbing_prime(span(z12, [4]))


def test_one_absorbing_primary_vs_primary():
    z16 = make_zn(16)
    for I in z16.proper_ideals():
        got = is_one_absorbing_primary(I)
        d_rad = radical_expansion(z16)
        assert got == is_one_absorbing_delta_primary(I, d_rad)


def test_proper_required():
    z12 = make_zn(12)
    with pytest.raises(ProperIdealError):
        is_one_absorbing_prime(span(z12, [1]))


def test_scan_agrees_with_optimized_on_catalog(catalog12):
    """Definitional triple loop against the colon-based checker."""
    for entry in catalog12:
        R = entry.ring
        if R.order > 12:
            continue
        for d in entry.expansions:
            for I in R.proper_ideals():
                fast = one_absorbing_delta_primary_check(I, d)
                slow = one_absorbing_delta_primary_scan(I, d)
                assert fast[0] == slow[0], (entry.provenance, d.label, I.label)
                assert fast[1] == slow[1]


def test_two_absorbing_kernels_match_scan_on_default_catalog():
    """Both nonunit-pair kernels against the all-element pair scan, values
    and witnesses, on every (I, delta) of the default catalog."""
    pairs = 0
    for entry in build_catalog(CatalogConfig()):
        R = entry.ring
        ident = identity_expansion(R)
        for I in R.proper_ideals():
            assert two_absorbing_check(I) == two_absorbing_delta_primary_scan(I, ident), (
                entry.provenance, I.label)
            for d in entry.expansions:
                fast = two_absorbing_delta_primary_check(I, d)
                assert fast == two_absorbing_delta_primary_scan(I, d), (
                    entry.provenance, d.label, I.label)
                pairs += 1
    assert pairs == 6588


def test_pair_checks_match_definitional_scan_on_default_catalog():
    """prime, primary, delta-primary and delta-semiprimary against the plain
    double loop, values and witnesses, on every proper ideal and every
    (I, delta) of the default catalog."""
    ideals = pairs = 0
    for entry in build_catalog(CatalogConfig()):
        for I in entry.ring.proper_ideals():
            im, rm = I.mask, radical(I).mask
            assert prime_check(I) == definitional_pair_scan(I, im, im), I
            assert primary_check(I) == definitional_pair_scan(I, rm, im), I
            ideals += 1
            for d in entry.expansions:
                dm = d(I).mask
                assert delta_primary_check(I, d) == definitional_pair_scan(I, dm, im), (
                    d.label, I)
                assert delta_semiprimary_check(I, d) == definitional_pair_scan(I, dm, dm), (
                    d.label, I)
                pairs += 1
    assert (ideals, pairs) == (805, 6588)


def test_one_absorbing_specializations_match_scan_on_default_catalog():
    """1-absorbing prime and primary against the triple-loop oracle at
    delta = id and delta = rad, values and witnesses, on every proper ideal
    of the default catalog."""
    ideals = 0
    for entry in build_catalog(CatalogConfig()):
        R = entry.ring
        d_id, d_rad = identity_expansion(R), radical_expansion(R)
        for I in R.proper_ideals():
            assert one_absorbing_prime_check(I) == one_absorbing_delta_primary_scan(I, d_id), I
            assert one_absorbing_primary_check(I) == one_absorbing_delta_primary_scan(
                I, d_rad), I
            ideals += 1
    assert ideals == 805


def test_memo_is_shared_by_expansions_that_agree_at_the_ideal():
    R = make_zn(8)
    d1, d2 = identity_expansion(R), radical_expansion(R)
    I = span(R, [2])
    assert d1 != d2 and d1(I) == d2(I)
    memo = R.cache.setdefault("predicates", {})
    before = len(memo)
    first = one_absorbing_delta_primary_check(I, d1)
    assert len(memo) == before + 1
    assert one_absorbing_delta_primary_check(I, d2) == first
    assert len(memo) == before + 1


def test_idealwise_scan_agrees(catalog8):
    for entry in catalog8:
        R = entry.ring
        if R.order > 12:
            continue
        for d in entry.expansions:
            for I in R.proper_ideals():
                fast = idealwise_one_absorbing_check(I, d)
                slow = idealwise_one_absorbing_scan(I, d)
                assert fast[0] == slow[0]


def test_idealwise_matches_elementwise(catalog8):
    for entry in catalog8:
        R = entry.ring
        if R.order > 12:
            continue
        for d in entry.expansions:
            for I in R.proper_ideals():
                assert (
                    idealwise_one_absorbing_check(I, d)[0]
                    == one_absorbing_delta_primary_check(I, d)[0]
                )


def test_specializations_on_small_rings():
    for n in range(2, 13):
        R = make_zn(n)
        d_id = identity_expansion(R)
        d_rad = radical_expansion(R)
        for I in R.proper_ideals():
            assert is_one_absorbing_delta_primary(I, d_id) == is_one_absorbing_prime(I)
            assert is_one_absorbing_delta_primary(I, d_rad) == is_one_absorbing_primary(I)


def test_prime_implies_one_absorbing_chain():
    z12 = make_zn(12)
    d_id = identity_expansion(z12)
    for I in z12.proper_ideals():
        # prime => 1abs-prime => 2abs
        if evaluate_predicate("prime", I, None):
            assert is_one_absorbing_prime(I)
        if is_one_absorbing_prime(I):
            assert is_two_absorbing(I)
        if is_one_absorbing_delta_primary(I, d_id):
            assert is_two_absorbing_delta_primary(I, d_id)


def test_witness_validity_everywhere(catalog8):
    """Every recorded failure witness must actually violate the definition."""
    for entry in catalog8:
        R = entry.ring
        if R.order > 16:
            continue
        nonunits = R.nonunits()
        for d in entry.expansions:
            for I in R.proper_ideals():
                ok, wit = one_absorbing_delta_primary_check(I, d)
                if ok:
                    assert wit is None
                    continue
                a, b, c = wit
                assert a in nonunits and b in nonunits and c in nonunits
                assert R.mul(R.mul(a, b), c) in I
                assert R.mul(a, b) not in I
                assert c not in d(I)


def test_classify_shape(z36):
    d = plus_fixed(z36, span(z36, [2]))
    rows = classify(z36, d)
    assert len(rows) == len(z36.proper_ideals())
    for row in rows:
        assert set(row.values) == set(PREDICATE_NAMES)
        for name, wit in row.witnesses.items():
            assert row.values[name] is False
    by_label = {row.ideal.label: row for row in rows}
    assert by_label["(6)"].values["2abs-delta-primary"] is True
    assert by_label["(6)"].values["1abs-delta-primary"] is False
    assert by_label["(6)"].witnesses["1abs-delta-primary"] == (2, 2, 3)


def test_memoization_returns_same_result(z36):
    d = plus_fixed(z36, span(z36, [2]))
    I = span(z36, [6])
    first = one_absorbing_delta_primary_check(I, d)
    second = one_absorbing_delta_primary_check(I, d)
    assert first == second


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=24), st.data())
def test_one_absorbing_scan_random_zn(n, data):
    R = make_zn(n)
    proper = R.proper_ideals()
    I = proper[data.draw(st.integers(min_value=0, max_value=len(proper) - 1))]
    ds = standard_expansions(R)
    d = ds[data.draw(st.integers(min_value=0, max_value=len(ds) - 1))]
    assert (
        one_absorbing_delta_primary_check(I, d)[0]
        == one_absorbing_delta_primary_scan(I, d)[0]
    )
