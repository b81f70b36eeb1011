"""Membership predicates and their witnesses, checked against slow oracles."""

from __future__ import annotations

import re
from collections import Counter
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringlab.errors import ProperIdealError, RingMismatchError, RinglabError
from ringlab.expansions import (
    constant_ring,
    identity_expansion,
    plus_fixed,
    radical_expansion,
    standard_expansions,
)
import ringlab.ideals as ideals
import ringlab.predicates as predicates
from ringlab.ideals import (
    ideal_colon,
    ideal_product,
    maximal_check,
    primary_check,
    prime_check,
    radical,
    span,
)
from ringlab.predicates import (
    DELTA_FREE,
    PREDICATE_NAMES,
    PREDICATES,
    _verdicts,
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
from ringlab.constructions import (
    make_product,
    make_quotient,
    make_trivial_extension,
    quotient_module,
    regular_module,
)
from ringlab.rings import FiniteRing, make_zn
from ringlab.specparse import parse_query
from ringlab.verifier import verify_all
from lattice_oracle import READ_AT, verdict_definition
from test_constructions import SMALL_BASES

# Each check's public function, by name in column order, as a function of
# (I, delta): the oracle tests below call the checks through these.
CHECKS = {
    "prime": lambda I, d: prime_check(I),
    "maximal": lambda I, d: maximal_check(I),
    "primary": lambda I, d: primary_check(I),
    "2abs": lambda I, d: two_absorbing_check(I),
    "1abs-prime": lambda I, d: one_absorbing_prime_check(I),
    "1abs-primary": lambda I, d: one_absorbing_primary_check(I),
    "delta-primary": lambda I, d: delta_primary_check(I, d),
    "delta-semiprimary": lambda I, d: delta_semiprimary_check(I, d),
    "1abs-delta-primary": lambda I, d: one_absorbing_delta_primary_check(I, d),
    "2abs-delta-primary": lambda I, d: two_absorbing_delta_primary_check(I, d),
}


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


def _vector(values) -> int:
    """The verdict vector of booleans given in lattice order."""
    return sum(1 << p for p, ok in enumerate(values) if ok)


def test_verdict_vectors_match_the_checks_on_default_catalog():
    """For every (ring, expansion) of the default catalog and every check,
    bit p of the verdict vector holds the check's value at the proper ideal
    at lattice position p. Each vector lives in the record it is read at. A
    delta-free vector is the very int that its check read at delta(I) holds
    in id's record or in rad's, which is id's where Jac(R) = 0, and no
    record holds a vector under a delta-free check's own name."""
    assert DELTA_FREE == set(READ_AT)
    pairs = jac_zero = 0
    for entry in build_catalog(CatalogConfig()):
        R = entry.ring
        proper = R.proper_ideals()
        stock = {"id": identity_expansion(R), "rad": radical_expansion(R)}
        shared = stock["rad"].verdicts is stock["id"].verdicts
        assert shared == (R.jacobson_radical().mask == 1 << R.zero), entry.provenance
        jac_zero += shared
        for d in entry.expansions:
            for name, check in CHECKS.items():
                got = _verdicts(name, R, d)
                assert got == _vector(check(I, d)[0] for I in proper), (
                    entry.provenance, d.label, name)
                row, at = READ_AT.get(name, (name, None))
                assert (d if at is None else stock[at]).verdicts[row] is got, (
                    entry.provenance, d.label, name)
            pairs += len(proper)
        for d in (*stock.values(), *entry.expansions):
            assert set(d.verdicts) <= set(predicates._PASS_SETS), entry.provenance
    assert pairs == 6588 and 0 < jac_zero < 190


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_verdict_vectors_have_no_bit_at_or_above_the_unit_ideal(request, tier):
    """Every verdict vector of both tiers, under each attached expansion and
    under id, rad and full, is an int below 1 << n for the n proper ideals
    of its ring: a stray high bit, say from ``~``, would be counted by
    ``bit_count()``. The ideal-wise form is read up to order 12, as T-DEF-EQ
    reads it."""
    vectors = 0
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        n = len(R.proper_ideals())
        names = [*CHECKS, "idealwise"] if R.order <= 12 else list(CHECKS)
        stock = (identity_expansion(R), radical_expansion(R), constant_ring(R))
        for d in entry.expansions + stock:
            for name in names:
                got = _verdicts(name, R, d)
                assert type(got) is int and 0 <= got < 1 << n, (entry.provenance, d.label, name)
                vectors += 1
    assert vectors > 0


@pytest.mark.parametrize("tier, tables", [
    ("catalog16", 995), ("catalog_enlarged", 1680), ("catalog_every_expansion", 172)])
def test_the_verdict_kernel_builds_what_the_pass_sets_define(request, tier, tables):
    """Every vector the kernel builds, on every (ring, expansion) of both
    tiers and on the 172 non-stock tables that the every-expansion catalog
    gives its bases, equals the sum over the proper ideals of its pass set's
    bit at the bound. The ideal-wise form is read up to order 12, as T-DEF-EQ
    reads it. The first read of any delta-bounded vector builds all four,
    so reading them in any of the 24 orders fills a fresh expansion's dict
    (one that ``_verdicts`` reads the table and the dict of) with the same
    four vectors."""
    seen = 0
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        names = [*CHECKS, "idealwise"] if R.order <= 12 else list(CHECKS)
        expansions = entry.expansions
        if tier == "catalog_every_expansion":
            expansions = expansions[len(standard_expansions(R)):]
        for d in expansions:
            want = {name: verdict_definition(name, R, d) for name in names}
            for name in names:
                assert _verdicts(name, R, d) == want[name], (entry.provenance, d.label, name)
            group = {name: want[name] for name in predicates._FUSED}
            for order in permutations(group):
                fresh = SimpleNamespace(table=d.table, verdicts={})
                assert _verdicts(order[0], R, fresh) == group[order[0]]
                assert fresh.verdicts == group, (entry.provenance, d.label, order)
                assert [_verdicts(name, R, fresh) for name in order] == [group[n] for n in order]
                assert fresh.verdicts == group
            seen += 1
    assert seen == tables


def test_a_check_at_one_ideal_and_a_query_build_their_own_vectors_alone(monkeypatch):
    """On a new table a check at one ideal builds its own vector and pass
    sets only, and a search query builds the vectors it names, neither of
    them the packed words; the first vector read of another delta-bounded
    check then builds all four, with their pass sets and packed words. A
    cold sweep of a fresh default catalog builds the packed words once for
    each ring that has a fused read, and ``_principal_colons`` looks no
    position up through ``FiniteRing.lattice_position``."""
    R = make_zn(8)
    d, e = plus_fixed(R, span(R, [4])), plus_fixed(R, span(R, [2]))
    assert is_one_absorbing_delta_primary(span(R, [2]), d)
    others = {"primary_pass", "semiprimary_pass", "two_absorbing_pass", "packed_pass"}
    assert set(d.verdicts) == {"1abs-delta-primary"}
    assert "one_absorbing_pass" in R.cache and not others & set(R.cache)
    parse_query("1abs-delta-primary & !delta-primary").verdicts(R, e)
    assert set(e.verdicts) == {"1abs-delta-primary", "delta-primary"}
    assert not {"semiprimary_pass", "two_absorbing_pass", "packed_pass"} & set(R.cache)
    assert _verdicts("delta-semiprimary", R, d) == verdict_definition("delta-semiprimary", R, d)
    assert set(d.verdicts) == set(predicates._FUSED) and others <= set(R.cache)

    builds, fused = Counter(), set()
    build, fill = predicates._packed_pass_sets.__wrapped__, predicates._fill

    def counted_build(R):
        builds[id(R)] += 1
        return build(R)

    def noted_fill(store, names, R, table):
        if names == predicates._FUSED:
            fused.add(id(R))
        fill(store, names, R, table)

    monkeypatch.setattr(predicates._packed_pass_sets, "__wrapped__", counted_build)
    monkeypatch.setattr(predicates, "_fill", noted_fill)
    catalog = build_catalog.__wrapped__(CatalogConfig())
    verify_all(catalog)
    assert {id(entry.ring) for entry in catalog} <= fused
    assert builds == Counter(dict.fromkeys(fused, 1))

    def forbidden(R, mask):
        raise AssertionError("a lattice_position call")

    monkeypatch.setattr(FiniteRing, "lattice_position", forbidden)
    for entry in catalog:
        built = entry.ring.cache.pop("principal_colons")
        assert ideals._principal_colons(entry.ring) == built, entry.provenance


def test_every_bound_above_i_matches_the_scans_on_default_catalog():
    """The 2-absorbing, pair-semiprimary and pair-primary conditions with
    every lattice position J that contains I as the bound, not only I,
    rad(I) and delta(I): the witness scans behind the 2-absorbing
    delta-primary, delta-semiprimary and delta-primary checks, values and
    witnesses, against the all-element pair scans, and bit J of I's pass set
    against the value, on every proper ideal of the default catalog. A check
    reads its bound off an expansion on I's ring, so the scans and the bits
    are read here directly, at bounds that no expansion need reach."""
    kinds = (
        (predicates._two_absorbing, predicates._two_absorbing_pass_sets),
        (lambda R, im, jm: ideals._pair_kernel(R, im, jm, jm), predicates._semiprimary_pass_sets),
        (lambda R, im, jm: ideals._pair_kernel(R, im, jm, im), ideals._primary_pass_sets),
    )
    pairs = 0
    for entry in build_catalog(CatalogConfig()):
        R = entry.ring
        for p, I in enumerate(R.proper_ideals()):
            for q, J in enumerate(R.ideals()):
                if I.mask & ~J.mask:
                    continue
                want = (
                    two_absorbing_delta_primary_scan(I, lambda _: J),
                    definitional_pair_scan(I, J.mask, J.mask),
                    definitional_pair_scan(I, J.mask, I.mask),
                )
                for k, ((witness, pass_sets), scan) in enumerate(zip(kinds, want)):
                    assert witness(R, I.mask, J.mask) == scan, (entry.provenance, I, J, k)
                    assert (pass_sets(R)[p] >> q) & 1 == scan[0], (entry.provenance, I, J, k)
                pairs += 1
    assert pairs == 3217


def assert_checks_match_the_scans(R, expansions):
    """All ten checks, values and witnesses, and their verdict vectors, at
    every proper ideal of R under each expansion, against the definitional
    scans: the pair scan for the primary family, the triple loop for the
    1-absorbing family and the all-element pair scan for the 2-absorbing
    family, each at the bound I, rad(I) or delta(I). Returns the number of
    (I, delta) pairs."""
    lattice = R.ideals()
    proper = R.proper_ideals()
    rad = [R.lattice_position(radical(I).mask) for I in proper]
    scans = {}

    def against(p, q):
        """The four scans of I_p with I_q as the bound. The scans read their
        expansion only through its value at I_p."""
        if (p, q) not in scans:
            I, bound = lattice[p], lattice[q]
            at_bound = lambda J: bound  # noqa: E731
            scans[p, q] = (
                definitional_pair_scan(I, bound.mask, I.mask),
                definitional_pair_scan(I, bound.mask, bound.mask),
                one_absorbing_delta_primary_scan(I, at_bound),
                two_absorbing_delta_primary_scan(I, at_bound),
            )
        return scans[p, q]

    for d in expansions:
        values = {name: [] for name in CHECKS}
        for p, I in enumerate(proper):
            own, at_rad, at_delta = against(p, p), against(p, rad[p]), against(p, d.table[p])
            above = next((J for J in proper[p + 1:] if not I.mask & ~J.mask), None)
            want = {
                "prime": own[0],
                "maximal": (above is None, above),
                "primary": at_rad[0],
                "2abs": own[3],
                "1abs-prime": own[2],
                "1abs-primary": at_rad[2],
                "delta-primary": at_delta[0],
                "delta-semiprimary": at_delta[1],
                "1abs-delta-primary": at_delta[2],
                "2abs-delta-primary": at_delta[3],
            }
            for name, check in CHECKS.items():
                assert check(I, d) == want[name], (R.label, d.label, I.label, name)
                values[name].append(want[name][0])
        for name in CHECKS:
            assert _verdicts(name, R, d) == _vector(values[name]), (R.label, d.label, name)
    return len(proper) * len(expansions)


def _added_by_the_enlarged_tier(catalog16, catalog_enlarged):
    """The entries of the enlarged tier whose ring the default tier lacks.
    Every other entry has the tables, and the expansion labels and tables,
    of the default entry of its provenance, whose checks see the same
    inputs."""
    default = {entry.provenance: entry for entry in catalog16}
    added = []
    for entry in catalog_enlarged:
        same = default.get(entry.provenance)
        if same is None:
            added.append(entry)
            continue
        R, S = entry.ring, same.ring
        assert (R.add_table, R.mul_table) == (S.add_table, S.mul_table), entry.provenance
        assert [(d.label, d.table) for d in entry.expansions] == [
            (d.label, d.table) for d in same.expansions], entry.provenance
    return added


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged", "z262"])
def test_all_checks_match_the_definitional_scans(request, catalog16, tier):
    """Every proper ideal of both tiers, under each attached expansion and
    under id, rad and full; and Z262 = Z2 x Z131 under id, rad and full, the
    one ring above order 256 where checks fail, so its witness scans read
    colons the table built from tuple rows. The enlarged tier checks only
    the 73 rings it adds to the default tier's 190."""
    if tier == "z262":
        entries = [(make_zn(262), ())]
    elif tier == "catalog16":
        entries = [(entry.ring, entry.expansions) for entry in catalog16]
    else:
        added = _added_by_the_enlarged_tier(catalog16, request.getfixturevalue(tier))
        assert len(added) == 73
        entries = [(entry.ring, entry.expansions) for entry in added]
    pairs = 0
    for R, attached in entries:
        stock = (identity_expansion(R), radical_expansion(R), constant_ring(R))
        pairs += assert_checks_match_the_scans(R, attached + stock)
    assert pairs == {"catalog16": 6588 + 3 * 805, "z262": 3 * 3}.get(tier, pairs)


# derandomize fixes the draws: unseeded, they reached a ring of order 256
# whose definitional scans took 40 s. Hypothesis derives the fixed seed from
# the test's source, so an edit to the function below changes what it draws;
# the order cap keeps any such draw from reaching the scans.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_BASES), st.sampled_from(SMALL_BASES), st.data())
def test_all_checks_match_the_scans_on_random_constructed_rings(R1, R2, data):
    """Products, quotients and trivial extensions of random small bases, one
    factor itself a product or a quotient as in the table-builder test, under
    every stock expansion."""
    shape = data.draw(st.sampled_from(["base", "product", "quotient"]))
    if shape == "product" and R1.order * R2.order <= 16:
        R1 = make_product(R1, R2)
    elif shape == "quotient" and len(R1.proper_ideals()) > 1:
        R1 = make_quotient(R1, data.draw(st.sampled_from(R1.proper_ideals()[1:])))
    kind = data.draw(st.sampled_from(["product", "quotient", "trivial extension"]))
    if kind == "product":
        R = make_product(R1, R2)
    elif kind == "quotient" and len(R1.proper_ideals()) > 1:
        R = make_quotient(R1, data.draw(st.sampled_from(R1.proper_ideals()[1:])))
    else:
        modules = [regular_module(R1)] + [quotient_module(R1, J) for J in R1.proper_ideals()[1:]]
        R = make_trivial_extension(R1, data.draw(st.sampled_from(modules)))
    assume(R.order <= 128)
    assert assert_checks_match_the_scans(R, standard_expansions(R)) > 0


def _relabelled(R, sigma):
    """R with element a renamed sigma[a]: the same ring, other indices."""
    n = R.order
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            add[sigma[a]][sigma[b]] = sigma[R.add_table[a][b]]
            mul[sigma[a]][sigma[b]] = sigma[R.mul_table[a][b]]
    return FiniteRing(add, mul, R.label)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_verdicts_survive_relabelling(data):
    """Renaming the elements of a catalog ring of order at most 16 keeps its
    lattice size, and every verdict vector under id, rad and full agrees
    once each ideal is carried to its image. On the renamed ring the
    absorbing kernels equal their scans, values and witnesses."""
    small = [e.ring for e in build_catalog(CatalogConfig()) if e.ring.order <= 16]
    R = data.draw(st.sampled_from(small))
    sigma = data.draw(st.permutations(range(R.order)))
    S = _relabelled(R, sigma)
    assert len(S.ideals()) == len(R.ideals())
    image = [
        S.lattice_position(sum(1 << sigma[a] for a in I.members_sorted))
        for I in R.proper_ideals()
    ]
    for family in (identity_expansion, radical_expansion, constant_ring):
        d, e = family(R), family(S)
        for name in CHECKS:
            theirs = _verdicts(name, S, e)
            assert _verdicts(name, R, d) == _vector(theirs >> q & 1 for q in image), (
                R.label, family.__name__, name)
        for I in S.proper_ideals():
            assert two_absorbing_delta_primary_check(I, e) == two_absorbing_delta_primary_scan(
                I, e), (R.label, sigma, family.__name__, I.label)
            assert one_absorbing_delta_primary_check(I, e) == one_absorbing_delta_primary_scan(
                I, e), (R.label, sigma, family.__name__, I.label)
    ident = identity_expansion(S)
    for I in S.proper_ideals():
        assert two_absorbing_check(I) == two_absorbing_delta_primary_scan(I, ident), (
            R.label, sigma, I.label)


def _no_scan(*args):
    raise AssertionError("a scan ran")


# What a check may run besides reading a pass set: the witness scans, and
# the pieces the pass-set builders are made of. The check table holds its
# witness scans itself, so ``_without_scans`` patches its rows as well.
SCANS = (
    (ideals, "_pair_kernel"), (predicates, "_pair_kernel"), (ideals, "_larger_ideal"),
    (predicates, "_one_absorbing_witness"), (predicates, "_two_absorbing"),
    (predicates, "_idealwise_witness"),
)
BUILDERS = (
    (ideals, "_bounds_containing"), (ideals, "_up_sets"), (predicates, "_up_sets"),
    (ideals, "_colon_up_sets"), (predicates, "_colon_up_sets"),
    (ideals, "_principal_colons"), (predicates, "_principal_colons"),
    (predicates, "_nonunit_products"), (predicates, "_scaling_table"),
)


def _without_scans(patch):
    """Every row of the check table with a witness scan that raises, set
    through ``patch`` (a monkeypatch or its context)."""
    for name, (pass_sets, _, what) in predicates._PASS_SETS.items():
        patch.setitem(predicates._PASS_SETS, name, (pass_sets, _no_scan, what))


def test_passing_checks_read_cached_masks_and_run_no_scan(catalog16, monkeypatch):
    """On Z8 at (2), id and rad agree, and each builds its verdict vector
    from the one 1-absorbing pass set cached on the ring. Over the default
    catalog, under every attached expansion and id, rad and full, every
    check that passes, and the ideal-wise form, reads its ring's cached pass
    set and runs no witness scan and no builder, and no ring gains a
    "predicates" cache entry."""
    R = make_zn(8)
    d1, d2 = identity_expansion(R), radical_expansion(R)
    I = span(R, [2])
    assert d1 != d2 and d1(I) == d2(I)
    read = []
    pass_sets, _, what = predicates._PASS_SETS["1abs-delta-primary"]
    monkeypatch.setitem(predicates._PASS_SETS, "1abs-delta-primary", (
        lambda ring: read.append(pass_sets(ring)) or read[-1], _no_scan, what))
    monkeypatch.setattr(predicates, "_one_absorbing_witness", _no_scan)
    assert one_absorbing_delta_primary_check(I, d1) == (True, None)
    assert one_absorbing_delta_primary_check(I, d2) == (True, None)
    assert len(read) == 2 and read[0] is read[1] is R.cache["one_absorbing_pass"]
    monkeypatch.undo()

    checks = dict(CHECKS, idealwise=idealwise_one_absorbing_check)
    passing = 0
    for entry in catalog16:
        R = entry.ring
        proper = R.proper_ideals()
        expansions = entry.expansions + (
            identity_expansion(R), radical_expansion(R), constant_ring(R))
        names = checks if R.order <= 12 else CHECKS
        verdicts = {(name, d): _verdicts(name, R, d) for name in names for d in expansions}
        cached = {k: v for k, v in R.cache.items() if k.endswith("_pass")}
        with monkeypatch.context() as m:
            for module, name in SCANS + BUILDERS:
                m.setattr(module, name, _no_scan)
            _without_scans(m)
            for (name, d), values in verdicts.items():
                for p, I in enumerate(proper):
                    if values >> p & 1:
                        assert checks[name](I, d) == (True, None), (name, d.label, I)
                        passing += 1
        assert {k: v for k, v in R.cache.items() if k.endswith("_pass")} == cached
        assert all(R.cache[k] is v for k, v in cached.items())
        assert "predicates" not in R.cache, entry.provenance
    assert passing > 0


def test_idealwise_scan_agrees(catalog16, catalog_enlarged):
    """On the rings of order at most 12 of both tiers (the domain of
    T-DEF-EQ), the ideal-wise check against the triple loop over proper
    ideals. A failure's witness (I1, I2, K) has I1*I2 outside I and
    K = (I : I1*I2) outside delta(I), and (I1, I2) is the first such pair in
    canonical order: the pair of the triple loop's witness, whose I3 lies
    inside K."""
    pairs = 0
    for entry in catalog16.entries + catalog_enlarged.entries:
        R = entry.ring
        if R.order > 12:
            continue
        proper = R.proper_ideals()
        for d in entry.expansions:
            for I in proper:
                dm = d(I).mask
                ok, wit = idealwise_one_absorbing_check(I, d)
                slow_ok, slow = idealwise_one_absorbing_scan(I, d)
                assert ok == slow_ok, (entry.provenance, d.label, I.label)
                pairs += 1
                if ok:
                    assert wit is None and slow is None
                    continue
                I1, I2, K = wit
                P = ideal_product(I1, I2)
                assert not P <= I and K == ideal_colon(I, P) and K.mask & ~dm
                first = next((A, B) for A in proper for B in proper
                             if not ideal_product(A, B) <= I
                             and ideal_colon(I, ideal_product(A, B)).mask & ~dm)
                assert (I1, I2) == first == slow[:2], (entry.provenance, d.label, I.label)
                assert slow[2] <= K
    assert pairs == 2 * 648


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_idealwise_pass_sets_match_the_colon_definition(request, tier):
    """On every ring of both tiers, not only the order-12 domain of
    T-DEF-EQ, the ideal-wise pass sets are the bounds that contain the union
    of ``ideal_colon(I, P)`` over the products P of two proper ideals
    outside I. From order 24 on, some such P needs two generators, so a
    colon read at one generator of P shows here."""
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        proper = R.proper_ideals()
        products = {ideal_product(A, B).mask for A in proper for B in proper}
        want = []
        for I in proper:
            w = 0
            for P in products:
                if P & ~I.mask:
                    w |= ideal_colon(I, ideals.Ideal(R, P)).mask
            want.append(ideals._bounds_containing(R, w))
        assert predicates._idealwise_pass_sets(R) == tuple(want), entry.provenance


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


def test_evaluate_predicate_rejects_an_unknown_name_with_a_ringlab_error(z4):
    with pytest.raises(RinglabError, match="unknown predicate 'nope'"):
        evaluate_predicate("nope", span(z4, [2]), None)


def test_evaluate_predicate_without_an_expansion_is_a_ringlab_error(z4, z12):
    """So is the ``PREDICATES`` entry of a delta predicate, and a query that
    names one, even where ``&`` would short-circuit; a delta-free query
    needs no expansion."""
    for call in (lambda: evaluate_predicate("delta-primary", span(z4, [2]), None),
                 lambda: PREDICATES["delta-primary"](span(z4, [2]), None)):
        with pytest.raises(RinglabError, match="^predicate 'delta-primary' needs an expansion$"):
            call()
    I = span(z12, [4])
    for text in ("delta-primary", "prime & delta-primary"):
        with pytest.raises(RinglabError, match=f"^query '{text}' needs an expansion$"):
            parse_query(text).evaluate(I)
    assert parse_query("prime").evaluate(I) is False


def test_evaluate_predicate_keeps_the_checks_errors(z4, z8):
    """A bit reader runs the check's argument checks before it reads the
    bit: a unit ideal raises the check's own ProperIdealError, and an
    expansion on another ring a RingMismatchError. A query reads its bit
    after the same checks, and a delta-free one ignores the expansion."""
    with pytest.raises(ProperIdealError, match="is_delta_primary needs a proper ideal"):
        evaluate_predicate("delta-primary", z4.unit_ideal(), identity_expansion(z4))
    with pytest.raises(ProperIdealError, match="is_prime needs a proper ideal"):
        evaluate_predicate("prime", z4.unit_ideal(), None)
    with pytest.raises(RingMismatchError):
        evaluate_predicate("delta-primary", span(z4, [2]), identity_expansion(z8))
    text = "prime | maximal"
    with pytest.raises(ProperIdealError, match=rf"^query {re.escape(repr(text))} needs a proper"):
        parse_query(text).evaluate(z4.unit_ideal())
    with pytest.raises(RingMismatchError):
        parse_query("!delta-primary").evaluate(span(z4, [2]), identity_expansion(z8))
    assert parse_query("!prime").evaluate(span(z4, [0]), identity_expansion(z8)) is True


def test_predicates_read_verdict_bits_and_run_no_scan(catalog16, monkeypatch):
    """Every entry of PREDICATES, the functions behind ``search``, equals its
    check at every proper ideal of the default catalog under every attached
    expansion, and runs no witness scan, on a failure either. The checks
    themselves run one witness scan per failure and none on a pass."""
    checks = [(name, CHECKS[name], PREDICATES[name]) for name in PREDICATE_NAMES]
    expected = {}
    scans = []
    with monkeypatch.context() as m:
        for name, (pass_sets, witness, what) in predicates._PASS_SETS.items():
            m.setitem(predicates._PASS_SETS, name, (
                pass_sets, lambda *a, w=witness: scans.append(1) or w(*a), what))
        for entry in catalog16:
            for d in entry.expansions:
                for I in entry.ring.proper_ideals():
                    expected[d, I.mask] = [check(I, d)[0] for _, check, _ in checks]
    assert len(scans) == sum(row.count(False) for row in expected.values())
    for module, name in SCANS:
        monkeypatch.setattr(module, name, _no_scan)
    _without_scans(monkeypatch)
    failing = 0
    for entry in catalog16:
        for d in entry.expansions:
            for I in entry.ring.proper_ideals():
                got = [evaluate_predicate(name, I, d) for name, _, _ in checks]
                assert got == [read(I, d) for _, _, read in checks]
                assert got == expected[d, I.mask], (entry.provenance, d.label, I.label)
                failing += got.count(False)
    assert failing > 0


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_nonunit_product_classes(request, tier):
    """The classes that the 1-absorbing pass sets read are the classes of
    the products of two nonunits, and each class's pairs are nonunit class
    generators a <= b whose product lies in it."""
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        gens, cls, _ = ideals._principal_colons(R)
        products = predicates._nonunit_products(R)
        nus = R.nonunit_list
        assert set(products) == {cls[R.mul(a, b)] for a in nus for b in nus}
        for j, pairs in products.items():
            for a, b in pairs:
                assert a <= b and a in gens and b in gens
                assert not R.is_unit(a) and not R.is_unit(b)
                assert cls[R.mul(a, b)] == j, entry.provenance
        nonunit_gens = [g for g in gens if not R.is_unit(g)]
        n = len(nonunit_gens)
        assert sum(map(len, products.values())) == n * (n + 1) // 2


def test_nonunit_product_classes_of_z8(z8):
    """In Z8 the products of two nonunits of {0,2,4,6} are 0 and 4; the class
    generators are 0, 2 and 4, and only 2*2 lands in (4)."""
    nus = z8.nonunit_list
    assert {z8.mul(a, b) for a in nus for b in nus} == {0, 4}
    _, cls, _ = ideals._principal_colons(z8)
    assert predicates._nonunit_products(z8) == {
        cls[0]: ((0, 0), (0, 2), (0, 4), (2, 4), (4, 4)), cls[4]: ((2, 2),)}


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


def test_classify_reads_the_vectors_and_scans_only_the_failures(catalog16, monkeypatch):
    """Over the default catalog under every attached expansion, each
    classify row equals the ten checks at its ideal, values and witnesses,
    and classify runs exactly one witness scan per failing (ideal, check),
    at that ideal, and none on a pass: the scan of the check that a
    delta-free check is read as."""
    assert tuple(CHECKS) == PREDICATE_NAMES
    want, failing = [], []
    for entry in catalog16:
        for d in entry.expansions:
            for I in entry.ring.proper_ideals():
                got = {name: check(I, d) for name, check in CHECKS.items()}
                want.append((I, {name: ok for name, (ok, _) in got.items()},
                             {name: wit for name, (ok, wit) in got.items() if not ok}))
                failing += [(READ_AT.get(name, (name,))[0], I.mask)
                            for name, (ok, _) in got.items() if not ok]
    scans = []
    for name, (pass_sets, witness, what) in predicates._PASS_SETS.items():
        monkeypatch.setitem(predicates._PASS_SETS, name, (
            pass_sets, lambda R, im, bm, w=witness, n=name: scans.append((n, im)) or w(R, im, bm),
            what))
    rows = [row for entry in catalog16 for d in entry.expansions
            for row in classify(entry.ring, d)]
    assert [(row.ideal, row.values, row.witnesses) for row in rows] == want
    assert scans == failing and len(failing) > 0


def test_classify_rejects_an_expansion_of_another_ring(z4, z8):
    with pytest.raises(RingMismatchError):
        classify(z4, identity_expansion(z8))


def test_memoization_returns_same_result(monkeypatch):
    # (12) in Z36 is not 2-absorbing, witness (2, 2, 3), and delta((12)) = (2).
    # The first calls build the ring's pass sets once; the second calls read
    # them, build nothing, and return the same values and witnesses. No call
    # leaves a per-(I, delta) memo entry. The witness scans read the
    # principal-colon table, so it stays unpatched; it is the same object.
    R = make_zn(36)
    d = plus_fixed(R, span(R, [2]))
    I = span(R, [12])
    assert two_absorbing_check(I) == (False, (2, 2, 3))
    assert d(I).mask == span(R, [2]).mask
    checks = (two_absorbing_delta_primary_check, delta_semiprimary_check,
              idealwise_one_absorbing_check, one_absorbing_delta_primary_check)
    first = [check(I, d) for check in checks]
    assert [ok for ok, _ in first] == [True, True, False, False]
    colons = R.cache["principal_colons"]

    def no_build(*args):
        raise AssertionError("a pass set was built again")

    for module, name in BUILDERS:
        if name != "_principal_colons":
            monkeypatch.setattr(module, name, no_build)
    assert [check(I, d) for check in checks] == first
    assert R.cache["principal_colons"] is colons
    assert "predicates" not in R.cache


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
