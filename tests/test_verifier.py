"""The sweep harness: reports, determinism, witnesses, and failure detection."""

from __future__ import annotations

import functools
import itertools
import json
import random
import re
import sys
import threading
from pathlib import Path

import pytest

from construction_oracle import assert_catalog
from expansion_tables import all_expansion_tables, entry_expansions
from lattice_oracle import colon_fixed, colon_fixed_differences
from test_ideals import closure_product
import ringlab.catalog as catalog_module
import ringlab.constructions as constructions
import ringlab.expansions as expansions
import ringlab.ideals as ideals
import ringlab.predicates as predicates
import ringlab.verifier as verifier
from ringlab.catalog import Catalog, CatalogConfig, CatalogEntry, build_catalog
from ringlab.constructions import LocalizationOf, ProductOf, TrivialExtensionOf
from ringlab.errors import UnknownTheoremError
from ringlab.expansions import (
    ExpansionFunction,
    constant_ring,
    from_rule,
    identity_expansion,
    induced_trivial_extension,
    is_intersection_preserving,
    localization_compatibility,
    preserves_jacobson,
    satisfies_star,
    scaling_check,
    standard_expansions,
)
from ringlab.ideals import Ideal, colon, ideal_intersection, ideal_product, is_principal, radical
from ringlab.predicates import one_absorbing_delta_primary_check
from ringlab.rings import FiniteRing, make_zn
from ringlab.verifier import (
    THEOREM_IDS,
    TheoremReport,
    Witness,
    search_witness,
    verify,
    verify_all,
)


def strip_elapsed(report: TheoremReport) -> dict:
    d = report.to_dict()
    d.pop("elapsed")
    return d


def test_theorem_id_listing():
    """The statement ids are the sweeps' registration order, pinned here in
    full: T-PROD-EX sits between T-PROD and T-TRIV."""
    assert len(THEOREM_IDS) == 26
    assert len(set(THEOREM_IDS)) == 26
    assert THEOREM_IDS[0] == "T-DEF-EQ"
    assert THEOREM_IDS == (
        "T-DEF-EQ", "T-CHAIN", "T-MONO", "T-2ABS", "T-SEMI", "T-LOCAL", "T-XM", "T-COLON",
        "T-M2", "T-CHAINED", "T-ARITH", "T-PMAX", "T-SQRT", "T-IDEM", "T-INTER", "T-PRINC",
        "T-CHAR", "T-CHAR-COR", "T-SPEC", "T-HOM", "T-QUOT", "T-LOC", "T-PROD", "T-PROD-EX",
        "T-TRIV", "T-TRIV-COR",
    )


def test_unknown_id_rejected(catalog8):
    with pytest.raises(UnknownTheoremError):
        verify("T-NOPE", catalog8)


def test_suite_green_at_12(catalog12):
    reports = verify_all(catalog12)
    assert len(reports) == 26
    for r in reports:
        assert r.status == "verified", r.theorem_id
        assert not r.conclusion_failures
        assert r.instances_checked > 0
        if r.theorem_id != "T-XM":
            assert r.hypothesis_satisfied > 0, r.theorem_id


def test_xm_vacuity_is_reported(catalog12):
    r = verify("T-XM", catalog12)
    assert r.hypothesis_satisfied == 0
    assert any("vacuous" in n or "no instance" in n for n in r.notes)


def test_report_json_schema(catalog8):
    r = verify("T-CHAIN", catalog8)
    d = json.loads(r.to_json())
    assert list(d) == [
        "theorem_id",
        "status",
        "instances_checked",
        "hypothesis_satisfied",
        "conclusion_failures",
        "notes",
        "elapsed",
    ]
    assert d["theorem_id"] == "T-CHAIN"
    assert d["status"] == "verified"
    assert isinstance(d["conclusion_failures"], list)


def test_determinism(catalog8):
    a = [strip_elapsed(r) for r in verify_all(catalog8)]
    b = [strip_elapsed(r) for r in verify_all(catalog8)]
    assert a == b


def test_jobs_independence(catalog8):
    """``verify_all``'s ``jobs=`` is accepted and changes no report."""
    tids = ("T-CHAIN", "T-PROD", "T-TRIV")
    serial = [strip_elapsed(r) for r in verify_all(catalog8, tids, jobs=1)]
    threaded = [strip_elapsed(r) for r in verify_all(catalog8, tids, jobs=4)]
    assert serial == threaded


def test_radical_sweeps_build_no_ideals(catalog16, monkeypatch):
    """Warm T-SQRT, T-SEMI and T-PMAX read radicals as lattice positions, and
    T-PMAX reads M^2 from the per-ring square. Warm T-XM reads x*M from the
    scaling table and T-SPEC reads delta(0) at lattice position 0 and tests
    it against the position of (0 : M), which it reads off the zero ideal's
    colons. None of them builds an ideal."""
    sweeps = ("T-SQRT", "T-SEMI", "T-PMAX", "T-XM", "T-SPEC")
    cold = {tid: strip_elapsed(verify(tid, catalog16)) for tid in sweeps}
    built = []
    original = Ideal.__init__

    def counting(self, ring, mask):
        built.append(id(ring))
        original(self, ring, mask)

    monkeypatch.setattr(Ideal, "__init__", counting)
    Ideal(catalog16.entries[0].ring, 1)
    assert len(built) == 1
    built.clear()
    for tid in sweeps:
        assert strip_elapsed(verify(tid, catalog16)) == cold[tid], tid
        assert built == [], tid


SQUARE_READERS = ("T-M2", "T-CHAINED", "T-ARITH", "T-PMAX", "T-CHAR", "T-CHAR-COR", "T-SPEC")


def test_square_sweeps_make_no_products(catalog16, monkeypatch):
    """Warm sweeps that read M^2 or Jac^2 take its lattice position from the
    per-ring square, and T-SPEC tests delta(0) against (0 : M), so it forms
    no product cold or warm: none makes an ``ideal_product`` call. The cold
    T-SPEC run sweeps a freshly built catalog, whose rings hold no table.
    A square built afresh joins scaling entries and forms no product
    either, so the counter is checked on ``Ideal.__mul__``, which does."""
    fresh = build_catalog.__wrapped__(CatalogConfig())
    calls = []
    original = ideals.ideal_product

    def counting(I, J):
        calls.append(I.ring.label)
        return original(I, J)

    monkeypatch.setattr(ideals, "ideal_product", counting)
    monkeypatch.setattr(predicates, "ideal_product", counting)
    assert strip_elapsed(verify("T-SPEC", fresh)) == strip_elapsed(verify("T-SPEC", catalog16))
    assert calls == [], "T-SPEC, cold"
    for tid in SQUARE_READERS:
        verify(tid, catalog16)
    calls.clear()
    for tid in SQUARE_READERS:
        verify(tid, catalog16)
        assert calls == [], tid
    for entry in catalog16:
        entry.ring.cache.pop("jacobson_square", None)
    verify("T-M2", catalog16)
    assert calls == [], "T-M2, its squares cold"
    unit = next(iter(catalog16)).ring.ideals()[-1]
    assert (unit * unit).mask == unit.mask
    assert calls, "the counter sees the product that Ideal.__mul__ makes"


def test_cold_sweeps_form_no_product(monkeypatch):
    """Once a ring's lattice exists, the catalog and the sweeps read every
    sum, product, colon meet and scaled ideal they need off lattice
    positions. Building the default catalog afresh and running all 26
    statements on it cold make no ``ideal_product`` call, and call
    ``_sum_masks`` only from ``_sum_closure``, which builds the lattices, and
    from T-PROD-EX's caller rule, which spans (2) and adds it to radicals
    with ``Ideal.__add__``."""
    statement = [None]  # the statement being swept, None while building
    products, sums = [], []
    original_product, original_sum = ideals.ideal_product, ideals._sum_masks

    def counting_product(I, J):
        products.append(statement[0])
        return original_product(I, J)

    def counting_sum(R, m1, m2):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_sum_closure":
            sums.append((statement[0], caller))
        return original_sum(R, m1, m2)

    monkeypatch.setattr(ideals, "ideal_product", counting_product)
    monkeypatch.setattr(predicates, "ideal_product", counting_product)
    monkeypatch.setattr(ideals, "_sum_masks", counting_sum)
    monkeypatch.setattr(constructions, "_sum_masks", counting_sum)
    fresh = build_catalog.__wrapped__(CatalogConfig())
    for tid in THEOREM_IDS:
        statement[0] = tid
        verify(tid, fresh)
    assert products == []
    assert set(sums) == {("T-PROD-EX", "span"), ("T-PROD-EX", "__add__")}
    statement[0] = "Ideal.__mul__"
    unit = next(iter(fresh)).ring.ideals()[-1]
    assert (unit * unit).mask == unit.mask
    assert products == ["Ideal.__mul__"], "the counter sees the product that Ideal.__mul__ makes"


def test_cold_sweeps_form_no_module_colon(monkeypatch):
    """On the success path the sweeps do bit operations and table lookups
    per expansion. Building the default catalog afresh and running all 26
    statements on it cold make no ``FiniteModule.module_colon`` call: T-TRIV
    reads its colon-fixed pairs off one mask per submodule. T-INTER tests
    ``is_intersection_preserving`` only for the 879 expansions with two or
    more 1-absorbing positions, since no pair can hold its hypothesis
    otherwise. The counter then sees a direct ``module_colon`` call."""
    colons, preserving = [], []
    module_colon, original = constructions.FiniteModule.module_colon, is_intersection_preserving

    def counting_colon(E, fmask, c):
        colons.append(E.spec_label)
        return module_colon(E, fmask, c)

    def counting_preserving(d):
        preserving.append(d)
        return original(d)

    monkeypatch.setattr(constructions.FiniteModule, "module_colon", counting_colon)
    monkeypatch.setattr(verifier, "is_intersection_preserving", counting_preserving)
    fresh = build_catalog.__wrapped__(CatalogConfig())
    for tid in THEOREM_IDS:
        verify(tid, fresh)
    assert colons == []
    several = [d for e in sorted(fresh.entries, key=lambda e: e.provenance)
               for d in e.expansions if verifier._one_abs(d).bit_count() >= 2]
    assert len(preserving) == len(several) == 879
    assert all(a is b for a, b in zip(preserving, several))
    E = next(e.ring.construction.module for e in fresh
             if isinstance(e.ring.construction, TrivialExtensionOf))
    assert E.module_colon(1 << E.zero, E.ring.zero) == (1 << E.order) - 1
    assert colons == [E.spec_label], "the counter sees a direct module_colon call"


@pytest.mark.parametrize("tier, local", [("catalog16", 98), ("catalog_enlarged", 104)])
def test_spec_reads_products_with_m_off_the_annihilator(request, tier, local):
    """T-SPEC reads delta(0)*M = 0 as delta(0) inside (0 : M). On every local
    ring of both tiers and at every ideal J, bit ``_annihilator(R, M)`` of
    UP[J] is set exactly when the closure product J*M is the zero ideal. A
    colon read at one generator of M alone disagrees on some of them."""
    rings = 0
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        if not R.is_local():
            continue
        rings += 1
        M = R.maximal_ideals()[0]
        ann = verifier._annihilator(R, M)
        for J, up in zip(R.ideals(), ideals._up_sets(R)):
            assert bool(up >> ann & 1) == (closure_product(J, M) == 1 << R.zero), (
                entry.provenance, J.label)
    assert rings == local


@pytest.mark.parametrize("tier, counts", [("catalog16", (32, 188, 121)),
                                          ("catalog_enlarged", (42, 260, 161))])
def test_triv_colon_masks_match_the_module_colons(request, tier, counts):
    """T-TRIV reads whether (F : c) = F for every c outside I_p off one mask
    per submodule F, the c that fix F. On every trivial extension of both
    tiers, each pair ideal's flag equals the colons formed one
    ``module_colon`` at a time, and the pairs come in ``pair_ideals`` order.
    Pinned: the extensions, their pairs over proper ideals, and the pairs
    whose flag is set."""
    extensions = pairs = fixed = 0
    for entry in request.getfixturevalue(tier):
        T = entry.ring
        if isinstance(T.construction, TrivialExtensionOf):
            assert colon_fixed_differences(T) == [], entry.provenance
            flags = [colon_fixed for _, _, colon_fixed in verifier._triv_pairs(T)]
            extensions, pairs, fixed = extensions + 1, pairs + len(flags), fixed + sum(flags)
    assert (extensions, pairs, fixed) == counts


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden" / "check-default.json"
ENLARGED_GOLDEN = ROOT / "tests" / "golden" / "check-enlarged.json"


def _assert_matches_golden(catalog, path):
    *golden, summary = json.loads(path.read_text(encoding="utf-8"))
    reports = []
    for r in verify_all(catalog):
        d = strip_elapsed(r)
        for failure in d["conclusion_failures"]:
            failure["ideal"] = sorted(failure["ideal"])
        reports.append(d)
    assert reports == golden
    assert sum(d["instances_checked"] for d in reports) == summary["summary"]["instances_checked"]
    assert sum(d["hypothesis_satisfied"] for d in reports) == summary["summary"]["hypothesis_satisfied"]


def test_statement_results_match_the_golden(catalog16):
    """Instance counts, hypothesis counts, failures and notes of every
    statement on the default catalog, against the recorded golden."""
    _assert_matches_golden(catalog16, GOLDEN)


def _relabelled(R: FiniteRing, rng: random.Random) -> FiniteRing:
    """R with its elements renumbered by a random permutation: element a of R
    is element perm[a] of the copy, with a's name."""
    perm = list(range(R.order))
    rng.shuffle(perm)
    old = sorted(range(R.order), key=perm.__getitem__)  # old[perm[a]] = a
    add = [[perm[R.add_table[a][b]] for b in old] for a in old]
    mul = [[perm[R.mul_table[a][b]] for b in old] for a in old]
    return FiniteRing(add, mul, R.label, element_names=[R.element_names[a] for a in old])


def _modulo_labels(note: str) -> str:
    """A note with each element index list of a label, such as the (8) of
    Z16/(8), replaced: those indices change with the labelling."""
    return re.sub(r"\([0-9,]+\)", "(*)", note)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_relabelled_catalog_gives_the_golden_counts(monkeypatch, seed):
    """The default catalog built from base rings whose elements are renumbered
    by a seeded permutation, so that zero and one sit at other indices than
    0 and 1 in most of them: the constructions take both from their inputs,
    and the validating constructors find the same (``construction_oracle``).
    Every statement keeps the golden's instance, hypothesis and failure
    counts, and T-CHAR its notes up to the indices in labels."""
    rng = random.Random(seed)
    bases = tuple(_relabelled(R, rng) for R in catalog_module.base_rings(CatalogConfig()))
    assert sum(R.zero != 0 for R in bases) > 11 and sum(R.one != 1 for R in bases) > 11
    monkeypatch.setattr(catalog_module, "base_rings", lambda config: bases)
    relabelled = build_catalog.__wrapped__(CatalogConfig())
    assert assert_catalog(relabelled) == {"bases": 23, "rings": 167, "projections": 59,
                                          "modules": 32, "sets": 275, "stock tables": 995}
    *golden, _ = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reports = verify_all(relabelled)
    assert [(r.theorem_id, r.instances_checked, r.hypothesis_satisfied, len(r.conclusion_failures))
            for r in reports] == [(g["theorem_id"], g["instances_checked"], g["hypothesis_satisfied"],
                                   len(g["conclusion_failures"])) for g in golden]
    char = THEOREM_IDS.index("T-CHAR")
    assert sorted(map(_modulo_labels, reports[char].notes)) == sorted(
        map(_modulo_labels, golden[char]["notes"]))


def test_enlarged_tier_matches_the_golden(catalog_enlarged):
    """The same on the enlarged tier: 263 rings up to order 128, with
    products of non-local factors, 1,680 expansions and 789,521 instances."""
    assert len(catalog_enlarged) == 263
    assert sum(len(e.expansions) for e in catalog_enlarged) == 1680
    _assert_matches_golden(catalog_enlarged, ENLARGED_GOLDEN)


def test_colon_positions_match_colon_on_default_catalog():
    """T-COLON reads (I : a), for the proper ideal I at position p and a
    nonunit a outside I, at entry table[p][cls[a]] of the principal colons,
    and the unit ideal's entry where a is in I: each is the lattice position
    of ``colon(I, a)``."""
    rows = 0
    for entry in build_catalog(CatalogConfig()):
        R = entry.ring
        _, cls, table = ideals._principal_colons(R)
        top = len(R.proper_ideals())
        assert len(table) == len(R.proper_ideals())
        for I, row in zip(R.proper_ideals(), table):
            got = tuple(-1 if row[cls[a]] == top else row[cls[a]] for a in R.nonunit_list)
            want = tuple(
                -1 if a in I else R.lattice_position(colon(I, a).mask) for a in R.nonunit_list
            )
            assert got == want, (entry.provenance, I.label)
            rows += 1
    assert rows == 805


@pytest.mark.parametrize("tier", ["catalog16", "catalog_enlarged"])
def test_colon_reach_holds_the_colons_by_nonunits_outside(request, tier):
    """Row p of ``_colon_reach``, which T-COLON screens with, holds the
    lattice positions of (I_p : a) for the nonunits a outside I_p, and no
    other: not I_p = (I_p : 1) unless a nonunit reaches it."""
    for entry in request.getfixturevalue(tier):
        R = entry.ring
        assert verifier._colon_reach(R) == [
            sum({1 << R.lattice_position(colon(I, a).mask) for a in R.nonunit_list if a not in I})
            for I in R.proper_ideals()], entry.provenance


def test_colon_shortcut_reports_every_failure_of_the_loop(catalog16, monkeypatch):
    """With one delta-primary verdict cleared at a position that a colon row
    of a 1-absorbing delta-primary ideal reaches, T-COLON reports the
    failures, witnesses and counts of the per-nonunit loop."""
    reach = {}
    for entry in catalog16:
        R = entry.ring
        colons = [[R.lattice_position(colon(I, a).mask) for a in R.nonunit_list if a not in I]
                  for I in R.proper_ideals()]
        for d in entry.expansions:
            one_abs = verifier._one_abs(d)
            for p, row in enumerate(colons):
                for k in row:
                    if one_abs >> p & 1:
                        reach[d, k] = reach.get((d, k), 0) + 1
    d0, k0 = max(reach, key=reach.get)
    assert verifier._primary(d0) >> k0 & 1
    before = verify("T-COLON", catalog16)
    assert _sweep_reference("T-COLON", catalog16) == (
        before.instances_checked, before.hypothesis_satisfied, []
    )
    verdicts = verifier._verdicts

    def cleared(which, R, d=None):
        got = verdicts(which, R, d)
        return got & ~(1 << k0) if which == "delta-primary" and d is d0 else got

    monkeypatch.setattr(verifier, "_verdicts", cleared)
    report = verify("T-COLON", catalog16)
    checked, hits, failures = _sweep_reference("T-COLON", catalog16)
    cap = verifier.FAILURE_CAP
    assert len(failures) == reach[d0, k0] > cap
    assert len({w.ideal for w in failures[:cap]}) > 1
    assert (report.instances_checked, report.hypothesis_satisfied) == (checked, hits)
    assert report.conclusion_failures == tuple(failures[:cap])
    assert f"conclusion failures truncated to {cap} of {len(failures)}" in report.notes
    assert (checked, hits) == (before.instances_checked, before.hypothesis_satisfied)


def _mono_reference(catalog):
    """T-MONO as a loop over every ordered pair of distinct expansions and
    every proper ideal, comparing the ideals delta(I) and gamma(I)
    themselves: its counts, and its failures in report order."""
    checked = hits = 0
    failures = []
    for entry in sorted(catalog.entries, key=lambda e: e.provenance):
        R = entry.ring
        for d in entry.expansions:
            for g in entry.expansions:
                if d is g:
                    continue
                d_abs, g_abs = verifier._one_abs(d), verifier._one_abs(g)
                for p, I in enumerate(R.proper_ideals()):
                    checked += 1
                    if d_abs >> p & 1 and d(I) <= g(I):
                        hits += 1
                        if not g_abs >> p & 1:
                            _, wit = one_absorbing_delta_primary_check(I, g)
                            failures.append(Witness(
                                entry.provenance, tuple(R.element_name(i) for i in I.members_sorted),
                                f"{d.label} -> {g.label}",
                                None if wit is None else tuple(R.element_name(i) for i in wit),
                            ))
    return checked, hits, failures


def test_mono_counts_by_value_as_the_pair_loop_does(catalog16, monkeypatch):
    """T-MONO counts the pair loop's instances and hypotheses. With one
    1-absorbing verdict cleared at the expansion and position that the most
    delta reach, it reports the loop's failures, in order, and the loop's
    truncation note."""
    assert _mono_reference(catalog16) == (61380, 16756, [])
    before = verify("T-MONO", catalog16)
    assert (before.instances_checked, before.hypothesis_satisfied) == (61380, 16756)
    reach = {}
    for entry in catalog16:
        for g in entry.expansions:
            for p, I in enumerate(entry.ring.proper_ideals()):
                reach[g, p] = sum(
                    1 for d in entry.expansions
                    if d is not g and verifier._one_abs(d) >> p & 1 and d(I) <= g(I))
    g0, p0 = max(reach, key=reach.get)
    assert verifier._one_abs(g0) >> p0 & 1
    original = verifier._one_abs

    def cleared(d):
        got = original(d)
        return got & ~(1 << p0) if d is g0 else got

    cap = reach[g0, p0] // 2
    monkeypatch.setattr(verifier, "_one_abs", cleared)
    monkeypatch.setattr(verifier, "FAILURE_CAP", cap)
    report = verify("T-MONO", catalog16)
    checked, hits, failures = _mono_reference(catalog16)
    assert len(failures) == reach[g0, p0] > cap > 1
    assert (report.instances_checked, report.hypothesis_satisfied) == (checked, hits)
    assert report.conclusion_failures == tuple(failures[:cap])
    assert f"conclusion failures truncated to {cap} of {len(failures)}" in report.notes
    assert checked == 61380


def test_inter_reads_each_meet_off_the_meet_table(catalog16, monkeypatch):
    """With the 1-absorbing verdict cleared at the intersection of the most
    hypothesis pairs whose ideals are incomparable, T-INTER reports what the
    pair loop reports."""
    meets = {}
    for entry in catalog16:
        proper = entry.ring.proper_ideals()
        for d in entry.expansions:
            one_abs = verifier._one_abs(d)
            if not is_intersection_preserving(d):
                continue
            for p, I in enumerate(proper):
                for q in range(p + 1, len(proper)):
                    K = ideal_intersection(I, proper[q])
                    if (one_abs >> p & 1 and one_abs >> q & 1 and d.table[p] == d.table[q]
                            and K.mask not in (I.mask, proper[q].mask)):
                        k = entry.ring.lattice_position(K.mask)
                        meets[d, k] = meets.get((d, k), 0) + 1
    d0, k0 = max(meets, key=meets.get)
    verdicts = verifier._verdicts

    def cleared(which, R, d=None):
        got = verdicts(which, R, d)
        return got & ~(1 << k0) if which == "1abs-delta-primary" and d is d0 else got

    monkeypatch.setattr(verifier, "_verdicts", cleared)
    report = verify("T-INTER", catalog16)
    checked, hits, failures = _sweep_reference("T-INTER", catalog16)
    assert len(failures) == meets[d0, k0] > 0
    assert (report.instances_checked, report.hypothesis_satisfied) == (checked, hits)
    assert report.conclusion_failures == tuple(failures)


def test_inter_reports_its_failing_pairs_in_pair_order(catalog16, monkeypatch):
    """T-INTER collects its failing pairs one delta value at a time and
    sorts them. One expansion's 1-absorbing vector is set to five positions
    in two of its value groups, a1 < a2 < a3 and b1 < b2 with a1 < b1 < a2,
    leaving out the meets of (a2, a3) and (b1, b2): both pairs fail, and
    (b1, b2) is reported first, as the pair loop reports it."""

    def interleaved():
        for entry in sorted(catalog16.entries, key=lambda e: e.provenance):
            meet, n = expansions._meet_table(entry.ring), len(entry.ring.proper_ideals())
            for d in entry.expansions:
                if not is_intersection_preserving(d):
                    continue
                groups = {}
                for p in range(n):
                    groups.setdefault(d.table[p], []).append(p)
                for A, B in itertools.permutations(groups.values(), 2):
                    for a1, a2, a3 in itertools.combinations(A, 3):
                        for b1, b2 in itertools.combinations(B, 2):
                            if a1 < b1 < a2 and {meet[a2][a3], meet[b1][b2]}.isdisjoint(
                                    {a1, a2, a3, b1, b2}):
                                return entry, d, (a1, a2, a3, b1, b2)

    entry, d0, (a1, a2, a3, b1, b2) = interleaved()
    verdicts, vector = verifier._verdicts, sum(1 << p for p in (a1, a2, a3, b1, b2))

    def replaced(which, R, d=None):
        return vector if which == "1abs-delta-primary" and d is d0 else verdicts(which, R, d)

    monkeypatch.setattr(verifier, "_verdicts", replaced)
    report = verify("T-INTER", catalog16)
    checked, hits, failures = _sweep_reference("T-INTER", catalog16)
    proper = entry.ring.proper_ideals()
    details = [w.detail for w in report.conclusion_failures]
    first, second = (f"intersection of {proper[p].label} and {proper[q].label}"
                     for p, q in ((b1, b2), (a2, a3)))
    assert details.index(first) < details.index(second)
    assert (report.instances_checked, report.hypothesis_satisfied) == (checked, hits)
    assert report.conclusion_failures == tuple(failures)


def test_sweep_runs_in_the_calling_thread(catalog8, monkeypatch):
    seen = set()
    sweep = verifier._SWEEPS["T-CHAIN"]

    def spy(entry, part):
        seen.add(threading.get_ident())
        sweep(entry, part)

    monkeypatch.setitem(verifier._SWEEPS, "T-CHAIN", spy)
    verify_all(catalog8, ("T-CHAIN",), jobs=4)
    assert seen == {threading.get_ident()}


def _all_delta_primary(d):
    """A corrupted delta-primary verdict vector: every proper ideal passes."""
    return (1 << len(d.ring.proper_ideals())) - 1


def test_mutation_is_caught(catalog8, monkeypatch):
    """Corrupting a predicate must flip T-PROD to refuted with witnesses.

    T-PROD reads delta-primary verdicts, on the product and on each factor,
    through the verifier's vector accessor, so that is what gets corrupted."""
    monkeypatch.setattr(verifier, "_primary", _all_delta_primary)
    r = verify("T-PROD", catalog8)
    assert r.status == "refuted"
    assert r.conclusion_failures
    w = r.conclusion_failures[0]
    assert w.ring
    assert w.delta.startswith("prod(")


def test_failure_cap(catalog8, monkeypatch):
    monkeypatch.setattr(verifier, "FAILURE_CAP", 3)
    monkeypatch.setattr(verifier, "_primary", _all_delta_primary)
    r = verify("T-PROD", catalog8)
    assert len(r.conclusion_failures) == 3
    assert any("truncated" in n for n in r.notes)


def test_reports_do_not_depend_on_entry_order(catalog16, monkeypatch):
    """The default catalog reversed, and shuffled with a seed, gives every
    statement's report of the forward catalog, notes included. With every
    delta-primary verdict corrupted, some statements fail in several entries
    and the failure cap truncates them, so the first failures kept and the
    truncation count must not depend on the order either."""
    monkeypatch.setattr(verifier, "_primary", _all_delta_primary)
    monkeypatch.setattr(verifier, "FAILURE_CAP", 10**6)
    spread, cap = ("T-CHAIN", "T-ARITH", "T-PROD"), 5
    for r in verify_all(catalog16, spread):
        assert len(r.conclusion_failures) > cap, r.theorem_id
        assert len({w.ring for w in r.conclusion_failures}) >= 3, r.theorem_id
    monkeypatch.setattr(verifier, "FAILURE_CAP", cap)
    forward = [strip_elapsed(r) for r in verify_all(catalog16)]
    truncated = {r["theorem_id"] for r in forward
                 if any(n.startswith("conclusion failures truncated") for n in r["notes"])}
    assert set(spread) <= truncated
    shuffled = list(catalog16.entries)
    random.Random(2024).shuffle(shuffled)
    for entries in (catalog16.entries[::-1], tuple(shuffled)):
        assert [strip_elapsed(r) for r in verify_all(Catalog(entries))] == forward


def test_transfer_sweeps_catch_corrupted_verdicts(catalog16, monkeypatch):
    """Flipping every 1-absorbing verdict on the constructed rings refutes
    each transfer sweep through each of its conclusions, so each one reads
    the vectors at the positions the correspondence gives."""
    one_abs = verifier._one_abs

    def flipped(d):
        got = one_abs(d)
        flip = (1 << len(d.ring.proper_ideals())) - 1
        return got ^ flip if d.ring.construction is not None else got

    monkeypatch.setattr(verifier, "_one_abs", flipped)
    monkeypatch.setattr(verifier, "FAILURE_CAP", 10**6)
    conclusions = {
        "T-HOM": ("preimage of", "source="),
        "T-QUOT": ("mod ",),
        "T-LOC": ("extension ",),
        "T-PROD": ("1abs=",),
        "T-TRIV": ("pair ideal 1abs but", "(F:c)=F but"),
        "T-TRIV-COR": ("pair=",),
    }
    for tid, starts in conclusions.items():
        details = [w.detail for w in verify(tid, catalog16).conclusion_failures]
        for start in starts:
            assert any(d.startswith(start) for d in details), (tid, start)


def test_indexed_sweeps_call_no_check(monkeypatch):
    """T-DEF-EQ, T-2ABS, T-SEMI and T-M2 read verdict vectors only: with the
    verifier's imports of the predicate checks patched to raise, each
    sweeps the default catalog, where every instance passes."""

    def no_check(*args):
        raise AssertionError("a sweep called a check")

    patched = []
    for name, value in list(vars(verifier).items()):
        if getattr(value, "__module__", None) in ("ringlab.predicates", "ringlab.ideals") and (
                name.endswith("_check") or name.startswith("is_")):
            monkeypatch.setattr(verifier, name, no_check)
            patched.append(name)
    assert {"one_absorbing_delta_primary_check", "idealwise_one_absorbing_check"} <= set(patched)
    catalog = build_catalog(CatalogConfig())
    for tid in ("T-DEF-EQ", "T-2ABS", "T-SEMI", "T-M2"):
        report = verify(tid, catalog)
        assert report.status == "verified" and report.hypothesis_satisfied > 0, tid


def test_indexed_sweeps_read_their_conclusion_vectors(catalog16, monkeypatch):
    """Flipping one verdict vector at a time refutes the sweep whose
    conclusion it is, with the sweep's own failure detail, so each sweep
    reads the vector of its conclusion and not that of a stronger check.
    Clearing one bit of a conclusion vector makes each sweep rewritten over
    the vectors report what its per-instance loop reports."""
    verdicts = verifier._verdicts
    conclusions = {
        "T-DEF-EQ": ("idealwise", "elementwise="),
        "T-2ABS": ("2abs-delta-primary", "not 2-absorbing delta-primary"),
        "T-SEMI": ("delta-semiprimary", "not delta-semiprimary"),
        "T-M2": ("delta-semiprimary", "neither delta-semiprimary nor M^2 inside I"),
    }
    for tid, (name, detail) in conclusions.items():
        def flipped(which, R, d=None, name=name):
            got = verdicts(which, R, d)
            return got ^ ((1 << len(R.proper_ideals())) - 1) if which == name else got

        monkeypatch.setattr(verifier, "_verdicts", flipped)
        failures = verify(tid, catalog16).conclusion_failures
        assert failures and failures[0].detail.startswith(detail), tid
    monkeypatch.undo()

    # One bit cleared: the conclusion vector at the position k of the ring
    # where clearing it fails the most expansions. Each sweep then reports
    # the counts and the failures, in order, of its per-instance loop.
    monkeypatch.setattr(verifier, "FAILURE_CAP", 10**6)
    for tid, (name, fails) in ONE_BIT_CLEARS.items():
        monkeypatch.setattr(verifier, "_verdicts", verdicts)
        reach = {}
        for entry in catalog16:
            R = entry.ring
            for k, I in enumerate(R.proper_ideals()):
                reach[R, k] = sum(1 for d in entry.expansions if fails(catalog16, R, d, I))
        R0, k0 = max(reach, key=reach.get)

        def cleared(which, R, d=None, name=name, R0=R0, k0=k0):
            got = verdicts(which, R, d)
            return got & ~(1 << k0) if which == name and R is R0 else got

        monkeypatch.setattr(verifier, "_verdicts", cleared)
        report = verify(tid, catalog16)
        checked, hits, failures = _sweep_reference(tid, catalog16)
        assert len(failures) >= reach[R0, k0] > 0, tid
        assert (report.instances_checked, report.hypothesis_satisfied) == (checked, hits), tid
        assert report.conclusion_failures == tuple(failures), tid
    monkeypatch.undo()


def test_triv_fails_a_colon_fixed_pair_that_loses_the_form(catalog16, monkeypatch):
    """The converse half of T-TRIV: with a trivial extension's 1-absorbing
    verdict cleared at the colon-fixed pair ideal over a 1-absorbing base
    ideal that the most base expansions reach, T-TRIV fails each of those
    expansions there with the converse's detail alone, as its per-instance
    loop does."""
    entries = sorted(catalog16.entries, key=lambda e: e.provenance)
    sources = {id(e.ring): e.expansions for e in entries}
    reach = {}
    for entry in entries:
        T = entry.ring
        if not isinstance(T.construction, TrivialExtensionOf):
            continue
        for d in sources.get(id(T.construction.base), ()):
            dt = induced_trivial_extension(T, d)
            for I, F in T.construction.pair_ideals():
                J = Ideal(T, T.construction.pair_mask(I.mask, F))
                if I.is_proper and colon_fixed(T, I, F) and _at("1abs-delta-primary", d, I) and _at(
                        "1abs-delta-primary", dt, J):
                    k = T.lattice_position(J.mask)
                    reach[T, k] = reach.get((T, k), 0) + 1
    T0, k0 = max(reach, key=reach.get)
    verdicts = verifier._verdicts

    def cleared(which, R, d=None):
        got = verdicts(which, R, d)
        return got & ~(1 << k0) if which == "1abs-delta-primary" and R is T0 else got

    monkeypatch.setattr(verifier, "_verdicts", cleared)
    report = verify("T-TRIV", catalog16)
    checked, hits, failures = _sweep_reference("T-TRIV", catalog16)
    assert len(failures) == reach[T0, k0] > 1
    assert all(w.detail == "(F:c)=F but pair=False base=True" for w in failures)
    assert (report.instances_checked, report.hypothesis_satisfied) == (checked, hits)
    assert report.conclusion_failures == tuple(failures)


def _at(name, d, I):
    """The verdict of check ``name`` at I under d, read through the verifier."""
    return bool(verifier._verdicts(name, I.ring, d) >> I.ring.lattice_position(I.mask) & 1)


def _m2(R):
    return ideal_product(R.jacobson_radical(), R.jacobson_radical())


def _sqrt_swaps(d, I):
    return radical(d(I)) == d(radical(I))


def _all_one_absorbing(d):
    return all(_at("1abs-delta-primary", d, I) for I in d.ring.proper_ideals())


# For each sweep rewritten over verdict vectors: the vector whose bit at I is
# cleared, and when clearing it under d makes an instance of the catalog fail.
ONE_BIT_CLEARS = {
    "T-CHAIN": ("1abs-delta-primary",
                lambda cat, R, d, I: _at("1abs-prime", d, I) or _at("delta-primary", d, I)),
    "T-SEMI": ("delta-semiprimary",
               lambda cat, R, d, I: _at("1abs-delta-primary", d, I) and radical(d(I)) == d(I)),
    "T-LOCAL": ("delta-primary",
                lambda cat, R, d, I: not R.is_local() and _at("1abs-delta-primary", d, I)),
    "T-COLON": ("delta-primary", lambda cat, R, d, K: any(
        _at("1abs-delta-primary", d, I) for I in _colons_onto(R).get(K.mask, ()))),
    "T-M2": ("delta-semiprimary", lambda cat, R, d, I: _at("1abs-delta-primary", d, I) and not (
        R.is_local() and _m2(R) <= I)),
    "T-CHAINED": ("delta-primary", lambda cat, R, d, I: R.is_chained() and _m2(R) != I
                  and _at("1abs-delta-primary", d, I)),
    "T-PMAX": ("delta-primary", lambda cat, R, d, I: R.is_local()
               and is_principal(R.maximal_ideals()[0])
               and _at("delta-primary", d, I) and not _m2(R) <= I),
    "T-SQRT": ("delta-primary", lambda cat, R, d, K: any(
        radical(I) == K and _sqrt_swaps(d, I) and _at("1abs-delta-primary", d, I)
        for I in R.proper_ideals())),
    "T-IDEM": ("1abs-prime", lambda cat, R, d, J: d(J) == J and _at("1abs-delta-primary", d, J)),
    "T-INTER": ("1abs-delta-primary", lambda cat, R, d, K: is_intersection_preserving(d) and any(
        _at("1abs-delta-primary", d, I) and _at("1abs-delta-primary", d, J) and d(I) == d(J)
        for I, J in _meets_onto(R).get(K.mask, ()))),
    "T-PRINC": ("1abs-delta-primary",
                lambda cat, R, d, I: not is_principal(I) and _all_one_absorbing(d)),
    # the base's bit: a pair ideal I x F over it, 1-absorbing under d's induced expansion
    "T-TRIV": ("1abs-delta-primary", lambda cat, R, d, I: _at("1abs-delta-primary", d, I) and any(
        _at("1abs-delta-primary", induced_trivial_extension(T, d), J)
        for T in _extensions(cat, R) for J in _pairs_over(T, I))),
}


@functools.cache
def _colons_onto(R):
    """For each colon (I : a) by a nonunit a outside a proper ideal I of R,
    its mask, mapped to the list of those I."""
    onto = {}
    for I in R.proper_ideals():
        for a in R.nonunit_list:
            if a not in I:
                onto.setdefault(colon(I, a).mask, []).append(I)
    return onto


@functools.cache
def _meets_onto(R):
    """For each intersection K of two incomparable proper ideals I and J of
    R, its mask, mapped to the list of those pairs (I, J)."""
    onto = {}
    for i, I in enumerate(R.proper_ideals()):
        for J in R.proper_ideals()[i + 1 :]:
            K = ideal_intersection(I, J)
            if K not in (I, J):
                onto.setdefault(K.mask, []).append((I, J))
    return onto


def _extensions(catalog, A):
    """The catalog's trivial extensions of A."""
    return [e.ring for e in catalog if isinstance(e.ring.construction, TrivialExtensionOf)
            and e.ring.construction.base is A]


def _pairs_over(T, I):
    """The pair ideals I x F of the trivial extension T, built from I's mask."""
    info = T.construction
    return [Ideal(T, info.pair_mask(I.mask, F)) for J, F in info.pair_ideals() if J == I]


def _ideal_instance(tid, d, I):
    """Whether the hypothesis of ``tid`` holds at (I, d), and the failing
    ideal and detail when the conclusion fails there, else None."""
    R = d.ring
    a, b = _at("1abs-delta-primary", d, I), _at("delta-primary", d, I)
    if tid == "T-CHAIN":
        prime = _at("1abs-prime", d, I)
        source = "1abs-prime" if prime else "delta-primary"
        return prime or b, None if a else (I, f"{source} ideal lost the 1-absorbing form")
    if tid == "T-SEMI":
        ok = _at("delta-semiprimary", d, I)
        return a and radical(d(I)) == d(I), None if ok else (I, "not delta-semiprimary")
    if tid == "T-M2":
        ok = _at("delta-semiprimary", d, I) or R.is_local() and _m2(R) <= I
        return a, None if ok else (I, "neither delta-semiprimary nor M^2 inside I")
    if tid == "T-CHAINED":
        return _m2(R) != I, None if a == b else (I, f"chained: 1abs={a} delta-primary={b}")
    if tid == "T-PMAX":
        alt = b or _m2(R) <= I
        if a != alt:
            return True, (I, f"1abs={a} primary-or-M^2={alt}")
        if radical(I) <= d(I) and a != b:
            return True, (I, f"sqrt(I) inside delta(I): 1abs={a} delta-primary={b}")
        return True, None
    if tid == "T-SQRT":
        ok = _at("delta-primary", d, radical(I))
        return _sqrt_swaps(d, I) and a, None if ok else (I, "sqrt(I) not delta-primary")
    J = d(I)  # T-IDEM
    if not (J.is_proper and d(J) == J):
        return False, None
    a, prime = _at("1abs-delta-primary", d, J), _at("1abs-prime", d, J)
    return True, None if a == prime else (J, f"1abs={a} 1abs-prime={prime}")


def _delta_instance(tid, d):
    """The same, for the sweeps with one instance per expansion."""
    proper = d.ring.proper_ideals()
    if tid == "T-LOCAL":
        found = next((I for I in proper if _at("1abs-delta-primary", d, I)
                      and not _at("delta-primary", d, I)), None)
        return found is not None, None if d.ring.is_local() else (found, "ring is not local")
    principal_all = all(_at("1abs-delta-primary", d, I) for I in proper if is_principal(I))
    bad = next((I for I in proper if not _at("1abs-delta-primary", d, I)), None)
    if principal_all == (bad is None):
        return True, None
    return True, (bad, f"principal={principal_all} all={bad is None}")


def _instances(tid, R, d):
    """Each instance of ``tid`` under d on R, in the sweep's order, as (its
    hypothesis, its failures), each failure (ideal, delta label, elements,
    detail)."""
    proper = R.proper_ideals()
    if tid == "T-COLON":  # one instance per proper ideal and nonunit
        for I in proper:
            one_abs = _at("1abs-delta-primary", d, I)
            for a in R.nonunit_list:
                hyp = one_abs and a not in I
                yield hyp, [] if not hyp or _at("delta-primary", d, colon(I, a)) else [
                    (I, d.label, (R.element_name(a),), f"(I:{R.element_name(a)}) not delta-primary")]
    elif tid == "T-INTER":  # one per pair of proper ideals
        preserving = is_intersection_preserving(d)
        for i, I in enumerate(proper):
            for J in proper[i + 1 :]:
                hyp = (preserving and _at("1abs-delta-primary", d, I)
                       and _at("1abs-delta-primary", d, J) and d(I) == d(J))
                K = ideal_intersection(I, J) if hyp else None
                yield hyp, [] if not hyp or _at("1abs-delta-primary", d, K) else [
                    (K, d.label, None, f"intersection of {I.label} and {J.label}")]
    elif tid == "T-TRIV":  # one per pair ideal I x F with I proper; d is on the base
        dt = induced_trivial_extension(R, d)
        for I, F in R.construction.pair_ideals():
            if I.is_proper:
                J = Ideal(R, R.construction.pair_mask(I.mask, F))
                up, down = _at("1abs-delta-primary", dt, J), _at("1abs-delta-primary", d, I)
                fixed, failed = colon_fixed(R, I, F), []
                if up and not down:
                    failed.append((J, dt.label, None, f"pair ideal 1abs but {I.label} is not"))
                if fixed and up != down:
                    failed.append((J, dt.label, None, f"(F:c)=F but pair={up} base={down}"))
                yield up or fixed, failed
    else:
        if tid in ("T-LOCAL", "T-PRINC"):
            found = [_delta_instance(tid, d)]
        else:
            found = [_ideal_instance(tid, d, I) for I in proper]
        for hyp, failed in found:
            yield hyp, [] if failed is None else [(failed[0], d.label, None, failed[1])]


def _sweep_reference(tid, catalog):
    """One of the sweeps of ``ONE_BIT_CLEARS`` as a loop over its instances,
    reading each verdict at an ideal built from the ring: its counts, and
    its failures in report order. T-TRIV reads its base's expansions."""
    checked = hits = 0
    failures = []
    entries = sorted(catalog.entries, key=lambda e: e.provenance)
    sources = {id(e.ring): e.expansions for e in entries}
    for entry in entries:
        R = entry.ring
        if tid == "T-CHAINED" and not R.is_chained():
            continue
        if tid == "T-PMAX" and not (R.is_local() and is_principal(R.maximal_ideals()[0])):
            continue
        if tid == "T-TRIV":
            if not isinstance(R.construction, TrivialExtensionOf):
                continue
            exps = sources.get(id(R.construction.base), ())
        else:
            exps = entry.expansions
        for d in exps:
            for hyp, failed in _instances(tid, R, d):
                checked += 1
                if hyp:
                    hits += 1
                    failures += [
                        Witness(entry.provenance, tuple(map(R.element_name, J.members_sorted)),
                                label, elements, detail)
                        for J, label, elements, detail in failed]
    return checked, hits, failures


def test_witness_to_dict():
    w = Witness(ring="Z8", ideal=("0", "4"), delta="rad", elements=("2", "2", "2"))
    d = w.to_dict()
    assert d["ring"] == "Z8"
    assert d["ideal"] == ["0", "4"]
    assert d["elements"] == ["2", "2", "2"]
    w2 = Witness(ring="Z8", ideal=("0",), delta="id", elements=None)
    assert w2.to_dict()["elements"] is None


def test_witness_and_report_are_immutable_and_serialize_as_before():
    w = Witness("Z8", ("0", "4"), "rad", ("2", "2", "2"), "why")
    r = TheoremReport("T-CHAIN", 5, 3, (w,), 0.1234567, ("a note",))
    assert w == Witness(ring="Z8", ideal=("0", "4"), delta="rad", elements=("2", "2", "2"),
                        detail="why")
    assert hash(w) == hash(Witness("Z8", ("0", "4"), "rad", ("2", "2", "2"), "why"))
    assert TheoremReport("T-CHAIN", 0, 0, (), 0.0).notes == ()
    for record, field in ((w, "ring"), (w, "detail"), (r, "elapsed"), (r, "conclusion_failures")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert r.status == "refuted" and r.elapsed == 0.1234567
    assert r.to_dict() == {
        "theorem_id": "T-CHAIN", "status": "refuted", "instances_checked": 5,
        "hypothesis_satisfied": 3,
        "conclusion_failures": [{"ring": "Z8", "ideal": ["0", "4"], "delta": "rad",
                                 "elements": ["2", "2", "2"], "detail": "why"}],
        "notes": ["a note"], "elapsed": 0.123457,
    }
    assert r.to_json() == (
        '{"theorem_id":"T-CHAIN","status":"refuted","instances_checked":5,'
        '"hypothesis_satisfied":3,"conclusion_failures":[{"ring":"Z8","ideal":["0","4"],'
        '"delta":"rad","elements":["2","2","2"],"detail":"why"}],"notes":["a note"],'
        '"elapsed":0.123457}')


def test_prod_ex_standalone(catalog8):
    r = verify("T-PROD-EX", catalog8)
    assert r.instances_checked == 3
    assert r.hypothesis_satisfied == 3
    assert not r.conclusion_failures
    assert any("intersection witness" in n for n in r.notes)


def test_char_scaling_necessity_notes(catalog8):
    r = verify("T-CHAR", catalog8)
    assert r.status == "verified"
    joined = " ".join(r.notes)
    assert "scaling" in joined
    assert "Z8" in joined


def test_prod_true_negative_note(catalog8):
    r = verify("T-PROD", catalog8)
    assert any("true negative" in n for n in r.notes)


def test_search_witness_local_only(catalog12):
    hits = search_witness("1abs-delta-primary & !delta-primary", catalog12)
    assert hits
    by_label = {e.provenance: e.ring for e in catalog12}
    for w in hits:
        assert by_label[w.ring].is_local(), w.ring


def test_search_witness_delta_free(catalog8):
    hits = search_witness("maximal & !prime", catalog8)
    assert hits == []  # finite ring: maximal implies prime
    hits2 = search_witness("maximal", catalog8)
    assert hits2
    assert all(w.delta == "-" for w in hits2)


def test_search_witness_deterministic(catalog8):
    q = "1abs-delta-primary & !delta-primary"
    a = [w.to_dict() for w in search_witness(q, catalog8)]
    b = [w.to_dict() for w in search_witness(q, catalog8)]
    assert a == b


def test_t_char_on_an_expansion_that_keeps_jac_and_breaks_star():
    """A one-entry catalog: Z6 with id and an expansion that keeps
    Jac(Z6) = (0) but sends the proper ideal (3) to the ring. T-CHAR counts
    both instances and takes its hypothesis at id only; the other expansion
    breaks (*) and, as ``test_star_and_jac_agree_where_t_char_reads_them``
    shows it must, the scaling condition too."""
    R = make_zn(6)
    d = from_rule(R, lambda I: R.unit_ideal() if 3 in I else I, "unit-at-(3)")
    assert preserves_jacobson(d) and not satisfies_star(d) and not scaling_check(d)[0]
    catalog = Catalog((CatalogEntry(R, "Z6", (identity_expansion(R), d)),))
    report = verify("T-CHAR", catalog)
    assert (report.instances_checked, report.hypothesis_satisfied) == (2, 1)
    assert report.conclusion_failures == () and report.notes == ()


def test_char_cor_reads_the_rings_own_identity_expansion(catalog16):
    """T-CHAR-COR reads id off the ring, as its 1-absorbing prime vector,
    and not from the entry's first expansion: an entry with no expansions,
    or with ``full`` first, gives the report of Z8's stock entry. Under id,
    delta(I) = I, so that vector is the 1-absorbing vector of id on every
    ring of the default catalog."""
    for entry in catalog16:
        R, d = entry.ring, identity_expansion(entry.ring)
        assert predicates._verdicts("1abs-prime", R) == verifier._one_abs(d), entry.provenance
    R = make_zn(8)
    want = strip_elapsed(verify("T-CHAR-COR", Catalog((CatalogEntry(R, "Z8", standard_expansions(R)),))))
    assert (want["status"], want["instances_checked"], want["hypothesis_satisfied"]) == ("verified", 1, 1)
    for expansions in ((), (constant_ring(R), identity_expansion(R))):
        catalog = Catalog((CatalogEntry(R, "Z8", expansions),))
        assert strip_elapsed(verify("T-CHAR-COR", catalog)) == want


def test_star_and_jac_agree_where_t_char_reads_them(catalog8):
    """T-CHAR's two side conditions differ on no instance it reads, so no
    catalog can tell its hypothesis "(*) and delta(Jac) = Jac" from "(*) or
    delta(Jac) = Jac". (*) gives delta(M) = M at each maximal M, hence
    delta(Jac) = Jac. Where delta(Jac) = Jac and (*) fails, delta sends a
    proper I to R, and in R = R_1 x ... x R_n (local R_i) two things fail:
    scaling, at an idempotent that fixes I or at the unit of a factor where
    I is proper and nonzero; and the 1-absorbing form at (0), since
    delta(0) lies in Jac and misses one of e, 1 - e for a nontrivial
    idempotent e (none exists on a local ring, where the two conditions
    agree). Checked over every expansion of the rings of order at most 8
    with at most 9 ideals."""
    seen = split = 0
    for entry in catalog8:
        R = entry.ring
        if len(R.ideals()) > 9:
            continue
        for table in all_expansion_tables(R):
            d = ExpansionFunction(R, table, "t")
            star, jac = satisfies_star(d), preserves_jacobson(d)
            assert jac or not star, (entry.provenance, table)
            if jac and not star:
                split += 1
                assert not scaling_check(d)[0], (entry.provenance, table)
                one_abs = verifier._one_abs(d)
                assert not verifier._char_states(R)(one_abs)[0], (entry.provenance, table)
            seen += 1
    assert (seen, split) == (12668, 1596)


TRANSFER = ("T-HOM", "T-LOC", "T-PROD", "T-TRIV", "T-TRIV-COR")


def _counts(reports, ids=TRANSFER):
    return {r.theorem_id: (r.instances_checked, r.hypothesis_satisfied)
            for r in reports if r.theorem_id in ids}


def test_non_translation_expansions_reach_every_sweep(catalog_every_expansion):
    """Every base entry also carries the 172 extensive monotone tables on
    its ring that are not stock translations. All 26 statements still hold,
    and the five transfer sweeps that take their sources from the parent,
    a factor or the base count the instances of those expansions too: with
    stock expansions only they count T-HOM (340, 217), T-LOC (362, 201),
    T-PROD 3652, T-TRIV (796, 652) and T-TRIV-COR 374. On these sources
    T-LOC's compatibility hypothesis fails for 323 of the 673
    (localization, expansion) pairs, where on the stock catalog it never
    does."""
    catalog = catalog_every_expansion
    assert sum(len(e.expansions) for e in catalog) == 995 + 172
    reports = verify_all(catalog)
    assert [(r.theorem_id, r.conclusion_failures) for r in reports] == [
        (tid, ()) for tid in THEOREM_IDS]
    assert _counts(reports) == {"T-HOM": (2144, 1458), "T-LOC": (1962, 467),
                                "T-PROD": (14133, 14133), "T-TRIV": (4304, 3312),
                                "T-TRIV-COR": (2025, 2025)}
    sources = entry_expansions(catalog)
    compatible = [localization_compatibility(e.ring, d) for e in catalog
                  if isinstance(e.ring.construction, LocalizationOf)
                  for d in sources[id(e.ring.construction.parent)]]
    assert (compatible.count(False), len(compatible)) == (323, 673)


def test_a_source_ring_with_no_entry_adds_no_instances(catalog8):
    """The catalog is the sweep domain of the transfer statements too: with
    the base entries left out, the five sweeps that read a source ring's
    expansions count no instance, and with each base carrying id alone
    they count one source expansion per ring (a pair per product)."""
    constructed = tuple(e for e in catalog8 if e.ring.construction is not None)
    assert _counts(verify_all(Catalog(constructed), TRANSFER)) == {tid: (0, 0) for tid in TRANSFER}
    bases = tuple(CatalogEntry(e.ring, e.provenance, e.expansions[:1])
                  for e in catalog8 if e.ring.construction is None)
    assert all(e.expansions[0].label == "id" for e in bases)
    counts = _counts(verify_all(Catalog(bases + constructed), TRANSFER))
    products = sum(len(e.ring.proper_ideals()) for e in constructed
                   if isinstance(e.ring.construction, ProductOf))
    extended = sum(len(e.ring.construction.base.proper_ideals()) for e in constructed
                   if isinstance(e.ring.construction, TrivialExtensionOf))
    assert counts["T-PROD"] == (products, products)
    assert counts["T-TRIV-COR"] == (extended, extended)
    stock = _counts(verify_all(catalog8, TRANSFER))
    assert all(0 < counts[tid][0] < stock[tid][0] for tid in TRANSFER)


def test_t_local_names_the_lowest_ideal_that_is_not_delta_primary(catalog16, monkeypatch):
    """Two 1-absorbing delta-primary ideals of one expansion on a non-local
    ring made not delta-primary, by clearing their bits of its delta-primary
    vector: T-LOCAL fails that expansion once, at the lower of the two."""
    entry, d, low, high = next(
        (entry, d, *list(ideals._bits(verifier._one_abs(d)))[:2])
        for entry in catalog16 if not entry.ring.is_local()
        for d in entry.expansions if verifier._one_abs(d).bit_count() >= 2)
    primary = verifier._primary
    monkeypatch.setattr(verifier, "_primary", lambda e: primary(e) & ~(1 << low | 1 << high)
                        if e is d else primary(e))
    failures = verify("T-LOCAL", catalog16).conclusion_failures
    I = entry.ring.proper_ideals()[low]
    assert [(w.ring, w.delta, w.ideal) for w in failures] == [
        (entry.provenance, d.label, tuple(map(entry.ring.element_name, I.members_sorted)))]


@pytest.mark.parametrize("tid", ["T-PRINC", "T-SPEC"])
def test_princ_and_spec_name_the_lowest_ideal_missing_from_the_one_absorbing_vector(
        catalog16, monkeypatch, tid):
    """Two bits cleared from the 1-absorbing vector of one expansion whose
    instance holds the hypothesis and under which every proper ideal is
    1-absorbing: T-PRINC (at two ideals that are not principal) and T-SPEC
    fail that expansion once, at the lower of the two."""
    one_abs = verifier._one_abs
    candidates = [(e.provenance, d.label) for e in catalog16 for d in e.expansions]
    if tid == "T-SPEC":  # the instances that hold its hypothesis all fail here
        monkeypatch.setattr(verifier, "_one_abs", lambda e: 0)
        candidates = [(w.ring, w.delta) for w in verify(tid, catalog16).conclusion_failures]
        monkeypatch.undo()
    entries = {e.provenance: e for e in catalog16}

    def pick():
        for ring, label in candidates:
            entry = entries[ring]
            proper = entry.ring.proper_ideals()
            d = next(d for d in entry.expansions if d.label == label)
            positions = [p for p, I in enumerate(proper) if tid == "T-SPEC" or not is_principal(I)]
            if len(positions) >= 2 and one_abs(d) == (1 << len(proper)) - 1:
                return entry, d, positions[0], positions[1]

    entry, d, low, high = pick()
    monkeypatch.setattr(verifier, "_one_abs", lambda e: one_abs(e) & ~(1 << low | 1 << high)
                        if e is d else one_abs(e))
    failures = verify(tid, catalog16).conclusion_failures
    I = entry.ring.proper_ideals()[low]
    assert [(w.ring, w.delta, w.ideal) for w in failures] == [
        (entry.provenance, d.label, tuple(map(entry.ring.element_name, I.members_sorted)))]
