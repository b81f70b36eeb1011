"""Tests of the benchmark's own helpers.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import golden
import run
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))
    random.Random(0).shuffle(values)
    assert run.percentile(values, 50) == 10
    assert run.percentile(values, 95) == 19
    assert run.percentile(values, 100) == 20
    assert run.percentile([7.5], 95) == 7.5
    assert run.percentile([4, 1, 3, 2], 50) == 2


def test_quartiles():
    assert run.quartiles([2.0]) == (2.0, 2.0)
    assert run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 4.5)


def test_sampler_nets_out_probes_and_picks_neighbours():
    sampler = speed.Sampler()
    # samples at 0, 10, 20, 30 (seconds), each taking 1 s
    sampler.starts = [0.0, 10.0, 20.0, 30.0]
    sampler.ends = [1.0, 11.0, 21.0, 31.0]
    sampler.probes = [0.1, 0.2, 0.3, 0.4]
    assert sampler.measure((12.0, 18.0)) == (6.0, [0.2, 0.3])
    assert sampler.measure((5.0, 25.0)) == (18.0, [0.1, 0.2, 0.3, 0.4])
    net, probes = sampler.measure((2.0, 4.0), (12.0, 15.0))
    assert (net, probes) == (5.0, [0.1, 0.2, 0.2, 0.3])
    assert sampler.spent() == 4.0
    assert speed.Sampler().measure((1.0, 3.5)) == (2.5, [])


def test_reference_speed_scales_by_the_mean_speed_share():
    ref = speed.REFERENCE_PROBE_S
    assert speed.at_reference_speed(2.0, [ref]) == 2.0
    assert abs(speed.at_reference_speed(2.0, [2 * ref, ref]) - 1.5) < 1e-12


def test_sampler_samples_while_running():
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.probes) >= 4
    assert sampler.starts == sorted(sampler.starts)


def test_self_time_subtracts_children_only():
    # root [0,100] > a [10,40] > b [20,25]; root > c [50,90]; d [200,210] is another root
    parents = [-1, 0, 1, 0, -1]
    starts = [0, 10, 20, 50, 200]
    ends = [100, 40, 25, 90, 210]
    durations, selfs = tracing.self_times(parents, starts, ends)
    assert durations == [100, 30, 5, 40, 10]
    assert selfs == [30, 25, 5, 40, 10]
    assert sum(selfs[:4]) == durations[0]


def test_order_buckets():
    assert [tracing.order_bucket(n) for n in (2, 16, 17, 64)] == ["o16", "o16", "o64", "o64"]


def test_report_canonical_form_ignores_elapsed_and_member_order():
    a = {"theorem_id": "T-X", "instances_checked": 3, "elapsed": 0.25,
         "conclusion_failures": [{"ring": "Z4xZ4", "ideal": ["(2,0)", "(0,0)", "(0,2)"],
                                  "elements": ["(2,0)", "(0,2)"]}]}
    b = dict(a, elapsed=9.0, conclusion_failures=[
        dict(a["conclusion_failures"][0], ideal=["(0,0)", "(0,2)", "(2,0)"])])
    ca, cb = golden.canonical_report(json.dumps(a)), golden.canonical_report(json.dumps(b))
    assert ca == cb
    assert "elapsed" not in ca
    assert ca["conclusion_failures"][0]["elements"] == ["(2,0)", "(0,2)"]


def test_classify_canonical_form_sorts_members_but_not_witnesses():
    row = {"ideal": ["4", "0", "2"], "label": "(2)", "predicates": {"prime": False},
           "witnesses": {"prime": ["3", "2"]}}
    a = {"ring": "Z6", "delta": "id", "rows": [row]}
    b = {"ring": "Z6", "delta": "id", "rows": [dict(row, ideal=["0", "2", "4"])]}
    da = golden.digest(golden.canonical_classify(json.dumps(a)))
    assert da == golden.digest(golden.canonical_classify(json.dumps(b)))
    c = {"ring": "Z6", "delta": "id", "rows": [dict(row, witnesses={"prime": ["2", "3"]})]}
    assert da != golden.digest(golden.canonical_classify(json.dumps(c)))


def test_same_seed_draws_same_requests():
    pairs = workloads.load_golden("classify-sample")
    first = workloads.classify_sample(pairs, 7)
    assert first == workloads.classify_sample(pairs, 7)
    assert first != workloads.classify_sample(pairs, 8)
    order = workloads.pass_order(len(first), 7, 0)
    assert order == workloads.pass_order(len(first), 7, 0)
    assert order != workloads.pass_order(len(first), 7, 1)
    assert sorted(order) == list(range(len(first)))


def test_each_round_classifies_every_ring_once():
    pairs = workloads.load_golden("classify-sample")
    groups = workloads.ring_groups(pairs)
    assert len(pairs) == 995 and len(groups) == 190
    sample = workloads.classify_sample(pairs, 3)
    assert len(sample) == workloads.ROUNDS * len(groups)
    for r in range(workloads.ROUNDS):
        draw = sample[r * len(groups):(r + 1) * len(groups)]
        assert sorted({pairs[i][0] for i in draw}) == sorted({pairs[g[0]][0] for g in groups})


def test_tracer_wraps_every_import_site_and_uninstalls():
    from ringlab import ideals, predicates, verifier
    from ringlab.specparse import parse_expansion, parse_ring

    originals = (ideals.prime_check, predicates.prime_check,
                 verifier.one_absorbing_delta_primary_check)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ideals.prime_check is predicates.prime_check
        assert ideals.prime_check is not originals[0]
        assert verifier.one_absorbing_delta_primary_check is not originals[2]
        R = parse_ring("Z4xZ3")
        predicates.classify(R, parse_expansion("prod(id,rad)", R))
    finally:
        tracer.uninstall()
    assert (ideals.prime_check, predicates.prime_check,
            verifier.one_absorbing_delta_primary_check) == originals
    metrics = tracing.layer_metrics(tracer.names, tracer.buffers)
    assert metrics["predicates.prime.calls"] > 0
    assert metrics["constructions.product_calls"] == 1
    assert metrics["ideals.lattice_calls"] >= 1
    assert metrics["predicates.memo_hit_ratio"] == 0.0
    assert metrics["catalog.rings"] == 0


def test_theorem_ids_match_the_library():
    import ringlab

    assert tracing.THEOREM_IDS == ringlab.THEOREM_IDS


def test_benchmark_json_matches_the_metric_registries():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()}
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
