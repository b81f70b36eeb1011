"""The ringlab benchmark: one workload per call, measured in fresh processes.

Usage, from the root of a checkout (the program is run from ``src``)::

    python3 bench/run.py --workload check-default --seed 1 --seconds 20 --trace 0

Workloads are listed in ``workloads.py``. A run is closed-loop with one
client: it starts passes, each a fresh ``worker.py`` process, one after the
other while another pass fits in ``--seconds``, then starts set-up-only processes
until it has ``SETUP_SAMPLES`` set-up timings. Fresh processes matter:
``build_catalog`` is cached and the predicate memos live on the rings, so a
repeat inside one process would time a warm, different program.

Every pass repeats the same operations: the whole statement sweep on
``check-default``, and on ``classify-sample`` the run's seeded sample of
requests, each pass in its own order. On a shared host other tenants can
slow the processor by half or more, for seconds or minutes at a time, which
a run cannot outlast. So each pass samples the host's speed with a probe
that runs no ringlab code, and every time is scaled to a fixed reference
speed (see ``speed.py``). An operation's time is the median of its
repeats, scaled so. The lines before the result show the probe figures
and the unscaled median pass time.

Every output is checked against the golden recorded on the seed commit
(see ``golden.py``) and against the workload's known counts. An operation is
one statement report on ``check-default`` and one request on
``classify-sample``; it fails when it errors or does not match the golden.

With ``--trace 1`` the run makes one untraced pass, which also times a warm
second sweep, and one traced pass over the same inputs, and prints the
per-layer metrics of ``tracing.LAYER_METRICS`` instead of the end-to-end
ones. ``trace.overhead_s`` is the traced pass's ``wall_s`` minus the
untraced one's. The traced pass leaves its raw spans in
``.bench_out/<workload>.spans.pickle``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give each metric with the quartiles and count of the samples it summarises.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent

# End-to-end metrics and their units, in print order. Every workload
# reports every metric; an operation is a statement sweep (one ``verify``)
# on check-default and a request on classify-sample, and its time is the
# median of its repeats in the run. All times are scaled to the reference
# speed of ``speed.py``.
#   wall_s           median pass, process launch until the output is written
#   setup_s          median set-up: importing ringlab, plus build_catalog on
#                    check-default
#   instances_per_s  statement instances checked (check-default) or ideal rows
#                    classified (classify-sample) per second of operation time
#   requests_per_s   operations per second of operation time
#   latency_*_ms     the operation times: their median, and their nearest-rank
#                    95th percentile
#   peak_rss_mb      median over passes of the worker's ru_maxrss
E2E = {
    "wall_s": "s",
    "setup_s": "s",
    "instances_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 60


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_pass(workload: str, seed: int, pass_index: int, mode: str | None) -> dict:
    """Start one worker process and wait for it; return its measurements and output."""
    root = Path.cwd()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-{os.getpid()}-{pass_index}-{mode or 'plain'}"
    result_path = out_dir / f"{tag}.json"
    output_path = out_dir / f"{tag}.out"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--result", str(result_path),
           "--seed", str(seed), "--pass", str(pass_index)]
    if mode:
        cmd.append(f"--{mode}")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    with open(output_path, "w", encoding="utf-8") as out:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    result = None
    if code == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "written_at" in result:
            result["wall_s"] = result.pop("written_at") - launched
    output = output_path.read_text(encoding="utf-8")
    result_path.unlink(missing_ok=True)
    output_path.unlink()
    if code != 0:
        print(f"worker for {workload} pass {pass_index} exited with {code}", file=sys.stderr)
    return {"result": result, "output": output}


def check_pass(workload: str, gold, p: dict,
               sample: list[int] | None) -> tuple[int, int, bool, dict]:
    """Compare one pass's output with the golden.

    Returns (operations attempted, operations failed, counts correct, work
    per operation): statement instances per statement id on check-default,
    ideal rows per sample position on classify-sample. A pass whose worker
    failed has every operation failed.
    """
    result, lines = p["result"], p["output"].splitlines()
    spec = workloads.WORKLOADS[workload]
    if sample is None:
        reports, summary = gold[:-1], gold[-1]
        failed = 0
        for i, want in enumerate(reports):
            try:
                ok = golden.canonical_report(lines[i]) == want
            except (IndexError, ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
        counts_ok = result is not None and result["rc"] == 0 and len(lines) == len(gold)
        if counts_ok:
            got = golden.canonical_report(lines[-1])
            counts_ok = got == summary and all(
                (result if key in ("rings", "expansions") else got["summary"])[key] == value
                for key, value in spec.expect.items())
        if result is None:
            return len(reports), len(reports), False, {}
        return len(reports), failed, counts_ok, {op[0]: op[3] for op in result["ops"]}
    if result is None:
        return len(sample), len(sample), False, {}
    failed = 0
    rows = {}
    for (pos, *_), line in zip(result["ops"], lines):
        try:
            obj = golden.canonical_classify(line)
            ok = golden.digest(obj) == gold[sample[pos]][2]
            rows[pos] = len(obj["rows"])
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
    attempted = len(result["ops"])
    failed += attempted - min(attempted, len(lines))
    counts_ok = sorted(op[0] for op in result["ops"]) == list(range(len(sample)))
    return attempted, failed, counts_ok, rows


def measured_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list[str]]:
    gold = workloads.load_golden(workload)
    check = workload != "classify-sample"
    sample = None if check else workloads.classify_sample(gold, seed)
    start = time.monotonic()
    passes, durations = [], []
    # Start another pass only while a typical pass still fits in the run.
    while not passes or time.monotonic() - start + statistics.median(durations) <= seconds:
        began = time.monotonic()
        passes.append(run_pass(workload, seed, len(passes), None))
        durations.append(time.monotonic() - began)
    setups = [p["result"] for p in passes if p["result"] is not None]
    while len(setups) < SETUP_SAMPLES:
        s = run_pass(workload, seed, 0, "setup-only")["result"]
        if s is None:
            break
        setups.append(s)
    probes = [x for r in setups for x in r["probes"]]

    attempted = failed = 0
    correct = True
    repeats: dict = {}  # operation -> its repeats' seconds at reference speed
    work: dict = {}  # operation -> instances or rows it produced
    walls, raw_walls, rss = [], [], []
    for p in passes:
        a, f, counts_ok, op_work = check_pass(workload, gold, p, sample)
        attempted, failed, correct = attempted + a, failed + f, correct and counts_ok
        work.update(op_work)
        r = p["result"]
        if r is None or not r["ops"]:
            continue
        for key, net_s, op_probes, *_ in r["ops"]:
            repeats.setdefault(key, []).append(speed.at_reference_speed(net_s, op_probes))
        walls.append(speed.at_reference_speed(r["wall_s"] - r["probes_s"], r["probes"]))
        raw_walls.append(r["wall_s"])
        rss.append(r["rss_mb"])
    times = {key: statistics.median(secs) for key, secs in repeats.items()}
    setup_times = [speed.at_reference_speed(*r["setup"]) for r in setups]
    correct = correct and failed == 0 and bool(times) and len(setups) > 0

    metrics, lines = {}, [
        f"workload {workload}: {len(passes)} passes, {len(setups)} set-ups, "
        f"{len(times)} operations repeated once per pass, {attempted} operations in all"
        + ("; the seed is recorded and ignored, the check workload sweeps the whole "
           "fixed catalog" if check else "")]
    if times and walls and setup_times:
        cuts = statistics.quantiles(probes, n=100)
        lines.append(f"host speed: probe fastest {1000 * min(probes):.4f} ms, p5 "
                     f"{1000 * cuts[4]:.4f} ms, median {1000 * cuts[49]:.4f} ms over "
                     f"{len(probes)} probes; unscaled median pass "
                     f"{statistics.median(raw_walls):.4f} s")
        op_ms = [1000 * secs for secs in times.values()]
        op_s = sum(times.values())
        samples = {
            "wall_s": (statistics.median(walls), walls),
            "setup_s": (statistics.median(setup_times), setup_times),
            "instances_per_s": (sum(work.get(k, 0) for k in times) / op_s, None),
            "requests_per_s": (len(times) / op_s, None),
            "latency_p50_ms": (statistics.median(op_ms), op_ms),
            "latency_p95_ms": (percentile(op_ms, 95), op_ms),
            "peak_rss_mb": (statistics.median(rss), rss),
        }
        for name, unit in E2E.items():
            value, values = samples[name]
            metrics[name] = {"value": value, "unit": unit}
            spread = (f"  q1 {quartiles(values)[0]:.4f}  q3 {quartiles(values)[1]:.4f}  "
                      f"n={len(values)}" if values else f"  over {op_s:.4f} s of operations")
            lines.append(f"{name:16s} {value:12.4f} {unit:4s}{spread}")
            if name == "latency_p95_ms":
                beyond = sum(v > value for v in values)
                lines.append(f"  ({beyond} of {len(values)} operations lie beyond p95)")
    lines.append(f"failed_ratio     {failed / attempted if attempted else 1.0:12.4f}       "
                 f"({failed} of {attempted} operations failed)")
    return {"correct": correct, "attempted": attempted, "failed": failed}, metrics, lines


def traced_run(workload: str, seed: int) -> tuple[dict, dict, list[str]]:
    gold = workloads.load_golden(workload)
    sample = None if workload != "classify-sample" else workloads.classify_sample(gold, seed)
    plain = run_pass(workload, seed, 0, "warm")
    traced = run_pass(workload, seed, 0, "trace")
    attempted = failed = 0
    correct = True
    for p in (plain, traced):
        a, f, counts_ok, _ = check_pass(workload, gold, p, sample)
        attempted, failed, correct = attempted + a, failed + f, correct and counts_ok
    values = dict.fromkeys(tracing.LAYER_METRICS, 0.0)
    if plain["result"] is not None and traced["result"] is not None:
        values.update(traced["result"]["layers"])
        if workload != "classify-sample":
            for tid, secs, *_ in plain["result"]["ops"]:
                values[f"verifier.{tid}_s"] = secs
            values["verifier.warm_sweep_s"] = plain["result"]["warm_s"]
        values["trace.overhead_s"] = traced["result"]["wall_s"] - plain["result"]["wall_s"]
    else:
        correct = False
    correct = correct and failed == 0
    metrics, lines = {}, [f"workload {workload}: traced run, one untraced and one traced pass"]
    for name, (unit, _better, moves) in tracing.LAYER_METRICS.items():
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name:56s} {values[name]:16.6f} {unit:5s}  moves {moves}")
    return {"correct": correct, "attempted": attempted, "failed": failed}, metrics, lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "ringlab" / "__init__.py").is_file():
        print("error: run from the root of a ringlab checkout (no src/ringlab here)",
              file=sys.stderr)
        return 2
    if args.trace:
        status, metrics, lines = traced_run(args.workload, args.seed)
    else:
        status, metrics, lines = measured_run(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    print(json.dumps({**status, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
