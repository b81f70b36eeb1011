"""One pass of a workload, in the fresh process the benchmark starts for it.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/worker.py WORKLOAD --result PATH [--seed N --pass K]
                            [--setup-only | --trace | --warm]

The program's output goes to standard output; the pass's own measurements
go to ``PATH`` as JSON. Only the top-level calls are timed:
``build_catalog``, each ``verify`` and each classify request. In a measured
pass (neither ``--trace`` nor ``--warm``) ``speed.Sampler`` samples the
host's speed all through the pass, and each time is written as its net
seconds with the probe times next to it; in the other modes there are no
probes and the net seconds are the plain ones.
``--warm`` times a second sweep over the same catalog after the output is
written. ``--trace`` installs the span tracer before the workload starts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads


class Timers:
    """Wall-clock timers around a few top-level calls, at their call sites."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, float, float, object]] = []

    def wrap(self, owner: object, attr: str) -> None:
        fn = getattr(owner, attr)
        calls = self.calls

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append((attr, start, time.perf_counter(), result))
            return result

        setattr(owner, attr, timed)

    def results(self, attr: str) -> list[tuple[float, float, object]]:
        """(start, end, result) of each call to ``attr``, in call order."""
        return [(start, end, result) for name, start, end, result in self.calls
                if name == attr]


def check_default(out, timers: Timers) -> int:
    from ringlab import cli

    timers.wrap(cli, "build_catalog")
    timers.wrap(cli, "verify")
    with contextlib.redirect_stdout(out):
        return cli.main(["check", "--theorem", "all", "--json", "--jobs", "1"])


CHECKS = {"check-default": check_default}


def classify(out, pairs) -> list[tuple[float, float]]:
    """One ``classify --json`` request per (ring, expansion) pair, one output line each.

    A request that raises, exits nonzero or prints other than one line
    leaves an empty line, which the golden check counts as failed. Returns
    the start and end time of each request.
    """
    from ringlab import cli

    spans = []
    for ring, delta, *_ in pairs:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["classify", "--ring", ring, "--delta", delta, "--json"])
        except Exception:
            traceback.print_exc()
            rc = -1
        spans.append((start, time.perf_counter()))
        text = buf.getvalue()
        out.write((text if rc == 0 and text.count("\n") == 1 else "\n"))
    return spans


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--result", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)

    sampler = speed.Sampler()
    if not (args.trace or args.warm):
        sampler.start()
    start = time.perf_counter()
    import ringlab
    import ringlab.cli  # noqa: F401  (the classify requests enter here)

    imported = time.perf_counter()
    src = (Path.cwd() / "src").resolve()
    if not Path(ringlab.__file__).resolve().is_relative_to(src):
        sampler.stop()
        print(f"error: ringlab was imported from {ringlab.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    check = args.workload in CHECKS
    result: dict = {}
    if args.setup_only:
        if check:
            ringlab.build_catalog(ringlab.CatalogConfig())
        built = time.perf_counter()
        sampler.stop()
        result["setup"] = sampler.measure((start, built))
        result["probes"] = sampler.probes
        return _write(args.result, result)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    timers = Timers()
    out = sys.stdout
    cat = None
    if check:
        result["rc"] = CHECKS[args.workload](out, timers)
    else:
        pairs = workloads.load_golden(args.workload)
        sample = workloads.classify_sample(pairs, args.seed)
        order = workloads.pass_order(len(sample), args.seed, args.pass_index)
        spans = classify(out, [pairs[sample[pos]] for pos in order])
        result["rc"] = 0
    out.flush()
    sampler.stop()
    result["written_at"] = time.monotonic()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["probes"] = sampler.probes
    result["probes_s"] = sampler.spent()
    if check:
        (built_at, built, cat), = timers.results("build_catalog")
        result["setup"] = sampler.measure((start, imported), (built_at, built))
        result["rings"] = len(cat)
        result["expansions"] = sum(len(e.expansions) for e in cat)
        result["ops"] = [[r.theorem_id, *sampler.measure((a, b)), r.instances_checked]
                         for a, b, r in timers.results("verify")]
    else:
        result["setup"] = sampler.measure((start, imported))
        result["ops"] = [[pos, *sampler.measure(span)] for pos, span in zip(order, spans)]
    if args.warm and cat is not None:
        start = time.perf_counter()
        ringlab.verify_all(cat, jobs=1)
        result["warm_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.names, tracer.buffers, cat)
        tracer.dump(str(Path(args.result).parent / f"{args.workload}.spans.pickle"))
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
