"""Canonical forms of ringlab's JSON output, and recording of the goldens.

A golden holds what the seed commit printed, with the parts that may
legitimately change removed: the per-statement ``elapsed`` field, and the
order of ideal members inside a list (members are compared as sorted lists,
so printing them in index order instead of hash order is not a failure).

Run ``PYTHONPATH=src python3 bench/golden.py`` from the repository root to
record the goldens again from the current source.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys


def canonical_report(line: str) -> dict:
    """A ``check --json`` line (a statement report or the summary)."""
    obj = json.loads(line)
    obj.pop("elapsed", None)
    for failure in obj.get("conclusion_failures", ()):
        failure["ideal"] = sorted(failure["ideal"])
    return obj


def canonical_classify(line: str) -> dict:
    """A ``classify --json`` line."""
    obj = json.loads(line)
    for row in obj["rows"]:
        row["ideal"] = sorted(row["ideal"])
    return obj


def digest(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def record() -> None:
    import worker
    from workloads import golden_path

    from ringlab import CatalogConfig, build_catalog

    out = io.StringIO()
    worker.CHECKS["check-default"](out, worker.Timers())
    reports = [canonical_report(line) for line in out.getvalue().splitlines()]
    _write(golden_path("check-default"), reports)
    pairs = [[e.provenance, d.label] for e in build_catalog(CatalogConfig()) for d in e.expansions]
    out = io.StringIO()
    worker.classify(out, pairs)
    lines = out.getvalue().splitlines()
    _write(golden_path("classify-sample"),
           [p + [digest(canonical_classify(line))] for p, line in zip(pairs, lines)])


def _write(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(record())
