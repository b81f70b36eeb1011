"""The large tier, outside Tier-1 (pytest collects only test_*.py files).

``CatalogConfig(max_order=32, product_order_limit=256,
trivial_extension_limit=512)`` has 834 rings, of order up to 512. Every
statement report, with ``elapsed`` stripped, must equal
``tests/golden/check-large.json``, whose summary shows no conclusion failure:
every statement is a theorem. Then the construction oracle rebuilds every
constructed ring, projection, module, multiplicative set and stock table of
the tier through the validating constructors (``construction_oracle``).
Last, the lattice of every product ring of the tier, and of Z4^5 (order
1024, 243 ideals), which a product reads off its factors' lattices, must
equal the sums of its principal ideals, each read straight from a row of
its multiplication table (``product_lattices``). And on every ring of the
tier, ``generator_list`` must return the generators of its greedy walk with
the sums formed as masks, and each principal ideal's scaling row must hold
the positions of ``scale`` (``lattice_oracle``): both read joins. On every
trivial extension, T-TRIV's colon-fixed flag of each pair ideal must equal
the colons formed one ``module_colon`` at a time (``colon_masks``).

Run from the repository root; it writes nothing and exits 1 on a mismatch:

    PYTHONPATH=src python tests/large_tier.py

The golden was recorded from the code as ``json.dumps(reports(catalog),
indent=0)`` plus a newline.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from construction_oracle import assert_catalog
from lattice_oracle import colon_fixed_differences, scaling_differences, walk_differences
from ringlab.catalog import CatalogConfig, build_catalog
from ringlab.constructions import ProductOf, TrivialExtensionOf
from ringlab.ideals import _principal_table, _sum_closure
from ringlab.specparse import parse_ring
from ringlab.verifier import verify_all

CONFIG = CatalogConfig(max_order=32, product_order_limit=256, trivial_extension_limit=512)
GOLDEN = Path(__file__).resolve().parent / "golden" / "check-large.json"


def reports(catalog) -> list[dict]:
    """The statement reports and the summary, as ``check --theorem all
    --json`` prints them, with ``elapsed`` stripped and each failure's ideal
    sorted."""
    out = []
    for report in verify_all(catalog):
        d = report.to_dict()
        d.pop("elapsed")
        for failure in d["conclusion_failures"]:
            failure["ideal"] = sorted(failure["ideal"])
        out.append(d)
    failures = sum(len(d["conclusion_failures"]) for d in out)
    out.append({"summary": {
        "theorems": len(out),
        "instances_checked": sum(d["instances_checked"] for d in out),
        "hypothesis_satisfied": sum(d["hypothesis_satisfied"] for d in out),
        "conclusion_failures": failures,
        "status": "ok" if failures == 0 else "failed",
    }})
    return out


def product_lattices(catalog) -> int:
    """Check each product ring's lattice, and Z4^5's, against the closure of
    the principal masks of its own multiplication rows, not ``_principal_masks``,
    whose product branch reads the factors. Returns the number checked."""
    rings = [e.ring for e in catalog if isinstance(e.ring.construction, ProductOf)]
    rings.append(parse_ring("Z4xZ4xZ4xZ4xZ4"))
    for R in rings:
        principal = {sum(1 << v for v in set(row)) for row in R.mul_table}
        if tuple(I.mask for I in R.ideals()) != _sum_closure(R, principal):
            raise AssertionError(f"the lattice of {R.label} differs from its principal closure")
    return len(rings)


def lattice_reads(catalog) -> tuple[int, int]:
    """Check every ring's generator walk and scaling rows against
    ``lattice_oracle``. Returns the numbers of ideals and rows checked."""
    ideals = rows = 0
    for entry in catalog:
        R = entry.ring
        if walk_differences(R) or scaling_differences(R):
            raise AssertionError(f"the generator walk or scaling rows of {R.label} differ")
        ideals += len(R.ideals())
        rows += len(_principal_table(R))
    return ideals, rows


def colon_masks(catalog) -> tuple[int, int]:
    """Check T-TRIV's colon-fixed flags on every trivial extension against
    ``lattice_oracle``. Returns the numbers of extensions and of pairs over
    proper ideals checked."""
    rings = [e.ring for e in catalog if isinstance(e.ring.construction, TrivialExtensionOf)]
    for T in rings:
        if colon_fixed_differences(T):
            raise AssertionError(f"the colon-fixed flags of {T.label} differ")
    return len(rings), sum(I.is_proper for T in rings for I, _ in T.construction.pair_ideals())


def main() -> int:
    start = time.perf_counter()
    catalog = build_catalog(CONFIG)
    built = time.perf_counter()
    got = reports(catalog)
    swept = time.perf_counter()
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for g, w in zip(got, want):
        if g != w:
            print("differs from the golden:", json.dumps(g), "expected", json.dumps(w))
    if got != want or len(got) != len(want):
        return 1
    counts = assert_catalog(catalog)
    checked = time.perf_counter()
    products = product_lattices(catalog)
    closed = time.perf_counter()
    ideals, rows = lattice_reads(catalog)
    read = time.perf_counter()
    extensions, pairs = colon_masks(catalog)
    print(f"{len(catalog)} rings: built in {built - start:.2f} s, swept in {swept - built:.2f} s,"
          f" equal to the golden; oracle {dict(counts)} in {checked - swept:.2f} s;"
          f" {products} product lattices equal their principal closures in"
          f" {closed - checked:.2f} s; generator walks of {ideals} ideals and"
          f" {rows} scaling rows equal lattice_oracle in {read - closed:.2f} s;"
          f" colon-fixed flags of {pairs} pairs in {extensions} trivial extensions equal"
          f" the module colons in {time.perf_counter() - read:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
