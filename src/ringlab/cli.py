"""Command-line front end: classify ideals, check statements, search witnesses."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .catalog import CatalogConfig, build_catalog
from .errors import ParseError, RinglabError
from .ideals import Ideal
from .predicates import PREDICATE_NAMES, classify
from .rings import FiniteRing
from .specparse import _MAX_BUDGET, parse_expansion, parse_query, parse_ring
from .verifier import THEOREM_IDS, TheoremReport, search_witness, verify

ENV_MAX_ORDER = "RINGLAB_MAX_ORDER"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="Finite commutative rings, ideal expansions, absorbing-ideal checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="predicate matrix for one ring and expansion")
    p_classify.add_argument("--ring", required=True, help="ring spec, e.g. Z36 or Z4xZ9")
    p_classify.add_argument("--delta", required=True, help="expansion spec, e.g. id or plus:(2)")
    p_classify.add_argument("--json", action="store_true", help="structured output")
    p_classify.add_argument("--out", help="write output to this file instead of stdout")

    p_check = sub.add_parser("check", help="run statement checks over the catalog")
    p_check.add_argument("--theorem", required=True, help="statement id or 'all'")
    p_check.add_argument("--max-order", type=int, default=None, help="base ring order budget")
    p_check.add_argument("--json", action="store_true", help="one JSON report per line")
    p_check.add_argument("--jobs", type=int, default=None,
                         help="accepted for compatibility; has no effect")
    p_check.add_argument("--out", help="write output to this file instead of stdout")

    p_search = sub.add_parser("search", help="find catalog instances matching a predicate query")
    p_search.add_argument("--property", required=True, dest="query", help="boolean predicate query")
    p_search.add_argument("--max-order", type=int, default=None, help="base ring order budget")
    p_search.add_argument("--json", action="store_true", help="structured output")
    p_search.add_argument("--out", help="write output to this file instead of stdout")

    return parser


def _default_max_order(value: Optional[int]) -> int:
    raw = os.environ.get(ENV_MAX_ORDER)
    if value is None and raw:
        try:
            value = int(raw)
        except ValueError:
            raise RinglabError(f"{ENV_MAX_ORDER} must be an integer, got {raw!r}")
    if value is not None and value > _MAX_BUDGET:
        raise RinglabError(f"the base ring order budget {value} exceeds {_MAX_BUDGET}")
    return 16 if value is None else value


def _emit(lines: list[str], out_path: Optional[str]) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise RinglabError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _witness_parts(R: FiniteRing, wit: object) -> list[str]:
    if isinstance(wit, Ideal):
        return [wit.label]
    if isinstance(wit, int):
        return [R.element_name(wit)]
    return [part for item in wit for part in _witness_parts(R, item)]  # type: ignore[union-attr]


def _parse_diagnostic(exc: ParseError) -> list[str]:
    lines = [f"error: {exc.message}"]
    if exc.text is not None:
        lines.append("  " + exc.text)
        lines.append("  " + " " * exc.position + "^")
    return lines


def _run_classify(args: argparse.Namespace) -> int:
    R = parse_ring(args.ring)
    d = parse_expansion(args.delta, R)
    rows = classify(R, d)
    lines: list[str] = []
    if args.json:
        payload = {
            "ring": R.label,
            "delta": d.label,
            "rows": [
                {
                    "ideal": [R.element_name(i) for i in row.ideal.members_sorted],
                    "label": row.ideal.label,
                    "predicates": dict(row.values),
                    "witnesses": {
                        name: _witness_parts(R, wit) for name, wit in row.witnesses.items()
                    },
                }
                for row in rows
            ],
        }
        lines.append(json.dumps(payload, separators=(",", ":")))
    else:
        lines.append(f"ring: {R.label}  (order {R.order})  delta: {d.label}")
        label_w = max([len(r.ideal.label) for r in rows] + [5])
        header = "ideal".ljust(label_w) + "  " + "  ".join(PREDICATE_NAMES)
        lines.append(header)
        for row in rows:
            cells = [
                ("T" if row.values[name] else "F").ljust(len(name)) for name in PREDICATE_NAMES
            ]
            lines.append(row.ideal.label.ljust(label_w) + "  " + "  ".join(cells))
        witness_lines = []
        for row in rows:
            for name in PREDICATE_NAMES:
                wit = row.witnesses.get(name)
                if wit is not None:
                    pretty = ", ".join(_witness_parts(R, wit))
                    witness_lines.append(f"  {row.ideal.label} fails {name}: witness {pretty}")
        if witness_lines:
            lines.append("witnesses:")
            lines.extend(witness_lines)
    _emit(lines, args.out)
    return 0


def _human_report(report: TheoremReport) -> list[str]:
    lines = [
        f"{report.theorem_id:12s} {report.status:8s} instances={report.instances_checked}"
        f" hypothesis={report.hypothesis_satisfied}"
        f" failures={len(report.conclusion_failures)} elapsed={report.elapsed:.2f}s"
    ]
    for w in report.conclusion_failures:
        elems = ", ".join(w.elements) if w.elements else "-"
        members = "{" + ",".join(w.ideal) + "}" if w.ideal else "-"
        lines.append(f"    failure: ring={w.ring} ideal={members} delta={w.delta}"
                     f" elements={elems} {w.detail}")
    for note in report.notes:
        lines.append(f"    note: {note}")
    return lines


def _run_check(args: argparse.Namespace) -> int:
    if args.theorem != "all" and args.theorem not in THEOREM_IDS:
        known = ", ".join(THEOREM_IDS)
        raise RinglabError(f"unknown theorem id {args.theorem!r}; known ids: all, {known}")
    ids = THEOREM_IDS if args.theorem == "all" else (args.theorem,)
    cat = build_catalog(CatalogConfig(max_order=_default_max_order(args.max_order)))
    lines: list[str] = []
    total_failures = 0
    total_checked = 0
    total_hyp = 0
    for tid in ids:
        report = verify(tid, cat)
        total_failures += len(report.conclusion_failures)
        total_checked += report.instances_checked
        total_hyp += report.hypothesis_satisfied
        if args.json:
            lines.append(report.to_json())
        else:
            lines.extend(_human_report(report))
    summary = {
        "theorems": len(ids),
        "instances_checked": total_checked,
        "hypothesis_satisfied": total_hyp,
        "conclusion_failures": total_failures,
        "status": "ok" if total_failures == 0 else "failed",
    }
    if args.json:
        lines.append(json.dumps({"summary": summary}, separators=(",", ":")))
    else:
        lines.append(
            f"summary: {summary['theorems']} statements, {total_checked} instances,"
            f" {total_hyp} hypothesis hits, {total_failures} conclusion failures"
        )
    _emit(lines, args.out)
    return 0 if total_failures == 0 else 1


def _run_search(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    cat = build_catalog(CatalogConfig(max_order=_default_max_order(args.max_order)))
    hits = search_witness(query, cat)
    lines: list[str] = []
    if args.json:
        payload = {
            "query": query.text,
            "count": len(hits),
            "witnesses": [w.to_dict() for w in hits],
        }
        lines.append(json.dumps(payload, separators=(",", ":")))
    else:
        for w in hits:
            members = "{" + ",".join(w.ideal) + "}"
            lines.append(f"{w.ring}  {members}  {w.delta}")
        lines.append(f"{len(hits)} match(es) for: {query.text}")
    _emit(lines, args.out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return _run_classify(args)
        if args.command == "check":
            return _run_check(args)
        return _run_search(args)
    except ParseError as exc:
        for line in _parse_diagnostic(exc):
            print(line, file=sys.stderr)
        return 2
    except RinglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
