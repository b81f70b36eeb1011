"""CLI behavior: output shapes, exit codes, --out, and the env default."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ringlab.cli as cli
import ringlab.verifier as verifier
from ringlab.catalog import CatalogConfig, build_catalog
from ringlab.cli import main
from ringlab.ideals import span
from ringlab.specparse import parse_ring
from ringlab.verifier import THEOREM_IDS, TheoremReport, Witness, verify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_human(capsys):
    code, out, err = run(capsys, "classify", "--ring", "Z4", "--delta", "id")
    assert code == 0
    assert err == ""
    assert "ring: Z4" in out
    assert "1abs-delta-primary" in out
    lines = [l for l in out.splitlines() if l.startswith("(")]
    assert len(lines) == 2  # (0) and (2)


def test_classify_json_golden(capsys):
    code, out, err = run(capsys, "classify", "--ring", "Z4", "--delta", "id", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "Z4"
    assert payload["delta"] == "id"
    rows = {r["label"]: r for r in payload["rows"]}
    assert set(rows) == {"(0)", "(2)"}
    assert rows["(0)"]["predicates"]["1abs-delta-primary"] is True
    assert rows["(2)"]["predicates"]["1abs-delta-primary"] is True
    assert rows["(2)"]["predicates"]["prime"] is True
    assert rows["(0)"]["predicates"]["prime"] is False
    assert rows["(0)"]["witnesses"]["prime"] == ["2", "2"]
    assert rows["(0)"]["ideal"] == ["0"]


SEARCH_GOLDEN = Path(__file__).resolve().parent / "golden" / "search-default.json"


def test_search_json_golden(capsys):
    """``search --json`` on the default catalog, byte for byte, for three
    recorded queries: one delta-free, and between them every pass-set kind
    but the maximal one, with !, &, | and parentheses."""
    golden = json.loads(SEARCH_GOLDEN.read_text(encoding="utf-8"))
    assert [g["count"] for g in golden] == [422, 121, 495]
    for want in golden:
        code, out, err = run(capsys, "search", "--property", want["query"], "--json")
        assert code == 0 and err == ""
        assert out == json.dumps(want, separators=(",", ":")) + "\n", want["query"]
    assert {w["delta"] for w in golden[1]["witnesses"]} == {"-"}


def test_classify_z36_witness(capsys):
    code, out, _ = run(
        capsys, "classify", "--ring", "Z36", "--delta", "plus:(2)", "--json"
    )
    assert code == 0
    rows = {r["label"]: r for r in json.loads(out)["rows"]}
    assert rows["(6)"]["predicates"]["2abs-delta-primary"] is True
    assert rows["(6)"]["predicates"]["1abs-delta-primary"] is False
    assert rows["(6)"]["witnesses"]["1abs-delta-primary"] == ["2", "2", "3"]


def test_classify_parse_error(capsys):
    code, out, err = run(capsys, "classify", "--ring", "Z4x", "--delta", "id")
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "^" in err  # caret diagnostic


def test_quotient_by_a_unit_is_a_caret_diagnostic(capsys):
    code, out, err = run(capsys, "classify", "--ring", "Z4/(3)", "--delta", "id")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: cannot quotient by the unit ideal, the zero ring is excluded",
        "  Z4/(3)",
        "       ^",
    ]


@pytest.mark.parametrize("argv, message, text, column", [
    (("classify", "--ring", "", "--delta", "id"), "expected a ring spec", "", 0),
    (("classify", "--ring", "Z4", "--delta", ""), "expected an expansion spec", "", 0),
    (("search", "--property", ""), "expected a predicate name", "", 0),
    (("search", "--property", "prime &"), "expected a predicate name", "prime &", 7),
    (("search", "--property", "!"), "expected a predicate name", "!", 1),
])
def test_empty_input_keeps_its_caret_diagnostic(capsys, argv, message, text, column):
    """An empty spec, or a query that ends where a predicate name should
    start, prints the text line and a caret at the missing part, even when
    the text is empty, and exits 2."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}", "  " + text, "  " + " " * column + "^"]


def test_classify_bad_delta(capsys):
    code, _, err = run(capsys, "classify", "--ring", "Z4", "--delta", "prod(id,id)")
    assert code == 2
    assert "error:" in err


def test_check_single_json(capsys):
    code, out, _ = run(capsys, "check", "--theorem", "T-CHAIN", "--max-order", "8", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # report + summary
    report = json.loads(lines[0])
    assert report["theorem_id"] == "T-CHAIN"
    assert report["status"] == "verified"
    summary = json.loads(lines[1])["summary"]
    assert summary["conclusion_failures"] == 0
    assert summary["status"] == "ok"


def test_quot_at_the_smallest_budget_counts_only_zero_rows(capsys):
    """At --max-order 3 the bases are Z2 and Z3, each with two stock
    expansions and (0) as its only proper ideal, so T-QUOT's 4 instances are
    all zero rows, read from the ring itself."""
    code, out, _ = run(capsys, "check", "--theorem", "T-QUOT", "--max-order", "3", "--json")
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert (report["instances_checked"], report["hypothesis_satisfied"]) == (4, 4)
    assert report["status"] == "verified"
    bases = [e for e in build_catalog(CatalogConfig(max_order=3)) if e.ring.construction is None]
    assert [e.ring.label for e in bases] == ["Z2", "Z3"]
    for e in bases:
        assert [I.mask for I in e.ring.proper_ideals()] == [1 << e.ring.zero]
        assert len(e.expansions) == 2


def test_check_all_human(capsys):
    code, out, _ = run(capsys, "check", "--theorem", "all", "--max-order", "8")
    assert code == 0
    for tid in THEOREM_IDS:
        assert tid in out
    assert "summary:" in out


def test_check_unknown_theorem(capsys):
    code, _, err = run(capsys, "check", "--theorem", "T-NOPE")
    assert code == 2
    assert "unknown theorem id" in err


def test_check_exit_one_on_failure(capsys, monkeypatch):
    bad = TheoremReport(
        theorem_id="T-CHAIN",
        instances_checked=1,
        hypothesis_satisfied=1,
        conclusion_failures=(
            Witness(ring="Z4", ideal=("0",), delta="id", elements=("2", "2", "2")),
        ),
        elapsed=0.0,
        notes=(),
    )
    monkeypatch.setattr(cli, "verify", lambda tid, cat: bad)
    code, out, _ = run(capsys, "check", "--theorem", "T-CHAIN", "--max-order", "8")
    assert code == 1
    assert "refuted" in out
    assert "failure:" in out


def test_check_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "8")
    code8, out8, _ = run(capsys, "check", "--theorem", "T-CHAIN", "--json")
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "12")
    code12, out12, _ = run(capsys, "check", "--theorem", "T-CHAIN", "--json")
    assert code8 == code12 == 0
    n8 = json.loads(out8.splitlines()[0])["instances_checked"]
    n12 = json.loads(out12.splitlines()[0])["instances_checked"]
    assert n8 < n12


def test_check_bad_env_var(capsys, monkeypatch):
    monkeypatch.setenv("RINGLAB_MAX_ORDER", "pear")
    code, _, err = run(capsys, "check", "--theorem", "T-CHAIN")
    assert code == 2
    assert "RINGLAB_MAX_ORDER" in err


def test_check_jobs_does_not_change_output(capsys, catalog8):
    """``check --jobs 4`` runs the one serial sweep: it is accepted and gives
    the output of ``--jobs 1``, which is the library's report."""
    outs = []
    for jobs in ("1", "4"):
        code, out, _ = run(capsys, "check", "--theorem", "T-PROD", "--max-order", "8",
                           "--jobs", jobs, "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        for d in lines:
            d.pop("elapsed", None)
        outs.append(lines)
    assert outs[0] == outs[1]
    report = verify("T-PROD", catalog8).to_dict()
    report.pop("elapsed")
    assert outs[0][0] == report


def test_members_print_in_index_order(capsys):
    """The ideal ((2,2)) of Z4xZ4 lists (0,2) before (2,0) in every output."""
    expected = ["(0,0)", "(0,2)", "(2,0)", "(2,2)"]
    _, out, _ = run(capsys, "classify", "--ring", "Z4xZ4", "--delta", "id", "--json")
    rows = {row["label"]: row for row in json.loads(out)["rows"]}
    assert rows["((2,2))"]["ideal"] == expected

    query = "2abs & !prime"
    _, out, _ = run(capsys, "search", "--property", query, "--max-order", "4", "--json")
    hits = [w["ideal"] for w in json.loads(out)["witnesses"] if w["ring"] == "Z4xZ4"]
    assert expected in hits
    _, out, _ = run(capsys, "search", "--property", query, "--max-order", "4")
    assert "Z4xZ4  {" + ",".join(expected) + "}  -" in out.splitlines()

    R = parse_ring("Z4xZ4")
    part = verifier._Part("Z4xZ4", {})
    part.fail(span(R, [R.element_names.index("(2,2)")]), "id")
    assert list(part.failures[0].ideal) == expected


def test_search_json(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--property",
        "1abs-delta-primary & !delta-primary",
        "--max-order",
        "8",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["query"] == "1abs-delta-primary & !delta-primary"
    assert payload["count"] == len(payload["witnesses"])
    assert payload["count"] > 0
    w = payload["witnesses"][0]
    assert set(w) == {"ring", "ideal", "delta", "elements", "detail"}


def test_search_empty_is_exit_zero(capsys):
    code, out, _ = run(capsys, "search", "--property", "prime & !maximal", "--max-order", "8")
    assert code == 0
    assert "0 match(es)" in out


def test_search_parse_error(capsys):
    code, _, err = run(capsys, "search", "--property", "prime &")
    assert code == 2
    assert "error:" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "check",
        "--theorem",
        "T-CHAIN",
        "--max-order",
        "8",
        "--json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert json.loads(lines[0])["theorem_id"] == "T-CHAIN"


@pytest.mark.parametrize("command", [
    ("classify", "--ring", "Z4", "--delta", "id"),
    ("check", "--theorem", "T-CHAIN", "--max-order", "8"),
    ("search", "--property", "prime", "--max-order", "8"),
])
def test_unwritable_out_is_exit_two(capsys, tmp_path, command):
    """--out in a missing directory, or naming a directory, is bad input:
    one error line and exit code 2, not a traceback."""
    for target, reason in ((tmp_path / "missing" / "out.txt", "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = run(capsys, *command, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {target}: {reason}\n"


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--ring", "Z4"])  # missing --delta
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "ringlab classify: error: the following arguments are required: --delta"


@pytest.mark.parametrize("argv, last_line", [
    ((), "ringlab: error: the following arguments are required: command"),
    # argparse words the choices itself, and its wording has moved between
    # patch releases, so the line is pinned only up to "invalid choice:".
    (("nope",), "ringlab: error: argument command: invalid choice:"),
])
def test_usage_paths_exit_two_with_the_argparse_line(capsys, argv, last_line):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1].startswith(last_line)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: ringlab ") and "{classify,check,search}" in out


def test_importing_the_cli_generates_no_code():
    """``import ringlab.cli`` loads neither ``dataclasses`` nor ``inspect``:
    the record classes are written out, so no class body or decorator
    compiles methods at import. The modules are compared before and after
    the import, so what ``site`` loads does not count."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys; before = set(sys.modules); import ringlab.cli; "
              "print(sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    added = ast.literal_eval(done.stdout)
    assert "ringlab.cli" in added
    assert not {"dataclasses", "inspect"} & set(added), added


@pytest.mark.parametrize("argv, env, err_lines", [
    (("classify", "--ring", "Z99999999999", "--delta", "id"), None,
     ["error: ring order 99999999999 exceeds 1024", "  Z99999999999", "  ^"]),
    (("classify", "--ring", "Z64xZ64xZ64", "--delta", "id"), None,
     ["error: ring order 4096 exceeds 1024", "  Z64xZ64xZ64", "     ^"]),
    (("classify", "--ring", "triv(Z64,reg)", "--delta", "id"), None,
     ["error: ring order 4096 exceeds 1024", "  triv(Z64,reg)", "  ^"]),
    (("classify", "--ring", "Z99999999999[x]/(x)", "--delta", "id"), None,
     ["error: ring order 99999999999 exceeds 1024", "  Z99999999999[x]/(x)", "  ^"]),
    (("check", "--theorem", "T-CHAIN", "--max-order", "100000"), None,
     ["error: the base ring order budget 100000 exceeds 256"]),
    (("search", "--property", "prime", "--max-order", "257"), None,
     ["error: the base ring order budget 257 exceeds 256"]),
    (("check", "--theorem", "T-CHAIN"), "100000",
     ["error: the base ring order budget 100000 exceeds 256"]),
    (("check", "--theorem", "T-CHAIN", "--max-order", "1"), None,
     ["error: max_order must be at least 2"]),
    (("search", "--property", "prime", "--max-order", "-3"), None,
     ["error: max_order must be at least 2"]),
    (("check", "--theorem", "T-CHAIN"), "0",
     ["error: max_order must be at least 2"]),
])
def test_a_ring_too_large_to_build_exits_two_at_once(capsys, monkeypatch, argv, env, err_lines):
    """A spec above order 1024, or an order budget above 256, exits 2 with
    its diagnostic, well within a second, instead of building tables it
    cannot finish. A budget below 2, which admits no ring, exits 2 too."""
    if env is not None:
        monkeypatch.setenv("RINGLAB_MAX_ORDER", env)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err.splitlines()) == (2, "", err_lines)
