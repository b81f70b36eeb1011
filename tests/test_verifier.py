"""The sweep harness: reports, determinism, witnesses, and failure detection."""

from __future__ import annotations

import json
import threading

import pytest

import ringlab.verifier as verifier
from ringlab.catalog import CatalogConfig, build_catalog
from ringlab.errors import UnknownTheoremError
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
    assert len(THEOREM_IDS) == 26
    assert len(set(THEOREM_IDS)) == 26
    assert THEOREM_IDS[0] == "T-DEF-EQ"


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
    for tid in ("T-CHAIN", "T-PROD", "T-TRIV"):
        serial = strip_elapsed(verify(tid, catalog8, jobs=1))
        threaded = strip_elapsed(verify(tid, catalog8, jobs=4))
        assert serial == threaded


def test_sweep_runs_in_the_calling_thread(catalog8, monkeypatch):
    seen = set()
    sweep = verifier._SWEEPS["T-CHAIN"]

    def spy(entry, part):
        seen.add(threading.get_ident())
        sweep(entry, part)

    monkeypatch.setitem(verifier._SWEEPS, "T-CHAIN", spy)
    verify("T-CHAIN", catalog8, jobs=4)
    assert seen == {threading.get_ident()}


def test_mutation_is_caught(catalog8, monkeypatch):
    """Corrupting a predicate must flip T-PROD to refuted with witnesses."""
    monkeypatch.setattr(verifier, "is_delta_primary", lambda I, d: True)
    r = verify("T-PROD", catalog8)
    assert r.status == "refuted"
    assert r.conclusion_failures
    w = r.conclusion_failures[0]
    assert w.ring
    assert w.delta.startswith("prod(")


def test_failure_cap(catalog8, monkeypatch):
    monkeypatch.setattr(verifier, "FAILURE_CAP", 3)
    monkeypatch.setattr(verifier, "is_delta_primary", lambda I, d: True)
    r = verify("T-PROD", catalog8)
    assert len(r.conclusion_failures) == 3
    assert any("truncated" in n for n in r.notes)


def test_witness_to_dict():
    w = Witness(ring="Z8", ideal=("0", "4"), delta="rad", elements=("2", "2", "2"))
    d = w.to_dict()
    assert d["ring"] == "Z8"
    assert d["ideal"] == ["0", "4"]
    assert d["elements"] == ["2", "2", "2"]
    w2 = Witness(ring="Z8", ideal=("0",), delta="id", elements=None)
    assert w2.to_dict()["elements"] is None


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


def test_catalog_notices_surface_in_reports():
    cat = build_catalog(CatalogConfig(max_order=8, max_entries=4))
    r = verify("T-CHAIN", cat)
    assert any(n.startswith("catalog:") for n in r.notes)
