import json
import subprocess
import sys

import numpy as np
import pytest

from geodesk import cli, report
from geodesk.report import CheckReport, compare_to_baseline, validate_report


def test_check_report_roundtrip_and_order():
    rep = CheckReport("demo", {"n": 1})
    rep.add("zeta", 1e-9, 1e-6)
    rep.add("alpha", 2e-6, 1e-6)
    rep.finalize()
    assert [c.name for c in rep.checks] == ["alpha", "zeta"]
    assert not rep.passed
    doc = json.loads(rep.to_json())
    assert validate_report(doc) == []
    assert doc["checks"][0]["pass"] is False
    assert rep.worst().name == "alpha"


def test_validate_report_catches_problems():
    assert validate_report({}) != []
    bad = {"suite": "s", "params": {}, "wall_ms": 0,
           "checks": [{"name": "x", "residual": 2.0, "tol": 1.0, "pass": True}]}
    assert any("inconsistent" in p for p in validate_report(bad))


def test_baseline_comparison():
    rep = CheckReport("demo", {})
    rep.add("a", 1e-8, 1e-6)
    rep.add("b", 5e-7, 1e-6)
    rep.finalize()
    base = {"checks": [{"name": "a", "residual": 1e-10},
                       {"name": "b", "residual": 4e-7}]}
    assert compare_to_baseline(rep, base) == ["a"]


def test_lincs_suite_passes():
    rep = cli.lincs_suite(2, 8, seed=3, cases=10)
    assert rep.passed, rep.to_json()


def test_memory_guard():
    assert cli.estimate_curvature_bytes(3, 8) > cli.MEMORY_CAP_BYTES
    rc = cli.main(["verify", "bkn", "--n", "3", "--seed", "1"])
    assert rc == 2


def test_cli_schema_and_verify(tmp_path, capsys):
    assert cli.main(["schema"]) == 0
    out = capsys.readouterr().out
    schema = json.loads(out)
    assert schema["title"].startswith("geodesk")

    path = tmp_path / "report.json"
    rc = cli.main(["verify", "lincs", "--n", "1", "--seed", "7",
                   "--report", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert validate_report(doc) == []
    assert doc["suite"] == "lincs"

    # rerun with the report as its own baseline: no regressions
    rc = cli.main(["verify", "lincs", "--n", "1", "--seed", "7",
                   "--baseline", str(path)])
    assert rc == 0
    # identical config produces an identical report modulo wall time
    path2 = tmp_path / "report2.json"
    cli.main(["verify", "lincs", "--n", "1", "--seed", "7", "--report", str(path2)])
    doc2 = json.loads(path2.read_text())
    doc.pop("wall_ms"), doc2.pop("wall_ms")
    assert doc == doc2


def test_cli_unknown_suite_exits_2():
    assert cli.main(["verify", "nope"]) == 2


def test_tolerance_scale():
    tols = report.suite_tolerances("bkn", 10.0)
    assert tols["flat_identity"] == pytest.approx(1e-7)


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "seed": 9, "grid": 32}))
    out = tmp_path / "rep.json"
    rc = cli.main(["verify", "lincs", "--config", str(cfg), "--report", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["seed"] == 9
    # flags take precedence over the config
    rc = cli.main(["verify", "lincs", "--config", str(cfg), "--seed", "11",
                   "--report", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["params"]["seed"] == 11
    assert cli.main(["verify", "lincs", "--config", str(tmp_path / "nope.json")]) == 2


def test_threaded_verify_all_matches_serial(tmp_path, monkeypatch):
    # Threaded suites share the grid cache and the contraction-path cache.
    # Rounding-level residuals may differ in their last bits between the two
    # runs, so each residual must agree to 1e-3 of its tolerance.
    docs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("GEODESK_THREADS", threads)
        path = tmp_path / f"all_t{threads}.json"
        rc = cli.main(["verify", "all", "--n", "1", "--grid", "64", "--seed", "1",
                       "--report", str(path)])
        assert rc == 0
        docs[threads] = json.loads(path.read_text())["checks"]
    serial, threaded = docs["1"], docs["2"]
    assert [c["name"] for c in threaded] == [c["name"] for c in serial]
    for s, t in zip(serial, threaded):
        assert t["tol"] == s["tol"]
        assert abs(t["residual"] - s["residual"]) <= 1e-3 * s["tol"], s["name"]
