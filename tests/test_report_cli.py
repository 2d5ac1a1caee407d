import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geodesk import cli, report
from geodesk.errors import DomainError
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
    # a baseline check that the run did not produce has vanished
    gone = {"checks": base["checks"] + [{"name": "c", "residual": 1e-9}]}
    assert compare_to_baseline(rep, gone) == ["a", "c"]
    # ... unless another suite of the same run produced it
    other = CheckReport("other", {})
    other.add("c", 2e-9, 1e-6)
    other.finalize()
    assert compare_to_baseline([rep, other], gone) == ["a"]
    # a NaN residual on either side is a regression
    nan_rep = CheckReport("demo", {})
    nan_rep.add("a", float("nan"), 1e-6)
    nan_rep.add("b", 5e-7, 1e-6)
    nan_rep.finalize()
    nan_base = {"checks": [{"name": "a", "residual": 1e-8},
                           {"name": "b", "residual": float("nan")}]}
    assert compare_to_baseline(nan_rep, nan_base) == ["a", "b"]


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


def test_bad_baseline_rejected_before_any_suite(tmp_path, monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before the baseline was checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    not_json = tmp_path / "not.json"
    not_json.write_text("{ residuals")
    shapes = [[], {"checks": [1]}, {"checks": [{"name": "x"}]},
              {"checks": [{"name": "x", "residual": "small"}]}, {"checks": {"x": 1.0}}]
    bad_shapes = []
    for i, doc in enumerate(shapes):
        bad_shapes.append(tmp_path / f"shape{i}.json")
        bad_shapes[-1].write_text(json.dumps(doc))
    report_path = tmp_path / "report.json"
    for base in [tmp_path / "missing.json", not_json, tmp_path] + bad_shapes:
        rc = cli.main(["verify", "lincs", "--baseline", str(base),
                       "--report", str(report_path)])
        assert rc == 2, base
        assert "usage error" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("cfg", [{"n": 5}, {"n": 0}, {"n": "2"}, {"n": 1.5}, {"n": True},
                                 {"grid": "16"}, {"grid": 16.5}, {"seed": "x"},
                                 {"tol-scale": "big"}, {"amp": [0.1]}, {"report": 5},
                                 {"baseline": ["a.json"]}, [1, 2]])
def test_bad_config_values_exit_2(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["verify", "lincs", "--config", str(path)]) == 2
    assert "usage error" in capsys.readouterr().err


def test_unwritable_report_rejected_before_any_suite(tmp_path, monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before the report path was checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        assert cli.main(["verify", "lincs", "--report", str(path)]) == 2
        assert "cannot write report" in capsys.readouterr().err


def test_python_dash_m_geodesk_runs():
    src = str(Path(cli.__file__).resolve().parents[1])  # the package under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "geodesk", "schema"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["title"].startswith("geodesk")


def _per_suite(stdout: str, doc: dict) -> dict[str, list[dict]]:
    """Cut the flat `verify all` check list by the per-suite summary lines."""
    out, start = {}, 0
    for line in stdout.splitlines():
        hit = re.match(r"^\[(?:pass|FAIL)\] (\S+) n=\d+ m=\d+ checks=(\d+)", line)
        if hit:
            out[hit.group(1)] = doc["checks"][start:start + int(hit.group(2))]
            start += int(hit.group(2))
    assert start == len(doc["checks"])
    return out


def test_numeric_failure_is_recorded(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise DomainError("metric must be positive definite")

    monkeypatch.setattr(cli.hodge, "bkn_suite", boom)
    path = tmp_path / "all.json"
    rc = cli.main(["verify", "all", "--n", "1", "--grid", "32", "--seed", "1",
                   "--report", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "numeric failure: bkn: metric must be positive definite" in captured.err
    doc = json.loads(path.read_text())
    assert validate_report(doc) == []
    suites = _per_suite(captured.out, doc)
    assert list(suites) == [s for s in cli.SUITES if s != "teich-connection"]
    assert suites.pop("bkn") == [{"name": "numeric_failure", "residual": 1.0,
                                  "tol": 0.5, "pass": False}]
    assert all(c["pass"] for checks in suites.values() for c in checks)
    # a usage error still exits 2
    assert cli.main(["verify", "teich-connection", "--n", "1"]) == 2


def test_verify_all_n2_m10_writes_report_on_exit_1(tmp_path, capsys):
    # Two Ricci suites fail on this coarse grid; the seven others still report.
    path = tmp_path / "all.json"
    rc = cli.main(["verify", "all", "--n", "2", "--grid", "10", "--seed", "1",
                   "--report", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    doc = json.loads(path.read_text())
    assert validate_report(doc) == []
    suites = _per_suite(captured.out, doc)
    assert list(suites) == list(cli.SUITES)
    failed = [s for s, checks in suites.items()
              if [c["name"] for c in checks] == ["numeric_failure"]]
    assert failed == ["ricci-moment", "ricci-laws"]
    for suite in set(cli.SUITES) - set(failed):
        alone = cli.run_suite(suite, 2, 10, 1, None, 1.0).as_dict()["checks"]
        assert suites[suite] == alone, suite
