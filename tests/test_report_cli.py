import ast
import collections
import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geodesk import cli, report
from geodesk import connection as C
from geodesk import grid as G
from geodesk import hodge as H
from geodesk import ricci as Ric
from geodesk.errors import DomainError
from geodesk.report import CheckEntry, CheckReport, compare_to_baseline, validate_report

INVENTORY = Path(__file__).resolve().parents[1] / "perfbench" / "inventory.json"
# pass/fail checks: residual 0 or 1 against the fixed report.FLAG_TOL
FLAGS = {"dimension", "dimension_gap", "gram_full_rank", "dplus_gap", "dplus_kappa1",
         "bridge_nonzero", "b2_plus_is_three"}


def test_check_report_roundtrip_and_order():
    rep = CheckReport("demo", {"n": 1})
    rep.checks += [CheckEntry("zeta", 1e-9, 1e-6), CheckEntry("alpha", 2e-6, 1e-6)]
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
    # a null residual (NaN or infinity in strict JSON) must fail
    for ok in (False, True):
        doc = dict(bad, checks=[{"name": "x", "residual": None, "tol": 1.0, "pass": ok}])
        assert (validate_report(doc) == []) is not ok


_CHECK = {"name": "x", "residual": 0.0, "tol": 1.0, "pass": True}


@pytest.mark.parametrize("doc", [
    [], "report", 5, None, {"checks": [1]}, {"checks": 5}, {"checks": {"x": 1.0}},
    {"checks": [dict(_CHECK, residual="small")]}, {"checks": [dict(_CHECK, tol=None)]},
    {"checks": [dict(_CHECK, name=3)]}, {"checks": [dict(_CHECK, **{"pass": 1})]},
    {"checks": [dict(_CHECK, residual=[0.0])]}, {"wall_ms": True}, {"wall_ms": -1},
    {"wall_ms": 1.5}])
def test_validate_report_lists_problems_and_never_raises(doc):
    full = dict({"suite": "s", "params": {}, "checks": [], "wall_ms": 0}, **doc) \
        if isinstance(doc, dict) else doc
    problems = validate_report(full)
    assert problems and all(isinstance(p, str) for p in problems), full


def test_baseline_comparison():
    rep = CheckReport("demo", {})
    rep.checks += [CheckEntry("a", 1e-8, 1e-6), CheckEntry("b", 5e-7, 1e-6)]
    rep.finalize()
    base = {"checks": [{"name": "a", "residual": 1e-10},
                       {"name": "b", "residual": 4e-7}]}
    assert compare_to_baseline(rep, base) == ["a"]
    # a baseline check that the run did not produce has vanished
    gone = {"checks": base["checks"] + [{"name": "c", "residual": 1e-9}]}
    assert compare_to_baseline(rep, gone) == ["a", "c"]
    # ... unless another suite of the same run produced it
    other = CheckReport("other", {})
    other.checks.append(CheckEntry("c", 2e-9, 1e-6))
    other.finalize()
    assert compare_to_baseline([rep, other], gone) == ["a"]
    # a NaN residual on either side is a regression
    nan_rep = CheckReport("demo", {})
    nan_rep.checks += [CheckEntry("a", float("nan"), 1e-6), CheckEntry("b", 5e-7, 1e-6)]
    nan_rep.finalize()
    nan_base = {"checks": [{"name": "a", "residual": 1e-8},
                           {"name": "b", "residual": float("nan")}]}
    assert compare_to_baseline(nan_rep, nan_base) == ["a", "b"]


def test_lincs_suite_passes():
    rep = cli.run_suite("lincs", 2, 8, seed=3, amplitude=None, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh process importing the package under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=env)


def test_memory_guard(monkeypatch, capsys):
    # n=2 is admitted by both suites, so only the guard can refuse this grid
    assert cli.estimate_peak_bytes(2, 20) > cli.MEMORY_CAP_BYTES
    monkeypatch.setattr(cli, "run_suite", _no_suite)
    for suite in ("bkn", "teich-connection"):
        assert cli.main(["verify", suite, "--n", "2", "--grid", "20", "--seed", "1"]) == 2
        assert "over the configured cap" in capsys.readouterr().err


def test_memory_guard_bounds_the_heaviest_suite():
    # bkn has the largest peak of the guarded suites at n=2/m=12 (each suite
    # alone, VmHWM: bkn 122 MB, ricci-laws 121 MB after its numeric failure,
    # teich-connection 116 MB, theta 114 MB, harmonic 110 MB, teich-wp
    # 109 MB).  The peak is VmHWM, the high-water RSS of the new process
    # image: Linux carries ru_maxrss over fork and exec, so a child of this
    # test process would report the test process's own RSS.
    proc = _run_python("-c", "from geodesk import cli; "
                             "cli.run_suite('bkn', 2, 12, 1, None, 1.0); "
                             "print(open('/proc/self/status').read())")
    assert proc.returncode == 0, proc.stderr
    peak = int(re.search(r"VmHWM:\s+(\d+) kB", proc.stdout).group(1)) * 1024
    assert peak <= cli.estimate_peak_bytes(2, 12)


@pytest.mark.parametrize("suite, m", [("theta", 12), ("ricci-laws", 14), ("harmonic", 12),
                                      ("teich-wp", 12)])
def test_suite_sections_release_their_fields(suite, m):
    # each group of checks is a section whose fields die when it returns, so
    # a suite's Python-allocated peak stays within 7.7 d³ fields (measured at
    # most 6.99, by harmonic; each of these suites held 9.3 to 15.1 while its
    # body kept every field to its end).  ricci-laws runs at m = 14: at
    # m = 12 it records a numeric failure after three checks.
    tracemalloc.start()
    try:
        rep = cli.run_suite(suite, 2, m, 1, None, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 7.7 * 4 ** 3 * m ** 4 * 8


def test_lincs_overflow_is_recorded_without_warnings(tmp_path):
    path = tmp_path / "r.json"
    proc = _run_python("-m", "geodesk", "verify", "lincs", "--amp", "1e6",
                       "--report", str(path))
    assert proc.returncode == 1, proc.stderr
    checks = json.loads(path.read_text())["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("numeric_failure[lincs]", False)]
    assert "RuntimeWarning" not in proc.stderr


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
    rep = CheckReport("bkn", {"n": 1, "tol_scale": 10.0})
    rep.add("flat_identity", 0.0)
    rep.add("q_two_ways[flat]", 0.0)
    assert [c.tol for c in rep.checks] == [pytest.approx(1e-7)] * 2
    # an n-dependent entry: (n = 1, n >= 2)
    for n, tol in ((1, 1e-7), (2, 1e-6), (3, 1e-6)):
        rep = CheckReport("harmonic", {"n": n, "tol_scale": 1.0})
        rep.add("lie_compatibility", 0.0)
        assert rep.checks[0].tol == tol
    with pytest.raises(KeyError):
        CheckReport("bkn", {"n": 1}).add("no_such_check", 0.0)


def test_tolerance_table_matches_inventory():
    # every shipped (config, suite, check) gets exactly its recorded tolerance,
    # flags get FLAG_TOL, and no table entry is left unused
    inventory = json.loads(INVENTORY.read_text())
    used = set()
    for config, suites in inventory.items():
        n = int(re.match(r"n(\d+)-m\d+$", config).group(1))
        for suite, checks in suites.items():
            for name, shipped in checks.items():
                base = name.split("[", 1)[0]
                rep = CheckReport(suite, {"n": n, "tol_scale": 1.0})
                if base in FLAGS:
                    assert base not in report.TOLERANCES[suite], name
                    rep.add_flag(name, True)
                    assert rep.checks[0].tol == 0.5, (config, suite, name)
                else:
                    rep.add(name, 0.0)
                    assert rep.checks[0].tol == shipped, (config, suite, name)
                    used.add((suite, base))
    table = {(suite, base) for suite, entries in report.TOLERANCES.items()
             for base in entries}
    assert table - used == set()


def test_only_report_reads_the_tolerance_table():
    offenders = []
    for path in Path(report.__file__).resolve().parent.glob("*.py"):
        if path.name == "report.py":
            continue
        text = path.read_text()
        for idiom in ("TOLERANCES", "suite_tolerances"):
            if idiom in text:
                offenders.append(f"{path.name}: {idiom}")
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "rep"
                    and len(node.args) + len(node.keywords) > 2):
                offenders.append(f"{path.name}:{node.lineno}: rep.add with a tolerance")
    assert offenders == []


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tol_scale", [1.0, 4.0])
def test_failed_flag_fails_at_any_scale(n, tol_scale):
    rep = CheckReport("teich-wp", {"n": n, "tol_scale": tol_scale})
    rep.add_flag("dimension_gap", False)
    rep.add_flag("dimension[kahler_cone]", True)
    assert [(c.residual, c.tol, c.passed) for c in rep.checks] == [
        (1.0, 0.5, False), (0.0, 0.5, True)]


def test_verify_teich_wp_n2_reports_flag_tolerance(tmp_path):
    path = tmp_path / "wp.json"
    assert cli.main(["verify", "teich-wp", "--n", "2", "--grid", "16",
                     "--report", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["params"]["tolerance_table_version"] == 3
    gap = [c for c in doc["checks"] if c["name"] == "dimension_gap"]
    assert gap == [{"name": "dimension_gap", "residual": 0.0, "tol": 0.5, "pass": True}]


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


def test_baseline_params_must_match_the_run(tmp_path, monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before the baseline was checked")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    run = {"n": 1, "m": 32, "seed": 4}
    wrong = [None, {}, {"m": 32, "seed": 4}, {"n": 1, "seed": 4}, {"n": 1, "m": 32},
             dict(run, n=2), dict(run, m=64), dict(run, seed=5), [1, 32, 4]]
    base = tmp_path / "base.json"
    args = ["verify", "lincs", "--n", "1", "--grid", "32", "--seed", "4",
            "--baseline", str(base)]
    for params in wrong:
        doc = {"checks": []} if params is None else {"checks": [], "params": params}
        base.write_text(json.dumps(doc))
        assert cli.main(args) == 2, params
        assert "usage error" in capsys.readouterr().err
    monkeypatch.undo()
    base.write_text(json.dumps({"checks": [], "params": dict(run, tol_scale=2.0)}))
    assert cli.main(args) == 0


@pytest.mark.parametrize("cfg", [{"n": 5}, {"n": 0}, {"n": "2"}, {"n": 1.5}, {"n": True},
                                 {"grid": "16"}, {"grid": 16.5}, {"seed": "x"},
                                 {"tol-scale": "big"}, {"amp": [0.1]}, {"report": 5},
                                 {"baseline": ["a.json"]}, [1, 2], {"amp": float("nan")},
                                 {"tol-scale": float("inf")}, {"seed": -1}, {"tol-scale": 0},
                                 {"tol-scale": -1}, {"amp": -0.1}])
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
    proc = _run_python("-m", "geodesk", "schema")
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

    monkeypatch.setitem(cli.SUITES, "bkn", dataclasses.replace(cli.SUITES["bkn"], body=boom))
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
    assert suites.pop("bkn") == [{"name": "numeric_failure[bkn]", "residual": 1.0,
                                  "tol": 0.5, "pass": False}]
    assert all(c["pass"] for checks in suites.values() for c in checks)
    # a usage error still exits 2
    assert cli.main(["verify", "teich-connection", "--n", "1"]) == 2


def test_baseline_keys_each_suites_numeric_failure(tmp_path, monkeypatch, capsys):
    # Several suites can record a numeric failure in one run (three at n=2/m=8);
    # each flag names its suite, so the baseline keeps them all and a failure
    # that vanished from one suite shows although another suite still fails.
    def boom(*args, **kwargs):
        raise DomainError("connection does not preserve the volume form")

    real = dict(cli.SUITES)
    for suite in ("ricci-moment", "ricci-laws"):
        monkeypatch.setitem(cli.SUITES, suite, dataclasses.replace(real[suite], body=boom))
    path = tmp_path / "base.json"
    args = ["verify", "all", "--n", "1", "--grid", "32", "--seed", "1"]
    assert cli.main(args + ["--report", str(path)]) == 1
    names = [c["name"] for c in json.loads(path.read_text())["checks"]]
    assert {"numeric_failure[ricci-moment]", "numeric_failure[ricci-laws]"} <= set(names)
    capsys.readouterr()
    monkeypatch.setitem(cli.SUITES, "ricci-moment", real["ricci-moment"])
    assert cli.main(args + ["--baseline", str(path)]) == 1
    err = capsys.readouterr().err
    assert "baseline regressions" in err
    assert err.rsplit(": ", 1)[1].split() == ["numeric_failure[ricci-moment]"]


def _arg_key(x):
    """Equal for byte-identical arguments: arrays by shape, dtype and a hash
    of their bytes, connections by Γ, Kähler instances by (ω, J)."""
    if isinstance(x, np.ndarray):
        data = np.ascontiguousarray(x).tobytes()
        return ("array", x.shape, x.dtype.str, hashlib.sha1(data).hexdigest())
    if isinstance(x, C.ConnectionField):
        return ("connection", _arg_key(x.gamma))
    if isinstance(x, H.KahlerInstance):
        return ("instance", _arg_key(x.omega), _arg_key(x.J))
    return repr(x)


def test_no_suite_repeats_a_computation(monkeypatch):
    # each suite computes the Ricci form, Λ, ∂̄Ĵ, a Levi-Civita connection and
    # the (f, g) split at most once per distinct input
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            key = tuple(map(_arg_key, args)) + tuple(
                (k, _arg_key(v)) for k, v in sorted(kwargs.items()))
            calls[name, key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((Ric, "ricci_form"), (Ric, "lambda_rho"), (H, "dbar_q1"),
                      (C, "levi_civita"), (H, "fg_decompose")):
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    for suite in cli.planned_suites("all", 1):
        calls.clear()
        assert cli.run_suite(suite, 1, 64, 1, None, 1.0).passed, suite
        repeats = collections.Counter()
        for (name, _), count in calls.items():
            repeats[name] += count - 1
        assert +repeats == {}, (suite, dict(+repeats))


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
              if [c["name"] for c in checks] == [f"numeric_failure[{s}]"]]
    assert failed == ["ricci-moment", "ricci-laws"]
    for suite in set(cli.SUITES) - set(failed):
        alone = cli.run_suite(suite, 2, 10, 1, None, 1.0).as_dict()["checks"]
        assert suites[suite] == alone, suite


def test_verify_all_n1_m128_fails_only_naturality_affine(tmp_path, capsys):
    # The seeded band is capped, so the Kähler potential of ricci-laws stays
    # positive at m = 128; naturality_affine reads a rounding floor of about
    # 2e-12 against its 1e-12 here.
    path = tmp_path / "all.json"
    rc = cli.main(["verify", "all", "--n", "1", "--grid", "128", "--seed", "1",
                   "--report", str(path)])
    capsys.readouterr()
    assert rc == 1
    doc = json.loads(path.read_text())
    assert validate_report(doc) == []
    assert len(doc["checks"]) == 115
    assert {c["name"] for c in doc["checks"] if not c["pass"]} == {"naturality_affine"}


@pytest.mark.parametrize("amp", ["50", "1e6"])
def test_lincs_blowup_is_recorded(tmp_path, capsys, amp):
    # a singular conjugating matrix (50) and a non-finite J (1e6) inside the body
    path = tmp_path / "lincs.json"
    with np.errstate(all="ignore"):
        rc = cli.main(["verify", "lincs", "--amp", amp, "--report", str(path)])
    assert rc == 1
    assert "numeric failure: lincs:" in capsys.readouterr().err
    doc = json.loads(path.read_text())
    assert validate_report(doc) == []
    assert doc["checks"][-1] == {"name": "numeric_failure[lincs]", "residual": 1.0,
                                 "tol": 0.5, "pass": False}


def test_checks_before_a_numeric_failure_stay(monkeypatch, capsys):
    def body(rep, grid, seed, amp):
        rep.add("moment", 1e-15)
        raise DomainError("late failure")

    monkeypatch.setitem(cli.SUITES, "lincs", dataclasses.replace(cli.SUITES["lincs"],
                                                                 body=body))
    rep = cli.run_suite("lincs", 1, 8, 1, None, 1.0)
    assert [(c.name, c.passed) for c in rep.checks] == [("moment", True),
                                                        ("numeric_failure[lincs]", False)]
    assert rep.params["amplitude"] == 0.3
    assert "numeric failure: lincs: late failure" in capsys.readouterr().err


def _no_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_residual_is_written_as_null(tmp_path, monkeypatch, capsys, bad):
    def body(rep, grid, seed, amp):
        rep.add("moment", bad)
        rep.add("siegel_equivariance", 0.0)

    monkeypatch.setitem(cli.SUITES, "lincs", dataclasses.replace(cli.SUITES["lincs"],
                                                                 body=body))
    path = tmp_path / "r.json"
    assert cli.main(["verify", "lincs", "--seed", "3", "--report", str(path)]) == 1
    doc = json.loads(path.read_text(), parse_constant=_no_constant)
    assert validate_report(doc) == []
    assert doc["checks"][0] == {"name": "moment", "residual": None, "tol": 1e-12,
                                "pass": False}
    # the null residual is flagged when the report is the baseline of a clean run
    monkeypatch.undo()
    capsys.readouterr()
    assert cli.main(["verify", "lincs", "--seed", "3", "--baseline", str(path)]) == 1
    assert capsys.readouterr().err.strip().endswith("check vanished): moment")


def _no_suite(*args, **kwargs):
    raise AssertionError("a suite ran before the usage checks")


@pytest.mark.parametrize("args", [["lincs", "--grid", "7"], ["all", "--grid", "7"],
                                  ["all", "--grid", "6"],
                                  ["bkn", "--n", "3"], ["teich-connection", "--n", "1"],
                                  ["lincs", "--seed", "-1"], ["lincs", "--tol-scale", "0"],
                                  ["all", "--tol-scale", "-1"], ["all", "--amp", "-0.1"]])
def test_inadmissible_run_rejected_before_any_suite(monkeypatch, capsys, args):
    monkeypatch.setattr(cli, "run_suite", _no_suite)
    assert cli.main(["verify", *args]) == 2
    assert "usage error" in capsys.readouterr().err


def test_amp_over_the_acs_cap_rejected_before_any_suite(tmp_path, monkeypatch, capsys):
    # the torus suites that seed almost complex structures refuse an amplitude
    # over grid's cap before any suite runs, so no report is written
    path = tmp_path / "r.json"
    monkeypatch.setattr(cli, "run_suite", _no_suite)
    assert cli.main(["verify", "all", "--n", "1", "--amp", "0.3", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and f"capped at {G.ACS_AMPLITUDE_CAP}" in err
    assert not path.exists()
    monkeypatch.undo()
    cli.admit("bkn", 1, 64, 0.3)  # no seeded almost complex structure
    assert cli.main(["verify", "lincs", "--amp", "0.3", "--report", str(path)]) == 0
    assert json.loads(path.read_text())["params"]["amplitude"] == 0.3


def test_all_at_n3_runs_the_one_suite_n3_admits(capsys, tmp_path):
    path = tmp_path / "r.json"
    assert cli.main(["verify", "all", "--n", "3", "--report", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert validate_report(doc) == []
    assert doc["suite"] == "lincs" and doc["params"]["n"] == 3
    assert capsys.readouterr().out.startswith("[pass] lincs n=3 ")
    assert cli.main(["verify", "bkn", "--n", "3"]) == 2
    assert "bkn runs on n = 1 or 2" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1", "two", "1.5", ""])
def test_bad_thread_count_rejected_before_any_suite(monkeypatch, capsys, threads):
    monkeypatch.setattr(cli, "run_suite", _no_suite)
    monkeypatch.setenv("GEODESK_THREADS", threads)
    assert cli.main(["verify", "lincs"]) == 2
    assert "usage error: GEODESK_THREADS" in capsys.readouterr().err


def test_thread_count_default_and_value(monkeypatch):
    monkeypatch.delenv("GEODESK_THREADS", raising=False)
    assert cli.max_threads() == 1
    monkeypatch.setenv("GEODESK_THREADS", "3")
    assert cli.max_threads() == 3


def test_suite_bodies_build_no_report_or_grid():
    offenders = []
    for suite, spec in cli.SUITES.items():
        tree = ast.parse(inspect.getsource(spec.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("CheckReport", "TorusGrid"):
                    offenders.append(f"{suite}:{node.lineno}: {name}(")
    assert offenders == []


@pytest.mark.parametrize("args", [["--amp", "nan"], ["--amp=-inf"],
                                  ["--tol-scale", "inf"], ["--tol-scale", "nan"]])
def test_nonfinite_amp_or_tol_scale_rejected_before_any_suite(monkeypatch, capsys, args):
    monkeypatch.setattr(cli, "run_suite", _no_suite)
    assert cli.main(["verify", "lincs", *args]) == 2
    assert "must be a finite number" in capsys.readouterr().err
