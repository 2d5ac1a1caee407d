"""One measured geodesk process.

``run.py`` starts this file in a fresh interpreter for each round, with a
JSON spec as its only argument.  It imports geodesk, prints ``ready`` (the
end of set-up), runs ``geodesk verify all`` once per pass of the round, reads
its own peak RSS, then checks every report and prints one JSON result line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The suite span and the report's wall_ms are two clocks around nearly the same
# interval; they differ by the rounding to whole ms and the tracer's own calls.
SUITE_CLOCK_SLACK_S = 0.02


def import_geodesk():
    sys.path.insert(0, str(SRC))
    import geodesk.cli

    where = Path(geodesk.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"geodesk imported from {where}, not from {SRC}")
    return geodesk.cli


def run_pass(cli, n: int, m: int, seed: int, threads: int, report: Path) -> dict:
    """One `geodesk verify all` call, timed from the call to the written report."""
    report.unlink(missing_ok=True)
    os.environ["GEODESK_THREADS"] = str(threads)
    argv = ["verify", "all", "--n", str(n), "--grid", str(m), "--seed", str(seed),
            "--report", str(report)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback is a failed pass, not a failed benchmark
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    doc = None
    if report.exists():
        with open(report) as fh:
            text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            err.write(f"report is not JSON: {exc}")
    return {"n": n, "m": m, "seed": seed, "threads": threads, "rc": rc,
            "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "doc": doc}


def evaluate_pass(result: dict, inventory: dict, validate_report) -> tuple[dict, list[str]]:
    """Per-suite outcome of one pass, and problems that are not one suite's."""
    import checks

    n, m, seed = result["n"], result["m"], result["seed"]
    expected = inventory[checks.config_key(n, m)]
    tag = f"n={n} m={m} seed={seed} threads={result['threads']}"
    doc = result["doc"]
    failed: dict[str, list[str]] = {}
    if doc is None:
        why = f"no report (exit {result['rc']}): {result['stderr'].strip()[-300:]}"
        return {"failed": {s: [why] for s in expected}, "suites": []}, []
    problems = [f"{tag}: {p}" for p in validate_report(doc)]
    params = doc.get("params", {})
    if (params.get("n"), params.get("m"), params.get("seed")) != (n, m, seed):
        problems.append(f"{tag}: params echo {params!r}")
    try:
        suites = checks.split_by_suite(result["stdout"], doc)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{tag}: {exc}")
        return {"failed": {s: [str(exc)] for s in expected}, "suites": []}, problems
    by_name = {s["suite"]: s for s in suites}
    for suite, inv in expected.items():
        entry = by_name.get(suite)
        why = ["suite vanished"] if entry is None else checks.suite_problems(entry, inv)
        if entry is not None and (entry["n"], entry["m"]) != (n, m):
            why.append(f"summary line says n={entry['n']} m={entry['m']}")
        if why:
            failed[suite] = why
    extra = sorted(set(by_name) - set(expected))
    if extra:
        problems.append(f"{tag}: suites not in the inventory: {extra}")
    if (result["rc"] == 0) != (not failed):
        problems.append(f"{tag}: exit code {result['rc']} disagrees with the checks")
    return {"failed": failed, "suites": suites}, problems


def source_fingerprint() -> str:
    """Residual caches are only compared between runs of the same code."""
    import numpy

    h = hashlib.sha256(f"{sys.version}|{numpy.__version__}".encode())
    for path in sorted((SRC / "geodesk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_cache(key: str, mode: str, residuals: dict):
    """Compare with every earlier pass of this configuration; remember this one.

    Returns the problems, the last-bit differences of threaded passes, and
    the modes ("serial", "threads") seen before.
    """
    from checks import compare_residuals

    folder = OUT / "residuals" / source_fingerprint()
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{key}.json"
    cached = {}
    if path.exists():
        with open(path) as fh:
            cached = json.load(fh)
    problems, notes = [], []
    for other, ref in cached.items():
        bad, bits = compare_residuals(ref, residuals, strict=mode == other == "serial")
        where = f"{key}: {mode} pass against an earlier {other} pass"
        if bad:
            problems.append(f"{where}: {len(bad)} residuals differ, e.g. {bad[:3]}")
        if bits:
            notes.append(f"{where}: last-bit differences {bits[:3]}")
    if mode not in cached:
        cached[mode] = residuals
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(cached, fh)
        os.replace(tmp, path)
    return problems, notes, set(cached) - {mode}


def main() -> int:
    spec = json.loads(sys.argv[1])
    cli = import_geodesk()
    print("ready", flush=True)
    # Imported after `ready`, so that set-up times geodesk's import alone.
    import checks
    from geodesk import report as greport
    from geodesk import ricci
    from geodesk.grid import TorusGrid

    inventory = checks.load_inventory()
    workdir = OUT / "reports"
    workdir.mkdir(parents=True, exist_ok=True)
    label = f"{spec['workload']}-seed{spec['seed']}-{'traced' if spec['trace'] else 'plain'}"

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for n, m, seed in spec["passes"]:
        if tracer is not None:
            tracer.pass_id = len(results)
        results.append(run_pass(cli, n, m, seed, spec["threads"], workdir / f"{label}.json"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    layers = {}
    problems: list[str] = []
    notes: list[str] = []
    if tracer is not None:
        tracer.close()
        layers = tracer.layer_metrics(list(inventory["n2-m16"]))
        with open(OUT / f"trace-{label}.json", "w") as fh:
            json.dump({"columns": ["id", "parent", "pass", "thread", "name", "start",
                                   "end", "self_s"], "spans": tracer.spans}, fh)

    attempted = failed = 0
    mode = "threads" if spec["threads"] > 1 else "serial"
    serial_seen = set()
    for pass_id, res in enumerate(results):
        outcome, pass_problems = evaluate_pass(res, inventory, greport.validate_report)
        problems += pass_problems
        attempted += len(inventory[checks.config_key(res["n"], res["m"])])
        failed += len(outcome["failed"])
        for suite, why in outcome["failed"].items():
            problems.append(f"n={res['n']} m={res['m']} seed={res['seed']} {suite}: "
                            + "; ".join(why[:3]))
        if outcome["failed"] or not outcome["suites"]:
            continue
        key = f"{checks.config_key(res['n'], res['m'])}-seed{res['seed']}"
        cache_problems, cache_notes, seen = compare_with_cache(
            key, mode, checks.residual_map(outcome["suites"]))
        problems += cache_problems
        notes += cache_notes
        if "serial" in seen:
            serial_seen.add(key)
        if tracer is not None:
            spans = tracer.suite_seconds(pass_id)
            for entry in outcome["suites"]:
                span_s = spans.get(entry["suite"], 0.0)
                if abs(span_s - entry["wall_ms"] / 1000) > SUITE_CLOCK_SLACK_S:
                    problems.append(f"pass {pass_id}: suite.{entry['suite']}.s = "
                                    f"{span_s:.4f} s but the report says {entry['wall_ms']} ms")

    # A threaded pass is compared with a serial pass of the same seed; run one
    # when no earlier run of this code left its residuals.
    if mode == "threads":
        for n, m, seed in spec["passes"]:
            key = f"{checks.config_key(n, m)}-seed{seed}"
            if key in serial_seen:
                continue
            ref = run_pass(cli, n, m, seed, 1, workdir / f"{label}-serial.json")
            outcome, ref_problems = evaluate_pass(ref, inventory, greport.validate_report)
            problems += ref_problems + [f"serial reference {key} {s}: {'; '.join(w[:3])}"
                                        for s, w in outcome["failed"].items()]
            if outcome["suites"] and not outcome["failed"]:
                cache_problems, cache_notes, _ = compare_with_cache(
                    key, "serial", checks.residual_map(outcome["suites"]))
                problems += cache_problems
                notes += cache_notes

    for n, m, seed in spec["independent"]:
        errors = checks.independent_checks(ricci, TorusGrid, n, m, seed)
        problems += [f"n={n} m={m} seed={seed} {p}" for p in checks.independent_problems(errors)]

    print(json.dumps({
        "seconds": sum(r["seconds"] for r in results), "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "problems": problems, "notes": notes,
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
