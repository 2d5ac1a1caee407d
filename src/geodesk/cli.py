"""Suite runner: `geodesk verify <suite> [flags]` and `geodesk schema`."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import grid as G
from . import hodge, lincs, report, ricci, teich
from .errors import DomainError, NumericError, UsageError
from .grid import TorusGrid
from .report import REPORT_SCHEMA, CheckReport, compare_to_baseline

MEMORY_CAP_BYTES = int(1.5e9)
DEFAULT_GRID = {1: 64, 2: 16, 3: 8}  # grid size per n when --grid is not given


def max_threads() -> int:
    """GEODESK_THREADS: an integer >= 1; unset means 1."""
    raw = os.environ.get("GEODESK_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"GEODESK_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def estimate_peak_bytes(n: int, m: int) -> int:
    """Upper bound on the peak RSS of one guarded suite run alone: 80 MB for
    the interpreter, numpy and fixed tables, plus 5·d⁴ + 256 float64 values
    per grid point; the 256 cover the lower-rank fields that dominate at
    n = 1.  Calibrated on the peak RSS of each suite alone in a fresh process
    at n = 2, m = 8…18 and n = 1, m = 64…720, when bkn still built 4-index
    fields.  No suite holds a d⁴ field now, so at n = 2 the bound has room:
    at m = 16 it is 0.89 GB, and the heaviest suites alone, bkn, ricci-laws
    and theta, peak at 0.28, 0.27 and 0.26 GB."""
    d = 2 * n
    return 80_000_000 + 8 * m ** d * (5 * d ** 4 + 256)


@dataclass(frozen=True)
class Suite:
    """A suite's check body ``(rep, grid, seed, amp) -> None``, its default
    amplitude at (n = 1, n >= 2), the n it admits, whether the memory guard
    applies, and whether it seeds almost complex structures at the run's
    amplitude, which ``grid.ACS_AMPLITUDE_CAP`` bounds.  Every torus suite is
    guarded, only lincs, which builds no grid field, is not.  The torus
    suites admit n = 1 and 2: at n = 3 one d³ field alone takes 453 MB at
    the smallest grid, m = 8, and the suites measured there peaked at 1.8
    to 2.5 GB, over ``MEMORY_CAP_BYTES``."""

    body: Callable
    amp: tuple[float, float] = (0.1, 0.05)
    ns: tuple[int, ...] = (1, 2)
    guarded: bool = True
    seeds_acs: bool = False


SUITES = {
    "lincs": Suite(lincs.lincs_suite, (0.3, 0.3), ns=tuple(DEFAULT_GRID), guarded=False),
    "ricci-moment": Suite(ricci.verify_moment_identities, seeds_acs=True),
    "ricci-laws": Suite(ricci.verify_transformation_laws, seeds_acs=True),
    "bkn": Suite(hodge.bkn_suite),
    "harmonic": Suite(hodge.harmonic_lemma_suite),
    "bott-chern": Suite(hodge.bott_chern_suite, seeds_acs=True),
    "teich-wp": Suite(teich.wp_suite),
    "teich-connection": Suite(teich.connection_suite, ns=(2,)),
    "theta": Suite(teich.theta_suite, seeds_acs=True),
}


def planned_suites(suite: str, n: int) -> list[str]:
    """The suites `verify <suite>` runs; `all` skips those that do not admit n."""
    return [s for s in SUITES if n in SUITES[s].ns] if suite == "all" else [suite]


def admit(suite: str, n: int, m: int,
          amplitude: float | None = None) -> tuple[Suite, TorusGrid]:
    """The suite's entry and grid; a UsageError for an unknown suite, an n it
    does not admit, an amplitude over the cap of the almost complex
    structures it seeds, a grid that is not even and >= 8, or the memory
    guard.  ``amplitude`` None is the suite's default."""
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}")
    spec = SUITES[suite]
    if n not in spec.ns:
        raise UsageError(f"{suite} runs on n = {' or '.join(map(str, spec.ns))}")
    if spec.seeds_acs and amplitude is not None and amplitude > G.ACS_AMPLITUDE_CAP:
        raise UsageError(f"{suite} seeds almost complex structures, whose amplitude is "
                         f"capped at {G.ACS_AMPLITUDE_CAP}; got amp {amplitude}")
    grid = TorusGrid(n, m)
    if spec.guarded and estimate_peak_bytes(n, m) > MEMORY_CAP_BYTES:
        raise UsageError(
            f"suite {suite!r} at n={n}, m={m} needs about "
            f"{estimate_peak_bytes(n, m) / 1e9:.1f} GB, over the configured cap")
    return spec, grid


def run_suite(suite: str, n: int, m: int, seed: int, amplitude: float | None,
              tol_scale: float) -> CheckReport:
    """One suite's report.  A DomainError, NumericError or numpy LinAlgError
    inside its body is recorded after the checks already added, as the failed
    flag check ``numeric_failure[<suite>]``, and printed to stderr; a UsageError
    propagates."""
    rep = CheckReport(suite, {"n": n, "m": m, "seed": seed, "tol_scale": tol_scale})
    spec, grid = admit(suite, n, m, amplitude)
    if amplitude is None:
        amplitude = spec.amp[0] if n == 1 else spec.amp[1]
    rep.params["amplitude"] = amplitude
    try:
        spec.body(rep, grid, seed, amplitude)
    except (DomainError, NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {suite}: {exc}", file=sys.stderr)
        rep.add_flag(f"numeric_failure[{suite}]", False)
    return rep.finalize()


def run_all(n: int, m: int, seed: int, amplitude: float | None,
            tol_scale: float) -> list[CheckReport]:
    suites = planned_suites("all", n)
    workers = max_threads()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_suite, s, n, m, seed, amplitude, tol_scale)
                       for s in suites]
            return [f.result() for f in futures]
    return [run_suite(s, n, m, seed, amplitude, tol_scale) for s in suites]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="geodesk",
                                description="residual verification suites on "
                                            "linear spaces and flat tori")
    sub = p.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=(*SUITES, "all"))
    v.add_argument("--n", type=int, default=None, choices=tuple(DEFAULT_GRID))
    v.add_argument("--grid", type=int, default=None, metavar="M")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--amp", type=float, default=None)
    v.add_argument("--tol-scale", type=float, default=None)
    v.add_argument("--report", type=str, default=None, metavar="PATH")
    v.add_argument("--baseline", type=str, default=None, metavar="PATH")
    v.add_argument("--config", type=str, default=None, metavar="PATH",
                   help="JSON file mirroring the flags; flags take precedence")
    sub.add_parser("schema", help="print the report JSON schema")
    return p


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from None


def _read_baseline(path: str, run: dict) -> dict:
    """The baseline report at `path`; its params must give this run's n, m
    and seed, as in `run`."""
    doc = _read_json(path, "baseline")
    checks = doc.get("checks", []) if isinstance(doc, dict) else None
    if not isinstance(checks, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str)
            and "residual" in c and (c["residual"] is None or report.is_number(c["residual"]))
            for c in checks):
        raise UsageError("baseline must be a JSON report: an object whose checks "
                         "each have a string name and a numeric or null residual")
    params = doc.get("params")
    got = {k: params.get(k) for k in run} if isinstance(params, dict) else {}
    if got != run:
        raise UsageError(f"baseline params {got} do not match this run's {run}")
    return doc


def _check_writable(path: str) -> None:
    folder = os.path.dirname(path) or "."
    if os.path.exists(path):
        writable = os.path.isfile(path) and os.access(path, os.W_OK)
    else:
        writable = os.path.isdir(folder) and os.access(folder, os.W_OK)
    if not writable:
        raise UsageError(f"cannot write report: {path!r} is not a writable file path")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "schema":
        print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
        return 0

    try:
        cfg = _read_json(args.config, "config") if args.config else {}
        if not isinstance(cfg, dict):
            raise UsageError("config must be a JSON object")

        def pick(flag, default, types, what):
            val = getattr(args, flag.replace("-", "_"))
            if val is None:
                val = cfg.get(flag)
            if val is None:
                return default
            if isinstance(val, bool) or not isinstance(val, types) or (
                    isinstance(val, float) and not math.isfinite(val)):
                raise UsageError(f"{flag} must be {what}, got {val!r}")
            return val

        args.n = pick("n", 1, int, "an integer")
        if args.n not in DEFAULT_GRID:
            raise UsageError(f"n must be one of {sorted(DEFAULT_GRID)}, got {args.n}")
        args.seed = pick("seed", 1, int, "an integer")
        args.amp = pick("amp", None, (int, float), "a finite number")
        args.tol_scale = float(pick("tol-scale", 1.0, (int, float), "a finite number"))
        if args.seed < 0:
            raise UsageError(f"seed must be >= 0, got {args.seed}")
        if args.amp is not None and args.amp < 0:
            raise UsageError(f"amp must be >= 0, got {args.amp}")
        if args.tol_scale <= 0:
            raise UsageError(f"tol-scale must be > 0, got {args.tol_scale}")
        args.report = pick("report", None, str, "a path")
        args.baseline = pick("baseline", None, str, "a path")
        m = pick("grid", DEFAULT_GRID[args.n], int, "an integer")
        run = {"n": args.n, "m": m, "seed": args.seed}
        base_doc = _read_baseline(args.baseline, run) if args.baseline else None
        if args.report:
            _check_writable(args.report)
        for suite in planned_suites(args.suite, args.n):
            admit(suite, args.n, m, args.amp)
        max_threads()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.suite == "all":
            reports = run_all(args.n, m, args.seed, args.amp, args.tol_scale)
        else:
            reports = [run_suite(args.suite, args.n, m, args.seed, args.amp,
                                 args.tol_scale)]
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    doc = reports[0].as_dict() if len(reports) == 1 else {
        "suite": "all",
        "params": {"n": args.n, "m": m, "seed": args.seed,
                   "amp": args.amp, "tol_scale": args.tol_scale,
                   "tolerance_table_version": report.TOLERANCE_TABLE_VERSION},
        "checks": [c for r in reports for c in r.as_dict()["checks"]],
        "wall_ms": sum(r.wall_ms for r in reports),
    }
    if args.report:
        try:
            with open(args.report, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        except OSError as exc:
            print(f"usage error: cannot write report: {exc}", file=sys.stderr)
            return 2

    regressions = compare_to_baseline(reports, base_doc) if base_doc is not None else []

    ok = True
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        worst = r.worst()
        detail = f" worst={worst.name}:{worst.residual:.2e}/tol {worst.tol:.0e}" \
            if worst else ""
        print(f"[{status}] {r.suite} n={r.params.get('n')} m={r.params.get('m')} "
              f"checks={len(r.checks)} wall={r.wall_ms}ms{detail}")
        ok = ok and r.passed
    if regressions:
        print("baseline regressions (residual grown over 10x, NaN, or check vanished): "
              f"{', '.join(sorted(set(regressions)))}", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
