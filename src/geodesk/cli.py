"""Suite runner: `geodesk verify <suite> [flags]` and `geodesk schema`."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import hodge, lincs, report, ricci, teich
from .errors import DomainError, NumericError, UsageError
from .report import REPORT_SCHEMA, CheckReport, compare_to_baseline

MEMORY_CAP_BYTES = int(1.5e9)
DEFAULT_GRID = {1: 64, 2: 16, 3: 8}  # grid size per n when --grid is not given


def max_threads() -> int:
    try:
        return max(1, int(os.environ.get("GEODESK_THREADS", "1")))
    except ValueError:
        return 1


def estimate_curvature_bytes(n: int, m: int) -> int:
    d = 2 * n
    return d ** 4 * m ** d * 8 * 4  # curvature array plus working copies


def lincs_suite(n: int, m: int, seed: int, amplitude: float = 0.3,
                tol_scale: float = 1.0, cases: int = 30) -> CheckReport:
    """Moment-map, orbit-form, and Siegel checks for the linear model."""
    rep = CheckReport("lincs", {"n": n, "m": m, "seed": seed, "amplitude": amplitude,
                                "tol_scale": tol_scale, "cases": cases})
    rng = np.random.default_rng(seed)
    worst_moment = 0.0
    worst_tau = 0.0
    for _ in range(cases):
        J = lincs.random_lincs(rng, n, amplitude)
        xi = lincs.project_traceless(rng.standard_normal((2 * n, 2 * n)))
        jh = lincs.tangent_project(J, rng.standard_normal((2 * n, 2 * n)))
        worst_moment = max(worst_moment,
                           lincs.moment_residual(J, xi, jh)
                           / max(1.0, float(np.max(np.abs(jh.jhat)))))
        xi2 = lincs.project_traceless(rng.standard_normal((2 * n, 2 * n)))
        lhs = lincs.tau(J, lincs.bracket_tangent(J, xi), lincs.bracket_tangent(J, xi2))
        rhs = -np.trace((xi @ xi2 - xi2 @ xi) @ J.matrix)
        worst_tau = max(worst_tau, abs(lhs - rhs) / (abs(rhs) + 1.0))
    rep.add("moment", worst_moment)
    rep.add("tau_two_expressions", worst_tau)

    worst_sg = 0.0
    for _ in range(max(5, cases // 2)):
        Z = lincs.random_siegel_point(rng, n)
        g = lincs.random_symplectic(rng, n)
        lhs = lincs.siegel_to_acs(lincs.symplectic_action(g, Z)).matrix
        rhs = g @ lincs.siegel_to_acs(Z).matrix @ np.linalg.inv(g)
        worst_sg = max(worst_sg, float(np.max(np.abs(lhs - rhs))))
    rep.add("siegel_equivariance", worst_sg)

    worst_iso = 0.0
    for _ in range(5):
        Z = lincs.random_siegel_point(rng, n)
        Zh = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Zh = 0.5 * (Zh + Zh.T)
        jdot = lincs.siegel_pushforward_fd(Z, Zh)
        val = 0.5 * float(np.trace(jdot @ jdot).real)
        target = lincs.siegel_metric(Z, Zh)
        worst_iso = max(worst_iso, abs(val - target) / max(1.0, abs(target)))
    rep.add("siegel_isometry_fd", worst_iso)

    # closedness of the orbit form through the conjugation action
    h = 1e-3
    worst_closed = 0.0
    for _ in range(2):
        J0 = lincs.random_lincs(rng, n, amplitude)
        xis = [lincs.project_traceless(rng.standard_normal((2 * n, 2 * n)))
               for _ in range(3)]

        def at(sv):
            g = lincs.expm(sum(s * x for s, x in zip(sv, xis)))
            from .tensor import LinCS
            return LinCS(g @ J0.matrix @ np.linalg.inv(g))

        def tau_pair(sv, i, j):
            J = at(sv)
            return lincs.tau(J, lincs.bracket_tangent(J, xis[i]),
                             lincs.bracket_tangent(J, xis[j]))

        def dirderiv(i, f):
            def along(t):
                e = np.zeros(3)
                e[i] = t
                return f(e)
            return ricci.richardson(along, h)

        def lie_term(i, j, k):
            com = xis[i] @ xis[j] - xis[j] @ xis[i]
            J = at(np.zeros(3))
            return lincs.tau(J, lincs.bracket_tangent(J, -com),
                             lincs.bracket_tangent(J, xis[k]))

        total = (dirderiv(0, lambda s: tau_pair(s, 1, 2))
                 - dirderiv(1, lambda s: tau_pair(s, 0, 2))
                 + dirderiv(2, lambda s: tau_pair(s, 0, 1))
                 - lie_term(0, 1, 2) + lie_term(0, 2, 1) - lie_term(1, 2, 0))
        scale = max(abs(tau_pair(np.zeros(3), 1, 2)), 1.0)
        worst_closed = max(worst_closed, abs(total) / scale)
    rep.add("tau_closed_fd", worst_closed)
    return rep.finalize()


def run_suite(suite: str, n: int, m: int, seed: int, amplitude: float | None,
              tol_scale: float) -> CheckReport:
    """One suite's report.  A DomainError or NumericError inside the suite is
    recorded as its failed flag check ``numeric_failure`` and printed to
    stderr; a UsageError propagates."""
    t0 = time.perf_counter()
    try:
        return _suite_report(suite, n, m, seed, amplitude, tol_scale)
    except (DomainError, NumericError) as exc:
        print(f"numeric failure: {suite}: {exc}", file=sys.stderr)
        rep = CheckReport(suite, {"n": n, "m": m, "seed": seed, "tol_scale": tol_scale},
                          _t0=t0)
        rep.add_flag("numeric_failure", False)
        return rep.finalize()


def _suite_report(suite: str, n: int, m: int, seed: int, amplitude: float | None,
                  tol_scale: float) -> CheckReport:
    amp_default = 0.1 if n == 1 else 0.05
    amp = amp_default if amplitude is None else amplitude
    if suite == "lincs":
        return lincs_suite(n, m, seed, 0.3 if amplitude is None else amplitude,
                           tol_scale)
    if suite in ("bkn", "ricci-moment", "ricci-laws", "harmonic", "bott-chern",
                 "teich-wp", "theta") and estimate_curvature_bytes(n, m) > MEMORY_CAP_BYTES:
        raise UsageError(
            f"suite {suite!r} at n={n}, m={m} needs about "
            f"{estimate_curvature_bytes(n, m) / 1e9:.1f} GB, over the configured cap")
    if suite == "ricci-moment":
        return ricci.verify_moment_identities(n, m, seed, amp, tol_scale,
                                              cases=2 if n == 1 else 1)
    if suite == "ricci-laws":
        return ricci.verify_transformation_laws(n, m, seed, amp, tol_scale,
                                                cases=2 if n == 1 else 1)
    if suite == "bkn":
        return hodge.bkn_suite(n, m, seed, amp, tol_scale)
    if suite == "harmonic":
        return hodge.harmonic_lemma_suite(n, m, seed, amp, tol_scale)
    if suite == "bott-chern":
        return hodge.bott_chern_suite(n, m, seed, amp, tol_scale)
    if suite == "teich-wp":
        return teich.wp_suite(n, m, seed, amp, tol_scale)
    if suite == "teich-connection":
        if n != 2:
            raise UsageError("teich-connection runs on n = 2")
        return teich.connection_suite(m, seed, amp, tol_scale)
    if suite == "theta":
        return teich.theta_suite(n, m, seed, amp, tol_scale)
    raise UsageError(f"unknown suite {suite!r}")


SUITES = ("lincs", "ricci-moment", "ricci-laws", "bkn", "harmonic", "bott-chern",
          "teich-wp", "teich-connection", "theta")


def run_all(n: int, m: int, seed: int, amplitude: float | None,
            tol_scale: float) -> list[CheckReport]:
    suites = [s for s in SUITES if not (s == "teich-connection" and n != 2)]
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
    v.add_argument("suite", choices=SUITES + ("all",))
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
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from None


def _read_baseline(path: str, run: dict) -> dict:
    """The baseline report at `path`; its params must give this run's n, m
    and seed, as in `run`."""
    doc = _read_json(path, "baseline")
    checks = doc.get("checks", []) if isinstance(doc, dict) else None
    if not isinstance(checks, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str)
            and isinstance(c.get("residual"), (int, float))
            and not isinstance(c.get("residual"), bool) for c in checks):
        raise UsageError("baseline must be a JSON report: an object whose checks "
                         "each have a string name and a numeric residual")
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
            if isinstance(val, bool) or not isinstance(val, types):
                raise UsageError(f"{flag} must be {what}, got {val!r}")
            return val

        args.n = pick("n", 1, int, "an integer")
        if args.n not in DEFAULT_GRID:
            raise UsageError(f"n must be one of {sorted(DEFAULT_GRID)}, got {args.n}")
        args.seed = pick("seed", 1, int, "an integer")
        args.amp = pick("amp", None, (int, float), "a number")
        args.tol_scale = float(pick("tol-scale", 1.0, (int, float), "a number"))
        args.report = pick("report", None, str, "a path")
        args.baseline = pick("baseline", None, str, "a path")
        m = pick("grid", DEFAULT_GRID[args.n], int, "an integer")
        run = {"n": args.n, "m": m, "seed": args.seed}
        base_doc = _read_baseline(args.baseline, run) if args.baseline else None
        if args.report:
            _check_writable(args.report)
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
