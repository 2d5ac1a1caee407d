"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import time
from pathlib import Path

import numpy as np

from geodesk import cli
from geodesk import connection as C
from geodesk import grid as G
from geodesk import lincs as L
from geodesk import pointwise as P
from geodesk import report
from geodesk import ricci as Ric
from geodesk import teich as T
from geodesk.grid import TorusGrid

INVENTORY = Path(__file__).resolve().parents[1] / "perfbench" / "inventory.json"


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_1_coadjoint_orbit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_moment = 0.0
    per_n = (167, 167, 166)
    for n, count in zip((1, 2, 3), per_n):
        for _ in range(count):
            J = L.random_lincs(rng, n)
            xi = L.project_traceless(rng.standard_normal((2 * n, 2 * n)))
            jh = L.tangent_project(J, rng.standard_normal((2 * n, 2 * n)))
            worst_moment = max(worst_moment, L.moment_residual(J, xi, jh)
                               / max(1.0, float(np.max(np.abs(jh.jhat)))))
    worst_sg = 0.0
    for i in range(200):
        n = 1 + i % 3
        Z = L.random_siegel_point(rng, n)
        g = L.random_symplectic(rng, n)
        lhs = L.siegel_to_acs(L.symplectic_action(g, Z)).matrix
        rhs = g @ L.siegel_to_acs(Z).matrix @ np.linalg.inv(g)
        worst_sg = max(worst_sg, float(np.max(np.abs(lhs - rhs))))
    worst_iso = 0.0
    for i in range(20):
        n = 1 + i % 3
        Z = L.random_siegel_point(rng, n)
        Zh = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Zh = 0.5 * (Zh + Zh.T)
        jdot = L.siegel_pushforward_fd(Z, Zh)
        val = 0.5 * float(np.trace(jdot @ jdot).real)
        worst_iso = max(worst_iso, abs(val - L.siegel_metric(Z, Zh))
                        / max(1.0, abs(val)))
    wall = time.perf_counter() - t0
    ok = worst_moment <= 1e-12 and worst_sg <= 1e-10 and worst_iso <= 1e-7 and wall < 10
    _verdict(1, "coadjoint-orbit suite", ok,
             f"moment {worst_moment:.1e}, siegel {worst_sg:.1e}, "
             f"isometry {worst_iso:.1e}, {wall:.1f}s")


def test_criterion_2_moment_identities():
    t0 = time.perf_counter()
    worst = {1: 0.0, 2: 0.0}
    for n, m, tol in ((1, 64, 1e-6), (2, 16, 1e-5)):
        grid = TorusGrid(n, m)
        amp = 0.1 if n == 1 else 0.05
        for s in range(20):
            seed = 1000 + 37 * s
            rho, J, K, v = Ric.seeded_instance(grid, seed, amp)
            conn = C.conformally_flat_volume_connection(grid, rho)
            alpha = G.random_band_limited(grid, f"form:{grid.d - 2}", seed + 5, amp,
                                          band=G.acs_band(m))
            ric_dot = Ric.richardson(lambda t: Ric.ricci_form(
                grid, rho, Ric.conjugated_path(J, K, t), conn).ric, 1e-3)
            worst[n] = max(worst[n], Ric.lambda_pairing(grid, rho, J, K, v, conn),
                           Ric.moment_map_fd(grid, rho, J, P.mul(K, J) - P.mul(J, K),
                                             alpha, ric_dot))
    wall = time.perf_counter() - t0
    ok = worst[1] <= 1e-6 and worst[2] <= 1e-5 and wall < 120
    _verdict(2, "moment-map identities", ok,
             f"T2 {worst[1]:.1e}, T4 {worst[2]:.1e}, {wall:.1f}s")


def test_criterion_3_connection_independence():
    worst = 0.0
    for n, m in ((1, 32), (2, 16)):
        grid = TorusGrid(n, m)
        for s in range(10):
            rho = G.random_band_limited(grid, "volume", 500 + s, 0.1 if n == 1 else 0.05)
            J = G.random_band_limited(grid, "acs", 600 + s, 0.1 if n == 1 else 0.05)
            K = G.random_band_limited(grid, "endo", 700 + s, 0.1, band=G.acs_band(m))
            jhat = Ric.anticommute_project(J, K)
            a = Ric.ricci_form(grid, rho, J)
            metric, _ = C.compatible_pair(grid, rho, J)
            conn2 = C.levi_civita(grid, metric)
            b = Ric.ricci_form(grid, rho, J, conn2)
            worst = max(worst, float(np.max(np.abs(a.ric - b.ric)))
                        / max(1.0, float(np.max(np.abs(a.ric)))))
            lam_a = Ric.lambda_rho(grid, rho, J, jhat)
            lam_b = Ric.lambda_rho(grid, rho, J, jhat, conn2)
            worst = max(worst, float(np.max(np.abs(lam_a - lam_b)))
                        / max(1.0, float(np.max(np.abs(lam_a)))))
    _verdict(3, "connection independence", worst <= 1e-7, f"worst {worst:.1e}")


def test_criterion_4_transformation_laws():
    rep1 = cli.run_suite("ricci-laws", 1, 64, seed=41, amplitude=0.1, tol_scale=1.0)
    by_name = {c.name: c.residual for c in rep1.checks}
    conf = max(v for k, v in by_name.items() if k.startswith("conformal_shift")
               or k.startswith("lambda_conformal_shift"))
    nat_aff = by_name["naturality_affine"]
    nat_disp = by_name["naturality_displacement"]
    lam_lie = max(v for k, v in by_name.items() if k.startswith("lambda_lie"))
    lam_two = max(v for k, v in by_name.items() if k.startswith("lambda_two_parameter"))
    ok = (conf <= 1e-8 and nat_aff <= 1e-12 and nat_disp <= 1e-7
          and lam_lie <= 1e-6 and lam_two <= 1e-6)
    _verdict(4, "transformation laws", ok,
             f"conformal {conf:.1e}, affine {nat_aff:.1e}, displacement "
             f"{nat_disp:.1e}, lie {lam_lie:.1e}, two-parameter {lam_two:.1e}")


def test_criterion_5_bkn():
    t0 = time.perf_counter()
    rep1 = cli.run_suite("bkn", 1, 64, seed=51, amplitude=0.1, tol_scale=1.0)
    rep2 = cli.run_suite("bkn", 2, 16, seed=52, amplitude=0.05, tol_scale=1.0)
    r1 = {c.name: c.residual for c in rep1.checks}
    r2 = {c.name: c.residual for c in rep2.checks}
    flat = max(r1["flat_identity"], r2["flat_identity"])
    q_both = max(max(v for k, v in r.items() if k.startswith("q_two_ways"))
                 for r in (r1, r2))
    wall = time.perf_counter() - t0
    ok = (flat <= 1e-8 and r1["curved_identity_n1"] <= 1e-6
          and r2["curved_identity_n2"] <= 1e-5 and q_both <= 1e-8 and wall < 180)
    _verdict(5, "Bochner-Kodaira-Nakano", ok,
             f"flat {flat:.1e}, n1 {r1['curved_identity_n1']:.1e}, "
             f"n2 {r2['curved_identity_n2']:.1e}, Q {q_both:.1e}, {wall:.0f}s")


def test_criterion_6_scalar_curvature_topology():
    grid = TorusGrid(1, 64)
    x = grid.coords()
    worst = 0.0
    for s, phi in enumerate((0.1 * np.sin(x[0]) * np.cos(x[1]),
                             0.15 * np.cos(x[0] + x[1]),
                             G.random_band_limited(grid, "scalar", 60, 0.1, band=2))):
        omega = G.standard_omega_field(grid) * np.exp(2 * phi)
        S = Ric.scalar_curvature(grid, omega, G.standard_j_field(grid))
        rho = Ric.omega_power(grid, omega, 1)
        worst = max(worst, abs(G.integrate_against_volume(grid, S, rho)))
    _verdict(6, "scalar-curvature topology", worst <= 1e-8, f"|∫Sρ| {worst:.1e}")


def test_criterion_7_dimension_table():
    ok = True
    detail = []
    for n in (1, 2):
        dims = T.teich_dimensions(n)
        expected = (2 * n * n, n * n, 3 * n * n, 2 * n * n - n, n * n + n)
        got = (dims["structure_tangent"], dims["kahler_cone"],
               dims["assembled_total"], dims["assembled_base"],
               dims["compatible_fiber"])
        ok = ok and got == expected and dims["min_gap"] >= 0.5
        detail.append(f"n={n}: {got} gap {dims['min_gap']:.2f}")
    _verdict(7, "dimension table", ok, "; ".join(detail))


def test_criterion_8_weil_petersson():
    rep1 = cli.run_suite("teich-wp", 1, 32, seed=81, amplitude=0.1, tol_scale=1.0)
    rep2 = cli.run_suite("teich-wp", 2, 16, seed=82, amplitude=0.05, tol_scale=1.0)
    names = {}
    for rep in (rep1, rep2):
        for c in rep.checks:
            names[c.name] = max(names.get(c.name, 0.0), c.residual)
    ok = (names["antisymmetry"] <= 1e-12 and names["descent"] <= 1e-6
          and names["naturality_sl2z"] <= 1e-10
          and names["constant_reduction"] <= 1e-12
          and names["signature_split_positive"] <= 1e-9
          and names.get("signature_split_negative", 0.0) <= 1e-9
          and names["gram_condition"] <= 1e3)
    _verdict(8, "Weil-Petersson suite", ok,
             f"antisym {names['antisymmetry']:.1e}, descent {names['descent']:.1e}, "
             f"naturality {names['naturality_sl2z']:.1e}, "
             f"V·tau {names['constant_reduction']:.1e}")


def test_criterion_9_connection_and_curvature():
    rep = cli.run_suite("teich-connection", 2, 16, seed=91, amplitude=0.05, tol_scale=1.0)
    r = {c.name: c.residual for c in rep.checks}
    cond = max(v for k, v in r.items() if k.startswith("condition_"))
    ok = (r["curvature_two_ways_constant"] <= 1e-8
          and r["curvature_two_ways_seeded"] <= 1e-6
          and cond <= 1e-6 and r["lie_reproduction"] <= 1e-6)
    _verdict(9, "symplectic connection", ok,
             f"constant {r['curvature_two_ways_constant']:.1e}, seeded "
             f"{r['curvature_two_ways_seeded']:.1e}, conditions {cond:.1e}")


def test_criterion_10_theta_beta():
    grid = TorusGrid(2, 8)
    theta = T.standard_theta(grid)
    J0 = G.standard_j_field(grid)
    cn = T.c_const(2)
    rng = np.random.default_rng(101)
    worst_rt, worst_flag = 0.0, 0.0
    mats = T.anticommuting_basis(2)
    for _ in range(200):
        coefs = rng.standard_normal(len(mats))
        M = sum(float(c) * B for c, B in zip(coefs, mats))
        jh = G.constant_field(grid, M)
        beta = T.theta_beta(grid, jh, theta)
        worst_rt = max(worst_rt, float(np.max(np.abs(T.beta_theta(grid, beta, theta) - jh))))
        sym = G.constant_field(grid, 0.5 * (M + M.T))
        b_sym = T.theta_beta(grid, sym, theta)
        worst_flag = max(worst_flag,
                         float(np.max(np.abs(G.star_f(grid, b_sym, 2) + cn * b_sym))),
                         float(np.max(np.abs(G.wedge_f(
                             grid, b_sym, G.standard_omega_field(grid).astype(complex),
                             2, 2)))))
        skew = G.constant_field(grid, 0.5 * (M - M.T))
        b_skew = T.theta_beta(grid, skew, theta)
        worst_flag = max(worst_flag,
                         float(np.max(np.abs(G.star_f(grid, b_skew, 2) - cn * b_skew))))
    rep1 = cli.run_suite("theta", 1, 64, seed=103, amplitude=0.1, tol_scale=1.0)
    rep2 = cli.run_suite("theta", 2, 16, seed=104, amplitude=0.05, tol_scale=1.0)
    r = {}
    for rep in (rep1, rep2):
        for c in rep.checks:
            r[c.name] = max(r.get(c.name, 0.0), c.residual)
    # the integrability bridge correlation across 50 seeded structures
    g4 = TorusGrid(2, 8)
    lhs_norms, rhs_norms = [], []
    for s in range(50):
        J_non = G.random_band_limited(g4, "acs", 2000 + s, 0.1, band=1)
        th_j = T.adapted_theta(g4, J_non)
        d_th = G.exterior_d(g4, th_j, 2)
        lhs = G.pq_project_f(g4, d_th, 3, J_non, 1, 2)
        N = C.nijenhuis(g4, J_non)
        rhs = 0.25 * T.combi.interior_pairs_coef(N, th_j, 4, 2)
        lhs_norms.append(float(np.sqrt(np.mean(np.abs(lhs) ** 2))))
        rhs_norms.append(float(np.sqrt(np.mean(np.abs(rhs) ** 2))))
    corr = float(np.corrcoef(lhs_norms, rhs_norms)[0, 1])
    ok = (worst_rt <= 1e-12 and worst_flag <= 1e-10
          and r["inner_pairing"] <= 1e-9 and r["symplectic_pairing"] <= 1e-9
          and r["del_lambda"] <= 1e-7 and r["closed_correction"] <= 1e-7
          and corr >= 0.999)
    _verdict(10, "theta/beta suite", ok,
             f"roundtrip {worst_rt:.1e}, flags {worst_flag:.1e}, pairings "
             f"{max(r['inner_pairing'], r['symplectic_pairing']):.1e}, "
             f"derivative identities {max(r['del_lambda'], r['closed_correction']):.1e}, "
             f"bridge corr {corr:.5f}")


def test_criterion_11_verify_all(tmp_path):
    # the shipped check names and tolerances, per config, in suite order
    inventory = json.loads(INVENTORY.read_text())
    t0 = time.perf_counter()
    ok_runs = True
    shipped = True
    docs = []
    for trial in range(2):
        trial_docs = {}
        for n, m in ((1, 64), (2, 16)):
            path = tmp_path / f"all_n{n}_t{trial}.json"
            rc = cli.main(["verify", "all", "--n", str(n), "--grid", str(m),
                           "--seed", "1", "--report", str(path)])
            ok_runs = ok_runs and rc == 0
            doc = json.loads(path.read_text())
            listed = [(name, tol) for checks in inventory[f"n{n}-m{m}"].values()
                      for name, tol in checks.items()]
            # The inventory still lists the n >= 2 flag dimension_gap at 5.0, its
            # tolerance from before flags stopped scaling; FLAG_TOL is tighter.
            shipped = shipped and [c["name"] for c in doc["checks"]] == [
                name for name, _ in listed] and all(
                c["tol"] == tol or c["tol"] == report.FLAG_TOL < tol
                for c, (_, tol) in zip(doc["checks"], listed))
            doc.pop("wall_ms")
            trial_docs[n] = doc
        docs.append(trial_docs)
    wall = time.perf_counter() - t0
    identical = docs[0] == docs[1]
    ok = ok_runs and identical and shipped and wall < 600
    _verdict(11, "verify all", ok,
             f"exit ok {ok_runs}, bit-identical {identical}, shipped checks {shipped}, "
             f"{wall:.0f}s for two runs")
