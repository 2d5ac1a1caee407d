import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geodesk import cli
from geodesk import connection as C
from geodesk import grid as G
from geodesk import hodge as H
from geodesk import pointwise as P
from geodesk import ricci as R
from geodesk.errors import DomainError
from geodesk.grid import TorusGrid

from oracles import gaussian_curvature, lambda_rho_stacked


def test_flat_baseline_zero():
    g = TorusGrid(1, 16)
    data = R.ricci_form(g, G.standard_volume_field(g), G.standard_j_field(g))
    assert np.max(np.abs(data.ric)) <= 1e-13
    assert np.max(np.abs(data.tau)) <= 1e-13
    assert np.max(np.abs(data.lam)) <= 1e-13
    lam = R.lambda_rho(g, G.standard_volume_field(g), G.standard_j_field(g),
                       np.zeros((2, 2) + g.shape))
    assert np.max(np.abs(lam)) == 0.0


def test_lambda_rho_rejects_commuting():
    g = TorusGrid(1, 16)
    J = G.standard_j_field(g)
    with pytest.raises(DomainError):
        R.lambda_rho(g, G.standard_volume_field(g), J, J.copy())


def test_conformal_ricci_three_routes_n1():
    # Ric(e^{2φ}ρ0, J0) via the definition, via the conformal law, and via
    # Gaussian curvature times the area form
    g = TorusGrid(1, 64)
    x = g.coords()
    phi = 0.1 * np.sin(x[0]) * np.cos(x[1]) + 0.05 * np.cos(x[1])
    rho = G.standard_volume_field(g) * np.exp(2 * phi)
    J0 = G.standard_j_field(g)
    data = R.ricci_form(g, rho, J0)
    dphi_j = G.one_form_compose_j(G.exterior_d(g, phi[None], 0), J0)
    route_b = G.exterior_d(g, dphi_j, 1)
    assert np.max(np.abs(data.ric - route_b)) <= 1e-10
    metric = G.constant_field(g, np.eye(2)) * np.exp(2 * phi)
    K = gaussian_curvature(g, metric)
    route_c = rho * K
    assert np.max(np.abs(data.ric - route_c)) <= 1e-8


def test_scalar_curvature_is_twice_gaussian_and_integrates_to_zero():
    g = TorusGrid(1, 64)
    x = g.coords()
    phi = 0.1 * np.sin(x[0]) * np.cos(x[1])
    omega = G.standard_omega_field(g) * np.exp(2 * phi)
    J0 = G.standard_j_field(g)
    S = R.scalar_curvature(g, omega, J0)
    metric = G.constant_field(g, np.eye(2)) * np.exp(2 * phi)
    K = gaussian_curvature(g, metric)
    assert np.max(np.abs(S - 2 * K)) <= 1e-7
    rho = R.omega_power(g, omega, 1)
    assert abs(G.integrate_against_volume(g, S, rho)) <= 1e-8


def test_scalar_curvature_flat_zero():
    g = TorusGrid(2, 8)
    S = R.scalar_curvature(g, G.standard_omega_field(g), G.standard_j_field(g))
    assert np.max(np.abs(S)) <= 1e-13


def test_hamiltonian_vector_field_solves():
    g = TorusGrid(2, 8)
    H = G.random_band_limited(g, "scalar", 3, 0.2)
    omega = G.standard_omega_field(g)
    v = R.hamiltonian_vector_field(g, omega, H)
    resid = G.interior_f(g, v, omega, 2) - G.exterior_d(g, H[None], 0)
    assert np.max(np.abs(resid)) <= 1e-12
    # Hamiltonian fields are divergence-free
    fv = G.divergence_frho(g, v, G.standard_volume_field(g))
    assert np.max(np.abs(fv)) <= 1e-12


def test_vector_from_alpha():
    g = TorusGrid(1, 16)
    rho = G.random_band_limited(g, "volume", 5, 0.1)
    alpha = G.random_band_limited(g, "form:0", 6, 0.2)
    v = R.vector_from_alpha(g, rho, alpha)
    resid = G.interior_f(g, v, rho, 2) - G.exterior_d(g, alpha, 0)
    assert np.max(np.abs(resid)) <= 1e-12


def test_moment_identities_suite_n1():
    rep = cli.run_suite("ricci-moment", 1, 32, seed=7, amplitude=0.1, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_transformation_laws_suite_n1():
    rep = cli.run_suite("ricci-laws", 1, 32, seed=7, amplitude=0.1, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_connection_independence_explicit():
    g = TorusGrid(1, 32)
    rho = G.random_band_limited(g, "volume", 11, 0.1)
    J = G.random_band_limited(g, "acs", 12, 0.1)
    a = R.ricci_form(g, rho, J)
    metric, _ = C.compatible_pair(g, rho, J)
    b = R.ricci_form(g, rho, J, C.levi_civita(g, metric))
    # τ and λ differ between connections but the assembled form agrees
    assert np.max(np.abs(a.tau - b.tau)) > 1e-6
    assert np.max(np.abs(a.ric - b.ric)) <= 1e-7 * max(1.0, np.max(np.abs(a.ric)))


def _tau_from_full_curvature(g, conn, J):
    """J^k_l R^l_{kij} + ½ tr((∇_i J) J (∇_j J)) from the 4-index curvature."""
    nJ = C.cov_endo(g, conn, J)
    quad = 0.5 * P.contract("iab...,bc...,jca...->ij...", nJ, J, nJ)
    curv = P.contract("kl...,lkij...->ij...", J, C.curvature(g, conn))
    return G.form_from_matrix(g, quad + curv)


@pytest.mark.parametrize("volume", ["seeded", "flat"])
@pytest.mark.parametrize("n, m", [(1, 32), (2, 8), (2, 12)])
def test_tau_contracted_route_matches_full_curvature(n, m, volume):
    g = TorusGrid(n, m)
    rho, J, _, _ = R.seeded_instance(g, 3, 0.1 if n == 1 else 0.05)
    if volume == "flat":
        rho = G.standard_volume_field(g)  # Γ = 0: only the quadratic term is left
    conn = C.conformally_flat_volume_connection(g, rho)
    assert (np.max(np.abs(conn.gamma)) == 0.0) == (volume == "flat")
    ref = _tau_from_full_curvature(g, conn, J)
    tau = R.tau_lambda(g, conn, J)[0]
    assert np.max(np.abs(tau - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_tau_peak_memory_below_one_curvature_array():
    g = TorusGrid(2, 12)
    rho, J, _, _ = R.seeded_instance(g, 1, 0.05)
    conn = C.conformally_flat_volume_connection(g, rho)
    tracemalloc.start()
    try:
        R.tau_lambda(g, conn, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.d ** 4 * g.npoints * 8  # one (d, d, d, d) + grid float array


def test_tau_builds_no_d3_intermediate():
    # beside ∇J, τ's quadratic term and B = (JΓ)Γ are chains taken one grid
    # slice at a time and ∂Γ is taken one d² slice Γ^l_{jk} at a time, so the
    # peak is ∇J, τ and one slice of the chain (measured 1.68 d³; 2.31 with
    # the d³ intermediate J∇J and the stacked ∂_iΓ)
    g = TorusGrid(2, 12)
    rho, J, _, _ = R.seeded_instance(g, 1, 0.05)
    conn = C.conformally_flat_volume_connection(g, rho)
    tracemalloc.start()
    try:
        R.tau_lambda(g, conn, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * g.d ** 3 * g.npoints * 8


def test_contractions_name_the_grid_by_ellipsis():
    # a flattened grid letter such as "x" hides the grid from the slice
    # planner of P.contract and P.contract_add, which then builds whole-grid
    # intermediates; every call in ricci and hodge spells its subscripts out,
    # each grid as "..."
    calls = 0
    for module in (R, H):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("contract", "contract_add")):
                subscripts = [a for a in node.args if isinstance(a, ast.Constant)
                              and isinstance(a.value, str)]
                assert len(subscripts) == 1, (module.__name__, node.lineno)
                assert "x" not in subscripts[0].value, (module.__name__, node.lineno)
                calls += 1
    assert calls > 0


def test_ricci_module_never_builds_the_curvature_array():
    # the Ricci form contracts the curvature axis by axis; the 4-index
    # connection.curvature stays with the suites that need all of R
    text = Path(R.__file__).read_text()
    assert re.findall(r"(?<!\w)curvature\(", text) == []


def _lambda_case(n, m, volume):
    g = TorusGrid(n, m)
    rho, J, K, _ = R.seeded_instance(g, 5, 0.1 if n == 1 else 0.02)
    if volume == "flat":
        rho = G.standard_volume_field(g)  # Γ ≡ 0
    conn = C.conformally_flat_volume_connection(g, rho)
    assert conn.zero == (volume == "flat")
    return g, rho, J, R.anticommute_project(J, K), conn


@pytest.mark.parametrize("given_nJh", [False, True])
@pytest.mark.parametrize("volume", ["seeded", "flat"])
@pytest.mark.parametrize("n, m", [(1, 32), (2, 8), (2, 12)])
def test_lambda_from_traces_matches_stacked_route(n, m, volume, given_nJh):
    g, rho, J, jhat, conn = _lambda_case(n, m, volume)
    nJh = C.cov_endo(g, conn, jhat) if given_nJh else None
    ref = lambda_rho_stacked(g, J, jhat, conn)
    # the routes are compared, not the guard: at m = 8 the seeded volume
    # connection preserves ρ to 3e-8 only (an aliasing floor)
    lam = R.lambda_rho(g, rho, J, jhat, conn, volume_tol=1e-7, nJh=nJh)
    assert np.max(np.abs(lam - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_lambda_from_traces_builds_no_d3_field():
    # the stacked route holds ∇Ĵ and ∇J, two d³ fields; the traces hold
    # d²-sized fields only
    g, rho, J, jhat, conn = _lambda_case(2, 12, "seeded")
    assert conn.torsion_free  # read once, before the measurement
    tracemalloc.start()
    try:
        R.lambda_rho(g, rho, J, jhat, conn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.d ** 3 * g.npoints * 8
