import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geodesk import cli, combi
from geodesk import connection as C
from geodesk import grid as G
from geodesk import hodge as H
from geodesk import pointwise as P
from geodesk import ricci as Ric
from geodesk.errors import DomainError
from geodesk.grid import TorusGrid

from oracles import dbar_q1_four_terms, dplus_ranks_per_mode


def test_flat_instance_and_bad_instances():
    g = TorusGrid(1, 16)
    inst = H.flat_instance(g)
    assert np.max(np.abs(inst.metric - G.constant_field(g, np.eye(g.d)))) == 0.0
    with pytest.raises(DomainError):
        H.conformal_instance(TorusGrid(2, 8), np.zeros(TorusGrid(2, 8).shape))


def test_dbar_q0_fourier_symbol():
    # flat baseline: single mode v = a sin(k·x): ∂̄v matches the hand symbol
    g = TorusGrid(1, 32)
    inst = H.flat_instance(g)
    x = g.coords()
    a = np.array([1.0, 0.5])
    v = a.reshape(2, 1, 1) * np.sin(2 * x[0] + x[1])
    out = H.dbar_q0(g, inst.J, v)
    # (∂̄v)u = ½(∇_u v + J∇_{Ju}v) for constant J: symbol ½(k(u)a + k(Ju)Ja)cos
    J0 = G.standard_j(1)
    k = np.array([2.0, 1.0])
    cos = np.cos(2 * x[0] + x[1])
    expected = np.zeros_like(out)
    for uidx in range(2):
        e = np.zeros(2)
        e[uidx] = 1.0
        col = 0.5 * (k @ e * a + k @ (J0 @ e) * (J0 @ a))
        expected[:, uidx] = col.reshape(2, 1, 1) * cos
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # agrees with the Kähler-connection formula
    np.testing.assert_allclose(out, H.dbar_q0_kahler(inst, v), atol=1e-12)


def test_dbar_complex_is_half_lie():
    g = TorusGrid(1, 32)
    J = G.random_band_limited(g, "acs", 3, 0.1)
    v = G.random_band_limited(g, "vector", 4, 0.1)
    lhs = 2.0 * np.einsum("ik...,kj...->ij...", J, H.dbar_q0(g, J, v))
    np.testing.assert_allclose(lhs, G.lie_endo(g, v, J), atol=1e-12)


def test_dbar_cochain_on_integrable():
    g = TorusGrid(2, 16)
    u = G.random_band_limited(g, "vector", 5, 0.04, band=1)
    inst = H.flat_instance(g)
    v = G.random_band_limited(g, "vector", 6, 0.1, band=1)
    tau = H.dbar_q1(inst, H.dbar_q0(g, inst.J, v))
    assert np.max(np.abs(tau)) <= 1e-7 * max(1.0, np.max(np.abs(v)))


def test_dbar_q1_sums_in_place():
    # bit-identical to the four-term expression, with at most three d³ fields
    # alive at once: ∇Ĵ, the result and one term
    inst = _curved_instance(2, 12)
    g = inst.grid
    jhat = Ric.anticommute_project(inst.J, G.random_band_limited(g, "endo", 4, 0.05))
    tracemalloc.start()
    try:
        out = H.dbar_q1(inst, jhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.01 * g.d ** 3 * g.npoints * 8
    assert np.array_equal(out, dbar_q1_four_terms(inst, jhat))


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_dplus_kernel_ranks_match_per_mode_loop(kmax):
    grid = TorusGrid(2, 8)
    ranks = H.dplus_kernel_ranks(grid, kmax)
    ref = dplus_ranks_per_mode(grid, kmax)
    assert ranks["kappa1"] == ref["kappa1"] == 0
    assert abs(ranks["min_gap"] - ref["min_gap"]) <= 1e-12 * ref["min_gap"]


@pytest.mark.parametrize("n", [1, 2])
def test_interior_symbol_is_the_symbol_of_d(n):
    # d(a e^{iκ·x}) = i (κ ∧ a) e^{iκ·x} on single plane waves, every degree
    g = TorusGrid(n, 8)
    K = np.array([[1.0, -2.0, 0.0, 3.0][:g.d], [0.0, 1.0, 2.0, -1.0][:g.d]])
    wave = np.exp(1j * np.tensordot(K, g.coords(), axes=1))  # [mode] + grid
    rng = np.random.default_rng(3)
    for k in range(1, g.d + 1):
        sym = combi.interior_symbol(K, g.d, k)
        assert sym.shape == (2, combi.n_combos(g.d, k), combi.n_combos(g.d, k - 1))
        for mode in range(2):
            a = rng.standard_normal(combi.n_combos(g.d, k - 1))
            field = a.reshape(-1, *(1,) * g.d) * wave[mode]
            expected = 1j * (sym[mode] @ a).reshape(-1, *(1,) * g.d) * wave[mode]
            assert np.max(np.abs(G.exterior_d(g, field, k - 1) - expected)) <= 1e-11


def _curved_instance(n, m):
    """bkn_suite's curved instance at its default amplitude."""
    g = TorusGrid(n, m)
    x = g.coords()
    if n == 1:
        return H.conformal_instance(g, 0.1 * np.sin(x[0]) * np.cos(x[1]))
    return H.potential_instance(g, 0.05 * (np.sin(x[0]) * np.cos(x[2])
                                           + np.cos(x[1] + x[3])))


@pytest.mark.parametrize("n, m", [(1, 32), (2, 8), (2, 12)])
def test_curvature_traces_match_full_curvature(n, m):
    inst = _curved_instance(n, m)
    g, J, ginv = inst.grid, inst.J, inst.ginv
    jhat = Ric.anticommute_project(J, G.random_band_limited(g, "endo", 4, 0.1))
    w_mat = G.form_to_matrix(g, G.random_band_limited(g, "form:2", 5, 0.1))
    R = C.curvature(g, inst.lc)
    f = inst.frame()
    jf = P.contract("ij...,ja...->ia...", J, f)
    refs = [P.contract("kl...,lkij...->ij...", J, R),
            P.contract("lkij...,ia...,ja...->lk...", R, f, jf),
            P.contract("lkij...,km...,im...->lj...", R, jhat, ginv),
            P.contract("pq...,pk...,qkij...->ij...", w_mat, ginv, R),
            P.contract("lkvj...,jk...->lv...", R, ginv)]
    for out, ref in zip(H.curvature_traces(inst, jhat, w_mat), refs, strict=True):
        assert np.max(np.abs(ref)) > 0
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("slots, bound", [("dud", 1.25), ("ddd", 1.25), ("ud", 0.75)])
def test_traced_cov_holds_no_derivative_of_its_input(slots, bound):
    # the rough Laplacians' and ∂̄*Ĵ's traced cov: a 3-slot T is
    # differentiated one index of an untraced slot at a time, and each Γ term
    # is the chain g^{zs}Γ^a_{zm}T, so beside its input it holds its output,
    # d²-sized derivatives and one grid slice of a chain (measured 0.97 d³
    # for dud and ddd, 0.41 for ud), never ∂_kT of T's size or g⁻¹Γ
    # (1.63 and 1.39 when it built them)
    inst = _curved_instance(2, 12)
    g = inst.grid
    jhat = Ric.anticommute_project(inst.J, G.random_band_limited(g, "endo", 4, 0.05))
    if slots == "dud":
        T = C.cov_endo(g, inst.lc, jhat)
    elif slots == "ddd":
        T = C.cov(g, inst.lc, G.form_to_matrix(g, G.random_band_limited(g, "form:2", 5, 0.05)), "dd")
    else:
        T = jhat
    tracemalloc.start()
    try:
        C.cov(g, inst.lc, T, slots, trace=(inst.ginv, int(slots == "ud")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * g.d ** 3 * g.npoints * 8


def test_hodge_module_never_builds_the_curvature_array():
    # every reader of R in hodge takes its traces from connection.contract_curvature
    text = Path(H.__file__).read_text()
    assert re.findall(r"(?<!\w)curvature\(", text) == []


def test_bkn_residuals_peak_below_one_curvature_array():
    # neither the curvature sweep nor the two residuals, given their inputs,
    # holds as much as one (d, d, d, d) + grid float array at any time
    inst = _curved_instance(2, 12)
    g = inst.grid
    jhat = Ric.anticommute_project(inst.J, G.random_band_limited(g, "endo", 4, 0.05))
    what = G.random_band_limited(g, "form:2", 5, 0.05)
    w_mat = G.form_to_matrix(g, what)
    lhs = H.dbar_adjoint_q2(inst, H.dbar_q1(inst, jhat)) \
        + H.dbar_q0_kahler(inst, H.dbar_adjoint_q1(inst, jhat))
    peaks = []
    tracemalloc.start()
    try:
        curv = H.curvature_traces(inst, jhat, w_mat)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        tracemalloc.start()
        H.bkn_residual(inst, jhat, lhs, curv[:3])
        H.weitzenbock_residual(inst, what, curv[3:])
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < g.d ** 4 * g.npoints * 8


@pytest.mark.parametrize("n", [1, 2])
def test_bkn_never_builds_the_curvature(monkeypatch, n):
    calls = []
    build = C.curvature
    monkeypatch.setattr(C, "curvature", lambda *args: calls.append(args) or build(*args))
    rep = cli.run_suite("bkn", n, 16 if n == 1 else 8, seed=3, amplitude=None, tol_scale=1.0)
    assert len(rep.checks) == 16
    assert calls == []


def test_bkn_suite_n1():
    rep = cli.run_suite("bkn", 1, 64, seed=3, amplitude=0.1, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_bkn_suite_n2():
    rep = cli.run_suite("bkn", 2, 16, seed=5, amplitude=0.05, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_harmonic_suite_n1():
    rep = cli.run_suite("harmonic", 1, 64, seed=3, amplitude=0.1, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_harmonic_suite_n2():
    rep = cli.run_suite("harmonic", 2, 16, seed=5, amplitude=0.05, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_bott_chern_suite():
    rep = cli.run_suite("bott-chern", 1, 32, seed=7, amplitude=0.1, tol_scale=1.0)
    assert rep.passed, rep.to_json()
    rep4 = cli.run_suite("bott-chern", 2, 16, seed=9, amplitude=0.05, tol_scale=1.0)
    assert rep4.passed, rep4.to_json()


def test_coclosed_projection_flat():
    g = TorusGrid(1, 32)
    inst = H.flat_instance(g)
    raw = Ric.anticommute_project(inst.J, G.random_band_limited(g, "endo", 11, 0.1))
    proj = H.project_coclosed_q1(inst, raw)
    assert np.max(np.abs(H.dbar_adjoint_q1(inst, proj))) <= 1e-10
    again = H.project_coclosed_q1(inst, proj)
    np.testing.assert_allclose(again, proj, atol=1e-10)
