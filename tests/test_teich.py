import json

import numpy as np
import pytest

from geodesk import cli
from geodesk import connection as C
from geodesk import grid as G
from geodesk import hodge as H
from geodesk import ricci as Ric
from geodesk import combi
from geodesk import teich as T
from geodesk.errors import DomainError
from geodesk.grid import TorusGrid


def test_c_const_values():
    assert T.c_const(1) == -1j
    assert T.c_const(2) == 1
    assert T.c_const(3) == -1j
    assert T.c_const(4) == 1


def test_standard_theta_volume():
    for n, m in ((1, 16), (2, 8)):
        g = TorusGrid(n, m)
        rho = T.rho_from_theta(g, T.standard_theta(g))
        np.testing.assert_allclose(rho, G.standard_volume_field(g), atol=1e-14)


def test_theta_beta_local_formula_n1():
    g = TorusGrid(1, 16)
    theta = T.standard_theta(g)
    jh = G.constant_field(g, np.diag([1.0, -1.0]))  # a_11 = 1
    beta = T.theta_beta(g, jh, theta)
    expect = np.zeros((2,) + g.shape, dtype=complex)
    expect[0] = 1.0 / (2j * np.sqrt(2.0))
    expect[1] = -1j / (2j * np.sqrt(2.0))
    np.testing.assert_allclose(beta, expect, atol=1e-14)


def test_roundtrip_with_adapted_theta():
    # non-constant θ from a varying J exercises the batched solve
    g = TorusGrid(1, 16)
    J = G.random_band_limited(g, "acs", 5, 0.1)
    theta = T.adapted_theta(g, J)
    raw = G.random_band_limited(g, "endo", 6, 0.1)
    jh = Ric.anticommute_project(J, raw)
    beta = T.theta_beta(g, jh, theta, J)
    back = T.beta_theta(g, beta, theta, J)
    assert np.max(np.abs(back - jh)) <= 1e-10


def test_constant_inputs_take_their_shortcuts(monkeypatch):
    # one grid test decides "constant" for the Levi-Civita and volume
    # connections, the (f, g) split and the θ solve; a NaN is never constant
    g = TorusGrid(1, 16)
    J0 = G.standard_j_field(g)
    assert G.is_constant(g, J0) and G.is_constant(g, T.standard_theta(g))
    assert not G.is_constant(g, G.random_band_limited(g, "acs", 5, 0.1))
    J0[0, 0] = np.nan
    assert not G.is_constant(g, J0) and not G.is_constant(g, J0[0, 0])
    base, theta = H.flat_instance(g), T.standard_theta(g)
    jh = G.constant_field(g, np.diag([1.0, -1.0]))
    beta = T.theta_beta(g, jh, theta)

    def refuse(*args, **kwargs):
        raise AssertionError("a constant input took the varying route")

    pinv, ndims = np.linalg.pinv, []
    monkeypatch.setattr(TorusGrid, "derivs", refuse)
    monkeypatch.setattr(H, "fg_decompose", refuse)
    monkeypatch.setattr(np.linalg, "pinv", lambda M: (ndims.append(M.ndim), pinv(M))[1])
    assert C.levi_civita(g, G.constant_field(g, np.diag([2.0, 3.0]))).zero
    monkeypatch.setattr(C, "levi_civita", refuse)
    assert C.conformally_flat_volume_connection(g, 2.0 * G.standard_volume_field(g)).zero
    x = T.WPVector(base, jh)
    assert not np.any(x.f) and not np.any(x.g) and not np.any(x.lam)
    np.testing.assert_allclose(T.beta_theta(g, beta, theta), jh, atol=1e-14)
    assert ndims == [2]  # one pseudo-inverse, at the origin


def test_fg_decompose_rejects_nonclosed():
    g = TorusGrid(2, 8)
    base = H.flat_instance(g)
    raw = G.random_band_limited(g, "endo", 7, 0.1, band=1)
    jh = Ric.anticommute_project(base.J, raw)
    with pytest.raises(DomainError):
        H.fg_decompose(base, jh)


def test_wp_form_constant_reduction():
    g = TorusGrid(2, 8)
    base = H.flat_instance(g)
    mats = T.anticommuting_basis(2)
    x1 = T.WPVector(base, G.constant_field(g, mats[1]))
    x2 = T.WPVector(base, G.constant_field(g, mats[4]))
    vol = (2 * np.pi) ** 4
    expected = vol * 0.5 * np.trace(mats[1] @ T.standard_j(2) @ mats[4])
    assert abs(T.wp_form(x1, x2) - expected) <= 1e-10 * max(1.0, abs(expected))


def test_dimension_table_rows():
    for n in (1, 2):
        dims = T.teich_dimensions(n)
        assert dims["structure_tangent"] == 2 * n * n
        assert dims["kahler_cone"] == n * n
        assert dims["assembled_total"] == 3 * n * n
        assert dims["assembled_base"] == 2 * n * n - n
        assert dims["compatible_fiber"] == n * n + n
        assert dims["min_gap"] >= 0.5


def _per_mode_sweep(n, kmax):
    """The nonzero-mode part of the dimension table, one mode at a time with
    complex symbols: (structure tangent dimension, smallest gap)."""
    d = 2 * n
    J0 = T.standard_j(n)
    basis = T.anticommuting_basis(n)
    t0 = len(basis)
    min_gap = np.inf
    for kt in np.ndindex(*(2 * kmax + 1,) * d):
        k = (np.array(kt) - kmax).astype(float)
        if not np.any(k):
            continue

        def dbar_symbol(Cm):
            out = np.zeros((d, d, d), dtype=complex)
            CJ = Cm @ J0
            for u in range(d):
                for v in range(d):
                    out[:, u, v] = 1j * (k[u] * Cm[:, v] - k[v] * Cm[:, u]
                                         - (J0.T @ k)[u] * CJ[:, v]
                                         + (J0.T @ k)[v] * CJ[:, u])
            return out

        B1 = np.column_stack([dbar_symbol(B.astype(complex)).ravel() for B in basis])
        cols = []
        for a_idx in range(d):
            a = np.zeros(d, dtype=complex)
            a[a_idx] = 1.0
            col = np.zeros((d, d), dtype=complex)
            for u in range(d):
                col[:, u] = 1j * (k[u] * a + (J0.T @ k)[u] * (J0 @ a))
            coef, *_ = np.linalg.lstsq(np.column_stack([B.ravel() for B in basis]),
                                       col.ravel(), rcond=None)
            cols.append(coef)
        D0 = np.column_stack(cols)
        sv1 = np.linalg.svd(B1, compute_uv=False)
        ker_dim = int(np.sum(sv1 < 0.5))
        rank_d0 = int(np.sum(np.linalg.svd(D0, compute_uv=False) >= 0.5))
        t0 += 2 * max(0, ker_dim - rank_d0)
        gaps = sv1[sv1 >= 0.5]
        if gaps.size:
            min_gap = min(min_gap, float(gaps.min()))
        pairs = combi.combos(d, 2)
        Dk = np.zeros((combi.n_combos(d, 3) if d > 2 else 1, len(pairs)), dtype=complex)
        if d > 2:
            table = combi._interior_table(d, 3)
            for r in range(len(table[0])):
                i_hi, j, i_lo, sign = (table[0][r], table[1][r], table[2][r], table[3][r])
                Dk[i_hi, i_lo] += sign * 1j * k[j]
        Ck = np.zeros((d, len(pairs)), dtype=complex)
        for idx, (i, j) in enumerate(pairs):
            Ck[j, idx] += 1j * k[i]
            Ck[i, idx] -= 1j * k[j]
        block = np.vstack([Dk, Ck]) if d > 2 else Ck
        svh = np.linalg.svd(block, compute_uv=False)
        assert not np.any(svh < 0.5)
        min_gap = min(min_gap, float(svh.min()))
    return t0, min_gap


@pytest.mark.parametrize("n, kmax", [(1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_batched_mode_sweep_matches_per_mode_loop(n, kmax):
    dims = T.teich_dimensions(n, kmax)
    t0, min_gap = _per_mode_sweep(n, kmax)
    assert dims["structure_tangent"] == t0
    assert dims["assembled_total"] == dims["kahler_cone"] + t0
    assert abs(dims["min_gap"] - min_gap) <= 1e-12 * min_gap


@pytest.mark.parametrize("n, kmax", [(2, 2), (3, 1)])
def test_chunked_mode_sweep_matches_one_batch(monkeypatch, n, kmax):
    whole = T.teich_dimensions(n, kmax)
    monkeypatch.setattr(T, "_MODE_CHUNK", 100)
    assert T.teich_dimensions(n, kmax) == whole


def test_wp_suite_n1():
    rep = cli.run_suite("teich-wp", 1, 32, seed=3, amplitude=0.1, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_wp_suite_n2():
    rep = cli.run_suite("teich-wp", 2, 16, seed=5, amplitude=0.05, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_connection_suite():
    rep = cli.run_suite("teich-connection", 2, 16, seed=7, amplitude=0.05, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_theta_suite_n1():
    rep = cli.run_suite("theta", 1, 32, seed=9, amplitude=0.1, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_theta_suite_n2():
    rep = cli.run_suite("theta", 2, 16, seed=11, amplitude=0.05, tol_scale=1.0)
    assert rep.passed, rep.to_json()


def test_curvature_hamiltonian_requires_n2():
    g = TorusGrid(1, 16)
    base = H.flat_instance(g)
    with pytest.raises(DomainError):
        lift = T.horizontal_lift(base, G.standard_omega_field(g))
        T.curvature_hamiltonian(lift, lift)


def test_failed_dimension_gap_fails_at_tol_scale_4(monkeypatch):
    real = T.teich_dimensions
    monkeypatch.setattr(T, "teich_dimensions", lambda n: dict(real(n), min_gap=0.0))
    rep = cli.run_suite("teich-wp", 1, 16, seed=3, amplitude=0.1, tol_scale=4.0)
    gap = [(c.residual, c.tol, c.passed) for c in rep.checks if c.name == "dimension_gap"]
    assert gap == [(1.0, 0.5, False)]
    assert not rep.passed


def test_theta_report_is_strict_json_when_wp_vanishes(monkeypatch):
    monkeypatch.setattr(T, "wp_form", lambda a, b: 0.0)
    rep = cli.run_suite("theta", 1, 16, seed=9, amplitude=0.1, tol_scale=1.0)
    assert rep.params["measured_pairing_ratio"] is None
    json.dumps(rep.as_dict(), allow_nan=False)
