import json

import numpy as np
import pytest

from geodesk import cli
from geodesk import grid as G
from geodesk import hodge as H
from geodesk import ricci as Ric
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


def test_fg_decompose_rejects_nonclosed():
    g = TorusGrid(2, 8)
    base = H.flat_instance(g)
    raw = G.random_band_limited(g, "endo", 7, 0.1, band=1)
    jh = Ric.anticommute_project(base.J, raw)
    with pytest.raises(DomainError):
        T.fg_decompose(base, jh)


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
        T.curvature_hamiltonian(base, G.standard_omega_field(g), G.standard_omega_field(g))


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
