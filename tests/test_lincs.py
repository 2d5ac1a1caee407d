import warnings

import numpy as np
import pytest

from geodesk import lincs
from geodesk.combi import standard_j, standard_omega_matrix
from geodesk.errors import DomainError, NumericError, UsageError
from geodesk.lincs import (LinCS, SiegelPoint, TangentJ, bracket_tangent, expm,
                           moment_residual, random_lincs, random_siegel_point,
                           random_symplectic, siegel_metric,
                           siegel_pushforward_fd, siegel_to_acs, symplectic_action,
                           tangent_project, tau)


def test_expm_against_series_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    e1 = expm(a)
    e2 = expm(-a)
    np.testing.assert_allclose(e1 @ e2, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(expm(lincs.project_traceless(a))), 1.0,
                               rtol=1e-12)


def test_expm_overflow_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows"):
            expm(1e6 * np.array([[1.0, 2.0], [-3.0, 1.0]]))
        with pytest.raises(NumericError, match="non-finite"):
            expm(np.full((2, 2), np.inf))


def test_lincs_rejects_non_finite_matrix():
    with pytest.raises(DomainError, match="non-finite"):
        LinCS(np.full((2, 2), np.nan))


def test_tangent_project_properties():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        J = random_lincs(rng, n)
        # anticommuting input is fixed
        xi = rng.standard_normal((2 * n, 2 * n))
        t = bracket_tangent(J, xi)
        fixed = tangent_project(J, t.jhat)
        np.testing.assert_allclose(fixed.jhat, t.jhat, atol=1e-12)
        # J itself projects to zero
        np.testing.assert_allclose(tangent_project(J, J.matrix).jhat, 0.0, atol=1e-13)
        # random input: anticommutation residual ≤ 1e-14 relative
        A = rng.standard_normal((2 * n, 2 * n))
        out = tangent_project(J, A).jhat
        resid = np.max(np.abs(out @ J.matrix + J.matrix @ out))
        assert resid <= 1e-13 * max(1.0, np.max(np.abs(out)))


def test_tau_antisymmetric_and_positivity():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        J = random_lincs(rng, n)
        xi = lincs.project_traceless(rng.standard_normal((2 * n, 2 * n)))
        jh = bracket_tangent(J, xi)
        assert abs(tau(J, jh, jh)) <= 1e-12
        # τ_J(Ĵ, Ĵ') = tr([ξ,J]ᵀ[ξ,J]) > 0 with Ĵ' = [[ξ,J]ᵀ, J]
        eta = jh.jhat.T
        jh2 = bracket_tangent(J, eta)
        val = tau(J, jh, jh2)
        ref = np.trace(jh.jhat.T @ jh.jhat)
        np.testing.assert_allclose(val, ref, rtol=1e-10)
        assert val > 0


def test_tau_two_expressions_agree():
    # ½tr(Ĵ1 J Ĵ2) = −tr([ξ1, ξ2] J) for Ĵi = [ξi, J]
    rng = np.random.default_rng(3)
    for n in (1, 2):
        J = random_lincs(rng, n)
        x1 = lincs.project_traceless(rng.standard_normal((2 * n, 2 * n)))
        x2 = lincs.project_traceless(rng.standard_normal((2 * n, 2 * n)))
        lhs = tau(J, bracket_tangent(J, x1), bracket_tangent(J, x2))
        rhs = -np.trace((x1 @ x2 - x2 @ x1) @ J.matrix)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13 * max(1, abs(rhs)))


def test_moment_residual_and_equivariance():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        J = random_lincs(rng, n)
        assert moment_residual(J, np.zeros((2 * n, 2 * n)),
                               bracket_tangent(J, rng.standard_normal((2 * n, 2 * n)))) == 0.0
        for _ in range(10):
            xi = lincs.project_traceless(rng.standard_normal((2 * n, 2 * n)))
            jh = tangent_project(J, rng.standard_normal((2 * n, 2 * n)))
            assert moment_residual(J, xi, jh) <= 1e-12 * (1 + np.abs(jh.jhat).max())
        g = expm(lincs.project_traceless(0.3 * rng.standard_normal((2 * n, 2 * n))))
        conj = g @ J.matrix @ np.linalg.inv(g)
        np.testing.assert_allclose(-conj, g @ (-J.matrix) @ np.linalg.inv(g), atol=1e-12)


def test_tau_closed_via_finite_differences():
    # coordinate-free dτ(X1,X2,X3) over the conjugation action, FD in the group
    rng = np.random.default_rng(5)
    n, h = 2, 1e-5
    J0 = random_lincs(rng, n)
    xis = [lincs.project_traceless(rng.standard_normal((2 * n, 2 * n))) for _ in range(3)]

    def at(sv):
        g = expm(sum(s * x for s, x in zip(sv, xis)))
        return LinCS(g @ J0.matrix @ np.linalg.inv(g))

    def tau_pair(sv, i, j):
        J = at(sv)
        return tau(J, bracket_tangent(J, xis[i]), bracket_tangent(J, xis[j]))

    def ddir(i, f):
        e = np.zeros(3)
        e[i] = h
        return (f(e) - f(-e)) / (2 * h)

    # dτ(X1,X2,X3) = Σ cyclic X1(τ(X2,X3)) − τ([X1,X2]_vect, X3) …; for fundamental
    # vector fields of a Lie algebra action [X_ξ, X_η] = X_{−[ξ,η]}:
    def lie_term(i, j, k):
        com = xis[i] @ xis[j] - xis[j] @ xis[i]
        J = at(np.zeros(3))
        return tau(J, bracket_tangent(J, -com), bracket_tangent(J, xis[k]))

    total = (ddir(0, lambda s: tau_pair(s, 1, 2))
             - ddir(1, lambda s: tau_pair(s, 0, 2))
             + ddir(2, lambda s: tau_pair(s, 0, 1))
             - lie_term(0, 1, 2) + lie_term(0, 2, 1) - lie_term(1, 2, 0))
    assert abs(total) <= 1e-9 * 10


def test_complex_structure_and_11_type():
    rng = np.random.default_rng(6)
    for n in (1, 2):
        J = random_lincs(rng, n)
        t1 = tangent_project(J, rng.standard_normal((2 * n, 2 * n)))
        t2 = tangent_project(J, rng.standard_normal((2 * n, 2 * n)))
        r1 = TangentJ(J, -J.matrix @ t1.jhat)
        r2 = TangentJ(J, -J.matrix @ t2.jhat)
        # squares to −1
        np.testing.assert_allclose(-J.matrix @ r1.jhat, -t1.jhat, atol=1e-12)
        # τ is (1,1): τ(−JĴ1, −JĴ2) = τ(Ĵ1, Ĵ2)
        np.testing.assert_allclose(tau(J, r1, r2), tau(J, t1, t2), atol=1e-11)


def test_pairing_indefinite_for_n2_positive_on_compatible():
    # the pairing ½ tr(Ĵ1 Ĵ2)
    J = LinCS.standard(2)
    # positive vector: symmetric anticommuting; negative vector: skew anticommuting
    # anticommuting matrices have block form [[P, Q], [Q, −P]]
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    a[2, 2] = -1.0  # P = diag(1, 0): symmetric block, tr Ĵ² > 0
    pos = TangentJ(J, a)
    assert 0.5 * np.trace(pos.jhat @ pos.jhat) > 0
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])  # skew block: tr Ĵ² < 0
    b = np.block([[p, np.zeros((2, 2))], [np.zeros((2, 2)), -p]])
    neg = TangentJ(J, b)
    assert 0.5 * np.trace(neg.jhat @ neg.jhat) < 0
    # on the compatible locus the pairing is positive definite
    rng = np.random.default_rng(7)
    for _ in range(20):
        Z = random_siegel_point(rng, 2)
        Jc = siegel_to_acs(Z)
        t = tangent_project(Jc, rng.standard_normal((4, 4)))
        # restrict to ω0-compatible directions: Ĵ with ω0(Ĵ·,·) symmetric
        W = standard_omega_matrix(2)
        sym = W @ t.jhat
        t_comp = TangentJ(Jc, t.jhat - np.linalg.solve(W, 0.5 * (sym - sym.T)))
        if np.abs(t_comp.jhat).max() < 1e-8:
            continue
        assert 0.5 * np.trace(t_comp.jhat @ t_comp.jhat) > 0


def test_siegel_center_maps_to_standard():
    for n in (1, 2, 3):
        Z = SiegelPoint(1j * np.eye(n))
        np.testing.assert_allclose(siegel_to_acs(Z).matrix, standard_j(n), atol=1e-14)


def test_siegel_n1_block_formula():
    x, y = 0.3, 0.7
    Z = SiegelPoint(np.array([[x + 1j * y]]))
    expected = np.array([[x / y, -y - x * x / y], [1 / y, -x / y]])
    np.testing.assert_allclose(siegel_to_acs(Z).matrix, expected, atol=1e-14)


def test_siegel_equivariance():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        for _ in range(20):
            Z = random_siegel_point(rng, n)
            g = random_symplectic(rng, n)
            lhs = siegel_to_acs(symplectic_action(g, Z)).matrix
            rhs = g @ siegel_to_acs(Z).matrix @ np.linalg.inv(g)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_siegel_rejects_bad_points():
    with pytest.raises(DomainError):
        SiegelPoint(np.array([[1.0 - 1j]]))
    with pytest.raises(DomainError):
        SiegelPoint(np.array([[1j, 0.5], [0.2, 1j]]))


def test_siegel_metric_zero_and_center():
    rng = np.random.default_rng(9)
    n = 2
    Z = SiegelPoint(1j * np.eye(n))
    assert siegel_metric(Z, np.zeros((n, n))) == 0.0
    Yh = rng.standard_normal((n, n))
    Yh = 0.5 * (Yh + Yh.T)
    np.testing.assert_allclose(siegel_metric(Z, 1j * Yh), np.trace(Yh @ Yh), rtol=1e-12)
    with pytest.raises(UsageError):
        siegel_metric(Z, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_siegel_kahler_isometry_fd():
    rng = np.random.default_rng(10)
    n = 2
    for _ in range(10):
        Z = random_siegel_point(rng, n)
        Zh = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Zh = 0.5 * (Zh + Zh.T)
        jdot = siegel_pushforward_fd(Z, Zh)
        push_norm = 0.5 * np.trace(jdot @ jdot)
        assert abs(push_norm - siegel_metric(Z, Zh)) <= 1e-7 * max(1.0, abs(push_norm))
