"""Pointwise exterior algebra: the combi kernels on coefficient vectors (no
trailing axes), and linear complex structures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodesk import combi
from geodesk.combi import standard_j, standard_omega_matrix, vol_sign
from geodesk.errors import DomainError
from geodesk.lincs import LinCS
from oracles import interior_pairs_loop, pq_project_circle


def random_form(rng, n, k, complex_=False):
    size = combi.n_combos(2 * n, k)
    c = rng.standard_normal(size)
    if complex_:
        c = c + 1j * rng.standard_normal(size)
    return c


def wedge(a, b, n, p, q):
    return combi.wedge_coef(a, b, 2 * n, p, q)


def standard_omega(n):
    """Coefficients of ω0 = Σ dx_i∧dy_i."""
    W = standard_omega_matrix(n)
    return np.array([W[i, j] for i, j in combi.combos(2 * n, 2)])


def standard_volume(n):
    return np.array([float(vol_sign(n))])


def omega_power(n, j):
    """ω0^j / j! as a 2j-form."""
    w = standard_omega(n)
    acc = np.array([1.0])
    for i in range(j):
        acc = wedge(acc, w, n, 2 * i, 2)
    return (1.0 / math.factorial(j)) * acc


def standard_metric(n):
    """g(u, v) = ω0(u, J0 v)."""
    return standard_omega_matrix(n) @ standard_j(n)


def star(a, n, k):
    """Hodge star of the standard pair's metric, oriented by ω0^n/n!."""
    g = standard_metric(n)
    return combi.star_coef(a, 2 * n, k, np.linalg.inv(g), float(np.sqrt(np.linalg.det(g))),
                           vol_sign(n))


def test_standard_omega_power_is_volume():
    for n in (1, 2, 3):
        w = standard_omega(n)
        acc = w
        for i in range(n - 1):
            acc = wedge(acc, w, n, 2 * i + 2, 2)
        np.testing.assert_allclose(acc / math.factorial(n), standard_volume(n), atol=1e-14)


def test_wedge_basis_case():
    # dx1 ∧ dy1 is the standard area element on R^2
    dx, dy = np.eye(2)
    np.testing.assert_allclose(wedge(dx, dy, 1, 1, 1), standard_volume(1))


@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_wedge_graded_commutative(n, p, q, seed):
    if p + q > 2 * n:
        return
    rng = np.random.default_rng(seed)
    a, b = random_form(rng, n, p), random_form(rng, n, q)
    lhs = wedge(a, b, n, p, q)
    rhs = (-1.0) ** (p * q) * wedge(b, a, n, q, p)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_wedge_bilinear_and_dim_mismatch():
    rng = np.random.default_rng(0)
    a, b, c = random_form(rng, 2, 1), random_form(rng, 2, 1), random_form(rng, 2, 1)
    lhs = wedge(a + 2.0 * b, c, 2, 1, 1)
    rhs = wedge(a, c, 2, 1, 1) + 2.0 * wedge(b, c, 2, 1, 1)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_contract_basis_and_nilpotent():
    e1 = np.array([1.0, 0.0])
    np.testing.assert_allclose(combi.interior_coef(e1, standard_volume(1), 2, 2), np.eye(2)[1])
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    a = random_form(rng, 2, 3)
    twice = combi.interior_coef(v, combi.interior_coef(v, a, 4, 3), 4, 2)
    np.testing.assert_allclose(twice, 0.0, atol=1e-12)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_contract_leibniz(n, p, q, seed):
    if p + q > 2 * n:
        return
    rng = np.random.default_rng(seed)
    a, b = random_form(rng, n, p), random_form(rng, n, q)
    v = rng.standard_normal(2 * n)
    d = 2 * n
    lhs = combi.interior_coef(v, wedge(a, b, n, p, q), d, p + q)
    rhs = (wedge(combi.interior_coef(v, a, d, p), b, n, p - 1, q)
           + (-1.0) ** p * wedge(a, combi.interior_coef(v, b, d, q), n, p, q - 1))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_lincs_orientation():
    for n in (1, 2, 3):
        LinCS.standard(n)
    with pytest.raises(DomainError):
        LinCS(-standard_j(1))  # reversed orientation on R^2
    with pytest.raises(DomainError):
        LinCS(np.eye(2))


def test_sl_conjugation_stays_lincs():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        for _ in range(5):
            xi = 0.3 * rng.standard_normal((2 * n, 2 * n))
            xi -= np.trace(xi) / (2 * n) * np.eye(2 * n)
            g = np.eye(2 * n)
            term = np.eye(2 * n)
            for k in range(1, 18):
                term = term @ xi / k
                g = g + term
            J = g @ standard_j(n) @ np.linalg.inv(g)
            LinCS(J)  # stays on the orbit, orientation preserved


def test_pq_project_compatible_baseline():
    for n in (1, 2):
        J = standard_j(n)
        w = standard_omega(n)
        p11 = combi.pq_project_coef(w, 2 * n, 2, J, 1, 1)
        np.testing.assert_allclose(p11.real, w, atol=1e-12)
        np.testing.assert_allclose(p11.imag, 0.0, atol=1e-12)
        if n == 2:
            p20 = combi.pq_project_coef(w, 2 * n, 2, J, 2, 0)
            np.testing.assert_allclose(np.abs(p20), 0.0, atol=1e-12)


def test_pq_project_pure_20_02_example():
    # dx1∧dx2 − dy1∧dy2 satisfies a(Ju, Jv) = −a(u, v) for J0 on R^4
    J = standard_j(2)
    cs = combi.combo_index(4, 2)
    a = np.zeros(6)
    a[cs[(0, 1)]] = 1.0   # dx1∧dx2
    a[cs[(2, 3)]] = -1.0  # −dy1∧dy2
    np.testing.assert_allclose(combi.pullback_linear_coef(a, 4, 2, J), -a, atol=1e-12)
    p11 = combi.pq_project_coef(a, 4, 2, J, 1, 1)
    np.testing.assert_allclose(np.abs(p11), 0.0, atol=1e-12)
    back = combi.pq_project_coef(a, 4, 2, J, 2, 0) + combi.pq_project_coef(a, 4, 2, J, 0, 2)
    np.testing.assert_allclose(back.real, a, atol=1e-12)


@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pq_resolution_of_identity_and_idempotence(n, k, seed):
    if k > 2 * n:
        return
    rng = np.random.default_rng(seed)
    a = random_form(rng, n, k)
    J = standard_j(n)
    total = np.zeros_like(a, dtype=complex)
    for p in range(k + 1):
        comp = combi.pq_project_coef(a, 2 * n, k, J, p, k - p)
        total += comp
        twice = combi.pq_project_coef(comp, 2 * n, k, J, p, k - p)
        np.testing.assert_allclose(twice, comp, atol=1e-11)
    np.testing.assert_allclose(total, a.astype(complex), atol=1e-11)


def test_pq_quarter_identity_for_two_forms():
    # ŵ^{2,0} = ¼(ŵ − J*ŵ) − (i/4) ι(J)ŵ for seeded real 2-forms
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        J = standard_j(n)
        for _ in range(10):
            w = random_form(rng, n, 2)
            lhs = combi.pq_project_coef(w, 2 * n, 2, J, 2, 0)
            rhs = (0.25 * (w - combi.pullback_linear_coef(w, 2 * n, 2, J))
                   - 0.25j * combi.derivation_coef(J, w, 2 * n, 2))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _seeded_j(rng, n):
    """A constant complex structure S J0 S⁻¹ away from J0."""
    S = np.eye(2 * n) + 0.3 * rng.standard_normal((2 * n, 2 * n))
    return S @ standard_j(n) @ np.linalg.inv(S)


def test_pq_project_matches_the_circle_average():
    # the Lagrange polynomial in the J-derivation against the 2k + 2 pullbacks
    rng = np.random.default_rng(22)
    for n in (1, 2, 3):
        J = _seeded_j(rng, n)
        for k in range(2 * n + 1):
            a = random_form(rng, n, k, complex_=True)
            for p in range(k + 1):
                ref = pq_project_circle(a, 2 * n, k, J, p, k - p)
                out = combi.pq_project_coef(a, 2 * n, k, J, p, k - p)
                assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(a)), (n, k, p)


def test_compound_apply_is_every_minor_determinant():
    # out_I = Σ_J det(A[I, J]) a_J with one LAPACK determinant per minor,
    # k = 0 (the empty minor, det 1) and k = dim included
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        d = 2 * n
        A = rng.standard_normal((d, d))
        for k in range(d + 1):
            a = random_form(rng, n, k, complex_=True)
            cs = combi.combos(d, k)
            ref = np.array([sum(np.linalg.det(A[np.ix_(I, J)]) * a[jj] for jj, J in enumerate(cs))
                            for I in cs])
            out = combi.compound_apply(A, a, d, k)
            assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), (n, k)


def test_interior_pairs_is_the_signed_pair_loop():
    # Σ_l N^l ∧ ι(∂_l)θ against the loop over slot pairs, for every degree
    # that leaves room for the inserted pair
    rng = np.random.default_rng(24)
    for n in (1, 2, 3):
        d = 2 * n
        N = rng.standard_normal((d, d, d))
        N -= N.swapaxes(1, 2)
        for k in range(1, d):
            theta = random_form(rng, n, k, complex_=True)
            ref = interior_pairs_loop(N, theta, d, k)
            out = combi.interior_pairs_coef(N, theta, d, k)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), (n, k)


def test_hodge_star_basics():
    n = 1
    np.testing.assert_allclose(star(np.array([1.0]), n, 0), standard_volume(n), atol=1e-14)
    dx, dy = np.eye(2)
    np.testing.assert_allclose(star(dx, n, 1), dy, atol=1e-14)


def test_hodge_star_eq_hodge1():
    # *λ = −(λ∘J) ∧ ω^{n−1}/(n−1)!  for seeded λ and compatible (ω, J)
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        J = standard_j(n)
        acc = omega_power(n, n - 1)
        for _ in range(5):
            lam = random_form(rng, n, 1)
            lhs = star(lam, n, 1)
            rhs = -wedge(J.T @ lam, acc, n, 1, 2 * n - 2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_hodge_star_double_and_pairing():
    rng = np.random.default_rng(29)
    for n in (1, 2):
        for k in range(0, 2 * n + 1):
            a = random_form(rng, n, k)
            ss = star(star(a, n, k), n, 2 * n - k)
            np.testing.assert_allclose(ss, (-1.0) ** k * a, atol=1e-12)
            # a ∧ *a = |a|² vol with positive coefficient
            pair = wedge(a, star(a, n, k), n, k, 2 * n - k)
            val = pair[0] * vol_sign(n)
            assert val >= -1e-12


def test_eq_hodge2_identity_and_eigenvalues():
    # *(τ∧ω^{n−2}/(n−2)!) = <τ,ω>ω − J*τ on 1000 seeded 2-forms, n ∈ {2,3}
    rng = np.random.default_rng(31)
    for n in (2, 3):
        J = standard_j(n)
        w = standard_omega(n)
        ginv = np.linalg.inv(standard_metric(n))
        acc = omega_power(n, n - 2)
        worst = 0.0
        for _ in range(500 if n == 2 else 100):
            t = random_form(rng, n, 2)
            lhs = star(wedge(t, acc, n, 2, 2 * n - 4), n, 2 * n - 2)
            inner_tw = combi.metric_inner_coef(t, w, 2 * n, 2, ginv)
            rhs = inner_tw * w - combi.pullback_linear_coef(t, 2 * n, 2, J)
            worst = max(worst, np.max(np.abs(lhs - rhs)))
        assert worst <= 1e-12
    # eigenvalues of τ ↦ *(τ∧ω^{n−2}/(n−2)!) at n = 2: {+1 (×3), −1 (×3)} and trace 0
    n = 2
    w = standard_omega(n)
    mat = np.zeros((6, 6))
    for idx in range(6):
        c = np.zeros(6)
        c[idx] = 1.0
        mat[:, idx] = star(c, n, 2)
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (mat + mat.T)))
    np.testing.assert_allclose(eigs, [-1, -1, -1, 1, 1, 1], atol=1e-12)
    assert abs(np.trace(mat)) <= 1e-12
    # ω itself is the (n−1)-eigenvector direction: *(ω∧1) has eigenvalue n−1 = 1 at n=2;
    # on the ω-line the operator acts with eigenvalue n−1.
    np.testing.assert_allclose(star(w, n, 2), (n - 1) * w, atol=1e-12)
