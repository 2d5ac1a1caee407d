"""The Ricci form of a volume form and almost complex structure, the pairing
one-form that generates its variation, scalar curvature, and the residual
suites verifying the moment-map and transformation identities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import connection as C
from . import grid as G
from . import pointwise as P
from .errors import DomainError
from .grid import TorusGrid
from .report import CheckReport, max_abs, rel_max1, rel_plus1


def trace_pairing(grid: TorusGrid, jh1: np.ndarray, J: np.ndarray, jh2: np.ndarray) -> np.ndarray:
    """Pointwise ½ tr(Ĵ1 J Ĵ2), one chain of ``P.contract``."""
    return 0.5 * P.contract("ij...,jk...,ki...->...", jh1, J, jh2)


def omega_rho_pairing(grid: TorusGrid, rho: np.ndarray, J: np.ndarray,
                      jh1: np.ndarray, jh2: np.ndarray) -> float:
    """Ω_{ρ,J}(Ĵ1, Ĵ2) = ½ ∫ tr(Ĵ1 J Ĵ2) ρ."""
    return G.integrate_against_volume(grid, trace_pairing(grid, jh1, J, jh2), rho)


def anticommute_project(J: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Pointwise projection onto endomorphisms anticommuting with J."""
    return 0.5 * (A + P.mul(J, A, J))


def _check_volume_connection(grid: TorusGrid, conn: C.ConnectionField, rho: np.ndarray,
                             volume_tol: float = 1e-9):
    if not conn.torsion_free:
        raise DomainError("connection must be torsion-free")
    resid = C.cov_volume_residual(grid, conn, rho)
    if resid > volume_tol:
        raise DomainError(f"connection does not preserve the volume form ({resid:.2e})")


def lambda_one_form(grid: TorusGrid, conn: C.ConnectionField, J: np.ndarray,
                    nJ: np.ndarray | None = None) -> np.ndarray:
    """λ_j = trace of v ↦ (∇_v J)∂_j, i.e. (∇_i J)^i_j."""
    if nJ is None:
        nJ = C.cov_endo(grid, conn, J)
    return P.contract("iij...->j...", nJ)


def tau_lambda(grid: TorusGrid, conn: C.ConnectionField, J: np.ndarray):
    """(τ, λ) from one ∇J: τ_{ij} = ½ tr((∇_i J) J (∇_j J)) + tr(J R(∂_i, ∂_j))
    and λ_j = (∇_i J)^i_j.

    The curvature trace J^k_l R^l_{kij} is (A + B)_{ij} − (A + B)_{ji}, with
    A_{ij} = J^k_l ∂_i Γ^l_{jk} and B_{ij} = (J^k_l Γ^l_{im}) Γ^m_{jk}
    (Kobayashi–Nomizu I, ch. III).  A is assembled one middle index j of Γ
    at a time, from the derivatives of the d² slice Γ^l_{jk}, so neither the
    4-index R^l_{kij} nor the stacked ∂Γ is built; Γ = 0 has none.  The
    quadratic term and B are chains of ``P.contract``, taken one grid slice
    at a time, so neither builds a d³ intermediate.  ∇J is dropped after λ
    and the quadratic term, before the curvature part, which reads only Γ
    and J."""
    d = grid.d
    nJ = C.cov_endo(grid, conn, J)
    lam = lambda_one_form(grid, conn, J, nJ)
    tau = 0.5 * P.contract("bc...,jca...,iab...->ij...", J, nJ, nJ)  # greedy path: J·∇_jJ first
    del nJ
    if not conn.zero:
        gam = conn.gamma
        ab = P.contract("kl...,lim...,mjk...->ij...", J, gam, gam)
        for j in range(d):  # ∂_iΓ^l_{jk} for every i from the d² slice Γ^l_{jk}
            dgam = grid.derivs_by_axis(gam[:, j])
            for i in range(d):
                P.contract_add(ab[i, j], 1, "kl...,lk...->...", J, next(dgam))
        tau += ab - ab.swapaxes(0, 1)
    return G.form_from_matrix(grid, tau), lam


@dataclass(frozen=True)
class RicciData:
    """τ, λ, and the assembled Ricci form for one connection choice."""

    tau: np.ndarray
    lam: np.ndarray
    ric: np.ndarray
    closedness_residual: float


def ricci_form(grid: TorusGrid, rho: np.ndarray, J: np.ndarray,
               conn: C.ConnectionField | None = None,
               volume_tol: float = 1e-9) -> RicciData:
    """Ric = ½(τ + dλ) for a torsion-free ρ-preserving connection, by default
    the conformally flat volume connection of ρ."""
    if conn is None:
        conn = C.conformally_flat_volume_connection(grid, rho)
    _check_volume_connection(grid, conn, rho, volume_tol)
    tau, lam = tau_lambda(grid, conn, J)
    ric = 0.5 * (tau + G.exterior_d(grid, lam, 1))
    dric = G.exterior_d(grid, ric, 2) if grid.d > 2 else None
    resid = 0.0 if dric is None else rel_max1(dric, ric)
    return RicciData(tau, lam, ric, resid)


def lambda_rho(grid: TorusGrid, rho: np.ndarray, J: np.ndarray, jhat: np.ndarray,
               conn: C.ConnectionField | None = None, volume_tol: float = 1e-9,
               nJh: np.ndarray | None = None) -> np.ndarray:
    """Λ_j = Σ_i (∇_iĴ)^i_j + ½ tr(M ∇_jJ), M = ĴJ, as a one-form field,
    from traces: neither ∇Ĵ nor ∇J is built.

    The first term is the divergence Σ_i ∂_iĴ^i_j, each row i of Ĵ
    differentiated along axis i only, plus Σ Γ^i_{im}Ĵ^m_j − Σ Γ^m_{ij}Ĵ^i_m;
    ``nJh``, ∇Ĵ for ``conn`` when the caller already holds it, gives it as
    its trace instead.  The second is tr(M ∂_jJ), one derivative axis at a
    time, plus tr(JMΓ_j) − tr(MJΓ_j) with (Γ_j)^c_m = Γ^c_{jm}, since
    ∇_jJ = ∂_jJ + [Γ_j, J] and the trace is cyclic.  The Γ terms are added
    by ``P.contract_add``, so beside the inputs only M and one d² transient
    are held.  Ĵ must anticommute with J to 1e-8 (relative, floored at 1)."""
    M = P.mul(jhat, J)
    anti_field = P.mul(J, jhat)
    anti_field += M
    anti = max_abs(anti_field)
    del anti_field
    if anti > 1e-8 * max(1.0, max_abs(jhat)):
        raise DomainError(f"lambda_rho: Ĵ must anticommute with J ({anti:.2e})")
    if conn is None:
        conn = C.conformally_flat_volume_connection(grid, rho)
    _check_volume_connection(grid, conn, rho, volume_tol)
    if nJh is not None:
        first = P.contract("iij...->j...", nJh)
    else:
        first = grid.deriv(jhat[0], 0)
        for i in range(1, grid.d):
            first += grid.deriv(jhat[i], i)
        if not conn.zero:
            P.contract_add(first, 1, "iim...,mj...->j...", conn.gamma, jhat)
            P.contract_add(first, -1, "mij...,im...->j...", conn.gamma, jhat)
    dJ = grid.derivs_by_axis(J)
    second = np.stack([P.contract("ac...,ca...->...", M, next(dJ)) for _ in range(grid.d)])
    if not conn.zero:
        P.contract_add(second, 1, "mb...,bc...,cjm...->j...", J, M, conn.gamma)
        P.contract_add(second, -1, "mb...,bc...,cjm...->j...", M, J, conn.gamma)
    first += 0.5 * second
    return first


def scalar_curvature(grid: TorusGrid, omega: np.ndarray, J: np.ndarray) -> np.ndarray:
    """S = 2 <Ric, ω> = 2 (Ric ∧ ω^{n−1}/(n−1)!) / (ω^n/n!)."""
    rho = omega_power(grid, omega, grid.n)
    if np.any(G.vol_sign(grid.n) * rho[0] <= 0):
        raise DomainError("scalar_curvature: ω^n must be positive")
    ric = ricci_form(grid, rho, J).ric
    if grid.n == 1:
        return 2.0 * ric[0] / rho[0]
    wn1 = omega_power(grid, omega, grid.n - 1)
    num = G.wedge_f(grid, ric, wn1, 2, 2 * grid.n - 2)
    return 2.0 * num[0] / rho[0]


def omega_power(grid: TorusGrid, omega: np.ndarray, p: int) -> np.ndarray:
    """ω^p / p! as a 2p-form field."""
    out = np.ones((1,) + grid.shape)
    deg = 0
    for _ in range(p):
        out = G.wedge_f(grid, out, omega, deg, 2)
        deg += 2
    return out / math.factorial(p)


def hamiltonian_vector_field(grid: TorusGrid, omega: np.ndarray, H: np.ndarray) -> np.ndarray:
    """v with ι(v)ω = dH, pointwise solve."""
    dH = G.exterior_d(grid, H[None], 0)
    w = G.form_to_matrix(grid, omega)
    return P.contract("j...,ji...->i...", dH, P.inv(w))


def vector_from_alpha(grid: TorusGrid, rho: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """v_α with ι(v_α)ρ = dα for a (2n−2)-form α."""
    return G.vector_from_contraction(grid, rho, G.exterior_d(grid, alpha, grid.d - 2))


def conjugated_path(J: np.ndarray, K: np.ndarray, t: float) -> np.ndarray:
    """(1 + tK) J (1 + tK)^{-1}; exactly an almost complex structure."""
    d = J.shape[0]
    S = G.constant_field_like(K, np.eye(d)) + t * K
    Sinv = P.inv(S)
    return P.mul(S, J, Sinv)


def symplectic_path(J: np.ndarray, xi: np.ndarray, t: float) -> np.ndarray:
    """e^{tξ} J e^{−tξ} for a pointwise Hamiltonian matrix field ξ."""
    E = G.matrix_exp_field(t * xi)
    Einv = P.inv(E)
    return P.mul(E, J, Einv)


def richardson(f, h: float):
    """Richardson-extrapolated central difference of a path-valued function."""
    d1 = (f(h) - f(-h)) / (2 * h)
    d2 = (f(h / 2) - f(-h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


# ---------------------------------------------------------------------------
# suites


def seeded_instance(grid: TorusGrid, seed: int, amplitude: float):
    """Seeded volume form ρ, almost complex structure J, conjugator K and
    vector field v."""
    rho = G.random_band_limited(grid, "volume", seed, amplitude, band=G.acs_band(grid.m))
    J = G.random_band_limited(grid, "acs", seed + 1, amplitude)
    K = G.random_band_limited(grid, "endo", seed + 2, amplitude, band=G.acs_band(grid.m))
    v = G.random_band_limited(grid, "vector", seed + 3, amplitude, band=G.acs_band(grid.m))
    return rho, J, K, v


def lambda_pairing(grid: TorusGrid, rho: np.ndarray, J: np.ndarray, K: np.ndarray,
                   v: np.ndarray, conn: C.ConnectionField) -> float:
    """Residual of the pairing identity ∫ Λ ∧ ι(v)ρ = ½ ∫ tr(Ĵ J L_v J) ρ for
    the J-anticommuting part Ĵ of K."""
    jhat = anticommute_project(J, K)
    lam = lambda_rho(grid, rho, J, jhat, conn)
    lhs = G.integrate(grid, G.wedge_f(grid, lam, G.interior_f(grid, v, rho, grid.d),
                                      1, grid.d - 1))
    rhs = G.integrate_against_volume(
        grid, trace_pairing(grid, jhat, J, G.lie_endo(grid, v, J)), rho)
    return rel_plus1(lhs - rhs, rhs)


def moment_map_fd(grid: TorusGrid, rho: np.ndarray, J: np.ndarray, jdot: np.ndarray,
                  alpha: np.ndarray, ric_dot: np.ndarray) -> float:
    """Residual of the moment map d/dt ∫ 2 Ric ∧ α = ½ ∫ tr(J̇ J L_{v_α} J) ρ
    along a path of almost complex structures through J with velocity J̇;
    ``ric_dot`` is the derivative of Ric along that path."""
    v_alpha = vector_from_alpha(grid, rho, alpha)
    fd_val = G.integrate(grid, G.wedge_f(grid, 2.0 * ric_dot, alpha, 2, grid.d - 2))
    rhs_val = G.integrate_against_volume(
        grid, trace_pairing(grid, jdot, J, G.lie_endo(grid, v_alpha, J)), rho)
    return rel_plus1(fd_val - rhs_val, rhs_val)


# step of every Richardson-extrapolated derivative in the Ricci suites
_FD_STEP = 1e-3


def verify_moment_identities(rep: CheckReport, grid: TorusGrid, seed: int,
                             amplitude: float) -> None:
    """Residuals for the pairing identity, the variation of the Ricci form,
    the moment-map identity, and the scalar-curvature moment map.  Each case
    runs two sections, and a section's fields die when it returns."""
    cases = rep.params["cases"] = 2 if grid.n == 1 else 1
    for case in range(cases):
        s = seed + 101 * case
        _ricci_variation(rep, grid, case, s, amplitude, *seeded_instance(grid, s, amplitude))
        _scalar_moment(rep, grid, case, s, amplitude)


def _ricci_variation(rep: CheckReport, grid: TorusGrid, case: int, s: int, amplitude: float,
                     rho: np.ndarray, J: np.ndarray, K: np.ndarray, v: np.ndarray) -> None:
    """lambda_pairing, ricci_variation_fd and moment_map_fd on a seeded
    (ρ, J, K, v)."""
    conn = C.conformally_flat_volume_connection(grid, rho)
    rep.add(f"lambda_pairing[{case}]", lambda_pairing(grid, rho, J, K, v, conn))

    # variation of the Ricci form along the conjugated path J_t of J by K:
    # d/dt Ric(ρ, J_t) = ½ dΛ(J, J̇); the moment map pairs the same derivative
    jdot = P.mul(K, J) - P.mul(J, K)
    ric_dot = richardson(
        lambda t: ricci_form(grid, rho, conjugated_path(J, K, t), conn).ric, _FD_STEP)
    direct = 0.5 * G.exterior_d(grid, lambda_rho(grid, rho, J, jdot, conn), 1)
    rep.add(f"ricci_variation_fd[{case}]", rel_plus1(ric_dot - direct, direct))

    alpha = G.random_band_limited(grid, f"form:{grid.d - 2}", s + 5, amplitude,
                                  band=G.acs_band(grid.m))
    rep.add(f"moment_map_fd[{case}]", moment_map_fd(grid, rho, J, jdot, alpha, ric_dot))


def _scalar_moment(rep: CheckReport, grid: TorusGrid, case: int, s: int,
                   amplitude: float) -> None:
    """scalar_moment_fd and scalar_bracket on the compatible slice (ω0, J_c).
    S(J_c) is taken before L_{v_H}J_c, so that field is not held through a
    scalar-curvature transient."""
    omega0 = G.standard_omega_field(grid)
    rho0 = G.standard_volume_field(grid)
    Jc = G.random_acs_symplectic(grid, s + 7, amplitude)
    H = G.random_band_limited(grid, "scalar", s + 9, amplitude, band=G.acs_band(grid.m))
    vH = hamiltonian_vector_field(grid, omega0, H)
    xi = G.random_hamiltonian_matrix_field(grid, s + 8, amplitude)
    jdot_c = P.mul(xi, Jc) - P.mul(Jc, xi)

    def scalar_pairing(t):
        Jt = symplectic_path(Jc, xi, t)
        S = scalar_curvature(grid, omega0, Jt)
        return G.integrate_against_volume(grid, S * H, rho0)

    fd_s = richardson(scalar_pairing, _FD_STEP)
    S = scalar_curvature(grid, omega0, Jc)
    lie_h = G.lie_endo(grid, vH, Jc)
    rhs_s = G.integrate_against_volume(grid, trace_pairing(grid, jdot_c, Jc, lie_h), rho0)
    rep.add(f"scalar_moment_fd[{case}]", rel_plus1(fd_s - rhs_s, rhs_s))

    # Poisson-bracket form of the pairing: Ω(L_{v_F}J, L_{v_H}J) = ∫ S {F,H} ρ
    F = G.random_band_limited(grid, "scalar", s + 10, amplitude, band=G.acs_band(grid.m))
    vF = hamiltonian_vector_field(grid, omega0, F)
    lhs_b = omega_rho_pairing(grid, rho0, Jc, G.lie_endo(grid, vF, Jc), lie_h)
    w_mat = G.form_to_matrix(grid, omega0)
    poisson = P.contract("i...,ij...,j...->...", vF, w_mat, vH)
    rhs_b = G.integrate_against_volume(grid, S * poisson, rho0)
    rep.add(f"scalar_bracket[{case}]", rel_plus1(lhs_b - rhs_b, rhs_b))


def verify_transformation_laws(rep: CheckReport, grid: TorusGrid, seed: int,
                               amplitude: float) -> None:
    """Residuals for the conformal, naturality, Lie-derivative, two-parameter,
    closedness, type, and connection-independence laws of the Ricci form.
    Each group of checks is a section whose fields die when it returns."""
    cases = rep.params["cases"] = 2 if grid.n == 1 else 1
    for case in range(cases):
        s = seed + 211 * case
        _laws_case(rep, grid, case, s, amplitude, *seeded_instance(grid, s, amplitude))
    _naturality(rep, grid, seed, *seeded_instance(grid, seed + 900, min(amplitude, 1e-3))[:3])
    J0 = G.standard_j_field(grid)
    _kahler_slice(rep, grid, seed, amplitude, J0)
    _integrable_pullback(rep, grid, seed, amplitude, J0)


def _laws_case(rep: CheckReport, grid: TorusGrid, case: int, s: int, amplitude: float,
               rho: np.ndarray, J: np.ndarray, K: np.ndarray, v: np.ndarray) -> None:
    """One case of the transformation laws on a seeded (ρ, J, K, v).  The
    volume connection at ρ, Ric and Λ(J, Ĵ) for the J-anticommuting part Ĵ
    of K are taken once, for the sections that read them."""
    jhat = anticommute_project(J, K)
    conn = C.conformally_flat_volume_connection(grid, rho)
    base = ricci_form(grid, rho, J, conn)
    lam0 = lambda_rho(grid, rho, J, jhat, conn)
    _conformal_shift(rep, grid, case, s, amplitude, rho, J, jhat, base.ric, lam0)
    rep.add(f"closedness[{case}]", base.closedness_residual)
    _connection_independence(rep, grid, case, rho, J, jhat, base.ric, lam0)
    _lie_laws(rep, grid, case, s, amplitude, rho, J, v, conn, base.ric)
    _two_parameter(rep, grid, case, s, amplitude, rho, J, K, conn)


def _conformal_shift(rep: CheckReport, grid: TorusGrid, case: int, s: int, amplitude: float,
                     rho: np.ndarray, J: np.ndarray, jhat: np.ndarray, ric: np.ndarray,
                     lam0: np.ndarray) -> None:
    """conformal_shift and lambda_conformal_shift: Ric and Λ at ρe^f against
    their values at ρ."""
    f = G.random_band_limited(grid, "scalar", s + 20, amplitude, band=G.acs_band(grid.m))
    rho_f = rho * np.exp(f)
    conn_f = C.conformally_flat_volume_connection(grid, rho_f)
    shifted = ricci_form(grid, rho_f, J, conn_f)
    lam1 = lambda_rho(grid, rho_f, J, jhat, conn_f)
    df = G.exterior_d(grid, f[None], 0)
    df_j = G.one_form_compose_j(df, J)
    expected = ric + 0.5 * G.exterior_d(grid, df_j, 1)
    rep.add(f"conformal_shift[{case}]", rel_plus1(shifted.ric - expected, expected))
    df_jh = P.contract("k...,ki...->i...", df, jhat)
    rep.add(f"lambda_conformal_shift[{case}]", rel_plus1(lam1 - (lam0 + df_jh), lam0))


def _connection_independence(rep: CheckReport, grid: TorusGrid, case: int, rho: np.ndarray,
                             J: np.ndarray, jhat: np.ndarray, ric: np.ndarray,
                             lam0: np.ndarray) -> None:
    """connection_independence and lambda_connection_independence: the
    compatible-metric route against the conformally flat one."""
    metric, _ = C.compatible_pair(grid, rho, J)
    conn2 = C.levi_civita(grid, metric)
    alt = ricci_form(grid, rho, J, conn2)
    rep.add(f"connection_independence[{case}]", rel_plus1(alt.ric - ric, ric))
    lam_alt = lambda_rho(grid, rho, J, jhat, conn2)
    rep.add(f"lambda_connection_independence[{case}]", rel_plus1(lam_alt - lam0, lam0))


def _lie_laws(rep: CheckReport, grid: TorusGrid, case: int, s: int, amplitude: float,
              rho: np.ndarray, J: np.ndarray, v: np.ndarray, conn: C.ConnectionField,
              ric: np.ndarray) -> None:
    """lambda_lie, Λ(J, L_u J) = 2 ι(u) Ric − d f_u ∘ J + d f_{Ju}, and the
    pairing-divergence identity."""
    lie_v = G.lie_endo(grid, v, J)
    lam_lie = lambda_rho(grid, rho, J, lie_v, conn)
    fu = G.divergence_frho(grid, v, rho)
    Jv = P.contract("ij...,j...->i...", J, v)
    fJu = G.divergence_frho(grid, Jv, rho)
    rhs = (2.0 * G.interior_f(grid, v, ric, 2)
           - G.one_form_compose_j(G.exterior_d(grid, fu[None], 0), J)
           + G.exterior_d(grid, fJu[None], 0))
    rep.add(f"lambda_lie[{case}]", rel_plus1(lam_lie - rhs, rhs))

    # pairing-divergence identity
    w = G.random_band_limited(grid, "vector", s + 21, amplitude, band=G.acs_band(grid.m))
    fv, fw = fu, G.divergence_frho(grid, w, rho)
    fJv = fJu
    Jw = P.contract("ij...,j...->i...", J, w)
    fJw = G.divergence_frho(grid, Jw, rho)
    lhs_p = omega_rho_pairing(grid, rho, J, lie_v, G.lie_endo(grid, w, J))
    ric_uv = P.contract("i...,ij...,j...->...", v, G.form_to_matrix(grid, ric), w)
    rhs_p = G.integrate_against_volume(grid, 2.0 * ric_uv + fv * fJw - fJv * fw, rho)
    rep.add(f"pairing_divergence[{case}]", rel_plus1(lhs_p - rhs_p, rhs_p))


def _two_parameter(rep: CheckReport, grid: TorusGrid, case: int, s: int, amplitude: float,
                   rho: np.ndarray, J: np.ndarray, K: np.ndarray,
                   conn: C.ConnectionField) -> None:
    """lambda_two_parameter, the mixed-variation identity
    ∂_s Λ(J, ∂_t J) − ∂_t Λ(J, ∂_s J) + ½ d tr((∂_s J) J (∂_t J)) = 0."""
    K2 = G.random_band_limited(grid, "endo", s + 22, amplitude, band=G.acs_band(grid.m))

    def path2(su, tu):
        Scomb = (G.constant_field_like(K, np.eye(grid.d)) + su * K + tu * K2)
        Sinv = P.inv(Scomb)
        Jst = P.mul(Scomb, J, Sinv)
        dt = P.mul(K2, Sinv)
        ds = P.mul(K, Sinv)
        return Jst, P.mul(dt, Jst) - P.mul(Jst, dt), \
            P.mul(ds, Jst) - P.mul(Jst, ds)

    def term_s(t_of_s):
        Jst, jt, _ = path2(t_of_s, 0.0)
        return lambda_rho(grid, rho, Jst, jt, conn)

    def term_t(t_of_t):
        Jst, _, js = path2(0.0, t_of_t)
        return lambda_rho(grid, rho, Jst, js, conn)

    d_s = richardson(term_s, _FD_STEP)
    d_t = richardson(term_t, _FD_STEP)
    _, jt0, js0 = path2(0.0, 0.0)
    # ½ d tr((∂_s J) J (∂_t J)); trace_pairing already carries the ½
    closing = G.exterior_d(grid, trace_pairing(grid, js0, J, jt0)[None], 0)
    resid2 = d_s - d_t + closing
    rep.add(f"lambda_two_parameter[{case}]", rel_plus1(resid2, closing))


def _naturality(rep: CheckReport, grid: TorusGrid, seed: int, rho: np.ndarray,
                J: np.ndarray, K: np.ndarray) -> None:
    """naturality_affine and lambda_naturality_affine under an exact affine
    map, and naturality_displacement at n = 1, on an instance seeded at small
    amplitude: that keeps sheared spectral tails below the fold, so the
    discrete identity is exact."""
    jhat_nat = anticommute_project(J, K)
    conn_nat = C.conformally_flat_volume_connection(grid, rho)
    base = ricci_form(grid, rho, J, conn_nat)
    A = np.eye(grid.d, dtype=int)
    A[0, 1] = 1  # SL(2n, Z) shear
    phi = G.AffineMap(A)
    vol_tol = 1e-9 if grid.m >= 32 else 1e-7
    lhs_map = G.pullback(grid, "form:2", base.ric, phi)
    conn_pulled = C.ConnectionField(grid, G.pullback(grid, "christoffel",
                                                     conn_nat.gamma, phi))
    rho_pulled = G.pullback(grid, f"form:{grid.d}", rho, phi)
    J_pulled = G.pullback(grid, "endo", J, phi)
    rhs_map = ricci_form(grid, rho_pulled, J_pulled, conn_pulled, volume_tol=vol_tol).ric
    rep.add("naturality_affine", rel_plus1(lhs_map - rhs_map, rhs_map))
    lam_nat = lambda_rho(grid, rho, J, jhat_nat, conn_nat)
    lam_pulled = lambda_rho(grid, rho_pulled, J_pulled,
                            G.pullback(grid, "endo", jhat_nat, phi), conn_pulled,
                            volume_tol=vol_tol)
    rep.add("lambda_naturality_affine",
            rel_plus1(G.pullback(grid, "form:1", lam_nat, phi) - lam_pulled, lam_pulled))

    if grid.n == 1:
        u = G.random_band_limited(grid, "vector", seed + 901, 0.04, band=2)
        psi = G.DisplacementMap(u)
        lhs_d = G.pullback(grid, "form:2", base.ric, psi)
        rhs_d = ricci_form(grid, G.pullback(grid, f"form:{grid.d}", rho, psi),
                           G.pullback(grid, "endo", J, psi)).ric
        rep.add("naturality_displacement", rel_plus1(lhs_d - rhs_d, rhs_d))


def _kahler_slice(rep: CheckReport, grid: TorusGrid, seed: int, amplitude: float,
                  J0: np.ndarray) -> None:
    """kahler_lambda_vanishes and kahler_lambda_vanishes_compatible: λ
    vanishes for the Levi-Civita connection when dω = 0."""
    hpot = G.random_band_limited(grid, "scalar", seed + 902, amplitude, band=G.acs_band(grid.m))
    dh_j = G.one_form_compose_j(G.exterior_d(grid, hpot[None], 0), J0)
    omega_h = G.standard_omega_field(grid) + 0.5 * G.exterior_d(grid, dh_j, 1)
    metric_h = P.mul(G.form_to_matrix(grid, omega_h), J0)
    lam_k = lambda_one_form(grid, C.levi_civita(grid, metric_h), J0)
    rep.add("kahler_lambda_vanishes", max_abs(lam_k))
    Jc = G.random_acs_symplectic(grid, seed + 903, amplitude)
    metric_c = P.mul(G.form_to_matrix(grid, G.standard_omega_field(grid)), Jc)
    lam_c = lambda_one_form(grid, C.levi_civita(grid, metric_c), Jc)
    rep.add("kahler_lambda_vanishes_compatible", max_abs(lam_c))


def _integrable_pullback(rep: CheckReport, grid: TorusGrid, seed: int, amplitude: float,
                         J0: np.ndarray) -> None:
    """integrable_11 and cohomology_pairing: the Ricci form of an integrable
    pull-back has no (2,0)+(0,2) part and pairs to zero against closed
    complements (vanishing real first Chern class)."""
    u2 = G.random_band_limited(grid, "vector", seed + 904, 0.05, band=max(1, G.acs_band(grid.m)))
    Jp = G.pullback(grid, "endo", J0, G.DisplacementMap(u2))
    ric_p = ricci_form(grid, G.standard_volume_field(grid) * np.exp(
        2 * G.random_band_limited(grid, "scalar", seed + 905, amplitude, band=G.acs_band(grid.m))),
        Jp)
    off = (G.pq_project_f(grid, ric_p.ric, 2, Jp, 2, 0)
           + G.pq_project_f(grid, ric_p.ric, 2, Jp, 0, 2))
    rep.add("integrable_11", rel_plus1(off, ric_p.ric))
    if grid.d == 2:
        # closed 0-forms are constants: the pairing is ∫ Ric itself
        pair = G.integrate(grid, ric_p.ric)
        ref = 1.0
    else:
        # seeded exact complement plus the constant harmonic part
        alpha_c = G.random_band_limited(grid, f"form:{grid.d - 3}", seed + 906, amplitude)
        closed = G.exterior_d(grid, alpha_c, grid.d - 3)
        seeded = G.random_band_limited(grid, f"form:{grid.d - 2}", seed + 907, amplitude)
        closed = closed + np.mean(seeded, axis=tuple(range(1, grid.d + 1)), keepdims=True)
        pair = G.integrate(grid, G.wedge_f(grid, ric_p.ric, closed, 2, grid.d - 2))
        ref = closed
    rep.add("cohomology_pairing", rel_plus1(pair, ref))
