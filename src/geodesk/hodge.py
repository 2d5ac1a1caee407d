"""Cauchy-Riemann operators on tangent-bundle-valued forms, their adjoints,
the Bochner-Kodaira-Nakano and Weitzenböck identities, harmonicity lemmas on
Ricci-flat Kähler tori, and the degree-(1,1) Bott-Chern rank computations."""

from __future__ import annotations

import numpy as np

from . import combi
from . import connection as C
from . import grid as G
from . import pointwise as P
from . import ricci as Ric
from .errors import DomainError
from .grid import TorusGrid
from .report import CheckReport, rel_max1, rel_plus1


# ---------------------------------------------------------------------------
# Kähler instances


class KahlerInstance:
    """Compatible (ω, J, g, ρ) with Levi-Civita data on a torus grid."""

    def __init__(self, grid: TorusGrid, omega: np.ndarray, J: np.ndarray,
                 kahler_tol: float = 1e-8):
        self.grid = grid
        self.omega = omega
        self.J = J
        d_omega = np.max(np.abs(G.exterior_d(grid, omega, 2))) if grid.d > 2 else 0.0
        if d_omega > kahler_tol:
            raise DomainError(f"instance is not symplectic (dω residual {d_omega:.2e})")
        g = P.mul(G.form_to_matrix(grid, omega), J)
        asym = np.max(np.abs(g - np.swapaxes(g, 0, 1)))
        if asym > kahler_tol:
            raise DomainError(f"(ω, J) not compatible (asymmetry {asym:.2e})")
        self.metric = 0.5 * (g + np.swapaxes(g, 0, 1))
        C._check_spd(self.metric, "KahlerInstance")
        self.ginv = P.inv(self.metric)
        self.rho = G.standard_volume_field(grid) * G.metric_sqrt_det(self.metric)
        self.lc = C.levi_civita(grid, self.metric)
        self.nabla_j_residual = float(np.max(np.abs(C.cov_endo(grid, self.lc, J))))
        if self.nabla_j_residual > kahler_tol:
            raise DomainError(f"∇J residual {self.nabla_j_residual:.2e}: not Kähler")

    def frame(self) -> np.ndarray:
        """Pointwise g-orthonormal frame from Cholesky; columns indexed last."""
        L = np.linalg.cholesky(np.moveaxis(self.metric, (0, 1), (-2, -1)))
        return P.inv(np.moveaxis(L, (-2, -1), (1, 0)))  # [i, a] = (f_a)^i


def flat_instance(grid: TorusGrid) -> KahlerInstance:
    return KahlerInstance(grid, G.standard_omega_field(grid), G.standard_j_field(grid))


def conformal_instance(grid: TorusGrid, phi: np.ndarray) -> KahlerInstance:
    if grid.n != 1:
        raise DomainError("conformal instances are 2-dimensional")
    return KahlerInstance(grid, G.standard_omega_field(grid) * np.exp(2 * phi),
                          G.standard_j_field(grid))


def potential_instance(grid: TorusGrid, h: np.ndarray,
                       kahler_tol: float = 1e-8) -> KahlerInstance:
    """ω0 + ½ d(dh∘J0) with the constant J0."""
    J0 = G.standard_j_field(grid)
    dh_j = G.one_form_compose_j(G.exterior_d(grid, h[None], 0), J0)
    omega = G.standard_omega_field(grid) + 0.5 * G.exterior_d(grid, dh_j, 1)
    return KahlerInstance(grid, omega, J0, kahler_tol)


# ---------------------------------------------------------------------------
# operators on TM-valued (0, q)-forms


def anti_linearity_residual(J: np.ndarray, x: np.ndarray, q: int) -> float:
    """Complex anti-linearity defect in the form slots."""
    if q == 0:
        return 0.0
    if q == 1:
        out = P.mul(x, J) + P.mul(J, x)
    elif q == 2:
        out = (P.contract("akj...,ki...->aij...", x, J)
               + P.contract("ak...,kij...->aij...", J, x))
    else:
        raise DomainError("q must be 0, 1, or 2")
    return rel_max1(out, x)


def dbar_q0(grid: TorusGrid, J: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(∂̄v)u = −½ J (L_v J) u; connection-free and exact for any J."""
    return -0.5 * P.mul(J, G.lie_endo(grid, v, J))


def dbar_q0_kahler(inst: KahlerInstance, v: np.ndarray) -> np.ndarray:
    """(∂̄X)(u) = ½(∇_u X + J ∇_{Ju} X); equals dbar_q0 when ∇J = 0."""
    nv = P.contract("ji...->ij...", C.cov(inst.grid, inst.lc, v, "u"))  # [i, j] = ∇_j v^i
    return 0.5 * (nv + P.mul(inst.J, nv, inst.J))


def dbar_q1(inst: KahlerInstance, jhat: np.ndarray,
            nJh: np.ndarray | None = None) -> np.ndarray:
    """(∂̄Ĵ)(u,v) = ½((∇_u Ĵ)v − (∇_v Ĵ)u − (∇_{Ju} Ĵ)Jv + (∇_{Jv} Ĵ)Ju);
    ``nJh`` is ∇Ĵ when the caller already holds it.  The four terms are
    summed into one output, left to right, the third term
    t3[a, i, j] = ((∇_{J∂_i} Ĵ) J∂_j)^a = J^k_i (∇_k Ĵ)^a_m J^m_j and its
    transpose in (i, j) by ``P.contract_add``, so beside ∇Ĵ only the result
    is a d³ field."""
    J = inst.J
    if nJh is None:
        nJh = C.cov_endo(inst.grid, inst.lc, jhat)  # [k, a, b] = (∇_k Ĵ)^a_b
    t1 = np.swapaxes(nJh, 0, 1)  # [a, i, j] = ((∇_i Ĵ)∂_j)^a
    out = t1 - np.swapaxes(t1, 1, 2)
    P.contract_add(out, -1, "ki...,kam...,mj...->aij...", J, nJh, J)
    P.contract_add(out, 1, "kj...,kam...,mi...->aij...", J, nJh, J)
    out *= 0.5
    return out


def dbar_adjoint_q1(inst: KahlerInstance, jhat: np.ndarray,
                    nJh: np.ndarray | None = None) -> np.ndarray:
    """∂̄*Ĵ = −Σ (∇_{e_i} Ĵ) e_i as a vector field: the trace of ``nJh``
    (as in ``dbar_q1``) when the caller holds ∇Ĵ, else the g-traced
    ``cov``, which never builds the stacked ∇Ĵ."""
    if nJh is None:
        return -C.cov(inst.grid, inst.lc, jhat, "ud", trace=(inst.ginv, 1))
    return -P.contract("ij...,iaj...->a...", inst.ginv, nJh)


def dbar_adjoint_q2(inst: KahlerInstance, tau: np.ndarray) -> np.ndarray:
    """(∂̄*τ)(u) = −Σ (∇_{e_i} τ)(e_i, u)."""
    return -C.cov(inst.grid, inst.lc, tau, "udd", trace=(inst.ginv, 1))


def l2_inner_q0(inst: KahlerInstance, x: np.ndarray, y: np.ndarray) -> float:
    val = P.contract("ij...,i...,j...->...", inst.metric, x, y)
    return G.integrate_against_volume(inst.grid, val, inst.rho)


def l2_inner_q1(inst: KahlerInstance, x: np.ndarray, y: np.ndarray) -> float:
    """∫ tr(x* y) ρ with the metric adjoint."""
    val = P.contract("ij...,pi...,pq...,qj...->...", inst.ginv, x, inst.metric, y)
    return G.integrate_against_volume(inst.grid, val, inst.rho)


def l2_inner_q2(inst: KahlerInstance, x: np.ndarray, y: np.ndarray) -> float:
    """½ ∫ g^{ik} g^{jl} g_{ab} x^a_{ij} y^b_{kl} ρ; ``P.contract`` takes the
    chain one grid slice at a time, so no d³ intermediate is built."""
    val = 0.5 * P.contract("ik...,jl...,ab...,aij...,bkl...->...",
                           inst.ginv, inst.ginv, inst.metric, x, y)
    return G.integrate_against_volume(inst.grid, val, inst.rho)


def endo_adjoint(inst: KahlerInstance, E: np.ndarray) -> np.ndarray:
    """g-adjoint E* = g^{-1} Eᵀ g."""
    return P.contract("ik...,lk...,lj...->ij...", inst.ginv, E, inst.metric)


def curvature_traces(inst: KahlerInstance, jhat: np.ndarray,
                     w_mat: np.ndarray) -> list[np.ndarray]:
    """The traces of R^l_{kij} that ``bkn_residual`` (the first three) and
    ``weitzenbock_residual`` (the last two) read, from one sweep of
    ``connection.contract_curvature``: J^k_l R^l_{kij}; Σ_a R^l_{kij} f_a^i
    (J f_a)^j over the Cholesky orthonormal frame f; 𝒯(Ĵ)^l_j = R^l_{kij}
    Ĵ^k_m g^{im}; ŵ_{pq} g^{pk} R^q_{kij}; and R^l_{kvj} g^{jk}."""
    J, ginv = inst.J, inst.ginv
    f = inst.frame()  # [i, a]
    frame_pairs = P.contract("ia...,ja...->ij...", f, P.contract("ij...,ja...->ia...", J, f))
    del f  # not held through the sweep
    return C.contract_curvature(inst.grid, inst.lc, ("lkij...,kl...->ij...", J),
                                ("lkij...,ij...->lk...", frame_pairs),
                                ("lkij...,ki...->lj...", P.contract("km...,im...->ki...", jhat, ginv)),
                                ("qkij...,qk...->ij...", P.contract("pq...,pk...->qk...", w_mat, ginv)),
                                ("lkvj...,jk...->lv...", ginv))


def bkn_residual(inst: KahlerInstance, jhat: np.ndarray, lhs: np.ndarray,
                 curv: list[np.ndarray]) -> dict:
    """Residual of ∂̄*∂̄Ĵ + ∂̄∂̄*Ĵ = ½∇*∇Ĵ + ½[JQ, Ĵ] + 𝒯(Ĵ), normalized by
    ‖Ĵ‖∞, with the two-expression agreement for the Ricci endomorphism Q:
    g(Qu, v) = ½ tr(J R(u, v)), and Q u = −½ Σ R(f_a, J f_a) u.
    𝒯(Ĵ)u = Σ R(e_i, u) Ĵ e_i.

    ``lhs`` is ∂̄*∂̄Ĵ + ∂̄∂̄*Ĵ, assembled by the caller from the ∂̄Ĵ and ∂̄*Ĵ
    that its other checks read too (``bkn_suite``); ``curv`` is the first
    three of ``curvature_traces``."""
    grid, lc, J, ginv = inst.grid, inst.lc, inst.J, inst.ginv
    # ∇*∇Ĵ, nonnegative; taken first, so that Q, Qf and JQ are not held
    # through the d³ transients of its two derivatives
    rough = -C.cov(grid, lc, C.cov_endo(grid, lc, jhat), "dud", trace=(ginv, 0))
    jr, rf, tj = curv
    Q = P.contract("ik...,jk...->ij...", ginv, 0.5 * jr)
    Qf = -0.5 * rf
    jq = P.mul(J, Q)
    rhs = (0.5 * rough
           + 0.5 * (P.mul(jq, jhat) - P.mul(jhat, jq))
           + tj)
    return {"identity": rel_max1(lhs - rhs, jhat), "q_two_ways": rel_max1(Q - Qf, Q)}


def weitzenbock_residual(inst: KahlerInstance, what: np.ndarray,
                         curv: list[np.ndarray]) -> float:
    """Residual of (d*d + dd*)ŵ = ∇*∇ŵ + frame curvature terms on 2-forms;
    ``curv`` is the last two of ``curvature_traces``."""
    grid = inst.grid
    g, ginv = inst.metric, inst.ginv
    hodge = G.exterior_d(grid, G.codiff_f(grid, what, 2, g), 1)
    if grid.d > 2:
        hodge = hodge + G.codiff_f(grid, G.exterior_d(grid, what, 2), 3, g)
    w_mat = G.form_to_matrix(grid, what)
    rough = -C.cov(grid, inst.lc, C.cov(grid, inst.lc, w_mat, "dd"), "ddd", trace=(ginv, 0))
    t1, r_endo = curv
    t2 = P.contract("il...,lj...->ij...", w_mat, r_endo)
    t3 = P.contract("jl...,li...->ij...", w_mat, r_endo)
    lhs_mat = G.form_to_matrix(grid, hodge) - rough
    rhs_mat = t1 + t2 - t3
    return rel_max1(lhs_mat - rhs_mat, w_mat)


# ---------------------------------------------------------------------------
# flat-torus spectral helpers


def dbar_exact_part(flat: KahlerInstance, jhat: np.ndarray) -> np.ndarray:
    """∂̄-exact part ∂̄v of Ĵ on the flat instance: v = 2·G(∂̄*Ĵ), G the flat
    Green's operator, since ∂̄*∂̄ = ½∇*∇ on vectors (Fourier-exact)."""
    v = 2.0 * G.flat_green(flat.grid, dbar_adjoint_q1(flat, jhat))
    return dbar_q0(flat.grid, flat.J, v)


def project_coclosed_q1(flat: KahlerInstance, jhat: np.ndarray) -> np.ndarray:
    """Projection onto ker ∂̄* along im ∂̄ on the flat instance (Fourier-exact)."""
    return jhat - dbar_exact_part(flat, jhat)


def fg_decompose(base: KahlerInstance, jhat: np.ndarray, dbar_tol: float = 1e-7):
    """The unique mean-zero (f, g) with Λ(J, Ĵ) = −df∘J + dg on the flat
    instance, by the flat Poisson solves Δg = d*Λ and Δf = d*(Λ∘J).

    Returns (f, g, Λ, ∂̄ residual, plug-back residual): the residuals are
    ∂̄Ĵ relative to Ĵ and Λ + df∘J − dg relative to Λ (``rel_max1``).  ∇Ĵ is
    taken once, for the ∂̄ guard and for Λ.  Raises unless ∂̄Ĵ ≈ 0 and the
    split plugs back."""
    grid = base.grid
    nJh = C.cov_endo(grid, base.lc, jhat)
    dbar = rel_max1(dbar_q1(base, jhat, nJh), jhat)
    if dbar > dbar_tol:
        raise DomainError(f"fg_decompose: ∂̄Ĵ residual {dbar:.2e}")
    lam = Ric.lambda_rho(grid, base.rho, base.J, jhat, base.lc, nJh=nJh)
    del nJh
    g_src = G.codiff_f(grid, lam, 1)[0]
    f_src = G.codiff_f(grid, G.one_form_compose_j(lam, base.J), 1)[0]
    g = G.poisson_solve(grid, g_src - float(np.mean(g_src)))
    f = G.poisson_solve(grid, f_src - float(np.mean(f_src)))
    recon = -G.one_form_compose_j(G.exterior_d(grid, f[None], 0), base.J) \
        + G.exterior_d(grid, g[None], 0)
    plugback = rel_max1(lam - recon, lam)
    if plugback > 1e-6:
        raise DomainError(f"fg_decompose: inconsistent Λ (residual {plugback:.2e})")
    return f, g, lam, dbar, plugback


def harmonic_mean_q1(grid: TorusGrid, jhat: np.ndarray) -> np.ndarray:
    """Flat-instance harmonic projection: the constant mode."""
    mean = np.mean(jhat, axis=tuple(range(2, jhat.ndim)), keepdims=True)
    return np.broadcast_to(mean, jhat.shape).copy()


def divergence_free_pair_field(grid: TorusGrid, seed: int, amplitude: float) -> np.ndarray:
    """Vector field with div v = div(J0 v) = 0: modes projected off span{k, J0ᵀk}."""
    v = G.random_band_limited(grid, "vector", seed, amplitude, band=G.acs_band(grid.m))
    V = grid.fft(v)  # [i] + grid
    kax = grid._cache()["k"]
    kvec = np.stack([np.broadcast_to(kax[j].astype(float), grid.shape)
                     for j in range(grid.d)])
    J0 = G.standard_j(grid.n)
    jk = P.contract("ji,j...->i...", J0, kvec)
    for w in (kvec, jk):
        nrm = P.contract("i...,i...->...", w, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(nrm > 0, P.contract("i...,i...->...", w, V) /
                            np.where(nrm > 0, nrm, 1.0), 0.0)
        V = V - coef * w
    return grid.ifft(V).real


# ---------------------------------------------------------------------------
# suites


def harmonic_lemma_suite(rep: CheckReport, grid: TorusGrid, seed: int,
                         amplitude: float) -> None:
    """Hamiltonian/gradient divergences, the contraction-star identity, the
    infinitesimal-compatibility identity, self-adjointness of Lie derivatives,
    the Λ = −df∘J + dg split, harmonicity of adjoints, and the parallel-form
    norm identities on the flat Ricci-flat Kähler torus.  Each group of
    checks is a section on the flat instance whose fields die when it
    returns."""
    inst = flat_instance(grid)
    _divergences(rep, inst, seed, amplitude)
    v = G.random_band_limited(grid, "vector", seed + 1, amplitude, band=G.acs_band(grid.m))
    Jv = _star_contraction(rep, inst, v)
    jhat_v = _lie_compatibility(rep, inst, seed, amplitude, v)
    _lambda_split(rep, inst, v, Jv, jhat_v)
    _adjoint_harmonic(rep, inst, seed, amplitude)
    skew = _parallel_norms_endo(rep, inst, seed, amplitude)
    _skew_two_form(rep, inst, skew)
    _holomorphic_direction(rep, inst, seed, amplitude)


def _divergences(rep: CheckReport, inst: KahlerInstance, seed: int, amplitude: float) -> None:
    """Hamiltonian fields are divergence-free; gradients diverge by −ΔH."""
    grid = inst.grid
    H = G.random_band_limited(grid, "scalar", seed, amplitude, band=G.acs_band(grid.m))
    vH = Ric.hamiltonian_vector_field(grid, inst.omega, H)
    rep.add("hamiltonian_divergence",
            float(np.max(np.abs(G.divergence_frho(grid, vH, inst.rho)))))
    gradH = P.contract("ij...,j...->i...", inst.ginv, G.exterior_d(grid, H[None], 0))
    rep.add("gradient_divergence",
            float(np.max(np.abs(G.divergence_frho(grid, gradH, inst.rho)
                                + G.laplacian(grid, H)))))


def _star_contraction(rep: CheckReport, inst: KahlerInstance, v: np.ndarray) -> np.ndarray:
    """*ι(v)ω = ι(Jv)ρ; returns Jv, which the Λ-split section reads."""
    grid = inst.grid
    lhs = G.star_f(grid, G.interior_f(grid, v, inst.omega, 2), 1)
    Jv = P.contract("ij...,j...->i...", inst.J, v)
    rhs = G.interior_f(grid, Jv, inst.rho, grid.d)
    rep.add("star_contraction", float(np.max(np.abs(lhs - rhs))))
    return Jv


def _lie_compatibility(rep: CheckReport, inst: KahlerInstance, seed: int, amplitude: float,
                       v: np.ndarray) -> np.ndarray:
    """Infinitesimal compatibility of a (1,1)-form along a Lie flow, and the
    self-adjointness defects of L_v J and of a gradient's Lie derivative;
    returns L_v J, which the Λ-split section reads."""
    grid, J, omega = inst.grid, inst.J, inst.omega
    band = G.acs_band(grid.m)
    t11 = G.pq_project_f(grid, G.random_band_limited(grid, "form:2", seed + 2, amplitude,
                                                     band=band), 2, J, 1, 1).real
    tau_hat = G.lie_form(grid, v, t11, 2)
    jhat_v = G.lie_endo(grid, v, J)
    th_m = G.form_to_matrix(grid, tau_hat)
    t_m = G.form_to_matrix(grid, t11)
    lhs_c = th_m - P.mul(J.swapaxes(0, 1), th_m, J)
    rhs_c = P.mul(J.swapaxes(0, 1), t_m, jhat_v) + P.mul(jhat_v.swapaxes(0, 1), t_m, J)
    rep.add("lie_compatibility", rel_max1(lhs_c - rhs_c, rhs_c))

    # the same identity with τ = ω ties the (1,1)-defect of dι(v)ω to the
    # self-adjointness defect of L_v J
    dv_omega = G.exterior_d(grid, G.interior_f(grid, v, omega, 2), 1)
    dm = G.form_to_matrix(grid, dv_omega)
    w_mat = G.form_to_matrix(grid, omega)
    lhs_s = dm - P.mul(J.swapaxes(0, 1), dm, J)
    rhs_s = P.mul(J.swapaxes(0, 1), w_mat, jhat_v) + P.mul(jhat_v.swapaxes(0, 1), w_mat, J)
    rep.add("self_adjoint_defect", rel_max1(lhs_s - rhs_s, rhs_s))
    # gradient flows have self-adjoint Lie derivative
    F2 = G.random_band_limited(grid, "scalar", seed + 3, amplitude, band=band)
    gradF = P.contract("ij...,j...->i...", inst.ginv, G.exterior_d(grid, F2[None], 0))
    jhat_grad = G.lie_endo(grid, gradF, J)
    defect = jhat_grad - endo_adjoint(inst, jhat_grad)
    rep.add("self_adjoint_gradient", rel_max1(defect, jhat_grad))
    return jhat_v


def _lambda_split(rep: CheckReport, inst: KahlerInstance, v: np.ndarray, Jv: np.ndarray,
                  jhat_v: np.ndarray) -> None:
    """Λ(J, Ĵ) = −df∘J + dg via Poisson solves for a ∂̄-closed Ĵ, and the
    coclosed projection kills Λ."""
    grid, J, rho = inst.grid, inst.J, inst.rho
    Cmat = np.zeros((grid.d, grid.d))
    Cmat[0, 0] = 1.0
    Cmat[grid.n, grid.n] = -1.0
    const = Ric.anticommute_project(J, G.constant_field(grid, Cmat))
    jhat = const + jhat_v
    f, gsc, _, _, plugback = fg_decompose(inst, jhat)
    rep.add("lambda_fg_plugback", plugback)
    fv = G.divergence_frho(grid, v, rho)
    fJv = G.divergence_frho(grid, Jv, rho)
    rep.add("lambda_fg_lie_oracle",
            rel_max1(max(np.max(np.abs(f - fv)), np.max(np.abs(gsc - fJv))), fv))

    jhat_cc = project_coclosed_q1(inst, jhat)
    lam_cc = Ric.lambda_rho(grid, rho, J, jhat_cc)
    rep.add("lambda_coclosed_zero", rel_max1(lam_cc, jhat_cc))


def _adjoint_harmonic(rep: CheckReport, inst: KahlerInstance, seed: int,
                      amplitude: float) -> None:
    """Harmonic representatives stay harmonic under the metric adjoint."""
    grid = inst.grid
    jh_h = harmonic_mean_q1(grid, Ric.anticommute_project(
        inst.J, G.random_band_limited(grid, "endo", seed + 4, amplitude,
                                      band=G.acs_band(grid.m))))
    jh_star = endo_adjoint(inst, jh_h)
    n_star = C.cov_endo(grid, inst.lc, jh_star)
    resid_h = max(
        float(np.max(np.abs(dbar_q1(inst, jh_star, n_star)))),
        float(np.max(np.abs(dbar_adjoint_q1(inst, jh_star, n_star)))),
    )
    rep.add("adjoint_harmonic", rel_max1(resid_h, jh_h))


def _parallel_norms_endo(rep: CheckReport, inst: KahlerInstance, seed: int,
                         amplitude: float) -> np.ndarray:
    """The parallel norm identity for a seeded skew-adjoint Ĵ; returns Ĵ,
    whose 2-form the next section reads."""
    grid, rho = inst.grid, inst.rho
    raw = Ric.anticommute_project(inst.J, G.random_band_limited(
        grid, "endo", seed + 5, amplitude, band=G.acs_band(grid.m)))
    skew = 0.5 * (raw - endo_adjoint(inst, raw))
    nskew = C.cov_endo(grid, inst.lc, skew)  # once, for ∂̄Ĵ, ∂̄*Ĵ and |∇Ĵ|²
    dq = dbar_q1(inst, skew, nskew)
    a2 = l2_inner_q2(inst, dq, dq)
    da = dbar_adjoint_q1(inst, skew, nskew)
    a0 = l2_inner_q0(inst, da, da)
    an = G.integrate_against_volume(grid, P.contract("kab...,kab...->...", nskew, nskew), rho)
    rep.add("parallel_norms_endo", rel_max1(a2 + a0 - 0.5 * an, an))
    return skew


def _skew_two_form(rep: CheckReport, inst: KahlerInstance, skew: np.ndarray) -> None:
    """ŵ = g(Ĵ·, ·) of a skew-adjoint Ĵ is a 2-form with no (1,1)-part whose
    parallel norm identity holds."""
    grid = inst.grid
    what_m = P.mul(inst.metric, skew)
    rep.add("skew_two_form_antisymmetric",
            rel_max1(what_m + np.swapaxes(what_m, 0, 1), what_m))
    what = G.form_from_matrix(grid, what_m)
    w11 = G.pq_project_f(grid, what, 2, inst.J, 1, 1)
    rep.add("skew_two_form_no_11_part", rel_max1(w11, what))
    b_d = G.l2_inner_form(grid, G.exterior_d(grid, what, 2),
                          G.exterior_d(grid, what, 2), 3) if grid.d > 2 else 0.0
    cod = G.codiff_f(grid, what, 2)
    b_c = G.l2_inner_form(grid, cod, cod, 1)
    nw = C.cov(grid, inst.lc, what_m, "dd")
    b_n = 0.5 * G.integrate_against_volume(
        grid, P.contract("kij...,kij...->...", nw, nw), inst.rho)
    rep.add("parallel_norms_form", rel_max1(b_d + b_c - b_n, b_n))


def _holomorphic_direction(rep: CheckReport, inst: KahlerInstance, seed: int,
                           amplitude: float) -> None:
    """Holomorphic direction: arrange div v = div Jv = 0 and verify
    Λ(J, L_vJ) = 0."""
    grid, J, rho = inst.grid, inst.J, inst.rho
    v_hol = divergence_free_pair_field(grid, seed + 6, amplitude)
    rep.add("holomorphic_divergence", float(max(
        np.max(np.abs(G.divergence_frho(grid, v_hol, rho))),
        np.max(np.abs(G.divergence_frho(
            grid, P.contract("ij...,j...->i...", J, v_hol), rho))))))
    lam_h = Ric.lambda_rho(grid, rho, J, G.lie_endo(grid, v_hol, J))
    rep.add("holomorphic_lambda_zero", rel_max1(lam_h, v_hol))


def bkn_suite(rep: CheckReport, grid: TorusGrid, seed: int, amplitude: float) -> None:
    """Flat and curved Bochner-Kodaira-Nakano and Weitzenböck identities with
    adjointness checks and Laplacian positivity.  Each instance is built
    after the previous one's checks are done and dropped."""
    n = grid.n
    x = grid.coords()
    _bkn_checks(rep, "flat", flat_instance(grid), seed, amplitude)
    if n == 1:
        phi = amplitude * np.sin(x[0]) * np.cos(x[1])
        _bkn_checks(rep, "conformal", conformal_instance(grid, phi), seed, amplitude)
    else:
        h = amplitude * (np.sin(x[0]) * np.cos(x[n]) + np.cos(x[1] + x[n + 1]))
        _bkn_checks(rep, "potential", potential_instance(grid, h), seed, amplitude)


def _bkn_checks(rep: CheckReport, tag: str, inst: KahlerInstance, seed: int,
                amplitude: float) -> None:
    """bkn_suite's checks on one instance."""
    grid = inst.grid
    band = G.acs_band(grid.m)
    key = "flat_identity" if tag == "flat" else (
        "curved_identity_n1" if grid.n == 1 else "curved_identity_n2")
    jhat = Ric.anticommute_project(inst.J, G.random_band_limited(grid, "endo", seed + 11,
                                                                 amplitude, band=band))
    rep.add(f"anti_linearity[{tag}]", anti_linearity_residual(inst.J, jhat, 1))

    # ∇Ĵ, ∂̄Ĵ and ∂̄*Ĵ once each.  Every pairing that reads ∂̄Ĵ runs first,
    # and ∇Ĵ, ∂̄Ĵ and τ are dropped before the curvature sweep: kept alive
    # across the transients below, they would raise the peak.  One sweep
    # gives the curvature traces of both the BKN and the Weitzenböck check.
    nJh = C.cov_endo(grid, inst.lc, jhat)
    dq1 = dbar_q1(inst, jhat, nJh)
    da1 = dbar_adjoint_q1(inst, jhat, nJh)
    del nJh
    tau = dbar_q1(inst, Ric.anticommute_project(
        inst.J, G.random_band_limited(grid, "endo", seed + 13, amplitude, band=band)))
    lhs_b = l2_inner_q2(inst, dq1, tau)
    lap = l2_inner_q2(inst, dq1, dq1) + l2_inner_q0(inst, da1, da1)
    lhs = dbar_adjoint_q2(inst, dq1) + dbar_q0_kahler(inst, da1)
    del dq1
    anti_q2 = anti_linearity_residual(inst.J, tau, 2)
    rhs_b = l2_inner_q1(inst, jhat, dbar_adjoint_q2(inst, tau))
    del tau
    what = G.random_band_limited(grid, "form:2", seed + 14, amplitude, band=band)
    curv = curvature_traces(inst, jhat, G.form_to_matrix(grid, what))
    out = bkn_residual(inst, jhat, lhs, curv[:3])
    del lhs
    rep.add(key, out["identity"])
    rep.add(f"q_two_ways[{tag}]", out["q_two_ways"])

    # adjointness as independent integral identities
    vv = G.random_band_limited(grid, "vector", seed + 12, amplitude, band=band)
    lhs_a = l2_inner_q1(inst, dbar_q0_kahler(inst, vv), jhat)
    rhs_a = l2_inner_q0(inst, vv, da1)
    rep.add(f"adjoint_q1[{tag}]", rel_plus1(lhs_a - rhs_a, rhs_a))
    rep.add(f"anti_linearity_q2[{tag}]", anti_q2)
    rep.add(f"adjoint_q2[{tag}]", rel_plus1(lhs_b - rhs_b, rhs_b))

    # Laplacian positivity
    rep.add(f"laplacian_positivity[{tag}]", max(0.0, -lap))

    # Weitzenböck on 2-forms
    wkey = "weitzenbock_flat" if tag == "flat" else "weitzenbock_curved"
    rep.add(wkey, weitzenbock_residual(inst, what, curv[3:]))


# ---------------------------------------------------------------------------
# Bott-Chern suite


def l0_operator(inst: KahlerInstance, f: np.ndarray) -> np.ndarray:
    """L0 f = <d(df∘J), ω> computed from the definition."""
    grid = inst.grid
    df_j = G.one_form_compose_j(G.exterior_d(grid, f[None], 0), inst.J)
    two = G.exterior_d(grid, df_j, 1)
    return two_form_omega_inner(inst, two)


def two_form_omega_inner(inst: KahlerInstance, two: np.ndarray) -> np.ndarray:
    """<τ, ω> with <τ, ω> ω^n/n! := τ ∧ ω^{n−1}/(n−1)!."""
    grid = inst.grid
    if grid.n == 1:
        return two[0] / inst.rho[0]
    wn1 = Ric.omega_power(grid, inst.omega, grid.n - 1)
    return G.wedge_f(grid, two, wn1, 2, grid.d - 2)[0] / inst.rho[0]


def dplus_kernel_ranks(grid: TorusGrid, kmax: int = 2) -> dict:
    """Fourier-block ranks of d⁺ on the flat four-torus, via mode symbols.

    For every nonzero mode the kernel of the d⁺ block equals the d-closed span
    (dimension 1), so d(ker d⁺) = 0 and the induced Bott-Chern defect is 0.
    The d⁺ = (1 + ⋆)d blocks of all nonzero modes in [−kmax, kmax]⁴ take one
    batched SVD; the symbol of d is i times a real matrix, and the factor i
    is dropped: it changes no singular value.
    """
    d = grid.d
    if d != 4:
        raise DomainError("dplus_kernel_ranks needs a four-dimensional torus")
    eye = np.eye(combi.n_combos(d, 2))
    # flat Hodge star on 2-forms as a 6×6 matrix
    S = np.column_stack([combi.star_coef(col, d, 2, np.eye(d), 1.0, G.vol_sign(grid.n))
                         for col in eye])
    sv = np.linalg.svd((eye + S) @ combi.interior_symbol(combi.modes(d, kmax), d, 2),
                       compute_uv=False)  # [M, d]
    null_dim = np.sum(sv < 0.5, axis=1)
    # the d-closed span of λ ∝ k has dimension 1
    kappa1 = int(np.sum(np.maximum(0, null_dim - 1)))
    return {"kappa1": kappa1, "min_gap": float(np.min(sv[sv >= 0.5], initial=np.inf))}


def bott_chern_suite(rep: CheckReport, grid: TorusGrid, seed: int,
                     amplitude: float) -> None:
    """The Nijenhuis defect of d(df∘J), the trace operator L0, the d⁺ kernel
    ranks on the flat four-torus, and the self-dual pairing obstruction.
    Each group of checks is a section whose fields die when it returns; the
    Kähler instance is built after the defect sections."""
    f = G.random_band_limited(grid, "scalar", seed, amplitude, band=G.acs_band(grid.m))
    df = G.exterior_d(grid, f[None], 0)
    _ddc_nijenhuis(rep, grid, seed, amplitude, df)
    _ddc_integrable(rep, grid, seed, df)
    inst = flat_instance(grid) if grid.n > 1 else conformal_instance(
        grid, amplitude * np.sin(grid.coords()[0]))
    _l0_checks(rep, inst, seed, amplitude, f, df)
    if grid.n == 2:
        _selfdual_checks(rep, inst)


def _ddc_nijenhuis(rep: CheckReport, grid: TorusGrid, seed: int, amplitude: float,
                   df: np.ndarray) -> None:
    """d(df∘J)(u,v) − d(df∘J)(Ju,Jv) = df(J N(u,v)), both sides independent."""
    J_non = G.random_band_limited(grid, "acs", seed + 1, amplitude, band=1)
    tau_f = G.exterior_d(grid, G.one_form_compose_j(df, J_non), 1)
    tm = G.form_to_matrix(grid, tau_f)
    lhs = tm - P.mul(J_non.swapaxes(0, 1), tm, J_non)
    N, _ = C.nijenhuis(grid, J_non)
    jn = P.contract("kl...,lij...->kij...", J_non, N)
    rhs = P.contract("k...,kij...->ij...", df, jn)
    rep.add("ddc_nijenhuis", rel_max1(lhs - rhs, rhs))


def _ddc_integrable(rep: CheckReport, grid: TorusGrid, seed: int, df: np.ndarray) -> None:
    """An integrable structure has no d(df∘J) defect."""
    u = G.random_band_limited(grid, "vector", seed + 2, 0.05, band=1)
    J_int = G.pullback(grid, "endo", G.standard_j_field(grid), G.DisplacementMap(u))
    tau_i = G.exterior_d(grid, G.one_form_compose_j(df, J_int), 1)
    ti = G.form_to_matrix(grid, tau_i)
    rep.add("ddc_integrable", rel_max1(ti - P.mul(J_int.swapaxes(0, 1), ti, J_int), ti))


def _l0_checks(rep: CheckReport, inst: KahlerInstance, seed: int, amplitude: float,
               f: np.ndarray, df: np.ndarray) -> None:
    """L0 agrees with d*d on Kähler instances, and L0 f = <dλ, ω> solves for
    an admissible seeded λ = a df∘J + dg."""
    grid = inst.grid
    l0f = l0_operator(inst, f)
    lap = G.laplacian(grid, f, inst.metric)
    rep.add("l0_vs_laplacian", rel_max1(l0f - lap, lap))
    g2 = G.random_band_limited(grid, "scalar", seed + 3, amplitude, band=G.acs_band(grid.m))
    lam_adm = 0.7 * G.one_form_compose_j(df, inst.J) + G.exterior_d(grid, g2[None], 0)
    src = two_form_omega_inner(inst, G.exterior_d(grid, lam_adm, 1))
    mean_src = G.integrate_against_volume(grid, src, inst.rho) \
        / G.integrate(grid, inst.rho)
    rep.add("l0_source_mean_zero", abs(mean_src))
    sol = G.poisson_solve(grid, src - mean_src, inst.metric if grid.n == 1 else None)
    rep.add("l0_solve_plugback", rel_max1(l0_operator(inst, sol) - src, src))


def _selfdual_checks(rep: CheckReport, inst: KahlerInstance) -> None:
    """The d⁺ kernel ranks, and the self-dual pairing obstruction on the flat
    four-torus."""
    grid = inst.grid
    ranks = dplus_kernel_ranks(grid)
    rep.add_flag("dplus_kappa1", ranks["kappa1"] == 0)
    rep.add_flag("dplus_gap", ranks["min_gap"] >= 0.5)
    # self-dual harmonic forms include ω with <ω, ω> = n ≠ 0, so the
    # vanishing-pairing branch fails and the Bott-Chern defect is zero
    pairing = two_form_omega_inner(inst, inst.omega)
    rep.add("selfdual_pairing", float(np.max(np.abs(pairing - grid.n))))
    star_w = G.star_f(grid, inst.omega, 2, inst.metric)
    rep.add("omega_self_dual", float(np.max(np.abs(star_w - inst.omega))))
    # b^{2,+} = 3 on the flat four-torus: constant self-dual forms
    consts = np.eye(6)
    sd = []
    for c in consts:
        w = np.broadcast_to(c.reshape(6, 1, 1, 1, 1), (6,) + grid.shape).copy()
        sd.append((G.star_f(grid, w, 2) + w).reshape(6, -1)[:, 0] / 2.0)
    rank = int(np.linalg.matrix_rank(np.column_stack(sd), tol=1e-8))
    rep.add_flag("b2_plus_is_three", rank == 3)
