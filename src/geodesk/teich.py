"""Weil-Petersson form and pairing on Ricci-flat torus structures, dimension
counts by Fourier-block ranks, the symplectic connection over the space of
symplectic forms, and the correspondence between infinitesimal complex
structures and (n−1,1)-forms against a holomorphic volume form."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import combi
from . import connection as C
from . import grid as G
from . import hodge as H
from . import pointwise as P
from . import ricci as Ric
from .combi import standard_j
from .errors import DomainError, UsageError
from .grid import TorusGrid
from .report import CheckReport, max_abs, rel_max1, rel_plus1


def c_const(n: int) -> complex:
    """(−1)^{n(n+1)/2} i^n: 1 for even n, −i for odd n."""
    return (-1.0) ** (n * (n + 1) // 2) * (1j) ** n


# ---------------------------------------------------------------------------
# base point and tangent data


# The base point of every tangent computation below is the flat Ricci-flat
# Kähler instance (ρ, J0, ω0) of ``hodge.flat_instance``, volume (2π)^{2n}.


@dataclass(frozen=True)
class WPVector:
    """Tangent data at the flat base: Ĵ with ∂̄Ĵ ≈ 0 and what
    ``hodge.fg_decompose`` returns for it: the (f, g) split, Λ(J, Ĵ) and the
    relative residuals of ∂̄Ĵ and of the plug-back.  A constant Ĵ has Λ = 0
    and the unique split (0, 0), with nothing to compute."""

    base: H.KahlerInstance
    jhat: np.ndarray
    f: np.ndarray = field(init=False)
    g: np.ndarray = field(init=False)
    lam: np.ndarray = field(init=False)
    dbar_residual: float = field(init=False)
    plugback_residual: float = field(init=False)

    def __post_init__(self):
        grid = self.base.grid
        if G.is_constant(grid, self.jhat):
            zero = np.zeros(grid.shape)
            split = zero, zero, np.broadcast_to(zero, (grid.d,) + grid.shape), 0.0, 0.0
        else:
            split = H.fg_decompose(self.base, self.jhat)
        for name, val in zip(("f", "g", "lam", "dbar_residual", "plugback_residual"), split):
            object.__setattr__(self, name, val)


def wp_form(x1: WPVector, x2: WPVector) -> float:
    """Ω_J(Ĵ1, Ĵ2) = ∫ (½ tr(Ĵ1 J Ĵ2) − f1 g2 + f2 g1) ρ."""
    if x1.base.grid != x2.base.grid:
        raise UsageError("wp_form: mismatched bases")
    base = x1.base
    tr = Ric.trace_pairing(base.grid, x1.jhat, base.J, x2.jhat)
    dens = tr - x1.f * x2.g + x2.f * x1.g
    return G.integrate_against_volume(base.grid, dens, base.rho)


def wp_inner(x1: WPVector, x2: WPVector) -> float:
    """<Ĵ1, Ĵ2> = ∫ (½ tr(Ĵ1 Ĵ2) − f1 f2 − g1 g2) ρ."""
    if x1.base.grid != x2.base.grid:
        raise UsageError("wp_inner: mismatched bases")
    base = x1.base
    tr = 0.5 * P.contract("ik...,ki...->...", x1.jhat, x2.jhat)
    dens = tr - x1.f * x2.f - x1.g * x2.g
    return G.integrate_against_volume(base.grid, dens, base.rho)


# ---------------------------------------------------------------------------
# constant bases of tangent spaces


def _anticommuting_blocks(base: list[np.ndarray]) -> list[np.ndarray]:
    """[[P, 0], [0, −P]] and [[0, P], [P, 0]] for each n×n matrix P of base, in order."""
    out = []
    for P in base:
        Z = np.zeros_like(P)
        out += [np.block([[P, Z], [Z, -P]]), np.block([[Z, P], [P, Z]])]
    return out


def anticommuting_basis(n: int) -> list[np.ndarray]:
    """Real basis of matrices anticommuting with J0: blocks [[P, Q], [Q, −P]]."""
    E = np.eye(n)
    return _anticommuting_blocks([np.outer(E[r], E[c]) for r, c in np.ndindex(n, n)])


def selfadjoint_compatible_basis(n: int) -> list[np.ndarray]:
    """Symmetric anticommuting matrices: dimension n² + n."""
    E = np.eye(n)
    return _anticommuting_blocks([np.outer(E[r], E[c]) + (r != c) * np.outer(E[c], E[r])
                                  for r in range(n) for c in range(r, n)])


def skew_anticommuting_basis(n: int) -> list[np.ndarray]:
    """Skew anticommuting matrices: dimension n² − n."""
    E = np.eye(n)
    return _anticommuting_blocks([np.outer(E[r], E[c]) - np.outer(E[c], E[r])
                                  for r in range(n) for c in range(r + 1, n)])


# ---------------------------------------------------------------------------
# dimension table by Fourier-block ranks


# modes per batched ∂̄ SVD: at n=3 each [chunk, d³, t] array is 32 MB
_MODE_CHUNK = 1024


def _dbar_singular_values(K: np.ndarray, basis: np.ndarray, J0: np.ndarray) -> np.ndarray:
    """Singular values [M, t] of the ∂̄ symbol on the basis, one row per mode in K.

    2(∂̄C)(u,v)/i = k_u C v − k_v C u − k_{Ju} C J v + k_{Jv} C J u; the
    factor 2 is rank-irrelevant and keeps gaps clear of 0.5.
    """
    M, d = K.shape
    t = len(basis)
    JK = K @ J0
    CJ = basis @ J0
    half = (K[:, None, :, None, None] * basis.transpose(1, 2, 0)[None, :, None]
            - JK[:, None, :, None, None] * CJ.transpose(1, 2, 0)[None, :, None])
    B1 = (half - half.swapaxes(2, 3)).reshape(M, d ** 3, t)  # rows [a, u, v]
    del half
    return np.linalg.svd(B1, compute_uv=False)


def teich_dimensions(n: int, kmax: int = 2) -> dict:
    """Integer dimensions on the flat 2n-torus via exact mode-symbol ranks.

    Returns the tangent dimension of the structure space, the Kähler cone
    dimension, the two assembled rows, the compatible-fiber dimension, and the
    smallest nonzero singular value seen across blocks.

    Every symbol below is i times a real integer matrix, so the factor i is
    dropped: it changes no rank and no singular value.  The blocks of all
    (2 kmax + 1)^d − 1 nonzero modes are stacked along a leading mode axis
    and decomposed by one batched SVD per block kind; the ∂̄ blocks go in
    chunks of _MODE_CHUNK modes, which bounds their memory at n >= 3.
    """
    d = 2 * n
    J0 = standard_j(n)
    basis = np.array(anticommuting_basis(n))  # [t, a, b]; real dim 2n²
    t = len(basis)
    K = combi.modes(d, kmax)  # [M, u] = k_u
    JK = K @ J0  # [M, u] = k_{J∂_u} = (J0ᵀk)_u
    M = len(K)

    # nonzero modes contribute nothing to ker ∂̄ / im ∂̄.
    sv1 = np.concatenate([_dbar_singular_values(k, basis, J0)
                          for k in np.array_split(K, -(-M // _MODE_CHUNK))])  # [M, t]
    # image of ∂̄ from vector symbols: e_a ↦ k(u) e_a + k(Ju) J e_a, in the basis
    img = (np.eye(d)[None, :, :, None] * K[:, None, None, :]
           + J0.T[None, :, :, None] * JK[:, None, None, :])  # [M, a, b, u]
    rhs = img.transpose(2, 3, 0, 1).reshape(d * d, M * d)
    coef, *_ = np.linalg.lstsq(basis.reshape(t, d * d).T, rhs, rcond=None)
    D0 = coef.reshape(t, M, d).transpose(1, 0, 2)  # [M, t, a]
    ker_dim = np.sum(sv1 < 0.5, axis=1)
    rank_d0 = np.sum(np.linalg.svd(D0, compute_uv=False) >= 0.5, axis=1)
    t0 = t + 2 * int(np.sum(np.maximum(0, ker_dim - rank_d0)))  # ×2: real and imaginary parts
    min_gap = float(np.min(sv1[sv1 >= 0.5], initial=np.inf))

    # harmonic 2-forms at k ≠ 0: kernel of (d, d*) must vanish; the symbol
    # of d* on 2-forms is the transpose of d's on 1-forms
    block = combi.interior_symbol(K, d, 2).swapaxes(1, 2)
    if d > 2:
        block = np.concatenate([combi.interior_symbol(K, d, 3), block], axis=1)
    svh = np.linalg.svd(block, compute_uv=False)
    if np.any(svh < 0.5):
        raise DomainError("unexpected harmonic 2-form at a nonzero mode")
    min_gap = min(min_gap, float(svh.min()))

    # constant-mode ranks
    eye = np.eye(combi.n_combos(d, 2))
    J0f = J0.reshape((d, d))
    p11 = np.column_stack([
        combi.pq_project_coef(col, d, 2, J0f, 1, 1).real for col in eye])
    kdim = int(np.linalg.matrix_rank(p11, tol=1e-8))
    p20 = eye - p11
    h20_twice = int(np.linalg.matrix_rank(p20, tol=1e-8))
    sa_dim = len(selfadjoint_compatible_basis(n))
    record = {
        "structure_tangent": t0,
        "kahler_cone": kdim,
        "assembled_total": kdim + t0,
        "assembled_base": kdim + h20_twice,
        "compatible_fiber": sa_dim,
        "min_gap": float(min_gap),
    }
    return record


# ---------------------------------------------------------------------------
# the symplectic connection over closed 2-forms


def hodge_decompose_closed_two_form(grid: TorusGrid, what: np.ndarray):
    """Closed ŵ = constant + dλ̂ with d*λ̂ = 0 on the flat torus."""
    lam_hat = G.codiff_f(grid, G.flat_green(grid, what), 2)
    exact = G.exterior_d(grid, lam_hat, 1)
    const = what - exact
    return const, lam_hat


def connection_A(base: H.KahlerInstance, what: np.ndarray):
    """The horizontal lift Ĵ = L_v J + Ĵ0 of a closed 2-form ŵ at the flat
    base, and the co-closed primitive λ̂ of ŵ's exact part.

    v solves ι(v)ω = λ̂; Ĵ0 realizes the skew half of the harmonic part.
    Raises unless |dŵ| ≤ 1e-8 max(1, |ŵ|).
    """
    grid = base.grid
    d_resid = max_abs(G.exterior_d(grid, what, 2)) if grid.d > 2 else 0.0
    if d_resid > 1e-8 * max(1.0, max_abs(what)):
        raise DomainError(f"connection_A: ŵ not closed ({d_resid:.2e})")
    const, lam_hat = hodge_decompose_closed_two_form(grid, what)
    # ι(v)ω = λ̂ pointwise
    w_mat = G.form_to_matrix(grid, base.omega)
    v = P.contract("j...,ji...->i...", lam_hat, P.inv(w_mat))
    tau = const - combi.pullback_linear_coef(const, grid.d, 2, base.J).real
    tau_mat = G.form_to_matrix(grid, tau)
    # flat metric: g(Ĵ0 u, v) = ½ τ(u, v)  ⟹  (Ĵ0)^j_i = ½ τ_{ij}
    jhat0 = 0.5 * P.contract("ij...->ji...", tau_mat)
    return G.lie_endo(grid, v, base.J) + jhat0, lam_hat


@dataclass(frozen=True)
class Lift:
    """A closed 2-form ŵ, its horizontal lift 𝒜(ŵ) as tangent data, and the
    co-closed primitive λ̂ of its exact part."""

    what: np.ndarray
    x: WPVector
    lam_hat: np.ndarray


def horizontal_lift(base: H.KahlerInstance, what: np.ndarray) -> Lift:
    """𝒜(ŵ) with its (f, g) split, built once for every check that reads it."""
    jhat, lam_hat = connection_A(base, what)
    return Lift(what, WPVector(base, jhat), lam_hat)


def curvature_hamiltonian(l1: Lift, l2: Lift) -> dict:
    """Both expressions of the curvature Hamiltonian: −Ω_J(𝒜(ŵ1), 𝒜(ŵ2)) and
    ½∫ ι(J)(ŵ1 − dλ̂1) ∧ ŵ2 ∧ ω^{n−2}/(n−2)!."""
    base = l1.x.base
    grid = base.grid
    if grid.n < 2:
        raise DomainError("curvature_hamiltonian needs n >= 2")
    first = -wp_form(l1.x, l2.x)
    red = l1.what - G.exterior_d(grid, l1.lam_hat, 1)
    integrand = G.wedge_f(grid, combi.derivation_coef(base.J, red, grid.d, 2), l2.what, 2, 2)
    if grid.n > 2:
        integrand = G.wedge_f(grid, integrand, Ric.omega_power(grid, base.omega, grid.n - 2),
                              4, grid.d - 4)
    second = 0.5 * G.integrate(grid, integrand)
    return {"symplectic": first, "integral": second,
            "residual": rel_plus1(first - second, second)}


# ---------------------------------------------------------------------------
# θ/β correspondence


def standard_theta(grid: TorusGrid) -> np.ndarray:
    """(dz_1/√2) ∧ … ∧ (dz_n/√2) as a constant complex n-form field: the
    J0-adapted θ."""
    return adapted_theta(grid, G.standard_j_field(grid))


def adapted_theta(grid: TorusGrid, J: np.ndarray) -> np.ndarray:
    """J-adapted n-form from the (1,0)-parts of the first n coordinate forms."""
    n, d = grid.n, grid.d
    theta = np.ones((1,) + grid.shape, dtype=complex)
    deg = 0
    for j in range(n):
        dx = np.zeros((d,) + grid.shape)
        dx[j] = 1.0
        alpha = (dx - 1j * G.one_form_compose_j(dx, J)) / np.sqrt(2.0)
        theta = G.wedge_f(grid, theta, alpha.astype(complex), deg, 1)
        deg += 1
    return theta


def theta_pairing_form(grid: TorusGrid, th1: np.ndarray, th2: np.ndarray, k: int) -> np.ndarray:
    """Hermitian wedge conj(th1) ∧ th2 of two k-forms."""
    return G.wedge_f(grid, np.conj(th1), th2, k, k)


def rho_from_theta(grid: TorusGrid, theta: np.ndarray) -> np.ndarray:
    """c_n conj(θ) ∧ θ, a real positive volume form for nowhere-zero θ."""
    out = c_const(grid.n) * theta_pairing_form(grid, theta, theta, grid.n)
    return out.real


def theta_beta(grid: TorusGrid, jhat: np.ndarray, theta: np.ndarray,
               J: np.ndarray | None = None) -> np.ndarray:
    """β with i ι(u)β − ι(Ju)β = ι(Ĵu)θ: insert −½JĴ into one slot of θ."""
    if J is None:
        J = G.standard_j_field(grid)
    E = -0.5 * P.mul(J, jhat).astype(complex)
    return combi.derivation_coef(E, theta, grid.d, grid.n)


def beta_theta(grid: TorusGrid, beta: np.ndarray, theta: np.ndarray,
               J: np.ndarray | None = None) -> np.ndarray:
    """Recover Ĵ from β: solve ι(Ĵu)θ = i ι(u)β − ι(Ju)β columnwise."""
    d, n = grid.d, grid.n
    if J is None:
        J = G.standard_j_field(grid)
    # matrix of w ↦ ι(w)θ on coefficients
    cols = []
    for i in range(d):
        e = np.zeros((d,) + grid.shape)
        e[i] = 1.0
        cols.append(combi.interior_coef(e, theta, d, n))
    M = np.stack(cols, axis=1)  # [comb, i] + grid
    Mr = np.concatenate([M.real, M.imag], axis=0)  # [2comb, i] + grid
    origin = (0,) * grid.d
    flat_theta = G.is_constant(grid, theta)
    jhat = np.zeros((d, d) + grid.shape)
    pinv = np.linalg.pinv(Mr[(Ellipsis,) + origin]) if flat_theta else \
        np.linalg.pinv(np.moveaxis(Mr, (0, 1), (-2, -1)))
    for u in range(d):
        eu = np.zeros((d,) + grid.shape)
        eu[u] = 1.0
        Ju = P.contract("ij...,j...->i...", J, eu)
        rhs = 1j * combi.interior_coef(eu, beta, d, n) \
            - combi.interior_coef(Ju, beta, d, n)
        rhs_r = np.concatenate([rhs.real, rhs.imag], axis=0)
        if flat_theta:
            jhat[:, u] = P.contract("ic,c...->i...", pinv, rhs_r)
        else:
            sol = P.contract("...ic,...c->...i", pinv, np.moveaxis(rhs_r, 0, -1))
            jhat[:, u] = np.moveaxis(sol, -1, 0)
    return jhat


def dbar_complex_form(grid: TorusGrid, coef: np.ndarray, k: int, J: np.ndarray,
                      p: int, q: int) -> np.ndarray:
    """(p, q+1)-part of d of a complex form of bidegree (p, q)."""
    return G.pq_project_f(grid, G.exterior_d(grid, coef, k), k + 1, J, p, q + 1)


def del_complex_form(grid: TorusGrid, coef: np.ndarray, k: int, J: np.ndarray,
                     p: int, q: int) -> np.ndarray:
    return G.pq_project_f(grid, G.exterior_d(grid, coef, k), k + 1, J, p + 1, q)


def dbar_adjoint_complex_form(grid: TorusGrid, coef: np.ndarray, k: int,
                              J: np.ndarray, p: int, q: int) -> np.ndarray:
    """Adjoint of the (0,1)-derivative on (p, q)-forms: the (p, q−1)-part of
    −⋆d⋆; satisfies <∂̄*β, σ> = <β, ∂̄σ> exactly on flat Kähler tori."""
    return G.pq_project_f(grid, G.codiff_f(grid, coef, k), k - 1, J, p, q - 1)


# ---------------------------------------------------------------------------
# suites


def _closed_jhat(base: H.KahlerInstance, seed: int, amplitude: float) -> np.ndarray:
    """Constant + Lie-derivative representative of ker ∂̄."""
    grid = base.grid
    mats = anticommuting_basis(grid.n)
    rng = np.random.default_rng(seed)
    const = sum(float(c) * M for c, M in zip(rng.standard_normal(len(mats)), mats))
    v = G.random_band_limited(grid, "vector", seed + 50, amplitude, band=G.acs_band(grid.m))
    return G.constant_field(grid, amplitude * const) + G.lie_endo(grid, v, base.J)


def wp_suite(rep: CheckReport, grid: TorusGrid, seed: int, amplitude: float) -> None:
    """Antisymmetry, reduction to the orbit form on constants, descent along
    Lie directions, mapping-class naturality, the signature split, Gram
    nondegeneracy, the (f, g) solver checks, and the dimension table.  Each
    group of checks is a section on the flat base whose fields die when it
    returns."""
    base = H.flat_instance(grid)
    x1 = _wp_antisymmetry(rep, base, seed, amplitude)
    mats = anticommuting_basis(grid.n)
    orbit = _wp_constants(rep, base, mats)
    v, lie = _wp_descent(rep, base, seed, amplitude, x1)
    _wp_naturality(rep, grid.n, mats, orbit)
    _wp_signature(rep, base, mats)
    _wp_fg_solver(rep, base, x1, v, lie)
    _wp_dimensions(rep, grid.n)


def _wp_antisymmetry(rep: CheckReport, base: H.KahlerInstance, seed: int,
                     amplitude: float) -> WPVector:
    """antisymmetry_diag and antisymmetry; returns the first closed direction,
    which the descent and solver sections read."""
    x1 = WPVector(base, _closed_jhat(base, seed, amplitude))
    x2 = WPVector(base, _closed_jhat(base, seed + 7, amplitude))
    rep.add("antisymmetry_diag", abs(wp_form(x1, x1)))
    rep.add("antisymmetry", abs(wp_form(x1, x2) + wp_form(x2, x1)))
    return x1


def _wp_constants(rep: CheckReport, base: H.KahlerInstance, mats: list[np.ndarray]) -> float:
    """Constants have f = g = 0 and reduce to the volume times the orbit
    form; returns the orbit form of the first and last basis matrices."""
    grid = base.grid
    vol = (2.0 * np.pi) ** grid.d
    c1 = WPVector(base, G.constant_field(grid, mats[0]))
    c2 = WPVector(base, G.constant_field(grid, mats[-1]))
    rep.add("constant_fg_zero", max(max_abs(c1.f), max_abs(c1.g)))
    orbit = 0.5 * float(np.trace(mats[0] @ standard_j(grid.n) @ mats[-1]))
    rep.add("constant_reduction", rel_plus1(wp_form(c1, c2) - vol * orbit, vol * orbit))
    return orbit


def _wp_descent(rep: CheckReport, base: H.KahlerInstance, seed: int, amplitude: float,
                x1: WPVector) -> tuple[np.ndarray, WPVector]:
    """descent: Lie directions pair to zero against every closed direction;
    returns v and L_v J, which the solver section reads."""
    grid = base.grid
    v = G.random_band_limited(grid, "vector", seed + 11, amplitude, band=G.acs_band(grid.m))
    lie = WPVector(base, G.lie_endo(grid, v, base.J))
    scale = max(1.0, max_abs(x1.jhat) * max_abs(v))
    rep.add("descent", abs(wp_form(x1, lie)) / scale)
    return v, lie


def _wp_naturality(rep: CheckReport, n: int, mats: list[np.ndarray], orbit: float) -> None:
    """Mapping class naturality on constant representatives."""
    A = np.eye(2 * n, dtype=int)
    A[0, 1] = 1
    Ainv = np.linalg.inv(A.astype(float))
    J0 = standard_j(n)
    Jp = Ainv @ J0 @ A
    m1, m2 = Ainv @ mats[0] @ A, Ainv @ mats[-1] @ A
    nat = 0.5 * float(np.trace(m1 @ Jp @ m2)) - orbit
    rep.add("naturality_sl2z", rel_plus1(nat, orbit))


def _wp_signature(rep: CheckReport, base: H.KahlerInstance, mats: list[np.ndarray]) -> None:
    """Signature split and nondegeneracy on the constant tangent space."""
    grid, n = base.grid, base.grid.n
    vol = (2.0 * np.pi) ** grid.d
    sym = selfadjoint_compatible_basis(n)
    gram_sym = np.array([[wp_inner(WPVector(base, G.constant_field(grid, a)),
                                   WPVector(base, G.constant_field(grid, b)))
                          for b in sym] for a in sym])
    eig_sym = np.linalg.eigvalsh(gram_sym)
    rep.add("signature_split_positive", max(0.0, -float(eig_sym.min())) / vol)
    skew = skew_anticommuting_basis(n)
    if skew:
        gram_skew = np.array([[wp_inner(WPVector(base, G.constant_field(grid, a)),
                                        WPVector(base, G.constant_field(grid, b)))
                               for b in skew] for a in skew])
        eig_skew = np.linalg.eigvalsh(gram_skew)
        rep.add("signature_split_negative", max(0.0, float(eig_skew.max())) / vol)
    full = [WPVector(base, G.constant_field(grid, a)) for a in mats]
    gram = np.array([[wp_form(a, b) for b in full] for a in full])
    sv = np.linalg.svd(gram, compute_uv=False)
    rep.add_flag("gram_full_rank", sv.min() > 1e-8 * vol)
    rep.add("gram_condition", float(sv.max() / sv.min()))


def _wp_fg_solver(rep: CheckReport, base: H.KahlerInstance, x1: WPVector, v: np.ndarray,
                  lie: WPVector) -> None:
    """(f, g) solver: plug-back, the Lie oracle, and the coclosed case."""
    grid = base.grid
    fv = G.divergence_frho(grid, v, base.rho)
    Jv = P.contract("ij...,j...->i...", base.J, v)
    fJv = G.divergence_frho(grid, Jv, base.rho)
    rep.add("fg_lie_oracle",
            rel_max1(max(max_abs(lie.f - fv), max_abs(lie.g - fJv)), fv))
    rep.add("fg_plugback", x1.plugback_residual)
    jcc = H.project_coclosed_q1(base, x1.jhat)
    xcc = WPVector(base, harmonic_closure(base, jcc))
    rep.add("fg_coclosed_zero", max(max_abs(xcc.f), max_abs(xcc.g)))


def _wp_dimensions(rep: CheckReport, n: int) -> None:
    """The dimension table by Fourier-block ranks."""
    dims = teich_dimensions(n)
    expected = {"structure_tangent": 2 * n * n, "kahler_cone": n * n,
                "assembled_total": 3 * n * n, "assembled_base": 2 * n * n - n,
                "compatible_fiber": n * n + n}
    for key, val in expected.items():
        rep.add_flag(f"dimension[{key}]", dims[key] == val)
    rep.add_flag("dimension_gap", dims["min_gap"] >= 0.5)


def harmonic_closure(flat: H.KahlerInstance, jhat: np.ndarray) -> np.ndarray:
    """Project onto ker ∂̄ by harmonic plus exact parts on the flat instance."""
    const = H.harmonic_mean_q1(flat.grid, jhat)
    return const + H.dbar_exact_part(flat, jhat - const)


def connection_suite(rep: CheckReport, grid: TorusGrid, seed: int, amplitude: float) -> None:
    """Horizontal-lift conditions and the two curvature-Hamiltonian
    expressions on the flat four-torus.  Each group of checks is a section
    on the flat base whose fields die when it returns."""
    base = H.flat_instance(grid)
    J0 = base.J
    # seeded constant 2-forms with their (1,1)-parts removed
    rng = np.random.default_rng(seed)
    pairs = combi.combos(grid.d, 2)
    c1 = G.constant_field(grid, rng.standard_normal(len(pairs)))
    c2 = G.constant_field(grid, rng.standard_normal(len(pairs)))
    c1 = c1 - G.pq_project_f(grid, c1, 2, J0, 1, 1).real
    c2 = c2 - G.pq_project_f(grid, c2, 2, J0, 1, 1).real
    _constant_curvature(rep, base, c1, c2)
    lift1 = _seeded_curvature(rep, base, seed, amplitude, c1, c2)
    _lift_conditions(rep, base, lift1)
    _lie_reproduction(rep, base, seed, amplitude)


def _constant_curvature(rep: CheckReport, base: H.KahlerInstance, c1: np.ndarray,
                        c2: np.ndarray) -> None:
    """Constant lifts: the trivial and pure-type cases."""
    lift_c1 = horizontal_lift(base, c1)
    out_cc = curvature_hamiltonian(lift_c1, horizontal_lift(base, c2))
    rep.add("curvature_two_ways_constant", out_cc["residual"])
    same = curvature_hamiltonian(lift_c1, lift_c1)
    rep.add("curvature_diagonal_zero", abs(same["symplectic"]) + abs(same["integral"]))


def _seeded_curvature(rep: CheckReport, base: H.KahlerInstance, seed: int, amplitude: float,
                      c1: np.ndarray, c2: np.ndarray) -> Lift:
    """Seeded closed forms, constants plus exact parts: both curvature
    expressions and their invariance under an exact shift; returns the first
    lift, which the lift-condition section reads."""
    grid = base.grid

    def seeded_closed(s):
        beta = G.random_band_limited(grid, "form:1", s, amplitude, band=G.acs_band(grid.m))
        return c1 * 0.3 + G.exterior_d(grid, beta, 1)

    w1 = seeded_closed(seed + 1) + c1
    w2 = seeded_closed(seed + 2) + c2
    lift1 = horizontal_lift(base, w1)
    out = curvature_hamiltonian(lift1, horizontal_lift(base, w2))
    rep.add("curvature_two_ways_seeded", out["residual"])
    dbeta = G.exterior_d(grid, G.random_band_limited(grid, "form:1", seed + 3,
                                                     amplitude, band=G.acs_band(grid.m)), 1)
    out_shift = curvature_hamiltonian(lift1, horizontal_lift(base, w2 + dbeta))
    rep.add("cohomology_invariance",
            rel_plus1(out_shift["symplectic"] - out["symplectic"], out["symplectic"]))
    return lift1


def _lift_conditions(rep: CheckReport, base: H.KahlerInstance, lift1: Lift) -> None:
    """Horizontal-lift conditions for a seeded closed form."""
    grid, J0 = base.grid, base.J
    x_lift = lift1.x
    jhat = x_lift.jhat
    w_mat0 = G.form_to_matrix(grid, base.omega)
    wm = G.form_to_matrix(grid, lift1.what)
    lhs1 = wm - P.contract("ki...,kl...,lj...->ij...", J0, wm, J0)
    rhs1 = P.contract("ki...,kl...,lj...->ij...", jhat, w_mat0, J0) \
        + P.contract("ki...,kl...,lj...->ij...", J0, w_mat0, jhat)
    rep.add("condition_type", rel_max1(lhs1 - rhs1, rhs1))
    rep.add("condition_dbar", x_lift.dbar_residual)
    pairing = H.two_form_omega_inner(base, lift1.what)
    target = -G.one_form_compose_j(G.exterior_d(grid, pairing[None], 0), J0)
    rep.add("condition_lambda", rel_max1(x_lift.lam - target, target))
    worst = 0.0
    for B in selfadjoint_compatible_basis(2):
        xb = WPVector(base, G.constant_field(grid, B))
        worst = max(worst, abs(wp_form(x_lift, xb)))
    rep.add("condition_horizontal", rel_max1(worst, jhat))


def _lie_reproduction(rep: CheckReport, base: H.KahlerInstance, seed: int,
                      amplitude: float) -> None:
    """Gradient directions reproduce their Lie derivative."""
    grid = base.grid
    F = G.random_band_limited(grid, "scalar", seed + 4, amplitude, band=G.acs_band(grid.m))
    gradF = G.exterior_d(grid, F[None], 0)
    w_exact = G.exterior_d(grid, G.interior_f(grid, gradF, base.omega, 2), 1)
    jh_a2, _ = connection_A(base, w_exact)
    lie = G.lie_endo(grid, gradF, base.J)
    rep.add("lie_reproduction", rel_max1(jh_a2 - lie, lie))


def theta_suite(rep: CheckReport, grid: TorusGrid, seed: int, amplitude: float) -> None:
    """Round trips, star and wedge flags, pairing identities, the holomorphic
    derivative identities, the closed correction, the pairing against the
    Weil-Petersson form, and the integrability bridge.  Each group of checks
    is a section on the flat base and θ whose fields die when it returns."""
    base = H.flat_instance(grid)
    theta = standard_theta(grid)
    rep.add("rho_from_theta", max_abs(rho_from_theta(grid, theta) - base.rho))
    _correspondence(rep, base, theta, seed, amplitude)
    _integrability_bridge(rep, grid, seed, amplitude)
    _integrable_theta(rep, base, theta, seed)


def _correspondence(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray, seed: int,
                    amplitude: float) -> None:
    """The θ/β checks, from the round trip to the pairing against the
    Weil-Petersson form.  The seeded Ĵ, its β and the closed representative
    that several sections read die here, before the integrability bridge."""
    jh, beta = _theta_roundtrip(rep, base, theta, seed, amplitude)
    _theta_flags(rep, base, theta, jh, beta)
    _theta_pairings(rep, base, theta, seed, amplitude, jh, beta)
    _lie_beta(rep, base, theta, seed, amplitude)
    jh_cl, b_cl = _holomorphic_flags(rep, base, theta, seed, amplitude, jh, beta)
    _del_lambda(rep, base, theta, jh, beta)
    _closed_correction(rep, base, theta, seed, amplitude, jh_cl, b_cl)


def _theta_roundtrip(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray, seed: int,
                     amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Round trip on a seeded anticommuting Ĵ; returns Ĵ and its β, which
    the flag, pairing and derivative sections read."""
    grid = base.grid
    raw = G.random_band_limited(grid, "endo", seed, amplitude, band=G.acs_band(grid.m))
    jh = Ric.anticommute_project(base.J, raw)
    beta = theta_beta(grid, jh, theta)
    rep.add("roundtrip", max_abs(beta_theta(grid, beta, theta) - jh))
    return jh, beta


def _theta_flags(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray, jh: np.ndarray,
                 beta: np.ndarray) -> None:
    """Adjoint correspondence and the flag equivalences."""
    grid, n = base.grid, base.grid.n
    cn = c_const(n)
    sb = G.star_f(grid, beta, n)
    jh_star = P.contract("ij...->ji...", jh)  # flat metric adjoint
    rep.add("star_adjoint_flag",
            max_abs(np.conj(cn) * sb - theta_beta(grid, -jh_star, theta)))
    sym_part = 0.5 * (jh + jh_star)
    b_sym = theta_beta(grid, sym_part, theta)
    rep.add("sym_star_flag", max_abs(G.star_f(grid, b_sym, n) + cn * b_sym))
    if n >= 2:  # β ∧ ω has degree n + 2 <= 2n only from complex dimension two
        rep.add("sym_wedge_omega_flag",
                max_abs(G.wedge_f(grid, b_sym, base.omega.astype(complex), n, 2)))
    skew_part = 0.5 * (jh - jh_star)
    b_skew = theta_beta(grid, skew_part, theta)
    rep.add("skew_star_flag", max_abs(G.star_f(grid, b_skew, n) - cn * b_skew))


def _theta_pairings(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray, seed: int,
                    amplitude: float, jh: np.ndarray, beta: np.ndarray) -> None:
    """Pairing identities, pointwise and integrated."""
    grid, n = base.grid, base.grid.n
    J0 = base.J
    raw2 = G.random_band_limited(grid, "endo", seed + 1, amplitude, band=G.acs_band(grid.m))
    jh2 = Ric.anticommute_project(J0, raw2)
    beta2 = theta_beta(grid, jh2, theta)
    lhs_s = c_const(n) * theta_pairing_form(grid, beta, beta2, n)
    tr_plain = P.contract("ik...,ki...->...", jh, jh2)
    tr_j = P.contract("ik...,kl...,li...->...", jh, J0, jh2)
    rhs_s = (-tr_plain / 8.0 + 1j * tr_j / 8.0) * base.rho
    rep.add("symplectic_pairing", max_abs(lhs_s - rhs_s))
    lhs_i = theta_pairing_form(grid, beta, G.star_f(grid, beta2, n), n).real
    rhs_i = P.contract("ki...,ki...->...", jh, jh2) / 8.0 * base.rho
    rep.add("inner_pairing", max_abs(lhs_i - rhs_i))


def _lie_beta(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray, seed: int,
              amplitude: float) -> None:
    """Lie directions: dι(v)θ = β + hθ with h = ½(f_v − i f_{Jv})."""
    grid, n = base.grid, base.grid.n
    J0 = base.J
    v = G.random_band_limited(grid, "vector", seed + 2, amplitude, band=G.acs_band(grid.m))
    jh_v = G.lie_endo(grid, v, J0)
    d_iv = G.exterior_d(grid, combi.interior_coef(v.astype(complex), theta, grid.d, n),
                        n - 1)
    beta_v = theta_beta(grid, jh_v, theta)
    fv = G.divergence_frho(grid, v, base.rho)
    fJv = G.divergence_frho(grid, P.contract("ij...,j...->i...", J0, v), base.rho)
    h_v = 0.5 * (fv - 1j * fJv)
    rep.add("lie_beta_oracle", max_abs(d_iv - beta_v - h_v * theta))
    proj = G.pq_project_f(grid, d_iv, n, J0, n - 1, 1)
    rep.add("lie_beta_projection", max_abs(proj - beta_v))


def _holomorphic_flags(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray,
                       seed: int, amplitude: float, jh: np.ndarray,
                       beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic-derivative flags for closed and coclosed representatives
    and the adjointness of the complex-form codifferential they use; returns
    the closed representative and its β, which the closed correction reads."""
    grid, n = base.grid, base.grid.n
    J0 = base.J
    jh_cl = _closed_jhat(base, seed + 3, amplitude)
    b_cl = theta_beta(grid, jh_cl, theta)
    rep.add("closed_flag", rel_max1(dbar_complex_form(grid, b_cl, n, J0, n - 1, 1), b_cl))
    jh_cc = H.project_coclosed_q1(base, jh)
    b_cc = theta_beta(grid, jh_cc, theta)
    rep.add("coclosed_flag",
            rel_max1(dbar_adjoint_complex_form(grid, b_cc, n, J0, n - 1, 1), b_cc))
    sigma = G.pq_project_f(grid, G.random_band_limited(
        grid, f"form:{n - 1}", seed + 4, amplitude, band=G.acs_band(grid.m)).astype(complex),
        n - 1, J0, n - 1, 0)
    lhs_adj = G.l2_inner_form(grid, dbar_adjoint_complex_form(grid, beta, n, J0, n - 1, 1),
                              sigma, n - 1, rho=base.rho)
    rhs_adj = G.l2_inner_form(grid, beta,
                              dbar_complex_form(grid, sigma, n - 1, J0, n - 1, 0),
                              n, rho=base.rho)
    rep.add("dbar_star_adjointness", rel_plus1(lhs_adj - rhs_adj, rhs_adj))
    return jh_cl, b_cl


def _del_lambda(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray, jh: np.ndarray,
                beta: np.ndarray) -> None:
    """i ∂β + ½ Λ ∧ θ = 0."""
    grid, n = base.grid, base.grid.n
    lam = Ric.lambda_rho(grid, base.rho, base.J, jh)
    del_b = del_complex_form(grid, beta, n, base.J, n - 1, 1)
    resid_bl = 1j * del_b + 0.5 * G.wedge_f(grid, lam.astype(complex), theta, 1, n)
    rep.add("del_lambda", rel_max1(resid_bl, del_b))


def _closed_correction(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray, seed: int,
                       amplitude: float, jh_cl: np.ndarray, b_cl: np.ndarray) -> None:
    """The closed correction d(β + hθ) = 0 with h = ½(f − i g) of mean zero,
    and the pairing of corrected forms against the Weil-Petersson data."""
    grid, n = base.grid, base.grid.n
    cn = c_const(n)
    x_cl = WPVector(base, jh_cl)
    h_cl = 0.5 * (x_cl.f - 1j * x_cl.g)
    theta_hat = b_cl + h_cl * theta
    rep.add("closed_correction",
            max_abs(G.exterior_d(grid, theta_hat, n)) if n < grid.d else 0.0)
    rep.add("closed_correction_mean", abs(G.integrate_against_volume(grid, h_cl, base.rho)))

    x2_cl = WPVector(base, _closed_jhat(base, seed + 5, amplitude))
    h2_cl = 0.5 * (x2_cl.f - 1j * x2_cl.g)
    th2 = theta_beta(grid, x2_cl.jhat, theta) + h2_cl * theta
    pair = cn * G.integrate(grid, theta_pairing_form(grid, theta_hat, th2, n))
    re_expected = (-G.integrate_against_volume(
        grid, P.contract("ik...,ki...->...", x_cl.jhat, x2_cl.jhat), base.rho) / 8.0
        + G.integrate_against_volume(grid, (h_cl.conj() * h2_cl).real, base.rho))
    im_expected = (G.integrate_against_volume(
        grid, P.contract("ik...,kl...,li...->...", x_cl.jhat, base.J, x2_cl.jhat),
        base.rho) / 8.0
        + G.integrate_against_volume(grid, (h_cl.conj() * h2_cl).imag, base.rho))
    rep.add("pairing_re", rel_plus1(pair.real - re_expected, re_expected))
    rep.add("pairing_im", rel_plus1(pair.imag - im_expected, im_expected))
    wp_val = wp_form(x_cl, x2_cl)
    rep.params["measured_pairing_ratio"] = (
        float(pair.imag / wp_val) if abs(wp_val) > 1e-9 else None)
    rep.add("pairing_vs_wp", rel_plus1(pair.imag - 0.25 * wp_val, wp_val))


def _integrability_bridge(rep: CheckReport, grid: TorusGrid, seed: int,
                          amplitude: float) -> None:
    """Integrability bridge: (dθ_J)^{n−1,2} = ¼ ι(N_J)θ_J."""
    n = grid.n
    J_non = G.random_band_limited(grid, "acs", seed + 6, amplitude, band=1)
    th_j = adapted_theta(grid, J_non)
    d_th = G.exterior_d(grid, th_j, n)
    lhs_b = G.pq_project_f(grid, d_th, n + 1, J_non, n - 1, 2)
    N = C.nijenhuis(grid, J_non)
    rhs_b = 0.25 * combi.interior_pairs_coef(N, th_j, grid.d, n)
    rep.add("integrability_bridge", max_abs(lhs_b - rhs_b)
            / max(1e-3, max_abs(rhs_b)))
    if n >= 2:
        # complex dimension one is always integrable; the defect is nonzero
        # only from n = 2 on
        rep.add_flag("bridge_nonzero", max_abs(rhs_b) > 1e-6)
    else:
        rep.add("bridge_vanishes_n1", max_abs(rhs_b))


def _integrable_theta(rep: CheckReport, base: H.KahlerInstance, theta: np.ndarray,
                      seed: int) -> None:
    """Integrable pull-back: the defect vanishes and the volume form is flat."""
    grid, n = base.grid, base.grid.n
    u = G.random_band_limited(grid, "vector", seed + 7, 0.04, band=1)
    phi = G.DisplacementMap(u)
    J_int = G.pullback(grid, "endo", base.J, phi)
    th_int = G.pullback(grid, f"form:{n}", theta, phi)
    d_int = G.exterior_d(grid, th_int, n)
    rep.add("integrable_theta_closed", rel_max1(d_int, th_int))
    rho_int = rho_from_theta(grid, th_int)
    ric = Ric.ricci_form(grid, rho_int, J_int,
                         volume_tol=1e-7 if grid.m <= 16 else 1e-9)
    rep.add("flat_bundle_ricci_zero", max_abs(ric.ric))
