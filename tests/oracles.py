"""Independent routes that the tests compare the package against.

None of these is reached by the command line: each is a second way to
compute something the package computes (an RK4 flow for the Lie
derivatives, the conformal Gaussian curvature for the Ricci form, the
special connections and the first Bianchi identity for the curvature, the
four-term ∂̄ on TM-valued 1-forms, the Nijenhuis tensor's bracket route
as a four-term expression and its route through a torsion-free connection,
Λ through the stacked ∇Ĵ and ∇J, the d⁺ ranks one mode at a time, the
(p, q) projection as a circle average, and the insertion of a TM-valued
2-form into a k-form as a signed loop over slot pairs), so they live with
the tests rather than in ``geodesk``.
"""

from __future__ import annotations

import numpy as np

from geodesk import combi
from geodesk import pointwise as P
from geodesk.connection import (ConnectionField, cov, cov_endo, cov_volume_residual,
                                curvature, levi_civita, nijenhuis)
from geodesk.errors import DomainError
from geodesk.grid import TorusGrid, constant_field, form_to_matrix, fourier_interpolate
from geodesk.report import rel_max1


def flow_rk4(grid: TorusGrid, v: np.ndarray, time: float, steps: int = 8):
    """Flow of v from the grid points; returns endpoints and Jacobians.

    Integrates dx/dt = v(x) and dD/dt = Dv(x)·D with RK4 and trigonometric
    interpolation of v and Dv.
    """
    d = grid.d
    dv = P.contract("ji...->ij...", grid.derivs(v))  # Dv[i, j] = ∂_j v^i
    X = grid.coords().reshape(d, -1)
    npts = X.shape[1]
    D = np.broadcast_to(np.eye(d)[:, :, None], (d, d, npts)).copy()
    h = time / steps

    def rhs(x, dd):
        vx = fourier_interpolate(grid, v, x)
        dvx = fourier_interpolate(grid, dv, x)
        return vx, P.contract("ikp,kjp->ijp", dvx, dd)

    for _ in range(steps):
        k1x, k1d = rhs(X, D)
        k2x, k2d = rhs(X + 0.5 * h * k1x, D + 0.5 * h * k1d)
        k3x, k3d = rhs(X + 0.5 * h * k2x, D + 0.5 * h * k2d)
        k4x, k4d = rhs(X + h * k3x, D + h * k3d)
        X = X + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        D = D + h / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
    return X, D


def lie_derivative_J(grid: TorusGrid, v: np.ndarray, J: np.ndarray,
                     conn: ConnectionField) -> np.ndarray:
    """(L_v J)u = J ∇_u v − ∇_{Ju} v + (∇_v J)u for a torsion-free connection."""
    if not conn.torsion_free:
        raise DomainError("lie_derivative_J requires a torsion-free connection")
    nabla_v = P.contract("ji...->ij...", cov(grid, conn, v, "u"))  # [i, j] = ∇_j v^i
    return (P.mul(J, nabla_v)
            - P.contract("kj...,ik...->ij...", J, nabla_v)
            + P.contract("k...,kij...->ij...", v, cov_endo(grid, conn, J)))


def gaussian_curvature(grid: TorusGrid, g: np.ndarray) -> np.ndarray:
    """K = g(R(∂1, ∂2)∂2, ∂1)/det g on a 2-dimensional torus."""
    if grid.d != 2:
        raise DomainError("gaussian_curvature needs a 2-dimensional torus")
    R = curvature(grid, levi_civita(grid, g))
    num = P.contract("lm...,l...->m...", g, R[:, 1, 0, 1])[0]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return num / det


def first_bianchi_residual(riem: np.ndarray) -> float:
    """R^l_{kij} + R^l_{ijk} + R^l_{jki} relative to R."""
    cyc = riem + P.contract("lijk...->lkij...", riem) + P.contract("ljki...->lkij...", riem)
    return rel_max1(cyc, riem)


def special_connections(grid: TorusGrid, rho: np.ndarray, J: np.ndarray,
                        omega: np.ndarray, g: np.ndarray) -> tuple[dict, dict]:
    """The volume-and-J connection, the Hermitian tilt, and the symplectic
    torsion-free correction of the Levi-Civita connection of g.

    Returns the {"lc", "hermitian", "volume", "symplectic"} ConnectionFields
    and, keyed the same way, the verification residuals of the last three.
    """
    lc = levi_civita(grid, g)
    nJ = cov_endo(grid, lc, J)  # [i, m, j] = (∇_i J)^m_j

    # hermitian tilt: Γ̃ = Γ − ½ J (∇J)
    gamma_t = lc.gamma - 0.5 * P.contract("km...,imj...->kij...", J, nJ)
    tilde = ConnectionField(grid, gamma_t)
    flags = {"hermitian": {"nabla_J": rel_max1(cov_endo(grid, tilde, J), J)}}

    # volume connection: preserves ρ and J, torsion −¼ N_J
    alpha = 0.5 * P.contract("km...,kmj...->j...", J, nJ)
    alpha_j = P.contract("m...,mi...->i...", alpha, J)
    d = grid.d
    eye = constant_field(grid, np.eye(d))
    corr = (P.contract("i...,kj...->kij...", alpha, eye)
            + P.contract("j...,ki...->kij...", alpha, eye)
            - P.contract("i...,kj...->kij...", alpha_j, J)
            - P.contract("j...,ki...->kij...", alpha_j, J)) / (2 * grid.n + 2)
    gamma_h = (lc.gamma
               - 0.5 * P.contract("km...,imj...->kij...", J, nJ)
               - 0.25 * P.contract("km...,jmi...->kij...", J, nJ)
               - 0.25 * P.contract("lj...,lki...->kij...", J, nJ)
               + corr)
    hat = ConnectionField(grid, gamma_h)
    n_tensor = nijenhuis(grid, J)
    flags["volume"] = {
        "nabla_rho": cov_volume_residual(grid, hat, rho),
        "nabla_J": rel_max1(cov_endo(grid, hat, J), J),
        "torsion_vs_nijenhuis": rel_max1(hat.torsion() + 0.25 * n_tensor, n_tensor),
    }

    # symplectic correction: torsion-free, preserves ω when dω = 0
    gamma_o = lc.gamma - (1.0 / 3.0) * P.contract("km...,imj...->kij...", J, nJ) \
        - (1.0 / 3.0) * P.contract("km...,jmi...->kij...", J, nJ)
    ring = ConnectionField(grid, gamma_o)
    w_mat = form_to_matrix(grid, omega)
    flags["symplectic"] = {
        "torsion": float(np.max(np.abs(ring.torsion()))),
        "nabla_omega": rel_max1(cov(grid, ring, w_mat, "dd"), w_mat),
    }
    return {"lc": lc, "hermitian": tilde, "volume": hat, "symplectic": ring}, flags


def dbar_q1_four_terms(inst, jhat: np.ndarray) -> np.ndarray:
    """``hodge.dbar_q1`` as one expression of its four terms, each a separate
    d³ field."""
    J = inst.J
    nJh = cov_endo(inst.grid, inst.lc, jhat)
    t1 = P.contract("iaj...->aij...", nJh)
    jn = P.contract("ki...,kab...->iab...", J, nJh)
    t3 = P.contract("iam...,mj...->aij...", jn, J)
    out = t1 - P.contract("aji...->aij...", t1) - t3 + P.contract("aji...->aij...", t3)
    return 0.5 * out


def nijenhuis_four_terms(grid: TorusGrid, J: np.ndarray,
                         conn: ConnectionField | None = None):
    """The Nijenhuis tensor by two routes, each one expression of its four
    terms, each a separate d³ field: the frame/bracket route of
    ``connection.nijenhuis`` and the formula through ∇J for a torsion-free
    connection (flat when ``conn`` is None), ∇J taken by ``cov_endo`` even
    when Γ ≡ 0.  Returns (bracket N, agreement residual of the routes)."""
    if conn is not None and not conn.torsion_free:
        raise DomainError("nijenhuis_four_terms: connection must be torsion-free")
    dJ = grid.derivs(J)
    n_bracket = (P.contract("mi...,mkj...->kij...", J, dJ)
                 - P.contract("mj...,mki...->kij...", J, dJ)
                 + P.contract("km...,jmi...->kij...", J, dJ)
                 - P.contract("km...,imj...->kij...", J, dJ))
    if conn is None:
        conn = ConnectionField.flat(grid)
    nJ = cov_endo(grid, conn, J)
    n_conn = (P.contract("ikm...,mj...->kij...", nJ, J)
              + P.contract("mi...,mkj...->kij...", J, nJ)
              - P.contract("jkm...,mi...->kij...", nJ, J)
              - P.contract("mj...,mki...->kij...", J, nJ))
    return n_bracket, rel_max1(n_bracket - n_conn, n_bracket)


def lambda_rho_stacked(grid: TorusGrid, J: np.ndarray, jhat: np.ndarray,
                       conn: ConnectionField, nJh: np.ndarray | None = None) -> np.ndarray:
    """``ricci.lambda_rho`` without its guards, from the stacked d³ fields
    ∇Ĵ and ∇J: Λ_j = (∇_iĴ)^i_j + ½ Ĵ^a_b J^b_c (∇_jJ)^c_a."""
    if nJh is None:
        nJh = cov_endo(grid, conn, jhat)
    nJ = cov_endo(grid, conn, J)
    return (P.contract("iij...->j...", nJh)
            + 0.5 * P.contract("ab...,bc...,jca...->j...", jhat, J, nJ))


def pq_project_circle(a: np.ndarray, dim: int, k: int, J: np.ndarray, p: int, q: int) -> np.ndarray:
    """``combi.pq_project_coef`` as an exact circle average: pulls back by
    R_t = cos(t) + sin(t) J (exact since J² = −1) and weights by e^{−i(p−q)t};
    the integrand is a trig polynomial of degree ≤ k in t, so 2k + 2
    equispaced samples integrate it exactly."""
    if p + q != k:
        raise ValueError("p + q must equal the form degree")
    nsamp = 2 * k + 2
    eye = np.eye(dim)
    if J.ndim > 2:
        eye = eye.reshape((dim, dim) + (1,) * (J.ndim - 2))
    out = np.zeros(a.shape, dtype=complex)
    for s in range(nsamp):
        t = 2.0 * np.pi * s / nsamp
        R = np.cos(t) * eye + np.sin(t) * J
        out = out + np.exp(-1j * (p - q) * t) * combi.pullback_linear_coef(a, dim, k, R)
    return out / nsamp


def dplus_ranks_per_mode(grid: TorusGrid, kmax: int) -> dict:
    """``hodge.dplus_kernel_ranks`` one mode at a time, with the complex
    symbol of d built by hand from the index pairs."""
    d = grid.d
    pairs = combi.combos(d, 2)
    S = np.column_stack([combi.star_coef(col, d, 2, np.eye(d), 1.0, combi.vol_sign(grid.n))
                         for col in np.eye(len(pairs))])
    min_gap, kappa1 = np.inf, 0
    for k in np.ndindex(*(2 * kmax + 1,) * d):
        kv = np.array(k) - kmax
        if not np.any(kv):
            continue
        D = np.zeros((len(pairs), d), dtype=complex)
        for r, (i, j) in enumerate(pairs):
            D[r, j] += 1j * kv[i]
            D[r, i] -= 1j * kv[j]
        sv = np.linalg.svd((np.eye(len(pairs)) + S) @ D, compute_uv=False)
        kappa1 += max(0, int(np.sum(sv < 0.5)) - 1)
        if np.any(sv >= 0.5):
            min_gap = min(min_gap, float(sv[sv >= 0.5].min()))
    return {"kappa1": kappa1, "min_gap": float(min_gap)}


def interior_pairs_loop(N: np.ndarray, theta: np.ndarray, dim: int, k: int) -> np.ndarray:
    """``combi.interior_pairs_coef`` as a signed loop over the slot pairs of
    each (k+1)-tuple: sum_{i<j} (−1)^{i+j−1} θ(N(v_i, v_j), v_1, .., v̂_i, ..,
    v̂_j, .., v_{k+1}), N[l, i, j] the l-th component of N(e_i, e_j)."""
    idx_th = combi.combo_index(dim, k)
    cs_out = combi.combos(dim, k + 1)
    out = np.zeros((len(cs_out),) + np.broadcast_shapes(theta.shape[1:], N.shape[3:]),
                   dtype=np.result_type(theta.dtype, N.dtype))
    for i_out, K in enumerate(cs_out):
        acc = 0.0
        for pi in range(k + 1):
            for pj in range(pi + 1, k + 1):
                rest = tuple(x for r, x in enumerate(K) if r not in (pi, pj))
                pair_sign = (-1) ** (pi + pj - 1)
                for l in range(dim):
                    if l in rest:
                        continue
                    ins = tuple(sorted((l,) + rest))
                    before = sum(1 for x in rest if x < l)
                    sgn = pair_sign * ((-1) ** before)
                    acc = acc + sgn * N[l, K[pi], K[pj]] * theta[idx_th[ins]]
        out[i_out] = acc
    return out
