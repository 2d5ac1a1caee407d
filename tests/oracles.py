"""Independent routes that the tests compare the package against.

None of these is reached by the command line: each is a second way to
compute something the package computes (an RK4 flow for the Lie
derivatives, the conformal Gaussian curvature for the Ricci form, the
special connections and the first Bianchi identity for the curvature, the
four-term ∂̄ on TM-valued 1-forms, the Nijenhuis tensor's two routes as
four-term expressions, Λ through the stacked ∇Ĵ and ∇J, and the d⁺ ranks
one mode at a time), so
they live with the tests rather than in ``geodesk``.
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
    n_tensor, _ = nijenhuis(grid, J, lc)
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
    """``connection.nijenhuis`` with each route one expression of its four
    terms, each a separate d³ field, and ∇J taken by ``cov_endo`` even when
    Γ ≡ 0."""
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
