"""Exterior-algebra kernels over strictly increasing index tuples.

Coefficient convention: a k-form is stored as an array whose first axis runs
over the lexicographically ordered strictly increasing k-tuples of
``range(dim)``, with ``a[idx(I)] = a(e_{I_0}, ..., e_{I_{k-1}})``.  All kernels
broadcast over arbitrary trailing axes, so the same code serves pointwise
values (no trailing axes) and sampled fields (grid trailing axes).

Coordinates are ordered (x_1, .., x_n, y_1, .., y_n); the positive orientation
is dx_1∧dy_1∧…∧dx_n∧dy_n, which differs from the lexicographic top basis form
by the sign ``vol_sign(n)``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from . import pointwise as P


def vol_sign(n: int) -> int:
    """Sign s with dx_1∧dy_1∧…∧dx_n∧dy_n = s · e_0∧e_1∧…∧e_{2n−1}."""
    return -1 if (n * (n - 1) // 2) % 2 else 1


def standard_j(n: int) -> np.ndarray:
    """J_0 with J_0(x, y) = (−y, x) in block coordinates."""
    z = np.zeros((n, n))
    eye = np.eye(n)
    return np.block([[z, -eye], [eye, z]])


def standard_omega_matrix(n: int) -> np.ndarray:
    """Matrix Ω of ω_0 = Σ dx_i∧dy_i, i.e. ω_0(u, v) = uᵀ Ω v."""
    z = np.zeros((n, n))
    eye = np.eye(n)
    return np.block([[z, eye], [-eye, z]])


@lru_cache(maxsize=None)
def combos(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(dim), k))


@lru_cache(maxsize=None)
def combo_index(dim: int, k: int) -> dict[tuple[int, ...], int]:
    return {c: i for i, c in enumerate(combos(dim, k))}


def n_combos(dim: int, k: int) -> int:
    return len(combos(dim, k))


def _merge_sign(I: tuple[int, ...], J: tuple[int, ...]) -> int:
    """Sign of sorting the concatenation I+J (disjoint, each increasing)."""
    inversions = sum(1 for a in I for b in J if a > b)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _wedge_table(dim: int, p: int, q: int):
    idx_out = combo_index(dim, p + q)
    rows = []
    for ia, I in enumerate(combos(dim, p)):
        set_i = set(I)
        for ib, J in enumerate(combos(dim, q)):
            if set_i & set(J):
                continue
            K = tuple(sorted(I + J))
            rows.append((ia, ib, idx_out[K], _merge_sign(I, J)))
    arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3].astype(np.float64)


def wedge_coef(a: np.ndarray, b: np.ndarray, dim: int, p: int, q: int) -> np.ndarray:
    """Coefficients of a ∧ b (shuffle/determinant convention)."""
    ia, ib, iout, sign = _wedge_table(dim, p, q)
    dtype = np.result_type(a.dtype, b.dtype)
    out = np.zeros((n_combos(dim, p + q),) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=dtype)
    for r in range(len(iout)):
        out[iout[r]] += sign[r] * a[ia[r]] * b[ib[r]]
    return out


@lru_cache(maxsize=None)
def _interior_table(dim: int, k: int):
    idx_out = combo_index(dim, k - 1)
    rows = []
    for i_in, I in enumerate(combos(dim, k)):
        for pos, j in enumerate(I):
            rest = I[:pos] + I[pos + 1:]
            rows.append((i_in, j, idx_out[rest], -1 if pos % 2 else 1))
    arr = np.array(rows, dtype=np.int64).reshape(-1, 4)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3].astype(np.float64)


def modes(dim: int, kmax: int) -> np.ndarray:
    """The nonzero integer modes k ∈ [−kmax, kmax]^dim as rows, in np.ndindex order."""
    k = np.indices((2 * kmax + 1,) * dim).reshape(dim, -1).T - kmax
    return k[np.any(k, axis=1)].astype(float)


def interior_symbol(K: np.ndarray, dim: int, k: int) -> np.ndarray:
    """[M, C(dim, k), C(dim, k−1)]: the matrix of a ↦ κ ∧ a on (k−1)-forms for
    each mode κ in the rows of K (M, dim), i.e. the Fourier symbol of d divided
    by i, from the same table as ``grid.exterior_d``."""
    i_hi, j, i_lo, sign = _interior_table(dim, k)
    out = np.zeros((len(K), n_combos(dim, k), n_combos(dim, k - 1)))
    for r in range(len(i_hi)):
        out[:, i_hi[r], i_lo[r]] += sign[r] * K[:, j[r]]
    return out


def interior_coef(v: np.ndarray, a: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Coefficients of the interior product ι(v) a."""
    i_in, j, i_out, sign = _interior_table(dim, k)
    dtype = np.result_type(v.dtype, a.dtype)
    out = np.zeros((n_combos(dim, k - 1),) + np.broadcast_shapes(a.shape[1:], v.shape[1:]), dtype=dtype)
    for r in range(len(i_out)):
        out[i_out[r]] += sign[r] * v[j[r]] * a[i_in[r]]
    return out


def compound_apply(A: np.ndarray, a: np.ndarray, dim: int, k: int) -> np.ndarray:
    """(Λ^k A) a, i.e. out_I = Σ_J det(A[I, J]) a_J over the k-tuples of
    ``range(dim)``: the one minor loop, holding besides ``out`` only the
    current minor and its determinant."""
    cs = combos(dim, k)
    out = np.zeros((len(cs),) + np.broadcast_shapes(a.shape[1:], A.shape[2:]),
                   dtype=np.result_type(a.dtype, A.dtype))
    for ii, I in enumerate(cs):
        for jj, J in enumerate(cs):
            out[ii] += a[jj] * P.det(A[np.ix_(I, J)])
    return out


def pullback_linear_coef(a: np.ndarray, dim: int, k: int, A: np.ndarray) -> np.ndarray:
    """Coefficients of the pullback (A^* a)_I = Σ_J a_J det(A[J, I])."""
    return compound_apply(np.swapaxes(A, 0, 1), a, dim, k)


def metric_inner_coef(a: np.ndarray, b: np.ndarray, dim: int, k: int, ginv: np.ndarray) -> np.ndarray:
    """Pointwise inner product <a, b> = Σ_I conj(a_I) ((Λ^k g⁻¹) b)_I of
    k-forms for the metric with inverse ginv.

    Hermitian in the first slot when coefficients are complex.
    """
    return sum(np.conj(ai) * ci for ai, ci in zip(a, compound_apply(ginv, b, dim, k)))


def star_coef(a: np.ndarray, dim: int, k: int, ginv: np.ndarray,
              sqrt_det_g: np.ndarray, orient_sign: int) -> np.ndarray:
    """Hodge star determined by a∧(*b) = <a,b> vol, vol the positive volume
    form: (Λ^k g⁻¹) a, signed and scaled in place, put on the complementary
    index sets.

    ``orient_sign`` is the sign making the lexicographic top basis form
    positively oriented (+1) or negatively oriented (−1).
    """
    out = compound_apply(ginv, a, dim, k)
    full = set(range(dim))
    for ii, I in enumerate(combos(dim, k)):
        out[ii] *= _merge_sign(I, tuple(sorted(full - set(I)))) * orient_sign * sqrt_det_g
    # complementation reverses lexicographic order: the complement of the
    # ii-th k-set is the (N − 1 − ii)-th (dim − k)-set
    for ii in range(len(out) // 2):
        out[[ii, -1 - ii]] = out[[-1 - ii, ii]]
    return out


@lru_cache(maxsize=None)
def _derivation_table(dim: int, k: int):
    """Table for (E ▷ a)(v_1..v_k) = sum_p a(v_1, .., E v_p, .., v_k)."""
    idx = combo_index(dim, k)
    rows = []
    for i_out, I in enumerate(combos(dim, k)):
        for pos, col in enumerate(I):
            others = set(I) - {col}
            for j in range(dim):
                if j in others:
                    continue
                src = tuple(sorted(others | {j}))
                before = sum(1 for x in src if x < j)
                sign = (-1) ** (pos + before)
                rows.append((i_out, idx[src], j, col, sign))
    arr = np.array(rows, dtype=np.int64).reshape(-1, 5)
    return arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4].astype(np.float64)


def derivation_coef(E: np.ndarray, a: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Coefficients of the form whose value inserts E into one slot at a time."""
    i_out, i_src, j, col, sign = _derivation_table(dim, k)
    out = np.zeros((n_combos(dim, k),) + np.broadcast_shapes(a.shape[1:], E.shape[2:]),
                   dtype=np.result_type(a.dtype, E.dtype))
    for r in range(len(i_out)):
        out[i_out[r]] += sign[r] * E[j[r], col[r]] * a[i_src[r]]
    return out


def pq_project_coef(a: np.ndarray, dim: int, k: int, J: np.ndarray, p: int, q: int) -> np.ndarray:
    """(p, q)-component relative to J.

    The J-derivation D (``derivation_coef`` of J) acts on (p', q')-forms as
    i(p' − q'), so the projector is the Lagrange polynomial
    Π_{p' ≠ p} (D − i(2p' − k)) / (i(2p − k) − i(2p' − k)): k applications of D.
    """
    if p + q != k:
        raise ValueError("p + q must equal the form degree")
    out = a.astype(complex)
    for r in range(k + 1):
        if r != p:
            eig = 1j * (2 * r - k)
            term = derivation_coef(J, out, dim, k)
            term -= eig * out
            out = term / (1j * (2 * p - k) - eig)
    return out


def interior_pairs_coef(N: np.ndarray, theta: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Insert a TM-valued 2-form N into a k-form θ over all slot pairs: the
    (k+1)-form Σ_l N^l ∧ ι(∂_l)θ, N^l the 2-form N^l_{ij}, whose value is
    sum_{i<j} (−1)^{i+j−1} θ(N(v_i, v_j), v_1, .., v̂_i, .., v̂_j, .., v_{k+1});
    N has layout N[l, i, j] = l-th component of N(e_i, e_j).
    """
    i, j = np.array(combos(dim, 2)).T
    eye = np.eye(dim)
    return sum(wedge_coef(N[l, i, j], interior_coef(eye[l], theta, dim, k), dim, 2, k - 1)
               for l in range(dim))
