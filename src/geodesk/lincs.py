"""The orbit of linear complex structures on R^{2n} and its symplectic data.

The orbit is { g J0 g^{-1} : det g = 1 }; tangent vectors at J anticommute
with J.  Movement along the orbit is by conjugation with matrix exponentials,
which stays on the orbit to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .combi import standard_j, standard_omega_matrix, vol_sign
from .errors import DomainError, NumericError, UsageError
from .grid import TorusGrid
from .report import CheckReport, max_abs, rel_max1, rel_plus1
from .ricci import richardson

MATRIX_TOL = 1e-12
ANTICOMMUTE_TOL = 1e-12


def orientation_frame_det(J: np.ndarray) -> float:
    """Determinant of the greedy frame (e_1, J e_1, .., e_n, J e_n).

    Basis vectors are picked greedily from the standard basis so that each new
    pair is independent of the span built so far.
    """
    d = J.shape[0]
    cols: list[np.ndarray] = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        trial = cols + [e, J @ e]
        if np.linalg.matrix_rank(np.column_stack(trial), tol=1e-9) == len(trial):
            cols = trial
        if len(cols) == d:
            break
    if len(cols) != d:
        raise DomainError("could not complete a (e, Je) frame")
    frame = np.column_stack(cols)
    # Columns are ordered (e, Je, ...): positive det == standard orientation.
    return float(np.linalg.det(frame)) * vol_sign(d // 2)


@dataclass(frozen=True)
class LinCS:
    """Linear complex structure: J² = −1, compatible with the orientation."""

    matrix: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        J = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", J)
        object.__setattr__(self, "n", J.shape[0] // 2)
        if not np.all(np.isfinite(J)):
            raise DomainError("J has non-finite entries")
        resid = max_abs(J @ J + np.eye(J.shape[0]))
        if resid > MATRIX_TOL:
            raise DomainError(f"J² + 1 residual {resid:.3e}")
        if orientation_frame_det(J) <= 0:
            raise DomainError("J is not compatible with the orientation")

    @classmethod
    def standard(cls, n: int) -> "LinCS":
        return cls(standard_j(n))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring Taylor series of order 18.
    A result that would not be finite raises NumericError, with no warning
    printed."""
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, ord=np.inf)
    if not np.isfinite(norm):
        raise NumericError("expm: matrix has non-finite entries")
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    b = a / (2.0 ** squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(1, 19):
                term = term @ b / k
                out = out + term
            for _ in range(squarings):
                out = out @ out
    except FloatingPointError:
        raise NumericError(f"expm: the exponential overflows (‖a‖∞ = {norm:.3g})") from None
    return out


def project_traceless(xi: np.ndarray) -> np.ndarray:
    d = xi.shape[0]
    return xi - np.trace(xi) / d * np.eye(d)


def random_lincs(rng: np.random.Generator, n: int, scale: float = 0.3) -> LinCS:
    g = expm(project_traceless(scale * rng.standard_normal((2 * n, 2 * n))))  # in SL(2n)
    return LinCS(g @ standard_j(n) @ np.linalg.inv(g))


@dataclass(frozen=True)
class TangentJ:
    """Tangent vector at J: a matrix anticommuting with J."""

    base: LinCS
    jhat: np.ndarray

    def __post_init__(self):
        jh = np.asarray(self.jhat, dtype=float)
        object.__setattr__(self, "jhat", jh)
        J = self.base.matrix
        resid = max_abs(jh @ J + J @ jh)
        if resid > ANTICOMMUTE_TOL:
            raise DomainError(f"tangent anticommutation residual {resid:.3e}")


def tangent_project(J: LinCS, A: np.ndarray) -> TangentJ:
    """Project a matrix onto the tangent space at J: A ↦ ½(A + J A J)."""
    A = np.asarray(A, dtype=float)
    Jm = J.matrix
    if A.shape != Jm.shape:
        raise UsageError("tangent_project: dimension mismatch")
    return TangentJ(J, 0.5 * (A + Jm @ A @ Jm))


def bracket_tangent(J: LinCS, xi: np.ndarray) -> TangentJ:
    """[ξ, J], the orbit direction generated by ξ."""
    Jm = J.matrix
    return TangentJ(J, xi @ Jm - Jm @ xi)


def tau(J: LinCS, jhat1: TangentJ, jhat2: TangentJ) -> float:
    """Orbit symplectic form τ_J(Ĵ1, Ĵ2) = ½ tr(Ĵ1 J Ĵ2)."""
    if jhat1.base is not J and not np.array_equal(jhat1.base.matrix, J.matrix):
        raise UsageError("tau: first tangent vector has a different base point")
    if jhat2.base is not J and not np.array_equal(jhat2.base.matrix, J.matrix):
        raise UsageError("tau: second tangent vector has a different base point")
    return 0.5 * float(np.trace(jhat1.jhat @ J.matrix @ jhat2.jhat))


def moment_residual(J: LinCS, xi: np.ndarray, jhat: TangentJ) -> float:
    """|τ_J([ξ,J], Ĵ) + tr(ξ Ĵ)|; zero iff μ(J) = −J generates the action."""
    xi = np.asarray(xi, dtype=float)
    if abs(np.trace(xi)) > 1e-9:
        raise UsageError("moment_residual: ξ must be traceless")
    lhs = tau(J, bracket_tangent(J, xi), jhat)
    return abs(lhs + float(np.trace(xi @ jhat.jhat)))


@dataclass(frozen=True)
class SiegelPoint:
    """Z = X + iY with X, Y symmetric and Y positive definite."""

    Z: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        Z = np.asarray(self.Z, dtype=complex)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "n", Z.shape[0])
        if max_abs(Z - Z.T) > 1e-10:
            raise DomainError("Siegel point must be symmetric")
        if np.linalg.eigvalsh(Z.imag).min() <= 0:
            raise DomainError("imaginary part must be positive definite")

    @property
    def X(self) -> np.ndarray:
        return self.Z.real

    @property
    def Y(self) -> np.ndarray:
        return self.Z.imag


def siegel_to_acs(Z: SiegelPoint) -> LinCS:
    """Block-matrix complex structure of a Siegel point; lands in the
    ω0-compatible locus (checked)."""
    X, Y = Z.X, Z.Y
    Yinv = np.linalg.inv(Y)
    J = np.block([[X @ Yinv, -Y - X @ Yinv @ X],
                  [Yinv, -Yinv @ X]])
    out = LinCS(J)
    resid = compatibility_residual(out)
    if resid > 1e-9:
        raise DomainError(f"siegel_to_acs: compatibility residual {resid:.3e}")
    return out


def compatibility_residual(J: LinCS) -> float:
    """Residual of J*ω0 = ω0 plus positivity defect of ω0(·, J·)."""
    W = standard_omega_matrix(J.n)
    Jm = J.matrix
    resid = max_abs(Jm.T @ W @ Jm - W)
    gram = W @ Jm
    gram = 0.5 * (gram + gram.T)
    lam = np.linalg.eigvalsh(gram).min()
    return float(resid + max(0.0, -lam))


def symplectic_action(g: np.ndarray, Z: SiegelPoint) -> SiegelPoint:
    """g_* Z = (A Z + B)(C Z + D)^{-1} for g = [[A, B], [C, D]]."""
    n = Z.n
    A, B = g[:n, :n], g[:n, n:]
    C, D = g[n:, :n], g[n:, n:]
    W = (A @ Z.Z + B) @ np.linalg.inv(C @ Z.Z + D)
    return SiegelPoint(0.5 * (W + W.T))


def random_symplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """exp(ξ) with ξ in sp(2n): ξᵀΩ + Ωξ = 0, ξ = Ω⁻¹S for a symmetric S of
    normal entries scaled by 0.3."""
    W = standard_omega_matrix(n)
    S = 0.3 * rng.standard_normal((2 * n, 2 * n))
    S = 0.5 * (S + S.T)
    return expm(np.linalg.solve(W, S))


def siegel_metric(Z: SiegelPoint, Zhat: np.ndarray) -> float:
    """|Ẑ|² = tr((Y^{-1} X̂)² + (Y^{-1} Ŷ)²)."""
    Zhat = np.asarray(Zhat, dtype=complex)
    if max_abs(Zhat - Zhat.T) > 1e-10:
        raise UsageError("siegel_metric: tangent matrix must be symmetric")
    Yinv = np.linalg.inv(Z.Y)
    a = Yinv @ Zhat.real
    b = Yinv @ Zhat.imag
    return float(np.trace(a @ a + b @ b).real)


def siegel_pushforward_fd(Z: SiegelPoint, Zhat: np.ndarray) -> np.ndarray:
    """Central finite-difference push-forward of siegel_to_acs along Ẑ, step 1e-5."""
    step = 1e-5
    Zp = SiegelPoint(Z.Z + step * Zhat)
    Zm = SiegelPoint(Z.Z - step * Zhat)
    return (siegel_to_acs(Zp).matrix - siegel_to_acs(Zm).matrix) / (2.0 * step)


def random_siegel_point(rng: np.random.Generator, n: int) -> SiegelPoint:
    """X + i(1 + AAᵀ) with X symmetric, both from normal entries scaled by 0.4."""
    X = 0.4 * rng.standard_normal((n, n))
    X = 0.5 * (X + X.T)
    A = 0.4 * rng.standard_normal((n, n))
    Y = np.eye(n) + A @ A.T
    return SiegelPoint(X + 1j * Y)


def lincs_suite(rep: CheckReport, grid: TorusGrid, seed: int, amp: float) -> None:
    """Moment-map, orbit-form, and Siegel checks for the linear model; the
    grid only gives n."""
    n = grid.n
    cases = rep.params["cases"] = 30
    rng = np.random.default_rng(seed)
    worst_moment = 0.0
    worst_tau = 0.0
    for _ in range(cases):
        J = random_lincs(rng, n, amp)
        xi = project_traceless(rng.standard_normal((2 * n, 2 * n)))
        jh = tangent_project(J, rng.standard_normal((2 * n, 2 * n)))
        worst_moment = max(worst_moment, rel_max1(moment_residual(J, xi, jh), jh.jhat))
        xi2 = project_traceless(rng.standard_normal((2 * n, 2 * n)))
        lhs = tau(J, bracket_tangent(J, xi), bracket_tangent(J, xi2))
        rhs = -np.trace((xi @ xi2 - xi2 @ xi) @ J.matrix)
        worst_tau = max(worst_tau, rel_plus1(lhs - rhs, rhs))
    rep.add("moment", worst_moment)
    rep.add("tau_two_expressions", worst_tau)

    worst_sg = 0.0
    for _ in range(max(5, cases // 2)):
        Z = random_siegel_point(rng, n)
        g = random_symplectic(rng, n)
        lhs = siegel_to_acs(symplectic_action(g, Z)).matrix
        rhs = g @ siegel_to_acs(Z).matrix @ np.linalg.inv(g)
        worst_sg = max(worst_sg, max_abs(lhs - rhs))
    rep.add("siegel_equivariance", worst_sg)

    worst_iso = 0.0
    for _ in range(5):
        Z = random_siegel_point(rng, n)
        Zh = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Zh = 0.5 * (Zh + Zh.T)
        jdot = siegel_pushforward_fd(Z, Zh)
        val = 0.5 * float(np.trace(jdot @ jdot).real)
        target = siegel_metric(Z, Zh)
        worst_iso = max(worst_iso, rel_max1(val - target, target))
    rep.add("siegel_isometry_fd", worst_iso)

    # closedness of the orbit form through the conjugation action
    h = 1e-3
    worst_closed = 0.0
    for _ in range(2):
        J0 = random_lincs(rng, n, amp)
        xis = [project_traceless(rng.standard_normal((2 * n, 2 * n))) for _ in range(3)]

        def at(sv):
            g = expm(sum(s * x for s, x in zip(sv, xis)))
            return LinCS(g @ J0.matrix @ np.linalg.inv(g))

        def tau_pair(sv, i, j):
            J = at(sv)
            return tau(J, bracket_tangent(J, xis[i]), bracket_tangent(J, xis[j]))

        def dirderiv(i, f):
            def along(t):
                e = np.zeros(3)
                e[i] = t
                return f(e)
            return richardson(along, h)

        def lie_term(i, j, k):
            com = xis[i] @ xis[j] - xis[j] @ xis[i]
            J = at(np.zeros(3))
            return tau(J, bracket_tangent(J, -com), bracket_tangent(J, xis[k]))

        total = (dirderiv(0, lambda s: tau_pair(s, 1, 2))
                 - dirderiv(1, lambda s: tau_pair(s, 0, 2))
                 + dirderiv(2, lambda s: tau_pair(s, 0, 1))
                 - lie_term(0, 1, 2) + lie_term(0, 2, 1) - lie_term(1, 2, 0))
        worst_closed = max(worst_closed, rel_max1(total, tau_pair(np.zeros(3), 1, 2)))
    rep.add("tau_closed_fd", worst_closed)
