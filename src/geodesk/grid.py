"""Spectral field calculus on flat tori (R/2πZ)^{2n}.

Layout: component axes first, the 2n grid axes last.  Scalars are (m,)*d,
vectors (d,)+grid, k-forms (C(d,k),)+grid over increasing index tuples,
endomorphisms (d,d)+grid with E[i, j] = E^i_j, metrics (d,d)+grid,
Christoffel arrays (d,d,d)+grid with G[k, i, j] = Γ^k_{ij}.  Fields may be
strided views (transposes, ``moveaxis``); the pointwise helpers of
``geodesk.pointwise`` accept any strides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import combi
from . import pointwise as P
from .combi import standard_j, standard_omega_matrix, vol_sign
from .errors import DomainError, NumericError, UsageError
from .report import max_abs

_CACHE: dict[tuple[int, int], dict] = {}
# Largest m at which derivatives use the dense (m, m) matrix instead of an FFT:
# one batched matmul per axis, written straight into the output.  For a (2, 2)
# field at n=1 the FFT takes 0.14 / 0.95 / 4.9 ms at m = 64 / 128 / 256 and the
# matrix 0.043 / 0.34 / 2.5 ms (x86-64, one BLAS thread); for a scalar at
# m = 256 the FFT wins.
_MATMUL_MAX_M = 64


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on T^{2n} with m samples per axis."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("n must be >= 1")
        if self.m < 8 or self.m % 2:
            raise UsageError("m must be even and >= 8")

    @property
    def d(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.d

    @property
    def axes(self) -> tuple[int, ...]:
        return tuple(range(-self.d, 0))

    @property
    def npoints(self) -> int:
        return self.m ** self.d

    @property
    def cell_volume(self) -> float:
        return (2.0 * np.pi / self.m) ** self.d

    @property
    def band(self) -> int:
        """Mode cutoff used for seeded data: strictly inside |k| <= m/4."""
        return max(1, self.m // 4 - 1)

    def _cache(self) -> dict:
        key = (self.n, self.m)
        if key not in _CACHE:
            freq = np.rint(np.fft.fftfreq(self.m) * self.m).astype(int)
            mul = 1j * freq.astype(float)  # d/dx on one axis; the Nyquist bin has
            mul[np.abs(freq) == self.m // 2] = 0.0  # no real derivative, so it maps to 0
            kax, dmul = [], []
            for j in range(self.d):
                shp = [1] * self.d
                shp[j] = self.m
                kax.append(freq.reshape(shp))
                dmul.append(mul.reshape(shp))
            ksq = sum(k.astype(float) ** 2 for k in kax)
            x = 2.0 * np.pi * np.arange(self.m) / self.m
            dmat = np.fft.ifft(mul[:, None] * np.fft.fft(np.eye(self.m), axis=0), axis=0).real
            dmat -= dmat.sum(axis=1, keepdims=True) / self.m  # constants map to 0 exactly
            _CACHE[key] = {"k": kax, "dmul": dmul, "ksq": ksq, "x": x, "dmat": dmat,
                           "dmul_r": [dm[..., :self.m // 2 + 1] for dm in dmul]}
        return _CACHE[key]

    def _spectral(self, arr: np.ndarray):
        """The derivative route for arr: None for the dense matmul (m <=
        ``_MATMUL_MAX_M``), else (forward transform, per-axis multipliers i·k_j,
        inverse) by real FFT for real input and complex FFT otherwise."""
        if self.m <= _MATMUL_MAX_M:
            return None
        if np.isrealobj(arr):
            return self.rfft(arr), self._cache()["dmul_r"], self.irfft
        return self.fft(arr), self._cache()["dmul"], self.ifft

    def _deriv_on(self, route, arr: np.ndarray, j: int) -> np.ndarray:
        if route is None:
            return self._deriv_dense(arr, j)
        F, dmul, inverse = route
        return inverse(dmul[j] * F)

    def _deriv_dense(self, arr: np.ndarray, j: int, out: np.ndarray | None = None):
        """∂_j arr by the dense matrix D: one batched matmul on the (P, m, Q)
        view of grid axis j, Q = m^(d−1−j), written straight into out
        (C-contiguous, arr's shape; allocated when None)."""
        arr = np.ascontiguousarray(arr)
        if out is None:
            out = np.empty(arr.shape, dtype=_deriv_dtype(arr))
        D, m = self._cache()["dmat"], self.m
        q = m ** (self.d - 1 - j)
        if q == 1:
            np.matmul(arr.reshape(-1, m), D.T, out=out.reshape(-1, m))
        else:
            np.matmul(D, arr.reshape(-1, m, q), out=out.reshape(-1, m, q))
        return out

    def coords(self) -> np.ndarray:
        """(d,) + grid array of coordinates."""
        x = self._cache()["x"]
        grids = np.meshgrid(*([x] * self.d), indexing="ij")
        return np.stack(grids)

    def fft(self, arr: np.ndarray) -> np.ndarray:
        return np.fft.fftn(arr, axes=self.axes)

    def ifft(self, arr: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(arr, axes=self.axes)

    def rfft(self, arr: np.ndarray) -> np.ndarray:
        """Transform of real input; the last grid axis keeps modes 0 … m/2."""
        return np.fft.rfftn(arr, axes=self.axes)

    def irfft(self, F: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(F, s=self.shape, axes=self.axes)

    def deriv(self, arr: np.ndarray, j: int) -> np.ndarray:
        return self._deriv_on(self._spectral(arr), arr, j)

    def derivs_by_axis(self, arr: np.ndarray):
        """∂_0 arr, …, ∂_{d−1} arr, one at a time from one forward transform
        (or one contiguous copy of a strided arr on the dense route).  Take
        them with next(): enumerate's result tuple keeps the previous one
        alive while the next is computed."""
        route = self._spectral(arr)
        if route is None:
            arr = np.ascontiguousarray(arr)
        return (self._deriv_on(route, arr, j) for j in range(self.d))

    def derivs(self, arr: np.ndarray) -> np.ndarray:
        """All coordinate derivatives, stacked on a new leading axis of a
        C-contiguous array that each axis's derivative is written into."""
        route = self._spectral(arr)
        if route is None:
            arr = np.ascontiguousarray(arr)
        out = np.empty((self.d,) + arr.shape, dtype=_deriv_dtype(arr))
        for j in range(self.d):
            if route is None:
                self._deriv_dense(arr, j, out[j])
            else:
                out[j] = self._deriv_on(route, arr, j)
        return out

    def integrate_scalar(self, f: np.ndarray) -> float | complex:
        val = np.sum(f) * self.cell_volume
        return float(val.real) if np.isrealobj(f) else complex(val)

    def mean(self, f: np.ndarray) -> float | complex:
        return self.integrate_scalar(f) / (2.0 * np.pi) ** self.d


def _deriv_dtype(arr: np.ndarray) -> type:
    return float if np.isrealobj(arr) else complex


# ---------------------------------------------------------------------------
# constant structures as fields


def constant_field(grid: TorusGrid, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat)
    return np.broadcast_to(mat.reshape(mat.shape + (1,) * grid.d),
                           mat.shape + grid.shape).copy()


def is_constant(grid: TorusGrid, field: np.ndarray) -> bool:
    """True when every component of ``field`` takes one value over the grid;
    False when it holds a NaN."""
    flat = field.reshape(field.shape[:field.ndim - grid.d] + (-1,))
    return bool(np.all(np.ptp(flat, axis=-1) == 0.0))


def standard_j_field(grid: TorusGrid) -> np.ndarray:
    return constant_field(grid, standard_j(grid.n))


def standard_omega_field(grid: TorusGrid) -> np.ndarray:
    return form_from_matrix(grid, constant_field(grid, standard_omega_matrix(grid.n)))


def standard_volume_field(grid: TorusGrid) -> np.ndarray:
    out = np.zeros((1,) + grid.shape)
    out[0] = vol_sign(grid.n)
    return out


# ---------------------------------------------------------------------------
# form-field calculus


def form_from_matrix(grid: TorusGrid, mat: np.ndarray) -> np.ndarray:
    """2-form coefficients from an antisymmetric (d, d)+grid array."""
    cs = combi.combos(grid.d, 2)
    return np.stack([mat[i, j] for i, j in cs])


def form_to_matrix(grid: TorusGrid, coef: np.ndarray) -> np.ndarray:
    out = np.zeros((grid.d, grid.d) + coef.shape[1:], dtype=coef.dtype)
    for idx, (i, j) in enumerate(combi.combos(grid.d, 2)):
        out[i, j] = coef[idx]
        out[j, i] = -coef[idx]
    return out


def exterior_d(grid: TorusGrid, coef: np.ndarray, k: int) -> np.ndarray:
    """Spectral exterior derivative of a k-form field."""
    if k >= grid.d:
        raise UsageError("exterior_d: form already has top degree")
    i_hi, j, i_lo, sign = combi._interior_table(grid.d, k + 1)
    route = grid._spectral(coef)
    if route is None:
        dall = grid.derivs(coef)  # [j, combo]
        out = np.zeros((combi.n_combos(grid.d, k + 1),) + coef.shape[1:], dtype=coef.dtype)
        for r in range(len(i_hi)):
            out[i_hi[r]] += sign[r] * dall[j[r], i_lo[r]]
        return out
    F, dmul, inverse = route  # combine in Fourier space: one inverse transform
    out_hat = np.zeros((combi.n_combos(grid.d, k + 1),) + F.shape[1:], dtype=complex)
    for r in range(len(i_hi)):
        out_hat[i_hi[r]] += sign[r] * dmul[j[r]] * F[i_lo[r]]
    return inverse(out_hat)


def wedge_f(grid: TorusGrid, a: np.ndarray, b: np.ndarray, p: int, q: int) -> np.ndarray:
    if p + q > grid.d:
        raise UsageError("wedge_f: degree exceeds dimension")
    return combi.wedge_coef(a, b, grid.d, p, q)


def interior_f(grid: TorusGrid, v: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    if k < 1:
        raise UsageError("interior_f: form must have degree >= 1")
    return combi.interior_coef(v, a, grid.d, k)


def integrate(grid: TorusGrid, coef: np.ndarray) -> float | complex:
    """Integral of a top-degree form field."""
    if coef.shape[0] != 1 or coef.ndim != grid.d + 1:
        raise UsageError("integrate expects a top-degree form field")
    return vol_sign(grid.n) * grid.integrate_scalar(coef[0])


def integrate_against_volume(grid: TorusGrid, f: np.ndarray, rho: np.ndarray) -> float | complex:
    """∫ f ρ for a scalar f and a top-degree form ρ."""
    return vol_sign(grid.n) * grid.integrate_scalar(f * rho[0])


def metric_sqrt_det(g: np.ndarray) -> np.ndarray:
    det = P.det(g)
    if np.any(det <= 0):
        raise DomainError("metric determinant must be positive")
    return np.sqrt(det)


def _star_metric(grid: TorusGrid, g: np.ndarray | None):
    """(g⁻¹, √det g) for the Hodge star; the flat metric when g is None."""
    if g is None:
        return np.eye(grid.d), 1.0
    return P.inv(g), metric_sqrt_det(g)


def star_f(grid: TorusGrid, coef: np.ndarray, k: int,
           g: np.ndarray | None = None) -> np.ndarray:
    """Hodge star; flat metric when g is None."""
    return combi.star_coef(coef, grid.d, k, *_star_metric(grid, g), vol_sign(grid.n))


def codiff_f(grid: TorusGrid, coef: np.ndarray, k: int,
             g: np.ndarray | None = None) -> np.ndarray:
    """d* = −*d* (even-dimensional convention, all degrees); g⁻¹ and √det g
    are computed once for both stars."""
    if k < 1:
        raise UsageError("codiff_f: degree must be >= 1")
    d, metric, sign = grid.d, _star_metric(grid, g), vol_sign(grid.n)
    star = combi.star_coef(coef, d, k, *metric, sign)
    return -combi.star_coef(exterior_d(grid, star, d - k), d, d - k + 1, *metric, sign)


def l2_inner_form(grid: TorusGrid, a: np.ndarray, b: np.ndarray, k: int,
                  rho: np.ndarray | None = None):
    """L² pairing ∫ <a, b> ρ of k-forms for the flat metric; ρ defaults to
    its volume form."""
    if rho is None:
        rho = standard_volume_field(grid)
    return integrate_against_volume(
        grid, combi.metric_inner_coef(a, b, grid.d, k, np.eye(grid.d)), rho)


def pq_project_f(grid: TorusGrid, coef: np.ndarray, k: int, J: np.ndarray,
                 p: int, q: int) -> np.ndarray:
    return combi.pq_project_coef(coef, grid.d, k, J, p, q)


def one_form_compose_j(lam: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(λ∘J)(u) := λ(J u), i.e. components λ_k J^k_i."""
    return P.contract("k...,ki...->i...", lam, J)


# ---------------------------------------------------------------------------
# Lie derivatives (spectral, connection-free)


def lie_endo(grid: TorusGrid, v: np.ndarray, E: np.ndarray) -> np.ndarray:
    """(L_v E)^i_j = v^k ∂_kE^i_j − ∂_kv^i E^k_j + E^i_k ∂_jv^k, summed into
    one output: the first term one derivative axis k at a time, the others
    by ``P.contract_add``, so neither the stacked ∂E nor a full-grid term is
    built."""
    dE = grid.derivs_by_axis(E)
    out = v[0] * next(dE)
    for k in range(1, grid.d):
        P.contract_add(out, 1, "...,ij...->ij...", v[k], next(dE))
    dv = grid.derivs(v)  # dv[k, i] = ∂_k v^i
    P.contract_add(out, -1, "ki...,kj...->ij...", dv, E)
    P.contract_add(out, 1, "ik...,jk...->ij...", E, dv)
    return out


def lie_form(grid: TorusGrid, v: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return P.contract("j...,j...->...", v, grid.derivs(a))
    out = exterior_d(grid, interior_f(grid, v, a, k), k - 1)
    if k < grid.d:
        out = out + interior_f(grid, v, exterior_d(grid, a, k), k + 1)
    return out


def divergence_frho(grid: TorusGrid, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """f_v with f_v ρ = dι(v)ρ, for a positive volume form ρ."""
    if np.any(vol_sign(grid.n) * rho[0] <= 0):
        raise DomainError("divergence_frho: volume form must be positive")
    num = exterior_d(grid, interior_f(grid, v, rho, grid.d), grid.d - 1)
    return num[0] / rho[0]


def vector_from_contraction(grid: TorusGrid, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Solve ι(v)ρ = σ pointwise for the top form ρ and (d−1)-form σ."""
    if np.any(np.abs(rho[0]) <= 0):
        raise DomainError("volume form must be nondegenerate")
    d = grid.d
    full = tuple(range(d))
    idx = combi.combo_index(d, d - 1)
    v = np.zeros((d,) + grid.shape, dtype=sigma.dtype)
    for pos in range(d):
        rest = full[:pos] + full[pos + 1:]
        sign = (-1.0) ** pos
        v[pos] = sigma[idx[rest]] / (sign * rho[0])
    return v


# ---------------------------------------------------------------------------
# Poisson solves


# relative residual at which poisson_solve's CG stops, and its iteration cap
_CG_TOL = 1e-10
_CG_MAX_ITER = 800


def poisson_solve(grid: TorusGrid, f: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Solve Δu = f with Δ = d*d ≥ 0, mean-zero u.

    Flat metric: ``flat_green``, exact.  Curved metric: preconditioned CG on
    the divergence form −∂_i(√g g^{ij} ∂_j u) = √g f.
    """
    sq = 1.0 if g is None else metric_sqrt_det(g)
    rhs = sq * f
    mean = abs(grid.mean(rhs))
    if mean > 1e-8 * max(1.0, max_abs(rhs)):
        raise DomainError(f"poisson_solve: source has nonzero √g-weighted mean {mean:.3e}")
    if g is None:
        return flat_green(grid, f)
    ginv = P.inv(g)
    # restrict to the range of the spectral divergence (no Nyquist lines)
    rhs = drop_nyquist(grid, rhs)
    coef = P.contract("ij...->...", ginv * sq) / grid.d  # scale for the preconditioner

    def op(u):
        return _divergence_form(grid, u, ginv, sq)

    def precond(r):
        return flat_green(grid, r) / float(np.mean(coef))

    u = np.zeros_like(rhs)
    r = rhs - op(u)
    z = precond(r)
    p = z
    rz = np.sum(r * z)
    norm_rhs = np.sqrt(np.sum(rhs * rhs))
    for _ in range(_CG_MAX_ITER):
        Ap = op(p)
        alpha = rz / np.sum(p * Ap)
        u = u + alpha * p
        r = r - alpha * Ap
        if np.sqrt(np.sum(r * r)) <= _CG_TOL * norm_rhs:
            break
        z = precond(r)
        rz_new = np.sum(r * z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise NumericError("poisson_solve: CG did not converge",
                           residual=float(np.sqrt(np.sum(r * r)) / norm_rhs))
    u = u - grid.mean(u)
    return u


def flat_green(grid: TorusGrid, f: np.ndarray) -> np.ndarray:
    """Green's operator of the flat Δ = d*d: each Fourier mode divided by |k|²,
    the mean mode set to zero.  Real input gives real output."""
    ksq = grid._cache()["ksq"]
    F = grid.fft(f) / np.where(ksq > 0, ksq, 1.0)
    F[(...,) + (0,) * grid.d] = 0.0
    u = grid.ifft(F)
    return u.real if np.isrealobj(f) else u


def laplacian(grid: TorusGrid, u: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Δu = d*du (≥ 0 convention)."""
    if g is None:
        out = grid.ifft(grid._cache()["ksq"] * grid.fft(u))
        return out.real if np.isrealobj(u) else out
    sq = metric_sqrt_det(g)
    return _divergence_form(grid, u, P.inv(g), sq) / sq


def _divergence_form(grid: TorusGrid, u: np.ndarray, ginv: np.ndarray,
                     sq: np.ndarray) -> np.ndarray:
    """−Σ_i ∂_i(√g g^{ij} ∂_j u), from g⁻¹ and √det g."""
    flux = P.contract("ij...,j...->i...", ginv, grid.derivs(u)) * sq
    return -sum(grid.deriv(flux[i], i) for i in range(grid.d))


# ---------------------------------------------------------------------------
# seeded random fields


def drop_nyquist(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    """Remove modes with any |k_j| = m/2 (outside the derivative's range)."""
    out = grid.ifft(grid.fft(arr) * _band_mask(grid, grid.m // 2 - 1))
    return out.real if np.isrealobj(arr) else out


def _band_mask(grid: TorusGrid, kmax: int) -> np.ndarray:
    kax = grid._cache()["k"]
    mask = np.ones(grid.shape, dtype=bool)
    for j in range(grid.d):
        mask &= np.abs(kax[j]) <= kmax
    return mask


# Largest amplitude of a seeded almost complex structure ("acs" kind of
# ``random_band_limited``, ``random_acs_symplectic``): it keeps I + K
# invertible.  ``cli`` refuses a larger --amp for the suites that seed one.
ACS_AMPLITUDE_CAP = 0.2


def acs_band(m: int) -> int:
    """Default band of seeded fields: narrow, so Neumann tails stay at machine
    level, and at most 3: second derivatives grow as band², and band 6 left
    the seeded Kähler potential of ``ricci-laws`` indefinite at m = 128."""
    return min(3, max(1, m // 20))


def _smooth_channels(grid: TorusGrid, rng: np.random.Generator,
                     shape: tuple[int, ...], amplitude: float,
                     band: int | None = None) -> np.ndarray:
    raw = rng.standard_normal(shape + grid.shape)
    F = grid.rfft(raw)
    F *= _band_mask(grid, grid.band if band is None else band)[..., :grid.m // 2 + 1]
    out = grid.irfft(F)
    peak = max_abs(out)
    if peak > 0:
        out *= amplitude / peak
    return out


def random_band_limited(grid: TorusGrid, kind: str, seed: int, amplitude: float = 0.1,
                        band: int | None = None) -> np.ndarray:
    """Deterministic band-limited field of the requested kind.

    amplitude 0 returns the constant baseline of the kind (J0, standard ρ,
    zero otherwise).
    """
    if amplitude < 0:
        raise UsageError("amplitude must be >= 0")
    rng = np.random.default_rng(seed)
    channels = {"scalar": (), "vector": (grid.d,), "endo": (grid.d, grid.d)}.get(kind)
    if kind.startswith("form:"):
        channels = (combi.n_combos(grid.d, int(kind.split(":")[1])),)
    if channels is not None:
        return (_smooth_channels(grid, rng, channels, amplitude, band) if amplitude
                else np.zeros(channels + grid.shape))
    if kind == "acs":
        if amplitude > ACS_AMPLITUDE_CAP:
            raise UsageError(f"acs amplitude capped at {ACS_AMPLITUDE_CAP} to keep I+K invertible")
        J0 = standard_j_field(grid)
        if not amplitude:
            return J0
        K = _smooth_channels(grid, rng, (grid.d, grid.d), amplitude,
                             acs_band(grid.m) if band is None else band)
        S = constant_field(grid, np.eye(grid.d)) + K
        Sinv = P.inv(S)
        return P.mul(S, J0, Sinv)
    if kind == "volume":
        s = _smooth_channels(grid, rng, (), amplitude,
                             acs_band(grid.m) if band is None else band) \
            if amplitude else np.zeros(grid.shape)
        return standard_volume_field(grid) * np.exp(2.0 * s)
    raise UsageError(f"unknown field kind {kind!r}")


def matrix_exp_field(F: np.ndarray) -> np.ndarray:
    """Pointwise exp of an endomorphism field with small entries: its Taylor
    series to order 12."""
    d = F.shape[0]
    out = constant_field_like(F, np.eye(d))
    term = out.copy()
    for k in range(1, 13):
        term = P.mul(term, F) / k
        out = out + term
    return out


def constant_field_like(F: np.ndarray, mat: np.ndarray) -> np.ndarray:
    return np.broadcast_to(mat.reshape(mat.shape + (1,) * (F.ndim - 2)), F.shape).copy()


def random_acs_symplectic(grid: TorusGrid, seed: int, amplitude: float = 0.1) -> np.ndarray:
    """ω0-compatible almost complex structure field e^ξ J0 e^{−ξ}, ξ ∈ sp(2n)."""
    if amplitude > ACS_AMPLITUDE_CAP:
        raise UsageError(f"amplitude capped at {ACS_AMPLITUDE_CAP}")
    if not amplitude:
        return standard_j_field(grid)
    E = matrix_exp_field(random_hamiltonian_matrix_field(grid, seed, amplitude))
    return P.mul(E, standard_j_field(grid), P.inv(E))


def random_hamiltonian_matrix_field(grid: TorusGrid, seed: int,
                                    amplitude: float = 0.1) -> np.ndarray:
    """Field with values in sp(2n), band-limited to ``acs_band``."""
    rng = np.random.default_rng(seed)
    S = _smooth_channels(grid, rng, (grid.d, grid.d), amplitude, acs_band(grid.m))
    S = 0.5 * (S + np.swapaxes(S, 0, 1))
    Winv = np.linalg.inv(standard_omega_matrix(grid.n))
    return P.contract("ik,kj...->ij...", Winv, S)


# ---------------------------------------------------------------------------
# diffeomorphisms and pullbacks


_INTERP_BYTES = 1 << 24  # budget for the largest temporary of fourier_interpolate
_INTERP_REL_CUT = 1e-14  # the modes fourier_interpolate keeps, relative to the largest


def fourier_interpolate(grid: TorusGrid, arr: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of arr at points (d, P).

    Sums exactly the Fourier modes whose magnitude, over all components,
    exceeds ``_INTERP_REL_CUT`` times the largest.  The sum factors over the torus
    axes: the kept modes lie in the box K_0 × … × K_{d−1} of the frequencies
    each axis keeps, and the other modes of the box are zeroed.  Each chunk of
    points builds per-axis phase tables exp(i k x_j), contracts the last axis
    with one matmul and folds the others by multiply-and-sum.  Chunks are
    sized so that the largest temporary stays within ``_INTERP_BYTES``
    whatever the number of modes (a chunk holds at least one point).  Real
    input gives real output.
    """
    d = grid.d
    comp_shape = arr.shape[:-d]
    flat = arr.reshape((-1,) + grid.shape)
    F = grid.fft(flat) / grid.npoints
    mags = np.max(np.abs(F), axis=0)
    mask = mags > _INTERP_REL_CUT * np.max(mags)
    npts = pts.shape[1]
    if not mask.any():  # a zero (or NaN) field: no mode is kept
        return np.zeros(comp_shape + (npts,), dtype=float if np.isrealobj(arr) else complex)
    kax = grid._cache()["k"]
    keep = [np.flatnonzero(mask.any(axis=tuple(a for a in range(d) if a != j)))
            for j in range(d)]
    box = np.ix_(*keep)
    coefs = F[(slice(None),) + box]  # (C, K_0, ..., K_{d-1})
    coefs[:, ~mask[box]] = 0.0
    freqs = [kax[j].ravel()[keep[j]] for j in range(d)]
    lead = coefs.reshape(-1, coefs.shape[-1])  # (C·ΠK_{<d−1}, K_{d−1})
    per_point = 16 * max(lead.shape[0], *map(len, freqs))  # complex bytes
    step = max(1, _INTERP_BYTES // per_point)
    out = np.empty((flat.shape[0], npts), dtype=complex)
    for start in range(0, npts, step):
        x = pts[:, start:start + step]
        acc = lead @ _phase_table(freqs[-1], x[-1])
        acc = acc.reshape(coefs.shape[:-1] + (-1,))
        for j in range(d - 2, -1, -1):
            acc *= _phase_table(freqs[j], x[j])
            acc = acc.sum(axis=-2)
        out[:, start:start + step] = acc
    if np.isrealobj(arr):
        out = out.real
    return out.reshape(comp_shape + (npts,))


def _phase_table(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(i k x) for frequencies k (K,) and coordinates x (p,), as (K, p)."""
    table = np.multiply.outer(1j * k, x)
    return np.exp(table, out=table)


@dataclass(frozen=True)
class AffineMap:
    """x ↦ A x + shift with A ∈ SL(2n, Z) and a grid-aligned shift (in index units)."""

    A: np.ndarray
    shift: np.ndarray = field(default=None)

    def __post_init__(self):
        A = np.asarray(self.A)
        if not np.issubdtype(A.dtype, np.integer):
            if not np.allclose(A, np.rint(A)):
                raise UsageError("affine matrix must be integer")
            A = np.rint(A).astype(int)
        if round(np.linalg.det(A.astype(float))) != 1:
            raise DomainError("affine matrix must have determinant one")
        object.__setattr__(self, "A", A)
        s = np.zeros(A.shape[0], dtype=int) if self.shift is None else np.asarray(self.shift, dtype=int)
        object.__setattr__(self, "shift", s)


@dataclass(frozen=True)
class DisplacementMap:
    """x ↦ x + u(x) for a band-limited displacement field u."""

    u: np.ndarray


def displacement_jacobian(grid: TorusGrid, u: np.ndarray) -> np.ndarray:
    du = grid.derivs(u)  # du[j, i] = ∂_j u^i
    jac = P.contract("ji...->ij...", du)
    d = grid.d
    jac = jac + constant_field(grid, np.eye(d))
    det = P.det(jac)
    if det.min() < 0.1:
        raise DomainError(f"displacement Jacobian determinant dips to {det.min():.3f}")
    return jac


def _transform_components(grid: TorusGrid, kind: str, vals: np.ndarray,
                          jac: np.ndarray) -> np.ndarray:
    if kind == "scalar":
        return vals
    if kind == "vector":
        jinv = P.inv(jac)
        return P.contract("ij...,j...->i...", jinv, vals)
    if kind == "endo":
        jinv = P.inv(jac)
        return P.mul(jinv, vals, jac)
    if kind == "metric":
        return P.contract("ki...,kl...,lj...->ij...", jac, vals, jac)
    if kind.startswith("form:"):
        k = int(kind.split(":")[1])
        return combi.pullback_linear_coef(vals, grid.d, k, jac)
    if kind == "christoffel":
        jinv = P.inv(jac)
        return P.contract("kc...,cab...,ai...,bj...->kij...", jinv, vals, jac, jac)
    raise UsageError(f"unknown field kind {kind!r}")


def pullback(grid: TorusGrid, kind: str, data: np.ndarray,
             phi: AffineMap | DisplacementMap) -> np.ndarray:
    """φ*T for tensor fields; exact regrid for affine maps, trigonometric
    interpolation for displacement maps."""
    if isinstance(phi, AffineMap):
        idx = np.indices(grid.shape)
        target = np.tensordot(phi.A, idx, axes=1) + phi.shift.reshape((grid.d,) + (1,) * grid.d)
        target %= grid.m
        gathered = data[(Ellipsis,) + tuple(target)]
        jac = constant_field(grid, phi.A.astype(float))
        return _transform_components(grid, kind, gathered, jac)
    u = phi.u
    jac = displacement_jacobian(grid, u)
    pts = (grid.coords() + u).reshape(grid.d, -1)
    vals = fourier_interpolate(grid, data, pts)
    vals = vals.reshape(vals.shape[:-1] + grid.shape)
    out = _transform_components(grid, kind, vals, jac)
    if kind == "christoffel":
        # inhomogeneous term (Dφ)^{-1} ∂²φ
        jinv = P.inv(jac)
        hess = P.contract("ijc...->cij...", grid.derivs(grid.derivs(u)))
        out = out + P.contract("kc...,cij...->kij...", jinv, hess)
    return out
