import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geodesk import combi
from geodesk import connection as C
from geodesk import grid as G
from geodesk.errors import DomainError, UsageError
from geodesk.grid import (AffineMap, DisplacementMap, TorusGrid,
                          codiff_f, constant_field, divergence_frho, exterior_d,
                          flat_green, fourier_interpolate,
                          integrate, integrate_against_volume, interior_f,
                          laplacian, lie_endo, lie_form, poisson_solve,
                          pullback, pq_project_f, random_band_limited,
                          standard_j_field, standard_omega_field, standard_volume_field,
                          star_f, vector_from_contraction, wedge_f)

from oracles import flow_rk4, lie_derivative_J

T2 = TorusGrid(1, 16)
T4 = TorusGrid(2, 8)


def test_grid_validation():
    with pytest.raises(UsageError):
        TorusGrid(1, 7)
    with pytest.raises(UsageError):
        TorusGrid(1, 4)


def test_integrate_standard_volume():
    for g in (T2, T4):
        rho = standard_volume_field(g)
        assert np.isclose(integrate(g, rho), (2 * np.pi) ** g.d)
    with pytest.raises(UsageError):
        integrate(T2, standard_omega_field(T4)[:1])


def test_exterior_d_analytic():
    g = T2
    x = g.coords()
    # d(sin x1 dx2) = cos x1 dx1∧dx2
    a = np.zeros((2,) + g.shape)
    a[1] = np.sin(x[0])
    da = exterior_d(g, a, 1)
    np.testing.assert_allclose(da[0], np.cos(x[0]), atol=1e-12)
    # constant form -> 0
    np.testing.assert_allclose(exterior_d(g, np.ones((2,) + g.shape), 1), 0.0, atol=1e-13)
    with pytest.raises(UsageError):
        exterior_d(g, da, 2)


def test_dd_zero_and_stokes():
    rng_seed = 7
    for g, k in ((TorusGrid(1, 16), 0), (TorusGrid(2, 16), 1)):
        a = random_band_limited(g, f"form:{k}", rng_seed) if k else \
            random_band_limited(g, "scalar", rng_seed)[None]
        dda = exterior_d(g, exterior_d(g, a, k), k + 1)
        assert np.max(np.abs(dda)) <= 1e-12
        alpha = random_band_limited(g, f"form:{g.d - 1}", rng_seed + 1)
        assert abs(integrate(g, exterior_d(g, alpha, g.d - 1))) <= 1e-12


def test_integrate_sin_squared():
    g = TorusGrid(1, 16)
    x = g.coords()
    vol = standard_volume_field(g)
    val = integrate_against_volume(g, np.sin(x[0]) ** 2, vol)
    assert np.isclose(val, 2 * np.pi ** 2)


def test_wedge_interior_match_pointwise_core():
    g = T2
    a = random_band_limited(g, "form:1", 3)
    b = random_band_limited(g, "form:1", 4)
    w = wedge_f(g, a, b, 1, 1)
    np.testing.assert_allclose(w[0], a[0] * b[1] - a[1] * b[0], atol=1e-13)
    v = random_band_limited(g, "vector", 5)
    iv = interior_f(g, v, w, 2)
    # ι(v)(c dx∧dy) = c(v^x dy − v^y dx)
    np.testing.assert_allclose(iv[0], -v[1] * w[0], atol=1e-13)
    np.testing.assert_allclose(iv[1], v[0] * w[0], atol=1e-13)
    with pytest.raises(UsageError):
        interior_f(g, v, np.ones((1,) + g.shape), 0)


def test_star_flat_roundtrip_and_codiff():
    for g in (T2, T4):
        for k in range(g.d + 1):
            a = random_band_limited(g, f"form:{k}", 11 + k)
            ss = star_f(g, star_f(g, a, k), g.d - k)
            np.testing.assert_allclose(ss, (-1.0) ** k * a, atol=1e-12)
    # d*d on functions reproduces the spectral laplacian
    g = T2
    f = random_band_limited(g, "scalar", 2)
    lhs = codiff_f(g, exterior_d(g, f[None], 0), 1)[0]
    np.testing.assert_allclose(lhs, laplacian(g, f), atol=1e-10)


def test_flat_laplacian_keeps_complex_input():
    g = TorusGrid(1, 16)
    f = random_band_limited(g, "scalar", 3)
    lap = laplacian(g, f)
    assert np.isrealobj(lap)
    # equal up to the rounding-level real part of the inverse FFT
    np.testing.assert_allclose(laplacian(g, 1j * f), 1j * lap, rtol=0,
                               atol=1e-14 * np.max(np.abs(lap)))


def test_poisson_flat_and_curved():
    g = TorusGrid(1, 32)
    x = g.coords()
    f = np.cos(x[0])
    u = poisson_solve(g, f)
    np.testing.assert_allclose(u, np.cos(x[0]), atol=1e-12)
    assert np.max(np.abs(poisson_solve(g, np.zeros(g.shape)))) == 0.0
    with pytest.raises(DomainError):
        poisson_solve(g, np.ones(g.shape))
    # curved: conformal metric e^{2φ}δ on T², smooth low-mode φ
    g = TorusGrid(1, 64)
    x = g.coords()
    phi = 0.1 * np.sin(x[0]) * np.cos(x[1])
    metric = constant_field(g, np.eye(2)) * np.exp(2 * phi)
    src = random_band_limited(g, "scalar", 10, 0.5)
    sq = G.metric_sqrt_det(metric)
    src = src - g.integrate_scalar(src * sq) / g.integrate_scalar(sq)
    u = poisson_solve(g, src, metric)
    resid = laplacian(g, u, metric) - src
    assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, np.max(np.abs(src)))


def _band_limited(g, kind, seed, cplx):
    a = random_band_limited(g, kind, seed)
    return a + 1j * random_band_limited(g, kind, seed + 1) if cplx else a


@pytest.mark.parametrize("cplx", [False, True])
def test_derivative_routes_agree(cplx):
    # m = 72, above the dense cap, takes the FFT routes; the
    # dense matrix is pinned against both
    g = TorusGrid(1, 72)
    assert g._spectral(np.zeros(g.shape)) is not None
    assert TorusGrid(1, 64)._spectral(np.zeros((1, 1))) is None
    for kind in ("scalar", "vector", "endo"):
        a = _band_limited(g, kind, 3, cplx)
        da = g.derivs(a)
        assert da.dtype == (np.complex128 if cplx else np.float64)
        scale = np.max(np.abs(da))
        for j in range(g.d):
            dense = g._deriv_dense(a, j)
            assert np.max(np.abs(dense - da[j])) <= 1e-12 * scale
            assert np.max(np.abs(g.deriv(a, j) - da[j])) <= 1e-12 * scale


@pytest.mark.parametrize("cplx", [False, True])
def test_exterior_d_fourier_combination_matches_derivs(cplx):
    g = TorusGrid(1, 72)
    for k in range(g.d):
        a = _band_limited(g, f"form:{k}", 5 + k, cplx)
        i_hi, j, i_lo, sign = combi._interior_table(g.d, k + 1)
        dall = g.derivs(a)
        ref = np.zeros((combi.n_combos(g.d, k + 1),) + g.shape, dtype=dall.dtype)
        for r in range(len(i_hi)):
            ref[i_hi[r]] += sign[r] * dall[j[r], i_lo[r]]
        da = exterior_d(g, a, k)
        assert da.dtype == ref.dtype
        assert np.max(np.abs(da - ref)) <= 1e-12 * np.max(np.abs(ref))


def _real_complex_strided(g, kind, seed):
    """A real and a complex field of the given kind, each also as a strided
    view with its first and last grid axes transposed."""
    a = _band_limited(g, kind, seed, False)
    c = _band_limited(g, kind, seed, True)
    return a, c, np.swapaxes(a, -g.d, -1), np.swapaxes(c, -g.d, -1)


@pytest.mark.parametrize("kind", ["scalar", "vector", "endo"])
def test_dense_kernel_matches_moveaxis_form(kind):
    # the batched (P, m, Q) matmul is bit-identical to moving axis j last,
    # applying Dᵀ and moving it back
    g = TorusGrid(2, 16)
    D = g._cache()["dmat"]
    for a in _real_complex_strided(g, kind, 21):
        da = g.derivs(a)
        assert da.dtype == (np.float64 if np.isrealobj(a) else np.complex128)
        for j in range(g.d):
            ax = a.ndim - g.d + j
            ref = np.moveaxis(np.moveaxis(a, ax, -1) @ D.T, -1, ax)
            assert np.array_equal(da[j], ref)
            assert np.array_equal(g.deriv(a, j), ref)


@pytest.mark.parametrize("g", [TorusGrid(2, 16), TorusGrid(1, 72)], ids=["dense", "fft"])
def test_derivs_stack_matches_deriv_and_by_axis(g):
    for a in _real_complex_strided(g, "endo", 23):
        da = g.derivs(a)
        assert da.flags.c_contiguous and da.shape == (g.d,) + a.shape
        by_axis = list(g.derivs_by_axis(a))
        for j in range(g.d):
            assert np.array_equal(da[j], g.deriv(a, j))
            assert np.array_equal(da[j], by_axis[j])


@pytest.mark.parametrize("cplx", [False, True])
def test_dense_route_agrees_with_fft_at_cap(cplx):
    # m = 64 is the largest dense grid; the FFT route it replaces agrees
    g = TorusGrid(1, 64)
    tables = g._cache()
    for kind in ("scalar", "vector", "endo"):
        a = _band_limited(g, kind, 9, cplx)
        assert g._spectral(a) is None
        da = g.derivs(a)
        scale = np.max(np.abs(da))
        for j in range(g.d):
            fft = (g.ifft(tables["dmul"][j] * g.fft(a)) if cplx
                   else g.irfft(tables["dmul_r"][j] * g.rfft(a)))
            assert np.max(np.abs(fft - da[j])) <= 1e-12 * scale


def test_derivs_peak_memory_is_its_output():
    import tracemalloc
    g = TorusGrid(2, 12)
    gamma = np.random.default_rng(4).standard_normal((g.d,) * 3 + g.shape)
    g._cache()  # the derivative matrix is built before tracing
    out_bytes = g.d * gamma.nbytes
    tracemalloc.start()
    try:
        g.derivs(gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out_bytes, (peak, out_bytes)


@pytest.mark.parametrize("g", [TorusGrid(1, 16), TorusGrid(2, 8), TorusGrid(1, 40)])
def test_flat_green_inverts_laplacian(g):
    f = random_band_limited(g, "scalar", 11, 1.0) + 0.3  # a nonzero mean is dropped
    u = flat_green(g, f)
    assert u.dtype == np.float64
    assert abs(g.mean(u)) <= 1e-15
    f0 = f - g.mean(f)
    assert np.max(np.abs(laplacian(g, u) - f0)) <= 1e-12 * np.max(np.abs(f0))
    h = random_band_limited(g, "scalar", 12, 1.0)
    w = flat_green(g, f + 1j * h)
    assert w.dtype == np.complex128
    np.testing.assert_allclose(w.real, u, rtol=0, atol=1e-15 * np.max(np.abs(u)))
    np.testing.assert_allclose(w.imag, flat_green(g, h), rtol=0,
                               atol=1e-15 * np.max(np.abs(u)))
    assert np.max(np.abs(flat_green(g, np.ones(g.shape)))) == 0.0


def test_only_grid_reads_the_fourier_tables():
    src = Path(G.__file__).resolve().parent
    offenders = []
    for path in src.glob("*.py"):
        if path.name == "grid.py":
            continue
        text = path.read_text()
        for idiom in ('_cache()["ksq"]', '["dmul', "where(ksq"):
            if idiom in text:
                offenders.append(f"{path.name}: {idiom}")
    assert offenders == []


def test_divergence_two_routes_and_mean_zero():
    g = TorusGrid(1, 32)
    x = g.coords()
    v = np.zeros((2,) + g.shape)
    v[0] = np.sin(x[0])
    rho = standard_volume_field(g)
    np.testing.assert_allclose(divergence_frho(g, v, rho), np.cos(x[0]), atol=1e-12)
    # curved volume: f_v computed via dι(v)ρ has zero ρ-mean
    rho2 = random_band_limited(g, "volume", 21, 0.15)
    w = random_band_limited(g, "vector", 22)
    fv = divergence_frho(g, w, rho2)
    assert abs(integrate_against_volume(g, fv, rho2)) <= 1e-12
    with pytest.raises(DomainError):
        divergence_frho(g, w, -rho2)


def test_vector_from_contraction_roundtrip():
    g = T4
    rho = random_band_limited(g, "volume", 31, 0.1)
    v = random_band_limited(g, "vector", 32)
    sigma = interior_f(g, v, rho, g.d)
    v2 = vector_from_contraction(g, rho, sigma)
    np.testing.assert_allclose(v2, v, atol=1e-12)


def test_random_fields_deterministic_and_band_limited():
    g = T4
    a = random_band_limited(g, "endo", 77, 0.1)
    b = random_band_limited(g, "endo", 77, 0.1)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= 0.1 + 1e-12
    F = g.fft(a)  # Fourier mass outside |k|∞ <= m/4, relative to the peak
    assert np.abs(F[..., ~G._band_mask(g, g.m // 4)]).max() / np.abs(F).max() <= 1e-12
    J = random_band_limited(g, "acs", 78, 0.15)
    J2 = np.einsum("ik...,kj...->ij...", J, J)
    np.testing.assert_allclose(J2, constant_field(g, -np.eye(g.d)), atol=1e-12)
    assert np.array_equal(random_band_limited(g, "acs", 5, 0.0), standard_j_field(g))
    with pytest.raises(UsageError):
        random_band_limited(g, "acs", 5, 0.5)


def test_acs_symplectic_compatible():
    g = T2
    J = G.random_acs_symplectic(g, 41, 0.15)
    J2 = np.einsum("ik...,kj...->ij...", J, J)
    np.testing.assert_allclose(J2, constant_field(g, -np.eye(g.d)), atol=1e-11)
    W = constant_field(g, G.standard_omega_matrix(g.n))
    pull = np.einsum("ki...,kl...,lj...->ij...", J, W, J)
    np.testing.assert_allclose(pull, W, atol=1e-11)


def test_lie_derivative_forms_cartan_vs_flow():
    g = TorusGrid(1, 32)
    v = random_band_limited(g, "vector", 51, 0.1)
    a = random_band_limited(g, "form:1", 52, 0.5)
    lie = lie_form(g, v, a, 1)
    # flow oracle
    h = 1e-4
    Xp, _ = flow_rk4(g, v, h)
    Xm, _ = flow_rk4(g, v, -h)
    jac_p = G.displacement_jacobian(g, (Xp - g.coords().reshape(2, -1)).reshape((2,) + g.shape))
    jac_m = G.displacement_jacobian(g, (Xm - g.coords().reshape(2, -1)).reshape((2,) + g.shape))
    vp = fourier_interpolate(g, a, Xp).reshape((2,) + g.shape)
    vm = fourier_interpolate(g, a, Xm).reshape((2,) + g.shape)
    ap = combi.pullback_linear_coef(vp, 2, 1, jac_p)
    am = combi.pullback_linear_coef(vm, 2, 1, jac_m)
    fd = (ap - am) / (2 * h)
    assert np.max(np.abs(fd - lie)) <= 1e-6 * max(1.0, np.max(np.abs(lie)))


def test_lie_derivative_J_routes_agree():
    g = TorusGrid(1, 32)
    v = random_band_limited(g, "vector", 61, 0.1)
    J = random_band_limited(g, "acs", 62, 0.15)
    flat = C.ConnectionField.flat(g)
    lie_conn = lie_derivative_J(g, v, J, flat)
    lie_direct = lie_endo(g, v, J)
    np.testing.assert_allclose(lie_conn, lie_direct, atol=1e-10)
    # anticommutes with J pointwise
    anti = np.einsum("ik...,kj...->ij...", lie_conn, J) + np.einsum("ik...,kj...->ij...", J, lie_conn)
    assert np.max(np.abs(anti)) <= 1e-9
    with pytest.raises(DomainError):
        bad = flat.gamma.copy()
        bad[0, 0, 1] = 1.0
        lie_derivative_J(g, v, J, C.ConnectionField(g, bad))


@pytest.mark.parametrize("n, m, bound", [(2, 12, 1.0), (1, 64, 2.5)])
def test_lie_endo_sums_in_place(n, m, bound):
    # bit-identical to the three full-grid terms over the stacked ∂E; ∂E is
    # taken one axis at a time and the dv terms are added in place, so
    # beside the result only d²-sized fields and one grid slice of a term are
    # alive (measured 0.88 d³ at n = 2, m = 12 and 1.77 at n = 1, m = 64,
    # where the derivative's own transients weigh more; 1.75 and 3.00 with
    # the stacked ∂E)
    g = TorusGrid(n, m)
    v = random_band_limited(g, "vector", 65, 0.1)
    J = random_band_limited(g, "acs", 66, 0.1)
    tracemalloc.start()
    try:
        lie = lie_endo(g, v, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dv, dJ = g.derivs(v), g.derivs(J)
    ref = (np.einsum("k...,kij...->ij...", v, dJ) - np.einsum("ki...,kj...->ij...", dv, J)
           + np.einsum("ik...,jk...->ij...", J, dv))
    assert np.array_equal(lie, ref)
    assert peak < bound * g.d ** 3 * g.npoints * 8


def test_lie_derivative_J_flow_oracle():
    g = TorusGrid(1, 32)
    v = random_band_limited(g, "vector", 63, 0.1)
    J = random_band_limited(g, "acs", 64, 0.15)
    lie = lie_endo(g, v, J)
    h = 1e-4
    out = []
    for sgn in (1.0, -1.0):
        X, D = flow_rk4(g, v, sgn * h)
        Jx = fourier_interpolate(g, J, X)
        Dinv = np.moveaxis(np.linalg.inv(np.moveaxis(D, (0, 1), (-2, -1))), (-2, -1), (0, 1))
        out.append(np.einsum("ikp,klp,ljp->ijp", Dinv, Jx, D).reshape((2, 2) + g.shape))
    fd = (out[0] - out[1]) / (2 * h)
    rel = np.max(np.abs(fd - lie)) / max(1.0, np.max(np.abs(lie)))
    assert rel <= 1e-6


def test_pullback_identity_and_affine():
    g = T2
    f = random_band_limited(g, "scalar", 71, 0.3)
    ident = AffineMap(np.eye(2, dtype=int))
    np.testing.assert_allclose(pullback(g, "scalar", f, ident), f, atol=0)
    w0 = standard_omega_field(g)
    shear = AffineMap(np.array([[1, 1], [0, 1]]))
    # SL(2,Z) preserves the standard area form exactly
    np.testing.assert_allclose(pullback(g, "form:2", w0, shear), w0, atol=1e-14)
    vol = standard_volume_field(g)
    assert np.isclose(integrate(g, pullback(g, "form:2", vol, shear)), integrate(g, vol))
    with pytest.raises(DomainError):
        AffineMap(np.array([[2, 0], [0, 1]]))


def test_pullback_displacement_scalar_oracle():
    g = TorusGrid(1, 32)
    u = random_band_limited(g, "vector", 81, 0.05)
    x = g.coords()
    f = np.sin(x[0])
    out = pullback(g, "scalar", f, DisplacementMap(u))
    np.testing.assert_allclose(out, np.sin(x[0] + u[0]), atol=1e-10)


def test_pullback_functoriality_and_d_commutes():
    g = TorusGrid(1, 64)
    u = random_band_limited(g, "vector", 91, 0.04, band=2)
    phi = DisplacementMap(u)
    a = random_band_limited(g, "form:1", 92, 0.3, band=3)
    b = random_band_limited(g, "form:1", 93, 0.3, band=3)
    lhs = pullback(g, "form:2", wedge_f(g, a, b, 1, 1), phi)
    rhs = wedge_f(g, pullback(g, "form:1", a, phi), pullback(g, "form:1", b, phi), 1, 1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8
    lhs_d = pullback(g, "form:2", exterior_d(g, a, 1), phi)
    rhs_d = exterior_d(g, pullback(g, "form:1", a, phi), 1)
    assert np.max(np.abs(lhs_d - rhs_d)) <= 1e-8


def _full_spectrum(g, comp_shape, seed, cplx=False):
    """exp of band-limited fields: every Fourier mode is kept by the interpolant."""
    out = np.empty(comp_shape + g.shape, dtype=complex if cplx else float)
    for i, idx in enumerate(np.ndindex(*comp_shape)):
        f = np.exp(random_band_limited(g, "scalar", seed + i, 1.5, band=g.m // 2 - 1))
        if cplx:
            f = f + 1j * np.exp(random_band_limited(g, "scalar", seed + 500 + i, 1.5,
                                                    band=g.m // 2 - 1))
        out[idx] = f
    return out


def _direct_sum(g, arr, pts):
    """Σ_k F_k e^{ik·x} over every mode of the grid."""
    F = g.fft(arr.reshape((-1,) + g.shape)).reshape(-1, g.npoints) / g.npoints
    k = np.stack([np.broadcast_to(kj, g.shape).ravel() for kj in g._cache()["k"]])
    vals = F @ np.exp(1j * (k.T @ pts))
    return vals.reshape(arr.shape[:-g.d] + (pts.shape[1],))


@pytest.mark.parametrize("g", [TorusGrid(1, 16), TorusGrid(2, 8)], ids=["n1m16", "n2m8"])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_fourier_interpolate_matches_direct_sum(g, rank, cplx):
    comp_shape = (g.d,) * rank
    arr = _full_spectrum(g, comp_shape, 200 + 10 * rank, cplx)
    F = g.fft(arr.reshape((-1,) + g.shape))
    mags = np.max(np.abs(F), axis=0)
    assert np.mean(mags > 1e-14 * mags.max()) > 0.9  # (nearly) every mode is summed
    pts = np.random.default_rng(rank).uniform(-2 * np.pi, 4 * np.pi, (g.d, 64))
    vals = fourier_interpolate(g, arr, pts)
    assert vals.shape == comp_shape + (64,)
    assert np.iscomplexobj(vals) == cplx
    ref = _direct_sum(g, arr, pts)
    ref = ref if cplx else ref.real
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
    const = constant_field(g, np.full(comp_shape, 0.75))
    np.testing.assert_allclose(fourier_interpolate(g, const, pts),
                               np.full(comp_shape + (64,), 0.75), rtol=1e-14)
    zero = fourier_interpolate(g, np.zeros_like(arr), pts)  # no mode is kept
    assert zero.shape == comp_shape + (64,) and np.iscomplexobj(zero) == cplx
    assert not np.any(zero)


@pytest.mark.parametrize("g,comp_shape", [(TorusGrid(1, 64), (1,)), (TorusGrid(2, 8), (4, 4))],
                         ids=["n1m64-two-form", "n2m8-endo"])
def test_fourier_interpolate_memory_is_bounded(g, comp_shape):
    import tracemalloc
    rng = np.random.default_rng(5)
    arr = rng.standard_normal(comp_shape + g.shape)  # every mode kept
    u = random_band_limited(g, "vector", 7, 0.05)
    pts = (g.coords() + u).reshape(g.d, -1)
    tracemalloc.start()
    try:
        fourier_interpolate(g, arr, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak


def test_pq_project_field_resolution():
    g = T4
    J = random_band_limited(g, "acs", 97, 0.1)
    a = random_band_limited(g, "form:2", 98, 0.4)
    total = sum(pq_project_f(g, a, 2, J, p, 2 - p) for p in range(3))
    np.testing.assert_allclose(total.real, a, atol=1e-11)
    np.testing.assert_allclose(total.imag, 0.0, atol=1e-11)


def test_lie_derivative_J_connection_independent_curved():
    g = TorusGrid(1, 32)
    v = random_band_limited(g, "vector", 65, 0.1, band=2)
    J = random_band_limited(g, "acs", 66, 0.1)
    x = g.coords()
    metric = constant_field(g, np.eye(2)) * np.exp(2 * (0.1 * np.sin(x[0])))
    lc = C.levi_civita(g, metric)
    a = lie_derivative_J(g, v, J, C.ConnectionField.flat(g))
    b = lie_derivative_J(g, v, J, lc)
    assert np.max(np.abs(a - b)) <= 1e-9 * max(1.0, np.max(np.abs(a)))


def test_affine_map_requires_det_one():
    import pytest as _pytest
    from geodesk.errors import DomainError as _DE
    with _pytest.raises(_DE):
        AffineMap(np.diag([-1, 1]))
