import tracemalloc

import numpy as np
import pytest

from geodesk import connection as C
from geodesk import grid as G
from geodesk import pointwise as P
from geodesk.errors import DomainError
from geodesk.grid import DisplacementMap, TorusGrid, pullback, random_band_limited
from geodesk.report import rel_max1

from oracles import (first_bianchi_residual, gaussian_curvature, nijenhuis_four_terms,
                     special_connections)


def conformal_metric(g, phi):
    return G.constant_field(g, np.eye(g.d)) * np.exp(2 * phi)


def pullback_j(g, u):
    return pullback(g, "endo", G.standard_j_field(g), DisplacementMap(u))


def test_flat_baseline():
    g = TorusGrid(1, 16)
    metric = G.constant_field(g, np.eye(g.d))
    lc = C.levi_civita(g, metric)
    assert np.max(np.abs(lc.gamma)) == 0.0
    R = C.curvature(g, lc)
    assert np.max(np.abs(R)) == 0.0
    with pytest.raises(DomainError):
        C.levi_civita(g, -metric)


def test_conformal_gaussian_curvature_oracle():
    g = TorusGrid(1, 64)
    x = g.coords()
    phi = 0.1 * np.sin(x[0])
    metric = conformal_metric(g, phi)
    K = gaussian_curvature(g, metric)
    K_exact = np.exp(-2 * phi) * G.laplacian(g, phi)
    assert np.max(np.abs(K - K_exact)) <= 1e-8
    lc = C.levi_civita(g, metric)
    assert rel_max1(C.cov(g, lc, metric, "dd"), metric) <= 1e-9
    assert lc.torsion_free
    rho = G.standard_volume_field(g) * G.metric_sqrt_det(metric)
    assert C.cov_volume_residual(g, lc, rho) <= 1e-9


def _field(g, shape, seed):
    return np.random.default_rng(seed).standard_normal(shape + g.shape)


# The slot patterns of every covariant derivative in use, applied in turn
# (a second derivative is ∇ of ∇T); the ids keep the names of the functions
# each pattern replaced, so their history reads across the change.
ZERO_PATH_CASES = {
    "cov_vector": ("u",),
    "cov_endo": ("ud",),
    "cov_bilinear": ("dd",),
    "cov_tm_two_form": ("udd",),
    "second_cov_endo": ("ud", "dud"),
    "second_cov_bilinear": ("dd", "ddd"),
}


def _chain(g, conn, x, chain):
    """T, ∇T, ∇²T, … along the slot patterns of ``chain``, the input dropped."""
    out = [x]
    for slots in chain:
        out.append(C.cov(g, conn, out[-1], slots))
    return out[1:]


def _full_formula(conn):
    """The same Γ with the zero path switched off, so every Γ term is evaluated."""
    full = C.ConnectionField(conn.grid, conn.gamma)
    full.__dict__["zero"] = False
    return full


@pytest.mark.parametrize("n, m", [(1, 16), (2, 8)])
@pytest.mark.parametrize("name", sorted(ZERO_PATH_CASES))
def test_zero_connection_path_equals_full_formula(name, n, m):
    chain = ZERO_PATH_CASES[name]
    g = TorusGrid(n, m)
    conn = C.ConnectionField.flat(g)
    assert conn.zero
    x = _field(g, (g.d,) * len(chain[0]), 3)
    for a, b in zip(_chain(g, conn, x, chain), _chain(g, _full_formula(conn), x, chain)):
        assert a.shape == b.shape
        assert np.all(a == b)
    rho = G.standard_volume_field(g) * np.exp(0.1 * _field(g, (), 4))
    assert C.cov_volume_residual(g, conn, rho) == C.cov_volume_residual(
        g, _full_formula(conn), rho)


@pytest.mark.parametrize("name", sorted(ZERO_PATH_CASES))
def test_zero_connection_path_makes_no_contraction(monkeypatch, name):
    chain = ZERO_PATH_CASES[name]
    g = TorusGrid(2, 8)
    conn = C.ConnectionField.flat(g)
    x = _field(g, (g.d,) * len(chain[0]), 5)
    calls = []
    contract, contract_add = P.contract, P.contract_add
    monkeypatch.setattr(P, "contract", lambda *a: calls.append(a[0]) or contract(*a))
    monkeypatch.setattr(P, "contract_add",
                        lambda *a: calls.append(a[2]) or contract_add(*a))
    _chain(g, conn, x, chain)
    C.cov_volume_residual(g, conn, G.standard_volume_field(g))
    assert calls == []
    _chain(g, _full_formula(conn), x, chain)
    assert calls  # the counter sees the full formula's contractions


def _low_band(g, shape, seed):
    """A real field of the given component shape with modes |k|∞ ≤ 1."""
    if shape == ():
        return random_band_limited(g, "scalar", seed, 1.0, band=1)
    return np.stack([_low_band(g, shape[1:], 97 * seed + i) for i in range(shape[0])])


def _eval(T, args):
    """T(args), every slot of T filled by the matching field of args."""
    names = "abcdefgh"[:len(args)]
    return np.einsum(",".join([names + "..."] + [c + "..." for c in names]) + "->...",
                     T, *args)


@pytest.mark.parametrize("n, m", [(1, 16), (2, 8)])
@pytest.mark.parametrize("slots", ["u", "d", "ud", "dd", "udd", "dud", "ddd"])
def test_cov_leibniz_rule_at_nonzero_gamma(slots, n, m):
    # ∂_k(T(u₁, …)) = (∇_k T)(u₁, …) + Σ_p T(…, ∇_k u_p, …): an up slot of T
    # takes a one-form (its ∇ by the "d" rule), a down slot a vector (the "u"
    # rule).  Γ, T and u₁ have band 1 and u₂, u₃ are constant, so every
    # product has band ≤ 3 and stays resolved on m = 8.
    g = TorusGrid(n, m)
    d = g.d
    conn = C.ConnectionField(g, _low_band(g, (d, d, d), 11))
    rng = np.random.default_rng(12)
    T = _low_band(g, (d,) * len(slots), 13)
    args = [_low_band(g, (d,), 14)] + [G.constant_field(g, rng.standard_normal(d))
                                      for _ in slots[1:]]
    lhs = g.derivs(_eval(T, args))
    nT = C.cov(g, conn, T, slots)
    rhs = np.stack([_eval(nT[k], args) for k in range(d)])
    for p, s in enumerate(slots):
        n_arg = C.cov(g, conn, args[p], "d" if s == "u" else "u")
        rhs += np.stack([_eval(T, args[:p] + [n_arg[k]] + args[p + 1:]) for k in range(d)])
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))
    # Leibniz alone cannot see the order of Γ's lower indices, so the vector
    # rule is pinned to ∇_k v^a = ∂_k v^a + Γ^a_{km} v^m (∇_{∂k} ∂_m = Γ^a_{km} ∂_a)
    v = args[0]
    explicit = g.derivs(v) + np.einsum("akm...,m...->ka...", conn.gamma, v)
    assert np.max(np.abs(C.cov(g, conn, v, "u") - explicit)) <= 1e-14 * np.max(np.abs(explicit))
    assert np.max(np.abs(nT - g.derivs(T))) > 0.1 * np.max(np.abs(nT))


@pytest.mark.parametrize("n, m", [(1, 16), (2, 8)])
@pytest.mark.parametrize("slots", ["udd", "dud", "ddd"])
def test_traced_cov_matches_trace_of_stacked_cov(slots, n, m):
    # Σ_k g^{ks} (∇_k T)[..s..] for every slot s, against the g-trace of the
    # stacked ∇T, at a nonzero Γ and at Γ ≡ 0
    g = TorusGrid(n, m)
    d = g.d
    ginv = P.inv(G.constant_field(g, np.eye(d)) + 0.1 * _low_band(g, (d, d), 15))
    T = _low_band(g, (d,) * 3, 16)
    for conn in (C.ConnectionField(g, _low_band(g, (d, d, d), 17)), C.ConnectionField.flat(g)):
        nT = C.cov(g, conn, T, slots)
        for p, ref in enumerate((P.contract("ka...,kabc...->bc...", ginv, nT),
                                 P.contract("kb...,kabc...->ac...", ginv, nT),
                                 P.contract("kc...,kabc...->ab...", ginv, nT))):
            traced = C.cov(g, conn, T, slots, trace=(ginv, p))
            assert np.max(np.abs(traced - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_contract_curvature_zero_connection_and_bad_specs():
    g = TorusGrid(2, 8)
    E = _field(g, (4, 4), 7)
    flat = C.ConnectionField.flat(g)
    out = C.contract_curvature(g, flat, ("lkij...,kl...->ij...", E), ("lkij...,ij...->lk...", E))
    assert [o.shape for o in out] == [(4, 4) + g.shape] * 2
    assert not any(np.any(o) for o in out)
    with pytest.raises(ValueError):
        C.contract_curvature(g, flat, ("kl...,lkij...->ij...", E))


def test_cov_rejects_slots_that_miss_the_component_axes():
    g = TorusGrid(1, 16)
    E = _field(g, (2, 2), 6)
    for slots in ("u", "udd", "ux"):
        with pytest.raises(ValueError):
            C.cov(g, C.ConnectionField.flat(g), E, slots)


def test_one_nonzero_christoffel_entry_is_not_zero():
    g = TorusGrid(1, 16)
    gamma = C.ConnectionField.flat(g).gamma
    assert C.ConnectionField(g, gamma).zero
    gamma[1, 0, 1, 3, 5] = 1e-300  # the test is exact, not a tolerance
    assert not C.ConnectionField(g, gamma).zero


def test_first_bianchi_curved():
    g = TorusGrid(2, 16)
    x = g.coords()
    phi = 0.05 * (np.sin(x[0]) * np.cos(x[2]) + np.cos(x[1] + x[3]))
    metric = conformal_metric(g, phi)
    R = C.curvature(g, C.levi_civita(g, metric))
    assert first_bianchi_residual(R) <= 1e-8


def test_compatible_pair_flat_and_conformal():
    g = TorusGrid(1, 32)
    rho = G.standard_volume_field(g)
    J0 = G.standard_j_field(g)
    metric, omega = C.compatible_pair(g, rho, J0)
    np.testing.assert_allclose(metric, G.constant_field(g, np.eye(g.d)), atol=1e-13)
    np.testing.assert_allclose(omega, G.standard_omega_field(g), atol=1e-13)
    # ρ = e^{2f}·standard with J0 at n=1 gives g = e^{2f}δ, ω = e^{2f}dx∧dy
    f = random_band_limited(g, "scalar", 4, 0.1)
    rho2 = G.standard_volume_field(g) * np.exp(2 * f)
    metric2, omega2 = C.compatible_pair(g, rho2, J0)
    np.testing.assert_allclose(metric2, conformal_metric(g, f), atol=1e-12)
    np.testing.assert_allclose(omega2[0], np.exp(2 * f), atol=1e-12)


def test_compatible_pair_seeded_acs():
    g = TorusGrid(2, 16)
    J = random_band_limited(g, "acs", 7, 0.1)
    rho = random_band_limited(g, "volume", 8, 0.1)
    metric, omega = C.compatible_pair(g, rho, J)
    # volume matches ρ
    assert np.max(np.abs(G.standard_volume_field(g) * G.metric_sqrt_det(metric) - rho)) <= 1e-10
    # ω(·, J·) = g and ω is J-invariant
    w = G.form_to_matrix(g, omega)
    gJ = np.einsum("ik...,kj...->ij...", w, J)
    np.testing.assert_allclose(gJ, metric, atol=1e-10)
    # ω^n/n! = ρ
    wn = G.wedge_f(g, omega, omega)
    assert np.max(np.abs(wn / 2.0 - rho)) <= 1e-10


def test_nijenhuis_routes_and_integrability():
    g = TorusGrid(1, 32)
    # constant J: zero
    N, resid = C.nijenhuis(g, G.standard_j_field(g))
    assert np.max(np.abs(N)) <= 1e-13
    # integrable pullback: N ≈ 0
    u = random_band_limited(g, "vector", 11, 0.05, band=2)
    Jp = pullback_j(g, u)
    Np, _ = C.nijenhuis(g, Jp)
    assert np.max(np.abs(Np)) <= 1e-7
    # non-integrable: N large but the two formulas agree
    g4 = TorusGrid(2, 16)
    J = random_band_limited(g4, "acs", 13, 0.1, band=1)
    N4, resid4 = C.nijenhuis(g4, J)
    assert np.max(np.abs(N4)) > 1e-3
    assert resid4 <= 1e-8
    # connection route with a curved torsion-free connection agrees too
    x = g4.coords()
    metric = conformal_metric(g4, 0.05 * np.sin(x[0]) * np.cos(x[1]))
    lc = C.levi_civita(g4, metric)
    N4b, resid4b = C.nijenhuis(g4, J, lc)
    assert resid4b <= 1e-8
    asym = np.zeros((4, 4, 4) + g4.shape)
    asym[0, 0, 1] = 1.0
    with pytest.raises(DomainError):
        C.nijenhuis(g4, J, C.ConnectionField(g4, asym))


@pytest.mark.parametrize("curved", [False, True])
def test_nijenhuis_sums_in_place(curved):
    # bit-identical to the four-term routes, with a flat and a curved
    # torsion-free connection; Γ ≡ 0 differentiates J once, and at most four
    # d³ fields are alive at once: ∂J or ∇J, the two routes and one term
    g = TorusGrid(2, 12)
    J = random_band_limited(g, "acs", 13, 0.1, band=1)
    x = g.coords()
    conn = C.levi_civita(g, conformal_metric(g, 0.05 * np.sin(x[0]) * np.cos(x[1]))) \
        if curved else None
    tracemalloc.start()
    try:
        N, resid = C.nijenhuis(g, J, conn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N_ref, resid_ref = nijenhuis_four_terms(g, J, conn)
    assert np.array_equal(N, N_ref)
    assert resid == resid_ref
    assert peak < 4.01 * g.d ** 3 * g.npoints * 8


def test_special_connections_flat_kahler():
    g = TorusGrid(1, 16)
    rho = G.standard_volume_field(g)
    J = G.standard_j_field(g)
    metric, omega = C.compatible_pair(g, rho, J)
    conns, _ = special_connections(g, rho, J, omega, metric)
    for key in ("lc", "hermitian", "volume", "symplectic"):
        assert np.max(np.abs(conns[key].gamma)) <= 1e-13


def test_special_connections_pullback_instance():
    g = TorusGrid(2, 16)
    u = random_band_limited(g, "vector", 17, 0.05, band=1)
    J = pullback_j(g, u)
    rho = G.standard_volume_field(g)
    metric, omega = C.compatible_pair(g, rho, J)
    _, flags = special_connections(g, rho, J, omega, metric)
    hat = flags["volume"]
    assert hat["nabla_rho"] <= 1e-8
    assert hat["nabla_J"] <= 1e-8
    assert hat["torsion_vs_nijenhuis"] <= 1e-7
    assert flags["hermitian"]["nabla_J"] <= 1e-8
    assert flags["symplectic"]["torsion"] <= 1e-12


def test_nabroh_cyclic_identity_kahler_potential():
    # <(∇_u J)v, w> + cyclic = dω(u, v, w) = 0 for closed ω, constant J0 on T⁴
    g = TorusGrid(2, 16)
    J = G.standard_j_field(g)
    h = random_band_limited(g, "scalar", 19, 0.08, band=2)
    dh = G.exterior_d(g, h[None], 0)
    dh_j = G.one_form_compose_j(dh, J)
    omega = G.standard_omega_field(g) + 0.5 * G.exterior_d(g, dh_j, 1)
    assert np.max(np.abs(G.exterior_d(g, omega, 2))) <= 1e-12
    w_mat = G.form_to_matrix(g, omega)
    metric = np.einsum("ik...,kj...->ij...", w_mat, J)
    lc = C.levi_civita(g, metric)
    nJ = C.cov_endo(g, lc, J)  # [u, m, v]
    t = np.einsum("umv...,mw...->uvw...", nJ, metric)  # <(∇_u J)v, w>
    cyc = t + np.einsum("vwu...->uvw...", t) + np.einsum("wuv...->uvw...", t)
    assert np.max(np.abs(cyc)) <= 1e-8


def test_hermitian_curvature_relation():
    # trace(J R̃(u,v)) = trace(J R(u,v)) + ½ trace((∇_u J) J (∇_v J))
    g = TorusGrid(1, 32)
    u = random_band_limited(g, "vector", 23, 0.05, band=2)
    J = pullback_j(g, u)
    rho = random_band_limited(g, "volume", 24, 0.05, band=2)
    metric, omega = C.compatible_pair(g, rho, J)
    conns, _ = special_connections(g, rho, J, omega, metric)
    lc, tilde = conns["lc"], conns["hermitian"]
    R = C.curvature(g, lc)
    Rt = C.curvature(g, tilde)
    tr_jr = np.einsum("kl...,lkij...->ij...", J, R)
    tr_jrt = np.einsum("kl...,lkij...->ij...", J, Rt)
    nJ = C.cov_endo(g, lc, J)
    corr = 0.5 * np.einsum("iab...,bc...,jca...->ij...", nJ, J, nJ)
    resid = tr_jrt - (tr_jr + corr)
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(tr_jrt)))
    # full matrix relation: J R̃ = ½ J R + ½ R J − ¼ J [∇_u J, ∇_v J]
    jr_t = np.einsum("al...,lkij...->akij...", J, Rt)
    comm = (np.einsum("iam...,jmk...->akij...", nJ, nJ)
            - np.einsum("jam...,imk...->akij...", nJ, nJ))
    rhs = (0.5 * np.einsum("al...,lkij...->akij...", J, R)
           + 0.5 * np.einsum("alij...,lk...->akij...", R, J)
           - 0.25 * np.einsum("am...,mkij...->akij...", J, comm))
    assert np.max(np.abs(jr_t - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(jr_t)))


def test_trace_jr_is_11_for_integrable_volume_connection():
    g = TorusGrid(2, 16)
    u = random_band_limited(g, "vector", 29, 0.05, band=1)
    J = pullback_j(g, u)
    rho = G.standard_volume_field(g)
    metric, omega = C.compatible_pair(g, rho, J)
    conns, _ = special_connections(g, rho, J, omega, metric)
    R_hat = C.curvature(g, conns["volume"])
    tr = np.einsum("kl...,lkij...->ij...", J, R_hat)
    coef = G.form_from_matrix(g, tr)
    off = (G.pq_project_f(g, coef, 2, J, 2, 0)
           + G.pq_project_f(g, coef, 2, J, 0, 2))
    assert np.max(np.abs(off)) <= 1e-7 * max(1.0, np.max(np.abs(coef)))
