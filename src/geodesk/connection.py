"""Connections and curvature on sampled tori: compatible metrics from (ρ, J),
Levi-Civita data, covariant derivatives, Nijenhuis tensors, and the
conformally flat volume connection used by the Ricci-form machinery."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import pointwise as P
from .combi import vol_sign
from .errors import DomainError
from .grid import TorusGrid, constant_field, form_from_matrix, is_constant, metric_sqrt_det
from .report import max_abs, rel_max1


def compatible_pair(grid: TorusGrid, rho: np.ndarray, J: np.ndarray):
    """Metric and 2-form compatible with J whose volume form is exactly ρ.

    Builds g = (ρ/dvol)^{1/n} (I + J*I) and ω = g(J·, ·); raises if the
    result misses compatibility or the volume normalization by more than
    1e-10 (relative, floored at 1).
    """
    rho_density = vol_sign(grid.n) * rho[0]
    if np.any(rho_density <= 0):
        raise DomainError("compatible_pair: volume form must be positive")
    eye = constant_field(grid, np.eye(grid.d))
    gJ = eye + P.contract("ki...,kl...,lj...->ij...", J, eye, J)  # I + I(J·, J·)
    scale = (rho_density / metric_sqrt_det(gJ)) ** (1.0 / grid.n)
    g = scale * gJ
    omega_mat = P.contract("ki...,kj...->ij...", J, g)
    asym = max_abs(omega_mat + np.swapaxes(omega_mat, 0, 1))
    if asym > 1e-10 * max(1.0, max_abs(omega_mat)):
        raise DomainError(f"compatible_pair: ω not antisymmetric ({asym:.2e})")
    vol_resid = max_abs(metric_sqrt_det(g) - rho_density)
    if vol_resid > 1e-10 * max(1.0, float(np.max(rho_density))):
        raise DomainError(f"compatible_pair: volume residual {vol_resid:.2e}")
    return g, form_from_matrix(grid, omega_mat)


@dataclass(frozen=True)
class ConnectionField:
    """Christoffel data Γ^k_{ij}.  Γ is never written after construction,
    so ``zero`` and ``torsion_free`` are computed on first read and kept."""

    grid: TorusGrid
    gamma: np.ndarray

    @classmethod
    def flat(cls, grid: TorusGrid) -> ConnectionField:
        """Γ ≡ 0."""
        return cls(grid, np.zeros((grid.d,) * 3 + grid.shape))

    def torsion(self) -> np.ndarray:
        return self.gamma - np.swapaxes(self.gamma, 1, 2)

    @cached_property
    def torsion_free(self) -> bool:
        """max|Γ^k_{ij} − Γ^k_{ji}| ≤ 1e-9, one upper index k at a time, so
        that no d³ temporary is built."""
        return self.zero or float(np.max([max_abs(g - g.swapaxes(0, 1))
                                          for g in self.gamma])) <= 1e-9

    @cached_property
    def zero(self) -> bool:
        """Γ ≡ 0: every covariant derivative is the plain spectral derivative."""
        return not np.any(self.gamma)


def _check_spd(g: np.ndarray, what: str) -> None:
    sym = np.moveaxis(0.5 * (g + np.swapaxes(g, 0, 1)), (0, 1), (-2, -1))
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        raise DomainError(f"{what}: metric must be positive definite") from None


def levi_civita(grid: TorusGrid, g: np.ndarray) -> ConnectionField:
    _check_spd(g, "levi_civita")
    if is_constant(grid, g):
        return ConnectionField.flat(grid)
    ginv = P.inv(g)
    gamma = P.contract("kl...,ijl...->kij...", ginv, _sym_sum(grid.derivs(g)))
    gamma *= 0.5
    return ConnectionField(grid, gamma)


def _sym_sum(dg: np.ndarray) -> np.ndarray:
    """∂_i g_{jl} + ∂_j g_{il} − ∂_l g_{ij}, indexed [i, j, l], from
    dg[l, i, j] = ∂_l g_{ij}: the three permutations of dg accumulated
    into one output."""
    out = np.add(dg, P.contract("jil...->ijl...", dg))
    P.contract_add(out, -1, "lij...->ijl...", dg)
    return out


def curvature(grid: TorusGrid, conn: ConnectionField) -> np.ndarray:
    """R^l_{kij} for R(u,v)w = R^l_{kij} u^i v^j w^k ∂_l."""
    if conn.zero:
        return np.zeros((grid.d,) * 4 + grid.shape)
    d = grid.d
    dgamma = grid.derivs(conn.gamma).reshape((d, d, d, d, -1))  # [a, k, i, j]
    gam = conn.gamma.reshape((d, d, d, -1))
    gg = np.ascontiguousarray(P.contract("limx,mjkx->lkijx", gam, gam))
    riem = np.ascontiguousarray(dgamma.transpose(1, 3, 0, 2, 4))
    riem -= dgamma.transpose(1, 3, 2, 0, 4)
    riem += gg
    riem -= gg.transpose(0, 1, 3, 2, 4)
    return riem.reshape((d, d, d, d) + grid.shape)


def contract_curvature(grid: TorusGrid, conn: ConnectionField, *specs) -> list[np.ndarray]:
    """``[P.contract(s, R, *ops) for s, *ops in specs]`` with R^l_{kij} =
    ``curvature(grid, conn)``, each subscript string R's term first, every
    term ending in "...".

    One sweep over R's third index a serves every spec: the slice R^l_{kaj}
    is ((∂_aΓ^l_{jk} − ∂_jΓ^l_{ak}) + Γ^l_{am}Γ^m_{jk}) − Γ^l_{jm}Γ^m_{ak}, the
    terms of ``curvature`` in its order (Kobayashi–Nomizu I, ch. III), and each
    spec contracts it with its operands taken at a on that letter.  So the
    4-index R is never built: the sweep holds one d³ slice and d²-sized
    temporaries.  Γ ≡ 0 returns zeros at once."""
    d = grid.d
    plans, outs = [], []
    for subscripts, *ops in specs:
        terms, output = subscripts.split("->")
        r, *rest = terms.split(",")
        if len(r) != 7 or not all(t.endswith("...") for t in (r, *rest, output)):
            raise ValueError(f"contract_curvature: {subscripts!r} does not lead with R's term")
        a = r[2]
        dims = {c: d for c in r[:4]}
        for t, op in zip(rest, ops):
            dims.update(zip(t[:-3], op.shape))
        outs.append(np.zeros(tuple(dims[c] for c in output[:-3]) + grid.shape))
        sliced = [r[0] + r[3] + r[1] + "..."] + [t.replace(a, "") for t in rest]
        plans.append((",".join(sliced) + "->" + output.replace(a, ""),
                      [(t.find(a), op) for t, op in zip(rest, ops)], output.find(a)))
    if conn.zero:
        return outs
    gam = conn.gamma
    dgam = grid.derivs_by_axis(gam)
    for a in range(d):
        ga = np.ascontiguousarray(gam[:, a])  # Γ^l_{ak}
        rs = next(dgam)  # [l, j, k]: ∂_aΓ^l_{jk}, then R^l_{kaj} once every term is in
        dga = grid.derivs_by_axis(ga)
        for j in range(d):
            rs[:, j] -= next(dga)  # ∂_jΓ^l_{ak}
        for l in range(d):  # the ΓΓ terms one upper index l at a time
            P.contract_add(rs[l], 1, "m...,mjk...->jk...", ga[l], gam)
            P.contract_add(rs[l], -1, "jm...,mk...->jk...", gam[l], ga)
        for (sub, ops, at), out in zip(plans, outs):
            term = P.contract(sub, rs, *(op if p < 0 else np.take(op, a, axis=p)
                                         for p, op in ops))
            if at < 0:
                out += term
            else:
                out[(slice(None),) * at + (a,)] = term
        del rs  # before next(dgam) builds the next slice
    return outs


# --- covariant derivatives (derivative index first) ---


def cov(grid: TorusGrid, conn: ConnectionField, T: np.ndarray, slots: str,
        trace: tuple[np.ndarray, int] | None = None) -> np.ndarray:
    """out[k, ...] = (∇_k T)[...]; ``slots`` names each leading component axis
    of T "u" (up, contravariant) or "d" (down), e.g. "ud" for an endomorphism.

    ∂_k T, plus Γ^a_{km} T^{..m..} for each up slot, then minus Γ^m_{ka}
    T_{..m..} for each down slot, each group in slot order, accumulated in
    place.  Γ ≡ 0 (``conn.zero``) returns ∂_k T: the Γ terms are skipped.
    ∇²E is ``cov(grid, conn, cov(grid, conn, E, "ud"), "dud")``.

    ``trace=(ginv, p)`` returns the trace Σ_k g^{ks} (∇_k T)[..s..] of the
    derivative axis against slot p instead, so the stacked ∇T is never
    built: Σ_k g^{ks} ∂_k T is summed one derivative axis at a time, and the
    Γ terms take Σ_k g^{ks} Γ^a_{km} in place of Γ^a_{km}, which also saves
    a factor d in their arithmetic."""
    if T.ndim != len(slots) + grid.d or set(slots) - set("ud"):
        raise ValueError(f"cov: slots {slots!r} do not name the component axes of {T.shape}")
    if trace is None:
        out = grid.derivs(T)
        if not conn.zero:
            _christoffel_terms(conn.gamma, "k", T, slots, out)
        return out
    ginv, p = trace
    names = "abcdefghij"[:len(slots)]
    s = names[p]
    sub = f"{s}...,{names}...->{names.replace(s, '')}..."
    dT = grid.derivs_by_axis(T)
    out = P.contract(sub, ginv[0], next(dT))
    for k in range(1, grid.d):
        P.contract_add(out, 1, sub, ginv[k], next(dT))
    if not conn.zero:
        _christoffel_terms(P.contract("ks...,akm...->asm...", ginv, conn.gamma), s, T, slots, out)
    return out


def _christoffel_terms(gamma: np.ndarray, k: str, T: np.ndarray, slots: str,
                       out: np.ndarray) -> None:
    """The Leibniz rule's Γ terms of ``cov``, accumulated into out in place
    by ``P.contract_add``, with the middle index of gamma[a, k, m] named k:
    the derivative axis, whose letter then leads out, or a traced slot, which
    out then lacks."""
    names = "abcdefghij"[:len(slots)]
    out_names = (k + names) if k not in names else names.replace(k, "")
    for p, a in sorted(enumerate(names), key=lambda pa: slots[pa[0]] == "d"):
        t = names[:p] + "m" + names[p + 1:]  # T with slot p contracted
        if slots[p] == "u":
            P.contract_add(out, 1, f"{a}{k}m...,{t}...->{out_names}...", gamma, T)
        else:
            P.contract_add(out, -1, f"m{k}{a}...,{t}...->{out_names}...", gamma, T)


def cov_endo(grid: TorusGrid, conn: ConnectionField, E: np.ndarray) -> np.ndarray:
    """out[k, i, j] = (∇_k E)^i_j."""
    return cov(grid, conn, E, "ud")


def cov_volume_residual(grid: TorusGrid, conn: ConnectionField, rho: np.ndarray) -> float:
    r = rho[0]
    out = grid.derivs(r)
    if not conn.zero:
        out = out - r * P.contract("aka...->k...", conn.gamma)
    return rel_max1(out, r)


def nijenhuis(grid: TorusGrid, J: np.ndarray) -> np.ndarray:
    """Nijenhuis tensor N[k, i, j] = N(∂_i, ∂_j)^k from spectral derivatives
    of J (the frame/bracket route): J^m_i ∂_m J^k_j − J^m_j ∂_m J^k_i
    + J^k_m(∂_j J^m_i − ∂_i J^m_j).  The four terms are summed into one
    output, left to right, the last three by ``P.contract_add``, so no
    full-grid term is built."""
    dJ = grid.derivs(J)  # dJ[m, k, j] = ∂_m J^k_j
    out = P.contract("mi...,mkj...->kij...", J, dJ)
    P.contract_add(out, -1, "mj...,mki...->kij...", J, dJ)
    P.contract_add(out, 1, "km...,jmi...->kij...", J, dJ)
    P.contract_add(out, -1, "km...,imj...->kij...", J, dJ)
    return out


def conformally_flat_volume_connection(grid: TorusGrid, rho: np.ndarray) -> ConnectionField:
    """Levi-Civita connection of (ρ/dx)^{1/n} δ; torsion-free and ρ-preserving."""
    density = vol_sign(grid.n) * rho[0]
    if np.any(density <= 0):
        raise DomainError("volume form must be positive")
    if is_constant(grid, density):
        return ConnectionField.flat(grid)
    g = constant_field(grid, np.eye(grid.d)) * density ** (1.0 / grid.n)
    return levi_civita(grid, g)
