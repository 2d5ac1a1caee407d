"""Checks on geodesk's outputs that do not rest on its own verdicts.

Everything here is plain numpy written for the benchmark: seeded inputs, a
flat spectral derivative, and the report bookkeeping.  geodesk is passed in
(``ricci`` and ``TorusGrid``) and only asked for the Ricci form.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
INVENTORY_PATH = HERE / "inventory.json"

# Shipped default amplitudes of the CLI, and the narrow band geodesk uses for
# fields that enter nonlinear identities (max(1, m // 20)).
AMPLITUDE = {1: 0.1, 2: 0.05}
INDEPENDENT_TOL = 1e-11  # measured at most 3.6e-13 (n=1/m=64, n=2/m=16)
ZERO_MEAN_TOL = 1e-14    # measured at most 1e-17
THREADED_SLACK = 1e-3

SUITE_LINE = re.compile(
    r"^\[(pass|FAIL)\] (\S+) n=(\d+) m=(\d+) checks=(\d+) wall=(\d+)ms")


def config_key(n: int, m: int) -> str:
    return f"n{n}-m{m}"


def load_inventory() -> dict:
    with open(INVENTORY_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# report checks


def split_by_suite(stdout: str, doc: dict) -> list[dict]:
    """Per-suite entries from the CLI's summary lines and the flat report.

    `verify all` writes one flat list of checks, suite after suite, and prints
    one summary line per suite with its check count; the counts cut the list.
    """
    suites = []
    start = 0
    for line in stdout.splitlines():
        hit = SUITE_LINE.match(line)
        if not hit:
            continue
        status, suite, n, m, count, wall_ms = hit.groups()
        count = int(count)
        suites.append({"suite": suite, "status": status, "n": int(n), "m": int(m),
                       "wall_ms": int(wall_ms),
                       "checks": doc["checks"][start:start + count]})
        start += count
    if start != len(doc["checks"]):
        raise ValueError(f"summary lines cover {start} checks, report has "
                         f"{len(doc['checks'])}")
    return suites


def suite_problems(entry: dict, inventory: dict[str, float]) -> list[str]:
    """Why one suite run counts as failed; empty when it passed."""
    problems = []
    if entry["status"] != "pass":
        problems.append("CLI reports FAIL")
    seen = {}
    for c in entry["checks"]:
        name, residual, tol = c["name"], c["residual"], c["tol"]
        seen[name] = tol
        if not (isinstance(residual, (int, float)) and math.isfinite(residual)):
            problems.append(f"{name}: residual {residual!r} is not finite")
        elif residual > tol:
            problems.append(f"{name}: residual {residual:.3e} over tol {tol:.0e}")
        if c["pass"] is not True:
            problems.append(f"{name}: pass flag is {c['pass']!r}")
    for name, tol in inventory.items():
        if name not in seen:
            problems.append(f"{name}: check vanished")
        elif seen[name] > tol:
            problems.append(f"{name}: tol {seen[name]:.0e} looser than shipped {tol:.0e}")
    return problems


def residual_map(suites: list[dict]) -> dict[str, list[float]]:
    return {f"{s['suite']}/{c['name']}": [c["residual"], c["tol"]]
            for s in suites for c in s["checks"]}


def compare_residuals(ref: dict, new: dict, strict: bool) -> tuple[list[str], list[str]]:
    """(disagreements, last-bit differences) between two residual maps.

    Serial passes must be bit-identical.  A threaded pass is now and then
    not (see README); it must still agree to THREADED_SLACK of each tolerance.
    """
    bad, bits = [], []
    for key in sorted(set(ref) | set(new)):
        if key not in ref or key not in new:
            bad.append(f"{key} is in only one pass")
            continue
        (a, tol), (b, _) = ref[key], new[key]
        if a == b:
            continue
        text = f"{key}: {a!r} vs {b!r}"
        if strict or abs(a - b) > THREADED_SLACK * tol:
            bad.append(text)
        else:
            bits.append(text)
    return bad, bits


# ---------------------------------------------------------------------------
# independent inputs and derivatives


def _wavenumbers(n: int, m: int) -> list[np.ndarray]:
    k = np.rint(np.fft.fftfreq(m) * m)
    d = 2 * n
    return [k.reshape([m if a == j else 1 for a in range(d)]) for j in range(d)]


def _band_limited(rng: np.random.Generator, n: int, m: int, channels: tuple,
                  amplitude: float) -> np.ndarray:
    """Seeded real field with modes |k_j| <= max(1, m // 20) and a fixed peak."""
    d = 2 * n
    band = max(1, m // 20)
    axes = tuple(range(-d, 0))
    F = np.fft.fftn(rng.standard_normal(channels + (m,) * d), axes=axes)
    for kj in _wavenumbers(n, m):
        F = F * (np.abs(kj) <= band)
    out = np.fft.ifftn(F, axes=axes).real
    return out * (amplitude / np.max(np.abs(out)))


def _flat_derivs(f: np.ndarray, n: int, m: int) -> np.ndarray:
    """[j] = ∂_j f by Fourier multiplication."""
    axes = tuple(range(-2 * n, 0))
    F = np.fft.fftn(f, axes=axes)
    return np.stack([np.fft.ifftn(1j * np.where(np.abs(kj) == m // 2, 0.0, kj) * F,
                                  axes=axes).real
                     for kj in _wavenumbers(n, m)])


def standard_j(n: int) -> np.ndarray:
    """J0 with J0 ∂x_i = ∂y_i, coordinates ordered (x_1..x_n, y_1..y_n)."""
    J = np.zeros((2 * n, 2 * n))
    for i in range(n):
        J[n + i, i] = 1.0
        J[i, n + i] = -1.0
    return J


def orientation_sign(n: int) -> int:
    """Sign of dx_1∧dy_1∧…∧dx_n∧dy_n against the increasing-index basis form."""
    order = [c for i in range(n) for c in (i, n + i)]
    inversions = sum(a > b for a, b in combinations(order, 2))
    return -1 if inversions % 2 else 1


def seeded_inputs(n: int, m: int, seed: int):
    """(s, ρ = e^{2s} dvol, J = S J0 S⁻¹) from one seed, grid axes last."""
    rng = np.random.default_rng([seed, n, m])
    amp = AMPLITUDE[n]
    d = 2 * n
    s = _band_limited(rng, n, m, (), amp)
    rho = (orientation_sign(n) * np.exp(2.0 * s))[None]
    S = np.eye(d).reshape((d, d) + (1,) * d) + _band_limited(rng, n, m, (d, d), amp)
    S_last = np.moveaxis(S, (0, 1), (-2, -1))
    J_last = S_last @ standard_j(n) @ np.linalg.inv(S_last)
    return s, rho, np.moveaxis(J_last, (-2, -1), (0, 1))


def flat_ricci_form(s: np.ndarray, n: int, m: int) -> np.ndarray:
    """d(ds∘J0) as coefficients over increasing pairs (a, b)."""
    ds = _flat_derivs(s, n, m)
    alpha = np.einsum("i...,ij->j...", ds, standard_j(n))
    dalpha = _flat_derivs(alpha, n, m)  # [a, b] = ∂_a α_b
    return np.stack([dalpha[a, b] - dalpha[b, a]
                     for a, b in combinations(range(2 * n), 2)])


def independent_checks(ricci, TorusGrid, n: int, m: int, seed: int) -> dict[str, float]:
    """Relative errors of geodesk's Ricci form against two outside facts.

    - conformal_flat: for ρ = e^{2s} dvol and J0 the Ricci form is d(ds∘J0);
    - zero_mean: on a torus the Ricci form of any (ρ, J) is exact, so every
      coefficient integrates to zero.
    """
    grid = TorusGrid(n, m)
    s, rho, J = seeded_inputs(n, m, seed)
    J0 = np.broadcast_to(standard_j(n).reshape((2 * n, 2 * n) + (1,) * (2 * n)),
                         J.shape).copy()
    expected = flat_ricci_form(s, n, m)
    ric = ricci.ricci_form(grid, rho, J0).ric
    conformal = float(np.max(np.abs(ric - expected)) / np.max(np.abs(expected)))
    ric = ricci.ricci_form(grid, rho, J).ric
    axes = tuple(range(1, ric.ndim))
    zero_mean = float(np.max(np.abs(ric.mean(axis=axes))) / np.max(np.abs(ric)))
    return {"conformal_flat": conformal, "zero_mean": zero_mean}


def independent_problems(errors: dict[str, float]) -> list[str]:
    limits = {"conformal_flat": INDEPENDENT_TOL, "zero_mean": ZERO_MEAN_TOL}
    return [f"{name}: {err:.2e} over {limits[name]:.0e}"
            for name, err in errors.items()
            if not (math.isfinite(err) and err <= limits[name])]
