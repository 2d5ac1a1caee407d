"""Named-residual reports: tolerances, JSON serialization, baselines.

Every measured check takes its tolerance from TOLERANCES, looked up by suite
and by the exact check name with any "[tag]" suffix stripped (not by prefix),
at the report's n and scaled by its tol_scale.  Pass/fail flags (residual 0
or 1) are recorded against the fixed FLAG_TOL, which nothing scales.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

TOLERANCE_TABLE_VERSION = 3

# The shipped tolerance of every measured check, by suite and by check name
# without its "[tag]" suffix; part of the shipped claim.  A pair gives the
# tolerance at (n = 1, n >= 2).  9.999999999999999e-06 is 10 x 1e-6 in float64,
# the n >= 2 value shipped since version 1.  Pass/fail flags are not listed:
# CheckReport.add_flag records them against FLAG_TOL.
TOLERANCES: dict[str, dict[str, float | tuple[float, float]]] = {
    "lincs": {
        "moment": 1e-12,
        "tau_two_expressions": 1e-12,
        "siegel_equivariance": 1e-10,
        "siegel_isometry_fd": 1e-7,
        "tau_closed_fd": 1e-8,
    },
    "ricci-moment": {
        "lambda_pairing": (1e-6, 9.999999999999999e-06),
        "ricci_variation_fd": (1e-6, 9.999999999999999e-06),
        "moment_map_fd": (1e-6, 9.999999999999999e-06),
        "scalar_moment_fd": (1e-6, 9.999999999999999e-06),
        "scalar_bracket": (1e-6, 9.999999999999999e-06),
    },
    "ricci-laws": {
        "conformal_shift": (1e-8, 1e-7),
        "lambda_conformal_shift": (1e-8, 1e-7),
        "naturality_affine": (1e-12, 1e-11),
        "lambda_naturality_affine": (1e-12, 1e-11),
        "naturality_displacement": (1e-7, 1e-6),
        "lambda_lie": (1e-6, 9.999999999999999e-06),
        "lambda_two_parameter": (1e-6, 9.999999999999999e-06),
        "pairing_divergence": (1e-6, 9.999999999999999e-06),
        "kahler_lambda_vanishes": (1e-8, 1e-7),
        "kahler_lambda_vanishes_compatible": (1e-8, 1e-7),
        "closedness": (1e-8, 1e-7),
        "connection_independence": (1e-7, 1e-6),
        "lambda_connection_independence": (1e-7, 1e-6),
        "integrable_11": (1e-7, 1e-6),
        "cohomology_pairing": (1e-7, 1e-6),
    },
    "bkn": {
        "flat_identity": 1e-8,
        "curved_identity_n1": 1e-6,
        "curved_identity_n2": 1e-5,
        "q_two_ways": 1e-8,
        "adjoint_q1": 1e-7,
        "adjoint_q2": 1e-7,
        "anti_linearity": 1e-10,
        "anti_linearity_q2": 1e-8,
        "weitzenbock_flat": 1e-8,
        "weitzenbock_curved": 1e-6,
        "laplacian_positivity": 1e-9,
    },
    "harmonic": {
        "hamiltonian_divergence": (1e-7, 1e-6),
        "gradient_divergence": (1e-7, 1e-6),
        "star_contraction": (1e-10, 1e-9),
        "lie_compatibility": (1e-7, 1e-6),
        "self_adjoint_defect": (1e-7, 1e-6),
        "self_adjoint_gradient": (1e-7, 1e-6),
        "lambda_fg_plugback": (1e-7, 1e-6),
        "lambda_fg_lie_oracle": (1e-7, 1e-6),
        "lambda_coclosed_zero": (1e-7, 1e-6),
        "adjoint_harmonic": (1e-7, 1e-6),
        "parallel_norms_endo": (1e-7, 1e-6),
        "skew_two_form_antisymmetric": 1e-10,
        "skew_two_form_no_11_part": 1e-10,
        "parallel_norms_form": (1e-7, 1e-6),
        "holomorphic_divergence": (1e-7, 1e-6),
        "holomorphic_lambda_zero": (1e-7, 1e-6),
    },
    "bott-chern": {
        "ddc_nijenhuis": 1e-7,
        "ddc_integrable": 1e-7,
        "l0_vs_laplacian": 1e-8,
        "l0_source_mean_zero": 1e-8,
        "l0_solve_plugback": 1e-7,
        "selfdual_pairing": 1e-10,
        "omega_self_dual": 1e-10,
    },
    "teich-wp": {
        "antisymmetry": (1e-12, 1e-11),
        "antisymmetry_diag": (1e-12, 1e-11),
        "constant_fg_zero": (1e-12, 1e-11),
        "constant_reduction": (1e-12, 1e-11),
        "descent": (1e-6, 9.999999999999999e-06),
        "naturality_sl2z": (1e-10, 1e-9),
        "signature_split_positive": (1e-9, 1e-8),
        "signature_split_negative": (1e-9, 1e-8),
        "gram_condition": (1e3, 1e4),
        "fg_lie_oracle": (1e-7, 1e-6),
        "fg_plugback": (1e-7, 1e-6),
        "fg_coclosed_zero": (1e-8, 1e-7),
    },
    "teich-connection": {
        "curvature_two_ways_constant": 1e-8,
        "curvature_diagonal_zero": 1e-8,
        "curvature_two_ways_seeded": 1e-6,
        "cohomology_invariance": 1e-6,
        "condition_type": 1e-6,
        "condition_dbar": 1e-6,
        "condition_lambda": 1e-6,
        "condition_horizontal": 1e-6,
        "lie_reproduction": 1e-6,
    },
    "theta": {
        "rho_from_theta": 1e-12,
        "roundtrip": (1e-12, 1e-11),
        "star_adjoint_flag": (1e-10, 1e-9),
        "sym_star_flag": (1e-10, 1e-9),
        "sym_wedge_omega_flag": (1e-10, 1e-9),
        "skew_star_flag": (1e-10, 1e-9),
        "symplectic_pairing": (1e-9, 1e-8),
        "inner_pairing": (1e-9, 1e-8),
        "lie_beta_oracle": (1e-7, 1e-6),
        "lie_beta_projection": (1e-7, 1e-6),
        "closed_flag": (1e-7, 1e-6),
        "coclosed_flag": (1e-7, 1e-6),
        "dbar_star_adjointness": (1e-7, 1e-6),
        "del_lambda": (1e-7, 1e-6),
        "closed_correction": (1e-7, 1e-6),
        "closed_correction_mean": 1e-10,
        "pairing_re": (1e-7, 1e-6),
        "pairing_im": (1e-7, 1e-6),
        "pairing_vs_wp": (1e-7, 1e-6),
        "integrability_bridge": (1e-7, 1e-6),
        "bridge_vanishes_n1": 1e-8,
        "integrable_theta_closed": (1e-7, 1e-6),
        "flat_bundle_ricci_zero": (1e-7, 1e-6),
    },
}

# Tolerance of a pass/fail flag (residual 0 or 1); tol_scale and n leave it be.
FLAG_TOL = 0.5


def max_abs(a) -> float:
    """max|a|; for real input max(max a, −min a), the same value without an
    |a| temporary of a's size (+ 0.0 turns a −0.0 into 0.0, as |a| would).
    NaN anywhere gives NaN."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return float(np.max(np.abs(a)))
    return float(np.maximum(np.max(a), -np.min(a))) + 0.0


def rel_max1(a, b) -> float:
    """max|a| / max(1, max|b|): a residual against the scale of b, floored at 1."""
    return max_abs(a) / max(1.0, max_abs(b))


def rel_plus1(a, b) -> float:
    """max|a| / (max|b| + 1): a residual against the scale of b plus 1."""
    return max_abs(a) / (max_abs(b) + 1.0)


@dataclass
class CheckEntry:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def as_dict(self) -> dict:
        """A NaN or infinite residual is written as null (strict JSON); it
        never passes."""
        return {"name": self.name,
                "residual": self.residual if math.isfinite(self.residual) else None,
                "tol": self.tol, "pass": self.passed}


@dataclass
class CheckReport:
    suite: str
    params: dict
    checks: list[CheckEntry] = field(default_factory=list)
    wall_ms: int = 0
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def add(self, name: str, residual: float) -> None:
        """Measured check, against TOLERANCES[suite][name without "[tag]"]
        at the report's n, times its tol_scale."""
        tol = TOLERANCES[self.suite][name.split("[", 1)[0]]
        if isinstance(tol, tuple):
            tol = tol[0] if self.params["n"] == 1 else tol[1]
        self.checks.append(CheckEntry(name, float(residual),
                                      tol * self.params.get("tol_scale", 1.0)))

    def add_flag(self, name: str, ok: bool) -> None:
        """Pass/fail check recorded as residual 0 (ok) or 1 (failed)."""
        self.checks.append(CheckEntry(name, 0.0 if ok else 1.0, FLAG_TOL))

    def finalize(self) -> "CheckReport":
        self.checks.sort(key=lambda c: c.name)
        self.wall_ms = int(round(1000 * (time.perf_counter() - self._t0)))
        return self

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> CheckEntry | None:
        bad = [c for c in self.checks if not c.passed]
        pool = bad or self.checks
        return max(pool, key=lambda c: c.residual / max(c.tol, 1e-300)) if pool else None

    def as_dict(self) -> dict:
        params = dict(self.params)
        params.setdefault("tolerance_table_version", TOLERANCE_TABLE_VERSION)
        return {"suite": self.suite, "params": params,
                "checks": [c.as_dict() for c in self.checks],
                "wall_ms": self.wall_ms}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "geodesk check report",
    "type": "object",
    "required": ["suite", "params", "checks", "wall_ms"],
    "properties": {
        "suite": {"type": "string"},
        "params": {"type": "object"},
        "wall_ms": {"type": "integer", "minimum": 0},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "residual", "tol", "pass"],
                "properties": {
                    "name": {"type": "string"},
                    "residual": {"type": ["number", "null"]},
                    "tol": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
                # a NaN or infinite residual is written as null and fails
                "if": {"properties": {"residual": {"type": "null"}},
                       "required": ["residual"]},
                "then": {"properties": {"pass": {"const": False}}},
            },
        },
    },
}


def is_number(val) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def validate_report(doc) -> list[str]:
    """Structural validation against REPORT_SCHEMA; returns the problems and
    never raises."""
    if not isinstance(doc, dict):
        return ["report must be an object"]
    problems = [f"missing key {key!r}" for key in REPORT_SCHEMA["required"]
                if key not in doc]
    if not isinstance(doc.get("suite", ""), str):
        problems.append("suite must be a string")
    if not isinstance(doc.get("params", {}), dict):
        problems.append("params must be an object")
    wall_ms = doc.get("wall_ms", 0)
    if isinstance(wall_ms, bool) or not isinstance(wall_ms, int) or wall_ms < 0:
        problems.append("wall_ms must be a non-negative integer")
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        return problems + ["checks must be an array"]
    for i, c in enumerate(checks):
        if not isinstance(c, dict):
            problems.append(f"checks[{i}] must be an object")
            continue
        missing = [key for key in ("name", "residual", "tol", "pass") if key not in c]
        problems += [f"checks[{i}] missing {key!r}" for key in missing]
        if missing:
            continue
        res, tol, ok = c["residual"], c["tol"], c["pass"]
        if not (isinstance(c["name"], str) and (res is None or is_number(res))
                and is_number(tol) and isinstance(ok, bool)):
            problems.append(f"checks[{i}] needs a string name, a numeric or null "
                            "residual, a numeric tol and a boolean pass")
        elif (res is not None and res <= tol) != ok:
            problems.append(f"checks[{i}] pass flag inconsistent")
    return problems


def compare_to_baseline(reports: CheckReport | list[CheckReport], baseline: dict,
                        factor: float = 10.0) -> list[str]:
    """Names of checks that regressed against the baseline: the residual grew
    by more than `factor`, is NaN on either side, or the check vanished.

    Pass every report of a run together: a baseline check counts as vanished
    only if no suite of the run produced it.  A null baseline residual (a NaN
    or infinity written as strict JSON) counts as NaN.
    """
    if isinstance(reports, CheckReport):
        reports = [reports]
    base = {c["name"]: math.nan if c["residual"] is None else c["residual"]
            for c in baseline.get("checks", [])}
    checks = [c for r in reports for c in r.checks]
    floor = 1e-15
    grown = [c.name for c in checks if c.name in base and (
        math.isnan(c.residual) or math.isnan(base[c.name])
        or c.residual > factor * max(base[c.name], floor))]
    return grown + sorted(set(base) - {c.name for c in checks})

