"""Pointwise algebra on sampled fields: contractions, products, traces,
inverses and determinants over the component axes, batched over the grid.

Layout: component axes first, grid axes last (see ``grid``).  Every helper
accepts operands of any strides.  Operands are made C-contiguous before they
reach ``np.einsum``, because a strided operand makes a grid-batched einsum
several times slower than the arithmetic needs.

Contractions of three or more operands run as a chain of plain two-operand
einsums.  The order of the chain is numpy's greedy contraction path
(``np.einsum_path``, the opt_einsum technique of Smith & Gray, JOSS 3(26):753,
2018), a pure function of the subscripts and the operand shapes, so the same
inputs always take the same path and give bit-identical results.

A chain whose output keeps the grid, and every ``contract_add``, is evaluated
in slices of the flattened grid axis, sized so that one slice's operand
copies, intermediates and result stay within ``_CHUNK_BYTES``: no full-grid
intermediate is built.  Each output value takes the same arithmetic in the
same order as on the whole grid, so the results are bit-identical.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


_CHUNK_BYTES = 1 << 22  # budget for the temporaries of one grid slice of a contraction
_CHUNK_POINTS = 256  # and the fewest points a slice holds: with one, numpy's loops
#                      would reduce over a component axis in another order


def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` on C-contiguous operands, with
    three or more operands contracted pairwise along a fixed greedy path,
    slice by slice into the output when the output keeps the grid."""
    if len(operands) <= 2:
        return np.einsum(subscripts, *[np.ascontiguousarray(op) for op in operands])
    plan = _grid_plan(subscripts, operands)
    if plan is None or len(plan.bounds) == 2:  # no grid to slice, or one slice
        return _evaluate(subscripts, operands, [np.ascontiguousarray(op) for op in operands])
    out = np.empty(plan.out_shape, dtype=np.result_type(*operands))
    _by_slices(out.reshape(plan.flat_out), np.copyto, subscripts, operands, plan)
    return out


def contract_add(out: np.ndarray, sign: int, subscripts: str, *operands: np.ndarray) -> None:
    """``out += contract(...)`` for sign +1 and ``out -= contract(...)`` for
    −1, bit for bit, one slice of the flattened grid axis at a time, so the
    full-grid term is never built.  The output term, and the term of every
    operand that carries the grid, end in "..."; out's grid axes must merge
    into one axis without a copy."""
    if sign not in (1, -1):
        raise ValueError(f"contract_add: sign must be +1 or -1, got {sign!r}")
    plan = _grid_plan(subscripts, operands)
    if plan is None or out.shape != plan.out_shape:
        raise ValueError(f"contract_add: {subscripts!r} does not give a grid field "
                         f"of out's shape {out.shape}")
    target = out.reshape(plan.flat_out)
    if not np.may_share_memory(target, out):  # reshape had to copy
        raise ValueError(f"contract_add: out's grid axes {out.shape} do not merge into one "
                         "axis without a copy")
    step = np.add if sign > 0 else np.subtract
    _by_slices(target, lambda view, term: step(view, term, out=view), subscripts, operands, plan)


class _GridPlan:
    """The slicing of one contraction: the output's shape and its shape with
    the grid flattened, the number of component axes of each operand that
    carries the grid (None for one that does not), and the slice bounds.
    A plain class: a NamedTuple would cost milliseconds at import."""

    __slots__ = ("out_shape", "flat_out", "ncomp", "bounds")

    def __init__(self, out_shape: tuple[int, ...], flat_out: tuple[int, ...],
                 ncomp: tuple[int | None, ...], bounds: tuple[int, ...]):
        self.out_shape, self.flat_out, self.ncomp, self.bounds = out_shape, flat_out, ncomp, bounds


def _grid_plan(subscripts: str, operands) -> _GridPlan | None:
    return _plan(subscripts, tuple(op.shape for op in operands),
                 np.result_type(*operands).itemsize, _CHUNK_BYTES)


@lru_cache(maxsize=1024)
def _plan(subscripts: str, shapes: tuple[tuple[int, ...], ...], itemsize: int, budget: int):
    """How to slice a contraction whose output and gridded operands end in
    "..." over one common grid shape; None for any other.  The slices differ
    in size by at most one point, and one slice's operand copies, chain
    intermediates and result take at most ``budget`` bytes, unless that
    would leave fewer than ``_CHUNK_POINTS`` points to a slice."""
    terms, output = subscripts.split("->")
    if not output.endswith("...") or "..." in output[:-3]:
        return None
    dims, grid, ncomp, per_point = {}, None, [], 0
    for t, shape in zip(terms.split(","), shapes):
        letters = t.removesuffix("...")
        if "..." in letters:
            return None
        dims.update(zip(letters, shape))
        ncomp.append(len(letters) if t.endswith("...") else None)
        if ncomp[-1] is not None:
            if grid is None:
                grid = shape[len(letters):]
            elif shape[len(letters):] != grid:
                return None
            per_point += math.prod(shape[:len(letters)])
    if not grid:
        return None
    results = [output] if len(shapes) <= 2 else [
        st.split("->")[1] for _, steps in _chain(subscripts, shapes) for st in steps]
    per_point += sum(math.prod(dims[c] for c in r.replace("...", "")) for r in results)
    npoints = math.prod(grid)
    total = per_point * itemsize * npoints
    chunks = max(1, min(npoints // _CHUNK_POINTS, -(-total // budget)))
    comp = tuple(dims[c] for c in output[:-3])
    return _GridPlan(comp + grid, comp + (npoints,), tuple(ncomp),
                     tuple(npoints * k // chunks for k in range(chunks + 1)))


def _by_slices(target: np.ndarray, store, subscripts: str, operands, plan: _GridPlan) -> None:
    """``store(view, term)`` for each slice of the flattened grid, view being
    that slice of target and term the contraction of C-contiguous copies of
    the operands' slices."""
    flat = [op if k is None else np.reshape(op, op.shape[:k] + (-1,))
            for op, k in zip(operands, plan.ncomp)]
    for lo, hi in zip(plan.bounds[:-1], plan.bounds[1:]):
        store(target[..., lo:hi], _evaluate(subscripts, operands, [
            np.ascontiguousarray(op if k is None else op[..., lo:hi])
            for op, k in zip(flat, plan.ncomp)]))


def _evaluate(subscripts: str, operands, ops: list[np.ndarray]) -> np.ndarray:
    """The contraction of ops, C-contiguous wholes or grid slices of
    operands, three or more pairwise along the greedy path of the operands'
    full shapes."""
    if len(ops) <= 2:
        return np.einsum(subscripts, *ops)
    for group, steps in _chain(subscripts, tuple(op.shape for op in operands)):
        items = [ops[p] for p in group]
        for p in sorted(group, reverse=True):
            del ops[p]
        acc = items[0]
        for item, sub in zip(items[1:], steps):
            acc = np.ascontiguousarray(np.einsum(sub, acc, item))
        ops.append(acc)
        del items, acc  # the group's inputs die before the next group runs
    return ops[0]


@lru_cache(maxsize=1024)
def _chain(subscripts: str, shapes: tuple[tuple[int, ...], ...]):
    """The greedy path as (operand positions, pairwise subscripts) groups.

    Positions index the list of operands left after the earlier groups, whose
    results are appended at its end.  A group of k operands is folded left to
    right in k − 1 two-operand steps.  Each intermediate keeps the indices a
    later step or the output needs, in order of first appearance, with the
    ellipsis last.
    """
    terms, output = subscripts.split("->")
    terms = terms.split(",")
    dummies = [np.broadcast_to(np.empty(()), shape) for shape in shapes]
    path = np.einsum_path(subscripts, *dummies, optimize="greedy")[0][1:]
    chain = []
    for n_group, group in enumerate(path):
        items = [terms[p] for p in group]
        for p in sorted(group, reverse=True):
            del terms[p]
        last_group = n_group == len(path) - 1
        acc, steps = items[0], []
        for k, item in enumerate(items[1:], start=2):
            if last_group and k == len(items):
                out = output
            else:
                needed = set(output).union(*terms, *items[k:])
                out = "".join(dict.fromkeys(c for c in acc + item if c != "." and c in needed))
                if "..." in acc or "..." in item:
                    out += "..."
            steps.append(f"{acc},{item}->{out}")
            acc = out
        terms.append(acc)
        chain.append((tuple(group), tuple(steps)))
    return tuple(chain)


def mul(*mats: np.ndarray) -> np.ndarray:
    """Pointwise matrix product of endomorphism fields, left to right."""
    out = mats[0]
    for m in mats[1:]:
        out = contract("ik...,kj...->ij...", out, m)
    return out


def trace(E: np.ndarray) -> np.ndarray:
    """Pointwise trace of an endomorphism field."""
    return contract("ii...->...", E)


def _closed_form(E: np.ndarray) -> bool:
    return E.dtype == np.float64 and E.shape[0] in (2, 4)


def _minors(E: np.ndarray):
    """The 2×2 minors of rows (0, 1) and of rows (2, 3) of a 4×4 field."""
    a = E
    s = (a[0, 0] * a[1, 1] - a[1, 0] * a[0, 1],
         a[0, 0] * a[1, 2] - a[1, 0] * a[0, 2],
         a[0, 0] * a[1, 3] - a[1, 0] * a[0, 3],
         a[0, 1] * a[1, 2] - a[1, 1] * a[0, 2],
         a[0, 1] * a[1, 3] - a[1, 1] * a[0, 3],
         a[0, 2] * a[1, 3] - a[1, 2] * a[0, 3])
    c = (a[2, 0] * a[3, 1] - a[3, 0] * a[2, 1],
         a[2, 0] * a[3, 2] - a[3, 0] * a[2, 2],
         a[2, 0] * a[3, 3] - a[3, 0] * a[2, 3],
         a[2, 1] * a[3, 2] - a[3, 1] * a[2, 2],
         a[2, 1] * a[3, 3] - a[3, 1] * a[2, 3],
         a[2, 2] * a[3, 3] - a[3, 2] * a[2, 3])
    return s, c


def _det4(s, c):
    return s[0] * c[5] - s[1] * c[4] + s[2] * c[3] + s[3] * c[2] - s[4] * c[1] + s[5] * c[0]


def det(E: np.ndarray) -> np.ndarray:
    """Pointwise determinant of a (d, d) + grid field.

    Closed form for float64 at d = 2 and d = 4, LAPACK otherwise.
    """
    if not _closed_form(E):
        return np.linalg.det(np.moveaxis(E, (0, 1), (-2, -1)))
    if E.shape[0] == 2:
        return E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
    return _det4(*_minors(E))


def inv(E: np.ndarray) -> np.ndarray:
    """Pointwise inverse of a (d, d) + grid field.

    Closed-form adjugate for float64 at d = 2 and d = 4, LAPACK otherwise.
    A zero or non-finite determinant raises ``np.linalg.LinAlgError``.
    """
    if not _closed_form(E):
        return np.moveaxis(np.linalg.inv(np.moveaxis(E, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    a = E
    out = np.empty(E.shape)
    if E.shape[0] == 2:
        dt = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        out[0, 0], out[0, 1] = a[1, 1], -a[0, 1]
        out[1, 0], out[1, 1] = -a[1, 0], a[0, 0]
    else:
        s, c = _minors(E)
        dt = _det4(s, c)
        out[0, 0] = a[1, 1] * c[5] - a[1, 2] * c[4] + a[1, 3] * c[3]
        out[0, 1] = -a[0, 1] * c[5] + a[0, 2] * c[4] - a[0, 3] * c[3]
        out[0, 2] = a[3, 1] * s[5] - a[3, 2] * s[4] + a[3, 3] * s[3]
        out[0, 3] = -a[2, 1] * s[5] + a[2, 2] * s[4] - a[2, 3] * s[3]
        out[1, 0] = -a[1, 0] * c[5] + a[1, 2] * c[2] - a[1, 3] * c[1]
        out[1, 1] = a[0, 0] * c[5] - a[0, 2] * c[2] + a[0, 3] * c[1]
        out[1, 2] = -a[3, 0] * s[5] + a[3, 2] * s[2] - a[3, 3] * s[1]
        out[1, 3] = a[2, 0] * s[5] - a[2, 2] * s[2] + a[2, 3] * s[1]
        out[2, 0] = a[1, 0] * c[4] - a[1, 1] * c[2] + a[1, 3] * c[0]
        out[2, 1] = -a[0, 0] * c[4] + a[0, 1] * c[2] - a[0, 3] * c[0]
        out[2, 2] = a[3, 0] * s[4] - a[3, 1] * s[2] + a[3, 3] * s[0]
        out[2, 3] = -a[2, 0] * s[4] + a[2, 1] * s[2] - a[2, 3] * s[0]
        out[3, 0] = -a[1, 0] * c[3] + a[1, 1] * c[1] - a[1, 2] * c[0]
        out[3, 1] = a[0, 0] * c[3] - a[0, 1] * c[1] + a[0, 2] * c[0]
        out[3, 2] = -a[3, 0] * s[3] + a[3, 1] * s[1] - a[3, 2] * s[0]
        out[3, 3] = a[2, 0] * s[3] - a[2, 1] * s[1] + a[2, 2] * s[0]
    if not np.all(np.isfinite(dt) & (dt != 0)):
        raise np.linalg.LinAlgError("Singular matrix")
    out /= dt
    return out
