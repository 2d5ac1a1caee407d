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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def contract(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` on C-contiguous operands, with
    three or more operands contracted pairwise along a fixed greedy path."""
    ops = [np.ascontiguousarray(op) for op in operands]
    if len(ops) <= 2:
        return np.einsum(subscripts, *ops)
    for group, steps in _chain(subscripts, tuple(op.shape for op in ops)):
        items = [ops[p] for p in group]
        for p in sorted(group, reverse=True):
            del ops[p]
        acc = items[0]
        for item, sub in zip(items[1:], steps):
            acc = np.ascontiguousarray(np.einsum(sub, acc, item))
        ops.append(acc)
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
