import ast
import re
from pathlib import Path

import numpy as np
import pytest

from geodesk import grid as G
from geodesk import pointwise as P
from geodesk.errors import DomainError

SRC = Path(P.__file__).resolve().parent
GRID = (3, 5)


def _used_subscripts() -> list[str]:
    found = {"ik...,kj...->ij...", "ii...->..."}  # mul and trace
    for path in SRC.glob("*.py"):
        found.update(re.findall(r'P\.contract\(\s*"([^"]+)"', path.read_text()))
    return sorted(found)


def _shape(term: str, d: int) -> tuple[int, ...]:
    shape = []
    for token in re.findall(r"\.\.\.|\w", term):
        shape.extend(GRID if token == "..." else (d,))
    return tuple(shape)


def _operand(rng, shape, layout):
    if layout == "contiguous":
        return rng.standard_normal(shape)
    if layout == "transposed":
        return rng.standard_normal(shape[::-1]).T
    # the leading axis stored last, as np.moveaxis leaves a batched LAPACK result
    return np.moveaxis(rng.standard_normal(shape[1:] + shape[:1]), -1, 0)


SUBSCRIPTS = _used_subscripts()


def test_subscript_scan_covers_the_package():
    assert len(SUBSCRIPTS) > 60
    assert "kc...,cab...,ai...,bj...->kij..." in SUBSCRIPTS


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "moveaxis"])
@pytest.mark.parametrize("d", [2, 4, 6])
def test_contract_matches_einsum(d, layout):
    rng = np.random.default_rng(d)
    for subscripts in SUBSCRIPTS:
        terms = subscripts.split("->")[0].split(",")
        ops = [_operand(rng, _shape(t, d), layout) for t in terms]
        ref = np.einsum(subscripts, *ops)
        out = P.contract(subscripts, *ops)
        assert out.shape == ref.shape, subscripts
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(np.max(np.abs(out - ref))) <= 1e-13 * scale, subscripts


def test_contract_is_bitwise_repeatable():
    rng = np.random.default_rng(7)
    subscripts = "ik...,jl...,ab...,aij...,bkl...->..."
    ops = [_operand(rng, _shape(t, 4), "moveaxis") for t in subscripts.split("->")[0].split(",")]
    first = P.contract(subscripts, *ops)
    P._chain.cache_clear()
    again = [P.contract(subscripts, *ops) for _ in range(3)]
    assert all(np.array_equal(first, a) for a in again)


def _lapack_inv(E):
    return np.moveaxis(np.linalg.inv(np.moveaxis(E, (0, 1), (-2, -1))), (-2, -1), (0, 1))


def _lapack_det(E):
    return np.linalg.det(np.moveaxis(E, (0, 1), (-2, -1)))


def _conditioned_field(rng, d, cond):
    """U diag(1 .. cond) Vᵀ at every grid point, U and V random orthogonal."""
    U, _ = np.linalg.qr(rng.standard_normal(GRID + (d, d)))
    V, _ = np.linalg.qr(rng.standard_normal(GRID + (d, d)))
    s = np.geomspace(1.0, cond, d)
    return np.moveaxis((U * s) @ np.swapaxes(V, -2, -1), (-2, -1), (0, 1))


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("kind", ["near_identity", "cond1e3"])
def test_inv_det_match_lapack(d, kind):
    rng = np.random.default_rng(d)
    if kind == "near_identity":
        E = G.constant_field_like(np.empty((d, d) + GRID), np.eye(d)) \
            + 0.1 * rng.standard_normal((d, d) + GRID)
    else:
        E = _conditioned_field(rng, d, 1e3)
    for view in (E, np.swapaxes(np.swapaxes(E, 0, 1).copy(), 0, 1)):
        ref = _lapack_inv(view)
        assert float(np.max(np.abs(P.inv(view) - ref))) <= 1e-12 * float(np.max(np.abs(ref)))
        ref_det = _lapack_det(view)
        assert float(np.max(np.abs(P.det(view) - ref_det))) \
            <= 1e-12 * float(np.max(np.abs(ref_det)))


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_singular_field_raises(d, bad):
    E = G.constant_field_like(np.empty((d, d) + GRID), np.eye(d))
    E[:, :, 1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError):
        P.inv(E)


def test_metric_sqrt_det_rejects_nonpositive_determinant():
    grid = G.TorusGrid(1, 8)
    g = G.constant_field(grid, np.eye(grid.d))
    g[1, 1, 3, 4] = -1.0
    with pytest.raises(DomainError):
        G.metric_sqrt_det(g)
    g[1, 1, 3, 4] = 0.0
    with pytest.raises(DomainError):
        G.metric_sqrt_det(g)


def test_only_pointwise_calls_einsum_or_batched_inv():
    offenders = []
    for path in SRC.glob("*.py"):
        if path.name == "pointwise.py":
            continue
        text = path.read_text()
        for idiom in ("np.einsum(", "np.moveaxis(np.linalg.inv("):
            if idiom in text:
                offenders.append(f"{path.name}: {idiom}")
    assert offenders == []


def _references(path: Path, tree: ast.Module, modules: set[str]) -> set[tuple[str, str]]:
    """The (module, name) pairs one file refers to: ``M.name`` for an alias M
    of a geodesk module, a bare name bound by ``from .m import name``, and
    in src/geodesk a bare name of the file's own module.  Outside the
    package a variable named like a module (perfbench's ``cli``, ``ricci``)
    counts as that module."""
    own = path.stem if path.parent == SRC else None
    alias = {} if own else {m: m for m in modules}
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("geodesk").lstrip(".")
            package = node.level == 1 and not node.module or node.module == "geodesk"
            for item in node.names:
                local = item.asname or item.name
                if package and item.name in modules:
                    alias[local] = item.name
                elif base in modules:
                    imported[local] = (base, item.name)
    refs = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in alias):
            refs.add((alias[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                refs.add(imported[node.id])
            elif own:
                refs.add((own, node.id))
    return refs


def _tracer_targets(tree: ast.Module) -> set[tuple[str, str]]:
    """perfbench's tracer wraps the geodesk attributes its TARGETS name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {(module.removeprefix("geodesk."), attr.split(".")[0])
                    for _, module, attr in ast.literal_eval(node.value)
                    if module.startswith("geodesk.")}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_top_level_definition_is_used():
    # a function or class of src/geodesk that no module of src/geodesk or
    # perfbench refers to (module-qualified, beyond importing it) is dead
    # code; a name only the tests use belongs with the tests
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    modules = {path.stem for path in SRC.glob("*.py")}
    defined, used = [], set()
    for path in [*SRC.glob("*.py"), *perfbench.glob("*.py")]:
        tree = ast.parse(path.read_text())
        if path.parent == SRC:
            defined += [(path.stem, node.name) for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        used |= _references(path, tree, modules)
        if path.name == "tracer.py":
            used |= _tracer_targets(tree)
    assert [f"{module}: {name}" for module, name in defined
            if (module, name) not in used] == []
