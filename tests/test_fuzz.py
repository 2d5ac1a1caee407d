"""Fuzz tests: damaged snapshots, arbitrary report documents and arbitrary
baseline files end in a result or a UsageError, never in another exception."""

import functools
import json
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from geodesk import cli
from geodesk.errors import UsageError
from geodesk.grid import Field, TorusGrid, load_field, random_band_limited, save_field
from geodesk.report import validate_report

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
CHECK = st.fixed_dictionaries({}, optional={key: JSON for key in
                                            ("name", "residual", "tol", "pass")})
RUN = {"n": 1, "m": 8, "seed": 1}
# report-shaped documents reach the per-check and params branches
REPORT = st.fixed_dictionaries({}, optional={
    "suite": JSON, "wall_ms": JSON, "params": st.just(RUN) | JSON,
    "checks": st.lists(CHECK | JSON, max_size=4) | JSON})


@functools.cache
def _snapshot() -> bytes:
    g = TorusGrid(1, 8)
    fld = Field(g, "endo", random_band_limited(g, "endo", 5, 0.2), {"seed": 5})
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "f.gdsk")
        save_field(path, fld)
        with open(path, "rb") as fh:
            return fh.read()


def _load(blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "f.gdsk")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            assert isinstance(load_field(path), Field)
        except UsageError:
            pass


@given(st.binary(max_size=1024) | st.binary(max_size=256).map(lambda b: b"GDSK1\x00" + b))
def test_load_field_on_random_bytes(blob):
    _load(blob)


@given(st.data())
def test_load_field_on_truncated_or_bit_flipped_snapshot(data):
    blob = bytearray(_snapshot())
    body = 14 + int.from_bytes(blob[6:14], "little")  # magic, length, JSON header
    if data.draw(st.booleans()):
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        # half the flips land in the magic, the length or the JSON header
        bit = data.draw(st.integers(0, 8 * body - 1) | st.integers(0, 8 * len(blob) - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
    _load(bytes(blob))


@given(REPORT | JSON)
def test_validate_report_returns_a_list_of_strings(doc):
    problems = validate_report(doc)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)


@given(REPORT | JSON)
def test_read_baseline_returns_a_dict_or_raises_usage_error(doc):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "base.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            assert isinstance(cli._read_baseline(path, RUN), dict)
        except UsageError:
            pass
