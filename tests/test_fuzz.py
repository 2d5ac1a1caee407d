"""Fuzz tests: arbitrary report documents and arbitrary baseline files end
in a result or a UsageError, never in another exception."""

import json
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from geodesk import cli
from geodesk.errors import UsageError
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
