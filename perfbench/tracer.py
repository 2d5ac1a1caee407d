"""Span tracer that wraps geodesk's public functions from the outside.

The tracer rebinds each traced function in every module that holds it (a
name imported with ``from .grid import ...`` is a second binding of the same
object), records one span per call and restores the originals on ``close``.
Spans stay in memory until the run ends.  Suite spans also record the peak
traced allocation (``tracemalloc``) inside the suite's interval.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

# (metric prefix, module, attribute path); methods are patched on their class.
TARGETS = (
    ("grid.TorusGrid.derivs", "geodesk.grid", "TorusGrid.derivs"),
    ("grid.exterior_d", "geodesk.grid", "exterior_d"),
    ("grid.poisson_solve", "geodesk.grid", "poisson_solve"),
    ("grid.fourier_interpolate", "geodesk.grid", "fourier_interpolate"),
    ("grid.pullback", "geodesk.grid", "pullback"),
    ("grid.random_band_limited", "geodesk.grid", "random_band_limited"),
    ("numpy.einsum", "numpy", "einsum"),
    ("numpy.linalg.inv", "numpy.linalg", "inv"),
    ("numpy.linalg.det", "numpy.linalg", "det"),
    ("connection.levi_civita", "geodesk.connection", "levi_civita"),
    ("connection.curvature", "geodesk.connection", "curvature"),
    ("connection.cov_endo", "geodesk.connection", "cov_endo"),
    ("ricci.ricci_form", "geodesk.ricci", "ricci_form"),
    ("ricci.lambda_rho", "geodesk.ricci", "lambda_rho"),
    ("hodge.KahlerInstance", "geodesk.hodge", "KahlerInstance.__init__"),
)
BYTES_OF = "grid.TorusGrid.derivs"


class Tracer:
    """Records spans (id, parent, pass, thread, name, start, end, self time)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.suite_peak_bytes: dict[str, int] = {}
        self._derivs_bytes: list[int] = []
        self.pass_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._mem_lock = threading.Lock()
        self._windows: dict[int, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), parent, name, 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, name, child_s, start = frame
        dur = end - start
        if stack:
            stack[-1][3] += dur
        self.spans.append((span_id, parent, self.pass_id, threading.get_ident(),
                           name, start, end, dur - child_s))

    def _wrap(self, name: str, fn):
        tracer = self
        count_bytes = name == BYTES_OF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if count_bytes:
                tracer._derivs_bytes.append(args[1].nbytes + out.nbytes)
            return out

        return traced

    # -- suites and memory -------------------------------------------------

    def _mem_event(self) -> int:
        """Fold the peak since the last event into every open suite window."""
        current, peak = tracemalloc.get_traced_memory()
        for window in self._windows.values():
            window[1] = max(window[1], peak)
        tracemalloc.reset_peak()
        return current

    def _wrap_suite(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced_suite(suite, *args, **kwargs):
            frame = tracer._enter(f"suite.{suite}")
            with tracer._mem_lock:
                current = tracer._mem_event()
                tracer._windows[frame[0]] = [current, current]
            try:
                return fn(suite, *args, **kwargs)
            finally:
                with tracer._mem_lock:
                    tracer._mem_event()
                    start, peak = tracer._windows.pop(frame[0])
                    tracer.suite_peak_bytes[suite] = max(
                        tracer.suite_peak_bytes.get(suite, 0), peak - start)
                tracer._exit(frame)

        return traced_suite

    # -- installing --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace every module-level binding of `original` in geodesk."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "geodesk" or mod_name.startswith("geodesk.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        from geodesk import cli

        for name, mod_name, path in TARGETS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr] if outer else getattr(owner, attr)
            replacement = self._wrap(name, original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, replacement)
            if not outer:
                self._rebind(original, replacement)
        original = cli.run_suite
        self._restore.append((cli, "run_suite", original))
        cli.run_suite = self._wrap_suite(original)
        self._rebind(original, cli.run_suite)
        tracemalloc.start()

    def close(self) -> None:
        tracemalloc.stop()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, suites) -> dict[str, tuple[float, str]]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for _, _, _, _, name, start, end, self_time in self.spans:
            calls[name] += 1
            self_s[name] += self_time
            total_s[name] += end - start
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{BYTES_OF}.bytes"] = (sum(self._derivs_bytes), "B")
        for suite in suites:
            out[f"suite.{suite}.s"] = (total_s[f"suite.{suite}"], "s")
            out[f"suite.{suite}.peak_mb"] = (self.suite_peak_bytes.get(suite, 0) / 1e6, "MB")
        return out

    def suite_seconds(self, pass_id) -> dict[str, float]:
        """Duration of each suite span of one pass."""
        return {name[len("suite."):]: end - start
                for _, _, pid, _, name, start, end, _ in self.spans
                if pid == pass_id and name.startswith("suite.")}
