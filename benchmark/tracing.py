"""In-memory spans and counters for the traced benchmark run.

A span records (name, start, end, parent). Spans are opened by the
benchmark around its own calls into each fairtree module; for the calls
that the CLI and the experiment harness make between modules, ``patched``
swaps traced wrappers into the calling module's namespace for the length
of the traced pass and restores the originals afterwards. Nothing under
``src/`` is changed.

A span's self time is its duration minus the part covered by its child
spans, so a module's figure never includes the modules it calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

from fairtree.traversal import predict_fair_batch


class Tracer:
    """Collects spans and counters; when disabled every call is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = defaultdict(float)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount=1) -> None:
        if self.enabled:
            self.counters[name] += amount

    def high(self, name: str, value) -> None:
        """Keep the largest value seen for ``name``."""
        if self.enabled:
            self.counters[name] = max(self.counters[name], value)

    def self_times(self) -> dict:
        """Summed self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)


def _traced(tracer, fn, span_name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result
    return wrapper


def _count_rows(tracer, args, kwargs, result):
    tracer.count("data.rows", result.n_rows)


# predict_fair_batch's default lane budget per chunk
MAX_LANES = inspect.signature(predict_fair_batch).parameters["max_lanes"].default


def count_mc(tracer, forest, X, config) -> None:
    """Lane walks of one predict_fair_batch call, and the bytes of the
    largest np.repeat(X, S) lane matrix it builds."""
    n_rows, n_features = X.shape
    S = config.n_simulations
    tracer.count("traversal.mc_lane_walks", n_rows * S * forest.n_trees)
    chunk_rows = min(n_rows, max(1, MAX_LANES // S))
    tracer.high("traversal.lane_matrix_mb", chunk_rows * S * n_features * 8 / 1e6)


def _count_lane_walks(tracer, args, kwargs, result):
    count_mc(tracer, *args[:2], args[3])


def _count_exact(tracer, args, kwargs, result):
    tracer.count("traversal.exact_rows")


# (module, attribute, span name, counter): the cross-module calls made
# inside fairtree.cli and fairtree.bench that the benchmark cannot wrap
# from outside any other way.
PATCHES = (
    ("fairtree.cli", "load_dataset", "data.load", _count_rows),
    ("fairtree.cli", "train_forest", "tree.fit", None),
    ("fairtree.cli", "predict_fair_batch", "traversal.mc", _count_lane_walks),
    ("fairtree.cli", "full_report", "metrics.report", None),
    ("fairtree.bench", "load_dataset", "data.load", _count_rows),
    ("fairtree.bench", "train_forest", "tree.fit", None),
    ("fairtree.bench", "forest_votes_batch", "tree.votes", None),
    ("fairtree.bench", "predict_forest_batch", "tree.votes", None),
    ("fairtree.bench", "fit_threshold_policy", "threshold.fit", None),
    ("fairtree.bench", "apply_threshold_policy", "threshold.apply", None),
    ("fairtree.bench", "predict_fair_batch", "traversal.mc", _count_lane_walks),
    ("fairtree.bench", "exact_path_distribution", "traversal.exact", _count_exact),
    ("fairtree.bench", "full_report", "metrics.report", None),
    # called by the CLI through the module attribute
    ("fairtree.bench", "run_experiment", "bench.run", None),
    ("fairtree.bench", "sweep_alpha", "bench.run", None),
    ("fairtree.bench", "emit_report", "bench.emit", None),
    ("fairtree.bench", "emit_sweep", "bench.emit", None),
    ("fairtree.charts", "emit_charts", "charts.emit", None),
    ("fairtree.model_io", "save_model", "model_io.dumps", None),
    ("fairtree.model_io", "load_model", "model_io.loads", None),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the calls listed in PATCHES through spans while active."""
    if not tracer.enabled:
        yield
        return
    saved = []
    try:
        for module_name, attr, span_name, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced(tracer, original, span_name, counter))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
