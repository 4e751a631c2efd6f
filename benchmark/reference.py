"""A fixed reference loop that measures how fast the machine runs right now.

The 2-core machines this benchmark runs on share their cores with other
tenants. The same work runs up to twice as fast in bursts of a few seconds,
and the typical speed shifts by a quarter or more over tens of minutes, so
that two sets of runs made an hour apart disagree. ``Meter`` runs the
reference loop just before and just after each timed sample; the loop's
time over ``REFERENCE_S`` is the machine's slowdown at that moment, and the
sample divided by the slowdown is the time the same work would take on a
machine where the loop takes ``REFERENCE_S``.

The loop calls no fairtree code, so a change to the package moves the
benchmark's figures and not the loop. It does, on a small scale, the two
kinds of work the package does: an interpreted walk of rows down a tree
held in Python lists, and a vectorised walk of many lanes down the same
tree with numpy gathers, as the batch traversal kernel does.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

# median time of one reference() call on the machine the benchmark was
# written on (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4)
REFERENCE_S = 0.0115
# reference() calls on each side of a timed sample; their median counts
REFERENCE_CALLS = 3

_DEPTH = 10
_ROWS = 120
_LANES = 40_000
_FEATURES = 8


def _build():
    rng = np.random.default_rng(20250115)
    n_inner = 2**_DEPTH - 1
    n_nodes = 2 * n_inner + 1
    feature = np.full(n_nodes, -1, dtype=np.int64)
    feature[:n_inner] = rng.integers(0, _FEATURES, n_inner)
    threshold = np.zeros(n_nodes)
    threshold[:n_inner] = rng.random(n_inner)
    left = np.zeros(n_nodes, dtype=np.int64)
    right = np.zeros(n_nodes, dtype=np.int64)
    left[:n_inner] = 2 * np.arange(n_inner) + 1
    right[:n_inner] = 2 * np.arange(n_inner) + 2
    X = rng.random((_LANES, _FEATURES))
    return feature, threshold, left, right, X


_FEATURE, _THRESHOLD, _LEFT, _RIGHT, _X = _build()
_TREE_LISTS = (_FEATURE.tolist(), _THRESHOLD.tolist(), _LEFT.tolist(), _RIGHT.tolist())
_ROW_LISTS = _X[:_ROWS].tolist()
_LANE_IDX = np.arange(_LANES)


def reference() -> float:
    """Run the reference loop once; returns its wall time in seconds."""
    start = time.perf_counter()
    feature, threshold, left, right = _TREE_LISTS
    for _ in range(16):
        for row in _ROW_LISTS:
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
    node = np.zeros(_LANES, dtype=np.int64)
    for _ in range(_DEPTH):
        go_left = _X[_LANE_IDX, _FEATURE[node]] <= _THRESHOLD[node]
        node = np.where(go_left, _LEFT[node], _RIGHT[node])
    return time.perf_counter() - start


class Meter:
    """Times samples and calibrates them by the slowdown around each.

    Disabled, it times without running the reference loop (slowdown 1)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.slowdowns = []

    def slowdown(self) -> float:
        if not self.enabled:
            return 1.0
        return statistics.median(reference() for _ in range(REFERENCE_CALLS)) / REFERENCE_S

    @contextlib.contextmanager
    def sample(self):
        """``with meter.sample() as t:`` times the block; afterwards
        ``t.seconds`` is its calibrated time and ``t.raw`` the measured one."""
        t = _Sample()
        before = self.slowdown()
        start = time.perf_counter()
        yield t
        t.raw = time.perf_counter() - start
        t.slowdown = (before + self.slowdown()) / 2
        t.seconds = t.raw / t.slowdown
        if self.enabled:
            self.slowdowns.append(t.slowdown)


class _Sample:
    raw = seconds = slowdown = None
