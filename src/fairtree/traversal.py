"""Fairness-adjusted probabilistic tree traversal.

At every internal node a traversal may take the child opposite the
deterministic one. The flip chance decays linearly with the sample's
distance to the threshold, normalized by the node's stored scale, and is
boosted by ``alpha`` (capped at 0.5) at protected-attribute nodes whose
deterministic child routes an unprivileged sample toward the unfavorable
class. Monte Carlo aggregation over ``n_simulations`` traversals yields a
class distribution; ``exact_forest_batch`` computes its limit in closed
form, and ``exact_path_distribution`` that of one row down one tree, for
verification. Every entry point takes a Forest, and a tree is a one-tree
Forest (``train_tree``'s or ``forest.trees[t]``). The flip rule has a
vector form, ``_flip_chance``, and the row walk's scalar one, with the same
bits; ``tests/reference.py`` keeps a node-by-node copy as the tests' oracle.

Both engines take the class masses (q0, q1) of each (row, tree) pair from
one of two walks with the same bits. A pair's branches, (pair, node, mass)
entries, go down the trees one level per step; a branch splits into
mass * (1 - p) at the deterministic child and mass * p at the flip child,
and one whose mass is not above 0 is dropped. A level holds the
deterministic children of the level above, then its flip children, each in
parent order, and a pair's class masses are its leaves' masses added one at
a time as they are reached, in that order. The frontier (``_pair_masses``)
takes chunks of rows with one ``_flip_chance`` call a level, the row walk
(``_row_masses``) one row in Python: one-row calls on at most
``tree.MAX_LANES`` nodes (README, "Exact kernel", times both). Each
simulation walks each tree on its own stream, so a tree's vote in a
simulation is Bernoulli(q1): Monte Carlo (``predict_fair_batch``) lets tree
t vote 1 in simulation s when draw 0 of the stream keyed (seed, stream_id,
s, t) is below q1. So a simulation's majority vote is Bernoulli(Q), Q the
Poisson-binomial chance that more than half of the trees vote 1, which
``exact_forest_batch`` takes. The frontier's budget, ``tree.MAX_LANES``,
counts a level's live branches; a chunk holds them and its pairs' masses. A
pair's branches never merge, since a node has one path from its root, so a
row alone never has more live branches than the forest has leaves, and a
one-row chunk takes that as its budget: every row fits. Results do not
depend on evaluation order, batching or chunks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ConfigError
from .tree import MAX_LANES, Forest, _check_matrix, _check_sample

VOTE_MAJORITY = "majority_vote"
VOTE_MEAN = "mean_distribution"
# the kernels' operands: a Python number costs a ufunc call more than these
_INT64_0, _INT64_1, _DBL_MAX = np.int64(0), np.int64(1), np.finfo(np.float64).max
_ZERO, _HALF, _ONE = np.float64(0.0), np.float64(0.5), np.float64(1.0)


def _integer(value, low, high, message: str) -> int:
    """value as an int if it is an integer (not a bool) in [low, high), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not low <= value < high:
        raise ConfigError(message)
    return int(value)


def _real(value, low, high, message: str) -> float:
    """value as a float if it is a real number (not a bool) in [low, high], else ConfigError."""
    # a Python int is compared exactly: float() would overflow on one past the float range
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not low <= (value if type(value) is int else float(value)) <= high:
        raise ConfigError(message)
    return float(value)


@dataclass(frozen=True)
class FairnessSpec:
    """Which feature is protected. Its value 1 marks the privileged group
    and 0 the unprivileged one, and class 1 is the favorable outcome, as
    in the data loader, the metrics and the threshold policy."""

    protected_feature: int

    def __post_init__(self):
        object.__setattr__(self, "protected_feature", _integer(
            self.protected_feature, 0, math.inf, "protected_feature must be a feature index"))


@dataclass(frozen=True)
class TraversalConfig:
    """Monte Carlo traversal hyperparameters. The integers are stored as
    int and p_max and alpha as float (bools are rejected); seed is a
    stream-key word, so it lies in [0, 2**64)."""

    n_simulations: int = 100
    p_max: float = 0.1
    alpha: float = 9.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_simulations", _integer(
            self.n_simulations, 1, math.inf, "n_simulations must be a positive integer"))
        object.__setattr__(self, "p_max", _real(
            self.p_max, 0.0, 0.5, "p_max must lie in [0, 0.5]"))
        object.__setattr__(self, "alpha", _real(
            self.alpha, 0.0, float(_DBL_MAX), "alpha must be finite and >= 0"))
        object.__setattr__(self, "seed", _integer(
            self.seed, 0, 2**64, "seed must be an integer in [0, 2**64)"))


@dataclass(frozen=True)
class PredictionDistribution:
    """Per-class probabilities; n_simulations_used == 0 marks an exact result."""

    probs: tuple
    n_simulations_used: int

    def __post_init__(self):
        if len(self.probs) != 2 or any(
            not -1e-9 <= p <= 1.0 + 1e-9 for p in self.probs
        ):
            raise ValueError("probs must be two probabilities")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError("probs must sum to 1")

    @property
    def predicted_class(self) -> int:
        # argmax with ties toward class 0
        return 1 if self.probs[1] > self.probs[0] else 0


def _protected(model: Forest, spec: FairnessSpec) -> int:
    """spec's protected feature index, checked against model's features."""
    if (protected := spec.protected_feature) >= model.n_features:
        raise ValueError(f"protected_feature {protected}: model has {model.n_features} features")
    return protected


def _flip_chance(model: Forest, spec: FairnessSpec, config: TraversalConfig):
    """The flip chances of a batch of (node, sample) pairs of a forest's
    node arrays, called as chance(node, feat, x, threshold,
    go_left) with each pair's node, its split feature, the sample's value x
    of it, the node's threshold and the deterministic direction x <=
    threshold.

    The base chance is max(p_max - min(|x - threshold|, DBL_MAX) /
    flip_divisor, 0): p_max at uniform-distance nodes, and at unscaled ones
    p_max exactly at the threshold and 0 elsewhere. Callers (_pair_masses,
    tests) run it under np.errstate(over="ignore"), as its overflows to inf
    give the right chance. The fairness boost replaces it with min(alpha *
    base, 0.5) where the node splits on the protected feature, the sample
    is unprivileged and the deterministic child's majority is the
    unfavorable class; alpha = 0 suppresses flips there."""
    p_max, alpha, divisor = np.float64(config.p_max), np.float64(config.alpha), model.flip_divisor
    protected, majority = np.int64(_protected(model, spec)), model.majority.ravel()

    def chance(node, feat, x, threshold, go_left):
        d = np.minimum(np.abs(x - threshold), _DBL_MAX)
        p = np.maximum(p_max - d / divisor[node], _ZERO)
        # the fairness boost: protected split, unprivileged sample, and the
        # deterministic child's majority unfavorable
        t = (feat == protected).nonzero()[0]
        if t.size:
            t = t[x[t] == _ZERO]
            t = t[majority[2 * node[t] + ~go_left[t]] == 0]
            p[t] = np.minimum(alpha * p[t], _HALF)
        return p

    return chance


@np.errstate(over="ignore")  # see _flip_chance
def _pair_masses(forest: Forest, X, chance, rows, limit: int):
    """(q, peak) for rows: q the (q0, q1) of their (row, tree) pairs,
    shaped (rows, T, 2), and peak the most live branches of a level. None
    once one level's live branches outnumber limit.

    Only live branches count against limit: each level's reached leaves
    are added into q at once, one at a time in level order (np.add.at)."""
    T = forest.n_trees
    slots = 2 * rows.size * T
    values, child, column = X.ravel(), forest.child.ravel(), forest.column
    x_pos = np.repeat(rows * X.shape[1], 2 * T)
    node = np.tile(forest.root, rows.size)
    if node.size > limit:
        return None
    slot = np.arange(0, slots, 2)  # a branch's pair's q0 slot, 2 * pair; q1's is slot + 1
    mass, q, peak = np.ones(node.size), np.zeros(slots), node.size
    while node.size:
        feat = column.take(node)
        done = feat < _INT64_0
        if np.count_nonzero(done):
            at = done.nonzero()[0]
            np.add.at(q, slot[at] + forest.leaf_class[node[at]], mass[at])
            at = (~done).nonzero()[0]
            node, feat, slot, mass = node[at], feat[at], slot[at], mass[at]
            if not node.size:
                break
        x = values.take(x_pos.take(slot) + feat)
        threshold = forest.threshold.take(node)
        go_left = x <= threshold
        p = chance(node, feat, x, threshold, go_left)
        # masses are >= 0, so the branches above 0 are the nonzero ones
        stay, flip = mass * (_ONE - p), mass * p
        flips = flip > _ZERO
        n_stay, n_flip = np.count_nonzero(stay), np.count_nonzero(flips)
        if n_stay + n_flip > limit:
            return None
        peak = max(peak, n_stay + n_flip)
        # the deterministic children, then the flip ones (flat index ^ 1), in parent order
        s = stay.nonzero()[0] if n_stay < node.size else slice(None)
        to = (node << _INT64_1) + ~go_left
        if n_flip:
            f = flips.nonzero()[0]
            to = np.concatenate([to[s], to[f] ^ _INT64_1])
            slot, mass = np.concatenate([slot[s], slot[f]]), np.concatenate([stay[s], flip[f]])
        else:
            to, slot, mass = to[s], slot[s], stay[s]
        node = child[to]
    return q.reshape(rows.size, T, 2), peak


def _row_masses(model: Forest, roots, x, spec, config):
    """_pair_masses's q, bit for bit, for one row x down model's trees from
    roots, shaped (T, 2): a scalar walk in the frontier's order that takes
    each visited node's flip chance with _flip_chance's float operations in
    its order (Python floats overflow to inf as numpy's do, unwarned)."""
    protected, p_max, alpha = _protected(model, spec), float(config.p_max), float(config.alpha)
    feature, threshold, divisor, child, majority, leaf = model.row_views
    x, dbl_max = x.tolist(), float(_DBL_MAX)
    q, level = [0.0] * (2 * len(roots)), [(2 * t, r, 1.0) for t, r in enumerate(roots)]
    while level:
        stay, flip = [], []
        for slot, node, mass in level:
            if (f := feature[node]) < 0:
                q[slot + leaf[node]] += mass
                continue
            # d = |v - t| on the side the row goes; to the deterministic child's flat index
            if (v := x[f]) <= (t := threshold[node]):
                d, to = t - v, 2 * node
            else:
                d, to = v - t, 2 * node + 1
            if (p := p_max - (d if d <= dbl_max else dbl_max) / divisor[node]) < 0.0:
                p = 0.0
            if f == protected and v == 0.0 and majority[to] == 0:  # the fairness boost
                p = min(alpha * p, 0.5)
            if (m := mass * (1.0 - p)) > 0.0:
                stay.append((slot, child[to], m))
            if (m := mass * p) > 0.0:
                flip.append((slot, child[to ^ 1], m))
        level = stay + flip
    return np.array(q).reshape(-1, 2)


def _mass_chunks(forest: Forest, X, spec: FairnessSpec, config: TraversalConfig, limit: int):
    """(r0, q) for X's rows in consecutive runs from row r0, in row order: q
    the run's pair masses (_row_masses for X of one row and MAX_LANES nodes at most,
    else _pair_masses over _flip_chance). A chunk first holds limit // (the
    forest's leaf count) rows, which fits: a pair has at most one live
    branch per leaf of its tree. A chunk of rows whose live branches
    outnumber limit at some level is halved and redone; a row alone has the
    forest's leaf count as its budget if that is more, so it always fits.
    After a chunk, the next holds as many rows as would fill 2/3 of limit at
    the chunk's live peak per row, if that is more, but at most limit // T.
    A row's q does not depend on its chunk."""
    n, T = X.shape[0], forest.n_trees
    if n == 1 and forest.feature.size <= MAX_LANES:
        yield 0, _row_masses(forest, forest.root.tolist(), X[0], spec, config)[None]
        return
    chance = _flip_chance(forest, spec, config)
    r0, size = 0, max(1, limit // forest.n_leaves)
    while r0 < n:
        rows = np.arange(r0, min(n, r0 + size))
        got = _pair_masses(forest, X, chance, rows,
                           limit if rows.size > 1 else max(limit, forest.n_leaves))
        if got is None:
            while size >= rows.size:  # sizes that do not depend on n
                size //= 2
            continue
        q, peak = got
        yield r0, q
        r0 += rows.size
        size = min(max(1, limit // T), max(size, 2 * rows.size * limit // (3 * peak)))


def _check_aggregation(aggregation: str) -> None:
    if aggregation not in (VOTE_MAJORITY, VOTE_MEAN):
        raise ConfigError(f"unknown aggregation {aggregation!r}")


def _stream_ids(stream_ids, n: int) -> np.ndarray:
    """stream_ids as n uint64 stream words, once they are checked."""
    stream_ids = np.asarray(stream_ids)
    if stream_ids.shape != (n,):
        raise ValueError("stream_ids must have one entry per sample")
    if n and (stream_ids.dtype.kind not in "iu" or stream_ids.min() < 0):
        raise ValueError("stream_ids must be non-negative integers")
    return stream_ids.astype(np.uint64)


def _vote_counts(forest: Forest, X, spec: FairnessSpec, config: TraversalConfig, keys,
                 aggregation: str, max_lanes: int):
    """(counts, denom) for X's checked rows, keys[i] row i's (seed, stream
    id) key: counts[i] the simulations (majority_vote) or the trees'
    simulation votes (mean_distribution) for class 1 out of denom."""
    S, T = config.n_simulations, forest.n_trees
    sims, trees = np.arange(S, dtype=np.uint64), np.arange(T, dtype=np.uint64)[:, None]
    block_sims = min(S, max(1, max_lanes // T))
    block_rows = max(1, max_lanes // (T * block_sims))
    counts = np.zeros(X.shape[0], dtype=np.int64)
    # a block's keys, then its draw words, in one buffer for the call: arrays
    # freed block by block can let malloc return the heap top to the system,
    # and every block then faults its pages in again (about 8x the faults of
    # a 100-row call on a 25-tree forest, in 260 kB blocks)
    block = np.empty((min(block_rows, len(X)), T, block_sims), dtype=np.uint64)
    for r0, q in _mass_chunks(forest, X, spec, config, MAX_LANES):
        for a in range(0, len(q), block_rows):
            b = min(len(q), a + block_rows)
            at, q1 = slice(r0 + a, r0 + b), q[a:b, :, 1, None]
            for s0 in range(0, S, block_sims):
                s1 = min(S, s0 + block_sims)
                # votes[row, tree, simulation]: draw 0 of stream (seed, stream id,
                # simulation, tree) below q1
                words = _rng.fold_array(keys[at, None, None], sims[s0:s1], trees,
                                        out=block[:b - a, :, :s1 - s0])
                votes = _rng.below_array(words, 0, q1, out=words)
                if aggregation == VOTE_MAJORITY:  # the simulations class 1 wins
                    votes = votes.sum(axis=1) > T // 2
                # one row's count by the cheaper call, without an axis
                counts[at] += (np.count_nonzero(votes) if b - a == 1 else
                               np.count_nonzero(votes.reshape(b - a, -1), axis=1))
    return counts, S * (1 if aggregation == VOTE_MAJORITY else T)


def predict_fair(
    forest: Forest,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
    stream_id: int = 0,
    aggregation: str = VOTE_MAJORITY,
):
    """Fairness-adjusted forest prediction for one sample: predict_fair_batch
    on it alone with stream_id, the same checks and bits.

    Each simulation traverses every tree probabilistically and takes the
    majority vote (ties to class 0); the distribution aggregates the
    simulation votes. Returns (predicted class, distribution). The row's
    stream key is folded once, in Python, and the sample is checked once."""
    sample = _check_sample(sample, forest.n_features)
    _check_aggregation(aggregation)
    if type(stream_id) is not int or not 0 <= stream_id < 2**64:  # predict_fair_batch's check
        stream_id = int(_stream_ids([stream_id], 1)[0])
    key = np.array([_rng.stream_key(config.seed, stream_id)], dtype=np.uint64)
    counts, denom = _vote_counts(forest, sample[None], spec, config, key, aggregation, MAX_LANES)
    count = int(counts[0])
    return int(2 * count > denom), PredictionDistribution(
        probs=((denom - count) / denom, count / denom), n_simulations_used=config.n_simulations)


def predict_fair_batch(
    forest: Forest,
    X,
    spec: FairnessSpec,
    config: TraversalConfig,
    stream_ids=None,
    aggregation: str = VOTE_MAJORITY,
    max_lanes: int = MAX_LANES,
):
    """Vectorized predict_fair over a sample matrix.

    stream_ids defaults to the row index; pass stable ids (e.g. dataset row
    numbers) to make results invariant to batch composition. Returns
    (predictions, probs) with probs[i] = (P(class 0), P(class 1)).

    Rows go in the chunks of exact_forest_batch, whose pair masses q give
    each (row, tree) pair's vote chance q1. Tree t votes 1 in simulation s
    of a row when draw 0 of stream (seed, stream id, s, t) is below q1. A
    row's (seed, stream id) key is folded once a call. The (row,
    simulation, tree) lanes go in blocks of whole simulations, at most
    max_lanes lanes but never less than one simulation of one row.
    Results do not depend on max_lanes."""
    _check_aggregation(aggregation)
    X = _check_matrix(X, forest.n_features)
    n = X.shape[0]
    keys = _rng.stream_key_array(
        config.seed, _stream_ids(np.arange(n) if stream_ids is None else stream_ids, n))
    counts, denom = _vote_counts(forest, X, spec, config, keys, aggregation, max_lanes)
    probs = np.empty((n, 2))
    np.divide(denom - counts, denom, out=probs[:, 0])
    np.divide(counts, denom, out=probs[:, 1])
    return (2 * counts > denom).astype(np.int64), probs


def _majority(q):
    """(P0, P1) of a majority vote, ties to 0, of trees voting 1 with the
    chances q[:, t, 1] and 0 with q[:, t, 0]: a DP over the count of 1
    votes."""
    n, T, _ = q.shape
    count = np.zeros((n, T + 1))
    count[:, 0] = 1.0
    for t in range(T):
        count[:, 1:t + 2] = count[:, 1:t + 2] * q[:, t, :1] + count[:, :t + 1] * q[:, t, 1:]
        count[:, 0] *= q[:, t, 0]
    return np.add.reduceat(count, [0, T // 2 + 1], axis=1)


def exact_forest_batch(forest: Forest, X, spec: FairnessSpec, config: TraversalConfig,
                       aggregation: str = VOTE_MAJORITY):
    """The exact limit of predict_fair_batch as n_simulations grows:
    (predictions, probs) with probs[i] = (P(class 0), P(class 1)), the
    prediction 1 where P(class 1) > P(class 0). One tree gives its (q0,
    q1), mean_distribution the trees' mean and majority_vote (P0, P1).
    Rows go in the chunks of _mass_chunks; results do not depend on them."""
    _check_aggregation(aggregation)
    X = _check_matrix(X, forest.n_features)
    q = np.empty((X.shape[0], forest.n_trees, 2))
    for r0, masses in _mass_chunks(forest, X, spec, config, MAX_LANES):
        q[r0:r0 + len(masses)] = masses
    probs = np.clip(q.mean(axis=1) if aggregation == VOTE_MEAN else _majority(q), 0.0, 1.0)
    return (probs[:, 1] > probs[:, 0]).astype(np.int64), probs


def exact_path_distribution(tree: Forest, sample, spec: FairnessSpec,
                            config: TraversalConfig) -> PredictionDistribution:
    """Closed-form traversal distribution, the verification oracle for the
    Monte Carlo estimate: the row walk (_row_masses) down a one-tree Forest
    (anything else: TypeError), so it equals exact_forest_batch on it bit
    for bit."""
    if not (isinstance(tree, Forest) and tree.n_trees == 1):
        raise TypeError("exact_path_distribution takes a one-tree Forest; "
                        "use exact_forest_batch for a forest of more trees")
    sample = _check_sample(sample, tree.n_features)
    q = _row_masses(tree, [0], sample, spec, config)
    return PredictionDistribution(probs=tuple(min(p, 1.0) for p in q[0].tolist()),
                                  n_simulations_used=0)
