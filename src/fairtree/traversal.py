"""Fairness-adjusted probabilistic tree traversal.

At every internal node a traversal may take the child opposite the
deterministic one. The flip chance decays linearly with the sample's
distance to the threshold, normalized by the node's stored scale, and is
boosted by ``alpha`` (capped at 0.5) at protected-attribute nodes whose
deterministic child routes an unprivileged sample toward the unfavorable
class. Monte Carlo aggregation over ``n_simulations`` traversals yields a
class distribution; ``exact_path_distribution`` computes the same
distribution in closed form for verification. Both read their flip
chances from one function, ``_flip_chance``; ``tests/reference.py`` keeps
a scalar, node-by-node copy of the rule as the tests' oracle.

One kernel computes both engines: the exact frontier (``_pair_masses``).
Every (row, tree) pair's branches, (pair, node, mass) entries, go down the
forest's joined node arrays one level per step with one ``_flip_chance``
call a level; a branch splits into mass * (1 - p) at the deterministic
child and mass * p at the flip child, and one whose mass is not above 0 is
dropped. A pair's leaves sum to its class masses (q0, q1), which
``fairtree.exact`` aggregates. Each simulation walks each tree on its own
stream, so a tree's vote in a simulation is Bernoulli(q1): Monte Carlo
(``predict_fair_batch``) takes the pairs' masses and lets tree t vote 1 in
simulation s when draw 0 of the stream keyed (seed, stream_id, s, t) is
below q1. The frontier's budget, ``tree.MAX_LANES``, counts a level's
live branches; reached leaves are held apart and added in as they pile
up. A row whose own reached leaves and live branches outnumber it at some
level walks its lanes instead (``tree.walk_lanes`` with ``_flip_step``),
drawing at a node of depth k draw k of the same streams. Which way a row
goes depends on the row alone, so results do not depend on evaluation
order, batching or chunks; ``max_lanes`` bounds memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ConfigError, EnumerationLimitError
from .tree import (
    MAX_LANES,
    DecisionTree,
    Forest,
    _check_matrix,
    _check_sample,
    walk_lanes,
)

VOTE_MAJORITY = "majority_vote"
VOTE_MEAN = "mean_distribution"


@dataclass(frozen=True)
class FairnessSpec:
    """Which feature is protected. Its value 1 marks the privileged group
    and 0 the unprivileged one, and class 1 is the favorable outcome, as
    in the data loader, the metrics and the threshold policy."""

    protected_feature: int

    def __post_init__(self):
        if self.protected_feature < 0:
            raise ConfigError("protected_feature must be a feature index")


@dataclass(frozen=True)
class TraversalConfig:
    """Monte Carlo traversal hyperparameters."""

    n_simulations: int = 100
    p_max: float = 0.1
    alpha: float = 9.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_simulations, int) or self.n_simulations < 1:
            raise ConfigError("n_simulations must be a positive integer")
        if not 0.0 <= self.p_max <= 0.5:
            raise ConfigError("p_max must lie in [0, 0.5]")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ConfigError("alpha must be finite and >= 0")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")


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


def _flip_chance(model: Forest | DecisionTree, spec: FairnessSpec, config: TraversalConfig):
    """The flip chances of a batch of (node, sample) pairs of a forest's or
    a tree's node arrays, called as chance(node, feat, x, threshold,
    go_left) with each pair's node, its split feature, the sample's value x
    of it, the node's threshold and the deterministic direction x <=
    threshold.

    The base chance is p_max - |x - threshold| / scale, clamped to [0,
    p_max]. The fairness boost replaces it with min(alpha * base, 0.5)
    where the node splits on the protected feature, the sample is
    unprivileged and the deterministic child's majority is the
    unfavorable class; alpha = 0 suppresses flips there."""
    p_max, alpha, protected = config.p_max, config.alpha, spec.protected_feature
    if protected >= model.n_features:
        raise ValueError(f"protected_feature {protected}: model has {model.n_features} features")
    # unscaled nodes flip at p_max exactly at the threshold and never
    # elsewhere; uniform-distance nodes always flip at p_max
    safe_scale, fixed, uniform = model.safe_scale, model.fixed_chance, model.uniform_distance
    majority = model.majority.ravel()

    def chance(node, feat, x, threshold, go_left):
        d = np.abs(x - threshold)
        p = np.maximum(p_max - d / safe_scale[node], 0.0)
        s = fixed[node].nonzero()[0]
        if s.size:
            p[s] = np.where(uniform[node[s]] | (d[s] == 0.0), p_max, 0.0)
        # the fairness boost: protected split, unprivileged sample, and the
        # deterministic child's majority unfavorable
        t = (feat == protected).nonzero()[0]
        if t.size:
            t = t[x[t] == 0.0]
            t = t[majority[2 * node[t] + ~go_left[t]] == 0]
            p[t] = np.minimum(alpha * p[t], 0.5)
        return p

    return chance


def _flip_step(forest: Forest, chance, keys):
    """The Monte Carlo step of walk_lanes for lanes drawing from streams
    keys. A uniform is drawn only for lanes whose chance is above 0: u < 0
    never holds, so the skipped draws change no result. A lane at a node
    of depth k uses draw k of its stream."""

    def flip(lane, node, feat, x, threshold, go_left):
        p = chance(node, feat, x, threshold, go_left)
        hit = (p > 0.0).nonzero()[0]
        if hit.size:
            go_left[hit] ^= _rng.below_array(keys[lane[hit]], forest.depth[node[hit]], p[hit])

    return flip


def _add_leaves(q, leaves, slots):
    """q plus the masses of leaves, a list of (slot, mass) arrays, each
    added at its slot one at a time in list order: np.bincount into a new
    q (None), np.add.at into a given one. Both add in index order, so
    adding a list in parts gives one np.bincount's sums bit for bit."""
    slot, mass = (np.concatenate(a) for a in zip(*leaves))
    if q is None:
        return np.bincount(slot, mass, slots)
    np.add.at(q, slot, mass)
    return q


def _pair_masses(forest: Forest, X, chance, rows, limit: int):
    """(q, past, peak) for rows: q the (q0, q1) of their (row, tree)
    pairs, shaped (rows, T, 2); past None, or a mask of the rows whose own
    reached leaves and live branches outnumber limit at some level, whose
    branches are dropped there and whose q is not valid; peak the most
    live branches of a level. None once one level's live branches
    outnumber limit.

    Only live branches count against limit. Reached leaves are held in
    arrival order and added into q whenever more than limit are held.
    Rows are counted one by one only at levels where the chunk's reached
    leaves and live branches outnumber limit."""
    T = forest.n_trees
    slots = 2 * rows.size * T
    values, child = X.ravel(), forest.child.ravel()
    x_pos = np.repeat(rows * X.shape[1], T)
    node = np.tile(forest.root, rows.size)
    if node.size > limit:
        return None
    pair = np.arange(node.size)
    mass = np.ones(node.size)
    leaves, held, reached, peak = [], 0, 0, node.size
    # per_row: each row's reached leaves, counted from the first flush or
    # the first level past limit on
    q = per_row = past = None

    def held_rows():
        return np.bincount(np.concatenate([s for s, _ in leaves]) // (2 * T), minlength=rows.size)

    while node.size:
        feat = forest.feature[node]
        done = feat < 0
        if np.count_nonzero(done):
            at = done.nonzero()[0]
            leaves.append((2 * pair[at] + forest.leaf_class[node[at]], mass[at]))
            held += at.size
            reached += at.size
            if per_row is not None:
                per_row += np.bincount(pair[at] // T, minlength=rows.size)
            if held > limit:
                if per_row is None:
                    per_row = held_rows()
                q, leaves, held = _add_leaves(q, leaves, slots), [], 0
            at = (~done).nonzero()[0]
            node, feat, pair, mass = node[at], feat[at], pair[at], mass[at]
            if not node.size:
                break
        x = values[x_pos[pair] + feat]
        threshold = forest.threshold[node]
        go_left = x <= threshold
        p = chance(node, feat, x, threshold, go_left)
        # masses are >= 0, so the branches above 0 are the nonzero ones
        stay, flip = mass * (1.0 - p), mass * p
        n_stay, n_flip = np.count_nonzero(stay), np.count_nonzero(flip)
        if n_stay + n_flip > limit:
            return None
        peak = max(peak, n_stay + n_flip)
        if n_stay < node.size:
            s = stay.nonzero()[0]
            node_s, left_s, pair_s, stay = node[s], go_left[s], pair[s], stay[s]
        else:
            node_s, left_s, pair_s = node, go_left, pair
        det = child[2 * node_s + ~left_s]
        if n_flip:  # the flip children follow the deterministic ones
            f = flip.nonzero()[0]
            det = np.concatenate([det, child[2 * node[f] + go_left[f]]])
            pair_s, stay = np.concatenate([pair_s, pair[f]]), np.concatenate([stay, flip[f]])
        node, pair, mass = det, pair_s, stay
        if reached + node.size > limit:  # drop the rows past limit
            if per_row is None:
                per_row = held_rows()
            over = per_row + np.bincount(pair // T, minlength=rows.size) > limit
            if np.count_nonzero(over):
                at = (~over[pair // T]).nonzero()[0]
                node, pair, mass = node[at], pair[at], mass[at]
                reached -= int(per_row[over].sum())
                per_row[over] = 0
                past = over if past is None else past | over
    if leaves:  # a row is dropped only after it reached a leaf, so q is set
        q = _add_leaves(q, leaves, slots)
    return q.reshape(rows.size, T, 2), past, peak


def _mass_chunks(forest: Forest, X, chance, limit: int):
    """(rows, q) for X's rows in consecutive runs, in row order: q the
    rows' pair masses (_pair_masses), or None for a row alone whose own
    reached leaves and live branches outnumber limit at some level. A
    chunk first holds limit // (the forest's leaf count) rows, which fits:
    a pair has at most one live branch per leaf of its tree. A chunk whose
    live branches outnumber limit at some level is halved and redone.
    After one that fits, the next holds as many rows as would fill 2/3 of
    limit at the chunk's live peak per row, if that is more, but at most
    limit // T. A row's q does not depend on its chunk."""
    n, T = X.shape[0], forest.n_trees
    r0, size = 0, max(1, limit // int((forest.feature < 0).sum()))
    while r0 < n:
        rows = np.arange(r0, min(n, r0 + size))
        got = _pair_masses(forest, X, chance, rows, limit)
        if got is None and rows.size > 1:
            while size >= rows.size:  # sizes that do not depend on n
                size //= 2
            continue
        r0 += rows.size
        if got is None:
            yield rows, None
            continue
        q, past, peak = got
        start = 0
        for i in () if past is None else past.nonzero()[0]:
            if i > start:
                yield rows[start:i], q[start:i]
            yield rows[i:i + 1], None
            start = i + 1
        if start < rows.size:
            yield rows[start:], q[start:]
        size = min(max(1, limit // T), max(size, 2 * rows.size * limit // (3 * peak)))


def predict_fair(
    forest: Forest,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
    stream_id: int = 0,
    aggregation: str = VOTE_MAJORITY,
):
    """Fairness-adjusted forest prediction for one sample.

    Each simulation traverses every tree probabilistically and takes the
    majority vote (ties to class 0); the distribution aggregates the
    simulation votes. Returns (predicted class, distribution)."""
    sample = _check_sample(sample, forest.n_features)
    preds, probs = predict_fair_batch(
        forest, sample.reshape(1, -1), spec, config,
        stream_ids=[stream_id], aggregation=aggregation,
    )
    dist = PredictionDistribution(
        probs=(float(probs[0, 0]), float(probs[0, 1])),
        n_simulations_used=config.n_simulations,
    )
    return int(preds[0]), dist


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
    row whose own reached leaves and live branches outnumber MAX_LANES at
    some level walks its lanes instead, drawing at a node of depth k draw
    k of the same stream. The (row, simulation, tree) lanes go
    in blocks of whole simulations, at most max_lanes lanes but never less
    than one simulation of one row. Results do not depend on max_lanes."""
    if aggregation not in (VOTE_MAJORITY, VOTE_MEAN):
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    X = _check_matrix(X, forest.n_features)
    n = X.shape[0]
    if stream_ids is None:
        stream_ids = np.arange(n)
    stream_ids = np.asarray(stream_ids)
    if stream_ids.shape != (n,):
        raise ValueError("stream_ids must have one entry per sample")
    if n and (stream_ids.dtype.kind not in "iu" or stream_ids.min() < 0):
        raise ValueError("stream_ids must be non-negative integers")
    stream_ids = stream_ids.astype(np.uint64)
    S, T = config.n_simulations, forest.n_trees
    chance = _flip_chance(forest, spec, config)
    sims, trees = np.arange(S, dtype=np.uint64), np.arange(T, dtype=np.uint64)
    block_sims = min(S, max(1, max_lanes // T))
    block_rows = max(1, max_lanes // (T * block_sims))
    counts = np.zeros(n, dtype=np.int64)
    for rows, q in _mass_chunks(forest, X, chance, MAX_LANES):
        for r0 in range(0, rows.size, block_rows):
            at = rows[r0:r0 + block_rows]
            for s0 in range(0, S, block_sims):
                # keys[row, tree, simulation]: stream (seed, stream id, simulation, tree)
                keys = _rng.stream_key_array(config.seed, stream_ids[at, None, None],
                                             sims[s0:s0 + block_sims], trees[:, None])
                if q is None:  # one row, past the budget
                    votes = walk_lanes(forest, X, np.repeat(forest.root, keys.shape[2]),
                                       np.full(keys.size, at[0] * X.shape[1]),
                                       _flip_step(forest, chance, keys.ravel())).reshape(keys.shape)
                else:
                    votes = _rng.below_array(keys, 0, q[r0:r0 + at.size, :, 1, None])
                votes = votes.sum(axis=1)  # each simulation's votes for 1
                if aggregation == VOTE_MAJORITY:
                    votes = 2 * votes > T
                counts[at] += votes.sum(axis=1)
    denom = S * (1 if aggregation == VOTE_MAJORITY else T)
    probs = np.stack([(denom - counts) / denom, counts / denom], axis=1)
    preds = (2 * counts > denom).astype(np.int64)
    return preds, probs


def exact_path_distribution(
    tree: DecisionTree,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
) -> PredictionDistribution:
    """Closed-form traversal distribution, the verification oracle for the
    Monte Carlo estimate: every root-leaf path enumerated level by level
    and summed in fairtree.exact's order, so it equals exact_forest_batch
    on one tree bit for bit, and under its limit. The flip chances are the
    Monte Carlo kernel's, from one call over the tree's internal nodes."""
    sample = _check_sample(sample, tree.n_features)
    internal = (tree.feature >= 0).nonzero()[0]
    feat = tree.feature[internal]
    x, threshold = sample[feat], tree.threshold[internal]
    go_left = x <= threshold
    # each internal node's flip chance, and 1 where its deterministic child is the right one
    p_flip, right = np.zeros(tree.feature.size), np.zeros(tree.feature.size, dtype=np.int8)
    p_flip[internal] = _flip_chance(tree, spec, config)(internal, feat, x, threshold, go_left)
    right[internal] = ~go_left
    feature, child, leaf_class = tree.feature, tree.child, tree.leaf_class
    probs, level, held = [0.0, 0.0], [(0, 1.0)], 0
    while level:
        if held + len(level) > MAX_LANES:
            raise EnumerationLimitError(
                f"enumeration limit exceeded: the sample needs more than {MAX_LANES} branches")
        stay, flip = [], []
        for node, mass in level:
            if feature.item(node) < 0:
                probs[leaf_class.item(node)] += mass
                held += 1
                continue
            p, r = p_flip.item(node), right.item(node)
            if mass * (1.0 - p) > 0.0:
                stay.append((child.item(node, r), mass * (1.0 - p)))
            if mass * p > 0.0:
                flip.append((child.item(node, 1 - r), mass * p))
        level = stay + flip
    return PredictionDistribution(probs=tuple(min(p, 1.0) for p in probs), n_simulations_used=0)
