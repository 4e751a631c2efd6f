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

Batch prediction walks a whole forest at once. Every (row, simulation,
tree) triple is a lane; ``tree.walk_lanes`` moves a batch of lanes one
level per step over the forest's own joined node arrays, reading each
lane's feature value straight from its row, and drops lanes from the
working set as they reach a leaf. Deterministic votes are that
walk from every (row, tree) root. Until it first flips, a simulation
follows its (row, tree) pair's deterministic path, with the same flip
chance at each node as every other simulation, so Monte Carlo prediction
runs in three phases that change no draw and no comparison:

1. each pair walks its deterministic path once, recording the steps whose
   flip chance (``_flip_chance``) is above 0;
2. each simulation draws a uniform at those steps only and keeps its
   first flip (``_first_flips``);
3. only the lanes that flipped walk on from the flip child, with the
   Monte Carlo flip step (``_flip_step``), which draws a uniform only
   where the chance is above 0; every other lane ends at its pair's
   deterministic leaf.

Calls with fewer than ``MIN_SHARED_LANES`` lanes skip phases 1 and 2 and
walk every lane from its root with the flip step. ``max_lanes`` bounds the
lanes of a chunk (whole rows, or whole simulations of one row), the steps
phase 1 records per chunk and the uniforms phase 2 draws at a time, so
transient memory does not grow with the row count or ``n_simulations``.

All randomness comes from counter-based streams keyed by
(seed, stream_id, simulation, tree), so results are independent of
evaluation order, batching and chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ConfigError, EnumerationLimitError
from .tree import (
    MAX_LANES,
    MIN_SHARED_LANES,
    DecisionTree,
    Forest,
    _check_matrix,
    _check_sample,
    walk_lanes,
)

VOTE_MAJORITY = "majority_vote"
VOTE_MEAN = "mean_distribution"
MAX_ENUMERATION_DEPTH = 12  # exact enumeration walks up to 2 ** 12 paths


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
    p_max, alpha = config.p_max, config.alpha
    scaled = model.scale > 0.0
    safe_scale = np.where(scaled, model.scale, 1.0)
    # unscaled nodes flip at p_max exactly at the threshold and never
    # elsewhere; uniform-distance nodes always flip at p_max
    uniform = model.uniform_distance
    special = ~scaled | uniform
    majority = model.majority.ravel()

    def chance(node, feat, x, threshold, go_left):
        d = np.abs(x - threshold)
        p = np.maximum(p_max - d / safe_scale[node], 0.0)
        s = special[node].nonzero()[0]
        if s.size:
            p[s] = np.where(uniform[node[s]] | (d[s] == 0.0), p_max, 0.0)
        # the fairness boost: protected split, unprivileged sample, and the
        # deterministic child's majority unfavorable
        t = (feat == spec.protected_feature).nonzero()[0]
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
            u = _rng.uniforms_at_array(keys[lane[hit]], forest.depth[node[hit]])
            go_left[hit] ^= u < p[hit]

    return flip


def _record_step(chance, steps):
    """A walk_lanes step that flips nothing and appends, to steps, the
    (lane, node, chance, go_left) arrays of each step's lanes whose chance
    is above 0."""

    def record(lane, node, feat, x, threshold, go_left):
        p = chance(node, feat, x, threshold, go_left)
        hit = (p > 0.0).nonzero()[0]
        if hit.size:
            steps.append((lane[hit], node[hit], p[hit], go_left[hit]))

    return record


def _first_flips(forest: Forest, steps, keys, budget: int):
    """Phase 2 of the shared walk: the lanes that flip, and the child each
    one flips to. steps holds a walk's (pair, node, chance, go_left) steps
    with a chance above 0, in walk order, so by depth within each pair;
    keys[pair, s] is the stream of simulation s of the pair. Each
    simulation draws only at those steps and flips first at the first draw
    below the chance. Lane pair * n_sims + s is simulation s of the pair.
    Steps are drawn in slices of at most budget draws."""
    n_sims = keys.shape[1]
    pair, node, p, go_left = (np.concatenate(a) for a in zip(*steps))
    flip_child = forest.child.ravel()[2 * node + go_left]
    flipped = np.zeros(keys.size, dtype=bool)
    lanes, children = [], []
    per_slice = max(1, budget // n_sims)
    for lo in range(0, pair.size, per_slice):
        at = slice(lo, lo + per_slice)
        u = _rng.uniforms_at_array(keys[pair[at]], forest.depth[node[at], None])
        step, sim = np.nonzero(u < p[at, None])  # ordered by step
        lane, first = np.unique(pair[at][step] * n_sims + sim, return_index=True)
        new = ~flipped[lane]
        lane, step = lane[new], step[first[new]]
        flipped[lane] = True
        lanes.append(lane)
        children.append(flip_child[at][step])
    return np.concatenate(lanes), np.concatenate(children)


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
    sample = _check_sample(sample, forest.trees[0].n_features)
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

    The (row, simulation, tree) lanes are walked in chunks of whole rows,
    or of whole simulations of one row when a row has more than max_lanes
    lanes. A chunk holds at most max_lanes lanes, and its rows' paths at
    most max_lanes levels, but never less than one simulation of one row;
    phase 2 draws at most max_lanes uniforms at a time, or one step's.
    Results do not depend on max_lanes."""
    if aggregation not in (VOTE_MAJORITY, VOTE_MEAN):
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    X = _check_matrix(X, forest.trees[0].n_features)
    n = X.shape[0]
    if stream_ids is None:
        stream_ids = np.arange(n)
    stream_ids = np.asarray(stream_ids, dtype=np.uint64)
    if stream_ids.shape != (n,):
        raise ValueError("stream_ids must have one entry per sample")
    S, T = config.n_simulations, forest.n_trees
    chance = _flip_chance(forest, spec, config)
    shared = n * S * T >= MIN_SHARED_LANES
    sims_per_chunk = min(S, max(1, max_lanes // T))
    # a chunk's lanes, and the steps its phase 1 records (at most one per
    # level of each pair's path), stay within max_lanes
    depth = max(tree.max_depth for tree in forest.trees)
    rows_per_chunk = max(1, max_lanes // (T * max(sims_per_chunk, depth)))
    tree_words = np.arange(T, dtype=np.uint64)
    counts = np.zeros(n, dtype=np.int64)
    for r0 in range(0, n, rows_per_chunk):
        rows = np.arange(r0, min(n, r0 + rows_per_chunk))
        # (row, tree) pair j is tree j % T for row rows[j // T]
        pair_root = np.tile(forest.root, rows.size)
        pair_x = np.repeat(rows * X.shape[1], T)
        steps = []
        if shared:
            # phase 1: each pair's deterministic path, and its steps that
            # may flip; until its first flip a simulation follows it
            pair_leaf = walk_lanes(forest, X, pair_root, pair_x, _record_step(chance, steps))
        else:
            pair_leaf = np.zeros(pair_root.size, dtype=np.int8)
        for s0 in range(0, S, sims_per_chunk):
            sims = np.arange(s0, min(S, s0 + sims_per_chunk), dtype=np.uint64)
            # lane pair * len(sims) + s - s0 is simulation s of the pair; a
            # lane that never leaves the shared path ends at the pair's leaf
            leaves = np.repeat(pair_leaf, sims.size)
            if steps or not shared:  # else no step of the chunk may flip
                # the stream of simulation s of (row, tree t) is keyed
                # (seed, stream id, s, t)
                prefix = _rng.stream_key_array(config.seed, stream_ids[rows, None], sims)
                keys = _rng.finalize_array(prefix[:, None, :] ^ tree_words[:, None])
                keys = keys.reshape(pair_root.size, sims.size)
                if shared:
                    # phase 2: the lanes that leave the shared path, and where
                    lane, start = _first_flips(forest, steps, keys, max_lanes)
                else:
                    lane = np.arange(keys.size)
                    start = np.repeat(pair_root, sims.size)
                # phase 3: those lanes walk on alone, drawing their own flips
                leaves[lane] = walk_lanes(forest, X, start, pair_x[lane // sims.size],
                                          _flip_step(forest, chance, keys.ravel()[lane]))
            votes = leaves.reshape(rows.size, T, sims.size).sum(axis=1)
            if aggregation == VOTE_MAJORITY:
                votes = 2 * votes > T
            counts[rows] += votes.sum(axis=1)
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
    """Closed-form traversal distribution by enumerating every root-leaf
    path of a tree at most MAX_ENUMERATION_DEPTH deep; the verification
    oracle for the Monte Carlo estimate. The flip chances are the Monte
    Carlo kernel's, from one call over the tree's internal nodes."""
    sample = _check_sample(sample, tree.n_features)
    if tree.max_depth > MAX_ENUMERATION_DEPTH:
        raise EnumerationLimitError(
            f"enumeration limit exceeded: tree depth {tree.max_depth} > {MAX_ENUMERATION_DEPTH}")
    internal = (tree.feature >= 0).nonzero()[0]
    feat = tree.feature[internal]
    x = sample[feat]
    threshold = tree.threshold[internal]
    go_left = x <= threshold
    chance = _flip_chance(tree, spec, config)
    # each internal node's flip chance, and 1 where its deterministic
    # child is the right one
    p_flip, right = np.zeros(tree.feature.size), np.zeros(tree.feature.size, dtype=np.int8)
    p_flip[internal] = chance(internal, feat, x, threshold, go_left)
    right[internal] = ~go_left
    feature, child, leaf_class = tree.feature, tree.child, tree.leaf_class
    probs = [0.0, 0.0]

    def walk(node, prob):
        if feature.item(node) < 0:
            probs[leaf_class.item(node)] += prob
            return
        p, r = p_flip.item(node), right.item(node)
        if prob * (1.0 - p) > 0.0:
            walk(child.item(node, r), prob * (1.0 - p))
        if prob * p > 0.0:
            walk(child.item(node, 1 - r), prob * p)

    walk(0, 1.0)
    return PredictionDistribution(probs=tuple(probs), n_simulations_used=0)
