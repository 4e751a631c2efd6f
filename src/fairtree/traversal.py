"""Fairness-adjusted probabilistic tree traversal.

At every internal node a traversal may take the child opposite the
deterministic one. The flip chance decays linearly with the sample's
distance to the threshold, normalized by the node's stored scale, and is
boosted by ``alpha`` (capped at 0.5) at protected-attribute nodes whose
deterministic child routes an unprivileged sample toward the unfavorable
class. Monte Carlo aggregation over ``n_simulations`` traversals yields a
class distribution; ``exact_path_distribution`` computes the same
distribution in closed form for verification.

Batch prediction walks a whole forest at once. Every (row, simulation,
tree) triple is a lane; ``tree.walk_lanes`` moves all lanes of a chunk one
level per step over the forest's flat arrays (built once per tree and
joined once per forest), reading each lane's feature value straight from
its row, and drops lanes from the working set as they reach a leaf. The
Monte Carlo flip step (``_flip_step``) computes the flip chance of each
working lane and draws a uniform only where that chance is above 0;
deterministic votes are the same walk without it. Chunks hold whole
simulations, at most ``max_lanes`` lanes.

All randomness comes from counter-based streams keyed by
(seed, stream_id, simulation, tree), so results are independent of
evaluation order, batching and chunk size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ConfigError, EnumerationLimitError
from .tree import (
    MAX_LANES,
    DecisionTree,
    FlatForest,
    Forest,
    InternalNode,
    LeafNode,
    _check_matrix,
    _check_sample,
    flatten_forest,
    walk_lanes,
)

VOTE_MAJORITY = "majority_vote"
VOTE_MEAN = "mean_distribution"


@dataclass(frozen=True)
class FairnessSpec:
    """Which feature is protected and which outcomes count as favorable."""

    protected_feature: int
    privileged_value: float = 1.0
    unprivileged_value: float = 0.0
    favorable_class: int = 1
    unfavorable_class: int = 0

    def __post_init__(self):
        if self.protected_feature < 0:
            raise ConfigError("protected_feature must be a feature index")
        if self.favorable_class == self.unfavorable_class:
            raise ConfigError("favorable and unfavorable classes must differ")
        if {self.favorable_class, self.unfavorable_class} != {0, 1}:
            raise ConfigError("classes must be 0 and 1")
        if self.privileged_value == self.unprivileged_value:
            raise ConfigError("privileged and unprivileged values must differ")


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


def flip_probability(node: InternalNode, sample, config: TraversalConfig) -> float:
    """Distance-based flip chance, clamped to [0, p_max].

    Nodes flagged uniform_distance saw a single training distance (0/1
    encoded splits); distance carries no signal there and the flip chance
    saturates at p_max.
    """
    if node.uniform_distance:
        return config.p_max
    d = abs(float(sample[node.feature_index]) - node.threshold)
    if node.scale > 0.0:
        base = config.p_max - d / node.scale
    else:
        base = config.p_max if d == 0.0 else 0.0
    return min(max(base, 0.0), config.p_max)


def _deterministic_child_majority(node: InternalNode, sample) -> int:
    if float(sample[node.feature_index]) <= node.threshold:
        return node.left_majority
    return node.right_majority


def adjusted_flip_probability(
    base: float,
    node: InternalNode,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
) -> float:
    """Apply the fairness boost min(alpha * base, 0.5) when the node splits
    on the protected feature, the sample is unprivileged, and the
    deterministic child's subtree majority is the unfavorable class.
    With alpha = 0 the boost suppresses flips entirely at triggered nodes
    (0 * base == 0); elsewhere the base chance is returned unchanged."""
    if node.feature_index != spec.protected_feature:
        return base
    if float(sample[spec.protected_feature]) != spec.unprivileged_value:
        return base
    if _deterministic_child_majority(node, sample) != spec.unfavorable_class:
        return base
    return min(config.alpha * base, 0.5)


def traverse_once(
    tree: DecisionTree,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
    rng: "_rng.TraversalStream",
) -> int:
    """One probabilistic root-to-leaf walk; returns the leaf's class.

    Consumes one uniform per visited internal node. With p_max == 0 every
    flip chance is 0 and the walk equals the deterministic traversal for
    any stream state."""
    sample = _check_sample(sample, tree.n_features)
    node = tree.root
    while isinstance(node, InternalNode):
        base = flip_probability(node, sample, config)
        p_flip = adjusted_flip_probability(base, node, sample, spec, config)
        go_left = float(sample[node.feature_index]) <= node.threshold
        if rng.next_uniform() < p_flip:
            go_left = not go_left
        node = node.left if go_left else node.right
    return node.predicted_class


def _flip_step(forest: FlatForest, spec: FairnessSpec, config: TraversalConfig):
    """The Monte Carlo step of walk_lanes, called as flip(keys, step, ...).

    Flip chances follow the arithmetic of flip_probability and
    adjusted_flip_probability, lane by lane. A uniform is drawn only for
    lanes whose chance is above 0: u < 0 never holds, so the skipped draws
    change no result. Lane j's step-k uniform is draw k of stream keys[j],
    as in traverse_once."""
    p_max, alpha = config.p_max, config.alpha
    # unscaled nodes flip at p_max exactly at the threshold and never
    # elsewhere; uniform-distance nodes always flip at p_max
    special = forest.unscaled | forest.uniform_distance
    majority = forest.majority.ravel()

    def flip(keys, step, lane, node, feat, x, threshold, go_left):
        d = np.abs(x - threshold)
        p = np.maximum(p_max - d / forest.safe_scale[node], 0.0)
        s = np.flatnonzero(special[node])
        if s.size:
            p[s] = np.where(forest.uniform_distance[node[s]] | (d[s] == 0.0), p_max, 0.0)
        # the fairness boost: protected split, unprivileged sample, and the
        # deterministic child's majority unfavorable
        t = np.flatnonzero(feat == spec.protected_feature)
        if t.size:
            t = t[x[t] == spec.unprivileged_value]
            t = t[majority[2 * node[t] + ~go_left[t]] == spec.unfavorable_class]
            p[t] = np.minimum(alpha * p[t], 0.5)
        hit = np.flatnonzero(p > 0.0)
        if hit.size:
            go_left[hit] ^= _rng.uniforms_at_array(keys[lane[hit]], step) < p[hit]

    return flip


def simulate(
    tree: DecisionTree,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
    stream_id: int = 0,
) -> PredictionDistribution:
    """Monte Carlo class distribution over n_simulations traversals.

    Simulation s draws from the stream keyed by
    (seed, stream_id, s, tree=0), so repeated calls are reproducible and
    independent of other samples."""
    sample = _check_sample(sample, tree.n_features)
    _, probs = predict_fair_batch(
        Forest(trees=[tree], n_trees=1), sample.reshape(1, -1), spec, config,
        stream_ids=[stream_id],
    )
    return PredictionDistribution(
        probs=(float(probs[0, 0]), float(probs[0, 1])),
        n_simulations_used=config.n_simulations,
    )


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

    The (row, simulation, tree) lanes are walked in chunks of whole
    simulations, max_lanes // n_trees of them (at least one) per chunk;
    results do not depend on max_lanes."""
    if aggregation not in (VOTE_MAJORITY, VOTE_MEAN):
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    X = _check_matrix(X, forest.trees[0].n_features)
    n = X.shape[0]
    if stream_ids is None:
        stream_ids = np.arange(n)
    stream_ids = np.asarray(stream_ids, dtype=np.uint64)
    if stream_ids.shape != (n,):
        raise ValueError("stream_ids must have one entry per sample")
    flat = flatten_forest(forest)
    T = forest.n_trees
    tree_words = np.arange(T, dtype=np.uint64)
    # with p_max = 0 nothing flips and every simulation repeats the first
    flip = _flip_step(flat, spec, config) if config.p_max > 0.0 else None
    S = 1 if flip is None else config.n_simulations
    chunk = max(1, max_lanes // T) * T
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, n * S * T, chunk):
        hi = min(n * S * T, lo + chunk)
        group = np.arange(lo // T, hi // T)  # (row, simulation) pairs
        row = group // S
        chunk_flip = None
        if flip is not None:
            # the stream of lane (row, s, t) is keyed (seed, stream id, s, t)
            prefix = _rng.stream_key_array(config.seed, stream_ids[row], group % S)
            keys = _rng.finalize_array(np.repeat(prefix, T) ^ np.tile(tree_words, group.size))
            chunk_flip = functools.partial(flip, keys)
        votes = walk_lanes(flat, X, lo, hi, S * T, chunk_flip).reshape(-1, T).sum(axis=1)
        if aggregation == VOTE_MAJORITY:
            votes = 2 * votes > T
        counts[row[0]:row[-1] + 1] += np.bincount(row - row[0], weights=votes).astype(np.int64)
    counts *= config.n_simulations // S
    denom = config.n_simulations * (1 if aggregation == VOTE_MAJORITY else T)
    probs = np.stack([(denom - counts) / denom, counts / denom], axis=1)
    preds = (2 * counts > denom).astype(np.int64)
    return preds, probs


def exact_path_distribution(
    tree: DecisionTree,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
    max_enumeration_depth: int = 12,
) -> PredictionDistribution:
    """Closed-form traversal distribution by enumerating every root-leaf
    path; the verification oracle for the Monte Carlo estimate."""
    sample = _check_sample(sample, tree.n_features)
    if tree.depth() > max_enumeration_depth:
        raise EnumerationLimitError("enumeration limit exceeded")
    probs = [0.0, 0.0]

    def walk(node, prob, depth):
        if isinstance(node, LeafNode):
            probs[node.predicted_class] += prob
            return
        base = flip_probability(node, sample, config)
        p_flip = adjusted_flip_probability(base, node, sample, spec, config)
        det_left = float(sample[node.feature_index]) <= node.threshold
        det_child, flip_child = (
            (node.left, node.right) if det_left else (node.right, node.left)
        )
        if prob * (1.0 - p_flip) > 0.0:
            walk(det_child, prob * (1.0 - p_flip), depth + 1)
        if prob * p_flip > 0.0:
            walk(flip_child, prob * p_flip, depth + 1)

    walk(tree.root, 1.0, 0)
    return PredictionDistribution(probs=tuple(probs), n_simulations_used=0)
