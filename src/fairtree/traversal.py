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

Batch prediction walks a whole forest at once. Every (row, simulation, tree)
triple is a lane; ``tree.walk_lanes`` moves a batch of lanes one level per
step over the forest's own joined node arrays, reading each lane's feature
value straight from its row, and drops lanes from the working set as they
reach a leaf. Deterministic votes are that walk from every (row, tree) root.
The lanes at one node of one (row, tree) pair take the same steps, at the same
flip chances, until they flip, so Monte Carlo prediction goes in rounds of
segments, a segment being such a (pair, node) and its lanes. A round walks
each segment once, recording its steps whose flip chance (``_flip_chance``) is
above 0; segment by segment, each lane draws at those steps in depth order and
keeps its first flip (``_first_flips``), or else ends at the segment's leaf.
Round 1's segments are the pairs at their roots; a lane's stream key is
derived whenever it draws, so a lane holds only its leaf byte, and the lanes
that flipped go on as int32 ids, grouped by (pair, flip child) into the next
round's segments. Lanes that share too little walk on alone with the flip step
(``_flip_step``), as do all lanes of a call with fewer than
``MIN_SHARED_LANES``. All randomness comes from counter-based streams keyed by
(seed, stream_id, simulation, tree), and a draw keeps its stream, index (the
node's depth) and comparison, so results do not depend on evaluation order,
batching, chunks or rounds; ``max_lanes`` bounds memory.
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
# Lanes of a Monte Carlo chunk per max_lanes: a chunk peaks at 9-12 bytes a lane (tracemalloc,
# 100-row calls on 25 trees, 300-row calls on 10 census trees), a default one at about 3 MB.
CHUNK_LANES = 10


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


def _first_flips(forest: Forest, steps, keys, m: int, b: int, bounds, lane, budget: int):
    """Keys (pair * nodes + flip child) * 2**b + s of the first flips of a
    round's lanes, lane j * m + s drawing from keys(j, s). steps lists each
    walk step's (segment, node, chance, go_left) arrays of its steps with a
    chance above 0, and is emptied. Segment g's lanes are lane[bounds[g]:
    bounds[g + 1]], or in round 1 (lane None) pair g's. Segment by segment
    and lane by lane, a lane's draws follow its path, so its first flip is
    its first hit. The draws go in slices of whole segments, or of some
    lanes of one, of at most budget draws or one lane's."""
    seg, node, p, go_left = (np.concatenate(a) for a in zip(*steps))
    steps.clear()
    order = np.argsort(seg, kind="stable")  # by segment, then by depth
    seg, node, p, go_left = seg[order], node[order], p[order], go_left[order]
    depth, child = forest.depth[node], forest.child.ravel()[2 * node + go_left]
    k = np.bincount(seg, minlength=bounds.size - 1)
    g = k.nonzero()[0]  # the segments with steps: their steps, lanes, first position
    k, lo, n = k[g], bounds[g], bounds[g + 1] - bounds[g]
    run, end = np.cumsum(k) - k, np.cumsum(k * n)  # end[r]: the draws of segments 0 to r
    flips, r = [np.empty(0, dtype=np.int64)], 0
    while r < g.size:
        r1 = max(r + 1, int(np.searchsorted(end, end[r] - k[r] * n[r] + budget, "right")))
        width = max(1, budget // int(k[r])) if r1 == r + 1 else budget
        for c0 in range(0, int(n[r]), width):
            count = np.minimum(n[r:r1], c0 + width) - c0  # of each segment's lanes
            if lane is None:  # (simulation, step) draws, a row of its path's draws a lane
                per, s0, s1 = k[r:r1], run[r], run[r1 - 1] + k[r1 - 1]
                hit = _rng.below_array(keys(g[r:r1], slice(c0, c0 + count[0]))[
                    :, np.repeat(np.arange(per.size), per)], depth[s0:s1], p[s0:s1])
                s, step = np.divmod(hit.ravel().nonzero()[0], s1 - s0)
                step += s0
                ids = seg[step] * m + s + c0
            else:  # each lane's draws in a row
                ids = lane[np.repeat(lo[r:r1] + c0 - np.cumsum(count) + count, count)
                           + np.arange(count.sum())]
                per = np.repeat(k[r:r1], count)  # a lane's draws
                first = np.cumsum(per) - per
                step = np.arange(per.sum()) - np.repeat(first - np.repeat(run[r:r1], count), per)
                at = _rng.below_array(np.repeat(keys(*np.divmod(ids, m)), per), depth[step],
                                      p[step]).nonzero()[0]
                ids, step = ids[np.searchsorted(first, at, "right") - 1], step[at]
            new = np.ones(ids.size, dtype=bool)  # each lane's first hit
            new[1:] = ids[1:] != ids[:-1]
            pair, s = np.divmod(ids[new].astype(np.int64), m)
            flips.append(((pair * forest.feature.size + child[step[new]]) << b) + s)
        r = r1
    return np.concatenate(flips)


def _simulate(forest: Forest, X, chance, rows, stream_ids, sims, seed: int,
              shared: bool, max_lanes: int):
    """The leaf class of every lane of a chunk: lane j * m + s is simulation
    sims[s] of (row, tree) pair j. Rounds stop once fewer than
    MIN_SHARED_LANES lanes flip, or more than half of a round's, whose high
    chances would waste most of a segment's draws after its first flips."""
    T, m, nodes, b = forest.n_trees, sims.size, forest.feature.size, (sims.size - 1).bit_length()
    root, x_pos = np.tile(forest.root, rows.size), np.repeat(rows * X.shape[1], T)
    # lane j * m + s draws from the stream keyed (seed, stream id, sims[s], tree):
    # prefix[s, row] folded with the tree, derived again for each draw slice or walk
    prefix = _rng.stream_key_array(seed, stream_ids, sims[:, None])

    def keys(pair, s):
        row, tree = np.divmod(pair, T)
        return _rng.finalize_array(prefix[s, row] ^ tree.astype(np.uint64))

    # round 1's segment j is pair j, its lanes j * m to j * m + m - 1; later
    # rounds carry only their int32 lanes, segment g's lane[bounds[g]:bounds[g + 1]]
    lane, bounds, start, x = None, np.arange(root.size + 1) * m, root, x_pos
    if not shared:
        lane, start = np.arange(root.size * m), np.repeat(root, m)
        leaves = np.empty(lane.size, dtype=np.int8)
    while shared:
        steps = []
        seg_leaf = walk_lanes(forest, X, start, x, _record_step(chance, steps))
        if lane is None:
            leaves = np.repeat(seg_leaf, m)
        else:
            leaves[lane] = np.repeat(seg_leaf, np.diff(bounds))
        if not steps:
            return leaves
        n_round = leaves.size if lane is None else lane.size
        key = _first_flips(forest, steps, keys, m, b, bounds, lane, max_lanes // 2)
        key.sort()
        # decoded in place: lane takes the low bits, s, then adds pair * m
        lane = key.astype(np.int32 if leaves.size < 2**31 else np.int64)
        lane &= (1 << b) - 1
        key >>= b  # each flipped lane's segment, pair * nodes + flip child
        alone = key.size < MIN_SHARED_LANES or 2 * key.size > n_round
        if alone:
            start = key % nodes
        else:
            new = np.r_[True, key[1:] != key[:-1]].nonzero()[0]
            bounds = np.r_[new, key.size]
            pair, start = np.divmod(key[new], nodes)
            x = x_pos[pair]
        key //= nodes
        key *= m
        lane += key
        del key
        if alone:
            break
    walk = max(max_lanes, MIN_SHARED_LANES)  # lanes per walk
    for i in range(0, lane.size, walk):
        at = lane[i:i + walk]
        leaves[at] = walk_lanes(forest, X, start[i:i + walk], x_pos[at // m],
                                _flip_step(forest, chance, keys(*np.divmod(at, m))))
    return leaves


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

    The (row, simulation, tree) lanes go in chunks of whole rows, or of
    whole simulations of one row when a row has more than CHUNK_LANES *
    max_lanes lanes. A chunk holds at most CHUNK_LANES * max_lanes lanes,
    and its rows' paths at most as many levels, but never less than one
    simulation of one row. Its rounds draw in slices of at most max_lanes // 2
    draws, or one lane's; lanes that finish alone walk at most max(max_lanes,
    MIN_SHARED_LANES) at a time. Results do not depend on max_lanes."""
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
    shared = n * S * T >= MIN_SHARED_LANES
    sims_per_chunk = min(S, max(1, CHUNK_LANES * max_lanes // T))
    # a chunk's lanes, and the steps its round 1 records (at most one per
    # level of each pair's path), stay within CHUNK_LANES * max_lanes
    rows_per_chunk = max(1, CHUNK_LANES * max_lanes // (T * max(sims_per_chunk, forest.max_depth)))
    chunks = max(1, -(-n // rows_per_chunk))  # of even size
    rows_per_chunk = max(1, -(-n // chunks))
    counts = np.zeros(n, dtype=np.int64)
    for r0 in range(0, n, rows_per_chunk):
        rows = np.arange(r0, min(n, r0 + rows_per_chunk))
        for s0 in range(0, S, sims_per_chunk):
            sims = np.arange(s0, min(S, s0 + sims_per_chunk), dtype=np.uint64)
            leaves = _simulate(forest, X, chance, rows, stream_ids[rows], sims, config.seed,
                               shared, max_lanes)
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
