"""Exact fairness-adjusted inference over whole forests.

Every (row, tree) pair's branches, (pair, node, mass) entries, go down the
forest's joined node arrays one level per step, with one ``_flip_chance``
call a level; a branch splits into mass * (1 - p) at the deterministic
child and mass * p at the flip child, and one whose mass is not above 0 is
dropped. The summation order: a level holds the deterministic children of
the level above, then its flip children, each in parent order, and a
pair's class masses (q0, q1) are its leaves' masses added one at a time,
level by level and in that order within a level (``np.bincount``), as
``traversal.exact_path_distribution`` adds them. Simulations draw from
independent streams per tree, so a simulation's majority vote is
Bernoulli(Q), Q the Poisson-binomial chance that more than half of the
trees vote 1.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, EnumerationLimitError
from .traversal import VOTE_MAJORITY, VOTE_MEAN, FairnessSpec, TraversalConfig, _flip_chance
from .tree import MAX_LANES, Forest, _check_matrix


def _pair_masses(forest: Forest, X, chance, rows, limit: int):
    """The (q0, q1) of rows' (row, tree) pairs, shaped (rows, T, 2), and
    the count of their leaves; None once the live branches and the leaves
    held for the sum outnumber limit."""
    T = forest.n_trees
    values, child = X.ravel(), forest.child.ravel()
    x_pos = np.repeat(rows * X.shape[1], T)
    node = np.tile(forest.root, rows.size)
    if node.size > limit:
        return None
    pair = np.arange(node.size)
    mass = np.ones(node.size)
    leaves, held = [], 0
    while node.size:
        feat = forest.feature[node]
        done = feat < 0
        if done.any():
            at = done.nonzero()[0]
            leaves.append((2 * pair[at] + forest.leaf_class[node[at]], mass[at]))
            held += at.size
            at = (~done).nonzero()[0]
            node, feat, pair, mass = node[at], feat[at], pair[at], mass[at]
        x = values[x_pos[pair] + feat]
        threshold = forest.threshold[node]
        go_left = x <= threshold
        p = chance(node, feat, x, threshold, go_left)
        stay, flip = mass * (1.0 - p), mass * p
        s, f = (stay > 0.0).nonzero()[0], (flip > 0.0).nonzero()[0]
        if held + s.size + f.size > limit:
            return None
        node = np.concatenate([child[2 * node[s] + ~go_left[s]], child[2 * node[f] + go_left[f]]])
        pair, mass = np.concatenate([pair[s], pair[f]]), np.concatenate([stay[s], flip[f]])
    slot, mass = (np.concatenate(a) for a in zip(*leaves))
    return np.bincount(slot, mass, 2 * rows.size * T).reshape(rows.size, T, 2), held


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

    Rows go in chunks of at most MAX_LANES // T rows, the first of
    MAX_LANES // (the forest's leaf count), which fits: a pair holds at
    most one branch or leaf per leaf of its tree. A chunk whose branches
    and held leaves outnumber MAX_LANES is halved and redone; one whose
    leaves fill at most half of it lets the next double. A row alone past
    MAX_LANES raises EnumerationLimitError. Results do not depend on it."""
    if aggregation not in (VOTE_MAJORITY, VOTE_MEAN):
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    X = _check_matrix(X, forest.n_features)
    n, T = X.shape[0], forest.n_trees
    chance = _flip_chance(forest, spec, config)
    q = np.empty((n, T, 2))
    r0, size = 0, max(1, MAX_LANES // int((forest.feature < 0).sum()))
    while r0 < n:
        rows = np.arange(r0, min(n, r0 + size))
        got = _pair_masses(forest, X, chance, rows, MAX_LANES)
        if got is None and rows.size == 1:
            raise EnumerationLimitError(
                f"enumeration limit exceeded: row {r0} needs more than {MAX_LANES} branches")
        if got is None:
            while size >= rows.size:  # sizes that do not depend on n
                size //= 2
            continue
        q[r0:r0 + rows.size], held = got
        r0 += rows.size
        if 2 * held <= MAX_LANES:
            size = min(max(1, MAX_LANES // T), 2 * size)
    probs = np.clip(q.mean(axis=1) if aggregation == VOTE_MEAN else _majority(q), 0.0, 1.0)
    return (probs[:, 1] > probs[:, 0]).astype(np.int64), probs
