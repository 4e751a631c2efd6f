"""Exact fairness-adjusted inference over whole forests.

The pair masses (q0, q1) of every (row, tree) pair come from the walks Monte
Carlo draws from (``traversal._mass_chunks``): the frontier of
``traversal._pair_masses`` (a flip-chance call a level) or for one row of a
small forest the row walk of ``traversal._row_masses`` (a node's chance when it
visits the node). Every row gets its masses: a row alone fits a budget of the
forest's leaf count. A pair's branches go down the forest one level per step
and split into mass * (1 - p) at the deterministic child and mass * p at the
flip child. The summation order: a level holds the deterministic children of
the level above, then its flip children, each in parent order, and a pair's
class masses are its leaves' masses added one at a time, level by level and in
that order within a level. Simulations draw from independent streams per tree,
so a simulation's majority vote is Bernoulli(Q), Q the Poisson-binomial chance
that more than half of the trees vote 1.
"""

from __future__ import annotations

import numpy as np

from .traversal import (VOTE_MAJORITY, VOTE_MEAN, FairnessSpec, TraversalConfig,
                        _check_aggregation, _mass_chunks)
from .tree import MAX_LANES, Forest, _check_matrix


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

    Rows go in the chunks of traversal._mass_chunks with a budget of
    MAX_LANES live branches a level, or the forest's leaf count for a row
    alone if that is more. Results do not depend on the chunks."""
    _check_aggregation(aggregation)
    X = _check_matrix(X, forest.n_features)
    q = np.empty((X.shape[0], forest.n_trees, 2))
    for r0, masses in _mass_chunks(forest, X, spec, config, MAX_LANES):
        q[r0:r0 + len(masses)] = masses
    probs = np.clip(q.mean(axis=1) if aggregation == VOTE_MEAN else _majority(q), 0.0, 1.0)
    return (probs[:, 1] > probs[:, 0]).astype(np.int64), probs
