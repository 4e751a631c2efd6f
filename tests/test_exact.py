import math
import tracemalloc

import numpy as np
import pytest

from fairtree import traversal
from fairtree.errors import ConfigError
from fairtree.traversal import (VOTE_MAJORITY, VOTE_MEAN, exact_forest_batch,
                                exact_path_distribution, predict_fair_batch)
from fairtree.tree import MAX_LANES, Forest

from conftest import chain_tree, full_uniform_tree, internal, leaf, make_tree, random_tree
from reference import reference_exact
from test_traversal import (
    EDGE_CONFIGS,
    SPEC,
    binomial_tail,
    config,
    edge_case_forest,
    edge_case_samples,
    majority_probability,
)


def protected_rows(rng, n, n_features=3):
    X = rng.uniform(-5, 5, size=(n, n_features))
    X[:, 0] = rng.integers(0, 2, n)
    return X


def test_one_tree_equals_exact_path_distribution_bit_for_bit(rng):
    # the level-order sums, leaf by leaf, of the kernel, the per-row API
    # and the scalar oracle, on scale-0 nodes, rows at a threshold, p_max
    # 0.5 and alpha 0, and on a complete tree whose every branch survives
    cases = []
    for _ in range(30):
        forest = edge_case_forest(rng, 1)
        X = edge_case_samples(rng, forest, 5)
        cases += [(forest, X, config(p_max=p, alpha=a)) for p, a in EDGE_CONFIGS]
    full = Forest(trees=[full_uniform_tree(rng, 9)], n_trees=1)
    cases.append((full, protected_rows(rng, 20), config(p_max=0.5, alpha=9.0)))
    for forest, X, cfg in cases:
        want = [exact_path_distribution(forest.trees[0], x, SPEC, cfg) for x in X]
        assert [d.probs for d in want] == [
            reference_exact(forest.trees[0], x, SPEC, cfg).probs for x in X]
        for aggregation in (VOTE_MAJORITY, VOTE_MEAN):
            preds, probs = exact_forest_batch(forest, X, SPEC, cfg, aggregation)
            assert [tuple(p) for p in probs] == [d.probs for d in want]
            assert preds.tolist() == [d.predicted_class for d in want]
            assert preds.dtype == np.int64


def test_chains_of_any_depth_agree_between_the_exact_paths():
    # no depth limit: a chain of 1,100 levels at p_max 0.5 outlives the
    # smallest float, so its deepest branches underflow to 0 and drop out
    X = np.array([[0.0, 0.0], [1.0, -1.0], [0.0, 2.0]])
    cfg = config(p_max=0.5)
    for depth in (0, 1, 63, 64, 65, 129, 1000, 1100):
        tree = chain_tree(depth)
        want = [exact_path_distribution(tree, x, SPEC, cfg).probs for x in X]
        assert want == [reference_exact(tree, x, SPEC, cfg).probs for x in X]
        _, probs = exact_forest_batch(Forest(trees=[tree], n_trees=1), X, SPEC, cfg)
        assert [tuple(p) for p in probs] == want
        np.testing.assert_allclose(probs[:, 0], 0.5**depth, rtol=1e-12)
    forest = Forest(trees=[chain_tree(64), chain_tree(1100), make_tree(leaf(0, 1), 2)],
                    n_trees=3)
    _, probs = exact_forest_batch(forest, X, SPEC, cfg, VOTE_MEAN)
    np.testing.assert_allclose(probs[:, 0], 0.5**64 / 3, rtol=1e-12)


def test_forest_combines_per_tree_distributions(rng):
    for T in (2, 3, 4):
        forest = Forest(trees=[random_tree(rng, n_features=3, max_depth=5) for _ in range(T)],
                        n_trees=T)
        X = protected_rows(rng, 30)
        cfg = config(p_max=0.3, alpha=4.0)
        q = np.array([[exact_path_distribution(t, x, SPEC, cfg).probs[1] for t in forest.trees]
                      for x in X])
        _, majority = exact_forest_batch(forest, X, SPEC, cfg, VOTE_MAJORITY)
        _, mean = exact_forest_batch(forest, X, SPEC, cfg, VOTE_MEAN)
        np.testing.assert_allclose(majority[:, 1], [majority_probability(r) for r in q],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(mean[:, 1], q.mean(axis=1), rtol=0, atol=1e-15)
        assert (majority >= 0.0).all() and (majority <= 1.0).all()


def test_forest_monte_carlo_within_binomial_bound_of_exact(rng):
    # each row's Monte Carlo favourable count is Binomial(S, Q), Q being the
    # kernel's majority chance: no row may sit in a tail below 1e-9, and the
    # summed deviation must stay within 6 sigma
    S, T, n = 400, 5, 200
    forest = Forest(trees=[random_tree(rng, n_features=3, max_depth=6) for _ in range(T)],
                    n_trees=T)
    X = protected_rows(rng, n)
    cfg = config(n_simulations=S, p_max=0.3, alpha=4.0, seed=5)
    _, exact = exact_forest_batch(forest, X, SPEC, cfg)
    _, mc = predict_fair_batch(forest, X, SPEC, cfg)
    k, q = np.rint(mc[:, 1] * S).astype(int), exact[:, 1]
    assert ((q > 0.01) & (q < 0.99)).sum() >= n // 4  # not one-hot
    assert min(binomial_tail(int(ki), S, float(qi)) for ki, qi in zip(k, q)) >= 1e-9
    assert abs(np.sum(k - S * q)) <= 6 * math.sqrt(np.sum(S * q * (1 - q)))


def test_results_do_not_depend_on_lane_budget_or_row_order(rng, monkeypatch):
    # a row has at most 3 * 16 + 32 = 80 leaves; budgets of 80 and 97
    # run the rows one or two at a time, the default all at once
    forest = Forest(trees=[random_tree(rng, n_features=3, max_depth=4) for _ in range(3)]
                    + [full_uniform_tree(rng, 5)], n_trees=4)
    X = protected_rows(rng, 120)
    cfg = config(p_max=0.3, alpha=9.0)
    order = rng.permutation(len(X))
    for aggregation in (VOTE_MAJORITY, VOTE_MEAN):
        preds, probs = exact_forest_batch(forest, X, SPEC, cfg, aggregation)
        for lanes in (80, 97, 500):
            monkeypatch.setattr(traversal, "MAX_LANES", lanes)
            got = exact_forest_batch(forest, X, SPEC, cfg, aggregation)
            np.testing.assert_array_equal(got[0], preds)
            np.testing.assert_array_equal(got[1], probs)
        monkeypatch.setattr(traversal, "MAX_LANES", MAX_LANES)
        got = exact_forest_batch(forest, X[order], SPEC, cfg, aggregation)
        np.testing.assert_array_equal(got[1], probs[order])


def test_chunks_halve_when_doubling_reaches_wide_rows(rng, monkeypatch):
    # a complete depth-6 tree splitting on feature 1 at 0 with scale 1:
    # a row at 0 flips everywhere (64 leaves), a row at 100 nowhere (one).
    # A budget of 128 starts at 2-row chunks, grows them over narrow
    # rows and must halve them again at the wide ones
    def grow(depth):
        if depth == 0:
            return leaf(*rng.integers(0, 5, 2))
        return internal(1, 0.0, 1.0, grow(depth - 1), grow(depth - 1))

    forest = Forest(trees=[make_tree(grow(6), n_features=3)], n_trees=1)
    X = protected_rows(rng, 100)
    X[:, 1] = np.where(np.arange(100) % 25 < 20, 100.0, rng.uniform(-0.05, 0.05, 100))
    cfg = config(p_max=0.3, alpha=9.0)
    preds, probs = exact_forest_batch(forest, X, SPEC, cfg)
    attempts = []
    pair_masses = traversal._pair_masses

    def counted(*args):
        got = pair_masses(*args)
        attempts.append(got is None)
        return got

    monkeypatch.setattr(traversal, "_pair_masses", counted)
    monkeypatch.setattr(traversal, "MAX_LANES", 128)
    got = exact_forest_batch(forest, X, SPEC, cfg)
    np.testing.assert_array_equal(got[0], preds)
    np.testing.assert_array_equal(got[1], probs)
    assert attempts[0] is False and sum(attempts) >= 4


def test_transient_memory_does_not_grow_with_rows():
    # every row holds 4 * 64 leaves: 200 rows make 2 chunks of the default
    # budget and 2,000 rows 16
    rng = np.random.default_rng(6)
    T = 4
    forest = Forest(trees=[full_uniform_tree(rng, 6) for _ in range(T)], n_trees=T)
    X = protected_rows(rng, 2000)
    cfg = config(p_max=0.1)
    peaks = []
    for n in (200, 2000):
        exact_forest_batch(forest, X[:n], SPEC, cfg)
        tracemalloc.start()
        try:
            exact_forest_batch(forest, X[:n], SPEC, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the per-tree masses, the vote-count DP and the outputs grow by at
    # most 64 bytes per (row, tree) pair
    assert peaks[1] <= 1.05 * peaks[0] + 64 * T * 1800


def test_a_row_outgrowing_the_budget_gets_exact_masses(rng, monkeypatch):
    # a complete uniform-distance tree of depth 12: 4,096 leaves a row, all
    # live at once. Below that budget each row runs alone, on a budget of
    # the forest's leaf count, and its probabilities keep their bits
    forest = Forest(trees=[full_uniform_tree(rng, 12)], n_trees=1)
    X = protected_rows(rng, 3)
    want = [reference_exact(forest.trees[0], x, SPEC, config()).probs for x in X]
    calls, pair_masses = [], traversal._pair_masses

    def counted(forest, X, chance, rows, limit):
        calls.append((rows.size, limit))
        return pair_masses(forest, X, chance, rows, limit)

    monkeypatch.setattr(traversal, "_pair_masses", counted)
    for budget, chunks in ((100, [(1, 4096)] * 3), (4095, [(1, 4096)] * 3),
                           (4096, [(1, 4096)] * 3), (MAX_LANES, [(3, MAX_LANES)])):
        calls.clear()
        monkeypatch.setattr(traversal, "MAX_LANES", budget)
        _, probs = exact_forest_batch(forest, X, SPEC, config())
        assert [tuple(p) for p in probs] == want, budget
        assert calls == chunks, budget


def test_both_exact_paths_agree_at_every_budget(rng, monkeypatch):
    # each row needs as many branches as its widest level holds alive
    # plus the leaves reached above it; a complete uniform-distance tree
    # of depth d needs 2^d. At every budget, below and above that, the
    # per-row API, the kernel on each row alone (the row walk, or the
    # frontier once the budget is below the node count) and the kernel on
    # all rows give the scalar enumeration's probabilities
    cfg = config(p_max=0.5, alpha=9.0)
    cases = [(full_uniform_tree(rng, d), protected_rows(rng, 2)) for d in (0, 3, 6)]
    cases += [(random_tree(rng, n_features=3, max_depth=6, p_leaf=0.15, p_uniform=0.3),
               protected_rows(rng, 4)) for _ in range(6)]
    for tree, X in cases:
        forest = Forest(trees=[tree], n_trees=1)
        want = [reference_exact(tree, x, SPEC, cfg).probs for x in X]
        assert [exact_path_distribution(tree, x, SPEC, cfg).probs for x in X] == want
        for budget in range(1, 2 ** tree.max_depth + 2):
            monkeypatch.setattr(traversal, "MAX_LANES", budget)
            alone = [tuple(exact_forest_batch(forest, X[i:i + 1], SPEC, cfg)[1][0])
                     for i in range(len(X))]
            assert alone == want, budget
            assert [tuple(p) for p in exact_forest_batch(forest, X, SPEC, cfg)[1]] == want, budget


def test_exact_probabilities_never_exceed_one(rng):
    # the consistency test's trees, rows and settings: a sum of leaf
    # masses may round past 1, and both paths clamp it
    for _ in range(1000):
        tree = random_tree(rng, max_depth=4)
        sample = rng.uniform(-6, 6, tree.n_features)
        if rng.random() < 0.5:
            sample[0] = float(rng.integers(0, 2))
        cfg = config(p_max=float(rng.uniform(0.0, 0.5)),
                     alpha=float(rng.choice([0.5, 1.0, 4.0, 9.0])))
        probs = exact_path_distribution(tree, sample, SPEC, cfg).probs
        assert 0.0 <= min(probs) and max(probs) <= 1.0
        for aggregation in (VOTE_MAJORITY, VOTE_MEAN):
            _, batch = exact_forest_batch(Forest(trees=[tree], n_trees=1), sample[None],
                                          SPEC, cfg, aggregation)
            assert tuple(batch[0]) == probs


def test_empty_input_and_unknown_aggregation(rng):
    forest = edge_case_forest(rng, 3)
    preds, probs = exact_forest_batch(forest, np.empty((0, 3)), SPEC, config())
    assert preds.shape == (0,) and preds.dtype == np.int64
    assert probs.shape == (0, 2) and probs.dtype == np.float64
    with pytest.raises(ConfigError, match="unknown aggregation"):
        exact_forest_batch(forest, np.zeros((1, 3)), SPEC, config(), "median")
