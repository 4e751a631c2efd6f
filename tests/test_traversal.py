import math
import tracemalloc

import numpy as np
import pytest

from fairtree import traversal
from fairtree.errors import ConfigError, EnumerationLimitError
from fairtree.exact import exact_forest_batch
from fairtree.traversal import (
    VOTE_MAJORITY,
    VOTE_MEAN,
    FairnessSpec,
    TraversalConfig,
    exact_path_distribution,
    predict_fair,
    predict_fair_batch,
)
from fairtree.tree import (
    MAX_LANES,
    Forest,
    flatten_tree,
    forest_votes_batch,
    walk_lanes,
    predict_deterministic,
    predict_forest_batch,
)

from conftest import depth1_tree, full_uniform_tree, internal, leaf, make_tree, random_tree
from reference import (
    TraversalStream,
    adjusted_flip_probability,
    flip_probability,
    reference_exact,
    reference_monte_carlo,
    traverse_once,
)

SPEC = FairnessSpec(protected_feature=0)


def config(**kwargs):
    defaults = dict(n_simulations=100, p_max=0.1, alpha=9.0, seed=7)
    defaults.update(kwargs)
    return TraversalConfig(**defaults)


def simulate_tree(tree, sample, spec, cfg, stream_id=0):
    """The Monte Carlo distribution of one tree: predict_fair on a
    one-tree forest, whose simulation s draws from the stream keyed by
    (seed, stream_id, s, tree 0)."""
    return predict_fair(Forest(trees=[tree], n_trees=1), sample, spec, cfg, stream_id=stream_id)[1]


# --- flip_probability -------------------------------------------------------

# each test's tree is one split (node 0) over two leaves

def test_flip_probability_saturates_at_zero_distance():
    tree = make_tree(internal(0, 5.0, 4.0, leaf(1, 0), leaf(0, 1)))
    assert flip_probability(tree, 0, [5.0], config()) == 0.1


def test_flip_probability_is_zero_at_max_distance():
    tree = make_tree(internal(0, 5.0, 4.0, leaf(1, 0), leaf(0, 1)))
    assert flip_probability(tree, 0, [1.0], config()) == 0.0
    assert flip_probability(tree, 0, [9.0], config()) == 0.0


def test_flip_probability_linear_in_scaled_distance():
    tree = make_tree(internal(0, 0.0, 1.0, leaf(1, 0), leaf(0, 1)))
    assert flip_probability(tree, 0, [0.05], config()) == pytest.approx(0.05, abs=1e-15)


def test_flip_probability_clamps_far_samples_to_zero():
    tree = make_tree(internal(0, 0.0, 1.0, leaf(1, 0), leaf(0, 1)))
    assert flip_probability(tree, 0, [100.0], config()) == 0.0


def test_uniform_distance_node_always_flips_at_p_max():
    tree = make_tree(internal(0, 0.5, 0.5, leaf(1, 0), leaf(0, 1), uniform=True))
    for value in (0.0, 1.0, 7.0):
        assert flip_probability(tree, 0, [value], config()) == 0.1


# --- adjusted_flip_probability ----------------------------------------------

def protected_tree(lmaj=0, rmaj=1):
    return make_tree(
        internal(0, 0.5, 0.5, leaf(5, 0), leaf(0, 5), lmaj=lmaj, rmaj=rmaj, uniform=True))


def test_boost_applies_and_caps_at_half():
    tree = protected_tree()
    # unprivileged sample routed toward the unfavorable-majority child
    assert adjusted_flip_probability(0.1, tree, 0, [0.0], SPEC, config(alpha=9.0)) == 0.5
    assert adjusted_flip_probability(0.1, tree, 0, [0.0], SPEC, config(alpha=2.0)) == pytest.approx(0.2)


def test_privileged_samples_are_not_boosted():
    tree = protected_tree()
    assert adjusted_flip_probability(0.1, tree, 0, [1.0], SPEC, config()) == 0.1


def test_favorable_routing_is_not_boosted():
    tree = protected_tree(lmaj=1, rmaj=0)  # deterministic child majority favorable
    assert adjusted_flip_probability(0.1, tree, 0, [0.0], SPEC, config()) == 0.1


def test_non_protected_nodes_are_not_boosted():
    tree = make_tree(internal(1, 3.0, 2.0, leaf(5, 0), leaf(0, 5)), n_features=2)
    spec = FairnessSpec(protected_feature=0)
    assert adjusted_flip_probability(0.07, tree, 0, [0.0, 3.0], spec, config()) == 0.07


def test_alpha_below_one_attenuates_and_zero_suppresses():
    tree = protected_tree()
    assert adjusted_flip_probability(0.1, tree, 0, [0.0], SPEC, config(alpha=0.5)) == pytest.approx(0.05)
    assert adjusted_flip_probability(0.1, tree, 0, [0.0], SPEC, config(alpha=0.0)) == 0.0


def test_adjusted_bounds_and_trigger_equality_property(rng):
    cfg_pool = [config(alpha=a, p_max=p) for a in (0.0, 0.5, 1.0, 3.0, 9.0, 40.0)
                for p in (0.0, 0.05, 0.1, 0.5)]
    for _ in range(2000):
        node = internal(
            feature=int(rng.integers(0, 3)),
            threshold=float(rng.uniform(-4, 4)),
            scale=float(rng.uniform(0.1, 5)),
            left=leaf(1, 0),
            right=leaf(0, 1),
            lmaj=int(rng.integers(0, 2)),
            rmaj=int(rng.integers(0, 2)),
            uniform=bool(rng.random() < 0.2),
        )
        tree = make_tree(node, n_features=3)
        sample = rng.uniform(-4, 4, size=3)
        if rng.random() < 0.5:
            sample[0] = float(rng.integers(0, 2))
        cfg = cfg_pool[int(rng.integers(0, len(cfg_pool)))]
        base = flip_probability(tree, 0, sample, cfg)
        adj = adjusted_flip_probability(base, tree, 0, sample, SPEC, cfg)
        assert 0.0 <= adj <= 0.5
        assert 0.0 <= base <= cfg.p_max
        if cfg.alpha >= 1.0:
            assert adj >= base - 1e-15
        triggered = (
            node["feature_index"] == 0
            and sample[0] == 0.0
            and (node["left_majority"] if sample[0] <= node["threshold"]
                 else node["right_majority"]) == 0
        )
        if not triggered:
            assert adj == base


# --- traverse_once ----------------------------------------------------------

def test_zero_p_max_reduces_to_deterministic_traversal(rng):
    cfg = config(p_max=0.0, alpha=9.0)
    for i in range(30):
        tree = random_tree(rng)
        sample = rng.uniform(-6, 6, size=tree.n_features)
        expected = predict_deterministic(tree, sample)
        for s in range(5):
            stream = TraversalStream.derive(i, s)
            assert traverse_once(tree, sample, SPEC, cfg, stream) == expected


def test_leaf_only_tree_ignores_configuration():
    tree = make_tree(leaf(0, 3), n_features=2)
    stream = TraversalStream.derive(0, 0)
    assert traverse_once(tree, [9.9, -4.2], SPEC, config(p_max=0.5), stream) == 1


def test_at_threshold_flip_frequency_approaches_p_max():
    tree = depth1_tree()
    cfg = config(n_simulations=20_000, p_max=0.1, seed=5)
    dist = simulate_tree(tree, [5.0], SPEC, cfg)  # deterministic side is class 0
    assert dist.probs[1] == pytest.approx(0.1, abs=3 * np.sqrt(0.1 * 0.9 / 20_000))


# --- one-tree Monte Carlo -----------------------------------------------------

def test_simulate_counts_traverse_once_outcomes_exactly():
    # simulation s votes 1 when draw 0 of its stream is below the tree's
    # exact chance q1. On one split whose deterministic leaf is class 0,
    # q1 is the root's flip chance, so that vote is the walk's flip at the
    # root, which uses the same draw
    tree = depth1_tree()
    cfg = config(n_simulations=250, p_max=0.4, seed=11)
    dist = simulate_tree(tree, [4.9], SPEC, cfg, stream_id=6)
    count1 = sum(v for v, in reference_monte_carlo([tree], [4.9], SPEC, cfg, stream_id=6))
    assert dist.probs == ((250 - count1) / 250, count1 / 250)
    assert dist.n_simulations_used == 250
    outcomes = [
        traverse_once(tree, np.array([4.9]), SPEC, cfg,
                      TraversalStream.derive(cfg.seed, 6, s, 0))
        for s in range(cfg.n_simulations)
    ]
    assert sum(outcomes) == count1


def test_simulate_probs_sum_exactly_to_one(rng):
    for _ in range(20):
        tree = random_tree(rng)
        cfg = config(n_simulations=int(rng.integers(1, 400)), p_max=0.3)
        dist = simulate_tree(tree, rng.uniform(-5, 5, tree.n_features), SPEC, cfg)
        assert dist.probs[0] + dist.probs[1] == 1.0


def test_simulate_with_zero_p_max_is_one_hot(rng):
    tree = random_tree(rng)
    sample = rng.uniform(-5, 5, tree.n_features)
    dist = simulate_tree(tree, sample, SPEC, config(p_max=0.0, n_simulations=25))
    expected = predict_deterministic(tree, sample)
    assert dist.probs[expected] == 1.0 and dist.probs[1 - expected] == 0.0


def test_simulate_is_reproducible_and_seed_sensitive():
    tree = depth1_tree()
    a = simulate_tree(tree, [5.0], SPEC, config(seed=1, n_simulations=500))
    b = simulate_tree(tree, [5.0], SPEC, config(seed=1, n_simulations=500))
    c = simulate_tree(tree, [5.0], SPEC, config(seed=2, n_simulations=500))
    assert a == b
    assert a.probs != c.probs


# --- exact_path_distribution --------------------------------------------------

def test_exact_depth1_distribution():
    dist = exact_path_distribution(depth1_tree(), [5.0], SPEC, config())
    assert dist.probs == (0.9, 0.1)
    assert dist.n_simulations_used == 0


def test_exact_is_one_hot_when_p_max_zero(rng):
    tree = random_tree(rng)
    sample = rng.uniform(-5, 5, tree.n_features)
    dist = exact_path_distribution(tree, sample, SPEC, config(p_max=0.0))
    assert dist.probs[predict_deterministic(tree, sample)] == 1.0


def test_exact_depth2_matches_hand_enumeration():
    tree = make_tree(
        internal(
            0, 5.0, 10.0,
            internal(1, 2.0, 20.0, leaf(3, 0), leaf(0, 3)),
            internal(1, 8.0, 5.0, leaf(0, 3), leaf(3, 0), lmaj=1, rmaj=0),
        ),
        n_features=2,
    )
    sample = [4.5, 3.0]
    dist = exact_path_distribution(tree, sample, SPEC, config())
    # four root-to-leaf paths, probabilities written out by hand
    p_root = 0.1 - 0.5 / 10.0          # 0.05, deterministic side: left
    p_left = 0.1 - 1.0 / 20.0          # 0.05, deterministic side: right (leaf 1)
    p_right = 0.0                      # 0.1 - 5/5 clamps to 0, det side left (leaf 1)
    p1 = (1 - p_root) * (1 - p_left) + (1 - p_root) * 0.0 \
        + p_root * (1 - p_right)
    p0 = (1 - p_root) * p_left + p_root * p_right
    assert dist.probs[1] == pytest.approx(p1, abs=1e-12)
    assert dist.probs[0] == pytest.approx(p0, abs=1e-12)


def test_exact_applies_fairness_boost():
    tree = make_tree(
        internal(
            0, 0.5, 0.5,
            leaf(5, 0),
            internal(1, 2.0, 4.0, leaf(2, 0), leaf(0, 2)),
            lmaj=0, rmaj=1, uniform=True,
        ),
        n_features=2,
    )
    sample = [0.0, 2.0]  # unprivileged; inner node at threshold
    dist = exact_path_distribution(tree, sample, SPEC, config(alpha=9.0))
    # three paths: stay (0.5 -> leaf 0), flip+stay (0.5*0.9 -> leaf 0),
    # flip+flip (0.5*0.1 -> the only favorable leaf)
    assert dist.probs[1] == pytest.approx(0.5 * 0.1, abs=1e-12)
    assert dist.probs[0] == pytest.approx(0.5 + 0.5 * 0.9, abs=1e-12)
    assert adjusted_flip_probability(
        flip_probability(tree, 0, sample, config()), tree, 0, sample, SPEC, config()
    ) == 0.5


def test_enumeration_limit_is_enforced(monkeypatch):
    # no depth limit: a chain of 1,000 levels enumerates, and a row that
    # needs more branches than MAX_LANES raises; a complete
    # uniform-distance tree of depth 12 holds 4,096 leaves a row
    node = leaf(1, 0)
    for _ in range(1000):
        node = internal(0, 0.0, 1.0, node, leaf(0, 1))
    tree = make_tree(node)
    assert tree.max_depth == 1000
    dist = exact_path_distribution(tree, [0.0], SPEC, config())
    assert dist.probs[0] == pytest.approx(0.9**1000, rel=1e-12)
    tree = full_uniform_tree(np.random.default_rng(3), 12)
    monkeypatch.setattr(traversal, "MAX_LANES", 4095)
    with pytest.raises(EnumerationLimitError,
                       match=r"^enumeration limit exceeded: the sample needs more than 4095 "
                             r"branches$"):
        exact_path_distribution(tree, [0.0, 1.0, 2.0], SPEC, config())
    monkeypatch.setattr(traversal, "MAX_LANES", 4096)
    dist = exact_path_distribution(tree, [0.0, 1.0, 2.0], SPEC, config())
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-9)


def test_exact_equals_scalar_reference_bit_for_bit(rng):
    # the kernel's flip chances give the sums of the node-by-node scalar
    # enumeration exactly, on trees with unscaled, uniform-distance and
    # protected-feature splits, on rows set exactly at a threshold, and
    # on a tree that is one leaf
    trees = [make_tree(leaf(2, 3), n_features=3)] + [
        random_tree(rng, n_features=3, max_depth=int(rng.integers(1, 7)),
                    p_zero_scale=0.25, p_uniform=0.25)
        for _ in range(40)]
    assert any((t.scale[t.feature >= 0] == 0.0).any() for t in trees)
    assert any(t.uniform_distance[t.feature >= 0].any() for t in trees)
    assert any((t.feature == SPEC.protected_feature).any() for t in trees)
    compared = 0
    for tree in trees:
        forest = Forest(trees=[tree], n_trees=1)
        X = (edge_case_samples(rng, forest, 4) if tree.max_depth
             else rng.uniform(-5, 5, size=(4, 3)))
        for p_max in (0.0, 0.1, 0.5):
            for alpha in (0.0, 1.0, 9.0):
                cfg = config(p_max=p_max, alpha=alpha)
                for x in X:
                    got = exact_path_distribution(tree, x, SPEC, cfg)
                    want = reference_exact(tree, x, SPEC, cfg)
                    assert got.probs == want.probs, (p_max, alpha, x)
                    assert all(type(p) is float for p in got.probs)
                    compared += 1
    assert compared == 41 * 9 * 4


def test_monte_carlo_matches_exact_within_binomial_bound(rng):
    cfg = config(n_simulations=10_000, p_max=0.3, alpha=4.0, seed=3)
    for i in range(20):
        tree = random_tree(rng, max_depth=4)
        sample = rng.uniform(-6, 6, tree.n_features)
        if rng.random() < 0.5:
            sample[0] = float(rng.integers(0, 2))
        exact = exact_path_distribution(tree, sample, SPEC, cfg)
        mc = simulate_tree(tree, sample, SPEC, cfg, stream_id=i)
        p = exact.probs[1]
        bound = 3.0 * np.sqrt(max(p * (1 - p), 1e-12) / cfg.n_simulations) + 1e-9
        assert abs(mc.probs[1] - p) <= bound


def test_monte_carlo_consistency_rate_over_many_trials(rng):
    # the three-sigma bound may miss occasionally; the hit rate must stay
    # at or above 99% over a large trial count
    S = 10_000
    hits = 0
    n_trials = 1000
    for i in range(n_trials):
        tree = random_tree(rng, max_depth=4)
        sample = rng.uniform(-6, 6, tree.n_features)
        if rng.random() < 0.5:
            sample[0] = float(rng.integers(0, 2))
        cfg = config(
            n_simulations=S,
            p_max=float(rng.uniform(0.0, 0.5)),
            alpha=float(rng.choice([0.5, 1.0, 4.0, 9.0])),
            seed=i,
        )
        p = exact_path_distribution(tree, sample, SPEC, cfg).probs[1]
        mc = simulate_tree(tree, sample, SPEC, cfg, stream_id=i).probs[1]
        if abs(mc - p) <= 3.0 * np.sqrt(p * (1 - p) / S):
            hits += 1
    assert hits >= 990, f"{hits}/1000 trials inside the binomial bound"


# --- predict_fair -------------------------------------------------------------

def test_predict_fair_degenerates_to_deterministic(rng):
    trees = [random_tree(rng, n_features=3) for _ in range(5)]
    forest = Forest(trees=trees, n_trees=5)
    cfg = config(p_max=0.0, n_simulations=20)
    for _ in range(20):
        sample = rng.uniform(-5, 5, 3)
        pred, dist = predict_fair(forest, sample, SPEC, cfg)
        assert pred == predict_deterministic(forest, sample)
        assert dist.probs[pred] == 1.0


# Inputs that reach every branch of the batch kernel's flip step: scale-0
# and uniform-distance nodes, samples exactly at a threshold, the largest
# p_max, alpha = 0 (boost suppresses flips), and p_max = 0 (no flip step).
EDGE_CONFIGS = ((0.35, 5.0), (0.5, 0.0), (0.5, 9.0), (0.1, 2.0), (0.0, 9.0))


def edge_case_forest(rng, n_trees):
    trees = [random_tree(rng, n_features=3, max_depth=3, p_zero_scale=0.25)
             for _ in range(n_trees)]
    return Forest(trees=trees, n_trees=n_trees)


def edge_case_samples(rng, forest, n):
    """Rows with a protected value of 0 or 1, each then set exactly to the
    threshold of one random node of the forest on that node's feature."""
    X = rng.uniform(-5, 5, size=(n, 3))
    X[:, 0] = rng.integers(0, 2, n)
    nodes = [(tree, node) for tree in forest.trees for node in np.flatnonzero(tree.feature >= 0)]
    for row in X:
        tree, node = nodes[int(rng.integers(0, len(nodes)))]
        row[tree.feature[node]] = tree.threshold[node]
    return X


def test_predict_fair_matches_manual_vote_recount(rng):
    for i in range(15):
        forest = edge_case_forest(rng, 3)
        p_max, alpha = EDGE_CONFIGS[i % len(EDGE_CONFIGS)]
        cfg = config(n_simulations=40, p_max=p_max, alpha=alpha, seed=i)
        sample = edge_case_samples(rng, forest, 1)[0]
        pred, dist = predict_fair(forest, sample, SPEC, cfg, stream_id=17)
        votes = [1 if 2 * sum(outcomes) > 3 else 0
                 for outcomes in reference_monte_carlo(forest.trees, sample, SPEC, cfg, 17)]
        count1 = sum(votes)
        assert dist.probs == ((40 - count1) / 40, count1 / 40)
        assert pred == (1 if 2 * count1 > 40 else 0)


def draws_on_path(tree, sample, cfg):
    """Whether the deterministic path of sample has a node whose flip
    chance is above 0."""
    node = 0
    while tree.feature[node] >= 0:
        base = flip_probability(tree, node, sample, cfg)
        if adjusted_flip_probability(base, tree, node, sample, SPEC, cfg) > 0.0:
            return True
        node = tree.child[node, 0 if sample[tree.feature[node]] <= tree.threshold[node] else 1]
    return False


def test_shared_path_batch_matches_manual_vote_recount(rng):
    # the simulations of a (row, tree) pair share its path frontier and
    # draw their votes from its exact chance. The forests: the edge cases,
    # one with no uniform-distance node (its far row's chances are one-hot),
    # and one whose every split is uniform-distance (every step may flip).
    n_rows, S, T = 9, 80, 3
    forests = [
        edge_case_forest(rng, T),
        Forest(trees=[random_tree(rng, n_features=3, max_depth=3, p_zero_scale=0.25, p_uniform=0.0)
                      for _ in range(T)], n_trees=T),
        Forest(trees=[random_tree(rng, n_features=3, max_depth=4, p_leaf=0.0, p_uniform=1.0)
                      for _ in range(T)], n_trees=T),
    ]
    assert all(tree.uniform_distance[tree.feature >= 0].all() for tree in forests[2].trees)
    for f, forest in enumerate(forests):
        X = np.vstack([edge_case_samples(rng, forest, n_rows - 1), np.full((1, 3), 1e6)])
        ids = np.arange(n_rows) * 5 + 2
        for p_max, alpha in EDGE_CONFIGS:
            cfg = config(n_simulations=S, p_max=p_max, alpha=alpha, seed=31 + f)
            if f == 1:
                assert not any(draws_on_path(tree, X[-1], cfg) for tree in forest.trees)
            outcomes = np.array([reference_monte_carlo(forest.trees, X[i], SPEC, cfg, int(ids[i]))
                                 for i in range(n_rows)])
            majority = (2 * outcomes.sum(axis=2) > T).sum(axis=1)
            mean = outcomes.sum(axis=(1, 2))
            for aggregation, count1, denom in ((VOTE_MAJORITY, majority, S), (VOTE_MEAN, mean, S * T)):
                # 250 lanes draw in blocks of one row's 240, and 7 lanes in
                # blocks of two simulations of one row
                for max_lanes in (7, 250, MAX_LANES):
                    preds, probs = predict_fair_batch(forest, X, SPEC, cfg, stream_ids=ids,
                                                      aggregation=aggregation, max_lanes=max_lanes)
                    np.testing.assert_array_equal(probs, np.c_[(denom - count1) / denom, count1 / denom])
                    np.testing.assert_array_equal(preds, (2 * count1 > denom).astype(np.int64))


def test_wide_frontiers_run_in_many_chunks_and_match_manual_vote_recount(rng, monkeypatch):
    # every split is uniform-distance, so every branch may flip: a row's
    # frontier holds 4 * 4,096 leaves, two rows fill the budget, and the
    # call runs in at least 6 chunks of the exact frontier and walks no
    # lane. A row's results do not depend on the other rows, so the
    # one-lane budget runs on the first rows only.
    n_rows, S, T = 12, 100, 4
    forest = Forest(trees=[full_uniform_tree(rng, 12) for _ in range(T)], n_trees=T)
    X = rng.uniform(-5, 5, size=(n_rows, 3))
    X[:, 0] = rng.integers(0, 2, n_rows)
    ids = np.arange(n_rows) * 7 + 3
    cfg = config(n_simulations=S, p_max=0.05, alpha=0.0, seed=17)
    outcomes = np.array([reference_monte_carlo(forest.trees, X[i], SPEC, cfg, int(ids[i]),
                                               exact=exact_path_distribution)
                         for i in range(n_rows)])
    majority = (2 * outcomes.sum(axis=2) > T).sum(axis=1)
    mean = outcomes.sum(axis=(1, 2))
    chunks, pair_masses = [], traversal._pair_masses

    def counted(forest, X, chance, rows, limit):
        chunks.append(rows.size)
        return pair_masses(forest, X, chance, rows, limit)

    monkeypatch.setattr(traversal, "_pair_masses", counted)
    monkeypatch.setattr(traversal, "walk_lanes", None)
    for aggregation, count1, denom in ((VOTE_MAJORITY, majority, S), (VOTE_MEAN, mean, S * T)):
        expected = np.c_[(denom - count1) / denom, count1 / denom]
        for max_lanes, rows in ((1, 3), (250, n_rows), (MAX_LANES, n_rows)):
            chunks.clear()
            preds, probs = predict_fair_batch(forest, X[:rows], SPEC, cfg, stream_ids=ids[:rows],
                                              aggregation=aggregation, max_lanes=max_lanes)
            np.testing.assert_array_equal(probs, expected[:rows])
            np.testing.assert_array_equal(preds, (2 * count1[:rows] > denom).astype(np.int64))
        assert len(chunks) >= 6, chunks


def test_stream_ids_must_be_non_negative_integers():
    forest = edge_case_forest(np.random.default_rng(0), 3)
    X = np.zeros((2, 3))
    cfg = config(n_simulations=5)
    # a cast to uint64 would give 1.2 and 1.7 the same stream, and wrap -1
    for ids in ([1.2, 1.7], [0, -1], np.array([0, -1], dtype=np.int64), [True, False],
                ["0", "1"], [0, 2**64]):
        with pytest.raises(ValueError, match="stream_ids"):
            predict_fair_batch(forest, X, SPEC, cfg, stream_ids=ids)
    with pytest.raises(ValueError, match="stream_ids"):
        predict_fair(forest, X[0], SPEC, cfg, stream_id=-1)
    for ids in (np.array([0, 2**64 - 1], dtype=np.uint64), np.array([3, 4], dtype=np.uint8)):
        predict_fair_batch(forest, X, SPEC, cfg, stream_ids=ids)


def test_non_finite_values_are_rejected_naming_the_cell():
    # NaN compares false with every threshold: a row holding one would go
    # right at every split on its feature
    forest = edge_case_forest(np.random.default_rng(0), 3)
    X = np.zeros((4, 3))
    X[2, 1], X[3, 0] = np.nan, np.inf
    cfg = config(n_simulations=5)
    for predict in (lambda: predict_forest_batch(forest, X),
                    lambda: predict_fair_batch(forest, X, SPEC, cfg),
                    lambda: exact_forest_batch(forest, X, SPEC, cfg)):
        with pytest.raises(ValueError, match=r"^X has a non-finite value nan at row 2, column 1$"):
            predict()
    for value, text in ((np.nan, "nan"), (-np.inf, "-inf")):
        sample = np.array([0.0, 1.0, value])
        for predict in (lambda: predict_fair(forest, sample, SPEC, cfg),
                        lambda: predict_deterministic(forest, sample),
                        lambda: exact_path_distribution(forest.trees[0], sample, SPEC, cfg)):
            with pytest.raises(ValueError,
                               match=rf"^sample has a non-finite value {text} at column 2$"):
                predict()


def test_a_protected_feature_beyond_the_model_is_rejected():
    # a spec that names no feature of the model would boost no node, silently
    forest = edge_case_forest(np.random.default_rng(0), 3)
    X, cfg = np.zeros((2, 3)), config(n_simulations=5)
    for protected in (3, 99):
        spec = FairnessSpec(protected)
        for predict in (lambda: predict_fair_batch(forest, X, spec, cfg),
                        lambda: exact_forest_batch(forest, X, spec, cfg),
                        lambda: exact_path_distribution(forest.trees[0], X[0], spec, cfg)):
            with pytest.raises(ValueError,
                               match=rf"^protected_feature {protected}: model has 3 features$"):
                predict()
    predict_fair_batch(forest, X, FairnessSpec(2), cfg)


def test_zero_rows_give_empty_results():
    forest = edge_case_forest(np.random.default_rng(0), 3)
    X = np.empty((0, 3))
    for p_max, alpha in EDGE_CONFIGS:
        for aggregation in (VOTE_MAJORITY, VOTE_MEAN):
            preds, probs = predict_fair_batch(forest, X, SPEC, config(p_max=p_max, alpha=alpha),
                                              aggregation=aggregation)
            assert preds.shape == (0,) and preds.dtype == np.int64
            assert probs.shape == (0, 2) and probs.dtype == np.float64
    votes = forest_votes_batch(forest, X)
    assert votes.shape == (0,) and votes.dtype == np.int64
    assert predict_forest_batch(forest, X).shape == (0,)


def test_transient_memory_is_bounded_for_many_simulations():
    # 3 rows, 2 trees and S = 20,000: 120,000 lanes on trees whose every
    # split may flip. One frontier chunk holds the rows' 24,576 leaves, and
    # the votes are drawn in blocks of at most MAX_LANES lanes. That peaks
    # near 2.2 MB.
    rng = np.random.default_rng(4)
    forest = Forest(trees=[full_uniform_tree(rng, 12) for _ in range(2)], n_trees=2)
    X = rng.uniform(-5, 5, size=(3, 3))
    cfg = config(n_simulations=20_000, p_max=0.1)
    predict_fair_batch(forest, X, SPEC, cfg)  # joins the forest's arrays once
    tracemalloc.start()
    try:
        predict_fair_batch(forest, X, SPEC, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_transient_memory_does_not_grow_with_rows():
    # draw blocks of 10 rows each at this budget: 200 rows make 20, 2,000 make 200
    rng = np.random.default_rng(6)
    T, S = 4, 80
    forest = Forest(trees=[full_uniform_tree(rng, 6) for _ in range(T)], n_trees=T)
    X = rng.uniform(-5, 5, size=(2000, 3))
    X[:, 0] = rng.integers(0, 2, 2000)
    cfg = config(n_simulations=S, p_max=0.1)
    max_lanes = 3200
    peaks = []
    for n in (200, 2000):
        predict_fair_batch(forest, X[:n], SPEC, cfg, max_lanes=max_lanes)
        tracemalloc.start()
        try:
            predict_fair_batch(forest, X[:n], SPEC, cfg, max_lanes=max_lanes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the outputs (preds, probs, counts) grow by at most 32 bytes a row
    assert peaks[1] <= 1.05 * peaks[0] + 32 * 1800


def census_sized_forest(rng, n_rows, T=10):
    """T random trees of depth 10 over 3 features, and n_rows rows whose
    feature 0, the protected one, is 0 or 1."""
    forest = Forest(trees=[random_tree(rng, n_features=3, max_depth=10, p_leaf=0.1)
                           for _ in range(T)], n_trees=T)
    X = rng.uniform(-5, 5, size=(n_rows, 3))
    X[:, 0] = rng.integers(0, 2, n_rows)
    return forest, X


def test_a_census_sized_call_draws_in_the_exact_chunks_and_walks_no_lane(monkeypatch):
    # 300 rows, 10 trees and S = 100 make 300,000 lanes. The call takes its
    # pair masses in the chunks exact_forest_batch takes them in, walks no
    # lane, and draws in blocks of 32 rows, MAX_LANES // 1,000 lanes a row
    forest, X = census_sized_forest(np.random.default_rng(8), 300)
    cfg = config(n_simulations=100)
    chunks, draws, pair_masses, below = [], [], traversal._pair_masses, traversal._rng.below_array

    def counted(forest, X, chance, rows, limit):
        chunks.append(rows.size)
        return pair_masses(forest, X, chance, rows, limit)

    def counted_draws(keys, index, p):
        draws.append(keys.shape)
        return below(keys, index, p)

    monkeypatch.setattr(traversal, "_pair_masses", counted)
    exact_forest_batch(forest, X, SPEC, cfg)
    exact_chunks = chunks[:]
    chunks.clear()
    monkeypatch.setattr(traversal, "walk_lanes", None)
    monkeypatch.setattr(traversal._rng, "below_array", counted_draws)
    preds, probs = predict_fair_batch(forest, X, SPEC, cfg)
    assert chunks == exact_chunks and sum(chunks) == 300
    assert len(chunks) <= 4, chunks  # rows of a chunk that fits fill the next to half the budget
    assert draws == [(min(32, n - r), 10, 100) for n in chunks for r in range(0, n, 32)]
    monkeypatch.undo()
    chunked = predict_fair_batch(forest, X, SPEC, cfg, max_lanes=1000)
    np.testing.assert_array_equal(preds, chunked[0])
    np.testing.assert_array_equal(probs, chunked[1])


def test_a_census_sized_call_fills_its_chunks_with_live_branches(monkeypatch):
    # the call above: its 8-row first chunk peaks at 133 live branches,
    # about 17 a row, so the next could hold over 1,000 rows and takes the
    # other 292. Reached leaves do not count against the budget; when they
    # counted with the live branches, the call ran chunks of 8, 256 and 36
    forest, X = census_sized_forest(np.random.default_rng(8), 300)
    attempts, pair_masses = [], traversal._pair_masses

    def counted(forest, X, chance, rows, limit):
        got = pair_masses(forest, X, chance, rows, limit)
        attempts.append((rows.size, got is not None))
        return got

    monkeypatch.setattr(traversal, "_pair_masses", counted)
    predict_fair_batch(forest, X, SPEC, config(n_simulations=100))
    assert all(fits for _, fits in attempts), attempts
    assert sum(rows for rows, _ in attempts) == 300
    assert len(attempts) <= 2, attempts


def test_a_census_sized_call_peaks_within_12_bytes_a_lane():
    # 327 rows, 10 trees and S = 100 (327,000 lanes): a call holds one
    # chunk's frontier, its pair masses and one block of draws at a time
    T, S = 10, 100
    rows = 10 * MAX_LANES // (T * S)
    forest, X = census_sized_forest(np.random.default_rng(5), rows, T)
    cfg = config(n_simulations=S, p_max=0.2)
    lanes = X.shape[0] * T * S
    predict_fair_batch(forest, X, SPEC, cfg)  # joins the forest's arrays once
    tracemalloc.start()
    try:
        predict_fair_batch(forest, X, SPEC, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * lanes, peak / lanes


def test_rows_past_the_budget_walk_their_lanes(rng, monkeypatch):
    # a budget of 64 branches. The first tree is complete, of depth 6, and
    # splits on feature 1 at 0 with scale 1: an odd row, near 0, reaches all
    # 64 leaves and is past the budget, so it walks its lanes, drawing at a
    # node of depth k draw k of its streams; an even row, at 100, reaches
    # one and fits. Each row's results equal the row's alone, and stay
    # within the binomial bound of exact
    def grow(depth):
        if depth == 0:
            return leaf(*rng.integers(0, 5, 2))
        return internal(1, 0.0, 1.0, grow(depth - 1), grow(depth - 1))

    T, S, n_rows = 2, 400, 8
    forest = Forest(trees=[make_tree(grow(6), n_features=3),
                           random_tree(rng, n_features=3, max_depth=4)], n_trees=T)
    X = rng.uniform(-5, 5, size=(n_rows, 3))
    X[:, 0] = rng.integers(0, 2, n_rows)
    X[:, 1] = np.where(np.arange(n_rows) % 2, rng.uniform(-0.05, 0.05, n_rows), 100.0)
    ids = np.arange(n_rows) * 3 + 1
    cfg = config(n_simulations=S, p_max=0.3, alpha=4.0, seed=23)
    q = [[exact_path_distribution(t, x, SPEC, cfg).probs[1] for t in forest.trees] for x in X]
    # row 1's walks, node by node
    walks = np.array([[traverse_once(tree, X[1], SPEC, cfg,
                                     TraversalStream.derive(cfg.seed, int(ids[1]), s, t))
                       for t, tree in enumerate(forest.trees)] for s in range(S)])
    monkeypatch.setattr(traversal, "MAX_LANES", 64)
    walked = []

    def counting_walk(forest, X, node, x_pos, flip=None):
        walked.append(int(x_pos[0]) // X.shape[1])
        return walk_lanes(forest, X, node, x_pos, flip)

    monkeypatch.setattr(traversal, "walk_lanes", counting_walk)
    for aggregation, count1, denom in ((VOTE_MAJORITY, (2 * walks.sum(axis=1) > T).sum(), S),
                                       (VOTE_MEAN, walks.sum(), S * T)):
        walked.clear()
        preds, probs = predict_fair_batch(forest, X, SPEC, cfg, stream_ids=ids,
                                          aggregation=aggregation, max_lanes=150)
        assert sorted(set(walked)) == list(range(1, n_rows, 2))
        assert probs[1, 1] == count1 / denom
        for i in range(n_rows):
            alone = predict_fair_batch(forest, X[i:i + 1], SPEC, cfg, stream_ids=ids[i:i + 1],
                                       aggregation=aggregation)
            np.testing.assert_array_equal(alone[1], probs[i:i + 1])
            assert alone[0][0] == preds[i]
        if aggregation == VOTE_MAJORITY:
            for i in range(n_rows):
                Q = majority_probability(q[i])
                assert binomial_tail(round(probs[i, 1] * S), S, Q) > 1e-6, (i, Q, probs[i, 1])


def test_a_row_past_the_limit_shares_a_chunk_that_fits(rng, monkeypatch):
    # a budget of 79. The first tree is complete, of depth 6, and splits on
    # feature 1 at 0 with scale 1; the second is complete, of depth 4, and
    # uniform-distance. Row 5, near 0, has 64 live branches at depth 6
    # after reaching 16 leaves at depth 4: 80, past the limit. The other
    # rows, at 100, reach 16 + 1 leaves. A 3-row chunk holding row 5 has
    # at most 64 + 2 live branches, so it fits, and row 5 alone is past
    def grow(depth):
        if depth == 0:
            return leaf(*rng.integers(0, 5, 2))
        return internal(1, 0.0, 1.0, grow(depth - 1), grow(depth - 1))

    T, S, n_rows, wide, budget = 2, 50, 12, 5, 79
    forest = Forest(trees=[make_tree(grow(6), n_features=3), full_uniform_tree(rng, 4)],
                    n_trees=T)
    X = rng.uniform(-5, 5, size=(n_rows, 3))
    X[:, 0] = rng.integers(0, 2, n_rows)
    X[:, 1] = 100.0
    X[wide, 1] = 0.01
    ids = np.arange(n_rows) * 5 + 2
    cfg = config(n_simulations=S, p_max=0.3, alpha=4.0, seed=29)
    monkeypatch.setattr("fairtree.exact.MAX_LANES", budget)
    monkeypatch.setattr(traversal, "MAX_LANES", budget)
    attempts, walked, pair_masses = [], [], traversal._pair_masses

    def counted(forest, X, chance, rows, limit):
        got = pair_masses(forest, X, chance, rows, limit)
        attempts.append((rows.tolist(), got is not None))
        return got

    def counting_walk(forest, X, node, x_pos, flip=None):
        walked.append(int(x_pos[0]) // X.shape[1])
        return walk_lanes(forest, X, node, x_pos, flip)

    monkeypatch.setattr(traversal, "_pair_masses", counted)
    monkeypatch.setattr(traversal, "walk_lanes", counting_walk)
    with pytest.raises(EnumerationLimitError,
                       match=rf"^enumeration limit exceeded: row {wide} needs more than "
                             rf"{budget} branches$"):
        exact_forest_batch(forest, X, SPEC, cfg)
    assert any(wide in rows and len(rows) > 1 and fits for rows, fits in attempts), attempts
    narrow = np.delete(np.arange(n_rows), wide)
    _, probs = exact_forest_batch(forest, X[narrow], SPEC, cfg)
    for i, row in enumerate(narrow):
        np.testing.assert_array_equal(exact_forest_batch(forest, X[row:row + 1], SPEC, cfg)[1],
                                      probs[i:i + 1])
    for aggregation in (VOTE_MAJORITY, VOTE_MEAN):
        attempts.clear()
        walked.clear()
        preds, probs = predict_fair_batch(forest, X, SPEC, cfg, stream_ids=ids,
                                          aggregation=aggregation)
        assert set(walked) == {wide}
        assert any(wide in rows and len(rows) > 1 and fits for rows, fits in attempts), attempts
        for i in range(n_rows):
            alone = predict_fair_batch(forest, X[i:i + 1], SPEC, cfg, stream_ids=ids[i:i + 1],
                                       aggregation=aggregation)
            np.testing.assert_array_equal(alone[1], probs[i:i + 1])
            assert alone[0][0] == preds[i]


def test_two_tree_forest_matches_joint_path_enumeration():
    tree_a = depth1_tree(threshold=5.0, scale=4.0, n_features=2)
    tree_b = make_tree(internal(1, 0.0, 2.0, leaf(2, 0), leaf(0, 2)), n_features=2)
    forest = Forest(trees=[tree_a, tree_b], n_trees=2)
    sample = np.array([5.0, 0.5])
    cfg = config(n_simulations=10_000, p_max=0.2, seed=21)
    # exact per-tree favorable chances for this sample
    pa = exact_path_distribution(tree_a, sample, SPEC, cfg).probs[1]
    pb = exact_path_distribution(tree_b, sample, SPEC, cfg).probs[1]
    # majority with ties to 0: the vote is favorable only when both agree
    q = pa * pb
    pred, dist = predict_fair(forest, sample, SPEC, cfg)
    bound = 3.0 * np.sqrt(q * (1 - q) / cfg.n_simulations)
    assert abs(dist.probs[1] - q) <= bound
    assert pred == (1 if dist.probs[1] > dist.probs[0] else 0)


def test_mean_distribution_aggregation_counts_tree_outcomes(rng):
    trees = [random_tree(rng, n_features=2, max_depth=2) for _ in range(3)]
    forest = Forest(trees=trees, n_trees=3)
    cfg = config(n_simulations=30, p_max=0.3, seed=2)
    sample = rng.uniform(-3, 3, 2)
    pred, dist = predict_fair(forest, sample, SPEC, cfg, stream_id=5, aggregation=VOTE_MEAN)
    total = sum(map(sum, reference_monte_carlo(trees, sample, SPEC, cfg, stream_id=5)))
    denom = 30 * 3
    assert dist.probs == ((denom - total) / denom, total / denom)


def test_batch_results_are_independent_of_batch_composition(rng):
    forest = edge_case_forest(rng, 4)
    split = [tree.feature >= 0 for tree in forest.trees]
    assert any((tree.scale[s] == 0.0).any() for tree, s in zip(forest.trees, split))
    assert any(tree.uniform_distance[s].any() for tree, s in zip(forest.trees, split))
    X = edge_case_samples(rng, forest, 12)
    ids = np.arange(100, 112)
    for p_max, alpha in EDGE_CONFIGS:
        cfg = config(n_simulations=50, p_max=p_max, alpha=alpha, seed=13)
        for aggregation in (VOTE_MAJORITY, VOTE_MEAN):
            full_preds, full_probs = predict_fair_batch(
                forest, X, SPEC, cfg, stream_ids=ids, aggregation=aggregation
            )
            for i in range(12):
                pred, dist = predict_fair(forest, X[i], SPEC, cfg, stream_id=int(ids[i]),
                                          aggregation=aggregation)
                assert pred == full_preds[i]
                assert dist.probs == (full_probs[i, 0], full_probs[i, 1])
            # chunked evaluation cannot change results either; a row's
            # forest is S * T = 200 lanes, so the smaller budgets split it
            for max_lanes in (1, 120, 199, 200, 201, 2600):
                chunk_preds, chunk_probs = predict_fair_batch(
                    forest, X, SPEC, cfg, stream_ids=ids, aggregation=aggregation,
                    max_lanes=max_lanes,
                )
                np.testing.assert_array_equal(full_preds, chunk_preds)
                np.testing.assert_array_equal(full_probs, chunk_probs)
    # a tree is its own flat form, and its arrays cannot be written to
    tree = forest.trees[0]
    assert flatten_tree(tree) is tree
    for name in ("feature", "threshold", "scale", "uniform_distance", "child",
                 "majority", "class_counts", "leaf_class"):
        assert not getattr(tree, name).flags.writeable, name
    with pytest.raises(ValueError):
        tree.threshold[0] = 1.0


def majority_probability(qs):
    """P(more than half of independent Bernoulli(q_t) votes are 1), from the
    Poisson-binomial distribution of the vote count."""
    dist = [1.0]
    for q in qs:
        dist = [a * (1 - q) + b * q for a, b in zip(dist + [0.0], [0.0] + dist)]
    return sum(p for k, p in enumerate(dist) if 2 * k > len(qs))


def binomial_tail(k, n, q):
    """Probability, under Binomial(n, q), of a count at least as far from
    the mean as k on k's side."""
    if q <= 0.0 or q >= 1.0:
        return 1.0 if k == round(n * q) else 0.0
    side = range(0, k + 1) if k <= n * q else range(k, n + 1)
    return sum(
        math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 + i * math.log(q) + (n - i) * math.log1p(-q))
        for i in side
    )


def test_forest_monte_carlo_matches_poisson_binomial_oracle(rng):
    # streams are independent per tree, so each simulation's majority vote
    # is Bernoulli(Q) with Q the Poisson-binomial majority chance of the
    # trees' exact favorable probabilities
    S = 2000
    for i in range(12):
        T = int(rng.integers(3, 6))
        trees = [random_tree(rng, n_features=3, max_depth=4) for _ in range(T)]
        forest = Forest(trees=trees, n_trees=T)
        cfg = config(n_simulations=S, p_max=float(rng.uniform(0.05, 0.5)),
                     alpha=float(rng.choice([0.0, 1.0, 4.0, 9.0])), seed=i)
        X = rng.uniform(-5, 5, size=(6, 3))
        X[:, 0] = rng.integers(0, 2, 6)
        _, probs = predict_fair_batch(forest, X, SPEC, cfg, stream_ids=10 * i + np.arange(6))
        for x, p in zip(X, probs[:, 1]):
            q = majority_probability(
                [exact_path_distribution(t, x, SPEC, cfg).probs[1] for t in trees])
            assert binomial_tail(round(p * S), S, q) > 1e-6, (i, q, p)


# --- monotonicity -------------------------------------------------------------

def unfavorable_subtree(rng, n_features, depth, max_depth):
    if depth >= max_depth or rng.random() < 0.4:
        return leaf(int(rng.integers(1, 9)), 0)
    return internal(
        feature=int(rng.integers(1, n_features)),
        threshold=float(rng.uniform(-4, 4)),
        scale=float(rng.uniform(0.5, 4)),
        left=unfavorable_subtree(rng, n_features, depth + 1, max_depth),
        right=unfavorable_subtree(rng, n_features, depth + 1, max_depth),
        lmaj=0, rmaj=0,
    )


def biased_routing_tree(rng, n_features=4, max_depth=4):
    """Every protected node routes unprivileged samples (value 0) into a
    subtree holding only unfavorable leaves."""

    def grow(depth):
        if depth >= max_depth or rng.random() < 0.25:
            c0, c1 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            return leaf(c0, c1)
        if rng.random() < 0.4:
            return internal(
                0, 0.5, 0.5,
                unfavorable_subtree(rng, n_features, depth + 1, max_depth),
                grow(depth + 1),
                lmaj=0, rmaj=int(rng.integers(0, 2)), uniform=True,
            )
        return internal(
            feature=int(rng.integers(1, n_features)),
            threshold=float(rng.uniform(-4, 4)),
            scale=float(rng.uniform(0.5, 4)),
            left=grow(depth + 1),
            right=grow(depth + 1),
            lmaj=int(rng.integers(0, 2)),
            rmaj=int(rng.integers(0, 2)),
        )

    root = grow(0)
    if root["kind"] == "leaf":
        root = internal(0, 0.5, 0.5, unfavorable_subtree(rng, n_features, 1, max_depth),
                        leaf(0, 3), lmaj=0, rmaj=1, uniform=True)
    return make_tree(root, n_features)


def test_favorable_probability_is_nondecreasing_in_alpha(rng):
    alphas = (0.5, 1.0, 2.0, 4.0, 9.0, 16.0)
    for _ in range(40):
        tree = biased_routing_tree(rng)
        sample = rng.uniform(-4, 4, size=tree.n_features)
        sample[0] = 0.0  # unprivileged
        values = []
        for alpha in alphas:
            cfg = config(alpha=alpha, p_max=0.2)
            values.append(exact_path_distribution(tree, sample, SPEC, cfg).probs[1])
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# --- config validation ----------------------------------------------------------

def test_traversal_config_validation():
    with pytest.raises(ConfigError):
        TraversalConfig(n_simulations=0)
    with pytest.raises(ConfigError):
        TraversalConfig(p_max=0.6)
    with pytest.raises(ConfigError):
        TraversalConfig(p_max=-0.1)
    with pytest.raises(ConfigError):
        TraversalConfig(alpha=-1.0)


def test_zero_scale_nodes_agree_between_scalar_and_batch_paths():
    # scale 0 is legal in hand-written model documents: the flip chance is
    # p_max exactly at the threshold and 0 elsewhere
    tree = make_tree(internal(0, 2.0, 0.0, leaf(2, 0), leaf(0, 2)))
    cfg = config(n_simulations=400, p_max=0.3, seed=9)
    for value in (2.0, 2.5):
        dist = simulate_tree(tree, [value], SPEC, cfg, stream_id=3)
        outcomes = [
            traverse_once(tree, np.array([value]), SPEC, cfg,
                          TraversalStream.derive(cfg.seed, 3, s, 0))
            for s in range(cfg.n_simulations)
        ]
        count1 = sum(outcomes)
        assert dist.probs == ((400 - count1) / 400, count1 / 400)
    at_threshold = simulate_tree(tree, [2.0], SPEC, cfg, stream_id=3)
    away = simulate_tree(tree, [2.5], SPEC, cfg, stream_id=3)
    assert 0.0 < at_threshold.probs[1] < 1.0  # flips happen at the threshold
    assert away.probs == (0.0, 1.0)           # and nowhere else


def divisor_rule_forest():
    """Trees of one split on feature 0 (protected) or 1, at threshold 0 or
    -1.5e308, scaled (by 2 or by 1e-300, whose quotients overflow),
    unscaled or uniform-distance, whose left child is a uniform-distance
    protected split that boosts unprivileged rows."""
    below = internal(0, 0.5, 1.0, leaf(3, 0), leaf(0, 3), lmaj=0, rmaj=1, uniform=True)
    kinds = ((2.0, False), (1e-300, False), (0.0, False), (1.0, True), (0.0, True))
    trees = [make_tree(internal(feature, threshold, scale, below, leaf(1, 2), uniform=uniform),
                       n_features=2)
             for feature in (0, 1) for threshold in (0.0, -1.5e308) for scale, uniform in kinds]
    return Forest(trees=trees, n_trees=len(trees))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divisor_rule_equals_the_scalar_reference_bit_for_bit(monkeypatch):
    # distances to the threshold of 0, subnormal (5e-324 from 0), ordinary
    # and overflowing (1.5e308 against -1.5e308), at p_max 0, 0.1 and 0.5
    # and alpha 0, 1 and 9: the flip chances, both exact paths and Monte
    # Carlo's votes equal the scalar rule's, also where every row walks its
    # lanes, and no overflow warns in the public calls
    forest = divisor_rule_forest()
    edges = (0.0, 5e-324, -5e-324, 1.0, -1.0, 1.5e308)
    X = np.array([[g, x] for g in (0.0, 1.0, 5e-324, 1.5e308) for x in edges])
    ids = np.arange(len(X))
    internal_nodes = [(t, n) for t, tree in enumerate(forest.trees)
                      for n in np.flatnonzero(tree.feature >= 0).tolist()]
    node = np.array([forest.root[t] + n for t, n in internal_nodes for _ in X])
    rows = np.tile(X, (len(internal_nodes), 1))
    feat = forest.feature[node]
    x, threshold = rows[np.arange(len(rows)), feat], forest.threshold[node]
    for p_max in (0.0, 0.1, 0.5):
        for alpha in (0.0, 1.0, 9.0):
            cfg = config(n_simulations=20, p_max=p_max, alpha=alpha)
            with np.errstate(over="ignore"):  # the chance function's contract
                got = traversal._flip_chance(forest, SPEC, cfg)(node, feat, x, threshold,
                                                                x <= threshold)
            want = [adjusted_flip_probability(flip_probability(forest.trees[t], n, row, cfg),
                                              forest.trees[t], n, row, SPEC, cfg)
                    for (t, n), row in zip(np.repeat(internal_nodes, len(X), axis=0), rows)]
            assert got.tolist() == want, (p_max, alpha)
            for tree in forest.trees:
                want = [reference_exact(tree, row, SPEC, cfg).probs for row in X]
                assert [exact_path_distribution(tree, row, SPEC, cfg).probs
                        for row in X] == want, (p_max, alpha)
                probs = exact_forest_batch(Forest(trees=[tree], n_trees=1), X, SPEC, cfg)[1]
                assert [tuple(p) for p in probs] == want, (p_max, alpha)
            _, probs = predict_fair_batch(forest, X, SPEC, cfg, stream_ids=ids)
            for row, i, p1 in zip(X, ids, probs[:, 1]):
                votes = reference_monte_carlo(forest.trees, row, SPEC, cfg, int(i))
                assert p1 == sum(2 * sum(v) > forest.n_trees for v in votes) / 20, (p_max, alpha)
            with monkeypatch.context() as patch:  # a budget below one row's roots
                patch.setattr(traversal, "MAX_LANES", forest.n_trees - 1)
                _, probs = predict_fair_batch(forest, X, SPEC, cfg, stream_ids=ids)
            for row, i, p1 in zip(X, ids, probs[:, 1]):
                votes = [[traverse_once(tree, row, SPEC, cfg,
                                        TraversalStream.derive(cfg.seed, int(i), s, t))
                          for t, tree in enumerate(forest.trees)] for s in range(20)]
                assert p1 == sum(2 * sum(v) > forest.n_trees for v in votes) / 20, (p_max, alpha)
