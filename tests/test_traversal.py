import math

import numpy as np
import pytest

from fairtree.errors import ConfigError, EnumerationLimitError
from fairtree.rng import TraversalStream
from fairtree.traversal import (
    VOTE_MAJORITY,
    VOTE_MEAN,
    FairnessSpec,
    TraversalConfig,
    adjusted_flip_probability,
    exact_path_distribution,
    flip_probability,
    predict_fair,
    predict_fair_batch,
    simulate,
    traverse_once,
)
from fairtree.tree import DecisionTree, Forest, InternalNode, flatten_tree, predict_deterministic

from conftest import depth1_tree, internal, leaf, random_tree

SPEC = FairnessSpec(protected_feature=0)


def config(**kwargs):
    defaults = dict(n_simulations=100, p_max=0.1, alpha=9.0, seed=7)
    defaults.update(kwargs)
    return TraversalConfig(**defaults)


# --- flip_probability -------------------------------------------------------

def test_flip_probability_saturates_at_zero_distance():
    node = internal(0, 5.0, 4.0, leaf(1, 0), leaf(0, 1))
    assert flip_probability(node, [5.0], config()) == 0.1


def test_flip_probability_is_zero_at_max_distance():
    node = internal(0, 5.0, 4.0, leaf(1, 0), leaf(0, 1))
    assert flip_probability(node, [1.0], config()) == 0.0
    assert flip_probability(node, [9.0], config()) == 0.0


def test_flip_probability_linear_in_scaled_distance():
    node = internal(0, 0.0, 1.0, leaf(1, 0), leaf(0, 1))
    assert flip_probability(node, [0.05], config()) == pytest.approx(0.05, abs=1e-15)


def test_flip_probability_clamps_far_samples_to_zero():
    node = internal(0, 0.0, 1.0, leaf(1, 0), leaf(0, 1))
    assert flip_probability(node, [100.0], config()) == 0.0


def test_uniform_distance_node_always_flips_at_p_max():
    node = internal(0, 0.5, 0.5, leaf(1, 0), leaf(0, 1), uniform=True)
    for value in (0.0, 1.0, 7.0):
        assert flip_probability(node, [value], config()) == 0.1


# --- adjusted_flip_probability ----------------------------------------------

def protected_node(lmaj=0, rmaj=1):
    return internal(0, 0.5, 0.5, leaf(5, 0), leaf(0, 5), lmaj=lmaj, rmaj=rmaj, uniform=True)


def test_boost_applies_and_caps_at_half():
    node = protected_node()
    # unprivileged sample routed toward the unfavorable-majority child
    assert adjusted_flip_probability(0.1, node, [0.0], SPEC, config(alpha=9.0)) == 0.5
    assert adjusted_flip_probability(0.1, node, [0.0], SPEC, config(alpha=2.0)) == pytest.approx(0.2)


def test_privileged_samples_are_not_boosted():
    node = protected_node()
    assert adjusted_flip_probability(0.1, node, [1.0], SPEC, config()) == 0.1


def test_favorable_routing_is_not_boosted():
    node = protected_node(lmaj=1, rmaj=0)  # deterministic child majority favorable
    assert adjusted_flip_probability(0.1, node, [0.0], SPEC, config()) == 0.1


def test_non_protected_nodes_are_not_boosted():
    node = internal(1, 3.0, 2.0, leaf(5, 0), leaf(0, 5))
    spec = FairnessSpec(protected_feature=0)
    assert adjusted_flip_probability(0.07, node, [0.0, 3.0], spec, config()) == 0.07


def test_alpha_below_one_attenuates_and_zero_suppresses():
    node = protected_node()
    assert adjusted_flip_probability(0.1, node, [0.0], SPEC, config(alpha=0.5)) == pytest.approx(0.05)
    assert adjusted_flip_probability(0.1, node, [0.0], SPEC, config(alpha=0.0)) == 0.0


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
        sample = rng.uniform(-4, 4, size=3)
        if rng.random() < 0.5:
            sample[0] = float(rng.integers(0, 2))
        cfg = cfg_pool[int(rng.integers(0, len(cfg_pool)))]
        base = flip_probability(node, sample, cfg)
        adj = adjusted_flip_probability(base, node, sample, SPEC, cfg)
        assert 0.0 <= adj <= 0.5
        assert 0.0 <= base <= cfg.p_max
        if cfg.alpha >= 1.0:
            assert adj >= base - 1e-15
        triggered = (
            node.feature_index == 0
            and sample[0] == 0.0
            and (node.left_majority if sample[0] <= node.threshold else node.right_majority) == 0
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
    tree = DecisionTree(root=leaf(0, 3), n_features=2)
    stream = TraversalStream.derive(0, 0)
    assert traverse_once(tree, [9.9, -4.2], SPEC, config(p_max=0.5), stream) == 1


def test_at_threshold_flip_frequency_approaches_p_max():
    tree = depth1_tree()
    cfg = config(n_simulations=20_000, p_max=0.1, seed=5)
    dist = simulate(tree, [5.0], SPEC, cfg)  # deterministic side is class 0
    assert dist.probs[1] == pytest.approx(0.1, abs=3 * np.sqrt(0.1 * 0.9 / 20_000))


# --- simulate ----------------------------------------------------------------

def test_simulate_counts_traverse_once_outcomes_exactly():
    tree = depth1_tree()
    cfg = config(n_simulations=250, p_max=0.4, seed=11)
    dist = simulate(tree, [4.9], SPEC, cfg, stream_id=6)
    outcomes = [
        traverse_once(tree, np.array([4.9]), SPEC, cfg,
                      TraversalStream.derive(cfg.seed, 6, s, 0))
        for s in range(cfg.n_simulations)
    ]
    count1 = sum(outcomes)
    assert dist.probs == ((250 - count1) / 250, count1 / 250)
    assert dist.n_simulations_used == 250


def test_simulate_probs_sum_exactly_to_one(rng):
    for _ in range(20):
        tree = random_tree(rng)
        cfg = config(n_simulations=int(rng.integers(1, 400)), p_max=0.3)
        dist = simulate(tree, rng.uniform(-5, 5, tree.n_features), SPEC, cfg)
        assert dist.probs[0] + dist.probs[1] == 1.0


def test_simulate_with_zero_p_max_is_one_hot(rng):
    tree = random_tree(rng)
    sample = rng.uniform(-5, 5, tree.n_features)
    dist = simulate(tree, sample, SPEC, config(p_max=0.0, n_simulations=25))
    expected = predict_deterministic(tree, sample)
    assert dist.probs[expected] == 1.0 and dist.probs[1 - expected] == 0.0


def test_simulate_is_reproducible_and_seed_sensitive():
    tree = depth1_tree()
    a = simulate(tree, [5.0], SPEC, config(seed=1, n_simulations=500))
    b = simulate(tree, [5.0], SPEC, config(seed=1, n_simulations=500))
    c = simulate(tree, [5.0], SPEC, config(seed=2, n_simulations=500))
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
    tree = DecisionTree(
        root=internal(
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
    tree = DecisionTree(
        root=internal(
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
        flip_probability(tree.root, sample, config()), tree.root, sample, SPEC, config()
    ) == 0.5


def test_enumeration_limit_is_enforced():
    node = leaf(1, 0)
    for _ in range(13):
        node = internal(0, 0.0, 1.0, node, leaf(0, 1))
    tree = DecisionTree(root=node, n_features=1)
    with pytest.raises(EnumerationLimitError, match="enumeration limit exceeded"):
        exact_path_distribution(tree, [0.0], SPEC, config())
    # a higher limit enumerates fine
    dist = exact_path_distribution(tree, [0.0], SPEC, config(), max_enumeration_depth=13)
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-9)


def test_monte_carlo_matches_exact_within_binomial_bound(rng):
    cfg = config(n_simulations=10_000, p_max=0.3, alpha=4.0, seed=3)
    for i in range(20):
        tree = random_tree(rng, max_depth=4)
        sample = rng.uniform(-6, 6, tree.n_features)
        if rng.random() < 0.5:
            sample[0] = float(rng.integers(0, 2))
        exact = exact_path_distribution(tree, sample, SPEC, cfg)
        mc = simulate(tree, sample, SPEC, cfg, stream_id=i)
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
        mc = simulate(tree, sample, SPEC, cfg, stream_id=i).probs[1]
        if abs(mc - p) <= 3.0 * np.sqrt(p * (1 - p) / S):
            hits += 1
    assert hits >= 990, f"{hits}/1000 trials inside the binomial bound"


# --- predict_fair -------------------------------------------------------------

def test_single_tree_forest_equals_simulate(rng):
    tree = random_tree(rng)
    forest = Forest(trees=[tree], n_trees=1)
    sample = rng.uniform(-5, 5, tree.n_features)
    cfg = config(n_simulations=300)
    pred, dist = predict_fair(forest, sample, SPEC, cfg, stream_id=4)
    assert dist == simulate(tree, sample, SPEC, cfg, stream_id=4)
    assert pred == dist.predicted_class


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


def internal_nodes(tree):
    stack, out = [tree.root], []
    while stack:
        node = stack.pop()
        if isinstance(node, InternalNode):
            out.append(node)
            stack += [node.left, node.right]
    return out


def edge_case_forest(rng, n_trees):
    trees = [random_tree(rng, n_features=3, max_depth=3, p_zero_scale=0.25)
             for _ in range(n_trees)]
    return Forest(trees=trees, n_trees=n_trees)


def edge_case_samples(rng, forest, n):
    """Rows with a protected value of 0 or 1, each then set exactly to the
    threshold of one random node of the forest on that node's feature."""
    X = rng.uniform(-5, 5, size=(n, 3))
    X[:, 0] = rng.integers(0, 2, n)
    nodes = [node for tree in forest.trees for node in internal_nodes(tree)]
    for row in X:
        node = nodes[int(rng.integers(0, len(nodes)))]
        row[node.feature_index] = node.threshold
    return X


def test_predict_fair_matches_manual_vote_recount(rng):
    for i in range(15):
        forest = edge_case_forest(rng, 3)
        p_max, alpha = EDGE_CONFIGS[i % len(EDGE_CONFIGS)]
        cfg = config(n_simulations=40, p_max=p_max, alpha=alpha, seed=i)
        sample = edge_case_samples(rng, forest, 1)[0]
        pred, dist = predict_fair(forest, sample, SPEC, cfg, stream_id=17)
        votes = []
        for s in range(cfg.n_simulations):
            outcomes = [
                traverse_once(tree, sample, SPEC, cfg,
                              TraversalStream.derive(cfg.seed, 17, s, t))
                for t, tree in enumerate(forest.trees)
            ]
            votes.append(1 if 2 * sum(outcomes) > 3 else 0)
        count1 = sum(votes)
        assert dist.probs == ((40 - count1) / 40, count1 / 40)
        assert pred == (1 if 2 * count1 > 40 else 0)


def test_two_tree_forest_matches_joint_path_enumeration():
    tree_a = depth1_tree(threshold=5.0, scale=4.0, n_features=2)
    tree_b = DecisionTree(
        root=internal(1, 0.0, 2.0, leaf(2, 0), leaf(0, 2)), n_features=2
    )
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
    total = 0
    for s in range(cfg.n_simulations):
        for t, tree in enumerate(trees):
            total += traverse_once(tree, sample, SPEC, cfg,
                                   TraversalStream.derive(cfg.seed, 5, s, t))
    denom = 30 * 3
    assert dist.probs == ((denom - total) / denom, total / denom)


def test_batch_results_are_independent_of_batch_composition(rng):
    forest = edge_case_forest(rng, 4)
    nodes = [node for tree in forest.trees for node in internal_nodes(tree)]
    assert any(node.scale == 0.0 for node in nodes)
    assert any(node.uniform_distance for node in nodes)
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
    # the flat arrays are built once per tree and cannot be written to
    flat = flatten_tree(forest.trees[0])
    assert flatten_tree(forest.trees[0]) is flat
    for name in ("feature", "threshold", "scale", "uniform_distance", "child",
                 "majority", "leaf_class"):
        assert not getattr(flat, name).flags.writeable, name
    with pytest.raises(ValueError):
        flat.threshold[0] = 1.0


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
    if not isinstance(root, type(internal(0, 0, 1, leaf(1, 0), leaf(0, 1)))):
        root = internal(0, 0.5, 0.5, unfavorable_subtree(rng, n_features, 1, max_depth),
                        leaf(0, 3), lmaj=0, rmaj=1, uniform=True)
    return DecisionTree(root=root, n_features=n_features)


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
    with pytest.raises(ConfigError):
        FairnessSpec(protected_feature=0, favorable_class=1, unfavorable_class=1)


def test_zero_scale_nodes_agree_between_scalar_and_batch_paths():
    # scale 0 is legal in hand-written model documents: the flip chance is
    # p_max exactly at the threshold and 0 elsewhere
    tree = DecisionTree(
        root=internal(0, 2.0, 0.0, leaf(2, 0), leaf(0, 2)),
        n_features=1,
    )
    cfg = config(n_simulations=400, p_max=0.3, seed=9)
    for value in (2.0, 2.5):
        dist = simulate(tree, [value], SPEC, cfg, stream_id=3)
        outcomes = [
            traverse_once(tree, np.array([value]), SPEC, cfg,
                          TraversalStream.derive(cfg.seed, 3, s, 0))
            for s in range(cfg.n_simulations)
        ]
        count1 = sum(outcomes)
        assert dist.probs == ((400 - count1) / 400, count1 / 400)
    at_threshold = simulate(tree, [2.0], SPEC, cfg, stream_id=3)
    away = simulate(tree, [2.5], SPEC, cfg, stream_id=3)
    assert 0.0 < at_threshold.probs[1] < 1.0  # flips happen at the threshold
    assert away.probs == (0.0, 1.0)           # and nowhere else
