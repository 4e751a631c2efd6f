import numpy as np
import pytest

from dataclasses import replace

from fairtree.errors import DataError
from fairtree.model_io import dumps, serialize
from fairtree.tree import (
    Dataset,
    Forest,
    forest_votes_batch,
    predict_deterministic,
    train_forest,
    train_tree,
)

from conftest import internal, leaf, make_tree


def make_dataset(rows, labels, n_features=None):
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    names = [f"f{i}" for i in range(rows.shape[1])]
    return Dataset(names, ["numeric"] * rows.shape[1], rows, np.asarray(labels))


def test_midpoint_split_on_separable_feature():
    tree = train_tree(make_dataset([1, 2, 8, 9], [0, 0, 1, 1]), max_depth=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 5.0
    left, right = tree.child[0]
    assert tree.feature[left] == -1 and tree.leaf_class[left] == 0
    assert tree.feature[right] == -1 and tree.leaf_class[right] == 1
    assert tree.majority[0].tolist() == [0, 1]


def test_single_class_data_yields_single_leaf():
    tree = train_tree(make_dataset([1, 2, 3], [1, 1, 1]), max_depth=5)
    assert tree.feature.tolist() == [-1]
    assert tree.leaf_class[0] == 1
    assert tree.class_counts[0].tolist() == [0, 3]
    assert tree.max_depth == 0


def test_xor_data_fits_at_depth_two():
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]]
    labels = [0, 1, 1, 0]
    tree = train_tree(make_dataset(rows, labels), max_depth=2)
    preds = [predict_deterministic(tree, r) for r in rows]
    assert preds == labels


def test_empty_dataset_is_rejected():
    data = make_dataset(np.empty((0, 1)), np.empty(0, dtype=int))
    with pytest.raises(DataError, match="empty training set"):
        train_tree(data)


def test_scale_is_max_distance_to_threshold():
    tree = train_tree(make_dataset([1, 2, 8, 9], [0, 0, 1, 1]), max_depth=1)
    assert tree.scale[0] == 4.0  # max |{1,2,8,9} - 5|
    assert not tree.uniform_distance[0]


def test_two_valued_split_is_flagged_uniform_distance():
    tree = train_tree(make_dataset([0, 0, 1, 1], [0, 0, 1, 1]), max_depth=1)
    assert tree.threshold[0] == 0.5
    assert tree.scale[0] == 0.5
    assert tree.uniform_distance[0]


def test_depth_limit_is_respected():
    rng = np.random.default_rng(0)
    rows = rng.uniform(0, 1, size=(200, 3))
    labels = (rows[:, 0] + rows[:, 1] > 1).astype(int)
    for depth in (1, 2, 4):
        tree = train_tree(Dataset([f"f{i}" for i in range(3)], ["numeric"] * 3, rows, labels), max_depth=depth)
        assert tree.max_depth <= depth


def test_min_samples_leaf_is_respected():
    data = make_dataset([1, 2, 3, 4, 5, 6], [0, 0, 0, 1, 1, 1])
    tree = train_tree(data, min_samples_leaf=3)
    leaves = tree.feature < 0
    assert (tree.class_counts[leaves].sum(axis=1) >= 3).all()


def test_leaf_counts_partition_training_set():
    rng = np.random.default_rng(3)
    rows = rng.uniform(0, 10, size=(97, 4))
    labels = rng.integers(0, 2, size=97)
    data = Dataset([f"f{i}" for i in range(4)], ["numeric"] * 4, rows, labels)
    tree = train_tree(data, max_depth=6)

    totals = tree.class_counts[tree.feature < 0].sum(axis=0)
    assert totals[0] == int((labels == 0).sum())
    assert totals[1] == int((labels == 1).sum())
    # every sample is routed to a leaf that counted it
    for i in range(len(rows)):
        node = 0
        while tree.feature[node] >= 0:
            node = tree.child[node, 0 if rows[i, tree.feature[node]] <= tree.threshold[node] else 1]
        assert tree.class_counts[node, labels[i]] > 0


def test_unrestricted_tree_reproduces_training_labels():
    rng = np.random.default_rng(8)
    rows = rng.uniform(0, 5, size=(60, 3)).round(2)
    labels = rng.integers(0, 2, size=60)
    # drop duplicate feature vectors so labels are a function of the row
    _, unique_idx = np.unique(rows, axis=0, return_index=True)
    rows, labels = rows[unique_idx], labels[unique_idx]
    data = Dataset(["a", "b", "c"], ["numeric"] * 3, rows, labels)
    tree = train_tree(data)
    preds = forest_votes_batch(Forest(trees=[tree], n_trees=1), rows)
    np.testing.assert_array_equal(preds, labels)


def test_prediction_boundary_and_dimension_checks():
    tree = train_tree(make_dataset([1, 2, 8, 9], [0, 0, 1, 1]), max_depth=1)
    assert predict_deterministic(tree, [3.0]) == 0
    assert predict_deterministic(tree, [5.0]) == 0  # boundary goes left
    assert predict_deterministic(tree, [5.0000001]) == 1
    with pytest.raises(ValueError, match="expects"):
        predict_deterministic(tree, [1.0, 2.0])


def test_forest_majority_vote_and_tie_break():
    trees = [make_tree(leaf(0, 1)) for _ in range(2)]
    trees.append(make_tree(leaf(1, 0)))
    forest = Forest(trees=trees, n_trees=3)
    assert predict_deterministic(forest, [0.0]) == 1  # votes {1,1,0}
    tie = Forest(trees=trees[1:] + [make_tree(leaf(1, 0))], n_trees=3)
    # votes {1,0,0} -> majority 0; explicit 2-vote tie also goes to 0
    assert predict_deterministic(tie, [0.0]) == 0
    even = Forest(trees=trees[:2] + [make_tree(leaf(1, 0)), make_tree(leaf(1, 0))], n_trees=4)
    assert predict_deterministic(even, [0.0]) == 0


def test_single_tree_forest_without_bootstrap_equals_train_tree():
    rng = np.random.default_rng(5)
    rows = rng.uniform(0, 10, size=(40, 3))
    labels = (rows[:, 1] > 5).astype(int)
    data = Dataset(["a", "b", "c"], ["numeric"] * 3, rows, labels)
    forest = train_forest(data, n_trees=1, bootstrap=False, rng_seed=123, max_depth=4)
    tree = train_tree(data, max_depth=4)
    assert serialize(forest.trees[0])["root"] == serialize(tree)["root"]


def test_forest_training_is_deterministic():
    rng = np.random.default_rng(6)
    rows = rng.uniform(0, 10, size=(50, 4))
    labels = (rows[:, 0] + rows[:, 2] > 10).astype(int)
    data = Dataset([f"f{i}" for i in range(4)], ["numeric"] * 4, rows, labels)
    kwargs = dict(n_trees=5, max_depth=4, features_per_split=2, rng_seed=99)
    assert dumps(train_forest(data, **kwargs)) == dumps(train_forest(data, **kwargs))
    other = train_forest(data, n_trees=5, max_depth=4, features_per_split=2, rng_seed=100)
    assert dumps(other) != dumps(train_forest(data, **kwargs))


def test_feature_subsampling_still_finds_valid_splits():
    # feature 0 is constant; the primary sampled feature may be useless, but
    # the search must fall through to an informative one
    rows = np.column_stack([np.zeros(20), np.arange(20.0)])
    labels = (np.arange(20) >= 10).astype(int)
    data = Dataset(["const", "x"], ["numeric", "numeric"], rows, labels)
    for seed in range(8):
        tree = train_tree(data, max_depth=1, features_per_split=1, rng_seed=seed)
        assert tree.feature[0] == 1


def brute_force_root_split(rows, labels, min_leaf=1):
    """Independent exhaustive enumeration of all (feature, threshold)
    candidates with the same canonical score and tie-breaks."""
    n, d = rows.shape
    total1 = int(labels.sum())
    best = None  # (score, feature, threshold)
    for f in range(d):
        distinct = sorted(set(rows[:, f].tolist()))
        for lo, hi in zip(distinct, distinct[1:]):
            t = (lo + hi) / 2.0
            mask = rows[:, f] <= t
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            c1l = int(labels[mask].sum())
            c0l = nl - c1l
            c1r = total1 - c1l
            c0r = nr - c1r
            score = (c0l * c0l + c1l * c1l) / nl + (c0r * c0r + c1r * c1r) / nr
            if best is None or score > best[0]:
                best = (score, f, t)
    return best


def test_root_split_matches_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(300):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        # small integer grids make score ties common
        rows = rng.integers(0, 4, size=(n, d)).astype(float)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        expected = brute_force_root_split(rows, labels)
        data = Dataset([f"f{i}" for i in range(d)], ["numeric"] * d, rows, labels)
        tree = train_tree(data, max_depth=1)
        if expected is None:
            assert tree.feature.tolist() == [-1]
            continue
        checked += 1
        assert tree.feature[0] == expected[1]
        assert tree.threshold[0] == expected[2]
    assert checked > 150


def test_batch_predictions_match_scalar():
    rng = np.random.default_rng(11)
    rows = rng.uniform(0, 10, size=(80, 3))
    labels = (rows[:, 0] > 5).astype(int)
    data = Dataset(["a", "b", "c"], ["numeric"] * 3, rows, labels)
    tree = train_tree(data, max_depth=5)
    queries = rng.uniform(0, 10, size=(200, 3))
    batch = forest_votes_batch(Forest(trees=[tree], n_trees=1), queries)
    scalar = np.array([predict_deterministic(tree, q) for q in queries])
    np.testing.assert_array_equal(batch, scalar)


def test_split_on_a_feature_beyond_n_features_is_rejected():
    tree = make_tree(internal(1, 0.0, 1.0, leaf(1, 0), leaf(0, 1)), n_features=2)
    with pytest.raises(ValueError, match="splits on feature 1 but has 1 features"):
        replace(tree, n_features=1)


def test_child_rows_that_loop_are_rejected():
    tree = make_tree(internal(0, 0.0, 1.0, leaf(1, 0), leaf(0, 1)))
    with pytest.raises(ValueError, match="do not form a tree"):
        replace(tree, child=[[0, 2], [0, 0], [0, 0]])  # node 0 is its own child
