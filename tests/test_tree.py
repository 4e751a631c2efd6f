import copy
import hashlib
import itertools
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairtree.tree as tree_module
from fairtree.data import load_dataset, load_dataset_config
from fairtree.bench import ExperimentConfig
from fairtree.errors import ConfigError, DataError
from fairtree.model_io import SCHEMA, dumps, loads
from fairtree.rng import stream_key
from fairtree.tree import (
    Dataset,
    Forest,
    _split_score,
    bootstrap_counts,
    forest_votes_batch,
    predict_deterministic,
    predict_forest_batch,
    train_forest,
    train_tree,
    walk_lanes,
)

from conftest import chain_tree, depth1_tree, internal, leaf, make_tree, random_tree, rebuild
from reference import reference_votes, uniform_at


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
    # equal node arrays; the training_meta seeds differ
    assert all(np.array_equal(getattr(forest.trees[0], name), getattr(tree, name))
               for name, _, _ in tree_module._NODE_ARRAYS)
    assert all(np.array_equal(getattr(forest, name), getattr(tree, name))
               for name, _, _ in tree_module._NODE_ARRAYS)


def test_forest_training_is_deterministic():
    rng = np.random.default_rng(6)
    rows = rng.uniform(0, 10, size=(50, 4))
    labels = (rows[:, 0] + rows[:, 2] > 10).astype(int)
    data = Dataset([f"f{i}" for i in range(4)], ["numeric"] * 4, rows, labels)
    kwargs = dict(n_trees=5, max_depth=4, features_per_split=2, rng_seed=99)
    assert dumps(train_forest(data, **kwargs)) == dumps(train_forest(data, **kwargs))
    other = train_forest(data, n_trees=5, max_depth=4, features_per_split=2, rng_seed=100)
    assert dumps(other) != dumps(train_forest(data, **kwargs))


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("features_per_split", [None, 1, 3])
@pytest.mark.parametrize("max_depth", [None, 3])
def test_a_subset_fits_the_models_of_a_fresh_table_of_its_rows(
        bootstrap, features_per_split, max_depth, rankings):
    rng = np.random.default_rng(23)
    n = 200
    rows = np.column_stack([rng.integers(0, 30, n), rng.uniform(-1, 1, n),
                            rng.integers(0, 2, n), rng.integers(0, 500, n)]).astype(float)
    labels = ((rows[:, 0] > 12) ^ (rng.random(n) < 0.2)).astype(int)
    parent = Dataset([f"f{i}" for i in range(4)], ["numeric"] * 4, rows, labels)
    index = rng.choice(n, 120)  # some rows twice, some not at all
    part = parent.subset(index)
    fresh = Dataset(parent.feature_names, parent.feature_kinds, rows[index], labels[index])
    kwargs = dict(max_depth=max_depth, features_per_split=features_per_split)
    assert dumps(train_forest(part, n_trees=4, bootstrap=bootstrap, rng_seed=7, **kwargs)) == (
        dumps(train_forest(fresh, n_trees=4, bootstrap=bootstrap, rng_seed=7, **kwargs)))
    assert dumps(train_tree(part, rng_seed=3, **kwargs)) == (
        dumps(train_tree(fresh, rng_seed=3, **kwargs)))
    assert rankings == [(200, 4), (120, 4)]  # the subset gathered its parent's ranks
    # which have gaps where the subset lacks its parent's values
    assert (part.column_ranks[0].max(axis=1) > fresh.column_ranks[0].max(axis=1)).any()


def test_mutating_the_arrays_a_table_was_built_from_leaves_its_fits_unchanged():
    rng = np.random.default_rng(31)
    rows = rng.uniform(0, 10, (80, 3))
    labels = (rows[:, 0] > 5).astype(np.int64)
    expected = dumps(train_forest(make_dataset(rows.copy(), labels.copy()), n_trees=3))
    data = make_dataset(rows, labels)
    for _ in range(2):  # before the table is ranked, and after
        rows[:] = rows[::-1]
        labels ^= 1
        assert dumps(train_forest(data, n_trees=3)) == expected
    assert not data.rows.flags.writeable and not data.labels.flags.writeable


def test_a_subset_holds_the_rows_it_gathers_without_copying_them_again():
    # a census-shaped train split: the subset keeps its rows, labels and
    # gathered ranks; its transient peak stays near what it keeps
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 1000, (26_000, 14)).astype(float)
    data = make_dataset(rows, rng.integers(0, 2, 26_000))
    data.column_ranks  # ranked before the subset, which gathers the ranks
    tracemalloc.start()
    try:
        part = data.subset(rng.permutation(26_000))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = part.rows.nbytes + part.labels.nbytes + part.column_ranks[0].nbytes
    assert held <= kept < 1.05 * held
    assert peak < 1.15 * kept, (peak, kept)
    assert part.rows.base is None and not part.rows.flags.writeable


def test_a_table_ranks_its_columns_once_for_all_of_its_fits(rankings):
    data = make_dataset(np.arange(40.0).reshape(20, 2) % 7, np.arange(20) % 2)
    for seed in range(3):
        train_forest(data, n_trees=2, rng_seed=seed)
    assert rankings == [(20, 2)]


@pytest.mark.parametrize("setting, value", [
    ("max_depth", 2.5), ("min_samples_leaf", 1.5), ("max_depth", True),
    ("features_per_split", 1.5), ("n_trees", 2.0), ("n_trees", True)])
def test_growth_settings_that_are_not_integers_are_rejected(setting, value):
    data = make_dataset([1, 2, 8, 9], [0, 0, 1, 1])
    message = rf"^{setting} must be an integer, not {value!r}$"
    with pytest.raises(ValueError, match=message):
        train_forest(data, **{"n_trees": 2, setting: value})
    if setting != "n_trees":
        with pytest.raises(ValueError, match=message):
            train_tree(data, **{setting: value})
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{setting: value})


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


class RecordedTakes(np.ndarray):
    """An array that hands each take's indices to its on_take first."""

    def take(self, indices, *args, **kwargs):
        self.on_take(indices)
        return self.view(np.ndarray).take(indices, *args, **kwargs)


def bounded_walks(patch, walks: list):
    """Make forest_votes_batch's lane walks append to walks a list of each
    walk's steps, (working lanes, lanes at a leaf), and fail a walk past
    max_depth + 1 steps: a lane at a leaf that did not stay there would
    walk on forever. A walk takes the forest's column at its working
    lanes' nodes once a step, so it gets a copy of the forest whose column
    records them."""
    walk = tree_module.walk_lanes

    def bounded(forest, X, node, x_pos):
        steps = []
        walks.append(steps)

        def step(node):
            steps.append((node.size, int(np.count_nonzero(forest.feature[node] < 0))))
            assert len(steps) <= forest.max_depth + 1, "a lane walked past its leaf"

        watched = copy.copy(forest)
        watched.column = forest.column.view(RecordedTakes)
        watched.column.on_take = step
        return walk(watched, X, node, x_pos)

    patch.setattr(tree_module, "walk_lanes", bounded)


def random_votes_forest(rng):
    """A forest of 1 to 6 trees on 3 features, each a single leaf or a
    random tree of depth 1 to 8."""
    trees = [make_tree(leaf(*rng.integers(0, 4, 2)), n_features=3) if rng.random() < 0.2
             else random_tree(rng, n_features=3, max_depth=int(rng.integers(1, 9)),
                              p_leaf=rng.uniform(0.0, 0.5))
             for _ in range(rng.integers(1, 7))]
    return Forest(trees=trees, n_trees=len(trees))


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 16, tree_module.MAX_LANES]))
@settings(max_examples=150, deadline=None)
def test_forest_votes_equal_a_scalar_walk_of_each_tree(seed, max_lanes):
    # random forests and rows, some of whose values sit exactly on a
    # threshold, in chunks of max(1, max_lanes // T) rows
    rng = np.random.default_rng(seed)
    forest = random_votes_forest(rng)
    X = rng.uniform(-6, 6, size=(int(rng.integers(0, 30)), 3))
    on = rng.random(X.shape) < 0.2
    X[on] = rng.choice(forest.threshold, size=int(on.sum()))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "MAX_LANES", max_lanes)
        bounded_walks(patch, [])
        votes = forest_votes_batch(forest, X)
    assert votes.dtype == np.int64
    assert votes.tolist() == reference_votes(forest.trees, X)


def chain_forest(chains, leaves=0):
    """Chain trees (conftest.chain_tree) of the given lengths, then leaves
    single-leaf trees of class 1: a row with x[1] <= 0 reaches a chain's
    last leaf at the chain's length, one with x[1] > 0 a leaf at depth 1."""
    trees = [chain_tree(d) for d in chains] + [make_tree(leaf(0, 1), n_features=2)] * leaves
    return Forest(trees=trees, n_trees=len(trees))


@pytest.mark.parametrize("case", ["spread depths", "1,500-level chain", "single leaves",
                                  "zero rows"])
def test_forest_votes_equal_a_scalar_walk_at_the_edges(case, monkeypatch):
    # a lane stays at its leaf, which is its own child. Finished lanes are
    # written out and dropped at each step where they are at least a
    # quarter of the working lanes, and at no other; chunks of 3 rows, the
    # last of 2
    forest, x1 = {
        # at step 1, 1 of a row's 7 lanes with x[1] <= 0 is at a leaf, too
        # few to drop; at step 2, 2 of 7 are
        "spread depths": (chain_forest([1, 2, 3, 5, 8, 13], leaves=1), [-1.0, 0.0, 0.5]),
        "1,500-level chain": (chain_forest([1500, 2]), [-1.0, 0.0, 2.0]),
        "single leaves": (chain_forest([], leaves=3), [-1.0, 1.0]),
        "zero rows": (chain_forest([4, 1], leaves=1), []),
    }[case]
    n_rows = max(0, 3 * len(x1) - 1)
    X = np.column_stack([np.zeros(n_rows), np.resize(x1, n_rows)])
    monkeypatch.setattr(tree_module, "MAX_LANES", 3 * forest.n_trees)
    walks = []
    bounded_walks(monkeypatch, walks)
    assert forest_votes_batch(forest, X).tolist() == reference_votes(forest.trees, X)
    assert [steps[0][0] for steps in walks] == [3 * forest.n_trees] * (n_rows // 3) + (
        [(n_rows % 3) * forest.n_trees] if n_rows % 3 else [])
    fired = held = False
    for steps in walks:
        assert steps[-1][0] == steps[-1][1], "the walk ended with lanes still walking"
        for (lanes, at_leaf), (next_lanes, _) in zip(steps, steps[1:]):
            if 4 * at_leaf >= lanes:
                fired = True
                assert next_lanes == lanes - at_leaf
            else:
                held |= at_leaf > 0
                assert next_lanes == lanes
    if case == "spread depths":
        assert fired and held
    if case == "zero rows":  # forest_votes_batch walks no chunk; a walk of no lanes ends
        no_lanes = np.empty(0, dtype=np.int64)
        assert walk_lanes(forest, X, no_lanes, no_lanes).shape == (0,)


def test_split_on_a_feature_beyond_n_features_is_rejected():
    tree = make_tree(internal(1, 0.0, 1.0, leaf(1, 0), leaf(0, 1)), n_features=2)
    with pytest.raises(ValueError, match=r"^feature\[0\]: must be -1 .* = \[0, 1\)$"):
        rebuild(tree, n_features=1)


def test_forest_trees_must_agree_on_n_features():
    # the kernels read tree t's feature f of row i at offset i * F + f,
    # with F the first tree's feature count: a wider tree would read the
    # next row's values, or past the last row
    narrow = make_tree(leaf(1, 0), n_features=1)
    wide = make_tree(internal(2, 0.0, 1.0, leaf(1, 0), leaf(0, 1)), n_features=3)
    with pytest.raises(ValueError, match="forest trees disagree on n_features"):
        Forest(trees=[narrow, wide], n_trees=2)
    Forest(trees=[wide, rebuild(narrow, n_features=3)], n_trees=2)


def test_child_rows_that_loop_are_rejected():
    tree = make_tree(internal(0, 0.0, 1.0, leaf(1, 0), leaf(0, 1)))
    with pytest.raises(ValueError, match=r"^child\[0\]: an internal node's children must be in"):
        rebuild(tree, child=[[0, 2], [0, 0], [0, 0]])  # node 0 is its own child


# Malformed variants of depth1_tree (node 0 splits, nodes 1 and 2 are
# leaves). All but the last once built, predicted and saved into files that
# loading rejected; the last ended in an IndexError.
@pytest.mark.parametrize("change, message", [
    ({"majority": [[2, 1], [0, 0], [0, 0]]}, r"majority\[0\]: class ids must be 0 or 1"),
    ({"scale": [-1.0, 1.0, 1.0]}, r"scale\[0\]: must be >= 0"),
    ({"feature": [0, -5, -1]}, r"feature\[1\]: must be -1 \(a leaf\) or in"),
    ({"child": [[1, 1], [0, 0], [0, 0]]}, r"child\[0\]: names a child that is named more"),
    ({"feature": [-1, 0, -1], "child": [[0, 0], [0, 2], [0, 0]],
      "majority": [[0, 0], [0, 1], [0, 0]], "class_counts": [[1, 0], [0, 0], [0, 2]]},
     r"child\[1\]: an internal node's children must be in \(its id, 3\)"),
    ({"class_counts": [[0, 0], [-3, 0], [0, 2]]}, r"class_counts\[1\]: counts must be >= 0"),
    ({"child": [[1, 3], [0, 0], [0, 0]]},
     r"child\[0\]: an internal node's children must be in \(its id, 3\)"),
], ids=["majority 2", "scale -1", "feature -5", "a child named twice", "a child below its parent",
        "a negative class count", "a child past the last node"])
def test_a_malformed_tree_is_rejected_when_it_is_built(change, message):
    with pytest.raises(ValueError, match="^" + message):
        rebuild(depth1_tree(), **change)


# Values that the casts to the node arrays' dtypes once wrapped or truncated
# into a valid tree (feature 0, feature 0, majority 1), and n_features
# values that built trees whose files loading rejected.
@pytest.mark.parametrize("change, message", [
    ({"feature": np.array([2**32, -1, -1])}, r"feature\[0\]: must fit int32$"),
    ({"feature": np.array([0.9, -1.0, -1.0])}, r"feature: expected int32 values, not float64$"),
    ({"feature": [0.9, -1, -1]}, r"feature: expected int32 values, not float64$"),
    ({"majority": np.array([[257, 1], [0, 0], [0, 0]])}, r"majority\[0\]: must fit int8$"),
    ({"n_features": 0}, r"n_features: must be >= 1$"),
    ({"n_features": True}, r"n_features: expected an integer$"),
    ({"n_features": 2.0}, r"n_features: expected an integer$"),
], ids=["feature 2**32", "float feature 0.9", "a list holding 0.9", "majority 257",
        "n_features 0", "n_features True", "n_features 2.0"])
def test_a_value_that_does_not_fit_its_field_is_rejected(change, message):
    with pytest.raises(ValueError, match="^" + message):
        rebuild(depth1_tree(), **change)


def test_a_numpy_integer_n_features_is_taken_and_stored_as_an_int():
    tree = depth1_tree(n_features=np.int64(2))
    assert tree.n_features == 2 and type(tree.n_features) is int
    arrays, _ = tree.node_arrays()
    forest = Forest.from_arrays(arrays, [3], np.int32(2), [{}], {})
    assert type(forest.n_features) is int and type(forest.trees[0].n_features) is int
    assert dumps(forest) == dumps(Forest(trees=[tree], n_trees=1))


@given(st.integers(0, 2**32 - 1), st.sampled_from(tree_module._NODE_ARRAYS), st.data())
@settings(max_examples=300, deadline=None)
def test_a_tree_that_builds_round_trips_through_its_model_file(seed, node_array, data):
    # one entry of one node array of a valid tree changed to any value of
    # the array's dtype: the tree is rejected, or its model file loads
    name, dtype, shape = node_array
    tree = random_tree(np.random.default_rng(seed), n_features=3, max_depth=3)
    array = tree.node_arrays()[0][name].copy()
    at = (data.draw(st.integers(0, array.shape[0] - 1)),) + tuple(
        data.draw(st.integers(0, size - 1)) for size in shape)
    kind = np.dtype(dtype).kind
    if kind == "f":
        value = data.draw(st.floats())
    elif kind == "b":
        value = data.draw(st.booleans())
    else:
        info = np.iinfo(dtype)
        value = data.draw(st.integers(-2, array.shape[0] + 1) | st.integers(info.min, info.max))
    array[at] = value
    try:
        changed = rebuild(tree, **{name: array})
    except ValueError:
        return
    assert loads(dumps(changed)) == changed


@pytest.mark.parametrize("kind", ["trained", "loaded", "one tree", "built"])
def test_a_forests_trees_become_read_only_views_of_its_arrays(kind):
    rng = np.random.default_rng(12)
    rows = rng.uniform(0, 10, size=(60, 3))
    data = Dataset(["a", "b", "c"], ["numeric"] * 3, rows, (rows[:, 0] > rows[:, 1]).astype(int))
    text = dumps(train_forest(data, n_trees=3, max_depth=4, rng_seed=2))
    given = [random_tree(rng, n_features=3, max_depth=4) for _ in range(3)]
    built = {"trained": lambda: train_forest(data, n_trees=3, max_depth=4, rng_seed=2),
             "loaded": lambda: loads(text),
             "one tree": lambda: train_forest(data, n_trees=1, max_depth=4),
             "built": lambda: Forest(trees=given, n_trees=3)}[kind]()
    # each tree equals the tree built, and checked, on its own from copies of its arrays
    alone = [rebuild(t, **{name: array.copy() for name, array in t.node_arrays()[0].items()},
                     training_meta=copy.deepcopy(t.training_meta[0]))
             for t in built.trees]
    assert built.trees == alone
    assert Forest(trees=built.trees, n_trees=built.n_trees, bagging_meta=built.bagging_meta) == built
    if kind == "built":  # the given trees are left as they were
        assert alone == given
        assert all(g.feature.base is not built.feature for g in given)
    for tree, one in zip(built.trees, alone):
        assert tree.n_trees == 1 and tree.max_depth == one.max_depth
        assert tree.n_leaves == one.n_leaves
        for name in ("leaf_class", "flip_divisor", "column", "child", "root"):
            np.testing.assert_array_equal(getattr(tree, name), getattr(one, name), err_msg=name)
            assert getattr(tree, name).dtype == getattr(one, name).dtype, name
    assert built.max_depth == max(t.max_depth for t in alone)
    assert built.n_leaves == sum(int(np.count_nonzero(t.feature < 0)) for t in alone)
    assert [dumps(t) for t in built.trees] == [dumps(t) for t in alone]
    if kind in ("trained", "loaded"):
        assert dumps(built) == text
    joined = [name for name, value in vars(built).items()
              if isinstance(value, np.ndarray) and name not in ("child", "root")]
    # the node arrays but child, leaf_class, flip_divisor and column: no
    # array of the trees' local child ids is kept
    assert len(joined) == 9
    # the forest-only column is feature as int64
    assert not built.column.flags.writeable and built.column.dtype == np.int64
    np.testing.assert_array_equal(built.column, built.feature)
    for tree, root in zip(built.trees, built.root):
        for name in joined:
            array = getattr(tree, name)
            assert not array.flags.writeable and array.base is getattr(built, name), name
        # a tree's child is the forest's rebased to local ids: a leaf's row
        # holds the leaf's own id twice in both
        assert not tree.child.flags.writeable and tree.child.base is not built.child
        ids = root + np.arange(tree.feature.size)
        leaf, rows = tree.feature < 0, built.child[ids]
        np.testing.assert_array_equal(rows, tree.child + root)
        np.testing.assert_array_equal(rows[leaf], np.repeat(ids[leaf, None], 2, axis=1))


def test_a_child_in_the_next_trees_ids_is_rejected_naming_its_tree():
    # joined, tree 0's 3 nodes take ids 0-2 and tree 1's 3-5: tree 0's
    # child 3 lies past its own nodes but inside tree 1's ids
    broken, fine = depth1_tree(), depth1_tree()
    broken.child = np.array([[1, 3], [1, 1], [2, 2]])  # set after the tree's own check
    arrays = {name: np.concatenate([a, b]) for (name, a), b in zip(
        broken.node_arrays()[0].items(), fine.node_arrays()[0].values())}
    message = r"^trees\[0\]\.child\[0\]: an internal node's children must be in \(its id, 3\)$"
    with pytest.raises(ValueError, match=message):
        Forest.from_arrays(arrays, [3, 3], 1, [{}, {}], {})
    with pytest.raises(ValueError, match=message):
        Forest(trees=[broken, fine], n_trees=2)
    with pytest.raises(ValueError, match=message.replace("0", "1", 1)):
        Forest(trees=[fine, broken], n_trees=2)


@pytest.mark.parametrize("variant", ["one row short", "one row long", "wrong per-node shape"])
@pytest.mark.parametrize("name", [name for name, _, _ in tree_module._NODE_ARRAYS])
def test_node_arrays_whose_shape_differs_from_features_are_rejected(name, variant):
    tree = depth1_tree()
    array = tree.node_arrays()[0][name]
    bad = {"one row short": array[:-1],
           "one row long": np.concatenate([array, array[:1]]),
           "wrong per-node shape": array[:, 0] if array.ndim == 2 else np.c_[array, array]}[variant]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        rebuild(tree, **{name: bad})


def test_a_tree_without_nodes_is_rejected():
    tree = depth1_tree()
    empty = {name: getattr(tree, name)[:0] for name, _, _ in tree_module._NODE_ARRAYS}
    with pytest.raises(ValueError, match="feature has 0 nodes; a tree has at least one"):
        rebuild(tree, **empty)


def test_a_class_counts_row_beyond_the_nodes_is_rejected_when_the_tree_is_built():
    # an extra row would shift the leaf classes of every tree joined after
    # this one: placed before a correct copy of itself, the forest would
    # vote [0, 0] on rows [[0.], [1.]], where each tree alone votes 0, then 1
    tree = depth1_tree(threshold=0.5, scale=0.5)
    assert predict_forest_batch(Forest(trees=[tree, rebuild(tree)], n_trees=2),
                                [[0.0], [1.0]]).tolist() == [0, 1]
    with pytest.raises(ValueError, match="node array class_counts has shape"):
        rebuild(tree, class_counts=np.r_[tree.class_counts, [[0, 1]]])


# The depth-first, node-at-a-time CART grower that level-wise training
# replaced, kept as the reference it must equal. Node (depth-first) search
# per feature: argsort the node's values, score every cut between distinct
# values. A subsampled node orders features by its keyed draws.


def _reference_feature_split(values, labels, min_leaf):
    """Best (score, value below, value above) cut of one feature of a node,
    or None."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cum1 = np.cumsum(labels[order])
    n = sv.shape[0]
    cut = np.nonzero(sv[:-1] != sv[1:])[0]
    if min_leaf > 1:
        cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
    if cut.size == 0:
        return None
    nl = cut + 1
    c1l = cum1[cut]
    nr = n - nl
    c1r = int(cum1[-1]) - c1l
    score = _split_score(*(a.astype(np.float64) for a in (nl - c1l, c1l, nl, nr - c1r, c1r, nr)))
    j = int(np.argmax(score))
    return float(score[j]), float(sv[cut[j]]), float(sv[cut[j] + 1])


def reference_tree(data, rows, *, max_depth=None, min_samples_leaf=1,
                   features_per_split=None, rng_seed=0, events=None):
    """The tree grown depth first on the given rows.
    events, a Counter, tallies searches that fell through to features
    beyond the drawn ones and midpoints that rounded onto the upper value."""
    X, y = data.rows, data.labels
    n_features = data.n_features
    subsample = features_per_split is not None and features_per_split < n_features

    def grow(indices, depth, path):
        yv = y[indices]
        count1 = int(yv.sum())
        count0 = indices.size - count1
        found = None  # (score, feature, value below, value above)
        if (count0 > 0 and count1 > 0 and (max_depth is None or depth < max_depth)
                and indices.size >= 2 * min_samples_leaf):
            order, n_primary = list(range(n_features)), n_features
            if subsample:
                key = stream_key(rng_seed, *path)
                order = sorted(order, key=lambda f: uniform_at(key, f))
                n_primary = features_per_split
            for pos, f in enumerate(order):
                if pos >= n_primary and found is not None:
                    if events is not None:
                        events["fall_through"] += 1
                    break
                cand = _reference_feature_split(X[indices, f], yv, min_samples_leaf)
                if cand is not None and (found is None or cand[0] > found[0]):
                    found = (cand[0], f) + cand[1:]
        if found is None:
            return leaf(count0, count1)
        _, f, below, above = found
        threshold = (below + above) / 2.0
        if threshold == above:
            if events is not None:
                events["midpoint_on_upper_value"] += 1
            threshold = below
        values = X[indices, f]
        mask = values <= threshold
        dist = np.abs(values - threshold)
        dmax, dmin = float(dist.max()), float(dist.min())
        l1 = int(yv[mask].sum())
        l0 = int(mask.sum()) - l1
        return internal(
            f, threshold, dmax if dmax > 0.0 else 1.0,
            grow(indices[mask], depth + 1, path + (0,)),
            grow(indices[~mask], depth + 1, path + (1,)),
            lmaj=int(l1 > l0), rmaj=int(count1 - l1 > count0 - l0),
            uniform=bool(dmax == dmin and dmax > 0.0),
        )

    return make_tree(grow(np.asarray(rows), 0, ()), n_features,
                     training_meta={"max_depth": max_depth, "min_samples_leaf": min_samples_leaf,
                                    "rng_seed": rng_seed})


def reference_forest(data, *, n_trees, bootstrap=True, rng_seed=0, events=None, **kwargs):
    """The trees of train_forest grown one at a time by the reference, on
    train_forest's bootstrap rows and tree seeds."""
    trees = []
    for child in np.random.SeedSequence(rng_seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, data.n_rows, data.n_rows) if bootstrap else np.arange(data.n_rows)
        trees.append(reference_tree(data, rows, rng_seed=int(rng.integers(0, 2**63)),
                                    events=events, **kwargs))
    return trees


def random_training_data(rng):
    """Small tables whose columns exercise the split search's edge cases:
    ties on integer grids, 0/1 columns, constant and duplicate columns,
    adjacent floats (whose midpoint can round onto the upper value), one
    column only, and single-class labels."""
    n = int(rng.integers(1, 70))
    n_features = int(rng.integers(1, 6))
    columns = []
    for _ in range(n_features):
        kind = rng.integers(0, 6)
        if kind == 0:
            column = rng.uniform(-3, 3, n)
        elif kind == 1:
            column = rng.integers(0, 4, n).astype(float)
        elif kind == 2:
            column = rng.integers(0, 2, n).astype(float)
        elif kind == 3:
            column = np.full(n, float(rng.integers(-2, 3)))
        elif kind == 4 and columns:
            column = columns[int(rng.integers(0, len(columns)))].copy()
        else:
            # consecutive floats above 1 + 2**-52: sums of neighbours round
            # half to even, so some midpoints equal the upper value
            column = 1.0 + rng.integers(1, 5, n) * 2.0**-52
        columns.append(column)
    labels = rng.integers(0, 2, n)
    if rng.random() < 0.1:
        labels[:] = labels[0]
    elif rng.random() < 0.5:
        # labels that follow a column, so trees grow deeper than noise allows
        labels = (columns[0] + rng.normal(0, 0.5, n) > np.median(columns[0])).astype(int)
    return Dataset([f"f{i}" for i in range(n_features)], ["numeric"] * n_features,
                   np.column_stack(columns), labels)


@pytest.mark.parametrize("grow_block, wide", [
    pytest.param(block, wide, id=f"{block}{suffix}")
    for block in (2**15, 50, 1) for wide, suffix in ((False, ""), (True, "-int64"))])
def test_level_wise_growth_equals_the_depth_first_reference(grow_block, wide, monkeypatch):
    # small blocks split a level's search into many blocks, and a forest's
    # trees into several groups grown together. These small tables' search
    # keys fit in int32 and their node ids in uint16; forcing int64 for
    # both runs the same cases on the wide paths
    monkeypatch.setattr(tree_module, "GROW_BLOCK", grow_block)
    widths, rule = Counter(), tree_module._narrowest

    def width(bits, dtypes):
        dtype = np.dtype(np.int64 if wide else rule(bits, dtypes))
        widths[dtype.name] += 1
        return dtype

    monkeypatch.setattr(tree_module, "_narrowest", width)
    rng = np.random.default_rng(20250106 + grow_block)
    events = Counter()
    for case in range(60):
        data = random_training_data(rng)
        kwargs = dict(
            max_depth=[None, 1, 2, 3, 6][int(rng.integers(0, 5))],
            min_samples_leaf=[1, 1, 2, 3, 5][int(rng.integers(0, 5))],
            features_per_split=[None, 1, 1, 2, 3][int(rng.integers(0, 5))],
        )
        n_trees = int(rng.integers(1, 6))
        bootstrap = bool(rng.random() < 0.7)
        forest = train_forest(data, n_trees=n_trees, bootstrap=bootstrap, rng_seed=case, **kwargs)
        expected = reference_forest(data, n_trees=n_trees, bootstrap=bootstrap, rng_seed=case,
                                    events=events, **kwargs)
        for trained, ref in zip(forest.trees, expected):
            assert trained == ref, (case, kwargs)
            assert loads(dumps(trained)) == trained
            events["different_depths"] += trained.max_depth != forest.trees[0].max_depth
        seed = int(rng.integers(0, 2**63))
        tree = train_tree(data, rng_seed=seed, **kwargs)
        assert tree == reference_tree(data, np.arange(data.n_rows), rng_seed=seed, **kwargs)
    # the cases reach the search's rarer branches
    assert events["fall_through"] >= 50
    assert events["different_depths"] >= 10
    assert events["midpoint_on_upper_value"] >= 20
    assert set(widths) == ({"int64"} if wide else {"int32", "uint16"})


@pytest.mark.parametrize("grow_block, wide", [(2**15, False), (1, False), (2**15, True)],
                         ids=["one-group", "a-group-a-tree", "int64"])
def test_growth_on_counted_rows_equals_the_reference_on_the_rows_repeated(
        grow_block, wide, monkeypatch):
    # each tree grows on its distinct rows weighted by counts of up to 8,
    # the reference on each row repeated count times. Grown as one group,
    # the trees share the widest count field; one tree a group, each has
    # its own, none where its counts are all 1
    monkeypatch.setattr(tree_module, "GROW_BLOCK", grow_block)
    if wide:
        monkeypatch.setattr(tree_module, "_narrowest", lambda bits, dtypes: np.dtype(np.int64))
    rng = np.random.default_rng(20251021)
    most = Counter()
    for case in range(48):
        data = random_training_data(rng)
        growth = ([None, 2, 4][case % 3], [1, 3][case % 2], [None, 1, 2][int(rng.integers(0, 3))])
        trees = []
        for _ in range(int(rng.integers(1, 4))):
            top = int(rng.integers(1, 9))
            counts = rng.integers(0, top + 1, data.n_rows)  # 0: a row the tree leaves out
            counts[rng.integers(0, data.n_rows)] = top
            trees.append((counts, int(rng.integers(0, 2**63))))
            most[top] += 1
        forest = tree_module._grow(data, trees, *growth)
        for trained, (counts, seed) in zip(forest.trees, trees):
            rows = np.repeat(np.arange(data.n_rows), counts)
            assert trained == reference_tree(data, rows, max_depth=growth[0],
                                             min_samples_leaf=growth[1],
                                             features_per_split=growth[2], rng_seed=seed), case
    assert set(most) == set(range(1, 9))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_rows=st.integers(1, 200), n_trees=st.integers(1, 6),
       bootstrap=st.booleans())
def test_bootstrap_counts_are_the_rows_and_seeds_each_tree_draws(seed, n_rows, n_trees,
                                                                 bootstrap):
    # tree t draws its rows, then its seed, from child t of the forest's seed sequence
    meta = {"bootstrap": bootstrap, "features_per_split": None, "rng_seed": seed}
    got = list(itertools.islice(bootstrap_counts(meta, n_rows), n_trees))
    for (counts, tree_seed), child in zip(got, np.random.SeedSequence(seed).spawn(n_trees)):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n_rows, n_rows) if bootstrap else np.arange(n_rows)
        assert np.array_equal(counts, np.bincount(rows, minlength=n_rows))
        assert tree_seed == int(rng.integers(0, 2**63))
    data = make_dataset(np.arange(n_rows) % 7, np.arange(n_rows) % 2)
    forest = train_forest(data, n_trees=n_trees, max_depth=1, bootstrap=bootstrap, rng_seed=seed)
    assert forest.bagging_meta == meta
    assert [meta["rng_seed"] for meta in forest.training_meta] == [s for _, s in got]


def test_midpoint_that_rounds_onto_the_upper_value_is_not_used():
    # (1 + 2**-52 + 1 + 2**-51) / 2 rounds half to even onto 1 + 2**-51:
    # as a threshold it would send both rows left, and the left child would
    # split the same way again down to max_depth
    below, above = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert (below + above) / 2.0 == above
    tree = train_tree(make_dataset([below, above], [0, 1]), max_depth=50)
    assert tree.max_depth == 1
    assert tree.threshold[0] == below
    assert tree.class_counts.tolist() == [[0, 0], [1, 0], [0, 1]]


FIXTURE = Path(__file__).parent.parent / "fixtures" / "synthetic.json"


def test_all_features_models_are_unchanged():
    # digests of model_io.dumps: a tree that searches every feature at every
    # node has no feature draws, so its bytes must not change. Recorded
    # before training became level-wise with keyed feature draws, and again
    # in fairtree-model/2 from the same node arrays. A tree now saves as a
    # forest of one, whose one tree document, as a "kind": "tree" document,
    # has the tree's recorded digest
    data = load_dataset(load_dataset_config(str(FIXTURE)))
    tree = train_tree(data, rng_seed=0)
    forest = train_forest(data, n_trees=3, max_depth=8, bootstrap=False, rng_seed=5)
    doc = json.loads(dumps(tree))
    assert doc["kind"] == "forest" and doc["n_trees"] == 1 and doc["bagging_meta"] == {}
    tree_doc = {"schema": SCHEMA, "kind": "tree", **doc["trees"][0]}
    assert hashlib.sha256((json.dumps(tree_doc, sort_keys=True) + "\n").encode()).hexdigest() == (
        "ba42bfefd3489ef9a05dcfaac555fc17ddaca4af1d2778f59ba2361e2fe03eec")
    assert loads(json.dumps(tree_doc)) == tree
    assert hashlib.sha256(dumps(forest).encode()).hexdigest() == (
        "858dddb2683d89c885ccea545881c75f85b60c0baa35eb3b552ed83e901d103f")


def test_a_fit_without_bootstrap_is_unchanged_array_for_array():
    # every count is 1, so the search keys hold no count field. Digests of
    # each node array (trees joined), recorded when trees grew on their rows
    # repeated as drawn
    data = load_dataset(load_dataset_config(str(FIXTURE)))
    forest = train_forest(data, n_trees=3, min_samples_leaf=3, features_per_split=2,
                          bootstrap=False, rng_seed=11)
    digests = {name: hashlib.sha256(array.tobytes()).hexdigest()[:16]
               for name, array in forest.node_arrays()[0].items()}
    assert digests == {
        "feature": "b2ae1f5813cca957",
        "threshold": "d86acc3a7103b09b",
        "scale": "e29a124bc6ab74cd",
        "uniform_distance": "1693471443b69efe",
        "child": "00581fa4ec75f458",
        "majority": "70cd3792208be348",
        "class_counts": "0db23c5c421912bb",
    }


def test_transient_memory_of_a_forest_fit_is_bounded():
    # a census-shaped table: 26,000 rows, 14 columns from binary to
    # near-continuous. The grower works in blocks of GROW_BLOCK samples, so
    # its transient peak must not grow with the number of trees
    rng = np.random.default_rng(0)
    n = 26_000
    cardinality = [74, 9, 16, 16, 7, 15, 6, 5, 2, 120, 90, 99, 41, 1_000_000]
    rows = np.column_stack([rng.integers(0, c, n) for c in cardinality]).astype(float)
    labels = ((rows[:, 0] > 40) & (rows[:, 3] > 8) | (rng.random(n) < 0.1)).astype(int)
    data = Dataset([f"f{i}" for i in range(14)], ["numeric"] * 14, rows, labels)
    for n_trees in (1, 4):
        tracemalloc.start()
        try:
            forest = train_forest(data, n_trees=n_trees, features_per_split=3, rng_seed=1)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(forest.trees) == n_trees
        assert peak - retained < 6e6, (n_trees, peak - retained)
