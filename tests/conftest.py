import numpy as np
import pytest

import fairtree.tree as tree_module
from fairtree.tree import Forest


def leaf(c0, c1):
    return {"kind": "leaf", "class_counts": [c0, c1]}


def internal(feature, threshold, scale, left, right, lmaj=0, rmaj=1, uniform=False):
    return {
        "kind": "internal",
        "feature_index": feature,
        "threshold": threshold,
        "scale": scale,
        "uniform_distance": uniform,
        "left_majority": lmaj,
        "right_majority": rmaj,
        "left": left,
        "right": right,
    }


def one_tree(n_features=1, training_meta=None, **arrays):
    """The one-tree Forest of the given node arrays."""
    return Forest.from_arrays(arrays, [len(arrays["feature"])], n_features,
                              [training_meta or {}], {})


def rebuild(tree, **changes):
    """A one-tree Forest of tree's node arrays (child with local ids),
    n_features and training_meta, each given in changes replaced."""
    arrays, _ = tree.node_arrays()
    return one_tree(**{"n_features": tree.n_features, "training_meta": tree.training_meta[0],
                       **arrays, **changes})


def make_tree(root, n_features=1, training_meta=None):
    """The one-tree Forest of a nested root node, its nodes numbered in
    level order as training numbers them. Leaves take training's fill
    values."""
    nodes, child = [root], []
    for node in nodes:  # nodes grows as it is read: a breadth-first walk
        if node["kind"] == "internal":
            child.append([len(nodes), len(nodes) + 1])
            nodes += [node["left"], node["right"]]
        else:
            child.append([0, 0])

    def column(key, fill, kind="internal"):
        return [node[key] if node["kind"] == kind else fill for node in nodes]

    return one_tree(
        feature=column("feature_index", -1),
        threshold=column("threshold", 0.0),
        scale=column("scale", 1.0),
        uniform_distance=column("uniform_distance", False),
        child=child,
        majority=np.column_stack([column("left_majority", 0), column("right_majority", 0)]),
        class_counts=column("class_counts", [0, 0], kind="leaf"),
        n_features=n_features,
        training_meta=training_meta,
    )


def depth1_tree(threshold=5.0, scale=4.0, n_features=1):
    """Left leaf class 0, right leaf class 1."""
    return make_tree(internal(0, threshold, scale, leaf(2, 0), leaf(0, 2)), n_features)


def random_tree(rng, n_features=4, max_depth=4, p_leaf=0.3, p_zero_scale=0.0,
                p_uniform=0.15):
    """Random valid tree for property tests; leaf predictions consistent
    with counts. Scales are positive, except that with p_zero_scale > 0
    each internal node has scale 0 with that chance. Each internal node is
    uniform_distance with chance p_uniform."""

    def grow(depth):
        if depth >= max_depth or rng.random() < p_leaf:
            c0, c1 = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            return leaf(c0, c1)
        feature = int(rng.integers(0, n_features))
        threshold = float(np.round(rng.uniform(-5, 5), 3))
        scale = float(np.round(rng.uniform(0.5, 5), 3))
        if p_zero_scale and rng.random() < p_zero_scale:
            scale = 0.0
        return internal(
            feature=feature,
            threshold=threshold,
            scale=scale,
            left=grow(depth + 1),
            right=grow(depth + 1),
            lmaj=int(rng.integers(0, 2)),
            rmaj=int(rng.integers(0, 2)),
            uniform=bool(rng.random() < p_uniform),
        )

    root = grow(0)
    if root["kind"] == "leaf":
        root = internal(0, 0.0, 1.0, leaf(1, 0), leaf(0, 1))
    return make_tree(root, n_features)


def full_uniform_tree(rng, depth, n_features=3):
    """A complete tree of the given depth, heap-ordered, whose every split
    is uniform-distance: every step of every walk draws."""
    n, n_leaves = 2**depth - 1, 2**depth
    ids = np.arange(n)
    return one_tree(
        feature=np.r_[rng.integers(0, n_features, n), np.full(n_leaves, -1)],
        threshold=np.r_[rng.uniform(-5, 5, n), np.zeros(n_leaves)],
        scale=np.ones(n + n_leaves),
        uniform_distance=np.r_[np.ones(n, dtype=bool), np.zeros(n_leaves, dtype=bool)],
        child=np.r_[np.c_[2 * ids + 1, 2 * ids + 2], np.zeros((n_leaves, 2), dtype=int)],
        majority=np.r_[rng.integers(0, 2, (n, 2)), np.zeros((n_leaves, 2), dtype=int)],
        class_counts=np.r_[np.zeros((n, 2), dtype=int), rng.integers(0, 5, (n_leaves, 2))],
        n_features=n_features,
    )


def chain_tree(depth, n_features=2):
    """depth uniform-distance splits on feature 1 at threshold 0, each
    sending x <= 0 on down the chain and x > 0 to a class-1 leaf; the
    chain ends in a class-0 leaf. At p_max p a row with x <= 0 reaches it
    with chance (1 - p)**depth."""
    root = leaf(1, 0)
    for _ in range(depth):
        root = internal(1, 0.0, 1.0, root, leaf(0, 1), uniform=True)
    return make_tree(root, n_features)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture
def rankings(monkeypatch):
    """The shapes (rows, columns) of the tables whose columns get ranked."""
    calls, rank = [], tree_module._rank_columns
    monkeypatch.setattr(tree_module, "_rank_columns",
                        lambda rows, labels: calls.append(rows.shape) or rank(rows, labels))
    return calls
