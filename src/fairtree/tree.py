"""CART decision trees and bagged forests.

Binary labels only. Every internal node stores, besides the split, the
statistics probabilistic traversal needs: the largest training distance to
the threshold (``scale``), a flag marking nodes where that distance carried
no information (``uniform_distance``, e.g. splits on 0/1-encoded features),
and the majority training class of each child subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DataError

FeatureKind = Union[str, dict]  # "numeric" or {raw value: integer code}


@dataclass
class Dataset:
    """Fully numeric training matrix with binary labels."""

    feature_names: list
    feature_kinds: list
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.rows.ndim != 2:
            raise DataError("rows must be a 2-d matrix")
        if self.rows.shape[1] != len(self.feature_names):
            raise DataError(
                f"rows have {self.rows.shape[1]} columns but "
                f"{len(self.feature_names)} feature names were given"
            )
        if len(self.feature_kinds) != len(self.feature_names):
            raise DataError("feature_kinds length must match feature_names")
        if self.labels.shape != (self.rows.shape[0],):
            raise DataError("labels length must match row count")
        if self.rows.size and not np.isfinite(self.rows).all():
            raise DataError("non-finite feature value in dataset")
        if self.labels.size and not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise DataError(f"unknown feature {name!r}") from None


@dataclass
class LeafNode:
    class_counts: tuple
    predicted_class: int


@dataclass
class InternalNode:
    feature_index: int
    threshold: float
    scale: float
    uniform_distance: bool
    left_majority: int
    right_majority: int
    left: "TreeNode" = None
    right: "TreeNode" = None


TreeNode = Union[LeafNode, InternalNode]


@dataclass
class DecisionTree:
    root: TreeNode
    n_features: int
    class_labels: tuple = (0, 1)
    training_meta: dict = field(default_factory=dict)
    # flatten_tree's memo
    _flat: Optional["FlatTree"] = field(default=None, init=False, repr=False, compare=False)

    def depth(self) -> int:
        return _depth(self.root)


@dataclass
class Forest:
    trees: list
    n_trees: int
    bagging_meta: dict = field(default_factory=dict)
    # flatten_forest's memo
    _flat: Optional["FlatForest"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_trees != len(self.trees) or self.n_trees < 1:
            raise ValueError("forest requires n_trees == len(trees) >= 1")


def _depth(node: TreeNode) -> int:
    stack = [(node, 0)]
    best = 0
    while stack:
        n, d = stack.pop()
        if isinstance(n, LeafNode):
            best = max(best, d)
        else:
            stack.append((n.left, d + 1))
            stack.append((n.right, d + 1))
    return best


def _majority(count0: int, count1: int) -> int:
    # ties break toward class 0
    return 1 if count1 > count0 else 0


def _split_score(c0l, c1l, nl, c0r, c1r, nr):
    """Gini-equivalent score; larger is purer.

    Minimizing weighted Gini impurity is equivalent to maximizing
    sum(count^2)/n over both children. Counts are exact in float64, each
    term rounds once, so identical candidates score bit-identically no
    matter how they are enumerated.
    """
    return (c0l * c0l + c1l * c1l) / nl + (c0r * c0r + c1r * c1r) / nr


def _best_split_for_feature(values, ones_cumsum, order, min_leaf):
    """Best (score, threshold) split of one sorted feature, or None."""
    sv = values[order]
    n = sv.shape[0]
    cum1 = ones_cumsum
    total1 = int(cum1[-1])
    cut = np.nonzero(sv[:-1] != sv[1:])[0]
    if min_leaf > 1:
        cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
    if cut.size == 0:
        return None
    nl = cut + 1
    c1l = cum1[cut]
    c0l = nl - c1l
    nr = n - nl
    c1r = total1 - c1l
    c0r = nr - c1r
    score = _split_score(
        c0l.astype(np.float64),
        c1l.astype(np.float64),
        nl.astype(np.float64),
        c0r.astype(np.float64),
        c1r.astype(np.float64),
        nr.astype(np.float64),
    )
    j = int(np.argmax(score))  # first max -> smallest threshold on ties
    i = int(cut[j])
    threshold = (float(sv[i]) + float(sv[i + 1])) / 2.0
    return float(score[j]), threshold


def _find_split(X, y, indices, feature_order, n_primary, min_leaf):
    """Scan features in feature_order; extras beyond n_primary are only
    consulted when the primary block yields no valid split."""
    best = None  # (score, feature, threshold)
    yv = y[indices]
    for pos, f in enumerate(feature_order):
        if pos >= n_primary and best is not None:
            break
        values = X[indices, f]
        order = np.argsort(values, kind="stable")
        cand = _best_split_for_feature(values, np.cumsum(yv[order]), order, min_leaf)
        if cand is None:
            continue
        score, threshold = cand
        if best is None or score > best[0]:
            best = (score, int(f), threshold)
    return best


def _grow_tree(X, y, max_depth, min_leaf, features_per_split, rng):
    n_features = X.shape[1]
    all_features = np.arange(n_features)
    subsample = features_per_split is not None and features_per_split < n_features

    def order_for_node():
        if subsample:
            return rng.permutation(n_features), features_per_split
        return all_features, n_features

    root_holder = [None]
    stack = [(np.arange(X.shape[0]), 0, root_holder, 0)]
    while stack:
        indices, depth, parent, side = stack.pop()
        yv = y[indices]
        count1 = int(yv.sum())
        count0 = indices.shape[0] - count1
        node = None
        can_split = (
            count0 > 0
            and count1 > 0
            and (max_depth is None or depth < max_depth)
            and indices.shape[0] >= 2 * min_leaf
        )
        if can_split:
            feature_order, n_primary = order_for_node()
            found = _find_split(X, y, indices, feature_order, n_primary, min_leaf)
            if found is not None:
                _, f, threshold = found
                values = X[indices, f]
                mask = values <= threshold
                dist = np.abs(values - threshold)
                dmax = float(dist.max())
                dmin = float(dist.min())
                left_y = yv[mask]
                l1 = int(left_y.sum())
                l0 = int(left_y.shape[0]) - l1
                r1 = count1 - l1
                r0 = count0 - l0
                node = InternalNode(
                    feature_index=f,
                    threshold=threshold,
                    scale=dmax if dmax > 0.0 else 1.0,
                    uniform_distance=bool(dmax == dmin and dmax > 0.0),
                    left_majority=_majority(l0, l1),
                    right_majority=_majority(r0, r1),
                )
                # children are attached when their jobs run
                stack.append((indices[mask], depth + 1, node, 0))
                stack.append((indices[~mask], depth + 1, node, 1))
        if node is None:
            node = LeafNode(
                class_counts=(count0, count1),
                predicted_class=_majority(count0, count1),
            )
        if isinstance(parent, list):
            parent[0] = node
        elif side == 0:
            parent.left = node
        else:
            parent.right = node
    return root_holder[0]


def train_tree(
    data: Dataset,
    *,
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
    features_per_split: Optional[int] = None,
    rng_seed: int = 0,
) -> DecisionTree:
    """Grow a greedy CART tree minimizing Gini impurity.

    Thresholds are midpoints between adjacent sorted distinct values; ties
    between splits break toward the lower feature index, then the lower
    threshold. Deterministic given rng_seed (the rng only drives per-split
    feature subsampling).
    """
    if data.n_rows == 0:
        raise DataError("empty training set")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1 or None")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    if features_per_split is not None and features_per_split < 1:
        raise ValueError("features_per_split must be >= 1 or None")
    rng = np.random.default_rng(rng_seed)
    root = _grow_tree(
        data.rows, data.labels, max_depth, min_samples_leaf, features_per_split, rng
    )
    return DecisionTree(
        root=root,
        n_features=data.n_features,
        training_meta={
            "max_depth": max_depth,
            "min_samples_leaf": min_samples_leaf,
            "rng_seed": rng_seed,
        },
    )


def train_forest(
    data: Dataset,
    *,
    n_trees: int,
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
    features_per_split: Optional[int] = None,
    rng_seed: int = 0,
    bootstrap: bool = True,
) -> Forest:
    """Train a bagged ensemble; per-tree seeds derive from rng_seed."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    children = np.random.SeedSequence(rng_seed).spawn(n_trees)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        if bootstrap:
            idx = rng.integers(0, data.n_rows, data.n_rows)
            sub = Dataset(
                feature_names=data.feature_names,
                feature_kinds=data.feature_kinds,
                rows=data.rows[idx],
                labels=data.labels[idx],
            )
        else:
            sub = data
        tree_seed = int(rng.integers(0, 2**63))
        trees.append(
            train_tree(
                sub,
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                features_per_split=features_per_split,
                rng_seed=tree_seed,
            )
        )
    return Forest(
        trees=trees,
        n_trees=n_trees,
        bagging_meta={
            "bootstrap": bootstrap,
            "features_per_split": features_per_split,
            "rng_seed": rng_seed,
        },
    )


def _check_sample(sample, n_features):
    sample = np.asarray(sample, dtype=np.float64)
    if sample.shape != (n_features,):
        raise ValueError(
            f"sample has shape {sample.shape}; model expects ({n_features},)"
        )
    return sample


def predict_deterministic(model, sample):
    """Standard traversal: value <= threshold goes left. Forests take a
    majority vote over trees; ties go to class 0."""
    if isinstance(model, Forest):
        sample = _check_sample(sample, model.trees[0].n_features)
        votes = sum(predict_deterministic(t, sample) for t in model.trees)
        return 1 if 2 * votes > model.n_trees else 0
    sample = _check_sample(sample, model.n_features)
    node = model.root
    while isinstance(node, InternalNode):
        node = node.left if sample[node.feature_index] <= node.threshold else node.right
    return node.predicted_class


# Lanes per chunk of a batch walk. A lane is one root-to-leaf walk of one
# tree for one row (and, in Monte Carlo, one simulation); a chunk's
# transient arrays take a few MB at this size.
MAX_LANES = 2**15


@dataclass(frozen=True)
class FlatTree:
    """Array form of a tree for vectorized traversal. Index 0 is the root;
    leaves have feature == -1 and carry their class in leaf_class. Row i
    of child holds node i's (left, right) children and row i of majority
    their subtree majority classes. The arrays are read-only."""

    feature: np.ndarray
    threshold: np.ndarray
    scale: np.ndarray
    uniform_distance: np.ndarray
    child: np.ndarray
    majority: np.ndarray
    leaf_class: np.ndarray
    max_depth: int

    @property
    def left(self) -> np.ndarray:
        return self.child[:, 0]

    @property
    def right(self) -> np.ndarray:
        return self.child[:, 1]


def flatten_tree(tree: DecisionTree) -> FlatTree:
    """The tree's flat form, built on the first call and kept on the tree."""
    if tree._flat is None:
        tree._flat = _flatten(tree)
    return tree._flat


def _flatten(tree: DecisionTree) -> FlatTree:
    nodes = []
    stack = [tree.root]
    index = {}
    while stack:
        node = stack.pop()
        index[id(node)] = len(nodes)
        nodes.append(node)
        if isinstance(node, InternalNode):
            stack.append(node.right)
            stack.append(node.left)
    size = len(nodes)
    feature = np.full(size, -1, dtype=np.int32)
    threshold = np.zeros(size, dtype=np.float64)
    scale = np.ones(size, dtype=np.float64)
    uniform = np.zeros(size, dtype=bool)
    child = np.zeros((size, 2), dtype=np.int64)
    majority = np.zeros((size, 2), dtype=np.int8)
    leaf_class = np.zeros(size, dtype=np.int8)
    for i, node in enumerate(nodes):
        if isinstance(node, LeafNode):
            leaf_class[i] = node.predicted_class
        else:
            feature[i] = node.feature_index
            threshold[i] = node.threshold
            scale[i] = node.scale
            uniform[i] = node.uniform_distance
            child[i, 0] = index[id(node.left)]
            child[i, 1] = index[id(node.right)]
            majority[i, 0] = node.left_majority
            majority[i, 1] = node.right_majority
    if feature.max() >= tree.n_features:
        # batch walks read feature values by flat offset into each row
        raise ValueError(
            f"tree splits on feature {int(feature.max())} but has "
            f"{tree.n_features} features"
        )
    arrays = (feature, threshold, scale, uniform, child, majority, leaf_class)
    for array in arrays:
        array.flags.writeable = False
    return FlatTree(*arrays, max_depth=_depth(tree.root))


@dataclass(frozen=True)
class FlatForest:
    """The flat arrays of a forest's trees end to end. Node ids are global:
    tree t's root is root[t] and child rows hold global ids. safe_scale is
    a node's scale where that is positive and 1 elsewhere (unscaled)."""

    feature: np.ndarray
    threshold: np.ndarray
    safe_scale: np.ndarray
    unscaled: np.ndarray
    uniform_distance: np.ndarray
    child: np.ndarray
    majority: np.ndarray
    leaf_class: np.ndarray
    root: np.ndarray


def flatten_forest(forest: Forest) -> FlatForest:
    """The forest's flat form, built on the first call and kept on the forest."""
    if forest._flat is None:
        forest._flat = _join([flatten_tree(t) for t in forest.trees])
    return forest._flat


def _join(flats) -> FlatForest:
    root = np.cumsum([0] + [f.feature.size for f in flats[:-1]])

    def joined(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    scale = joined([f.scale for f in flats])
    scaled = scale > 0.0
    return FlatForest(
        feature=joined([f.feature for f in flats]),
        threshold=joined([f.threshold for f in flats]),
        safe_scale=np.where(scaled, scale, 1.0),
        unscaled=~scaled,
        uniform_distance=joined([f.uniform_distance for f in flats]),
        child=joined([f.child + r if r else f.child for f, r in zip(flats, root)]),
        majority=joined([f.majority for f in flats]),
        leaf_class=joined([f.leaf_class for f in flats]),
        root=root,
    )


def walk_lanes(forest: FlatForest, X: np.ndarray, lo: int, hi: int,
               lanes_per_row: int, flip=None) -> np.ndarray:
    """Leaf classes of lanes lo..hi-1 of a batch walk over a forest.

    Lane l walks tree l % n_trees for row l // lanes_per_row of X, a
    C-contiguous float64 matrix. Every lane starts at its tree's root and
    descends one level per step; a lane that reaches a leaf is written out
    and dropped from the working set. Before the lanes move at step k,
    ``flip(k, lane, node, feature, x, threshold, go_left)`` may reverse
    go_left in place; ``lane`` holds the working lanes' positions within
    the chunk (l - lo), ``x`` their feature values."""
    n_trees = forest.root.size
    lane = np.arange(lo, hi)
    node = forest.root[lane % n_trees]
    x_pos = lane // lanes_per_row * X.shape[1]
    lane -= lo
    x_flat = X.ravel()
    child = forest.child.ravel()
    out = np.empty(hi - lo, dtype=np.int8)
    feat = forest.feature[node]
    step = 0
    while True:
        done = feat < 0
        if done.any():
            out[lane[done]] = forest.leaf_class[node[done]]
            keep = np.flatnonzero(~done)
            lane, node, feat, x_pos = lane[keep], node[keep], feat[keep], x_pos[keep]
        if lane.size == 0:
            return out
        x = x_flat[x_pos + feat]
        threshold = forest.threshold[node]
        go_left = x <= threshold
        if flip is not None:
            flip(step, lane, node, feat, x, threshold, go_left)
        node = child[2 * node + ~go_left]
        feat = forest.feature[node]
        step += 1


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError("X must be (n_samples, n_features)")
    return X


def forest_votes_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Per-sample count of trees voting for class 1: the lane walk with no
    flip step, one lane per (row, tree)."""
    X = _check_matrix(X, forest.trees[0].n_features)
    flat = flatten_forest(forest)
    n_trees = forest.n_trees
    rows_per_chunk = max(1, MAX_LANES // n_trees)
    votes = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], rows_per_chunk):
        stop = min(X.shape[0], start + rows_per_chunk)
        leaves = walk_lanes(flat, X, start * n_trees, stop * n_trees, n_trees)
        votes[start:stop] = leaves.reshape(-1, n_trees).sum(axis=1)
    return votes


def predict_tree_batch(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Deterministic predictions for a matrix of samples."""
    return forest_votes_batch(Forest(trees=[tree], n_trees=1), X)


def predict_forest_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    votes = forest_votes_batch(forest, X)
    return (2 * votes > forest.n_trees).astype(np.int64)
