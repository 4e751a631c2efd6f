"""CART decision trees and bagged forests.

Binary labels only. Every internal node stores, besides the split, the
statistics probabilistic traversal needs: the largest training distance to
the threshold (``scale``), a flag marking nodes where that distance carried
no information (``uniform_distance``, e.g. splits on 0/1-encoded features),
and the majority training class of each child subtree. A tree is held as
parallel node arrays (``DecisionTree``), the one form that training, model
I/O and every traversal read.
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


# (name, dtype) of the node arrays a DecisionTree is built from
_NODE_ARRAYS = (
    ("feature", np.int32),
    ("threshold", np.float64),
    ("scale", np.float64),
    ("uniform_distance", bool),
    ("child", np.int64),
    ("majority", np.int8),
    ("class_counts", np.int64),
)


@dataclass(eq=False)
class DecisionTree:
    """A tree as parallel node arrays. Node 0 is the root. Internal node i
    sends values <= threshold[i] of feature[i] left; row i of child holds
    its (left, right) children and row i of majority their subtrees'
    majority classes. Leaves have feature == -1, a zero child row and
    their training class counts in class_counts (zero at internal nodes);
    leaf_class is the leaf's majority class, ties to 0. depth[i] is node
    i's distance from the root in edges and max_depth the longest
    root-to-leaf path. The arrays are read-only."""

    feature: np.ndarray
    threshold: np.ndarray
    scale: np.ndarray
    uniform_distance: np.ndarray
    child: np.ndarray
    majority: np.ndarray
    class_counts: np.ndarray
    n_features: int
    class_labels: tuple = (0, 1)
    training_meta: dict = field(default_factory=dict)
    leaf_class: np.ndarray = field(init=False, repr=False)
    depth: np.ndarray = field(init=False, repr=False)
    max_depth: int = field(init=False)

    def __post_init__(self):
        for name, dtype in _NODE_ARRAYS:
            setattr(self, name, _read_only(np.array(getattr(self, name), dtype=dtype)))
        if self.feature.max() >= self.n_features:
            # batch walks read feature values by flat offset into each row
            raise ValueError(
                f"tree splits on feature {int(self.feature.max())} but has "
                f"{self.n_features} features"
            )
        counts = self.class_counts
        self.leaf_class = _read_only((counts[:, 1] > counts[:, 0]).astype(np.int8))
        node_depth = np.zeros(self.feature.size, dtype=np.int32)
        depth, level, reached = 0, np.zeros(1, dtype=np.int64), 1
        while True:
            level = level[self.feature[level] >= 0]
            if level.size == 0:
                break
            level = self.child[level].ravel()
            reached += level.size
            if reached > self.feature.size:
                # a tree reaches each node once; a cycle would never end
                raise ValueError("child rows do not form a tree")
            depth += 1
            node_depth[level] = depth
        self.depth = _read_only(node_depth)
        self.max_depth = depth

    def __eq__(self, other):
        if not isinstance(other, DecisionTree):
            return NotImplemented
        return (
            self.n_features == other.n_features
            and tuple(self.class_labels) == tuple(other.class_labels)
            and self.training_meta == other.training_meta
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name, _ in _NODE_ARRAYS)
        )

    @property
    def left(self) -> np.ndarray:
        return self.child[:, 0]

    @property
    def right(self) -> np.ndarray:
        return self.child[:, 1]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_tree(root, expand, n_features: int, **kwargs) -> DecisionTree:
    """Build a DecisionTree depth first from the root's job. expand(job)
    returns (None, (count0, count1)) for a leaf, or ((feature, threshold,
    scale, uniform_distance, left majority, right majority), (left job,
    right job)) for a split. The right job runs first, and nodes are
    numbered in the order their jobs run."""
    nodes, child = [], []  # child holds each node's left and right ids in turn
    stack = [(root, -1, 0)]
    while stack:
        job, parent, side = stack.pop()
        node = len(nodes)
        if parent >= 0:
            child[2 * parent + side] = node
        child += (0, 0)
        split, rest = expand(job)
        if split is None:
            nodes.append((-1, 0.0, 1.0, False, 0, 0) + rest)
        else:
            nodes.append(split + (0, 0))
            stack.append((rest[0], node, 0))
            stack.append((rest[1], node, 1))
    feature, threshold, scale, uniform, lmaj, rmaj, count0, count1 = zip(*nodes)
    return DecisionTree(feature, threshold, scale, uniform, np.reshape(child, (-1, 2)),
                        np.column_stack([lmaj, rmaj]), np.column_stack([count0, count1]),
                        n_features, **kwargs)


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


def _expand_step(X, y, max_depth, min_leaf, features_per_split, rng):
    """build_tree's expand step for CART growth; a job is (row indices,
    depth)."""
    n_features = X.shape[1]
    all_features = np.arange(n_features)
    subsample = features_per_split is not None and features_per_split < n_features

    def order_for_node():
        if subsample:
            return rng.permutation(n_features), features_per_split
        return all_features, n_features

    def expand(job):
        indices, depth = job
        yv = y[indices]
        count1 = int(yv.sum())
        count0 = indices.shape[0] - count1
        found = None
        can_split = (
            count0 > 0
            and count1 > 0
            and (max_depth is None or depth < max_depth)
            and indices.shape[0] >= 2 * min_leaf
        )
        if can_split:
            feature_order, n_primary = order_for_node()
            found = _find_split(X, y, indices, feature_order, n_primary, min_leaf)
        if found is None:
            return None, (count0, count1)
        _, f, threshold = found
        values = X[indices, f]
        mask = values <= threshold
        dist = np.abs(values - threshold)
        dmax = float(dist.max())
        dmin = float(dist.min())
        left_y = yv[mask]
        l1 = int(left_y.sum())
        l0 = int(left_y.shape[0]) - l1
        split = (
            f,
            threshold,
            dmax if dmax > 0.0 else 1.0,
            bool(dmax == dmin and dmax > 0.0),
            _majority(l0, l1),
            _majority(count0 - l0, count1 - l1),
        )
        return split, ((indices[mask], depth + 1), (indices[~mask], depth + 1))

    return expand


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
    expand = _expand_step(
        data.rows, data.labels, max_depth, min_samples_leaf, features_per_split, rng
    )
    return build_tree(
        (np.arange(data.n_rows), 0),
        expand,
        data.n_features,
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
    node = 0
    while model.feature[node] >= 0:
        node = model.child[node, 0 if sample[model.feature[node]] <= model.threshold[node] else 1]
    return int(model.leaf_class[node])


# Lanes per chunk of a batch walk. A lane is one root-to-leaf walk of one
# tree for one row (and, in Monte Carlo, one simulation); a chunk's
# transient arrays take a few MB at this size.
MAX_LANES = 2**15
# Monte Carlo calls with fewer (row, simulation, tree) lanes than this walk
# every lane from its root: below it, the fixed cost of first walking each
# (row, tree) path alone outweighs the simulations' shared steps.
MIN_SHARED_LANES = 2**11


def flatten_tree(tree: DecisionTree) -> DecisionTree:
    """The tree itself: a DecisionTree is already its flat form."""
    return tree


@dataclass(frozen=True)
class FlatForest:
    """The flat arrays of a forest's trees end to end. Node ids are global:
    tree t's root is root[t] and child rows hold global ids. safe_scale is
    a node's scale where that is positive and 1 elsewhere (unscaled);
    depth is a node's depth within its tree, the index of the uniform a
    Monte Carlo walk draws there."""

    feature: np.ndarray
    threshold: np.ndarray
    safe_scale: np.ndarray
    unscaled: np.ndarray
    uniform_distance: np.ndarray
    child: np.ndarray
    majority: np.ndarray
    leaf_class: np.ndarray
    depth: np.ndarray
    root: np.ndarray


def flatten_forest(forest: Forest) -> FlatForest:
    """The forest's flat form, built on the first call and kept on the forest."""
    if forest._flat is None:
        forest._flat = _join(forest.trees)
    return forest._flat


def _join(trees) -> FlatForest:
    root = np.cumsum([0] + [t.feature.size for t in trees[:-1]])

    def joined(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    scale = joined([t.scale for t in trees])
    scaled = scale > 0.0
    return FlatForest(
        feature=joined([t.feature for t in trees]),
        threshold=joined([t.threshold for t in trees]),
        safe_scale=np.where(scaled, scale, 1.0),
        unscaled=~scaled,
        uniform_distance=joined([t.uniform_distance for t in trees]),
        child=joined([t.child + r if r else t.child for t, r in zip(trees, root)]),
        majority=joined([t.majority for t in trees]),
        leaf_class=joined([t.leaf_class for t in trees]),
        depth=joined([t.depth for t in trees]).astype(np.uint64),
        root=root,
    )


def walk_lanes(forest: FlatForest, X: np.ndarray, node: np.ndarray, x_pos: np.ndarray,
               flip=None) -> np.ndarray:
    """Leaf classes of a batch of lanes walked over a forest.

    Lane j starts at global node node[j] and reads its feature values from
    the row of X (a C-contiguous float64 matrix) that starts at flat offset
    x_pos[j]. Each step moves every working lane one level down; a lane
    that reaches a leaf is written out and dropped from the working set.
    Before the lanes move, ``flip(lane, node, feature, x, threshold,
    go_left)`` may reverse go_left in place; ``lane`` holds the working
    lanes' positions j, ``x`` their feature values."""
    lane = np.arange(node.size)
    x_flat = X.ravel()
    child = forest.child.ravel()
    out = np.empty(node.size, dtype=np.int8)
    feat = forest.feature[node]
    while True:
        done = feat < 0
        if done.any():
            out[lane[done]] = forest.leaf_class[node[done]]
            # ndarray.nonzero, not np.flatnonzero: its wrappers cost more
            # than a small step's arithmetic
            keep = (~done).nonzero()[0]
            lane, node, feat, x_pos = lane[keep], node[keep], feat[keep], x_pos[keep]
        if lane.size == 0:
            return out
        x = x_flat[x_pos + feat]
        threshold = forest.threshold[node]
        go_left = x <= threshold
        if flip is not None:
            flip(lane, node, feat, x, threshold, go_left)
        node = child[2 * node + ~go_left]
        feat = forest.feature[node]


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
        rows = np.arange(start, min(X.shape[0], start + rows_per_chunk))
        leaves = walk_lanes(flat, X, np.tile(flat.root, rows.size),
                            np.repeat(rows * X.shape[1], n_trees))
        votes[rows] = leaves.reshape(-1, n_trees).sum(axis=1)
    return votes


def predict_forest_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    votes = forest_votes_batch(forest, X)
    return (2 * votes > forest.n_trees).astype(np.int64)
