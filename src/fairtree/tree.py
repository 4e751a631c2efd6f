"""CART decision trees and bagged forests.

Binary labels only. Every internal node stores, besides the split, the
statistics probabilistic traversal needs: the largest training distance to
the threshold (``scale``), a flag marking nodes where that distance carried
no information (``uniform_distance``, e.g. splits on 0/1-encoded features),
and the majority training class of each child subtree. ``Forest`` is the
one model type, and a tree is a one-tree Forest: its trees' parallel node
arrays joined tree-major, the one form that training builds, model files
store and every traversal reads. Building one checks every tree rule once
over all of its trees, however the arrays were made; ``forest.trees[t]``
slices tree t out of the joined arrays.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from dataclasses import InitVar, dataclass
from functools import cache, cached_property
from typing import Optional, Union

import numpy as np

from .errors import DataError
from .rng import finalize_array, stream_key, uniforms_at_array

FeatureKind = Union[str, dict]  # "numeric" or {raw value: integer code}


@dataclass
class Dataset:
    """Fully numeric training matrix with binary labels, held as read-only
    copies; copy=False hands rows and labels over instead, and the table
    keeps them as they are if their dtypes match. Its columns are ranked on
    its first fit, and the ranks kept for every later fit and gathered by
    subsets."""

    feature_names: list
    feature_kinds: list
    rows: np.ndarray
    labels: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        array = np.array if copy else np.asarray
        self.rows = _read_only(array(self.rows, dtype=np.float64))
        self.labels = _read_only(array(self.labels, dtype=np.int64))
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

    @cached_property
    def column_ranks(self) -> tuple:
        """(key, value, value_start, rank_bits), ranked when first read: key[f, i]
        is r << 1 | labels[i] where rows[i, f] = value[value_start[f] + r], the
        r-th of column f's ascending values, and r fits in rank_bits bits."""
        return _rank_columns(self.rows, self.labels)

    def subset(self, index) -> Dataset:
        """The table of the rows at index, which share this table's ranks:
        ranks with gaps order the rows as dense ones do."""
        part = Dataset(self.feature_names, self.feature_kinds, self.rows[index],
                       self.labels[index], copy=False)
        key, *tables = self.column_ranks
        part.column_ranks = (_read_only(key[:, index]), *tables)
        return part

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


# (name, dtype, per-node shape) of the node arrays a forest is built from
_NODE_ARRAYS = (
    ("feature", np.int32, ()),
    ("threshold", np.float64, ()),
    ("scale", np.float64, ()),
    ("uniform_distance", bool, ()),
    ("child", np.int64, (2,)),
    ("majority", np.int8, (2,)),
    ("class_counts", np.int64, (2,)),
)
# the arrays a tree of a forest takes as slices: all but child
_SLICED = ("feature", "threshold", "scale", "uniform_distance", "majority", "class_counts",
           "leaf_class", "flip_divisor", "column")


def check_n_features(n_features) -> int:
    """n_features as an int; ValueError("n_features: <rule>") unless it is an
    integer (not a bool) >= 1."""
    if isinstance(n_features, bool) or not isinstance(n_features, numbers.Integral):
        raise ValueError("n_features: expected an integer")
    if n_features < 1:
        raise ValueError("n_features: must be >= 1")
    return int(n_features)


def _checked_nodes(arrays: dict, size: np.ndarray, n_features: int) -> tuple:
    """Every node array rule of Forest.from_arrays checked at once over the
    node arrays of trees of n_features features (an int check_n_features
    gave), joined tree-major, tree t's size[t] nodes with child ids local to
    it: (nodes, root, child, max_depth), nodes holding each node array cast
    to its dtype (a copy only if the dtype differs) and each derived one,
    all read-only; root[t] is tree t's first node, child the global ids,
    each leaf its own two children, and max_depth a list of each tree's.
    The first broken rule raises ValueError("<field>[<j>]: <rule>"), j
    local to its tree t, with "trees[<t>]." in front for more than one
    tree."""

    def check(name, bad, rule):  # {n} in a rule: the node count of its tree
        if np.count_nonzero(bad):
            j = int(bad.nonzero()[0][0])
            t = int(np.searchsorted(root, j, "right")) - 1
            where = f"trees[{t}].{name}" if size.size > 1 else name
            raise ValueError(f"{where}[{j - root[t]}]: {rule.format(n=size[t])}")

    end = size if size.size == 1 else np.cumsum(size)  # one tree needs no offsets
    n, root, empty = int(end[-1]), end - size, size.min() < 1
    nodes = {}
    for name, dtype, shape in _NODE_ARRAYS:
        value = np.asarray(arrays[name])
        try:  # numpy may wrap or round within a kind
            array = value.astype(dtype, casting="same_kind", copy=False)
        except TypeError:
            raise ValueError(f"{name}: expected {np.dtype(dtype)} values, "
                             f"not {value.dtype}") from None
        if empty or array.shape != (n,) + shape:
            raise ValueError(f"node array {name} has shape {array.shape}, feature has {n} "
                             f"nodes; a tree has at least one, an entry of shape {shape} each")
        if value.dtype != array.dtype:
            check(name, array != value, f"must fit {np.dtype(dtype)}")
        nodes[name] = _read_only(array)
    feature, scale, child, majority, counts = (
        nodes[name] for name in ("feature", "scale", "child", "majority", "class_counts"))
    leaf = feature[:, None] < 0
    check("feature", (feature < -1) | (feature >= n_features),
          f"must be -1 (a leaf) or in [0, n_features) = [0, {n_features})")
    check("threshold", ~np.isfinite(nodes["threshold"]), "must be finite")
    check("scale", ~(scale >= 0.0) | np.isinf(scale), "must be >= 0 and finite")
    check("majority", (majority < 0) | (majority > 1), "class ids must be 0 or 1")
    check("class_counts", counts < 0, "counts must be >= 0")
    check("child", leaf & (child != 0), "must be [0, 0] at a leaf")
    check("majority", leaf & (majority != 0), "must be [0, 0] at a leaf")
    check("class_counts", ~leaf & (counts != 0), "must be [0, 0] at an internal node")
    # children after their parent and one parent for each node but a root
    # make a tree from each root: the depth walk meets each node once
    # each node's tree's first node and node count
    offset, bound = (0, n) if size.size == 1 else (np.repeat(root, size)[:, None],
                                                   np.repeat(size, size)[:, None])
    check("child", ~leaf & ((child <= np.arange(n)[:, None] - offset) | (child >= bound)),
          "an internal node's children must be in (its id, {n})")
    node_child = offset + child
    # leaves' [0, 0] rows count toward their root: a root is never an orphan
    parents = np.bincount(node_child.ravel(), minlength=n)
    check("child", ~leaf & (parents > 1)[node_child], "names a child that is named more than once")
    check("child", parents == 0, "node is no internal node's child")
    del parents  # before the derived arrays: it would raise a forest build's peak
    nodes["leaf_class"] = _read_only((counts[:, 1] > counts[:, 0]).astype(np.int8))
    divisor = np.where(scale > 0.0, scale, np.nextafter(0.0, 1.0))
    divisor[nodes["uniform_distance"]] = np.inf
    nodes["flip_divisor"] = _read_only(divisor)
    depth, level, d = np.zeros(n, dtype=np.int32), root, 0
    while (level := level[feature[level] >= 0]).size:
        level = node_child[level].ravel()
        d += 1
        depth[level] = d
    max_depth = [int(depth.max())] if size.size == 1 else np.maximum.reduceat(depth, root).tolist()
    leaves = leaf[:, 0].nonzero()[0]
    node_child[leaves] = leaves[:, None]  # a walk that reaches a leaf stays there
    return nodes, _read_only(root), _read_only(node_child), max_depth


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Forest:
    """Trees as parallel node arrays, joined tree-major; a tree is a
    one-tree Forest. Tree t's nodes start at root[t], its root, and the
    grower numbers them in level order. Node ids are global. Internal node
    i sends values <= threshold[i] of feature[i] left; row i of child holds
    its (left, right) children and row i of majority their subtrees'
    majority classes. A leaf has feature -1, is its own two children, and
    holds its training class counts in class_counts; leaf_class is its
    majority class, ties to 0. The flip rule divides distances by
    flip_divisor: scale, +inf at uniform-distance nodes and the smallest
    subnormal where scale is 0. column is feature as int64. The arrays are
    read-only. n_features is every tree's, tree_depth[t] tree t's longest
    root-to-leaf path in edges, max_depth the longest of them, n_leaves
    the leaf count, and training_meta a dict for each tree.

    Forest(trees=..., n_trees=...) joins copies of the arrays of the given
    forests, n_trees trees in all; from_arrays takes joined arrays. Either
    checks every tree rule once over all of the trees (see from_arrays).
    trees lists the trees as one-tree forests, made on each read: slices
    of the forest's arrays, with no rule checked again, each with a child
    of its own rebased to local ids. row_views holds feature, threshold,
    flip_divisor, child and majority (both flat) and leaf_class as
    memoryviews, by node (an index gives a Python number), made on first
    use for the row walk and not pickled."""

    def __init__(self, trees: list, n_trees: int, bagging_meta: Optional[dict] = None):
        if n_trees != sum(f.n_trees for f in trees) or n_trees < 1:
            raise ValueError("forest requires n_trees == the given forests' tree count >= 1")
        if any(f.n_features != trees[0].n_features for f in trees):
            # the kernels read rows of n_features values by flat offset
            raise ValueError("forest trees disagree on n_features")
        parts = [f.node_arrays() for f in trees]
        vars(self).update(vars(Forest.from_arrays(
            {name: np.concatenate([arrays[name] for arrays, _ in parts])
             for name, _, _ in _NODE_ARRAYS}, np.concatenate([size for _, size in parts]),
            trees[0].n_features, [meta for f in trees for meta in f.training_meta],
            bagging_meta or {})))

    @classmethod
    def from_arrays(cls, arrays: dict, size, n_features: int, training_meta: list,
                    bagging_meta: dict) -> Forest:
        """The forest of trees whose node arrays (a dict by _NODE_ARRAYS
        name, which the forest takes over) are joined tree-major, tree t
        holding size[t] nodes with child ids local to it and training_meta[t].
        The rules: n_features is an integer >= 1; each node array casts to
        its dtype with no value changed; feature is in [-1, n_features),
        threshold finite, scale finite and >= 0, majority 0 or 1,
        class_counts >= 0; child and majority are [0, 0] at leaves and
        class_counts at internal nodes; an internal node's children have
        ids in (its id, n), n its tree's node count; every node but a root
        has one parent. The first broken rule raises ValueError(
        "trees[<t>].<field>[<j>]: <rule>"), without "trees[<t>]." for one
        tree, or "<field>: <rule>"."""
        size, forest = np.asarray(size, dtype=np.int64), cls.__new__(cls)
        n_features = check_n_features(n_features)
        nodes, root, child, depths = _checked_nodes(arrays, size, n_features)
        vars(forest).update(nodes, child=child, root=root,
                            column=_read_only(nodes["feature"].astype(np.int64)),
                            n_trees=len(depths), bagging_meta=bagging_meta,
                            training_meta=[dict(meta) for meta in training_meta],
                            n_features=n_features, tree_depth=depths,
                            n_leaves=int(np.count_nonzero(nodes["feature"] < 0)))
        return forest

    def node_arrays(self) -> tuple:
        """(arrays, size) as from_arrays takes them: the node arrays, child
        with ids local to each tree and [0, 0] at leaves, and each tree's
        node count."""
        size = np.diff(self.root, append=self.feature.size)
        child = self.child - np.repeat(self.root, size)[:, None]
        child[self.feature < 0] = 0
        return {name: getattr(self, name) for name, _, _ in _NODE_ARRAYS} | {"child": child}, size

    @property
    def trees(self) -> list:
        trees = []
        for t, (r, e) in enumerate(zip(self.root.tolist(),
                                       self.root[1:].tolist() + [self.feature.size])):
            tree = Forest.__new__(Forest)
            vars(tree).update({name: getattr(self, name)[r:e] for name in _SLICED},
                              child=_read_only(self.child[r:e] - r),
                              root=_read_only(np.zeros(1, dtype=np.int64)), n_trees=1,
                              bagging_meta={}, training_meta=[dict(self.training_meta[t])],
                              n_features=self.n_features, tree_depth=[self.tree_depth[t]],
                              n_leaves=int(np.count_nonzero(self.feature[r:e] < 0)))
            trees.append(tree)
        return trees

    @property
    def max_depth(self) -> int:
        return max(self.tree_depth)

    @property
    def left(self) -> np.ndarray:
        return self.child[:, 0]

    @property
    def right(self) -> np.ndarray:
        return self.child[:, 1]

    @cached_property
    def row_views(self) -> tuple:
        return tuple(map(memoryview, (self.feature, self.threshold, self.flip_divisor,
                                      self.child.ravel(), self.majority.ravel(), self.leaf_class)))

    def __getstate__(self):
        return {name: value for name, value in vars(self).items() if name != "row_views"}

    def __eq__(self, other):
        if not isinstance(other, Forest):
            return NotImplemented
        return (self.n_features == other.n_features and self.bagging_meta == other.bagging_meta
                and self.training_meta == other.training_meta
                and np.array_equal(self.root, other.root)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name, _, _ in _NODE_ARRAYS))


# Elements one block of training work holds: the samples of one group of
# trees grown together, and the (sample, feature) pairs of one block of a
# level's split search. It bounds the grower's transient memory whatever
# the row count or the number of trees.
GROW_BLOCK = 2**15


@cache
def _narrowest(bits: int, dtypes):
    """The first of dtypes whose non-negative values span bits bits: the
    narrower a sort key, the faster the sort (16-bit keys radix-sort)."""
    return next(d for d in dtypes if np.iinfo(d).max.bit_length() >= bits)


def _split_score(c0l, c1l, nl, c0r, c1r, nr):
    """Gini-equivalent score; larger is purer.

    Minimizing weighted Gini impurity is equivalent to maximizing
    sum(count^2)/n over both children. Counts are exact in float64, each
    term rounds once, so identical candidates score bit-identically no
    matter how they are enumerated.
    """
    return (c0l * c0l + c1l * c1l) / nl + (c0r * c0r + c1r * c1r) / nr


@dataclass
class _Level:
    """The training jobs of one level: its nodes across a group of trees.
    Only the nodes that may still split (``active``) keep their samples (a
    tree's distinct rows), grouped node by node in ``row``, ``label`` and
    ``weight``."""

    depth: int
    counts: np.ndarray  # (n, 2) class counts of every node of the level, by weight
    key: np.ndarray  # (n,) stream key of each node's feature draw
    active: np.ndarray  # positions of the nodes that may split
    size: np.ndarray  # their sample counts
    row: np.ndarray  # their samples' rows of the data
    label: np.ndarray
    weight: Optional[np.ndarray]  # the times each sample's tree holds its row; None: all 1


def _rank_columns(rows: np.ndarray, labels: np.ndarray) -> tuple:
    """Dataset.column_ranks of a fresh table, with dense ranks."""
    key = np.empty(rows.shape[::-1], dtype=np.int32)  # column by column
    values = []
    for f in range(rows.shape[1]):
        column_values, key[f] = np.unique(rows[:, f], return_inverse=True)
        values.append(column_values)
    key = key << 1 | labels.astype(np.int32)
    start = np.cumsum([0] + [v.size for v in values[:-1]])
    bits = (max(v.size for v in values) - 1).bit_length()
    return _read_only(key), _read_only(np.concatenate(values)), start, bits


class _Grower:
    """CART growth level by level, over _Level jobs, on each tree's
    distinct rows weighted by their counts. A node's split search runs on
    its drawn features only. The samples of every (node, feature) pair of a
    search block are ordered by value with one sort of packed integer keys
    (pair, value rank, label, count: count_bits bits, none when a group's
    counts are all 1). Features beyond the drawn ones are searched only for
    nodes whose draw has no valid cut."""

    def __init__(self, data: Dataset, max_depth, min_leaf, features_per_split):
        self.y = data.labels
        self.n_features = data.n_features
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_primary = self.n_features
        if features_per_split is not None:
            self.n_primary = min(features_per_split, self.n_features)
        rank_label, self.value, self.value_start, self.rank_bits = data.column_ranks
        self.rank_label = rank_label.ravel()  # feature f's from f * n_rows

    def grow(self, counts, seeds) -> tuple:
        """(arrays, size): the node arrays (a dict by _NODE_ARRAYS name) of
        trees grown on rows of the data, one per (counts, seed), counts[i]
        the times the tree holds row i, all together level by level, joined
        tree-major; tree t holds size[t] nodes. Each tree's nodes are
        numbered in level order: level by level, and within a level left to
        right."""
        tree = np.arange(len(seeds))
        level = self.roots(counts, seeds)
        levels, level_tree, level_child = [], [], []
        n_seen = 0  # nodes of the levels so far, all trees
        while tree.size:
            nodes, level = self.expand(level)
            split = nodes[0] >= 0
            # children as positions in the concatenated levels, for now
            child = np.zeros((tree.size, 2), dtype=np.int64)
            child[split] = n_seen + tree.size + np.arange(2 * split.sum()).reshape(-1, 2)
            levels.append(nodes)
            level_tree.append(tree)
            level_child.append(child)
            n_seen += tree.size
            tree = np.repeat(tree[split], 2)
        feature, threshold, scale, uniform, majority, counts = (
            np.concatenate(column) for column in zip(*levels))
        tree = np.concatenate(level_tree)
        child = np.concatenate(level_child)
        # a stable sort by tree keeps each tree's nodes in level order
        order = np.argsort(tree, kind="stable")
        size = np.bincount(tree, minlength=len(seeds))
        node_id = np.empty_like(order)
        node_id[order] = np.arange(order.size) - np.repeat(np.cumsum(size) - size, size)
        split = feature >= 0
        child[split] = node_id[child[split]]
        columns = (feature, threshold, scale, uniform, child, majority, counts)
        return {name: column[order] for (name, _, _), column in zip(_NODE_ARRAYS, columns)}, size

    def roots(self, counts, seeds) -> _Level:
        """The root level of trees grown on rows of the data, tree t's row i
        counts[t][i] times; sets count_bits and tally for their searches."""
        rows = [c.nonzero()[0] for c in counts]
        node = np.repeat(np.arange(len(rows)), [r.size for r in rows])
        weight = np.concatenate([c[r] for c, r in zip(counts, rows)]).astype(np.int32)
        row, most = np.concatenate(rows), int(weight.max())
        self.count_bits = low = most.bit_length() if most > 1 else 0
        # by the low 1 + count_bits bits of a key: its count + (class-1 count << 32). A
        # search block's counts sum below 2**32: a pair's to n_rows at most, and a block
        # of pairs holds GROW_BLOCK samples at most, bootstrap counts far below 2**17
        self.tally = (np.array([[1], [2**32 + 1]]) * np.arange(1 << low)).ravel()
        key = np.array([stream_key(seed) for seed in seeds], dtype=np.uint64)
        return self._level(0, key, row, self.y[row], weight if low else None, node)

    def _level(self, depth, key, row, label, weight, node) -> _Level:
        counts = np.bincount(2 * node + label, weight, 2 * key.size).astype(np.int64)
        n = (counts := counts.reshape(-1, 2)).sum(axis=1)
        can = (counts.min(axis=1) > 0) & (n >= 2 * self.min_leaf)
        if self.max_depth is not None and depth >= self.max_depth:
            can[:] = False
        at = can[node].nonzero()[0]
        by_node = node[at].astype(_narrowest((can.size - 1).bit_length(), (np.uint16, np.int64)))
        at = at[np.argsort(by_node, kind="stable")]
        size = n[can] if weight is None else np.bincount(node, minlength=can.size)[can]
        return _Level(depth, counts, key, can.nonzero()[0], size, row[at], label[at],
                      None if weight is None else weight[at])

    def expand(self, level: _Level):
        """(nodes, next level): nodes are (feature, threshold, scale,
        uniform_distance, majority, class_counts) over the level's jobs,
        feature -1 at a leaf; the next level holds the left and then the
        right child of each split node, in node order."""
        n = level.counts.shape[0]
        feature = np.full(n, -1, dtype=np.int32)
        threshold = np.zeros(n)
        scale = np.ones(n)
        uniform = np.zeros(n, dtype=bool)
        majority = np.zeros((n, 2), dtype=np.int8)
        counts = level.counts.copy()
        found, f, t, dmax, dmin, left_key = self._splits(level)
        split = level.active[found]
        feature[split] = f
        threshold[split] = t
        scale[split] = np.where(dmax > 0.0, dmax, 1.0)
        uniform[split] = (dmax == dmin) & (dmax > 0.0)
        counts[split] = 0
        # the split nodes' samples go to their children: 2r and 2r + 1 of
        # the next level for the r-th split node
        split_rank = np.full(found.size, -1)
        split_rank[found] = np.arange(split.size)
        rank = np.repeat(split_rank, level.size)
        moves = rank >= 0
        rank, row, label = rank[moves], level.row[moves], level.label[moves]
        weight = None if level.weight is None else level.weight[moves]
        # value > threshold, by rank: no sample of the node lies between the cut's two values
        right = self.rank_label[row + f[rank] * self.y.size] > left_key.astype(np.int32)[rank]
        key = finalize_array(np.repeat(level.key[split], 2)
                             ^ np.tile(np.array([0, 1], dtype=np.uint64), split.size))
        children = self._level(level.depth + 1, key, row, label, weight, 2 * rank + right)
        majority[split] = (children.counts[:, 1] > children.counts[:, 0]).reshape(-1, 2)
        return (feature, threshold, scale, uniform, majority, counts), children

    def _splits(self, level: _Level):
        """The split of each active node: (found mask, then feature,
        threshold, largest and smallest distance to the threshold and
        largest rank_label of the left side of the nodes found)."""
        n = level.active.size
        F, k = self.n_features, self.n_primary
        if k < F:
            # a node's feature order is the rank order of the first F draws
            # of its stream
            draws = uniforms_at_array(level.key[level.active][:, None], np.arange(F))
            order = np.argsort(draws, axis=1, kind="stable")
        else:
            order = np.broadcast_to(np.arange(F), (n, F))
        start = np.cumsum(level.size) - level.size
        nodes = np.arange(n)
        best = self._search(level, start, nodes, order[:, :k])
        pos = np.argmax(best[0], axis=1)  # first max: the earlier drawn feature wins ties
        chosen = best[:, nodes, pos]
        feature = order[nodes, pos]
        found = chosen[0] > -np.inf
        if k < F and not found.all():
            # the extras, in draw order: the first with a valid cut
            rest = (~found).nonzero()[0]
            extra = self._search(level, start, rest, order[rest, k:])
            has_cut = extra[0] > -np.inf
            pos = np.argmax(has_cut, axis=1)
            chosen[:, rest] = extra[:, np.arange(rest.size), pos]
            feature[rest] = order[rest, k + pos]
            found[rest] = has_cut[np.arange(rest.size), pos]
        return (found, feature[found]) + tuple(chosen[1:, found])

    def _search(self, level: _Level, start, nodes, features) -> np.ndarray:
        """(score, threshold, largest and smallest distance to the
        threshold, largest rank_label of the left side) of the best cut of
        each (node, feature) pair, node i searching features[i]; score is
        -inf where a pair has no valid cut. Pairs are searched in blocks of
        about GROW_BLOCK samples."""
        feature = features.ravel()
        size = np.repeat(level.size[nodes], features.shape[1])
        first = np.repeat(start[nodes], features.shape[1])
        out = np.full((5, feature.size), -np.inf)
        end = np.cumsum(size)
        lo = 0
        while lo < feature.size:
            hi = max(lo + 1, int(np.searchsorted(end, end[lo] - size[lo] + GROW_BLOCK, "right")))
            self._search_block(level, feature[lo:hi], first[lo:hi], size[lo:hi], out[:, lo:hi])
            lo = hi
        return out.reshape(5, *features.shape)

    def _search_block(self, level, feature, first, size, out):
        end = np.cumsum(size)
        start = end - size
        pair = np.repeat(np.arange(feature.size), size)
        sample = np.repeat(first - start, size)
        sample += np.arange(sample.size)
        index = level.row[sample]
        index += (feature * self.y.size)[pair]
        # sorted, the keys order each pair's samples by value rank, label, then count
        low = self.count_bits
        bits = self.rank_bits + 1 + low
        width = bits + (feature.size - 1).bit_length()
        key = self.rank_label[index].astype(_narrowest(width, (np.int32, np.int64)), copy=False)
        if low:
            key <<= low
            key |= level.weight[sample]
        del index, sample
        key |= pair.astype(key.dtype) << bits
        key.sort()
        value_key = key >> (1 + low)
        cut = value_key[1:] != value_key[:-1]  # between positions i and i + 1
        cut[end[:-1] - 1] = False  # not across pairs
        cut = cut.nonzero()[0]
        p = pair[cut]
        # prefix sums of the class-1 count; with counts not all 1, of (class-1 count << 32) + count
        tally = self.tally.take(key & ((2 << low) - 1)) if low else key & 1
        # int32 if the keys are: an int32 -> int64 cast costs more than the sum
        sums = np.cumsum(tally, dtype=tally.dtype)
        before = sums[start] - tally[start]
        left, whole = sums[cut] - before[p], (sums[end - 1] - before)[p]
        nl, c1l, n, c1 = ((left & 0xFFFFFFFF, left >> 32, whole & 0xFFFFFFFF, whole >> 32) if low
                          else (cut + 1 - start[p], left, size[p], whole))
        if self.min_leaf > 1:
            ok = (nl >= self.min_leaf) & (n - nl >= self.min_leaf)
            cut, p, nl, c1l, n, c1 = (a[ok] for a in (cut, p, nl, c1l, n, c1))
        if cut.size == 0:
            return
        # counts are exact in float64, so differences of them are too
        nl, c1l, nr, c1r = (a.astype(np.float64) for a in (nl, c1l, n - nl, c1 - c1l))
        score = _split_score(nl - c1l, c1l, nl, nr - c1r, c1r, nr)
        # first max of each pair's cuts: the smallest threshold wins ties
        first = np.empty(p.size, dtype=bool)  # a cut of a new pair
        first[0] = True
        np.not_equal(p[1:], p[:-1], out=first[1:])
        top = np.maximum.reduceat(score, first.nonzero()[0])
        at = (score == top[np.cumsum(first) - 1]).nonzero()[0]
        first = first[:at.size]
        np.not_equal(p[at[1:]], p[at[:-1]], out=first[1:])
        at = at[first]
        p, i = p[at], cut[at]
        mask = (1 << self.rank_bits) - 1
        # the values at the cut, after it, and at the pair's two ends
        rank = value_key[np.array([i, i + 1, start[p], end[p] - 1])] & mask
        a, b, low, high = self.value[self.value_start[feature[p]] + rank]
        t = (a + b) / 2.0
        # between adjacent floats the midpoint can round up onto b, which
        # would send b's samples left and can leave the right child empty
        t = np.where(t == b, a, t)
        out[0, p] = top
        out[1, p] = t
        out[2, p] = np.maximum(np.abs(low - t), np.abs(high - t))
        out[3, p] = np.minimum(np.abs(a - t), np.abs(b - t))
        out[4, p] = rank[0] * 2 + 1


def check_growth(n_trees, max_depth, min_samples_leaf, features_per_split) -> None:
    """Raise ValueError naming the first growth setting that is not an
    integer >= 1 (a bool is not); max_depth and features_per_split may be None."""
    for name, value, none in (("n_trees", n_trees, ""), ("max_depth", max_depth, " or None"),
                              ("min_samples_leaf", min_samples_leaf, ""),
                              ("features_per_split", features_per_split, " or None")):
        if value is None and none:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1{none}")


def _check_training(data: Dataset, *growth) -> list:
    """The growth settings as Python ints (None kept), once they are checked
    and data has rows: model files store them as JSON."""
    check_growth(*growth)
    if data.n_rows == 0:
        raise DataError("empty training set")
    return [None if value is None else int(value) for value in growth]


def _grow(data: Dataset, trees, max_depth, min_samples_leaf, features_per_split,
          bagging_meta=None) -> Forest:
    """The forest of trees grown on rows of the data: trees yields each
    tree's (counts, seed), counts[i] the times it holds row i (bootstrap_counts)
    and seed the seed of its feature draws. A tree grows on its distinct
    rows, each weighted by its count, as it would on its rows repeated.
    Trees are drawn and grown together in groups of about GROW_BLOCK rows."""
    grower = _Grower(data, max_depth, min_samples_leaf, features_per_split)
    per_group = max(1, GROW_BLOCK // data.n_rows)
    groups, size, meta, trees = [], [], [], iter(trees)
    while group := list(itertools.islice(trees, per_group)):
        counts, seeds = zip(*group)
        arrays, group_size = grower.grow(counts, seeds)
        groups.append(arrays)
        size.append(group_size)
        meta += [{"max_depth": max_depth, "min_samples_leaf": min_samples_leaf, "rng_seed": seed}
                 for seed in seeds]
    # a group's array is freed once it is joined
    joined = {name: np.concatenate([part.pop(name) for part in groups])
              for name, _, _ in _NODE_ARRAYS}
    return Forest.from_arrays(joined, np.concatenate(size), data.n_features, meta,
                              bagging_meta or {})


def train_tree(
    data: Dataset,
    *,
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
    features_per_split: Optional[int] = None,
    rng_seed: int = 0,
) -> Forest:
    """Grow a greedy CART tree minimizing Gini impurity, as a one-tree Forest.

    Thresholds are midpoints between adjacent sorted distinct values, or
    the lower value where the midpoint rounds onto the upper one. With
    every feature searched, ties between splits break toward the lower
    feature index, then the lower threshold. With features_per_split below
    the feature count, each node searches the first features_per_split
    features of its own random order, and ties break toward the earlier
    drawn feature. Only when none of those has a valid cut does the node
    take the first of the remaining features, in its order, that has one.
    A node's order is a pure function of rng_seed and the node's path from
    the root, so growth order does not matter.
    """
    _, *growth = _check_training(data, 1, max_depth, min_samples_leaf, features_per_split)
    return _grow(data, [(np.ones(data.n_rows, dtype=np.int64), operator.index(rng_seed))],
                 *growth)


def bootstrap_counts(bagging_meta: dict, n_rows: int):
    """Each tree's (counts, seed) of the forest trained with bagging_meta
    on n_rows rows, tree 0 first and without end: counts[i] the times its
    bootstrap drew row i (0: row i is out of bag; all 1 without
    bootstrap), seed the seed of its feature draws. Tree t draws its rows,
    then its seed, from child t of SeedSequence(bagging_meta["rng_seed"])."""
    parent = np.random.SeedSequence(bagging_meta["rng_seed"])
    while True:
        rng = np.random.default_rng(parent.spawn(1)[0])
        counts = (np.bincount(rng.integers(0, n_rows, n_rows), minlength=n_rows)
                  if bagging_meta["bootstrap"] else np.ones(n_rows, dtype=np.int64))
        yield counts, int(rng.integers(0, 2**63))


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
    """Train a bagged ensemble; per-tree bootstrap counts and seeds derive
    from rng_seed (bootstrap_counts). Each tree equals train_tree on its
    bootstrap rows, repeated as drawn, with its seed."""
    n_trees, *growth = _check_training(data, n_trees, max_depth, min_samples_leaf,
                                       features_per_split)
    bagging_meta = {"bootstrap": bool(bootstrap), "features_per_split": growth[-1],
                    "rng_seed": operator.index(rng_seed)}
    trees = itertools.islice(bootstrap_counts(bagging_meta, data.n_rows), n_trees)
    return _grow(data, trees, *growth, bagging_meta)


def _check_finite(values: np.ndarray, name: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():  # a NaN compares false with every threshold
        at = np.unravel_index(bad.argmax(), values.shape)
        where = f"row {at[0]}, column {at[1]}" if values.ndim == 2 else f"column {at[0]}"
        raise ValueError(f"{name} has a non-finite value {values[at]} at {where}")


def _check_sample(sample, n_features):
    sample = np.asarray(sample, dtype=np.float64)
    if sample.shape != (n_features,):
        raise ValueError(f"sample has shape {sample.shape}; model expects ({n_features},)")
    _check_finite(sample, "sample")
    return sample


def predict_deterministic(model: Forest, sample) -> int:
    """Standard traversal down each tree from its root: value <= threshold
    goes left. The trees take a majority vote; ties go to class 0."""
    sample = _check_sample(sample, model.n_features).tolist()
    feature, threshold, _, child, _, leaf_class = model.row_views
    votes = 0
    for node in model.root.tolist():
        while (f := feature[node]) >= 0:
            node = child[2 * node + (sample[f] > threshold[node])]
        votes += leaf_class[node]
    return int(2 * votes > model.n_trees)


# Lanes per chunk of a deterministic batch walk (a lane is one
# root-to-leaf walk of one tree for one row); Monte Carlo's default draws
# per block, one per (row, tree, simulation); and live branches per level
# per chunk of rows of the exact frontier. A row alone takes the forest's
# leaf count there if that is more, which always fits it. A chunk's
# transient arrays take a few MB at this size.
MAX_LANES = 2**15


def flatten_tree(tree: Forest) -> Forest:
    """The tree itself: a one-tree Forest is already its flat form."""
    return tree


def walk_lanes(forest: Forest, X: np.ndarray, node: np.ndarray, x_pos: np.ndarray) -> np.ndarray:
    """Leaf classes of a batch of lanes walked deterministically over a forest.

    Lane j starts at global node node[j] and reads its feature values from
    the row of X (a C-contiguous float64 matrix) that starts at flat offset
    x_pos[j]. Each step moves every working lane one level down. A leaf is
    its own child, so a lane that reaches one stays, and has finished when
    its next node is its node. Finished lanes are written out and dropped
    once they are at least a quarter of the working lanes; the walk ends
    when all have finished."""
    lane = np.arange(node.size)
    values, child, column = X.ravel(), forest.child.ravel(), forest.column
    out = np.empty(node.size, dtype=np.int8)
    # ndarray.take, np.count_nonzero and ndarray.nonzero, not an index, a
    # mask, ndarray.any and np.flatnonzero: those cost more per call
    while lane.size:
        feat = column.take(node)
        go_left = values.take(x_pos + feat) <= forest.threshold.take(node)
        to = child.take(2 * node + ~go_left)
        done = to == node
        if 4 * np.count_nonzero(done) >= lane.size:
            at = done.nonzero()[0]
            out[lane.take(at)] = forest.leaf_class.take(node.take(at))
            keep = (~done).nonzero()[0]
            lane, to, x_pos = lane.take(keep), to.take(keep), x_pos.take(keep)
        node = to
    return out


def _check_matrix(X, n_features: int) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError("X must be (n_samples, n_features)")
    _check_finite(X, "X")
    return X


def forest_votes_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Per-sample count of trees voting for class 1: the lane walk, one
    lane per (row, tree)."""
    X = _check_matrix(X, forest.n_features)
    n_trees = forest.n_trees
    rows_per_chunk = max(1, MAX_LANES // n_trees)
    votes = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], rows_per_chunk):
        rows = np.arange(start, min(X.shape[0], start + rows_per_chunk))
        leaves = walk_lanes(forest, X, np.tile(forest.root, rows.size),
                            np.repeat(rows * X.shape[1], n_trees))
        votes[rows] = leaves.reshape(-1, n_trees).sum(axis=1)
    return votes


def predict_forest_batch(forest: Forest, X: np.ndarray, votes=None) -> np.ndarray:
    votes = forest_votes_batch(forest, X) if votes is None else votes
    return (2 * votes > forest.n_trees).astype(np.int64)
