"""CART decision trees and bagged forests.

Binary labels only. Every internal node stores, besides the split, the
statistics probabilistic traversal needs: the largest training distance to
the threshold (``scale``), a flag marking nodes where that distance carried
no information (``uniform_distance``, e.g. splits on 0/1-encoded features),
and the majority training class of each child subtree. A tree is held as
parallel node arrays (``DecisionTree``), the one form that training builds,
model files store and every traversal reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DataError
from .rng import finalize_array, stream_key, uniforms_at_array

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


# (name, dtype, per-node shape) of the node arrays a DecisionTree is built from
_NODE_ARRAYS = (
    ("feature", np.int32, ()),
    ("threshold", np.float64, ()),
    ("scale", np.float64, ()),
    ("uniform_distance", bool, ()),
    ("child", np.int64, (2,)),
    ("majority", np.int8, (2,)),
    ("class_counts", np.int64, (2,)),
)


@dataclass(eq=False)
class DecisionTree:
    """A tree as parallel node arrays. Node 0 is the root, and build_trees
    numbers nodes in level order. Internal node i sends values <=
    threshold[i] of feature[i] left; row i of child holds its (left,
    right) children and row i of majority their subtrees' majority
    classes. Leaves have feature == -1, a zero child row and their
    training class counts in class_counts (zero at internal nodes);
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
        for name, dtype, _ in _NODE_ARRAYS:
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
                    for name, _, _ in _NODE_ARRAYS)
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


def build_trees(jobs, expand, n_features: int, metas) -> list:
    """Build len(metas) trees level by level, all of them together, and
    number each tree's nodes in level order: level by level, and within a
    level left to right.

    jobs are the root jobs, one per tree in order. expand(jobs) takes one
    level's jobs and returns (nodes, jobs). nodes holds arrays over those
    jobs in order: (feature, threshold, scale, uniform_distance, majority,
    class_counts), with feature -1 at a leaf. The returned jobs are the
    next level's: the left and then the right child of each split node, in
    node order. metas[t] is tree t's training_meta."""
    tree = np.arange(len(metas))
    levels, level_tree, level_child = [], [], []
    n_seen = 0  # nodes of the levels so far, all trees
    while tree.size:
        nodes, jobs = expand(jobs)
        split = nodes[0] >= 0
        # children as positions in the concatenated levels, for now
        child = np.zeros((tree.size, 2), dtype=np.int64)
        child[split] = n_seen + tree.size + np.arange(2 * np.count_nonzero(split)).reshape(-1, 2)
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
    n_nodes = np.bincount(tree, minlength=len(metas))
    first = np.cumsum(n_nodes) - n_nodes
    node_id = np.empty_like(order)
    node_id[order] = np.arange(order.size) - np.repeat(first, n_nodes)
    split = feature >= 0
    child[split] = node_id[child[split]]
    trees = []
    for lo, n, meta in zip(first, n_nodes, metas):
        at = order[lo:lo + n]
        trees.append(DecisionTree(feature[at], threshold[at], scale[at], uniform[at], child[at],
                                  majority[at], counts[at], n_features, training_meta=meta))
    return trees


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


# Elements one block of training work holds: the samples of one group of
# trees grown together, and the (sample, feature) pairs of one block of a
# level's split search. It bounds the grower's transient memory whatever
# the row count or the number of trees.
GROW_BLOCK = 2**15


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
    Only the nodes that may still split (``active``) keep their samples,
    grouped node by node in ``row`` and ``label``."""

    depth: int
    counts: np.ndarray  # (n, 2) class counts of every node of the level
    key: np.ndarray  # (n,) stream key of each node's feature draw
    active: np.ndarray  # positions of the nodes that may split
    size: np.ndarray  # their sample counts
    row: np.ndarray  # their samples' rows of the data
    label: np.ndarray


class _Grower:
    """CART growth level by level, as build_trees' expand step over _Level
    jobs. A node's split search runs on its drawn features only. The
    samples of every (node, feature) pair of a search block are ordered by
    value with one sort of packed integer keys (pair, value rank, label).
    Features beyond the drawn ones are searched only for nodes whose draw
    has no valid cut."""

    def __init__(self, data: Dataset, max_depth, min_leaf, features_per_split):
        X = np.ascontiguousarray(data.rows)
        self.x = X.ravel()
        self.y = data.labels
        self.n_features = X.shape[1]
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_primary = self.n_features
        if features_per_split is not None:
            self.n_primary = min(features_per_split, self.n_features)
        # dense ranks of each column's values: rank r of feature f has
        # value self.value[self.value_start[f] + r]
        rank = np.empty(X.shape, dtype=np.int32)
        values = []
        for f in range(self.n_features):
            column_values, rank[:, f] = np.unique(X[:, f], return_inverse=True)
            values.append(column_values)
        self.rank = rank.ravel()
        self.value = np.concatenate(values)
        self.value_start = np.cumsum([0] + [v.size for v in values[:-1]])
        self.rank_bits = (max(v.size for v in values) - 1).bit_length()

    def roots(self, samples, seeds) -> _Level:
        """The root level of trees grown on the given rows of the data."""
        node = np.repeat(np.arange(len(samples)), [s.size for s in samples])
        row = np.concatenate(samples)
        label = self.y[row]
        counts = np.bincount(2 * node + label, minlength=2 * len(samples)).reshape(-1, 2)
        key = np.array([stream_key(seed) for seed in seeds], dtype=np.uint64)
        return self._level(0, counts, key, row, label, node)

    def _level(self, depth, counts, key, row, label, node) -> _Level:
        n = counts.sum(axis=1)
        can = (counts.min(axis=1) > 0) & (n >= 2 * self.min_leaf)
        if self.max_depth is not None and depth >= self.max_depth:
            can[:] = False
        keep = can[node]
        order = np.argsort(node[keep], kind="stable")
        return _Level(depth, counts, key, can.nonzero()[0], n[can],
                      row[keep][order], label[keep][order])

    def expand(self, level: _Level):
        n = level.counts.shape[0]
        feature = np.full(n, -1, dtype=np.int64)
        threshold = np.zeros(n)
        scale = np.ones(n)
        uniform = np.zeros(n, dtype=bool)
        majority = np.zeros((n, 2), dtype=np.int64)
        counts = level.counts.copy()
        found, f, t, dmax, dmin = self._splits(level)
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
        right = self.x[row * self.n_features + f[rank]] > t[rank]
        child = 2 * rank + right
        child_counts = np.bincount(2 * child + label, minlength=4 * split.size).reshape(-1, 2)
        majority[split] = (child_counts[:, 1] > child_counts[:, 0]).reshape(-1, 2)
        key = finalize_array(np.repeat(level.key[split], 2)
                             ^ np.tile(np.array([0, 1], dtype=np.uint64), split.size))
        nodes = (feature, threshold, scale, uniform, majority, counts)
        return nodes, self._level(level.depth + 1, child_counts, key, row, label, child)

    def _splits(self, level: _Level):
        """The split of each active node: (found mask, then feature,
        threshold, largest and smallest distance to the threshold of the
        nodes found)."""
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
        threshold) of the best cut of each (node, feature) pair, node i
        searching features[i]; score is -inf where a pair has no valid cut.
        Pairs are searched in blocks of about GROW_BLOCK samples."""
        feature = features.ravel()
        size = np.repeat(level.size[nodes], features.shape[1])
        first = np.repeat(start[nodes], features.shape[1])
        out = np.full((4, feature.size), -np.inf)
        end = np.cumsum(size)
        lo = 0
        while lo < feature.size:
            hi = max(lo + 1, int(np.searchsorted(end, end[lo] - size[lo] + GROW_BLOCK, "right")))
            self._search_block(level, feature[lo:hi], first[lo:hi], size[lo:hi], out[:, lo:hi])
            lo = hi
        return out.reshape(4, *features.shape)

    def _search_block(self, level, feature, first, size, out):
        end = np.cumsum(size)
        start = end - size
        pair = np.repeat(np.arange(feature.size), size)
        sample = np.repeat(first - start, size)
        sample += np.arange(sample.size)
        index = level.row[sample]
        index *= self.n_features
        index += feature[pair]
        # sorted, the keys order each pair's samples by value rank, then label
        key = self.rank[index].astype(np.int64)
        del index
        key <<= 1
        key |= level.label[sample]
        del sample
        key |= pair << (self.rank_bits + 1)
        key.sort()
        value_key = key >> 1
        cut = value_key[1:] != value_key[:-1]  # between positions i and i + 1
        cut[end[:-1] - 1] = False  # not across pairs
        cut = cut.nonzero()[0]
        p = pair[cut]
        nl = cut + 1 - start[p]
        if self.min_leaf > 1:
            ok = (nl >= self.min_leaf) & (size[p] - nl >= self.min_leaf)
            cut, p, nl = cut[ok], p[ok], nl[ok]
        if cut.size == 0:
            return
        ones = np.cumsum(key & 1)
        ones_before = ones[start] - (key[start] & 1)
        c1l = ones[cut] - ones_before[p]
        c1r = ones[end - 1][p] - ones_before[p] - c1l
        # counts are exact in float64, so differences of them are too
        nl, c1l, nr, c1r = (a.astype(np.float64) for a in (nl, c1l, size[p] - nl, c1r))
        score = _split_score(nl - c1l, c1l, nl, nr - c1r, c1r, nr)
        # first max of each pair's cuts: the smallest threshold wins ties
        run = np.r_[0, (p[1:] != p[:-1]).nonzero()[0] + 1]
        top = np.maximum.reduceat(score, run)
        at = (score == np.repeat(top, np.diff(np.r_[run, score.size]))).nonzero()[0]
        at = at[np.r_[True, p[at[1:]] != p[at[:-1]]]]
        p, i = p[at], cut[at]
        base = self.value_start[feature[p]]
        mask = (1 << self.rank_bits) - 1

        def value(position):
            return self.value[base + (value_key[position] & mask)]

        a, b = value(i), value(i + 1)
        t = (a + b) / 2.0
        # between adjacent floats the midpoint can round up onto b, which
        # would send b's samples left and can leave the right child empty
        t = np.where(t == b, a, t)
        out[0, p] = top
        out[1, p] = t
        out[2, p] = np.maximum(np.abs(value(start[p]) - t), np.abs(value(end[p] - 1) - t))
        out[3, p] = np.minimum(np.abs(a - t), np.abs(b - t))


def check_growth(n_trees, max_depth, min_samples_leaf, features_per_split) -> None:
    """Raise ValueError naming the first growth setting out of range."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1 or None")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    if features_per_split is not None and features_per_split < 1:
        raise ValueError("features_per_split must be >= 1 or None")


def _check_training(data: Dataset, *growth):
    check_growth(*growth)
    if data.n_rows == 0:
        raise DataError("empty training set")


def _grow(data: Dataset, trees, max_depth, min_samples_leaf, features_per_split) -> list:
    """Trees grown on rows of the data: trees yields each tree's (rows,
    seed), its rows (n_rows of them, repeated under bootstrap) and the seed
    of its feature draws. Trees are drawn and grown together in groups of
    about GROW_BLOCK samples."""
    grower = _Grower(data, max_depth, min_samples_leaf, features_per_split)
    per_group = max(1, GROW_BLOCK // data.n_rows)
    grown, trees = [], iter(trees)
    while group := list(itertools.islice(trees, per_group)):
        samples, seeds = zip(*group)
        metas = [{"max_depth": max_depth, "min_samples_leaf": min_samples_leaf, "rng_seed": seed}
                 for seed in seeds]
        grown += build_trees(grower.roots(samples, seeds), grower.expand, data.n_features, metas)
    return grown


def train_tree(
    data: Dataset,
    *,
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
    features_per_split: Optional[int] = None,
    rng_seed: int = 0,
) -> DecisionTree:
    """Grow a greedy CART tree minimizing Gini impurity.

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
    _check_training(data, 1, max_depth, min_samples_leaf, features_per_split)
    return _grow(data, [(np.arange(data.n_rows), rng_seed)], max_depth, min_samples_leaf,
                 features_per_split)[0]


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
    """Train a bagged ensemble; per-tree bootstrap rows and seeds derive
    from rng_seed. Each tree equals train_tree on its rows with its seed."""
    _check_training(data, n_trees, max_depth, min_samples_leaf, features_per_split)

    def draws():
        for child in np.random.SeedSequence(rng_seed).spawn(n_trees):
            rng = np.random.default_rng(child)
            if bootstrap:
                rows = rng.integers(0, data.n_rows, data.n_rows)
            else:
                rows = np.arange(data.n_rows)
            yield rows, int(rng.integers(0, 2**63))

    trees = _grow(data, draws(), max_depth, min_samples_leaf, features_per_split)
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
