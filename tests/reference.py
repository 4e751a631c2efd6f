"""Scalar reference implementations of the traversal mechanism.

fairtree computes flip chances in batches (traversal._flip_chance) and in
its row walk (traversal._row_masses), and draws in batches
(rng.uniforms_at_array). This module keeps a plain, node-by-node copy of the
same rule for tests to compare against: the distance-based flip chance, its
fairness boost, one stream's sequential draws, one probabilistic walk, the
exact path enumeration on those helpers, Monte Carlo's votes drawn from
the exact chances, and the forest's deterministic votes.
"""

from fairtree.rng import GAMMA, finalize, stream_key
from fairtree.traversal import FairnessSpec, PredictionDistribution, TraversalConfig
from fairtree.tree import Forest, _check_sample

_MASK = (1 << 64) - 1
_TO_UNIT = 2.0 ** -53


def uniform_at(key: int, index: int) -> float:
    """The index-th uniform draw of a stream, in [0, 1)."""
    z = finalize((key + (index + 1) * GAMMA) & _MASK)
    return (z >> 11) * _TO_UNIT


class TraversalStream:
    """Sequential view of one counter-based stream."""

    __slots__ = ("key", "_index")

    def __init__(self, key: int):
        self.key = key & _MASK
        self._index = 0

    @classmethod
    def derive(cls, seed: int, *words: int) -> "TraversalStream":
        return cls(stream_key(seed, *words))

    def next_uniform(self) -> float:
        u = uniform_at(self.key, self._index)
        self._index += 1
        return u


def flip_probability(tree: Forest, node: int, sample, config: TraversalConfig) -> float:
    """Distance-based flip chance at internal node ``node`` of ``tree``,
    clamped to [0, p_max].

    Nodes flagged uniform_distance saw a single training distance (0/1
    encoded splits); distance carries no signal there and the flip chance
    saturates at p_max.
    """
    if tree.uniform_distance[node]:
        return config.p_max
    d = abs(float(sample[tree.feature[node]]) - float(tree.threshold[node]))
    scale = float(tree.scale[node])
    if scale > 0.0:
        base = config.p_max - d / scale
    else:
        base = config.p_max if d == 0.0 else 0.0
    return min(max(base, 0.0), config.p_max)


def _goes_left(tree: Forest, node: int, sample) -> bool:
    return float(sample[tree.feature[node]]) <= float(tree.threshold[node])


def adjusted_flip_probability(
    base: float,
    tree: Forest,
    node: int,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
) -> float:
    """Apply the fairness boost min(alpha * base, 0.5) when the node splits
    on the protected feature, the sample is unprivileged (value 0), and the
    deterministic child's subtree majority is the unfavorable class 0.
    With alpha = 0 the boost suppresses flips entirely at triggered nodes
    (0 * base == 0); elsewhere the base chance is returned unchanged."""
    if tree.feature[node] != spec.protected_feature:
        return base
    if float(sample[spec.protected_feature]) != 0.0:
        return base
    if tree.majority[node, 0 if _goes_left(tree, node, sample) else 1] != 0:
        return base
    return min(config.alpha * base, 0.5)


def _chance(tree, node, sample, spec, config) -> float:
    base = flip_probability(tree, node, sample, config)
    return adjusted_flip_probability(base, tree, node, sample, spec, config)


def traverse_once(
    tree: Forest,
    sample,
    spec: FairnessSpec,
    config: TraversalConfig,
    rng: TraversalStream,
) -> int:
    """One probabilistic root-to-leaf walk; returns the leaf's class.

    Consumes one uniform per visited internal node, so the walk at depth k
    uses draw k of its stream. With p_max == 0 every flip chance is 0 and
    the walk equals the deterministic traversal for any stream state."""
    sample = _check_sample(sample, tree.n_features)
    node = 0
    while tree.feature[node] >= 0:
        p_flip = _chance(tree, node, sample, spec, config)
        go_left = _goes_left(tree, node, sample)
        if rng.next_uniform() < p_flip:
            go_left = not go_left
        node = tree.child[node, 0 if go_left else 1]
    return int(tree.leaf_class[node])


def reference_exact(
    tree: Forest, sample, spec: FairnessSpec, config: TraversalConfig
) -> PredictionDistribution:
    """The class distribution of traverse_once, by enumerating every
    root-leaf path node by node with the scalar flip chance. Leaves are
    summed level by level, and within a level the deterministic children
    of the level above come first, then its flip children, each in parent
    order; sums are clamped to 1."""
    sample = _check_sample(sample, tree.n_features)
    probs = [0.0, 0.0]
    level = [(0, 1.0)]
    while level:
        stay, flip = [], []
        for node, prob in level:
            if tree.feature[node] < 0:
                probs[tree.leaf_class[node]] += prob
                continue
            p_flip = _chance(tree, node, sample, spec, config)
            left, right = tree.child[node]
            det_child, flip_child = (left, right) if _goes_left(tree, node, sample) else (right, left)
            if prob * (1.0 - p_flip) > 0.0:
                stay.append((det_child, prob * (1.0 - p_flip)))
            if prob * p_flip > 0.0:
                flip.append((flip_child, prob * p_flip))
        level = stay + flip
    return PredictionDistribution(probs=tuple(min(p, 1.0) for p in probs), n_simulations_used=0)


def reference_monte_carlo(trees, sample, spec: FairnessSpec, config: TraversalConfig,
                          stream_id: int = 0, exact=reference_exact):
    """The votes of predict_fair, a list of n_simulations lists of one 0/1
    vote a tree: tree t votes 1 in simulation s when draw 0 of stream
    (seed, stream_id, s, t) is below the tree's exact chance of class 1,
    exact(tree, sample, spec, config).probs[1]."""
    qs = [exact(tree, sample, spec, config).probs[1] for tree in trees]
    return [[int(uniform_at(stream_key(config.seed, stream_id, s, t), 0) < q)
             for t, q in enumerate(qs)] for s in range(config.n_simulations)]


def reference_votes(trees, X) -> list:
    """Each row's count of trees voting 1: every tree walked node by node
    from its root, values <= threshold to the left, to a leaf of class 1."""
    votes = []
    for sample in X:
        count = 0
        for tree in trees:
            node = 0
            while tree.feature[node] >= 0:
                node = tree.child[node, 0 if _goes_left(tree, node, sample) else 1]
            count += int(tree.leaf_class[node])
        votes.append(count)
    return votes
