import numpy as np
import pytest

from fairtree.model_io import SCHEMA, deserialize


def leaf(c0, c1):
    return {"kind": "leaf", "class_counts": [c0, c1], "predicted_class": 1 if c1 > c0 else 0}


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


def make_tree(root, n_features=1):
    """The DecisionTree of a nested root node document, packed by the
    model loader."""
    return deserialize({"schema": SCHEMA, "kind": "tree", "n_features": n_features,
                        "root": root})


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
