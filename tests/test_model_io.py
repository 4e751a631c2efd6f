import json

import numpy as np
import pytest

from fairtree.errors import ModelFormatError
from fairtree.model_io import SCHEMA, deserialize, dumps, loads, serialize
from fairtree.tree import (
    Dataset,
    Forest,
    predict_deterministic,
    predict_forest_batch,
    train_forest,
    train_tree,
)

from conftest import internal, leaf, make_tree


def trained_tree():
    rng = np.random.default_rng(2)
    rows = rng.uniform(0, 10, size=(60, 3)).round(3)
    labels = (rows[:, 0] + rows[:, 1] > 9).astype(int)
    data = Dataset(["a", "b", "c"], ["numeric"] * 3, rows, labels)
    return train_tree(data, max_depth=5, rng_seed=4)


def trained_forest():
    rng = np.random.default_rng(3)
    rows = rng.uniform(0, 10, size=(50, 3))
    labels = (rows[:, 2] > 4).astype(int)
    data = Dataset(["a", "b", "c"], ["numeric"] * 3, rows, labels)
    return train_forest(data, n_trees=4, max_depth=3, features_per_split=2, rng_seed=9)


def test_tree_round_trip_identity():
    tree = trained_tree()
    assert deserialize(serialize(tree)) == tree
    assert loads(dumps(tree)) == tree


def test_forest_round_trip_identity():
    forest = trained_forest()
    assert deserialize(serialize(forest)) == forest


def test_round_trip_preserves_predictions_exactly():
    tree = trained_tree()
    clone = loads(dumps(tree))
    rng = np.random.default_rng(7)
    queries = rng.uniform(-5, 15, size=(1000, 3))
    np.testing.assert_array_equal(
        predict_forest_batch(Forest(trees=[tree], n_trees=1), queries),
        predict_forest_batch(Forest(trees=[clone], n_trees=1), queries),
    )


def test_full_float_precision_round_trips():
    threshold = 0.1 + 0.2  # not exactly 0.3
    scale = 1.0 + 2**-52  # the next float above 1.0
    tree = make_tree(internal(0, threshold, scale, leaf(1, 0), leaf(0, 1)))
    clone = loads(dumps(tree))
    assert clone.threshold[0] == threshold
    assert clone.scale[0] == scale


def test_negative_scale_is_rejected_with_path():
    doc = serialize(trained_tree())
    doc["root"]["scale"] = -1.0
    with pytest.raises(ModelFormatError, match=r"document\.root\.scale"):
        deserialize(doc)


def test_malformed_nested_node_reports_path():
    doc = serialize(trained_tree())
    node = doc["root"]
    # find a nested internal node and break it
    while node["left"]["kind"] != "internal":
        node = node["right"] if node["right"]["kind"] == "internal" else node["left"]
    del node["left"]["threshold"]
    with pytest.raises(ModelFormatError, match=r"root\.(left|right)"):
        deserialize(doc)


def test_inconsistent_leaf_prediction_is_rejected():
    doc = serialize(trained_tree())

    def first_leaf(node, path):
        if node["kind"] == "leaf":
            return node, path
        return first_leaf(node["left"], path + ".left")

    leaf_doc, path = first_leaf(doc["root"], "document.root")
    leaf_doc["predicted_class"] = 1 - leaf_doc["predicted_class"]
    with pytest.raises(ModelFormatError, match="majority"):
        deserialize(doc)


def test_schema_and_kind_are_checked():
    doc = serialize(trained_tree())
    doc["schema"] = "fairtree-model/999"
    with pytest.raises(ModelFormatError, match="schema"):
        deserialize(doc)
    with pytest.raises(ModelFormatError, match="kind"):
        deserialize({"schema": SCHEMA, "kind": "shrub"})


def test_forest_tree_count_mismatch_is_rejected():
    doc = serialize(trained_forest())
    doc["n_trees"] = 99
    with pytest.raises(ModelFormatError, match="n_trees"):
        deserialize(doc)


def test_invalid_json_text_is_reported():
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        loads("{not json")


def test_hand_written_document_is_usable():
    doc = {
        "schema": SCHEMA,
        "kind": "tree",
        "n_features": 2,
        "class_labels": [0, 1],
        "training_meta": {},
        "root": {
            "kind": "internal",
            "feature_index": 0,
            "threshold": 2.5,
            "scale": 2.0,
            "left_majority": 0,
            "right_majority": 1,
            "left": {"kind": "leaf", "class_counts": [3, 1], "predicted_class": 0},
            "right": {"kind": "leaf", "class_counts": [0, 4], "predicted_class": 1},
        },
    }
    tree = deserialize(doc)
    # hand trace: 2.0 <= 2.5 -> left leaf 0; 3.0 > 2.5 -> right leaf 1
    assert predict_deterministic(tree, [2.0, 0.0]) == 0
    assert predict_deterministic(tree, [3.0, 0.0]) == 1
    # uniform_distance defaults to False when absent
    assert not tree.uniform_distance[0]


def test_dumps_is_valid_sorted_json():
    text = dumps(trained_tree())
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
