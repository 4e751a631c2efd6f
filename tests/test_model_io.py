import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fairtree import cli
from fairtree.data import load_dataset, load_dataset_config
from fairtree.errors import ModelFormatError
from fairtree.model_io import SCHEMA, deserialize, dumps, loads, serialize
from fairtree.tree import (
    _NODE_ARRAYS,
    Dataset,
    Forest,
    predict_deterministic,
    predict_forest_batch,
    train_forest,
    train_tree,
)

from conftest import full_uniform_tree, internal, leaf, make_tree, one_tree

SYNTHETIC = str(Path(__file__).parent.parent / "fixtures" / "synthetic.json")


def trained_tree():
    rng = np.random.default_rng(2)
    rows = rng.uniform(0, 10, size=(60, 3)).round(3)
    labels = (rows[:, 0] + rows[:, 1] > 9).astype(int)
    data = Dataset(["a", "b", "c"], ["numeric"] * 3, rows, labels)
    return train_tree(data, max_depth=5, rng_seed=4)


def trained_forest(**kwargs):
    rng = np.random.default_rng(3)
    rows = rng.uniform(0, 10, size=(50, 3))
    labels = (rows[:, 2] > 4).astype(int)
    data = Dataset(["a", "b", "c"], ["numeric"] * 3, rows, labels)
    kwargs = {"max_depth": 3, "features_per_split": 2, **kwargs}
    return train_forest(data, n_trees=4, rng_seed=9, **kwargs)


def test_tree_round_trip_identity():
    # a train_tree model is a one-tree Forest, saved as a forest document
    tree = trained_tree()
    assert isinstance(tree, Forest) and tree.n_trees == 1
    assert deserialize(serialize(tree)) == tree
    text = dumps(tree)
    assert json.loads(text)["kind"] == "forest"
    assert loads(text) == tree and dumps(loads(text)) == text


def test_forest_round_trip_identity():
    for kwargs in (
        {},  # subsampled features, bootstrap
        {"features_per_split": None, "bootstrap": False},
        {"max_depth": None, "min_samples_leaf": 3},
    ):
        forest = trained_forest(**kwargs)
        assert deserialize(serialize(forest)) == forest
        text = dumps(forest)
        assert loads(text) == forest
        assert dumps(loads(text)) == text


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
    doc["trees"][0]["scale"][0] = -1.0
    with pytest.raises(ModelFormatError, match=r"^document\.trees\[0\]\.scale\[0\]: must be >= 0"):
        deserialize(doc)
    doc = hand_written_tree()  # a "kind": "tree" document names its fields at the top
    doc["scale"][0] = -1.0
    with pytest.raises(ModelFormatError, match=r"^document\.scale\[0\]: must be >= 0"):
        deserialize(doc)


def test_missing_field_reports_path():
    doc = serialize(trained_forest())
    del doc["trees"][2]["threshold"]
    with pytest.raises(ModelFormatError, match=r"^document\.trees\[2\]: missing field 'threshold'"):
        deserialize(doc)


def hand_written_tree():
    """x0 <= 2.5 goes left to leaf 1, else right to leaf 2 (nodes 0-2)."""
    return {
        "schema": SCHEMA,
        "kind": "tree",
        "n_features": 2,
        "class_labels": [0, 1],
        "training_meta": {},
        "feature": [0, -1, -1],
        "threshold": [2.5, 0.0, 0.0],
        "scale": [2.0, 1.0, 1.0],
        "uniform_distance": [False, False, False],
        "child": [[1, 2], [0, 0], [0, 0]],
        "majority": [[0, 1], [0, 0], [0, 0]],
        "class_counts": [[0, 0], [3, 1], [0, 4]],
    }


def test_hand_written_document_is_usable():
    tree = deserialize(hand_written_tree())
    # hand trace: 2.0 <= 2.5 -> left leaf 0; 3.0 > 2.5 -> right leaf 1
    assert predict_deterministic(tree, [2.0, 0.0]) == 0
    assert predict_deterministic(tree, [3.0, 0.0]) == 1
    assert tree.leaf_class.tolist() == [0, 0, 1]
    # it loads as a one-tree Forest, and saves as a forest document of it
    tree_doc = {k: v for k, v in hand_written_tree().items() if k not in ("schema", "kind")}
    assert dumps(tree) == json.dumps({"schema": SCHEMA, "kind": "forest", "n_trees": 1,
                                      "bagging_meta": {}, "trees": [tree_doc]},
                                     sort_keys=True) + "\n"


def chain_tree_doc():
    """Nodes 0 and 2 split; node 0's children are 1 and 2, node 2's are 3 and 4."""
    doc = hand_written_tree()
    doc.update(
        feature=[0, -1, 1, -1, -1],
        threshold=[2.5, 0.0, 1.0, 0.0, 0.0],
        scale=[2.0, 1.0, 1.0, 1.0, 1.0],
        uniform_distance=[False] * 5,
        child=[[1, 2], [0, 0], [3, 4], [0, 0], [0, 0]],
        majority=[[0, 1], [0, 0], [1, 0], [0, 0], [0, 0]],
        class_counts=[[0, 0], [3, 1], [0, 0], [1, 2], [2, 1]],
    )
    return doc


@pytest.mark.parametrize("field, index, value, message", [
    ("feature", 0, True, r"feature\[0\]: expected an integer that fits int32"),
    ("feature", 2, 1.0, r"feature\[2\]: expected an integer"),
    ("feature", 2, 2**40, r"feature\[2\]: expected an integer that fits int32"),
    ("feature", 2, 2, r"feature\[2\]: must be -1 \(a leaf\) or in \[0, n_features\)"),
    ("feature", 1, -2, r"feature\[1\]: must be -1"),
    ("threshold", 2, True, r"threshold\[2\]: expected a finite number"),
    ("threshold", 0, float("nan"), r"threshold\[0\]: expected a finite number"),
    ("scale", 2, "1", r"scale\[2\]: expected a finite number"),
    ("uniform_distance", 3, 0, r"uniform_distance\[3\]: expected a boolean"),
    ("class_counts", 4, [2, True], r"class_counts\[4\]: expected a list of 2 entries"),
    ("class_counts", 3, [1], r"class_counts\[3\]: expected a list of 2 entries"),
    ("class_counts", 3, [-1, 2], r"class_counts\[3\]: counts must be >= 0"),
    ("majority", 0, [0, 2], r"majority\[0\]: class ids must be 0 or 1"),
    ("child", 2, [3, 5], r"child\[2\]: an internal node's children must be in \(its id, 5\)"),
    ("child", 0, [2, 3], r"child\[0\]: names a child that is named more than once"),
    ("child", 2, [4, 4], r"child\[2\]: names a child that is named more"),
    ("child", 2, [2, 4], r"child\[2\]: an internal node's children must be in"),  # a cycle
    ("child", 1, [0, 1], r"child\[1\]: must be \[0, 0\] at a leaf"),
    ("majority", 3, [1, 0], r"majority\[3\]: must be \[0, 0\] at a leaf"),
    ("class_counts", 2, [1, 0], r"class_counts\[2\]: must be \[0, 0\] at an internal node"),
])
def test_bad_node_entries_are_rejected_with_their_path(field, index, value, message):
    doc = {"schema": SCHEMA, "kind": "forest", "n_trees": 2,
           "trees": [chain_tree_doc(), chain_tree_doc()]}
    deserialize(doc)
    doc["trees"][1][field][index] = value
    with pytest.raises(ModelFormatError, match=r"^document\.trees\[1\]\." + message):
        deserialize(doc)
    if ": expected " not in message:  # a tree rule, not a JSON type: the tree enforces it
        arrays = {name: doc["trees"][1][name] for name, _, _ in _NODE_ARRAYS}
        with pytest.raises(ValueError, match="^" + message):
            one_tree(**arrays, n_features=doc["trees"][1]["n_features"])


def test_unreachable_node_is_rejected():
    doc = chain_tree_doc()
    # node 2 becomes a leaf: nodes 3 and 4 are no longer anyone's child
    doc["feature"][2] = -1
    doc["child"][2] = [0, 0]
    doc["majority"][2] = [0, 0]
    doc["class_counts"][2] = [1, 1]
    with pytest.raises(ModelFormatError,
                       match=r"^document\.child\[3\]: node is no internal node's child"):
        deserialize(doc)


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["trees"][1].update(n_features=3),
     r"trees\[1\]\.n_features: trees disagree"),
    (lambda doc: doc["trees"][0]["child"].pop(), r"trees\[0\]\.child: expected 5 entries"),
    (lambda doc: doc["trees"][0].update(feature=[]),
     r"trees\[0\]\.feature: expected a non-empty"),
])
def test_bad_tree_arrays_are_rejected(change, message):
    doc = {"schema": SCHEMA, "kind": "forest", "n_trees": 2,
           "trees": [chain_tree_doc(), chain_tree_doc()]}
    change(doc)
    with pytest.raises(ModelFormatError, match=r"^document\." + message):
        deserialize(doc)


def test_a_child_in_the_next_trees_ids_is_rejected_naming_its_tree():
    # joined tree-major, tree 0's 5 nodes take ids 0-4 and tree 1's 5-9:
    # child 5 lies past tree 0's nodes but inside tree 1's ids
    doc = {"schema": SCHEMA, "kind": "forest", "n_trees": 2,
           "trees": [chain_tree_doc(), chain_tree_doc()]}
    doc["trees"][0]["child"][2] = [3, 5]
    with pytest.raises(ModelFormatError, match=r"^document\.trees\[0\]\.child\[2\]: "
                       r"an internal node's children must be in \(its id, 5\)$"):
        deserialize(doc)


def small_table():
    rng = np.random.default_rng(5)
    rows = rng.uniform(0, 10, size=(40, 3))
    return Dataset(["a", "b", "c"], ["numeric"] * 3, rows, (rows[:, 0] > 4).astype(int))


@pytest.mark.parametrize("fit, settings", [
    (train_tree, {"max_depth": np.int64(2)}),
    (train_tree, {"min_samples_leaf": np.int32(2)}),
    (train_tree, {"features_per_split": np.int8(2), "rng_seed": np.uint16(7)}),
    (train_forest, {"n_trees": np.int64(2), "rng_seed": np.int64(3)}),
    (train_forest, {"n_trees": 2, "features_per_split": np.int64(1), "bootstrap": np.bool_(False)}),
], ids=["max_depth int64", "min_samples_leaf int32", "features_per_split int8",
        "n_trees and rng_seed int64", "features_per_split int64"])
def test_numpy_scalar_settings_give_the_model_file_of_python_ones(fit, settings):
    model = fit(small_table(), **settings)
    text = dumps(model)
    assert loads(text) == model and dumps(loads(text)) == text
    python = {name: np.array(value).item() for name, value in settings.items()}
    assert text == dumps(fit(small_table(), **python))


def test_schema_and_kind_are_checked():
    doc = serialize(trained_tree())
    doc["schema"] = "fairtree-model/999"
    with pytest.raises(ModelFormatError, match="schema"):
        deserialize(doc)
    with pytest.raises(ModelFormatError, match="kind"):
        deserialize({"schema": SCHEMA, "kind": "shrub"})


def test_version_1_documents_are_rejected(tmp_path, capsys):
    doc = {
        "schema": "fairtree-model/1", "kind": "tree", "n_features": 1,
        "root": {"kind": "leaf", "class_counts": [1, 0], "predicted_class": 0},
    }
    with pytest.raises(ModelFormatError, match=r"^document\.schema: expected 'fairtree-model/2'"):
        deserialize(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["predict", "--model", str(path), "--data", SYNTHETIC]) == 2
    assert "document.schema" in capsys.readouterr().err


def test_class_labels_other_than_0_1_are_rejected(tmp_path, capsys):
    # class 1 is the favorable class throughout, so a model file may only
    # name its labels [0, 1] (or leave them out)
    deserialize({k: v for k, v in hand_written_tree().items() if k != "class_labels"})
    path = tmp_path / "model.json"
    for labels in ([1, 0], ["no", "yes"], [0, 1, 2]):
        doc = hand_written_tree()
        doc["class_labels"] = labels
        with pytest.raises(ModelFormatError, match=r"^document\.class_labels: must be \[0, 1\]$"):
            deserialize(doc)
        path.write_text(json.dumps(doc))
        assert cli.main(["predict", "--model", str(path), "--data", SYNTHETIC]) == 2
        err = capsys.readouterr().err
        assert err == "data error: document.class_labels: must be [0, 1]\n", err
    forest = serialize(trained_forest())
    forest["trees"][1]["class_labels"] = [1, 0]
    with pytest.raises(ModelFormatError, match=r"^document\.trees\[1\]\.class_labels: "):
        deserialize(forest)


def test_forest_tree_count_mismatch_is_rejected():
    doc = serialize(trained_forest())
    doc["n_trees"] = 99
    with pytest.raises(ModelFormatError, match="n_trees"):
        deserialize(doc)


def test_invalid_json_text_is_reported():
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        loads("{not json")


def test_dumps_is_valid_sorted_json():
    text = dumps(trained_tree())
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA
    assert text == json.dumps(doc, sort_keys=True) + "\n"


def test_dumps_writes_the_whole_documents_text_one_field_at_a_time():
    # a node array field as Python lists takes about ten times its text,
    # so the whole document as lists peaked at about 13 times the text
    rng = np.random.default_rng(5)
    forest = Forest(trees=[full_uniform_tree(rng, 8) for _ in range(16)], n_trees=16)
    for model in (trained_tree(), trained_forest(), forest):
        assert dumps(model) == json.dumps(serialize(model), sort_keys=True) + "\n"
    text = dumps(forest)
    tracemalloc.start()
    try:
        dumps(forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text), peak / len(text)


def test_deep_chain_tree_round_trips(tmp_path):
    # labels alternate along the one informative column, so each split cuts
    # off one row: a chain about as deep as the table is long
    lines = ["g,x,y"] + [f"1,{i},{'yes' if i % 2 else 'no'}" for i in range(1500)]
    (tmp_path / "chain.csv").write_text("\n".join(lines) + "\n")
    config = tmp_path / "chain.json"
    config.write_text(json.dumps({
        "name": "chain", "csv_path": "chain.csv", "label_column": "y",
        "positive_label_value": "yes", "protected_column": "g", "privileged_values": ["1"],
    }))
    tree = train_tree(load_dataset(load_dataset_config(str(config))))
    assert tree.max_depth >= 1400
    assert loads(dumps(tree)) == tree
    model = str(tmp_path / "model.json")
    assert cli.main(["train", "--data", str(config), "--n-trees", "1", "--no-bootstrap",
                     "--out", model]) == 0
    assert cli.main(["predict", "--data", str(config), "--model", model,
                     "--n-simulations", "5", "--out", str(tmp_path / "preds.csv")]) == 0
