"""Model documents: schema "fairtree-model/1".

serialize() produces a plain dict of nested nodes from a tree's node
arrays; save/load wrap it in JSON with full round-trip float precision.
deserialize() checks invariants, reports the path of the offending node on
failure, and packs the nodes into arrays level by level as training does
(tree.build_trees), so a trained tree and its reloaded copy are equal.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .data import read_text
from .errors import DataError, ModelFormatError
from .tree import DecisionTree, Forest, build_trees

SCHEMA = "fairtree-model/1"


def _tree_doc(tree: DecisionTree) -> dict:
    arrays = (tree.feature, tree.threshold, tree.scale, tree.uniform_distance, tree.child,
              tree.majority, tree.class_counts, tree.leaf_class)
    feature, threshold, scale, uniform, child, majority, counts, leaf_class = (
        array.tolist() for array in arrays
    )

    def node_doc(i):
        if feature[i] < 0:
            return {
                "kind": "leaf",
                "class_counts": counts[i],
                "predicted_class": leaf_class[i],
            }
        return {
            "kind": "internal",
            "feature_index": feature[i],
            "threshold": threshold[i],
            "scale": scale[i],
            "uniform_distance": uniform[i],
            "left_majority": majority[i][0],
            "right_majority": majority[i][1],
            "left": node_doc(child[i][0]),
            "right": node_doc(child[i][1]),
        }

    return {
        "n_features": tree.n_features,
        "class_labels": list(tree.class_labels),
        "training_meta": dict(tree.training_meta),
        "root": node_doc(0),
    }


def serialize(model) -> dict:
    if isinstance(model, Forest):
        return {
            "schema": SCHEMA,
            "kind": "forest",
            "n_trees": model.n_trees,
            "bagging_meta": dict(model.bagging_meta),
            "trees": [_tree_doc(t) for t in model.trees],
        }
    if isinstance(model, DecisionTree):
        doc = {"schema": SCHEMA, "kind": "tree"}
        doc.update(_tree_doc(model))
        return doc
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _expect_dict(value, path):
    if not isinstance(value, dict):
        raise ModelFormatError(path, "expected an object")
    return value


def _get(doc, key, path):
    if key not in doc:
        raise ModelFormatError(path, f"missing field {key!r}")
    return doc[key]


def _as_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ModelFormatError(path, f"must be >= {minimum}")
    return value


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(path, "expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ModelFormatError(path, "must be finite")
    return value


def _as_class_id(value, path):
    v = _as_int(value, path)
    if v not in (0, 1):
        raise ModelFormatError(path, "class id must be 0 or 1")
    return v


def _parse_node(doc, path, n_features):
    """(node, children): node is (feature, threshold, scale,
    uniform_distance, left majority, right majority, count0, count1), with
    feature -1 at a leaf; children are a split's (document, path) jobs."""
    doc = _expect_dict(doc, path)
    kind = _get(doc, "kind", path)
    if kind == "leaf":
        counts = _get(doc, "class_counts", path)
        if not isinstance(counts, list) or len(counts) != 2:
            raise ModelFormatError(f"{path}.class_counts", "expected [count0, count1]")
        c0 = _as_int(counts[0], f"{path}.class_counts", minimum=0)
        c1 = _as_int(counts[1], f"{path}.class_counts", minimum=0)
        predicted = _as_class_id(_get(doc, "predicted_class", path), f"{path}.predicted_class")
        expected = 1 if c1 > c0 else 0
        if predicted != expected:
            raise ModelFormatError(
                f"{path}.predicted_class",
                f"must equal the majority class {expected} (ties go to 0)",
            )
        return (-1, 0.0, 1.0, False, 0, 0, c0, c1), ()
    if kind == "internal":
        feature = _as_int(_get(doc, "feature_index", path), f"{path}.feature_index", minimum=0)
        if feature >= n_features:
            raise ModelFormatError(
                f"{path}.feature_index", f"must be < n_features ({n_features})"
            )
        threshold = _as_number(_get(doc, "threshold", path), f"{path}.threshold")
        scale = _as_number(_get(doc, "scale", path), f"{path}.scale")
        if scale < 0:
            raise ModelFormatError(f"{path}.scale", "must be >= 0")
        uniform = doc.get("uniform_distance", False)
        if not isinstance(uniform, bool):
            raise ModelFormatError(f"{path}.uniform_distance", "expected a boolean")
        lmaj = _as_class_id(_get(doc, "left_majority", path), f"{path}.left_majority")
        rmaj = _as_class_id(_get(doc, "right_majority", path), f"{path}.right_majority")
        left = (_get(doc, "left", path), f"{path}.left")
        right = (_get(doc, "right", path), f"{path}.right")
        return (feature, threshold, scale, uniform, lmaj, rmaj, 0, 0), (left, right)
    raise ModelFormatError(f"{path}.kind", "expected 'leaf' or 'internal'")


def _parse_level(jobs, n_features):
    """tree.build_trees' expand step over one level's (document, path) jobs."""
    nodes, children = [], []
    for doc, path in jobs:
        node, kids = _parse_node(doc, path, n_features)
        nodes.append(node)
        children += kids
    feature, threshold, scale, uniform, lmaj, rmaj, count0, count1 = map(np.array, zip(*nodes))
    return (feature, threshold, scale, uniform, np.column_stack([lmaj, rmaj]),
            np.column_stack([count0, count1])), children


def _parse_trees(docs, paths) -> list:
    """The DecisionTrees of tree documents, built together."""
    n_features, roots, metas = set(), [], []
    for doc, path in zip(docs, paths):
        doc = _expect_dict(doc, path)
        n_features.add(_as_int(_get(doc, "n_features", path), f"{path}.n_features", minimum=1))
        labels = doc.get("class_labels", [0, 1])
        if labels != [0, 1]:
            raise ModelFormatError(f"{path}.class_labels", "must be [0, 1]")
        meta = doc.get("training_meta", {})
        if not isinstance(meta, dict):
            raise ModelFormatError(f"{path}.training_meta", "expected an object")
        roots.append((_get(doc, "root", path), f"{path}.root"))
        metas.append(dict(meta))
    if len(n_features) != 1:
        raise ModelFormatError("document.trees", "trees disagree on n_features")
    (n_features,) = n_features
    return build_trees(roots, lambda jobs: _parse_level(jobs, n_features), n_features, metas)


def deserialize(doc) -> "DecisionTree | Forest":
    doc = _expect_dict(doc, "document")
    schema = _get(doc, "schema", "document")
    if schema != SCHEMA:
        raise ModelFormatError("document.schema", f"expected {SCHEMA!r}, got {schema!r}")
    kind = _get(doc, "kind", "document")
    if kind == "tree":
        return _parse_trees([doc], ["document"])[0]
    if kind == "forest":
        trees_doc = _get(doc, "trees", "document")
        if not isinstance(trees_doc, list) or not trees_doc:
            raise ModelFormatError("document.trees", "expected a non-empty list")
        n_trees = _as_int(_get(doc, "n_trees", "document"), "document.n_trees", minimum=1)
        if n_trees != len(trees_doc):
            raise ModelFormatError("document.n_trees", "must equal len(trees)")
        meta = doc.get("bagging_meta", {})
        if not isinstance(meta, dict):
            raise ModelFormatError("document.bagging_meta", "expected an object")
        trees = _parse_trees(trees_doc, [f"document.trees[{i}]" for i in range(n_trees)])
        return Forest(trees=trees, n_trees=n_trees, bagging_meta=dict(meta))
    raise ModelFormatError("document.kind", "expected 'tree' or 'forest'")


def dumps(model) -> str:
    return json.dumps(serialize(model), indent=2, sort_keys=True) + "\n"


def loads(text: str) -> "DecisionTree | Forest":
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("document", f"invalid JSON: {exc}") from exc
    return deserialize(doc)


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model))


def load_model(path) -> "DecisionTree | Forest":
    return loads(read_text(path, DataError))
