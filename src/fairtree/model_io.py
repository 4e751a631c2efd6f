"""Model documents: schema "fairtree-model/2".

A tree document is a DecisionTree's node arrays (tree._NODE_ARRAYS), one
JSON list entry per node, plus n_features, class_labels and training_meta;
what the tree derives from them (leaf_class, depth) is not stored. A forest
document lists tree documents. deserialize() checks whole arrays and the
tree shape and names the offending entry (document.trees[i].<field>[j]).
dumps() writes sorted compact JSON with round-trip floats, so a tree and
its reloaded copy are equal array for array and one model has one text.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain

import numpy as np

from .data import parse_json, read_text, write_text
from .errors import DataError, ModelFormatError
from .tree import _NODE_ARRAYS, DecisionTree, Forest

SCHEMA = "fairtree-model/2"


def _tree_doc(tree: DecisionTree) -> dict:
    doc = {name: getattr(tree, name).tolist() for name, _, _ in _NODE_ARRAYS}
    doc.update(n_features=tree.n_features, class_labels=list(tree.class_labels),
               training_meta=dict(tree.training_meta))
    return doc


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
        return {"schema": SCHEMA, "kind": "tree", **_tree_doc(model)}
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


# by a node array's dtype kind: the kinds numpy may infer for its JSON list,
# and what one of its values must be
_KINDS = {"b": ("b", "a boolean"), "i": ("i", "an integer that fits {dtype}"),
          "f": ("iuf", "a finite number")}


def _array(values, dtype, shape):
    """values as an array with one entry of the given shape per node, or
    None unless each value is of dtype's kind: a bool; an integer that fits
    dtype; a finite number. Bools are not numbers here."""
    kind = np.dtype(dtype).kind
    try:
        array = np.array(values)
    except (ValueError, OverflowError):  # ragged rows, numbers beyond any dtype
        return None
    if array.shape[1:] != shape or array.dtype.kind not in _KINDS[kind][0]:
        return None
    if kind != "b":
        info = np.iinfo(dtype) if kind == "i" else np.finfo(dtype)  # nan and inf fall outside
        if (bool in set(map(type, chain.from_iterable(values) if shape else values))
                or not ((info.min <= array) & (array <= info.max)).all()):
            return None
    return array


def _node_arrays(doc, path) -> dict:
    """The tree document's node arrays: lists of equal length, each entry
    of its array's dtype and shape."""
    arrays = {}
    for name, dtype, shape in _NODE_ARRAYS:
        where = f"{path}.{name}"
        values = _get(doc, name, path)
        if not isinstance(values, list) or not values:
            raise ModelFormatError(where, "expected a non-empty list")
        if arrays and len(values) != len(arrays["feature"]):
            raise ModelFormatError(where, f"expected {len(arrays['feature'])} entries")
        arrays[name] = _array(values, dtype, shape)
        if arrays[name] is None:
            # an array fails only where one of its entries fails alone
            j = next(j for j, v in enumerate(values) if _array([v], dtype, shape) is None)
            what = _KINDS[np.dtype(dtype).kind][1].format(dtype=np.dtype(dtype))
            if shape:
                what = f"a list of {shape[0]} entries, each {what}"
            raise ModelFormatError(f"{where}[{j}]", f"expected {what}")
    return arrays


def _tree(doc, path) -> DecisionTree:
    doc = _expect_dict(doc, path)
    n_features = _as_int(_get(doc, "n_features", path), f"{path}.n_features", minimum=1)
    if doc.get("class_labels", [0, 1]) != [0, 1]:
        raise ModelFormatError(f"{path}.class_labels", "must be [0, 1]")
    meta = doc.get("training_meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError(f"{path}.training_meta", "expected an object")
    arrays = _node_arrays(doc, path)
    feature, child = arrays["feature"], arrays["child"]
    majority, counts = arrays["majority"], arrays["class_counts"]
    n = feature.size
    leaf = feature < 0

    def check(name, bad, message):
        if bad.any():
            raise ModelFormatError(f"{path}.{name}[{int(np.flatnonzero(bad)[0])}]", message)

    check("feature", (feature < -1) | (feature >= n_features),
          f"must be -1 (a leaf) or in [0, n_features) = [0, {n_features})")
    check("scale", arrays["scale"] < 0, "must be >= 0")
    check("majority", ((majority != 0) & (majority != 1)).any(axis=1), "class ids must be 0 or 1")
    check("class_counts", (counts < 0).any(axis=1), "counts must be >= 0")
    check("child", leaf & child.any(axis=1), "must be [0, 0] at a leaf")
    check("majority", leaf & majority.any(axis=1), "must be [0, 0] at a leaf")
    check("class_counts", ~leaf & counts.any(axis=1), "must be [0, 0] at an internal node")
    # children after their parent make the nodes a tree, reached from node
    # 0, once every other node has exactly one parent
    check("child", ~leaf & ((child <= np.arange(n)[:, None]) | (child >= n)).any(axis=1),
          f"an internal node's children must be in (its id, {n})")
    parents = np.bincount(child[~leaf].ravel(), minlength=n)
    check("child", ~leaf & (parents[child] > 1).any(axis=1),
          "names a child that is named more than once")
    check("child", (np.arange(n) > 0) & (parents == 0), "node is no internal node's child")
    return DecisionTree(**arrays, n_features=n_features, training_meta=dict(meta))


def deserialize(doc) -> "DecisionTree | Forest":
    doc = _expect_dict(doc, "document")
    schema = _get(doc, "schema", "document")
    if schema != SCHEMA:
        raise ModelFormatError("document.schema", f"expected {SCHEMA!r}, got {schema!r}")
    kind = _get(doc, "kind", "document")
    if kind == "tree":
        return _tree(doc, "document")
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
        trees = [_tree(t, f"document.trees[{i}]") for i, t in enumerate(trees_doc)]
        for i, tree in enumerate(trees):
            if tree.n_features != trees[0].n_features:
                raise ModelFormatError(f"document.trees[{i}].n_features",
                                       "trees disagree on n_features")
        return Forest(trees=trees, n_trees=n_trees, bagging_meta=dict(meta))
    raise ModelFormatError("document.kind", "expected 'tree' or 'forest'")


def dumps(model) -> str:
    return json.dumps(serialize(model), sort_keys=True) + "\n"


def loads(text: str) -> "DecisionTree | Forest":
    return deserialize(parse_json(text, partial(ModelFormatError, "document")))


def save_model(model, path) -> None:
    write_text(path, dumps(model))


def load_model(path) -> "DecisionTree | Forest":
    text = read_text(path, DataError, "model file")
    return deserialize(parse_json(text, partial(ModelFormatError, str(path))))
