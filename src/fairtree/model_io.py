"""Model documents: schema "fairtree-model/2".

Every model is written as a forest document ("kind": "forest"), a tree as
a forest of one. It lists tree documents: a tree's node arrays
(tree._NODE_ARRAYS), one JSON list entry per node, child with ids local to
the tree and [0, 0] at leaves (Forest.node_arrays), plus n_features,
training_meta and class_labels, always [0, 1]; what the forest derives
from them (leaf_class, depth, global child ids) is not stored. A "kind":
"tree" document, one tree document at the top level, still loads, as a
one-tree Forest. deserialize() parses fields, JSON types and list lengths,
each node array field once over all of a forest's trees, and hands the
joined arrays to Forest.from_arrays, which checks the tree rules once per
forest. Either names the offending entry (document.trees[i].<field>[j], j
counted within tree i; document.<field>[j] in a tree document). dumps()
writes sorted JSON with round-trip floats, one node array field at a time,
so a model and its reloaded copy are equal array for array and one model
has one text.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain

import numpy as np

from .data import parse_json, read_text, write_text
from .errors import DataError, ModelFormatError
from .tree import _NODE_ARRAYS, Forest, check_n_features

SCHEMA = "fairtree-model/2"


def serialize(model: Forest, array=np.ndarray.tolist) -> dict:  # array: an array's JSON value
    arrays, size = model.node_arrays()
    end = np.cumsum(size).tolist()
    trees = [{name: array(values[e - n:e]) for name, values in arrays.items()}
             for e, n in zip(end, size.tolist())]
    for doc, meta in zip(trees, model.training_meta):
        doc.update(n_features=model.n_features, class_labels=[0, 1], training_meta=dict(meta))
    return {"schema": SCHEMA, "kind": "forest", "n_trees": model.n_trees,
            "bagging_meta": dict(model.bagging_meta), "trees": trees}


def _expect_dict(value, path):
    if not isinstance(value, dict):
        raise ModelFormatError(path, "expected an object")
    return value


def _get(doc, key, path):
    if key not in doc:
        raise ModelFormatError(path, f"missing field {key!r}")
    return doc[key]


def _positive_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(path, "expected an integer")
    if value < 1:
        raise ModelFormatError(path, "must be >= 1")
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


def _header(doc, path) -> tuple:
    """The tree document as a dict, its n_features and its training_meta."""
    doc = _expect_dict(doc, path)
    n_features = _get(doc, "n_features", path)
    if doc.get("class_labels", [0, 1]) != [0, 1]:
        raise ModelFormatError(f"{path}.class_labels", "must be [0, 1]")
    meta = doc.get("training_meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError(f"{path}.training_meta", "expected an object")
    return doc, n_features, dict(meta)


def _node_arrays(docs, paths) -> tuple:
    """(arrays, size): the node arrays of the tree documents joined
    tree-major, each field parsed once over all trees; tree t's lists of
    size[t] entries, each of its array's dtype and shape."""
    arrays, size = {}, None
    for name, dtype, shape in _NODE_ARRAYS:
        lists = []
        for t, (doc, path) in enumerate(zip(docs, paths)):
            values = _get(doc, name, path)
            if not isinstance(values, list) or not values:
                raise ModelFormatError(f"{path}.{name}", "expected a non-empty list")
            if size and len(values) != size[t]:
                raise ModelFormatError(f"{path}.{name}", f"expected {size[t]} entries")
            lists.append(values)
        size = size or [len(values) for values in lists]
        values = lists[0] if len(lists) == 1 else list(chain.from_iterable(lists))
        arrays[name] = _array(values, dtype, shape)
        if arrays[name] is None:
            # an array fails only where one of its entries fails alone
            j = next(j for j, v in enumerate(values) if _array([v], dtype, shape) is None)
            t = int(np.searchsorted(np.cumsum(size), j, "right"))
            what = _KINDS[np.dtype(dtype).kind][1].format(dtype=np.dtype(dtype))
            if shape:
                what = f"a list of {shape[0]} entries, each {what}"
            raise ModelFormatError(f"{paths[t]}.{name}[{j - sum(size[:t])}]", f"expected {what}")
    return arrays, np.array(size)


def _rule_error(exc: ValueError, paths) -> ModelFormatError:
    """A broken tree rule's ValueError("[trees[<t>].]<where>: <rule>") as
    the model file's error at the path of tree t (of paths[0] without t)."""
    where, rule = str(exc).split(": ", 1)
    if where.startswith("trees["):
        t, where = where[6:].split("].", 1)
        paths = paths[int(t):]
    return ModelFormatError(f"{paths[0]}.{where}", rule)


def deserialize(doc) -> Forest:
    doc = _expect_dict(doc, "document")
    schema = _get(doc, "schema", "document")
    if schema != SCHEMA:
        raise ModelFormatError("document.schema", f"expected {SCHEMA!r}, got {schema!r}")
    kind, meta, trees_doc, paths = _get(doc, "kind", "document"), {}, [doc], ["document"]
    if kind == "forest":
        trees_doc = _get(doc, "trees", "document")
        if not isinstance(trees_doc, list) or not trees_doc:
            raise ModelFormatError("document.trees", "expected a non-empty list")
        n_trees = _positive_int(_get(doc, "n_trees", "document"), "document.n_trees")
        if n_trees != len(trees_doc):
            raise ModelFormatError("document.n_trees", "must equal len(trees)")
        meta = doc.get("bagging_meta", {})
        if not isinstance(meta, dict):
            raise ModelFormatError("document.bagging_meta", "expected an object")
        paths = [f"document.trees[{t}]" for t in range(n_trees)]
    elif kind != "tree":
        raise ModelFormatError("document.kind", "expected 'tree' or 'forest'")
    docs, n_features, training_meta = zip(*map(_header, trees_doc, paths))
    for path, n in zip(paths, n_features):
        try:
            check_n_features(n)
        except ValueError as exc:
            raise _rule_error(exc, [path]) from None
        if n != n_features[0]:
            raise ModelFormatError(f"{path}.n_features", "trees disagree on n_features")
    try:
        return Forest.from_arrays(*_node_arrays(docs, paths), n_features[0], training_meta,
                                  dict(meta))
    except ValueError as exc:
        raise _rule_error(exc, paths) from None


def dumps(model) -> str:
    """json.dumps(serialize(model), sort_keys=True) plus a newline, written one
    node array field at a time: as Python lists, a field takes ten times its text."""
    def text(doc: dict) -> str:  # a node array's value writes its own text
        return "{" + ", ".join(f"{json.dumps(key)}: " + (
            "[" + ", ".join(map(text, value)) + "]" if key == "trees" else value()
            if callable(value) else json.dumps(value, sort_keys=True))
            for key, value in sorted(doc.items())) + "}"

    return text(serialize(model, lambda values: lambda: json.dumps(values.tolist()))) + "\n"


def loads(text: str) -> Forest:
    return deserialize(parse_json(text, partial(ModelFormatError, "document")))


def save_model(model, path) -> None:
    write_text(path, dumps(model))


def load_model(path) -> Forest:
    text = read_text(path, DataError, "model file")
    return deserialize(parse_json(text, partial(ModelFormatError, str(path))))
