import csv as csv_module
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from fairtree.data import (
    DatasetConfig,
    dataset_config_from_dict,
    load_dataset,
    load_dataset_config,
    make_folds,
)
from fairtree.errors import ConfigError, DataError
from fairtree.tree import Dataset

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def base_config(csv_path, **kwargs):
    fields = dict(
        name="test",
        csv_path=csv_path,
        label_column="y",
        positive_label_value="yes",
        protected_column="g",
        privileged_values=("1",),
    )
    fields.update(kwargs)
    return DatasetConfig(**fields)


def test_numeric_missing_values_take_column_median(tmp_path):
    csv = "g,x,y\n1,2.0,yes\n0,?,no\n1,4.0,no\n"
    ds = load_dataset(base_config(write_csv(tmp_path, csv)))
    x = ds.rows[:, ds.feature_index("x")]
    assert x[1] == 3.0  # median of {2, 4}
    np.testing.assert_array_equal(ds.labels, [1, 0, 0])


def test_categorical_codes_follow_first_appearance(tmp_path):
    csv = "g,c,y\n1,b,yes\n0,a,no\n1,b,no\n"
    ds = load_dataset(base_config(write_csv(tmp_path, csv)))
    c = ds.rows[:, ds.feature_index("c")]
    np.testing.assert_array_equal(c, [0.0, 1.0, 0.0])
    assert ds.feature_kinds[ds.feature_index("c")] == {"b": 0, "a": 1}


def test_categorical_missing_values_take_mode(tmp_path):
    csv = "g,c,y\n1,b,yes\n0,?,no\n1,b,no\n0,a,no\n"
    ds = load_dataset(base_config(write_csv(tmp_path, csv)))
    c = ds.rows[:, ds.feature_index("c")]
    assert c[1] == 0.0  # mode 'b' -> code 0


def test_protected_column_binarized_from_values(tmp_path):
    csv = "sex,x,y\nMale,1,yes\nFemale,2,no\nMale,3,no\n"
    config = base_config(
        write_csv(tmp_path, csv), protected_column="sex",
        privileged_values=("Male",),
    )
    ds = load_dataset(config)
    np.testing.assert_array_equal(ds.rows[:, ds.feature_index("sex")], [1.0, 0.0, 1.0])
    assert ds.feature_kinds[ds.feature_index("sex")] == {"Male": 1, "Female": 0}


def test_protected_column_binarized_from_numeric_cut(tmp_path):
    csv = "age,x,y\n25,1,yes\n40,2,no\n61,3,no\n"
    config = base_config(
        write_csv(tmp_path, csv), protected_column="age",
        privileged_values=None, privileged_min=40.0,
    )
    ds = load_dataset(config)
    np.testing.assert_array_equal(ds.rows[:, ds.feature_index("age")], [0.0, 1.0, 1.0])


def test_missing_column_is_named(tmp_path):
    csv = "g,x,y\n1,1,yes\n"
    with pytest.raises(DataError, match="'nope'"):
        load_dataset(base_config(write_csv(tmp_path, csv), protected_column="nope"))


def test_unmapped_label_value_reports_row(tmp_path):
    csv = "g,x,y\n1,1,yes\n0,2,maybe\n"
    config = base_config(write_csv(tmp_path, csv), negative_label_values=("no",))
    with pytest.raises(DataError, match="row 2.*'maybe'"):
        load_dataset(config)


def test_unlisted_negative_defaults_to_zero(tmp_path):
    csv = "g,x,y\n1,1,yes\n0,2,whatever\n"
    ds = load_dataset(base_config(write_csv(tmp_path, csv)))
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_empty_and_header_only_files_are_rejected(tmp_path):
    with pytest.raises(DataError, match="empty file"):
        load_dataset(base_config(write_csv(tmp_path, "")))
    with pytest.raises(DataError, match="no data rows"):
        load_dataset(base_config(write_csv(tmp_path, "g,x,y\n")))


def test_ragged_rows_are_rejected(tmp_path):
    csv = "g,x,y\n1,1,yes\n0,2\n"
    with pytest.raises(DataError, match="row 2"):
        load_dataset(base_config(write_csv(tmp_path, csv)))


def test_cells_are_whitespace_stripped(tmp_path):
    csv = "g, x, y\n 1, 1.5, yes\n 0, 2.5, no\n"
    ds = load_dataset(base_config(write_csv(tmp_path, csv)))
    assert ds.feature_names == ["g", "x"]
    np.testing.assert_array_equal(ds.rows[:, 1], [1.5, 2.5])


def test_headerless_csv_uses_config_column_names(tmp_path):
    csv = "1,3.5,yes\n0,1.5,no\n"
    config = base_config(write_csv(tmp_path, csv), column_names=("g", "x", "y"))
    ds = load_dataset(config)
    assert ds.n_rows == 2
    assert ds.feature_names == ["g", "x"]


def test_row_filters_and_keep_columns(tmp_path):
    csv = "g,x,z,junk,y\n1,1,keep,a,yes\n0,2,drop,b,no\n1,3,keep,c,no\n1,9,keep,d,yes\n"
    config = base_config(
        write_csv(tmp_path, csv),
        keep_columns=("g", "x"),
        row_filters=(
            {"column": "z", "keep_values": ("keep",)},
            {"column": "x", "max": 5},
        ),
    )
    config = dataset_config_from_dict(
        {
            "name": "test",
            "csv_path": config.csv_path,
            "label_column": "y",
            "positive_label_value": "yes",
            "protected_column": "g",
            "privileged_values": ["1"],
            "keep_columns": ["g", "x"],
            "row_filters": [
                {"column": "z", "keep_values": ["keep"]},
                {"column": "x", "max": 5},
            ],
        }
    )
    ds = load_dataset(config)
    assert ds.feature_names == ["g", "x"]
    np.testing.assert_array_equal(ds.rows[:, 1], [1.0, 3.0])


def test_loading_is_deterministic(tmp_path):
    csv = "g,c,x,y\n1,b,1,yes\n0,a,?,no\n1,?,3,no\n"
    config = base_config(write_csv(tmp_path, csv))
    a = load_dataset(config)
    b = load_dataset(config)
    assert a.feature_names == b.feature_names
    assert a.feature_kinds == b.feature_kinds
    np.testing.assert_array_equal(a.rows, b.rows)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_loaded_dataset_is_fully_numeric_and_binary(tmp_path):
    csv = "g,c,x,y\n1,b,1,yes\n0,a,?,no\n1,?,3,no\nfoo,a,2,yes\n"
    ds = load_dataset(base_config(write_csv(tmp_path, csv)))
    assert np.isfinite(ds.rows).all()
    assert set(np.unique(ds.rows[:, ds.feature_index("g")])) <= {0.0, 1.0}
    assert set(np.unique(ds.labels)) <= {0, 1}


def test_config_file_round_trip(tmp_path):
    doc = {
        "name": "demo",
        "csv_path": "demo.csv",
        "label_column": "y",
        "positive_label_value": "yes",
        "protected_column": "g",
        "privileged_values": ["1"],
    }
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = load_dataset_config(str(path))
    assert config.name == "demo"
    # csv_path resolves relative to the config file
    assert config.csv_path == str(tmp_path / "demo.csv")


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="privileged"):
        DatasetConfig(
            name="x", csv_path="x.csv", label_column="y",
            positive_label_value="1", protected_column="g",
        )
    with pytest.raises(ConfigError, match="missing field"):
        dataset_config_from_dict({"name": "x"})
    with pytest.raises(ConfigError, match="not found"):
        load_dataset_config("/nonexistent/config.json")


LIST_FIELDS = ("privileged_values", "negative_label_values", "drop_columns", "keep_columns",
               "categorical_columns", "one_hot_columns", "missing_values", "column_names")


def test_config_list_fields_must_be_lists_of_strings():
    # a string is not split into characters, and a number in a list (which
    # matches no cell) is not taken: each raises ConfigError naming its field
    doc = {"name": "x", "csv_path": "x.csv", "label_column": "y",
           "positive_label_value": "1", "protected_column": "g", "privileged_values": ["1"]}
    for key in LIST_FIELDS:
        for value in ("10", 7, {"a": "b"}, [1], ["g", None], [["g"]]):
            with pytest.raises(ConfigError, match=f"^{key}: expected a list of strings, got "):
                dataset_config_from_dict({**doc, key: value})
    for key in ("keep_values", "drop_values"):
        with pytest.raises(ConfigError, match=rf"^row_filters\[0\]\.{key}: expected a list of"):
            dataset_config_from_dict({**doc, "row_filters": [{"column": "g", key: [1]}]})
    config = dataset_config_from_dict({**doc, "missing_values": ["NA"], "drop_columns": ["x"],
                                       "keep_columns": None, "one_hot_columns": None})
    assert config.missing_values == ("NA",) and config.drop_columns == ("x",)
    assert config.keep_columns is None and config.privileged_values == ("1",)
    assert config.one_hot_columns == () and config.categorical_columns is None
    assert dataset_config_from_dict(doc).missing_values == ("", "?", "NA")
    # a number as csv_path once failed os.path.join with a TypeError traceback
    config = dataset_config_from_dict({**doc, "csv_path": 5}, base=os.path.join("d", "c.json"))
    assert config.csv_path == os.path.join("d", "5")


def test_config_privileged_min_must_be_a_number(tmp_path):
    doc = {"name": "x", "csv_path": "x.csv", "label_column": "y",
           "positive_label_value": "1", "protected_column": "g"}
    # json.loads takes NaN and Infinity; a NaN cut-off made every row unprivileged
    for value in ("1", True, False, [1], {"min": 1}, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="^privileged_min: expected a number, got "):
            dataset_config_from_dict({**doc, "privileged_min": value})
        with pytest.raises(ConfigError, match=r"^row_filters\[0\]\.max: expected a number, got "):
            dataset_config_from_dict({**doc, "privileged_min": 1,
                                      "row_filters": [{"column": "x", "max": value}]})
    for column in (5, ["x"], None):
        with pytest.raises(ConfigError, match=r"^row_filters\[0\]: expected an object with a "):
            dataset_config_from_dict({**doc, "privileged_min": 1,
                                      "row_filters": [{"column": column, "max": 1}]})
    assert dataset_config_from_dict({**doc, "privileged_min": 10**400}).privileged_min == 10**400
    for value in (40, 40.5):
        assert dataset_config_from_dict({**doc, "privileged_min": value}).privileged_min == value
    path = write_csv(tmp_path, "g,x,y\n30,1,yes\n50,2,no\n")
    data = load_dataset(dataset_config_from_dict({**doc, "csv_path": path,
                                                   "positive_label_value": "yes",
                                                   "privileged_min": 40}))
    assert data.rows[:, data.feature_names.index("g")].tolist() == [0.0, 1.0]


def test_make_folds_sizes_and_partition():
    plan = make_folds(10, 5, seed=3)
    sizes = sorted((plan.assignments == f).sum() for f in range(5))
    assert sizes == [2, 2, 2, 2, 2]
    plan = make_folds(11, 5, seed=3)
    sizes = sorted(int((plan.assignments == f).sum()) for f in range(5))
    assert sizes == [2, 2, 2, 2, 3]
    all_idx = np.concatenate([plan.test_indices(f) for f in range(5)])
    assert sorted(all_idx.tolist()) == list(range(11))
    for f in range(5):
        train = set(plan.train_indices(f).tolist())
        test = set(plan.test_indices(f).tolist())
        assert not train & test
        assert train | test == set(range(11))


def test_make_folds_is_deterministic_and_seed_sensitive():
    a = make_folds(50, 5, seed=9)
    b = make_folds(50, 5, seed=9)
    c = make_folds(50, 5, seed=10)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    assert not np.array_equal(a.assignments, c.assignments)


def test_make_folds_validates_arguments():
    with pytest.raises(ValueError, match="k"):
        make_folds(10, 1, seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        make_folds(3, 5, seed=0)


def test_stratified_folds_balance_classes():
    labels = np.array([1] * 10 + [0] * 40)
    plan = make_folds(50, 5, seed=1, labels=labels)
    for f in range(5):
        test = plan.test_indices(f)
        assert labels[test].sum() == 2  # 10 positives spread over 5 folds


def test_one_hot_columns_expand_to_indicators(tmp_path):
    csv = "g,c,y\n1,red,yes\n0,blue,no\n1,?,no\n0,red,yes\n"
    config = dataset_config_from_dict({
        "name": "test",
        "csv_path": write_csv(tmp_path, csv),
        "label_column": "y",
        "positive_label_value": "yes",
        "protected_column": "g",
        "privileged_values": ["1"],
        "one_hot_columns": ["c"],
    })
    ds = load_dataset(config)
    assert ds.feature_names == ["g", "c=red", "c=blue"]
    np.testing.assert_array_equal(ds.rows[:, 1], [1.0, 0.0, 1.0, 1.0])  # missing -> mode red
    np.testing.assert_array_equal(ds.rows[:, 2], [0.0, 1.0, 0.0, 0.0])


def test_protected_column_cannot_be_one_hot(tmp_path):
    with pytest.raises(ConfigError, match="one-hot"):
        dataset_config_from_dict({
            "name": "test",
            "csv_path": "x.csv",
            "label_column": "y",
            "positive_label_value": "yes",
            "protected_column": "g",
            "privileged_values": ["1"],
            "one_hot_columns": ["g"],
        })


def test_duplicate_header_names_are_rejected(tmp_path):
    csv = "g,x,x,y\n1,1,2,yes\n"
    with pytest.raises(DataError, match="duplicate column"):
        load_dataset(base_config(write_csv(tmp_path, csv)))


def test_unknown_listed_columns_are_named(tmp_path):
    path = write_csv(tmp_path, "g,z,y\n1,a,yes\n0,b,no\n")
    for field, value in (("keep_columns", ("g", "xx")), ("categorical_columns", ("xx",)),
                         ("one_hot_columns", ("zz",))):
        name = value[-1]
        with pytest.raises(DataError, match=f"missing column '{name}'"):
            load_dataset(base_config(path, **{field: value}))


def test_non_finite_cells_are_rejected(tmp_path):
    path = write_csv(tmp_path, "g,x,y\n1,1,yes\n0,inf,no\n1,nan,no\n")
    with pytest.raises(DataError, match="row 2: non-finite value 'inf' in column 'x'"):
        load_dataset(base_config(path))
    path = write_csv(tmp_path, "age,x,y\n25,1,yes\nnan,2,no\n61,3,no\n")
    config = base_config(path, protected_column="age", privileged_values=None,
                         privileged_min=40.0)
    with pytest.raises(DataError, match="row 2: non-finite value 'nan' in column 'age'"):
        load_dataset(config)


# -- scalar reference: the per-cell loader that load_dataset replaced --------
#
# It strips, missing-checks, parses and codes every cell one at a time.
# load_dataset must give an equal Dataset, or raise the same exception
# type and message, on every input.


def _ref_read_csv(config):
    try:
        with open(config.csv_path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = [[cell.strip() for cell in row] for row in csv_module.reader(fh) if row]
    except FileNotFoundError:
        raise DataError(f"CSV file not found: {config.csv_path}") from None
    if not rows:
        raise DataError(f"{config.csv_path}: empty file")
    if config.column_names is not None:
        header = [name.strip() for name in config.column_names]
    else:
        header = rows[0]
        rows = rows[1:]
    if len(set(header)) != len(header):
        raise DataError(f"{config.csv_path}: duplicate column names in header")
    if not rows:
        raise DataError(f"{config.csv_path}: no data rows")
    width = len(header)
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"{config.csv_path}: row {i}: expected {width} cells, found {len(row)}")
    return header, rows


def _ref_column(header, rows, name):
    try:
        j = header.index(name)
    except ValueError:
        raise DataError(f"missing column {name!r}") from None
    return [row[j] for row in rows]


def _ref_is_missing(value, config):
    return value in config.missing_values


def _ref_parse_float(value):
    try:
        return float(value)
    except ValueError:
        return None


def _ref_apply_filters(header, rows, config):
    for f in config.row_filters:
        col = _ref_column(header, rows, f.column)
        keep = []
        for value in col:
            ok = True
            if f.keep_values is not None:
                ok = ok and value in f.keep_values
            if f.drop_values is not None:
                ok = ok and value not in f.drop_values
            if f.minimum is not None or f.maximum is not None:
                num = None if _ref_is_missing(value, config) else _ref_parse_float(value)
                if num is None:
                    ok = False
                else:
                    if f.minimum is not None:
                        ok = ok and num >= f.minimum
                    if f.maximum is not None:
                        ok = ok and num <= f.maximum
            keep.append(ok)
        rows = [row for row, ok in zip(rows, keep) if ok]
    if not rows:
        raise DataError("row filters removed every row")
    return rows


def _ref_encode_labels(raw, config):
    labels = np.empty(len(raw), dtype=np.int64)
    for i, value in enumerate(raw, start=1):
        if _ref_is_missing(value, config):
            raise DataError(f"row {i}: missing label value")
        if value == config.positive_label_value:
            labels[i - 1] = 1
        elif (
            config.negative_label_values is None
            or value in config.negative_label_values
        ):
            labels[i - 1] = 0
        else:
            raise DataError(f"row {i}: label value {value!r} not in label mapping")
    return labels


def _ref_mode(values):
    """Most frequent element; ties break toward earliest first appearance."""
    counts, first = {}, {}
    for i, v in enumerate(values):
        if v not in counts:
            first[v] = i
        counts[v] = counts.get(v, 0) + 1
    return max(counts, key=lambda v: (counts[v], -first[v]))


def _ref_encode_protected(raw, config):
    present = [v for v in raw if not _ref_is_missing(v, config)]
    if not present:
        raise DataError(f"column {config.protected_column!r} has no values")
    if config.privileged_values is not None:
        fill = _ref_mode(present)
        column = np.array(
            [
                1.0 if (fill if _ref_is_missing(v, config) else v) in config.privileged_values
                else 0.0
                for v in raw
            ]
        )
        kind = {}
        for v in present:
            kind.setdefault(v, 1 if v in config.privileged_values else 0)
        return column, kind
    numbers = [_ref_parse_float(v) for v in present]
    if any(n is None for n in numbers):
        raise DataError(
            f"column {config.protected_column!r}: privileged_min requires numeric values"
        )
    for i, v in enumerate(raw, start=1):
        if not _ref_is_missing(v, config) and not math.isfinite(float(v)):
            raise DataError(f"row {i}: non-finite value {v!r} in column "
                            f"{config.protected_column!r}")
    median = float(np.median(numbers))
    out = np.empty(len(raw))
    for i, v in enumerate(raw):
        num = median if _ref_is_missing(v, config) else _ref_parse_float(v)
        if num is None:
            raise DataError(f"row {i + 1}: non-numeric value {v!r} in "
                            f"{config.protected_column!r}")
        out[i] = 1.0 if num >= config.privileged_min else 0.0
    return out, "numeric"


def _ref_encode_feature(name, raw, config):
    present = [v for v in raw if not _ref_is_missing(v, config)]
    if not present:
        raise DataError(f"column {name!r} has no values")
    if config.categorical_columns is not None:
        categorical = name in config.categorical_columns
    else:
        categorical = any(_ref_parse_float(v) is None for v in present)
    if categorical:
        codes = {}
        for v in present:  # first-appearance order
            if v not in codes:
                codes[v] = len(codes)
        fill = codes[_ref_mode(present)]
        values = np.array(
            [fill if _ref_is_missing(v, config) else codes[v] for v in raw],
            dtype=np.float64,
        )
        return values, codes
    numbers = []
    for i, v in enumerate(raw, start=1):
        if _ref_is_missing(v, config):
            numbers.append(None)
            continue
        num = _ref_parse_float(v)
        if num is None:
            raise DataError(f"row {i}: non-numeric value {v!r} in numeric column {name!r}")
        if not math.isfinite(num):
            raise DataError(f"row {i}: non-finite value {v!r} in column {name!r}")
        numbers.append(num)
    median = float(np.median([n for n in numbers if n is not None]))
    return np.array([median if n is None else n for n in numbers]), "numeric"


def _ref_one_hot(name, raw, config):
    present = [v for v in raw if not _ref_is_missing(v, config)]
    if not present:
        raise DataError(f"column {name!r} has no values")
    fill = _ref_mode(present)
    filled = [fill if _ref_is_missing(v, config) else v for v in raw]
    values = []
    for v in filled:
        if v not in values:
            values.append(v)
    return [
        (f"{name}={v}", np.array([1.0 if x == v else 0.0 for x in filled]))
        for v in values
    ]


def reference_load_dataset(config):
    header, rows = _ref_read_csv(config)
    for name in (config.label_column, config.protected_column, *config.drop_columns,
                 *(config.keep_columns or ()), *(config.categorical_columns or ()),
                 *config.one_hot_columns):
        _ref_column(header, rows, name)
    rows = _ref_apply_filters(header, rows, config)
    labels = _ref_encode_labels(_ref_column(header, rows, config.label_column), config)
    feature_names, feature_kinds, columns = [], [], []
    for name in header:
        if name == config.label_column or name in config.drop_columns:
            continue
        if config.keep_columns is not None and name not in config.keep_columns:
            continue
        raw = _ref_column(header, rows, name)
        if name == config.protected_column:
            values, kind = _ref_encode_protected(raw, config)
        elif name in config.one_hot_columns:
            for dummy_name, values in _ref_one_hot(name, raw, config):
                feature_names.append(dummy_name)
                feature_kinds.append("numeric")
                columns.append(values)
            continue
        else:
            values, kind = _ref_encode_feature(name, raw, config)
        feature_names.append(name)
        feature_kinds.append(kind)
        columns.append(values)
    return Dataset(
        feature_names=feature_names,
        feature_kinds=feature_kinds,
        rows=np.column_stack(columns),
        labels=labels,
    )


def _outcome(load, config):
    """Everything a loader's result is judged on: the Dataset's names,
    kinds (dict order and value types included), row and label bytes, or
    the exception type and message."""
    try:
        ds = load(config)
    except DataError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (ds.feature_names, repr(ds.feature_kinds), ds.rows.dtype, ds.rows.shape,
            ds.rows.tobytes(), ds.labels.dtype, ds.labels.tobytes())


NUMERIC_CELLS = ("0", "1", "2", "2", "-1", "2.5", "1e3", "-0.0", "0.0", "-0", "+3", "0.5")
RARE_NUMERIC_CELLS = ("nan", "inf", "-inf", "NaN")
CATEGORY_CELLS = ("a", "b", "b", "c", "x y", 'q"t', "a,b", "two\nlines", "1")
PADDING = ("", "", "", " ", "  ", "\t", " \r\n ")


def _random_document(rng):
    """(csv text, config dict) of one random CSV document and its config."""
    n = int(rng.integers(1, 14))
    missing = (None, ("", "?", "NA"), ("-", "n/a"), ("?",))[rng.integers(4)]
    markers = ("", "?", "NA") if missing is None else missing
    rare = rng.random() < 0.15

    def draw(pool, p_missing):
        cells = []
        for _ in range(n):
            if markers and rng.random() < p_missing:
                cells.append(str(rng.choice(markers)))
            elif rare and rng.random() < 0.1:
                cells.append(str(rng.choice(RARE_NUMERIC_CELLS)))
            else:
                cells.append(str(rng.choice(pool)))
        return cells

    by_min = rng.random() < 0.3
    columns = {
        "y": draw(("yes", "no", "no") + (("maybe",) if rng.random() < 0.3 else ()),
                  0.05 if rng.random() < 0.3 else 0.0),
        "g": draw(("25", "40", "61", "40", "-0.0") + (("old",) if rng.random() < 0.1 else ())
                  if by_min else ("1", "0", "M", "F", "0"), 0.2),
    }
    for j in range(int(rng.integers(1, 5))):
        pool = (NUMERIC_CELLS, NUMERIC_CELLS[:4], CATEGORY_CELLS,
                NUMERIC_CELLS + CATEGORY_CELLS[:2])[rng.integers(4)]
        columns[f"f{j}"] = draw(pool, float(rng.choice((0.0, 0.2, 0.5))))
    names = list(columns)
    order = rng.permutation(len(names))
    names = [names[k] for k in order]
    features = [c for c in names if c.startswith("f")]

    def subset(pool, p=0.5):
        return [c for c in pool if rng.random() < p]

    def maybe_unknown(listed):
        return listed + ["zz"] if rng.random() < 0.05 else listed

    config = {
        "name": "random",
        "csv_path": "data.csv",
        "label_column": "y",
        "positive_label_value": "yes",
        "protected_column": "g",
    }
    if by_min:
        config["privileged_min"] = float(rng.choice((0.0, 40.0, 50.5)))
    else:
        config["privileged_values"] = ["1", "M"]
    if rng.random() < 0.5:
        config["negative_label_values"] = ["no"]
    if missing is not None:
        config["missing_values"] = list(missing)
    if rng.random() < 0.4:
        config["categorical_columns"] = maybe_unknown(subset(features))
    if rng.random() < 0.4:
        config["one_hot_columns"] = maybe_unknown(subset(features))
    if rng.random() < 0.25:
        config["keep_columns"] = maybe_unknown(["g"] + subset(features))
    elif rng.random() < 0.25:
        config["drop_columns"] = maybe_unknown(subset(features))
    filters = []
    for _ in range(int(rng.choice((0, 0, 1, 2)))):
        column = str(rng.choice(names))
        pool = sorted(set(columns[column]))
        kind = rng.integers(3)
        if kind == 0:
            filters.append({"column": column, "keep_values": subset(pool, 0.7)})
        elif kind == 1:
            filters.append({"column": column, "drop_values": subset(pool, 0.3)})
        else:
            bound = {"min": float(rng.choice((-1, 0, 1)))} if rng.random() < 0.5 else {}
            if rng.random() < 0.5 or not bound:
                bound["max"] = float(rng.choice((0, 2, 100)))
            filters.append({"column": column, **bound})
    if filters:
        config["row_filters"] = filters

    def cell(text):
        text = str(rng.choice(PADDING)) + text + str(rng.choice(PADDING))
        if rng.random() < 0.3 or any(ch in text for ch in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    rows = [[cell(columns[c][i]) for c in names] for i in range(n)]
    if rng.random() < 0.05:  # one ragged row
        victim = rows[rng.integers(n)]
        if rng.random() < 0.5:
            victim.append("extra")
        else:
            victim.pop()
    header = [cell(c) for c in names]
    if rng.random() < 0.3:
        config["column_names"] = [str(rng.choice(PADDING[:5])) + c for c in names]
    else:
        rows.insert(0, header)
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    lines = []
    for row in rows:
        lines.append(",".join(row))
        if rng.random() < 0.1:
            lines.append("")
    text = newline.join(lines) + (newline if rng.random() < 0.8 else "")
    if rng.random() < 0.1:
        text = "\ufeff" + text
    return text, config


def test_load_dataset_matches_scalar_reference_on_random_documents(tmp_path):
    rng = np.random.default_rng(20261018)
    outcomes = {"dataset": 0, "error": 0}
    for case in range(400):
        text, doc = _random_document(rng)
        (tmp_path / "data.csv").write_text(text, encoding="utf-8", newline="")
        config = dataset_config_from_dict(doc, base=tmp_path / "config.json")
        expected = _outcome(reference_load_dataset, config)
        assert _outcome(load_dataset, config) == expected, (case, text, doc)
        outcomes["error" if expected[0] == "error" else "dataset"] += 1
    # both sides of the comparison are exercised, not just error paths
    assert outcomes["dataset"] > 150 and outcomes["error"] > 40, outcomes


def test_load_dataset_matches_scalar_reference_on_fixtures():
    """Every fixture whose CSV is present: the bundled synthetic one, and
    the public ones once fetched per data/README.md."""
    loaded = 0
    for fixture in sorted(FIXTURES.glob("*.json")):
        config = load_dataset_config(str(fixture))
        if os.path.exists(config.csv_path):
            assert _outcome(load_dataset, config) == _outcome(reference_load_dataset, config)
            loaded += 1
    assert loaded >= 1
