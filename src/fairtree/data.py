"""File access, CSV ingestion, encoding, imputation, and fold planning.

Every file the package reads or writes goes through read_text, read_json,
read_rows and write_text, which turn a failure into the caller's error
type (ConfigError or DataError) naming the file.

CSV files are RFC-4180 style, comma-delimited, UTF-8; a header row is
required unless the config supplies column_names. Cell whitespace is
stripped. Missing markers (default "", "?", "NA") are imputed: numeric
columns take the column median, categorical columns the most frequent
value. Categorical features are integer-coded in first-appearance order.
The protected column is binarized to privileged=1 / unprivileged=0 before
training, and the label to {0, 1} via the configured positive value.

Each column is factorized into its distinct raw cells plus one code per
row; stripping, missing checks, parsing, coding and imputation run once
per distinct cell, and numpy gathers build the columns. Malformed input
raises DataError (CLI exit 2) naming the file, or the row and column: a
path that cannot be read, bytes that are not UTF-8, CSV the parser
rejects, ragged rows, unknown columns, unmapped labels, non-numeric or
non-finite cells in numeric columns. A dataset config that cannot be read,
is not UTF-8 or not valid JSON, or has a list field that is not a list of
strings, a privileged_min or row filter bound that is not a finite number,
or another malformed row filter, raises ConfigError (exit 1).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import compress
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError
from .tree import Dataset

DEFAULT_MISSING = ("", "?", "NA")
# the DatasetConfig fields a config document gives as lists of strings
_LIST_FIELDS = ("privileged_values", "negative_label_values", "drop_columns", "keep_columns",
                "categorical_columns", "one_hot_columns", "missing_values", "column_names")


@dataclass(frozen=True)
class RowFilter:
    """Keep/drop rows by raw value, or by numeric bounds (rows whose value
    is missing or unparsable under a numeric bound are dropped)."""

    column: str
    keep_values: Optional[tuple] = None
    drop_values: Optional[tuple] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None


@dataclass(frozen=True)
class DatasetConfig:
    name: str
    csv_path: str
    label_column: str
    positive_label_value: str
    protected_column: str
    privileged_values: Optional[tuple] = None
    privileged_min: Optional[float] = None
    negative_label_values: Optional[tuple] = None
    drop_columns: tuple = ()
    keep_columns: Optional[tuple] = None
    categorical_columns: Optional[tuple] = None
    one_hot_columns: tuple = ()
    missing_values: tuple = DEFAULT_MISSING
    column_names: Optional[tuple] = None
    row_filters: tuple = ()

    def __post_init__(self):
        if (self.privileged_values is None) == (self.privileged_min is None):
            raise ConfigError(
                "exactly one of privileged_values / privileged_min is required"
            )
        if self.privileged_values is not None and not self.privileged_values:
            raise ConfigError("privileged_values must be non-empty")
        if self.label_column == self.protected_column:
            raise ConfigError("label and protected columns must differ")
        if self.label_column in self.drop_columns or self.protected_column in self.drop_columns:
            raise ConfigError("label and protected columns cannot be dropped")
        if self.keep_columns is not None and self.protected_column not in self.keep_columns:
            raise ConfigError("keep_columns must include the protected column")
        if self.protected_column in self.one_hot_columns:
            raise ConfigError(
                "the protected column stays a single 0/1 feature; it cannot be one-hot"
            )


def load_dataset_config(path) -> DatasetConfig:
    """Read a DatasetConfig from a JSON file."""
    return dataset_config_from_dict(read_json(path, ConfigError, "dataset config"), base=path)


def _strings(value, where) -> tuple:
    """value as a tuple if it is a list of strings, else ConfigError naming where."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigError(f"{where}: expected a list of strings, got {value!r}")
    return tuple(value)


def _number(value, where):
    """value if it is None or a finite number (not a bool), else ConfigError naming where."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))
                              or isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return value


def _row_filter(f, where) -> RowFilter:
    """The RowFilter of the row_filters entry at ``where``."""
    if not isinstance(f, dict) or not isinstance(f.get("column"), str):
        raise ConfigError(f"{where}: expected an object with a 'column'")
    values = {key: _strings(f[key], f"{where}.{key}") if key in f else None
              for key in ("keep_values", "drop_values")}
    return RowFilter(column=f["column"], **values, minimum=_number(f.get("min"), f"{where}.min"),
                     maximum=_number(f.get("max"), f"{where}.max"))


def dataset_config_from_dict(doc: dict, base=None) -> DatasetConfig:
    """The DatasetConfig of a parsed JSON document, its csv_path relative to
    base's directory if base is given. A list field must be a list of
    strings (null leaves it at its default) and privileged_min a finite number;
    anything else raises ConfigError naming the field."""
    if not isinstance(doc, dict):
        raise ConfigError("dataset config must be a JSON object")
    required = ("name", "csv_path", "label_column", "positive_label_value",
                "protected_column")
    for key in required:
        if key not in doc:
            raise ConfigError(f"dataset config missing field {key!r}")
    csv_path = str(doc["csv_path"])
    if base is not None:
        csv_path = os.path.join(os.path.dirname(os.fspath(base)), csv_path)
    row_filters = doc.get("row_filters", [])
    if not isinstance(row_filters, list):
        raise ConfigError("row_filters: expected a list")
    filters = [_row_filter(f, f"row_filters[{i}]") for i, f in enumerate(row_filters)]
    lists = {key: _strings(doc[key], key) for key in _LIST_FIELDS if doc.get(key) is not None}
    return DatasetConfig(
        name=str(doc["name"]),
        csv_path=csv_path,
        label_column=str(doc["label_column"]),
        positive_label_value=str(doc["positive_label_value"]),
        protected_column=str(doc["protected_column"]),
        privileged_min=_number(doc.get("privileged_min"), "privileged_min"),
        row_filters=tuple(filters),
        **lists,
    )


def read_text(path, error, what) -> str:
    """The UTF-8 text of the file at ``path``. A missing file, a path that
    cannot be read (a directory, no permission), or bytes that are not
    UTF-8 raise ``error`` naming the file; ``what`` names a missing one."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 (bad byte at offset {exc.start})") from None


def parse_json(text, error):
    """The JSON document in ``text``; text that is not JSON, or nests too
    deeply to decode, raises ``error``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from None


def read_json(path, error, what):
    """The JSON document in the file at ``path`` (see read_text)."""
    return parse_json(read_text(path, error, what), lambda message: error(f"{path}: {message}"))


def read_rows(path, what, header=None):
    """(header, rows) of the CSV file at ``path``: the stripped names of
    ``header``, or of the file's first row without it, and the remaining
    non-blank rows, each as wide as the header. A leading BOM is dropped.
    Malformed CSV raises DataError naming the file, and the line or row."""
    text = read_text(path, DataError, what)
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [name.strip() for name in (rows.pop(0) if header is None else header)]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if not rows:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i}: expected {len(header)} cells, found {len(row)}")
    return header, rows


def _cannot_write(exc: OSError, path) -> DataError:
    return DataError(f"{exc.filename or path}: cannot write: {exc.strerror or exc}")


def make_dir(path) -> None:
    """Create the directory ``path`` and its parents where missing. A path
    that cannot be a directory, such as a regular file, raises DataError
    naming it."""
    try:
        os.makedirs(path or ".", exist_ok=True)
    except OSError as exc:
        raise _cannot_write(exc, path) from None


def write_text(path, text) -> None:
    """Write ``text`` to ``path`` as UTF-8, newlines untranslated, creating
    its directory. A path that cannot be written raises DataError naming it."""
    make_dir(os.path.dirname(path))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _cannot_write(exc, path) from None


def _column(columns, name):
    try:
        return columns[name]
    except KeyError:
        raise DataError(f"missing column {name!r}") from None


def _factorize(cells):
    """(distinct stripped cells in first-appearance order, one code per cell).

    Raw cells are coded first; the distinct ones are then stripped, and
    those that strip to the same value merge."""
    index = {cell: i for i, cell in enumerate(dict.fromkeys(cells))}
    codes = np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))
    merged = {}
    remap = [merged.setdefault(cell.strip(), len(merged)) for cell in index]
    return list(merged), np.array(remap, dtype=np.intp)[codes]


def _first_row(flags, codes):
    """Index of the first row whose distinct value is flagged, else None."""
    rows = np.flatnonzero(flags[codes])
    return int(rows[0]) if rows.size else None


def _parse_float(value):
    try:
        return float(value)
    except ValueError:
        return None


def _passes(value, f: RowFilter, config: DatasetConfig):
    if f.keep_values is not None and value not in f.keep_values:
        return False
    if f.drop_values is not None and value in f.drop_values:
        return False
    if f.minimum is None and f.maximum is None:
        return True
    num = None if value in config.missing_values else _parse_float(value)
    return (
        num is not None
        and (f.minimum is None or num >= f.minimum)
        and (f.maximum is None or num <= f.maximum)
    )


def _encode_labels(values, codes, config: DatasetConfig):
    negatives = config.negative_label_values
    # -1: missing, -2: unmapped
    mapped = np.array(
        [
            -1 if v in config.missing_values
            else 1 if v == config.positive_label_value
            else 0 if negatives is None or v in negatives
            else -2
            for v in values
        ],
        dtype=np.int64,
    )
    labels = mapped[codes]
    i = _first_row(mapped < 0, codes)
    if i is not None:
        if labels[i] == -1:
            raise DataError(f"row {i + 1}: missing label value")
        raise DataError(f"row {i + 1}: label value {values[codes[i]]!r} not in label mapping")
    return labels


def _mode(codes, missing):
    """Code of the most frequent present value. Codes follow first
    appearance, so argmax breaks ties toward the earliest one."""
    counts = np.bincount(codes, minlength=len(missing))
    counts[missing] = -1
    return int(np.argmax(counts))


def _numbers(name, values, codes, missing, unparsed_error=None):
    """Each distinct value as a float, missing ones as the median of the
    present cells. np.median runs over those cells in row order, so the
    sign of a zero median is that of the per-cell computation."""
    parsed = [None if m else _parse_float(v) for v, m in zip(values, missing)]
    unparsed = np.array([p is None for p in parsed]) & ~missing
    if unparsed_error is not None and unparsed.any():
        raise DataError(unparsed_error)
    numbers = np.array([0.0 if p is None else p for p in parsed])
    i = _first_row(unparsed | ~np.isfinite(numbers), codes)
    if i is not None:
        v = values[codes[i]]
        if unparsed[codes[i]]:
            raise DataError(f"row {i + 1}: non-numeric value {v!r} in numeric column {name!r}")
        raise DataError(f"row {i + 1}: non-finite value {v!r} in column {name!r}")
    numbers[missing] = float(np.median(numbers[codes[~missing[codes]]]))
    return numbers


def _encode_column(name, cells, config: DatasetConfig):
    """[(feature name, values, kind)] for one kept column."""
    values, codes = _factorize(cells)
    missing = np.array([v in config.missing_values for v in values], dtype=bool)
    if missing.all():
        raise DataError(f"column {name!r} has no values")
    present = np.flatnonzero(~missing).tolist()
    if name == config.protected_column:
        if config.privileged_values is not None:
            privileged = [1 if v in config.privileged_values else 0 for v in values]
            kind = {values[j]: privileged[j] for j in present}
            fill = privileged[_mode(codes, missing)]
            per_value = np.where(missing, fill, privileged).astype(np.float64)
            return [(name, per_value[codes], kind)]
        numbers = _numbers(name, values, codes, missing, unparsed_error=(
            f"column {name!r}: privileged_min requires numeric values"))
        per_value = np.array([1.0 if n >= config.privileged_min else 0.0
                              for n in numbers.tolist()])
        return [(name, per_value[codes], "numeric")]
    if name in config.one_hot_columns:
        target = np.arange(len(values))
        target[missing] = _mode(codes, missing)
        filled = target[codes]
        found, first = np.unique(filled, return_index=True)
        return [
            (f"{name}={values[j]}", (filled == j).astype(np.float64), "numeric")
            for j in found[np.argsort(first)].tolist()
        ]
    if config.categorical_columns is not None:
        categorical = name in config.categorical_columns
    else:
        categorical = any(_parse_float(values[j]) is None for j in present)
    if not categorical:
        return [(name, _numbers(name, values, codes, missing)[codes], "numeric")]
    kind = {values[j]: code for code, j in enumerate(present)}
    per_value = np.empty(len(values))
    per_value[present] = np.arange(len(present))
    per_value[missing] = per_value[_mode(codes, missing)]
    return [(name, per_value[codes], kind)]


def load_dataset(config: DatasetConfig) -> Dataset:
    """Ingest the configured CSV into a fully numeric Dataset.

    Deterministic: identical file and config produce an identical Dataset."""
    header, rows = read_rows(config.csv_path, "CSV file", config.column_names)
    n_rows, columns = len(rows), dict(zip(header, zip(*rows)))
    for name in (config.label_column, config.protected_column, *config.drop_columns,
                 *(config.keep_columns or ()), *(config.categorical_columns or ()),
                 *config.one_hot_columns):
        _column(columns, name)  # existence check with a clear error
    keep = np.ones(n_rows, dtype=bool)
    for f in config.row_filters:
        values, codes = _factorize(_column(columns, f.column))
        keep &= np.array([_passes(v, f, config) for v in values], dtype=bool)[codes]
    if not keep.any():
        raise DataError("row filters removed every row")
    if not keep.all():
        columns = {name: list(compress(cells, keep)) for name, cells in columns.items()}
    labels = _encode_labels(*_factorize(columns[config.label_column]), config)
    features = []
    for name, cells in columns.items():
        if name == config.label_column or name in config.drop_columns:
            continue
        if config.keep_columns is not None and name not in config.keep_columns:
            continue
        features.extend(_encode_column(name, cells, config))
    return Dataset(
        feature_names=[name for name, _, _ in features],
        feature_kinds=[kind for _, _, kind in features],
        rows=np.column_stack([values for _, values, _ in features]),
        labels=labels,
        copy=False,
    )


@dataclass(frozen=True)
class FoldPlan:
    k: int
    seed: int
    assignments: np.ndarray = field(compare=False)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def make_folds(n_rows: int, k: int, seed: int, labels=None) -> FoldPlan:
    """Seeded shuffle then round-robin assignment; fold sizes differ by at
    most one. Pass labels for class-stratified assignment."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n_rows:
        raise ValueError(f"k ({k}) exceeds n_rows ({n_rows})")
    perm = np.random.default_rng(seed).permutation(n_rows)
    assignments = np.empty(n_rows, dtype=np.int64)
    if labels is None:
        assignments[perm] = np.arange(n_rows) % k
    else:
        labels = np.asarray(labels)
        counter = 0
        for cls in (0, 1):
            members = perm[labels[perm] == cls]
            assignments[members] = (np.arange(len(members)) + counter) % k
            counter += len(members)
    return FoldPlan(k=k, seed=seed, assignments=assignments)
