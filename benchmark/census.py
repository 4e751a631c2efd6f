"""Census-shaped synthetic table, written as an Adult-style CSV.

The draws follow the census-shaped generator of ``scripts/perf_probe.py``
in the same order, so for one seed the numeric table is the same: 32,561
rows, 14 features, about 24% positive, outcome suppressed for the
unprivileged group. On top of that the CSV carries what real census files
carry and the numeric probe does not: string categoricals, string labels
and a string protected column, and ``?`` missing cells in three
categorical columns (drawn from a separate stream, so they leave the
table itself unchanged).
"""

from __future__ import annotations

import json
import os

import numpy as np

N_ROWS = 32_561
FEATURES = ["age", "workclass", "fnlwgt", "education", "education_num",
            "marital", "occupation", "relationship", "race", "sex",
            "capital_gain", "capital_loss", "hours", "country"]
CATEGORICAL = ("workclass", "education", "marital", "occupation",
               "relationship", "race", "country")
PROTECTED = "sex"
LABEL = "income"
# share of '?' cells per column, close to the Adult file's
MISSING_SHARE = {"workclass": 0.056, "occupation": 0.057, "country": 0.018}


def generate(seed: int, n: int = N_ROWS):
    """Return ({column: values}, labels) with integer codes for categoricals."""
    rng = np.random.default_rng(seed)
    age = rng.integers(17, 91, n)
    workclass = rng.integers(0, 9, n)
    fnlwgt = rng.integers(12_000, 1_500_000, n)
    education = rng.integers(0, 16, n)
    education_num = np.clip(education + rng.integers(-1, 2, n), 1, 16)
    marital = rng.integers(0, 7, n)
    occupation = rng.integers(0, 14, n)
    relationship = rng.integers(0, 6, n)
    race = (rng.random(n) < 0.85).astype(np.int64)
    sex = (rng.random(n) < 0.66).astype(np.int64)
    capital_gain = np.where(rng.random(n) < 0.08, rng.integers(1, 99_999, n), 0)
    capital_loss = np.where(rng.random(n) < 0.05, rng.integers(1, 4_356, n), 0)
    hours = rng.integers(1, 99, n)
    country = rng.integers(0, 41, n)

    merit = (
        0.08 * (age - 17) / 73
        + 0.45 * (education_num - 1) / 15
        + 0.25 * hours / 99
        + 0.9 * (capital_gain > 5000)
        + 0.1 * (occupation / 13)
    )
    p = 1.0 / (1.0 + np.exp(-6.0 * (merit - 0.62)))
    p = np.where(sex == 0, p * 0.45, p)  # historical suppression
    labels = (rng.random(n) < p).astype(np.int64)
    columns = dict(zip(FEATURES, [
        age, workclass, fnlwgt, education, education_num, marital, occupation,
        relationship, race, sex, capital_gain, capital_loss, hours, country,
    ]))
    return columns, labels


def _cells(name, values, missing):
    if name == PROTECTED:
        cells = np.where(values == 1, "Male", "Female")
    elif name == "race":
        cells = np.where(values == 1, "White", "Other")
    elif name in CATEGORICAL:
        cells = np.char.add(f"{name}-", values.astype(str))
    else:
        cells = values.astype(str)
    if missing is not None:
        cells = np.where(missing, "?", cells)
    return cells


def write_csv(directory, seed: int, n: int = N_ROWS):
    """Write census.csv and its dataset config into ``directory``.

    Returns (config path, generated labels, generated protected column)."""
    columns, labels = generate(seed, n)
    holes = np.random.default_rng([seed, 1])
    table = []
    for name in FEATURES:
        share = MISSING_SHARE.get(name)
        missing = holes.random(n) < share if share else None
        table.append(_cells(name, columns[name], missing))
    table.append(np.where(labels == 1, ">50K", "<=50K"))
    lines = [",".join(FEATURES + [LABEL])]
    lines.extend(",".join(row) for row in zip(*(col.tolist() for col in table)))
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "census.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    config = {
        "name": "census_shaped",
        "csv_path": "census.csv",
        "label_column": LABEL,
        "positive_label_value": ">50K",
        "negative_label_values": ["<=50K"],
        "protected_column": PROTECTED,
        "privileged_values": ["Male"],
        "categorical_columns": list(CATEGORICAL),
    }
    config_path = os.path.join(directory, "census.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return config_path, labels, columns[PROTECTED]
