"""Accuracy and group fairness metrics over binary predictions.

Group 1 is privileged, group 0 unprivileged; class 1 is favorable. When a
rate's denominator is empty the affected metric is returned as None together
with a warning naming the empty cell; degenerate folds must be visible,
never silently zero.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def tpr(self) -> Optional[float]:
        pos = self.tp + self.fn
        return self.tp / pos if pos else None

    @property
    def fpr(self) -> Optional[float]:
        neg = self.fp + self.tn
        return self.fp / neg if neg else None

    @property
    def positive_rate(self) -> Optional[float]:
        return (self.tp + self.fp) / self.n if self.n else None

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "tpr": self.tpr, "fpr": self.fpr, "positive_rate": self.positive_rate,
        }


@dataclass(frozen=True)
class GroupConfusion:
    privileged: ConfusionCounts
    unprivileged: ConfusionCounts

    def to_dict(self) -> dict:
        return {
            "privileged": self.privileged.to_dict(),
            "unprivileged": self.unprivileged.to_dict(),
        }


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    eod: Optional[float]
    di: Optional[float]
    di_distance: Optional[float]
    group_confusion: GroupConfusion
    n_samples: int
    warnings: tuple = ()

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "eod": self.eod,
            "di": self.di,
            "di_distance": self.di_distance,
            "group_confusion": self.group_confusion.to_dict(),
            "n_samples": self.n_samples,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsReport":
        def counts(d):
            return ConfusionCounts(tp=d["tp"], fp=d["fp"], tn=d["tn"], fn=d["fn"])

        gc = doc["group_confusion"]
        return cls(
            accuracy=doc["accuracy"],
            eod=doc["eod"],
            di=doc["di"],
            di_distance=doc["di_distance"],
            group_confusion=GroupConfusion(
                privileged=counts(gc["privileged"]),
                unprivileged=counts(gc["unprivileged"]),
            ),
            n_samples=doc["n_samples"],
            warnings=tuple(doc.get("warnings", ())),
        )


def _as_binary(name, values):
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64, copy=False)


def _confusion(y_true, y_pred) -> ConfusionCounts:
    return ConfusionCounts(
        tp=int(((y_true == 1) & (y_pred == 1)).sum()),
        fp=int(((y_true == 0) & (y_pred == 1)).sum()),
        tn=int(((y_true == 0) & (y_pred == 0)).sum()),
        fn=int(((y_true == 1) & (y_pred == 0)).sum()),
    )


def accuracy(y_true, y_pred) -> float:
    """Fraction of correct predictions."""
    y_true = _as_binary("y_true", y_true)
    y_pred = _as_binary("y_pred", y_pred)
    if y_true.size == 0:
        raise ValueError("empty input")
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    return int((y_true == y_pred).sum()) / y_true.size


def _group_confusion(y_true, y_pred, group) -> GroupConfusion:
    priv = group == 1
    return GroupConfusion(
        privileged=_confusion(y_true[priv], y_pred[priv]),
        unprivileged=_confusion(y_true[~priv], y_pred[~priv]),
    )


def _eod_from_confusion(gc: GroupConfusion):
    """(eod, warnings); eod is None when any rate is undefined."""
    cells = {
        "privileged TPR": gc.privileged.tpr,
        "unprivileged TPR": gc.unprivileged.tpr,
        "privileged FPR": gc.privileged.fpr,
        "unprivileged FPR": gc.unprivileged.fpr,
    }
    missing = [name for name, value in cells.items() if value is None]
    if missing:
        return None, tuple(
            f"EOD undefined: empty denominator for {name}" for name in missing
        )
    eod = (
        abs(cells["unprivileged TPR"] - cells["privileged TPR"])
        + abs(cells["unprivileged FPR"] - cells["privileged FPR"])
    ) / 2.0
    return eod, ()


def equalized_odds_difference(y_true, y_pred, group) -> Optional[float]:
    """Mean absolute TPR/FPR gap between groups; None when undefined."""
    y_true = _as_binary("y_true", y_true)
    y_pred = _as_binary("y_pred", y_pred)
    group = _as_binary("group", group)
    if not (y_true.shape == y_pred.shape == group.shape) or y_true.size == 0:
        raise ValueError("y_true, y_pred and group must be equal-length, non-empty")
    eod, warns = _eod_from_confusion(_group_confusion(y_true, y_pred, group))
    for w in warns:
        _warnings.warn(w)
    return eod


def _di_from_confusion(gc: GroupConfusion):
    if gc.privileged.n == 0 or gc.unprivileged.n == 0:
        raise ValueError("both groups required")
    rate_priv = gc.privileged.positive_rate
    rate_unpriv = gc.unprivileged.positive_rate
    if rate_priv == 0.0:
        return None, ("DI undefined: privileged positive rate is 0",)
    return rate_unpriv / rate_priv, ()


def disparate_impact(y_pred, group) -> Optional[float]:
    """Unprivileged over privileged positive-prediction rate; None when the
    privileged rate is zero."""
    y_pred = _as_binary("y_pred", y_pred)
    group = _as_binary("group", group)
    if y_pred.shape != group.shape or y_pred.size == 0:
        raise ValueError("y_pred and group must be equal-length, non-empty")
    gc = _group_confusion(np.zeros_like(y_pred), y_pred, group)
    di, warns = _di_from_confusion(gc)
    for w in warns:
        _warnings.warn(w)
    return di


def full_report(y_true, y_pred, group) -> MetricsReport:
    """Accuracy, EOD, DI (plus |1 - DI| as distance to the fairness fixed
    point) and the per-group confusion cells, with degeneracy warnings."""
    y_true = _as_binary("y_true", y_true)
    y_pred = _as_binary("y_pred", y_pred)
    group = _as_binary("group", group)
    if not (y_true.shape == y_pred.shape == group.shape) or y_true.size == 0:
        raise ValueError("y_true, y_pred and group must be equal-length, non-empty")
    gc = _group_confusion(y_true, y_pred, group)
    if gc.privileged.n == 0 or gc.unprivileged.n == 0:
        raise ValueError("both groups required")
    eod, eod_warns = _eod_from_confusion(gc)
    di, di_warns = _di_from_confusion(gc)
    return MetricsReport(
        accuracy=accuracy(y_true, y_pred),
        eod=eod,
        di=di,
        di_distance=abs(1.0 - di) if di is not None else None,
        group_confusion=gc,
        n_samples=int(y_true.size),
        warnings=eod_warns + di_warns,
    )
