import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtree.metrics import (
    ConfusionCounts,
    accuracy,
    disparate_impact,
    equalized_odds_difference,
    full_report,
)


def test_accuracy_examples():
    assert accuracy([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0
    assert accuracy([1, 0, 1, 0], [0, 1, 0, 1]) == 0.0
    assert accuracy([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75


def test_accuracy_rejects_empty_and_mismatched():
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])
    with pytest.raises(ValueError, match="length"):
        accuracy([1, 0], [1])


def test_values_other_than_0_and_1_are_rejected_not_truncated():
    # a cast to int64 before the check would read 0.9 as 0 and 1.7 as 1
    for bad in ([0.9, 0.2], [1.7, 0.0], [np.nan, 1.0], [2, 0], [-1, 1]):
        with pytest.raises(ValueError, match="^y_pred must contain only 0 and 1$"):
            accuracy([1, 0], bad)
    with pytest.raises(ValueError, match="^group must contain only 0 and 1$"):
        full_report([1, 0, 1], [1, 0, 0], [1.0, 0.0, 1.7])
    with pytest.raises(ValueError, match="^y_true must be one-dimensional$"):
        accuracy([[1, 0]], [1, 0])
    # float 0.0 / 1.0 and bool columns pass as the integers they are
    report = full_report(np.array([1.0, 0.0, 1.0, 0.0]), [True, False, False, False],
                         np.array([1.0, 1.0, 0.0, 0.0]))
    assert report.to_dict() == full_report([1, 0, 1, 0], [1, 0, 0, 0], [1, 1, 0, 0]).to_dict()


def test_eod_zero_for_identical_rates():
    y_true = [1, 0, 1, 0, 1, 0, 1, 0]
    y_pred = [1, 0, 0, 0, 1, 0, 0, 0]
    group = [1, 1, 1, 1, 0, 0, 0, 0]  # mirrored confusion cells
    assert equalized_odds_difference(y_true, y_pred, group) == 0.0


def test_eod_direct_arithmetic():
    # privileged: TPR 0.8 (4/5), FPR 0.2 (1/5); unprivileged: TPR 0.6 (3/5), FPR 0.3...
    # use exact cell construction instead: rates 0.8/0.6 and 0.2/0.3 over 10-sample groups
    y_true, y_pred, group = [], [], []
    # privileged: 5 positives (4 hit), 5 negatives (1 false alarm)
    y_true += [1] * 5 + [0] * 5
    y_pred += [1, 1, 1, 1, 0] + [1, 0, 0, 0, 0]
    group += [1] * 10
    # unprivileged: 5 positives (3 hits), 10 negatives (3 false alarms)
    y_true += [1] * 5 + [0] * 10
    y_pred += [1, 1, 1, 0, 0] + [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    group += [0] * 15
    eod = equalized_odds_difference(y_true, y_pred, group)
    assert eod == pytest.approx((abs(0.6 - 0.8) + abs(0.3 - 0.2)) / 2)


def test_perfect_classifier_has_zero_eod():
    y = [0, 1, 1, 0, 1, 0]
    group = [0, 0, 0, 1, 1, 1]
    assert equalized_odds_difference(y, y, group) == 0.0


def test_eod_undefined_names_empty_cell():
    # unprivileged group has no positives -> TPR undefined
    y_true = [1, 0, 0, 0]
    y_pred = [1, 0, 1, 0]
    group = [1, 1, 0, 0]
    with pytest.warns(UserWarning, match="unprivileged TPR"):
        assert equalized_odds_difference(y_true, y_pred, group) is None


def test_disparate_impact_examples():
    group = [0] * 10 + [1] * 10
    y_pred = [1] * 3 + [0] * 7 + [1] * 6 + [0] * 4
    assert disparate_impact(y_pred, group) == pytest.approx(0.5)
    assert disparate_impact([1, 0] * 10, group) == pytest.approx(1.0)
    assert disparate_impact([0] * 10 + [1] * 5 + [0] * 5, group) == 0.0


def test_disparate_impact_undefined_when_privileged_rate_zero():
    group = [0, 0, 1, 1]
    with pytest.warns(UserWarning, match="privileged positive rate"):
        assert disparate_impact([1, 0, 0, 0], group) is None


def test_full_report_all_correct():
    y = [1, 0, 1, 0]
    group = [1, 1, 0, 0]
    report = full_report(y, y, group)
    assert report.accuracy == 1.0
    assert report.eod == 0.0
    assert report.di == pytest.approx(1.0)  # equal base rates
    assert report.di_distance == pytest.approx(0.0)
    assert report.warnings == ()
    assert report.n_samples == 4


def test_full_report_requires_both_groups():
    with pytest.raises(ValueError, match="both groups required"):
        full_report([1, 0], [1, 0], [1, 1])


def test_full_report_hand_fixture():
    # 8 rows tallied by hand
    y_true = [1, 1, 0, 0, 1, 1, 0, 0]
    y_pred = [1, 0, 1, 0, 1, 1, 0, 0]
    group = [1, 1, 1, 1, 0, 0, 0, 0]
    report = full_report(y_true, y_pred, group)
    priv = report.group_confusion.privileged
    unpriv = report.group_confusion.unprivileged
    assert (priv.tp, priv.fn, priv.fp, priv.tn) == (1, 1, 1, 1)
    assert (unpriv.tp, unpriv.fn, unpriv.fp, unpriv.tn) == (2, 0, 0, 2)
    assert report.accuracy == 0.75
    assert report.eod == pytest.approx((abs(1.0 - 0.5) + abs(0.0 - 0.5)) / 2)
    assert report.di == pytest.approx(0.5 / 0.5)


def brute_force_report(y_true, y_pred, group):
    """Independent tally with plain loops."""
    cells = {g: {"tp": 0, "fp": 0, "tn": 0, "fn": 0} for g in (0, 1)}
    correct = 0
    for t, p, g in zip(y_true, y_pred, group):
        if p == t:
            correct += 1
        if t == 1 and p == 1:
            cells[g]["tp"] += 1
        elif t == 0 and p == 1:
            cells[g]["fp"] += 1
        elif t == 0 and p == 0:
            cells[g]["tn"] += 1
        else:
            cells[g]["fn"] += 1

    def rate(num, den):
        return None if den == 0 else num / den

    tpr = {g: rate(c["tp"], c["tp"] + c["fn"]) for g, c in cells.items()}
    fpr = {g: rate(c["fp"], c["fp"] + c["tn"]) for g, c in cells.items()}
    pos = {g: rate(c["tp"] + c["fp"], sum(c.values())) for g, c in cells.items()}
    eod = None
    if None not in (tpr[0], tpr[1], fpr[0], fpr[1]):
        eod = (abs(tpr[0] - tpr[1]) + abs(fpr[0] - fpr[1])) / 2
    di = None if pos[1] == 0 else pos[0] / pos[1]
    return correct / len(y_true), eod, di, cells


def test_full_report_matches_brute_force_tally(rng):
    for _ in range(400):
        n = int(rng.integers(2, 21))
        y_true = rng.integers(0, 2, n)
        y_pred = rng.integers(0, 2, n)
        group = rng.integers(0, 2, n)
        if group.min() == group.max():
            continue
        acc, eod, di, cells = brute_force_report(y_true, y_pred, group)
        report = full_report(y_true, y_pred, group)
        assert report.accuracy == acc
        assert report.eod == eod
        assert report.di == di
        for g, name in ((1, "privileged"), (0, "unprivileged")):
            got = getattr(report.group_confusion, name)
            assert (got.tp, got.fp, got.tn, got.fn) == (
                cells[g]["tp"], cells[g]["fp"], cells[g]["tn"], cells[g]["fn"]
            )
        if eod is None or di is None:
            assert report.warnings


@given(st.integers(0, 2**32 - 1), st.integers(6, 40))
@settings(max_examples=60, deadline=None)
def test_metrics_are_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 2, n)
    y_pred = rng.integers(0, 2, n)
    group = np.r_[0, 1, rng.integers(0, 2, n - 2)]
    perm = rng.permutation(n)
    a = full_report(y_true, y_pred, group)
    b = full_report(y_true[perm], y_pred[perm], group[perm])
    assert a == b


@given(st.integers(0, 2**32 - 1), st.integers(6, 40))
@settings(max_examples=60, deadline=None)
def test_group_swap_keeps_eod_and_inverts_di(seed, n):
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 2, n)
    y_pred = rng.integers(0, 2, n)
    group = np.r_[0, 1, rng.integers(0, 2, n - 2)]
    a = full_report(y_true, y_pred, group)
    b = full_report(y_true, y_pred, 1 - group)
    assert (a.eod is None) == (b.eod is None)
    if a.eod is not None:
        assert b.eod == pytest.approx(a.eod, abs=1e-12)
        assert 0.0 <= a.eod <= 1.0
    if a.di is not None and b.di is not None and a.di > 0:
        assert b.di == pytest.approx(1.0 / a.di, rel=1e-12)


def test_confusion_counts_rates():
    c = ConfusionCounts(tp=3, fp=1, tn=4, fn=2)
    assert c.tpr == 0.6
    assert c.fpr == 0.2
    assert c.positive_rate == 0.4
    empty = ConfusionCounts(tp=0, fp=0, tn=0, fn=0)
    assert empty.tpr is None and empty.fpr is None and empty.positive_rate is None
