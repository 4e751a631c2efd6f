import numpy as np
import pytest

from fairtree.metrics import equalized_odds_difference
from fairtree.threshold import (
    GRID,
    ThresholdPolicy,
    apply_threshold_policy,
    fit_threshold_policy,
)


def brute_force_policy(scores, y_true, group):
    """Exhaustive grid search with the same score/tie-break arithmetic,
    computed with plain loops: each group's TP/FP/correct counts are
    tallied once per grid threshold, then every threshold pair combines
    its two groups' tallies."""
    scores = [float(s) for s in scores]
    y_true = [int(y) for y in y_true]
    group = [int(g) for g in group]
    n = len(scores)
    rates = {}  # group -> per grid threshold (TPR, FPR, correct count)
    for g in (0, 1):
        members = [(s, y) for s, y, m in zip(scores, y_true, group) if m == g]
        pos = sum(y for _, y in members)
        neg = len(members) - pos
        rates[g] = []
        for t in GRID:
            tp_c = fp_c = correct = 0
            for s, y in members:
                pred = 1 if s >= t else 0
                tp_c += pred == 1 and y == 1
                fp_c += pred == 1 and y == 0
                correct += pred == y
            rates[g].append((tp_c / pos, fp_c / neg, correct))
    best = None
    for tp, (tpr_p, fpr_p, correct_p) in zip(GRID, rates[1]):
        for tu, (tpr_u, fpr_u, correct_u) in zip(GRID, rates[0]):
            eod = (abs(tpr_u - tpr_p) + abs(fpr_u - fpr_p)) / 2
            acc = (correct_p + correct_u) / n
            key = (eod, -acc, abs(tp - tu), tp, tu)
            if best is None or key < best[0]:
                best = (key, tp, tu, eod)
    return best[1], best[2], best[3]


def random_fixture(rng, n):
    scores = rng.integers(0, 101, n) / 100.0
    group = np.r_[0, 1, rng.integers(0, 2, n - 2)]
    # guarantee positives and negatives in both groups
    y_true = np.empty(n, dtype=int)
    y_true[group == 1] = rng.integers(0, 2, int((group == 1).sum()))
    y_true[group == 0] = rng.integers(0, 2, int((group == 0).sum()))
    for g in (0, 1):
        members = np.nonzero(group == g)[0]
        if y_true[members].min() == y_true[members].max():
            y_true[members[0]] = 1 - y_true[members[0]]
    return scores, y_true, group


def test_fitted_policy_matches_exhaustive_grid_search(rng):
    for _ in range(12):
        n = int(rng.integers(6, 31))
        scores, y_true, group = random_fixture(rng, n)
        policy = fit_threshold_policy(scores, y_true, group)
        tp, tu, eod = brute_force_policy(scores, y_true, group)
        assert policy.threshold_privileged == tp
        assert policy.threshold_unprivileged == tu
        assert policy.objective_achieved == eod


def test_separable_group_identical_scores_reach_zero_eod_and_full_accuracy():
    scores = np.array([0.1, 0.2, 0.8, 0.9] * 2)
    y_true = np.array([0, 0, 1, 1] * 2)
    group = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    policy = fit_threshold_policy(scores, y_true, group)
    preds = apply_threshold_policy(policy, scores, group)
    assert policy.objective_achieved == 0.0
    np.testing.assert_array_equal(preds, y_true)


def test_group_constant_scores_follow_tie_break_chain():
    scores = np.full(12, 0.7)
    y_true = np.array([1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0])
    group = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    policy = fit_threshold_policy(scores, y_true, group)
    tp, tu, eod = brute_force_policy(scores, y_true, group)
    assert (policy.threshold_privileged, policy.threshold_unprivileged) == (tp, tu)
    # with constant scores every threshold <= 0.7 predicts all-positive, so
    # TPR = FPR = 1 in both groups and EOD 0 is reachable
    assert policy.objective_achieved == 0.0


def test_degenerate_fitting_data_falls_back_to_half():
    scores = np.array([0.2, 0.4, 0.6, 0.8])
    y_true = np.array([1, 1, 1, 1])  # no negatives anywhere
    group = np.array([0, 1, 0, 1])
    policy = fit_threshold_policy(scores, y_true, group)
    assert policy.threshold_privileged == 0.5
    assert policy.threshold_unprivileged == 0.5
    assert policy.objective_achieved is None
    assert policy.warnings


def test_fitted_eod_never_exceeds_plain_half_threshold(rng):
    for _ in range(25):
        n = int(rng.integers(8, 40))
        scores, y_true, group = random_fixture(rng, n)
        policy = fit_threshold_policy(scores, y_true, group)
        plain = equalized_odds_difference(
            y_true, (scores >= 0.5).astype(int), group
        )
        assert policy.objective_achieved <= plain + 1e-15


def test_apply_threshold_policy_boundary_and_examples():
    policy = ThresholdPolicy(0.5, 0.5, None)
    scores = np.array([0.49, 0.5, 0.51])
    group = np.array([1, 1, 1])
    np.testing.assert_array_equal(
        apply_threshold_policy(policy, scores, group), [0, 1, 1]
    )


def test_lowering_a_group_threshold_is_monotone(rng):
    scores = rng.uniform(0, 1, 50)
    group = rng.integers(0, 2, 50)
    high = ThresholdPolicy(0.5, 0.7, None)
    low = ThresholdPolicy(0.5, 0.4, None)
    preds_high = apply_threshold_policy(high, scores, group)
    preds_low = apply_threshold_policy(low, scores, group)
    unpriv = group == 0
    assert (preds_low[unpriv] >= preds_high[unpriv]).all()
    np.testing.assert_array_equal(preds_low[~unpriv], preds_high[~unpriv])


def test_score_bounds_and_group_presence_are_validated():
    with pytest.raises(ValueError, match="both groups"):
        fit_threshold_policy([0.5, 0.5], [0, 1], [1, 1])
    with pytest.raises(ValueError, match="scores"):
        fit_threshold_policy([1.5, 0.5], [0, 1], [1, 0])
    with pytest.raises(ValueError, match="empty"):
        fit_threshold_policy([], [], [])
