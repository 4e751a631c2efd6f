"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s

Criteria 5 and 6 need the public benchmark CSVs (see data/README.md). They
fail with an explicit message when the files are absent rather than
silently skipping.
"""

import json
import os
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fairtree import cli
from fairtree.bench import (
    METHOD_BASELINE,
    METHOD_FAIRTTTS,
    ExperimentConfig,
    run_experiment,
)
from fairtree.metrics import full_report
from fairtree.threshold import GRID, fit_threshold_policy
from fairtree.traversal import (
    FairnessSpec,
    TraversalConfig,
    _flip_chance,
    exact_path_distribution,
    predict_fair,
)
from fairtree.tree import Forest, predict_deterministic

from conftest import internal, leaf, make_tree, one_tree, random_tree, rebuild
from reference import adjusted_flip_probability, flip_probability
from test_metrics import brute_force_report
from test_threshold import brute_force_policy, random_fixture

REPO = Path(__file__).parent.parent
FIXTURES = REPO / "fixtures"
DATA_DIR = Path(os.environ.get("FAIRTREE_DATA_DIR", REPO / "data"))

SPEC = FairnessSpec(protected_feature=0)


def report_pass(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


def public_dataset_config(fixture_name, csv_name):
    """Experiment dataset config for a public CSV, failing loudly when the
    file has not been fetched."""
    csv_path = DATA_DIR / csv_name
    if not csv_path.exists():
        pytest.fail(
            f"required dataset {csv_name} not found at {csv_path}; fetch it as "
            "described in data/README.md (this sandbox has no network access, "
            "so the file cannot be downloaded automatically)"
        )
    doc = json.loads((FIXTURES / fixture_name).read_text(encoding="utf-8"))
    doc["csv_path"] = str(csv_path)
    target = DATA_DIR / f"_resolved_{fixture_name}"
    target.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(target)


def test_criterion_1_degeneration_suite(rng):
    start = time.perf_counter()
    config = ExperimentConfig(
        dataset_config=str(FIXTURES / "synthetic.json"),
        n_trees=9, max_depth=5, folds=5, n_simulations=60,
        p_max=0.0, alpha=9.0, seed=13,
    )
    result = run_experiment(config)
    assert result.fold_reports[METHOD_FAIRTTTS] == result.fold_reports[METHOD_BASELINE]
    checked = 0
    for alpha in (0.0, 1.0, 9.0, 50.0):
        cfg = TraversalConfig(n_simulations=30, p_max=0.0, alpha=alpha, seed=1)
        for i in range(10):
            trees = [random_tree(rng, n_features=3) for _ in range(3)]
            forest = Forest(trees=trees, n_trees=3)
            for _ in range(5):
                sample = rng.uniform(-6, 6, 3)
                pred, dist = predict_fair(forest, sample, SPEC, cfg, stream_id=i)
                assert pred == predict_deterministic(forest, sample)
                assert dist.probs[pred] == 1.0
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_pass(1, f"p_max=0 equals deterministic on all fixtures "
                   f"({checked} spot checks + end-to-end run, {elapsed:.1f}s)")


def test_criterion_2_monte_carlo_matches_exact_oracle(rng):
    start = time.perf_counter()
    n_trials, S = 200, 10_000
    hits = 0
    for trial in range(n_trials):
        tree = random_tree(rng, n_features=4, max_depth=4)
        sample = rng.uniform(-6, 6, 4)
        if rng.random() < 0.5:
            sample[0] = float(rng.integers(0, 2))
        spec = FairnessSpec(protected_feature=int(rng.integers(0, 4)))
        cfg = TraversalConfig(
            n_simulations=S,
            p_max=float(rng.uniform(0.0, 0.5)),
            alpha=float(rng.choice([0.5, 1.0, 2.0, 9.0])),
            seed=trial,
        )
        exact = exact_path_distribution(tree, sample, spec, cfg)
        _, mc = predict_fair(Forest(trees=[tree], n_trees=1), sample, spec, cfg, stream_id=trial)
        p = exact.probs[1]
        bound = 3.0 * np.sqrt(p * (1.0 - p) / S)
        if abs(mc.probs[1] - p) <= bound:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= int(0.99 * n_trials), f"only {hits}/{n_trials} inside 3-sigma"
    assert elapsed < 60.0
    report_pass(2, f"{hits}/{n_trials} trials within 3·sqrt(p(1-p)/S) ({elapsed:.1f}s)")


def criterion_3_nodes(rng):
    """Criterion 3's 100,000 randomized cases as (tree, samples, p_maxes,
    alphas): case i is split node i of tree meeting samples[i] under
    p_maxes[i] and alphas[i]."""
    n = 100_000
    features = rng.integers(0, 3, n)
    thresholds = rng.uniform(-5, 5, n)
    scales = rng.uniform(0.05, 6, n)
    uniforms = rng.random(n) < 0.2
    lmaj = rng.integers(0, 2, n)
    rmaj = rng.integers(0, 2, n)
    samples = rng.uniform(-6, 6, (n, 3))
    binary_mask = rng.random(n) < 0.5
    samples[binary_mask, 0] = rng.integers(0, 2, int(binary_mask.sum()))
    alphas = rng.choice([0.0, 0.5, 1.0, 2.0, 9.0, 30.0], n)
    p_maxes = rng.choice([0.0, 0.05, 0.1, 0.3, 0.5], n)
    # one tree holds the n split nodes in heap order: node i < n splits,
    # with children 2i + 1 and 2i + 2, and nodes n..2n are leaves
    ids = np.arange(n)
    n_leaves = n + 1
    tree = one_tree(
        feature=np.r_[features, np.full(n_leaves, -1)],
        threshold=np.r_[thresholds, np.zeros(n_leaves)],
        scale=np.r_[scales, np.ones(n_leaves)],
        uniform_distance=np.r_[uniforms, np.zeros(n_leaves, dtype=bool)],
        child=np.r_[np.c_[2 * ids + 1, 2 * ids + 2], np.zeros((n_leaves, 2), dtype=int)],
        majority=np.r_[np.c_[lmaj, rmaj], np.zeros((n_leaves, 2), dtype=int)],
        class_counts=np.r_[np.zeros((n, 2), dtype=int), np.ones((n_leaves, 2), dtype=int)],
        n_features=3,
    )
    return tree, samples, p_maxes, alphas


def kernel_chances(tree, samples, p_maxes, alphas, spec):
    """Yield (config, nodes, chances) per (p_max, alpha) group of criterion
    3's cases: the batch kernel's flip chances at the group's nodes, from
    one call of its chance function."""
    for p_max, alpha in np.unique(np.c_[p_maxes, alphas], axis=0):
        cfg = TraversalConfig(n_simulations=1, p_max=float(p_max), alpha=float(alpha), seed=0)
        nodes = ((p_maxes == p_max) & (alphas == alpha)).nonzero()[0]
        feat = tree.feature[nodes]
        x = samples[nodes, feat]
        threshold = tree.threshold[nodes]
        yield cfg, nodes, _flip_chance(tree, spec, cfg)(nodes, feat, x, threshold, x <= threshold)


def test_criterion_3_flip_probability_bounds(rng):
    start = time.perf_counter()
    tree, samples, p_maxes, alphas = criterion_3_nodes(rng)
    n = samples.shape[0]
    ids = np.arange(n)
    go_left = samples[ids, tree.feature[ids]] <= tree.threshold[ids]
    det_majority = tree.majority[ids, (~go_left).astype(int)]
    triggered = (tree.feature[ids] == 0) & (samples[:, 0] == 0.0) & (det_majority == 0)
    # the base chance: a 4-feature copy of the tree splits on no feature 3,
    # so no node is boosted
    unboosted = kernel_chances(rebuild(tree, n_features=4), samples, p_maxes, alphas,
                               FairnessSpec(protected_feature=3))
    checked = 0
    for (cfg, nodes, adj), (_, _, base) in zip(
            kernel_chances(tree, samples, p_maxes, alphas, SPEC), unboosted):
        assert ((0.0 <= adj) & (adj <= 0.5)).all()
        assert ((0.0 <= base) & (base <= cfg.p_max)).all()
        if cfg.alpha >= 1.0:
            assert (adj >= base).all()
        kept = ~triggered[nodes]
        np.testing.assert_array_equal(adj[kept], base[kept])
        checked += nodes.size
    assert checked == n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(3, f"bounds held on {n} randomized triples ({elapsed:.1f}s)")


def test_kernel_flip_chance_equals_scalar_reference(rng):
    # criterion 3's bounds hold on the kernel's chances; these are the
    # scalar rule's, bit for bit
    tree, samples, p_maxes, alphas = criterion_3_nodes(rng)
    checked = 0
    for cfg, nodes, chances in kernel_chances(tree, samples, p_maxes, alphas, SPEC):
        expected = [
            adjusted_flip_probability(flip_probability(tree, i, samples[i], cfg),
                                      tree, i, samples[i], SPEC, cfg)
            for i in nodes.tolist()
        ]
        np.testing.assert_array_equal(chances, expected)
        checked += nodes.size
    assert checked == samples.shape[0]


def test_criterion_4_monotonicity_fixture():
    start = time.perf_counter()
    # protected node routes unprivileged samples to the unfavorable-majority
    # child; the opposite branch holds the only favorable leaf
    tree = make_tree(
        internal(
            0, 0.5, 0.5,
            leaf(8, 0),
            internal(1, 4.0, 5.0, leaf(1, 3), leaf(0, 6), lmaj=1, rmaj=1),
            lmaj=0, rmaj=1, uniform=True,
        ),
        n_features=2,
    )
    sample = np.array([0.0, 6.0])
    values = []
    for alpha in (1.0, 2.0, 4.0, 9.0, 16.0):
        cfg = TraversalConfig(n_simulations=1, p_max=0.1, alpha=alpha, seed=0)
        values.append(exact_path_distribution(tree, sample, SPEC, cfg).probs[1])
    assert all(b >= a for a, b in zip(values, values[1:])), values  # exact ordering
    assert values[-1] > values[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(4, f"favorable probability nondecreasing over alpha: "
                   f"{[round(v, 6) for v in values]}")


@pytest.fixture(scope="module")
def adult_sex_result():
    config_path = public_dataset_config("adult_sex.json", "adult.csv")
    config = ExperimentConfig(
        dataset_config=config_path,
        n_trees=25, max_depth=None, min_samples_leaf=1, features_per_split="sqrt",
        n_simulations=100, p_max=0.1, alpha=9.0, folds=5, seed=20240601,
        methods=(METHOD_BASELINE, METHOD_FAIRTTTS),
    )
    return run_experiment(config)


def direction_checks(result):
    agg = result.aggregates
    eod_fair = agg[METHOD_FAIRTTTS]["eod"]["mean"]
    eod_base = agg[METHOD_BASELINE]["eod"]["mean"]
    acc_fair = agg[METHOD_FAIRTTTS]["accuracy"]["mean"]
    acc_base = agg[METHOD_BASELINE]["accuracy"]["mean"]
    assert eod_fair < eod_base, (
        f"{result.dataset}: EOD {eod_fair:.4f} !< baseline {eod_base:.4f}"
    )
    assert acc_fair >= acc_base - 0.005, (
        f"{result.dataset}: accuracy {acc_fair:.4f} < baseline {acc_base:.4f} - 0.005"
    )
    return eod_base, eod_fair, acc_base, acc_fair


def test_criterion_5_direction_reproduction_on_public_data(adult_sex_result):
    start = time.perf_counter()
    lines = []
    stats = direction_checks(adult_sex_result)
    lines.append(f"adult_sex EOD {stats[0]:.4f}->{stats[1]:.4f} "
                 f"acc {stats[2]:.4f}->{stats[3]:.4f}")
    for fixture, csv_name in (("adult_race.json", "adult.csv"),
                              ("german_sex.json", "german.csv")):
        config_path = public_dataset_config(fixture, csv_name)
        result = run_experiment(ExperimentConfig(
            dataset_config=config_path,
            n_trees=25, n_simulations=100, p_max=0.1, alpha=9.0, folds=5,
            seed=20240601, methods=(METHOD_BASELINE, METHOD_FAIRTTTS),
        ))
        stats = direction_checks(result)
        lines.append(f"{result.dataset} EOD {stats[0]:.4f}->{stats[1]:.4f} "
                     f"acc {stats[2]:.4f}->{stats[3]:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 15 * 60
    report_pass(5, "; ".join(lines) + f" ({elapsed:.0f}s)")


def test_criterion_6_baseline_sanity_on_adult(adult_sex_result):
    acc = adult_sex_result.aggregates[METHOD_BASELINE]["accuracy"]["mean"]
    assert abs(acc - 0.8593) <= 0.03, f"baseline accuracy {acc:.4f} outside 0.8593±0.03"
    report_pass(6, f"adult baseline accuracy {acc:.4f} within 0.8593±0.03")


def test_criterion_7_metrics_against_brute_force(rng):
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
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
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(7, f"full_report equals brute-force tally on {checked} inputs "
                   f"({elapsed:.1f}s)")


def test_criterion_8_threshold_policy_against_grid_oracle(rng):
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(6, 31))
        scores, y_true, group = random_fixture(rng, n)
        policy = fit_threshold_policy(scores, y_true, group)
        tp, tu, eod = brute_force_policy(scores, y_true, group)
        assert (policy.threshold_privileged, policy.threshold_unprivileged) == (tp, tu)
        assert policy.objective_achieved == eod
        plain_preds = (scores >= 0.5).astype(int)
        plain = full_report(y_true, plain_preds, group).eod
        assert policy.objective_achieved <= plain
        assert 0.5 in GRID
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_pass(8, f"50 fixtures matched the exhaustive grid exactly ({elapsed:.1f}s)")


def test_criterion_9_run_determinism(tmp_path):
    args = ["run", "--data", str(FIXTURES / "synthetic.json"),
            "--n-trees", "7", "--max-depth", "4", "--folds", "4",
            "--n-simulations", "50", "--seed", "77"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(out_a)]) == 0
    assert cli.main(args + ["--out-dir", str(out_b)]) == 0
    compared = []
    for name in ("report.json", "report.csv", "report.txt", "accuracy_vs_eod.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        compared.append(name)
    report_pass(9, f"byte-identical across runs: {', '.join(compared)}")


def test_criterion_10_alpha_sweep_artifact(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep-alpha", "--data", str(FIXTURES / "synthetic.json"),
        "--n-trees", "1", "--max-depth", "3", "--features-per-split", "all",
        "--no-bootstrap", "--exact", "--folds", "5", "--seed", "20240601",
        "--alphas", "1,2,4,9,16", "--out-dir", str(out),
    ])
    assert code == 0
    svg_path = out / "alpha_sweep.svg"
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))  # well-formed
    ns = {"svg": "http://www.w3.org/2000/svg"}
    eod_line = [p for p in root.findall(".//svg:polyline", ns)
                if p.attrib.get("id") == "eod-line"]
    assert len(eod_line) == 1
    ys = [float(pt.split(",")[1]) for pt in eod_line[0].attrib["points"].split()]
    assert all(b >= a for a, b in zip(ys, ys[1:]))  # lower EOD sits lower on screen
    doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    eods = [row["eod"]["mean"] for row in doc["fairttts"]]
    assert all(b <= a for a, b in zip(eods, eods[1:]))  # exact ordering
    assert eods[-1] < eods[0]
    report_pass(10, f"sweep SVG well-formed; EOD means {['%.4f' % e for e in eods]} "
                    "non-increasing")
