import gc
import json
import os
import time
import weakref
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairtree import bench, cli, tree
from fairtree.bench import (
    METHOD_BASELINE,
    METHOD_FAIRTTTS,
    METHOD_THRESHOLD,
    METHODS,
    METRICS,
    ExperimentConfig,
    emit_report,
    emit_sweep,
    fit_fold,
    fit_policy,
    parse_report,
    render_csv,
    render_table,
    result_to_dict,
    run_experiment,
    run_experiment_on,
    sweep_alpha,
    sweep_to_dict,
)
from fairtree.charts import chart_accuracy_vs_eod, chart_alpha_sweep, emit_charts
from fairtree.data import load_dataset, load_dataset_config, make_folds
from fairtree.errors import ConfigError, DataError
from fairtree.model_io import dumps, load_model
from fairtree.rng import stream_key
from fairtree.traversal import FairnessSpec, exact_forest_batch
from fairtree.tree import Forest

from conftest import chain_tree, full_uniform_tree, leaf, make_tree

FIXTURES = Path(__file__).parent.parent / "fixtures"
SYNTHETIC = str(FIXTURES / "synthetic.json")


def small_config(**kwargs):
    defaults = dict(
        dataset_config=SYNTHETIC,
        n_trees=7,
        max_depth=4,
        folds=3,
        n_simulations=50,
        seed=11,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_methods_subset_runs_only_requested_rows():
    result = run_experiment(small_config(methods=(METHOD_BASELINE,)))
    assert set(result.fold_reports) == {METHOD_BASELINE}
    assert len(result.fold_reports[METHOD_BASELINE]) == 3
    assert set(result.aggregates) == {METHOD_BASELINE}


def test_zero_p_max_makes_fairttts_identical_to_baseline():
    result = run_experiment(small_config(p_max=0.0, alpha=9.0))
    assert result.fold_reports[METHOD_FAIRTTTS] == result.fold_reports[METHOD_BASELINE]


def test_aggregates_mean_and_sample_std():
    result = run_experiment(small_config(methods=(METHOD_BASELINE,)))
    values = [r.accuracy for r in result.fold_reports[METHOD_BASELINE]]
    agg = result.aggregates[METHOD_BASELINE]["accuracy"]
    assert agg["mean"] == pytest.approx(float(np.mean(values)))
    assert agg["std"] == pytest.approx(float(np.std(values, ddof=1)))
    assert agg["folds_used"] == 3 and agg["folds_excluded"] == 0


STAGES = ("fold_plan", "train", "policy_fit", "votes", "metrics")


def test_timings_are_recorded_but_not_compared():
    a = run_experiment(small_config(methods=(METHOD_BASELINE,)))
    b = run_experiment(small_config(methods=(METHOD_BASELINE,)))
    assert all(t >= 0 for t in a.timings[f"method.{METHOD_BASELINE}"])
    assert a == b  # equality ignores wall-clock noise
    assert a == replace(b, timings={})


def test_each_stage_has_one_entry_per_fold_and_none_is_negative():
    config = small_config(methods=METHODS)
    result = run_experiment(config)
    assert set(result.timings) == {*STAGES, *(f"method.{m}" for m in METHODS)}
    for stage, seconds in result.timings.items():
        assert len(seconds) == config.folds and min(seconds) >= 0, stage
    assert sum(result.timings["train"]) > 0


@pytest.mark.parametrize("methods", [METHODS, (METHOD_FAIRTTTS,)])
def test_a_runs_stages_sum_to_no_more_than_its_wall_time(methods):
    dataset, protected, name = bench.load(SYNTHETIC)
    start = time.perf_counter()
    result = run_experiment_on(dataset, protected, name, small_config(methods=methods))
    wall = time.perf_counter() - start
    assert set(result.timings) == {*STAGES, *(f"method.{m}" for m in methods)}
    assert sum(map(sum, result.timings.values())) <= wall


def test_a_sweeps_results_share_their_fit_stages():
    sweep = sweep_alpha(small_config(methods=METHODS), [1.0, 2.0, 4.0])
    first, *rest = (result.timings for result in sweep.results)
    shared = ("fold_plan", "train", "policy_fit", "votes",
              f"method.{METHOD_BASELINE}", f"method.{METHOD_THRESHOLD}")
    for timings in rest:
        assert set(timings) == set(first)
        assert all(timings[stage] == first[stage] for stage in shared)
        # each alpha's fairttts inference is its own
        assert timings[f"method.{METHOD_FAIRTTTS}"] != first[f"method.{METHOD_FAIRTTTS}"]


def test_fairness_direction_on_synthetic_fixture():
    """The mechanism check: boosted traversal must cut EOD on the biased
    fixture without giving up meaningful accuracy."""
    result = run_experiment(
        small_config(n_trees=15, max_depth=None, folds=5, n_simulations=100,
                     seed=20240601)
    )
    agg = result.aggregates
    assert agg[METHOD_FAIRTTTS]["eod"]["mean"] < agg[METHOD_BASELINE]["eod"]["mean"]
    assert (
        agg[METHOD_FAIRTTTS]["accuracy"]["mean"]
        >= agg[METHOD_BASELINE]["accuracy"]["mean"] - 0.01
    )
    assert agg[METHOD_THRESHOLD]["eod"]["mean"] <= agg[METHOD_BASELINE]["eod"]["mean"] + 1e-12


def test_no_leakage_from_test_labels():
    config = small_config()
    ds_config = load_dataset_config(SYNTHETIC)
    dataset = load_dataset(ds_config)
    protected = dataset.feature_index(ds_config.protected_column)
    plan = make_folds(dataset.n_rows, config.folds, stream_key(config.seed, 101))
    fold = 0
    forest_a = fit_fold(dataset, plan, fold, config)
    policy_a = fit_policy(forest_a, dataset, plan, fold, config, protected)
    # flipping every test label must not change anything fitted
    poisoned = dataset
    test_idx = plan.test_indices(fold)
    labels = dataset.labels.copy()
    labels[test_idx] = 1 - labels[test_idx]
    poisoned = type(dataset)(
        feature_names=dataset.feature_names,
        feature_kinds=dataset.feature_kinds,
        rows=dataset.rows,
        labels=labels,
    )
    forest_b = fit_fold(poisoned, plan, fold, config)
    policy_b = fit_policy(forest_b, poisoned, plan, fold, config, protected)
    assert dumps(forest_a) == dumps(forest_b)
    assert policy_a is not None and policy_a == policy_b


def test_experiment_is_end_to_end_deterministic(tmp_path):
    config = small_config()
    a = run_experiment(config)
    b = run_experiment(config)
    assert a == b
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_report(a, dir_a)
    emit_report(b, dir_b)
    for name in ("report.json", "report.csv", "report.txt"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    svg_a = emit_charts(result_to_dict(a), dir_a)
    svg_b = emit_charts(result_to_dict(b), dir_b)
    for key in svg_a:
        assert Path(svg_a[key]).read_bytes() == Path(svg_b[key]).read_bytes()


def test_parse_report_names_a_non_utf8_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b'{"dataset": "caf\xe9"}')  # offset 16
    with pytest.raises(DataError, match=r"report\.json: not UTF-8 \(bad byte at offset 16\)"):
        parse_report(path)


def test_report_json_round_trip(tmp_path):
    result = run_experiment(small_config())
    paths = emit_report(result, tmp_path)
    assert parse_report(paths["json"]) == result


def test_report_csv_row_count_is_methods_times_metrics(tmp_path):
    result = run_experiment(small_config())
    lines = render_csv(result).strip().split("\n")
    assert len(lines) - 1 == len(result.methods) * len(METRICS)


def test_report_table_matches_golden_file():
    result = run_experiment(
        small_config(n_trees=5, max_depth=3, folds=3, n_simulations=40, seed=4)
    )
    golden = Path(__file__).parent / "golden" / "synthetic_report.txt"
    assert render_table(result) == golden.read_text(encoding="utf-8")


def test_sweep_requires_strictly_increasing_alphas():
    with pytest.raises(ConfigError, match="strictly increasing"):
        sweep_alpha(small_config(), [1.0, 1.0, 2.0])
    with pytest.raises(ConfigError, match="strictly increasing"):
        sweep_alpha(small_config(), [2.0, 1.0])
    with pytest.raises(ConfigError, match="non-empty"):
        sweep_alpha(small_config(), [])


def test_single_alpha_sweep_with_zero_p_max_matches_baseline():
    sweep = sweep_alpha(small_config(p_max=0.0), [1.0])
    result = sweep.results[0]
    assert result.fold_reports[METHOD_FAIRTTTS] == result.fold_reports[METHOD_BASELINE]


def test_folds_are_fitted_one_forest_at_a_time(monkeypatch):
    forests = []
    fit = bench.fit_fold

    def tracked(*args):
        gc.collect()
        assert all(ref() is None for ref in forests), f"a forest is alive at fit {len(forests)}"
        forest = fit(*args)
        forests.append(weakref.ref(forest))
        return forest

    monkeypatch.setattr(bench, "fit_fold", tracked)
    run_experiment(small_config())
    sweep_alpha(small_config(), [1.0, 2.0])
    assert len(forests) == 6


def test_sweep_scores_alpha_independent_methods_once_per_fold(monkeypatch):
    calls = Counter()
    for name in ("predict_forest_batch", "apply_threshold_policy"):
        def counted(*args, _name=name, _fn=getattr(bench, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bench, name, counted)
    config = small_config()
    sweep_alpha(config, [1.0, 2.0, 4.0])
    assert calls == {"predict_forest_batch": config.folds,
                     "apply_threshold_policy": config.folds}


def test_each_fold_walks_its_test_votes_once(monkeypatch):
    # baseline and threshold_optimizer share one vote walk of a fold's
    # test rows; fitting the threshold policy walks its train rows
    walks, walk = [], tree.walk_lanes

    def counting_walk(forest, X, node, x_pos):
        walks.append(node.size // forest.n_trees)  # the rows walked
        return walk(forest, X, node, x_pos)

    monkeypatch.setattr(tree, "walk_lanes", counting_walk)
    config = small_config(methods=(METHOD_BASELINE, METHOD_THRESHOLD))
    run_experiment(config)
    n_rows = load_dataset(load_dataset_config(SYNTHETIC)).n_rows
    assert len(walks) == 2 * config.folds, walks
    assert [train + test for train, test in zip(walks[::2], walks[1::2])] == [n_rows] * config.folds
    assert sum(walks[1::2]) == n_rows  # each row is tested once


@pytest.mark.parametrize("exact", [False, True])
def test_sweep_results_equal_runs_at_each_alpha(exact):
    config = small_config(methods=METHODS, exact=exact)
    alphas = [1.0, 3.0, 9.0]
    sweep = sweep_alpha(config, alphas)
    assert list(sweep.results) == [run_experiment(replace(config, alpha=a)) for a in alphas]


def sweep_fixture_config(**kwargs):
    defaults = dict(
        dataset_config=SYNTHETIC,
        n_trees=1,
        max_depth=3,
        features_per_split=None,
        bootstrap=False,
        folds=5,
        methods=(METHOD_BASELINE, METHOD_FAIRTTTS),
        seed=20240601,
        exact=True,
        n_simulations=1,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_exact_sweep_unprivileged_favorable_rate_is_nondecreasing():
    sweep = sweep_alpha(sweep_fixture_config(), [1.0, 3.0, 9.0, 27.0])
    rates = []
    for result in sweep.results:
        per_fold = [
            (r.group_confusion.unprivileged.tp + r.group_confusion.unprivileged.fp)
            / r.group_confusion.unprivileged.n
            for r in result.fold_reports[METHOD_FAIRTTTS]
        ]
        rates.append(float(np.mean(per_fold)))
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_exact_mode_runs_on_forests(tmp_path):
    # run, sweep-alpha and predict take the exact distribution of a forest
    config = sweep_fixture_config(n_trees=3, bootstrap=True)
    result = run_experiment(config)
    assert len(result.fold_reports[METHOD_FAIRTTTS]) == config.folds
    assert len(sweep_alpha(config, [1.0, 9.0]).results) == 2
    model, out = tmp_path / "model.json", tmp_path / "preds.csv"
    assert cli.main(["train", "--data", SYNTHETIC, "--n-trees", "3", "--out", str(model)]) == 0
    assert cli.main(["predict", "--data", SYNTHETIC, "--model", str(model), "--exact",
                     "--out", str(out)]) == 0
    dataset, protected, _ = bench.load(SYNTHETIC)
    preds, probs = exact_forest_batch(load_model(str(model)), dataset.rows,
                                      FairnessSpec(protected_feature=protected),
                                      ExperimentConfig().traversal_config(0))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[3]) for r in rows] == preds.tolist()
    assert [float(r[4]) for r in rows] == probs[:, 1].tolist()


def test_cli_exact_predict_down_deep_chains(tmp_path):
    # exact inference has no depth limit: a chain of 1,100 levels at p_max
    # 0.5 outlives the smallest float
    (tmp_path / "zero.csv").write_text("g,x,y\n1,0,yes\n0,0,no\n")
    data = tmp_path / "zero.json"
    data.write_text(json.dumps({
        "name": "zero", "csv_path": "zero.csv", "label_column": "y",
        "positive_label_value": "yes", "protected_column": "g", "privileged_values": ["1"]}))
    model, out = tmp_path / "chain.json", tmp_path / "preds.csv"
    for depth in (64, 128, 1100):
        model.write_text(dumps(Forest(trees=[chain_tree(depth)], n_trees=1)))
        assert cli.main(["predict", "--data", str(data), "--model", str(model), "--exact",
                         "--p-max", "0.5", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[4]) for r in rows] == [1.0 - 0.5**depth] * 2


def test_chart_structure_for_sweep(tmp_path):
    sweep = sweep_alpha(sweep_fixture_config(), [1.0, 2.0, 4.0, 9.0, 16.0])
    svg_text = chart_alpha_sweep(sweep_to_dict(sweep))
    root = ET.fromstring(svg_text)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//svg:polyline", ns)
    assert len(polylines) == 2
    for poly in polylines:
        points = poly.attrib["points"].split()
        assert len(points) == 5
    # deterministic bytes
    assert svg_text == chart_alpha_sweep(sweep_to_dict(sweep))


def test_chart_single_point_has_marker_and_no_polyline():
    sweep = sweep_alpha(sweep_fixture_config(), [9.0])
    svg_text = chart_alpha_sweep(sweep_to_dict(sweep))
    root = ET.fromstring(svg_text)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    assert not root.findall(".//svg:polyline", ns)
    markers = [
        c for c in root.findall(".//svg:circle", ns)
        if c.attrib.get("class") in ("accuracy-marker", "eod-marker")
    ]
    assert len(markers) == 2


def test_chart_accuracy_vs_eod_has_point_per_method():
    result = run_experiment(small_config())
    root = ET.fromstring(chart_accuracy_vs_eod(result_to_dict(result)))
    ns = {"svg": "http://www.w3.org/2000/svg"}
    ids = {c.attrib.get("id") for c in root.findall(".//svg:circle", ns)}
    for method in result.methods:
        assert f"point-{method}" in ids


def test_charts_reject_empty_documents():
    doc = {"schema": "fairtree-report/1", "dataset": "d", "methods": [],
           "aggregates": {}}
    with pytest.raises(ValueError, match="no data points"):
        chart_accuracy_vs_eod(doc)


# --- CLI ----------------------------------------------------------------------

def test_cli_run_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    code = cli.main([
        "run", "--data", SYNTHETIC, "--n-trees", "5", "--max-depth", "3",
        "--folds", "3", "--n-simulations", "30", "--seed", "3",
        "--out-dir", str(out),
    ])
    assert code == 0
    for name in ("report.json", "report.csv", "report.txt", "timing.json",
                 "accuracy_vs_eod.svg"):
        assert (out / name).exists(), name
    doc = json.loads((out / "report.json").read_text())
    assert doc["schema"] == "fairtree-report/1"
    timing = json.loads((out / "timing.json").read_text())
    assert timing["schema"] == "fairtree-timing/2"
    assert set(timing["seconds"]) == {*STAGES, *(f"method.{m}" for m in METHODS)}
    assert all(len(seconds) == 3 for seconds in timing["seconds"].values())


def test_cli_run_twice_is_byte_identical_excluding_timing(tmp_path):
    args = ["run", "--data", SYNTHETIC, "--n-trees", "4", "--max-depth", "3",
            "--folds", "3", "--n-simulations", "25", "--seed", "8"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(out_a)]) == 0
    assert cli.main(args + ["--out-dir", str(out_b)]) == 0
    for name in ("report.json", "report.csv", "report.txt", "accuracy_vs_eod.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_cli_sweep_alpha_emits_sweep_artifacts(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep-alpha", "--data", SYNTHETIC, "--n-trees", "1", "--max-depth", "3",
        "--features-per-split", "all", "--no-bootstrap", "--exact",
        "--folds", "5", "--seed", "20240601", "--alphas", "1,2,4,9,16",
        "--out-dir", str(out),
    ])
    assert code == 0
    for name in ("sweep.json", "sweep.csv", "alpha_sweep.svg"):
        assert (out / name).exists(), name
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["alphas"] == [1.0, 2.0, 4.0, 9.0, 16.0]


def test_cli_train_predict_evaluate_round_trip(tmp_path):
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    metrics = tmp_path / "metrics.json"
    assert cli.main([
        "train", "--data", SYNTHETIC, "--n-trees", "3", "--max-depth", "3",
        "--seed", "2", "--out", str(model),
    ]) == 0
    assert cli.main([
        "predict", "--model", str(model), "--data", SYNTHETIC,
        "--method", "fairttts", "--n-simulations", "20", "--seed", "5",
        "--out", str(preds),
    ]) == 0
    assert cli.main([
        "evaluate", "--data", SYNTHETIC, "--pred", str(preds),
        "--out", str(metrics),
    ]) == 0
    doc = json.loads(metrics.read_text())
    assert doc["schema"] == "fairtree-metrics/1"
    assert 0.0 <= doc["accuracy"] <= 1.0


def test_cli_charts_rerenders_from_report(tmp_path):
    out = tmp_path / "out"
    cli.main(["run", "--data", SYNTHETIC, "--n-trees", "3", "--max-depth", "3",
              "--folds", "3", "--n-simulations", "20", "--seed", "1",
              "--out-dir", str(out)])
    redo = tmp_path / "redo"
    code = cli.main(["charts", "--report", str(out / "report.json"),
                     "--out-dir", str(redo)])
    assert code == 0
    assert (redo / "accuracy_vs_eod.svg").read_bytes() == (out / "accuracy_vs_eod.svg").read_bytes()


def test_cli_exit_codes():
    assert cli.main(["run", "--data", SYNTHETIC, "--folds", "1"]) == 1
    assert cli.main(["run", "--data", "/nonexistent.json"]) == 1
    assert cli.main(["sweep-alpha", "--data", SYNTHETIC, "--alphas", "2,1"]) == 1
    assert cli.main(["evaluate", "--data", SYNTHETIC, "--pred", "/missing.csv"]) == 2
    assert cli.main(["charts"]) == 1


def test_cli_data_error_exit_code(tmp_path):
    config = {
        "name": "broken",
        "csv_path": "missing.csv",
        "label_column": "y",
        "positive_label_value": "1",
        "protected_column": "g",
        "privileged_values": ["1"],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--data", str(path)]) == 2


def test_cli_non_utf8_inputs_name_the_file_and_byte_offset(tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"g,x,y\n1,caf\xe9,yes\n")  # offset 11: the byte after 'caf'
    config = {"name": "latin1", "csv_path": "latin1.csv", "label_column": "y",
              "positive_label_value": "yes", "protected_column": "g",
              "privileged_values": ["1"]}
    config_path = tmp_path / "latin1.json"
    config_path.write_text(json.dumps(config))
    bad_json = tmp_path / "bad.json"
    bad_json.write_bytes(b'{"name": "caf\xe9"}')  # offset 13
    cases = (
        (["train", "--data", str(config_path)], latin1, 11, 2),
        (["train", "--data", str(bad_json)], bad_json, 13, 1),
        (["evaluate", "--data", SYNTHETIC, "--pred", str(latin1)], latin1, 11, 2),
        (["charts", "--report", str(bad_json), "--out-dir", str(tmp_path)], bad_json, 13, 2),
        (["predict", "--data", SYNTHETIC, "--model", str(bad_json)], bad_json, 13, 2),
    )
    for argv, path, offset, code in cases:
        assert cli.main(argv) == code, argv
        assert f"{path}: not UTF-8 (bad byte at offset {offset})" in capsys.readouterr().err


def write_config(directory, name, csv_path, **fields):
    """A dataset config over a g,x,y CSV; returns its path as a string."""
    config = {"name": name, "csv_path": csv_path, "label_column": "y",
              "positive_label_value": "yes", "protected_column": "g",
              "privileged_values": ["1"], **fields}
    path = directory / f"{name}.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_cli_directories_as_files_exit_cleanly(tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    dir_csv = write_config(tmp_path, "dir_csv", "folder")
    model = str(tmp_path / "model.json")
    assert cli.main(["train", "--data", SYNTHETIC, "--n-trees", "2", "--out", model]) == 0
    preds = str(tmp_path / "preds.csv")
    assert cli.main(["predict", "--data", SYNTHETIC, "--model", model, "--method", "baseline",
                     "--out", preds]) == 0
    capsys.readouterr()
    cases = (
        (["train", "--data", dir_csv], "cannot read", 2),
        (["train", "--data", str(folder)], "cannot read", 1),
        (["predict", "--data", SYNTHETIC, "--model", str(folder)], "cannot read", 2),
        (["evaluate", "--data", SYNTHETIC, "--pred", str(folder)], "cannot read", 2),
        (["charts", "--report", str(folder), "--out-dir", str(tmp_path)], "cannot read", 2),
        (["train", "--data", SYNTHETIC, "--n-trees", "1", "--out", str(folder)],
         "cannot write", 2),
        (["predict", "--data", SYNTHETIC, "--model", model, "--method", "baseline",
          "--out", str(folder)], "cannot write", 2),
        (["evaluate", "--data", SYNTHETIC, "--pred", preds, "--out", str(folder)],
         "cannot write", 2),
    )
    for argv, message, code in cases:
        assert cli.main(argv) == code, argv
        assert f"{folder}: {message}" in capsys.readouterr().err, argv


def test_cli_malformed_row_filters_are_config_errors(tmp_path, capsys):
    (tmp_path / "ok.csv").write_text("g,x,y\n1,1,yes\n0,2,no\n")
    cases = (
        ([{"keep_values": ["1"]}], "row_filters[0]: expected an object with a 'column'"),
        ([{"column": "x", "min": "a"}], "row_filters[0].min: expected a number, got 'a'"),
        ([{"column": "x"}, {"column": "x", "max": True}], "row_filters[1].max: expected a number"),
        ([{"column": "x", "keep_values": "1"}], "row_filters[0].keep_values: expected a list"),
        ("x", "row_filters: expected a list"),
    )
    for i, (filters, message) in enumerate(cases):
        config = write_config(tmp_path, f"filters{i}", "ok.csv", row_filters=filters)
        assert cli.main(["train", "--data", config, "--n-trees", "1"]) == 1, filters
        assert message in capsys.readouterr().err, filters


def test_cli_csv_parser_errors_name_the_file_and_line(tmp_path, capsys):
    # an unclosed quote reads on to the end of the file: one cell longer
    # than the csv module's field limit
    path = tmp_path / "long.csv"
    path.write_text("g,x,y\n1,1,yes\n0,\"" + "x" * 140_000 + "\n")
    config = write_config(tmp_path, "long", "long.csv")
    preds = tmp_path / "long_preds.csv"
    preds.write_text("row,prediction\n0,\"" + "x" * 140_000 + "\n")
    cases = (
        (["train", "--data", config, "--n-trees", "1"], path, 3),
        (["evaluate", "--data", SYNTHETIC, "--pred", str(preds)], preds, 2),
    )
    for argv, path, line in cases:
        assert cli.main(argv) == 2, argv
        assert f"{path}: line {line}: field larger than field limit" in capsys.readouterr().err


def assert_clean_exit(capsys, argv, code, message):
    """cli.main(argv) returns code and prints one line, holding message."""
    assert cli.main(argv) == code, argv
    err = capsys.readouterr().err
    assert message in err, (argv, err)
    assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)


def forbid(monkeypatch, name):
    """Make a call of fairtree.bench.<name> fail the test."""
    def called(*args, **kwargs):
        raise AssertionError(f"bench.{name} was called")
    monkeypatch.setattr(bench, name, called)


# settings that once got past ExperimentConfig: median until fold 0's first
# fairttts call, the others as TypeErrors from the fold loop or the engine
@pytest.mark.parametrize("setting, value, message", [
    ("aggregation", "median", "unknown aggregation 'median'"),
    ("folds", 2.5, r"folds must be an integer >= 2"),
    ("folds", "5", r"folds must be an integer >= 2"),
    ("folds", True, r"folds must be an integer >= 2"),
    ("folds", 1, r"folds must be an integer >= 2"),
    ("p_max", "0.1", r"p_max must lie in \[0, 0.5\]"),
    ("alpha", None, r"alpha must be finite and >= 0"),
    ("exact", "no", r"exact must be true or false, not 'no'"),
    ("bootstrap", 1, r"bootstrap must be true or false, not 1"),
    ("stratified", None, r"stratified must be true or false, not None"),
])
def test_a_bad_setting_fails_before_any_data_is_read(setting, value, message, monkeypatch):
    forbid(monkeypatch, "load_dataset")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_experiment(small_config(**{setting: value}))


def test_numpy_settings_are_taken():
    result = run_experiment(small_config(folds=np.int64(2), p_max=np.float64(0.1),
                                         alpha=np.float32(2.0), methods=(METHOD_FAIRTTTS,)))
    assert result == run_experiment(small_config(folds=2, p_max=0.1, alpha=2.0,
                                                 methods=(METHOD_FAIRTTTS,)))


def test_numpy_settings_are_stored_as_python_numbers_and_their_report_is_written(tmp_path):
    # numpy scalars once reached report.json's config and failed emit_report
    # with "Object of type int64 is not JSON serializable"
    numpy = small_config(n_trees=np.int64(2), folds=np.int64(2), max_depth=np.int8(3),
                         min_samples_leaf=np.int32(2), features_per_split=np.int64(2),
                         n_simulations=np.int32(5), p_max=np.float32(0.1),
                         alpha=np.float64(2.0), seed=np.uint16(4), exact=np.bool_(False))
    python = small_config(n_trees=2, folds=2, max_depth=3, min_samples_leaf=2,
                          features_per_split=2, n_simulations=5, p_max=float(np.float32(0.1)),
                          alpha=2.0, seed=4, exact=False)
    assert numpy == python
    assert all(type(getattr(numpy, name)) is type(getattr(python, name))
               for name in numpy.to_dict())
    emit_report(run_experiment(numpy), tmp_path / "numpy")
    emit_report(run_experiment(python), tmp_path / "python")
    for name in ("report.json", "report.csv", "report.txt"):
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "python" / name).read_bytes()


def test_cli_output_dirs_that_are_files_exit_cleanly(tmp_path, capsys, monkeypatch):
    report = tmp_path / "out" / "report.json"
    small = ["--data", SYNTHETIC, "--n-trees", "2", "--max-depth", "2", "--folds", "2",
             "--n-simulations", "5"]
    assert cli.main(["run", *small, "--out-dir", str(report.parent)]) == 0
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    capsys.readouterr()
    forbid(monkeypatch, "train_forest")  # the directory is checked before any training
    for argv in (["run", *small], ["sweep-alpha", *small, "--alphas", "1,2"],
                 ["charts", "--report", str(report)]):
        assert_clean_exit(capsys, argv + ["--out-dir", str(afile)], 2,
                          f"data error: {afile}: cannot write")


def test_cli_unreadable_json_inputs_exit_cleanly(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)  # deeper than the decoder can recurse
    missing = tmp_path / "missing.json"
    cases = (
        (["predict", "--data", SYNTHETIC, "--model", str(nested)], 2,
         f"data error: {nested}: invalid JSON: maximum recursion depth"),
        (["train", "--data", str(nested)], 1,
         f"config error: {nested}: invalid JSON: maximum recursion depth"),
        (["charts", "--report", str(nested), "--out-dir", str(tmp_path)], 2,
         f"data error: {nested}: invalid JSON: maximum recursion depth"),
        (["predict", "--data", SYNTHETIC, "--model", str(missing)], 2,
         f"data error: model file not found: {missing}"),
    )
    for argv, code, message in cases:
        assert_clean_exit(capsys, argv, code, message)


def test_cli_predict_model_and_data_mismatches_exit_cleanly(tmp_path, capsys):
    (tmp_path / "two.csv").write_text("g,x,y\n1,1,yes\n0,2,no\n")
    two = tmp_path / "two.json"
    two.write_text(json.dumps({
        "name": "two", "csv_path": "two.csv", "label_column": "y",
        "positive_label_value": "yes", "protected_column": "g", "privileged_values": ["1"]}))
    fixture_model = tmp_path / "fixture_model.json"
    assert cli.main(["train", "--data", SYNTHETIC, "--n-trees", "2",
                     "--out", str(fixture_model)]) == 0
    n_features = load_dataset(load_dataset_config(SYNTHETIC)).n_features
    assert n_features != 2
    capsys.readouterr()
    assert_clean_exit(capsys, ["predict", "--data", str(two), "--model", str(fixture_model)], 2,
                      f"data error: {fixture_model}: model has {n_features} features; "
                      f"dataset has 2")
    # a complete uniform-distance tree of depth 15 and a one-leaf tree:
    # every row has 2**15 + 1 paths, one more than the exact kernel's
    # budget, and gets its exact probabilities
    wide = Forest(trees=[full_uniform_tree(np.random.default_rng(0), 15, n_features=2),
                         make_tree(leaf(1, 0), n_features=2)], n_trees=2)
    wide_model, out = tmp_path / "wide_model.json", tmp_path / "wide.csv"
    wide_model.write_text(dumps(wide))
    assert cli.main(["predict", "--data", str(two), "--model", str(wide_model), "--exact",
                     "--out", str(out)]) == 0
    dataset, protected, _ = bench.load(str(two))
    config = ExperimentConfig().traversal_config(0)
    preds, probs = exact_forest_batch(wide, dataset.rows,
                                      FairnessSpec(protected_feature=protected), config)
    lines = out.read_text().splitlines()
    assert len(lines) == 3 and [line.split(",")[3:] for line in lines[1:]] == [
        [str(pred), repr(float(p))] for pred, p in zip(preds, probs[:, 1])]


def test_cli_invalid_options_exit_before_reading_data(tmp_path, capsys, monkeypatch):
    model = str(tmp_path / "model.json")
    assert cli.main(["train", "--data", SYNTHETIC, "--n-trees", "2", "--out", model]) == 0
    capsys.readouterr()
    forbid(monkeypatch, "load_dataset")
    growth = (
        (["--n-trees", "0"], "n_trees must be >= 1"),
        (["--max-depth", "0"], "max_depth must be >= 1 or None"),
        (["--min-samples-leaf", "0"], "min_samples_leaf must be >= 1"),
        (["--features-per-split", "0"], "features_per_split must be >= 1 or None"),
    )
    engine = (
        (["--n-simulations", "0"], "n_simulations must be a positive integer"),
        (["--p-max", "0.7"], "p_max must lie in [0, 0.5]"),
    )
    formats = tuple(
        (["--formats", value], f"--formats must name one or more of json, csv, table; "
                               f"got {value!r}")
        for value in ("jsn", "", "json,txt"))
    seed = ((["--seed", "-1"], "seed must be a non-negative integer"),)
    repeated = ((["--methods", "fairttts,fairttts,baseline"],
                 "methods named more than once: ['fairttts']"),)
    commands = (
        (["train"], growth + seed),
        (["run"], growth + engine + formats + seed + repeated),
        (["sweep-alpha", "--alphas", "1,2"], growth + engine + seed + repeated
         + ((["--methods", "baseline"], "an alpha sweep needs the fairttts method"),)),
        (["predict", "--model", model], engine + seed),
    )
    for command, cases in commands:
        for flags, message in cases:
            assert_clean_exit(capsys, [*command, "--data", SYNTHETIC, *flags], 1,
                              f"config error: {message}")


def test_cli_rejected_sweep_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    forbid(monkeypatch, "load_dataset")
    out = tmp_path / "sweep"
    for flags, message in (
        (["--alphas", "2,1"], "alphas must be strictly increasing (no duplicates)"),
        (["--alphas", "nan"], "alpha must be finite and >= 0"),
        (["--alphas", "1,2", "--methods", "baseline"], "an alpha sweep needs the fairttts method"),
    ):
        assert_clean_exit(capsys, ["sweep-alpha", "--data", SYNTHETIC, *flags,
                                   "--out-dir", str(out)], 1, f"config error: {message}")
        assert not out.exists(), flags


def test_cli_data_that_cannot_be_split_or_scored_exits_cleanly(tmp_path, capsys):
    (tmp_path / "one_group.csv").write_text("g,x,y\n1,1,yes\n1,2,no\n")
    one_group = write_config(tmp_path, "one_group", "one_group.csv")
    preds = tmp_path / "preds.csv"
    preds.write_text("row,prediction\n0,1\n1,0\n")
    cases = (
        (["run", "--data", SYNTHETIC, "--n-trees", "1", "--folds", "500",
          "--out-dir", str(tmp_path)], "data error: folds: k (500) exceeds n_rows (400)"),
        (["evaluate", "--data", one_group, "--pred", str(preds)],
         f"data error: {one_group}: both groups required"),
    )
    for argv, message in cases:
        assert_clean_exit(capsys, argv, 2, message)


def test_cli_settings_default_to_experiment_config():
    parser = cli.build_parser()
    default = ExperimentConfig(dataset_config=SYNTHETIC)
    for command, expected in (
        (["run"], default),
        (["train"], default),
        (["predict", "--model", "model.json"], default),
        (["sweep-alpha", "--alphas", "1"],
         replace(default, methods=(METHOD_BASELINE, METHOD_FAIRTTTS))),
    ):
        args = parser.parse_args([*command, "--data", SYNTHETIC])
        assert cli._experiment_config(args) == expected, command


def test_cli_bad_predictions_name_the_file_and_row(tmp_path, capsys):
    n_rows = load_dataset(load_dataset_config(SYNTHETIC)).n_rows
    files = {
        "short": "row,prediction\n" + "0,1\n" * 4 + "4\n" + "0,1\n" * (n_rows - 5),
        "two": "row,prediction\n" + "0,0\n" * 2 + "2,2\n" + "0,0\n" * (n_rows - 3),
        "no_column": "row,pred\n" + "0,1\n" * n_rows,
    }
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    cases = (
        ("short", "row 5: expected 2 cells, found 1"),
        ("two", "row 3: prediction '2' is not 0 or 1"),
        ("no_column", "missing column 'prediction'"),
    )
    for name, message in cases:
        path = tmp_path / f"{name}.csv"
        assert_clean_exit(capsys, ["evaluate", "--data", SYNTHETIC, "--pred", str(path)], 2,
                          f"data error: {path}: {message}")


def test_cli_malformed_chart_documents_name_the_file_and_field(tmp_path, capsys):
    report = {"schema": "fairtree-report/1", "dataset": "d", "methods": ["baseline", "ghost"],
              "aggregates": {"baseline": {"accuracy": {"mean": 0.8}, "eod": {"mean": 0.1}}}}
    sweep = {"schema": "fairtree-sweep/1", "dataset": "d",
             "fairttts": [{"alpha": 1.0, "accuracy": {"mean": 0.8}, "eod": {"mean": 0.1}},
                          {"alpha": 2.0, "eod": {"mean": 0.1}}]}
    cases = (
        ([1, 2], "expected a JSON object"),
        ({"schema": "fairtree-report/1"}, "missing field 'methods'"),
        (report, "missing field 'ghost'"),
        (sweep, "missing field 'accuracy'"),
    )
    for i, (doc, message) in enumerate(cases):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        assert_clean_exit(capsys, ["charts", "--report", str(path), "--out-dir", str(tmp_path)],
                          2, f"data error: {path}: {message}")


def test_cli_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FAIRTREE_OUTPUT_DIR", str(tmp_path / "envout"))
    code = cli.main(["run", "--data", SYNTHETIC, "--n-trees", "3",
                     "--max-depth", "2", "--folds", "3",
                     "--n-simulations", "10", "--seed", "0"])
    assert code == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_a_run_ranks_the_table_once_for_all_of_its_folds(tmp_path, rankings):
    assert cli.main(["run", "--data", SYNTHETIC, "--n-trees", "2", "--max-depth", "3",
                     "--folds", "5", "--n-simulations", "5", "--out-dir", str(tmp_path)]) == 0
    # the whole table's ranks, which each fold's train split gathers
    assert len(rankings) == 1 and rankings[0][0] == 400


def test_run_experiment_on_accepts_preloaded_dataset():
    ds_config = load_dataset_config(SYNTHETIC)
    dataset = load_dataset(ds_config)
    result = run_experiment_on(
        dataset, dataset.feature_index("group"), "inline",
        small_config(methods=(METHOD_BASELINE,)),
    )
    assert result.dataset == "inline"
