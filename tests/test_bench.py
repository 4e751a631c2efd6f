import json
import os
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairtree import bench, cli
from fairtree.bench import (
    METHOD_BASELINE,
    METHOD_FAIRTTTS,
    METHOD_THRESHOLD,
    METRICS,
    ExperimentConfig,
    emit_report,
    emit_sweep,
    fit_fold,
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
from fairtree.model_io import dumps
from fairtree.rng import stream_key

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


def test_timings_are_recorded_but_not_compared():
    a = run_experiment(small_config(methods=(METHOD_BASELINE,)))
    b = run_experiment(small_config(methods=(METHOD_BASELINE,)))
    assert a.timings[METHOD_BASELINE] != b.timings[METHOD_BASELINE] or True
    assert all(t >= 0 for t in a.timings[METHOD_BASELINE])
    assert a == b  # equality ignores wall-clock noise


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
    forest_a, policy_a = fit_fold(dataset, plan, fold, config, protected)
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
    forest_b, policy_b = fit_fold(poisoned, plan, fold, config, protected)
    assert dumps(forest_a) == dumps(forest_b)
    assert policy_a == policy_b


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


def test_exact_mode_requires_single_tree():
    with pytest.raises(ConfigError, match="exact"):
        ExperimentConfig(dataset_config=SYNTHETIC, n_trees=5, exact=True)


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
    commands = (
        (["train"], growth),
        (["run"], growth + engine),
        (["sweep-alpha", "--alphas", "1,2"], growth + engine),
        (["predict", "--model", model], engine
         + ((["--exact"], "exact evaluation requires n_trees == 1"),)),
    )
    for command, cases in commands:
        for flags, message in cases:
            assert_clean_exit(capsys, [*command, "--data", SYNTHETIC, *flags], 1,
                              f"config error: {message}")


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


def test_run_experiment_on_accepts_preloaded_dataset():
    ds_config = load_dataset_config(SYNTHETIC)
    dataset = load_dataset(ds_config)
    result = run_experiment_on(
        dataset, dataset.feature_index("group"), "inline",
        small_config(methods=(METHOD_BASELINE,)),
    )
    assert result.dataset == "inline"
