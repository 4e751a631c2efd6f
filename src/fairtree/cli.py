"""Command-line interface.

Subcommands: train, predict, evaluate, run, sweep-alpha, charts.
Exit codes: 0 success, 1 configuration error, 2 data error.
FAIRTREE_OUTPUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, charts, model_io
from .data import load_dataset, load_dataset_config, read_json, read_rows, write_text
from .errors import ConfigError, DataError
from .metrics import full_report
from .rng import stream_key
from .traversal import (
    VOTE_MAJORITY,
    VOTE_MEAN,
    FairnessSpec,
    TraversalConfig,
    predict_fair_batch,
)
from .tree import Forest, predict_forest_batch, train_forest


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _default_out() -> str:
    return os.environ.get("FAIRTREE_OUTPUT_DIR", "fairtree_out")


def _add_model_flags(p):
    p.add_argument("--n-trees", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-samples-leaf", type=int, default=1)
    p.add_argument(
        "--features-per-split",
        default="sqrt",
        help="integer, 'sqrt', or 'all' (default: sqrt)",
    )
    p.add_argument("--no-bootstrap", action="store_true")


def _add_engine_flags(p):
    p.add_argument("--n-simulations", type=int, default=100)
    p.add_argument("--p-max", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=9.0)
    p.add_argument(
        "--aggregation", choices=(VOTE_MAJORITY, VOTE_MEAN), default=VOTE_MAJORITY
    )
    p.add_argument("--exact", action="store_true",
                   help="exact path enumeration instead of Monte Carlo (single tree only)")


def _features_per_split(value):
    if value in ("all", "none", ""):
        return None
    if value == "sqrt":
        return "sqrt"
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"--features-per-split must be an integer, 'sqrt', or 'all'; got {value!r}"
        ) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="fairtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train a forest and write a model file")
    p.add_argument("--data", required=True, help="dataset config JSON")
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="model path (default <out dir>/model.json)")

    p = sub.add_parser("predict", help="predict with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=("baseline", "fairttts"), default="fairttts")
    _add_engine_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="predictions CSV (default stdout)")

    p = sub.add_parser("evaluate", help="score a predictions CSV against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--pred", required=True, help="CSV with a 'prediction' column")
    p.add_argument("--out", default=None, help="metrics JSON (default stdout)")

    p = sub.add_parser("run", help="full cross-validated benchmark")
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    _add_engine_flags(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--methods", default="baseline,threshold_optimizer,fairttts")
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--formats", default="json,csv,table")

    p = sub.add_parser("sweep-alpha", help="run the benchmark across alpha values")
    p.add_argument("--data", required=True)
    _add_model_flags(p)
    _add_engine_flags(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--methods", default="baseline,fairttts")
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alphas", required=True, help="comma-separated, strictly increasing")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("charts", help="render SVG charts from report/sweep JSON")
    p.add_argument("--report", action="append", default=[],
                   help="report.json or sweep.json (repeatable)")
    p.add_argument("--out-dir", default=None)
    return parser


def _experiment_config(args) -> bench.ExperimentConfig:
    return bench.ExperimentConfig(
        dataset_config=args.data,
        n_trees=args.n_trees,
        max_depth=args.max_depth,
        min_samples_leaf=args.min_samples_leaf,
        features_per_split=_features_per_split(args.features_per_split),
        bootstrap=not args.no_bootstrap,
        n_simulations=args.n_simulations,
        p_max=args.p_max,
        alpha=args.alpha,
        folds=args.folds,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        seed=args.seed,
        exact=args.exact,
        aggregation=args.aggregation,
        stratified=args.stratified,
    )


def _load(data_path):
    config = load_dataset_config(data_path)
    dataset = load_dataset(config)
    return config, dataset


def _cmd_train(args) -> int:
    _, dataset = _load(args.data)
    forest = train_forest(
        dataset,
        n_trees=args.n_trees,
        max_depth=args.max_depth,
        min_samples_leaf=args.min_samples_leaf,
        features_per_split=bench._resolve_features_per_split(
            _features_per_split(args.features_per_split), dataset.n_features
        ),
        rng_seed=args.seed,
        bootstrap=not args.no_bootstrap,
    )
    path = args.out or os.path.join(_default_out(), "model.json")
    model_io.save_model(forest, path)
    print(f"wrote {path}")
    return 0


def _emit(text, out) -> None:
    """A command's text to the --out file, or to stdout without one."""
    if out:
        write_text(out, text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _cmd_predict(args) -> int:
    ds_config, dataset = _load(args.data)
    model = model_io.load_model(args.model)
    forest = model if isinstance(model, Forest) else Forest(trees=[model], n_trees=1)
    spec = FairnessSpec(
        protected_feature=dataset.feature_index(ds_config.protected_column)
    )
    if args.method == "baseline":
        preds = predict_forest_batch(forest, dataset.rows)
        probs = None
    else:
        cfg = TraversalConfig(n_simulations=args.n_simulations, p_max=args.p_max,
                              alpha=args.alpha, seed=args.seed)
        if args.exact:
            if forest.n_trees != 1:
                raise ConfigError("exact evaluation requires a single-tree model")
            preds, probs = bench.exact_predictions(forest, dataset.rows, spec, cfg)
        else:
            preds, dist = predict_fair_batch(
                forest, dataset.rows, spec, cfg, aggregation=args.aggregation
            )
            probs = dist[:, 1]
    lines = ["row,label,group,prediction,prob_favorable"]
    group = dataset.rows[:, dataset.feature_index(ds_config.protected_column)]
    for i in range(dataset.n_rows):
        prob = "" if probs is None else repr(float(probs[i]))
        lines.append(
            f"{i},{dataset.labels[i]},{int(group[i])},{int(preds[i])},{prob}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    ds_config, dataset = _load(args.data)
    header, rows = read_rows(args.pred, "predictions file")
    if len(rows) != dataset.n_rows:
        raise DataError(
            f"predictions have {len(rows)} rows; dataset has {dataset.n_rows}"
        )
    if "prediction" not in header:
        raise DataError(f"{args.pred}: missing column 'prediction'")
    j = header.index("prediction")
    preds = np.array([{"0": 0, "1": 1}.get(row[j].strip(), -1) for row in rows])
    bad = np.flatnonzero(preds < 0)
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{args.pred}: row {i + 1}: prediction {rows[i][j]!r} is not 0 or 1")
    group = dataset.rows[:, dataset.feature_index(ds_config.protected_column)]
    report = full_report(dataset.labels, preds, group.astype(np.int64))
    doc = {"schema": "fairtree-metrics/1", "dataset": ds_config.name}
    doc.update(report.to_dict())
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_run(args) -> int:
    config = _experiment_config(args)
    result = bench.run_experiment(config)
    out_dir = args.out_dir or _default_out()
    formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
    paths = bench.emit_report(result, out_dir, formats=formats)
    paths.update(charts.emit_charts(bench.result_to_dict(result), out_dir))
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError:
        raise ConfigError(f"--alphas must be comma-separated numbers: {args.alphas!r}") from None
    config = _experiment_config(args)
    sweep = bench.sweep_alpha(config, alphas)
    out_dir = args.out_dir or _default_out()
    paths = bench.emit_sweep(sweep, out_dir)
    paths.update(charts.emit_charts(bench.sweep_to_dict(sweep), out_dir))
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_charts(args) -> int:
    if not args.report:
        raise ConfigError("charts requires at least one --report file")
    out_dir = args.out_dir or _default_out()
    for path in args.report:
        doc = read_json(path, DataError, "report")
        try:
            paths = charts.emit_charts(doc, out_dir)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc
        for name in sorted(paths):
            print(f"wrote {paths[name]}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "sweep-alpha": _cmd_sweep,
    "charts": _cmd_charts,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, DataError) as exc:
        kind = "config" if isinstance(exc, ConfigError) else "data"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
