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
from dataclasses import fields

import numpy as np

from . import bench, charts, model_io
from .data import load_dataset, make_dir, read_json, read_rows, write_text  # noqa: F401
from .errors import ConfigError, DataError
from .metrics import full_report
from .traversal import VOTE_MAJORITY, VOTE_MEAN, FairnessSpec, predict_fair_batch  # noqa: F401
from .tree import Forest, train_forest  # noqa: F401

# load_dataset, predict_fair_batch and train_forest are not called here:
# benchmark/tracing.py patches them by name (--trace 1), so they stay
# attributes of this module.


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _default_out() -> str:
    return os.environ.get("FAIRTREE_OUTPUT_DIR", "fairtree_out")


def _names(value) -> tuple:
    """The comma-separated names in value."""
    return tuple(name.strip() for name in value.split(",") if name.strip())


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


def _settings(p, *flag_sets):
    """Add to p the ExperimentConfig flags: --data, --seed and each of
    flag_sets. Each flag's dest is its field's name, and a flag not given
    stays out of the namespace, so the field's default applies."""
    group = p.add_argument_group("settings (default: the ExperimentConfig field's)",
                                 argument_default=argparse.SUPPRESS)
    group.add_argument("--data", dest="dataset_config", required=True, metavar="DATA",
                       help="dataset config JSON")
    group.add_argument("--seed", type=int)
    for add_flags in flag_sets:
        add_flags(group)


def _model_flags(g):
    g.add_argument("--n-trees", type=int)
    g.add_argument("--max-depth", type=int)
    g.add_argument("--min-samples-leaf", type=int)
    g.add_argument("--features-per-split", type=_features_per_split,
                   help="integer, 'sqrt', or 'all' (default: sqrt)")
    g.add_argument("--no-bootstrap", dest="bootstrap", action="store_false")


def _engine_flags(g):
    g.add_argument("--n-simulations", type=int)
    g.add_argument("--p-max", type=float)
    g.add_argument("--alpha", type=float)
    g.add_argument("--aggregation", choices=(VOTE_MAJORITY, VOTE_MEAN))
    g.add_argument("--exact", action="store_true",
                   help="exact path enumeration instead of Monte Carlo (single tree only)")


def _experiment_flags(g):
    g.add_argument("--folds", type=int)
    g.add_argument("--methods", type=_names)
    g.add_argument("--stratified", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="fairtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train a forest and write a model file")
    _settings(p, _model_flags)
    p.add_argument("--out", default=None, help="model path (default <out dir>/model.json)")

    p = sub.add_parser("predict", help="predict with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=("baseline", "fairttts"), default="fairttts")
    _settings(p, _engine_flags)
    p.add_argument("--out", default=None, help="predictions CSV (default stdout)")

    p = sub.add_parser("evaluate", help="score a predictions CSV against a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--pred", required=True, help="CSV with a 'prediction' column")
    p.add_argument("--out", default=None, help="metrics JSON (default stdout)")

    p = sub.add_parser("run", help="full cross-validated benchmark")
    _settings(p, _model_flags, _engine_flags, _experiment_flags)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--formats", type=_names, default="json,csv,table")

    p = sub.add_parser("sweep-alpha", help="run the benchmark across alpha values")
    _settings(p, _model_flags, _engine_flags, _experiment_flags)
    p.set_defaults(methods=(bench.METHOD_BASELINE, bench.METHOD_FAIRTTTS))
    p.add_argument("--alphas", required=True, help="comma-separated, strictly increasing")
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("charts", help="render SVG charts from report/sweep JSON")
    p.add_argument("--report", action="append", default=[],
                   help="report.json or sweep.json (repeatable)")
    p.add_argument("--out-dir", default=None)
    return parser


def _experiment_config(args, **given) -> bench.ExperimentConfig:
    """The ExperimentConfig of the settings flags in args, and of given."""
    names = {f.name for f in fields(bench.ExperimentConfig)}
    return bench.ExperimentConfig(
        **{name: value for name, value in vars(args).items() if name in names}, **given)


def _cmd_train(args) -> int:
    config = _experiment_config(args)
    dataset, _, _ = bench.load(config.dataset_config)
    path = args.out or os.path.join(_default_out(), "model.json")
    model_io.save_model(bench.fit_forest(dataset, config, config.seed), path)
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
    model = model_io.load_model(args.model)
    forest = model if isinstance(model, Forest) else Forest(trees=[model], n_trees=1)
    config = _experiment_config(args, n_trees=forest.n_trees)
    dataset, protected, _ = bench.load(config.dataset_config)
    preds, probs = bench.predict_method(args.method, forest, dataset.rows,
                                        FairnessSpec(protected_feature=protected),
                                        config, config.seed)
    lines = ["row,label,group,prediction,prob_favorable"]
    group = dataset.rows[:, protected]
    for i in range(dataset.n_rows):
        prob = "" if probs is None else repr(float(probs[i]))
        lines.append(
            f"{i},{dataset.labels[i]},{int(group[i])},{int(preds[i])},{prob}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    dataset, protected, name = bench.load(args.data)
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
    report = full_report(dataset.labels, preds, dataset.rows[:, protected].astype(np.int64))
    doc = {"schema": "fairtree-metrics/1", "dataset": name}
    doc.update(report.to_dict())
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _out_dir(args) -> str:
    """The command's output directory, created before any work is done."""
    out_dir = args.out_dir or _default_out()
    make_dir(out_dir)
    return out_dir


def _print_paths(paths) -> None:
    for name in sorted(paths):
        print(f"wrote {paths[name]}")


def _cmd_run(args) -> int:
    config = _experiment_config(args)
    out_dir = _out_dir(args)
    result = bench.run_experiment(config)
    paths = bench.emit_report(result, out_dir, formats=args.formats)
    paths.update(charts.emit_charts(bench.result_to_dict(result), out_dir))
    _print_paths(paths)
    return 0


def _cmd_sweep(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError:
        raise ConfigError(f"--alphas must be comma-separated numbers: {args.alphas!r}") from None
    config = _experiment_config(args)
    out_dir = _out_dir(args)
    sweep = bench.sweep_alpha(config, alphas)
    paths = bench.emit_sweep(sweep, out_dir)
    paths.update(charts.emit_charts(bench.sweep_to_dict(sweep), out_dir))
    _print_paths(paths)
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
        _print_paths(paths)
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
