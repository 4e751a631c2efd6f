"""Experiment harness: train per fold, apply each method, evaluate, aggregate.

Per fold the forest is trained on the train split only; the threshold
policy is fitted on train-split vote-fraction scores; fairness-adjusted
traversal uses counter-based streams keyed by (master seed, fold) with the
dataset row index as the stream id, so method comparisons share training
randomness but not flip randomness.

run and sweep-alpha share one fold loop: each fold is fitted once, scored by
every method at every alpha (the alpha-independent methods once, from one walk
of the test rows' votes), and its forest released before the next fold is
fitted, so one fold's forest is held at a time.

All report artifacts are deterministic given (config, seed); wall-clock
timings are kept out of them and written to a separate timing file.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import platform
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import __version__
from .data import FoldPlan, load_dataset, load_dataset_config, make_folds, read_json, write_text
from .errors import ConfigError, DataError
from .metrics import MetricsReport, full_report
from .rng import stream_key
from .threshold import ThresholdPolicy, apply_threshold_policy, fit_threshold_policy
from .traversal import (VOTE_MAJORITY, FairnessSpec, TraversalConfig, _check_aggregation,
                        _integer, exact_forest_batch, predict_fair_batch)
from .traversal import exact_path_distribution  # noqa: F401
from .tree import (
    Dataset,
    Forest,
    check_growth,
    forest_votes_batch,
    predict_forest_batch,
    train_forest,
)

# exact_path_distribution is not called here: benchmark/tracing.py patches
# it by name (--trace 1), so it stays an attribute of this module.

REPORT_SCHEMA = "fairtree-report/1"
SWEEP_SCHEMA = "fairtree-sweep/1"

METHOD_BASELINE = "baseline"
METHOD_THRESHOLD = "threshold_optimizer"
METHOD_FAIRTTTS = "fairttts"
METHODS = (METHOD_BASELINE, METHOD_THRESHOLD, METHOD_FAIRTTTS)

METRICS = ("accuracy", "eod", "di", "di_distance")
REPORT_FORMATS = ("json", "csv", "table")

# domain-separation tags for derived seeds
_TAG_FOLDS = 101
_TAG_TRAIN = 102
_TAG_ENGINE = 103


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_config: Optional[str] = None
    n_trees: int = 100
    max_depth: Optional[int] = None
    min_samples_leaf: int = 1
    features_per_split: "int | str | None" = "sqrt"
    bootstrap: bool = True
    n_simulations: int = TraversalConfig.n_simulations
    p_max: float = TraversalConfig.p_max
    alpha: float = TraversalConfig.alpha
    folds: int = 5
    methods: tuple = METHODS
    seed: int = 0
    exact: bool = False
    aggregation: str = VOTE_MAJORITY
    stratified: bool = False

    def __post_init__(self):
        """Check every setting, so that a bad one fails before any data is
        read, and store each number as an int or a float and each flag as a
        bool: report.json writes them as they are."""
        flags = {name: getattr(self, name) for name in ("bootstrap", "exact", "stratified")}
        for name, value in flags.items():
            if not isinstance(value, (bool, np.bool_)):
                raise ConfigError(f"{name} must be true or false, not {value!r}")
        folds = _integer(self.folds, 2, math.inf, "folds must be an integer >= 2")
        _check_aggregation(self.aggregation)
        if not self.methods:
            raise ConfigError("at least one method must be selected")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {unknown}; choose from {METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods named more than once: {repeated}")
        if isinstance(self.features_per_split, str) and self.features_per_split != "sqrt":
            raise ConfigError("features_per_split must be an integer, 'sqrt', or null")
        try:
            check_growth(self.n_trees, self.max_depth, self.min_samples_leaf,
                         None if self.features_per_split == "sqrt" else self.features_per_split)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if isinstance(self.seed, numbers.Integral) and self.seed < 0:
            # training seeds numpy, which takes no negative seed
            raise ConfigError("seed must be a non-negative integer")
        engine = self.traversal_config(self.seed)
        growth = {name: int(value) for name in ("n_trees", "max_depth", "min_samples_leaf",
                                                "features_per_split")
                  if isinstance(value := getattr(self, name), numbers.Integral)}
        for name, value in {**growth, **{name: bool(value) for name, value in flags.items()},
                            "folds": folds, "n_simulations": engine.n_simulations,
                            "p_max": float(self.p_max), "alpha": float(self.alpha),
                            "seed": engine.seed}.items():
            object.__setattr__(self, name, value)

    def traversal_config(self, seed: int) -> TraversalConfig:
        return TraversalConfig(
            n_simulations=self.n_simulations,
            p_max=self.p_max,
            alpha=self.alpha,
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "methods": list(self.methods)}


@dataclass(frozen=True)
class ExperimentResult:
    dataset: str
    seed: int
    folds: int
    methods: tuple
    config: dict
    fold_reports: dict
    aggregates: dict
    environment: dict
    timings: dict = field(compare=False, default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    alphas: tuple
    results: tuple  # one ExperimentResult per alpha, same order


def _environment(seed: int) -> dict:
    return {
        "fairtree": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def _aggregate(reports) -> dict:
    out = {}
    for metric in METRICS:
        values = [getattr(r, metric) for r in reports]
        defined = [v for v in values if v is not None]
        if defined:
            mean = float(np.mean(defined))
            std = float(np.std(defined, ddof=1)) if len(defined) > 1 else 0.0
        else:
            mean = None
            std = None
        out[metric] = {
            "mean": mean,
            "std": std,
            "folds_used": len(defined),
            "folds_excluded": len(values) - len(defined),
        }
    return out


def fit_forest(dataset: Dataset, config: ExperimentConfig, rng_seed: int) -> Forest:
    """The configured forest, trained on every row of dataset."""
    features = config.features_per_split
    if features == "sqrt":
        features = max(1, int(math.sqrt(dataset.n_features)))
    return train_forest(
        dataset,
        n_trees=config.n_trees,
        max_depth=config.max_depth,
        min_samples_leaf=config.min_samples_leaf,
        features_per_split=features,
        rng_seed=rng_seed,
        bootstrap=config.bootstrap,
    )


def fit_fold(dataset: Dataset, plan: FoldPlan, fold: int, config: ExperimentConfig) -> Forest:
    """The fold's forest, trained on the fold's train split only."""
    train_data = dataset.subset(plan.train_indices(fold))
    return fit_forest(train_data, config, stream_key(config.seed, _TAG_TRAIN, fold))


def fit_policy(forest: Forest, dataset: Dataset, plan: FoldPlan, fold: int,
               config: ExperimentConfig, protected_index: int) -> Optional[ThresholdPolicy]:
    """The threshold policy of the fold's forest, fitted on the vote-fraction
    scores of the fold's train split, or None without threshold_optimizer."""
    if METHOD_THRESHOLD not in config.methods:
        return None
    train = plan.train_indices(fold)
    scores = forest_votes_batch(forest, dataset.rows[train]) / forest.n_trees
    return fit_threshold_policy(scores, dataset.labels[train],
                                dataset.rows[train, protected_index].astype(np.int64))


def predict_method(method, forest: Forest, X, spec: FairnessSpec, config: ExperimentConfig,
                   seed: int, stream_ids=None, policy: Optional[ThresholdPolicy] = None,
                   group=None, votes=None):
    """(predictions, favorable-class probabilities or None) of the rows X by
    method. fairttts keys its streams on seed and stream_ids (default: the
    row index) and, under config.exact, takes the exact distribution of
    the forest's paths instead; threshold_optimizer applies policy to X's
    vote-fraction scores by group; it and baseline take X's vote counts from votes if given."""
    if method == METHOD_BASELINE:
        return predict_forest_batch(forest, X, votes), None
    if method == METHOD_THRESHOLD:
        votes = forest_votes_batch(forest, X) if votes is None else votes
        return apply_threshold_policy(policy, votes / forest.n_trees, group), None
    engine_cfg = config.traversal_config(seed)
    if config.exact:
        preds, dist = exact_forest_batch(forest, X, spec, engine_cfg, config.aggregation)
    else:
        preds, dist = predict_fair_batch(forest, X, spec, engine_cfg, stream_ids=stream_ids,
                                         aggregation=config.aggregation)
    return preds, dist[:, 1]


def load(path):
    """The dataset of the dataset config file at path, its protected
    feature index and its name."""
    if path is None:
        raise ConfigError("dataset_config path is required")
    ds_config = load_dataset_config(path)
    dataset = load_dataset(ds_config)
    return dataset, dataset.feature_index(ds_config.protected_column), ds_config.name


class _Clock:
    """Disjoint per-fold stage seconds of a run: each lap files the time
    since the one before under its fold, its stage and its owner, the index
    of the sweep config it was spent on (None: shared by every config)."""

    def __init__(self):
        self.laps, self.last = [], time.perf_counter()

    def lap(self, fold: int, stage: str, owner: Optional[int] = None) -> None:
        now = time.perf_counter()
        self.laps.append((fold, stage, owner, now - self.last))
        self.last = now

    def seconds(self, folds: int, owner: int) -> dict:
        """{stage: [seconds of each fold]} of the laps owner shares or owns."""
        out = {}
        for fold, stage, who, seconds in self.laps:
            if who in (None, owner):
                out.setdefault(stage, [0.0] * folds)[fold] += seconds
        return out


def _run_folds(dataset: Dataset, protected_index: int, dataset_name: str, configs) -> list:
    """One ExperimentResult per config of configs, which differ only in
    alpha. Each fold is fitted once and scored under every config (the
    alpha-independent methods once, shared by all configs), and its forest
    released before the next fold is fitted. A result's timings are the
    per-fold seconds of the stages it shares or owns (fold 0's fold_plan
    includes make_folds)."""
    config, clock = configs[0], _Clock()
    try:
        plan = make_folds(dataset.n_rows, config.folds, stream_key(config.seed, _TAG_FOLDS),
                          labels=dataset.labels if config.stratified else None)
    except ValueError as exc:
        raise DataError(f"folds: {exc}") from exc
    spec = FairnessSpec(protected_feature=protected_index)
    reports = [{m: [] for m in config.methods} for _ in configs]
    for fold in range(config.folds):
        try:
            te = plan.test_indices(fold)
            X_te, y_te = dataset.rows[te], dataset.labels[te]
            g_te = X_te[:, protected_index].astype(np.int64)
            clock.lap(fold, "fold_plan")
            forest = fit_fold(dataset, plan, fold, config)
            clock.lap(fold, "train")
            policy = fit_policy(forest, dataset, plan, fold, config, protected_index)
            clock.lap(fold, "policy_fit")
            # walked once for the methods that read the test rows' votes
            votes = (forest_votes_batch(forest, X_te)
                     if set(config.methods) - {METHOD_FAIRTTTS} else None)
            clock.lap(fold, "votes")
            engine_seed = stream_key(config.seed, _TAG_ENGINE, fold)
            for i, c in enumerate(configs):
                for method in config.methods:
                    if i and method != METHOD_FAIRTTTS:  # alpha-independent
                        reports[i][method].append(reports[0][method][-1])
                        continue
                    owner = i if method == METHOD_FAIRTTTS else None
                    preds, _ = predict_method(method, forest, X_te, spec, c, engine_seed, te,
                                              policy, g_te, votes)
                    clock.lap(fold, f"method.{method}", owner)
                    reports[i][method].append(full_report(y_te, preds, g_te))
                    clock.lap(fold, "metrics", owner)
            del forest, policy, votes  # not held while the next fold's forest is fitted
        except (ValueError, DataError) as exc:
            raise DataError(f"fold {fold}: {exc}") from exc
    return [ExperimentResult(
        dataset=dataset_name, seed=c.seed, folds=c.folds, methods=tuple(c.methods),
        config=c.to_dict(), fold_reports=out, aggregates={m: _aggregate(out[m]) for m in c.methods},
        environment=_environment(c.seed), timings=clock.seconds(c.folds, i),
    ) for i, (c, out) in enumerate(zip(configs, reports))]


def run_experiment_on(dataset: Dataset, protected_index: int, dataset_name: str,
                      config: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment on an already-loaded dataset."""
    return _run_folds(dataset, protected_index, dataset_name, [config])[0]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Load the configured dataset and run the full experiment."""
    return run_experiment_on(*load(config.dataset_config), config)


def sweep_configs(config: ExperimentConfig, alphas) -> list:
    """config at each alpha of a sweep, checked without reading any data."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ConfigError("alphas must be non-empty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ConfigError("alphas must be strictly increasing (no duplicates)")
    if METHOD_FAIRTTTS not in config.methods:
        raise ConfigError(f"an alpha sweep needs the {METHOD_FAIRTTTS} method")
    return [replace(config, alpha=alpha) for alpha in alphas]


def sweep_alpha(config: ExperimentConfig, alphas) -> SweepResult:
    """The experiment per alpha. Each fold is fitted once, as neither the
    forest nor the policy depends on alpha."""
    configs = sweep_configs(config, alphas)
    results = _run_folds(*load(config.dataset_config), configs)
    return SweepResult(alphas=tuple(c.alpha for c in configs), results=tuple(results))


# ---------------------------------------------------------------------------
# report emission

def result_to_dict(result: ExperimentResult) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "dataset": result.dataset,
        "seed": result.seed,
        "folds": result.folds,
        "methods": list(result.methods),
        "config": result.config,
        "fold_reports": {
            m: [r.to_dict() for r in reports]
            for m, reports in result.fold_reports.items()
        },
        "aggregates": result.aggregates,
        "environment": result.environment,
    }


def result_from_dict(doc: dict) -> ExperimentResult:
    if doc.get("schema") != REPORT_SCHEMA:
        raise ConfigError(f"expected schema {REPORT_SCHEMA!r}")
    return ExperimentResult(
        dataset=doc["dataset"],
        seed=doc["seed"],
        folds=doc["folds"],
        methods=tuple(doc["methods"]),
        config=doc["config"],
        fold_reports={
            m: [MetricsReport.from_dict(r) for r in reports]
            for m, reports in doc["fold_reports"].items()
        },
        aggregates=doc["aggregates"],
        environment=doc["environment"],
    )


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def render_table(result: ExperimentResult) -> str:
    """Fixed-width aggregate table (no timings, no environment noise)."""
    lines = [
        f"dataset: {result.dataset}   folds: {result.folds}   seed: {result.seed}",
        "",
        f"{'method':<20} {'metric':<12} {'mean':>10} {'std':>10} {'folds':>6} {'excl':>5}",
        "-" * 67,
    ]
    for method in result.methods:
        for metric in METRICS:
            cell = result.aggregates[method][metric]
            lines.append(
                f"{method:<20} {metric:<12} {_fmt(cell['mean']):>10} "
                f"{_fmt(cell['std']):>10} {cell['folds_used']:>6} {cell['folds_excluded']:>5}"
            )
    return "\n".join(lines) + "\n"


def render_csv(result: ExperimentResult) -> str:
    lines = ["method,metric,mean,std,folds_used,folds_excluded"]
    for method in result.methods:
        for metric in METRICS:
            cell = result.aggregates[method][metric]
            mean = "" if cell["mean"] is None else repr(cell["mean"])
            std = "" if cell["std"] is None else repr(cell["std"])
            lines.append(
                f"{method},{metric},{mean},{std},"
                f"{cell['folds_used']},{cell['folds_excluded']}"
            )
    return "\n".join(lines) + "\n"


def emit_report(result: ExperimentResult, out_dir, formats=REPORT_FORMATS):
    """Write report artifacts; returns {format: path}. Timings go to a
    separate timing.json so report bytes are reproducible run to run."""
    paths = {}
    if "json" in formats:
        paths["json"] = os.path.join(out_dir, "report.json")
        write_text(paths["json"], _dump_json(result_to_dict(result)))
    if "csv" in formats:
        paths["csv"] = os.path.join(out_dir, "report.csv")
        write_text(paths["csv"], render_csv(result))
    if "table" in formats:
        paths["table"] = os.path.join(out_dir, "report.txt")
        write_text(paths["table"], render_table(result))
    if result.timings:
        paths["timing"] = os.path.join(out_dir, "timing.json")
        write_text(
            paths["timing"],
            _dump_json({"schema": "fairtree-timing/2", "seconds": result.timings}),
        )
    return paths


def parse_report(path) -> ExperimentResult:
    return result_from_dict(read_json(path, DataError, "report"))


def sweep_to_dict(sweep: SweepResult) -> dict:
    rows = []
    for alpha, result in zip(sweep.alphas, sweep.results):
        agg = result.aggregates[METHOD_FAIRTTTS]
        rows.append({"alpha": alpha, **{m: agg[m] for m in METRICS}})
    doc = {
        "schema": SWEEP_SCHEMA,
        "alphas": list(sweep.alphas),
        "fairttts": rows,
        "reference": {
            m: sweep.results[0].aggregates[m]
            for m in sweep.results[0].methods
            if m != METHOD_FAIRTTTS
        },
        "dataset": sweep.results[0].dataset,
        "environment": sweep.results[0].environment,
    }
    return doc


def emit_sweep(sweep: SweepResult, out_dir):
    """Write sweep.json and sweep.csv; returns {format: path}."""
    doc = sweep_to_dict(sweep)
    lines = ["alpha,accuracy_mean,accuracy_std,eod_mean,eod_std,di_mean,di_std"]
    for row in doc["fairttts"]:
        cells = ["" if row[m][k] is None else repr(row[m][k])
                 for m in ("accuracy", "eod", "di") for k in ("mean", "std")]
        lines.append(",".join([repr(row["alpha"])] + cells))
    paths = {"json": os.path.join(out_dir, "sweep.json"),
             "csv": os.path.join(out_dir, "sweep.csv")}
    write_text(paths["json"], _dump_json(doc))
    write_text(paths["csv"], "\n".join(lines) + "\n")
    return paths
