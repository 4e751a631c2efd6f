"""Experiment harness: train per fold, apply each method, evaluate, aggregate.

Per fold the forest is trained on the train split only; the threshold
policy is fitted on train-split vote-fraction scores; fairness-adjusted
traversal uses counter-based streams keyed by (master seed, fold) with the
dataset row index as the stream id, so method comparisons share training
randomness but not flip randomness.

All report artifacts are deterministic given (config, seed); wall-clock
timings are kept out of them and written to a separate timing file.
"""

from __future__ import annotations

import json
import math
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
from .traversal import (
    VOTE_MAJORITY,
    FairnessSpec,
    TraversalConfig,
    exact_path_distribution,
    predict_fair_batch,
)
from .tree import (
    Dataset,
    Forest,
    check_growth,
    forest_votes_batch,
    predict_forest_batch,
    train_forest,
)

REPORT_SCHEMA = "fairtree-report/1"
SWEEP_SCHEMA = "fairtree-sweep/1"

METHOD_BASELINE = "baseline"
METHOD_THRESHOLD = "threshold_optimizer"
METHOD_FAIRTTTS = "fairttts"
METHODS = (METHOD_BASELINE, METHOD_THRESHOLD, METHOD_FAIRTTTS)

METRICS = ("accuracy", "eod", "di", "di_distance")

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
        """Check every setting, so that a bad one fails before any data is read."""
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if not self.methods:
            raise ConfigError("at least one method must be selected")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {unknown}; choose from {METHODS}")
        if isinstance(self.features_per_split, str) and self.features_per_split != "sqrt":
            raise ConfigError("features_per_split must be an integer, 'sqrt', or null")
        try:
            check_growth(self.n_trees, self.max_depth, self.min_samples_leaf,
                         None if self.features_per_split == "sqrt" else self.features_per_split)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.exact and self.n_trees != 1:
            raise ConfigError("exact evaluation requires n_trees == 1")
        self.traversal_config(self.seed)

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


def fit_fold(
    dataset: Dataset,
    plan: FoldPlan,
    fold: int,
    config: ExperimentConfig,
    protected_index: int,
):
    """Train the fold's forest (and threshold policy if requested) using
    only the fold's train split."""
    tr = plan.train_indices(fold)
    train_data = Dataset(
        feature_names=dataset.feature_names,
        feature_kinds=dataset.feature_kinds,
        rows=dataset.rows[tr],
        labels=dataset.labels[tr],
    )
    forest = fit_forest(train_data, config, stream_key(config.seed, _TAG_TRAIN, fold))
    policy = None
    if METHOD_THRESHOLD in config.methods:
        scores_tr = forest_votes_batch(forest, train_data.rows) / forest.n_trees
        group_tr = train_data.rows[:, protected_index].astype(np.int64)
        policy = fit_threshold_policy(scores_tr, train_data.labels, group_tr)
    return forest, policy


def predict_method(method, forest: Forest, X, spec: FairnessSpec, config: ExperimentConfig,
                   seed: int, stream_ids=None, policy: Optional[ThresholdPolicy] = None,
                   group=None):
    """(predictions, favorable-class probabilities or None) of the rows X by
    method. fairttts keys its streams on seed and stream_ids (default: the
    row index) and, under config.exact, enumerates each row's paths through
    the forest's one tree; threshold_optimizer applies policy to X's
    vote-fraction scores by group."""
    if method == METHOD_BASELINE:
        return predict_forest_batch(forest, X), None
    if method == METHOD_THRESHOLD:
        scores = forest_votes_batch(forest, X) / forest.n_trees
        return apply_threshold_policy(policy, scores, group), None
    engine_cfg = config.traversal_config(seed)
    if config.exact:
        dists = [exact_path_distribution(forest.trees[0], x, spec, engine_cfg) for x in X]
        preds = np.array([d.predicted_class for d in dists], dtype=np.int64)
        return preds, np.array([d.probs[1] for d in dists])
    preds, dist = predict_fair_batch(forest, X, spec, engine_cfg, stream_ids=stream_ids,
                                     aggregation=config.aggregation)
    return preds, dist[:, 1]


def _plan_folds(dataset: Dataset, config: ExperimentConfig) -> FoldPlan:
    return make_folds(
        dataset.n_rows,
        config.folds,
        stream_key(config.seed, _TAG_FOLDS),
        labels=dataset.labels if config.stratified else None,
    )


def _evaluate_folds(
    dataset: Dataset,
    protected_index: int,
    dataset_name: str,
    config: ExperimentConfig,
    plan: FoldPlan,
    fitted,
) -> ExperimentResult:
    """Score every (method, fold) pair against fold test splits using the
    already-fitted per-fold models."""
    spec = FairnessSpec(protected_feature=protected_index)
    group_all = dataset.rows[:, protected_index].astype(np.int64)
    fold_reports = {m: [] for m in config.methods}
    timings = {m: [] for m in config.methods}
    for fold, (forest, policy) in enumerate(fitted):
        try:
            te = plan.test_indices(fold)
            X_te = dataset.rows[te]
            y_te = dataset.labels[te]
            g_te = group_all[te]
            engine_seed = stream_key(config.seed, _TAG_ENGINE, fold)
            for method in config.methods:
                start = time.perf_counter()
                preds, _ = predict_method(method, forest, X_te, spec, config, engine_seed,
                                          te, policy, g_te)
                elapsed = time.perf_counter() - start
                fold_reports[method].append(full_report(y_te, preds, g_te))
                timings[method].append(elapsed)
        except (ValueError, DataError) as exc:
            raise DataError(f"fold {fold}: {exc}") from exc
    return ExperimentResult(
        dataset=dataset_name,
        seed=config.seed,
        folds=config.folds,
        methods=tuple(config.methods),
        config=config.to_dict(),
        fold_reports=fold_reports,
        aggregates={m: _aggregate(fold_reports[m]) for m in config.methods},
        environment=_environment(config.seed),
        timings=timings,
    )


def load(path):
    """The dataset of the dataset config file at path, its protected
    feature index and its name."""
    if path is None:
        raise ConfigError("dataset_config path is required")
    ds_config = load_dataset_config(path)
    dataset = load_dataset(ds_config)
    return dataset, dataset.feature_index(ds_config.protected_column), ds_config.name


def _fit_folds(dataset: Dataset, protected_index: int, config: ExperimentConfig):
    """The fold plan and each fold's fitted (forest, policy)."""
    plan = _plan_folds(dataset, config)
    fitted = []
    for fold in range(config.folds):
        try:
            fitted.append(fit_fold(dataset, plan, fold, config, protected_index))
        except (ValueError, DataError) as exc:
            raise DataError(f"fold {fold}: {exc}") from exc
    return plan, fitted


def run_experiment_on(
    dataset: Dataset,
    protected_index: int,
    dataset_name: str,
    config: ExperimentConfig,
) -> ExperimentResult:
    """Run the configured experiment on an already-loaded dataset."""
    plan, fitted = _fit_folds(dataset, protected_index, config)
    return _evaluate_folds(dataset, protected_index, dataset_name, config, plan, fitted)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Load the configured dataset and run the full experiment."""
    return run_experiment_on(*load(config.dataset_config), config)


def sweep_alpha(config: ExperimentConfig, alphas) -> SweepResult:
    """The experiment per alpha, training each fold only once (the fitted
    forests and policies do not depend on alpha and are shared)."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ConfigError("alphas must be non-empty")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ConfigError("alphas must be strictly increasing (no duplicates)")
    configs = [replace(config, alpha=alpha) for alpha in alphas]  # checked before the load
    dataset, protected_index, name = load(config.dataset_config)
    plan, fitted = _fit_folds(dataset, protected_index, config)
    results = [
        _evaluate_folds(dataset, protected_index, name, c, plan, fitted) for c in configs
    ]
    return SweepResult(alphas=tuple(alphas), results=tuple(results))


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


def _fmt(value, digits=4) -> str:
    return "undefined" if value is None else f"{value:.{digits}f}"


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


def emit_report(result: ExperimentResult, out_dir, formats=("json", "csv", "table")):
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
            _dump_json({"schema": "fairtree-timing/1", "seconds": result.timings}),
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


def emit_sweep(sweep: SweepResult, out_dir, formats=("json", "csv")):
    paths = {}
    doc = sweep_to_dict(sweep)
    if "json" in formats:
        paths["json"] = os.path.join(out_dir, "sweep.json")
        write_text(paths["json"], _dump_json(doc))
    if "csv" in formats:
        lines = ["alpha,accuracy_mean,accuracy_std,eod_mean,eod_std,di_mean,di_std"]
        for row in doc["fairttts"]:
            lines.append(
                ",".join(
                    [repr(row["alpha"])]
                    + [
                        "" if row[m][k] is None else repr(row[m][k])
                        for m in ("accuracy", "eod", "di")
                        for k in ("mean", "std")
                    ]
                )
            )
        paths["csv"] = os.path.join(out_dir, "sweep.csv")
        write_text(paths["csv"], "\n".join(lines) + "\n")
    return paths
