"""fairtree: decision-tree ensembles with fairness-adjusted probabilistic
inference, fairness metrics, a threshold baseline, and a benchmark harness."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    FairtreeError,
    ModelFormatError,
)
from .tree import (
    Dataset,
    Forest,
    predict_deterministic,
    train_forest,
    train_tree,
)
from .model_io import deserialize, load_model, save_model, serialize
from .traversal import (
    FairnessSpec,
    PredictionDistribution,
    TraversalConfig,
    exact_forest_batch,
    exact_path_distribution,
    predict_fair,
    predict_fair_batch,
)
from .metrics import (
    GroupConfusion,
    MetricsReport,
    accuracy,
    disparate_impact,
    equalized_odds_difference,
    full_report,
)
from .threshold import ThresholdPolicy, apply_threshold_policy, fit_threshold_policy
from .data import DatasetConfig, FoldPlan, load_dataset, load_dataset_config, make_folds
from .bench import (
    ExperimentConfig,
    ExperimentResult,
    SweepResult,
    emit_report,
    emit_sweep,
    parse_report,
    run_experiment,
    run_experiment_on,
    sweep_alpha,
)
from .charts import chart_accuracy_vs_eod, chart_alpha_sweep, emit_charts
