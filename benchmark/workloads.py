"""The two benchmark workloads.

Every workload is a closed loop in one process: one call at a time, no
threads. A run sets up ``setup_repeats`` times (the last set-up is kept),
then repeats rounds until ``--seconds`` have elapsed (at least
``MIN_ROUNDS``). A round is the timed pass followed by the workload's
probes: short measurements, outside ``wall_s``, of the end-to-end metrics
that the pass does not give, so that every metric has a value on every
workload. The pass and each probe return a list of samples per metric.
The correctness checks run after the last round and are not timed; the
per-layer spans cover set-up and the traced pass only, so a layer the pass
bypasses reads 0 there.

census_fair   batch fairness-adjusted inference on the census fold:
              Monte Carlo (S = 100) and exact enumeration on a depth-12
              tree. Training happens in set-up.
synthetic_cli the CLI and the one-row API on the bundled 400-row fixture,
              where per-call fixed cost dominates.

Each timed end-to-end metric is the median of its samples in the run, and
every sample is calibrated by the machine's slowdown measured just before
and just after it (reference.py); rates are computed from calibrated
times, and wall_s is the sum of the calibrated times of the pass's stages.
The one-row samples are blocks of 50 consecutive calls, each giving its
95th percentile to predict1_p95_ms. Rounds are kept short so that every
metric is sampled all through the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
import xml.etree.ElementTree as ET

import numpy as np

from fairtree import cli, model_io
from fairtree.data import load_dataset, load_dataset_config, make_folds
from fairtree.metrics import full_report
from fairtree.rng import stream_key, stream_key_array, uniforms_at_array
from fairtree.threshold import apply_threshold_policy, fit_threshold_policy
from fairtree.traversal import (
    FairnessSpec,
    TraversalConfig,
    exact_path_distribution,
    predict_fair,
    predict_fair_batch,
)
from fairtree.tree import (
    Dataset,
    Forest,
    flatten_tree,
    forest_votes_batch,
    predict_deterministic,
    predict_forest_batch,
    train_forest,
    train_tree,
)

import census
from tracing import Tracer, count_mc

MIN_ROUNDS = 3
# census_fair uses a 10-tree forest, not the 25 of the census fold, and
# scores the first 300 fold-0 test rows, so that a round stays near 2.5 s
# and a 30 s run holds about a dozen. Rows/s per tree depends on neither.
CENSUS_TREES = 10
MC_ROWS = 300
CLI_TREES = 25
N_SIMULATIONS = 100
P_MAX = 0.1
ALPHA = 9.0
FOLDS = 5
PREDICT1_CALLS = 200  # per synthetic_cli pass
CENSUS_PREDICT1_ROWS = 300  # fold-0 test rows census_fair's one-row probe cycles over
PREDICT1_BLOCK = 50  # one-row calls per sample; one block per census_fair round
CLI_SLICE_ROWS = 4000  # census rows the CLI probe runs on
TRAIN_PROBE_TREES = 10  # trees per synthetic_cli fit sample: one tree's time depends on its seed
FIXTURE = os.path.join("fixtures", "synthetic.json")


def _seed(seed: int, tag: int) -> int:
    """A derived seed for one use of the workload seed."""
    return stream_key(seed, tag) % 2**31


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _seconds(meter, fn) -> float:
    """The calibrated time of one call of fn."""
    with meter.sample() as t:
        fn()
    return t.seconds


def _quality(y, preds, group) -> dict:
    report = full_report(y, preds, group)
    return {"accuracy": report.accuracy, "eod": report.eod}


def _split(dataset: Dataset, idx) -> Dataset:
    return Dataset(dataset.feature_names, dataset.feature_kinds,
                   dataset.rows[idx], dataset.labels[idx])


def _sqrt_forest(train: Dataset, n_trees: int, seed: int) -> Forest:
    """A forest with the CLI's default flags: unrestricted depth,
    sqrt(features) per split, bootstrap."""
    return train_forest(train, n_trees=n_trees, max_depth=None,
                        features_per_split=max(1, int(math.sqrt(train.n_features))),
                        rng_seed=seed)


def _train_probe(meter, train: Dataset, seeds, trees: int) -> dict:
    """train_s_per_tree samples: a ``trees``-tree forest fitted with each
    of ``seeds``, timed and divided by ``trees``."""
    return {"train_s_per_tree": [_seconds(meter, lambda: _sqrt_forest(train, trees, seed)) / trees
                                 for seed in seeds]}


class Checks:
    """Correctness checks; each counts toward fail_ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def expect(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def run(self, name: str, fn) -> None:
        """A check whose exception counts as its failure."""
        try:
            ok = fn()
        except Exception as exc:  # a crashing check is a failed check
            self.attempted += 1
            self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        self.expect(name, ok)


def _run_cli(argv) -> int:
    """cli.main in process with its stdout captured; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _predict1(meter, forest, X, stream_ids, spec, config, tracer=None) -> dict:
    """Single-row predict_fair calls in row order; returns, for each block of
    PREDICT1_BLOCK calls, the 95th percentile of their latency in
    milliseconds and the block's time in seconds, both calibrated by the
    slowdown around the block."""
    tracer = tracer or Tracer(False)
    blocks = []
    for i in range(0, len(X), PREDICT1_BLOCK):
        latencies = []
        with meter.sample() as t:
            for row, sid in zip(X[i:i + PREDICT1_BLOCK], stream_ids[i:i + PREDICT1_BLOCK]):
                start = time.perf_counter()
                with tracer.span("traversal.predict1"):
                    predict_fair(forest, row, spec, config, stream_id=int(sid))
                latencies.append((time.perf_counter() - start) * 1e3)
                tracer.count("traversal.predict1_calls")
        blocks.append([ms / t.slowdown for ms in latencies])
    return {"predict1_p95_ms": [statistics.quantiles(b, n=20, method="inclusive")[18]
                                for b in blocks],
            "block_s": [sum(b) / 1e3 for b in blocks]}


def _useful_step_share(flats, X) -> float:
    """Mean deterministic path length over tree max_depth: the share of a
    batch kernel's per-step lane work that falls on unfinished lanes."""
    rows = np.arange(X.shape[0])
    paths = depths = 0.0
    for flat in flats:
        node = np.zeros(X.shape[0], dtype=np.int64)
        steps = np.zeros(X.shape[0])
        for _ in range(flat.max_depth):
            feat = flat.feature[node]
            active = feat >= 0
            if not active.any():
                break
            steps += active
            an = node[active]
            go_left = X[rows[active], feat[active]] <= flat.threshold[an]
            node[active] = np.where(go_left, flat.left[an], flat.right[an])
        paths += steps.mean()
        depths += flat.max_depth
    return paths / depths


def _layer_measurements(forest, X, stream_ids, config) -> dict:
    """Per-layer figures timed on their own, outside the traced pass."""
    start = time.perf_counter()
    flats = [flatten_tree(t) for t in forest.trees]
    out = {
        "tree.flatten_s": time.perf_counter() - start,
        "tree.nodes": sum(len(f.feature) for f in flats),
        "tree.depth_max": max(f.max_depth for f in flats),
        "traversal.useful_step_share": _useful_step_share(flats, X),
    }
    S = config.n_simulations
    sid = np.repeat(np.asarray(stream_ids, dtype=np.uint64), S)
    sim = np.tile(np.arange(S, dtype=np.uint64), len(stream_ids))
    start = time.perf_counter()
    keys = [stream_key_array(config.seed, sid, sim, t) for t in range(forest.n_trees)]
    out["rng.keys_s"] = time.perf_counter() - start
    draws = 10
    start = time.perf_counter()
    for step in range(draws):
        uniforms_at_array(keys[0], step)
    out["rng.draw_ns"] = (time.perf_counter() - start) / (draws * sid.size) * 1e9
    return out


@contextlib.contextmanager
def _stage(tracer, meter, times, name):
    """Time one call into a module, adding its calibrated time to
    times[name]; a span too when tracing."""
    with meter.sample() as t, tracer.span(name):
        yield
    times[name] = times.get(name, 0.0) + t.seconds


class Workload:
    """Set-up, timed pass, probes and checks of one workload.

    Subclasses define setup(tracer), run_pass(tracer) -> samples of
    end-to-end metrics (wall_s among them), probes() -> callables that each
    return more samples, check(checks), and layer_metrics() -> per-layer
    figures measured outside spans."""

    setup_repeats = 1

    def __init__(self, seed: int, work_dir: str, meter):
        self.seed = seed
        self.work = work_dir
        self.meter = meter
        self.details = {"quality": {}, "digests": {}}


class CensusFair(Workload):
    """Set-up writes and loads the census CSV and trains, on fold 0's train
    split, the forest and a depth-12 tree. The pass runs predict_fair_batch
    on the first MC_ROWS fold-0 test rows (dataset row numbers as stream
    ids) and exact_path_distribution on the depth-12 tree for each of them.

    Probes: a one-tree census fit with a new tree seed each round
    (train_s_per_tree), deterministic votes of the fold-0 test rows
    (baseline_rows_per_s), the CLI `run` command on the
    first 4,000 CSV rows, one depth-12 tree per fold, 2 folds, baseline
    method (cli_run_s), and 50 single-row predict_fair calls on the
    depth-12 tree, each round the next 50 of the first 300 fold-0 test rows
    (predict1)."""

    name = "census_fair"
    setup_repeats = 2  # each set-up trains a census forest

    def setup(self, tracer):
        census_dir = os.path.join(self.work, "census")
        self.config_path, self.gen_labels, self.gen_protected = census.write_csv(
            census_dir, self.seed)
        with tracer.span("data.load"):
            ds_config = load_dataset_config(self.config_path)
            self.dataset = load_dataset(ds_config)
        tracer.count("data.rows", self.dataset.n_rows)
        protected = self.dataset.feature_index(ds_config.protected_column)
        plan = make_folds(self.dataset.n_rows, FOLDS, _seed(self.seed, 1))
        self.train = _split(self.dataset, plan.train_indices(0))
        self.test = plan.test_indices(0)
        with tracer.span("tree.fit"):
            self.forest = _sqrt_forest(self.train, CENSUS_TREES, _seed(self.seed, 2))
            self.t12 = train_tree(self.train, max_depth=12, rng_seed=_seed(self.seed, 4))
        self.ids = self.test[:MC_ROWS]
        self.X = self.dataset.rows[self.ids]
        self.spec = FairnessSpec(protected_feature=protected)
        self.config = TraversalConfig(N_SIMULATIONS, P_MAX, ALPHA, _seed(self.seed, 3))
        self.t12_forest = Forest(trees=[self.t12], n_trees=1)
        slice_dir = os.path.join(self.work, "slice")
        os.makedirs(slice_dir, exist_ok=True)
        with open(os.path.join(census_dir, "census.csv"), encoding="utf-8") as src:
            head = [next(src) for _ in range(CLI_SLICE_ROWS + 1)]
        with open(os.path.join(slice_dir, "census.csv"), "w", encoding="utf-8") as dst:
            dst.writelines(head)
        shutil.copyfile(self.config_path, os.path.join(slice_dir, "census.json"))
        self.cli_argv = [
            "run", "--data", os.path.join(slice_dir, "census.json"), "--n-trees", "1",
            "--max-depth", "12", "--features-per-split", "all", "--no-bootstrap",
            "--folds", "2", "--methods", "baseline", "--seed", str(_seed(self.seed, 5)),
            "--out-dir", os.path.join(self.work, "cli-run")]

    def run_pass(self, tracer):
        times = {}
        with _stage(tracer, self.meter, times, "traversal.mc"):
            preds, probs = predict_fair_batch(
                self.forest, self.X, self.spec, self.config, stream_ids=self.ids)
        count_mc(tracer, self.forest, self.X, self.config)
        with _stage(tracer, self.meter, times, "traversal.exact"):
            exact = [exact_path_distribution(self.t12, x, self.spec, self.config).probs[1]
                     for x in self.X]
        tracer.count("traversal.exact_rows", len(self.X))
        self.preds, self.probs, self.exact = preds, probs, np.array(exact)
        return {"wall_s": [sum(times.values())],
                "fairttts_rows_per_s": [len(self.X) / times["traversal.mc"]]}

    def probes(self):
        X_te = self.dataset.rows[self.test]
        next_row = 0
        fits = 0

        def one_tree():
            # a new tree seed each round: one tree's time depends on its seed
            nonlocal fits
            fits += 1
            return _train_probe(self.meter, self.train, [_seed(self.seed, 100 + fits)], 1)

        def votes():
            seconds = _seconds(self.meter, lambda: predict_forest_batch(self.forest, X_te))
            return {"baseline_rows_per_s": [len(X_te) / seconds]}

        def cli_run():
            with self.meter.sample() as t:
                rc = _run_cli(self.cli_argv)
            if rc != 0:
                raise RuntimeError(f"census cli run probe exited {rc}")
            return {"cli_run_s": [t.seconds]}

        def predict1():
            nonlocal next_row
            rows = (next_row + np.arange(PREDICT1_BLOCK)) % CENSUS_PREDICT1_ROWS
            next_row = int(rows[-1]) + 1
            out = _predict1(self.meter, self.t12_forest, X_te[rows], self.test[rows],
                            self.spec, self.config)
            del out["block_s"]
            return out

        return [one_tree, votes, cli_run, predict1]

    def check(self, checks):
        S = self.config.n_simulations
        protected = self.spec.protected_feature
        checks.expect("csv reproduces labels",
                      np.array_equal(self.dataset.labels, self.gen_labels))
        checks.expect("csv reproduces protected column",
                      np.array_equal(self.dataset.rows[:, protected], self.gen_protected))

        def binomial_bound():
            # Each row's favourable count on the single tree is Binomial(S, q)
            # with q the exact probability: no row may sit in a tail below
            # 1e-9, and the summed deviation must stay within 6 sigma.
            _, probs = predict_fair_batch(self.t12_forest, self.X, self.spec, self.config,
                                          stream_ids=self.ids)
            k = np.rint(probs[:, 1] * S).astype(int)
            q = np.clip(self.exact, 0.0, 1.0)
            for ki, qi in zip(k, q):
                if _binomial_two_sided(int(ki), S, float(qi)) < 1e-9:
                    return False
            var = float(np.sum(S * q * (1 - q)))
            dev = float(np.sum(k - S * q))
            return abs(dev) <= 6 * math.sqrt(var) + 1e-9

        checks.run("monte carlo within binomial bound of exact", binomial_bound)
        sub = 128
        p0 = TraversalConfig(S, 0.0, ALPHA, self.config.seed)
        checks.run("p_max = 0 equals predict_forest_batch", lambda: np.array_equal(
            predict_fair_batch(self.forest, self.X[:sub], self.spec, p0,
                               stream_ids=self.ids[:sub])[0],
            predict_forest_batch(self.forest, self.X[:sub])))

        def split_batches():
            half = sub // 2
            parts = [predict_fair_batch(self.forest, self.X[a:b], self.spec, self.config,
                                        stream_ids=self.ids[a:b])
                     for a, b in ((0, half), (half, sub))]
            preds = np.concatenate([p for p, _ in parts])
            probs = np.concatenate([q for _, q in parts])
            return (np.array_equal(preds, self.preds[:sub])
                    and np.array_equal(probs, self.probs[:sub]))

        checks.run("split batches give the same predictions", split_batches)
        baseline = predict_forest_batch(self.forest, self.X)
        checks.run("batch equals scalar predict_deterministic", lambda: all(
            predict_deterministic(self.forest, self.X[i]) == baseline[i]
            for i in range(0, len(self.X), 8)))

        # the threshold baseline, fitted on train-split vote shares as the
        # experiment harness does; its (0, 0) collapse shows as accuracy
        # equal to the positive share
        votes_tr = forest_votes_batch(self.forest, self.train.rows)
        g_tr = self.train.rows[:, protected].astype(np.int64)
        policy = fit_threshold_policy(votes_tr / CENSUS_TREES, self.train.labels, g_tr)
        y = self.dataset.labels[self.ids]
        g = self.X[:, protected].astype(np.int64)
        thresholded = apply_threshold_policy(
            policy, forest_votes_batch(self.forest, self.X) / CENSUS_TREES, g)
        methods = {"baseline": baseline, "threshold_optimizer": thresholded,
                   "fairttts": self.preds,
                   "exact_depth12_tree": (self.exact > 0.5).astype(np.int64)}
        self.details["quality"] = {m: _quality(y, p, g) for m, p in methods.items()}
        self.details["quality"]["test_positive_share"] = float(y.mean())
        self.details["quality"]["threshold_policy"] = policy.to_dict()
        reports = {m: full_report(y, p, g).to_dict() for m, p in methods.items()}
        self.details["digests"] = {
            **{f"predictions.{m}": _sha256(p.astype(np.int8)) for m, p in methods.items()},
            "probabilities.fairttts": _sha256(self.probs),
            "probabilities.exact_depth12_tree": _sha256(self.exact),
            # the model's train-split votes stand for its bytes: dumping the
            # ~40 MB census forest would add seconds to every run; the model
            # bytes digest is synthetic_cli's
            "votes.train": _sha256(votes_tr),
            "report": _sha256(json.dumps(reports, sort_keys=True)),
        }

    def layer_metrics(self):
        return _layer_measurements(self.forest, self.X, self.ids, self.config)


def _binomial_two_sided(k: int, n: int, q: float) -> float:
    """Probability, under Binomial(n, q), of an outcome no more likely than k."""
    pmf = [math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(n + 1)]
    return min(1.0, sum(p for p in pmf if p <= pmf[k] * (1 + 1e-7)))


class SyntheticCli(Workload):
    """The pass runs, through in-process cli.main, `run` (25 trees, 5 folds,
    S = 100), `sweep-alpha --exact`, `train` -> `predict` -> `evaluate` and
    `charts`, then loads the trained model and makes 200 single-row
    predict_fair calls, one per fixture row in order.

    Probes, on the fixture rows: deterministic votes (10 calls, a sample
    each) and batch Monte Carlo (4 calls of 100 rows, a sample each) with the
    pass's model, 4 fits of a 10-tree forest with the CLI's default flags
    and new seeds each round (train_s_per_tree, per tree), and the pass's
    `run` command once more (cli_run_s)."""

    name = "synthetic_cli"
    setup_repeats = 5

    def setup(self, tracer):
        """Load the fixture for the one-row loop and the checks, and warm the
        CLI path with one `train` command, so the first pass pays no
        first-call costs."""
        with tracer.span("data.load"):
            ds_config = load_dataset_config(FIXTURE)
            self.dataset = load_dataset(ds_config)
        tracer.count("data.rows", self.dataset.n_rows)
        self.spec = FairnessSpec(
            protected_feature=self.dataset.feature_index(ds_config.protected_column))
        self.cli_seed = _seed(self.seed, 5)
        self.config = TraversalConfig(N_SIMULATIONS, P_MAX, ALPHA, self.cli_seed)
        rc = _run_cli(dict(self._commands(os.path.join(self.work, "warmup")))["train"])
        if rc != 0:
            raise RuntimeError(f"warm-up train exited {rc}")
        self.n_pass = 0
        self.rcs = []
        self.outputs = []

    def _commands(self, out):
        s = str(self.cli_seed)
        return [
            ("run", ["run", "--data", FIXTURE, "--n-trees", str(CLI_TREES),
                     "--folds", str(FOLDS), "--n-simulations", str(N_SIMULATIONS),
                     "--seed", s, "--out-dir", os.path.join(out, "run")]),
            ("sweep-alpha", ["sweep-alpha", "--data", FIXTURE, "--n-trees", "1",
                             "--max-depth", "3", "--features-per-split", "all",
                             "--no-bootstrap", "--exact", "--folds", str(FOLDS),
                             "--seed", s, "--alphas", "1,2,4,9,16",
                             "--out-dir", os.path.join(out, "sweep")]),
            ("train", ["train", "--data", FIXTURE, "--n-trees", str(CLI_TREES),
                       "--seed", s, "--out", os.path.join(out, "model.json")]),
            ("predict", ["predict", "--model", os.path.join(out, "model.json"),
                         "--data", FIXTURE, "--seed", s,
                         "--out", os.path.join(out, "preds.csv")]),
            ("evaluate", ["evaluate", "--data", FIXTURE,
                          "--pred", os.path.join(out, "preds.csv"),
                          "--out", os.path.join(out, "metrics.json")]),
            ("charts", ["charts", "--report", os.path.join(out, "run", "report.json"),
                        "--report", os.path.join(out, "sweep", "sweep.json"),
                        "--out-dir", os.path.join(out, "charts")]),
        ]

    def run_pass(self, tracer):
        out = os.path.join(self.work, f"pass{self.n_pass}")
        self.n_pass += 1
        times, rcs = {}, {}
        for name, argv in self._commands(out):
            with _stage(tracer, self.meter, times, f"cli.{name}"):
                rcs[name] = _run_cli(argv)
        with _stage(tracer, self.meter, times, "model_io.loads"):
            self.model = model_io.load_model(os.path.join(out, "model.json"))
        latencies = _predict1(self.meter, self.model, self.dataset.rows[:PREDICT1_CALLS],
                              np.arange(PREDICT1_CALLS), self.spec, self.config, tracer)
        wall = sum(times.values()) + sum(latencies.pop("block_s"))
        self.rcs.append(rcs)
        self.outputs.append(out)
        return {"wall_s": [wall], "cli_run_s": [times["cli.run"]], **latencies}

    def probes(self):
        X = self.dataset.rows

        def votes():
            return {"baseline_rows_per_s": [
                len(X) / _seconds(self.meter, lambda: predict_forest_batch(self.model, X))
                for _ in range(10)]}

        def monte_carlo():
            return {"fairttts_rows_per_s": [
                len(rows) / _seconds(self.meter, lambda: predict_fair_batch(
                    self.model, rows, self.spec, self.config, stream_ids=ids))
                for rows, ids in zip(np.array_split(X, 4),
                                     np.array_split(np.arange(len(X)), 4))]}

        def cli_run():
            with self.meter.sample() as t:
                rc = _run_cli(self._commands(os.path.join(self.work, "probe"))[0][1])
            if rc != 0:
                raise RuntimeError(f"cli run probe exited {rc}")
            return {"cli_run_s": [t.seconds]}

        fits = 0

        def forest():
            # new forest seeds each round, as on census_fair
            nonlocal fits
            fits += 4
            return _train_probe(self.meter, self.dataset,
                                [_seed(self.seed, 100 + fits - i) for i in range(4)],
                                TRAIN_PROBE_TREES)

        return [votes, monte_carlo, forest, cli_run]

    def check(self, checks):
        for rcs in self.rcs:
            for name, rc in rcs.items():
                checks.expect(f"{name} exits 0", rc == 0)
        out = self.outputs[-1]
        repeat = os.path.join(self.work, "repeat")
        commands = dict(self._commands(repeat))
        for name in ("run", "train"):
            rc = _run_cli(commands[name])
            checks.expect(f"repeated {name} exits 0", rc == 0)
        artifacts = (os.path.join("run", "report.json"), "model.json")
        for rel in artifacts:
            first = _file_sha256(os.path.join(out, rel))
            others = [os.path.join(o, rel) for o in self.outputs[:-1]]
            others.append(os.path.join(repeat, rel))
            checks.run(f"{rel} bytes identical across invocations",
                       lambda: all(_file_sha256(p) == first for p in others))
        model = model_io.load_model(os.path.join(out, "model.json"))
        text = model_io.dumps(model)
        checks.run("model round trip bytes",
                   lambda: model_io.dumps(model_io.loads(text)) == text)
        checks.run("model round trip votes", lambda: np.array_equal(
            forest_votes_batch(model_io.loads(text), self.dataset.rows),
            forest_votes_batch(model, self.dataset.rows)))

        def predict_matches_batch():
            preds, probs = predict_fair_batch(model, self.dataset.rows,
                                              self.spec, self.config)
            with open(os.path.join(out, "preds.csv"), encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            cli_preds = np.array([int(r.split(",")[3]) for r in rows])
            cli_probs = np.array([float(r.split(",")[4]) for r in rows])
            return np.array_equal(cli_preds, preds) and np.array_equal(cli_probs, probs[:, 1])

        checks.run("predict output equals predict_fair_batch", predict_matches_batch)
        svgs = [os.path.join(out, "run", "accuracy_vs_eod.svg"),
                os.path.join(out, "sweep", "alpha_sweep.svg"),
                os.path.join(out, "charts", "accuracy_vs_eod.svg"),
                os.path.join(out, "charts", "alpha_sweep.svg")]
        for path in svgs:
            checks.run(f"{os.path.relpath(path, out)} parses as XML",
                       lambda: ET.parse(path).getroot().tag.endswith("svg"))
        self.details["digests"] = {
            "report": _file_sha256(os.path.join(out, "run", "report.json")),
            "sweep": _file_sha256(os.path.join(out, "sweep", "sweep.json")),
            "model": _file_sha256(os.path.join(out, "model.json")),
            "predictions.fairttts": _file_sha256(os.path.join(out, "preds.csv")),
            "evaluation": _file_sha256(os.path.join(out, "metrics.json")),
        }

    def layer_metrics(self):
        rows = self.dataset.rows
        out = _layer_measurements(self.model, rows, np.arange(len(rows)), self.config)
        out["model_io.mb"] = os.path.getsize(
            os.path.join(self.outputs[-1], "model.json")) / 1e6
        return out


WORKLOADS = {w.name: w for w in (CensusFair, SyntheticCli)}
