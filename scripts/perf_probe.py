#!/usr/bin/env python3
"""Scale, stage and mechanism probe on census-shaped synthetic data.

    python scripts/perf_probe.py [--out BENCH_<label>.json]

The public benchmark CSVs cannot be fetched in every environment, so this
probe takes the census-shaped table that benchmark/census.py generates
(32,561 rows, 14 mixed-type features, ~24% positive rate, outcome
suppressed for the unprivileged group) as numeric codes and runs the full
25-tree, 5-fold pipeline on it. It reports wall time per stage plus the
direction checks the real benchmark asserts. Before that, on fold 0, it
reports its deterministic vote throughput (predict_forest_batch rows/s on
the test split, and the seconds of the threshold policy fit's vote walk
over the train split), times exact inference over the forest against
Monte Carlo and reports how far their predictions agree and how many rows
lie within Monte Carlo noise of the 0.5 boundary, how many MB of node
arrays its forest holds, and, from
a second, untimed Monte Carlo call, how many chunks of the exact frontier
that call draws from, how many attempts outgrew the frontier's budget and
were halved, and its tracemalloc peak in bytes per (row, simulation, tree)
lane, and, from a third, how many levels the frontier walks in that call
and its mean microseconds a level (the per-level cost), the median
latency of 200 one-row predict_fair calls on each side of the one-row
route: fold 0's first tree (scored by the row walk) and its whole forest
(more nodes than traversal.MAX_LANES, scored by the frontier), the
median split of a one-row call on that first tree into its masses (the
row walk), its draws (stream-key folds and draw tests) and the rest (input
checks, vote counts, the result), and the
median microseconds a row of exact_path_distribution (the row walk) on
that first tree over fold 0's test rows. During the
5-fold run it prints each fold's forest fit in seconds and seconds per
tree, and beside fold 0's the seconds to write its model text
(model_io.dumps) and to load it back (model_io.loads). It ends with the
seconds of each stage of the 5-fold run (Stages), the number of column
rankings the probe made (the table ranks its columns once; each fold's
train split gathers those ranks) and the process's peak RSS, which
includes fold 0's model text and its reload, and exits 1 when fairttts
does not lower EOD or drops accuracy by more than 0.005. Not a test; a
dry run for budgeting.

Every time it reports is calibrated as benchmark/run.py calibrates its
samples: benchmark/reference.py's Meter runs a fixed reference loop just
before and just after the timed work, and the work's seconds are divided
by the machine's slowdown around it, so that runs on a shared machine
compare. A median of many one-row calls is divided by the slowdown around
the whole loop of calls.

--out writes the stage record to a JSON file, BENCH_<label>.json by
convention, <label> naming the code measured: "stages_s", the calibrated
seconds of each stage summed over the 5 folds (load, fold_plan, train,
policy_fit, votes, method.<name> for each method, metrics, model_dumps,
model_loads; see Stages); "train_s_per_fold" and "train_s_per_tree", by
fold; "rows_per_s" of each method over the 5 folds as its report timings
count it (the test rows' vote walk, which baseline and
threshold_optimizer share, in baseline's) and of fold 0's exact, Monte
Carlo and vote runs ("fold0.<run>"); "peak_rss_mb"; and the slowdowns
seen.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import replace

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import census  # noqa: E402
from reference import REFERENCE_S, Meter  # noqa: E402

from fairtree import bench, model_io, traversal, tree  # noqa: E402
from fairtree.bench import (  # noqa: E402
    _TAG_ENGINE,
    _TAG_FOLDS,
    METHOD_BASELINE,
    METHOD_FAIRTTTS,
    METHOD_THRESHOLD,
    ExperimentConfig,
    fit_fold,
    predict_method,
    run_experiment_on,
)
from fairtree.data import make_folds  # noqa: E402
from fairtree.rng import stream_key  # noqa: E402
from fairtree.traversal import FairnessSpec, predict_fair  # noqa: E402
from fairtree.tree import Dataset, Forest  # noqa: E402


def census_table(seed=1):
    """The census benchmark's table (benchmark/census.py) as a numeric
    Dataset, and the index of its protected column."""
    columns, labels = census.generate(seed)
    rows = np.column_stack([columns[name] for name in census.FEATURES]).astype(float)
    names = list(census.FEATURES)
    return Dataset(names, ["numeric"] * len(names), rows, labels), names.index(census.PROTECTED)


def node_array_mb(forest):
    """MB of node arrays a forest holds: each distinct numpy buffer
    reachable from the forest and its trees, counted once."""
    size = {}
    for owner in [forest, *forest.trees]:
        for array in vars(owner).values():
            if isinstance(array, np.ndarray):
                while isinstance(array.base, np.ndarray):
                    array = array.base
                size[id(array)] = array.nbytes
    return sum(size.values()) / 1e6


def calibrated(meter, fn):
    """(fn(), its calibrated seconds): one Meter sample."""
    with meter.sample() as t:
        out = fn()
    return out, t.seconds


def fit_fold_timing_votes(meter, dataset, plan, config, protected):
    """Fold 0's forest, from fit_fold, and the calibrated seconds of the
    vote walk over its train split that fits the threshold policy."""
    spent, votes = [], bench.forest_votes_batch

    def timed(*args):
        out, seconds = calibrated(meter, lambda: votes(*args))
        spent.append(seconds)
        return out

    bench.forest_votes_batch = timed
    try:
        forest, _ = fit_fold(dataset, plan, 0, config, protected)
        return forest, sum(spent)
    finally:
        bench.forest_votes_batch = votes


def vote_rate(meter, forest, X, calls=5):
    """predict_forest_batch's rows/s on X: the median of calls calls."""
    return len(X) / statistics.median(
        calibrated(meter, lambda: tree.predict_forest_batch(forest, X))[1] for _ in range(calls))


def chunk_memory(forest, X, spec, config, seed, stream_ids):
    """The rows of each chunk of the exact frontier that one Monte Carlo
    call of predict_method draws from, the rows of each attempt that
    outgrew the budget and was halved, and the call's tracemalloc peak in
    bytes."""
    chunks, failed, pair_masses = [], [], traversal._pair_masses

    def counted(forest, X, chance, rows, limit):
        got = pair_masses(forest, X, chance, rows, limit)
        if got is None:  # halved and run again
            failed.append(rows.size)
        else:
            chunks.append(rows.size)
        return got

    traversal._pair_masses = counted
    tracemalloc.start()
    try:
        predict_method(METHOD_FAIRTTTS, forest, X, spec, config, seed, stream_ids)
        return chunks, failed, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        traversal._pair_masses = pair_masses


def frontier_levels(meter, forest, X, spec, config, seed, stream_ids):
    """The levels of the exact frontier in one Monte Carlo call of
    predict_method, counted as calls of the flip-chance callable that
    traversal._pair_masses is given (one a level), and the seconds spent
    in _pair_masses, calibrated by the slowdown around the call."""
    levels, spent, pair_masses = [0], [0.0], traversal._pair_masses

    def timed(forest, X, chance, rows, limit):
        def counted(*args):
            levels[0] += 1
            return chance(*args)

        t0 = time.perf_counter()
        try:
            return pair_masses(forest, X, counted, rows, limit)
        finally:
            spent[0] += time.perf_counter() - t0

    traversal._pair_masses = timed
    try:
        with meter.sample() as t:
            predict_method(METHOD_FAIRTTTS, forest, X, spec, config, seed, stream_ids)
        return levels[0], spent[0] / t.slowdown
    finally:
        traversal._pair_masses = pair_masses


def one_row_latency(meter, forest, X, spec, config, stream_ids, calls=200):
    """The median seconds of calls one-row predict_fair calls, on X's rows
    in turn."""
    times = []
    with meter.sample() as t:
        for i in range(calls):
            t0 = time.perf_counter()
            predict_fair(forest, X[i % len(X)], spec, config,
                         stream_id=int(stream_ids[i % len(X)]))
            times.append(time.perf_counter() - t0)
    return statistics.median(times) / t.slowdown


def one_row_split(meter, forest, X, spec, config, stream_ids, calls=200):
    """The median microseconds of a one-row predict_fair call's masses
    (traversal._mass_chunks), its draws (rng.fold_array and
    rng.below_array) and the rest of the call, over calls calls on X's rows
    in turn, each part timed by wrapping it."""
    rng, chunks = traversal._rng, traversal._mass_chunks
    fold, below = rng.fold_array, rng.below_array
    spent = {"masses": 0.0, "draws": 0.0}

    def timed(part, f):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                spent[part] += time.perf_counter() - t0
        return call

    def timed_chunks(*args):  # the time to produce each chunk
        t0 = time.perf_counter()
        for item in chunks(*args):
            spent["masses"] += time.perf_counter() - t0
            yield item
            t0 = time.perf_counter()
        spent["masses"] += time.perf_counter() - t0

    split = {"masses": [], "draws": [], "the rest": []}
    traversal._mass_chunks = timed_chunks
    rng.fold_array, rng.below_array = timed("draws", fold), timed("draws", below)
    try:
        with meter.sample() as t:
            for i in range(calls):
                spent.update(masses=0.0, draws=0.0)
                t0 = time.perf_counter()
                predict_fair(forest, X[i % len(X)], spec, config,
                             stream_id=int(stream_ids[i % len(X)]))
                total = time.perf_counter() - t0
                split["masses"].append(spent["masses"])
                split["draws"].append(spent["draws"])
                split["the rest"].append(total - spent["masses"] - spent["draws"])
    finally:
        traversal._mass_chunks, rng.fold_array, rng.below_array = chunks, fold, below
    return {part: statistics.median(times) / t.slowdown * 1e6 for part, times in split.items()}


def exact_path_latency(meter, model, X, spec, config):
    """The median seconds of exact_path_distribution on model, one call for
    each row of X."""
    times = []
    with meter.sample() as t:
        for x in X:
            t0 = time.perf_counter()
            traversal.exact_path_distribution(model, x, spec, config)
            times.append(time.perf_counter() - t0)
    return statistics.median(times) / t.slowdown


def count_rankings() -> list:
    """A list that gets the shape of each table whose columns are ranked
    from now on."""
    rankings, rank = [], tree._rank_columns
    tree._rank_columns = lambda rows, labels: rankings.append(rows.shape) or rank(rows, labels)
    return rankings


class Stages:
    """Calibrated seconds of the stages of run_experiment_on's folds, taken
    by wrapping, in fairtree.bench, the function each stage calls; each
    call is one Meter sample, and a call inside another's sample is not
    timed on its own:
    - fold_plan: make_folds;
    - train and policy_fit: fit_fold, split by the raw seconds of its
      fit_forest call (policy_fit: the train split's vote walk and
      fit_threshold_policy);
    - votes: forest_votes_batch outside fit_fold, the test rows' vote walk;
    - method.<name>: predict_method;
    - metrics: full_report.
    After fold 0's fit, model_dumps and model_loads time model_io.dumps of
    its forest and model_io.loads of that text. Each fit is printed as it
    ends."""

    def __init__(self, meter, n_trees):
        self.meter, self.n_trees = meter, n_trees
        self.seconds, self.rows = defaultdict(list), defaultdict(int)
        self.saved, self.busy, self.model_mb = {}, False, None

    def __enter__(self):
        wrappers = {"make_folds": self.fold_plan, "fit_fold": self.fit_fold,
                    "forest_votes_batch": self.votes, "predict_method": self.method,
                    "full_report": self.metrics}
        for name, wrapper in wrappers.items():
            self.saved[name] = getattr(bench, name)
            setattr(bench, name, wrapper)
        return self

    def __exit__(self, *exc):
        for name, f in self.saved.items():
            setattr(bench, name, f)

    def _sample(self, stage, f, *args):
        if self.busy:  # inside another sample: timed as part of it
            return f(*args)
        self.busy = True
        try:
            out, seconds = calibrated(self.meter, lambda: f(*args))
        finally:
            self.busy = False
        self.seconds[stage].append(seconds)
        return out

    def fold_plan(self, *args, **kwargs):
        return self._sample("fold_plan", lambda: self.saved["make_folds"](*args, **kwargs))

    def fit_fold(self, *args):
        fit, raw = bench.fit_forest, []

        def timed(*fit_args):
            t0 = time.perf_counter()
            try:
                return fit(*fit_args)
            finally:
                raw.append(time.perf_counter() - t0)

        bench.fit_forest, self.busy = timed, True
        try:
            with self.meter.sample() as t:
                forest, policy = self.saved["fit_fold"](*args)
        finally:
            bench.fit_forest, self.busy = fit, False
        train = raw[0] / t.slowdown
        self.seconds["train"].append(train)
        self.seconds["policy_fit"].append(t.seconds - train)
        line = f"fold {args[2]} forest fit {train:.2f}s  {train / self.n_trees:.3f} s per tree"
        if args[2] == 0:
            text = self._sample("model_dumps", model_io.dumps, forest)
            self._sample("model_loads", model_io.loads, text)
            self.model_mb = len(text) / 1e6
            line += (f"  dumps {self.seconds['model_dumps'][0]:.2f}s  loads "
                     f"{self.seconds['model_loads'][0]:.2f}s  ({self.model_mb:.1f} MB)")
            del text
        print(line)
        return forest, policy

    def votes(self, *args):
        return self._sample("votes", self.saved["forest_votes_batch"], *args)

    def method(self, method, forest, X, *args):
        self.rows[method] += len(X)
        return self._sample(f"method.{method}", self.saved["predict_method"],
                            method, forest, X, *args)

    def metrics(self, *args):
        return self._sample("metrics", self.saved["full_report"], *args)

    def method_seconds(self, method) -> float:
        """A method's seconds over all folds, as report timings count them:
        baseline's include the test rows' vote walk."""
        votes = sum(self.seconds["votes"]) if method == METHOD_BASELINE else 0.0
        return sum(self.seconds[f"method.{method}"]) + votes


def exact_vs_monte_carlo(meter, dataset, protected, config):
    """Fold 0 of config's plan: seconds and rows/s of exact inference and
    of Monte Carlo on its test rows, how often their predictions agree, and
    the share of rows whose exact favorable chance Q lies within
    2 * sqrt(Q * (1 - Q) / S) of 0.5, where S simulations cannot tell the
    side. Returns the rows/s of fold 0's exact, Monte Carlo and vote runs."""
    plan = make_folds(dataset.n_rows, config.folds, stream_key(config.seed, _TAG_FOLDS))
    forest, fit_walk = fit_fold_timing_votes(meter, dataset, plan, config, protected)
    print(f"fold 0 forest holds {node_array_mb(forest):.1f} MB of node arrays "
          f"({forest.feature.size:,} nodes)")
    test = plan.test_indices(0)
    X, spec = dataset.rows[test], FairnessSpec(protected_feature=protected)
    rates = {"votes": vote_rate(meter, forest, X)}
    print(f"fold 0 votes         predict_forest_batch {rates['votes']:,.0f} rows/s "
          f"on {len(X):,} test rows; the threshold fit's vote walk {fit_walk:.3f}s "
          f"on {plan.train_indices(0).size:,} train rows")
    seed = stream_key(config.seed, _TAG_ENGINE, 0)
    out = {}
    for name, cfg in (("exact", replace(config, exact=True)), ("monte carlo", config)):
        out[name], elapsed = calibrated(
            meter, lambda: predict_method(METHOD_FAIRTTTS, forest, X, spec, cfg, seed, test))
        rates[name.replace(" ", "_")] = len(X) / elapsed
        print(f"fold 0 {name:<12} {elapsed:.2f}s  {len(X) / elapsed:,.0f} rows/s")
    chunks, failed, peak = chunk_memory(forest, X, spec, config, seed, test)
    lanes = len(X) * config.n_simulations * config.n_trees
    print(f"fold 0 monte carlo   {len(chunks)} chunks of at most {max(chunks):,} rows "
          f"({len(failed)} failed attempts), "
          f"tracemalloc peak {peak / 1e6:.2f} MB = {peak / lanes:.2f} bytes a lane "
          f"of {lanes:,}")
    levels, spent = frontier_levels(meter, forest, X, spec, config, seed, test)
    print(f"fold 0 monte carlo   {levels} frontier levels, {spent:.2f}s in the frontier, "
          f"{spent / levels * 1e6:.0f} us a level")
    engine = config.traversal_config(seed)
    for name, model in (("first tree", Forest(trees=forest.trees[:1], n_trees=1)),
                        ("forest", forest)):
        route = "row walk" if model.feature.size <= traversal.MAX_LANES else "frontier"
        latency = one_row_latency(meter, model, X, spec, engine, test)
        print(f"fold 0 one-row predict_fair on the {name} ({model.feature.size:,} nodes, "
              f"{route}): median {latency * 1e3:.3f} ms of 200 calls")
        if name == "first tree":
            split = one_row_split(meter, model, X, spec, engine, test)
            print("fold 0 one-row predict_fair on the first tree, median split of 200 calls: "
                  + ", ".join(f"{part} {us:.1f} us" for part, us in split.items()))
    latency = exact_path_latency(meter, forest.trees[0], X, spec, engine)
    print(f"fold 0 exact_path_distribution on the first tree: median {latency * 1e6:.1f} us "
          f"a row over {len(X):,} test rows")
    q, S = out["exact"][1], config.n_simulations
    agree = float(np.mean(out["exact"][0] == out["monte carlo"][0]))
    noise = float(np.mean(np.abs(q - 0.5) <= 2 * np.sqrt(q * (1 - q) / S)))
    print(f"fold 0 predictions agree on {agree:.2%} of {len(X)} rows; "
          f"{noise:.2%} lie within 2*sqrt(Q(1-Q)/{S}) of 0.5")
    return rates


def write_record(path, stages, fold0, dataset, config, peak_rss_mb, slowdowns):
    """The stage record (see the module docstring) as JSON at path."""
    name = os.path.basename(path)
    label = name[len("BENCH_"):-len(".json")] if name.startswith("BENCH_") else name
    train = stages.seconds["train"]
    record = {
        "schema": "fairtree-bench/1",
        "label": label,
        "probe": {"rows": dataset.n_rows, "features": dataset.n_features,
                  "n_trees": config.n_trees, "folds": config.folds,
                  "n_simulations": config.n_simulations, "methods": list(config.methods)},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": len(os.sched_getaffinity(0)), "reference_s": REFERENCE_S},
        "stages_s": {stage: sum(seconds) for stage, seconds in stages.seconds.items()},
        "train_s_per_fold": train,
        "train_s_per_tree": [seconds / config.n_trees for seconds in train],
        "rows_per_s": {**{m: rows / stages.method_seconds(m) for m, rows in stages.rows.items()},
                       **{f"fold0.{k}": v for k, v in fold0.items()}},
        "model_mb": stages.model_mb,
        "peak_rss_mb": peak_rss_mb,
        "slowdown": {"samples": len(slowdowns), "min": min(slowdowns),
                     "median": statistics.median(slowdowns), "max": max(slowdowns)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the stage record to this JSON file "
                                      "(BENCH_<label>.json)")
    args = parser.parse_args(argv)
    rankings, meter = count_rankings(), Meter(True)
    (dataset, sex_index), load_s = calibrated(meter, census_table)
    print(f"generated {dataset.n_rows} rows, positive rate "
          f"{dataset.labels.mean():.3f}, privileged share "
          f"{dataset.rows[:, sex_index].mean():.3f} ({load_s:.1f}s)")
    config = ExperimentConfig(
        n_trees=25, max_depth=None, min_samples_leaf=1, features_per_split="sqrt",
        n_simulations=100, p_max=0.1, alpha=9.0, folds=5, seed=20240601,
        methods=(METHOD_BASELINE, METHOD_THRESHOLD, METHOD_FAIRTTTS),
    )
    fold0 = exact_vs_monte_carlo(meter, dataset, sex_index, config)
    with Stages(meter, config.n_trees) as stages:
        stages.seconds["load"].append(load_s)
        result = run_experiment_on(dataset, sex_index, "census_shaped", config)
    for method in config.methods:
        agg = result.aggregates[method]
        print(f"{method:<20} acc {agg['accuracy']['mean']:.4f}±{agg['accuracy']['std']:.4f}"
              f"  eod {agg['eod']['mean']:.4f}±{agg['eod']['std']:.4f}"
              f"  di {agg['di']['mean']:.4f}"
              f"  inference {stages.method_seconds(method):.2f}s")
    print("stages (calibrated seconds over 5 folds): " + ", ".join(
        f"{stage} {sum(seconds):.2f}" for stage, seconds in stages.seconds.items()))
    print(f"total of the stages {sum(map(sum, stages.seconds.values())):.1f}s; "
          f"machine slowdown median {statistics.median(meter.slowdowns):.2f} "
          f"over {len(meter.slowdowns)} samples")
    tables = ", ".join(f"{rows:,} x {columns}" for rows, columns in rankings)
    print(f"column rankings {len(rankings)} (tables of rows x columns: {tables})")
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_rss_mb:.0f} MiB")
    if args.out:
        write_record(args.out, stages, fold0, dataset, config, peak_rss_mb, meter.slowdowns)
        print(f"wrote {args.out}")
    eod_b = result.aggregates[METHOD_BASELINE]["eod"]["mean"]
    eod_f = result.aggregates[METHOD_FAIRTTTS]["eod"]["mean"]
    acc_b = result.aggregates[METHOD_BASELINE]["accuracy"]["mean"]
    acc_f = result.aggregates[METHOD_FAIRTTTS]["accuracy"]["mean"]
    improved, holds = eod_f < eod_b, acc_f >= acc_b - 0.005
    print(f"direction: EOD {eod_b:.4f} -> {eod_f:.4f} "
          f"({'improved' if improved else 'NOT improved'}); "
          f"accuracy {acc_b:.4f} -> {acc_f:.4f} "
          f"({'holds' if holds else 'DROPPED beyond 0.005'})")
    return 0 if improved and holds else 1


if __name__ == "__main__":
    sys.exit(main())
