#!/usr/bin/env python3
"""Scale and mechanism probe on census-shaped synthetic data.

The public benchmark CSVs cannot be fetched in every environment, so this
probe takes the census-shaped table that benchmark/census.py generates
(32,561 rows, 14 mixed-type features, ~24% positive rate, outcome
suppressed for the unprivileged group) as numeric codes and runs the full
25-tree, 5-fold pipeline on it. It reports wall time per stage plus the
direction checks the real benchmark asserts. Before that, on fold 0, it
times exact inference over the forest against Monte Carlo and reports how
far their predictions agree and how many rows lie within Monte Carlo noise
of the 0.5 boundary, how many MB of node arrays its forest holds, and, from
a second, untimed Monte Carlo call, how many chunks of the exact frontier
that call draws from, how many attempts outgrew the frontier's budget and
were halved, and its tracemalloc peak in bytes per (row, simulation, tree)
lane, and, from a third, how many levels the frontier walks in that call
and its mean microseconds a level (the per-level cost). During the 5-fold
run it prints each fold's forest fit in seconds and seconds per tree, and
beside fold 0's the seconds to write its model text (model_io.dumps) and
to load it back (model_io.loads). It ends with the number of column
rankings the probe made (the table ranks its columns once; each fold's
train split gathers those ranks) and the process's peak RSS, which
includes fold 0's model text and its reload, and exits 1 when fairttts
does not lower EOD or drops accuracy by more than 0.005. Not a test; a
dry run for budgeting.
"""

import itertools
import os
import resource
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import census  # noqa: E402

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
from fairtree.traversal import FairnessSpec  # noqa: E402
from fairtree.tree import Dataset  # noqa: E402


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


def chunk_memory(forest, X, spec, config, seed, stream_ids):
    """The rows of each chunk of the exact frontier that one Monte Carlo
    call of predict_method draws from, the rows of each attempt that
    outgrew the budget and was halved, and the call's tracemalloc peak in
    bytes."""
    chunks, failed, pair_masses = [], [], traversal._pair_masses

    def counted(forest, X, chance, rows, limit):
        got = pair_masses(forest, X, chance, rows, limit)
        if got is None and rows.size > 1:  # halved and run again
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


def frontier_levels(forest, X, spec, config, seed, stream_ids):
    """The levels of the exact frontier in one Monte Carlo call of
    predict_method, counted as calls of the flip-chance callable that
    traversal._pair_masses is given (one a level), and the seconds spent
    in _pair_masses."""
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
        predict_method(METHOD_FAIRTTTS, forest, X, spec, config, seed, stream_ids)
        return levels[0], spent[0]
    finally:
        traversal._pair_masses = pair_masses


def count_rankings() -> list:
    """A list that gets the shape of each table whose columns are ranked
    from now on."""
    rankings, rank = [], tree._rank_columns
    tree._rank_columns = lambda rows, labels: rankings.append(rows.shape) or rank(rows, labels)
    return rankings


def log_forest_fits(n_trees):
    """Print the seconds of each later forest fit, and per tree, numbering
    the fits as folds from 0; beside fold 0's, the seconds of
    model_io.dumps of its forest and of model_io.loads of that text."""
    fit, folds = bench.fit_forest, itertools.count()

    def timed(*args):
        t0 = time.perf_counter()
        forest = fit(*args)
        elapsed = time.perf_counter() - t0
        line = f"fold {next(folds)} forest fit {elapsed:.2f}s  {elapsed / n_trees:.3f} s per tree"
        if line.startswith("fold 0 "):
            t0 = time.perf_counter()
            text = model_io.dumps(forest)
            t1 = time.perf_counter()
            model_io.loads(text)
            t2 = time.perf_counter()
            line += f"  dumps {t1 - t0:.2f}s  loads {t2 - t1:.2f}s  ({len(text) / 1e6:.1f} MB)"
        print(line)
        return forest

    bench.fit_forest = timed


def exact_vs_monte_carlo(dataset, protected, config):
    """Fold 0 of config's plan: seconds and rows/s of exact inference and
    of Monte Carlo on its test rows, how often their predictions agree, and
    the share of rows whose exact favorable chance Q lies within
    2 * sqrt(Q * (1 - Q) / S) of 0.5, where S simulations cannot tell the
    side."""
    plan = make_folds(dataset.n_rows, config.folds, stream_key(config.seed, _TAG_FOLDS))
    forest, _ = fit_fold(dataset, plan, 0, config, protected)
    print(f"fold 0 forest holds {node_array_mb(forest):.1f} MB of node arrays "
          f"({forest.feature.size:,} nodes)")
    test = plan.test_indices(0)
    X, spec = dataset.rows[test], FairnessSpec(protected_feature=protected)
    seed = stream_key(config.seed, _TAG_ENGINE, 0)
    out = {}
    for name, cfg in (("exact", replace(config, exact=True)), ("monte carlo", config)):
        t0 = time.perf_counter()
        out[name] = predict_method(METHOD_FAIRTTTS, forest, X, spec, cfg, seed, test)
        elapsed = time.perf_counter() - t0
        print(f"fold 0 {name:<12} {elapsed:.2f}s  {len(X) / elapsed:,.0f} rows/s")
    chunks, failed, peak = chunk_memory(forest, X, spec, config, seed, test)
    lanes = len(X) * config.n_simulations * config.n_trees
    print(f"fold 0 monte carlo   {len(chunks)} chunks of at most {max(chunks):,} rows "
          f"({len(failed)} failed attempts), "
          f"tracemalloc peak {peak / 1e6:.2f} MB = {peak / lanes:.2f} bytes a lane "
          f"of {lanes:,}")
    levels, spent = frontier_levels(forest, X, spec, config, seed, test)
    print(f"fold 0 monte carlo   {levels} frontier levels, {spent:.2f}s in the frontier, "
          f"{spent / levels * 1e6:.0f} us a level")
    q, S = out["exact"][1], config.n_simulations
    agree = float(np.mean(out["exact"][0] == out["monte carlo"][0]))
    noise = float(np.mean(np.abs(q - 0.5) <= 2 * np.sqrt(q * (1 - q) / S)))
    print(f"fold 0 predictions agree on {agree:.2%} of {len(X)} rows; "
          f"{noise:.2%} lie within 2*sqrt(Q(1-Q)/{S}) of 0.5")


def main():
    rankings = count_rankings()
    t0 = time.perf_counter()
    dataset, sex_index = census_table()
    print(f"generated {dataset.n_rows} rows, positive rate "
          f"{dataset.labels.mean():.3f}, privileged share "
          f"{dataset.rows[:, sex_index].mean():.3f} "
          f"({time.perf_counter() - t0:.1f}s)")
    config = ExperimentConfig(
        n_trees=25, max_depth=None, min_samples_leaf=1, features_per_split="sqrt",
        n_simulations=100, p_max=0.1, alpha=9.0, folds=5, seed=20240601,
        methods=(METHOD_BASELINE, METHOD_THRESHOLD, METHOD_FAIRTTTS),
    )
    exact_vs_monte_carlo(dataset, sex_index, config)
    log_forest_fits(config.n_trees)
    t0 = time.perf_counter()
    result = run_experiment_on(dataset, sex_index, "census_shaped", config)
    total = time.perf_counter() - t0
    for method in config.methods:
        agg = result.aggregates[method]
        print(f"{method:<20} acc {agg['accuracy']['mean']:.4f}±{agg['accuracy']['std']:.4f}"
              f"  eod {agg['eod']['mean']:.4f}±{agg['eod']['std']:.4f}"
              f"  di {agg['di']['mean']:.4f}"
              f"  inference {sum(result.timings[method]):.1f}s")
    print(f"total wall time {total:.1f}s")
    tables = ", ".join(f"{rows:,} x {columns}" for rows, columns in rankings)
    print(f"column rankings {len(rankings)} (tables of rows x columns: {tables})")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
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
