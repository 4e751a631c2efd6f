#!/usr/bin/env python3
"""Scale, stage and mechanism probe on census-shaped synthetic data.

    python scripts/perf_probe.py [--out BENCH_<label>.json]

The public benchmark CSVs cannot be fetched in every environment, so this
probe takes the census-shaped table that benchmark/census.py generates
(32,561 rows, 14 mixed-type features, ~24% positive rate, outcome
suppressed for the unprivileged group) as numeric codes and runs the full
25-tree, 5-fold pipeline on it. It reports wall time per stage plus the
direction checks the real benchmark asserts. Before that, on fold 0 (its
forest trained by fit_fold), it reports the MB of node arrays the forest
holds, the seconds of model_io.dumps of the forest and of model_io.loads
of that text, its deterministic vote throughput (predict_forest_batch
rows/s on the test split, and the seconds of the threshold policy fit's
vote walk over the train split), exact inference against Monte Carlo on
the test split (seconds, rows/s, how far their predictions agree and how
many rows lie within Monte Carlo noise of 0.5), and, from untimed Monte
Carlo calls, the chunks of the exact frontier a call draws from, the
attempts that outgrew the frontier's budget and were halved, its
tracemalloc peak in bytes per (row, simulation, tree) lane, and its
frontier levels with their mean microseconds a level. Then it reports the
median latency of 200 one-row predict_fair calls on fold 0's first tree
(the row walk) and on its whole forest (more nodes than
traversal.MAX_LANES: the frontier), the median split of a one-row call on
that first tree into masses, draws (stream-key folds and draw tests) and
the rest, and the median microseconds a row of exact_path_distribution on
that first tree. It then runs the 5-fold pipeline three times and prints
each fold's forest fit in seconds and seconds per tree (the median of the
runs), each stage's median seconds and their min-max, the number of
column rankings the probe made (the table ranks its columns once; each
fold's train split gathers those ranks), the synthetic fixture's full CLI
run with its stages, and the process's peak RSS. It exits 1 when fairttts
does not lower EOD or drops accuracy by more than 0.005. Not a test; a
dry run for budgeting.

Every time it reports is calibrated as benchmark/run.py calibrates its
samples: benchmark/reference.py's Meter runs a fixed reference loop just
before and just after the timed work, and the work's seconds are divided
by the machine's slowdown around it, so that runs on a shared machine
compare. A run's stages (the per-fold seconds of its ExperimentResult's
timings, or of the CLI's timing.json) share one slowdown, that around the
whole run, so the 5-fold pipeline runs three times, each run its own
sample, and a change in machine speed inside one run moves that run's
figures only. A median of one-row calls takes the slowdown around the loop
of calls.

--out writes the stage record to a JSON file, BENCH_<label>.json by
convention, <label> naming the code measured: "stages_s", the calibrated
seconds of each stage summed over the 5 folds (load; fold 0's model_dumps
and model_loads; and the median over "runs" 5-fold runs of their fold_plan,
train, policy_fit, votes, method.<name> for each method and metrics, whose
[min, max] over the runs are in "stages_s_range"); "train_s_per_fold" and
"train_s_per_tree", by fold, each the median of the runs; "rows_per_s" of
each method over the 5 folds (the test rows' vote walk, which baseline and
threshold_optimizer share, in baseline's) and of fold 0's exact, Monte
Carlo and vote runs ("fold0.<run>"); "model_mb"; "peak_rss_mb"; the
slowdowns seen; and "fixture", the second scale: the synthetic fixture's
CLI run (25 trees, 5 folds, S = 100) with its calibrated "wall_s", its
"slowdown" and the calibrated "stages_s" of its timing.json.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmark"))

import census  # noqa: E402
from reference import REFERENCE_S, Meter  # noqa: E402

from fairtree import cli, model_io, traversal, tree  # noqa: E402
from fairtree.bench import (_TAG_ENGINE, _TAG_FOLDS, METHOD_BASELINE,  # noqa: E402
                            METHOD_FAIRTTTS, METHOD_THRESHOLD, ExperimentConfig, fit_fold,
                            predict_method, run_experiment_on)
from fairtree.data import make_folds  # noqa: E402
from fairtree.rng import stream_key  # noqa: E402
from fairtree.traversal import FairnessSpec, predict_fair  # noqa: E402
from fairtree.tree import Dataset  # noqa: E402

# the second scale: the synthetic fixture's full CLI run, at the synthetic_cli
# benchmark's settings
FIXTURE = os.path.join("fixtures", "synthetic.json")
FIXTURE_FLAGS = ("--n-trees", "25", "--folds", "5", "--n-simulations", "100")
# 5-fold runs a probe: each is its own Meter sample, so a slowdown that
# changes inside one run moves that run's stages only
RUNS = 3


def census_table(seed=1):
    """The census benchmark's table (benchmark/census.py) as a numeric
    Dataset, and the index of its protected column."""
    columns, labels = census.generate(seed)
    rows = np.column_stack([columns[name] for name in census.FEATURES]).astype(float)
    names = list(census.FEATURES)
    return Dataset(names, ["numeric"] * len(names), rows, labels), names.index(census.PROTECTED)


def node_array_mb(forest):
    """MB of node arrays a forest holds: each distinct numpy buffer among
    its own arrays, counted once. Its trees are not counted: they are
    slices made on each read of forest.trees."""
    size = {}
    for array in vars(forest).values():
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


def vote_rate(meter, forest, X, calls=5):
    """predict_forest_batch's rows/s on X: the median of calls calls."""
    return len(X) / statistics.median(
        calibrated(meter, lambda: tree.predict_forest_batch(forest, X))[1] for _ in range(calls))


@contextlib.contextmanager
def pair_masses_calls():
    """A list that gets, inside the block, one (rows, fits, levels,
    seconds) entry for each traversal._pair_masses call: its chunk's row
    count, whether the chunk fit the budget (else it is halved and run
    again), the calls of the flip-chance callable it is given (one a level
    of the exact frontier) and its seconds."""
    calls, pair_masses = [], traversal._pair_masses

    def recorded(forest, X, chance, rows, limit):
        levels = [0]

        def counted(*args):
            levels[0] += 1
            return chance(*args)

        t0 = time.perf_counter()
        got = pair_masses(forest, X, counted, rows, limit)
        calls.append((rows.size, got is not None, levels[0], time.perf_counter() - t0))
        return got

    traversal._pair_masses = recorded
    try:
        yield calls
    finally:
        traversal._pair_masses = pair_masses


def chunk_memory(forest, X, spec, config, seed, stream_ids):
    """The rows of each chunk of the exact frontier that one Monte Carlo
    call of predict_method draws from, the rows of each attempt that
    outgrew the budget and was halved, and the call's tracemalloc peak in
    bytes."""
    with pair_masses_calls() as calls:
        tracemalloc.start()
        try:
            predict_method(METHOD_FAIRTTTS, forest, X, spec, config, seed, stream_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return ([rows for rows, fits, _, _ in calls if fits],
            [rows for rows, fits, _, _ in calls if not fits], peak)


def frontier_levels(meter, forest, X, spec, config, seed, stream_ids):
    """The levels of the exact frontier in one Monte Carlo call of
    predict_method, and the seconds spent in traversal._pair_masses,
    calibrated by the slowdown around the call."""
    with pair_masses_calls() as calls, meter.sample() as t:
        predict_method(METHOD_FAIRTTTS, forest, X, spec, config, seed, stream_ids)
    return sum(call[2] for call in calls), sum(call[3] for call in calls) / t.slowdown


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


def exact_vs_monte_carlo(meter, dataset, protected, config):
    """Fold 0 of config's plan: seconds and rows/s of exact inference and
    of Monte Carlo on its test rows, how often their predictions agree, and
    the share of rows whose exact favorable chance Q lies within
    2 * sqrt(Q * (1 - Q) / S) of 0.5, where S simulations cannot tell the
    side. Returns the rows/s of fold 0's exact, Monte Carlo and vote runs,
    the calibrated seconds of model_io.dumps of its forest and of
    model_io.loads of that text (model_dumps, model_loads), and the text's MB."""
    plan = make_folds(dataset.n_rows, config.folds, stream_key(config.seed, _TAG_FOLDS))
    forest, train = fit_fold(dataset, plan, 0, config), plan.train_indices(0)
    _, fit_walk = calibrated(meter, lambda: tree.forest_votes_batch(forest, dataset.rows[train]))
    text, dumps_s = calibrated(meter, lambda: model_io.dumps(forest))
    _, loads_s = calibrated(meter, lambda: model_io.loads(text))
    model_mb = len(text) / 1e6
    del text
    print(f"fold 0 forest holds {node_array_mb(forest):.1f} MB of node arrays "
          f"({forest.feature.size:,} nodes); model_io.dumps {dumps_s:.2f}s, "
          f"loads {loads_s:.2f}s ({model_mb:.1f} MB)")
    test = plan.test_indices(0)
    X, spec = dataset.rows[test], FairnessSpec(protected_feature=protected)
    rates = {"votes": vote_rate(meter, forest, X)}
    print(f"fold 0 votes         predict_forest_batch {rates['votes']:,.0f} rows/s "
          f"on {len(X):,} test rows; the threshold fit's vote walk {fit_walk:.3f}s "
          f"on {train.size:,} train rows")
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
    engine, first = config.traversal_config(seed), forest.trees[0]
    for name, model in (("first tree", first), ("forest", forest)):
        route = "row walk" if model.feature.size <= traversal.MAX_LANES else "frontier"
        latency = one_row_latency(meter, model, X, spec, engine, test)
        print(f"fold 0 one-row predict_fair on the {name} ({model.feature.size:,} nodes, "
              f"{route}): median {latency * 1e3:.3f} ms of 200 calls")
        if name == "first tree":
            split = one_row_split(meter, model, X, spec, engine, test)
            print("fold 0 one-row predict_fair on the first tree, median split of 200 calls: "
                  + ", ".join(f"{part} {us:.1f} us" for part, us in split.items()))
    latency = exact_path_latency(meter, first, X, spec, engine)
    print(f"fold 0 exact_path_distribution on the first tree: median {latency * 1e6:.1f} us "
          f"a row over {len(X):,} test rows")
    q, S = out["exact"][1], config.n_simulations
    agree = float(np.mean(out["exact"][0] == out["monte carlo"][0]))
    noise = float(np.mean(np.abs(q - 0.5) <= 2 * np.sqrt(q * (1 - q) / S)))
    print(f"fold 0 predictions agree on {agree:.2%} of {len(X)} rows; "
          f"{noise:.2%} lie within 2*sqrt(Q(1-Q)/{S}) of 0.5")
    return rates, {"model_dumps": dumps_s, "model_loads": loads_s}, model_mb


def fixture_run(meter):
    """The fixture block: the synthetic fixture's full CLI run as one Meter
    sample around cli.main, its calibrated seconds (wall_s), and the stages
    of its timing.json summed over its folds and divided by that sample's
    slowdown."""
    argv = ["run", "--data", os.path.join(ROOT, FIXTURE), *FIXTURE_FLAGS]
    with tempfile.TemporaryDirectory() as out:
        with meter.sample() as t, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out-dir", out])
        if code:
            raise SystemExit(f"the fixture run exited {code}")
        with open(os.path.join(out, "timing.json"), encoding="utf-8") as fh:
            timing = json.load(fh)["seconds"]
    return {"command": " ".join(["fairtree run --data", FIXTURE, *FIXTURE_FLAGS]),
            "wall_s": t.seconds, "slowdown": t.slowdown,
            "stages_s": {stage: sum(folds) / t.slowdown for stage, folds in timing.items()}}


def write_record(path, record):
    """The stage record (see the module docstring) as JSON at path."""
    name = os.path.basename(path)
    label = name[len("BENCH_"):-len(".json")] if name.startswith("BENCH_") else name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": "fairtree-bench/1", "label": label, **record}, fh,
                  indent=2, sort_keys=True)
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
    fold0, model_io_s, model_mb = exact_vs_monte_carlo(meter, dataset, sex_index, config)
    runs, totals = [], {}  # each run's calibrated seconds by stage and fold
    for _ in range(RUNS):
        with meter.sample() as run:
            result = run_experiment_on(dataset, sex_index, "census_shaped", config)
        runs.append({stage: [s / run.slowdown for s in folds]
                     for stage, folds in result.timings.items()})
        print(f"5-fold run {len(runs)}: {run.seconds:.1f}s at slowdown {run.slowdown:.2f}")
        for stage, folds in runs[-1].items():
            totals.setdefault(stage, []).append(sum(folds))
    train = [statistics.median(fits) for fits in zip(*(r["train"] for r in runs))]
    for fold, fit in enumerate(train):
        print(f"fold {fold} forest fit {fit:.2f}s  {fit / config.n_trees:.3f} s per tree "
              f"(median of {RUNS} runs)")
    stages = {"load": load_s, **{stage: statistics.median(t) for stage, t in totals.items()},
              **model_io_s}
    spread = {stage: [min(t), max(t)] for stage, t in totals.items()}
    # as the report timings once counted them: baseline's take the test rows' vote walk
    inference = {m: stages[f"method.{m}"] + (stages["votes"] if m == METHOD_BASELINE else 0.0)
                 for m in config.methods}
    for method in config.methods:
        agg = result.aggregates[method]
        print(f"{method:<20} acc {agg['accuracy']['mean']:.4f}±{agg['accuracy']['std']:.4f}"
              f"  eod {agg['eod']['mean']:.4f}±{agg['eod']['std']:.4f}"
              f"  di {agg['di']['mean']:.4f}"
              f"  inference {inference[method]:.2f}s")
    print(f"stages (calibrated seconds over 5 folds, median [min-max] of {RUNS} runs): "
          + ", ".join(f"{stage} {total:.2f}" + (" [{:.2f}-{:.2f}]".format(*spread[stage])
                                                if stage in spread else "")
                      for stage, total in stages.items()))
    print(f"total of the stages {sum(stages.values()):.1f}s; machine slowdown median "
          f"{statistics.median(meter.slowdowns):.2f} over {len(meter.slowdowns)} samples")
    tables = ", ".join(f"{rows:,} x {columns}" for rows, columns in rankings)
    print(f"column rankings {len(rankings)} (tables of rows x columns: {tables})")
    fixture = fixture_run(meter)
    print(f"fixture: {fixture['command']}: {fixture['wall_s']:.2f}s; stages: " + ", ".join(
        f"{stage} {total:.3f}" for stage, total in fixture["stages_s"].items()))
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_rss_mb:.0f} MiB")
    if args.out:
        write_record(args.out, {
            "probe": {"rows": dataset.n_rows, "features": dataset.n_features,
                      "n_trees": config.n_trees, "folds": config.folds,
                      "n_simulations": config.n_simulations, "methods": list(config.methods)},
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            "nproc": len(os.sched_getaffinity(0)), "reference_s": REFERENCE_S},
            "stages_s": stages,
            "stages_s_range": spread,
            "runs": RUNS,
            "train_s_per_fold": train,
            "train_s_per_tree": [fit / config.n_trees for fit in train],
            "rows_per_s": {**{m: dataset.n_rows / inference[m] for m in config.methods},
                           **{f"fold0.{k}": v for k, v in fold0.items()}},
            "model_mb": model_mb,
            "peak_rss_mb": peak_rss_mb,
            "slowdown": {"samples": len(meter.slowdowns), "min": min(meter.slowdowns),
                         "median": statistics.median(meter.slowdowns),
                         "max": max(meter.slowdowns)},
            "fixture": fixture,
        })
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
