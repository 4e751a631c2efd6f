#!/usr/bin/env python3
"""fairtree benchmark: one workload, one process.

    python3 benchmark/run.py --workload census_fair --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``,
reads the metric names, units and directions from ``BENCHMARK.json``, and
writes working files under ``.bench_work/``, which it removes on exit.

With ``--trace 0`` rounds of the timed pass and the workload's probes
repeat until ``--seconds`` have elapsed (at least ``MIN_ROUNDS``), and the
end-to-end metrics are reported: each the median of its samples,
``setup_s`` the median over ``setup_repeats`` set-ups and ``peak_rss_mb``
the peak before the checks. Every timed sample is calibrated by the
machine's slowdown around it (reference.py), and rates are computed from
calibrated times; the details line gives the slowdowns seen. With
``--trace 1`` one
untraced and one traced pass run, and the per-layer metrics are reported:
self time of each module's spans over set-up and the traced pass, counters,
figures timed on their own, the tracing overhead (traced minus untraced
pass wall time) and the share of failed correctness checks.

The second-to-last stdout line is a details object (environment, sample
counts, quality and output digests; none of it gates). The last line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload, seconds: float, trace: bool, spec: dict):
    """Set up, measure, check; returns (metrics, checks, samples)."""
    from tracing import Tracer, patched
    from workloads import MIN_ROUNDS, PREDICT1_BLOCK, Checks

    tracer = Tracer(trace)
    setup_times = []
    for i in range(workload.setup_repeats):
        with workload.meter.sample() as t:
            workload.setup(tracer if i == workload.setup_repeats - 1 else Tracer(False))
        setup_times.append(t.seconds)
    samples = {"setups": len(setup_times), "setup_s": setup_times}

    if trace:
        untraced = workload.run_pass(Tracer(False))
        with patched(tracer):
            traced = workload.run_pass(tracer)
    else:
        taken = defaultdict(list)
        probes = [lambda: workload.run_pass(tracer)] + workload.probes()
        rounds = 0
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            for probe in probes:
                for name, values in probe().items():
                    taken[name].extend(values)
            rounds += 1
        peak_rss = _peak_rss_mib()

    checks = Checks()
    workload.check(checks)
    if trace:
        values = {f"{name}_s": s for name, s in tracer.self_times().items()}
        values.update(tracer.counters)
        values.update(workload.layer_metrics())
        values["cli.overhead_s"] = values.get("cli.run_s", 0.0)
        values["trace.overhead_s"] = traced["wall_s"][0] - untraced["wall_s"][0]
        values["fail_ratio"] = len(checks.failed) / checks.attempted
        samples["spans"] = len(tracer.spans)
        # a layer the workload bypasses has no span or counter: it reads 0
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"])
                   for m in spec["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss}
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in values:
                values[name] = statistics.median(taken[name])
                samples[name] = len(taken[name])
        slowdowns = workload.meter.slowdowns
        samples["rounds"] = rounds
        samples["predict1_calls"] = len(taken["predict1_p95_ms"]) * PREDICT1_BLOCK
        samples["slowdown"] = {"samples": len(slowdowns), "min": min(slowdowns),
                               "median": statistics.median(slowdowns), "max": max(slowdowns)}
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return metrics, checks, samples


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "fairtree")):
        print("benchmark: src/fairtree not found; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from reference import Meter
    from workloads import FIXTURE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload == "synthetic_cli" and not os.path.isfile(FIXTURE):
        print(f"benchmark: {FIXTURE} not found", file=sys.stderr)
        return 2
    # a terminated run still removes its working files (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, work, Meter(not args.trace))
    try:
        metrics, checks, samples = run(workload, args.seconds, bool(args.trace), spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy as np

    details = {
        "workload": args.workload,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "samples": samples,
        "failed_checks": checks.failed,
        **workload.details,
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
