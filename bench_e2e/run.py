#!/usr/bin/env python3
"""End-to-end benchmark of the trace-to-report pipeline.

    python3 bench_e2e/run.py --workload {lu,heat2d,corpus} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up generates the workload's
programs from ``--seed``, starts the ``jobs=2`` worker pool, pins this
process to one CPU, walks a tiny program through every route and
profiles the workload's stream probe; it is repeated and timed as the
median.  Then rounds of the whole workload run until ``--seconds`` is
spent.  Each round profiles every program and
checks it under every route (see ``pipeline.py``), checking every
report.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a run with spans around each layer call.  The last
line of standard output is the JSON result; the line before it is the
run's provenance.  Details, and the spans of a traced run, are written
to ``bench_e2e/.work/``.  See README.md for the metric catalogue.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: end-to-end metrics (``--trace 0``) and their units
E2E_UNITS = {
    "setup_s": "s", "produce_s": "s", "check_s": "s",
    "check_jobs2_s": "s", "check_stream_s": "s", "check_cold_s": "s",
    "recheck_s": "s", "verdict_p50_s": "s", "verdict_p90_s": "s",
    "recall": "ratio", "precision": "ratio", "ok_rate": "ratio",
    "trace_mb": "MB", "peak_rss_mb": "MB",
}

#: analyzer phases, in pipeline order
PHASES = ("preprocess", "matching", "clocks", "epochs", "model", "regions",
          "intra", "inter")

#: per-layer metrics (``--trace 1``) and their units
LAYER_UNITS = {
    "gen.generate_s": "s", "simmpi.native_s": "s",
    "profiler.overhead_s": "s", "profiler.events": "count",
    "profiler.events_per_s": "1/s", "profiler.bytes": "bytes",
    **{f"core.{phase}_s": "s" for phase in PHASES},
    "core.preprocess_rows": "count", "core.preprocess_rows_per_s": "1/s",
    "core.matching_out": "count", "core.epochs_out": "count",
    "core.regions_out": "count", "core.model_rows_in": "count",
    "core.model_rows_out": "count", "core.model_rows_per_s": "1/s",
    "core.findings": "count", "core.inter_pair_survival": "ratio",
    "core.unattributed_s": "s",
    "parallel.worker_busy_ratio": "ratio", "parallel.pickled_bytes": "bytes",
    "parallel.shm_bytes": "bytes",
    "incremental.shards": "count", "incremental.recheck_hit_ratio": "ratio",
    "streaming.check_s": "s", "obs.report_s": "s", "obs.ledger_s": "s",
    "trace.check_traced_s": "s", "trace.check_untraced_s": "s",
    "trace.overhead_s": "s", "host.calibration_s": "s",
}

#: set-up is repeated this many times and reported as the median
SETUP_REPEATS = 5

#: :func:`pipeline.calibrate` on the unloaded baseline host.  Every
#: time a run reports is its measured time × this ÷ the run's mean
#: calibration: seconds at the host's unloaded speed.  Other tenants
#: slow the whole 2-CPU host by up to 1.8× for seconds to minutes, and
#: the calibration, taken before every timed interval, slows with it.
REFERENCE_CALIBRATION_S = 0.010


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lu", "heat2d", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the benchmark's "
                             "own tests")
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mean_sum(rounds, key: str) -> float:
    """Sum over programs of each program's mean ``key`` time across the
    run's rounds (a one-round run sums single times).

    The mean, not the median: the host runs either fast or about 1.7×
    slower for a second or more at a time, so repeats of one interval
    fall into two groups.  The mean moves in proportion to the share of
    slow repeats, which the mean calibration measures and the host-speed
    factor takes out; the median jumps from one group to the other when
    that share crosses one half."""
    times: dict = {}
    for runs in rounds:
        for run in runs:
            if key in run.seconds:
                times.setdefault(run.name, []).append(run.seconds[key])
    return sum(statistics.fmean(samples) for samples in times.values())


def quantile(values, n: int) -> float:
    """The highest of the ``n``-quantiles, interpolated inside the
    sample range (one sample is its own quantile)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[-1]


def e2e_metrics(rounds, setup_s: float) -> dict:
    runs = [run for runs in rounds for run in runs]
    # per-program time to a verdict, a distribution over programs: one
    # point (the mean over rounds) for a one-program workload
    by_program: dict = {}
    for run in runs:
        if "verdict" in run.seconds:
            by_program.setdefault(run.name, []).append(run.seconds["verdict"])
    verdicts = sorted(statistics.fmean(v) for v in by_program.values())
    scored = [run.verdict for run in runs if run.verdict is not None]
    bugs = sum(v.bugs for v in scored)
    findings = sum(v.findings for v in scored)
    return {
        "setup_s": setup_s,
        "produce_s": mean_sum(rounds, "produce"),
        "check_s": mean_sum(rounds, "check"),
        "check_jobs2_s": mean_sum(rounds, "check_jobs2"),
        "check_stream_s": mean_sum(rounds, "check_stream"),
        "check_cold_s": mean_sum(rounds, "check_cold"),
        "recheck_s": mean_sum(rounds, "recheck"),
        "verdict_p50_s": _median(verdicts),
        "verdict_p90_s": quantile(verdicts, 10),
        "recall": (sum(v.found for v in scored) / bugs) if bugs else 1.0,
        "precision": (sum(v.attributed for v in scored) / findings
                      if findings else 1.0),
        "ok_rate": sum(run.ok for run in runs) / len(runs),
        "trace_mb": sum(run.counts.get("trace_bytes", 0)
                        for run in rounds[-1]) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(rounds, jobs: int) -> dict:
    """Per-layer metrics of one round: the round whose traced batch
    check (summed over programs) is the median, so the phases, the
    unattributed rest and the check time add up exactly."""
    per_round = []
    for runs in rounds:
        def s(key):
            return sum(run.seconds.get(key, 0.0) for run in runs)

        def c(key):
            return sum(run.counts.get(key, 0) for run in runs)

        phase = {p: s(f"core.{p}") for p in PHASES}
        per_round.append({
            "gen.generate_s": s("generate"),
            "simmpi.native_s": s("native"),
            "profiler.overhead_s": s("produce") - s("native"),
            "profiler.events": c("events"),
            "profiler.events_per_s": _ratio(c("events"), s("produce")),
            "profiler.bytes": c("trace_bytes"),
            **{f"core.{p}_s": phase[p] for p in PHASES},
            "core.preprocess_rows": c("preprocess_rows"),
            "core.preprocess_rows_per_s": _ratio(c("preprocess_rows"),
                                                 phase["preprocess"]),
            "core.matching_out": c("matches"),
            "core.epochs_out": c("epochs"),
            "core.regions_out": c("regions"),
            "core.model_rows_in": c("model_rows_in"),
            "core.model_rows_out": c("model_rows_out"),
            "core.model_rows_per_s": _ratio(c("model_rows_out"),
                                            phase["model"]),
            "core.findings": c("findings"),
            "core.inter_pair_survival": _ratio(c("inter_findings"),
                                               c("inter_candidates")),
            "core.unattributed_s": s("check") - sum(phase.values()),
            "parallel.worker_busy_ratio": _ratio(
                s("worker_busy"), jobs * s("check_jobs2")),
            "parallel.pickled_bytes": c("pickled_bytes"),
            "parallel.shm_bytes": c("shm_bytes"),
            "incremental.shards": c("shards"),
            "incremental.recheck_hit_ratio": _ratio(c("recheck_hits"),
                                                    c("recheck_lookups")),
            "streaming.check_s": s("check_stream"),
            "obs.report_s": s("report"),
            "obs.ledger_s": s("ledger"),
            "trace.check_traced_s": s("check"),
            "trace.check_untraced_s": s("check_untraced"),
            "trace.overhead_s": s("check") - s("check_untraced"),
        })
    by_check = sorted(per_round, key=lambda m: m["trace.check_traced_s"])
    return by_check[(len(by_check) - 1) // 2]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    import numpy
    from repro.core.parallel import start_method
    return {"cpus": os.cpu_count(), "start_method": start_method(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def pin_main_process() -> int:
    """Keep this process — and the simulator's rank threads it starts —
    on one CPU.  Rank threads hand a token to each other on every
    simulated call; spread over two vCPUs, each handoff may wake an idle
    vCPU, and how long that takes depends on the host's other tenants
    (profiled runs vary 2× unpinned).  The worker pool keeps every CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def restart_pool(cpus) -> None:
    """Start a fresh ``jobs=2`` pool whose workers may use ``cpus``."""
    from repro import api
    from repro.core.parallel import acquire_pool
    from pipeline import JOBS
    api.shutdown_pools()
    os.sched_setaffinity(0, cpus)
    acquire_pool(JOBS)


def stop_processes() -> None:
    """End the worker pool and the shared-memory resource tracker, and
    wait for every child process."""
    from repro import api
    api.shutdown_pools()
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"bench_e2e: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    sys.path.insert(0, SRC)
    try:
        return _bench(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, tag: str, workdir: str) -> int:
    from repro import api  # noqa: F401 - part of the timed imports

    from layers import Spans
    from pipeline import JOBS, Runner
    from programs import WORKLOADS, sizes_of, warmup_program
    imported = time.perf_counter() - _STARTED

    workload = WORKLOADS[args.workload]
    spans = Spans(enabled=bool(args.trace))
    all_cpus = os.sched_getaffinity(0)
    setups = []
    try:
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            programs = workload.build(args.seed, args.scale)
            probe = (workload.probe(args.seed, args.scale)
                     if workload.probe else None)
            restart_pool(all_cpus)
            cpu = pin_main_process()
            warm = Runner(os.path.join(workdir, f"warmup{i}"), Spans(False))
            warm.run(warmup_program(), 0)
            runner = Runner(os.path.join(workdir, f"run{i}"), spans, probe)
            runner.prepare_probe()
            setups.append(time.perf_counter() - t0)

        rounds = []
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            rounds.append([runner.run(program, len(rounds))
                           for program in programs])
            took = time.perf_counter() - t0
            if time.perf_counter() + took > deadline:
                break
    finally:
        stop_processes()

    runs = [run for runs in rounds for run in runs]
    raw_rounds = [{run.name: dict(run.seconds) for run in round_runs}
                  for round_runs in rounds]
    calibration = statistics.fmean(runner.calibration)
    speed = REFERENCE_CALIBRATION_S / calibration
    for run in runs:
        run.seconds = {key: value * speed
                       for key, value in run.seconds.items()}
    setup_s = (imported + statistics.median(setups)) * speed
    failed = sum(not run.ok for run in runs)
    if args.trace:
        values = layer_metrics(rounds, JOBS)
        values["host.calibration_s"] = calibration
        units = LAYER_UNITS
    else:
        values = e2e_metrics(rounds, setup_s)
        units = E2E_UNITS
    reports = {run.name: run.report for run in rounds[-1]
               if run.report is not None}
    provenance = {
        "machine": machine(),
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "scale": args.scale, "seconds": args.seconds, "trace": args.trace,
        "sizes": (sizes_of(programs, reports)
                  if len(reports) == len(programs) else None),
        "rounds": len(rounds), "verdict_samples": len(runs),
        "stream_probe": probe.name if probe else None,
        "pinned_cpu": cpu,
        "setup": {"import_s": imported, "repeats_s": setups},
        "host": {"calibration_s": calibration,
                 "calibrations": len(runner.calibration),
                 "speed_factor": speed},
        "missing_layers": runner.missing_layers,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "result": result,
                   "raw_rounds": raw_rounds,
                   "calibration": runner.calibration,
                   "failures": {run.name: run.errors for run in runs
                                if run.errors}}, fh, indent=1)
    if args.trace:
        spans.dump(os.path.join(WORK, f"{tag}.spans.json"))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
