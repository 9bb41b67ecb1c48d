"""One program through every route of the pipeline, timed and checked.

Each program is run the way ``mc-checker run-check`` runs it — profile,
batch check, RunReport, ledger append, under an enabled recorder — and
then checked again under every other route of ``api.check``: ``jobs=2``,
streaming, incremental with an empty cache, and incremental with a warm
cache after one load/store of one rank was edited.  Every route's report
must equal the batch report (the recheck must equal a batch check of the
edited traces), the traces must be byte-identical across rounds, and the
batch report must match the program's ground truth.  The edited copy and
its reference report are made once, in the program's first round.  A
failure is counted, never retried.

The streaming route grows with regions × epochs, so a workload of large
programs gives the runner a *stream probe*: a smaller instance of the
same application, profiled once by :meth:`Runner.prepare_probe`, which
the streaming route then checks in place of each program.

With tracing on, the same run also times the program's static input and
its unprofiled native run, times each analyzer phase of the batch check
through :func:`layers.wrapped_layers`, repeats the batch check untraced
(the two reports must be equal), and reads the per-layer counts out of
each route's RunReport.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import api, obs
from repro.core.config import CheckConfig
from repro.obs.ledger import RunLedger
from repro.obs.report import build_run_report

from layers import Spans, wrapped_layers
from programs import (
    Program, Verdict, canonical_report, edit_one_mem_event, trace_bytes,
)

clock = time.perf_counter

_CAL_KEYS = list(range(10000))
_CAL_ARRAY = np.random.default_rng(7).random(50000)


def calibrate() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes now — a
    reading of the host's speed that no code under test can change.
    The garbage collector is off meanwhile, so the size of the
    program's heap does not show."""
    gc.disable()
    try:
        t0 = clock()
        table = {}
        for key in _CAL_KEYS:
            table[key ^ 0x55] = key * 3
        sorted(table.items(), key=lambda item: item[1] % 97)
        order = np.argsort(_CAL_ARRAY, kind="stable")
        np.searchsorted(np.cumsum(_CAL_ARRAY[order]), 0.5 * order[:500])
        return clock() - t0
    finally:
        gc.enable()

JOBS = 2
BATCH = CheckConfig()
PARALLEL = CheckConfig(jobs=JOBS)
STREAM = CheckConfig(streaming=True)


def recording():
    """A fresh enabled recorder, as the CLI's check/run-check use."""
    return obs.session(obs.ObsConfig(enabled=True))


@dataclass
class ProgramRun:
    """One program's timings, counts and checks from one round."""

    name: str
    seconds: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    verdict: Optional[Verdict] = None
    digests: Dict[str, str] = field(default_factory=dict)
    report: object = None

    @property
    def ok(self) -> bool:
        return (not self.errors and self.verdict is not None
                and self.verdict.ok)


class Runner:
    """Runs programs round after round, sharing ledger, spans and the
    trace digests every later round must reproduce."""

    def __init__(self, workdir: str, spans: Spans,
                 probe: Optional[Program] = None):
        self.workdir = workdir
        self.spans = spans
        self.ledger = RunLedger(os.path.join(workdir, "ledger"))
        self.digests: Dict[str, Dict[str, str]] = {}
        self.missing_layers: List[str] = []
        self.edited: Dict[str, Tuple[str, str]] = {}
        self.probe = probe
        self.calibration: List[float] = []
        #: the stream probe's traces and canonical batch report
        self.probe_traces = None
        self.probe_reference = ""

    def prepare_probe(self) -> None:
        """Profile the stream probe and check it once in batch, the
        reference every streaming check of it must equal."""
        if self.probe is None:
            return
        trace_dir = os.path.join(self.workdir, "probe", self.probe.name)
        self.probe_traces = self.probe.produce(trace_dir).traces
        report = api.check(self.probe_traces)
        verdict = self.probe.score(report)
        if not verdict.ok:
            raise RuntimeError(f"stream probe {self.probe.name}: report "
                               "does not match its ground truth")
        self.probe_reference = canonical_report(report)

    def run(self, program: Program, round_index: int) -> ProgramRun:
        result = ProgramRun(program.name)
        base = os.path.join(self.workdir, "runs", program.name)
        self.spans.program = f"{program.name}#{round_index}"
        try:
            with self.spans.span("program"):
                self._routes(program, base, result)
            known = self.digests.setdefault(program.name, result.digests)
            if known != result.digests:
                result.errors.append("traces differ from an earlier round")
        except Exception:  # noqa: BLE001 - a crash fails this program only
            result.errors.append(traceback.format_exc())
        finally:
            shutil.rmtree(base, ignore_errors=True)
        for error in result.errors:
            print(f"[bench_e2e] {program.name}: {error}", file=sys.stderr)
        return result

    # -- the routes ----------------------------------------------------

    def _timed_check(self, result: ProgramRun, route: str, traces,
                     config: CheckConfig):
        """One recorded ``api.check``; returns the report and, when
        tracing, its RunReport (built after the clock stopped)."""
        self.calibration.append(calibrate())
        with recording():
            with self.spans.span(f"check.{route}"):
                t0 = clock()
                report = api.check(traces, config)
                result.seconds[route] = clock() - t0
            flight = (build_run_report(report, config, traces=None)
                      if self.spans.enabled else None)
        return report, flight

    def _same(self, result: ProgramRun, route: str, report,
              want: str) -> None:
        if canonical_report(report) != want:
            result.errors.append(f"{route} report differs from batch")

    def _routes(self, program: Program, base: str,
                result: ProgramRun) -> None:
        secs, spans, tracing = result.seconds, self.spans, self.spans.enabled
        trace_dir = os.path.join(base, "traces")
        if tracing:
            with spans.span("gen.generate"):
                t0 = clock()
                program.prepare()
                secs["generate"] = clock() - t0
            with spans.span("simmpi.native"):
                secs["native"] = program.native()

        # the run-check path: its wall time is one verdict
        self.calibration.append(calibrate())
        with recording():
            with spans.span("verdict"):
                t0 = clock()
                with spans.span("profiler.produce"):
                    profiled = program.produce(trace_dir)
                t1 = clock()
                with spans.span("check.batch"):
                    report = self._batch_check(profiled.traces, result)
                t2 = clock()
                with spans.span("obs.report"):
                    flight = build_run_report(report, BATCH,
                                              traces=profiled.traces,
                                              app=program.name)
                t3 = clock()
                with spans.span("obs.ledger"):
                    self.ledger.append(flight)
                t4 = clock()
        secs.update(produce=t1 - t0, check=t2 - t1, report=t3 - t2,
                    ledger=t4 - t3, verdict=t4 - t0)
        result.report = report
        result.digests = dict(flight.trace_digests)
        result.counts["trace_bytes"] = trace_bytes(trace_dir)
        result.verdict = program.score(report)
        want = canonical_report(report)

        if tracing:
            untraced, _ = self._timed_check(result, "check_untraced",
                                            profiled.traces, BATCH)
            self._same(result, "untraced batch", untraced, want)
            self._count_batch(result, profiled, report, flight)

        got, flight = self._timed_check(result, "check_jobs2",
                                        profiled.traces, PARALLEL)
        self._same(result, "jobs=2", got, want)
        if tracing:
            self._count_workers(result, flight)

        if self.probe is None:
            got, _ = self._timed_check(result, "check_stream",
                                       profiled.traces, STREAM)
            self._same(result, "streaming", got, want)
        else:
            got, _ = self._timed_check(result, "check_stream",
                                       self.probe_traces, STREAM)
            self._same(result, "streaming probe", got,
                       self.probe_reference)

        incremental = CheckConfig(incremental=True,
                                  cache_dir=os.path.join(base, "cache"))
        got, flight = self._timed_check(result, "check_cold",
                                        profiled.traces, incremental)
        self._same(result, "incremental cold", got, want)
        if tracing:
            result.counts["shards"] = sum(
                flight.cache.get("shards", {}).values())

        edited, reference = self._edited(program.name, trace_dir)
        got, flight = self._timed_check(result, "recheck", edited,
                                        incremental)
        if tracing:
            shards = flight.cache.get("shards", {})
            result.counts["recheck_lookups"] = sum(shards.values())
            result.counts["recheck_hits"] = shards.get("hit", 0)
        self._same(result, "recheck", got, reference)

    def _edited(self, name: str, trace_dir: str):
        """The program's edited trace copy and the canonical batch report
        of it, made in the first round (the traces of later rounds are
        checked to be byte-identical, so one copy serves every round)."""
        if name not in self.edited:
            edited = os.path.join(self.workdir, "edited", name)
            with self.spans.span("edit"):
                edit_one_mem_event(trace_dir, edited)
            with self.spans.span("check.reference"):
                reference = canonical_report(api.check(edited))
            self.edited[name] = (edited, reference)
        return self.edited[name]

    def _batch_check(self, traces, result: ProgramRun):
        if not self.spans.enabled:
            return api.check(traces)
        first = len(self.spans.records)
        with wrapped_layers(self.spans) as missing:
            report = api.check(traces)
        for phase in missing:
            if phase not in self.missing_layers:
                self.missing_layers.append(phase)
        for record in self.spans.records[first:]:
            if record.name.startswith("core."):
                key = record.name
                result.seconds[key] = (result.seconds.get(key, 0.0)
                                       + record.duration)
        return report

    # -- per-layer counts (tracing only) -------------------------------

    @staticmethod
    def _count_batch(result: ProgramRun, profiled, report, flight) -> None:
        stats = report.stats
        counts = result.counts
        counts["events"] = profiled.events_written
        counts["preprocess_rows"] = stats.events
        counts["matches"] = stats.sync_matches
        counts["epochs"] = stats.epochs
        counts["regions"] = stats.regions
        counts["model_rows_in"] = profiled.traces.event_counts()["mem"]
        counts["model_rows_out"] = stats.rma_ops + stats.local_accesses
        counts["findings"] = len(report.findings)
        counts["inter_findings"] = sum(
            1 for f in report.findings if f.kind == "cross_process")
        counts["inter_candidates"] = sum(
            n for stage, n in flight.funnel.items()
            if stage.startswith("inter/"))

    @staticmethod
    def _count_workers(result: ProgramRun, flight) -> None:
        workers = flight.workers
        result.seconds["worker_busy"] = sum(
            entry["busy_seconds"]
            for entry in workers.get("pids", {}).values())
        result.counts["pickled_bytes"] = sum(
            n for kinds in workers.get("pickled_bytes", {}).values()
            for n in kinds.values())
        result.counts["shm_bytes"] = sum(
            workers.get("shm_bytes", {}).values())

