"""Workload programs, ground truth, and the trace edit behind ``recheck_s``.

A :class:`Program` is one MPI program the benchmark profiles and checks:
an application of ``repro.apps`` (LU, heat2d, a Table II bug case) or a
``repro.gen`` generated program.  Each carries the answer the checker
did not compute — a clean program must report nothing, a Table II case
must be found with its root cause, a generated program must match its
manifest — so every timed run is scored against ground truth.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro import api
from repro.apps.heat2d import heat2d
from repro.apps.lu import lu
from repro.apps.registry import BUG_CASES, EXTRA_CASES, BugCase
from repro.gen import GenConfig
from repro.gen.generator import GeneratedProgram
from repro.gen.program import replay
from repro.profiler.events import MemEvent
from repro.profiler.session import ProfiledRun, baseline_run
from repro.profiler.tracer import (
    FORMAT_BINARY, TraceReader, TraceSet, TraceWriter,
)
from repro.stanalyzer import analyze_app

#: every program is traced in the binary v2 format
TRACE_FORMAT = FORMAT_BINARY

#: Table II cases run at no more than this many ranks (lockopts is a
#: 64-rank case in the paper; the race needs only a few)
CASE_RANK_CAP = 8


@dataclass(frozen=True)
class Expectation:
    """Ground truth for one program's report."""

    #: "clean" (no finding allowed), "case" (Table II root cause), or
    #: "manifest" (generator ground truth)
    kind: str
    case: Optional[BugCase] = None
    generated: Optional[GeneratedProgram] = None


@dataclass(frozen=True)
class Verdict:
    """A report scored against its :class:`Expectation`."""

    bugs: int          # known bugs in the program
    found: int         # known bugs with a matching finding
    findings: int      # findings reported
    attributed: int    # findings traced back to a known bug

    @property
    def ok(self) -> bool:
        if self.found != self.bugs:
            return False
        # a program with no known bug must report nothing
        return self.bugs > 0 or self.findings == 0


@dataclass
class Program:
    """One program of a workload, with how to run it and its answer."""

    name: str
    app: Callable
    nranks: int
    params: Dict[str, Any]
    #: profiler scope: "report" runs ST-Analyzer on the app's module,
    #: "all" instruments every buffer (generated programs)
    scope: str
    seed: int
    expect: Expectation

    def prepare(self) -> None:
        """Build the program's static input again: the ``repro.gen``
        program for a generated one, ST-Analyzer's report for an app."""
        if self.expect.generated is not None:
            api.generate(self.expect.generated.config)
        elif self.scope == "report":
            analyze_app(self.app)

    def produce(self, trace_dir: str) -> ProfiledRun:
        return api.run(self.app, self.nranks, trace_dir=trace_dir,
                       params=self.params, scope=self.scope,
                       seed=self.seed, trace_format=TRACE_FORMAT,
                       app_name=self.name)

    def native(self) -> float:
        """Unprofiled wall time of the same program (Figure 8's native arm)."""
        return baseline_run(self.app, self.nranks, params=self.params,
                            seed=self.seed)

    def score(self, report) -> Verdict:
        findings = report.findings
        if self.expect.kind == "clean":
            return Verdict(bugs=0, found=0, findings=len(findings),
                           attributed=0)
        if self.expect.kind == "manifest":
            score = api.score(report, self.expect.generated)
            return Verdict(bugs=score.nbugs,
                           found=score.nbugs - len(score.missed),
                           findings=score.nfindings,
                           attributed=(score.nfindings
                                       - len(score.unmatched_findings)))
        case = self.expect.case
        causal = [f for f in findings
                  if {f.a.kind, f.b.kind} <= case.root_cause]
        principal = any(f.severity == case.expected_severity
                        for f in causal)
        return Verdict(bugs=1, found=int(principal),
                       findings=len(findings), attributed=len(causal))


def canonical_report(report) -> str:
    """Byte-comparable report: everything but the timings."""
    payload = report.to_dict()
    payload["stats"].pop("phase_seconds", None)
    return json.dumps(payload, sort_keys=True)


def trace_bytes(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory)
               if entry.is_file())


def edit_one_mem_event(src_dir: str, out_dir: str) -> int:
    """Copy a trace set, moving one late load/store of one rank by its
    own size — the change a recompiled kernel or a shifted allocation
    makes.  Returns the edited rank.

    The rank is the middle one that has any load/store; the event is the
    one three quarters of the way through that rank's loads/stores.
    """
    shutil.copytree(src_dir, out_dir)
    traces = TraceSet(out_dir)
    nranks = traces.nranks
    order = list(range(nranks // 2, nranks)) + list(range(nranks // 2))
    for rank in order:
        path = TraceSet.rank_path(out_dir, rank, TRACE_FORMAT)
        with TraceReader(path) as reader:
            header, events = reader.header, reader.events()
        mems = [i for i, ev in enumerate(events) if isinstance(ev, MemEvent)]
        if not mems:
            continue
        target = mems[(3 * len(mems)) // 4]
        event = events[target]
        events[target] = dataclasses.replace(event,
                                             addr=event.addr + event.size)
        with TraceWriter(path, rank, header.nranks, app=header.app,
                         format=TRACE_FORMAT) as writer:
            for ev in events:
                writer.write(ev)
        return rank
    raise ValueError(f"{src_dir}: no load/store event to edit")


# -- workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named set of programs and why it is in the benchmark."""

    name: str
    why: str
    build: Callable[[int, str], List[Program]]
    #: a smaller instance of the same application that the streaming
    #: route checks in place of the workload's programs (None: the
    #: streaming route checks every program itself)
    probe: Optional[Callable[[int, str], Program]] = None


#: sizes per scale: "full" is what the benchmark measures, "smoke" is
#: the tiny configuration its own tests run
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"lu": {"nranks": 16, "n": 128},
             "lu-probe": {"nranks": 16, "n": 32},
             "heat2d": {"nranks": 8, "rows": 64, "cols": 16, "steps": 80},
             "heat2d-probe": {"nranks": 8, "rows": 64, "cols": 16,
                              "steps": 40},
             "corpus": {"generated": 88, "nranks": 8, "rounds": 4,
                        "ops_per_round": 4, "bugs": 3, "cases": None}},
    "smoke": {"lu": {"nranks": 4, "n": 16},
              "lu-probe": {"nranks": 4, "n": 8},
              "heat2d": {"nranks": 4, "rows": 16, "cols": 8, "steps": 4},
              "heat2d-probe": {"nranks": 4, "rows": 16, "cols": 8,
                               "steps": 2},
              "corpus": {"generated": 3, "nranks": 4, "rounds": 2,
                         "ops_per_round": 2, "bugs": 1,
                         "cases": ("emulate", "jacobi")}},
}


def _lu_program(seed: int, scale: str, key: str) -> Program:
    size = SIZES[scale][key]
    return Program(key, lu, size["nranks"], {"n": size["n"]}, "report",
                   seed, Expectation("clean"))


def _heat2d_program(seed: int, scale: str, key: str) -> Program:
    size = SIZES[scale][key]
    params = {k: size[k] for k in ("rows", "cols", "steps")}
    return Program(key, heat2d, size["nranks"], params, "report", seed,
                   Expectation("clean"))


def _lu(seed: int, scale: str) -> List[Program]:
    return [_lu_program(seed, scale, "lu")]


def _lu_probe(seed: int, scale: str) -> Program:
    return _lu_program(seed, scale, "lu-probe")


def _heat2d(seed: int, scale: str) -> List[Program]:
    return [_heat2d_program(seed, scale, "heat2d")]


def _heat2d_probe(seed: int, scale: str) -> Program:
    return _heat2d_program(seed, scale, "heat2d-probe")


def generate_corpus(seed: int, scale: str) -> List[GeneratedProgram]:
    """The seeded ``repro.gen`` programs of the corpus workload."""
    size = SIZES[scale]["corpus"]
    base = GenConfig(nranks=size["nranks"], rounds=size["rounds"],
                     ops_per_round=size["ops_per_round"],
                     bugs=("any",) * size["bugs"],
                     trace_format=TRACE_FORMAT)
    return [api.generate(base, seed=seed * 1000 + i)
            for i in range(size["generated"])]


def _corpus(seed: int, scale: str) -> List[Program]:
    programs = []
    for generated in generate_corpus(seed, scale):
        cfg = generated.config
        programs.append(Program(
            f"gen-{cfg.seed}", replay, cfg.nranks,
            {"spec": generated.program}, "all", cfg.seed,
            Expectation("manifest", generated=generated)))
    wanted = SIZES[scale]["corpus"]["cases"]
    for case in BUG_CASES + EXTRA_CASES:
        if wanted is not None and case.name not in wanted:
            continue
        nranks = min(case.nranks, CASE_RANK_CAP)
        programs.append(Program(f"{case.name}-buggy", case.app, nranks,
                                case.params(True), "report", seed,
                                Expectation("case", case=case)))
        programs.append(Program(f"{case.name}-fixed", case.app, nranks,
                                case.params(False), "report", seed,
                                Expectation("clean")))
    return programs


def warmup_program() -> Program:
    """A tiny clean program that walks every route once during set-up,
    so lazy imports and first-use costs stay out of the timed rounds."""
    return _lu(0, "smoke")[0]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("lu", "16-rank LU: load-heavy data plane with fence-only "
             "sync, where lift (model) and inter dominate the check",
             _lu, _lu_probe),
    Workload("heat2d", "sync-dense 8-rank heat2d: many RMA puts and "
             "regions make inter dominate, lift is small, and the "
             "producer is handoff-bound", _heat2d, _heat2d_probe),
    Workload("corpus", "many small generated programs plus the Table II "
             "cases: fixed per-run costs dominate and ground-truth "
             "recall is scored", _corpus),
)}


def sizes_of(programs: List[Program], reports: Dict[str, Any]
             ) -> Dict[str, Any]:
    """Workload size provenance from one round's batch reports."""
    totals = {"programs": len(programs), "ranks": 0, "events": 0,
              "rma_ops": 0, "regions": 0, "epochs": 0}
    for program in programs:
        stats = reports[program.name].stats
        totals["ranks"] = max(totals["ranks"], program.nranks)
        for key in ("events", "rma_ops", "regions", "epochs"):
            totals[key] += getattr(stats, key)
    return totals

