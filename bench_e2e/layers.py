"""Spans recorded from outside the program, around each layer's calls.

:class:`Spans` keeps every span in memory — name, start, end, parent,
and the program it belongs to — and writes them out, with self times,
when the benchmark ends.  :func:`wrapped_layers` times the DN-Analyzer
phases by replacing, for the duration of one check, the public functions
and classes that ``MCChecker._run_detect`` calls with timing wrappers;
the checker itself is unchanged, so the traced report must equal the
untraced one.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

from repro.core import checker

clock = time.perf_counter

#: analyzer phase -> the name ``MCChecker._run_detect`` calls it by
#: (serial route, sweep engine: the default configuration)
LAYER_CALLS = {
    "preprocess": "preprocess_calls",
    "matching": "match_synchronization",
    "clocks": "ConcurrencyOracle",
    "epochs": "EpochIndex",
    "model": "build_access_model_sweep",
    "regions": "RegionIndex",
    "intra": "detect_intra_epoch_sweep",
    "inter": "detect_cross_process_sweep",
}


@dataclass
class SpanRecord:
    id: int
    name: str
    program: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span log; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[SpanRecord] = []
        self.program = ""
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = SpanRecord(id=len(self.records), name=name,
                            program=self.program,
                            parent=self._open[-1] if self._open else None,
                            start=clock())
        self.records.append(record)
        self._open.append(record.id)
        try:
            yield
        finally:
            record.end = clock()
            self._open.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover."""
        own = [r.duration for r in self.records]
        for record in self.records:
            if record.parent is not None:
                own[record.parent] -= record.duration
        return own

    def dump(self, path: str) -> None:
        rows = []
        for record, own in zip(self.records, self.self_times()):
            row = asdict(record)
            row["self"] = own
            rows.append(row)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _timed(spans: Spans, name: str, fn):
    def wrapper(*args, **kwargs):
        with spans.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextmanager
def wrapped_layers(spans: Spans) -> Iterator[List[str]]:
    """Time every analyzer phase call as a ``core.<phase>`` span.

    Yields the phases whose call could not be found (their time then
    shows up as ``core.unattributed_s``)."""
    saved: Dict[str, object] = {}
    missing = []
    for phase, attr in LAYER_CALLS.items():
        fn = getattr(checker, attr, None)
        if fn is None:
            missing.append(phase)
            continue
        saved[attr] = fn
        setattr(checker, attr, _timed(spans, f"core.{phase}", fn))
    try:
        yield missing
    finally:
        for attr, fn in saved.items():
            setattr(checker, attr, fn)
