"""Typed trace events and the MPI call taxonomy of section IV-B.

The Profiler collects four types of MPI calls (paper, section IV-B):

1. **one-sided** — initialization, communication, and synchronization calls
   of the RMA interface;
2. **datatype** — derived-datatype constructors, needed to rebuild
   data-maps during preprocessing;
3. **sync** — two-sided and collective calls that order operations across
   processes (these become happens-before edges);
4. **support** — rank/group/communicator bookkeeping needed to resolve
   relative ranks.

Plus memory events: the load/store accesses of instrumented buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Union

import numpy as np

from repro.util.errors import TraceFormatError
from repro.util.location import SourceLocation, UNKNOWN_LOCATION
from repro.util.records import Record, decode_record, encode_record

CATEGORY_ONE_SIDED = "one_sided"
CATEGORY_DATATYPE = "datatype"
CATEGORY_SYNC = "sync"
CATEGORY_SUPPORT = "support"

ONE_SIDED_CALLS = frozenset({
    "Win_create", "Win_free", "Put", "Get", "Accumulate",
    "Win_fence", "Win_lock", "Win_unlock",
    "Win_post", "Win_start", "Win_complete", "Win_wait",
    # MPI-3 extensions (paper section V)
    "Get_accumulate", "Compare_and_swap",
    "Win_lock_all", "Win_unlock_all", "Win_flush", "Win_flush_all",
    "Rput", "Rget", "Raccumulate", "Rma_wait",
})

DATATYPE_CALLS = frozenset({
    "Type_contiguous", "Type_vector", "Type_indexed", "Type_struct",
})

SYNC_CALLS = frozenset({
    "Barrier", "Bcast", "Reduce", "Allreduce", "Scan", "Exscan",
    "Reduce_scatter",
    "Gather", "Allgather", "Scatter", "Alltoall",
    "Send", "Recv", "Isend", "Irecv", "Wait",
    # MPI-3 nonblocking collectives: initiation events; the
    # synchronization effect lands at the completing Wait
    "Ibarrier", "Ibcast",
})

SUPPORT_CALLS = frozenset({
    "Comm_rank", "Comm_size", "Comm_group", "Group_incl", "Group_excl",
    "Comm_dup", "Comm_split", "Comm_create",
})

#: Collective call names (matched by per-communicator slot order; MPI
#: requires a single initiation order per communicator, so nonblocking
#: initiations share the stream with blocking collectives).
COLLECTIVE_CALLS = frozenset({
    "Barrier", "Bcast", "Reduce", "Allreduce", "Scan", "Exscan",
    "Reduce_scatter", "Gather",
    "Allgather", "Scatter", "Alltoall",
    "Win_create", "Win_free", "Win_fence",
    "Comm_dup", "Comm_split", "Comm_create",
    "Ibarrier", "Ibcast",
})

#: Nonblocking collectives: the match's happens-before entry is the
#: initiation, its exit the per-rank completing Wait.
NB_COLLECTIVE_CALLS = frozenset({"Ibarrier", "Ibcast"})

#: Remote (window-targeting) one-sided communication calls.
RMA_COMM_CALLS = frozenset({"Put", "Get", "Accumulate", "Get_accumulate",
                            "Compare_and_swap",
                            "Rput", "Rget", "Raccumulate"})

_RMA_ARGS = ("win target origin_base origin_offset origin_count "
             "origin_dtype target_disp target_count target_dtype")

#: the arguments the analyzer reads unconditionally, per call kind
#: (``Wait`` depends on what it completes: :func:`check_call_args`)
REQUIRED_CALL_ARGS = {fn: tuple(keys.split()) for fns, keys in (
    ("Put Get Accumulate Get_accumulate Compare_and_swap", _RMA_ARGS),
    ("Rput Rget Raccumulate", _RMA_ARGS + " req"),
    ("Win_create", "win comm base size disp_unit"),
    ("Win_free Win_fence Win_lock_all Win_unlock_all Win_flush_all "
     "Win_complete Win_wait", "win"),
    ("Win_lock", "win target lock_type"),
    ("Win_unlock Win_flush", "win target"),
    ("Win_post Win_start", "win group"),
    ("Rma_wait", "win req"),
    ("Comm_split", "comm newcomm key"),
    ("Comm_dup", "comm newcomm"),
    ("Comm_create", "newcomm group"),
    ("Type_contiguous", "count oldtype"),
    ("Type_vector", "count blocklength stride oldtype"),
    ("Type_indexed", "blocklengths displacements oldtype"),
    ("Type_struct", "blocklengths displacements oldtypes"),
    ("Send Isend", "comm dest tag"),
    ("Recv", "comm source tag"),
    ("Ibarrier Ibcast", "req"),
    ("Bcast", "root"),
) for fn in fns.split()}

_INT = (int, np.integer)
_SEQ = (tuple, list)
#: the type each required argument must have (default: an int)
_ARG_TYPES = {"group": _SEQ, "blocklengths": _SEQ, "displacements": _SEQ,
              "oldtypes": _SEQ, "lock_type": str}


def check_call_args(rank: int, seq: int, fn: str,
                    args: Dict[str, Any]) -> None:
    """Raise :class:`TraceFormatError` unless every argument the analyzer
    reads from a ``fn`` call is present with its type, so its
    ``args[...]`` lookups cannot fail on a damaged record."""
    required = REQUIRED_CALL_ARGS.get(fn, ())
    if fn == "Wait":  # what it carries depends on what it completes
        kind = args.get("req_kind")
        required = (("req",) if kind == "icoll" else
                    ("comm", "source", "tag")
                    if kind == "irecv" and "source" in args else ())
    for key in required:
        if not isinstance(args.get(key), _ARG_TYPES.get(key, _INT)):
            problem = "lacks" if key not in args else "has a mistyped"
            raise TraceFormatError(f"rank {rank} seq {seq}: {fn} call "
                                   f"record {problem} argument {key!r}")


ACCESS_LOAD = "load"
ACCESS_STORE = "store"

#: numeric access codes used by the binary trace format's packed memory
#: blocks (see :data:`repro.profiler.tracer.MEM_DTYPE`)
ACCESS_CODES = {ACCESS_LOAD: 0, ACCESS_STORE: 1}
ACCESS_NAMES = (ACCESS_LOAD, ACCESS_STORE)


def call_category(fn: str) -> str:
    if fn in ONE_SIDED_CALLS:
        return CATEGORY_ONE_SIDED
    if fn in DATATYPE_CALLS:
        return CATEGORY_DATATYPE
    if fn in SYNC_CALLS:
        return CATEGORY_SYNC
    if fn in SUPPORT_CALLS:
        return CATEGORY_SUPPORT
    raise KeyError(f"unknown MPI call {fn!r}")


@dataclass
class CallEvent:
    """One intercepted MPI call at one rank."""

    rank: int
    seq: int
    fn: str
    args: Dict[str, Any] = field(default_factory=dict)
    loc: SourceLocation = UNKNOWN_LOCATION

    KIND = "C"

    @property
    def category(self) -> str:
        return call_category(self.fn)

    def encode(self) -> str:
        fields: Dict[str, Any] = {"seq": self.seq, "fn": self.fn,
                                  "loc": self.loc.encode()}
        fields.update(self.args)
        return encode_record(self.KIND, fields)

    @classmethod
    def from_record(cls, rank: int, rec: Record) -> "CallEvent":
        from repro.util.errors import TraceFormatError

        fields = dict(rec.fields)
        try:
            seq = int(fields.pop("seq"))
            fn = str(fields.pop("fn"))
            loc = SourceLocation.decode(str(fields.pop("loc")))
        except (KeyError, ValueError) as exc:
            raise TraceFormatError(
                f"malformed call event record: {exc}") from exc
        return cls(rank=rank, seq=seq, fn=fn, args=fields, loc=loc)


@dataclass
class MemEvent:
    """One instrumented load/store at one rank."""

    rank: int
    seq: int
    access: str  # "load" | "store"
    addr: int
    size: int
    var: str
    loc: SourceLocation = UNKNOWN_LOCATION

    KIND = "M"

    def encode(self) -> str:
        return encode_record(self.KIND, {
            "seq": self.seq, "a": self.access, "addr": self.addr,
            "size": self.size, "var": self.var, "loc": self.loc.encode(),
        })

    @classmethod
    def from_record(cls, rank: int, rec: Record) -> "MemEvent":
        return cls(
            rank=rank, seq=rec.get_int("seq"), access=rec.get_str("a"),
            addr=rec.get_int("addr"), size=rec.get_int("size"),
            var=rec.get_str("var"),
            loc=SourceLocation.decode(rec.get_str("loc")),
        )


Event = Union[CallEvent, MemEvent]


def decode_event(rank: int, line: str) -> Event:
    rec = decode_record(line)
    if rec.kind == CallEvent.KIND:
        return CallEvent.from_record(rank, rec)
    if rec.kind == MemEvent.KIND:
        return MemEvent.from_record(rank, rec)
    from repro.util.errors import TraceFormatError
    raise TraceFormatError(f"unknown record kind {rec.kind!r}")
