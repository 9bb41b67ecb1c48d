"""Per-rank trace files: buffered writers, readers, and the TraceSet handle.

Each rank logs to its own file, independently — the property the paper
credits for the Profiler's scalability (section VII-B: "Profiler logs the
runtime events into the local disk independently for each process").

Two on-disk formats (see ``docs/trace-format.md``):

* **text (v1)** — ``trace.<rank>.log``, one self-describing record per
  line (the seed format, still the default);
* **binary (v2)** — ``trace.<rank>.bin``, where call events remain
  self-describing records but memory events — the bulk of a compute-heavy
  trace (Figure 10) — are packed into columnar numpy blocks, with a
  footer carrying exact per-class event counts and a string table for
  buffer names / source locations.  The reader memory-maps the file and
  exposes the blocks directly (:meth:`TraceReader.mem_blocks`), so the
  analyzer ingests load/store events without constructing one Python
  object per event.

Readers sniff the format per file; every consumer-facing API
(:meth:`TraceReader.__iter__`, :meth:`TraceReader.stream`, ...) behaves
identically over both formats.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.profiler.events import (
    ACCESS_CODES, ACCESS_NAMES, CallEvent, Event, MemEvent, decode_event,
)
from repro.util.errors import TraceFormatError
from repro.util.hashing import hash_file, hash_strings, stable_hash
from repro.util.location import SourceLocation, UNKNOWN_LOCATION
from repro.util.records import decode_record, encode_record, encode_value

TRACE_VERSION = 1        # text (v1) format version
BINARY_VERSION = 2       # binary (v2) format version

FORMAT_TEXT = "text"
FORMAT_BINARY = "binary"
FORMATS = (FORMAT_TEXT, FORMAT_BINARY)

_FLUSH_EVERY = 4096      # buffered events between writes / per mem block

#: v2 framing constants
_MAGIC = b"MCT2"         # file magic (doubles as the format sniff)
_END_MAGIC = b"MCT2TRLR"  # trailer magic; absent => unclosed/truncated
_TRAILER_LEN = 8 + len(_END_MAGIC)  # u64 footer offset + end magic
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: columnar layout of one packed memory event (33 bytes, little-endian):
#: ``var``/``loc`` index the footer string table, ``access`` is an
#: :data:`~repro.profiler.events.ACCESS_CODES` code.
MEM_DTYPE = np.dtype([("seq", "<i8"), ("addr", "<i8"), ("size", "<i8"),
                      ("var", "<i4"), ("loc", "<i4"), ("access", "u1")])


class _StringTable:
    """Interned strings shared by every mem block of one trace file.

    Holds buffer names and encoded source locations; locations are
    decoded to :class:`SourceLocation` lazily and cached, so a location
    string is parsed once per file instead of once per event.
    """

    __slots__ = ("strings", "_ids", "_locs")

    def __init__(self, strings: Optional[List[str]] = None):
        self.strings: List[str] = list(strings or ())
        self._ids: Dict[str, int] = {s: i for i, s in
                                     enumerate(self.strings)}
        self._locs: List[Optional[SourceLocation]] = [None] * len(
            self.strings)

    def intern(self, text: str) -> int:
        sid = self._ids.get(text)
        if sid is None:
            sid = self._ids[text] = len(self.strings)
            self.strings.append(text)
            self._locs.append(None)
        return sid

    def string(self, sid: int) -> str:
        try:
            return self.strings[sid]
        except IndexError:
            raise TraceFormatError(
                f"string id {sid} outside table of {len(self.strings)}"
            ) from None

    def loc(self, sid: int) -> SourceLocation:
        if not 0 <= sid < len(self.strings):
            raise TraceFormatError(
                f"location id {sid} outside table of {len(self.strings)}")
        cached = self._locs[sid]
        if cached is None:
            cached = self._locs[sid] = SourceLocation.decode(
                self.strings[sid])
        return cached


class MemBlock:
    """A packed run of consecutive memory events of one rank.

    The vectorized unit of trace ingest: columns are numpy arrays
    (:data:`MEM_DTYPE`), string-valued fields are ids into ``table``.
    Binary readers hand out zero-copy views of the memory-mapped file;
    text readers batch decoded lines into the same shape, so consumers
    never branch on the on-disk format.
    """

    __slots__ = ("rank", "table", "_array", "_cols")

    def __init__(self, rank: int, table: _StringTable,
                 array: Optional[np.ndarray] = None,
                 cols: Optional[Tuple[list, ...]] = None):
        self.rank = rank
        self.table = table
        self._array = array
        self._cols = cols

    def __len__(self) -> int:
        if self._cols is not None:
            return len(self._cols[0])
        return len(self._array)

    @property
    def array(self) -> np.ndarray:
        """The events as one structured numpy array (materialized lazily
        for text-backed blocks)."""
        if self._array is None:
            arr = np.empty(len(self._cols[0]), dtype=MEM_DTYPE)
            for name, col in zip(("seq", "addr", "size", "var", "loc",
                                  "access"), self._cols):
                arr[name] = col
            self._array = arr
        return self._array

    def columns(self) -> Tuple[list, list, list, list, list, list]:
        """``(seq, addr, size, var_id, loc_id, access_code)`` as plain
        Python lists — the fastest shape for building detector objects."""
        if self._cols is None:
            a = self._array
            self._cols = (a["seq"].tolist(), a["addr"].tolist(),
                          a["size"].tolist(), a["var"].tolist(),
                          a["loc"].tolist(), a["access"].tolist())
        return self._cols

    def iter_events(self) -> Iterator[MemEvent]:
        """Typed-event view (one :class:`MemEvent` per row)."""
        table = self.table
        seqs, addrs, sizes, var_ids, loc_ids, accs = self.columns()
        for i in range(len(seqs)):
            yield MemEvent(rank=self.rank, seq=seqs[i],
                           access=ACCESS_NAMES[accs[i]], addr=addrs[i],
                           size=sizes[i], var=table.string(var_ids[i]),
                           loc=table.loc(loc_ids[i]))

    def to_events(self) -> List[MemEvent]:
        return list(self.iter_events())


#: what :meth:`TraceReader.stream` yields: call events stay typed, memory
#: events arrive packed.
StreamItem = Union[CallEvent, MemBlock]


class TraceWriter:
    """Buffered writer for one rank's event stream (text or binary)."""

    def __init__(self, path: str, rank: int, nranks: int, app: str = "",
                 format: str = FORMAT_TEXT):
        if format not in FORMATS:
            raise ValueError(f"unknown trace format {format!r}")
        self.path = path
        self.rank = rank
        self.format = format
        self.events_written = 0
        self.bytes_written = 0
        self._closed = False
        self._counts = {"call": 0, "mem": 0, "load": 0, "store": 0}
        # recorder captured once at construction: the per-event write path
        # never re-checks global state
        self._obs = obs.get_recorder() if obs.is_enabled() else None
        if format == FORMAT_BINARY:
            self._fh = open(path, "wb")
            self._offset = 0  # bytes already drained to the file
            self._out = bytearray(_MAGIC)
            self._frame(b"H", encode_record("H", {
                "v": BINARY_VERSION, "rank": rank, "nranks": nranks,
                "app": app}).encode("utf-8"))
            self._table = _StringTable()
            #: pending mem columns: seq, addr, size, var, loc, access
            self._pending: Tuple[list, ...] = tuple([] for _ in range(6))
            # content digests accumulated at write time and recorded in
            # the footer, so incremental checking can detect unchanged
            # ranks without re-reading event payloads
            self._hash_calls = hashlib.sha256()
            self._hash_mems = hashlib.sha256()
        else:
            self._buffer: List[str] = [
                encode_record("H", {"v": TRACE_VERSION, "rank": rank,
                                    "nranks": nranks, "app": app})
            ]
            self._fh = open(path, "w", encoding="utf-8")

    # -- shared ---------------------------------------------------------

    def write(self, event: Event) -> None:
        if self.format == FORMAT_BINARY:
            self._write_binary(event)
        else:
            self._buffer.append(event.encode())
            if len(self._buffer) >= _FLUSH_EVERY:
                self._drain()
        self.events_written += 1

    def append_call(self, fn: str, args: Dict[str, Any],
                    loc: Optional[SourceLocation], seq: int) -> None:
        """Call fast path: write one call record without building a
        :class:`CallEvent` — the line is byte-identical to
        ``CallEvent(seq=seq, fn=fn, args=args, loc=loc).encode()``."""
        loc_text = (loc if loc is not None else UNKNOWN_LOCATION).encode()
        parts = [f"C seq={seq} fn={encode_value(fn)}"
                 f" loc={encode_value(loc_text)}"]
        for key, value in args.items():
            if value is not None:
                parts.append(f"{key}={encode_value(value)}")
        line = " ".join(parts)
        if self.format == FORMAT_BINARY:
            self._flush_mem_block()  # preserve on-disk event order
            payload = line.encode("utf-8")
            self._frame(b"C", payload)
            self._hash_calls.update(_U32.pack(len(payload)))
            self._hash_calls.update(payload)
            self._counts["call"] += 1
            if len(self._out) >= 1 << 20:
                self._drain()
        else:
            self._buffer.append(line)
            if len(self._buffer) >= _FLUSH_EVERY:
                self._drain()
        self.events_written += 1

    def append_mem_columns(self, access: str, var: str,
                           loc: Optional[SourceLocation], seq0: int,
                           addr: int, size: int, count: int,
                           stride: int = 0) -> None:
        """Bulk fast path: append ``count`` memory rows without building
        per-event objects.  Row *i* is ``(seq0 + i, addr + i * stride,
        size, var, loc, access)`` — byte-identical on disk (and in the
        content digests) to ``count`` :meth:`write` calls with the
        matching :class:`MemEvent`\\ s.

        Binary traces extend the pending packed-column lists directly;
        the mems digest hashes packed content without block-length
        prefixes, so block boundaries introduced by bulk appends cannot
        perturb it.  Text traces replicate ``MemEvent.encode()`` output
        from one pre-encoded template.
        """
        if count <= 0:
            return
        if stride < 0:
            raise TraceFormatError(
                f"append_mem_columns: negative stride {stride}")
        loc_text = (loc if loc is not None else UNKNOWN_LOCATION).encode()
        if self.format == FORMAT_BINARY:
            try:
                code = ACCESS_CODES[access]
            except KeyError:
                raise TraceFormatError(
                    f"unknown access kind {access!r}") from None
            counts = self._counts
            seqs, addrs, sizes, var_ids, loc_ids, accs = self._pending
            seqs.extend(range(seq0, seq0 + count))
            if stride:
                addrs.extend(range(addr, addr + count * stride, stride))
            else:
                addrs.extend([addr] * count)
            sizes.extend([size] * count)
            var_ids.extend([self._table.intern(var)] * count)
            loc_ids.extend([self._table.intern(loc_text)] * count)
            accs.extend([code] * count)
            counts["mem"] += count
            counts[access] += count
            if len(seqs) >= _FLUSH_EVERY:
                self._flush_mem_block()
        else:
            if access not in ACCESS_CODES:
                raise TraceFormatError(
                    f"unknown access kind {access!r}")
            buffer = self._buffer
            mid = f" a={encode_value(access)} addr="
            tail = (f" size={size} var={encode_value(var)}"
                    f" loc={encode_value(loc_text)}")
            if stride:
                buffer.extend(
                    f"M seq={seq0 + i}{mid}{addr + i * stride}{tail}"
                    for i in range(count))
            else:
                line_tail = f"{mid}{addr}{tail}"
                buffer.extend(f"M seq={seq0 + i}{line_tail}"
                              for i in range(count))
            if len(buffer) >= _FLUSH_EVERY:
                self._drain()
        self.events_written += count

    def close(self) -> None:
        """Flush everything and finalize the file (footer + trailer for
        binary).  Idempotent."""
        if self._closed:
            return
        if self.format == FORMAT_BINARY:
            self._flush_mem_block()
            footer = json.dumps(
                {"version": BINARY_VERSION, "counts": self._counts,
                 "strings": self._table.strings,
                 "digests": {
                     "calls": self._hash_calls.hexdigest(),
                     "mems": self._hash_mems.hexdigest(),
                     "strings": hash_strings(self._table.strings)}},
                ensure_ascii=False, separators=(",", ":")).encode("utf-8")
            footer_offset = self._offset + len(self._out)
            self._frame(b"F", footer)
            self._out += _U64.pack(footer_offset) + _END_MAGIC
        self._drain()
        self._fh.close()
        self._closed = True

    def abort(self) -> None:
        """Drain buffered bytes and close the OS handle *without*
        finalizing — used on error so a partially written file stays
        detectable (a binary file without its trailer is rejected by the
        reader)."""
        if not self._closed:
            if self.format == FORMAT_BINARY:
                self._flush_mem_block()
            self._drain()
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.abort()
        else:
            self.close()
        return False

    # -- text -----------------------------------------------------------

    def _drain_text(self) -> None:
        if not self._buffer:
            return
        chunk = "\n".join(self._buffer) + "\n"
        self._fh.write(chunk)
        self.bytes_written += len(chunk)
        self._buffer.clear()

    # -- binary ---------------------------------------------------------

    def _frame(self, tag: bytes, payload: bytes) -> None:
        self._out += tag
        self._out += _U32.pack(len(payload))
        self._out += payload

    def _write_binary(self, event: Event) -> None:
        counts = self._counts
        if type(event) is MemEvent or isinstance(event, MemEvent):
            seqs, addrs, sizes, var_ids, loc_ids, accs = self._pending
            seqs.append(event.seq)
            addrs.append(event.addr)
            sizes.append(event.size)
            var_ids.append(self._table.intern(event.var))
            loc_ids.append(self._table.intern(event.loc.encode()))
            try:
                accs.append(ACCESS_CODES[event.access])
            except KeyError:
                raise TraceFormatError(
                    f"unknown access kind {event.access!r}") from None
            counts["mem"] += 1
            counts[event.access] += 1
            if len(seqs) >= _FLUSH_EVERY:
                self._flush_mem_block()
        else:
            self._flush_mem_block()  # preserve on-disk event order
            payload = event.encode().encode("utf-8")
            self._frame(b"C", payload)
            self._hash_calls.update(_U32.pack(len(payload)))
            self._hash_calls.update(payload)
            counts["call"] += 1
            if len(self._out) >= 1 << 20:
                self._drain()

    def _flush_mem_block(self) -> None:
        seqs = self._pending[0]
        if not seqs:
            return
        arr = np.empty(len(seqs), dtype=MEM_DTYPE)
        for name, col in zip(("seq", "addr", "size", "var", "loc",
                              "access"), self._pending):
            arr[name] = col
        self._out += b"M"
        self._out += _U32.pack(len(seqs))
        payload = arr.tobytes()
        self._out += payload
        # no length prefix: rows are fixed-width, so the mems digest is a
        # pure function of the packed content regardless of where the
        # writer happened to cut its blocks
        self._hash_mems.update(payload)
        for col in self._pending:
            col.clear()
        if len(self._out) >= 1 << 20:
            self._drain()

    def _drain(self) -> None:
        if self.format != FORMAT_BINARY:
            if self._obs is not None:
                start = time.perf_counter()
                self._drain_text()
                self._obs.observe(
                    "profiler_flush_seconds", time.perf_counter() - start,
                    help="Trace-buffer flush latency", rank=self.rank)
            else:
                self._drain_text()
            return
        if not self._out:
            return
        if self._obs is not None:
            start = time.perf_counter()
            self._fh.write(self._out)
            self._obs.observe(
                "profiler_flush_seconds", time.perf_counter() - start,
                help="Trace-buffer flush latency", rank=self.rank)
        else:
            self._fh.write(self._out)
        self._offset += len(self._out)
        self.bytes_written += len(self._out)
        self._out = bytearray()


@dataclass
class TraceHeader:
    version: int
    rank: int
    nranks: int
    app: str


class TraceReader:
    """Reads one rank's trace back (format sniffed from the file).

    The header is read once at construction and the open handle is
    reused by every iteration method (no double-open).  Iteration
    methods share the handle, so at most one text iterator should be
    live at a time; binary iteration walks the memory map and is
    reentrant.
    """

    def __init__(self, path: str):
        self.path = path
        #: the rank's columnar CallTable, populated as a side product of
        #: :meth:`read_calls` when the columnar control plane is active
        self.call_table = None
        fh = open(path, "rb")
        magic = fh.read(len(_MAGIC))
        if magic == _MAGIC:
            self.format = FORMAT_BINARY
            self._init_binary(fh)
        else:
            fh.close()
            if not magic:
                raise TraceFormatError(
                    f"{path}: empty trace file (unclosed writer?)")
            self.format = FORMAT_TEXT
            self._init_text()

    # -- construction ---------------------------------------------------

    def _init_text(self) -> None:
        self._mm = None
        self._fh = open(self.path, encoding="utf-8")
        first = self._fh.readline()
        rec = decode_record(first)
        if rec.kind != "H":
            raise TraceFormatError(f"{self.path}: missing trace header")
        self.header = TraceHeader(
            version=rec.get_int("v"), rank=rec.get_int("rank"),
            nranks=rec.get_int("nranks"), app=rec.get_str("app", ""))
        if self.header.version != TRACE_VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported trace version "
                f"{self.header.version}")
        self._data_pos = self._fh.tell()
        self._table = _StringTable()
        self._counts: Optional[Dict[str, int]] = None
        self._digests: Optional[Dict[str, str]] = None

    def _init_binary(self, fh) -> None:
        self._fh = fh
        size = os.fstat(fh.fileno()).st_size
        if size < len(_MAGIC) + _TRAILER_LEN:
            fh.close()
            raise TraceFormatError(
                f"{self.path}: truncated binary trace (unclosed writer?)")
        self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        trailer = self._mm[size - _TRAILER_LEN:]
        if trailer[8:] != _END_MAGIC:
            raise TraceFormatError(
                f"{self.path}: missing end-of-trace trailer — the writer "
                "was not closed or the file is truncated")
        footer_off = _U64.unpack(trailer[:8])[0]
        if not len(_MAGIC) <= footer_off <= size - _TRAILER_LEN - 5:
            raise TraceFormatError(
                f"{self.path}: corrupt footer offset {footer_off}")
        tag, payload, _next = self._read_frame(footer_off)
        if tag != b"F":
            raise TraceFormatError(f"{self.path}: footer frame missing "
                                   f"(found {tag!r})")
        try:
            footer = json.loads(payload.decode("utf-8"))
            counts = footer["counts"]
            self._counts = {k: int(counts[k])
                            for k in ("call", "mem", "load", "store")}
            self._table = _StringTable(
                [str(s) for s in footer["strings"]])
            digests = footer.get("digests")
            self._digests = (
                {k: str(digests[k]) for k in ("calls", "mems", "strings")}
                if isinstance(digests, dict) else None)
        except (ValueError, KeyError, TypeError) as exc:
            raise TraceFormatError(
                f"{self.path}: corrupt footer: {exc}") from exc
        tag, _payload, data_start = self._read_frame(len(_MAGIC))
        if tag != b"H":
            raise TraceFormatError(f"{self.path}: missing trace header")
        rec = decode_record(self._frame_text(len(_MAGIC) + 5, data_start))
        self.header = TraceHeader(
            version=rec.get_int("v"), rank=rec.get_int("rank"),
            nranks=rec.get_int("nranks"), app=rec.get_str("app", ""))
        if self.header.version != BINARY_VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported binary trace version "
                f"{self.header.version}")
        self._data_pos = data_start
        self._footer_off = footer_off

    def _read_frame(self, pos: int) -> Tuple[bytes, bytes, int]:
        mm = self._mm
        tag = mm[pos:pos + 1]
        if tag == b"M":
            count = _U32.unpack_from(mm, pos + 1)[0]
            end = pos + 5 + count * MEM_DTYPE.itemsize
            return tag, mm[pos + 5:end], end
        length = _U32.unpack_from(mm, pos + 1)[0]
        end = pos + 5 + length
        return tag, mm[pos + 5:end], end

    def _frame_text(self, start: int, stop: int) -> str:
        """The record text of the frame whose payload is
        ``[start, stop)``."""
        try:
            return self._mm[start:stop].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"{self.path}: frame at byte {start - 5} is not "
                f"UTF-8 (byte {start + exc.start})") from exc

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:  # a MemBlock view is still alive
                pass
            self._mm = None
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- iteration ------------------------------------------------------

    def __iter__(self) -> Iterator[Event]:
        """Typed events, in trace order (both formats)."""
        if self.format == FORMAT_BINARY:
            for item in self._stream_binary():
                if isinstance(item, MemBlock):
                    yield from item.iter_events()
                else:
                    yield item
            return
        fh = self._fh
        fh.seek(self._data_pos)
        rank = self.header.rank
        for line in fh:
            line = line.rstrip("\n")
            if line:
                yield decode_event(rank, line)

    def events(self) -> List[Event]:
        return list(self)

    def stream(self) -> Iterator[StreamItem]:
        """Call events typed, memory events packed — the analyzer's
        ingest shape.  Consecutive memory events coalesce into one
        :class:`MemBlock`; on-disk order is preserved across the two
        populations."""
        if self.format == FORMAT_BINARY:
            yield from self._stream_binary()
        else:
            yield from self._stream_text()

    def iter_calls(self) -> Iterator[CallEvent]:
        """Call events only; memory events are skipped without decoding
        (binary: whole blocks are stepped over via the frame length)."""
        if self.format == FORMAT_BINARY:
            yield from self._stream_binary(decode_mems=False)
            return
        for item in self.stream():
            if not isinstance(item, MemBlock):
                yield item

    def read_calls(self) -> Tuple[List[CallEvent], Dict[str, int]]:
        """One pass returning every call event plus exact per-class
        event counts — the analyzer control-pass primitive.  Binary
        traces take the counts from the footer and never touch memory
        frames' payloads; text traces count memory lines without fully
        decoding them.

        Under the columnar control plane, decoding runs through
        :class:`repro.core.calltable.CallIngest` — a memoizing line
        parser that also leaves the rank's :class:`CallTable` in
        ``self.call_table`` as a free side product."""
        from repro.core.calltable import (
            PLANE_COLUMNAR, CallIngest, control_plane,
        )
        ingest = (CallIngest(self.header.rank)
                  if control_plane() == PLANE_COLUMNAR else None)
        if self.format == FORMAT_BINARY:
            if ingest is None:
                calls = list(self.iter_calls())
            else:
                calls = self._read_calls_binary(ingest)
                self.call_table = ingest.finish()
            return calls, dict(self._counts)
        calls: List[CallEvent] = []
        counts = {"call": 0, "mem": 0, "load": 0, "store": 0}
        fh = self._fh
        fh.seek(self._data_pos)
        rank = self.header.rank
        add = ingest.add if ingest is not None else None
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("M "):
                counts["mem"] += 1
                counts[self._text_mem_access(line)] += 1
            else:
                event = (add(line) if add is not None
                         else decode_event(rank, line))
                if not isinstance(event, CallEvent):
                    raise TraceFormatError(
                        f"{self.path}: unexpected {type(event).__name__} "
                        "record outside the M kind")
                calls.append(event)
                counts["call"] += 1
        if ingest is not None:
            self.call_table = ingest.finish()
        self._counts = dict(counts)
        return calls, counts

    def _read_calls_binary(self, ingest) -> List[CallEvent]:
        """Binary call pass through an ingest object: C frames decode
        via the memoizing parser, M frames are stepped over untouched."""
        add = ingest.add
        return [add(self._frame_text(start, start + length))
                for tag, start, length in self._data_frames() if tag == b"C"]

    def counts(self) -> Dict[str, int]:
        """Per-class event counts: served from the footer for binary
        traces, from one cheap scan (cached) for text traces."""
        if self._counts is None:
            self.read_calls()
        return dict(self._counts)

    # -- content digests ------------------------------------------------

    def digests(self) -> Dict[str, str]:
        """Content digests identifying this rank's trace.

        Binary traces report the ``calls``/``mems``/``strings`` digests
        the writer recorded in the footer; v2 files predating digest
        recording get the same values recomputed from the mapped frames
        (identical formulas, so old and new files with the same content
        agree).  Text traces hash the raw file bytes.  Digests of
        different formats are never comparable — :meth:`content_digest`
        folds the format in."""
        if self._digests is None:
            if self.format == FORMAT_BINARY:
                self._digests = self._recompute_binary_digests()
            else:
                self._digests = {"file": hash_file(self.path)}
        return dict(self._digests)

    def content_digest(self) -> str:
        """One digest summarizing format + content of this rank's file."""
        return stable_hash({"format": self.format,
                            "digests": self.digests()})

    def _recompute_binary_digests(self) -> Dict[str, str]:
        hash_calls = hashlib.sha256()
        hash_mems = hashlib.sha256()
        for tag, start, length in self._data_frames():
            if tag == b"M":
                hash_mems.update(
                    self._mm[start:start + length * MEM_DTYPE.itemsize])
            else:
                hash_calls.update(_U32.pack(length))
                hash_calls.update(self._mm[start:start + length])
        return {"calls": hash_calls.hexdigest(),
                "mems": hash_mems.hexdigest(),
                "strings": hash_strings(self._table.strings)}

    def mem_blocks(self) -> Iterator[MemBlock]:
        """Memory events only, packed (the vectorized data pass).

        Unlike :meth:`stream`, call records are stepped over without
        decoding, and consecutive on-disk blocks coalesce up to
        ``_FLUSH_EVERY`` rows: synchronization-heavy traces flush a
        small block before every call frame, and re-packing here keeps
        the per-block Python overhead out of the data pass."""
        if self.format == FORMAT_BINARY:
            yield from self._mem_blocks_binary()
        else:
            yield from self._stream_text(decode_calls=False)

    # -- binary internals ----------------------------------------------

    def _data_frames(self) -> Iterator[Tuple[bytes, int, int]]:
        """``(tag, payload offset, length)`` of every data frame in file
        order, tags and bounds checked; ``length`` counts bytes for a
        call frame (``C``) and rows for a memory block (``M``)."""
        mm = self._mm
        if mm is None:
            raise TraceFormatError(f"{self.path}: reader is closed")
        pos = self._data_pos
        end = self._footer_off
        itemsize = MEM_DTYPE.itemsize
        while pos < end:
            tag = mm[pos:pos + 1]
            length = _U32.unpack_from(mm, pos + 1)[0]
            start = pos + 5
            if tag == b"M":
                pos = start + length * itemsize
            elif tag == b"C":
                pos = start + length
            else:
                raise TraceFormatError(
                    f"{self.path}: unknown frame tag {tag!r} at byte "
                    f"{start - 5}")
            if pos > end:
                kind = "memory block" if tag == b"M" else "call record"
                raise TraceFormatError(f"{self.path}: {kind} at byte "
                                       f"{start - 5} overruns the footer")
            yield tag, start, length

    def _stream_binary(self, decode_mems: bool = True) -> Iterator[StreamItem]:
        mm, rank, table = self._mm, self.header.rank, self._table
        for tag, start, length in self._data_frames():
            if tag == b"C":
                yield decode_event(rank,
                                   self._frame_text(start, start + length))
            elif decode_mems:
                arr = np.frombuffer(mm, dtype=MEM_DTYPE, count=length,
                                    offset=start)
                yield MemBlock(rank, table, array=arr)

    def _mem_blocks_binary(self) -> Iterator[MemBlock]:
        mm, rank, table = self._mm, self.header.rank, self._table
        pending: List[np.ndarray] = []
        pending_rows = 0

        def flush() -> MemBlock:
            nonlocal pending_rows
            # a lone large frame stays a zero-copy view; runs of small
            # frames pay one vectorized concatenate
            arr = pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending.clear()
            pending_rows = 0
            return MemBlock(rank, table, array=arr)

        for tag, start, length in self._data_frames():
            if tag == b"M":
                pending.append(np.frombuffer(mm, dtype=MEM_DTYPE,
                                             count=length, offset=start))
                pending_rows += length
                if pending_rows >= _FLUSH_EVERY:
                    yield flush()
        if pending:
            yield flush()

    # -- text internals -------------------------------------------------

    @staticmethod
    def _text_mem_access(line: str) -> str:
        for part in line.split(" "):
            if part.startswith("a="):
                value = part[2:]
                access = value[1:] if value.startswith("$") else value
                if access in ACCESS_CODES:
                    return access
                break
        raise TraceFormatError(f"memory record without a valid access "
                               f"kind: {line!r}")

    def _stream_text(self, decode_calls: bool = True
                     ) -> Iterator[StreamItem]:
        """Text pass; with ``decode_calls`` false, call lines are skipped
        after a prefix check instead of being decoded, and memory blocks
        coalesce across them (the mem-only pass)."""
        fh = self._fh
        fh.seek(self._data_pos)
        rank = self.header.rank
        table = self._table
        cols: Tuple[list, ...] = tuple([] for _ in range(6))
        seqs, addrs, sizes, var_ids, loc_ids, accs = cols

        def flush() -> MemBlock:
            block = MemBlock(rank, table,
                             cols=tuple(list(c) for c in cols))
            for col in cols:
                col.clear()
            return block

        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("M "):
                rec = decode_record(line)
                seqs.append(rec.get_int("seq"))
                addrs.append(rec.get_int("addr"))
                sizes.append(rec.get_int("size"))
                var_ids.append(table.intern(rec.get_str("var")))
                loc_ids.append(table.intern(rec.get_str("loc")))
                access = rec.get_str("a")
                try:
                    accs.append(ACCESS_CODES[access])
                except KeyError:
                    raise TraceFormatError(
                        f"unknown access kind {access!r}") from None
                if len(seqs) >= _FLUSH_EVERY:
                    yield flush()
            elif decode_calls:
                if seqs:
                    yield flush()
                event = decode_event(rank, line)
                if not isinstance(event, CallEvent):
                    raise TraceFormatError(
                        f"{self.path}: unexpected {type(event).__name__} "
                        "record outside the M kind")
                yield event
            elif not line.startswith("C "):
                raise TraceFormatError(
                    f"{self.path}: unknown record kind in data section: "
                    f"{line.split(' ', 1)[0]!r}")
        if seqs:
            yield flush()



class TraceSet:
    """All per-rank traces of one profiled run (formats may mix)."""

    _SUFFIXES = {".log": FORMAT_TEXT, ".bin": FORMAT_BINARY}

    def __init__(self, directory: str):
        self.directory = directory
        self._paths: Dict[int, str] = {}
        for name in sorted(os.listdir(directory)):
            if not name.startswith("trace."):
                continue
            suffix = name[name.rfind("."):]
            if suffix not in self._SUFFIXES:
                continue
            rank = int(name.split(".")[1])
            if rank in self._paths:
                raise TraceFormatError(
                    f"{directory}: rank {rank} has both a text and a "
                    "binary trace file")
            self._paths[rank] = os.path.join(directory, name)
        if not self._paths:
            raise TraceFormatError(f"no trace files found in {directory}")
        with TraceReader(self._paths[min(self._paths)]) as reader:
            self.nranks = reader.header.nranks
        if sorted(self._paths) != list(range(self.nranks)):
            raise TraceFormatError(
                f"{directory}: expected traces for ranks 0..{self.nranks - 1}, "
                f"found {sorted(self._paths)}")

    @staticmethod
    def rank_path(directory: str, rank: int,
                  format: str = FORMAT_TEXT) -> str:
        if format not in FORMATS:
            raise ValueError(f"unknown trace format {format!r}")
        suffix = "bin" if format == FORMAT_BINARY else "log"
        return os.path.join(directory, f"trace.{rank}.{suffix}")

    def path(self, rank: int) -> str:
        """The on-disk trace file of one rank.  A ``TraceSet`` pickles
        as directory + paths only — pool workers (fork or spawn) reopen
        the file by this path and mmap the v2 blocks themselves, so the
        stable path, not an inherited file handle, is the cross-process
        contract."""
        return self._paths[rank]

    def reader(self, rank: int) -> TraceReader:
        return TraceReader(self.path(rank))

    def iter_events(self, rank: int) -> Iterator[Event]:
        """Lazily iterate one rank's typed events (no list copy)."""
        with self.reader(rank) as reader:
            yield from reader

    def stream(self, rank: int) -> Iterator[StreamItem]:
        """One rank's ingest stream (typed calls + packed mem blocks)."""
        with self.reader(rank) as reader:
            yield from reader.stream()

    def mem_blocks(self, rank: int) -> Iterator[MemBlock]:
        with self.reader(rank) as reader:
            yield from reader.mem_blocks()

    def events(self, rank: int) -> List[Event]:
        return list(self.iter_events(rank))

    def all_events(self) -> Dict[int, List[Event]]:
        return {rank: list(self.iter_events(rank))
                for rank in range(self.nranks)}

    def event_counts(self) -> Dict[str, int]:
        """Aggregate event counts by class (for the Figure 10
        experiment).  Served from the v2 footer where available — no
        event is decoded for a binary trace set."""
        counts = {"call": 0, "mem": 0, "load": 0, "store": 0}
        for rank in range(self.nranks):
            with self.reader(rank) as reader:
                for key, value in reader.counts().items():
                    counts[key] += value
        return counts
