"""Trace-format robustness: malformed inputs must fail loudly, not crash
or silently mis-analyze."""

import os
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.apps.lu import lu
from repro.core.calltable import CallIngest
from repro.core.preprocess import scan_rank
from repro.profiler.events import decode_event
from repro.profiler.tracer import MEM_DTYPE, TraceReader, TraceSet
from repro.util.errors import AnalysisError, ReproError, TraceFormatError
from repro.util.records import decode_record


class TestMalformedLines:
    @pytest.mark.parametrize("line", [
        "",                     # empty
        "X seq=0",              # unknown kind
        "C",                    # no fields at all (missing seq/fn/loc)
        "C seq=zzz fn=$Put",    # unparseable int
        "M seq=0 a=$load",      # missing addr/size
        "C seq=0 fn=$Put loc=$a:b:c",  # non-numeric line number
    ])
    def test_raises_trace_format_error(self, line):
        with pytest.raises((TraceFormatError, ValueError)):
            decode_event(0, line)

    def test_truncated_field(self):
        with pytest.raises(TraceFormatError):
            decode_record("C seq")


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               min_size=1, max_size=60))
@settings(max_examples=120, deadline=None)
def test_prop_fuzz_never_crashes_uncontrolled(line):
    """Arbitrary printable garbage either decodes (if it happens to be
    well-formed) or raises a controlled error type."""
    try:
        decode_event(0, line)
    except (TraceFormatError, ValueError, KeyError):
        pass  # controlled failure modes only


class TestCorruptTraceFiles:
    def test_header_with_wrong_version(self, tmp_path):
        path = tmp_path / "trace.0.log"
        path.write_text("H v=99 rank=0 nranks=1 app=$x\n")
        with pytest.raises(TraceFormatError, match="version"):
            TraceReader(str(path))

    def test_body_corruption_surfaces_on_iteration(self, tmp_path):
        path = tmp_path / "trace.0.log"
        path.write_text("H v=1 rank=0 nranks=1 app=$x\n"
                        "C seq=0 fn=$Barrier comm=0 loc=$a.py:1:f\n"
                        "GARBAGE LINE HERE\n")
        reader = TraceReader(str(path))
        with pytest.raises((TraceFormatError, ValueError)):
            list(reader)

    def test_non_trace_files_ignored_by_traceset(self, tmp_path):
        (tmp_path / "trace.0.log").write_text(
            "H v=1 rank=0 nranks=1 app=$x\n")
        (tmp_path / "notes.txt").write_text("irrelevant")
        (tmp_path / "trace.backup").write_text("irrelevant")
        ts = TraceSet(str(tmp_path))
        assert ts.nranks == 1


class TestDamagedCallRecords:
    """The analyzer's scan rejects a call lacking an argument it reads,
    naming the rank, seq and key; the record codec itself stays
    permissive, since trace tools read partial records."""

    WIN_CREATE = ("C seq=7 fn=$Win_create win=0 comm=0 base=0 size=8 "
                  "loc=$a.py:1:f")

    def test_missing_required_argument_names_rank_seq_key(self):
        event = decode_event(3, self.WIN_CREATE)
        with pytest.raises(TraceFormatError,
                           match=r"rank 3 seq 7: Win_create call record "
                                 r"lacks argument 'disp_unit'"):
            scan_rank(3, [event])

    def test_mistyped_required_argument(self):
        event = decode_event(3, self.WIN_CREATE + " disp_unit=$4")
        with pytest.raises(TraceFormatError,
                           match="mistyped argument 'disp_unit'"):
            scan_rank(3, [event])

    def test_complete_record_scans(self):
        event = decode_event(3, self.WIN_CREATE + " disp_unit=4")
        assert scan_rank(3, [event]).windows == [(0, 0, 0, 8, 4, None)]

    def test_wait_requirements_follow_request_kind(self):
        scan_rank(0, [decode_event(
            0, "C seq=1 fn=$Wait req_kind=$isend loc=$a.py:1:f")])
        with pytest.raises(TraceFormatError, match="'req'"):
            scan_rank(0, [decode_event(
                0, "C seq=1 fn=$Wait req_kind=$icoll loc=$a.py:1:f")])

    def test_columnar_ingest_names_the_missing_key(self):
        with pytest.raises(TraceFormatError,
                           match=r"rank 2 seq 4: Send .* 'tag'"):
            CallIngest(2).add("C seq=4 fn=$Send comm=0 dest=1 "
                              "loc=$a.py:1:f")

    def test_bad_int_list_is_a_format_error(self):
        with pytest.raises(TraceFormatError, match="unparseable"):
            decode_event(0, "C seq=1 fn=$Win_post win=0 group=@1-2 "
                            "loc=$a.py:1:f")


# ----------------------------------------------------------------------
# byte-level fuzzing of binary v2 traces
# ----------------------------------------------------------------------

FUZZ_RANK = 1


@pytest.fixture(scope="module")
def lu_binary(tmp_path_factory):
    """A 4-rank LU (n=16) binary trace set, its rank-1 bytes and frames."""
    src = tmp_path_factory.mktemp("lu-bin")
    api.run(lu, 4, trace_dir=str(src), params={"n": 16},
            trace_format="binary")
    path = TraceSet.rank_path(str(src), FUZZ_RANK, "binary")
    with open(path, "rb") as fh:
        data = fh.read()
    return src, data, _data_frames(data)


def _data_frames(data):
    """``(tag, start, end)`` of every call/memory frame of a v2 file."""
    frames = []
    pos = 4  # file magic
    while True:
        tag = data[pos:pos + 1]
        length = struct.unpack_from("<I", data, pos + 1)[0]
        end = pos + 5 + (length * MEM_DTYPE.itemsize if tag == b"M"
                         else length)
        if tag in (b"C", b"M"):
            frames.append((tag, pos, end))
        elif tag == b"F":
            return frames
        pos = end


def _work_copy(src, tmp_path):
    """Copy the trace set; returns the copy and its fuzzed rank's path."""
    work = tmp_path / "work"
    work.mkdir()
    for name in os.listdir(src):
        (work / name).write_bytes((src / name).read_bytes())
    return work, TraceSet.rank_path(str(work), FUZZ_RANK, "binary")


def _crashes(src, tmp_path, variants):
    """Check ``src`` with rank 1 replaced by each variant; return the
    variants whose check raised anything but a :class:`ReproError`."""
    work, target = _work_copy(src, tmp_path)
    crashes = []
    for label, blob in variants:
        with open(target + ".tmp", "wb") as fh:
            fh.write(blob)
        os.replace(target + ".tmp", target)  # live mmaps keep the old file
        try:
            api.check(str(work))
        except ReproError:
            pass
        except Exception as exc:  # noqa: BLE001 - the property under test
            crashes.append(f"{label}: {type(exc).__name__}: {exc}")
    return crashes


def test_fuzz_truncation_at_every_frame_boundary(lu_binary, tmp_path):
    src, data, frames = lu_binary
    cuts = [("cut@%d" % end, data[:end]) for _tag, _start, end in frames]
    assert len(cuts) > 40
    assert _crashes(src, tmp_path, cuts) == []


@pytest.mark.parametrize("frame_tag", [b"C", b"M"])
def test_fuzz_single_bit_flips(lu_binary, tmp_path, frame_tag):
    src, data, frames = lu_binary
    rng = random.Random(20240613 + frame_tag[0])
    spans = [(start, end) for tag, start, end in frames if tag == frame_tag]
    flips = []
    for _ in range(200):
        start, end = rng.choice(spans)
        offset, bit = rng.randrange(start, end), rng.randrange(8)
        blob = bytearray(data)
        blob[offset] ^= 1 << bit
        flips.append((f"flip@{offset}.{bit}", bytes(blob)))
    assert _crashes(src, tmp_path, flips) == []


def test_non_utf8_call_frame_reports_path_and_offset(lu_binary, tmp_path):
    _src, data, frames = lu_binary
    _tag, start, end = next(f for f in frames if f[0] == b"C")
    blob = bytearray(data)
    blob[start + 5] = 0xFF  # never valid in UTF-8
    path = tmp_path / "trace.1.bin"
    path.write_bytes(bytes(blob))
    with TraceReader(str(path)) as reader:
        with pytest.raises(TraceFormatError,
                           match=rf"trace\.1\.bin: frame at byte {start} "
                                 rf"is not UTF-8 \(byte {start + 5}\)"):
            reader.read_calls()


def test_rma_target_outside_window_is_an_analysis_error(lu_binary, tmp_path):
    src, data, frames = lu_binary
    start = next(start for tag, start, end in frames
                 if tag == b"C" and b"origin_base=" in data[start:end])
    at = data.index(b" target=", start) + len(b" target=")
    work, target = _work_copy(src, tmp_path)
    with open(target, "wb") as fh:  # 4 ranks: 9 is in no window
        fh.write(data[:at] + b"9" + data[at + 1:])
    with pytest.raises(AnalysisError, match="targets rank 9 outside window"):
        api.check(str(work))
