"""The columnar pcap, segmentation and binning code against per-record references.

The reference functions below are the per-record implementations the
columnar ones replaced, kept as the oracle. They differ from the
originals in one place: ``ref_read_pcap`` rejects a sub-second field out
of range, as read_pcap now does. Every property requires identical
output, or an identical exception (type, message and offset or index).
"""

import random
import struct
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync import pcap
from twinsync.errors import BadMagicError, PcapError, PcapWriteError, TimestampRegressionError, TruncatedRecordError
from twinsync.metrics import ThroughputSeries, throughput_series
from twinsync.model import MICROS_PER_SECOND
from twinsync.pcap import (
    DEFAULT_SNAPLEN,
    LINKTYPE_RAW_IP,
    PCAP_MAGIC_MICROS,
    PCAP_MAGIC_NANOS,
    VECTOR_MIN_PACKETS,
    CaptureWindow,
    PacketBatch,
    read_pcap,
    segment_stream,
    write_pcap,
)
from twinsync.transport import pack_window, unpack_window

from reference import PacketRecord, assert_well_formed, batch_of, lone_window, records_of

SECOND = MICROS_PER_SECOND


# --- per-record references -------------------------------------------------


def ref_write_pcap(linktype, packets) -> bytes:
    parts = [struct.pack("<IHHiIII", PCAP_MAGIC_MICROS, 2, 4, 0, 0, DEFAULT_SNAPLEN, linktype)]
    for i, p in enumerate(packets):
        if p.captured_len > DEFAULT_SNAPLEN:
            raise PcapWriteError(i, f"captured_len {p.captured_len} exceeds snaplen {DEFAULT_SNAPLEN}")
        sec, usec = divmod(p.ts_micros, 1_000_000)
        if sec > 0xFFFFFFFF:
            raise PcapWriteError(i, "timestamp beyond 32-bit seconds")
        parts.append(struct.pack("<IIII", sec, usec, p.captured_len, p.original_len))
        parts.append(p.payload)
    return b"".join(parts)


def ref_read_pcap(data):
    if len(data) < 24:
        raise TruncatedRecordError(len(data), "global header")
    magic_raw = struct.unpack_from("<I", data)[0]
    if magic_raw == PCAP_MAGIC_MICROS:
        order, nanos = "<", False
    elif magic_raw == PCAP_MAGIC_NANOS:
        order, nanos = "<", True
    else:
        magic_be = struct.unpack_from(">I", data)[0]
        if magic_be == PCAP_MAGIC_MICROS:
            order, nanos = ">", False
        elif magic_be == PCAP_MAGIC_NANOS:
            order, nanos = ">", True
        else:
            raise BadMagicError(magic_raw)
    _, _, _, _, _, linktype = struct.unpack_from(order + "HHiIII", data, 4)
    records = []
    offset = 24
    rec_hdr = struct.Struct(order + "IIII")
    while offset < len(data):
        if len(data) - offset < 16:
            raise TruncatedRecordError(offset)
        sec, frac, incl_len, orig_len = rec_hdr.unpack_from(data, offset)
        end = offset + 16 + incl_len
        if end > len(data):
            raise TruncatedRecordError(offset)
        if incl_len > orig_len:
            raise PcapError(f"incl_len {incl_len} exceeds orig_len {orig_len} at byte offset {offset}")
        if frac >= (1_000_000_000 if nanos else 1_000_000):
            raise PcapError(f"sub-second field {frac} out of range at byte offset {offset}")
        micros = sec * 1_000_000 + (frac // 1000 if nanos else frac)
        records.append(PacketRecord(micros, incl_len, orig_len, data[offset + 16:end]))
        offset = end
    return linktype, records


def ref_segment_stream(packets, window_micros, origin_ts_micros, span_end_micros, source_interface="tun2"):
    if window_micros <= 0:
        raise ValueError("window_micros must be positive")
    if span_end_micros <= origin_ts_micros:
        raise ValueError("span_end_micros must lie after the origin")
    seq = 0
    cur_start = origin_ts_micros
    cur_packets = []
    prev_ts = None

    def close(end_ts):
        nonlocal seq, cur_start, cur_packets
        window = (seq, cur_start, end_ts, list(cur_packets), source_interface)
        seq += 1
        cur_start = end_ts
        cur_packets = []
        return window

    for index, p in enumerate(packets):
        if prev_ts is not None and p.ts_micros < prev_ts:
            raise TimestampRegressionError(index)
        if p.ts_micros < origin_ts_micros:
            raise TimestampRegressionError(index, "timestamp before stream origin")
        if p.ts_micros >= span_end_micros:
            raise TimestampRegressionError(index, "timestamp beyond span end")
        prev_ts = p.ts_micros
        while p.ts_micros >= cur_start + window_micros:
            yield close(cur_start + window_micros)
        cur_packets.append(p)

    while cur_start < span_end_micros:
        yield close(min(cur_start + window_micros, span_end_micros))


def ref_throughput_series(packets, bin_width_micros=SECOND, origin_ts_micros=0, span_micros=None):
    if bin_width_micros <= 0:
        raise ValueError("bin_width_micros must be positive")
    packets = list(packets)
    if span_micros is None:
        span_micros = max(p.ts_micros for p in packets) - origin_ts_micros + 1 if packets else 0
    n_bins = -(-span_micros // bin_width_micros) if span_micros > 0 else 0
    byte_bins = [0] * n_bins
    for p in packets:
        idx = (p.ts_micros - origin_ts_micros) // bin_width_micros
        if p.ts_micros < origin_ts_micros or idx >= n_bins:
            continue
        byte_bins[idx] += p.original_len
    scale = 8 * MICROS_PER_SECOND / bin_width_micros
    return ThroughputSeries(origin_ts_micros, bin_width_micros, tuple(b * scale for b in byte_bins))


# --- inputs ----------------------------------------------------------------

WINDOW = 250_000


@st.composite
def packet_traces(draw, max_len: int = 3 * VECTOR_MIN_PACKETS, sort: bool = True):
    """Packet lists on both sides of the array-path threshold.

    Captured lengths are all equal or mixed (zero allowed); timestamps
    often sit exactly on a window boundary or repeat.
    """
    n = draw(st.integers(0, max_len))
    uniform = draw(st.booleans())
    size = draw(st.integers(0, 40))
    ts_strategy = st.one_of(
        st.integers(0, 8 * WINDOW),
        st.integers(0, 8).map(lambda k: k * WINDOW),
        st.integers(0, 8).map(lambda k: k * WINDOW - 1).filter(lambda t: t >= 0),
    )
    packets = []
    for _ in range(n):
        length = size if uniform else draw(st.integers(0, 40))
        payload = draw(st.binary(min_size=length, max_size=length))
        packets.append(PacketRecord(draw(ts_strategy), length, length + draw(st.integers(0, 30)), payload))
    return sorted(packets, key=lambda p: p.ts_micros) if sort else packets


@st.composite
def run_traces(draw, max_segment: int = 2 * VECTOR_MIN_PACKETS + 2):
    """Long runs of one captured length broken by a few odd records.

    Up to three runs, each on either side of VECTOR_MIN_PACKETS (a run of
    more than twice its length takes the reader's look-ahead through a
    second, doubled chunk), then up to three records changed to another
    length. Payloads and times come from one drawn seed, which keeps long
    traces cheap to draw.
    """
    lengths = []
    for _ in range(draw(st.integers(1, 3))):
        lengths += [draw(st.integers(0, 40))] * draw(st.integers(0, max_segment))
    if lengths:
        for at in draw(st.lists(st.integers(0, len(lengths) - 1), max_size=3)):
            lengths[at] = draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    times = sorted(rng.randrange(8 * WINDOW) for _ in lengths)
    return [PacketRecord(ts, length, length + rng.randrange(30), rng.randbytes(length))
            for ts, length in zip(times, lengths)]


def any_traces():
    return st.one_of(packet_traces(), run_traces())


@st.composite
def unwritable_traces(draw):
    """Traces in which up to three packets are ones write_pcap refuses:
    captured past the snap length, or stamped past 32-bit seconds."""
    packets = draw(any_traces())
    if packets:
        for at in draw(st.lists(st.integers(0, len(packets) - 1), max_size=3)):
            p = packets[at]
            if draw(st.booleans()):
                size = DEFAULT_SNAPLEN + 1
                packets[at] = PacketRecord(p.ts_micros, size, size, bytes(size))
            else:
                packets[at] = replace(p, ts_micros=2**32 * SECOND + p.ts_micros)
    return packets


@st.composite
def gapped_batches(draw):
    """Packets whose payload slots are longer than their captured bytes, as
    generate builds them: one slot size for all, or a gap of its own each.
    The gaps hold junk that must never reach the output."""
    packets = draw(unwritable_traces())
    if draw(st.booleans()):
        size = max((p.captured_len for p in packets), default=0) + draw(st.integers(0, 4))
        slots = [size] * len(packets)
    else:
        slots = [p.captured_len + draw(st.integers(0, 4)) for p in packets]
    payload = b"".join(p.payload + b"\xee" * (slot - p.captured_len) for p, slot in zip(packets, slots))
    offsets = np.zeros(len(packets) + 1, dtype=np.int64)
    np.cumsum(slots, out=offsets[1:])
    batch = PacketBatch(np.array([p.ts_micros for p in packets], dtype=np.int64),
                        np.array([p.captured_len for p in packets], dtype=np.uint32),
                        np.array([p.original_len for p in packets], dtype=np.uint32),
                        np.frombuffer(payload, dtype=np.uint8), offsets)
    return packets, batch


def read_records(data):
    """read_pcap with its packets as records, to compare with ref_read_pcap;
    a batch it accepts keeps every rule of a batch."""
    linktype, batch = read_pcap(data)
    assert_well_formed(batch)
    return linktype, records_of(batch)


def _outcome(fn, *args, **kwargs):
    """A call's result, or its exception as comparable data."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:
        return "raised", (type(exc), str(exc), getattr(exc, "offset", None), getattr(exc, "index", None))


def _encode(packets, order="<", nanos=False, sub_micro_ns=0, linktype=LINKTYPE_RAW_IP) -> bytes:
    """pcap bytes in any byte order and either magic."""
    magic = PCAP_MAGIC_NANOS if nanos else PCAP_MAGIC_MICROS
    parts = [struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, DEFAULT_SNAPLEN, linktype)]
    for p in packets:
        sec, usec = divmod(p.ts_micros, SECOND)
        frac = usec * 1000 + sub_micro_ns if nanos else usec
        parts.append(struct.pack(order + "IIII", sec, frac, p.captured_len, p.original_len) + p.payload)
    return b"".join(parts)


def _record_offsets(packets) -> list[int]:
    offsets, offset = [], 24
    for p in packets:
        offsets.append(offset)
        offset += 16 + p.captured_len
    return offsets


@st.composite
def one_length_traces(draw):
    """Windows of 1 to VECTOR_MIN_PACKETS - 1 records of one captured
    length, the shape of a small window that is not in a PackBlock; sometimes
    two records trade a byte, which keeps the size of the file but breaks
    the one length. Zero payloads and times make a header read one byte
    off look plausible."""
    count, length = draw(st.integers(1, VECTOR_MIN_PACKETS - 1)), draw(st.integers(0, 40))
    lengths = [length] * count
    if count > 1 and length and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
        lengths[i], lengths[j] = length + 1, length - 1
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return [PacketRecord(0, n, n, bytes(n)) for n in lengths]
    times = sorted(rng.randrange(8 * WINDOW) for _ in lengths)
    return [PacketRecord(ts, n, n + rng.randrange(30), rng.randbytes(n)) for ts, n in zip(times, lengths)]


@st.composite
def pcap_inputs(draw, traces=None):
    """Valid pcap bytes in every format, and damaged ones."""
    packets = draw(traces if traces is not None else any_traces())
    order = draw(st.sampled_from("<>"))
    nanos = draw(st.booleans())
    data = bytearray(_encode(packets, order, nanos, draw(st.integers(0, 999))))
    damage = draw(st.sampled_from(["none", "torn", "incl_over_orig", "subsecond", "magic"]))
    offsets = _record_offsets(packets)
    if damage == "torn":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif damage == "magic":
        data[:4] = draw(st.binary(min_size=4, max_size=4))
    elif damage in ("incl_over_orig", "subsecond") and offsets:
        for at in draw(st.lists(st.sampled_from(offsets), min_size=1, max_size=3)):
            if damage == "subsecond":
                limit = 1_000_000_000 if nanos else 1_000_000
                value = draw(st.integers(limit, 0xFFFFFFFF))
                data[at + 4:at + 8] = struct.pack(order + "I", value)
            else:
                incl = struct.unpack_from(order + "I", data, at + 8)[0]
                if incl:
                    data[at + 12:at + 16] = struct.pack(order + "I", draw(st.integers(0, incl - 1)))
    return bytes(data)


# --- properties ------------------------------------------------------------


# Packets write_pcap writes per pass: a run may cross a pass boundary.
write_pieces = st.sampled_from([1, 5, VECTOR_MIN_PACKETS + 3, pcap._WRITE_PIECE_PACKETS])


@settings(deadline=None)
@given(unwritable_traces(), write_pieces)
def test_write_pcap_matches_the_reference(packets, piece):
    expected = _outcome(ref_write_pcap, LINKTYPE_RAW_IP, packets)
    with mock.patch.object(pcap, "_WRITE_PIECE_PACKETS", piece):
        assert _outcome(write_pcap, LINKTYPE_RAW_IP, batch_of(packets)) == expected


@settings(deadline=None)
@given(gapped_batches(), write_pieces)
def test_write_pcap_of_gapped_slots_matches_the_reference(packets_and_batch, piece):
    packets, batch = packets_and_batch
    assert records_of(batch) == packets
    with mock.patch.object(pcap, "_WRITE_PIECE_PACKETS", piece):
        written = _outcome(write_pcap, LINKTYPE_RAW_IP, batch)
    assert written == _outcome(ref_write_pcap, LINKTYPE_RAW_IP, packets)
    assert written[0] == "raised" or type(written[1]) is bytes


@settings(deadline=None)
@given(pcap_inputs())
def test_read_pcap_matches_the_reference(data):
    assert _outcome(read_records, data) == _outcome(ref_read_pcap, data)


@settings(deadline=None)
@given(pcap_inputs())
def test_rewriting_what_was_read_matches_the_reference(data):
    expected = _outcome(lambda: ref_write_pcap(*ref_read_pcap(data)))
    assert _outcome(lambda: write_pcap(*read_pcap(data))) == expected


@settings(deadline=None)
@given(pcap_inputs(one_length_traces()))
def test_small_windows_of_one_length_read_and_rewrite_as_the_reference(data):
    assert _outcome(read_records, data) == _outcome(ref_read_pcap, data)
    expected = _outcome(lambda: ref_write_pcap(*ref_read_pcap(data)))
    assert _outcome(lambda: write_pcap(*read_pcap(data))) == expected


@settings(deadline=None)
@given(packet_traces(), st.sampled_from([WINDOW // 3, WINDOW, 3 * WINDOW]), st.sampled_from([0, 1, WINDOW]),
       st.sampled_from([8 * WINDOW, 8 * WINDOW + 1, 5 * WINDOW]), st.integers(0, 3))
def test_segment_stream_matches_the_reference(packets, window, origin, span_end, disorder):
    if disorder and len(packets) > 1:
        i = disorder % (len(packets) - 1)
        packets[i], packets[i + 1] = packets[i + 1], packets[i]

    def windows(fn, packets):
        out = []
        try:
            for w in fn(packets, window, origin, span_end_micros=span_end, source_interface="tun0"):
                if isinstance(w, CaptureWindow):
                    w = (w.seq, w.start_ts_micros, w.end_ts_micros, records_of(w.packets), w.source_interface)
                out.append(w)
        except Exception as exc:
            out.append((type(exc), str(exc), getattr(exc, "index", None)))
        return out

    assert windows(segment_stream, batch_of(packets)) == windows(ref_segment_stream, packets)


@settings(deadline=None)
@given(packet_traces(sort=False), st.sampled_from([997, WINDOW // 3, WINDOW, SECOND]), st.sampled_from([0, 3, WINDOW]),
       st.sampled_from([None, 0, 1, 4 * WINDOW, 9 * WINDOW]))
def test_throughput_series_matches_the_reference(packets, bin_width, origin, span):
    assert throughput_series(batch_of(packets), bin_width, origin, span) == \
        ref_throughput_series(packets, bin_width, origin, span)


# --- the array paths themselves --------------------------------------------


def _uniform_packets(n: int, size: int = 96) -> list[PacketRecord]:
    return [PacketRecord(k * 1000, size, size + 20, bytes([k % 256]) * size) for k in range(n)]


@pytest.mark.parametrize("order", "<>")
@pytest.mark.parametrize("nanos", [False, True])
def test_fixed_length_capture_reads_as_a_view_of_the_input(order, nanos):
    packets = _uniform_packets(4 * VECTOR_MIN_PACKETS)
    data = _encode(packets, order, nanos, sub_micro_ns=999)
    _, batch = read_pcap(data)
    assert records_of(batch) == packets
    assert np.shares_memory(batch.payload, np.frombuffer(data, dtype=np.uint8))
    assert write_pcap(LINKTYPE_RAW_IP, batch) == write_pcap(LINKTYPE_RAW_IP, batch_of(packets))


def test_fixed_length_capture_with_one_odd_record_still_parses():
    # Same total size as a fixed-stride file, but the lengths differ.
    packets = _uniform_packets(2 * VECTOR_MIN_PACKETS)
    packets[5] = PacketRecord(5000, 80, 90, b"a" * 80)
    packets[6] = PacketRecord(6000, 112, 120, b"b" * 112)
    data = write_pcap(LINKTYPE_RAW_IP, batch_of(packets))
    assert records_of(read_pcap(data)[1]) == packets
    assert write_pcap(LINKTYPE_RAW_IP, read_pcap(data)[1]) == data


def test_errors_in_a_large_capture_name_the_first_bad_record():
    packets = _uniform_packets(3 * VECTOR_MIN_PACKETS)
    data = bytearray(write_pcap(LINKTYPE_RAW_IP, batch_of(packets)))
    offsets = _record_offsets(packets)
    data[offsets[40] + 12:offsets[40] + 16] = struct.pack("<I", 10)   # orig_len < incl_len
    data[offsets[70] + 4:offsets[70] + 8] = struct.pack("<I", 10**6)  # usec out of range
    with pytest.raises(PcapError, match=f"at byte offset {offsets[40]}$"):
        read_pcap(bytes(data))
    with pytest.raises(PcapError, match=f"at byte offset {offsets[40]}$"):
        read_pcap(bytes(data[:-1]))  # torn last record: the earlier error still wins


def test_unpack_window_rejects_out_of_window_and_disordered_batches():
    packets = _uniform_packets(3)
    with pytest.raises(ValueError, match="outside window"):
        unpack_window(*pack_window(lone_window(0, 1, 10_000, batch_of(packets))))
    with pytest.raises(ValueError, match="non-decreasing"):
        unpack_window(*pack_window(lone_window(0, 0, 10_000, batch_of(packets[::-1]))))


def _alternating_batch(n: int, run: int) -> PacketBatch:
    """n packets whose captured length switches between 60 and 61 bytes
    after every ``run`` packets."""
    cap = np.where(np.arange(n) // run % 2 == 0, 60, 61).astype(np.uint32)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cap, out=offsets[1:])
    payload = np.random.default_rng(n).integers(0, 256, int(offsets[-1]), dtype=np.uint8)
    return PacketBatch(np.arange(n, dtype=np.int64) * 1000, cap, cap + np.uint32(10), payload, offsets)


@pytest.mark.parametrize("run", [1, VECTOR_MIN_PACKETS], ids=["every-record", "every-run-threshold"])
def test_lengths_that_keep_changing_cost_the_same_per_record_at_any_count(run):
    """Input that breaks every run, or gives each a look-ahead that finds
    nothing, stays linear in reading and writing."""
    def seconds_per_record(fn, arg, n: int) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            fn(arg)
            best = min(best, time.perf_counter() - start)
        return best / n

    costs = {}
    for n in (2_000, 32_000):
        batch = _alternating_batch(n, run)
        data = write_pcap(LINKTYPE_RAW_IP, batch)
        assert records_of(read_pcap(data)[1]) == records_of(batch)
        costs[n] = (seconds_per_record(lambda b: write_pcap(LINKTYPE_RAW_IP, b), batch, n),
                    seconds_per_record(read_pcap, data, n))
    for small, large in zip(costs[2_000], costs[32_000]):
        assert large <= 2 * small


@pytest.mark.parametrize("damage", ["torn", "incl_over_orig", "subsecond"])
def test_damage_inside_a_long_run_names_the_first_bad_record(damage):
    packets = _uniform_packets(5 * VECTOR_MIN_PACKETS, size=40)
    packets[3] = PacketRecord(3000, 12, 20, b"c" * 12)
    data = bytearray(write_pcap(LINKTYPE_RAW_IP, batch_of(packets)))
    at = _record_offsets(packets)[4 * VECTOR_MIN_PACKETS]  # inside the run, past its first chunk
    if damage == "torn":
        del data[at + 30:]
    elif damage == "incl_over_orig":
        data[at + 12:at + 16] = struct.pack("<I", 39)
    else:
        data[at + 4:at + 8] = struct.pack("<I", SECOND)
    outcome = _outcome(read_pcap, bytes(data))
    assert outcome == _outcome(ref_read_pcap, bytes(data))
    assert outcome[0] == "raised" and outcome[1][1].endswith(f"at byte offset {at}")
