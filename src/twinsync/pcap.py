"""Bit-exact classic pcap reading/writing and windowed segmentation.

The writer always emits little-endian, microsecond-resolution pcap
(magic 0xa1b2c3d4, version 2.4) so output is byte-deterministic. The
reader additionally accepts the opposite byte order and the
nanosecond-resolution magic 0xa1b23c4d, truncating nanoseconds to
microseconds (truncation is monotone, so packet order is preserved).

Packets move as PacketBatch columns. Reading, writing and segmenting
work on whole arrays; below VECTOR_MIN_PACKETS packets a plain loop
over the records is faster than the fixed cost of the array calls, so
small windows take that path. The two paths produce the same bytes,
packets and errors.
"""

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadMagicError, PcapError, PcapWriteError, TimestampRegressionError, TruncatedRecordError
from .model import MICROS_PER_SECOND, PacketBatch, PacketRecord, first_index

PCAP_MAGIC_MICROS = 0xA1B2C3D4
PCAP_MAGIC_NANOS = 0xA1B23C4D
DEFAULT_SNAPLEN = 65535
LINKTYPE_RAW_IP = 101

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_GLOBAL_HEADER_LEN = 24
_RECORD_HEADER = struct.Struct("<IIII")
_RECORD_HEADERS = {order: struct.Struct(order + "IIII") for order in "<>"}
_INCL_LEN = {order: struct.Struct(order + "I") for order in "<>"}
_RECORD_HEADER_LEN = 16
_MAX_SECONDS = 0xFFFFFFFF
_NANOS_PER_MICRO = 1000

# Packet count from which whole-array code beats a loop over the records:
# below it, the fixed cost of each numpy call dominates.
VECTOR_MIN_PACKETS = 32


@dataclass(frozen=True, slots=True)
class CaptureWindow:
    """One T-second segment of the capture stream, the unit of sync.

    Windows abut without gaps; ``seq`` counts from 0 with no holes on the
    sending side (holes appear downstream only through loss). ``packets``
    accepts any sequence of PacketRecord and is stored as a PacketBatch.
    A window is not checked here: segment_stream cuts only windows whose
    packets lie in order inside their bounds, and transport.unpack_window
    checks every window where its bytes arrive.
    """

    seq: int
    start_ts_micros: int
    end_ts_micros: int
    packets: PacketBatch
    source_interface: str = "tun2"

    def __post_init__(self):
        object.__setattr__(self, "packets", PacketBatch.from_records(self.packets))

    @property
    def duration_micros(self) -> int:
        return self.end_ts_micros - self.start_ts_micros


def write_pcap(linktype: int, packets: Sequence[PacketRecord], snaplen: int = DEFAULT_SNAPLEN) -> bytes:
    """Serialize packets into a classic pcap byte string.

    Output is deterministic: same packets, same bytes.
    """
    batch = PacketBatch.from_records(packets)
    header = _GLOBAL_HEADER.pack(PCAP_MAGIC_MICROS, 2, 4, 0, 0, snaplen, linktype)
    n = len(batch)
    if n < VECTOR_MIN_PACKETS:
        return _write_records(header, batch, snaplen)

    cap = batch.captured_len
    sec, usec = np.divmod(batch.ts_micros, MICROS_PER_SECOND)
    over_snaplen = cap > snaplen
    bad = first_index(over_snaplen | (sec > _MAX_SECONDS))
    if bad is not None:
        if over_snaplen[bad]:
            raise PcapWriteError(bad, f"captured_len {int(cap[bad])} exceeds snaplen {snaplen}")
        raise PcapWriteError(bad, "timestamp beyond 32-bit seconds")

    headers = np.empty((n, 4), dtype="<u4")
    headers[:, 0] = sec
    headers[:, 1] = usec
    headers[:, 2] = cap
    headers[:, 3] = batch.original_len
    header_bytes = headers.view(np.uint8)
    out = np.empty(_GLOBAL_HEADER_LEN + _RECORD_HEADER_LEN * n + int(cap.sum(dtype=np.int64)), dtype=np.uint8)
    out[:_GLOBAL_HEADER_LEN] = np.frombuffer(header, dtype=np.uint8)
    body = out[_GLOBAL_HEADER_LEN:]
    length = int(cap[0])
    if np.all(cap == length):
        rows = body.reshape(n, _RECORD_HEADER_LEN + length)
        rows[:, :_RECORD_HEADER_LEN] = header_bytes
        rows[:, _RECORD_HEADER_LEN:] = batch.packed_payload().reshape(n, length)
    else:
        record_start = np.zeros(n, dtype=np.int64)
        np.cumsum(cap[:-1] + _RECORD_HEADER_LEN, out=record_start[1:])
        header_index = record_start[:, None] + np.arange(_RECORD_HEADER_LEN)
        body[header_index] = header_bytes
        is_payload = np.ones(len(body), dtype=bool)
        is_payload[header_index] = False
        body[is_payload] = batch.packed_payload()
    return out.tobytes()


def _write_records(header: bytes, batch: PacketBatch, snaplen: int) -> bytes:
    parts = [header]
    pack = _RECORD_HEADER.pack
    payload = batch.payload
    for i, (ts, cap, orig, start) in enumerate(zip(batch.ts_micros.tolist(), batch.captured_len.tolist(),
                                                   batch.original_len.tolist(), batch.offsets.tolist())):
        if cap > snaplen:
            raise PcapWriteError(i, f"captured_len {cap} exceeds snaplen {snaplen}")
        sec, usec = divmod(ts, MICROS_PER_SECOND)
        if sec > _MAX_SECONDS:
            raise PcapWriteError(i, "timestamp beyond 32-bit seconds")
        parts.append(pack(sec, usec, cap, orig))
        parts.append(payload[start:start + cap])
    return b"".join(parts)


def read_pcap(data: bytes) -> tuple[int, PacketBatch]:
    """Parse a classic pcap byte string into (linktype, packets).

    Accepts both byte orders and both the microsecond and nanosecond
    magics. Direction is Unknown: the file format does not carry it. The
    packets' payload buffer is ``data`` itself, not a copy.
    """
    size = len(data)
    if size < _GLOBAL_HEADER_LEN:
        raise TruncatedRecordError(size, "global header")
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
    frac_limit = 1_000_000_000 if nanos else MICROS_PER_SECOND
    buf = np.frombuffer(data, dtype=np.uint8)

    headers = _fixed_stride_headers(data, order)
    if headers is not None:
        n, stride = len(headers), int(headers[0, 2]) + _RECORD_HEADER_LEN
        record_offsets = _GLOBAL_HEADER_LEN + stride * np.arange(n + 1, dtype=np.int64)
        truncated_at = None
    else:
        record_offsets, truncated_at = _walk_records(data, order)
        if len(record_offsets) <= VECTOR_MIN_PACKETS:
            return linktype, _read_records(data, buf, record_offsets, truncated_at, order, nanos, frac_limit)
        record_offsets = np.array(record_offsets, dtype=np.int64)
        starts = record_offsets[:-1, None] + np.arange(_RECORD_HEADER_LEN)
        headers = buf[starts].view(order + "u4")

    sec, frac, incl, orig = (headers[:, k] for k in range(4))
    bad_len = incl > orig
    bad = first_index(bad_len | (frac >= frac_limit))
    if bad is not None:
        offset = int(record_offsets[bad])
        if bad_len[bad]:
            raise PcapError(f"incl_len {int(incl[bad])} exceeds orig_len {int(orig[bad])} at byte offset {offset}")
        raise PcapError(f"sub-second field {int(frac[bad])} out of range at byte offset {offset}")
    if truncated_at is not None:
        raise TruncatedRecordError(truncated_at)
    if nanos:
        frac = frac // _NANOS_PER_MICRO
    ts = sec.astype(np.int64) * MICROS_PER_SECOND + frac
    offsets = record_offsets + _RECORD_HEADER_LEN
    offsets[-1] = size
    n = len(headers)
    return linktype, PacketBatch.trusted(
        ts, incl.astype(np.uint32), orig.astype(np.uint32), np.zeros(n, dtype=np.int8), buf, offsets,
    )


def _fixed_stride_headers(data: bytes, order: str) -> np.ndarray | None:
    """Record headers as an (n, 4) view when every record has the same captured length.

    Taken from the first record's incl_len and checked on every header:
    when all n of them agree, record k starts at 24 + k * (16 + incl_len)
    and the last ends exactly at the end of the data. None otherwise, or
    when there are too few records for the array path to pay off.
    """
    body = len(data) - _GLOBAL_HEADER_LEN
    if body < _RECORD_HEADER_LEN:
        return None
    stride = struct.unpack_from(order + "I", data, _GLOBAL_HEADER_LEN + 8)[0] + _RECORD_HEADER_LEN
    n, rest = divmod(body, stride)
    if rest or n < VECTOR_MIN_PACKETS:
        return None
    headers = np.ndarray((n, 4), dtype=order + "u4", buffer=data, offset=_GLOBAL_HEADER_LEN, strides=(stride, 4))
    if not np.all(headers[:, 2] == stride - _RECORD_HEADER_LEN):
        return None
    return headers


def _walk_records(data: bytes, order: str) -> tuple[list[int], int | None]:
    """Byte offsets of the complete records, plus the end of the last one.

    Reads only each record's incl_len. Also returns the offset of a
    record cut short by the end of the data, or None.
    """
    size = len(data)
    unpack_incl = _INCL_LEN[order].unpack_from
    offsets = []
    offset = _GLOBAL_HEADER_LEN
    truncated_at = None
    while offset < size:
        if size - offset < _RECORD_HEADER_LEN:
            truncated_at = offset
            break
        end = offset + _RECORD_HEADER_LEN + unpack_incl(data, offset + 8)[0]
        if end > size:
            truncated_at = offset
            break
        offsets.append(offset)
        offset = end
    offsets.append(offset)
    return offsets, truncated_at


def _read_records(data: bytes, buf: np.ndarray, record_offsets: list[int], truncated_at: int | None,
                  order: str, nanos: bool, frac_limit: int) -> PacketBatch:
    """read_pcap's loop over a few records found by _walk_records."""
    unpack = _RECORD_HEADERS[order].unpack_from
    ts, incls, origs = [], [], []
    for offset in record_offsets[:-1]:
        sec, frac, incl, orig = unpack(data, offset)
        if incl > orig:
            raise PcapError(f"incl_len {incl} exceeds orig_len {orig} at byte offset {offset}")
        if frac >= frac_limit:
            raise PcapError(f"sub-second field {frac} out of range at byte offset {offset}")
        ts.append(sec * MICROS_PER_SECOND + (frac // _NANOS_PER_MICRO if nanos else frac))
        incls.append(incl)
        origs.append(orig)
    if truncated_at is not None:
        raise TruncatedRecordError(truncated_at)
    offsets = np.array(record_offsets, dtype=np.int64) + _RECORD_HEADER_LEN
    offsets[-1] = len(buf)
    return PacketBatch.trusted(
        np.array(ts, dtype=np.int64), np.array(incls, dtype=np.uint32), np.array(origs, dtype=np.uint32),
        np.zeros(len(ts), dtype=np.int8), buf, offsets, ts == sorted(ts),
    )


def segment_stream(
    packets: Iterable[PacketRecord],
    window_micros: int,
    origin_ts_micros: int,
    span_end_micros: int | None = None,
    source_interface: str = "tun2",
) -> Iterator[CaptureWindow]:
    """Split a time-ordered packet stream into gapless capture windows.

    Window k covers [origin + k*T, origin + (k+1)*T); a packet exactly on
    a boundary lands in the later window. Empty windows are emitted too,
    so the sync cadence is independent of traffic presence. When
    ``span_end_micros`` is given, windows are produced until the whole
    span is covered and the final window may be shorter than T; without
    it, segmentation stops at the (full) window holding the last packet.

    A packet out of order, before the origin or past the span end raises
    TimestampRegressionError naming its index, once the windows closed
    before it have been yielded. The windows are views of the packets'
    batch; nothing is copied.
    """
    if window_micros <= 0:
        raise ValueError("window_micros must be positive")
    if span_end_micros is not None and span_end_micros <= origin_ts_micros:
        raise ValueError("span_end_micros must lie after the origin")

    batch = PacketBatch.from_records(packets)
    ts = batch.ts_micros
    # The first bad packet wins; for one packet, the checks rank in this order.
    errors = [
        (batch.first_regression(), 0, "timestamp regression"),
        (first_index(ts < origin_ts_micros), 1, "timestamp before stream origin"),
    ]
    if span_end_micros is not None:
        errors.append((first_index(ts >= span_end_micros), 2, "timestamp beyond span end"))
    errors = sorted(e for e in errors if e[0] is not None)
    error = errors[0] if errors else None

    if error is not None:
        good = error[0]
        n_windows = 0 if good == 0 else int(ts[good - 1] - origin_ts_micros) // window_micros
    else:
        good = len(batch)
        if span_end_micros is not None:
            n_windows = -(-(span_end_micros - origin_ts_micros) // window_micros)
        else:
            n_windows = int(ts[-1] - origin_ts_micros) // window_micros + 1 if good else 0

    bounds = origin_ts_micros + window_micros * np.arange(1, n_windows + 1, dtype=np.int64)
    cuts = [0, *np.searchsorted(ts[:good], bounds, side="left").tolist()]
    span_end = span_end_micros if span_end_micros is not None else origin_ts_micros + n_windows * window_micros
    for k in range(n_windows):
        start = origin_ts_micros + k * window_micros
        yield CaptureWindow(k, start, min(start + window_micros, span_end), batch[cuts[k]:cuts[k + 1]],
                            source_interface)
    if error is not None:
        raise TimestampRegressionError(error[0], error[2])
