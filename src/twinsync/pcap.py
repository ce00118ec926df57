"""Bit-exact classic pcap reading/writing and windowed segmentation.

The writer always emits little-endian, microsecond-resolution pcap
(magic 0xa1b2c3d4, version 2.4) with one snap length, DEFAULT_SNAPLEN,
so output is byte-deterministic. The reader additionally accepts the
opposite byte order and the nanosecond-resolution magic 0xa1b23c4d,
truncating nanoseconds to microseconds (truncation is monotone, so
packet order is preserved).

PacketBatch, defined here, is the one form packets take from generation
to binning: columns of record-header fields plus one payload buffer.
Segmenting works on whole arrays. Reading and writing work on runs:
consecutive records with one captured length (for the writer, also in
payload slots of one size). A run of at least VECTOR_MIN_PACKETS records
is one array operation, a strided view of its headers when reading and
one copy into rows of header + payload when writing; the records between
long runs go one by one. A capture of one length is the one-run case.
The writer takes a batch a piece of packets at a time, each piece with
its own payload bytes, so a generated trace's rows are filled a piece at
a time; a run ends where a piece does. It writes each record once,
straight into the bytes object it returns.
Windows of fewer than VECTOR_MIN_PACKETS packets would pay the fixed
cost of each numpy call on a handful of records, so segment_stream
groups runs of them into PackBlocks of about PACK_BLOCK_BYTES; any
other window is a block of one. A CaptureWindow is its block and its
index there; its packets are sliced from the block's only when asked.
The sender writes a block with one write_pcap call and slices it into
windows (transport.pack_window), sent together in the virtual clock
(transport.send_windows); the receiver reads the windows it receives
together back with one read_pcap call
(transport.WindowReceiver.receive_block). A window holding a packet
write_pcap refuses is always a block of one, so a block of several
windows cannot fail to write.

Every path produces the same bytes, packets and errors.
"""

import io
import struct
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadMagicError, PcapError, PcapWriteError, TimestampRegressionError, TruncatedRecordError
from .model import MICROS_PER_SECOND

PCAP_MAGIC_MICROS = 0xA1B2C3D4
PCAP_MAGIC_NANOS = 0xA1B23C4D
DEFAULT_SNAPLEN = 65535
LINKTYPE_RAW_IP = 101

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_GLOBAL_HEADER_LEN = 24
_RECORD_HEADERS = {order: struct.Struct(order + "IIII") for order in "<>"}
_RECORD_HEADER_LEN = 16
# The first timestamp whose seconds do not fit a record header.
_TS_LIMIT_MICROS = 2**32 * MICROS_PER_SECOND
_NANOS_PER_MICRO = 1000

# Packet count from which whole-array code beats a loop over the records:
# below it, the fixed cost of each numpy call dominates. Also the length
# from which a run of records is read or written as one array.
VECTOR_MIN_PACKETS = 32

# pcap bytes of the records in one PackBlock, plus at most one window:
# large enough that the fixed cost of write_pcap is shared by hundreds of
# small windows, small enough that no more than this is ever held at once.
PACK_BLOCK_BYTES = 256 * 1024

# Packets whose records write_pcap writes per pass, each pass with its own
# payload bytes: a generated trace's rows are filled a piece at a time, so
# they never exist for a whole block, and a piece's buffers stay small
# enough to be reused from one pass to the next.
_WRITE_PIECE_PACKETS = 4096


def first_index(mask: np.ndarray) -> int | None:
    """Index of the first True in a boolean array, or None."""
    if not mask.any():
        return None
    return int(mask.argmax())


class PacketBatch:
    """Many captured packets as columns: the one packet form of twinsync.

    ``ts_micros`` (int64), ``captured_len`` and ``original_len`` (uint32)
    hold one entry per packet, the fields of a pcap record header.
    Payloads live in one 1-D uint8 array: packet i owns the slot
    ``payload[offsets[i]:offsets[i + 1]]`` (int64 ``offsets``, one more
    than the packets) and its captured bytes are the first
    ``captured_len[i]`` bytes of that slot. A batch read from pcap
    bytes keeps them where they lie, record headers in between, without a
    copy. A generated trace carries its columns only: its ``payload`` is
    an object whose ``fill(start, end)`` makes bytes ``[start, end)`` of
    the buffer it stands for, for any range of whole slots, and ``filled``
    turns a batch into one with real bytes. write_pcap calls it, so a
    trace's payload rows are made when they are written.

    ``PacketBatch(...)`` takes its columns as they are. Every timestamp is
    non-negative, no packet is captured past its original length and
    every slot holds its captured bytes: each producer makes its columns
    so, and the checks run where values enter the program (read_pcap on
    outside bytes, ScenarioSpec and GeneratedTrace on a scenario,
    ``with_ts`` on new timestamps). A step-1 slice is a batch sharing this
    one's arrays and buffer. Batches are never modified in place.
    """

    __slots__ = ("ts_micros", "captured_len", "original_len", "payload", "offsets")

    def __init__(self, ts_micros, captured_len, original_len, payload, offsets):
        self.ts_micros = ts_micros
        self.captured_len = captured_len
        self.original_len = original_len
        self.payload = payload
        self.offsets = offsets

    @classmethod
    def empty(cls) -> "PacketBatch":
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero.astype(np.uint32), zero.astype(np.uint32), zero.astype(np.uint8),
                   np.zeros(1, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.ts_micros)

    def __getitem__(self, index: slice) -> "PacketBatch":
        """The packets of a step-1 slice, sharing this batch's arrays and buffer."""
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("a packet batch slices with step 1 only")
        stop = max(start, stop)
        return PacketBatch(self.ts_micros[start:stop], self.captured_len[start:stop],
                           self.original_len[start:stop], self.payload, self.offsets[start:stop + 1])

    def __repr__(self) -> str:
        return f"PacketBatch(<{len(self)} packets>)"

    def filled(self) -> "PacketBatch":
        """The same packets with their payload bytes in a buffer: this batch
        when its payload is one, else its range of slots filled, with the
        offsets counted from the start of that range."""
        if isinstance(self.payload, np.ndarray):
            return self
        start, end = int(self.offsets[0]), int(self.offsets[-1])
        return PacketBatch(self.ts_micros, self.captured_len, self.original_len,
                           self.payload.fill(start, end), self.offsets - start)

    def first_regression(self) -> int | None:
        """Index of the first packet whose timestamp is below its predecessor's,
        or None when timestamps never decrease."""
        ts = self.ts_micros
        index = first_index(ts[1:] < ts[:-1])
        return None if index is None else index + 1

    def with_ts(self, ts_micros: np.ndarray) -> "PacketBatch":
        """The same packets with new timestamps (int64, one per packet)."""
        index = first_index(ts_micros < 0)
        if index is not None:
            raise ValueError(f"packet {index}: ts_micros must be non-negative")
        return PacketBatch(ts_micros, self.captured_len, self.original_len, self.payload, self.offsets)

    def shifted(self, offset_micros: int) -> "PacketBatch":
        """The same packets, every timestamp moved by ``offset_micros``."""
        if offset_micros == 0:
            return self
        return self.with_ts(self.ts_micros + offset_micros)


class PackBlock:
    """Consecutive windows of one segmentation whose pcap records are
    written with one write_pcap call.

    ``packets`` holds the packets of all of them and ``cuts`` the
    block-local index where each window starts, plus the block's end. A
    window names its block and its index there (see CaptureWindow), and
    segment_stream yields the ``len(cuts) - 1`` windows of a block one
    after another. The sender writes the block on its first window (see
    transport.pack_window) and hands the pcap to ``set_pcap``; each
    window's pcap is then the global header plus its range of the block's
    records, and the pcap of a block of one window is the block's pcap
    itself. A window built by hand is a block of one:
    ``PackBlock(packets, [0, len(packets)])``.
    """

    __slots__ = ("packets", "cuts", "pcap", "_record_at")

    def __init__(self, packets: PacketBatch, cuts: list[int]):
        self.packets = packets
        self.cuts = cuts
        self.pcap = None
        self._record_at = None

    def set_pcap(self, pcap: bytes) -> None:
        """Keep the pcap of the block's packets."""
        self.pcap = pcap
        if len(self.cuts) > 2:
            cuts = np.array(self.cuts, dtype=np.int64)
            captured_before = np.concatenate(([0], np.cumsum(self.packets.captured_len, dtype=np.int64)))
            self._record_at = (_GLOBAL_HEADER_LEN + _RECORD_HEADER_LEN * cuts + captured_before[cuts]).tolist()

    def window_pcap(self, index: int) -> bytes:
        """The pcap of the block's ``index``-th window."""
        pcap, record_at = self.pcap, self._record_at
        if record_at is None:
            return pcap
        return pcap[:_GLOBAL_HEADER_LEN] + pcap[record_at[index]:record_at[index + 1]]


class CaptureWindow(NamedTuple):
    """One T-second segment of the capture stream, the unit of sync.

    Windows abut without gaps; ``seq`` counts from 0 with no holes on the
    sending side (holes appear downstream only through loss). A window is
    the ``index``-th window of its PackBlock ``block``; its packets are a
    view of the block's, made when asked. A window is an immutable tuple,
    safe to hand between threads. It is not checked here: segment_stream
    cuts only windows whose packets lie in order inside their bounds, and
    transport.unpack_windows checks every window where its bytes arrive.
    """

    seq: int
    start_ts_micros: int
    end_ts_micros: int
    block: PackBlock
    index: int
    source_interface: str = "tun2"

    @property
    def packets(self) -> PacketBatch:
        """The window's packets, a slice of its block's."""
        cuts = self.block.cuts
        return self.block.packets[cuts[self.index]:cuts[self.index + 1]]


def _unwritable(batch: PacketBatch) -> np.ndarray | None:
    """Which packets write_pcap refuses, those captured past DEFAULT_SNAPLEN
    or stamped past 32-bit seconds; None when it takes them all."""
    unwritable = (batch.captured_len > DEFAULT_SNAPLEN) | (batch.ts_micros >= _TS_LIMIT_MICROS)
    return unwritable if unwritable.any() else None


def write_pcap(linktype: int, batch: PacketBatch) -> bytes:
    """Serialize packets into a classic pcap byte string.

    Output is deterministic: same packets, same bytes. A packet captured
    past DEFAULT_SNAPLEN or stamped past 32-bit seconds raises
    PcapWriteError naming the first such packet. Each record is
    written once, into the buffer of the bytes returned: no full-size
    scratch array exists, and nothing is copied at the end.
    """
    cap = batch.captured_len
    unwritable = _unwritable(batch)
    if unwritable is not None:
        bad = first_index(unwritable)
        if cap[bad] > DEFAULT_SNAPLEN:
            raise PcapWriteError(bad, f"captured_len {int(cap[bad])} exceeds snaplen {DEFAULT_SNAPLEN}")
        raise PcapWriteError(bad, "timestamp beyond 32-bit seconds")
    n = len(batch)
    record_at = np.empty(n + 1, dtype=np.int64)
    record_at[0] = _GLOBAL_HEADER_LEN
    np.cumsum(cap + np.int64(_RECORD_HEADER_LEN), out=record_at[1:])
    record_at[1:] += _GLOBAL_HEADER_LEN
    # The records go straight into the buffer of the bytes returned: a
    # BytesIO grown to the size, written through its buffer, hands that
    # buffer over as bytes once no view of it is left; getvalue copies it
    # while one is. It is grown before the header goes in: the byte that
    # grows it is the header's last when the capture is empty.
    data = io.BytesIO()
    data.seek(int(record_at[-1]) - 1)
    data.write(b"\0")
    view = data.getbuffer()
    _GLOBAL_HEADER.pack_into(view, 0, PCAP_MAGIC_MICROS, 2, 4, 0, 0, DEFAULT_SNAPLEN, linktype)
    out = np.frombuffer(view, dtype=np.uint8)
    for first in range(0, n, _WRITE_PIECE_PACKETS):
        stop = min(first + _WRITE_PIECE_PACKETS, n)
        _write_piece(out[int(record_at[first]):int(record_at[stop])], record_at[first:stop + 1] - record_at[first],
                     batch[first:stop].filled())
    # `out` holds a view of the buffer of its own, which view.release()
    # neither sees nor ends: deleting it is what spares getvalue a copy.
    del out
    view.release()
    return data.getvalue()


def _write_piece(out: np.ndarray, record_at: np.ndarray, batch: PacketBatch) -> None:
    """Write the records of ``batch`` into ``out``, record i at ``record_at[i]``."""
    n, cap = len(batch), batch.captured_len
    sec, usec = np.divmod(batch.ts_micros, MICROS_PER_SECOND)
    headers = np.empty((n, 4), dtype="<u4")
    headers[:, 0] = sec
    headers[:, 1] = usec
    headers[:, 2] = cap
    headers[:, 3] = batch.original_len
    header_bytes = headers.view(np.uint8)

    # A run: consecutive packets with one captured length in equal payload
    # slots. A long run is one copy into rows of header + payload.
    offsets = batch.offsets
    slot = offsets[1:] - offsets[:-1]
    bounds = np.flatnonzero((cap[1:] != cap[:-1]) | (slot[1:] != slot[:-1])) + 1
    bounds = np.concatenate(([0], bounds, [n]))
    is_long = bounds[1:] - bounds[:-1] >= VECTOR_MIN_PACKETS
    for first, stop in zip(bounds[:-1][is_long].tolist(), bounds[1:][is_long].tolist()):
        k, length = stop - first, int(cap[first])
        start, end = int(offsets[first]), int(offsets[stop])
        rows = out[int(record_at[first]):int(record_at[stop])].reshape(k, _RECORD_HEADER_LEN + length)
        rows[:, :_RECORD_HEADER_LEN] = header_bytes[first:stop]
        rows[:, _RECORD_HEADER_LEN:] = batch.payload[start:end].reshape(k, (end - start) // k)[:, :length]

    # The other packets: all their headers in one copy, then each payload.
    rest = np.flatnonzero(np.repeat(~is_long, bounds[1:] - bounds[:-1]))
    if len(rest):
        at = record_at[rest]
        sliding_window_view(out, _RECORD_HEADER_LEN, writeable=True)[at] = header_bytes[rest]
        dest, payload = memoryview(out), memoryview(batch.payload)
        for to, start, length in zip((at + _RECORD_HEADER_LEN).tolist(), offsets[rest].tolist(), cap[rest].tolist()):
            dest[to:to + length] = payload[start:start + length]


def read_pcap(data: bytes) -> tuple[int, PacketBatch]:
    """Parse a classic pcap byte string into (linktype, packets).

    Accepts both byte orders and both the microsecond and nanosecond
    magics. The packets' payload buffer is ``data`` itself, not a copy.
    Records are walked, then checked in one pass: the first bad record in
    file order raises PcapError, and a torn tail raises
    TruncatedRecordError only when no record before it is bad.
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
    # The walk only finds records: it steps them one by one and, after
    # VECTOR_MIN_PACKETS in a row of one captured length, takes the rest of
    # that run as one strided view of its headers. It stops at the first
    # record the input does not hold.
    unpack = _RECORD_HEADERS[order].unpack_from
    fields, stepped_at = [], []  # the stepped records' header fields, flat, and their offsets
    add_fields, add_at = fields.extend, stepped_at.append
    runs = []  # (records stepped before the run, its headers, its record offsets), in file order
    offset = _GLOBAL_HEADER_LEN
    same, last = 0, -1
    while size - offset >= _RECORD_HEADER_LEN:
        header = unpack(data, offset)
        incl = header[2]
        end = offset + _RECORD_HEADER_LEN + incl
        if end > size:
            break
        add_fields(header)
        add_at(offset)
        offset = end
        if incl != last:
            same, last = 1, incl
            continue
        same += 1
        if same == VECTOR_MIN_PACKETS:
            same = 0
            k = _run_length(data, order, offset, incl)
            if k:
                stride = _RECORD_HEADER_LEN + incl
                run = np.ndarray((k, 4), dtype=order + "u4", buffer=data, offset=offset, strides=(stride, 4))
                runs.append((len(stepped_at), run, offset + stride * np.arange(k, dtype=np.int64)))
                offset += k * stride

    # For one record, incl_len past orig_len is reported before the sub-second field.
    headers = np.array(fields, dtype=order + "u4").reshape(-1, 4)
    record_at = np.array(stepped_at, dtype=np.int64)
    if runs:
        pieces, done = [], 0
        for first, run, run_at in runs:
            pieces += ((headers[done:first], record_at[done:first]), (run, run_at))
            done = first
        pieces.append((headers[done:], record_at[done:]))
        headers, record_at = (np.concatenate(column) for column in zip(*pieces))
    sec, frac, incl, orig = (headers[:, j] for j in range(4))
    bad_len = incl > orig
    bad = first_index(bad_len | (frac >= (1_000_000_000 if nanos else MICROS_PER_SECOND)))
    if bad is not None:
        at = record_at[bad]
        if bad_len[bad]:
            raise PcapError(f"incl_len {incl[bad]} exceeds orig_len {orig[bad]} at byte offset {at}")
        raise PcapError(f"sub-second field {frac[bad]} out of range at byte offset {at}")
    if offset < size:
        raise TruncatedRecordError(offset)
    if nanos:
        frac = frac // _NANOS_PER_MICRO
    ts = sec.astype(np.int64) * MICROS_PER_SECOND + frac
    offsets = np.append(record_at + _RECORD_HEADER_LEN, size)
    return linktype, PacketBatch(ts, incl.astype(np.uint32), orig.astype(np.uint32),
                                 np.frombuffer(data, dtype=np.uint8), offsets)


def _run_length(data: bytes, order: str, offset: int, incl: int) -> int:
    """How many whole records from ``offset`` on have captured length ``incl``.

    Looks ahead in chunks that start at VECTOR_MIN_PACKETS records and
    double, so a run of k records costs O(k) and a short one O(1) array
    calls: input that changes length often stays linear.
    """
    stride = _RECORD_HEADER_LEN + incl
    fit = (len(data) - offset) // stride
    count, chunk = 0, VECTOR_MIN_PACKETS
    while count < fit:
        k = min(chunk, fit - count)
        lengths = np.ndarray((k,), dtype=order + "u4", buffer=data, offset=offset + count * stride + 8,
                             strides=(stride,))
        bad = first_index(lengths != incl)
        if bad is not None:
            return count + bad
        count += k
        chunk *= 2
    return count


def segment_stream(
    batch: PacketBatch,
    window_micros: int,
    origin_ts_micros: int,
    span_end_micros: int,
    source_interface: str = "tun2",
    first_seq: int = 0,
) -> Iterator[CaptureWindow]:
    """Split a time-ordered packet stream into gapless capture windows
    covering [origin, span_end).

    Window k covers [origin + k*T, origin + (k+1)*T), the last one cut
    at the span end, and has seq ``first_seq + k``: a stream cut into
    spans of whole windows is segmented a span at a time with the seqs
    and bounds it would get at once. A packet exactly on a boundary lands
    in the later window. Empty windows are emitted too, so the sync
    cadence is independent of traffic presence.

    A packet out of order, before the origin or past the span end raises
    TimestampRegressionError naming its index, once the windows closed
    before it have been yielded. Each window names its PackBlock and its
    index there; a block's packets are a view of the batch, and nothing
    is copied. Runs of windows of fewer than VECTOR_MIN_PACKETS packets
    are grouped into blocks of about PACK_BLOCK_BYTES, so the sender
    writes each run with one write_pcap call; a block never holds more
    than that budget plus one window. Any other window, and every window
    holding a packet write_pcap refuses, is a block of one.
    """
    if window_micros <= 0:
        raise ValueError("window_micros must be positive")
    if span_end_micros <= origin_ts_micros:
        raise ValueError("span_end_micros must lie after the origin")

    ts = batch.ts_micros
    # The first bad packet wins; for one packet, the checks rank in this order.
    error = min((e for e in (
        (batch.first_regression(), 0, "timestamp regression"),
        (first_index(ts < origin_ts_micros), 1, "timestamp before stream origin"),
        (first_index(ts >= span_end_micros), 2, "timestamp beyond span end"),
    ) if e[0] is not None), default=None)

    if error is not None:
        good = error[0]
        n_windows = 0 if good == 0 else int(ts[good - 1] - origin_ts_micros) // window_micros
    else:
        good = len(batch)
        n_windows = -(-(span_end_micros - origin_ts_micros) // window_micros)

    bounds = origin_ts_micros + window_micros * np.arange(1, n_windows + 1, dtype=np.int64)
    cuts = np.concatenate(([0], np.searchsorted(ts[:good], bounds, side="left")))

    # At least the pcap record bytes before each window: a payload slot
    # holds its packet's captured bytes and maybe a gap.
    bytes_before = (batch.offsets[cuts] + _RECORD_HEADER_LEN * cuts).tolist()
    # The windows holding a packet write_pcap refuses: each is a block of one.
    unwritable = _unwritable(batch[:cuts[-1]])
    alone = set() if unwritable is None else set(
        (np.searchsorted(cuts, np.flatnonzero(unwritable), side="right") - 1).tolist())
    cuts = cuts.tolist()

    k = 0
    while k < n_windows:
        first = k
        k += 1
        if cuts[k] - cuts[first] < VECTOR_MIN_PACKETS and first not in alone:
            # The small windows that follow, until the block holds its budget.
            limit = bytes_before[first] + PACK_BLOCK_BYTES
            while (k < n_windows and cuts[k + 1] - cuts[k] < VECTOR_MIN_PACKETS and k not in alone
                   and bytes_before[k] < limit):
                k += 1
        base = cuts[first]
        block = PackBlock(batch[base:cuts[k]], [cut - base for cut in cuts[first:k + 1]])
        for index, seq in enumerate(range(first, k)):
            start = origin_ts_micros + seq * window_micros
            yield CaptureWindow(first_seq + seq, start, min(start + window_micros, span_end_micros), block, index,
                                source_interface)
    if error is not None:
        raise TimestampRegressionError(error[0], error[2])
