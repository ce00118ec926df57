"""Window transfer between the physical side and the twin side.

The transfer contract is deliberately narrow: (manifest, pcap bytes)
pairs delivered in send order, with measurable delay and possible loss,
never reordered. Three interchangeable channels implement it:

* InProcessChannel - a queue with simulated latency, serialization delay
  and seeded loss; the deterministic backbone of tests and virtual runs.
* DirectoryExchangeChannel - windows published as files in a shared
  directory (``window_<n>.pcap`` + ``window_<n>.manifest.json`` for the
  n-th window published), mirroring a fetch-the-latest-capture-folder
  deployment.
* TCP sender/receiver - length-prefixed frames over a socket for
  two-process runs. The receiver refuses a manifest longer than
  MAX_MANIFEST_BYTES and reads in chunks of at most 1 MiB, so a garbled
  length prefix costs only the bytes that actually arrive.

Lost windows are never retransmitted: the twin always wants the most
recent trace, and the gap stays visible to the metrics.

pack_window serializes each window from the pcap.PackBlock it names:
the windows of a block share one write_pcap call, so the per-window
cost of a short T is a slice, a digest and a manifest. On the other
side, unpack_windows holds the rules every received window must pass,
whether it arrives alone (unpack_window, through WindowReceiver.receive)
or in a group of two or more that WindowReceiver.receive_block reads
with one read_pcap call. A group that fails any check goes through
receive one window at a time, which raises the precise error. Either
way the replay gets a ReceivedBlock. Manifests, receipts and received
blocks are immutable named tuples, built at the cost of a tuple and
safe to pass between the real-time threads.

The SyncLog is columnar: int64 time columns and a lost mask indexed by
seq. Each receive-side event is one call that takes one seq or an
array of them, the metrics read the log as SyncLogColumns, and
SyncLog.entries() builds one SyncLogEntry per window only when asked.
"""

import hashlib
import json
import queue
import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .clocks import Clock, MonotonicClock
from .errors import (
    ChannelClosedError,
    DigestMismatchError,
    ForeignWindowError,
    SchemaError,
    TwinError,
)
from .model import _fields, parse_json_object
from .pcap import (
    _GLOBAL_HEADER_LEN,
    _RECORD_HEADER_LEN,
    _TS_LIMIT_MICROS,
    LINKTYPE_RAW_IP,
    CaptureWindow,
    PacketBatch,
    first_index,
    read_pcap,
    write_pcap,
)

DIGEST_ALGORITHM = "sha256"


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class WindowManifest(NamedTuple):
    """Integrity envelope shipped alongside each window's pcap bytes."""

    seq: int
    start_ts_micros: int
    end_ts_micros: int
    byte_length: int
    content_digest: str
    digest_algorithm: str = DIGEST_ALGORITHM
    source_interface: str = "tun2"

    def to_json(self) -> bytes:
        return (json.dumps(self._asdict(), indent=2) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "WindowManifest":
        """Parse a manifest as it arrives over a channel. Raises JsonParseError
        for input that is not UTF-8 JSON, and SchemaError naming a field that
        is missing, of the wrong type or out of range."""
        values = _fields(cls, parse_json_object(data), "")
        for key in ("seq", "start_ts_micros", "end_ts_micros", "byte_length"):
            if not 0 <= values[key] < 2**63:  # the int64 columns of the sync log
                raise SchemaError(key, f"must lie in [0, 2**63), got {values[key]}")
        if values["digest_algorithm"] != DIGEST_ALGORITHM:
            raise SchemaError("digest_algorithm", f"expected {DIGEST_ALGORITHM!r}, got {values['digest_algorithm']!r}")
        return cls(**values)


def pack_window(window: CaptureWindow) -> tuple[WindowManifest, bytes]:
    """Serialize a window for transfer: raw-IP pcap payload plus its manifest.

    A window's pcap is its range of its PackBlock's records behind the
    global header: the block's first window packed writes the whole block
    with one write_pcap call, and the others slice it.
    """
    block = window.block
    if block.pcap is None:
        block.set_pcap(write_pcap(LINKTYPE_RAW_IP, block.packets))
    payload = block.window_pcap(window.index)
    manifest = WindowManifest(window.seq, window.start_ts_micros, window.end_ts_micros, len(payload),
                              _digest(payload), DIGEST_ALGORITHM, window.source_interface)
    return manifest, payload


def unpack_windows(manifests: Sequence[WindowManifest],
                   payloads: Sequence[bytes]) -> tuple[PacketBatch, np.ndarray]:
    """Check windows received in seq order and read their packets, the one
    place a received window is checked. Returns the packets of them all as
    one batch and the index where each window's packets start, plus the end.

    In this order, each window must match its manifest's length and digest
    (else DigestMismatchError), have a non-negative seq and a positive
    duration (ValueError), read as pcap (PcapError), and hold packets
    inside [start, end) in time order (ValueError). A lone window is read
    from its own bytes. Two or more are read with one read_pcap call, their
    records joined behind their common global header, which reads each as
    it would be read alone only when the global headers are identical, the
    bounds follow one another and each window's bytes start on a record
    boundary (else ValueError).
    """
    for manifest, payload in zip(manifests, payloads):
        if len(payload) != manifest.byte_length or _digest(payload) != manifest.content_digest:
            raise DigestMismatchError(manifest.seq)
        if manifest.seq < 0:
            raise ValueError("seq must be non-negative")
        if manifest.end_ts_micros <= manifest.start_ts_micros:
            raise ValueError("window must have positive duration")
    if len(payloads) == 1:
        _, packets = read_pcap(payloads[0])
        cuts = np.array([0, len(packets)])
        low, high = manifests[0].start_ts_micros, manifests[0].end_ts_micros
    else:
        header = payloads[0][:_GLOBAL_HEADER_LEN]
        if len(header) < _GLOBAL_HEADER_LEN or not all(payload.startswith(header) for payload in payloads):
            raise ValueError("windows with different global headers are not read joined")
        starts = np.array([manifest.start_ts_micros for manifest in manifests], dtype=np.int64)
        ends = np.array([manifest.end_ts_micros for manifest in manifests], dtype=np.int64)
        if (starts[1:] < ends[:-1]).any():
            raise ValueError("windows whose bounds overlap are not read joined")
        joined = header + b"".join([memoryview(payload)[_GLOBAL_HEADER_LEN:] for payload in payloads])
        _, packets = read_pcap(joined)
        window_at = np.cumsum([_GLOBAL_HEADER_LEN] + [len(payload) - _GLOBAL_HEADER_LEN for payload in payloads])
        record_at = packets.offsets - _RECORD_HEADER_LEN
        record_at[-1] = len(joined)
        cuts = np.searchsorted(record_at, window_at)
        if not (record_at[cuts] == window_at).all():
            raise ValueError("a window's bytes do not start on a record boundary of the joined windows")
        counts = np.diff(cuts)
        low, high = np.repeat(starts, counts), np.repeat(ends, counts)
    ts = packets.ts_micros
    outside = first_index((ts < low) | (ts >= high))
    regression = packets.first_regression()
    if regression is not None and (outside is None or outside > regression):
        raise ValueError("packet timestamps must be non-decreasing")
    if outside is not None:
        manifest = manifests[int(np.searchsorted(cuts, outside, side="right")) - 1]
        raise ValueError(f"packet ts {int(ts[outside])} outside window "
                         f"[{manifest.start_ts_micros}, {manifest.end_ts_micros})")
    return packets, cuts


def unpack_window(manifest: WindowManifest, payload: bytes) -> PacketBatch:
    """Check one received window (see unpack_windows) and read its packets."""
    return unpack_windows([manifest], [payload])[0]


@dataclass(frozen=True, slots=True)
class ChannelSpec:
    """Tuning knobs of a transfer channel.

    ``bandwidth_bps`` of 0 means no serialization delay. Loss draws come
    from ``seed``, so a run is reproducible down to which windows vanish.
    """

    kind: str = "in-process"
    latency_us: int = 0
    bandwidth_bps: int = 0
    loss_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("in-process", "directory-exchange", "tcp"):
            raise ValueError(f"unknown channel kind {self.kind!r}; expected in-process, directory-exchange or tcp")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must lie in [0, 1]")
        if self.latency_us < 0 or self.bandwidth_bps < 0:
            raise ValueError("latency and bandwidth must be non-negative")
        if self.latency_us > _TS_LIMIT_MICROS:
            raise ValueError(f"latency of {self.latency_us} us exceeds 2**32 seconds, the span of a pcap timestamp")


class SendReceipt(NamedTuple):
    seq: int
    dropped: bool


# The time column value of a step a window has not reached (not received,
# not replayed); below any timestamp the loop records.
NOT_RECORDED = np.iinfo(np.int64).min


@dataclass(slots=True)
class SyncLogEntry:
    """Timeline of one window through the loop, as SyncLog.entries() shows it."""

    seq: int
    t_window_start: int
    t_window_end: int
    t_sent: int | None = None
    t_received: int | None = None
    t_replayed: int | None = None
    lost: bool = False

    @property
    def delivered(self) -> bool:
        return self.t_received is not None and not self.lost


class SyncLogColumns(NamedTuple):
    """A copy of the sync log as columns, one row per sent window in seq
    order. ``t_received`` and ``t_replayed`` hold NOT_RECORDED where the
    window has not reached that step."""

    seq: np.ndarray
    t_window_start: np.ndarray
    t_window_end: np.ndarray
    t_sent: np.ndarray
    t_received: np.ndarray
    t_replayed: np.ndarray
    lost: np.ndarray

    @property
    def delivered(self) -> np.ndarray:
        """Per window, whether it was received and not lost."""
        return (self.t_received != NOT_RECORDED) & ~self.lost

    @property
    def replayed(self) -> np.ndarray:
        """Per window, whether it was replayed."""
        return self.t_replayed != NOT_RECORDED


_TIME_COLUMNS = ("t_window_start", "t_window_end", "t_sent", "t_received", "t_replayed")

# Windows SyncLog.to_csv_bytes formats per pass.
_CSV_SLICE_ROWS = 4096


class SyncLog:
    """Per-window timeline: the sender opens each entry, the twin side fills it in.

    The log is columnar: int64 time columns and a lost mask indexed by
    seq, grown by doubling. ``record_sent`` is the only call that opens an
    entry, and it opens them in seq order from 0, so the log is the prefix
    of windows sent so far: a seq was sent iff 0 <= seq < the count sent.
    Receiving, replaying or losing a window this run never sent raises
    ForeignWindowError, and so does receiving one whose bounds differ
    from those sent. ``record_received`` and ``record_replayed`` take one
    seq or an array of them and record all of a call or none of it. A
    single lock serializes writers; reads return copies, so the metrics
    can run while a live pipeline keeps appending.
    """

    def __init__(self):
        # Never empty, so that row 0 can stand in for a seq outside the log.
        self._times = {name: np.full(64, NOT_RECORDED, dtype=np.int64) for name in _TIME_COLUMNS}
        self._lost = np.zeros(64, dtype=bool)
        self._sent = 0
        self._lock = threading.Lock()

    def _check_sent(self, seqs, starts=None, ends=None) -> None:
        """Raise ForeignWindowError for the first of ``seqs`` (one seq or an
        array) that was not sent, or was sent with bounds other than
        ``starts`` and ``ends`` when those are given; call with the lock held."""
        seqs = np.atleast_1d(seqs)
        sent = (seqs >= 0) & (seqs < self._sent)
        rows = np.where(sent, seqs, 0)
        foreign = ~sent
        if starts is not None:
            sent_starts, sent_ends = self._times["t_window_start"][rows], self._times["t_window_end"][rows]
            foreign |= (sent_starts != starts) | (sent_ends != ends)
        bad = first_index(foreign)
        if bad is None:
            return
        seq = int(seqs[bad])
        if not sent[bad]:
            raise ForeignWindowError(seq)
        arrived = np.atleast_1d(starts)[bad], np.atleast_1d(ends)[bad]
        raise ForeignWindowError(seq, f"arrived as [{arrived[0]}, {arrived[1]}), "
                                      f"sent as [{sent_starts[bad]}, {sent_ends[bad]})")

    def record_sent(self, seq: int, t_window_start: int, t_window_end: int, t_sent: int) -> None:
        """Open the entry of the next window in seq order; any other seq
        raises ValueError."""
        with self._lock:
            if seq != self._sent:
                raise ValueError(f"window {seq} sent out of order: the next seq to send is {self._sent}")
            if seq == len(self._lost):
                for name, column in self._times.items():
                    self._times[name] = np.concatenate((column, np.full(seq, NOT_RECORDED, dtype=np.int64)))
                self._lost = np.concatenate((self._lost, np.zeros(seq, dtype=bool)))
            times = self._times
            times["t_window_start"][seq] = t_window_start
            times["t_window_end"][seq] = t_window_end
            times["t_sent"][seq] = t_sent
            self._sent = seq + 1

    def record_received(self, seqs, t_received, t_window_start, t_window_end, holes_from: int | None = None) -> None:
        """Record windows received, one seq or an array in seq order, with
        the bounds they arrived with. With ``holes_from``, also mark lost
        the seqs from ``holes_from`` on that they skip."""
        seqs = np.atleast_1d(seqs)
        with self._lock:
            self._check_sent(seqs, t_window_start, t_window_end)
            if holes_from is not None and holes_from < seqs[-1]:
                # Every seq below seqs[-1] was sent; each of the span's is
                # below seqs[-1], so searchsorted stays in seqs.
                span = np.arange(holes_from, seqs[-1], dtype=np.int64)
                self._lost[span[seqs[np.searchsorted(seqs, span)] != span]] = True
            self._times["t_received"][seqs] = t_received

    def record_replayed(self, seqs, t_replayed) -> None:
        """Record windows replayed, one seq or an array."""
        with self._lock:
            self._check_sent(seqs)
            self._times["t_replayed"][seqs] = t_replayed

    def mark_lost(self, seq: int) -> None:
        with self._lock:
            self._check_sent(seq)
            self._lost[seq] = True

    def columns(self) -> SyncLogColumns:
        with self._lock:
            n = self._sent
            return SyncLogColumns(np.arange(n, dtype=np.int64),
                                  *(self._times[name][:n].copy() for name in _TIME_COLUMNS),
                                  self._lost[:n].copy())

    def entries(self) -> list[SyncLogEntry]:
        """The log one entry per sent window, in seq order; built on demand."""
        columns = self.columns()
        return [
            SyncLogEntry(seq, start, end, sent, _optional(received), _optional(replayed), lost)
            for seq, start, end, sent, received, replayed, lost in zip(*(column.tolist() for column in columns))
        ]

    def to_csv_bytes(self) -> bytes:
        """The log as CSV, formatted _CSV_SLICE_ROWS windows at a time, so
        the Python objects of one slice exist at once, not of the whole log."""
        log = self.columns()
        fields = (*log[:-1], log.lost.astype(np.int8))
        parts = [b"seq,t_window_start,t_window_end,t_sent,t_received,t_replayed,lost\n"]
        for first in range(0, len(log.seq), _CSV_SLICE_ROWS):
            columns = [column[first:first + _CSV_SLICE_ROWS].tolist() for column in fields]
            for i in (4, 5):  # t_received and t_replayed, empty where not recorded
                if NOT_RECORDED in columns[i]:
                    columns[i] = ["" if t == NOT_RECORDED else t for t in columns[i]]
            parts.append(("\n".join(map("{},{},{},{},{},{},{}".format, *columns)) + "\n").encode("utf-8"))
        return b"".join(parts)


def _optional(t: int) -> int | None:
    return None if t == NOT_RECORDED else t


class _SendingChannel:
    """The send side every channel shares: ``send`` refuses after
    ``close_send``, draws the seeded loss (one draw per send, so a run
    drops the same windows on every channel) and returns the receipt; a
    window that survives the draw goes to the subclass's ``_deliver``."""

    def __init__(self, spec: ChannelSpec):
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._send_closed = False

    def send(self, manifest: WindowManifest, payload: bytes, now_micros: int) -> SendReceipt:
        if self._send_closed:
            raise ChannelClosedError("send on closed channel")
        dropped = self._rng.random() < self.spec.loss_probability
        if not dropped:
            self._deliver(manifest, payload, now_micros)
        return SendReceipt(manifest.seq, dropped)


_END_OF_STREAM = object()


class InProcessChannel(_SendingChannel):
    """Single-producer/single-consumer queue with a simulated link.

    Delivery time models a serialized pipe: transmission starts once the
    previous window finished transmitting, takes bytes*8/bandwidth, and
    propagation adds a fixed latency. Without a clock the computed
    arrival timestamp is simply carried with the delivery (virtual time);
    with a clock the receiver actually waits for it.
    """

    def __init__(self, spec: ChannelSpec, clock: Clock | None = None):
        super().__init__(spec)
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._clock = clock
        self._link_free_at: int | None = None

    def _deliver(self, manifest: WindowManifest, payload: bytes, now_micros: int) -> None:
        if self.spec.bandwidth_bps > 0:
            tx = -(-len(payload) * 8 * 1_000_000 // self.spec.bandwidth_bps)
        else:
            tx = 0
        start = now_micros if self._link_free_at is None else max(now_micros, self._link_free_at)
        arrival = start + tx + self.spec.latency_us
        self._link_free_at = start + tx
        self._queue.put((manifest, payload, arrival))

    def close_send(self) -> None:
        self._send_closed = True
        self._queue.put(_END_OF_STREAM)

    def receive(self, timeout: float | None = None) -> tuple[WindowManifest, bytes, int] | None:
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("no window within timeout")
        if item is _END_OF_STREAM:
            return None
        manifest, payload, arrival = item
        if self._clock is not None:
            wait = arrival - self._clock.now_micros()
            if wait > 0:
                self._clock.sleep_micros(wait)
            arrival = max(arrival, self._clock.now_micros())
        return manifest, payload, arrival


class DirectoryExchangeChannel(_SendingChannel):
    """Windows exchanged as pcap+manifest file pairs in one directory.

    Files are named by publication order, not by seq: the n-th window the
    sender publishes is ``window_<n>.pcap`` plus ``window_<n>.manifest.json``,
    and the manifest carries the window's seq. A dropped window leaves a
    gap in the seqs, which WindowReceiver records as a loss, and none in
    the names, so the receiver only ever looks up the next name and never
    lists the directory. The manifest is written last via rename, so its
    presence marks a fully published window. ``end.marker`` closes the
    stream. Loss is simulated on the sending side; latency/bandwidth
    shaping is not (real file systems provide their own delays). A
    directory that already holds window files or an end marker is
    refused, not cleared: the receiver would take an earlier run's
    windows for this one's.
    """

    # Capture time between two looks for the next window, slept on the run
    # clock: a speed-s run polls s times as often in wall time.
    POLL_MICROS = 20_000

    def __init__(self, spec: ChannelSpec, directory: Path, clock: Clock | None = None):
        super().__init__(spec)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for pattern in ("end.marker", "window_*"):
            stale = next(self.directory.glob(pattern), None)
            if stale is not None:
                raise TwinError(f"exchange directory {self.directory} is not empty: it holds {stale.name} "
                                "from an earlier run")
        self._clock = clock or MonotonicClock()
        # Windows this endpoint has sent and received: the numbers in the
        # names of the next window each way.
        self._sent = self._received = 0

    def _deliver(self, manifest: WindowManifest, payload: bytes, now_micros: int) -> None:
        name = f"window_{self._sent}"
        (self.directory / f"{name}.pcap").write_bytes(payload)
        tmp = self.directory / f"{name}.manifest.json.tmp"
        tmp.write_bytes(manifest.to_json())
        tmp.replace(self.directory / f"{name}.manifest.json")
        self._sent += 1

    def close_send(self) -> None:
        self._send_closed = True
        (self.directory / "end.marker").write_bytes(b"")

    def receive(self, timeout: float | None = None) -> tuple[WindowManifest, bytes, int] | None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # Look for the marker first: once it is there, so is every window.
            ended = (self.directory / "end.marker").exists()
            name = f"window_{self._received}"
            manifest_path = self.directory / f"{name}.manifest.json"
            if manifest_path.exists():
                manifest = WindowManifest.from_json(manifest_path.read_bytes())
                payload = (self.directory / f"{name}.pcap").read_bytes()
                self._received += 1
                return manifest, payload, self._clock.now_micros()
            if ended:
                return None
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("no window within timeout")
            self._clock.sleep_micros(self.POLL_MICROS)


# A manifest is a few hundred bytes of JSON; a longer length prefix is
# garbage, and reading it would allocate whatever it claims.
MAX_MANIFEST_BYTES = 64 * 1024
_RECV_CHUNK_BYTES = 1 << 20


class TcpSenderChannel(_SendingChannel):
    """Sending half of the TCP transport.

    Frame layout: 4-byte big-endian manifest length, manifest JSON,
    4-byte big-endian payload length, pcap bytes.
    """

    def __init__(self, spec: ChannelSpec, host: str, port: int):
        super().__init__(spec)
        self._sock = socket.create_connection((host, port), timeout=10)

    def _deliver(self, manifest: WindowManifest, payload: bytes, now_micros: int) -> None:
        blob = manifest.to_json()
        frame = len(blob).to_bytes(4, "big") + blob + len(payload).to_bytes(4, "big") + payload
        self._sock.sendall(frame)

    def close_send(self) -> None:
        if not self._send_closed:
            self._send_closed = True
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            self._sock.close()


class TcpReceiverChannel:
    """Receiving half of the TCP transport; accepts exactly one sender.

    Bytes received stay in a buffer until they make up a whole frame, so a
    receive that times out mid-frame loses nothing: the next one goes on
    from where it stopped.
    """

    def __init__(self, bind_host: str = "127.0.0.1", port: int = 0, clock: Clock | None = None):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((bind_host, port))
        self._listener.listen(1)
        self._conn: socket.socket | None = None
        self._buffer = bytearray()
        self._clock = clock or MonotonicClock()

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @staticmethod
    def _sock_timeout(timeout: float | None) -> float | None:
        # 0 would mean non-blocking; clamp to a short real timeout instead.
        if timeout is not None and timeout <= 0:
            return 0.001
        return timeout

    def _ensure_conn(self, timeout: float | None):
        if self._conn is None:
            self._listener.settimeout(self._sock_timeout(timeout))
            try:
                self._conn, _ = self._listener.accept()
            except socket.timeout:
                raise TimeoutError("no sender connected within timeout")

    def _take_frame(self) -> tuple[bytes, bytes] | None:
        """The buffer's first frame as (manifest JSON, payload), removed from
        the buffer; None while the buffer holds less than a whole frame."""
        buffer = self._buffer
        if len(buffer) < 4:
            return None
        manifest_length = int.from_bytes(buffer[:4], "big")
        if manifest_length > MAX_MANIFEST_BYTES:
            raise TwinError(f"manifest length {manifest_length} exceeds the {MAX_MANIFEST_BYTES}-byte bound")
        payload_at = 8 + manifest_length
        if len(buffer) < payload_at:
            return None
        end = payload_at + int.from_bytes(buffer[payload_at - 4:payload_at], "big")
        if len(buffer) < end:
            return None
        frame = bytes(buffer[4:payload_at - 4]), bytes(buffer[payload_at:end])
        del buffer[:end]
        return frame

    def receive(self, timeout: float | None = None) -> tuple[WindowManifest, bytes, int] | None:
        self._ensure_conn(timeout)
        assert self._conn is not None
        self._conn.settimeout(self._sock_timeout(timeout))
        while (frame := self._take_frame()) is None:
            try:
                chunk = self._conn.recv(_RECV_CHUNK_BYTES)
            except socket.timeout:
                raise TimeoutError("no window within timeout")
            if not chunk:
                if self._buffer:
                    raise TwinError("connection closed mid-frame")
                return None  # closed between two frames: the end of the stream
            self._buffer += chunk
        manifest_blob, payload = frame
        return WindowManifest.from_json(manifest_blob), payload, self._clock.now_micros()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._listener.close()


def send_window(window: CaptureWindow, channel, log: SyncLog, now_micros: int) -> SendReceipt:
    """Pack and send one window: open its sync-log entry, send, and mark it
    lost if the channel dropped it."""
    manifest, payload = pack_window(window)
    log.record_sent(window.seq, window.start_ts_micros, window.end_ts_micros, now_micros)
    receipt = channel.send(manifest, payload, now_micros)
    if receipt.dropped:
        log.mark_lost(window.seq)
    return receipt


class ReceivedBlock(NamedTuple):
    """Windows a WindowReceiver delivered together, often just one, as one
    batch: window i (seq ``seqs[i]``, starting at ``starts[i]``, arrived at
    ``t_received[i]``) holds packets ``cuts[i]`` to ``cuts[i + 1]`` of
    ``packets``."""

    seqs: np.ndarray
    starts: np.ndarray
    t_received: np.ndarray
    cuts: np.ndarray
    packets: PacketBatch


class WindowReceiver:
    """Delivers windows in seq order, turning gaps into recorded losses.

    Every channel delivers in send order, so a seq above the expected one
    means the seqs before it were lost, and a seq below it is a duplicate
    or arrived too late and is skipped. A window this run did not send,
    or sent with other bounds, raises ForeignWindowError before any hole
    is declared.

    ``receive`` delivers one window at a time, checked by unpack_window;
    ``receive_block`` delivers ReceivedBlocks: what is ready when it polls,
    taking two or more new deliveries at once when they pass every check
    together, or the next window alone when it waits. Either way, the
    windows taken and the holes before them are recorded with one
    SyncLog.record_received call.
    """

    def __init__(self, channel, log: SyncLog):
        self.channel = channel
        self.log = log
        self._expected = 0
        self._eos = False
        self._held: deque = deque()  # deliveries taken from the channel, not yet accepted
        self.digest_failures = 0

    def _pull(self, block: bool) -> tuple[WindowManifest, bytes, int] | None:
        """The channel's next delivery; None at the end of the stream or,
        with ``block`` false, when nothing is ready."""
        if self._eos:
            return None
        try:
            delivery = self.channel.receive(timeout=None if block else 0)
        except TimeoutError:
            return None
        self._eos = delivery is None
        return delivery

    def receive(self, block: bool = True) -> tuple[PacketBatch, WindowManifest, int] | None:
        """Next (packets, manifest, arrival time), or None at end of stream.
        With ``block`` false the channel is only polled, and None also
        means that nothing is ready."""
        while (delivery := self._held.popleft() if self._held else self._pull(block)) is not None:
            manifest, payload, arrival = delivery
            seq = manifest.seq
            if seq < self._expected:
                continue  # a duplicate, or too late
            self.log.record_received(seq, arrival, manifest.start_ts_micros, manifest.end_ts_micros,
                                     holes_from=self._expected)
            self._expected = seq + 1
            try:
                return unpack_window(manifest, payload), manifest, arrival
            except DigestMismatchError:
                self.digest_failures += 1
                self.log.mark_lost(seq)
        return None

    def receive_block(self, block: bool = False) -> ReceivedBlock | None:
        """The next windows in seq order as a ReceivedBlock, recording their
        arrivals and the holes before them as ``receive`` does; None at the
        end of the stream, or, when polling, when nothing is ready.

        Waiting (``block`` true), it delivers the next window alone through
        ``receive``: with a clock, a channel hands a window over only once
        it has arrived. Polling with nothing held, it takes every delivery
        ready now and accepts two or more new ones as one block when
        unpack_windows and the sync log accept them together. Otherwise the
        deliveries are held and go through ``receive`` one at a time, as
        blocks of one window, so a failing one raises its own error or
        counts as lost. A group that failed is not tried joined again.
        """
        if not block and not self._held:
            joined = self._receive_joined()
            if joined is not None:
                return joined
        delivery = self.receive(block)
        if delivery is None:
            return None
        packets, manifest, arrival = delivery
        return ReceivedBlock(np.array([manifest.seq], dtype=np.int64),
                             np.array([manifest.start_ts_micros], dtype=np.int64),
                             np.array([arrival], dtype=np.int64), np.array([0, len(packets)], dtype=np.int64),
                             packets)

    def _receive_joined(self) -> ReceivedBlock | None:
        """Hold every delivery ready now, and accept the new ones as one
        block when there are two or more and they pass every check at once.
        A check that fails raises TwinError or ValueError, and then the
        group stays held for ``receive``; any other error propagates."""
        held = self._held
        while (delivery := self._pull(block=False)) is not None:
            held.append(delivery)
        accepted, expected = [], self._expected
        for delivery in held:
            if delivery[0].seq >= expected:
                accepted.append(delivery)
                expected = delivery[0].seq + 1
        if len(accepted) < 2:
            return None
        manifests, payloads, arrivals = zip(*accepted)
        seqs = np.array([m.seq for m in manifests], dtype=np.int64)
        starts = np.array([m.start_ts_micros for m in manifests], dtype=np.int64)
        ends = np.array([m.end_ts_micros for m in manifests], dtype=np.int64)
        arrivals = np.array(arrivals, dtype=np.int64)
        try:
            packets, cuts = unpack_windows(manifests, payloads)
            self.log.record_received(seqs, arrivals, starts, ends, holes_from=self._expected)
        except (TwinError, ValueError):
            return None
        held.clear()
        self._expected = expected
        return ReceivedBlock(seqs, starts, arrivals, cuts, packets)
