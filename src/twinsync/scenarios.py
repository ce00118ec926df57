"""Deterministic traffic generation standing in for the physical network.

Four scenario kinds cover the demo workloads end to end: phones
attaching then browsing, video streaming, a voice call between two
phones, and a live video upload. The shapes are first-order models
(attach burst, Poisson page events with paced download bursts, on/off
chunk fetching, constant-rate RTP-like voice, jittered constant-rate
upload) of one lab's traffic. Their sizes, rates and intervals are the
module constants below; a ScenarioSpec picks the kind, the span, the
seed, the phone count and the browse pages' mean interval and size, the
settings a run varies.

Packets carry synthetic IPv4/UDP headers with correct length fields and
pseudo-random fill; there is no protocol stack behind them. Throughput
and fidelity metrics depend only on sizes and times, which are exact.
Identical (spec, seed) pairs generate byte-identical traces.

Generating is an event pass plus a packet source. The event pass
(``generate``) makes every random draw and runs every check. It keeps
the trace as groups in build order: a group is a series of timestamps
``base + int(i * gap)`` for i < count, with one length, direction,
phone and port. It fixes the packet count and the row length, and holds
memory in proportion to the groups, not to the packets: about 1,800
pages for the benchmark's browse workload. The trace (GeneratedTrace)
then makes the packets of any time range on request, each group
expanded only for its part of the range and the whole sorted by time,
ties in build order. A packet keeps its index in the whole trace, so
its bytes do not depend on the range it was made in.

A trace's packets carry columns only. Their payload is the seed and the
narrow header columns each row is made from (_TraceRows): a row is the
packet's IPv4/UDP header, then SplitMix64 fill, and a range of rows is
filled only when it is written (pcap.write_pcap, through
PacketBatch.filled), a write piece of rows at a time.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .model import MICROS_PER_SECOND
from .pcap import PacketBatch

SCENARIO_KINDS = ("attach-and-browse", "video-streaming", "voice-call", "live-upload")

# attach-and-browse: per phone, a burst of control packets, then pages of
# lognormal size paced at a fixed rate.
ATTACH_PACKETS = 40
ATTACH_SPAN_MICROS = 2 * MICROS_PER_SECOND
ATTACH_PACKET_BYTES = 120
PAGE_SIGMA = 0.5
BROWSE_PACING_BPS = 10_000_000
# video-streaming: on/off chunk fetching.
STREAM_ON_MICROS = 2 * MICROS_PER_SECOND
STREAM_OFF_MICROS = 2 * MICROS_PER_SECOND
STREAM_RATE_BPS = 5_000_000
# voice-call: one packet per period each way.
VOICE_PACKET_BYTES = 172
VOICE_PPS = 50
# live-upload: a jittered rate each second, and acks back.
UPLOAD_RATE_BPS = 3_000_000
UPLOAD_JITTER = 0.2
ACK_INTERVAL_MICROS = 50_000
ACK_BYTES = 60
# Every kind's full data packet, and the bytes of a packet captured. No
# generator makes a longer packet: a page's last one is the rest of it.
DATA_PACKET_BYTES = 1200
SNAP_BYTES = 96

_SERVER_IP = bytes([203, 0, 113, 1])
_IP_UDP_HEADER_LEN = 28
# Phone k sends from UDP port _UE_PORT_BASE + k and from 10.45.(1 + k // 250).(2 + k % 250).
_UE_PORT_BASE = 40_000
_MAX_UES = 65535 - _UE_PORT_BASE


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One workload to simulate: its kind, span, seed and phones, and for
    attach-and-browse the pages' mean interval and size. The rest of each
    model is the module's constants."""

    kind: str
    duration_micros: int
    seed: int = 0
    ue_count: int = 2
    origin_ts_micros: int = 0
    page_mean_interval_micros: int = 8 * MICROS_PER_SECOND
    page_mean_bytes: int = 1_500_000

    def validate(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.duration_micros <= 0:
            raise ValueError("duration must be positive")
        minimum = 2 if self.kind == "voice-call" else 1
        if self.ue_count < minimum:
            raise ValueError(f"{self.kind} needs at least {minimum} UEs, got {self.ue_count}")
        if self.ue_count > _MAX_UES:
            raise ValueError(f"ue_count must be at most {_MAX_UES}, got {self.ue_count}")
        # Pages come a mean interval apart, and the log of their mean size is taken.
        for name in ("page_mean_interval_micros", "page_mean_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.origin_ts_micros < 0:
            raise ValueError(f"origin_ts_micros must not be negative, got {self.origin_ts_micros}")


# Synthetic IPv4 + UDP header, seven big-endian 32-bit words on the wire:
# version/IHL 0x45, TOS 0, total length | IP id, fragment 0 | TTL 64,
# protocol 17, checksum 0 | source | destination | source port, destination
# port | UDP length, checksum 0.
_HEADER_WORDS = _IP_UDP_HEADER_LEN // 4
_VERSION_IHL_WORD = np.uint32(0x45 << 24)
_TTL_PROTOCOL_WORD = (64 << 24) | (17 << 16)
_SERVER_WORD = np.uint32(int.from_bytes(_SERVER_IP, "big"))
# Phone k's address, 10.45.(1 + k // 250).(2 + k % 250), as a word: this
# plus (k // 250 << 8) + k % 250.
_PHONE_NET_WORD = np.uint32(int.from_bytes(bytes([10, 45, 1, 2]), "big"))

# Which way a group of packets goes: it decides which end of the IP/UDP
# header is the phone and which the server. An alternating group starts
# with an uplink packet.
_UPLINK, _DOWNLINK, _ALTERNATING = 0, 1, 2


# Words of SplitMix64 output computed per pass: small enough that a block
# and its scratch stay in cache while the rounds run over it.
_NOISE_BLOCK_WORDS = 1 << 15

# SplitMix64's increment, and k times it (mod 2^64) for k = 1 ... the block
# size: a block's states are one scalar plus this table.
_NOISE_GAMMA = 0x9E3779B97F4A7C15
_NOISE_STEPS = np.arange(1, _NOISE_BLOCK_WORDS + 1, dtype=np.uint64) * np.uint64(_NOISE_GAMMA)


def _noise_bytes(seed: int, count: int, start: int) -> np.ndarray:
    """Bytes ``[start, start + count)`` of the SplitMix64 sequence started at ``seed``.

    A counter hash, so any range is computed alone, with array arithmetic
    only: faster than drawing the bytes from Python's or numpy's
    generators. It runs block by block in its output array, with one
    block of scratch.
    """
    first_word, skip = divmod(start, 8)
    words = -(-(skip + count) // 8)
    out = np.empty(words, dtype=np.uint64)
    steps = _NOISE_STEPS[:min(words, _NOISE_BLOCK_WORDS)]
    scratch = np.empty_like(steps)
    for first in range(0, words, _NOISE_BLOCK_WORDS):
        z = out[first:first + _NOISE_BLOCK_WORDS]
        shifted = scratch[:len(z)]
        # Word w's state is seed + (w + 1)·gamma: the block's base plus k·gamma.
        np.add(steps[:len(z)], np.uint64((seed + (first_word + first) * _NOISE_GAMMA) % (1 << 64)), out=z)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(factor)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return out.astype("<u8", copy=False).view(np.uint8)[skip:skip + count]


def _reach(base: np.ndarray, count: np.ndarray, gap: np.ndarray, ts_micros: int) -> np.ndarray:
    """Per group, how many of its packets come before ``ts_micros``: the
    least i in [0, count] whose timestamp ``base + int(i * gap)`` is at or
    after it, or count.

    The timestamps never decrease with i, so a guess from one division is
    corrected a step at a time with the very arithmetic that makes them.
    """
    target = ts_micros - base
    ahead = target > 0
    guess = np.zeros(len(base))
    np.divide(target, gap, out=guess, where=ahead & (gap > 0))
    i = np.minimum(np.ceil(guess), count).astype(np.int64)
    i[ahead & (gap == 0)] = count[ahead & (gap == 0)]
    while True:
        back = (i > 0) & (_offsets_at(i - 1, gap) >= target)
        on = (i < count) & (_offsets_at(i, gap) < target)
        if not (back.any() or on.any()):
            return i
        i += on
        i -= back


def _offsets_at(i: np.ndarray, gap) -> np.ndarray:
    """int(i * gap) for each i, exactly as Python computes it."""
    return (i.astype(np.float64) * gap).astype(np.int64)


class _TraceRows:
    """The payload buffer of some packets of a generated trace, as the
    columns that make it.

    Packet i of a trace of n packets owns row i, ``row_len`` bytes: its
    IPv4/UDP header, then SplitMix64 fill. Its bytes are the first
    captured_len of the row; the rest of a short packet's row is a gap.
    The rows are bytes ``2n`` on of the SplitMix64 sequence of ``seed``,
    and packet i's IP id is bytes ``[2i, 2i + 2)``. This buffer holds the
    rows of the packets from index ``first`` on, one per entry of its
    header columns, which are in time order: ``original_len`` is the
    packets' own column, ``ue`` and ``port`` are uint16 and ``uplink``
    says which end is the phone. The sequence is a counter hash, so
    ``fill`` makes any range of rows alone, with the bytes the whole
    trace's buffer holds there.
    """

    __slots__ = ("seed", "row_len", "count", "first", "original_len", "ue", "port", "uplink")

    def __init__(self, seed: int, row_len: int, count: int, first: int, original_len, ue, port, uplink):
        self.seed, self.row_len, self.count, self.first = seed, row_len, count, first
        self.original_len, self.ue, self.port, self.uplink = original_len, ue, port, uplink

    def fill(self, start: int, end: int) -> np.ndarray:
        """Bytes ``[start, end)`` of the buffer, both multiples of ``row_len``,
        in a new array. The caller bounds the rows filled at once
        (pcap.write_pcap fills a piece of packets at a time)."""
        row_len = self.row_len
        first, stop = start // row_len, end // row_len
        rows = _noise_bytes(self.seed, end - start, 2 * self.count + self.first * row_len + start)
        rows = rows.reshape(stop - first, row_len)
        ip_id = _noise_bytes(self.seed, 2 * (stop - first), 2 * (self.first + first)).view(">u2")
        total = self.original_len[first:stop]
        # Widened before the arithmetic, so every numpy casts it alike.
        ue = self.ue[first:stop].astype(np.uint32)
        port = self.port[first:stop].astype(np.uint32)
        uplink = self.uplink[first:stop]
        phone = (ue // 250 << 8) + ue % 250 + _PHONE_NET_WORD
        phone_port = ue + np.uint32(_UE_PORT_BASE)
        header = np.empty((stop - first, _HEADER_WORDS), dtype=">u4")
        header[:, 0] = total | _VERSION_IHL_WORD
        header[:, 1] = ip_id.astype(np.uint32) << 16
        header[:, 2] = _TTL_PROTOCOL_WORD
        header[:, 3] = np.where(uplink, phone, _SERVER_WORD)
        header[:, 4] = np.where(uplink, _SERVER_WORD, phone)
        header[:, 5] = np.where(uplink, phone_port << 16 | port, port << 16 | phone_port)
        header[:, 6] = (total - np.uint32(20)) << 16
        rows[:, :_IP_UDP_HEADER_LEN] = header.view(np.uint8).reshape(-1, _IP_UDP_HEADER_LEN)
        return rows.reshape(-1)


class GeneratedTrace:
    """A scenario's trace as the groups its event pass drew: the source of
    its packets, a time range at a time.

    ``groups`` are (base, count, gap, length, direction, phone, port) in
    build order: group packet i is stamped ``base + int(i * gap)``, and
    packets at or past the end of the scenario's span are dropped here.
    A length below the IPv4/UDP header is raised to it.

    ``packets(start, end)`` makes the packets stamped in ``[start, end)``;
    ``count_before(ts)`` counts those stamped before ``ts``. Every packet
    lies in the scenario's span, and ``records`` is that whole span, built
    anew on each access.
    """

    __slots__ = ("scenario", "seed", "packet_count", "_base", "_count", "_gap", "_last", "_total", "_direction",
                 "_ue", "_port", "_row_len")

    def __init__(self, scenario: ScenarioSpec, groups: list[tuple]):
        self.scenario, self.seed = scenario, scenario.seed
        columns = zip(*groups) if groups else [()] * 7
        dtypes = (np.int64, np.int64, np.float64, np.int64, np.int8, np.uint16, np.uint16)
        base, count, gap, length, direction, ue, port = (np.array(c, dtype=d) for c, d in zip(columns, dtypes))
        end = scenario.origin_ts_micros + scenario.duration_micros
        count = _reach(base, count, gap, end)
        kept = count > 0
        base, count, gap, length = base[kept], count[kept], gap[kept], length[kept]
        total = np.maximum(length, _IP_UDP_HEADER_LEN)
        self._row_len = min(int(total.max()), SNAP_BYTES) if len(total) else 0
        self._base, self._count, self._gap, self._total = base, count, gap, total.astype(np.uint32)
        self._last = base + _offsets_at(count - 1, gap)
        self._direction, self._ue, self._port = direction[kept], ue[kept], port[kept]
        self.packet_count = int(count.sum())

    @property
    def records(self) -> PacketBatch:
        """Every packet of the trace."""
        origin = self.scenario.origin_ts_micros
        return self.packets(origin, origin + self.scenario.duration_micros)

    def count_before(self, ts_micros: int) -> int:
        """How many packets are stamped before ``ts_micros``."""
        return int(self._before(ts_micros).sum())

    def _before(self, ts_micros: int) -> np.ndarray:
        """Per group, how many of its packets are stamped before ``ts_micros``."""
        before = np.where(self._last < ts_micros, self._count, 0)
        inside = np.flatnonzero((self._base < ts_micros) & (self._last >= ts_micros))
        before[inside] = _reach(self._base[inside], self._count[inside], self._gap[inside], ts_micros)
        return before

    def packets(self, start_micros: int, end_micros: int) -> PacketBatch:
        """The packets stamped in ``[start_micros, end_micros)``, in time order,
        ties in build order: the same columns and bytes as that range of
        ``records``. Every temporary is one entry per packet of the range."""
        low, high = self._before(start_micros), self._before(end_micros)
        taken = np.flatnonzero(high > low)
        counts = (high - low)[taken]
        n = int(counts.sum())
        if not n:
            return PacketBatch.empty()
        # Each packet's group, as its rank among the groups taken, and its
        # index i in that group, in build order: then the timestamps, as
        # _offsets_at makes them but in place, and only then the time order.
        rank = np.repeat(np.arange(len(taken), dtype=np.int32), counts)
        placed = np.cumsum(counts) - counts - low[taken]  # where each group's i = 0 would sit
        ts = np.arange(n, dtype=np.float64)
        ts -= placed[rank]
        ts *= self._gap[taken][rank]
        ts = ts.astype(np.int64)
        ts += self._base[taken][rank]
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        rank = rank[order]
        i = order
        i -= placed[rank]
        del order
        direction = self._direction[taken][rank]
        i &= 1
        uplink = np.where(direction == _ALTERNATING, i == 0, direction == _UPLINK)
        del i, direction
        group = taken[rank]
        del rank
        total, ue, port = self._total[group], self._ue[group], self._port[group]
        del group
        captured = np.minimum(total, SNAP_BYTES)
        row_len = self._row_len
        offsets = np.arange(0, (n + 1) * row_len, row_len, dtype=np.int64)
        rows = _TraceRows(self.seed, row_len, self.packet_count, int(low.sum()), total, ue, port, uplink)
        return PacketBatch(ts, captured, total, rows, offsets)


# Each generator draws its events in order and hands each group to ``add``
# as (base, count, gap, length, direction, ue, port); see GeneratedTrace.


def _gen_attach_and_browse(spec: ScenarioSpec, rng: random.Random, add) -> None:
    origin = spec.origin_ts_micros
    end = origin + spec.duration_micros
    spacing = ATTACH_SPAN_MICROS / ATTACH_PACKETS
    mu = math.log(spec.page_mean_bytes) - PAGE_SIGMA ** 2 / 2
    for ue in range(spec.ue_count):
        stagger = int(spacing * ue / spec.ue_count)
        add(origin + stagger, ATTACH_PACKETS, spacing, ATTACH_PACKET_BYTES, _ALTERNATING, ue, 3868)
        # Page fetches only start once the control-plane burst is over.
        t = origin + ATTACH_SPAN_MICROS
        while True:
            t += int(rng.expovariate(1.0) * spec.page_mean_interval_micros) + 1
            if t >= end:
                break
            add(t, 1, 0.0, 400, _UPLINK, ue, 443)
            size = int(rng.lognormvariate(mu, PAGE_SIGMA))
            size = min(max(size, 10_000), 20_000_000)
            n = -(-size // DATA_PACKET_BYTES)
            burst_micros = size * 8 * MICROS_PER_SECOND / BROWSE_PACING_BPS
            gap = burst_micros / n
            # Full packets, then the rest of the page.
            add(t + 200, n - 1, gap, DATA_PACKET_BYTES, _DOWNLINK, ue, 443)
            add(t + 200 + int((n - 1) * gap), 1, 0.0, size - (n - 1) * DATA_PACKET_BYTES, _DOWNLINK, ue, 443)


def _gen_video_streaming(spec: ScenarioSpec, rng: random.Random, add) -> None:
    origin = spec.origin_ts_micros
    end = origin + spec.duration_micros
    chunk_bytes = STREAM_RATE_BPS * STREAM_ON_MICROS // (8 * MICROS_PER_SECOND)
    n = -(-chunk_bytes // DATA_PACKET_BYTES)
    # Spread over the on phase: the last of a chunk's 1,042 packets starts
    # 1.998 s into its 2 s.
    gap = STREAM_ON_MICROS / n
    for ue in range(spec.ue_count):
        for start in range(origin, end, STREAM_ON_MICROS + STREAM_OFF_MICROS):
            add(start, 1, 0.0, 200, _UPLINK, ue, 443)
            add(start + 100, n, gap, DATA_PACKET_BYTES, _DOWNLINK, ue, 443)


def _gen_voice_call(spec: ScenarioSpec, rng: random.Random, add) -> None:
    # One call between the first two phones: a constant-rate stream each
    # way, half a period out of phase.
    origin = spec.origin_ts_micros
    end = origin + spec.duration_micros
    period = MICROS_PER_SECOND // VOICE_PPS
    for offset, direction, ue in ((0, _UPLINK, 0), (period // 2, _DOWNLINK, 1)):
        _add_every(add, origin + offset, end, period, VOICE_PACKET_BYTES, direction, ue, 5060)


def _gen_live_upload(spec: ScenarioSpec, rng: random.Random, add) -> None:
    origin = spec.origin_ts_micros
    end = origin + spec.duration_micros
    for sec_start in range(origin, end, MICROS_PER_SECOND):
        sec_len = min(MICROS_PER_SECOND, end - sec_start)
        rate = UPLOAD_RATE_BPS * (1.0 + rng.uniform(-UPLOAD_JITTER, UPLOAD_JITTER))
        sec_bytes = rate * sec_len / (8 * MICROS_PER_SECOND)
        n = max(1, int(sec_bytes // DATA_PACKET_BYTES))
        add(sec_start, n, sec_len / n, DATA_PACKET_BYTES, _UPLINK, 0, 1935)
    _add_every(add, origin, end, ACK_INTERVAL_MICROS, ACK_BYTES, _DOWNLINK, 0, 1935)


def _add_every(add, start: int, end: int, period: int, length: int, direction: int, ue: int, port: int) -> None:
    """A packet every ``period`` microseconds from ``start`` until ``end``.
    A float gap stamps them exactly: i * period is below 2**53 for every
    packet of any trace that fits in memory."""
    add(start, max(0, -(-(end - start) // period)), float(period), length, direction, ue, port)


_GENERATORS = {
    "attach-and-browse": _gen_attach_and_browse,
    "video-streaming": _gen_video_streaming,
    "voice-call": _gen_voice_call,
    "live-upload": _gen_live_upload,
}


def generate(spec: ScenarioSpec) -> GeneratedTrace:
    """The event pass of a scenario's trace. Pure: no global state.

    Timing draws come from ``random.Random(seed)``; IP IDs and payload
    fill from a separate SplitMix64 stream started at the same seed, made
    when the payload rows are written.
    """
    spec.validate()
    groups = []
    _GENERATORS[spec.kind](spec, random.Random(spec.seed), lambda *group: groups.append(group))
    return GeneratedTrace(spec, groups)
