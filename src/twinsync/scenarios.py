"""Deterministic traffic generation standing in for the physical network.

Four scenario kinds cover the demo workloads end to end: phones
attaching then browsing, video streaming, a voice call between two
phones, and a live video upload. The shapes are first-order models
(attach burst, Poisson page events with paced download bursts, on/off
chunk fetching, constant-rate RTP-like voice, jittered constant-rate
upload) whose parameters are all ScenarioSpec fields.

Packets carry synthetic IPv4/UDP headers with correct length fields and
pseudo-random fill; there is no protocol stack behind them. Throughput
and fidelity metrics depend only on sizes and times, which are exact.
Identical (spec, seed) pairs generate byte-identical traces.

A trace is built in one pass over its columns: the generators add groups
of packets, the builder sorts them by time, fills the payload rows with
SplitMix64 noise and then writes the headers into the rows a block of
packets at a time. Beyond the trace it returns, it holds only the sort
order, three narrow header columns and block-sized scratch.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .model import MICROS_PER_SECOND
from .pcap import PacketBatch

SCENARIO_KINDS = ("attach-and-browse", "video-streaming", "voice-call", "live-upload")

_SERVER_IP = bytes([203, 0, 113, 1])
_IP_UDP_HEADER_LEN = 28
_MAX_IPV4_LEN = 65535
# Phone k sends from UDP port _UE_PORT_BASE + k and from 10.45.(1 + k // 250).(2 + k % 250).
_UE_PORT_BASE = 40_000
_MAX_UES = 65535 - _UE_PORT_BASE


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One workload to simulate; per-kind knobs have sensible defaults."""

    kind: str
    duration_micros: int
    seed: int = 0
    ue_count: int = 2
    origin_ts_micros: int = 0
    # attach-and-browse
    attach_packets: int = 40
    attach_span_micros: int = 2 * MICROS_PER_SECOND
    attach_packet_bytes: int = 120
    page_mean_interval_micros: int = 8 * MICROS_PER_SECOND
    page_mean_bytes: int = 1_500_000
    page_sigma: float = 0.5
    browse_pacing_bps: int = 10_000_000
    # video-streaming
    stream_on_micros: int = 2 * MICROS_PER_SECOND
    stream_off_micros: int = 2 * MICROS_PER_SECOND
    stream_rate_bps: int = 5_000_000
    # voice-call
    voice_packet_bytes: int = 172
    voice_pps: int = 50
    # live-upload
    upload_rate_bps: int = 3_000_000
    upload_jitter: float = 0.2
    ack_interval_micros: int = 50_000
    ack_bytes: int = 60
    # shared
    data_packet_bytes: int = 1200
    snap_bytes: int = 96

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
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in _NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.voice_pps > MICROS_PER_SECOND:
            raise ValueError(f"voice_pps must be at most {MICROS_PER_SECOND}, got {self.voice_pps}")
        # Written so that NaN fails too.
        if not 0.0 <= self.upload_jitter <= 1.0:
            raise ValueError(f"upload_jitter must lie in [0, 1], got {self.upload_jitter}")
        if not 0.0 <= self.page_sigma < math.inf:
            raise ValueError(f"page_sigma must be finite and non-negative, got {self.page_sigma}")


# Sizes, rates, intervals and counts the generators divide by or take the
# logarithm of; and the fields that may be zero but not negative.
_POSITIVE_FIELDS = (
    "attach_packets", "attach_packet_bytes", "page_mean_interval_micros", "page_mean_bytes",
    "browse_pacing_bps", "stream_on_micros", "stream_rate_bps", "voice_packet_bytes", "voice_pps",
    "upload_rate_bps", "ack_interval_micros", "ack_bytes", "data_packet_bytes",
)
_NON_NEGATIVE_FIELDS = ("origin_ts_micros", "attach_span_micros", "stream_off_micros", "snap_bytes")


@dataclass(frozen=True, slots=True)
class GeneratedTrace:
    scenario: ScenarioSpec
    seed: int
    records: PacketBatch


# Synthetic IPv4 + UDP header, big-endian on the wire.
_HEADER = np.dtype([
    ("version_ihl", "u1"), ("tos", "u1"), ("total_len", ">u2"), ("ip_id", ">u2"), ("fragment", ">u2"),
    ("ttl", "u1"), ("protocol", "u1"), ("checksum", ">u2"), ("src", "u1", (4,)), ("dst", "u1", (4,)),
    ("sport", ">u2"), ("dport", ">u2"), ("udp_len", ">u2"), ("udp_checksum", ">u2"),
])

# Which way a group of packets goes: it decides which end of the IP/UDP
# header is the phone and which the server.
_UPLINK, _DOWNLINK = 0, 1


# Words of SplitMix64 output computed per pass: small enough that a block
# and its scratch stay in cache while the rounds run over it.
_NOISE_BLOCK_WORDS = 1 << 15

# Packets whose IP/UDP headers are filled per pass: the fields of a block
# and its header scratch stay small next to the payload rows they go into.
_HEADER_BLOCK_ROWS = 1 << 14


def _noise_bytes(seed: int, count: int) -> np.ndarray:
    """``count`` pseudo-random bytes: the SplitMix64 sequence started at ``seed``.

    A counter hash, so it takes array arithmetic only: faster than drawing
    the bytes from Python's or numpy's generators. It runs block by block
    in its output array, with one block of scratch.
    """
    words = -(-count // 8)
    out = np.empty(words, dtype=np.uint64)
    counter = np.arange(1, min(words, _NOISE_BLOCK_WORDS) + 1, dtype=np.uint64)
    scratch = np.empty_like(counter)
    offset = np.uint64(seed % (1 << 64))
    for first in range(0, words, _NOISE_BLOCK_WORDS):
        z = out[first:first + _NOISE_BLOCK_WORDS]
        shifted = scratch[:len(z)]
        np.add(counter[:len(z)], np.uint64(first), out=z)
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += offset
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= np.right_shift(z, np.uint64(shift), out=shifted)
            z *= np.uint64(factor)
        z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return out.astype("<u8", copy=False).view(np.uint8)[:count]


def _offsets(count: int, gap: float) -> np.ndarray:
    """int(i * gap) for i in range(count), exactly as Python computes it."""
    return (np.arange(count, dtype=np.float64) * gap).astype(np.int64)


class _TraceBuilder:
    """Packets of a trace as groups of columns, in build order.

    Generators add groups (timestamps plus a length, direction, phone and
    port per packet, each a scalar or an array); ``build`` sorts them by
    time, ties in build order, and writes headers and payloads.
    """

    def __init__(self):
        self._groups: list[tuple] = []

    def add(self, ts, length, direction, ue: int, port: int) -> None:
        ts = np.asarray(ts, dtype=np.int64)
        if len(ts):
            self._groups.append((ts, length, direction, ue, port))

    def build(self, snap: int, seed: int) -> PacketBatch:
        if not self._groups:
            return PacketBatch.empty()
        counts = [len(group[0]) for group in self._groups]
        ts = np.concatenate([group[0] for group in self._groups])
        total = self._column(1, counts, np.int64)
        np.maximum(total, _IP_UDP_HEADER_LEN, out=total)
        too_long = np.flatnonzero(total > _MAX_IPV4_LEN)
        if len(too_long):
            raise ValueError(f"packet of {int(total[too_long[0]])} bytes exceeds the IPv4 limit")
        total = total.astype(np.uint32)
        # The header fields stay in build order, narrow; each header block
        # gathers its own rows of them through ``order``.
        direction, ue, port = (self._column(k, counts, np.int32) for k in range(2, 5))
        self._groups = []
        order = np.argsort(ts, kind="stable")
        ts, total = ts[order], total[order]
        n = len(ts)
        captured = np.minimum(total, min(snap, _MAX_IPV4_LEN))
        row_len = max(int(captured.max()), _IP_UDP_HEADER_LEN)
        noise = _noise_bytes(seed, n * (2 + row_len))

        # Each row is one payload slot: the header, then random fill. A
        # packet's bytes are the first captured_len of its row; the rest of
        # a short packet's row stays as a gap in the buffer.
        rows = noise[2 * n:].reshape(n, row_len)
        ip_id = noise[:2 * n].view(">u2")
        scratch = np.zeros(min(n, _HEADER_BLOCK_ROWS), dtype=_HEADER)
        scratch["version_ihl"] = 0x45
        scratch["ttl"] = 64
        scratch["protocol"] = 17
        server_ip = np.frombuffer(_SERVER_IP, dtype=np.uint8)
        for first in range(0, n, _HEADER_BLOCK_ROWS):
            stop = min(first + _HEADER_BLOCK_ROWS, n)
            header = scratch[:stop - first]
            picked = order[first:stop]
            block_ue = ue[picked]
            uplink = direction[picked] == _UPLINK
            header["total_len"] = total[first:stop]
            header["ip_id"] = ip_id[first:stop]
            ue_ip = np.empty((len(header), 4), dtype=np.uint8)
            ue_ip[:, 0], ue_ip[:, 1], ue_ip[:, 2], ue_ip[:, 3] = 10, 45, 1 + block_ue // 250, 2 + block_ue % 250
            header["src"] = np.where(uplink[:, None], ue_ip, server_ip)
            header["dst"] = np.where(uplink[:, None], server_ip, ue_ip)
            ue_port = _UE_PORT_BASE + block_ue
            block_port = port[picked]
            header["sport"] = np.where(uplink, ue_port, block_port)
            header["dport"] = np.where(uplink, block_port, ue_port)
            header["udp_len"] = total[first:stop] - 20
            rows[first:stop, :_IP_UDP_HEADER_LEN] = header.view(np.uint8).reshape(-1, _IP_UDP_HEADER_LEN)
        # Freed before the offsets exist, so they never add to the peak.
        del order, direction, ue, port
        offsets = np.arange(0, (n + 1) * row_len, row_len, dtype=np.int64)
        return PacketBatch.trusted(ts, captured, total, noise[2 * n:], offsets, True)

    def _column(self, k: int, counts: list[int], dtype) -> np.ndarray:
        """Field k of every group as ``dtype``, one entry per packet: the
        scalars in one repeat, then the array-valued groups copied into place."""
        values = [group[k] for group in self._groups]
        arrays = [isinstance(v, np.ndarray) for v in values]
        column = np.repeat(np.array([0 if a else v for v, a in zip(values, arrays)], dtype=dtype), counts)
        if any(arrays):
            ends = np.cumsum(counts).tolist()
            for v, is_array, end, count in zip(values, arrays, ends, counts):
                if is_array:
                    column[end - count:end] = v
        return column


def _gen_attach_and_browse(spec: ScenarioSpec, rng: random.Random, out: _TraceBuilder) -> None:
    origin = spec.origin_ts_micros
    end = origin + spec.duration_micros
    spacing = spec.attach_span_micros / spec.attach_packets
    mu = math.log(spec.page_mean_bytes) - spec.page_sigma ** 2 / 2
    attach_directions = np.where(np.arange(spec.attach_packets) % 2 == 0, _UPLINK, _DOWNLINK)
    for ue in range(spec.ue_count):
        stagger = int(spacing * ue / spec.ue_count)
        ts = origin + _offsets(spec.attach_packets, spacing) + stagger
        keep = ts < end
        out.add(ts[keep], spec.attach_packet_bytes, attach_directions[keep], ue, 3868)
        # Page fetches only start once the control-plane burst is over.
        t = origin + spec.attach_span_micros
        while True:
            t += int(rng.expovariate(1.0) * spec.page_mean_interval_micros) + 1
            if t >= end:
                break
            out.add([t], 400, _UPLINK, ue, 443)
            size = int(rng.lognormvariate(mu, spec.page_sigma))
            size = min(max(size, 10_000), 20_000_000)
            n = -(-size // spec.data_packet_bytes)
            burst_micros = size * 8 * MICROS_PER_SECOND / spec.browse_pacing_bps
            ts = t + 200 + _offsets(n, burst_micros / n)
            lengths = np.full(n, spec.data_packet_bytes, dtype=np.int64)
            lengths[-1] = size - (n - 1) * spec.data_packet_bytes
            keep = ts < end
            out.add(ts[keep], lengths[keep], _DOWNLINK, ue, 443)


def _gen_video_streaming(spec: ScenarioSpec, rng: random.Random, out: _TraceBuilder) -> None:
    origin = spec.origin_ts_micros
    end = origin + spec.duration_micros
    period = spec.stream_on_micros + spec.stream_off_micros
    chunk_bytes = spec.stream_rate_bps * spec.stream_on_micros // (8 * MICROS_PER_SECOND)
    n = -(-chunk_bytes // spec.data_packet_bytes)
    data_offsets = 100 + _offsets(n, spec.stream_on_micros / n)
    data_offsets = data_offsets[data_offsets < spec.stream_on_micros]
    for ue in range(spec.ue_count):
        for start in range(origin, end, period):
            out.add([start], 200, _UPLINK, ue, 443)
            ts = start + data_offsets
            out.add(ts[ts < end], spec.data_packet_bytes, _DOWNLINK, ue, 443)


def _gen_voice_call(spec: ScenarioSpec, rng: random.Random, out: _TraceBuilder) -> None:
    # One call between the first two phones: a constant-rate stream each
    # way, half a period out of phase.
    origin = spec.origin_ts_micros
    end = origin + spec.duration_micros
    period = MICROS_PER_SECOND // spec.voice_pps
    for offset, direction, ue in ((0, _UPLINK, 0), (period // 2, _DOWNLINK, 1)):
        out.add(np.arange(origin + offset, end, period, dtype=np.int64), spec.voice_packet_bytes,
                direction, ue, 5060)


def _gen_live_upload(spec: ScenarioSpec, rng: random.Random, out: _TraceBuilder) -> None:
    origin = spec.origin_ts_micros
    end = origin + spec.duration_micros
    for sec_start in range(origin, end, MICROS_PER_SECOND):
        sec_len = min(MICROS_PER_SECOND, end - sec_start)
        rate = spec.upload_rate_bps * (1.0 + rng.uniform(-spec.upload_jitter, spec.upload_jitter))
        sec_bytes = rate * sec_len / (8 * MICROS_PER_SECOND)
        n = max(1, int(sec_bytes // spec.data_packet_bytes))
        ts = sec_start + _offsets(n, sec_len / n)
        out.add(ts[ts < end], spec.data_packet_bytes, _UPLINK, 0, 1935)
    out.add(np.arange(origin, end, spec.ack_interval_micros, dtype=np.int64), spec.ack_bytes,
            _DOWNLINK, 0, 1935)


_GENERATORS = {
    "attach-and-browse": _gen_attach_and_browse,
    "video-streaming": _gen_video_streaming,
    "voice-call": _gen_voice_call,
    "live-upload": _gen_live_upload,
}


def generate(spec: ScenarioSpec) -> GeneratedTrace:
    """Produce the full trace for a scenario. Pure: no global state.

    Timing draws come from ``random.Random(seed)``; IP IDs and payload
    fill from a separate SplitMix64 stream started at the same seed.
    """
    spec.validate()
    out = _TraceBuilder()
    _GENERATORS[spec.kind](spec, random.Random(spec.seed), out)
    records = out.build(spec.snap_bytes, spec.seed)
    return GeneratedTrace(scenario=spec, seed=spec.seed, records=records)
