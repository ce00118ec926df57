"""Test-side helpers: a per-record packet form and the fixtures the product
does not need.

twinsync moves packets only as PacketBatch columns. The tests also build
packets one at a time and compare them field by field, so PacketRecord,
with the same checks the batch constructor makes, lives here, together
with the conversions to and from batches, a manual clock, a bundle
loader, an age-of-information sampler, a check of the sync log's time
order and a classifier of packet direction read from the generated IP
headers. Last come the loop references the array code is held to: the
bytes of a generated trace (reference_trace), the report of a whole
virtual-clock run (reference_report), the sequential
age-of-information sum and real-time pacing one packet at a time
(paced_per_packet).
"""

import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

from twinsync.emit import (
    AMF_FILE,
    NSSF_FILE,
    SMF_FILE,
    TOPOLOGY_FILE,
    DeploymentBundle,
)
from twinsync.pcap import CaptureWindow, PackBlock, PacketBatch
from twinsync.transport import SyncLogEntry

SERVER_IP = bytes([203, 0, 113, 1])


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One captured packet, the fields of a pcap record."""

    ts_micros: int
    captured_len: int
    original_len: int
    payload: bytes

    def __post_init__(self):
        if self.ts_micros < 0:
            raise ValueError("ts_micros must be non-negative")
        if not 0 <= self.captured_len <= 0xFFFFFFFF:
            raise ValueError("captured_len out of 32-bit range")
        if not 0 <= self.original_len <= 0xFFFFFFFF:
            raise ValueError("original_len out of 32-bit range")
        if self.captured_len > self.original_len:
            raise ValueError("captured_len exceeds original_len")
        if len(self.payload) != self.captured_len:
            raise ValueError("payload length differs from captured_len")


def batch_of(records) -> PacketBatch:
    """The batch of a sequence of records, payloads back to back, built
    through the checked constructor."""
    records = list(records)
    cap = np.array([r.captured_len for r in records], dtype=np.int64)
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(cap, out=offsets[1:])
    return PacketBatch(
        np.array([r.ts_micros for r in records], dtype=np.int64),
        cap,
        np.array([r.original_len for r in records], dtype=np.int64),
        np.frombuffer(b"".join(r.payload for r in records), dtype=np.uint8),
        offsets,
    )


def lone_window(seq: int, start: int, end: int, packets: PacketBatch) -> CaptureWindow:
    """A window built by hand: a block of one holding ``packets``."""
    return CaptureWindow(seq, start, end, PackBlock(packets, [0, len(packets)]), 0)


def records_of(batch: PacketBatch) -> list[PacketRecord]:
    """Every packet of a batch as a record, in order."""
    batch = batch.filled()
    payload = batch.payload
    return [PacketRecord(ts, cap, orig, payload[start:start + cap].tobytes())
            for ts, cap, orig, start in zip(batch.ts_micros.tolist(), batch.captured_len.tolist(),
                                            batch.original_len.tolist(), batch.offsets.tolist())]


class ManualClock:
    """Deterministic clock where sleeping simply advances time."""

    def __init__(self, start_micros: int = 0):
        self._now = start_micros

    def now_micros(self) -> int:
        return self._now

    def sleep_micros(self, duration_micros: int) -> None:
        if duration_micros > 0:
            self._now += duration_micros


def load_bundle(directory: Path) -> DeploymentBundle:
    """Re-parse a bundle that emit.render_bundle wrote."""
    directory = Path(directory)
    docs = {name: yaml.safe_load((directory / name).read_text(encoding="utf-8"))
            for name in (SMF_FILE, NSSF_FILE, AMF_FILE)}
    topology = json.loads((directory / TOPOLOGY_FILE).read_text(encoding="utf-8"))
    return DeploymentBundle(docs[SMF_FILE], docs[NSSF_FILE], docs[AMF_FILE], topology)


def aoi_at(entries: list[SyncLogEntry], origin: int, t: int) -> int:
    """Age of information at ``t``: t minus the newest window end replayed
    by t, or minus ``origin`` before the first replay."""
    ends = [e.t_window_end for e in entries if e.delivered and e.t_replayed is not None and e.t_replayed <= t]
    return t - max(ends, default=origin)


def out_of_order_seqs(entries: list[SyncLogEntry]) -> list[int]:
    """Seqs whose timestamps violate end <= sent <= received <= replayed."""
    bad = []
    for e in entries:
        present = [t for t in (e.t_window_end, e.t_sent, e.t_received, e.t_replayed) if t is not None]
        if any(b < a for a, b in zip(present, present[1:])):
            bad.append(e.seq)
    return bad


def downlink_mask(batch: PacketBatch) -> np.ndarray:
    """Per packet, whether it goes from the server to a phone: its IPv4
    source address (bytes 12-15 of the generated header) is the server's."""
    if len(batch) and int(batch.captured_len.min()) < 20:
        raise ValueError("a packet captured too short to hold its IP addresses")
    batch = batch.filled()
    src = batch.payload[batch.offsets[:-1, None] + np.arange(12, 16)]
    return (src == np.frombuffer(SERVER_IP, dtype=np.uint8)).all(axis=1)


def volume_bytes(batch: PacketBatch, downlink: bool) -> int:
    """Total original bytes going one way."""
    return int(batch.original_len[downlink_mask(batch) == downlink].sum(dtype=np.int64))


def splitmix64_bytes(seed: int, count: int) -> bytes:
    """SplitMix64 outputs as little-endian bytes, one 64-bit word at a time."""
    mask = (1 << 64) - 1
    out = bytearray()
    state = seed & mask
    while len(out) < count:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out += (z ^ (z >> 31)).to_bytes(8, "little")
    return bytes(out[:count])


def reference_trace(groups: list[tuple], snap: int, seed: int) -> tuple[list[tuple[int, int, int]], int, bytes]:
    """What a generated trace made of ``groups`` holds, one packet at a time.

    Each group is (base, count, gap, length, direction, ue, port) as
    ``scenarios.GeneratedTrace`` takes them: packet i of a group is
    stamped base + int(i * gap), and direction 0 is uplink, 1 downlink
    and 2 alternating, uplink first. Returns (ts, captured_len,
    original_len) per packet in time order (ties in build order), the
    slot length, and the payload buffer: slot i is the packet's IPv4/UDP
    header, then SplitMix64 fill.
    """
    packets = []
    for base, count, gap, length, direction, ue, port in groups:
        for i in range(count):
            packets.append((base + int(i * gap), max(length, 28), i % 2 if direction == 2 else direction, ue, port))
    packets.sort(key=lambda p: p[0])  # stable: ties keep build order
    n = len(packets)
    slot = max([28] + [min(p[1], snap) for p in packets])
    noise = splitmix64_bytes(seed, n * (2 + slot))
    payload = bytearray(noise[2 * n:])
    columns = []
    for i, (t, total, direction, ue, port) in enumerate(packets):
        phone = bytes([10, 45, 1 + ue // 250, 2 + ue % 250])
        src, dst, sport, dport = phone, SERVER_IP, 40_000 + ue, port
        if direction == 1:
            src, dst, sport, dport = dst, src, dport, sport
        header = (bytes([0x45, 0]) + total.to_bytes(2, "big") + noise[2 * i:2 * i + 2] + bytes([0, 0, 64, 17, 0, 0])
                  + src + dst + sport.to_bytes(2, "big") + dport.to_bytes(2, "big")
                  + (total - 20).to_bytes(2, "big") + bytes(2))
        payload[i * slot:i * slot + 28] = header
        columns.append((t, min(total, snap), total))
    return columns, slot, bytes(payload)


# An end-to-end reference for the report of a virtual-clock run over the
# in-process channel: every step written out per record or per window,
# sharing no code with the pipeline past traffic generation (SyncLogEntry
# serves only as a record for aoi_at).

_CHANNEL_SEED_SALT = 0x7F4A7C15


def _reference_windows(records: list[PacketRecord], origin: int, span_end: int, T: int) -> list[tuple]:
    """(start, end, packets) of each window over [origin, span_end)."""
    windows = []
    start = origin
    i = 0
    while start < span_end:
        end = min(start + T, span_end)
        packets = []
        while i < len(records) and records[i].ts_micros < end:
            assert records[i].ts_micros >= start
            packets.append(records[i])
            i += 1
        windows.append((start, end, packets))
        start += T
    assert i == len(records)
    return windows


def _reference_bins(points: list[tuple[int, int]], origin: int, width: int, span: int) -> list[float]:
    """Bits/s per bin from (ts, original_len) points, skipping those outside."""
    n = -(-span // width) if span > 0 else 0
    volume = [0] * n
    for ts, size in points:
        k = (ts - origin) // width
        if ts >= origin and k < n:
            volume[k] += size
    scale = 8 * 1_000_000 / width
    return [v * scale for v in volume]


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _std(values: list[float]) -> float:
    m = _mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / len(values))


def _pearson(x: list[float], y: list[float]) -> float:
    if x == y:
        return 1.0
    sx, sy = _std(x), _std(y)
    if sx == 0.0 or sy == 0.0:
        return 0.0
    mx, my = _mean(x), _mean(y)
    r = math.fsum((a - mx) * (b - my) for a, b in zip(x, y)) / len(x) / (sx * sy)
    return max(-1.0, min(1.0, r))


def reference_lag_scores(x: list[float], y: list[float], max_lag: int) -> dict[int, float]:
    """The correlation score of every candidate lag, as the lag search
    ranks them: constant overlaps score 1 when equal and are skipped
    otherwise, as are overlaps under half the shorter series or under two
    bins."""
    scores = {}
    need = max(2, math.ceil(min(len(x), len(y)) / 2))
    for s in range(-max_lag, max_lag + 1):
        i0, i1 = max(0, -s), min(len(x), len(y) - s)
        if i1 - i0 < need:
            continue
        xs, ys = x[i0:i1], y[i0 + s:i1 + s]
        if _std(xs) == 0.0 or _std(ys) == 0.0:
            if xs == ys:
                scores[s] = 1.0
            continue
        scores[s] = _pearson(xs, ys)
    return scores


def reference_report(cfg, lag_bins: int | None = None) -> dict:
    """The "metrics" and "replay" sections of the report of ``cfg``, a
    virtual-clock run over the in-process channel, from per-record code.

    The lag search picks the best-scoring lag, the smallest in magnitude
    and then the lowest among equal scores; ``lag_bins`` overrides it (to
    score a lag whose correlation ties the best within float error).
    """
    from twinsync.scenarios import generate

    scenario = replace(cfg.scenario, seed=cfg.seed)
    origin, duration = scenario.origin_ts_micros, scenario.duration_micros
    T = cfg.descriptor.window_micros
    records = records_of(generate(scenario).records)
    windows = _reference_windows(records, origin, origin + duration, T)

    # The channel: one loss draw per window in seq order; a window that
    # survives is serialized after the one before it and then propagates.
    rng = random.Random(cfg.seed ^ _CHANNEL_SEED_SALT)
    spec = cfg.channel
    offset = cfg.plan.align_offset_micros or 0
    rows, replayed_points, link_free, last_done = [], [], None, None
    for seq, (start, end, packets) in enumerate(windows):
        if rng.random() < spec.loss_probability:
            rows.append(SyncLogEntry(seq, start, end, end, None, None, True))
            continue
        size = 24 + sum(16 + p.captured_len for p in packets)
        tx = -(-size * 8 * 1_000_000 // spec.bandwidth_bps) if spec.bandwidth_bps else 0
        begin = end if link_free is None else max(end, link_free)
        link_free = begin + tx
        arrival = begin + tx + spec.latency_us
        last_done = arrival if last_done is None else max(arrival, last_done)
        rows.append(SyncLogEntry(seq, start, end, end, arrival, last_done, False))
        replayed_points += [(p.ts_micros + offset, p.original_len) for p in packets]

    delivered = [e for e in rows if e.delivered]
    obs_start, obs_end = origin, origin + -(-duration // T) * T
    in_obs = sum(1 for e in delivered if obs_start < e.t_window_end <= obs_end)
    latencies = [e.t_replayed - e.t_window_end for e in delivered]

    # Age of information, sampled at its breakpoints: between two of them
    # it climbs with slope 1, so each piece is a trapezoid.
    horizon = max([obs_end] + [e.t_replayed for e in delivered])
    breaks = sorted({origin, horizon, *(e.t_replayed for e in delivered if origin < e.t_replayed < horizon)})
    area, peak = Fraction(0), 0
    for a, b in zip(breaks, breaks[1:]):
        age = aoi_at(rows, origin, a)
        area += Fraction((2 * age + (b - a)) * (b - a), 2)
        peak = max(peak, age, age + b - a)

    npt = _reference_bins([(p.ts_micros, p.original_len) for p in records], origin, cfg.bin_width_micros, duration)
    ndt = _reference_bins(replayed_points, origin, cfg.bin_width_micros, duration + max(0, offset))
    scores = reference_lag_scores(npt, ndt, cfg.max_lag_bins)
    rmse = nrmse = pearson = lag = None
    if scores:
        lag = min(scores, key=lambda s: (-scores[s], abs(s), s)) if lag_bins is None else lag_bins
        i0, i1 = max(0, -lag), min(len(npt), len(ndt) - lag)
        xs, ys = npt[i0:i1], ndt[i0 + lag:i1 + lag]
        rmse = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(xs, ys)) / len(xs))
        spread = max(npt) - min(npt)
        nrmse = None if spread == 0.0 else rmse / spread
        pearson = _pearson(xs, ys)
        lag *= cfg.bin_width_micros

    metrics = {
        "twin_alignment_ratio": min(in_obs * T / (obs_end - obs_start), 1.0),
        "mean_update_latency_us": sum(latencies) / len(latencies) if latencies else None,
        "max_update_latency_us": max(latencies, default=None),
        "mean_age_of_information_us": float(area / (horizon - origin)),
        "peak_age_of_information_us": peak,
        "sync_frequency_hz": in_obs * 1_000_000 / (obs_end - obs_start),
        "rmse_bps": rmse,
        "nrmse": nrmse,
        "pearson_r": pearson,
        "estimated_lag_us": lag,
        # The audit compares the descriptor with the bundle built from it.
        "consistency_index": 1.0,
        "windows_lost": sum(e.lost for e in rows),
    }
    replay = {
        "align_offset_us": offset if delivered else 0,
        "max_lateness_us": 0,
        "windows_sent": len(rows),
        "windows_replayed": len(delivered),
        "packets_replayed": len(replayed_points),
    }
    return {"metrics": metrics, "replay": replay, "lag_scores": scores, "bins_max": max(npt + ndt, default=0.0)}


def sequential_age_of_information(entries: list[SyncLogEntry], origin: int, horizon: int) -> tuple[float, int]:
    """(mean, peak) of age of information as a loop over the replay
    instants in time order, adding one trapezoid at a time to a float."""
    events = sorted((e.t_replayed, e.t_window_end) for e in entries if e.delivered and e.t_replayed is not None)
    instants: list[list[int]] = []  # [time, newest window end replayed by then]
    running = None
    for t, end in events:
        running = end if running is None else max(running, end)
        if instants and instants[-1][0] == t:
            instants[-1][1] = running
        else:
            instants.append([t, running])
    peak, area, t_prev, age_prev = 0, 0.0, origin, 0
    for t, end in instants:
        if t <= origin:
            age_prev = origin - end
            continue
        if t > horizon:
            break
        top = age_prev + t - t_prev
        peak = max(peak, top)
        area += (age_prev + top) / 2 * (t - t_prev)
        t_prev, age_prev = t, t - end
        peak = max(peak, age_prev)
    if horizon > t_prev:
        top = age_prev + horizon - t_prev
        peak = max(peak, top)
        area += (age_prev + top) / 2 * (horizon - t_prev)
    span = horizon - origin
    return (area / span if span > 0 else float(age_prev)), peak


def paced_per_packet(windows: list[tuple[int, list[int]]], clock) -> tuple[list[list[int]], int, list[int]]:
    """Real-time replay paced one packet at a time, as ReplayEngine did
    before it slept once per slot of targets. ``windows`` holds each
    window's (start, packet timestamps) in seq order. The offset is the
    clock when replay begins minus the first window's start, and a
    packet's target is its timestamp plus the offset. Each packet sleeps
    until its target and counts as emitted at its target or at the clock
    after that sleep, whichever is later, and a window completes at the
    clock after its last packet. Returns the emitted times per window, the
    largest lateness and each window's completion time."""
    offset = clock.now_micros() - windows[0][0]
    emitted, max_lateness, completed = [], 0, []
    for _, timestamps in windows:
        times = []
        for ts in timestamps:
            target = ts + offset
            wait = target - clock.now_micros()
            if wait > 0:
                clock.sleep_micros(wait)
            times.append(max(target, clock.now_micros()))
            max_lateness = max(max_lateness, times[-1] - target)
        emitted.append(times)
        completed.append(clock.now_micros())
    return emitted, max_lateness, completed
