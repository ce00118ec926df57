import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from twinsync import scenarios
from twinsync.pcap import LINKTYPE_RAW_IP, write_pcap
from twinsync.scenarios import (
    SCENARIO_KINDS,
    GeneratedTrace,
    ScenarioSpec,
    _noise_bytes,
    _TraceBuilder,
    generate,
)

from reference import SERVER_IP, downlink_mask, records_of, reference_trace, splitmix64_bytes, volume_bytes

# Which way each packet goes is read from its IP header: a downlink
# packet comes from the server, an uplink one goes to it.
UPLINK, DOWNLINK = False, True

SECOND = 1_000_000


def spec_for(kind: str, seconds: float = 10.0, seed: int = 0, **kw) -> ScenarioSpec:
    return ScenarioSpec(kind=kind, duration_micros=int(seconds * SECOND), seed=seed, ue_count=2, **kw)


class TestVoiceCall:
    def test_packet_count_follows_the_period(self):
        # Count oracle: duration / period per direction = 10 s / 20 ms = 500.
        trace = generate(spec_for("voice-call"))
        downlink = downlink_mask(trace.records)
        assert int(np.count_nonzero(~downlink)) == 500
        assert int(np.count_nonzero(downlink)) == 500
        assert set(trace.records.original_len.tolist()) == {172}

    def test_constant_twenty_ms_spacing_per_direction(self):
        trace = generate(spec_for("voice-call"))
        ul_ts = trace.records.ts_micros[~downlink_mask(trace.records)].tolist()
        gaps = {b - a for a, b in zip(ul_ts, ul_ts[1:])}
        assert gaps == {20_000}

    def test_byte_symmetry_is_exact(self):
        trace = generate(spec_for("voice-call", seconds=30, seed=9))
        up = volume_bytes(trace.records, UPLINK)
        down = volume_bytes(trace.records, DOWNLINK)
        assert abs(up - down) <= 0.01 * max(up, down)

    def test_needs_two_phones(self):
        with pytest.raises(ValueError):
            generate(ScenarioSpec(kind="voice-call", duration_micros=SECOND, ue_count=1))


class TestLiveUpload:
    @pytest.mark.parametrize("seed", range(5))
    def test_uplink_dominates_by_more_than_five_to_one(self, seed):
        trace = generate(spec_for("live-upload", seconds=20, seed=seed))
        up = volume_bytes(trace.records, UPLINK)
        down = volume_bytes(trace.records, DOWNLINK)
        assert up > 5 * down

    def test_rate_stays_near_the_configured_mean(self):
        spec = spec_for("live-upload", seconds=30, seed=3)
        trace = generate(spec)
        up_bits = volume_bytes(trace.records, UPLINK) * 8
        mean_rate = up_bits / 30
        assert 0.7 * spec.upload_rate_bps < mean_rate < 1.1 * spec.upload_rate_bps


class TestAttachAndBrowse:
    def test_short_run_contains_only_the_attach_burst(self):
        # Duration inside the attach phase: control packets only.
        spec = spec_for("attach-and-browse", seconds=1.5)
        trace = generate(spec)
        assert len(trace.records)
        assert set(trace.records.original_len.tolist()) == {spec.attach_packet_bytes}

    def test_control_burst_precedes_all_page_traffic(self):
        spec = spec_for("attach-and-browse", seconds=30, seed=5)
        trace = generate(spec)
        control = [r.ts_micros for r in records_of(trace.records) if r.original_len == spec.attach_packet_bytes]
        data = [r.ts_micros for r in records_of(trace.records) if r.original_len != spec.attach_packet_bytes]
        assert control and data
        assert max(control) < min(data)

    def test_browsing_is_downlink_dominant(self):
        trace = generate(spec_for("attach-and-browse", seconds=60, seed=2))
        down = volume_bytes(trace.records, DOWNLINK)
        up = volume_bytes(trace.records, UPLINK)
        assert down > 10 * up


class TestVideoStreaming:
    def test_on_off_pattern_shows_at_the_chunk_period(self):
        # Autocorrelation oracle over 1 s downlink-rate bins: a 2 s on /
        # 2 s off square wave correlates positively at its 4 s period and
        # negatively at the half period.
        spec = spec_for("video-streaming", seconds=32, seed=1)
        trace = generate(spec)
        bins = np.zeros(32)
        for r, downlink in zip(records_of(trace.records), downlink_mask(trace.records)):
            if downlink:
                bins[r.ts_micros // SECOND] += r.original_len
        x = bins - bins.mean()

        def autocorr(lag):
            return float((x[:-lag] * x[lag:]).sum() / (x * x).sum())

        period_s = (spec.stream_on_micros + spec.stream_off_micros) // SECOND
        assert autocorr(period_s) > 0.5
        assert autocorr(period_s) > autocorr(period_s // 2)

    def test_mean_on_phase_rate_tracks_the_configured_rate(self):
        spec = spec_for("video-streaming", seconds=32, seed=2)
        trace = generate(spec)
        down_bits = volume_bytes(trace.records, DOWNLINK) * 8
        duty_cycle = spec.stream_on_micros / (spec.stream_on_micros + spec.stream_off_micros)
        mean_rate = down_bits / 32 / spec.ue_count
        assert abs(mean_rate - spec.stream_rate_bps * duty_cycle) < 0.05 * spec.stream_rate_bps


class TestDeterminism:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_same_seed_gives_byte_identical_traces(self, kind):
        a = generate(spec_for(kind, seconds=5, seed=11))
        b = generate(spec_for(kind, seconds=5, seed=11))
        assert write_pcap(LINKTYPE_RAW_IP, a.records) == write_pcap(LINKTYPE_RAW_IP, b.records)

    def test_different_seeds_differ(self):
        a = generate(spec_for("live-upload", seconds=5, seed=1))
        b = generate(spec_for("live-upload", seconds=5, seed=2))
        assert write_pcap(LINKTYPE_RAW_IP, a.records) != write_pcap(LINKTYPE_RAW_IP, b.records)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_timestamps_stay_inside_the_duration(self, kind):
        spec = spec_for(kind, seconds=7, seed=4)
        trace = generate(spec)
        ts = trace.records.ts_micros.tolist()
        assert all(0 <= t < spec.duration_micros for t in ts)
        assert ts == sorted(ts)


def reference_timing(spec: ScenarioSpec) -> list[tuple[int, int, bool]]:
    """(ts, original_len, downlink) per packet from the per-packet loops the
    video-streaming and voice-call generators used before they built arrays."""
    origin, end = spec.origin_ts_micros, spec.origin_ts_micros + spec.duration_micros
    out = []
    if spec.kind == "video-streaming":
        period = spec.stream_on_micros + spec.stream_off_micros
        chunk_bytes = spec.stream_rate_bps * spec.stream_on_micros // (8 * SECOND)
        n = -(-chunk_bytes // spec.data_packet_bytes)
        gap = spec.stream_on_micros / n
        for ue in range(spec.ue_count):
            chunk = 0
            while (start := origin + chunk * period) < end:
                out.append((start, 200, UPLINK))
                for i in range(n):
                    ts = start + 100 + int(i * gap)
                    if ts >= min(start + spec.stream_on_micros, end):
                        break
                    out.append((ts, spec.data_packet_bytes, DOWNLINK))
                chunk += 1
    else:
        period = SECOND // spec.voice_pps
        for offset, direction in ((0, UPLINK), (period // 2, DOWNLINK)):
            k = 0
            while (ts := origin + offset + k * period) < end:
                out.append((ts, spec.voice_packet_bytes, direction))
                k += 1
    return sorted(out, key=lambda p: p[0])


@pytest.mark.parametrize("spec", [
    spec_for("video-streaming", seconds=21.3, seed=4),
    ScenarioSpec(kind="video-streaming", duration_micros=13_000_000, ue_count=3, origin_ts_micros=777,
                 stream_rate_bps=3_333_333, data_packet_bytes=1000),
    spec_for("voice-call", seconds=7.01),
    ScenarioSpec(kind="voice-call", duration_micros=3_000_000, ue_count=2, voice_pps=33, origin_ts_micros=5),
])
def test_deterministic_timing_matches_the_per_packet_reference(spec):
    batch = generate(spec).records
    assert list(zip(batch.ts_micros.tolist(), batch.original_len.tolist(), downlink_mask(batch).tolist())) == \
        reference_timing(spec)


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("snap", [20, 96])
def test_payloads_start_with_a_matching_ip_udp_header(kind, snap):
    batch = generate(spec_for(kind, seconds=12, seed=3, snap_bytes=snap)).records
    assert len(batch)
    for r, downlink in zip(records_of(batch), downlink_mask(batch)):
        assert r.captured_len == min(r.original_len, snap) == len(r.payload)
        header = r.payload.ljust(28, b"\0")
        version, total_len, proto = header[0], int.from_bytes(header[2:4], "big"), header[9]
        assert (version, total_len, proto) == (0x45, r.original_len, 17)
        ue_side, server_side = (header[12:16], header[16:20])
        if downlink:
            ue_side, server_side = server_side, ue_side
        assert server_side == SERVER_IP and ue_side[:2] == bytes([10, 45])
        if snap >= 28:
            assert int.from_bytes(header[24:26], "big") == r.original_len - 20


@pytest.mark.parametrize("seed", [0, 1, -3, 2**70 + 5])
def test_payload_noise_is_the_splitmix64_sequence(seed):
    for count in (0, 1, 13, 800):
        assert _noise_bytes(seed, count).tobytes() == splitmix64_bytes(seed, count)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(ScenarioSpec(kind="gaming", duration_micros=SECOND))

    def test_zero_duration(self):
        with pytest.raises(ValueError):
            generate(ScenarioSpec(kind="voice-call", duration_micros=0))

    def test_every_phone_has_a_port_of_its_own(self):
        # Phone k sends from port 40000 + k: the last phone a spec may have
        # gets port 65534, the next one would wrap to 0.
        spec = ScenarioSpec(kind="attach-and-browse", duration_micros=SECOND, ue_count=25_535, attach_packets=2)
        batch = generate(spec).records
        source_ports = batch.payload.reshape(len(batch), -1)[:, 20:22].copy().view(">u2")
        assert int(source_ports.max()) == 65_534
        with pytest.raises(ValueError, match="^ue_count must be at most 25535, got 25536$"):
            generate(replace(spec, ue_count=25_536))
        with pytest.raises(ValueError, match="^ue_count must be at most 25535, got 63750$"):
            generate(replace(spec, ue_count=63_750))

    @pytest.mark.parametrize("field, value, message", [
        ("data_packet_bytes", 0, "must be positive"),
        ("attach_packet_bytes", -1, "must be positive"),
        ("attach_packets", 0, "must be positive"),
        ("page_mean_bytes", 0, "must be positive"),
        ("page_mean_interval_micros", 0, "must be positive"),
        ("browse_pacing_bps", 0, "must be positive"),
        ("stream_on_micros", 0, "must be positive"),
        ("stream_rate_bps", -5, "must be positive"),
        ("voice_packet_bytes", 0, "must be positive"),
        ("voice_pps", 0, "must be positive"),
        ("voice_pps", 2_000_000, "must be at most 1000000"),
        ("upload_rate_bps", 0, "must be positive"),
        ("ack_interval_micros", 0, "must be positive"),
        ("ack_bytes", 0, "must be positive"),
        ("snap_bytes", -1, "must not be negative"),
        ("stream_off_micros", -1, "must not be negative"),
        ("attach_span_micros", -1, "must not be negative"),
        ("origin_ts_micros", -1, "must not be negative"),
    ])
    def test_a_field_out_of_range_is_named(self, field, value, message):
        # Refused whatever the kind, before any packet is made: each of
        # these used to divide by zero, take log(0) or wrap a length.
        with pytest.raises(ValueError, match=f"^{field} {message}, got {value}$"):
            generate(ScenarioSpec(kind="live-upload", duration_micros=SECOND, **{field: value}))

    @pytest.mark.parametrize("field, value, message", [
        ("upload_jitter", 3.0, "must lie in [0, 1]"),
        ("upload_jitter", -0.1, "must lie in [0, 1]"),
        ("upload_jitter", math.inf, "must lie in [0, 1]"),
        ("upload_jitter", math.nan, "must lie in [0, 1]"),
        ("page_sigma", -0.5, "must be finite and non-negative"),
        ("page_sigma", math.inf, "must be finite and non-negative"),
        ("page_sigma", math.nan, "must be finite and non-negative"),
    ])
    def test_a_float_knob_out_of_range_is_named(self, field, value, message):
        for kind in ("live-upload", "attach-and-browse"):
            with pytest.raises(ValueError, match=f"^{field} {re.escape(message)}, got {value}$"):
                generate(ScenarioSpec(kind=kind, duration_micros=SECOND, **{field: value}))

    def test_the_float_knobs_at_their_bounds_still_generate(self):
        for field, value in (("upload_jitter", 0.0), ("upload_jitter", 1.0), ("page_sigma", 0.0)):
            for kind in ("live-upload", "attach-and-browse"):
                assert len(generate(ScenarioSpec(kind=kind, duration_micros=5 * SECOND, **{field: value})).records)

    def test_the_smallest_values_still_generate(self):
        # One packet per microsecond, zero-length captures and no off phase.
        for kind in SCENARIO_KINDS:
            batch = generate(ScenarioSpec(kind=kind, duration_micros=3000, ue_count=2, voice_pps=1_000_000,
                                          snap_bytes=0, stream_off_micros=0, attach_span_micros=0)).records
            assert len(batch) and int(batch.captured_len.max()) == 0

    def test_trace_echoes_spec_and_seed(self):
        spec = spec_for("live-upload", seconds=1, seed=42)
        trace = generate(spec)
        assert isinstance(trace, GeneratedTrace)
        assert trace.seed == 42
        assert trace.scenario == spec


# (timestamps, length, direction, ue, port) per group, each field a scalar
# or one entry per packet. Timestamp 3 is in every group, and unsorted in
# the first, so the stable sort shows; lengths run from below the header
# to the IPv4 limit, and phones from 0 to the last one a spec may have.
HAND_BUILT_GROUPS = [
    ([5, 3, 3, 9], 120, np.array([0, 1, 0, 1]), 251, 3868),
    ([3, 5, 7], np.array([10, 1500, 65_535]), 1, 0, 443),
    ([], 50, 0, 7, 7),
    ([3, 3, 8], 400, 0, np.array([249, 500, 25_534]), np.array([1, 65_535, 0])),
    ([9, 3], np.array([28, 27]), np.array([1, 1]), 250, 5060),
]


def built(groups, snap: int, seed: int):
    builder = _TraceBuilder()
    for group in groups:
        builder.add(*group)
    return builder.build(snap, seed)


def assert_matches_the_reference(groups, snap: int, seed: int) -> None:
    batch = built(groups, snap, seed)
    columns, slot, payload = reference_trace(groups, snap, seed)
    assert (batch.ts_micros.dtype, batch.captured_len.dtype, batch.original_len.dtype, batch.offsets.dtype) == \
        (np.int64, np.uint32, np.uint32, np.int64)
    assert list(zip(batch.ts_micros.tolist(), batch.captured_len.tolist(), batch.original_len.tolist())) == columns
    assert batch.offsets.tolist() == list(range(0, (len(columns) + 1) * slot, slot))
    # Every byte of every slot: header fields, addresses and ports by
    # direction, then the fill, also past a short packet's captured bytes.
    assert batch.payload.tobytes() == payload


@pytest.mark.parametrize("snap", [20, 96])
@pytest.mark.parametrize("block_rows", [1, 3, 1 << 14])
def test_trace_bytes_match_the_per_packet_reference(monkeypatch, snap, block_rows):
    monkeypatch.setattr(scenarios, "_HEADER_BLOCK_ROWS", block_rows)
    assert_matches_the_reference(HAND_BUILT_GROUPS, snap, seed=7)


def test_a_trace_longer_than_one_header_block_matches_the_reference():
    n = scenarios._HEADER_BLOCK_ROWS + 37
    rng = np.random.default_rng(5)
    groups = [
        (rng.integers(0, 1000, n), rng.integers(1, 1600, n), rng.integers(0, 2, n), 300, 443),
        (np.arange(0, 1000, 7), 172, 1, rng.integers(0, 600, 143), 5060),
    ]
    assert_matches_the_reference(groups, 96, seed=2**64 - 1)


def test_a_packet_past_the_ipv4_limit_is_refused():
    with pytest.raises(ValueError, match="^packet of 65536 bytes exceeds the IPv4 limit$"):
        built([([1, 2], np.array([65_535, 65_536]), 0, 0, 443)], 96, 0)


# sha256 of write_pcap(LINKTYPE_RAW_IP, trace) for a 6 s run of each kind
# with three phones and seed 3, recorded before the header writer was
# rebuilt block by block.
GOLDEN_TRACE_SHA256 = {
    "attach-and-browse": "95fc8e547899af47742327e0b68e72fa4da97aeebe9bd23475c71cc47eefe0ea",
    "video-streaming": "2f441fdbbd9056d437c957f07adfbc0ddb47580669fcc001b65eed51a1728547",
    "voice-call": "e14393667a4cfa9eb476864b429a67892d597ce5ed2b9ab5a445b9ef0723aa80",
    "live-upload": "ab3be142833791728b4e12308f57ec55116e12e1a22114f97f12f0ea0f5b7e82",
}


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_generated_trace_bytes_are_the_golden_ones(kind):
    batch = generate(ScenarioSpec(kind=kind, duration_micros=6 * SECOND, seed=3, ue_count=3)).records
    assert hashlib.sha256(write_pcap(LINKTYPE_RAW_IP, batch)).hexdigest() == GOLDEN_TRACE_SHA256[kind]


def test_generation_holds_little_beyond_the_trace():
    # numpy reports its buffers to tracemalloc, so the peak is exact. The
    # trace is its columns and payload buffer; anything above it is a
    # temporary, which generation keeps narrow and block sized.
    spec = ScenarioSpec(kind="attach-and-browse", duration_micros=60 * SECOND, ue_count=12,
                        page_mean_interval_micros=2 * SECOND, page_mean_bytes=375_000)
    tracemalloc.start()
    try:
        batch = generate(spec).records
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trace_bytes = sum(column.nbytes for column in
                      (batch.ts_micros, batch.captured_len, batch.original_len, batch.offsets, batch.payload))
    assert len(batch) > 100_000
    assert peak <= 1.3 * trace_bytes
