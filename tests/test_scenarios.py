import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinsync import pcap, scenarios
from twinsync.pcap import LINKTYPE_RAW_IP, PacketBatch, write_pcap
from twinsync.scenarios import SCENARIO_KINDS, GeneratedTrace, ScenarioSpec, _noise_bytes, generate

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
        assert _noise_bytes(seed, count, 0).tobytes() == splitmix64_bytes(seed, count)


@pytest.mark.parametrize("block_words", [1, 3])
def test_any_range_of_the_noise_is_the_splitmix64_sequence(monkeypatch, block_words):
    # Ranges that start and end inside a word and cross block boundaries:
    # counts a step of 9 apart end at every offset within a word.
    monkeypatch.setattr(scenarios, "_NOISE_BLOCK_WORDS", block_words)
    sequence = splitmix64_bytes(5, 813)
    for start in (0, 1, 7, 8, 13):
        for count in (*range(0, 800, 9), 800):
            assert _noise_bytes(5, count, start).tobytes() == sequence[start:start + count]


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
        source_ports = batch.filled().payload.reshape(len(batch), -1)[:, 20:22].copy().view(">u2")
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


# (base, count, gap, length, direction, ue, port) per group; group packet
# i is stamped base + int(i * gap), and direction 2 alternates, uplink
# first. Timestamp 3 is in every group but the empty one, so the stable
# sort shows; gaps are zero, fractional and whole, lengths run from below
# the header to the IPv4 limit, and phones from 0 to the last one a spec
# may have.
HAND_BUILT_GROUPS = [
    (3, 4, 2.0, 120, 2, 251, 3868),
    (3, 3, 0.0, 65_535, 1, 0, 443),
    (5, 0, 1.0, 50, 0, 7, 7),
    (3, 3, 2.5, 10, 0, 25_534, 65_535),
    (0, 5, 0.75, 27, 1, 249, 0),
    (2, 4, 0.4, 1500, 2, 500, 1),
    (9, 1, 0.0, 28, 1, 250, 5060),
]


def hand_built(groups, snap: int, seed: int) -> GeneratedTrace:
    """A trace of ``groups``, all of them inside its span."""
    return GeneratedTrace(ScenarioSpec(kind="voice-call", duration_micros=10**9, seed=seed, snap_bytes=snap), groups)


def assert_matches_the_reference(groups, snap: int, seed: int) -> None:
    batch = hand_built(groups, snap, seed).records
    columns, slot, payload = reference_trace(groups, snap, seed)
    assert (batch.ts_micros.dtype, batch.captured_len.dtype, batch.original_len.dtype, batch.offsets.dtype) == \
        (np.int64, np.uint32, np.uint32, np.int64)
    assert list(zip(batch.ts_micros.tolist(), batch.captured_len.tolist(), batch.original_len.tolist())) == columns
    assert batch.offsets.tolist() == list(range(0, (len(columns) + 1) * slot, slot))
    # Every byte of every slot: header fields, addresses and ports by
    # direction, then the fill, also past a short packet's captured bytes.
    assert batch.filled().payload.tobytes() == payload


@pytest.mark.parametrize("snap", [20, 96])
@pytest.mark.parametrize("block_rows", [1, 3, 1 << 14])
def test_trace_bytes_match_the_per_packet_reference(monkeypatch, snap, block_rows):
    monkeypatch.setattr(scenarios, "_HEADER_BLOCK_ROWS", block_rows)
    assert_matches_the_reference(HAND_BUILT_GROUPS, snap, seed=7)


@pytest.mark.parametrize("block_rows", [1, 3, 1 << 14])
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_slice_of_a_trace_is_filled_and_written_as_the_reference(monkeypatch, block_rows, data):
    # Rows a..b are filled alone with the bytes the whole buffer holds
    # there, so where a trace is cut into blocks changes no byte written.
    monkeypatch.setattr(scenarios, "_HEADER_BLOCK_ROWS", block_rows)
    snap = data.draw(st.sampled_from([20, 96]), label="snap")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    trace = hand_built(HAND_BUILT_GROUPS, snap, seed).records
    a = data.draw(st.integers(0, len(trace)), label="a")
    b = data.draw(st.integers(a, len(trace)), label="b")
    columns, slot, payload = reference_trace(HAND_BUILT_GROUPS, snap, seed)
    part = trace[a:b].filled()
    assert part.payload.tobytes() == payload[a * slot:b * slot]
    assert part.offsets.tolist() == list(range(0, (b - a + 1) * slot, slot))
    ts, captured, original = zip(*columns)
    reference = PacketBatch(ts, captured, original, payload, np.arange(0, (len(ts) + 1) * slot, slot))
    assert write_pcap(LINKTYPE_RAW_IP, trace[a:b]) == write_pcap(LINKTYPE_RAW_IP, reference[a:b])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_time_range_of_a_trace_is_that_range_of_its_records(data):
    # A range's packets are made alone, each group only for its part of
    # the range; they are the records stamped in it, with the same bytes.
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    trace = hand_built(HAND_BUILT_GROUPS, 96, seed)
    records = trace.records
    ts = records.ts_micros
    start = data.draw(st.integers(-2, 13), label="start")
    end = data.draw(st.integers(start, 14), label="end")
    a, b = int(np.searchsorted(ts, start)), int(np.searchsorted(ts, end))
    assert (trace.count_before(start), trace.count_before(end)) == (a, b)
    part = trace.packets(start, end)
    for name in ("ts_micros", "captured_len", "original_len"):
        assert getattr(part, name).tolist() == getattr(records, name)[a:b].tolist()
    assert write_pcap(LINKTYPE_RAW_IP, part) == write_pcap(LINKTYPE_RAW_IP, records[a:b])


def test_a_trace_longer_than_one_header_block_matches_the_reference():
    rng = np.random.default_rng(5)
    groups = [(int(rng.integers(0, 1000)), int(rng.integers(0, 300)), float(rng.choice([0.0, 0.37, 3.0, 11.5])),
               int(rng.integers(1, 1600)), int(rng.integers(0, 3)), int(rng.integers(0, 600)), 443)
              for _ in range(150)]
    assert sum(group[1] for group in groups) > scenarios._HEADER_BLOCK_ROWS
    assert_matches_the_reference(groups, 96, seed=2**64 - 1)


def test_a_packet_past_the_ipv4_limit_is_refused():
    with pytest.raises(ValueError, match="^packet of 65536 bytes exceeds the IPv4 limit$"):
        hand_built([(1, 1, 0.0, 65_535, 0, 0, 443), (2, 2, 1.0, 65_536, 0, 0, 443)], 96, 0)
    # By the event pass, before any packet is made.
    with pytest.raises(ValueError, match="^packet of 70000 bytes exceeds the IPv4 limit$"):
        generate(spec_for("attach-and-browse", attach_packet_bytes=70_000))


def test_packets_past_the_span_are_dropped_before_they_are_checked():
    # The end truncates every group, so a packet that would be too long but
    # lies past the span is not refused, as when the builder filtered it.
    trace = GeneratedTrace(ScenarioSpec(kind="voice-call", duration_micros=10),
                           [(0, 3, 4.0, 100, 0, 0, 443), (10, 1, 0.0, 70_000, 0, 0, 443)])
    assert trace.packet_count == len(trace.records) == 3
    assert trace.records.ts_micros.tolist() == [0, 4, 8]


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
def test_generated_trace_bytes_are_the_golden_ones(monkeypatch, kind):
    batch = generate(ScenarioSpec(kind=kind, duration_micros=6 * SECOND, seed=3, ue_count=3)).records
    # Written a piece of packets at a time, each piece's rows filled alone.
    for piece in (251, pcap._WRITE_PIECE_PACKETS):
        monkeypatch.setattr(pcap, "_WRITE_PIECE_PACKETS", piece)
        assert hashlib.sha256(write_pcap(LINKTYPE_RAW_IP, batch)).hexdigest() == GOLDEN_TRACE_SHA256[kind]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_chunks_of_whole_windows_add_up_to_the_trace(data):
    # The loop pulls a trace a chunk of whole windows at a time: the chunks'
    # columns, joined, are the trace's, and each chunk's pcap records are
    # the same bytes of the whole trace's pcap.
    kind = data.draw(st.sampled_from(SCENARIO_KINDS), label="kind")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    duration = data.draw(st.integers(1, 8 * SECOND), label="duration")
    window = data.draw(st.integers(SECOND // 20, 2 * SECOND), label="window")
    origin = data.draw(st.sampled_from([0, 777]), label="origin")
    spec = ScenarioSpec(kind=kind, duration_micros=duration, seed=seed, ue_count=3, origin_ts_micros=origin)
    trace = generate(spec)
    records = trace.records
    n_windows = -(-duration // window)
    cuts = sorted(data.draw(st.sets(st.integers(1, n_windows - 1), max_size=6), label="cuts")) if n_windows > 1 else []
    bounds = [origin + k * window for k in (0, *cuts)] + [origin + duration]
    chunks = [trace.packets(start, end) for start, end in zip(bounds, bounds[1:])]
    assert trace.packet_count == len(records) == sum(len(chunk) for chunk in chunks)
    for name in ("ts_micros", "captured_len", "original_len"):
        joined = np.concatenate([getattr(chunk, name) for chunk in chunks])
        assert joined.dtype == getattr(records, name).dtype
        assert joined.tolist() == getattr(records, name).tolist()
    whole = write_pcap(LINKTYPE_RAW_IP, records)
    at = 24
    for chunk in chunks:
        piece = write_pcap(LINKTYPE_RAW_IP, chunk)[24:]
        assert piece == whole[at:at + len(piece)]
        at += len(piece)
    assert at == len(whole)


def browse_spec(page_mean_bytes: int) -> ScenarioSpec:
    return ScenarioSpec(kind="attach-and-browse", duration_micros=60 * SECOND, ue_count=12,
                        page_mean_interval_micros=2 * SECOND, page_mean_bytes=page_mean_bytes)


def traced_peak(make):
    """What ``make()`` returns and the peak of the memory it traced;
    numpy reports its buffers to tracemalloc, so the peak is exact."""
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_event_pass_holds_its_events_not_its_packets():
    # Pages four times as large are the same draws and the same events with
    # four times the packets: the event pass holds no more for them, and
    # under 3 bytes a packet, against the 29 bytes of columns a packet takes.
    generate(browse_spec(375_000))  # imports and caches
    small, small_peak = traced_peak(lambda: generate(browse_spec(375_000)))
    large, large_peak = traced_peak(lambda: generate(browse_spec(1_500_000)))
    assert large.packet_count > 3.5 * small.packet_count > 350_000
    assert large_peak < 1.1 * small_peak
    assert small_peak < 3 * small.packet_count


def test_building_the_records_holds_little_beyond_them():
    # The records are every array they hold: their columns and the header
    # columns their payload rows are filled from. Anything above it is a
    # temporary, which building keeps narrow.
    trace = generate(browse_spec(375_000))
    batch, peak = traced_peak(lambda: trace.records)
    held = [getattr(batch, name) for name in PacketBatch.__slots__]
    held += [getattr(batch.payload, name) for name in type(batch.payload).__slots__]
    arrays = {id(value): value for value in held if isinstance(value, np.ndarray)}
    trace_bytes = sum(array.nbytes for array in arrays.values())
    assert len(batch) > 100_000
    assert peak <= 1.2 * trace_bytes
