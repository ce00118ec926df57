"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them live). Tolerances are pinned
here, not configurable."""

import copy
import json
import random
import struct
import time

import numpy as np

from twinsync import cli
from twinsync.emit import emit_bundle
from twinsync.ingest import extract_descriptor, parse_phys_config
from twinsync.metrics import audited_field_count, state_consistency_index
from twinsync.model import SliceSpec, TwinDescriptor, descriptor_to_json
from twinsync.pcap import LINKTYPE_RAW_IP, read_pcap, segment_stream, write_pcap
from twinsync.pipeline import RunConfig, run_pipeline
from twinsync.replay import ReplayPlan
from twinsync.scenarios import (
    ATTACH_PACKET_BYTES,
    SCENARIO_KINDS,
    STREAM_OFF_MICROS,
    STREAM_ON_MICROS,
    ScenarioSpec,
    generate,
)
from twinsync.transport import ChannelSpec

from conftest import FIXTURES
from reference import PacketRecord, aoi_at, batch_of, downlink_mask, records_of, volume_bytes

SECOND = 1_000_000


def verdict(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def lab_descriptor(window_seconds: float = 10.0) -> TwinDescriptor:
    return TwinDescriptor(
        network_name="lab",
        plmn="00101",
        ue_count=2,
        slices=(SliceSpec("internet", "10.45.0.0/16", "10.45.0.1", 10_000_000, 10_000_000, 9),),
        window_seconds=window_seconds,
    )


def fidelity_run(kind: str, seconds: int = 60, seed: int = 0, channel: ChannelSpec | None = None,
                 plan: ReplayPlan | None = None):
    cfg = RunConfig(
        descriptor=lab_descriptor(),
        scenario=ScenarioSpec(kind=kind, duration_micros=seconds * SECOND, ue_count=2),
        channel=channel or ChannelSpec(),
        plan=plan or ReplayPlan(),
        seed=seed,
    )
    return run_pipeline(cfg)


def test_criterion_1_lossless_fidelity_runs():
    """Every scenario replayed losslessly reproduces its own series."""
    ok = True
    details = []
    for kind in SCENARIO_KINDS:
        started = time.monotonic()
        result = fidelity_run(kind)
        elapsed = time.monotonic() - started
        r = result.report
        kind_ok = (
            r.pearson_r is not None
            and r.pearson_r >= 0.999
            and r.rmse_bps == 0.0
            and r.twin_alignment_ratio == 1.0
            and elapsed < 10.0
        )
        ok = ok and kind_ok
        details.append(f"{kind}: r={r.pearson_r:.4f} rmse={r.rmse_bps} tar={r.twin_alignment_ratio} {elapsed:.2f}s")
    verdict(1, ok, "; ".join(details))


def test_criterion_2_lag_model_and_shift_recovery():
    """Twin lag is T plus the transfer delay; integer shifts are recovered."""
    channel = ChannelSpec(latency_us=900_000, bandwidth_bps=1_000_000_000)
    result = fidelity_run("voice-call", channel=channel, seed=1)
    lags = [e.t_replayed - e.t_window_start for e in result.log.entries() if e.delivered]
    lags_ok = bool(lags) and all(abs(lag - 10_900_000) <= 1 * SECOND for lag in lags)

    shifts_ok = True
    for shift_bins in (1, 2, 3, 5):
        shifted = fidelity_run(
            "attach-and-browse",
            seed=2,
            plan=ReplayPlan(align_offset_micros=shift_bins * SECOND),
        )
        shifts_ok = shifts_ok and (
            shifted.report.estimated_lag_us == shift_bins * SECOND
            and shifted.report.rmse_bps == 0.0
        )
    verdict(2, lags_ok and shifts_ok,
            f"lag range [{min(lags) / 1e6:.3f}, {max(lags) / 1e6:.3f}] s, shifts exact: {shifts_ok}")


def test_criterion_3_tar_degrades_with_loss():
    """TAR equals the delivered fraction and falls monotonically with loss."""
    seed = 5
    result = fidelity_run("voice-call", seconds=400, seed=seed, channel=ChannelSpec(loss_probability=0.5))
    delivered = sum(e.delivered for e in result.log.entries())
    exact = result.windows_sent == 40 and result.report.twin_alignment_ratio == delivered / 40

    ratios = []
    for loss in (0.0, 0.25, 0.5, 0.75, 1.0):
        run = fidelity_run("voice-call", seconds=400, seed=seed, channel=ChannelSpec(loss_probability=loss))
        ratios.append(run.report.twin_alignment_ratio)
    monotone = all(a >= b for a, b in zip(ratios, ratios[1:]))
    verdict(3, exact and monotone, f"delivered {delivered}/40, TAR curve {ratios}")


def test_criterion_4_aoi_sawtooth():
    """Peak age is T + L and the age climbs with slope one between replays."""
    T = 10 * SECOND
    channel = ChannelSpec(latency_us=900_000, bandwidth_bps=1_000_000_000)
    result = fidelity_run("voice-call", channel=channel, seed=1)
    latency = result.report.max_update_latency_us
    peak_ok = abs(result.report.peak_age_of_information_us - (T + latency)) <= 1

    entries = result.log.entries()
    t0 = [e for e in entries if e.delivered][2].t_replayed + 1000
    step = 123_456
    values = [aoi_at(entries, entries[0].t_window_start, t) for t in (t0, t0 + step, t0 + 2 * step)]
    slope_ok = (values[1] - values[0] == step) and (values[2] - values[1] == step)
    verdict(4, peak_ok and slope_ok,
            f"peak={result.report.peak_age_of_information_us} T+L={T + latency} slope1={slope_ok}")


def test_criterion_5_pcap_bit_exactness():
    """write -> read -> write is byte-identical; foreign formats parse."""
    rng = random.Random(0xC0FFEE)
    ok = True
    for _ in range(1000):
        packets = []
        ts = 0
        for _ in range(rng.randrange(0, 20)):
            ts += rng.randrange(0, 50_000)
            size = rng.randrange(0, 120)
            packets.append(PacketRecord(ts, size, size + rng.randrange(0, 30), rng.randbytes(size)))
        first = write_pcap(LINKTYPE_RAW_IP, batch_of(packets))
        _, batch = read_pcap(first)
        if write_pcap(LINKTYPE_RAW_IP, batch) != first:
            ok = False
            break

    big_endian = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
    big_endian += struct.pack(">IIII", 7, 42, 3, 3) + b"abc"
    be_records = records_of(read_pcap(big_endian)[1])
    foreign_ok = be_records[0].ts_micros == 7 * SECOND + 42 and be_records[0].payload == b"abc"

    nanos = struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
    nanos += struct.pack("<IIII", 1, 999_999_999, 1, 1) + b"z"
    ns_records = records_of(read_pcap(nanos)[1])
    nanos_ok = ns_records[0].ts_micros == 1 * SECOND + 999_999
    verdict(5, ok and foreign_ok and nanos_ok, "1000 round trips, both endians, nanosecond magic")


def test_criterion_6_config_pipeline_consistency():
    """Fixture config -> descriptor -> bundle audits perfectly consistent."""
    text = (FIXTURES / "mme.cfg").read_text()
    descriptor, _ = extract_descriptor(parse_phys_config(text))
    bundle = emit_bundle(descriptor)
    n = audited_field_count(descriptor)
    clean = state_consistency_index(descriptor, bundle) == 1.0

    mutations_ok = True
    checked = 0
    global_mutations = [("plmn", "99999"), ("ue_count", 99)]
    for key, value in global_mutations:
        mutated = copy.deepcopy(bundle)
        mutated.amf_doc["amf"][key] = value
        mutations_ok &= state_consistency_index(descriptor, mutated) == (n - 1) / n
        checked += 1
    session_mutations = [
        ("dnn", "zz"), ("subnet", "10.99.0.0/16"), ("gateway", "10.99.0.1"),
        ("dl_bandwidth_bps", 1), ("ul_bandwidth_bps", 1), ("qos_index", 1),
    ]
    for slice_index in range(len(descriptor.slices)):
        for key, value in session_mutations:
            mutated = copy.deepcopy(bundle)
            mutated.smf_doc["smf"]["sessions"][slice_index][key] = value
            mutations_ok &= state_consistency_index(descriptor, mutated) == (n - 1) / n
            checked += 1
    verdict(6, clean and mutations_ok and checked == n, f"N={n}, every single-field mutation drops 1/N")


def test_criterion_7_segmentation_conservation():
    """Windows conserve packets, seqs are gapless, boundaries half-open."""
    rng = random.Random(424242)
    ok = True
    for _ in range(50):
        T = rng.randrange(SECOND // 2, 5 * SECOND)
        count = rng.randrange(0, 400)
        times = sorted(rng.randrange(0, 60 * SECOND) for _ in range(count))
        packets = [PacketRecord(t, 1, 1, b"x") for t in times]
        windows = list(segment_stream(batch_of(packets), T, 0, span_end_micros=60 * SECOND))
        if sum(len(w.packets) for w in windows) != len(packets):
            ok = False
            break
        if [w.seq for w in windows] != list(range(len(windows))):
            ok = False
            break
        for w in windows:
            if any(not (w.start_ts_micros <= ts < w.end_ts_micros) for ts in w.packets.ts_micros.tolist()):
                ok = False

    # Boundary packets land in the later window.
    T = 2 * SECOND
    boundary = [PacketRecord(k * T, 1, 1, b"x") for k in range(4)]
    windows = list(segment_stream(batch_of(boundary), T, 0, span_end_micros=4 * T))
    boundary_ok = all(w.packets.ts_micros.tolist() == [w.seq * T] for w in windows)
    verdict(7, ok and boundary_ok, "50 random traces + boundary rule")


def test_criterion_8_scenario_shapes_across_seeds():
    """Shape invariants hold for 20 seeds per scenario."""
    voice_ok = upload_ok = stream_ok = browse_ok = True
    for seed in range(20):
        voice = generate(ScenarioSpec(kind="voice-call", duration_micros=10 * SECOND, seed=seed, ue_count=2))
        # A packet's direction is read from its IP header: downlink comes from the server.
        up = volume_bytes(voice.records, downlink=False)
        down = volume_bytes(voice.records, downlink=True)
        voice_ok &= abs(up - down) <= 0.01 * max(up, down)

        upload = generate(ScenarioSpec(kind="live-upload", duration_micros=20 * SECOND, seed=seed, ue_count=1))
        upload_ok &= volume_bytes(upload.records, downlink=False) > 5 * volume_bytes(upload.records, downlink=True)

        stream = generate(ScenarioSpec(kind="video-streaming", duration_micros=32 * SECOND, seed=seed, ue_count=2))
        bins = np.zeros(32)
        for r, downlink in zip(records_of(stream.records), downlink_mask(stream.records)):
            if downlink:
                bins[r.ts_micros // SECOND] += r.original_len
        x = bins - bins.mean()
        period = (STREAM_ON_MICROS + STREAM_OFF_MICROS) // SECOND
        autocorr = lambda lag: float((x[:-lag] * x[lag:]).sum() / (x * x).sum())
        stream_ok &= autocorr(period) > 0.5 and autocorr(period) > autocorr(period // 2)

        browse = generate(ScenarioSpec(kind="attach-and-browse", duration_micros=30 * SECOND, seed=seed, ue_count=2))
        browse_records = records_of(browse.records)
        control = [r.ts_micros for r in browse_records if r.original_len == ATTACH_PACKET_BYTES]
        data = [r.ts_micros for r in browse_records if r.original_len != ATTACH_PACKET_BYTES]
        browse_ok &= bool(control) and bool(data) and max(control) < min(data)
    verdict(8, voice_ok and upload_ok and stream_ok and browse_ok,
            f"voice={voice_ok} upload={upload_ok} stream={stream_ok} browse={browse_ok}")


def test_criterion_9_run_command_determinism(tmp_path):
    """Identical run configs produce byte-identical report JSON."""
    descriptor_path = tmp_path / "descriptor.json"
    descriptor_path.write_bytes(descriptor_to_json(lab_descriptor()))
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main([
            "run",
            "--descriptor", str(descriptor_path),
            "--scenario", "browse",
            "--duration", "30",
            "--seed", "21",
            "--report", str(out / "report.json"),
            "--out-dir", str(out),
        ])
        assert code == 0
        reports.append((out / "report.json").read_bytes())
    identical = reports[0] == reports[1]
    sanity = json.loads(reports[0])["metrics"]["twin_alignment_ratio"] == 1.0
    verdict(9, identical and sanity, f"{len(reports[0])} byte report, runs byte-identical")
