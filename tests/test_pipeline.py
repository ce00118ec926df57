import functools
import gc
import hashlib
import json
import signal
import struct
import tempfile
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twinsync.pipeline as pipeline
import twinsync.transport as transport
from twinsync.errors import PcapWriteError, StageError, TimestampRegressionError
from twinsync.pcap import LINKTYPE_RAW_IP, PacketBatch, read_pcap, segment_stream, write_pcap
from twinsync.pipeline import RunConfig, build_report_document, run_pipeline, write_run_artifacts
from twinsync.replay import ReplayEngine, ReplayMode, ReplayPlan
from twinsync.scenarios import ScenarioSpec, generate
from twinsync.transport import (
    ChannelSpec,
    InProcessChannel,
    SyncLog,
    TcpSenderChannel,
    WindowReceiver,
    pack_window,
)

from reference import batch_of, out_of_order_seqs, records_of

SECOND = 1_000_000


def run_config(descriptor, kind="attach-and-browse", seconds=60, seed=0, channel=None, plan=None, **kw):
    return RunConfig(
        descriptor=descriptor,
        scenario=ScenarioSpec(kind=kind, duration_micros=seconds * SECOND, ue_count=2),
        channel=channel or ChannelSpec(),
        plan=plan or ReplayPlan(),
        seed=seed,
        **kw,
    )


def block_config(descriptor, **kw):
    """1,200 windows of 5 packets, in three PackBlocks: seqs 0-468, 469-937
    and 938-1199."""
    return run_config(replace(descriptor, window_seconds=0.05), kind="voice-call", **kw)


class DeadlineExpired(BaseException):
    """Raised by deadline(); a BaseException, so no handler in the loop takes it."""


@contextmanager
def deadline(seconds: int = 30):
    """Fail the test instead of letting a stuck loop hang."""
    def expire(signum, frame):
        raise DeadlineExpired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestVirtualRuns:
    @pytest.mark.parametrize("block", [False, True], ids=["per-window", "block"])
    def test_replayed_windows_keep_no_payload(self, descriptor, monkeypatch, block):
        """Once a window is replayed its pcap bytes are released: by the
        time the run is scored, it keeps only times and sizes. Every
        replayed packet was read from transfer bytes, a window's alone or
        a block's joined."""
        payloads, alive_when_scored = [], []  # weak references; how many are alive when scoring starts
        read, evaluate = transport.read_pcap, pipeline._evaluate
        packets_read = []

        def watched_read(data):
            linktype, packets = read(data)
            payloads.append(weakref.ref(packets.payload))
            packets_read.append(len(packets))
            return linktype, packets

        def watched_evaluate(*args, **kwargs):
            gc.collect()
            alive_when_scored.append(sum(ref() is not None for ref in payloads))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(transport, "read_pcap", watched_read)
        monkeypatch.setattr(pipeline, "_evaluate", watched_evaluate)
        cfg = block_config(descriptor) if block else run_config(descriptor, seconds=30)
        result = run_pipeline(cfg)
        assert result.windows_replayed == result.windows_sent > 0
        assert len(payloads) == (3 if block else result.windows_replayed)
        assert sum(packets_read) == result.packets_replayed
        assert alive_when_scored == [0]

    def test_a_run_holds_less_than_its_trace_payload(self, descriptor):
        """A trace carries its columns and the sender fills one block's
        payload rows at a time, so a whole run of the benchmark's
        browse-lossy shape peaks below the bytes of its trace's rows.
        numpy reports its buffers to tracemalloc, so the peak is exact."""
        scenario = ScenarioSpec(kind="attach-and-browse", duration_micros=60 * SECOND, ue_count=12,
                                page_mean_interval_micros=2 * SECOND, page_mean_bytes=375_000)
        channel = ChannelSpec(latency_us=900_000, bandwidth_bps=20_000_000, loss_probability=0.2)
        cfg = RunConfig(replace(descriptor, window_seconds=2.0), scenario, channel, ReplayPlan())
        tracemalloc.start()
        try:
            result = run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trace = generate(scenario).records
        assert len(trace) > 100_000 and result.windows_replayed > 0
        assert peak < int(trace.offsets[-1])

    @staticmethod
    def _browse_lossy(descriptor, seconds: int) -> RunConfig:
        """The benchmark's browse-lossy shape, ``seconds`` long."""
        scenario = ScenarioSpec(kind="attach-and-browse", duration_micros=seconds * SECOND, ue_count=12,
                                page_mean_interval_micros=2 * SECOND, page_mean_bytes=375_000)
        channel = ChannelSpec(latency_us=900_000, bandwidth_bps=20_000_000, loss_probability=0.2)
        return RunConfig(replace(descriptor, window_seconds=2.0), scenario, channel, ReplayPlan())

    def test_a_longer_run_needs_no_more_memory(self, descriptor):
        """The loop holds a chunk of the trace at a time and bins both series
        as packets pass, so a run four times as long, of four times the
        packets, peaks no higher: only the sync log, a row per window, grows."""
        peaks = []
        for seconds in (60, 240):
            tracemalloc.start()
            try:
                result = run_pipeline(self._browse_lossy(descriptor, seconds))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert result.packets_replayed > seconds * 1000
        assert peaks[1] < 1.2 * peaks[0], peaks

    @pytest.mark.parametrize("lossy", [True, False], ids=["browse-lossy", "voice-blocks"])
    def test_a_run_does_not_depend_on_the_chunk_budget(self, descriptor, monkeypatch, tmp_path, lossy):
        """Chunks of one window, of a few, and of the default budget give the
        same report, sync log and throughput CSVs, and the channel carries
        the same windows. Voice windows are 5 packets: at 1,500 packets a
        chunk is 256 windows, so its PackBlocks, 469 windows at most, end
        where chunks do, not where the block budget would end them."""
        cfg = self._browse_lossy(descriptor, 30) if lossy else block_config(descriptor)
        budgets = (1, 10_000 if lossy else 1_500, pipeline._CHUNK_PACKETS)
        send = InProcessChannel.send
        runs = []
        for budget in budgets:
            carried = []

            def kept(channel, manifest, payload, now_micros):
                carried.append((manifest, payload))
                return send(channel, manifest, payload, now_micros)

            monkeypatch.setattr(InProcessChannel, "send", kept)
            monkeypatch.setattr(pipeline, "_CHUNK_PACKETS", budget)
            out = tmp_path / str(budget)
            run_cfg = replace(cfg, out_dir=out)
            write_run_artifacts(run_cfg, run_pipeline(run_cfg), out / "report.json")
            names = ("report.json", "sync_log.csv", "npt_throughput.csv", "ndt_throughput.csv")
            runs.append(({name: (out / name).read_bytes() for name in names}, carried))
        assert len(runs[0][1]) == cfg.scenario.duration_micros // cfg.descriptor.window_micros
        assert (json.loads(runs[0][0]["report.json"])["metrics"]["windows_lost"] > 0) == lossy
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_lossless_run_reproduces_the_series_exactly(self, descriptor):
        result = run_pipeline(run_config(descriptor, seed=3))
        r = result.report
        assert r.twin_alignment_ratio == 1.0
        assert r.rmse_bps == 0.0
        assert r.pearson_r >= 0.999
        assert r.estimated_lag_us == 0
        assert r.windows_lost == 0
        assert r.consistency_index == 1.0
        assert result.windows_sent == 6  # 60 s at T = 10 s
        assert out_of_order_seqs(result.log.entries()) == []

    def test_channel_latency_shows_up_as_update_latency_and_lag(self, descriptor):
        channel = ChannelSpec(latency_us=900_000, bandwidth_bps=1_000_000_000)
        result = run_pipeline(run_config(descriptor, kind="voice-call", channel=channel, seed=1))
        r = result.report
        assert r.mean_update_latency_us == pytest.approx(900_000, rel=0.01)
        for entry in result.log.entries():
            if entry.delivered:
                lag = entry.t_replayed - entry.t_window_start
                assert abs(lag - 10_900_000) < 1 * SECOND
        # Peak age = window length + update latency, sawtooth oracle.
        assert r.peak_age_of_information_us == pytest.approx(10_900_000, rel=0.01)

    def test_seeded_loss_yields_exact_delivered_fraction(self, descriptor):
        channel = ChannelSpec(loss_probability=0.5)
        result = run_pipeline(run_config(descriptor, kind="voice-call", seconds=400, channel=channel, seed=5))
        delivered = sum(e.delivered for e in result.log.entries())
        assert result.windows_sent == 40
        assert result.report.twin_alignment_ratio == delivered / 40
        assert result.report.windows_lost == 40 - delivered

    def test_alignment_offset_is_recovered_as_lag(self, descriptor):
        plan = ReplayPlan(align_offset_micros=3 * SECOND)
        result = run_pipeline(run_config(descriptor, plan=plan, seed=2))
        assert result.report.estimated_lag_us == 3 * SECOND
        assert result.report.rmse_bps == 0.0

    def test_report_document_is_deterministic(self, descriptor):
        cfg_a = run_config(descriptor, seed=9)
        cfg_b = run_config(descriptor, seed=9)
        doc_a = build_report_document(cfg_a, run_pipeline(cfg_a))
        doc_b = build_report_document(cfg_b, run_pipeline(cfg_b))
        assert doc_a == doc_b

    def test_different_seed_changes_the_loss_pattern(self, descriptor):
        channel = ChannelSpec(loss_probability=0.5)
        lost = {
            seed: run_pipeline(run_config(descriptor, kind="voice-call", seconds=200,
                                          channel=channel, seed=seed)).report.windows_lost
            for seed in (1, 2, 3, 4)
        }
        assert len(set(lost.values())) > 1

    def test_virtual_mode_rejects_wall_clock_channels(self, descriptor, tmp_path):
        for kind in ("directory-exchange", "tcp"):
            with pytest.raises(ValueError, match=f"pick real-time mode for the {kind} channel"):
                run_config(descriptor, channel=ChannelSpec(kind=kind), exchange_dir=tmp_path)

    def test_a_channel_the_run_cannot_make_is_refused_by_its_config(self, descriptor):
        with pytest.raises(ValueError, match="directory-exchange channel needs an exchange directory"):
            run_config(descriptor, channel=ChannelSpec(kind="directory-exchange"),
                       plan=ReplayPlan(mode=ReplayMode.REAL_TIME))
        with pytest.raises(ValueError, match="unknown channel kind 'udp'"):
            ChannelSpec(kind="udp")

    def test_invalid_scenario_fails_in_the_simulate_stage(self, descriptor):
        cfg = run_config(descriptor)
        cfg.scenario = ScenarioSpec(kind="voice-call", duration_micros=SECOND, ue_count=1)
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "simulate"

    def test_artifacts_are_written(self, descriptor, tmp_path):
        cfg = run_config(descriptor, seconds=20, out_dir=tmp_path)
        result = run_pipeline(cfg)
        written = write_run_artifacts(cfg, result, tmp_path / "report.json")
        names = {p.name for p in written}
        assert names == {"report.json", "npt_throughput.csv", "ndt_throughput.csv", "sync_log.csv", "report.csv"}
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema_version"] == 2
        assert doc["metrics"]["twin_alignment_ratio"] == 1.0
        assert doc["config"]["seed"] == 0

    @staticmethod
    def _used_exchange_config(descriptor, tmp_path, out_dir):
        """A real-time run whose transport stage fails: its exchange
        directory holds an earlier run's end marker."""
        exchange = tmp_path / "exchange"
        exchange.mkdir()
        (exchange / "end.marker").write_bytes(b"")
        return run_config(descriptor, out_dir=out_dir, channel=ChannelSpec(kind="directory-exchange"),
                          plan=ReplayPlan(mode=ReplayMode.REAL_TIME), exchange_dir=exchange)

    def test_sync_log_is_flushed_on_stage_failure(self, descriptor, tmp_path):
        cfg = self._used_exchange_config(descriptor, tmp_path, out_dir=tmp_path)
        with pytest.raises(StageError):
            run_pipeline(cfg)
        assert (tmp_path / "sync_log.csv").exists()

    def test_stage_failure_outlives_an_unwritable_out_dir(self, descriptor, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory should go")
        cfg = self._used_exchange_config(descriptor, tmp_path, out_dir=blocker / "out")
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "transport"

    def test_saved_replayed_pcaps_read_back_to_the_replayed_packets(self, descriptor, tmp_path, monkeypatch):
        replay_block = ReplayEngine.replay_block
        traces = []  # (seq, replayed packets) per window

        def keep(engine, block):
            packets = replay_block(engine, block)
            for seq, first, stop in zip(block.seqs.tolist(), block.cuts[:-1].tolist(), block.cuts[1:].tolist()):
                traces.append((seq, packets[first:stop]))
            return packets

        monkeypatch.setattr(ReplayEngine, "replay_block", keep)
        channel = ChannelSpec(loss_probability=0.5)
        plan = ReplayPlan(align_offset_micros=3 * SECOND)
        cfg = run_config(descriptor, seconds=100, seed=1, channel=channel, plan=plan,
                         out_dir=tmp_path, save_replayed_pcaps=True)
        result = run_pipeline(cfg)
        assert 0 < result.windows_replayed < result.windows_sent
        saved = sorted((tmp_path / "replayed").iterdir())
        assert [p.name for p in saved] == sorted(f"replayed_{seq}.pcap" for seq, _ in traces)
        for seq, replayed in traces:
            linktype, packets = read_pcap((tmp_path / "replayed" / f"replayed_{seq}.pcap").read_bytes())
            assert linktype == 101
            assert records_of(packets) == records_of(replayed)


class TestVirtualLoop:
    """The virtual clock runs send -> receive -> replay in the calling thread."""

    def test_virtual_run_starts_no_thread(self, descriptor, monkeypatch):
        replay_block = ReplayEngine.replay_block
        seen = []

        def watch(engine, block):
            seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
            return replay_block(engine, block)

        monkeypatch.setattr(ReplayEngine, "replay_block", watch)
        threads_before = threading.active_count()
        with deadline():
            result = run_pipeline(run_config(descriptor, seed=3))
        assert result.windows_replayed == 6
        assert seen == [(True, threads_before)] * 6

    def test_replay_failure_names_the_replay_stage(self, descriptor, monkeypatch):
        replay_block = ReplayEngine.replay_block

        def crash_on_third(engine, block):
            if 2 in block.seqs:
                raise RuntimeError("twin crashed")
            return replay_block(engine, block)

        monkeypatch.setattr(ReplayEngine, "replay_block", crash_on_third)
        with deadline(), pytest.raises(StageError) as err:
            run_pipeline(run_config(descriptor, seed=3))
        assert err.value.stage == "replay"
        assert str(err.value.cause) == "twin crashed"

    def test_segmentation_failure_names_the_capture_stage(self, descriptor, monkeypatch):
        def out_of_order(spec):
            records = records_of(generate(spec).records)
            records[3], records[-3] = records[-3], records[3]
            return BatchSource(batch_of(records))

        monkeypatch.setattr(pipeline, "generate", out_of_order)
        with deadline(), pytest.raises(StageError) as err:
            run_pipeline(run_config(descriptor, seed=3))
        assert err.value.stage == "capture"
        assert isinstance(err.value.cause, TimestampRegressionError)

    # A window alone is unpacked by unpack_window, a block's windows by
    # one read_pcap of their joined bytes.
    @pytest.mark.parametrize("name, stage, block", [
        ("pack_window", "capture", False), ("unpack_window", "replay", False),
        ("pack_window", "capture", True), ("read_pcap", "replay", True)])
    def test_transfer_failures_name_their_side(self, descriptor, monkeypatch, name, stage, block):
        def fail(*args):
            raise RuntimeError(f"{name} failed")

        monkeypatch.setattr(transport, name, fail)
        cfg = block_config(descriptor) if block else run_config(descriptor, seed=3)
        with deadline(), pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == stage
        assert str(err.value.cause) == f"{name} failed"

    def test_corrupted_payload_is_a_digest_failure_and_a_lost_window(self, descriptor, monkeypatch):
        send = InProcessChannel.send
        receivers = []

        def corrupt_window_2(channel, manifest, payload, now_micros):
            if manifest.seq == 2:
                payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
            return send(channel, manifest, payload, now_micros)

        class KeptReceiver(WindowReceiver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                receivers.append(self)

        monkeypatch.setattr(InProcessChannel, "send", corrupt_window_2)
        monkeypatch.setattr(pipeline, "WindowReceiver", KeptReceiver)
        with deadline():
            result = run_pipeline(run_config(descriptor, seed=3))
        assert [r.digest_failures for r in receivers] == [1]
        assert result.report.windows_lost == 1
        assert (result.windows_sent, result.windows_replayed) == (6, 5)
        entry = result.log.entries()[2]
        assert entry.lost and entry.t_received is not None and entry.t_replayed is None


class BatchSource:
    """A packet source over one batch, in place of a generated trace: the
    loop runs on packets changed by hand. A chunk is the packets whose
    count of earlier timestamps puts them in its range."""

    def __init__(self, batch: PacketBatch):
        self.batch = batch

    def count_before(self, ts_micros: int) -> int:
        return int(np.count_nonzero(self.batch.ts_micros < ts_micros))

    def packets(self, start_micros: int, end_micros: int) -> PacketBatch:
        return self.batch[self.count_before(start_micros):self.count_before(end_micros)]


@functools.lru_cache(maxsize=2)
def _voice_trace(scenario):
    return generate(scenario)


def _with_unwritable_packet(records, index):
    """``records`` with packet ``index`` captured at 70,000 bytes, in a
    70,000-byte payload slot: past the snap length write_pcap keeps to."""
    records = records.filled()
    offsets = records.offsets.copy()
    start, stop = int(offsets[index]), int(offsets[index + 1])
    payload = np.concatenate((records.payload[:start], np.full(70_000, 0xAB, dtype=np.uint8),
                              records.payload[stop:]))
    offsets[index + 1:] += 70_000 - (stop - start)
    captured_len, original_len = records.captured_len.copy(), records.original_len.copy()
    captured_len[index] = 70_000
    original_len[index] = max(int(original_len[index]), 70_000)
    return PacketBatch(records.ts_micros, captured_len, original_len, payload, offsets)


def _vouched(manifest, payload):
    """``payload`` with a manifest whose length and digest vouch for it."""
    return manifest._replace(byte_length=len(payload), content_digest=hashlib.sha256(payload).hexdigest()), payload


def _rewritten(manifest, payload, change):
    """Window bytes with their packets changed by ``change``, a function
    of the packets' timestamps."""
    _, packets = read_pcap(payload)
    return _vouched(manifest, write_pcap(LINKTYPE_RAW_IP, packets.with_ts(change(packets.ts_micros.copy()))))


def _reencoded(manifest, payload, order, nanos):
    """The same window written in another byte order or time resolution."""
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    out = [struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, LINKTYPE_RAW_IP)]
    at = 24
    while at < len(payload):
        sec, usec, incl, orig = struct.unpack_from("<IIII", payload, at)
        out.append(struct.pack(order + "IIII", sec, usec * 1000 + 999 if nanos else usec, incl, orig))
        out.append(payload[at + 16:at + 16 + incl])
        at += 16 + incl
    return _vouched(manifest, b"".join(out))


def _at_end(manifest, payload):
    """Window k's last packet moved onto its end bound, outside it; the
    packets stay in order across windows."""
    def change(ts):
        ts[-1] = manifest.end_ts_micros
        return ts
    return _rewritten(manifest, payload, change)


def _disordered(manifest, payload):
    def change(ts):
        ts[0], ts[1] = ts[1], ts[0] + 1
        return ts
    return _rewritten(manifest, payload, change)


def _torn(tail: int = 10):
    """Window k ends ``tail`` bytes into its last record, and window k + 1
    starts with them: joined, the bytes are those of the untouched windows."""
    moved = []

    def tear(manifest, payload):
        if manifest.seq == TestBlockFaults.K:
            moved.append(payload[-tail:])
            return _vouched(manifest, payload[:-tail])
        return _vouched(manifest, payload[:24] + moved[-1] + payload[24:])
    return tear


_UNPATCHED_SEND = InProcessChannel.send


def _refuse_groups(monkeypatch):
    """Make the receiver take every window alone: the checker refuses any
    group of two or more windows, as it does a group with a bad window."""
    unpack = transport.unpack_windows

    def lone_only(manifests, payloads):
        if len(manifests) > 1:
            raise ValueError("group refused")
        return unpack(manifests, payloads)

    monkeypatch.setattr(transport, "unpack_windows", lone_only)


class TestBlockFaults:
    """A fault at window k of a block's group: the group goes window by
    window, so k fails or is lost as it would alone."""

    K = 600  # in the second block, seqs 469-937

    def _replace_window_k(self, monkeypatch, tamper, windows=1):
        """Send ``windows`` windows from k on through ``tamper``."""
        send = InProcessChannel.send

        def tampered(channel, manifest, payload, now_micros):
            if self.K <= manifest.seq < self.K + windows:
                manifest, payload = tamper(manifest, payload)
            return send(channel, manifest, payload, now_micros)

        monkeypatch.setattr(InProcessChannel, "send", tampered)

    def _receivers(self, monkeypatch):
        receivers = []

        class KeptReceiver(WindowReceiver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                receivers.append(self)

        monkeypatch.setattr(pipeline, "WindowReceiver", KeptReceiver)
        return receivers

    def test_a_digest_mismatch_loses_only_its_window(self, descriptor, monkeypatch):
        self._replace_window_k(monkeypatch, lambda m, p: (m, p[:-1] + bytes([p[-1] ^ 0xFF])))
        receivers = self._receivers(monkeypatch)
        with deadline():
            result = run_pipeline(block_config(descriptor))
        assert [r.digest_failures for r in receivers] == [1]
        assert (result.windows_sent, result.windows_replayed, result.report.windows_lost) == (1200, 1199, 1)
        entries = result.log.entries()
        lost = entries[self.K]
        assert lost.lost and lost.t_received is not None and lost.t_replayed is None
        assert all(e.t_replayed is not None for e in entries if e.seq != self.K)

    @staticmethod
    def _error_alone(manifest, payload):
        """What the per-window receiver raises for this delivery of window k."""
        log, channel = SyncLog(), InProcessChannel(ChannelSpec())
        for seq in range(TestBlockFaults.K + 1):
            log.record_sent(seq, seq * 50_000, (seq + 1) * 50_000, (seq + 1) * 50_000)
        _UNPATCHED_SEND(channel, manifest, payload, 0)
        with pytest.raises(Exception) as err:
            WindowReceiver(channel, log).receive()
        return err.value

    @pytest.mark.parametrize("tamper, windows", [
        (_at_end, 1),
        (_disordered, 1),
        (lambda m, p: (m._replace(start_ts_micros=m.start_ts_micros + 1), p), 1),
        (_torn(), 2),
    ], ids=["out-of-bounds", "disordered", "foreign", "torn"])
    def test_a_bad_window_fails_as_it_would_alone(self, descriptor, monkeypatch, tmp_path, tamper, windows):
        delivered = []

        def kept(manifest, payload):
            delivered.append(tamper(manifest, payload))
            return delivered[-1]

        self._replace_window_k(monkeypatch, kept, windows)
        with deadline(), pytest.raises(StageError) as err:
            run_pipeline(block_config(descriptor, out_dir=tmp_path / "block"))
        alone = self._error_alone(*delivered[0])
        assert err.value.stage == "replay"
        assert (type(err.value.cause), str(err.value.cause)) == (type(alone), str(alone))

        # The per-window loop over the same deliveries leaves the same log
        # of the windows before k: all of them replayed.
        delivered.clear()
        _refuse_groups(monkeypatch)
        with deadline(), pytest.raises(StageError):
            run_pipeline(block_config(descriptor, out_dir=tmp_path / "per-window"))
        logs = [(tmp_path / run / "sync_log.csv").read_text().splitlines()[1:] for run in ("block", "per-window")]
        rows = [row.split(",") for row in logs[0]]
        assert all(row[5] != "" for row in rows[:self.K])
        assert all(row[5] == "" for row in rows[self.K:])
        assert logs[0][:self.K] == logs[1][:self.K]

    @settings(deadline=None, max_examples=12, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_an_unwritable_packet_fails_capture_after_the_windows_before_it(self, descriptor, data):
        """A packet write_pcap refuses, anywhere in a trace of small windows:
        its window fails to pack with the error it raises written alone,
        after every window before it has been replayed, as one window at a
        time would have done."""
        cfg = block_config(descriptor, seconds=30)
        trace = _voice_trace(cfg.scenario)
        index = data.draw(st.integers(0, len(trace.records) - 1), label="index")
        records = _with_unwritable_packet(trace.records, index)
        windows = list(segment_stream(records, cfg.descriptor.window_micros, cfg.scenario.origin_ts_micros,
                                      cfg.scenario.origin_ts_micros + cfg.scenario.duration_micros))
        first_packet = np.cumsum([0] + [len(window.packets) for window in windows])
        k = int(np.searchsorted(first_packet, index, side="right")) - 1
        with pytest.raises(PcapWriteError) as alone:
            write_pcap(LINKTYPE_RAW_IP, windows[k].packets)
        assert alone.value.index == index - first_packet[k]

        logs = []
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "generate", lambda spec: BatchSource(records))
            for run in ("block", "per-window"):
                if run == "per-window":
                    _refuse_groups(patch)
                with deadline(), pytest.raises(StageError) as err:
                    run_pipeline(replace(cfg, out_dir=Path(tmp) / run))
                assert err.value.stage == "capture"
                assert (type(err.value.cause), str(err.value.cause)) == (PcapWriteError, str(alone.value))
                assert err.value.cause.index == alone.value.index
                logs.append((Path(tmp) / run / "sync_log.csv").read_text().splitlines()[1:])
        rows = [row.split(",") for row in logs[0]]
        assert len(rows) == k and all(row[5] != "" for row in rows)
        assert logs[0] == logs[1]

    def test_a_replay_failure_before_an_unwritable_window_wins(self, descriptor, monkeypatch, tmp_path):
        """Window k is bad and window k + 5 cannot be packed: windows k to
        k + 4 are received and replayed first, as one window at a time
        would have done, so window k's replay failure is the one raised."""
        cfg = block_config(descriptor, out_dir=tmp_path)
        trace = _voice_trace(cfg.scenario)
        window_start = cfg.scenario.origin_ts_micros + (self.K + 5) * cfg.descriptor.window_micros
        index = int(np.searchsorted(trace.records.ts_micros, window_start))
        assert trace.records.ts_micros[index] < window_start + cfg.descriptor.window_micros
        records = _with_unwritable_packet(trace.records, index)
        monkeypatch.setattr(pipeline, "generate", lambda spec: BatchSource(records))
        self._replace_window_k(monkeypatch, _at_end)
        with deadline(), pytest.raises(StageError) as err:
            run_pipeline(cfg)
        rows = [row.split(",") for row in (tmp_path / "sync_log.csv").read_text().splitlines()[1:]]
        assert len(rows) == self.K + 5
        assert (err.value.stage, type(err.value.cause)) == ("replay", ValueError)
        assert all(row[5] != "" for row in rows[:self.K]) and all(row[5] == "" for row in rows[self.K:])

    def test_saved_replayed_pcaps_of_a_block_are_those_of_its_windows(self, descriptor, monkeypatch, tmp_path):
        def saved(run):
            cfg = block_config(descriptor, channel=ChannelSpec(loss_probability=0.3), seed=2,
                               out_dir=tmp_path / run, save_replayed_pcaps=True)
            result = run_pipeline(cfg)
            return result, {p.name: p.read_bytes() for p in (tmp_path / run / "replayed").iterdir()}

        result, blocks = saved("block")
        _refuse_groups(monkeypatch)
        _, alone = saved("per-window")
        assert 0 < result.windows_replayed == len(blocks) < result.windows_sent
        assert blocks == alone

    @pytest.mark.parametrize("order, nanos", [(">", False), ("<", True), (">", True)],
                             ids=["big-endian", "nanoseconds", "big-endian-nanoseconds"])
    def test_a_window_in_another_pcap_format_is_read_alone(self, descriptor, monkeypatch, order, nanos):
        clean = build_report_document(block_config(descriptor), run_pipeline(block_config(descriptor)))
        self._replace_window_k(monkeypatch, lambda m, p: _reencoded(m, p, order, nanos))
        unpacked = []
        unpack = transport.unpack_window

        def watched_unpack(manifest, payload):
            unpacked.append(manifest.seq)
            return unpack(manifest, payload)

        monkeypatch.setattr(transport, "unpack_window", watched_unpack)
        with deadline():
            cfg = block_config(descriptor)
            result = run_pipeline(cfg)
        assert unpacked == list(range(469, 938))
        assert build_report_document(cfg, result) == clean


# sha256 of build_report_document for the runs below: the schema 1
# documents taken before packets moved to columnar batches (8ef5ba44...,
# f5c7c20c...) with prediction_deviation dropped and schema_version 2,
# serialized the same way. These scenarios draw no random timing, so any
# change to how packets are built, packed, moved or binned must keep them.
GOLDEN_REPORT_SHA256 = {
    "video-streaming": "25d85f70713a8a35a59af09166c92bec1d5aaa8e169501c342c7bb25eb1aa6f2",
    "voice-call": "845a7d6f29221e406549c2cc926e21a1e689b60cbf16735290411f148115dda6",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_REPORT_SHA256))
def test_report_bytes_match_the_golden_digest(descriptor, kind):
    # Short windows, a narrow link and loss, so window sizes, transfer
    # delays and dropped windows all reach the report.
    channel = ChannelSpec(latency_us=50_000, bandwidth_bps=2_000_000, loss_probability=0.2)
    cfg = run_config(replace(descriptor, window_seconds=2.0), kind=kind, seconds=40, seed=7, channel=channel)
    report = build_report_document(cfg, run_pipeline(cfg))
    assert json.loads(report)["metrics"]["windows_lost"] == 2
    assert hashlib.sha256(report).hexdigest() == GOLDEN_REPORT_SHA256[kind]


class TestRealTimeRuns:
    def test_in_process_real_time_smoke(self, descriptor):
        from dataclasses import replace

        fast = replace(descriptor, window_seconds=0.4)
        cfg = run_config(fast, kind="voice-call", seconds=0, plan=ReplayPlan(mode=ReplayMode.REAL_TIME))
        cfg.scenario = ScenarioSpec(kind="voice-call", duration_micros=int(1.2 * SECOND), ue_count=2)
        result = run_pipeline(cfg)
        assert result.windows_sent == 3
        assert result.report.twin_alignment_ratio == 1.0
        # Real-time lag includes the wall wait for each window to close.
        for entry in result.log.entries():
            if entry.delivered:
                assert entry.t_replayed - entry.t_window_start >= 400_000
        assert out_of_order_seqs(result.log.entries()) == []

    def test_twin_series_keeps_every_replayed_packet(self, descriptor):
        # Replayed packets carry their wall-clock emission times, which trail
        # capture by the actual delay, so an explicit offset of 0 must not
        # cut the twin's series short.
        cfg = run_config(replace(descriptor, window_seconds=0.5), kind="voice-call", seconds=1,
                         plan=ReplayPlan(mode=ReplayMode.REAL_TIME, align_offset_micros=0))
        with deadline(10):
            result = run_pipeline(cfg)
        assert result.report.windows_lost == 0
        assert sum(result.ndt_series.bins) == sum(result.npt_series.bins) > 0

    def test_directory_exchange_real_time_smoke(self, descriptor, tmp_path):
        from dataclasses import replace

        fast = replace(descriptor, window_seconds=0.4)
        cfg = run_config(
            fast,
            kind="voice-call",
            channel=ChannelSpec(kind="directory-exchange"),
            plan=ReplayPlan(mode=ReplayMode.REAL_TIME),
            exchange_dir=tmp_path / "exchange",
        )
        cfg.scenario = ScenarioSpec(kind="voice-call", duration_micros=int(1.2 * SECOND), ue_count=2)
        result = run_pipeline(cfg)
        assert result.report.twin_alignment_ratio == 1.0
        assert (tmp_path / "exchange" / "window_0.pcap").exists()
        assert (tmp_path / "exchange" / "window_0.manifest.json").exists()

    def test_speed_reaches_every_stage(self, descriptor):
        # 4 s of capture at speed 20 take 0.2 s of wall time: the producer
        # waits, the link delivers and the twin replays on the one run clock.
        # A shared 2-core host stalled such a run by up to 47 ms of wall,
        # which at speed 20 is far past T/2 of capture time on its own, so
        # the lateness bound holds on one of three runs. On the cadence of
        # speed 1 every run was over 3 s late.
        cfg = run_config(replace(descriptor, window_seconds=0.5), kind="voice-call", seconds=4,
                         plan=ReplayPlan(mode=ReplayMode.REAL_TIME, speed_factor=20.0))
        lateness = []
        with deadline(10):
            for _ in range(3):
                began = time.monotonic()
                result = run_pipeline(cfg)
                assert time.monotonic() - began < 2.0
                assert result.windows_replayed == result.windows_sent == 8
                sync = result.log.columns()
                assert (sync.t_sent >= sync.t_window_end).all()
                lateness.append(result.max_lateness_micros)
                if lateness[-1] < 250_000:  # half a window
                    break
        assert lateness[-1] < 250_000, lateness

    def test_a_real_time_lag_is_the_alignment_offset_in_bins(self, descriptor):
        # The stream is on/off with a 4 s period, so lags a whole period
        # apart score alike. A twin that replays what it received cannot
        # lead, so real time searches only lags >= 0, and the lag is the
        # offset rounded to 1 s bins; searching both ways gave -10 s.
        cfg = run_config(replace(descriptor, window_seconds=2.0), kind="video-streaming", seconds=20,
                         plan=ReplayPlan(mode=ReplayMode.REAL_TIME, speed_factor=10.0))
        with deadline(20):
            result = run_pipeline(cfg)
        offset = result.align_offset_micros
        assert result.report.estimated_lag_us == round(offset / SECOND) * SECOND, offset

    def test_real_time_windows_are_the_virtual_windows(self, descriptor, tmp_path):
        # Both modes cut and pack the same trace from the scenario's origin,
        # so each file published is the virtual clock's pack_window output.
        exchange = tmp_path / "exchange"
        cfg = run_config(replace(descriptor, window_seconds=0.5), kind="voice-call", seconds=4, seed=3,
                         channel=ChannelSpec(kind="directory-exchange"),
                         plan=ReplayPlan(mode=ReplayMode.REAL_TIME, speed_factor=20.0), exchange_dir=exchange)
        with deadline(10):
            run_pipeline(cfg)
        scenario = replace(cfg.scenario, seed=cfg.seed)
        origin = scenario.origin_ts_micros
        windows = list(segment_stream(generate(scenario).records, cfg.descriptor.window_micros, origin,
                                      span_end_micros=origin + scenario.duration_micros,
                                      source_interface=cfg.descriptor.capture_interface))
        assert len(windows) == 8
        for window in windows:
            manifest, payload = pack_window(window)
            assert (exchange / f"window_{window.seq}.pcap").read_bytes() == payload
            assert (exchange / f"window_{window.seq}.manifest.json").read_bytes() == manifest.to_json()
        assert len(list(exchange.iterdir())) == 2 * len(windows) + 1  # and end.marker

    def test_second_run_refuses_a_used_exchange_directory(self, descriptor, tmp_path):
        exchange = tmp_path / "exchange"
        cfg = run_config(
            replace(descriptor, window_seconds=0.4),
            kind="voice-call",
            channel=ChannelSpec(kind="directory-exchange"),
            plan=ReplayPlan(mode=ReplayMode.REAL_TIME),
            exchange_dir=exchange,
        )
        cfg.scenario = ScenarioSpec(kind="voice-call", duration_micros=int(1.2 * SECOND), ue_count=2)
        with deadline(10):
            run_pipeline(cfg)
            first_run_files = sorted(exchange.iterdir())
            cfg.scenario = replace(cfg.scenario, kind="video-streaming")
            with pytest.raises(StageError) as err:
                run_pipeline(cfg)
        assert err.value.stage == "transport"
        assert str(exchange) in str(err.value)
        assert any(path.name in str(err.value) for path in first_run_files)
        assert sorted(exchange.iterdir()) == first_run_files

    def test_tcp_real_time_smoke(self, descriptor):
        from dataclasses import replace

        fast = replace(descriptor, window_seconds=0.4)
        cfg = run_config(
            fast,
            kind="voice-call",
            channel=ChannelSpec(kind="tcp"),
            plan=ReplayPlan(mode=ReplayMode.REAL_TIME),
        )
        cfg.scenario = ScenarioSpec(kind="voice-call", duration_micros=int(1.2 * SECOND), ue_count=2)
        result = run_pipeline(cfg)
        assert result.report.twin_alignment_ratio == 1.0
        assert result.packets_replayed == len(generate(replace(cfg.scenario, seed=cfg.seed)).records)

    def test_tcp_replay_failure_is_raised_first_and_unblocks_the_sender(self, descriptor, monkeypatch):
        # Window 2's send blocks until the receiving side closes, as a send
        # on full socket buffers does; meanwhile the twin fails on window 1.
        send, replay_block = TcpSenderChannel.send, ReplayEngine.replay_block
        blocked = threading.Event()

        def send_blocking_from_2(channel, manifest, payload, now_micros):
            if manifest.seq >= 2:
                blocked.set()
                if not channel._sock.recv(1):
                    raise ConnectionResetError("receiver closed")
            return send(channel, manifest, payload, now_micros)

        def crash_on_second(engine, block):
            if block.seqs[0] == 1:
                blocked.wait(5)
                raise RuntimeError("twin crashed")
            return replay_block(engine, block)

        monkeypatch.setattr(TcpSenderChannel, "send", send_blocking_from_2)
        monkeypatch.setattr(ReplayEngine, "replay_block", crash_on_second)
        cfg = run_config(
            replace(descriptor, window_seconds=0.4),
            kind="voice-call",
            channel=ChannelSpec(kind="tcp"),
            plan=ReplayPlan(mode=ReplayMode.REAL_TIME),
        )
        cfg.scenario = ScenarioSpec(kind="voice-call", duration_micros=int(2.4 * SECOND), ue_count=2)
        with deadline(6), pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "replay"
        assert str(err.value.cause) == "twin crashed"
        assert [stage for stage, _ in err.value.later] == ["capture"]
        assert isinstance(err.value.later[0][1], ConnectionResetError)
