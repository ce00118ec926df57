import hashlib
import json
from dataclasses import replace

import pytest

from twinsync.errors import StageError
from twinsync.pipeline import RunConfig, build_report_document, run_pipeline, write_run_artifacts
from twinsync.replay import ReplayMode, ReplayPlan
from twinsync.scenarios import ScenarioSpec
from twinsync.transport import ChannelSpec, twin_lag

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


class TestVirtualRuns:
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
        assert result.log.check_ordering() == []

    def test_channel_latency_shows_up_as_update_latency_and_lag(self, descriptor):
        channel = ChannelSpec(latency_us=900_000, bandwidth_bps=1_000_000_000)
        result = run_pipeline(run_config(descriptor, kind="voice-call", channel=channel, seed=1))
        r = result.report
        assert r.mean_update_latency_us == pytest.approx(900_000, rel=0.01)
        for entry in result.log.delivered_entries():
            lag = twin_lag(result.log, entry.seq)
            assert abs(lag - 10_900_000) < 1 * SECOND
        # Peak age = window length + update latency, sawtooth oracle.
        assert r.peak_age_of_information_us == pytest.approx(10_900_000, rel=0.01)

    def test_seeded_loss_yields_exact_delivered_fraction(self, descriptor):
        channel = ChannelSpec(loss_probability=0.5)
        result = run_pipeline(run_config(descriptor, kind="voice-call", seconds=400, channel=channel, seed=5))
        delivered = len(result.log.delivered_entries())
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

    def test_virtual_mode_rejects_wall_clock_channels(self, descriptor):
        cfg = run_config(descriptor, channel=ChannelSpec(kind="directory-exchange"))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "transport"

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
        assert doc["schema_version"] == 1
        assert doc["metrics"]["twin_alignment_ratio"] == 1.0
        assert doc["config"]["seed"] == 0

    def test_sync_log_is_flushed_on_stage_failure(self, descriptor, tmp_path):
        cfg = run_config(descriptor, out_dir=tmp_path, channel=ChannelSpec(kind="directory-exchange"))
        with pytest.raises(StageError):
            run_pipeline(cfg)
        assert (tmp_path / "sync_log.csv").exists()


# sha256 of build_report_document for the runs below, taken before packets
# moved to columnar batches. These scenarios draw no random timing, so any
# change to how packets are built, packed, moved or binned must keep them.
GOLDEN_REPORT_SHA256 = {
    "video-streaming": "8ef5ba444af3291749112d6878139e5edac1876dc01dcb7b1971c261abb985e1",
    "voice-call": "f5c7c20c16918e598eeffca7bd3901d3231ed2ffa18d2650dfd9e7e26a9f4b04",
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
        for entry in result.log.delivered_entries():
            assert twin_lag(result.log, entry.seq) >= 400_000
        assert result.log.check_ordering() == []

    def test_directory_exchange_real_time_smoke(self, descriptor, tmp_path):
        from dataclasses import replace

        fast = replace(descriptor, window_seconds=0.4)
        cfg = run_config(
            fast,
            kind="voice-call",
            channel=ChannelSpec(kind="directory-exchange"),
            plan=ReplayPlan(mode=ReplayMode.REAL_TIME),
            exchange_dir=tmp_path / "exchange",
            reorder_timeout=0.5,
        )
        cfg.scenario = ScenarioSpec(kind="voice-call", duration_micros=int(1.2 * SECOND), ue_count=2)
        result = run_pipeline(cfg)
        assert result.report.twin_alignment_ratio == 1.0
        assert (tmp_path / "exchange" / "window_0.pcap").exists()
        assert (tmp_path / "exchange" / "window_0.manifest.json").exists()

    def test_tcp_real_time_smoke(self, descriptor):
        from dataclasses import replace

        fast = replace(descriptor, window_seconds=0.4)
        cfg = run_config(
            fast,
            kind="voice-call",
            channel=ChannelSpec(kind="tcp"),
            plan=ReplayPlan(mode=ReplayMode.REAL_TIME),
            reorder_timeout=0.5,
        )
        cfg.scenario = ScenarioSpec(kind="voice-call", duration_micros=int(1.2 * SECOND), ue_count=2)
        result = run_pipeline(cfg)
        assert result.report.twin_alignment_ratio == 1.0
        assert result.packets_replayed == len([None for _ in range(result.packets_replayed)])
