import copy
import json
import math
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twinsync import metrics
from twinsync.emit import emit_bundle
from twinsync.errors import MetricsError
from twinsync.metrics import (
    FidelityReport,
    ThroughputSeries,
    age_of_information,
    audited_field_count,
    compare_series,
    delivered_in_observation,
    state_consistency_index,
    throughput_series,
    twin_alignment_ratio,
    update_latency,
)
from twinsync.model import TwinDescriptor
from twinsync.pcap import PacketBatch
from twinsync.pipeline import RunConfig, RunResult, build_report_document
from twinsync.replay import ReplayPlan
from twinsync.scenarios import ScenarioSpec
from twinsync.transport import ChannelSpec, SyncLog

from conftest import make_packet
from reference import aoi_at, batch_of, sequential_age_of_information

SECOND = 1_000_000


def series(bins, bin_width=SECOND, origin=0) -> ThroughputSeries:
    return ThroughputSeries(origin, bin_width, tuple(float(b) for b in bins))


def periodic_log(n_windows: int, T: int, latency: int, origin: int = 0) -> SyncLog:
    """Windows delivered on a fixed cadence with constant latency."""
    log = SyncLog()
    for k in range(n_windows):
        start = origin + k * T
        end = start + T
        log.record_sent(k, start, end, end)
        log.record_received(k, end + latency, start, end)
        log.record_replayed(k, end + latency)
    return log


class TestThroughputSeries:
    def test_manual_summation_oracle(self):
        # 1000 B in bin 0 and 500 B in bin 1 -> 8000 and 4000 bits/s.
        packets = [make_packet(500_000, 1000), make_packet(1_200_000, 500)]
        s = throughput_series(batch_of(packets), SECOND, 0, 2 * SECOND)
        assert s.bins == (8000.0, 4000.0)

    def test_empty_span_is_all_zero(self):
        s = throughput_series(batch_of([]), SECOND, 0, 3 * SECOND)
        assert s.bins == (0.0, 0.0, 0.0)

    def test_boundary_packet_counts_in_the_later_bin(self):
        s = throughput_series(batch_of([make_packet(SECOND, 100)]), SECOND, 0, 2 * SECOND)
        assert s.bins == (0.0, 800.0)

    def test_out_of_span_packets_are_counted_not_raised(self):
        # Only the packet inside the span is counted; the other is skipped.
        packets = [make_packet(0, 10), make_packet(5 * SECOND, 10)]
        s = throughput_series(batch_of(packets), SECOND, 0, SECOND)
        assert s.bins == (80.0,)

    def test_csv_export_shape(self):
        text = series([8000.0, 0.0]).to_csv_bytes().decode()
        lines = text.strip().split("\n")
        assert lines[0] == "t_seconds,bits_per_second"
        assert lines[1].startswith("0.0,")

    @given(
        st.lists(
            st.tuples(st.integers(0, 10 * SECOND - 1), st.integers(1, 5000)),
            max_size=40,
        ),
        st.integers(SECOND // 4, 3 * SECOND),
    )
    def test_volume_conservation(self, spec, bin_width):
        packets = [make_packet(ts, size) for ts, size in sorted(spec)]
        s = throughput_series(batch_of(packets), bin_width, 0, 10 * SECOND)
        recovered_bytes = sum(s.bins) * (bin_width / SECOND) / 8
        assert math.isclose(recovered_bytes, sum(p.original_len for p in packets), rel_tol=1e-9, abs_tol=1e-6)


    def test_binning_a_long_batch_holds_only_slice_sized_temporaries(self):
        # numpy reports its buffers to tracemalloc, so the peak is exact:
        # binned at once, 10^6 packets take about 28 MiB of index and mask.
        n = 1_000_000
        ts = np.arange(n, dtype=np.int64) * 997
        batch = PacketBatch.trusted(ts, np.zeros(n, dtype=np.uint32), np.full(n, 1200, dtype=np.uint32),
                                    np.zeros(0, dtype=np.uint8), np.zeros(n + 1, dtype=np.int64), True)
        tracemalloc.start()
        try:
            s = throughput_series(batch, SECOND, 0, 1000 * SECOND)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(s.bins) == n * 1200 * 8
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("cuts", [
        [0, 0, 1 << 16, (1 << 16) + 1, 70_000, 70_000, 200_000],
        [0, (1 << 16) - 1, 1 << 16, 1 << 17, 200_000],
        [0, 200_000],
    ])
    def test_parts_bin_as_their_concatenation(self, cuts):
        # Packets before the origin and past the span, empty parts, parts
        # ending on both sides of a slice boundary, and times out of order.
        rng = np.random.default_rng(len(cuts))
        ts = np.sort(rng.integers(0, 120 * SECOND, cuts[-1]))
        ts[::9] = rng.integers(0, 120 * SECOND, len(ts[::9]))
        lengths = rng.integers(28, 1500, cuts[-1])
        whole = sized_batch(ts, lengths)
        parts = [sized_batch(ts[a:b], lengths[a:b]) for a, b in zip(cuts, cuts[1:])]
        for origin, span in ((10 * SECOND, 100 * SECOND), (0, None), (5 * SECOND, None)):
            assert throughput_series(parts, SECOND, origin, span) == throughput_series(whole, SECOND, origin, span)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 20 * SECOND), st.integers(0, 5000)), max_size=12),
                    max_size=6),
           st.integers(1, 5), st.integers(0, 3 * SECOND), st.none() | st.integers(0, 25 * SECOND))
    def test_any_slicing_bins_the_same_bits(self, parts, slice_packets, origin, span):
        whole = [p for part in parts for p in part]
        expected = throughput_series(sized_batch(*zip(*whole)) if whole else sized_batch([], []),
                                     SECOND // 3, origin, span)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_BIN_SLICE_PACKETS", slice_packets)
            got = throughput_series([sized_batch(*zip(*part)) if part else sized_batch([], []) for part in parts],
                                    SECOND // 3, origin, span)
        assert got == expected


def sized_batch(ts, lengths) -> PacketBatch:
    """Times and original lengths only, as the pipeline keeps of replayed windows."""
    ts = np.asarray(ts, dtype=np.int64)
    n = len(ts)
    return PacketBatch.trusted(ts, np.zeros(n, dtype=np.uint32), np.asarray(lengths, dtype=np.uint32),
                               np.zeros(0, dtype=np.uint8), np.zeros(n + 1, dtype=np.int64))


def alignment(log: SyncLog, planned_period: int, observation: tuple[int, int]) -> float:
    return twin_alignment_ratio(delivered_in_observation(log.columns(), observation), planned_period, observation)


class TestTwinAlignmentRatio:
    def test_full_delivery_is_one(self):
        # 30 windows over 3600 s against a 120 s plan -> exactly 1.0.
        log = periodic_log(30, 120 * SECOND, latency=0)
        assert alignment(log, 120 * SECOND, (0, 3600 * SECOND)) == 1.0

    def test_every_second_window_lost_is_half(self):
        log = SyncLog()
        T = 120 * SECOND
        for k in range(30):
            log.record_sent(k, k * T, (k + 1) * T, (k + 1) * T)
            if k % 2 == 0:
                log.record_received(k, (k + 1) * T, k * T, (k + 1) * T)
            else:
                log.mark_lost(k)
        assert alignment(log, T, (0, 3600 * SECOND)) == 0.5

    def test_zero_deliveries(self):
        log = SyncLog()
        log.record_sent(0, 0, 120 * SECOND, 120 * SECOND)
        log.mark_lost(0)
        assert alignment(log, 120 * SECOND, (0, 3600 * SECOND)) == 0.0

    def test_over_delivery_clamps_to_one(self):
        log = periodic_log(10, 60 * SECOND, latency=0)
        assert alignment(log, 120 * SECOND, (0, 600 * SECOND)) == 1.0

    def test_monotone_in_losses(self):
        T = 10 * SECOND
        ratios = []
        for lost in range(0, 11):
            log = SyncLog()
            for k in range(10):
                log.record_sent(k, k * T, (k + 1) * T, (k + 1) * T)
                if k < lost:
                    log.mark_lost(k)
                else:
                    log.record_received(k, (k + 1) * T, k * T, (k + 1) * T)
            ratios.append(alignment(log, T, (0, 100 * SECOND)))
        assert ratios == sorted(ratios, reverse=True)


class TestUpdateLatency:
    def test_constant_latency(self):
        log = periodic_log(5, 10 * SECOND, latency=900_000)
        stats = update_latency(log.columns())
        assert stats.mean_micros == 900_000
        assert stats.max_micros == 900_000

    def test_straggler_moves_max_and_mean(self):
        log = periodic_log(4, 10 * SECOND, latency=900_000)
        log.record_replayed(3, 40 * SECOND + 5 * SECOND)  # one 5 s straggler
        stats = update_latency(log.columns())
        assert stats.max_micros == 5 * SECOND
        expected_mean = (3 * 900_000 + 5 * SECOND) / 4
        assert stats.mean_micros == expected_mean

    def test_empty_log_is_an_error(self):
        with pytest.raises(MetricsError):
            update_latency(SyncLog().columns())


class TestAgeOfInformation:
    def test_periodic_delivery_peak_is_period_plus_latency(self):
        # Sawtooth oracle: age rises for T between replays and drops to L
        # at each one, so the peak is exactly T + L.
        T, L = 10 * SECOND, 900_000
        log = periodic_log(6, T, latency=L)
        aoi = age_of_information(log.columns(), 0, 6 * T + L)
        assert aoi.peak_micros == T + L

    def test_age_drops_to_update_latency_at_each_replay(self):
        T, L = 10 * SECOND, 900_000
        log = periodic_log(6, T, latency=L)
        replay_instants = [(k + 1) * T + L for k in range(6)]
        assert [aoi_at(log.entries(), 0, t) for t in replay_instants] == [L] * 6

    def test_slope_is_one_between_replays(self):
        T, L = 10 * SECOND, 900_000
        log = periodic_log(6, T, latency=L)
        t0 = 2 * T + L + 1000
        ts = [t0, t0 + 777, t0 + 2 * 777]
        values = [aoi_at(log.entries(), 0, t) for t in ts]
        assert values[1] - values[0] == 777
        assert values[2] - values[1] == 777

    def test_no_replays_grows_linearly_from_origin(self):
        log = SyncLog()
        log.record_sent(0, 0, 10 * SECOND, 10 * SECOND)
        assert [aoi_at(log.entries(), 0, t) for t in (SECOND, 4 * SECOND)] == [SECOND, 4 * SECOND]
        assert age_of_information(log.columns(), 0, 5 * SECOND).peak_micros == 5 * SECOND

    def test_mean_matches_trapezoid_oracle(self):
        # Two replays; integrate the sawtooth by hand.
        T, L = 10 * SECOND, SECOND
        log = periodic_log(2, T, latency=L)
        horizon = 2 * T + L
        aoi = age_of_information(log.columns(), 0, horizon)
        # Segments: [0, T+L) rising 0 -> T+L; [T+L, 2T+L) rising L -> T+L.
        area = (0 + T + L) / 2 * (T + L) + (L + T + L) / 2 * T
        assert aoi.mean_micros == pytest.approx(area / horizon)


@st.composite
def sync_logs(draw):
    """Windows of up to 1,000 s, some lost, some received but not
    replayed; replay times in any order, ties included, some before the
    origin and some past the horizon the test picks. Long windows make
    areas past 2**53, where every float addition rounds."""
    log = SyncLog()
    n = draw(st.integers(0, 40))
    T = draw(st.integers(1, 1000 * SECOND))
    for k in range(n):
        log.record_sent(k, k * T, (k + 1) * T, (k + 1) * T)
        fate = draw(st.sampled_from(["replayed", "replayed", "received", "lost", "sent"]))
        if fate in ("replayed", "received"):
            log.record_received(k, (k + 1) * T, k * T, (k + 1) * T)
        if fate == "replayed":
            log.record_replayed(k, draw(st.sampled_from([(k + 1) * T, 0]) | st.integers(0, 50 * T)))
        if fate == "lost":
            log.mark_lost(k)
    return log


@settings(max_examples=150)
@given(sync_logs(), st.integers(-SECOND, 5 * SECOND), st.integers(0, 50_000 * SECOND))
def test_age_of_information_is_the_sequential_float_sum(log, origin, horizon):
    """The array pass adds the same trapezoids in the same order as a loop
    over the replay instants, so mean and peak match it bit for bit."""
    aoi = age_of_information(log.columns(), origin, horizon)
    assert (aoi.mean_micros, aoi.peak_micros) == sequential_age_of_information(log.entries(), origin, horizon)


def test_age_of_information_adds_in_time_order():
    """One 5e17 trapezoid, then fifteen of 60: each of those rounds on its
    own when added in time order (a float there steps by 64), but not
    when summed together first."""
    log = SyncLog()
    ends = [10**9] + [10**9 + 10 * k for k in range(1, 16)]
    for k, (start, end) in enumerate(zip([0] + ends, ends)):
        log.record_sent(k, start, end, end)
        log.record_received(k, end + 1, start, end)
        log.record_replayed(k, end + 1)
    aoi = age_of_information(log.columns(), 0, ends[-1] + 1)
    assert (aoi.mean_micros, aoi.peak_micros) == sequential_age_of_information(log.entries(), 0, ends[-1] + 1)


@settings(max_examples=50)
@given(sync_logs(), st.integers(0, 5 * SECOND), st.integers(0, 100 * SECOND))
def test_log_metrics_match_a_loop_over_the_entries(log, start, length):
    entries = log.entries()
    observation = (start, start + length)
    assert delivered_in_observation(log.columns(), observation) == sum(
        1 for e in entries if e.delivered and start < e.t_window_end <= start + length)
    latencies = [e.t_replayed - e.t_window_end for e in entries if e.delivered and e.t_replayed is not None]
    if latencies:
        stats = update_latency(log.columns())
        assert (stats.mean_micros, stats.max_micros) == (sum(latencies) / len(latencies), max(latencies))


class TestCompareSeries:
    def test_identical_series(self):
        base = series([1, 5, 2, 8, 3])
        result = compare_series(base, base, max_lag_bins=3)
        assert result.rmse_bps == 0.0
        assert result.pearson_r == 1.0
        assert result.estimated_lag_bins == 0

    def test_integer_shift_is_recovered_exactly(self):
        # Constructed-shift oracle: ndt[i] = npt[i - 3].
        npt = [1, 9, 4, 6, 2, 8, 5, 7, 3, 10]
        ndt = [0, 0, 0] + npt
        result = compare_series(series(npt), series(ndt), max_lag_bins=5)
        assert result.estimated_lag_bins == 3
        assert result.estimated_lag_micros == 3 * SECOND
        assert result.rmse_bps == 0.0

    def test_scaled_series_keeps_perfect_correlation(self):
        npt = series([1, 2, 5, 3])
        ndt = series([2, 4, 10, 6])
        result = compare_series(npt, ndt, max_lag_bins=1)
        assert result.pearson_r == pytest.approx(1.0)
        assert result.rmse_bps > 0

    def test_flat_reference_flags_nrmse(self):
        flat = series([5, 5, 5, 5])
        result = compare_series(flat, flat, max_lag_bins=1)
        assert result.nrmse is None
        assert result.pearson_r == 1.0  # identical, degenerate case

    def test_bin_width_mismatch(self):
        with pytest.raises(MetricsError):
            compare_series(series([1, 2]), series([1, 2], bin_width=2 * SECOND), 1)

    def test_insufficient_overlap(self):
        with pytest.raises(MetricsError):
            compare_series(series([1]), series([2]), max_lag_bins=0)

    @pytest.mark.parametrize("npt, ndt", [
        ([1, 9, 4, 6, 2, 8, 5], [0, 0, 1, 9, 4, 6, 2, 8, 5]),
        ([1, 9, 4, 6, 2, 8, 5, 7, 3], [4, 6, 2]),
    ])
    def test_a_huge_lag_bound_scores_the_same_lags(self, npt, ndt):
        """Only lags with 2 bins of overlap are scored, so a bound past the
        series' lengths finishes at once and changes nothing."""
        npt, ndt = series(npt), series(ndt)

        def expire(signum, frame):
            raise TimeoutError("compare_series still running after 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            result = compare_series(npt, ndt, 10**12)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert result == compare_series(npt, ndt, max(len(npt.bins), len(ndt.bins)))

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 1000), min_size=4, max_size=30),
        st.integers(min_value=-4, max_value=4),
    )
    def test_lag_recovery_on_random_series(self, values, shift):
        x = np.array(values, dtype=float)
        assume(x.std() > 0)
        assume(len(values) - max(0, -shift) >= 2)
        if shift >= 0:
            y = np.concatenate([np.zeros(shift), x])
        else:
            y = x[-shift:]
        npt, ndt = series(x), series(y)
        result = compare_series(npt, ndt, max_lag_bins=6)
        best = result.estimated_lag_bins
        # Ties between lags can exist for periodic inputs; the chosen lag
        # must then score at least as high as the true one.
        if best != shift:
            def score(lag):
                i0, i1 = max(0, -lag), min(len(x), len(y) - lag)
                xs, ys = x[i0:i1], y[i0 + lag:i1 + lag]
                if xs.std() == 0 or ys.std() == 0:
                    return 1.0 if np.array_equal(xs, ys) else -np.inf
                return ((xs - xs.mean()) * (ys - ys.mean())).mean() / (xs.std() * ys.std())
            assert score(best) >= score(shift) - 1e-12

    @given(
        st.lists(st.integers(0, 1000), min_size=3, max_size=20),
        st.floats(0.1, 50),
        st.floats(0, 1000),
    )
    def test_pearson_invariant_under_positive_affine_maps(self, values, a, b):
        x = np.array(values, dtype=float)
        assume(x.std() > 0)
        base = series(x)
        transformed = series(a * x + b)
        result = compare_series(base, transformed, max_lag_bins=0)
        assert result.pearson_r == pytest.approx(1.0, abs=1e-9)


class TestStateConsistencyIndex:
    def test_fresh_bundle_scores_one(self, descriptor):
        assert state_consistency_index(descriptor, emit_bundle(descriptor)) == 1.0

    def test_single_mutation_drops_exactly_one_share(self, descriptor):
        bundle = emit_bundle(descriptor)
        n = audited_field_count(descriptor)
        mutated = copy.deepcopy(bundle)
        mutated.smf_doc["smf"]["sessions"][0]["subnet"] = "10.99.0.0/16"
        assert state_consistency_index(descriptor, mutated) == (n - 1) / n

    def test_sliceless_descriptor_audits_only_globals(self):
        d = TwinDescriptor("n", "00101", 0, (), 10.0)
        assert audited_field_count(d) == 2
        assert state_consistency_index(d, emit_bundle(d)) == 1.0

    def test_plmn_mutation_counts(self, descriptor):
        bundle = emit_bundle(descriptor)
        n = audited_field_count(descriptor)
        mutated = copy.deepcopy(bundle)
        mutated.amf_doc["amf"]["plmn"] = "99999"
        assert state_consistency_index(descriptor, mutated) == (n - 1) / n


def test_fidelity_report_serialization_round_trip(descriptor):
    report = FidelityReport(
        twin_alignment_ratio=1.0,
        mean_update_latency_us=900000.0,
        max_update_latency_us=900000,
        mean_age_of_information_us=5e6,
        peak_age_of_information_us=10_900_000,
        sync_frequency_hz=0.1,
        rmse_bps=0.0,
        nrmse=0.0,
        pearson_r=1.0,
        estimated_lag_us=0,
        consistency_index=1.0,
        windows_lost=0,
    )
    cfg = RunConfig(descriptor, ScenarioSpec("voice-call", 10 * SECOND), ChannelSpec(), ReplayPlan())
    result = RunResult(report, SyncLog(), series([0]), series([0]), 0, 0, 1, 1, 0)
    doc = json.loads(build_report_document(cfg, result))
    assert doc["schema_version"] == 2
    assert doc["metrics"] == report.as_dict()
    assert doc["metrics"]["twin_alignment_ratio"] == 1.0
    assert "prediction_deviation" not in doc["metrics"]
    csv = report.to_csv_bytes().decode().strip().split("\n")
    assert len(csv) == 2
    assert csv[0].split(",")[0] == "twin_alignment_ratio"
