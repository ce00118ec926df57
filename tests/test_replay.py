import numpy as np
import pytest
from hypothesis import given

from twinsync.pcap import CaptureWindow
from twinsync.replay import ReplayEngine, ReplayMode, ReplayPlan, compute_alignment
from twinsync.transport import ReceivedBlock, SyncLog

from conftest import make_packet, packet_lists
from reference import ManualClock, batch_of, records_of

SECOND = 1_000_000


def received_window(log: SyncLog, seq=0, start=0, T=10 * SECOND, delay=0, packets=()):
    window = CaptureWindow(seq, start, start + T, batch_of(packets))
    log.record_sent(seq, window.start_ts_micros, window.end_ts_micros, window.end_ts_micros)
    log.record_received(seq, window.end_ts_micros + delay, window.start_ts_micros, window.end_ts_micros)
    return window


class TestComputeAlignment:
    def test_virtual_mode_needs_no_offset(self):
        window = CaptureWindow(0, 0, 10 * SECOND, batch_of([]))
        assert compute_alignment(ReplayPlan(), window, replay_start_micros=12 * SECOND) == 0

    def test_real_time_offset_is_replay_start_minus_window_start(self):
        # Replay of the first window begins 122 s after its start.
        window = CaptureWindow(0, 5 * SECOND, 125 * SECOND, batch_of([]))
        plan = ReplayPlan(mode=ReplayMode.REAL_TIME)
        assert compute_alignment(plan, window, replay_start_micros=127 * SECOND) == 122 * SECOND

    def test_explicit_offset_wins(self):
        window = CaptureWindow(0, 0, 10 * SECOND, batch_of([]))
        for mode in ReplayMode:
            plan = ReplayPlan(mode=mode, align_offset_micros=3 * SECOND)
            assert compute_alignment(plan, window, replay_start_micros=12 * SECOND) == 3 * SECOND


def received_block(log: SyncLog, seq=0, start=0, T=10 * SECOND, delay=0, packets=()) -> ReceivedBlock:
    """Window ``seq`` sent and received alone, as the block receive_block
    delivers for it."""
    window = received_window(log, seq, start, T, delay, packets)
    return ReceivedBlock(np.array([seq]), np.array([window.end_ts_micros + delay]),
                         np.array([0, len(window.packets)]), window.packets)


class TestVirtualReplay:
    def test_gaps_are_preserved_exactly(self):
        log = SyncLog()
        packets = [make_packet(1 * SECOND), make_packet(1 * SECOND + 10_000), make_packet(1 * SECOND + 30_000)]
        block = received_block(log, packets=packets)
        engine = ReplayEngine(ReplayPlan(), log)
        ts = engine.replay_block(block).ts_micros.tolist()
        deltas = [b - a for a, b in zip(ts, ts[1:])]
        assert deltas == [10_000, 20_000]

    def test_offset_applies_to_every_timestamp(self):
        log = SyncLog()
        block = received_block(log, packets=[make_packet(2 * SECOND), make_packet(3 * SECOND)])
        engine = ReplayEngine(ReplayPlan(align_offset_micros=5 * SECOND), log)
        assert engine.replay_block(block).ts_micros.tolist() == [7 * SECOND, 8 * SECOND]

    def test_consecutive_windows_share_one_offset(self):
        log = SyncLog()
        b0 = received_block(log, seq=0, start=0)
        b1 = received_block(log, seq=1, start=10 * SECOND)
        engine = ReplayEngine(ReplayPlan(), log)
        engine.replay_block(b0)
        first_offset = engine.align_offset_micros
        engine.replay_block(b1)
        assert engine.align_offset_micros == first_offset

    def test_empty_window_still_records_replay_time(self):
        log = SyncLog()
        block = received_block(log, delay=900_000)
        engine = ReplayEngine(ReplayPlan(), log)
        assert len(engine.replay_block(block)) == 0
        assert log.entries()[0].t_replayed == 10 * SECOND + 900_000

    def test_windows_never_replay_out_of_order(self):
        log = SyncLog()
        b0 = received_block(log, seq=0)
        received_block(log, seq=1, start=10 * SECOND)
        engine = ReplayEngine(ReplayPlan(), log)
        engine.replay_block(b0)
        with pytest.raises(ValueError):
            engine.replay_block(b0)

    def test_completion_time_is_monotone_across_windows(self):
        # Window 1 arrives before window 0 finished; replay must not
        # start earlier than the previous completion.
        log = SyncLog()
        b0 = received_block(log, seq=0, delay=5 * SECOND)
        b1 = received_block(log, seq=1, start=10 * SECOND, delay=0)
        engine = ReplayEngine(ReplayPlan(), log)
        engine.replay_block(b0)
        engine.replay_block(b1)
        first, second = log.entries()
        assert second.t_replayed >= first.t_replayed

    @given(packet_lists(max_len=10))
    def test_payload_fidelity(self, packets):
        log = SyncLog()
        block = received_block(log, T=5 * SECOND, packets=packets)
        replayed = records_of(ReplayEngine(ReplayPlan(), log).replay_block(block))
        assert [r.payload for r in replayed] == [p.payload for p in packets]
        assert [r.original_len for r in replayed] == [p.original_len for p in packets]

    def test_a_window_alone_replays_only_in_real_time(self):
        log = SyncLog()
        window = received_window(log)
        with pytest.raises(ValueError, match="replay_block"):
            ReplayEngine(ReplayPlan(), log).replay_window(window)
        assert log.entries()[0].t_replayed is None


class TestRealTimeReplay:
    def test_speed_factor_halves_the_gaps(self):
        # Gaps 10 ms and 20 ms at speed 2 -> wall deltas 5 ms and 10 ms.
        log = SyncLog()
        packets = [make_packet(0), make_packet(10_000), make_packet(30_000)]
        window = CaptureWindow(0, 0, SECOND, batch_of(packets))
        log.record_sent(0, 0, SECOND, SECOND)
        log.record_received(0, SECOND, 0, SECOND)
        clock = ManualClock(start_micros=7 * SECOND)
        engine = ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME, speed_factor=2.0), log, clock=clock)
        trace = engine.replay_window(window)
        ts = trace.records.ts_micros.tolist()
        assert [b - a for a, b in zip(ts, ts[1:])] == [5_000, 10_000]
        assert trace.max_lateness_micros == 0  # manual clock sleeps exactly

    def test_max_lateness_is_the_largest_oversleep(self):
        overshoots = iter([700, 300])

        class OversleepingClock(ManualClock):
            def sleep_micros(self, duration_micros):
                super().sleep_micros(duration_micros + next(overshoots))

        # The second and third packets are emitted 700 and 300 us late.
        log = SyncLog()
        window = CaptureWindow(0, 0, SECOND, batch_of([make_packet(0), make_packet(10_000), make_packet(30_000)]))
        log.record_sent(0, 0, SECOND, SECOND)
        engine = ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME), log, clock=OversleepingClock())
        assert engine.replay_window(window).max_lateness_micros == 700

    @pytest.mark.parametrize("speed", [0.0, -1.0, float("nan"), float("inf")])
    def test_speed_factor_must_be_positive_and_finite(self, speed):
        with pytest.raises(ValueError, match="speed_factor must be positive and finite"):
            ReplayPlan(mode=ReplayMode.REAL_TIME, speed_factor=speed)

    def test_real_time_needs_a_clock(self):
        with pytest.raises(ValueError):
            ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME), SyncLog())

    def test_emission_times_follow_the_wall_clock(self):
        log = SyncLog()
        window = CaptureWindow(0, 0, SECOND, batch_of([make_packet(0), make_packet(250_000)]))
        log.record_sent(0, 0, SECOND, SECOND)
        log.record_received(0, SECOND, 0, SECOND)
        clock = ManualClock(start_micros=42 * SECOND)
        engine = ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME), log, clock=clock)
        trace = engine.replay_window(window)
        assert trace.records.ts_micros.tolist() == [42 * SECOND, 42 * SECOND + 250_000]
