import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync import clocks
from twinsync.clocks import MonotonicClock
from twinsync.replay import REPLAY_RESOLUTION_MICROS, ReplayEngine, ReplayMode, ReplayPlan, compute_alignment
from twinsync.transport import ReceivedBlock, SyncLog

from conftest import make_packet, packet_lists
from reference import ManualClock, batch_of, paced_per_packet, records_of

SECOND = 1_000_000
# Speeds the pacing properties hold at, slower and faster than the wall.
SPEEDS = [0.3, 1.0, 2.5, 7.0, 20.0]


def received_block(log: SyncLog, seq=0, start=0, T=10 * SECOND, delay=0, packets=()) -> ReceivedBlock:
    """Window ``seq`` sent and received alone, as the block receive_block
    delivers for it."""
    end = start + T
    log.record_sent(seq, start, end, end)
    log.record_received(seq, end + delay, start, end)
    batch = batch_of(packets)
    return ReceivedBlock(np.array([seq]), np.array([start]), np.array([end + delay]), np.array([0, len(batch)]),
                         batch)


class TestComputeAlignment:
    def test_virtual_mode_needs_no_offset(self):
        assert compute_alignment(ReplayPlan(), 0, replay_start_micros=12 * SECOND) == 0

    def test_real_time_offset_is_replay_start_minus_window_start(self):
        # Replay of the first window begins 122 s after its start.
        plan = ReplayPlan(mode=ReplayMode.REAL_TIME)
        assert compute_alignment(plan, 5 * SECOND, replay_start_micros=127 * SECOND) == 122 * SECOND

    def test_explicit_offset_wins(self):
        for mode in ReplayMode:
            plan = ReplayPlan(mode=mode, align_offset_micros=3 * SECOND)
            assert compute_alignment(plan, 0, replay_start_micros=12 * SECOND) == 3 * SECOND


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


class TestRealTimeReplay:
    def test_speed_factor_halves_the_gaps(self, monkeypatch):
        # Gaps of 10 ms and 20 ms of capture time at speed 2 -> the run
        # clock sleeps 5 ms and 10 ms of wall time; the replayed packets
        # keep their capture gaps.
        wall = FakeWallTime()
        monkeypatch.setattr(clocks, "time", wall)
        log = SyncLog()
        block = received_block(log, T=SECOND, packets=[make_packet(0), make_packet(10_000), make_packet(30_000)])
        clock = MonotonicClock(7 * SECOND, speed_factor=2.0)
        engine = ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME, speed_factor=2.0), log, clock=clock)
        ts = engine.replay_block(block).ts_micros.tolist()
        assert wall.sleeps == pytest.approx([0.005, 0.010])
        assert ts == [7 * SECOND, 7 * SECOND + 10_000, 7 * SECOND + 30_000]
        assert clock.now_micros() == 7 * SECOND + 30_000
        assert engine.max_lateness_micros == 0  # the fake wall clock sleeps exactly

    def test_max_lateness_is_the_largest_oversleep(self):
        # The second and third packets are emitted 700 and 300 us late.
        log = SyncLog()
        block = received_block(log, T=SECOND, packets=[make_packet(0), make_packet(10_000), make_packet(30_000)])
        engine = ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME), log, clock=OversleepingClock([700, 300]))
        engine.replay_block(block)
        assert engine.max_lateness_micros == 700

    @pytest.mark.parametrize("speed", [0.0, -1.0, float("nan"), float("inf")])
    def test_speed_factor_must_be_positive_and_finite(self, speed):
        with pytest.raises(ValueError, match="speed_factor must be positive and finite"):
            ReplayPlan(mode=ReplayMode.REAL_TIME, speed_factor=speed)

    def test_real_time_needs_a_clock(self):
        with pytest.raises(ValueError):
            ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME), SyncLog())

    def test_emission_times_follow_the_wall_clock(self):
        log = SyncLog()
        block = received_block(log, T=SECOND, packets=[make_packet(0), make_packet(250_000)])
        clock = ManualClock(start_micros=42 * SECOND)
        engine = ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME), log, clock=clock)
        assert engine.replay_block(block).ts_micros.tolist() == [42 * SECOND, 42 * SECOND + 250_000]

    def test_a_block_of_windows_replays_as_its_windows_one_at_a_time(self):
        windows = [(0, [100_000, 600_000]), (SECOND, []), (2 * SECOND, [2 * SECOND + 300, 2_500_000])]

        def replayed(blocks):
            log = SyncLog()
            engine = ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME), log, clock=ManualClock(5 * SECOND))
            ts = [t for block in blocks(log) for t in engine.replay_block(block).ts_micros.tolist()]
            return ts, log.columns().t_replayed.tolist(), engine.max_lateness_micros

        together = replayed(lambda log: [block_of_windows(log, windows)])
        alone = replayed(lambda log: [block_of_windows(log, [window], first_seq=seq)
                                      for seq, window in enumerate(windows)])
        ts, completed, _ = together
        assert together == alone
        assert completed == sorted(completed)
        assert completed[1] == completed[0] == ts[1]

    @settings(deadline=None)
    @given(st.lists(st.lists(st.integers(1000, 4000), max_size=6), min_size=1, max_size=3),
           st.sampled_from(SPEEDS), st.lists(st.integers(0, 999)))
    def test_targets_a_slot_apart_pace_as_packet_by_packet(self, gaps, speed, overshoots):
        emitted, lateness, completed = paced_both_ways(gaps, speed, overshoots)
        assert emitted[0] == emitted[1]
        assert lateness[0] == lateness[1]
        assert completed[0] == completed[1]

    @settings(deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4000), max_size=8), min_size=1, max_size=3),
           st.sampled_from(SPEEDS), st.lists(st.integers(0, 999)))
    def test_pacing_is_within_a_slot_of_packet_by_packet(self, gaps, speed, overshoots):
        emitted, lateness, completed = paced_both_ways(gaps, speed, overshoots)
        slot = REPLAY_RESOLUTION_MICROS * speed
        assert all(abs(a - b) < slot for a, b in zip(*emitted))
        assert abs(lateness[0] - lateness[1]) < slot
        assert all(abs(a - b) < slot for a, b in zip(*completed))
        if not overshoots:  # a clock that sleeps exactly emits every packet on target
            assert emitted[0] == emitted[1] and completed[0] == completed[1]


class FakeWallTime:
    """Stands in for the time module of twinsync.clocks: monotonic_ns reads
    a counter that sleep advances, and every sleep is recorded."""

    def __init__(self, start_ns: int = 10**12):
        self.ns = start_ns
        self.sleeps: list[float] = []

    def monotonic_ns(self) -> int:
        return self.ns

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.ns += round(seconds * 1e9)


class OversleepingClock(ManualClock):
    """A manual clock whose sleeps overrun by the given amounts in turn, then
    by nothing."""

    def __init__(self, overshoots, start_micros: int = 0):
        super().__init__(start_micros)
        self._overshoots = iter(overshoots)

    def sleep_micros(self, duration_micros):
        super().sleep_micros(duration_micros + next(self._overshoots, 0))


def block_of_windows(log: SyncLog, windows, first_seq=0, T=SECOND) -> ReceivedBlock:
    """Windows given as (start, packet timestamps), sent and received at time
    0, as one block."""
    seqs = np.arange(first_seq, first_seq + len(windows))
    starts = np.array([start for start, _ in windows])
    for seq, start in zip(seqs.tolist(), starts.tolist()):
        log.record_sent(seq, start, start + T, 0)
        log.record_received(seq, 0, start, start + T)
    cuts = np.cumsum([0] + [len(ts) for _, ts in windows])
    packets = batch_of([make_packet(ts) for _, timestamps in windows for ts in timestamps])
    return ReceivedBlock(seqs, starts, np.zeros(len(windows), dtype=np.int64), cuts, packets)


def paced_both_ways(gaps, speed, overshoots):
    """Windows 10 s apart whose packets follow one another by ``gaps`` wall
    microseconds, replayed at ``speed`` as one block by the engine and
    packet by packet by the reference, each on an OversleepingClock that
    reads capture time. Gaps and overshoots are given in wall time, so
    they count ``speed`` times on that clock, as the engine's slot does.
    Returns (engine, reference) pairs of the emitted times, the largest
    lateness and the completion times."""
    windows = [(k * 10 * SECOND, (k * 10 * SECOND + np.cumsum([int(gap * speed) for gap in window_gaps],
                                                                dtype=np.int64)).tolist())
               for k, window_gaps in enumerate(gaps)]
    overshoots = [int(overshoot * speed) for overshoot in overshoots]
    log = SyncLog()
    block = block_of_windows(log, windows, T=10 * SECOND)
    engine = ReplayEngine(ReplayPlan(mode=ReplayMode.REAL_TIME, speed_factor=speed), log,
                          clock=OversleepingClock(overshoots, start_micros=SECOND))
    ts = engine.replay_block(block).ts_micros.tolist()
    emitted, lateness, completed = paced_per_packet(windows, OversleepingClock(overshoots, SECOND))
    return ((ts, [t for times in emitted for t in times]), (engine.max_lateness_micros, lateness),
            (log.columns().t_replayed.tolist(), completed))
