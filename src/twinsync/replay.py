"""Replay of received windows on the twin side.

Two modes:

* virtual-clock: the windows a receiver delivered together
  (transport.ReceivedBlock, often a single window) are emitted at once,
  as one batch with every timestamp shifted by the alignment offset,
  each window completing when it is available or when the one before it
  completed. Exact, fast, fully deterministic; this is what CI and
  fidelity runs use (replay_block).
* real-time: a window's inter-packet gaps are actually slept (scaled by
  1/speed_factor) against an injected clock, tcpreplay style. Scheduler
  lateness is measured per packet and its maximum reported, never folded
  silently into timestamps (replay_window, which returns a
  ReplayedTrace).

Payload bytes always pass through untouched; replay fidelity is the
whole point of the loop.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clocks import Clock
from .pcap import CaptureWindow, PacketBatch
from .transport import ReceivedBlock, SyncLog


class ReplayMode(enum.Enum):
    VIRTUAL = "virtual-clock"
    REAL_TIME = "real-time"


@dataclass(frozen=True, slots=True)
class ReplayPlan:
    """How to replay: mode, pacing, and timestamp alignment.

    ``align_offset_micros`` of None means automatic: 0 in virtual-clock
    mode (replayed timestamps land on the original timeline), and the
    replay-start minus window-start difference in real-time mode.
    """

    mode: ReplayMode = ReplayMode.VIRTUAL
    speed_factor: float = 1.0
    align_offset_micros: int | None = None

    def __post_init__(self):
        if not 0 < self.speed_factor < math.inf:
            raise ValueError(f"speed_factor must be positive and finite, got {self.speed_factor}")


class ReplayedTrace(NamedTuple):
    """Output of one window's real-time replay, timestamps already aligned."""

    window_seq: int
    records: PacketBatch
    max_lateness_micros: int


def compute_alignment(plan: ReplayPlan, window: CaptureWindow | None, replay_start_micros: int) -> int:
    """Offset mapping replayed timestamps onto the physical timeline.

    An explicit offset wins. Virtual-clock replay needs no shift.
    Real-time replay anchors the first window's start to the moment its
    replay began, so the offset is that moment minus the window start;
    only this case reads ``window``.
    """
    if plan.align_offset_micros is not None:
        return plan.align_offset_micros
    if plan.mode is ReplayMode.VIRTUAL:
        return 0
    return replay_start_micros - window.start_ts_micros


class ReplayEngine:
    """Replays windows in seq order: a ReceivedBlock at a time on the
    virtual clock (replay_block), one window at a time in real time
    (replay_window).

    The alignment offset is frozen on the first window so consecutive
    windows replay back-to-back with zero drift.
    """

    def __init__(self, plan: ReplayPlan, log: SyncLog, clock: Clock | None = None):
        if plan.mode is ReplayMode.REAL_TIME and clock is None:
            raise ValueError("real-time replay needs a clock")
        self.plan = plan
        self.log = log
        self.clock = clock
        self._offset: int | None = None
        self._last_completed: int | None = None
        self._last_seq: int | None = None
        self._first_window_start: int | None = None
        self._anchor_wall: int | None = None

    @property
    def align_offset_micros(self) -> int | None:
        return self._offset

    def _check_order(self, seq: int) -> None:
        if self._last_seq is not None and seq <= self._last_seq:
            raise ValueError(f"window {seq} arrived after window {self._last_seq}")

    def replay_block(self, block: ReceivedBlock) -> PacketBatch:
        """Virtual clock: replay the windows of a ReceivedBlock as one batch,
        each completing when it is available or when the one before it
        completed, whichever is later. Records the completion times in the
        sync log and returns the aligned packets."""
        if self.plan.mode is not ReplayMode.VIRTUAL:
            raise ValueError("only virtual-clock replay takes a block of windows at once")
        self._check_order(int(block.seqs[0]))
        if self._offset is None:
            self._offset = compute_alignment(self.plan, None, int(block.t_received[0]))
        t_done = block.t_received
        if self._last_completed is not None:
            t_done = np.maximum(t_done, self._last_completed)
        t_done = np.maximum.accumulate(t_done)
        self.log.record_replayed_block(block.seqs, t_done)
        self._last_seq, self._last_completed = int(block.seqs[-1]), int(t_done[-1])
        return block.packets.shifted(self._offset)

    def replay_window(self, window: CaptureWindow) -> ReplayedTrace:
        """Real time: replay one window against the clock and return its
        trace; records its completion time in the sync log."""
        if self.plan.mode is not ReplayMode.REAL_TIME:
            raise ValueError("virtual-clock replay takes a block of windows (replay_block)")
        self._check_order(window.seq)
        self._last_seq = window.seq
        if self._anchor_wall is None:
            self._anchor_wall = self.clock.now_micros()
            self._first_window_start = window.start_ts_micros
            self._offset = compute_alignment(self.plan, window, self._anchor_wall)
        emitted = []
        max_lateness = 0
        for ts in window.packets.ts_micros.tolist():
            target = self._anchor_wall + int((ts - self._first_window_start) / self.plan.speed_factor)
            wait = target - self.clock.now_micros()
            if wait > 0:
                self.clock.sleep_micros(wait)
            emitted_at = max(target, self.clock.now_micros())
            emitted.append(emitted_at)
            max_lateness = max(max_lateness, emitted_at - target)
        t_done = self.clock.now_micros()
        packets = window.packets.with_ts(np.array(emitted, dtype=np.int64))
        self.log.record_replayed(window.seq, t_done)
        return ReplayedTrace(window.seq, packets, max_lateness)
