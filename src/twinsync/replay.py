"""Replay of received windows on the twin side.

Two modes:

* virtual-clock: a window's packets are emitted at once, as one batch
  with every timestamp shifted by the alignment offset. Exact, fast,
  fully deterministic; this is what CI and fidelity runs use. The
  windows a receiver accepted together (transport.ReceivedBlock) replay
  as one batch too, with the completion times one at a time would give.
* real-time: inter-packet gaps are actually slept (scaled by
  1/speed_factor) against an injected clock, tcpreplay style. Scheduler
  lateness is measured per packet and its maximum reported, never folded
  silently into timestamps.

Either way replaying a window returns it once, as a ReplayedTrace (a
block returns its packets once). Payload bytes always pass through
untouched; replay fidelity is the whole point of the loop.
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
    """Output of one window's replay, timestamps already aligned."""

    window_seq: int
    records: PacketBatch
    max_lateness_micros: int
    t_replayed_micros: int


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
    """Replays windows one at a time, in seq order.

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

    def replay_window(self, window: CaptureWindow, t_available_micros: int) -> ReplayedTrace:
        """Replay one window and return its trace; records its completion
        time in the sync log."""
        if self._last_seq is not None and window.seq <= self._last_seq:
            raise ValueError(f"window {window.seq} arrived after window {self._last_seq}")
        self._last_seq = window.seq

        if self.plan.mode is ReplayMode.VIRTUAL:
            trace = self._replay_virtual(window, t_available_micros)
        else:
            trace = self._replay_real_time(window)
        self.log.record_replayed(window.seq, trace.t_replayed_micros)
        self._last_completed = trace.t_replayed_micros
        return trace

    def replay_block(self, block: ReceivedBlock) -> PacketBatch:
        """Virtual clock: replay the windows of a ReceivedBlock as one batch,
        as replay_window would one at a time, each completing when it is
        available or when the one before it completed, whichever is later.
        Records the completion times in the sync log and returns the
        aligned packets."""
        if self.plan.mode is not ReplayMode.VIRTUAL:
            raise ValueError("only virtual-clock replay takes a block of windows at once")
        first = int(block.seqs[0])
        if self._last_seq is not None and first <= self._last_seq:
            raise ValueError(f"window {first} arrived after window {self._last_seq}")
        if self._offset is None:
            self._offset = compute_alignment(self.plan, None, int(block.t_received[0]))
        t_done = block.t_received
        if self._last_completed is not None:
            t_done = np.maximum(t_done, self._last_completed)
        t_done = np.maximum.accumulate(t_done)
        self.log.record_replayed_block(block.seqs, t_done)
        self._last_seq, self._last_completed = int(block.seqs[-1]), int(t_done[-1])
        return block.packets.shifted(self._offset)

    def _replay_virtual(self, window: CaptureWindow, t_available: int) -> ReplayedTrace:
        if self._offset is None:
            self._offset = compute_alignment(self.plan, window, t_available)
        packets = window.packets.shifted(self._offset)
        t_done = t_available if self._last_completed is None else max(t_available, self._last_completed)
        return ReplayedTrace(window.seq, packets, 0, t_done)

    def _replay_real_time(self, window: CaptureWindow) -> ReplayedTrace:
        assert self.clock is not None
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
        return ReplayedTrace(window.seq, packets, max_lateness, t_done)
