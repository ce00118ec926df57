"""Replay of received windows on the twin side.

ReplayEngine.replay_block replays the windows a receiver delivered
together (a transport.ReceivedBlock, often a single window) in either
mode:

* virtual-clock: the packets are emitted at once, every timestamp
  shifted by the alignment offset. Exact, fast, fully deterministic;
  this is what CI and fidelity runs use.
* real-time: the same shifted timestamps are targets on the run's clock,
  which reads capture time and converts its sleeps to wall time by the
  speed factor, tcpreplay style. The engine sleeps once per slot of
  REPLAY_RESOLUTION_MICROS wall microseconds of targets, not once per
  packet, and a packet counts as emitted at its target or at the clock
  reading when its slot began, whichever is later. The largest lateness
  is kept, never folded silently into timestamps.

Either way a window completes when it is ready (received, and in real
time its last packet emitted) or when the one before it completed,
whichever is later. Payload bytes always pass through untouched; replay
fidelity is the whole point of the loop.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .clocks import Clock
from .pcap import CaptureWindow, PacketBatch
from .transport import ReceivedBlock, SyncLog

# Real time sleeps at most once per slot of this many wall microseconds
# of targets, so the interpreter's cost per packet never paces the replay.
REPLAY_RESOLUTION_MICROS = 1000


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


def compute_alignment(plan: ReplayPlan, window_start_micros: int, replay_start_micros: int) -> int:
    """Offset mapping replayed timestamps onto the physical timeline.

    An explicit offset wins. Virtual-clock replay needs no shift.
    Real-time replay anchors the first window's start to the moment its
    replay began, so the offset is that moment minus the window start.
    """
    if plan.align_offset_micros is not None:
        return plan.align_offset_micros
    if plan.mode is ReplayMode.VIRTUAL:
        return 0
    return replay_start_micros - window_start_micros


class ReplayEngine:
    """Replays ReceivedBlocks in seq order (replay_block).

    The first block fixes the alignment offset from the replay start (the
    clock in real time, the first arrival on the virtual clock) and the
    first window's start, so consecutive windows replay back-to-back with
    zero drift.
    """

    def __init__(self, plan: ReplayPlan, log: SyncLog, clock: Clock | None = None):
        if plan.mode is ReplayMode.REAL_TIME and clock is None:
            raise ValueError("real-time replay needs a clock")
        self.plan = plan
        self.log = log
        self.clock = clock
        self.max_lateness_micros = 0
        self._offset: int | None = None
        self._last_completed: int | None = None
        self._last_seq: int | None = None

    @property
    def align_offset_micros(self) -> int | None:
        return self._offset

    def replay_block(self, block: ReceivedBlock) -> PacketBatch:
        """Replay the windows of a block, record their completion times in
        the sync log and return the replayed packets: shifted by the offset
        on the virtual clock, stamped with their emission times in real time."""
        seq = int(block.seqs[0])
        if self._last_seq is not None and seq <= self._last_seq:
            raise ValueError(f"window {seq} arrived after window {self._last_seq}")
        real_time = self.plan.mode is ReplayMode.REAL_TIME
        if self._offset is None:
            start = self.clock.now_micros() if real_time else int(block.t_received[0])
            self._offset = compute_alignment(self.plan, int(block.starts[0]), start)
            self._last_completed = start
        packets, ready = block.packets.shifted(self._offset), block.t_received
        if real_time:
            packets, ready = self._pace(block, packets)
        t_done = np.maximum.accumulate(np.maximum(ready, self._last_completed))
        self.log.record_replayed(block.seqs, t_done)
        self._last_seq, self._last_completed = int(block.seqs[-1]), int(t_done[-1])
        return packets

    def _pace(self, block: ReceivedBlock, packets: PacketBatch) -> tuple[PacketBatch, np.ndarray]:
        """Real time: emit the block's packets, whose timestamps are their
        targets, against the clock. Returns them stamped with their emission
        times, and when each window is ready: its arrival, or its last
        packet's emission if later."""
        targets = packets.ts_micros
        slot_micros = max(1, int(REPLAY_RESOLUTION_MICROS * self.plan.speed_factor))
        slots = targets // slot_micros
        firsts = np.flatnonzero(np.diff(slots, prepend=slots[:1] - 1))
        began = np.empty(len(firsts), dtype=np.int64)
        for slot, target in enumerate(targets[firsts].tolist()):
            wait = target - self.clock.now_micros()
            if wait > 0:
                self.clock.sleep_micros(wait)
            began[slot] = self.clock.now_micros()
        emitted = np.maximum(targets, np.repeat(began, np.diff(firsts, append=len(targets))))
        if len(emitted):
            self.max_lateness_micros = max(self.max_lateness_micros, int((emitted - targets).max()))
        ready = block.t_received.copy()
        ends = block.cuts[1:]
        filled = ends > block.cuts[:-1]
        ready[filled] = np.maximum(ready[filled], emitted[ends[filled] - 1])
        return packets.with_ts(emitted), ready

    def replay_window(self, window: CaptureWindow, t_received: int) -> PacketBatch:
        """One window, received at ``t_received``, replayed as a block of one.
        Nothing in the loop calls it; bench/tracing.py wraps this name."""
        packets = window.packets
        return self.replay_block(ReceivedBlock(
            np.array([window.seq]), np.array([window.start_ts_micros]), np.array([t_received], dtype=np.int64),
            np.array([0, len(packets)]), packets))
