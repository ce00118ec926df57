"""Replay of received windows into the twin's measurement sink.

Two modes:

* virtual-clock: a window's packets are emitted at once, as one batch
  with every timestamp shifted by the alignment offset. Exact, fast,
  fully deterministic; this is what CI and fidelity runs use.
* real-time: inter-packet gaps are actually slept (scaled by
  1/speed_factor) against an injected clock, tcpreplay style. Scheduler
  lateness is measured per packet and reported, never folded silently
  into timestamps.

Either way a sink receives each replayed window once, as a
ReplayedTrace. Payload bytes always pass through untouched; replay
fidelity is the whole point of the loop.
"""

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clocks import Clock
from .model import PacketBatch, PacketRecord
from .pcap import CaptureWindow, write_pcap
from .transport import SyncLog


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
        if self.speed_factor <= 0:
            raise ValueError("speed_factor must be positive")


@dataclass(frozen=True, slots=True)
class ReplayedTrace:
    """Output of one window's replay, timestamps already aligned."""

    window_seq: int
    records: PacketBatch
    lateness_micros: tuple[int, ...]
    t_replayed_micros: int

    @property
    def max_lateness_micros(self) -> int:
        return max(self.lateness_micros, default=0)


def compute_alignment(plan: ReplayPlan, window: CaptureWindow, replay_start_micros: int) -> int:
    """Offset mapping replayed timestamps onto the physical timeline.

    An explicit offset wins. Virtual-clock replay needs no shift.
    Real-time replay anchors the first window's start to the moment its
    replay began, so the offset is that moment minus the window start.
    """
    if plan.align_offset_micros is not None:
        return plan.align_offset_micros
    if plan.mode is ReplayMode.VIRTUAL:
        return 0
    return replay_start_micros - window.start_ts_micros


class PacketSink:
    """Consumer of replayed windows; subclass what the run needs."""

    def window_complete(self, trace: ReplayedTrace) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class CollectingSink(PacketSink):
    """Accumulates everything in memory, for metrics and tests."""

    def __init__(self):
        self.traces: list[ReplayedTrace] = []

    @property
    def records(self) -> list[PacketRecord]:
        """Every replayed packet, in replay order."""
        return [r for t in self.traces for r in t.records]

    def window_complete(self, trace: ReplayedTrace) -> None:
        self.traces.append(trace)


class PcapDirectorySink(PacketSink):
    """Persists each replayed window as replayed_<seq>.pcap."""

    def __init__(self, directory, linktype: int = 101):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.linktype = linktype
        self.paths: list = []

    def window_complete(self, trace: ReplayedTrace) -> None:
        path = self.directory / f"replayed_{trace.window_seq}.pcap"
        path.write_bytes(write_pcap(self.linktype, trace.records))
        self.paths.append(path)


class TeeSink(PacketSink):
    def __init__(self, *sinks: PacketSink):
        self.sinks = sinks

    def window_complete(self, trace: ReplayedTrace) -> None:
        for s in self.sinks:
            s.window_complete(trace)


class ReplayEngine:
    """Replays windows one at a time, in seq order, into a sink.

    The alignment offset is frozen on the first window so consecutive
    windows replay back-to-back with zero drift.
    """

    def __init__(self, plan: ReplayPlan, sink: PacketSink, log: SyncLog, clock: Clock | None = None):
        if plan.mode is ReplayMode.REAL_TIME and clock is None:
            raise ValueError("real-time replay needs a clock")
        self.plan = plan
        self.sink = sink
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
        """Replay one window; records its completion time in the sync log."""
        if self._last_seq is not None and window.seq <= self._last_seq:
            raise ValueError(f"window {window.seq} arrived after window {self._last_seq}")
        self._last_seq = window.seq

        if self.plan.mode is ReplayMode.VIRTUAL:
            trace = self._replay_virtual(window, t_available_micros)
        else:
            trace = self._replay_real_time(window)
        self.log.record_replayed(window.seq, trace.t_replayed_micros)
        self._last_completed = trace.t_replayed_micros
        self.sink.window_complete(trace)
        return trace

    def _replay_virtual(self, window: CaptureWindow, t_available: int) -> ReplayedTrace:
        if self._offset is None:
            self._offset = compute_alignment(self.plan, window, t_available)
        packets = window.packets.shifted(self._offset)
        t_done = t_available if self._last_completed is None else max(t_available, self._last_completed)
        return ReplayedTrace(window.seq, packets, (0,) * len(packets), t_done)

    def _replay_real_time(self, window: CaptureWindow) -> ReplayedTrace:
        assert self.clock is not None
        if self._anchor_wall is None:
            self._anchor_wall = self.clock.now_micros()
            self._first_window_start = window.start_ts_micros
            self._offset = compute_alignment(self.plan, window, self._anchor_wall)
        emitted = []
        lateness = []
        for ts in window.packets.ts_micros.tolist():
            target = self._anchor_wall + int((ts - self._first_window_start) / self.plan.speed_factor)
            wait = target - self.clock.now_micros()
            if wait > 0:
                self.clock.sleep_micros(wait)
            emitted_at = max(target, self.clock.now_micros())
            emitted.append(emitted_at)
            lateness.append(max(0, emitted_at - target))
        t_done = self.clock.now_micros()
        packets = window.packets.with_ts(np.array(emitted, dtype=np.int64))
        return ReplayedTrace(window.seq, packets, tuple(lateness), t_done)
