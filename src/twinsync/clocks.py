"""Clock sources, injectable so time-dependent code stays testable."""

import threading
import time
from typing import Protocol


class Clock(Protocol):
    def now_micros(self) -> int: ...

    def sleep_micros(self, duration_micros: int) -> None: ...


class MonotonicClock:
    """A run's one clock, backed by time.monotonic_ns: it reads
    ``origin_micros`` when built and then advances ``speed_factor``
    microseconds per wall microsecond, so a real-time run keeps capture
    time and only its sleeps are wall time."""

    def __init__(self, origin_micros: int, speed_factor: float = 1.0):
        self._start = time.monotonic_ns() // 1000
        self._origin = origin_micros
        self._speed = speed_factor

    def now_micros(self) -> int:
        return self._origin + int((time.monotonic_ns() // 1000 - self._start) * self._speed)

    def _wall_seconds(self, duration_micros: int) -> float:
        return duration_micros / self._speed / 1_000_000

    def sleep_micros(self, duration_micros: int) -> None:
        if duration_micros > 0:
            time.sleep(self._wall_seconds(duration_micros))

    def wait_until(self, t_micros: int, stop: threading.Event) -> bool:
        """Wait until the clock reads ``t_micros`` or ``stop`` is set;
        returns whether ``stop`` is set."""
        while (wait := t_micros - self.now_micros()) > 0:
            if stop.wait(self._wall_seconds(wait)):
                return True
        return stop.is_set()
