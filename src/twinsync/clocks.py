"""Clock sources, injectable so time-dependent code stays testable."""

import time
from typing import Protocol


class Clock(Protocol):
    def now_micros(self) -> int: ...

    def sleep_micros(self, duration_micros: int) -> None: ...


class MonotonicClock:
    """Wall clock backed by time.monotonic_ns."""

    def now_micros(self) -> int:
        return time.monotonic_ns() // 1000

    def sleep_micros(self, duration_micros: int) -> None:
        if duration_micros > 0:
            time.sleep(duration_micros / 1_000_000)


class ManualClock:
    """Deterministic clock where sleeping simply advances time."""

    def __init__(self, start_micros: int = 0):
        self._now = start_micros

    def now_micros(self) -> int:
        return self._now

    def sleep_micros(self, duration_micros: int) -> None:
        if duration_micros > 0:
            self._now += duration_micros
