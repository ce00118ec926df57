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
