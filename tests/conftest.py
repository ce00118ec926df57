import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import strategies as st

from twinsync.model import LinkProfile, SliceSpec, TwinDescriptor

from reference import PacketRecord

FIXTURES = Path(__file__).parent / "fixtures"


class DeadlineExpired(BaseException):
    """Raised by deadline(); a BaseException, so no handler in the loop takes it."""


@contextmanager
def deadline(seconds: int = 30):
    """Fail the test instead of letting a stuck loop hang: a blocking queue
    get, lock acquire (thread.join) or socket recv in the main thread is
    interrupted once ``seconds`` have passed. Also a test decorator."""
    def expire(signum, frame):
        raise DeadlineExpired(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def descriptor() -> TwinDescriptor:
    return TwinDescriptor(
        network_name="lab-campus-5g",
        plmn="00101",
        ue_count=2,
        slices=(
            SliceSpec("internet", "10.45.0.0/16", "10.45.0.1", 10_000_000, 10_000_000, 9),
            SliceSpec("mec", "10.46.0.0/16", "10.46.0.1", 20_000_000, 5_000_000, 7),
        ),
        window_seconds=10.0,
        link_profile=LinkProfile(),
    )


def make_packet(ts_micros: int, size: int = 60, fill: bytes = b"\x00") -> PacketRecord:
    return PacketRecord(ts_micros, size, size, fill * size)


# hypothesis strategies shared between modules

def packet_records(max_ts: int = 4_000_000) -> st.SearchStrategy:
    @st.composite
    def _one(draw):
        ts = draw(st.integers(min_value=0, max_value=max_ts))
        payload = draw(st.binary(min_size=0, max_size=64))
        extra = draw(st.integers(min_value=0, max_value=32))
        return PacketRecord(ts, len(payload), len(payload) + extra, payload)

    return _one()


def packet_lists(max_len: int = 20) -> st.SearchStrategy:
    return st.lists(packet_records(), max_size=max_len).map(
        lambda records: sorted(records, key=lambda r: r.ts_micros)
    )
