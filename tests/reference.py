"""Test-side helpers: a per-record packet form and the fixtures the product
does not need.

twinsync moves packets only as PacketBatch columns. The tests also build
packets one at a time and compare them field by field, so PacketRecord,
with the same checks the batch constructor makes, lives here, together
with the conversions to and from batches, a manual clock, a bundle
loader, an age-of-information sampler, a check of the sync log's time
order and a classifier of packet direction read from the generated IP
headers.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from twinsync.emit import (
    AMF_FILE,
    NSSF_FILE,
    SMF_FILE,
    TOPOLOGY_FILE,
    DeploymentBundle,
)
from twinsync.pcap import PacketBatch
from twinsync.transport import SyncLogEntry

SERVER_IP = bytes([203, 0, 113, 1])


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One captured packet, the fields of a pcap record."""

    ts_micros: int
    captured_len: int
    original_len: int
    payload: bytes

    def __post_init__(self):
        if self.ts_micros < 0:
            raise ValueError("ts_micros must be non-negative")
        if not 0 <= self.captured_len <= 0xFFFFFFFF:
            raise ValueError("captured_len out of 32-bit range")
        if not 0 <= self.original_len <= 0xFFFFFFFF:
            raise ValueError("original_len out of 32-bit range")
        if self.captured_len > self.original_len:
            raise ValueError("captured_len exceeds original_len")
        if len(self.payload) != self.captured_len:
            raise ValueError("payload length differs from captured_len")


def batch_of(records) -> PacketBatch:
    """The batch of a sequence of records, payloads back to back, built
    through the checked constructor."""
    records = list(records)
    cap = np.array([r.captured_len for r in records], dtype=np.int64)
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(cap, out=offsets[1:])
    return PacketBatch(
        np.array([r.ts_micros for r in records], dtype=np.int64),
        cap,
        np.array([r.original_len for r in records], dtype=np.int64),
        np.frombuffer(b"".join(r.payload for r in records), dtype=np.uint8),
        offsets,
    )


def records_of(batch: PacketBatch) -> list[PacketRecord]:
    """Every packet of a batch as a record, in order."""
    payload = batch.payload
    return [PacketRecord(ts, cap, orig, payload[start:start + cap].tobytes())
            for ts, cap, orig, start in zip(batch.ts_micros.tolist(), batch.captured_len.tolist(),
                                            batch.original_len.tolist(), batch.offsets.tolist())]


class ManualClock:
    """Deterministic clock where sleeping simply advances time."""

    def __init__(self, start_micros: int = 0):
        self._now = start_micros

    def now_micros(self) -> int:
        return self._now

    def sleep_micros(self, duration_micros: int) -> None:
        if duration_micros > 0:
            self._now += duration_micros


def load_bundle(directory: Path) -> DeploymentBundle:
    """Re-parse a bundle that emit.render_bundle wrote."""
    directory = Path(directory)
    docs = {name: yaml.safe_load((directory / name).read_text(encoding="utf-8"))
            for name in (SMF_FILE, NSSF_FILE, AMF_FILE)}
    topology = json.loads((directory / TOPOLOGY_FILE).read_text(encoding="utf-8"))
    return DeploymentBundle(docs[SMF_FILE], docs[NSSF_FILE], docs[AMF_FILE], topology)


def aoi_at(entries: list[SyncLogEntry], origin: int, t: int) -> int:
    """Age of information at ``t``: t minus the newest window end replayed
    by t, or minus ``origin`` before the first replay."""
    ends = [e.t_window_end for e in entries if e.delivered and e.t_replayed is not None and e.t_replayed <= t]
    return t - max(ends, default=origin)


def out_of_order_seqs(entries: list[SyncLogEntry]) -> list[int]:
    """Seqs whose timestamps violate end <= sent <= received <= replayed."""
    bad = []
    for e in entries:
        present = [t for t in (e.t_window_end, e.t_sent, e.t_received, e.t_replayed) if t is not None]
        if any(b < a for a, b in zip(present, present[1:])):
            bad.append(e.seq)
    return bad


def downlink_mask(batch: PacketBatch) -> np.ndarray:
    """Per packet, whether it goes from the server to a phone: its IPv4
    source address (bytes 12-15 of the generated header) is the server's."""
    if len(batch) and int(batch.captured_len.min()) < 20:
        raise ValueError("a packet captured too short to hold its IP addresses")
    src = batch.payload[batch.offsets[:-1, None] + np.arange(12, 16)]
    return (src == np.frombuffer(SERVER_IP, dtype=np.uint8)).all(axis=1)


def volume_bytes(batch: PacketBatch, downlink: bool) -> int:
    """Total original bytes going one way."""
    return int(batch.original_len[downlink_mask(batch) == downlink].sum(dtype=np.int64))
