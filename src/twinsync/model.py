"""Canonical descriptor of the twinned network plus shared value types.

The descriptor is the single artifact exchanged between the physical side
and its digital replica: the ingest stage produces it, every downstream
stage consumes it. PacketBatch is the one form packets take from
generation to binning. All types here are immutable value objects, safe
to share between concurrent pipeline stages. Durations are integer
microseconds everywhere except the descriptor's ``window_seconds``, which
is the operator-facing sync period in seconds.
"""

import ipaddress
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from .errors import DescriptorValidationError, JsonParseError, SchemaError

MICROS_PER_SECOND = 1_000_000

DEFAULT_CAPTURE_INTERFACE = "tun2"
DEFAULT_LINK_BANDWIDTH_BPS = 10_000_000
DEFAULT_WINDOW_SECONDS = 120.0


def seconds_to_micros(seconds: float) -> int:
    return int(round(seconds * MICROS_PER_SECOND))


@dataclass(frozen=True, slots=True)
class LinkProfile:
    """Shaping parameters of the emulated inter-host links."""

    bandwidth_bps: int = DEFAULT_LINK_BANDWIDTH_BPS
    latency_us: int = 0
    jitter_us: int = 0


@dataclass(frozen=True, slots=True)
class SliceSpec:
    """One network slice: a data network name plus its addressing and QoS."""

    dnn: str
    subnet: str
    gateway_ip: str
    dl_bandwidth_bps: int
    ul_bandwidth_bps: int
    qci: int


@dataclass(frozen=True, slots=True)
class TwinDescriptor:
    """Everything the digital side needs to replicate the physical network.

    ``window_seconds`` is the capture window length T: the physical side
    ships one traffic segment of this duration per sync cycle.
    """

    network_name: str
    plmn: str
    ue_count: int
    slices: tuple[SliceSpec, ...]
    window_seconds: float
    capture_interface: str = DEFAULT_CAPTURE_INTERFACE
    link_profile: LinkProfile = LinkProfile()

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))
        object.__setattr__(self, "window_seconds", float(self.window_seconds))

    @property
    def window_micros(self) -> int:
        return seconds_to_micros(self.window_seconds)


_U32_MAX = 0xFFFFFFFF


def first_index(mask: np.ndarray) -> int | None:
    """Index of the first True in a boolean array, or None."""
    if not mask.any():
        return None
    return int(mask.argmax())


class PacketBatch:
    """Many captured packets as columns: the one packet form of twinsync.

    ``ts_micros`` (int64), ``captured_len`` and ``original_len`` (uint32)
    hold one entry per packet, the fields of a pcap record header.
    Payloads live in one uint8 buffer: packet i owns the slot
    ``payload[offsets[i]:offsets[i + 1]]`` and its captured bytes are the
    first ``captured_len[i]`` bytes of that slot. A batch read from pcap
    bytes keeps them where they lie, record headers in between, without a
    copy.

    ``PacketBatch(...)`` checks columns that come from outside;
    ``trusted`` takes them as they are. A step-1 slice is a batch sharing
    this one's arrays and buffer. Batches are never modified in place.
    """

    __slots__ = ("ts_micros", "captured_len", "original_len", "payload", "offsets", "_ordered")

    def __init__(self, ts_micros, captured_len, original_len, payload, offsets):
        ts = np.asarray(ts_micros)
        cap = np.asarray(captured_len)
        orig = np.asarray(original_len)
        offs = np.asarray(offsets)
        buf = payload if isinstance(payload, np.ndarray) else np.frombuffer(payload, dtype=np.uint8)
        if buf.dtype != np.uint8 or buf.ndim != 1:
            raise ValueError("payload must be a 1-D buffer of bytes")
        n = len(ts)
        for name, col, size in (("captured_len", cap, n), ("original_len", orig, n), ("offsets", offs, n + 1)):
            if col.ndim != 1 or len(col) != size:
                raise ValueError(f"{name} must be a 1-D array of {size} entries")
        for col in (ts, cap, orig, offs):
            if n and col.dtype.kind not in "iu":
                raise ValueError("packet columns must hold integers")
        checks = (
            (ts < 0, "ts_micros must be non-negative"),
            ((cap < 0) | (cap > _U32_MAX), "captured_len out of 32-bit range"),
            ((orig < 0) | (orig > _U32_MAX), "original_len out of 32-bit range"),
            (cap > orig, "captured_len exceeds original_len"),
            (offs[1:] - offs[:-1] < cap, "payload slot shorter than captured_len"),
        )
        for mask, message in checks:
            index = first_index(mask)
            if index is not None:
                raise ValueError(f"packet {index}: {message}")
        if offs[0] < 0 or offs[-1] > len(buf):
            raise ValueError("payload offsets outside the payload buffer")
        self._set(ts.astype(np.int64, copy=False), cap.astype(np.uint32, copy=False),
                  orig.astype(np.uint32, copy=False), buf, offs.astype(np.int64, copy=False), None)

    def _set(self, ts, cap, orig, buf, offs, ordered):
        self.ts_micros = ts
        self.captured_len = cap
        self.original_len = orig
        self.payload = buf
        self.offsets = offs
        self._ordered = ordered

    @classmethod
    def trusted(cls, ts_micros, captured_len, original_len, payload, offsets,
                ordered: bool | None = None) -> "PacketBatch":
        """A batch from columns that already have the right dtypes and obey
        every rule __init__ checks; for producers that guarantee them by
        construction. ``ordered`` is whether timestamps are non-decreasing,
        None when not known."""
        batch = cls.__new__(cls)
        batch._set(ts_micros, captured_len, original_len, payload, offsets, ordered)
        return batch

    @classmethod
    def empty(cls) -> "PacketBatch":
        zero = np.zeros(0, dtype=np.int64)
        return cls.trusted(zero, zero.astype(np.uint32), zero.astype(np.uint32), zero.astype(np.uint8),
                           np.zeros(1, dtype=np.int64), True)

    @staticmethod
    def concat_sizes(batches: Iterable["PacketBatch"]) -> "PacketBatch":
        """The packets of all given batches, in order, without their payloads.

        Times and original lengths are kept; every captured length is 0,
        as if captured with a snap length of 0, so nothing is copied from
        the payload buffers. Only those two columns are read, so anything
        that has them will do in place of a batch.
        """
        batches = list(batches)
        if not batches:
            return PacketBatch.empty()
        ts = np.concatenate([b.ts_micros for b in batches], dtype=np.int64)
        return PacketBatch.trusted(
            ts, np.zeros(len(ts), dtype=np.uint32),
            np.concatenate([b.original_len for b in batches], dtype=np.uint32),
            np.zeros(0, dtype=np.uint8), np.zeros(len(ts) + 1, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.ts_micros)

    def __getitem__(self, index: slice) -> "PacketBatch":
        """The packets of a step-1 slice, sharing this batch's arrays and buffer."""
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("a packet batch slices with step 1 only")
        stop = max(start, stop)
        return PacketBatch.trusted(self.ts_micros[start:stop], self.captured_len[start:stop],
                                   self.original_len[start:stop], self.payload, self.offsets[start:stop + 1],
                                   self._ordered or None)

    def __repr__(self) -> str:
        return f"PacketBatch(<{len(self)} packets>)"

    def first_regression(self) -> int | None:
        """Index of the first packet whose timestamp is below its predecessor's,
        or None when timestamps never decrease. Whether they do is cached,
        and slices of an ordered batch inherit it."""
        ts = self.ts_micros
        if self._ordered is None:
            self._ordered = bool((ts[1:] >= ts[:-1]).all())
        if self._ordered:
            return None
        return int((ts[1:] < ts[:-1]).argmax()) + 1

    def with_ts(self, ts_micros: np.ndarray, ordered: bool | None = None) -> "PacketBatch":
        """The same packets with new timestamps (int64, one per packet)."""
        index = first_index(ts_micros < 0)
        if index is not None:
            raise ValueError(f"packet {index}: ts_micros must be non-negative")
        return PacketBatch.trusted(ts_micros, self.captured_len, self.original_len, self.payload, self.offsets,
                                   ordered)

    def shifted(self, offset_micros: int) -> "PacketBatch":
        """The same packets, every timestamp moved by ``offset_micros``."""
        if offset_micros == 0:
            return self
        return self.with_ts(self.ts_micros + offset_micros, self._ordered)


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken descriptor rule; data, not an exception."""

    field: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.rule} ({self.message})"


def _parse_network(text: str):
    return ipaddress.ip_network(text, strict=True)


def validate_descriptor(d: TwinDescriptor) -> list[Violation]:
    """Check every descriptor invariant, returning all violations found.

    Deterministic, and independent of slice order for the pairwise
    subnet-overlap rule.
    """
    out: list[Violation] = []

    def add(field_name: str, rule: str, message: str):
        out.append(Violation(field_name, rule, message))

    if not (d.plmn.isdigit() and 5 <= len(d.plmn) <= 6):
        add("plmn", "plmn-format", f"expected 5-6 decimal digits, got {d.plmn!r}")
    if not isinstance(d.ue_count, int) or isinstance(d.ue_count, bool) or d.ue_count < 0:
        add("ue_count", "ue-count-negative", f"must be a non-negative integer, got {d.ue_count!r}")
    if not d.window_seconds > 0:
        add("window_seconds", "window-not-positive", f"must be > 0, got {d.window_seconds!r}")
    if d.link_profile.bandwidth_bps <= 0:
        add("link_profile.bandwidth_bps", "bandwidth-not-positive", "must be > 0")
    if d.link_profile.latency_us < 0:
        add("link_profile.latency_us", "latency-negative", "must be >= 0")
    if d.link_profile.jitter_us < 0:
        add("link_profile.jitter_us", "jitter-negative", "must be >= 0")

    seen_dnn: dict[str, int] = {}
    parsed: dict[int, Any] = {}
    for i, s in enumerate(d.slices):
        where = f"slices[{i}]"
        if s.dnn in seen_dnn:
            add(f"{where}.dnn", "duplicate-dnn", f"dnn {s.dnn!r} also used by slices[{seen_dnn[s.dnn]}]")
        else:
            seen_dnn[s.dnn] = i
        try:
            parsed[i] = _parse_network(s.subnet)
        except ValueError as exc:
            add(f"{where}.subnet", "subnet-format", str(exc))
        try:
            gw = ipaddress.ip_address(s.gateway_ip)
        except ValueError as exc:
            add(f"{where}.gateway_ip", "gateway-format", str(exc))
        else:
            net = parsed.get(i)
            if net is not None and gw not in net:
                add(f"{where}.gateway_ip", "gateway-outside-subnet", f"{s.gateway_ip} not in {s.subnet}")
        if s.dl_bandwidth_bps <= 0:
            add(f"{where}.dl_bandwidth_bps", "bandwidth-not-positive", "must be > 0")
        if s.ul_bandwidth_bps <= 0:
            add(f"{where}.ul_bandwidth_bps", "bandwidth-not-positive", "must be > 0")
        if not 1 <= s.qci <= 9:
            add(f"{where}.qci", "qci-out-of-range", f"must be within [1, 9], got {s.qci}")

    # Pairwise check over index-sorted pairs: the set of findings does not
    # depend on slice order.
    indexes = sorted(parsed)
    for a_pos, i in enumerate(indexes):
        for j in indexes[a_pos + 1:]:
            a, b = parsed[i], parsed[j]
            if a.version == b.version and a.overlaps(b):
                add(f"slices[{j}].subnet", "subnet-overlap", f"{b} overlaps slices[{i}] subnet {a}")

    return out


# --- JSON form ------------------------------------------------------------
#
# Stable schema: top-level object with network_name, plmn, ue_count,
# capture_interface, window_seconds, link_profile{bandwidth_bps,
# latency_us, jitter_us} and slices[{dnn, subnet, gateway_ip,
# dl_bandwidth_bps, ul_bandwidth_bps, qci}].


def descriptor_to_json(d: TwinDescriptor) -> bytes:
    """Serialize a valid descriptor to its canonical UTF-8 JSON form."""
    violations = validate_descriptor(d)
    if violations:
        raise DescriptorValidationError(violations)
    doc = {
        "network_name": d.network_name,
        "plmn": d.plmn,
        "ue_count": d.ue_count,
        "capture_interface": d.capture_interface,
        "window_seconds": d.window_seconds,
        "link_profile": {
            "bandwidth_bps": d.link_profile.bandwidth_bps,
            "latency_us": d.link_profile.latency_us,
            "jitter_us": d.link_profile.jitter_us,
        },
        "slices": [
            {
                "dnn": s.dnn,
                "subnet": s.subnet,
                "gateway_ip": s.gateway_ip,
                "dl_bandwidth_bps": s.dl_bandwidth_bps,
                "ul_bandwidth_bps": s.ul_bandwidth_bps,
                "qci": s.qci,
            }
            for s in d.slices
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _require(obj: Mapping[str, Any], key: str, kind, path: str):
    if key not in obj:
        raise SchemaError(f"{path}{key}", "missing")
    value = obj[key]
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise SchemaError(f"{path}{key}", f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def parse_json_object(data: bytes | str) -> dict:
    """A JSON object from UTF-8 bytes or text. Raises JsonParseError with
    line/column on bytes that are not UTF-8 or text that is not JSON, and
    SchemaError when the document is not an object."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]
            line = head.count(b"\n") + 1
            column = exc.start - (head.rfind(b"\n") + 1) + 1
            raise JsonParseError("invalid UTF-8", line, column) from exc
    else:
        text = data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "expected a JSON object")
    return doc


def descriptor_from_json(data: bytes | str) -> TwinDescriptor:
    """Parse descriptor JSON back into a TwinDescriptor.

    Raises JsonParseError with line/column on malformed JSON and
    SchemaError naming the missing or ill-typed field otherwise.
    """
    doc = parse_json_object(data)
    lp_doc = _require(doc, "link_profile", dict, "")
    link_profile = LinkProfile(
        bandwidth_bps=_require(lp_doc, "bandwidth_bps", int, "link_profile."),
        latency_us=_require(lp_doc, "latency_us", int, "link_profile."),
        jitter_us=_require(lp_doc, "jitter_us", int, "link_profile."),
    )
    raw_slices = _require(doc, "slices", list, "")
    slices = []
    for i, item in enumerate(raw_slices):
        path = f"slices[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(path, "expected an object")
        slices.append(
            SliceSpec(
                dnn=_require(item, "dnn", str, path + "."),
                subnet=_require(item, "subnet", str, path + "."),
                gateway_ip=_require(item, "gateway_ip", str, path + "."),
                dl_bandwidth_bps=_require(item, "dl_bandwidth_bps", int, path + "."),
                ul_bandwidth_bps=_require(item, "ul_bandwidth_bps", int, path + "."),
                qci=_require(item, "qci", int, path + "."),
            )
        )
    return TwinDescriptor(
        network_name=_require(doc, "network_name", str, ""),
        plmn=_require(doc, "plmn", str, ""),
        ue_count=_require(doc, "ue_count", int, ""),
        slices=tuple(slices),
        window_seconds=float(_require(doc, "window_seconds", float, "")),
        capture_interface=_require(doc, "capture_interface", str, ""),
        link_profile=link_profile,
    )
