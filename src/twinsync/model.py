"""Canonical descriptor of the twinned network: types, validation, JSON.

The descriptor is the single artifact exchanged between the physical side
and its digital replica: the ingest stage produces it, every downstream
stage consumes it. This module needs only the standard library, so the
config side (ingest, emit) starts without numpy; packets are
pcap.PacketBatch. All types here are immutable value objects, safe to
share between concurrent pipeline stages. Durations are integer
microseconds everywhere except the descriptor's ``window_seconds``, which
is the operator-facing sync period in seconds.
"""

import ipaddress
import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

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
    # The loop counts time in whole microseconds: a shorter window rounds to 0.
    if not (0 < d.window_seconds < math.inf and d.window_micros >= 1):
        add("window_seconds", "window-not-positive", f"must be at least 1 us, got {d.window_seconds!r}")
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


def _fields(cls, obj: Mapping[str, Any], path: str) -> dict:
    """Every annotated field of ``cls`` read from ``obj`` with _require, in
    declaration order."""
    return {name: _require(obj, name, kind, path) for name, kind in cls.__annotations__.items()}


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
    link_profile = LinkProfile(**_fields(LinkProfile, _require(doc, "link_profile", dict, ""), "link_profile."))
    slices = []
    for i, item in enumerate(_require(doc, "slices", list, "")):
        path = f"slices[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(path, "expected an object")
        slices.append(SliceSpec(**_fields(SliceSpec, item, path + ".")))
    return TwinDescriptor(
        network_name=_require(doc, "network_name", str, ""),
        plmn=_require(doc, "plmn", str, ""),
        ue_count=_require(doc, "ue_count", int, ""),
        slices=tuple(slices),
        window_seconds=float(_require(doc, "window_seconds", float, "")),
        capture_interface=_require(doc, "capture_interface", str, ""),
        link_profile=link_profile,
    )
