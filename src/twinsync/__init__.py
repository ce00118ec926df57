"""twinsync: keep a digital replica of a private 5G network in step with
the real one by shipping fixed-length traffic windows across a measured
channel, replaying them, and scoring how faithful the replica is."""

from .model import (
    LinkProfile,
    PacketBatch,
    SliceSpec,
    TwinDescriptor,
    descriptor_from_json,
    descriptor_to_json,
    validate_descriptor,
)
from .pcap import CaptureWindow, read_pcap, segment_stream, write_pcap
from .transport import ChannelSpec, SyncLog, WindowManifest
from .replay import ReplayMode, ReplayPlan
from .metrics import FidelityReport, ThroughputSeries, compare_series, throughput_series
from .scenarios import ScenarioSpec, generate

__version__ = "0.1.0"

__all__ = [
    "CaptureWindow",
    "ChannelSpec",
    "FidelityReport",
    "LinkProfile",
    "PacketBatch",
    "ReplayMode",
    "ReplayPlan",
    "ScenarioSpec",
    "SliceSpec",
    "SyncLog",
    "ThroughputSeries",
    "TwinDescriptor",
    "WindowManifest",
    "compare_series",
    "descriptor_from_json",
    "descriptor_to_json",
    "generate",
    "read_pcap",
    "segment_stream",
    "throughput_series",
    "validate_descriptor",
    "write_pcap",
    "__version__",
]
