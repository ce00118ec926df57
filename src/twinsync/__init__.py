"""twinsync: keep a digital replica of a private 5G network in step with
the real one by shipping fixed-length traffic windows across a measured
channel, replaying them, and scoring how faithful the replica is.

Importing the package loads only the descriptor: the config side (ingest,
emit) needs nothing else, and the run loop, which needs numpy, is imported
from its own modules."""

from .model import (
    LinkProfile,
    SliceSpec,
    TwinDescriptor,
    descriptor_from_json,
    descriptor_to_json,
    validate_descriptor,
)

__version__ = "0.1.0"

__all__ = [
    "LinkProfile",
    "SliceSpec",
    "TwinDescriptor",
    "descriptor_from_json",
    "descriptor_to_json",
    "validate_descriptor",
    "__version__",
]
