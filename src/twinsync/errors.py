"""Exception types shared across the package.

Every error carries structured attributes (line/column, field path, byte
offset, ...) so callers and the CLI can report precise diagnostics and map
failures onto stable exit codes.
"""


class TwinError(Exception):
    """Base class for every error raised by twinsync."""


class JsonParseError(TwinError):
    """Malformed JSON input; points at the offending line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(TwinError):
    """Structurally valid JSON that violates a documented schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


class ConfigSyntaxError(TwinError):
    """Syntax error in a physical-twin configuration file."""

    def __init__(self, message: str, line: int, column: int, expected: str = ""):
        detail = f"{message} (line {line}, column {column})"
        if expected:
            detail += f"; expected {expected}"
        super().__init__(detail)
        self.line = line
        self.column = column
        self.expected = expected


class ExtractionError(TwinError):
    """Required data missing from a parsed physical configuration."""

    def __init__(self, path: str, message: str = "required value missing"):
        super().__init__(f"{path}: {message}")
        self.path = path


class DescriptorValidationError(TwinError):
    """A descriptor failed validation; carries the full violation list."""

    def __init__(self, violations):
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"descriptor invalid: {lines}")
        self.violations = list(violations)


class PcapError(TwinError):
    """Base class for capture-file format errors."""


class BadMagicError(PcapError):
    def __init__(self, magic: int):
        super().__init__(f"not a pcap file (magic 0x{magic:08x})")
        self.magic = magic


class TruncatedRecordError(PcapError):
    def __init__(self, offset: int, what: str = "record"):
        super().__init__(f"truncated {what} at byte offset {offset}")
        self.offset = offset


class PcapWriteError(PcapError):
    def __init__(self, index: int, message: str):
        super().__init__(f"packet {index}: {message}")
        self.index = index


class TimestampRegressionError(TwinError):
    def __init__(self, index: int, message: str = "timestamp regression"):
        super().__init__(f"packet {index}: {message}")
        self.index = index


class ChannelClosedError(TwinError):
    """Send attempted on a channel that was already closed."""


class DigestMismatchError(TwinError):
    def __init__(self, seq: int):
        super().__init__(f"window {seq}: content digest mismatch")
        self.seq = seq


class ForeignWindowError(TwinError):
    """A window this run never sent, or sent with other bounds."""

    def __init__(self, seq: int, message: str = "was never sent in this run"):
        super().__init__(f"window {seq}: {message}")
        self.seq = seq


class MetricsError(TwinError):
    """A metric was asked for inputs it is undefined on."""


class StageError(TwinError):
    """Wraps the first failure inside one stage of the end-to-end run.

    ``later`` holds the (stage, exception) pairs of failures that followed
    it, in the order they happened.
    """

    def __init__(self, stage: str, cause: BaseException, later: tuple = ()):
        message = f"stage '{stage}' failed: {cause}"
        for later_stage, exc in later:
            message += f"; then stage '{later_stage}' failed: {exc}"
        super().__init__(message)
        self.stage = stage
        self.cause = cause
        self.later = later
