"""Twin-fidelity metrics.

Everything here but the throughput accumulator is a pure function over
immutable inputs: throughput binning, the alignment ratio, update
latency, age-of-information, the series comparison (lag search + error
measures) and the configuration consistency audit. Packets come as a
PacketBatch, or as the parts of one, and the sync log as the columns
SyncLog.columns() returns, so each metric is a few array passes.
Throughput is binned as packets pass: ThroughputBins takes them a part
and a slice at a time, so a run bins each chunk of its trace and each
replayed block and keeps neither, and throughput_series is its one-shot
use. Bins use half-open intervals with boundary points in the later
bin, the same convention the capture segmentation uses.
"""

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .emit import DeploymentBundle
from .errors import MetricsError
from .model import MICROS_PER_SECOND, TwinDescriptor
from .pcap import PacketBatch
from .transport import SyncLogColumns


@dataclass(frozen=True, slots=True)
class ThroughputSeries:
    """Bits/s per fixed-width time bin, the comparand of twin fidelity."""

    origin_ts_micros: int
    bin_width_micros: int
    bins: tuple[float, ...]

    def to_csv_bytes(self) -> bytes:
        lines = ["t_seconds,bits_per_second"]
        for k, value in enumerate(self.bins):
            t = (self.origin_ts_micros + k * self.bin_width_micros) / MICROS_PER_SECOND
            lines.append(f"{t},{value}")
        return ("\n".join(lines) + "\n").encode("utf-8")


# Packets binned per pass: the index and mask of a slice stay small
# whatever the length of the input.
_BIN_SLICE_PACKETS = 1 << 16


def _bin_count(span_micros: int, bin_width_micros: int) -> int:
    return -(-span_micros // bin_width_micros) if span_micros > 0 else 0


class ThroughputBins:
    """Packet volume per fixed-width time bin, added as packets pass.

    Bin k collects original_len bytes of packets with ts in
    [origin + k*w, origin + (k+1)*w). Packets before the origin, or past
    ``span_micros`` when one is given, are counted but not binned; without
    a span the bins grow to the last packet. ``packets`` counts every
    packet added and ``last_ts_micros`` is the latest timestamp, None
    before any. Float sums of integer byte counts are exact below 2**53
    bytes per bin, so the bins hold the same bits whatever parts and
    slices the packets came in.
    """

    def __init__(self, origin_ts_micros: int, bin_width_micros: int, span_micros: int | None = None):
        if bin_width_micros <= 0:
            raise ValueError("bin_width_micros must be positive")
        self.origin_ts_micros = origin_ts_micros
        self.bin_width_micros = bin_width_micros
        self._limit = None if span_micros is None else _bin_count(span_micros, bin_width_micros)
        self._bytes = np.zeros(self._limit or 0)
        self.packets = 0
        self.last_ts_micros: int | None = None

    def add(self, packets) -> None:
        """Bin ``packets``, anything with ``ts_micros`` and ``original_len`` columns."""
        ts_all, sizes = packets.ts_micros, packets.original_len
        if not len(ts_all):
            return
        self.packets += len(ts_all)
        last = int(ts_all.max())
        self.last_ts_micros = last if self.last_ts_micros is None else max(self.last_ts_micros, last)
        origin, width = self.origin_ts_micros, self.bin_width_micros
        for first in range(0, len(ts_all), _BIN_SLICE_PACKETS):
            ts = ts_all[first:first + _BIN_SLICE_PACKETS]
            index = (ts - origin) // width
            inside = ts >= origin
            if self._limit is not None:
                inside &= index < self._limit
            index = index[inside]
            if not len(index):
                continue
            low = int(index.min())
            index -= low
            sums = np.bincount(index, weights=sizes[first:first + _BIN_SLICE_PACKETS][inside])
            if low + len(sums) > len(self._bytes):
                grown = np.zeros(max(low + len(sums), 2 * len(self._bytes)))
                grown[:len(self._bytes)] = self._bytes
                self._bytes = grown
            self._bytes[low:low + len(sums)] += sums

    def series(self, span_micros: int | None = None) -> ThroughputSeries:
        """Bits/s per bin over ``span_micros`` from the origin; without a
        span, up to the last packet added."""
        if span_micros is None:
            span_micros = 0 if self.last_ts_micros is None else self.last_ts_micros - self.origin_ts_micros + 1
        n_bins = _bin_count(span_micros, self.bin_width_micros)
        byte_bins = np.zeros(n_bins)
        kept = self._bytes[:n_bins]
        byte_bins[:len(kept)] = kept
        scale = 8 * MICROS_PER_SECOND / self.bin_width_micros
        return ThroughputSeries(
            origin_ts_micros=self.origin_ts_micros,
            bin_width_micros=self.bin_width_micros,
            bins=tuple((byte_bins * scale).tolist()),
        )


def throughput_series(
    packets: PacketBatch | Sequence,
    bin_width_micros: int = MICROS_PER_SECOND,
    origin_ts_micros: int = 0,
    span_micros: int | None = None,
) -> ThroughputSeries:
    """Bin packet volume into a bits/s series: ThroughputBins, at once.

    ``packets`` is one PacketBatch, or a sequence of parts that each have
    ``ts_micros`` and ``original_len`` columns, binned as their
    concatenation would be. Packets outside the span are not an error;
    they are skipped. Without a span, the series reaches the last packet.
    """
    bins = ThroughputBins(origin_ts_micros, bin_width_micros, span_micros)
    for part in [packets] if isinstance(packets, PacketBatch) else packets:
        bins.add(part)
    return bins.series(span_micros)


def delivered_in_observation(log: SyncLogColumns, observation: tuple[int, int]) -> int:
    """Delivered windows whose capture interval ends inside the observation
    interval: late final windows still count."""
    start, end = observation
    ends = log.t_window_end
    return int(np.count_nonzero(log.delivered & (ends > start) & (ends <= end)))


def twin_alignment_ratio(delivered: int, planned_period_micros: int, observation: tuple[int, int]) -> float:
    """Achieved over planned twinning frequency, clamped to 1.

    ``delivered`` counts the achieved windows: delivered_in_observation.
    """
    start, end = observation
    if end <= start:
        raise MetricsError("observation interval must have positive length")
    if planned_period_micros <= 0:
        raise MetricsError("planned period must be positive")
    # Single division keeps the ratio exact when the observation length is
    # a whole number of periods: achieved_hz / planned_hz folds to this.
    return min(delivered * planned_period_micros / (end - start), 1.0)


@dataclass(frozen=True, slots=True)
class LatencyStats:
    mean_micros: float
    max_micros: int


def update_latency(log: SyncLogColumns) -> LatencyStats:
    """Replay completion minus window end, over the delivered windows."""
    done = log.delivered & log.replayed
    values = log.t_replayed[done] - log.t_window_end[done]
    if not len(values):
        raise MetricsError("no replayed windows in the log")
    return LatencyStats(int(values.sum()) / len(values), int(values.max()))


@dataclass(frozen=True, slots=True)
class AoiStats:
    """Age-of-information sawtooth: exact mean and peak."""

    mean_micros: float
    peak_micros: int


def age_of_information(log: SyncLogColumns, origin_ts_micros: int, horizon_micros: int) -> AoiStats:
    """Age of the freshest replayed data, over [origin, horizon].

    AoI(t) is t minus the end timestamp of the newest window replayed by
    t; before the first replay it is measured from the run origin. Mean
    and peak are computed exactly from the piecewise-linear sawtooth: the
    area is the sequential float sum of one trapezoid per replay instant,
    in time order.
    """
    done = log.delivered & log.replayed
    t_replayed, window_end = log.t_replayed[done], log.t_window_end[done]
    order = np.lexsort((window_end, t_replayed))
    t_replayed = t_replayed[order]
    # The freshest data at time t is the max window end replayed by t; of
    # the windows replayed at one instant, the last in this order holds it.
    newest_end = np.maximum.accumulate(window_end[order])
    last = np.ones(len(t_replayed), dtype=bool)
    last[:-1] = t_replayed[1:] != t_replayed[:-1]
    times, newest_end = t_replayed[last], newest_end[last]

    # Instants up to the origin only set the age at the origin; those past
    # the horizon do not count. Between instants, age grows with slope 1.
    first, stop = np.searchsorted(times, [origin_ts_micros, horizon_micros], side="right")
    age_at_origin = origin_ts_micros - int(newest_end[first - 1]) if first else 0
    times, newest_end = times[first:stop], newest_end[first:stop]
    age_after = times - newest_end  # the age right after each instant
    times = np.append(times, horizon_micros)
    t_prev = np.concatenate(([origin_ts_micros], times[:-1]))
    age_prev = np.concatenate(([age_at_origin], age_after))
    length = times - t_prev
    if length[-1] <= 0:  # nothing left after the last instant
        length, age_prev = length[:-1], age_prev[:-1]
    top = age_prev + length
    peak = max(0, int(top.max(initial=0)), int(age_after.max(initial=0)))
    # cumsum adds in order, one float64 addition per trapezoid.
    areas = (age_prev + top) / 2 * length
    total_area = float(np.cumsum(areas)[-1]) if len(areas) else 0.0
    span = horizon_micros - origin_ts_micros
    # An empty span holds no instant after the origin.
    mean = total_area / span if span > 0 else float(age_at_origin)
    return AoiStats(mean, peak)


@dataclass(frozen=True, slots=True)
class SeriesComparison:
    rmse_bps: float
    nrmse: float | None
    pearson_r: float
    estimated_lag_bins: int
    estimated_lag_micros: int


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson r, or None where it is undefined: a side of zero variance
    that differs from the other.

    Identical arrays short-circuit to exactly 1.0 (no float noise).
    """
    if np.array_equal(x, y):
        return 1.0
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    return max(-1.0, min(1.0, r))


def compare_series(npt: ThroughputSeries, ndt: ThroughputSeries, max_lag_bins: int,
                   min_lag_bins: int | None = None) -> SeriesComparison:
    """Similarity of the physical-side and twin-side throughput series.

    The lag estimate is the integer bin shift within [min_lag_bins,
    max_lag_bins] (min_lag_bins defaults to -max_lag_bins) maximizing
    normalized cross-correlation; rmse, nrmse and pearson_r are computed
    on the lag-corrected overlap. Only lags whose overlap covers at least
    half the shorter series, and 2 bins, and where pearson_r is defined
    are scored: a few bins at the series' ends can correlate perfectly by
    chance. Positive lag means the twin series trails the physical one.
    """
    if npt.bin_width_micros != ndt.bin_width_micros:
        raise MetricsError(
            f"bin width mismatch: {npt.bin_width_micros} vs {ndt.bin_width_micros}"
        )
    x = np.asarray(npt.bins, dtype=float)
    y = np.asarray(ndt.bins, dtype=float)
    if min_lag_bins is None:
        min_lag_bins = -max_lag_bins

    scored: list[tuple[float, int]] = []
    need = max(2, -(-min(len(x), len(y)) // 2))
    # Lags past these bounds overlap by under ``need`` bins, so a huge
    # bound costs no more than the series' own lengths.
    for s in range(max(min_lag_bins, need - len(x)), min(max_lag_bins, len(y) - need) + 1):
        i0 = max(0, -s)
        i1 = min(len(x), len(y) - s)
        if i1 - i0 < need:
            continue
        r = _pearson(x[i0:i1], y[i0 + s:i1 + s])
        if r is not None:
            scored.append((r, s))
    if not scored:
        raise MetricsError("series overlap is under 2 bins at every candidate lag")

    scored.sort(key=lambda item: (-item[0], abs(item[1]), item[1]))
    r, lag = scored[0]

    i0 = max(0, -lag)
    i1 = min(len(x), len(y) - lag)
    xs = x[i0:i1]
    ys = y[i0 + lag:i1 + lag]
    rmse = float(np.sqrt(np.mean((xs - ys) ** 2)))
    spread = float(x.max() - x.min()) if len(x) else 0.0
    return SeriesComparison(
        rmse_bps=rmse,
        nrmse=None if spread == 0.0 else rmse / spread,
        pearson_r=r,
        estimated_lag_bins=lag,
        estimated_lag_micros=lag * npt.bin_width_micros,
    )


# Fields audited per slice by the consistency index, against the session
# entries of the emitted bundle.
_SLICE_AUDIT = (
    ("dnn", "dnn"),
    ("subnet", "subnet"),
    ("gateway_ip", "gateway"),
    ("dl_bandwidth_bps", "dl_bandwidth_bps"),
    ("ul_bandwidth_bps", "ul_bandwidth_bps"),
    ("qci", "qos_index"),
)


def audited_field_count(d: TwinDescriptor) -> int:
    return 2 + len(_SLICE_AUDIT) * len(d.slices)


def state_consistency_index(d: TwinDescriptor, bundle: DeploymentBundle) -> float:
    """Fraction of audited configuration fields matching descriptor vs bundle.

    Audits plmn and ue_count globally plus dnn, subnet, gateway and both
    bandwidths and the QoS index per slice, matching slices by position.
    """
    amf = bundle.amf_doc.get("amf", {}) if isinstance(bundle.amf_doc, dict) else {}
    sessions = []
    if isinstance(bundle.smf_doc, dict):
        sessions = bundle.smf_doc.get("smf", {}).get("sessions", []) or []
    matches = 0
    total = audited_field_count(d)
    if amf.get("plmn") == d.plmn:
        matches += 1
    if amf.get("ue_count") == d.ue_count:
        matches += 1
    for i, s in enumerate(d.slices):
        session = sessions[i] if i < len(sessions) and isinstance(sessions[i], dict) else {}
        for attr, key in _SLICE_AUDIT:
            if session.get(key) == getattr(s, attr):
                matches += 1
    return matches / total


@dataclass(frozen=True, slots=True)
class FidelityReport:
    """All evaluation metrics of one capture/transfer/replay run."""

    twin_alignment_ratio: float
    mean_update_latency_us: float | None
    max_update_latency_us: int | None
    mean_age_of_information_us: float
    peak_age_of_information_us: int
    sync_frequency_hz: float
    rmse_bps: float | None
    nrmse: float | None
    pearson_r: float | None
    estimated_lag_us: int | None
    consistency_index: float
    windows_lost: int

    def as_dict(self) -> dict:
        """The metrics by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_csv_bytes(self) -> bytes:
        metrics = self.as_dict()
        header = ",".join(metrics)
        row = ",".join("" if v is None else str(v) for v in metrics.values())
        return (header + "\n" + row + "\n").encode("utf-8")
