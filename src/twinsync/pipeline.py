"""End-to-end orchestration of one capture/transfer/replay run.

Simulated traffic is cut into windows; each window is packed and sent
over the transfer channel, received in order and replayed, and the
replayed traces are scored. The loop pulls the trace a chunk of whole
windows at a time, each chunk of at most about _CHUNK_PACKETS packets
(or one window), and bins both throughput series as packets pass: the
physical series a chunk at a time, the twin's a replayed block at a
time. Only the per-window sync log grows with the length of a run, and
how windows fall into chunks changes no window, log or report byte.

Either mode replays what the receiver delivers
(transport.WindowReceiver.receive_block) with
ReplayEngine.replay_block. Under the virtual clock this runs in the
calling thread and every timestamp is computed from the data, so a run
is deterministic down to the report bytes. Windows are sent one at a
time, and once the last window of a pcap.PackBlock is sent, what the
receiver has ready is received and replayed a block at a time.
Real-time mode, for live demonstrations, cuts the same windows and runs
on one clock, clocks.MonotonicClock, that reads capture time and
advances speed_factor times as fast as the wall: a producer thread makes
each chunk and sends each window once the clock passes its end, while a
consumer thread waits for each window and replays it. The producer
always closes the channel, even on failure, so the consumer drains and
terminates; a failed consumer stops the producer and closes the receive
side. Its timing is measured, not asserted.
"""

import json
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from .clocks import MonotonicClock
from .emit import emit_bundle
from .errors import MetricsError, StageError
# The loop bins through ThroughputBins; throughput_series stays imported
# because bench/tracing.py wraps, by name, each metric this module names.
from .metrics import (  # noqa: F401
    FidelityReport,
    ThroughputBins,
    ThroughputSeries,
    age_of_information,
    compare_series,
    delivered_in_observation,
    state_consistency_index,
    throughput_series,
    twin_alignment_ratio,
    update_latency,
)
from .model import MICROS_PER_SECOND, TwinDescriptor
from .pcap import LINKTYPE_RAW_IP, segment_stream, write_pcap
from .replay import ReplayEngine, ReplayMode, ReplayPlan
from .scenarios import ScenarioSpec, generate
from .transport import (
    ChannelSpec,
    DirectoryExchangeChannel,
    InProcessChannel,
    SyncLog,
    TcpReceiverChannel,
    TcpSenderChannel,
    WindowReceiver,
    send_window,
)

# Decorrelates the channel's loss draws from the traffic generator while
# still deriving everything from the single run seed.
_CHANNEL_SEED_SALT = 0x7F4A7C15

REPORT_SCHEMA_VERSION = 2

# Packets the loop takes from the trace at a time: a chunk is the most
# windows, doubling from one, whose packets fit, or one window. Its
# columns and temporaries are a few MiB, and the sender's and receiver's
# block budgets are far smaller.
_CHUNK_PACKETS = 1 << 16


@dataclass(slots=True)
class RunConfig:
    descriptor: TwinDescriptor
    scenario: ScenarioSpec
    channel: ChannelSpec
    plan: ReplayPlan
    seed: int = 0
    bin_width_micros: int = MICROS_PER_SECOND
    max_lag_bins: int = 30
    out_dir: Path | None = None
    save_replayed_pcaps: bool = False
    exchange_dir: Path | None = None
    tcp_host: str = "127.0.0.1"
    tcp_port: int | None = None

    def __post_init__(self):
        if self.bin_width_micros <= 0:
            raise ValueError(f"bin width must be positive, got {self.bin_width_micros} us")
        if self.max_lag_bins < 0:
            raise ValueError(f"max_lag_bins must be non-negative, got {self.max_lag_bins}")
        if self.tcp_port is not None and not 0 <= self.tcp_port <= 65535:
            raise ValueError(f"tcp port must be within 0-65535, got {self.tcp_port}")
        if self.plan.mode is ReplayMode.VIRTUAL and self.channel.kind != "in-process":
            raise ValueError("virtual-clock runs use the in-process channel; pick real-time mode for "
                             f"the {self.channel.kind} channel")
        if self.channel.kind == "directory-exchange" and self.exchange_dir is None:
            raise ValueError("directory-exchange channel needs an exchange directory")


@dataclass(slots=True)
class RunResult:
    report: FidelityReport
    log: SyncLog
    npt_series: ThroughputSeries
    ndt_series: ThroughputSeries
    align_offset_micros: int
    max_lateness_micros: int
    windows_sent: int
    windows_replayed: int
    packets_replayed: int


def _make_channels(cfg: RunConfig, clock) -> tuple[object, object]:
    """Returns (send endpoint, receive endpoint) for the configured kind."""
    spec = replace(cfg.channel, seed=cfg.seed ^ _CHANNEL_SEED_SALT)
    if spec.kind == "in-process":
        ch = InProcessChannel(spec, clock=clock)
        return ch, ch
    if spec.kind == "directory-exchange":
        sender = DirectoryExchangeChannel(spec, cfg.exchange_dir, clock)
        receiver = DirectoryExchangeChannel(spec, cfg.exchange_dir, clock)
        return sender, receiver
    receiver = TcpReceiverChannel(cfg.tcp_host, cfg.tcp_port or 0, clock)
    sender = TcpSenderChannel(spec, cfg.tcp_host, receiver.port)
    return sender, receiver


def run_pipeline(cfg: RunConfig) -> RunResult:
    """Run the full loop and evaluate twin fidelity.

    Raises StageError naming the failed stage; the sync log collected so
    far is flushed to out_dir, when that can be written, before re-raising.
    """
    virtual = cfg.plan.mode is ReplayMode.VIRTUAL
    log = SyncLog()
    try:
        return _run(cfg, log, virtual)
    except Exception:
        if cfg.out_dir is not None:
            out = Path(cfg.out_dir)
            try:
                out.mkdir(parents=True, exist_ok=True)
                (out / "sync_log.csv").write_bytes(log.to_csv_bytes())
            except OSError:
                pass  # the failure being raised says more than a failed flush
        raise


def _run(cfg: RunConfig, log: SyncLog, virtual: bool) -> RunResult:
    scenario = replace(cfg.scenario, seed=cfg.seed)
    window_micros = cfg.descriptor.window_micros

    try:
        trace = generate(scenario)
    except Exception as exc:
        raise StageError("simulate", exc) from exc

    origin = scenario.origin_ts_micros
    span_end = origin + scenario.duration_micros
    # Real time runs on the capture timescale: the clock reads the origin now.
    clock = None if virtual else MonotonicClock(origin, cfg.plan.speed_factor)

    try:
        send_channel, recv_channel = _make_channels(cfg, clock)
    except Exception as exc:
        raise StageError("transport", exc) from exc

    replayed_dir = None
    if cfg.save_replayed_pcaps and cfg.out_dir is not None:
        replayed_dir = Path(cfg.out_dir) / "replayed"
        replayed_dir.mkdir(parents=True, exist_ok=True)
    physical = ThroughputBins(origin, cfg.bin_width_micros, scenario.duration_micros)
    twin = ThroughputBins(origin, cfg.bin_width_micros)
    engine = ReplayEngine(cfg.plan, log, clock=clock)
    receiver = WindowReceiver(recv_channel, log)
    windows = _windows(trace, origin, span_end, window_micros, cfg.descriptor.capture_interface, physical)

    def send(window, now_micros: int) -> None:
        send_window(window, send_channel, log, now_micros)

    def replay(wait: bool) -> None:
        """Replay every block the receiver delivers: polling, what is ready
        now; waiting (real time), each window until the end of the stream.
        A block's payload bytes are released once it is replayed and binned."""
        while (block := receiver.receive_block(wait)) is not None:
            packets = engine.replay_block(block)
            if replayed_dir is not None:
                for seq, first, stop in zip(block.seqs.tolist(), block.cuts[:-1].tolist(), block.cuts[1:].tolist()):
                    pcap = write_pcap(LINKTYPE_RAW_IP, packets[first:stop])
                    (replayed_dir / f"replayed_{seq}.pcap").write_bytes(pcap)
            twin.add(packets)

    def close_receive() -> None:
        if hasattr(recv_channel, "close"):
            recv_channel.close()

    try:
        if virtual:
            # Every window is in a PackBlock. A window sent on the in-process
            # channel is already queued, so once a block's last window is
            # sent, one poll finds every window of it that was not dropped.
            stage = "capture"
            try:
                for window in windows:
                    send(window, window.end_ts_micros)
                    if window.closes_block:
                        stage = "replay"
                        replay(wait=False)
                        stage = "capture"
                send_channel.close_send()
            except Exception as exc:
                raise StageError(stage, exc) from exc
        else:
            _run_threads(windows, send, lambda: replay(wait=True), send_channel, close_receive, clock)
    finally:
        close_receive()

    try:
        return _evaluate(cfg, log, physical, twin, engine, origin, scenario.duration_micros, window_micros)
    except Exception as exc:
        raise StageError("metrics", exc) from exc


def _windows(trace, origin: int, span_end: int, window_micros: int, interface: str, physical: ThroughputBins):
    """Every window of [origin, span_end), cut from the trace a chunk of
    whole windows at a time; each chunk is binned into ``physical`` as it
    is made. Real time makes each chunk in the producer thread, after the
    last window of the one before is sent.

    The trace is a packet source: ``packets(start, end)`` makes the
    packets stamped in [start, end) in time order, and ``count_before(ts)``
    counts those stamped before ts (see scenarios.GeneratedTrace).
    """
    n_windows = -(-(span_end - origin) // window_micros)
    first, before = 0, trace.count_before(origin)
    while first < n_windows:
        stop = first + 1
        while stop < n_windows:
            wider = min(first + 2 * (stop - first), n_windows)
            if trace.count_before(origin + wider * window_micros) - before > _CHUNK_PACKETS:
                break
            stop = wider
        start, end = origin + first * window_micros, min(origin + stop * window_micros, span_end)
        chunk = trace.packets(start, end)
        physical.add(chunk)
        before += len(chunk)
        yield from segment_stream(chunk, window_micros, start, span_end_micros=end, source_interface=interface,
                                  first_seq=first)
        first = stop


def _run_threads(windows, send, replay, send_channel, close_receive, clock) -> None:
    """Real time: a producer sends each window once it has closed, a consumer replays.

    Failures are kept in the order they happen and the first one is
    raised. A failed consumer stops the producer before its next window
    and closes the receive side, so a producer blocked in a send unblocks.
    """
    failures: list[tuple[str, BaseException]] = []
    stop = threading.Event()

    def producer():
        try:
            for window in windows:
                if clock.wait_until(window.end_ts_micros, stop):
                    break
                send(window, clock.now_micros())
        except BaseException as exc:
            failures.append(("capture", exc))
        finally:
            send_channel.close_send()

    def consumer():
        try:
            replay()
        except BaseException as exc:
            failures.append(("replay", exc))
            stop.set()
            close_receive()

    threads = [threading.Thread(target=producer, name="twinsync-producer"),
               threading.Thread(target=consumer, name="twinsync-consumer")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        (stage, exc), *later = failures
        raise StageError(stage, exc, tuple(later)) from exc


def _evaluate(cfg, log, physical, twin, engine, origin, duration_micros, window_micros) -> RunResult:
    align_offset = engine.align_offset_micros or 0
    npt_series = physical.series(duration_micros)
    # The twin's span reaches its last replayed packet: real-time packets
    # carry their emission times, which trail capture by the actual delay.
    last_replayed = origin if twin.last_ts_micros is None else twin.last_ts_micros
    ndt_span = max(duration_micros + max(0, align_offset), last_replayed - origin + 1)
    ndt_series = twin.series(ndt_span)
    # A twin that replays what it received in real time cannot lead.
    min_lag = 0 if cfg.plan.mode is ReplayMode.REAL_TIME else None
    try:
        comparison = compare_series(npt_series, ndt_series, cfg.max_lag_bins, min_lag)
    except MetricsError:
        comparison = None

    # The only copy of the sync log this evaluation takes.
    sync = log.columns()
    n_windows = -(-duration_micros // window_micros)
    observation = (origin, origin + n_windows * window_micros)
    delivered_in_obs = delivered_in_observation(sync, observation)
    tar = twin_alignment_ratio(delivered_in_obs, window_micros, observation)
    sync_frequency = delivered_in_obs * MICROS_PER_SECOND / (observation[1] - observation[0])

    try:
        latency = update_latency(sync)
    except MetricsError:
        latency = None

    replayed_at = sync.t_replayed[sync.replayed]
    horizon = observation[1] if not len(replayed_at) else max(observation[1], int(replayed_at.max()))
    aoi = age_of_information(sync, origin_ts_micros=origin, horizon_micros=horizon)

    consistency = state_consistency_index(cfg.descriptor, emit_bundle(cfg.descriptor))

    report = FidelityReport(
        twin_alignment_ratio=tar,
        mean_update_latency_us=None if latency is None else latency.mean_micros,
        max_update_latency_us=None if latency is None else latency.max_micros,
        mean_age_of_information_us=aoi.mean_micros,
        peak_age_of_information_us=aoi.peak_micros,
        sync_frequency_hz=sync_frequency,
        rmse_bps=None if comparison is None else comparison.rmse_bps,
        nrmse=None if comparison is None else comparison.nrmse,
        pearson_r=None if comparison is None else comparison.pearson_r,
        estimated_lag_us=None if comparison is None else comparison.estimated_lag_micros,
        consistency_index=consistency,
        windows_lost=int(sync.lost.sum()),
    )
    return RunResult(
        report=report,
        log=log,
        npt_series=npt_series,
        ndt_series=ndt_series,
        align_offset_micros=align_offset,
        max_lateness_micros=engine.max_lateness_micros,
        windows_sent=len(sync.seq),
        windows_replayed=len(replayed_at),
        packets_replayed=twin.packets,
    )


def build_report_document(cfg: RunConfig, result: RunResult) -> bytes:
    """Canonical report JSON: stable key order, no wall-clock content."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": {
            "scenario": cfg.scenario.kind,
            "duration_seconds": cfg.scenario.duration_micros / MICROS_PER_SECOND,
            "ue_count": cfg.scenario.ue_count,
            "seed": cfg.seed,
            "window_seconds": cfg.descriptor.window_seconds,
            "mode": cfg.plan.mode.value,
            "speed_factor": cfg.plan.speed_factor,
            "bin_width_us": cfg.bin_width_micros,
            "max_lag_bins": cfg.max_lag_bins,
            "channel": {
                "kind": cfg.channel.kind,
                "latency_us": cfg.channel.latency_us,
                "bandwidth_bps": cfg.channel.bandwidth_bps,
                "loss_probability": cfg.channel.loss_probability,
            },
        },
        "metrics": result.report.as_dict(),
        "replay": {
            "align_offset_us": result.align_offset_micros,
            "max_lateness_us": result.max_lateness_micros,
            "windows_sent": result.windows_sent,
            "windows_replayed": result.windows_replayed,
            "packets_replayed": result.packets_replayed,
        },
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def write_run_artifacts(cfg: RunConfig, result: RunResult, report_path: Path) -> list[Path]:
    """Write the report JSON plus the plot-ready CSV artifacts."""
    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else Path(report_path).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = Path(report_path)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    written = []
    report_path.write_bytes(build_report_document(cfg, result))
    written.append(report_path)
    for name, payload in (
        ("npt_throughput.csv", result.npt_series.to_csv_bytes()),
        ("ndt_throughput.csv", result.ndt_series.to_csv_bytes()),
        ("sync_log.csv", result.log.to_csv_bytes()),
        ("report.csv", result.report.to_csv_bytes()),
    ):
        path = out_dir / name
        path.write_bytes(payload)
        written.append(path)
    return written
