"""Spans around the twinsync entry points the virtual-clock loop calls.

The loop is traced from outside: `install` rebinds the names that
`pipeline` and `transport` look up at call time (module globals and class
attributes) to thin wrappers. A span is seven values appended to one flat
list: kind, thread id, wall start, wall end, thread-CPU start, thread-CPU
end and a tag, times in nanoseconds. Nothing is aggregated while the loop
runs, so a span costs two clock pairs and a list extend; `spans` and
`layer_metrics` do the rest afterwards. The list holds only strings and
ints, which the garbage collector does not track, so tracing adds no
collections of its own.

Within one thread the wrappers nest strictly, so a span's children are
the spans of the same thread that lie inside its interval, and its self
time is its duration minus theirs (pack_window contains write_pcap,
unpack_window contains read_pcap, WindowReceiver.receive contains the
channel receive and unpack_window).
"""

import gc
import statistics
import threading
import time
from collections import defaultdict

import twinsync.pipeline as pipeline
import twinsync.transport as transport
from twinsync.replay import ReplayEngine
from twinsync.transport import InProcessChannel, WindowReceiver

# Span kinds; the tag's meaning depends on the kind.
GENERATE = "generate"                  # tag: packets generated
SEGMENT = "segment_stream"             # tag: packets in the window
PACK = "pack_window"
WRITE_PCAP = "write_pcap"              # tag: bytes written
SEND = "channel.send"                  # tag: 1 if the channel dropped the window
RECEIVE = "channel.receive"            # tag: seq, -1 at end of stream
RECEIVER = "receiver.receive"          # tag: seq, -1 at end of stream
UNPACK = "unpack_window"
READ_PCAP = "read_pcap"
REPLAY = "replay_window"               # tag: seq
SPAN_FIELDS = 7
NS = 1e-9  # seconds per nanosecond
RUN_PIPELINE = "run_pipeline"
WRITE_ARTIFACTS = "write_run_artifacts"
METRIC_KINDS = {
    "throughput_series": "metrics.throughput_series.cpu_s",
    "compare_series": "metrics.compare_series.cpu_s",
    "age_of_information": "metrics.age_of_information.cpu_s",
    "twin_alignment_ratio": "metrics.other.cpu_s",
    "update_latency": "metrics.other.cpu_s",
    "state_consistency_index": "metrics.other.cpu_s",
    "emit_bundle": "metrics.other.cpu_s",  # feeds the consistency audit
}


def _no_tag(_result):
    return 0


class Tracer:
    """In-memory span list plus GC timing via gc.callbacks."""

    def __init__(self):
        self.flat: list = []  # SPAN_FIELDS values per span
        self.receivers: list = []
        self.gc_ns = 0
        self.gc_gen2 = 0
        self._gc_start = 0

    @property
    def spans(self) -> list[tuple]:
        flat = self.flat
        return [tuple(flat[i:i + SPAN_FIELDS]) for i in range(0, len(flat), SPAN_FIELDS)]

    def span(self, kind: str, fn, tag=_no_tag):
        extend = self.flat.extend
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns
        ident = threading.get_ident

        def traced(*args, **kwargs):
            w0 = wall()
            c0 = cpu()
            result = fn(*args, **kwargs)
            c1 = cpu()
            w1 = wall()
            extend((kind, ident(), w0, w1, c0, c1, tag(result)))
            return result

        return traced

    def segment_spans(self, fn):
        """segment_stream is a generator: time each `next`, not the loop body."""
        extend = self.flat.extend
        wall = time.perf_counter_ns
        cpu = time.thread_time_ns
        ident = threading.get_ident

        def traced(*args, **kwargs):
            windows = fn(*args, **kwargs)
            tid = ident()
            while True:
                w0 = wall()
                c0 = cpu()
                window = next(windows, None)
                c1 = cpu()
                w1 = wall()
                if window is None:
                    extend((SEGMENT, tid, w0, w1, c0, c1, -1))
                    return
                extend((SEGMENT, tid, w0, w1, c0, c1, len(window.packets)))
                yield window

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_gen2 += info["generation"] == 2

    def install(self) -> None:
        """Rebind the loop's entry points; the process exits afterwards."""
        span = self.span
        pipeline.generate = span(GENERATE, pipeline.generate, lambda t: len(t.records))
        pipeline.segment_stream = self.segment_spans(pipeline.segment_stream)
        transport.pack_window = span(PACK, transport.pack_window)
        transport.write_pcap = span(WRITE_PCAP, transport.write_pcap, len)
        transport.unpack_window = span(UNPACK, transport.unpack_window)
        transport.read_pcap = span(READ_PCAP, transport.read_pcap)
        InProcessChannel.send = span(SEND, InProcessChannel.send, lambda r: int(r.dropped))
        InProcessChannel.receive = span(RECEIVE, InProcessChannel.receive,
                                        lambda d: -1 if d is None else d[0].seq)
        WindowReceiver.receive = span(RECEIVER, WindowReceiver.receive,
                                      lambda d: -1 if d is None else d[1].seq)
        init, receivers = WindowReceiver.__init__, self.receivers

        def register(receiver, *args, **kwargs):
            init(receiver, *args, **kwargs)
            receivers.append(receiver)

        WindowReceiver.__init__ = register
        ReplayEngine.replay_window = span(REPLAY, ReplayEngine.replay_window, lambda t: t.window_seq)
        for name in METRIC_KINDS:
            setattr(pipeline, name, span(name, getattr(pipeline, name)))
        gc.callbacks.append(self._on_gc)


def _self_cpu(spans):
    """Per span: its CPU time minus that of the spans nested in it on its thread."""
    by_thread = defaultdict(list)
    for i, s in enumerate(spans):
        by_thread[s[1]].append(i)
    child_cpu = [0] * len(spans)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        stack: list[int] = []
        for i in indices:
            s = spans[i]
            while stack and spans[stack[-1]][3] < s[3]:
                stack.pop()
            if stack:
                child_cpu[stack[-1]] += s[5] - s[4]
            stack.append(i)
    return [s[5] - s[4] - child_cpu[i] for i, s in enumerate(spans)]


def _percentile(values, q):
    """Nearest-rank percentile; `values` must be non-empty."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def layer_metrics(tracer: Tracer, process_cpu_ns: int, packets_replayed: int,
                  windows_replayed: int) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed by metric name."""
    spans = tracer.spans
    cpu = defaultdict(int)       # total CPU per kind
    self_cpu = defaultdict(int)  # self CPU per kind
    wall = defaultdict(int)
    for s, own_cpu in zip(spans, _self_cpu(spans)):
        cpu[s[0]] += s[5] - s[4]
        self_cpu[s[0]] += own_cpu
        wall[s[0]] += s[3] - s[2]

    pkts = sum(s[6] for s in spans if s[0] == GENERATE)
    window_pkts = [s[6] for s in spans if s[0] == SEGMENT and s[6] >= 0]
    packed = sum(1 for s in spans if s[0] == PACK)
    dropped = sum(s[6] for s in spans if s[0] == SEND)
    delivered = [s[6] for s in spans if s[0] == RECEIVER and s[6] >= 0]
    digest_failures = sum(r.digest_failures for r in tracer.receivers)
    skipped = sum(b - a - 1 for a, b in zip([-1] + delivered, delivered))

    # Windows in flight: sends (ended, not dropped) minus receives (ended).
    events = [(s[3], 1) for s in spans if s[0] == SEND and not s[6]]
    events += [(s[3], -1) for s in spans if s[0] == RECEIVE and s[6] >= 0]
    in_flight = queue_peak = 0
    for _, step in sorted(events):
        in_flight += step
        queue_peak = max(queue_peak, in_flight)

    received_at = {s[6]: s[3] for s in spans if s[0] == RECEIVE and s[6] >= 0}
    turnaround_ms = [(s[3] - received_at[s[6]]) / 1e6 for s in spans if s[0] == REPLAY]

    metrics = {
        "scenarios.generate.cpu_s": cpu[GENERATE] * NS,
        "scenarios.generate.ns_per_pkt": cpu[GENERATE] / max(pkts, 1),
        "scenarios.pkts": pkts,
        "pcap.segment_stream.cpu_s": cpu[SEGMENT] * NS,
        "pcap.write_pcap.cpu_s": cpu[WRITE_PCAP] * NS,
        "pcap.read_pcap.cpu_s": cpu[READ_PCAP] * NS,
        "pcap.bytes_written": sum(s[6] for s in spans if s[0] == WRITE_PCAP),
        "pcap.windows": len(window_pkts),
        "pcap.window_pkts_p50": statistics.median(window_pkts) if window_pkts else 0,
        "pcap.window_pkts_max": max(window_pkts, default=0),
        "transport.pack_window.self_cpu_s": self_cpu[PACK] * NS,
        "transport.unpack_window.self_cpu_s": self_cpu[UNPACK] * NS,
        "transport.receiver.self_cpu_s": self_cpu[RECEIVER] * NS,
        "transport.channel.cpu_s": (cpu[SEND] + cpu[RECEIVE]) * NS,
        "transport.recv_wait_s": wall[RECEIVE] * NS,
        "transport.queue_peak": queue_peak,
        "transport.windows_dropped": dropped,
        "transport.holes_declared": skipped - digest_failures,
        "transport.digest_failures": digest_failures,
        "transport.pack_useful_ratio": windows_replayed / max(packed, 1),
        "replay.replay_window.cpu_s": cpu[REPLAY] * NS,
        "replay.ns_per_pkt": cpu[REPLAY] / max(packets_replayed, 1),
        "replay.window_turnaround_ms_p50": _percentile(turnaround_ms, 50) if turnaround_ms else 0,
        "replay.window_turnaround_ms_p99": _percentile(turnaround_ms, 99) if turnaround_ms else 0,
        "pipeline.run_pipeline.wall_s": wall[RUN_PIPELINE] * NS,
        "pipeline.write_run_artifacts.cpu_s": cpu[WRITE_ARTIFACTS] * NS,
        "runtime.gc_s": tracer.gc_ns * NS,
        "runtime.gc_gen2_collections": tracer.gc_gen2,
        "trace.spans": len(spans),
    }
    for kind, name in METRIC_KINDS.items():
        metrics[name] = metrics.get(name, 0.0) + cpu[kind] * NS

    # Every kind but run_pipeline is a layer; run_pipeline's self time and
    # whatever no span covers (queue handoff, sync-log updates, thread
    # switching, the wrappers themselves) is orchestration.
    layers_ns = sum(ns for kind, ns in self_cpu.items() if kind != RUN_PIPELINE)
    metrics["pipeline.layers_cpu_s"] = layers_ns * NS
    metrics["pipeline.process_cpu_s"] = process_cpu_ns * NS
    metrics["pipeline.orchestration_cpu_s"] = (process_cpu_ns - layers_ns) * NS
    return metrics


def write_spans(spans, path) -> None:
    """Tab-separated spans, times relative to the first span's start."""
    t0 = min((s[2] for s in spans), default=0)
    threads = {}
    lines = ["kind\tthread\twall_start_ns\twall_end_ns\tcpu_ns\ttag"]
    for kind, tid, w0, w1, c0, c1, tag in spans:
        thread = threads.setdefault(tid, len(threads))
        lines.append(f"{kind}\t{thread}\t{w0 - t0}\t{w1 - t0}\t{c1 - c0}\t{tag}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
