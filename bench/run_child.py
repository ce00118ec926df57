"""One timed virtual-clock run of a workload, plus its correctness checks.

Run in a fresh interpreter with the checkout's `src` on PYTHONPATH:

    python3 bench/run_child.py <checkout root> <scratch dir> <workload JSON> <seed> <trace 0|1> [spans file]

The timed region is what `twinsync run` does after loading the
descriptor: `run_pipeline` plus `write_run_artifacts`. Peak RSS is read
right after it, before the checks allocate anything. With trace 1 the
loop's entry points are wrapped in spans first (see tracing.py) and the
per-layer numbers are added under "layers". Prints one JSON line.
"""

import hashlib
import json
import os
import random
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import twinsync.pipeline as pipeline
from twinsync import ingest
from twinsync.model import seconds_to_micros
from twinsync.pcap import LINKTYPE_RAW_IP, read_pcap, segment_stream, write_pcap
from twinsync.replay import ReplayMode, ReplayPlan
from twinsync.scenarios import ScenarioSpec
from twinsync.transport import ChannelSpec

from workloads import BIN_WIDTH_S, MAX_LAG_BINS, Workload

PCAP_SAMPLE_WINDOWS = 8


def run_config(workload: Workload, seed: int, descriptor, out_dir: Path) -> pipeline.RunConfig:
    """The RunConfig `twinsync run` builds for these settings."""
    return pipeline.RunConfig(
        descriptor=replace(descriptor, window_seconds=workload.window_s),
        scenario=ScenarioSpec(
            kind=workload.scenario,
            duration_micros=seconds_to_micros(workload.duration_s),
            seed=seed,
            ue_count=workload.ue_count,
            **workload.scenario_params,
        ),
        channel=ChannelSpec(
            kind="in-process",
            latency_us=seconds_to_micros(workload.latency_s),
            bandwidth_bps=workload.bandwidth_bps,
            loss_probability=workload.loss_probability,
            seed=seed,
        ),
        plan=ReplayPlan(mode=ReplayMode.VIRTUAL),
        seed=seed,
        bin_width_micros=seconds_to_micros(BIN_WIDTH_S),
        max_lag_bins=MAX_LAG_BINS,
        out_dir=out_dir,
    )


def check_run(workload, cfg, result, report, records, seed) -> tuple[list[str], int]:
    """Failed checks, and the windows that were neither replayed nor dropped."""
    failures = []
    doc = json.loads(report)
    replay, metrics = doc["replay"], doc["metrics"]
    sent, replayed, lost = replay["windows_sent"], replay["windows_replayed"], metrics["windows_lost"]
    if sent != workload.windows:
        failures.append(f"windows_sent {sent} != {workload.windows}")
    if replayed + lost != sent:
        failures.append(f"windows_replayed {replayed} + windows_lost {lost} != windows_sent {sent}")
    entries = result.log.entries()
    if len(entries) != sent:
        failures.append(f"sync log has {len(entries)} windows, {sent} were sent")
    # A window the channel dropped is lost without ever being received.
    failed_windows = sum(
        1 for e in entries
        if e.t_replayed is None and not (e.lost and e.t_received is None)
    )
    if failed_windows:
        failures.append(f"{failed_windows} windows neither replayed nor dropped by the channel")
    if workload.lossless:
        if metrics["pearson_r"] != 1.0 or metrics["rmse_bps"] != 0:
            failures.append(f"lossless run has pearson_r {metrics['pearson_r']}, rmse_bps {metrics['rmse_bps']}")
        if replay["packets_replayed"] != len(records) or lost:
            failures.append(f"replayed {replay['packets_replayed']} of {len(records)} packets, lost {lost} windows")

    windows = list(segment_stream(
        records, cfg.descriptor.window_micros, cfg.scenario.origin_ts_micros,
        span_end_micros=cfg.scenario.origin_ts_micros + cfg.scenario.duration_micros,
    ))
    sample = {0, len(windows) - 1, *random.Random(seed).sample(
        range(len(windows)), min(PCAP_SAMPLE_WINDOWS, len(windows)))}
    for k in sorted(sample):
        blob = write_pcap(LINKTYPE_RAW_IP, windows[k].packets)
        linktype, parsed = read_pcap(blob)
        if write_pcap(linktype, parsed) != blob:
            failures.append(f"window {k}: write_pcap(read_pcap(b)) != b")
    return failures, failed_windows


def main() -> int:
    root, scratch = Path(sys.argv[1]), Path(sys.argv[2])
    workload = Workload(**json.loads(sys.argv[3]))
    seed, traced = int(sys.argv[4]), sys.argv[5] == "1"
    spans_path = Path(sys.argv[6]) if len(sys.argv) > 6 else None

    text = (root / "tests" / "fixtures" / "mme.cfg").read_text(encoding="utf-8")
    descriptor, _ = ingest.extract_descriptor(ingest.parse_phys_config(text))
    cfg = run_config(workload, seed, descriptor, scratch)

    run, write = pipeline.run_pipeline, pipeline.write_run_artifacts
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.span(tracing.RUN_PIPELINE, run)
        write = tracer.span(tracing.WRITE_ARTIFACTS, write)

    # Keep the generated trace for the checks; one extra call per run.
    generated = []
    generate = pipeline.generate

    def keep(spec):
        trace = generate(spec)
        generated.append(trace)
        return trace

    pipeline.generate = keep

    report_path = scratch / "report.json"
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = time.process_time_ns()
    t0 = time.perf_counter()
    result = run(cfg)
    write(cfg, result, report_path)
    t1 = time.perf_counter()
    cpu1 = time.process_time_ns()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    report = report_path.read_bytes()
    records = generated[0].records
    failures, failed_windows = check_run(workload, cfg, result, report, records, seed)
    out = {
        "run_s": t1 - t0,
        "peak_rss_mb": usage1.ru_maxrss / 1024,
        "packets": len(records),
        "windows_sent": result.windows_sent,
        "windows_replayed": result.windows_replayed,
        "failed_windows": failed_windows,
        "report_sha256": hashlib.sha256(report).hexdigest(),
        "failures": failures,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, cpu1 - cpu0, result.packets_replayed,
                                       result.windows_replayed)
        layers["pipeline.ctx_switches"] = (usage1.ru_nvcsw + usage1.ru_nivcsw
                                           - usage0.ru_nvcsw - usage0.ru_nivcsw)
        dropped = sum(1 for e in result.log.entries() if e.lost and e.t_received is None)
        if layers["transport.windows_dropped"] != dropped:
            failures.append(f"channel dropped {layers['transport.windows_dropped']} windows, "
                            f"sync log shows {dropped} lost unreceived")
        out["layers"] = layers
        if spans_path is not None:
            tracing.write_spans(tracer.spans, spans_path)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    # Skip tearing down the run's objects at exit: hundreds of MiB of
    # packets take a noticeable time to free, and nothing needs it.
    os._exit(main())
