"""Benchmark of the twinsync virtual-clock loop, end to end and per layer.

    python3 bench/run.py --workload stream-bulk --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the checkout is the directory above this file and the
program is imported from its `src`. The loop is a batch job on a closed
loop: the whole trace is offered at once and one run ends before the next
starts. Each run is a fresh interpreter, as `twinsync run` would be, and
only one runs at a time, so the benchmark adds no threads of its own to
the loop's producer and consumer.

A measurement first times the quick-start set-up (import, ingest, emit)
in fresh interpreters, then repeats the workload's run until --seconds
have passed (at least three runs). With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json as medians; with --trace 1 it alternates
untraced and traced runs and reports the per-layer metrics of the
median traced run, plus the tracing overhead. Every run is checked (see
run_child.py), and the report bytes must be identical across all runs of
one workload and seed. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150


@dataclass
class Measurement:
    workload: Workload
    seed: int
    runs: list[dict] = field(default_factory=list)  # one per run child, in order
    setups: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def ok_runs(self, traced: bool) -> list[dict]:
        return [r for r in self.runs if not r["failures"] and r["traced"] == traced]

    @property
    def attempted(self) -> int:
        return sum(r.get("windows_sent", self.workload.windows) for r in self.runs)

    @property
    def failed(self) -> int:
        """Windows of runs that raised or failed a check, plus windows that failed in good runs."""
        return sum(
            r.get("windows_sent", self.workload.windows) if r["failures"] else r["failed_windows"]
            for r in self.runs
        )


def _child(script: str, args: list[str]) -> dict:
    """Run one child interpreter and return its JSON line; raises on failure."""
    # Byte-code caching stays on, as for a user, whatever the caller's
    # environment says; the warm-up set-up pass fills the caches. A fixed
    # hash seed gives every run the same dict and set layouts.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), str(ROOT), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(f"{script} exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_once() -> dict:
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        return _child("setup_child.py", [scratch])


def _run_once(m: Measurement, traced: bool) -> None:
    spans = OUT_DIR / f"spans-{m.workload.name}-seed{m.seed}.tsv"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        args = [scratch, json.dumps(asdict(m.workload)), str(m.seed), str(int(traced))]
        try:
            run = _child("run_child.py", args + ([str(spans)] if traced else []))
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            run = {"failures": [str(exc)]}
    run["traced"] = traced
    m.runs.append(run)


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Set-up samples, then runs until `seconds` have passed since the start."""
    OUT_DIR.mkdir(exist_ok=True)
    m = Measurement(workload, seed)
    deadline = time.perf_counter() + seconds
    _setup_once()  # warm-up: byte-code cache and page cache, which users pay once
    for _ in range(SETUP_REPEATS):
        m.setups.append(_setup_once())
    # A traced run is paired with an untraced one to measure the overhead.
    pattern = (False, True) if trace else (False,)
    while True:
        started = time.perf_counter()
        for traced in pattern:
            _run_once(m, traced)
        took = time.perf_counter() - started
        if len(m.runs) >= MIN_RUNS and time.perf_counter() + took > deadline:
            break

    check_reports_identical(m)
    for r in m.runs:
        m.errors.extend(r["failures"])
    return m


def check_reports_identical(m: Measurement) -> None:
    """Fail every run whose report bytes differ from the first report's."""
    shas = [r["report_sha256"] for r in m.runs if "report_sha256" in r]
    for r in m.runs:
        if "report_sha256" in r and r["report_sha256"] != shas[0]:
            r["failures"].append("report bytes differ from the first report's")


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(m: Measurement) -> dict[str, tuple[float, int]]:
    """Metric name -> (median, sample count)."""
    runs = m.ok_runs(traced=False)
    return {
        "run_s": (_median([r["run_s"] for r in runs]), len(runs)),
        "pkts_per_s": (_median([r["packets"] / r["run_s"] for r in runs]), len(runs)),
        "windows_per_s": (_median([r["windows_sent"] / r["run_s"] for r in runs]), len(runs)),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in runs]), len(runs)),
        "setup_s": (_median([s["setup_s"] for s in m.setups]), len(m.setups)),
        "ok_window_ratio": (1 - m.failed / max(m.attempted, 1), len(m.runs)),
    }


def per_layer(m: Measurement) -> dict[str, tuple[float, int]]:
    """Layer numbers of the median traced run, set-up steps and tracing overhead."""
    traced = sorted(m.ok_runs(traced=True), key=lambda r: r["run_s"])
    untraced = m.ok_runs(traced=False)
    if not traced:
        return {}
    median_run = traced[(len(traced) - 1) // 2]
    out = {name: (value, 1) for name, value in median_run["layers"].items()}
    for name in ("setup.import_s", "ingest.parse_phys_config.cpu_s", "emit.emit_bundle.cpu_s"):
        out[name] = (_median([s[name] for s in m.setups]), len(m.setups))
    overhead = _median([r["run_s"] for r in traced]) - _median([r["run_s"] for r in untraced])
    out["trace.overhead_s"] = (overhead, min(len(traced), len(untraced)))
    out["trace.overhead_ratio"] = (overhead / _median([r["run_s"] for r in untraced]),
                                   min(len(traced), len(untraced)))
    return out


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(measurements: list[Measurement], trace: bool, spec: dict) -> dict:
    """The final JSON object; metric names are prefixed with the workload when there are several."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in measurements:
        values = per_layer(m) if trace else end_to_end(m)
        prefix = f"{m.workload.name}." if len(measurements) > 1 else ""
        for metric in wanted:
            if not math.isfinite(values.get(metric["name"], (math.nan,))[0]):
                missing.append(prefix + metric["name"])
                continue
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]][0], "unit": metric["unit"]}
    errors = [e for m in measurements for e in m.errors] + [f"metric {n} not measured" for n in missing]
    return {
        "correct": not errors,
        "attempted": sum(m.attempted for m in measurements),
        "failed": sum(m.failed for m in measurements),
        "metrics": metrics,
    }


def print_summary(m: Measurement, trace: bool, spec: dict) -> None:
    units = {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]}
    values = per_layer(m) if trace else end_to_end(m)
    print(f"== {m.workload.name} seed={m.seed} trace={int(trace)}")
    for sha in sorted({r["report_sha256"] for r in m.runs if "report_sha256" in r}):
        print(f"report_sha256 {m.workload.name} seed={m.seed} {sha}")
    for name, (value, n) in values.items():
        print(f"{name:40s} {value:14.6g} {units.get(name, ''):10s} n={n}")
    if not trace:
        print(f"{'failed_window_ratio':40s} {m.failed / max(m.attempted, 1):14.6g} {'ratio':10s} "
              f"n={len(m.runs)}")
        per_run = " ".join(f"{r['run_s']:.3f}" for r in m.ok_runs(False))
        print(f"run_s per run: {per_run}")
    for error in m.errors:
        print(f"FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time per workload, set-up included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "twinsync" / "__init__.py", ROOT / "tests" / "fixtures" / "mme.cfg",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"bench: {needed} not found; run from a twinsync checkout", file=sys.stderr)
            return 2
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measurements = []
    for name in names:
        try:
            m = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:  # set-up failed
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print_summary(m, bool(args.trace), spec)
        measurements.append(m)
    result = result_line(measurements, bool(args.trace), spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
