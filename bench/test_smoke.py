"""Smoke test of the benchmark at a tiny scenario size.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload, shortened, through the same children and
correctness gate as a real measurement, untraced and traced, and checks
that every metric BENCHMARK.json names is emitted.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_DURATION_S = {"stream-bulk": 20, "voice-fine": 5, "browse-lossy": 20}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_gate_and_emits_every_metric(name, trace):
    workload = replace(WORKLOADS[name], duration_s=TINY_DURATION_S[name])
    m = run.measure(workload, seed=3, seconds=0, trace=trace)
    assert m.errors == []
    assert len(m.runs) >= run.MIN_RUNS
    spec = run.load_spec()
    line = run.result_line([m], trace, spec)
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] == workload.windows * len(m.runs)
    kind = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {x["name"] for x in spec[kind]}
    if trace:
        layers = m.ok_runs(traced=True)[0]["layers"]
        assert layers["pipeline.layers_cpu_s"] + layers["pipeline.orchestration_cpu_s"] == \
            pytest.approx(layers["pipeline.process_cpu_s"])
        assert layers["pcap.windows"] == workload.windows


def test_gate_rejects_a_wrong_report(tmp_path):
    workload = replace(WORKLOADS["stream-bulk"], duration_s=20)
    cfg = run_child.run_config(workload, 1, _descriptor(), tmp_path)
    trace = run_child.pipeline.generate(run_child.replace(cfg.scenario, seed=1))
    result = run_child.pipeline.run_pipeline(cfg)
    report = run_child.pipeline.build_report_document(cfg, result)
    assert run_child.check_run(workload, cfg, result, report, trace.records, 1) == ([], 0)

    doc = json.loads(report)
    doc["metrics"]["pearson_r"] = 0.99
    failures, _ = run_child.check_run(workload, cfg, result, json.dumps(doc), trace.records, 1)
    assert any("pearson_r" in f for f in failures)
    failures, _ = run_child.check_run(workload, cfg, result, report, trace.records[:-1], 1)
    assert any("packets" in f for f in failures)


def test_differing_report_bytes_fail_the_runs():
    sent = WORKLOADS["voice-fine"].windows
    m = run.Measurement(WORKLOADS["voice-fine"], seed=0, runs=[
        {"report_sha256": sha, "failures": [], "traced": traced, "windows_sent": sent, "failed_windows": 0}
        for sha, traced in (("a", False), ("b", True), ("a", False))
    ] + [{"failures": ["run_child.py exited 1"], "traced": True}])
    run.check_reports_identical(m)
    assert [bool(r["failures"]) for r in m.runs] == [False, True, False, True]
    assert (m.attempted, m.failed) == (4 * sent, 2 * sent)


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "voice-fine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _descriptor():
    from twinsync import ingest

    text = (BENCH_DIR.parent / "tests" / "fixtures" / "mme.cfg").read_text(encoding="utf-8")
    return ingest.extract_descriptor(ingest.parse_phys_config(text))[0]
