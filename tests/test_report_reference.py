"""The report of a virtual-clock run against an end-to-end reference.

reference.reference_report rebuilds the report from per-record code:
segmentation, the in-process channel's loss draws and serialized link,
replay times, throughput binning, the lag search and age of information
sampled at its breakpoints, and the sync log row by row. Window lengths
from 10 ms to 10 s put windows on both sides of the 32-packet edge and of
PackBlock edges, so the block send and receive paths, the per-window
paths and their mix all meet it.
"""

import json
import math
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twinsync.pipeline import RunConfig, build_report_document, run_pipeline
from twinsync.replay import ReplayPlan
from twinsync.scenarios import SCENARIO_KINDS, ScenarioSpec
from twinsync.transport import ChannelSpec

from reference import reference_report

SECOND = 1_000_000
MAX_WINDOWS = 800  # keeps the reference's age-of-information sampling quick

# Report fields the pipeline computes with the reference's formula, from
# the same integers: they must match exactly.
EXACT_FLOATS = {"twin_alignment_ratio", "sync_frequency_hz", "mean_update_latency_us", "consistency_index"}


@st.composite
def run_configs(draw, descriptor):
    kind = draw(st.sampled_from(SCENARIO_KINDS))
    window = draw(st.integers(10_000, 10 * SECOND))
    duration = draw(st.integers(SECOND, min(20 * SECOND, MAX_WINDOWS * window)))
    return RunConfig(
        descriptor=replace(descriptor, window_seconds=window / SECOND),
        scenario=ScenarioSpec(kind=kind, duration_micros=duration, ue_count=draw(st.integers(2, 3))),
        channel=ChannelSpec(
            latency_us=draw(st.integers(0, 2 * SECOND)),
            bandwidth_bps=draw(st.sampled_from([0, 200_000, 2_000_000, 100_000_000])),
            loss_probability=draw(st.sampled_from([0.0, 0.1, 0.5]) | st.floats(0.0, 0.5)),
        ),
        plan=ReplayPlan(align_offset_micros=draw(st.none() | st.integers(0, 3 * SECOND))),
        seed=draw(st.integers(0, 2**16)),
    )


def _close(a: float, b: float, scale: float) -> bool:
    """Equal within 1e-12 relative; ``scale`` sets the floor for values near 0."""
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * scale)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_report_matches_the_reference(descriptor, data):
    cfg = data.draw(run_configs(descriptor))
    result = run_pipeline(cfg)
    got = json.loads(build_report_document(cfg, result))
    want = reference_report(cfg)
    assert result.log.entries() == want["sync_log"]

    # A lag whose correlation ties the best one within float error may win
    # on either side; the reference then scores the pipeline's choice.
    lag = got["metrics"]["estimated_lag_us"]
    if lag is not None and lag != want["metrics"]["estimated_lag_us"]:
        scores, lag_bins = want["lag_scores"], lag // cfg.bin_width_micros
        assert math.isclose(scores[lag_bins], max(scores.values()), rel_tol=1e-12, abs_tol=1e-12), (lag, scores)
        want = reference_report(cfg, lag_bins=lag_bins)

    assert got["replay"] == want["replay"]
    for name, value in want["metrics"].items():
        value_got = got["metrics"][name]
        if value is None or isinstance(value, int) or name in EXACT_FLOATS:
            assert value_got == value, name
        else:
            scale = want["bins_max"] if name == "rmse_bps" else 1.0
            assert _close(value_got, value, scale), (name, value_got, value)
