#!/usr/bin/env python3
"""Sweep channel loss probability and record how twin alignment, data
freshness and series similarity degrade. Output is one CSV row per
(loss, seed) pair, ready for plotting.

Usage:
    python scripts/sweep_loss.py [--out sweep.csv] [--seeds 5]
        [--duration 200] [--window 10] [--scenario voice-call]

--scenario takes a scenario kind, not one of the twinsync CLI's aliases.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from twinsync.model import SliceSpec, TwinDescriptor, seconds_to_micros
from twinsync.pipeline import RunConfig, run_pipeline
from twinsync.replay import ReplayPlan
from twinsync.scenarios import SCENARIO_KINDS, ScenarioSpec
from twinsync.transport import ChannelSpec

LOSS_GRID = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("sweep.csv"))
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--duration", type=float, default=200.0)
    parser.add_argument("--window", type=float, default=10.0)
    parser.add_argument("--scenario", choices=SCENARIO_KINDS, default="voice-call")
    args = parser.parse_args()

    descriptor = TwinDescriptor(
        network_name="lab",
        plmn="00101",
        ue_count=2,
        slices=(SliceSpec("internet", "10.45.0.0/16", "10.45.0.1", 10_000_000, 10_000_000, 9),),
        window_seconds=args.window,
    )

    rows = ["loss_probability,seed,tar,windows_lost,mean_aoi_s,peak_aoi_s,pearson_r"]
    for loss in LOSS_GRID:
        for seed in range(args.seeds):
            cfg = RunConfig(
                descriptor=descriptor,
                scenario=ScenarioSpec(
                    kind=args.scenario,
                    duration_micros=seconds_to_micros(args.duration),
                    ue_count=2,
                ),
                channel=ChannelSpec(loss_probability=loss),
                plan=ReplayPlan(),
                seed=seed,
            )
            r = run_pipeline(cfg).report
            pearson = "" if r.pearson_r is None else f"{r.pearson_r:.6f}"
            rows.append(
                f"{loss},{seed},{r.twin_alignment_ratio:.6f},{r.windows_lost},"
                f"{r.mean_age_of_information_us / 1e6:.3f},{r.peak_age_of_information_us / 1e6:.3f},{pearson}"
            )
        print(f"loss={loss:.2f} done")
    args.out.write_text("\n".join(rows) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
