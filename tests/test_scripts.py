import csv
import subprocess
import sys
from pathlib import Path

import pytest

from twinsync.scenarios import SCENARIO_KINDS

SWEEP_LOSS = Path(__file__).resolve().parents[1] / "scripts" / "sweep_loss.py"
LOSS_GRID = ("0.0", "0.1", "0.25", "0.5", "0.75", "0.9", "1.0")


def sweep_loss(tmp_path, *args):
    return subprocess.run([sys.executable, str(SWEEP_LOSS), "--out", str(tmp_path / "sweep.csv"), *args],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)


def test_sweep_loss_refuses_a_cli_alias_before_sweeping(tmp_path):
    # `voice` names a scenario on the twinsync CLI only; the script takes kinds.
    done = sweep_loss(tmp_path, "--scenario", "voice")
    assert done.returncode == 2
    assert "invalid choice: 'voice'" in done.stderr and all(kind in done.stderr for kind in SCENARIO_KINDS)
    assert done.stdout == "" and not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_sweep_loss_writes_a_row_per_loss_and_seed(tmp_path, kind):
    # 2 s in 0.5 s windows: four windows a run, all of them kept without
    # loss and all lost when every send is dropped.
    done = sweep_loss(tmp_path, "--scenario", kind, "--seeds", "2", "--duration", "2", "--window", "0.5")
    assert done.returncode == 0, done.stderr
    rows = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
    assert [(row["loss_probability"], row["seed"]) for row in rows] == \
        [(loss, seed) for loss in LOSS_GRID for seed in ("0", "1")]
    for row in rows[:2]:
        assert (float(row["tar"]), int(row["windows_lost"])) == (1.0, 0)
    for row in rows[-2:]:
        assert (float(row["tar"]), int(row["windows_lost"]), row["pearson_r"]) == (0.0, 4, "")
