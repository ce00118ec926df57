import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinsync
from twinsync import cli
from twinsync.metrics import state_consistency_index
from twinsync.model import descriptor_from_json, descriptor_to_json
from twinsync.replay import ReplayMode
from twinsync.scenarios import SCENARIO_KINDS

from conftest import FIXTURES
from reference import load_bundle


@pytest.fixture
def descriptor_file(tmp_path, descriptor):
    path = tmp_path / "descriptor.json"
    path.write_bytes(descriptor_to_json(descriptor))
    return path


# sha256 of what `twinsync ingest` writes from tests/fixtures/mme.cfg and of
# the four files `twinsync emit` writes from that descriptor.
CONFIG_GOLDEN = {
    "descriptor.json": "3d24b81ab3a3dde6221b58042cfe54f3b57a770684c20ec74b363f9a9d36e6d6",
    "deploy/smf.yaml": "8ffe184ce574485a1c73c9a7e520611c3cdc04f439b9e7661d031bae6dbebb12",
    "deploy/nssf.yaml": "6d61034e942b6fa24c9697481b7f29b5b77e80f791e507f8674a74114dc2e850",
    "deploy/amf.yaml": "4cbb31a95dccfbc710450bb1189ed416da8473ee1a1718af0ca51ef73fd7e758",
    "deploy/topology.json": "31735e46a79408fe51f5cf915bf4a3cb99e5db95a3b3ffe407370c637895813f",
}


def test_config_side_writes_the_golden_bytes(tmp_path):
    assert cli.main(["ingest", "--phys-config", str(FIXTURES / "mme.cfg"), "--out", str(tmp_path / "descriptor.json")]) == 0
    assert cli.main(["emit", "--descriptor", str(tmp_path / "descriptor.json"), "--out-dir", str(tmp_path / "deploy")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in CONFIG_GOLDEN}
    assert digests == CONFIG_GOLDEN


# Imports the config side, checks that numpy is not loaded, then blocks it
# and runs ingest and emit: argv is the config file and an output directory.
# Only writing the bundle may load yaml; ingest and building the bundle do not.
_NO_NUMPY_CONFIG_SIDE = '''
import sys

import twinsync, twinsync.model, twinsync.ingest, twinsync.emit, twinsync.cli

assert "numpy" not in sys.modules, "the config side imported numpy"
sys.modules["numpy"] = None  # any later `import numpy` raises ImportError
config, out = sys.argv[1:]
assert twinsync.cli.main(["ingest", "--phys-config", config, "--out", out + "/descriptor.json"]) == 0
with open(out + "/descriptor.json", "rb") as f:
    twinsync.emit.emit_bundle(twinsync.model.descriptor_from_json(f.read()))
assert "yaml" not in sys.modules, "ingest or emit_bundle imported yaml"
assert twinsync.cli.main(["emit", "--descriptor", out + "/descriptor.json", "--out-dir", out + "/deploy"]) == 0
'''


def test_config_side_loads_no_numpy(tmp_path):
    src = str(Path(twinsync.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_CONFIG_SIDE, str(FIXTURES / "mme.cfg"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "deploy").iterdir()) == [
        "amf.yaml", "nssf.yaml", "smf.yaml", "topology.json"]


def test_cli_spells_out_the_scenario_kinds_and_replay_modes():
    assert set(cli.CLI_SCENARIO_NAMES.values()) == set(SCENARIO_KINDS)
    assert list(cli.REPLAY_MODES) == [m.value for m in ReplayMode]


class TestIngestCommand:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "descriptor.json"
        code = cli.main(["ingest", "--phys-config", str(FIXTURES / "mme.cfg"), "--out", str(out)])
        assert code == 0
        descriptor = descriptor_from_json(out.read_bytes())
        assert descriptor.window_seconds == 120.0
        assert [s.dnn for s in descriptor.slices] == ["internet", "mec"]

    def test_malformed_config_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text('ue_count: 2\napn: "oops')
        code = cli.main(["ingest", "--phys-config", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_ill_typed_field_exits_2_with_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text('ue_count: 1, access_point_list: [{ apn: "a", ip: 10.45.0.1, cidr: 10.45.0.0/16, '
                       'tun_bw: 1000, qci: "x" }]')
        code = cli.main(["ingest", "--phys-config", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert capsys.readouterr().err == "twinsync: access_point_list[0].qci: expected an integer\n"

    def test_overlong_integer_literal_exits_2_with_its_position(self, tmp_path, capsys):
        bad = tmp_path / "long.cfg"
        bad.write_text("ue_count: " + "1" * 5000)
        code = cli.main(["ingest", "--phys-config", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == 2
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == (
            f"twinsync: integer literal of 5000 digits exceeds the {limit}-digit limit (line 1, column 11)\n")
        assert not (tmp_path / "d.json").exists()

    def test_missing_input_exits_2(self, tmp_path):
        code = cli.main(["ingest", "--phys-config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "d.json")])
        assert code == 2

    def test_overlapping_subnets_exit_3(self, tmp_path):
        bad = tmp_path / "overlap.cfg"
        bad.write_text(
            "ue_count: 1, access_point_list: ["
            '{ apn: "a", ip: 10.45.0.1, cidr: 10.45.0.0/16, tun_bw: 1000 },'
            '{ apn: "b", ip: 10.45.0.2, cidr: 10.45.0.0/16, tun_bw: 1000 }]'
        )
        code = cli.main(["ingest", "--phys-config", str(bad), "--out", str(tmp_path / "d.json")])
        assert code == 3


class TestEmitCommand:
    def test_emits_four_files_with_full_consistency(self, tmp_path, descriptor_file, descriptor):
        out_dir = tmp_path / "deploy"
        code = cli.main(["emit", "--descriptor", str(descriptor_file), "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("smf.yaml", "nssf.yaml", "amf.yaml", "topology.json"):
            assert (out_dir / name).exists()
        assert state_consistency_index(descriptor, load_bundle(out_dir)) == 1.0

    def test_missing_descriptor_exits_2(self, tmp_path):
        code = cli.main(["emit", "--descriptor", str(tmp_path / "none.json"), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_descriptor_missing_field_exits_2(self, tmp_path, descriptor):
        doc = json.loads(descriptor_to_json(descriptor))
        del doc["slices"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["emit", "--descriptor", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_unwritable_out_dir_exits_4(self, tmp_path, descriptor_file, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory should go")
        code = cli.main(["emit", "--descriptor", str(descriptor_file), "--out-dir", str(blocker)])
        assert code == 4
        assert "blocked" in capsys.readouterr().err


class TestRunCommand:
    def run_args(self, descriptor_file, tmp_path, **extra):
        args = [
            "run",
            "--descriptor", str(descriptor_file),
            "--scenario", "browse",
            "--duration", "20",
            "--report", str(tmp_path / "report.json"),
            "--out-dir", str(tmp_path),
        ]
        for key, value in extra.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        return args

    def test_run_writes_report_and_series(self, tmp_path, descriptor_file):
        code = cli.main(self.run_args(descriptor_file, tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["metrics"]["twin_alignment_ratio"] == 1.0
        assert doc["metrics"]["pearson_r"] >= 0.999
        assert doc["metrics"]["rmse_bps"] == 0.0
        assert (tmp_path / "npt_throughput.csv").exists()
        assert (tmp_path / "ndt_throughput.csv").exists()
        assert (tmp_path / "sync_log.csv").exists()

    @pytest.mark.parametrize("extra", [[], ["--save-replayed-pcaps"]], ids=["plain", "save-replayed-pcaps"])
    def test_out_dir_under_a_file_exits_4_with_one_line(self, tmp_path, descriptor_file, capsys, extra):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory should go")
        code = cli.main(self.run_args(descriptor_file, tmp_path, out_dir=blocker / "out") + extra)
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "blocked" in err

    def test_window_override_controls_segmentation(self, tmp_path, descriptor_file):
        code = cli.main(self.run_args(descriptor_file, tmp_path, window_seconds=5))
        assert code == 0
        lines = (tmp_path / "sync_log.csv").read_text().strip().split("\n")
        assert len(lines) - 1 == 4  # 20 s at T = 5 s

    def test_env_seed_override(self, tmp_path, descriptor_file, monkeypatch):
        monkeypatch.setenv("TWINSYNC_SEED", "77")
        code = cli.main(self.run_args(descriptor_file, tmp_path, seed=5))
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["seed"] == 77

    def test_bad_env_seed_exits_2(self, tmp_path, descriptor_file, monkeypatch):
        monkeypatch.setenv("TWINSYNC_SEED", "not-a-number")
        assert cli.main(self.run_args(descriptor_file, tmp_path)) == 2

    @pytest.mark.parametrize("extra", [
        {"channel": "directory-exchange", "exchange_dir": "xchg"},
        {"channel": "tcp"},
        {"channel": "directory-exchange", "mode": "real-time"},
    ], ids=["virtual-directory-exchange", "virtual-tcp", "real-time-without-exchange-dir"])
    def test_a_channel_the_mode_cannot_use_exits_3_before_anything_is_written(self, tmp_path, descriptor_file,
                                                                             capsys, extra):
        extra = {key: tmp_path / value if key == "exchange_dir" else value for key, value in extra.items()}
        code = cli.main(self.run_args(descriptor_file, tmp_path, **extra))
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "channel" in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "sync_log.csv").exists()

    @pytest.mark.parametrize("mode", ["virtual-clock", "real-time"])
    def test_a_negative_align_offset_exits_3_before_anything_is_written(self, tmp_path, descriptor_file, capsys,
                                                                        mode):
        # Every trace starts at time 0, so a negative offset would replay
        # its first packets before it.
        code = cli.main(self.run_args(descriptor_file, tmp_path, scenario="voice", duration=2, window_seconds=0.5,
                                      mode=mode, align_offset=-0.5))
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "align offset" in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "sync_log.csv").exists()

    def test_voice_needs_two_ues(self, tmp_path, descriptor):
        from dataclasses import replace

        lone = replace(descriptor, ue_count=1)
        path = tmp_path / "lone.json"
        path.write_bytes(descriptor_to_json(lone))
        args = [
            "run", "--descriptor", str(path), "--scenario", "voice",
            "--duration", "5", "--report", str(tmp_path / "r.json"),
        ]
        assert cli.main(args) == 3

    def test_more_phones_than_ports_exits_3_before_anything_is_written(self, tmp_path, descriptor, capsys):
        from dataclasses import replace

        crowd = tmp_path / "crowd.json"
        crowd.write_bytes(descriptor_to_json(replace(descriptor, ue_count=30_000)))
        out = tmp_path / "run"
        args = ["run", "--descriptor", str(crowd), "--scenario", "browse", "--duration", "5",
                "--report", str(out / "report.json"), "--out-dir", str(out)]
        assert cli.main(args) == 3
        assert capsys.readouterr().err == "twinsync: ue_count must be at most 25535, got 30000\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("loss-probability", "2"),
        ("loss-probability", "nan"),
        ("channel-latency", "-1"),
        ("channel-latency", "nan"),
        ("channel-latency", "1e15"),
        ("channel-bandwidth", "-3"),
        ("speed-factor", "0"),
        ("speed-factor", "nan"),
        ("speed-factor", "inf"),
        ("duration", "nan"),
        ("bin-width", "nan"),
        ("bin-width", "0"),
        ("max-lag-bins", "-1"),
        ("tcp-port", "70000"),
        ("tcp-port", "-1"),
        ("window-seconds", "0.0000004"),
    ])
    def test_out_of_range_flag_exits_3_with_one_line_and_no_report(self, tmp_path, descriptor_file, capsys,
                                                                    flag, value):
        args = ["run", "--descriptor", str(descriptor_file), "--scenario", "voice", "--duration", "2",
                "--window-seconds", "1", "--report", str(tmp_path / "report.json"), f"--{flag}", value]
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("twinsync: ")
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "sync_log.csv").exists()

    def test_unknown_scenario_is_an_argparse_error(self, tmp_path, descriptor_file):
        with pytest.raises(SystemExit) as err:
            cli.main(self.run_args(descriptor_file, tmp_path, scenario="gaming"))
        assert err.value.code == 2

    def test_deterministic_reports_for_equal_configs(self, tmp_path, descriptor_file):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for out in (a_dir, b_dir):
            args = [
                "run", "--descriptor", str(descriptor_file), "--scenario", "browse",
                "--duration", "20", "--seed", "13",
                "--report", str(out / "report.json"), "--out-dir", str(out),
            ]
            assert cli.main(args) == 0
        assert (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()
