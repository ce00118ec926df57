"""Operator entry point: ingest, emit, run.

Exit codes are a stable contract: 0 success, 2 parse error (including
unreadable input files), 3 validation error, 4 output I/O error,
5 runtime failure. The TWINSYNC_SEED environment variable overrides any
--seed flag, so a whole experiment battery can be re-seeded externally.
"""

import argparse
import math
import os
import sys
from pathlib import Path

from . import ingest, model
from .errors import (
    ConfigSyntaxError,
    DescriptorValidationError,
    ExtractionError,
    JsonParseError,
    SchemaError,
    StageError,
    TwinError,
)
from .emit import emit_bundle, render_bundle
from .model import seconds_to_micros

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_RUNTIME = 5

# Operator-facing aliases of scenarios.SCENARIO_KINDS.
CLI_SCENARIO_NAMES = {
    "browse": "attach-and-browse",
    "stream": "video-streaming",
    "voice": "voice-call",
    "live-upload": "live-upload",
}

# The values of replay.ReplayMode, spelled out so that ingest, emit and
# --help never import the run loop (and numpy with it).
REPLAY_MODES = ("virtual-clock", "real-time")

# The run command's float flags: each must be a finite number.
_FLOAT_FLAGS = ("duration", "window_seconds", "channel_latency", "bin_width", "speed_factor", "align_offset")


def _fail(code: int, message: str) -> int:
    print(f"twinsync: {message}", file=sys.stderr)
    return code


def _read_text(path: Path) -> str:
    # Unreadable input is a parse-stage failure: there is nothing to parse.
    return Path(path).read_text(encoding="utf-8")


def cmd_ingest(args) -> int:
    try:
        text = _read_text(args.phys_config)
    except OSError as exc:
        return _fail(EXIT_PARSE, f"cannot read {args.phys_config}: {exc}")
    try:
        doc = ingest.parse_phys_config(text)
        descriptor, warnings = ingest.extract_descriptor(doc)
    except (ConfigSyntaxError, ExtractionError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    except DescriptorValidationError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    for warning in warnings:
        print(f"twinsync: warning: {warning}", file=sys.stderr)
    try:
        Path(args.out).write_bytes(model.descriptor_to_json(descriptor))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.out}: {exc}")
    print(f"wrote descriptor with {len(descriptor.slices)} slice(s) to {args.out}")
    return EXIT_OK


def _load_descriptor(path: Path) -> model.TwinDescriptor:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise JsonParseError(f"cannot read {path}: {exc}", 0, 0) from exc
    return model.descriptor_from_json(data)


def cmd_emit(args) -> int:
    try:
        descriptor = _load_descriptor(args.descriptor)
    except (JsonParseError, SchemaError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    violations = model.validate_descriptor(descriptor)
    if violations:
        return _fail(EXIT_VALIDATION, "; ".join(str(v) for v in violations))
    bundle = emit_bundle(descriptor)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = render_bundle(bundle, out_dir)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write into {out_dir}: {exc}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_run(args) -> int:
    from .pipeline import RunConfig, run_pipeline, write_run_artifacts
    from .replay import ReplayMode, ReplayPlan
    from .scenarios import ScenarioSpec
    from .transport import ChannelSpec

    try:
        descriptor = _load_descriptor(args.descriptor)
    except (JsonParseError, SchemaError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    for flag in _FLOAT_FLAGS:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            return _fail(EXIT_VALIDATION, f"--{flag.replace('_', '-')} must be a finite number, got {value}")
    if args.window_seconds is not None:
        from dataclasses import replace

        descriptor = replace(descriptor, window_seconds=args.window_seconds)
    violations = model.validate_descriptor(descriptor)
    if violations:
        return _fail(EXIT_VALIDATION, "; ".join(str(v) for v in violations))

    seed = args.seed
    env_seed = os.environ.get("TWINSYNC_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            return _fail(EXIT_PARSE, f"TWINSYNC_SEED must be an integer, got {env_seed!r}")

    report_path = Path(args.report)
    try:
        scenario = ScenarioSpec(
            kind=CLI_SCENARIO_NAMES[args.scenario],
            duration_micros=seconds_to_micros(args.duration),
            seed=seed,
            ue_count=max(descriptor.ue_count, 1),
        )
        scenario.validate()
        channel = ChannelSpec(
            kind=args.channel,
            latency_us=seconds_to_micros(args.channel_latency),
            bandwidth_bps=args.channel_bandwidth,
            loss_probability=args.loss_probability,
            seed=seed,
        )
        plan = ReplayPlan(
            mode=ReplayMode(args.mode),
            speed_factor=args.speed_factor,
            align_offset_micros=None if args.align_offset is None else seconds_to_micros(args.align_offset),
        )
        cfg = RunConfig(
            descriptor=descriptor,
            scenario=scenario,
            channel=channel,
            plan=plan,
            seed=seed,
            bin_width_micros=seconds_to_micros(args.bin_width),
            max_lag_bins=args.max_lag_bins,
            out_dir=Path(args.out_dir) if args.out_dir else report_path.parent,
            save_replayed_pcaps=args.save_replayed_pcaps,
            exchange_dir=Path(args.exchange_dir) if args.exchange_dir else None,
            tcp_host=args.tcp_host,
            tcp_port=args.tcp_port,
        )
    except ValueError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    try:
        result = run_pipeline(cfg)
        written = write_run_artifacts(cfg, result, report_path)
    except StageError as exc:
        return _fail(EXIT_RUNTIME, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write run artifacts: {exc}")
    for path in written:
        print(f"wrote {path}")
    r = result.report
    print(
        f"TAR={r.twin_alignment_ratio:.3f} pearson_r={_fmt(r.pearson_r)} "
        f"rmse_bps={_fmt(r.rmse_bps)} lag_us={_fmt(r.estimated_lag_us)} "
        f"lost={r.windows_lost}"
    )
    return EXIT_OK


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twinsync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse a physical config into a descriptor JSON")
    p_ingest.add_argument("--phys-config", required=True, type=Path)
    p_ingest.add_argument("--out", required=True, type=Path)
    p_ingest.set_defaults(func=cmd_ingest)

    p_emit = sub.add_parser("emit", help="emit twin deployment files from a descriptor")
    p_emit.add_argument("--descriptor", required=True, type=Path)
    p_emit.add_argument("--out-dir", required=True, type=Path)
    p_emit.set_defaults(func=cmd_emit)

    p_run = sub.add_parser("run", help="run the capture/transfer/replay loop and report fidelity")
    p_run.add_argument("--descriptor", required=True, type=Path)
    p_run.add_argument("--scenario", required=True, choices=sorted(CLI_SCENARIO_NAMES))
    p_run.add_argument("--duration", type=float, default=60.0, help="scenario length in seconds")
    p_run.add_argument("--channel", choices=["in-process", "directory-exchange", "tcp"], default="in-process")
    p_run.add_argument("--mode", choices=REPLAY_MODES, default=REPLAY_MODES[0])
    p_run.add_argument("--report", required=True, type=Path, help="where to write the report JSON")
    p_run.add_argument("--out-dir", type=Path, help="directory for CSV artifacts (default: report directory)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--window-seconds", type=float, help="override the descriptor's sync window T")
    p_run.add_argument("--channel-latency", type=float, default=0.0, help="simulated latency in seconds")
    p_run.add_argument("--channel-bandwidth", type=int, default=0, help="simulated bps, 0 = unlimited")
    p_run.add_argument("--loss-probability", type=float, default=0.0)
    p_run.add_argument("--bin-width", type=float, default=1.0, help="throughput bin width in seconds")
    p_run.add_argument("--max-lag-bins", type=int, default=30)
    p_run.add_argument("--speed-factor", type=float, default=1.0)
    p_run.add_argument("--align-offset", type=float, default=None,
                       help="explicit replay alignment offset in seconds (default: automatic)")
    p_run.add_argument("--save-replayed-pcaps", action="store_true")
    p_run.add_argument("--exchange-dir", type=Path, help="directory for the directory-exchange channel")
    p_run.add_argument("--tcp-host", default="127.0.0.1")
    p_run.add_argument("--tcp-port", type=int, default=None)
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TwinError as exc:
        return _fail(EXIT_RUNTIME, str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
