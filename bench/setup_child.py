"""One timed pass of the quick-start steps that come before `twinsync run`.

Run in a fresh interpreter with the checkout's `src` on PYTHONPATH:

    python3 bench/setup_child.py <checkout root> <scratch dir>

Times `import twinsync`, parsing and extracting tests/fixtures/mme.cfg,
validating the descriptor, and emitting and rendering the deployment
bundle into the scratch directory. Prints one JSON line.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    root, scratch = Path(sys.argv[1]), Path(sys.argv[2])
    text = (root / "tests" / "fixtures" / "mme.cfg").read_text(encoding="utf-8")

    t0 = time.perf_counter()
    import twinsync
    from twinsync import emit, ingest, model
    t_import = time.perf_counter()

    if Path(twinsync.__file__).resolve().parent != (root / "src" / "twinsync").resolve():
        print(f"twinsync imported from {twinsync.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    c0 = time.process_time()
    doc = ingest.parse_phys_config(text)
    c_parse = time.process_time()
    descriptor, _warnings = ingest.extract_descriptor(doc)
    violations = model.validate_descriptor(descriptor)
    c1 = time.process_time()
    bundle = emit.emit_bundle(descriptor)
    c_emit = time.process_time()
    written = emit.render_bundle(bundle, scratch)
    t_end = time.perf_counter()

    if violations or len(written) != 4:
        print(f"setup produced violations {violations} or {len(written)} files", file=sys.stderr)
        return 1
    print(json.dumps({
        "setup_s": t_end - t0,
        "setup.import_s": t_import - t0,
        "ingest.parse_phys_config.cpu_s": c_parse - c0,
        "emit.emit_bundle.cpu_s": c_emit - c1,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
