"""Record the digests of the golden reports that run.py checks against.

Run from the root of a bmvsim checkout, at the commit whose reports are the
reference:

    python3 benchmark/capture_golden.py

Every command of every workload mix, and ``verify-all`` in each format, is
run once; each must exit 0 and pass.  The SHA-256 of each report's bytes is
written to ``benchmark/golden.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness


def main() -> int:
    root = Path.cwd()
    cli = harness.import_cli(root)
    out = root / ".bench_out" / "golden.out"
    out.parent.mkdir(exist_ok=True)
    golden = {}
    commands = [argv for mix in harness.WORKLOADS.values() for argv in mix] + list(harness.VERIFY_ALL)
    try:
        for argv in commands:
            out.unlink(missing_ok=True)
            code = cli.main([*argv, "--out", str(out)])
            data = out.read_bytes() if out.exists() else b""
            fmt = argv[argv.index("--format") + 1]
            if code != 0 or not data.endswith(harness.PASS_SUFFIX[fmt]):
                print(f"error: {harness.command_key(argv)} does not pass (exit {code})", file=sys.stderr)
                return 1
            golden[harness.command_key(argv)] = harness.digest(data)
    finally:
        out.unlink(missing_ok=True)
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} digests to {harness.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
