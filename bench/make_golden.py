"""Record bench/golden.json: the digest of every output the workloads can produce.

    python3 bench/make_golden.py

Each operation still has to pass its independent check before its digest is
recorded.  Re-record only when an output is meant to change; a change that
claims only speed must reproduce the stored digests byte for byte.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    runner = workloads.Runner(None)
    for name in workloads.NAMES:
        for unit in workloads.Workload(name, 0).all_units():
            unit(runner)
    for key, err in runner.failures:
        print(f"FAILED {key}: {err}", file=sys.stderr)
    if runner.failures:
        return 1
    golden = dict(sorted(runner.golden.items()))
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(golden)} digests from {len(runner.records)} operations -> {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
