"""Set-up cost of one workload in a fresh interpreter.

Times importing scidkit, generating the workload's inputs from its seed and
finishing one warm-up operation, then prints one JSON line.  bench/run.py
starts this script several times per run and reports the median as setup_s.

    python3 bench/setup_probe.py --workload certify --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scidkit  # noqa: E402,F401

T1 = time.perf_counter()

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    wl = workloads.Workload(args.workload, args.seed)
    wl.batch(0)
    runner = workloads.Runner(workloads.load_golden())
    wl.setup_unit()(runner)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": T1 - T0, "setup_s": t2 - T0, "failures": runner.failures}))
    return 1 if runner.failures else 0


if __name__ == "__main__":
    sys.exit(main())
