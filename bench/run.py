"""scidkit benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

--trace 0 measures with tracing off and reports the end-to-end metrics;
--trace 1 alternates untraced and traced runs of the workload's first batch
and reports the per-layer metrics, including the tracing overhead.  Every
operation's output is checked (see workloads.py).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with the environment block,
goes to bench/out/BENCH_<workload>_seed<seed>_trace<t>.json, and a traced
run also writes its spans next to it.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 5
TIMEOUT_S = 120

# Per-layer self times reported as a share of the traced batch.
SELF_NAMES = {
    "linalg.Echelon.insert": ("linalg.Echelon.insert",),
    "linalg.intersect": ("linalg.intersect",),
    "linalg.rref": ("linalg.rref",),
    "scid.analyze": ("scid.analyze",),
    "scid.verify_scid": ("scid.verify_scid",),
    "scid.SubspaceFamily.from_dict": ("scid.SubspaceFamily.from_dict",),
    "construct.build": tuple(f"construct.construct_{k}"
                             for k in ("max", "spectrum1", "spectrum2", "sunflower")),
    "construct.field_reduce": ("construct.field_reduce",),
    "construct.lift_spread_to_sunflower": ("construct.lift_spread_to_sunflower",),
    "construct.check_max_conditions": ("construct.check_max_conditions",),
    "bounds.best_bound": ("bounds.best_bound",),
    "bounds.check_family": ("bounds.check_family",),
    "cli.main": ("cli.main", "cli.canonical_dumps"),  # parse, dispatch and canonical dump
}
CALL_NAMES = {
    "gf.mul": "gf.FieldSpec.mul",
    "gf.sub": "gf.FieldSpec.sub",
    "gf.add": "gf.FieldSpec.add",
    "gf.inv": "gf.FieldSpec.inv",
    "linalg.Echelon.insert": "linalg.Echelon.insert",
    "linalg.Echelon.copy": "linalg.Echelon.copy",
    "linalg.intersect": "linalg.intersect",
    "linalg.rref": "linalg.rref",
    "scid.analyze": "scid.analyze",
    "construct.field_reduce": "construct.field_reduce",
    "bounds.best_bound": "bounds.best_bound",
}


def environment(seed: int) -> dict:
    """What decides whether two results are comparable: the same machine and code."""
    import scidkit

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scidkit": scidkit.__version__,
        "commit": git_commit(),
        "seed": seed,
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def measure_setup(workload: str, seed: int) -> tuple[list[dict], list[str]]:
    """Run the set-up probe SETUP_RUNS times, one fresh interpreter after another."""
    runs, errors = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        if proc.returncode != 0:
            errors.append(f"setup probe exited {proc.returncode}: "
                          f"{(proc.stdout + proc.stderr).strip()[-300:]}")
            continue
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs, errors


def run_batch(runner, units) -> float:
    """Closed loop over one batch; its wall time is the sum of operation latencies."""
    start = len(runner.records)
    for unit in units:
        unit(runner)
    return sum(r["latency"] or 0.0 for r in runner.records[start:])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics.

    The inclusive method never extrapolates past the largest sample, which
    matters where a run holds only a few operations (exhaustive).
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, runner, seconds: float) -> dict:
    """Untraced: repeat batches 0, 1, 2, ... of the stream until `seconds` pass."""
    warm = len(runner.records)
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(run_batch(runner, workload.batch(len(walls))))
        if len(walls) == 1:
            # The high-water mark after a fixed amount of work: later batches
            # only add chances for the collector to run late.
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = [r["latency"] * 1000 for r in runner.records[warm:] if r["latency"] is not None]
    beyond = sum(1 for x in lat if x > quantile(lat, 90))
    return {
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (quantile(lat, 50), "ms"),
            "op_p90_ms": (quantile(lat, 90), "ms"),
            "peak_rss_mb": (rss, "MB"),
        },
        "samples": {"batches": len(walls), "ops": len(lat), "ops_beyond_p90": beyond},
        "batch_walls": walls,
    }


def measure_traced(workload, runner, seconds: float, spans_stem: Path) -> dict:
    """Alternate untraced and traced runs of batch 0, at least twice each."""
    from tracing import Tracer

    units = workload.batch(0)
    tracer = Tracer()
    plain, traced, calls, selfs = [], [], [], Counter()
    plain_recs, traced_recs = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        start = len(runner.records)
        plain.append(run_batch(runner, units))
        plain_recs += runner.records[start:]
        start = len(runner.records)
        tracer.reset()
        runner.tracer = tracer
        with tracer:
            traced.append(run_batch(runner, units))
        runner.tracer = None
        if not traced_recs:
            traced_recs = runner.records[start:]
            tracer.write(spans_stem)
        calls.append(tracer.calls())
        selfs += tracer.self_by_name()
    if any(c != calls[0] for c in calls):
        runner.fail("trace", "call counts differ between traced runs of one batch")
    return layer_metrics(calls[0], selfs, sum(traced), plain, traced, plain_recs, traced_recs)


def layer_metrics(calls, selfs, traced_total, plain, traced, plain_recs, traced_recs) -> dict:
    from tracing import LAYERS
    from workloads import EXHAUSTIVE

    m: dict[str, tuple[float, str]] = {}
    for short, name in CALL_NAMES.items():
        m[f"{short}.calls"] = (calls[name], "count")
    for short, names in SELF_NAMES.items():
        m[f"{short}.self_pct"] = (100 * sum(selfs[n] for n in names) / traced_total, "%")
    for layer in LAYERS:
        share = sum(v for n, v in selfs.items() if n.startswith(layer + "."))
        m[f"{layer}.self_pct"] = (100 * share / traced_total, "%")

    nodes = sum(r.get("nodes", 0) for r in traced_recs)
    search_time = sum(r["latency"] for r in plain_recs if "nodes" in r)
    m["search.nodes"] = (nodes, "count")
    m["search.nodes_per_s"] = (
        sum(r.get("nodes", 0) for r in plain_recs) / search_time if search_time else 0.0, "1/s")
    meets = [r for r in traced_recs if "meets" in r and "meet_dim" in r]
    tried = sum(sum(r["meets"].values()) for r in meets)
    useful = sum(r["meets"][r["meet_dim"]] for r in meets)
    m["search.compat_ratio"] = (useful / tried if tried else 0.0, "ratio")
    iters = sum(r.get("iterations", 0) for r in traced_recs)
    done = sum(r.get("completed", 0) for r in traced_recs)
    m["search.random.complete_ratio"] = (done / iters if iters else 0.0, "ratio")
    plain_total = sum(plain)
    for inst in EXHAUSTIVE:
        tag = "-".join(map(str, inst))
        rows = [r for r in plain_recs if r.get("instance") == tag]
        t = sum(r["latency"] for r in rows)
        m[f"search.{tag}.nodes"] = (sum(r["nodes"] for r in rows) // max(len(plain), 1), "count")
        m[f"search.{tag}.nodes_per_s"] = (sum(r["nodes"] for r in rows) / t if t else 0.0, "1/s")
        m[f"search.{tag}.share_pct"] = (100 * t / plain_total, "%")
    m["cli.bytes_out"] = (sum(r.get("bytes_out", 0) for r in traced_recs), "bytes")
    m["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    m["trace.wall_s"] = (statistics.median(traced), "s")
    return {"metrics": m, "samples": {"traced_batches": len(traced), "untraced_batches": len(plain)},
            "batch_walls": {"untraced": plain, "traced": traced}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import scidkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(workloads.scidkit.__file__).parent != ROOT / "src" / "scidkit":
        print(f"scidkit was imported from {workloads.scidkit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    wl = workloads.Workload(args.workload, args.seed)
    runner = workloads.Runner(workloads.load_golden())
    for unit in wl.warmup():
        unit(runner)

    setup, setup_errors = measure_setup(args.workload, args.seed)
    stem = f"{args.workload}_seed{args.seed}"
    if args.trace:
        result = measure_traced(wl, runner, args.seconds, OUT / f"spans_{stem}")
        if setup:
            imports = statistics.median(s["import_s"] for s in setup)
            result["metrics"]["setup.import_s"] = (imports, "s")
    else:
        result = measure(wl, runner, args.seconds)
        if setup:
            result["metrics"]["setup_s"] = (statistics.median(s["setup_s"] for s in setup), "s")
    result["samples"]["setup_runs"] = len(setup)

    attempted = len(runner.records) + SETUP_RUNS
    failures = runner.failures + [("setup", e) for e in setup_errors]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(result["metrics"].items())}
    full = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, "env": env,
        "metrics": metrics, "samples": result["samples"], "batch_walls": result["batch_walls"],
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{stem}_trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"samples {json.dumps(result['samples'])}")
    if result["samples"].get("ops_beyond_p90", 10) < 10:
        print("note: fewer than ten operations lie beyond op_p90_ms; "
              "read it as the latency of the slowest operations, not as a tail estimate")
    print(f"fail_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted} operations)")
    for key, failure in failures[:10]:
        print(f"FAILED {key}: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures and bool(setup),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
