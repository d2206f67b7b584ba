"""Command-line interface.

Five subcommands:

* ``construct``: build a family of a kind in ``construct.CONSTRUCTIONS`` and
  print a certificate: parameters, members, named building blocks, the
  measured intersection report, and the bound comparison, as canonical JSON
  (sorted keys, no whitespace).  ``--check`` re-verifies the result and
  fails loudly on any mismatch.
* ``verify``: recompute what a certificate claims, all but its trace's
  blocks, and diff it, or analyze a bare family.
* ``bounds``: the proven upper bounds for (n, k, t).
* ``spectrum``: which values of dim S + dim I the constructions realize.
* ``search``: brute-force or randomized search at small parameters.

Exit codes: 0 success, 1 verification or bound failure, 2 bad input
(malformed JSON, invalid parameters, violated preconditions).
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from datetime import datetime, timezone
from functools import cache

from . import __version__
from .bounds import NotApplicable, ScidParams, best_bound, check_family
from .construct import CONSTRUCTIONS, ConstructionTrace, PreconditionViolated, _kind_params
from .gf import FieldError, field_from_order
from .scid import SubspaceFamily, analyze
from .search import CapExceeded, max_sum_bruteforce, random_scid_search

CERT_VERSION = "1"


def canonical_dumps(obj) -> str:
    """Stable JSON: sorted keys, minimal separators, no trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _provenance(args, seed: int | None = None) -> dict:
    return {
        "command": shlex.join(["scidkit", *args.argv]),
        "python_version": ".".join(map(str, sys.version_info[:3])),
        "scidkit_version": __version__,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _bounds_dict(report) -> dict:
    breport, violation = check_family(report)
    out = breport.to_dict()
    out["violation"] = violation
    return out


def _certificate(family: SubspaceFamily, trace: ConstructionTrace, report, args) -> dict:
    return {
        "version": CERT_VERSION,
        "params": dict(trace.parameters),
        "family": family.to_dict(),
        "trace": trace.to_dict(),
        "report": report.to_dict(),
        "bounds": _bounds_dict(report),
        "provenance": _provenance(args),
    }


def _cmd_construct(args) -> int:
    field = field_from_order(args.q)
    entry = CONSTRUCTIONS[args.kind]
    params = _kind_params(args.kind, {"eta": args.eta, "eps": args.eps}, "--")
    family, trace = entry.build(args.n, args.k, args.t, field, **params)

    report = analyze(family)
    cert = _certificate(family, trace, report, args)
    print(canonical_dumps(cert))

    if args.check:
        ok = report.is_scid and report.k == args.k and report.t == args.t
        want = entry.closed_form(args.n, args.k, args.t, **params)
        ok = ok and report.sum == want
        ok = ok and not cert["bounds"]["violation"]
        if entry.check is not None:
            ok = ok and all(entry.check(family, trace).values())
        if not ok:
            print(f"check failed: sum={report.sum}, expected={want}", file=sys.stderr)
            return 1
    return 0


def _load_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_verify(args) -> int:
    try:
        data = _load_json(args.path)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        print(canonical_dumps({"error": f"unreadable input: {exc}"}), file=sys.stderr)
        return 2

    try:
        if isinstance(data, dict) and "version" in data and "family" in data:
            return _verify_certificate(data)
        if isinstance(data, dict) and "field" in data and "members" in data:
            return _verify_bare_family(data)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        print(canonical_dumps({"error": f"malformed input: {exc}"}), file=sys.stderr)
        return 2
    print(canonical_dumps({"error": "neither a certificate nor a family"}), file=sys.stderr)
    return 2


def _verify_certificate(data: dict) -> int:
    if data["version"] != CERT_VERSION:
        print(
            canonical_dumps({"error": f"unsupported version {data['version']!r}"}),
            file=sys.stderr,
        )
        return 2
    family = SubspaceFamily.from_dict(data["family"])
    report = analyze(family)
    recomputed_bounds = _bounds_dict(report) if report.is_scid else None

    checks = [
        ("family", data["family"], family.to_dict()),
        ("report", data.get("report"), report.to_dict()),
        ("bounds", data.get("bounds"), recomputed_bounds),
        ("params", data["params"], _certified_params(data["trace"], family, report)),
    ]
    mismatches = [
        {"path": path, "stored": stored, "recomputed": fresh}
        for path, stored, fresh in checks
        if canonical_dumps(stored) != canonical_dumps(fresh)
    ]
    if mismatches:
        print(canonical_dumps({"ok": False, "mismatches": mismatches}))
        return 1
    print(canonical_dumps({"ok": True, "sum": report.sum}))
    return 0


def _certified_params(trace: dict, family: SubspaceFamily, report) -> dict | None:
    """The params a certificate of this family and trace must store, or None.

    n, k, t and q are measured; the kind's other parameters are the trace's.
    None when the family has no constant intersection dimension, the trace's
    kind is unknown, its parameters are not these integers, or the kind's
    closed form misses the measured sum.  The trace's blocks are not
    re-derived here: ``construct --check`` checks them.
    """
    kind, parameters = trace["kind"], trace["parameters"]
    if not report.is_scid or kind not in CONSTRUCTIONS or not isinstance(parameters, dict):
        return None
    entry = CONSTRUCTIONS[kind]
    extra = {name: parameters.get(name) for name in entry.params}
    params = {"n": report.n, "k": report.k, "t": report.t, "q": family.field.order, **extra}
    if canonical_dumps(parameters) != canonical_dumps(params):
        return None
    if any(type(value) is not int for value in extra.values()):
        return None
    if entry.closed_form(report.n, report.k, report.t, **extra) != report.sum:
        return None
    return params


def _verify_bare_family(data: dict) -> int:
    family = SubspaceFamily.from_dict(data)
    report = analyze(family)
    out = {"report": report.to_dict()}
    ok = report.is_scid
    if report.is_scid:
        bounds = _bounds_dict(report)
        out["bounds"] = bounds
        ok = not bounds["violation"]
    print(canonical_dumps(out))
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    report = best_bound(ScidParams(args.n, args.k, args.t))
    if args.json:
        print(canonical_dumps(report.to_dict()))
        return 0
    rows = [
        ("general", report.general),
        ("pair3", report.pair3),
        ("linear", report.linear),
        ("refined", report.refined),
    ]
    for name, value in rows:
        print(f"{name:<10} {'-' if value is None else value}")
    print(f"{'best':<10} {report.best}")
    print(f"{'sharp':<10} {report.sharp}")
    print(f"{'regime':<10} {report.regime}")
    return 0


def _cmd_spectrum(args) -> int:
    n, k, t, q = args.n, args.k, args.t, args.q
    field = field_from_order(q)
    breport = best_bound(ScidParams(n, k, t))
    achieved: dict[int, dict] = {}
    for kind, entry in CONSTRUCTIONS.items():
        for params in entry.settings(n, k, t, q):
            family, _ = entry.build(n, k, t, field, **params)
            total = analyze(family).sum
            want = entry.closed_form(n, k, t, **params)
            if total != want:
                print(
                    f"spectrum self-check failed: {kind} eta={params.get('eta')} "
                    f"eps={params.get('eps')} sum={total} closed form={want}",
                    file=sys.stderr,
                )
                return 1
            if total not in achieved:
                achieved[total] = {"sum": total, "kind": kind, "condition": entry.condition, **params}

    sums = sorted(achieved, reverse=True)
    gaps = []
    if sums:
        gaps = [v for v in range(sums[-1] + 1, sums[0]) if v not in achieved]

    if args.json:
        out = {
            "params": {"n": n, "k": k, "t": t, "q": q},
            "best_bound": breport.best,
            "sharp": breport.sharp,
            "achieved": [achieved[v] for v in sums],
            "gaps": gaps,
        }
        print(canonical_dumps(out))
        return 0

    print(f"best bound {breport.best} (sharp: {breport.sharp}, regime: {breport.regime})")
    print(f"{'sum':<5} {'construction':<12} {'parameters':<16} condition")
    for v in sums:
        e = achieved[v]
        parts = [f"{name}={e[name]}" for name in CONSTRUCTIONS[e["kind"]].params]
        print(f"{v:<5} {e['kind']:<12} {', '.join(parts) or '-':<16} {e['condition']}")
    if gaps:
        print(f"not realized between endpoints: {', '.join(map(str, gaps))}")
    return 0


def _cmd_search(args) -> int:
    field = field_from_order(args.q)
    if args.random:
        result = random_scid_search(
            args.n, args.k, args.t, field, args.d, seed=args.seed, iterations=args.iters
        )
        seed = args.seed
    else:
        result = max_sum_bruteforce(
            args.n, args.k, args.t, field, args.d, jobs=args.jobs
        )
        seed = None
    bound = best_bound(ScidParams(args.n, args.k, args.t)).best
    violation = result.best_sum is not None and result.best_sum > bound
    out = {
        "params": {"n": args.n, "k": args.k, "t": args.t, "q": args.q, "d": args.d},
        "result": result.to_dict(),
        "best_bound": bound,
        "matches_bound": result.best_sum == bound,
        "violation": violation,
        "provenance": _provenance(args, seed),
    }
    print(canonical_dumps(out))
    if args.stats and result.stats is not None:
        print(canonical_dumps(result.stats.to_dict()), file=sys.stderr)
    return 1 if violation else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="scidkit",
        description="Families of k-spaces with constant pairwise intersection dimension: "
        "constructions, bounds, and searches over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_q=True):
        p.add_argument("--n", type=int, required=True, help="number of members")
        p.add_argument("--k", type=int, required=True, help="member dimension")
        p.add_argument("--t", type=int, required=True, help="codimension of intersections in members")
        if with_q:
            p.add_argument("--q", type=int, required=True, help="field order (prime power)")

    p = sub.add_parser("construct", help="build a family and print its certificate")
    p.add_argument("kind", choices=list(CONSTRUCTIONS))
    common(p)
    glued = ", ".join(kind for kind, c in CONSTRUCTIONS.items() if "eta" in c.params)
    p.add_argument("--eta", type=int, default=None, help=f"gluing parameter ({glued})")
    p.add_argument("--eps", type=int, default=None, help="trim parameter")
    p.add_argument("--check", action="store_true", help="re-verify the output before exiting")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="recompute and diff a certificate, or analyze a family")
    p.add_argument("path", help="JSON file, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="proven upper bounds for (n, k, t)")
    common(p, with_q=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("spectrum", help="sums realized by the constructions")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("search", help="search families in F_q^d")
    common(p)
    p.add_argument("--d", type=int, required=True, help="ambient dimension")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for brute force, at most one per CPU and one per candidate",
    )
    p.add_argument("--random", action="store_true", help="randomized search instead of brute force")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument(
        "--stats", action="store_true",
        help="print the brute-force search's statistics as one JSON line on stderr",
    )
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (FieldError, NotApplicable, CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
