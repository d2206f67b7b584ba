"""The benchmark's three workloads: seeded inputs, operations and output checks.

Load is closed-loop from one process: a :class:`Runner` starts each operation
only after the previous one finished.  A workload yields batches of *units*;
a unit is a short script of operations (a construct followed by the verify
calls on its output, say) and every operation is timed on its own and
checked against a reference that does not come from scidkit, plus a stored
digest of its provenance-free output.

The package is reached through module attributes at call time
(``search.max_sum_bruteforce``, ``cli.main``), so a tracer that patches those
attributes sees every call.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import scidkit
from scidkit import cli, gf, search

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")
NAMES = ("exhaustive", "certify", "probe")


class Runner:
    """Runs, times and checks operations one at a time.

    With `golden` None the runner records the digest of each output instead
    of comparing it; the independent checks run either way.
    """

    def __init__(self, golden: dict | None, tracer=None):
        self.record = golden is None
        self.golden = {} if golden is None else golden
        self.tracer = tracer
        self.records: list[dict] = []
        self.failures: list[tuple[str, str]] = []
        self.checked: set[str] = set()

    def op(self, key: str, fn, check, **meta):
        """Time fn(), then check its result; returns (result, record)."""
        meets = Counter(self.tracer.search_meets) if self.tracer else None
        t0 = time.perf_counter()
        try:
            result, err = fn(), None
        except Exception as exc:  # an operation that raises has failed
            result, err = None, f"raised {exc!r}"
        latency = time.perf_counter() - t0
        if err is None:
            try:
                err = check(result)
            except Exception as exc:  # so has one whose output cannot be checked
                err = f"check raised {exc!r}"
        rec = {"key": key, "latency": latency, "ok": err is None, **meta}
        if meets is not None:
            rec["meets"] = self.tracer.search_meets - meets
        self.records.append(rec)
        if err is not None:
            self.failures.append((key, err))
        return result, rec

    def fail(self, key: str, err: str) -> None:
        """Count an operation that could not be attempted as failed."""
        self.records.append({"key": key, "latency": None, "ok": False})
        self.failures.append((key, err))

    def expect(self, key: str, obj) -> str | None:
        got = ref.digest(obj)
        if self.record:
            self.golden[key] = got
            return None
        want = self.golden.get(key)
        if want is None:
            return "no stored digest for this operation"
        return None if got == want else f"output digest {got[:12]} != stored {want[:12]}"

    def once(self, key: str, check) -> str | None:
        """Run an expensive independent check only the first time a key passes."""
        if key in self.checked:
            return None
        err = check()
        if err is None:
            self.checked.add(key)
        return err


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _rng(seed: int, batch: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}:{batch}")


def _search_output(res) -> dict:
    """What a search must reproduce exactly: the maximum and its witness."""
    return {
        "best_sum": res.best_sum,
        "witness": None if res.witness is None else res.witness.to_dict(),
    }


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------

EXHAUSTIVE = ((4, 2, 1, 2, 5), (4, 2, 1, 3, 4))
EXHAUSTIVE_WARMUP = (3, 2, 1, 2, 4)
# Recorded maxima that the search must agree with, by instance.
RESULTS = {(4, 2, 1, 2, 5): "results/max_sum_n4_k2_t1_q2_d5.json"}


def _exhaustive_unit(n, k, t, q, d):
    key = f"max_sum_bruteforce {n} {k} {t} {q} {d}"
    want = ref.max_sum_meeting_lines(n, d)

    def recorded(out) -> str | None:
        data = json.loads((ROOT / RESULTS[(n, k, t, q, d)]).read_text())
        if data["exact_max"] != out["best_sum"] or data["witness"] != out["witness"]:
            return f"disagrees with {RESULTS[(n, k, t, q, d)]}"
        return None

    def unit(runner: Runner) -> None:
        def check(res):
            if not res.exhaustive or res.best_sum != want:
                return f"best_sum {res.best_sum} != {want} (exhaustive={res.exhaustive})"
            out = _search_output(res)
            err = runner.once(key, lambda: _witness_error(out, n, k, t) or (
                recorded(out) if (n, k, t, q, d) in RESULTS else None))
            return err or runner.expect(key, out)

        res, rec = runner.op(
            key,
            lambda: search.max_sum_bruteforce(n, k, t, gf.field_from_order(q), d, jobs=1),
            check, instance=f"{n}-{k}-{t}-{q}-{d}", meet_dim=k - t,
        )
        if res is not None:
            rec["nodes"] = res.explored

    return unit


def _witness_error(out: dict, n: int, k: int, t: int) -> str | None:
    w = out["witness"]
    if len(w["members"]) != n:
        return f"witness has {len(w['members'])} members, not {n}"
    try:
        got = ref.family_sum(w, k, t)
    except ValueError as exc:
        return f"witness is not a ({k}, {k - t}) family: {exc}"
    return None if got == out["best_sum"] else f"witness sums to {got}, not {out['best_sum']}"


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# (kind, n, k, t, eta, eps) per field order.  Every kind runs over every q;
# the sunflowers grow to the large families that dominate the tail.
CONSTRUCT_SHAPES = (
    ("max", 3, 2, 1, None, 0),
    ("max", 6, 5, 4, None, 0),
    ("spectrum1", 4, 3, 2, None, 1),
    ("spectrum2", 5, 4, 3, 3, 1),
    ("sunflower", 6, 3, 2, 3, 1),
)
LARGE_SUNFLOWERS = {  # q: (n, k, t, eta); n up to the number of available lines
    2: (20, 4, 2, 17),
    3: (40, 5, 2, 37),
    4: (17, 3, 2, 15),
    5: (26, 3, 2, 24),
    7: (30, 3, 2, 28),
    8: (30, 4, 2, 28),
    9: (30, 3, 2, 28),
}
FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9)
SPECTRA = ((3, 2, 1, 2), (4, 3, 2, 3), (5, 4, 3, 2), (4, 2, 1, 5), (5, 3, 2, 4), (6, 3, 2, 2))
BOUNDS = ((3, 2, 1), (4, 2, 1), (5, 3, 2), (6, 4, 1), (7, 5, 3), (9, 6, 2))

TAMPERS = {  # what is changed -> the one path verify must report
    "report.sum": "report",
    "report.pairwise_dims": "report",
    "bounds.best": "bounds",
    "family.row_order": "family",
}
MALFORMED = ("truncated", "version", "entry_range", "ragged_row", "members_type", "missing_field")


def construct_specs() -> list[tuple]:
    specs = []
    for q in FIELD_ORDERS:
        specs += [(kind, n, k, t, q, eta, eps) for kind, n, k, t, eta, eps in CONSTRUCT_SHAPES]
        n, k, t, eta = LARGE_SUNFLOWERS[q]
        specs.append(("sunflower", n, k, t, q, eta, 0))
    return specs


def cli_call(argv: list[str], stdin: str | None = None) -> tuple[int, str, str]:
    """scidkit.cli.main(argv) in-process: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _json_output(code: int, stdout: str, want_code: int = 0):
    """Parse a one-line canonical JSON output, or raise ValueError."""
    if code != want_code:
        raise ValueError(f"exit status {code}, expected {want_code}")
    data = json.loads(stdout)
    if stdout != ref.canonical(data) + "\n":
        raise ValueError("output is not canonical JSON")
    return data


def tamper(cert: dict, how: str, pick: float) -> dict:
    cert = copy.deepcopy(cert)
    if how == "report.sum":
        cert["report"]["sum"] += 1
    elif how == "report.pairwise_dims":
        cert["report"]["pairwise_dims"][0][1] += 1
    elif how == "bounds.best":
        cert["bounds"]["best"] += 1
    else:  # the same subspaces, one basis listed out of canonical order
        members = cert["family"]["members"]
        members[int(pick * len(members))]["basis"].reverse()
    return cert


def malform(text: str, cert: dict, how: str, pick: float) -> str:
    if how == "truncated":
        return text[: len(text) // 2]
    cert = copy.deepcopy(cert)
    members = cert["family"]["members"]
    member = members[int(pick * len(members))]
    if how == "version":
        cert["version"] = "0"
    elif how == "entry_range":
        member["basis"][0][0] = cert["params"]["q"]
    elif how == "ragged_row":
        member["basis"][0].append(0)
    elif how == "members_type":
        cert["family"]["members"] = len(cert["family"]["members"])
    else:
        del cert["family"]["field"]
    return ref.canonical(cert)


def _construct_chain(spec, tamper_how: str, malform_how: str, pick: float):
    """construct --check, then verify of its certificate, of a tampered copy
    and of a malformed copy; `pick` chooses the member that is changed."""
    kind, n, k, t, q, eta, eps = spec
    argv = ["construct", kind, "--n", str(n), "--k", str(k), "--t", str(t), "--q", str(q)]
    if eta is not None:
        argv += ["--eta", str(eta)]
    if eps:
        argv += ["--eps", str(eps)]
    argv.append("--check")
    key = " ".join(argv)
    want = ref.construction_sum(kind, n, k, t, eps, eta)
    verified = ref.canonical({"ok": True, "sum": want}) + "\n"

    def unit(runner: Runner) -> None:
        def check_cert(res):
            cert = _json_output(*res[:2])
            report = cert["report"]
            if report["sum"] != want or not report["is_scid"] or report["t"] != t:
                return f"report sum={report['sum']} t={report['t']}, expected sum {want}, t {t}"

            def independent():
                try:
                    got = ref.family_sum(cert["family"], k, t)
                except ValueError as exc:
                    return f"family is not a ({k}, {k - t}) family: {exc}"
                return None if got == want else f"family sums to {got}, not {want}"

            body = {key_: v for key_, v in cert.items() if key_ != "provenance"}
            return runner.once(key, independent) or runner.expect(key, body)

        res, rec = runner.op(key, lambda: cli_call(argv), check_cert)
        if res is None:
            for what in ("verify", "verify tampered", "verify malformed"):
                runner.fail(f"{what} {key}", "no certificate to verify")
            return
        rec["bytes_out"] = len(res[1])
        text = res[1]

        def check_ok(res):
            if res[0] != 0 or res[1] != verified:
                return f"verify gave status {res[0]} and {res[1].strip()!r}, expected {verified.strip()}"
            return None

        res, rec = runner.op(f"verify {key}", lambda: cli_call(["verify", "-"], text), check_ok)
        rec["bytes_out"] = len(res[1]) if res else 0
        try:
            cert = json.loads(text)
            bad = ref.canonical(tamper(cert, tamper_how, pick))
            broken = malform(text, cert, malform_how, pick)
        except (ValueError, LookupError, TypeError) as exc:
            runner.fail(f"verify tampered {key}", f"cannot alter the certificate: {exc!r}")
            runner.fail(f"verify malformed {key}", f"cannot alter the certificate: {exc!r}")
            return
        path = TAMPERS[tamper_how]

        def check_tampered(res):
            out = _json_output(res[0], res[1], want_code=1)
            paths = {m["path"] for m in out["mismatches"]}
            if out["ok"] is not False or paths != {path}:
                return f"tampered {tamper_how}: reported paths {sorted(paths)}, expected [{path!r}]"
            return None

        res, rec = runner.op(f"verify tampered {key}", lambda: cli_call(["verify", "-"], bad),
                             check_tampered, tamper=tamper_how)
        rec["bytes_out"] = len(res[1]) if res else 0

        def check_malformed(res):
            if res[0] != 2 or res[1]:
                return f"malformed {malform_how}: status {res[0]}, expected 2 and no output"
            return None

        runner.op(f"verify malformed {key}", lambda: cli_call(["verify", "-"], broken),
                  check_malformed, malformed=malform_how)

    return unit


def _json_unit(argv: list[str], check_data):
    key = " ".join(argv)

    def unit(runner: Runner) -> None:
        def check(res):
            data = _json_output(*res[:2])
            return check_data(data) or runner.expect(key, data)

        res, rec = runner.op(key, lambda: cli_call(argv), check)
        if res is not None:
            rec["bytes_out"] = len(res[1])

    return unit


def _bounds_unit(n, k, t):
    want = ref.bound_table(n, k, t)
    return _json_unit(
        ["bounds", "--n", str(n), "--k", str(k), "--t", str(t), "--json"],
        lambda data: None if data == want else f"bounds {data} != {want}",
    )


def _spectrum_unit(n, k, t, q):
    table = ref.bound_table(n, k, t)

    def check(data) -> str | None:
        if (data["best_bound"], data["sharp"]) != (table["best"], table["sharp"]):
            return f"spectrum bound {data['best_bound']}/{data['sharp']} != {table['best']}/{table['sharp']}"
        sums = [e["sum"] for e in data["achieved"]]
        if sums != sorted(set(sums), reverse=True):
            return "achieved sums are not strictly decreasing"
        for e in data["achieved"]:
            want = ref.construction_sum(e["kind"], n, k, t, e.get("eps", 0), e.get("eta"))
            if e["sum"] != want:
                return f"{e['kind']} entry sums to {e['sum']}, closed form {want}"
        gaps = [v for v in range(sums[-1] + 1, sums[0]) if v not in sums]
        return None if data["gaps"] == gaps else f"gaps {data['gaps']} != {gaps}"

    argv = ["spectrum", "--n", str(n), "--k", str(k), "--t", str(t), "--q", str(q), "--json"]
    return _json_unit(argv, check)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

PROBE = ((4, 2, 1, 3, 6), (4, 2, 1, 5, 5), (4, 3, 2, 9, 6), (6, 2, 1, 3, 5))
PROBE_SEEDS = 64  # derived search seeds are drawn from range(PROBE_SEEDS)
PROBE_ITERATIONS = 20
PROBE_PER_BATCH = 2  # searches per instance in one batch


def _probe_unit(n, k, t, q, d, seed):
    key = f"random_scid_search {n} {k} {t} {q} {d} seed={seed} iterations={PROBE_ITERATIONS}"
    bound = ref.bound_table(n, k, t)["best"]

    def unit(runner: Runner) -> None:
        def check(res):
            if res.exhaustive or not 0 <= res.explored <= PROBE_ITERATIONS:
                return f"explored {res.explored} of {PROBE_ITERATIONS}, exhaustive={res.exhaustive}"
            out = _search_output(res)
            if res.explored == 0:
                if out != {"best_sum": None, "witness": None}:
                    return "a result without any completed family"
            elif res.best_sum > bound:
                return f"best_sum {res.best_sum} exceeds the proven bound {bound}"
            elif err := runner.once(key, lambda: _witness_error(out, n, k, t)):
                return err
            return runner.expect(key, out)

        res, rec = runner.op(
            key,
            lambda: search.random_scid_search(
                n, k, t, gf.field_from_order(q), d, seed=seed, iterations=PROBE_ITERATIONS),
            check, meet_dim=k - t, iterations=PROBE_ITERATIONS,
        )
        if res is not None:
            rec["completed"] = res.explored

    return unit


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Seeded input stream of one workload.

    batch(i) is the i-th batch of the stream; warmup() fills the package's
    lazy tables and caches before timing; setup_unit() is the one operation a
    fresh interpreter finishes for setup_s; all_units() covers every
    operation the stream can produce, for recording digests.
    """

    def __init__(self, name: str, seed: int):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
        self.name = name
        self.seed = seed

    def batch(self, i: int) -> list:
        rng = _rng(self.seed, i, self.name)
        if self.name == "exhaustive":
            units = [_exhaustive_unit(*inst) for inst in EXHAUSTIVE]
        elif self.name == "certify":
            units = [
                _construct_chain(spec, rng.choice(sorted(TAMPERS)), rng.choice(MALFORMED),
                                 rng.random())
                for spec in construct_specs()
            ]
            units += [_spectrum_unit(*p) for p in SPECTRA]
            units += [_bounds_unit(*p) for p in BOUNDS]
        else:
            # Batches walk one seeded permutation of the search seeds per
            # instance, so a run covers most of the pool whatever the seed.
            pool = random.Random(f"{self.name}:{self.seed}")
            orders = [pool.sample(range(PROBE_SEEDS), PROBE_SEEDS) for _ in PROBE]
            units = [
                _probe_unit(*inst, order[(PROBE_PER_BATCH * i + j) % PROBE_SEEDS])
                for inst, order in zip(PROBE, orders)
                for j in range(PROBE_PER_BATCH)
            ]
        rng.shuffle(units)
        return units

    def warmup(self) -> list:
        if self.name == "exhaustive":  # prime fields only: nothing lazy to fill
            return [self.setup_unit()]
        return self.batch(0)

    def setup_unit(self):
        if self.name == "exhaustive":
            return _exhaustive_unit(*EXHAUSTIVE_WARMUP)
        if self.name == "certify":
            return _construct_chain(construct_specs()[0], "report.sum", "truncated", 0.0)
        return _probe_unit(*PROBE[0], 0)

    def all_units(self) -> list:
        if self.name == "exhaustive":
            return [_exhaustive_unit(*i) for i in (EXHAUSTIVE_WARMUP,) + EXHAUSTIVE]
        if self.name == "certify":
            return (
                [_construct_chain(s, "report.sum", "truncated", 0.0) for s in construct_specs()]
                + [_spectrum_unit(*p) for p in SPECTRA]
                + [_bounds_unit(*p) for p in BOUNDS]
            )
        return [_probe_unit(*inst, s) for inst in PROBE for s in range(PROBE_SEEDS)]
