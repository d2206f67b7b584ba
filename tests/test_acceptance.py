"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Every criterion is a single test named test_criterion_NN_*, so a verbose
pytest run shows one pass/fail line per criterion.  Each test also prints a
one-line summary (visible with -s, or in captured output on failure).
Tolerances are zero everywhere: all comparisons are integer equalities.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from scidkit.bounds import (
    ScidParams,
    best_bound,
    bound_general,
    bound_linear,
    bound_pair3,
    bound_refined,
    check_family,
)
from scidkit.construct import (
    construct_max,
    construct_spectrum1,
    construct_spectrum2,
    construct_sunflower,
    desarguesian_spread,
    expected_sum,
    lift_spread_to_sunflower,
)
from scidkit.gf import field_from_order
from scidkit.linalg import intersect, quotient_map, rref, span_sum
from scidkit.scid import SubspaceFamily, analyze, verify_scid
from scidkit.search import gaussian_binomial, max_sum_bruteforce

from reference_enum import iter_subspaces

GRID_Q = (2, 3)
GRID_N = range(2, 6)
GRID_K = range(1, 6)

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _sunflower_feasible(n, k, t, q, eta):
    return n <= (q ** (t * (n - eta)) - 1) // (q**t - 1)


@pytest.fixture(scope="module")
def grid_families():
    """Every construction at every legal grid tuple: (label, family, n, k, t, want)."""
    out = []
    for q in GRID_Q:
        field = field_from_order(q)
        for n in GRID_N:
            for k in GRID_K:
                for t in range(1, k + 1):
                    if (n - 1) * (k - t) <= k:
                        fam, _ = construct_max(n, k, t, field)
                        out.append((f"max q{q}", fam, n, k, t, n * k))
                        for eps in range(k - t + 1):
                            if eps and n < 3:
                                continue
                            fam, _ = construct_spectrum1(n, k, t, field, eps)
                            want = expected_sum("spectrum1", n, k, t, eps)
                            out.append((f"spectrum1 q{q} eps{eps}", fam, n, k, t, want))
                        for eta in range(2, n):
                            for eps in range(k - t + 1):
                                fam, _ = construct_spectrum2(n, k, t, field, eta, eps)
                                want = expected_sum("spectrum2", n, k, t, eps, eta)
                                out.append(
                                    (f"spectrum2 q{q} eta{eta} eps{eps}", fam, n, k, t, want)
                                )
                    for eta in range(1, n - 1):
                        if not _sunflower_feasible(n, k, t, q, eta):
                            continue
                        for eps in range(t):
                            fam, _ = construct_sunflower(n, k, t, field, eta, eps)
                            want = expected_sum("sunflower", n, k, t, eps, eta)
                            out.append(
                                (f"sunflower q{q} eta{eta} eps{eps}", fam, n, k, t, want)
                            )
    return out


@pytest.fixture(scope="module")
def oracle_runs():
    """(n, k, t, d, result) for the small-parameter exhaustive searches."""
    f2 = field_from_order(2)
    runs = [(3, 2, 1, 4, max_sum_bruteforce(3, 2, 1, f2, 4))]
    for k in range(1, 4):
        for t in range(1, k + 1):
            runs.append((2, k, t, k + t, max_sum_bruteforce(2, k, t, f2, k + t)))
    return runs


def test_criterion_01_construction_equalities(grid_families):
    for label, fam, n, k, t, want in grid_families:
        got = analyze(fam).sum
        assert got == want, f"{label} (n={n},k={k},t={t}): sum {got} != {want}"
        assert verify_scid(fam, k, t), f"{label} (n={n},k={k},t={t}): wrong pattern"
    print(f"criterion 1 PASS: {len(grid_families)} construction sums exact")


def test_criterion_02_bound_soundness(grid_families, oracle_runs):
    checked = 0
    for label, fam, n, k, t, _ in grid_families:
        report = analyze(fam)
        _, violation = check_family(report)
        assert not violation, f"{label} (n={n},k={k},t={t}) violates a bound"
        checked += 1
    # every SCID over F_2^3 (all pair and triple patterns), exhaustively
    f2 = field_from_order(2)
    planes = list(iter_subspaces(3, 2, f2))
    for size in (2, 3):
        for members in combinations(planes, size):
            fam = SubspaceFamily(f2, 3, members)
            report = analyze(fam)
            if not report.is_scid:
                continue
            _, violation = check_family(report)
            assert not violation, f"enumerated {size}-family violates a bound"
            checked += 1
    for n, k, t, d, res in oracle_runs:
        if res.best_sum is None:
            continue
        p = ScidParams(n, k, t)
        assert res.best_sum <= bound_general(p)
        if n == 3:
            assert res.best_sum <= bound_pair3(p)
        if n >= 3:
            assert res.best_sum <= bound_linear(p)
            if k >= 2 * t:
                assert res.best_sum <= bound_refined(p)
        checked += 1
    print(f"criterion 2 PASS: {checked} families within all applicable bounds")


def test_criterion_03_oracle_sharp_regime(oracle_runs):
    by_params = {(n, k, t, d): res for n, k, t, d, res in oracle_runs}
    res = by_params[(3, 2, 1, 4)]
    assert res.best_sum == 6 and res.exhaustive
    for k in range(1, 4):
        for t in range(1, k + 1):
            res = by_params[(2, k, t, k + t)]
            assert res.best_sum == 2 * k, f"(2,{k},{t}): {res.best_sum} != {2 * k}"
            assert res.exhaustive
    print("criterion 3 PASS: oracle attains n*k at (3,2,1) and 2k at every n=2 case")


def test_criterion_04_oracle_open_regime_matches_artifact():
    f2 = field_from_order(2)
    res = max_sum_bruteforce(4, 2, 1, f2, 5)
    assert res.exhaustive
    assert res.best_sum <= 7
    recorded = json.loads((RESULTS / "max_sum_n4_k2_t1_q2_d5.json").read_text())
    assert recorded["params"] == {"n": 4, "k": 2, "t": 1, "q": 2, "d": 5}
    assert res.best_sum == recorded["exact_max"] == 6
    assert recorded["best_bound"] == 7 and recorded["attains_bound"] is False
    witness = SubspaceFamily.from_dict(recorded["witness"])
    assert verify_scid(witness, 2, 1) and analyze(witness).sum == 6
    print(f"criterion 4 PASS: exact max {res.best_sum} <= 7, matches recorded artifact")


def _realized_sums(n, k, t, q):
    field = field_from_order(q)
    sums = set()
    if (n - 1) * (k - t) <= k:
        fam, _ = construct_max(n, k, t, field)
        sums.add(analyze(fam).sum)
        for eps in range(k - t + 1):
            if eps and n < 3:
                continue
            fam, _ = construct_spectrum1(n, k, t, field, eps)
            sums.add(analyze(fam).sum)
        for eta in range(2, n):
            for eps in range(k - t + 1):
                fam, _ = construct_spectrum2(n, k, t, field, eta, eps)
                sums.add(analyze(fam).sum)
    for eta in range(1, n - 1):
        if not _sunflower_feasible(n, k, t, q, eta):
            continue
        for eps in range(t):
            fam, _ = construct_sunflower(n, k, t, field, eta, eps)
            sums.add(analyze(fam).sum)
    return sums


def test_criterion_05_spectrum_coverage():
    assert _realized_sums(3, 2, 1, 2) == {4, 5, 6}
    assert _realized_sums(3, 3, 2, 2) == {6, 7, 8, 9}
    print("criterion 5 PASS: realized sums {4,5,6} at (3,2,1,2) and {6,7,8,9} at (3,3,2,2)")


def test_criterion_06_desarguesian_spread():
    f2 = field_from_order(2)
    spread = desarguesian_spread(2, f2, 2)
    assert spread.n == 5
    for a, b in combinations(spread.members, 2):
        assert intersect(a, b).dim == 0
    covered = set()
    for m in spread.members:
        for v in m.vectors():
            if any(v):
                assert v not in covered, "a nonzero vector is covered twice"
                covered.add(v)
    assert len(covered) == 15
    print("criterion 6 PASS: 5 members partition the 15 nonzero vectors of F_2^4")


def test_criterion_07_lift_quotient_roundtrip():
    checked = 0
    for q in GRID_Q:
        field = field_from_order(q)
        for mdim in (1, 2):
            for t in (1, 2):
                spread = desarguesian_spread(mdim, field, t)
                m = spread.ambient_dim
                for c in (1, 2):
                    lifted = lift_spread_to_sunflower(spread, c)
                    center = rref(
                        field,
                        m + c,
                        [[0] * m + [int(i == j) for j in range(c)] for i in range(c)],
                    )
                    qm = quotient_map(center)
                    images = {qm.map_subspace(s).basis for s in lifted.members}
                    assert images == {s.basis for s in spread.members}
                    if spread.n >= 2:
                        rep = analyze(lifted)
                        assert rep.S.dim == m + c and rep.I.dim == c
                        assert rep.sunflower_center == center
                    checked += 1
    print(f"criterion 7 PASS: {checked} lift/quotient round trips recover the spread")


def test_criterion_08_field_and_linalg_batteries():
    fields = [field_from_order(q) for q in (2, 3, 4, 5, 8, 9)]
    for f in fields:
        q = f.order
        els = list(f.elements())
        for a in els:
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
                assert f.pow(a, q - 1) == 1
        for a in els:
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    pairs = 10_000
    for f in fields:
        rng = random.Random(f.order)
        d = 4
        for _ in range(pairs):
            rows_a = [[rng.randrange(f.order) for _ in range(d)] for _ in range(2)]
            rows_b = [[rng.randrange(f.order) for _ in range(d)] for _ in range(2)]
            a, b = rref(f, d, rows_a), rref(f, d, rows_b)
            assert span_sum(a, b).dim + intersect(a, b).dim == a.dim + b.dim
    matrices = 10_000
    rng = random.Random(99)
    for i in range(matrices):
        f = fields[i % len(fields)]
        d = rng.randrange(2, 6)
        rows = [[rng.randrange(f.order) for _ in range(d)] for _ in range(3)]
        s = rref(f, d, rows)
        assert rref(f, d, s.basis) == s  # idempotent
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scale = rng.randrange(1, f.order)
        assert rref(f, d, [[f.mul(scale, x) for x in r] for r in shuffled]) == s
    print(
        f"criterion 8 PASS: exhaustive axioms for 6 fields, {pairs} Grassmann pairs "
        f"per field, {matrices} canonical-form checks"
    )


def test_criterion_09_subset_closure(grid_families, oracle_runs):
    checked = 0
    families = [(fam, k, t) for _, fam, _, k, t, _ in grid_families]
    families += [
        (res.witness, k, t) for _, k, t, _, res in oracle_runs if res.witness is not None
    ]
    for fam, k, t in families:
        members = fam.members
        for size in range(2, len(members) + 1):
            for subset in combinations(members, size):
                sub = SubspaceFamily(fam.field, fam.ambient_dim, subset)
                assert verify_scid(sub, k, t), f"subset of size {size} broke (k={k},t={t})"
                checked += 1
    print(f"criterion 9 PASS: {checked} subsets re-verify with identical (k, t)")


def test_criterion_10_gaussian_binomial_cross_check():
    checked = 0
    for q in (2, 3, 4):
        field = field_from_order(q)
        for d in range(6):
            for k in range(d + 1):
                stream = sum(1 for _ in iter_subspaces(d, k, field))
                assert stream == gaussian_binomial(d, k, q), (d, k, q)
                checked += 1
    print(f"criterion 10 PASS: {checked} enumeration counts match the product formula")
