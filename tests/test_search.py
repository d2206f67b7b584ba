"""Enumeration order, counting, and the brute-force oracle."""

import json
import multiprocessing
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import scidkit
from scidkit.bounds import ScidParams, best_bound
from scidkit.cli import main
from scidkit.construct import desarguesian_spread
from scidkit.gf import field_from_order
from scidkit.linalg import (
    BadDims,
    coordinate_subspace,
    full_subspace,
    intersect,
    meet_dim,
    projective_points,
    random_subspace,
    rref,
)
from scidkit.scid import SubspaceFamily, analyze, verify_scid
from scidkit.search import (
    CapExceeded,
    ENUM_CAP_ENV,
    SearchResult,
    gaussian_binomial,
    max_sum_bruteforce,
    _Tree,
    meeting_subspaces,
    random_scid_search,
)

from reference_enum import iter_subspaces

F2 = field_from_order(2)
F3 = field_from_order(3)
RESULTS = Path(__file__).resolve().parent.parent / "results"


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(6, 3, 2) == 1395


def test_gaussian_binomial_edges():
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(0, 0, 5) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    for d in range(6):
        for k in range(d + 1):
            assert gaussian_binomial(d, k, 3) == gaussian_binomial(d, d - k, 3)
    with pytest.raises(BadDims):
        gaussian_binomial(-1, 0, 2)
    with pytest.raises(BadDims):
        gaussian_binomial(3, 1, 1)


def test_enumeration_golden_order():
    got = [s.basis for s in iter_subspaces(2, 1, F2)]
    assert got == [((1, 0),), ((1, 1),), ((0, 1),)]
    assert [(p,) for p in projective_points(full_subspace(F2, 2))] == got


@pytest.mark.parametrize(
    "d,k,q",
    [(3, 1, 2), (3, 2, 2), (4, 2, 2), (2, 1, 3), (4, 2, 3), (3, 1, 4), (4, 4, 2), (3, 0, 2)],
)
def test_enumeration_counts_and_distinctness(d, k, q):
    field = field_from_order(q)
    seen = [s.basis for s in iter_subspaces(d, k, field)]
    assert len(seen) == gaussian_binomial(d, k, q)
    assert len(set(seen)) == len(seen)
    for basis in seen:
        assert len(basis) == k


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv(ENUM_CAP_ENV, "10")
    # listing the 15 lines of F_2^4 for a spread is capped by their count
    with pytest.raises(CapExceeded, match=ENUM_CAP_ENV):
        desarguesian_spread(4, F2, 1)
    # the search's candidates are capped by their own count, 3 * 3 * 2 here
    with pytest.raises(CapExceeded, match=ENUM_CAP_ENV):
        meeting_subspaces(4, 2, 1, F2)
    monkeypatch.setenv(ENUM_CAP_ENV, "18")
    assert len(meeting_subspaces(4, 2, 1, F2)) == 18
    monkeypatch.setenv(ENUM_CAP_ENV, "15")
    assert len(desarguesian_spread(4, F2, 1).members) == 15


@pytest.mark.parametrize("raw", ["abc", "-5", "+5", "1.5", "1_000", " 18", "١٨"])
def test_enumeration_cap_must_be_a_decimal_integer(monkeypatch, capsys, raw):
    monkeypatch.setenv(ENUM_CAP_ENV, raw)
    with pytest.raises(ValueError, match=ENUM_CAP_ENV):
        meeting_subspaces(4, 2, 1, F2)
    assert main(["search", "--n", "3", "--k", "2", "--t", "1", "--q", "2", "--d", "4"]) == 2
    err = capsys.readouterr().err
    assert ENUM_CAP_ENV in err and repr(raw) in err


def test_empty_enumeration_cap_keeps_the_default(monkeypatch):
    monkeypatch.setenv(ENUM_CAP_ENV, "")
    assert len(meeting_subspaces(4, 2, 1, F2)) == 18


def test_oracle_golden_values():
    assert max_sum_bruteforce(3, 2, 1, F2, 3).best_sum == 6
    assert max_sum_bruteforce(3, 2, 1, F2, 4).best_sum == 6
    assert max_sum_bruteforce(2, 2, 1, F2, 3).best_sum == 4
    assert max_sum_bruteforce(2, 3, 2, F2, 5).best_sum == 6
    # ambient too small for the pattern: no family at all
    empty = max_sum_bruteforce(2, 3, 2, F2, 4)
    assert empty.best_sum is None and empty.witness is None and empty.exhaustive


def test_oracle_never_exceeds_proven_bounds():
    for n, k, t, d in [(3, 2, 1, 4), (4, 2, 1, 4), (5, 2, 1, 4), (2, 2, 2, 4)]:
        res = max_sum_bruteforce(n, k, t, F2, d)
        if res.best_sum is not None:
            assert res.best_sum <= best_bound(ScidParams(n, k, t)).best


def test_oracle_witness_is_valid_and_lex_least():
    res = max_sum_bruteforce(3, 2, 1, F2, 3)
    assert verify_scid(res.witness, 2, 1)
    assert analyze(res.witness).sum == 6
    assert [s.basis for s in res.witness.members] == [
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (0, 1, 1)),
        ((1, 0, 1), (0, 1, 0)),
    ]


def test_oracle_small_regression_anchors():
    # d = 4 cannot host the bound value 7 for four or five members
    assert max_sum_bruteforce(4, 2, 1, F2, 4).best_sum == 6
    assert max_sum_bruteforce(5, 2, 1, F2, 4).best_sum == 6


def _reference_max(n, k, t, field, d):
    """Every n-subset in canonical order; the first of equal sums is kept."""
    cands = list(iter_subspaces(d, k, field))
    compatible = {
        (a, b)
        for a, b in combinations(range(len(cands)), 2)
        if intersect(cands[a], cands[b]).dim == k - t
    }
    best, witness = None, None
    for combo in combinations(range(len(cands)), n):
        if all(pair in compatible for pair in combinations(combo, 2)):
            family = SubspaceFamily(field, d, tuple(cands[i] for i in combo))
            total = analyze(family).sum
            if best is None or total > best:
                best, witness = total, family
    return best, witness


REFERENCE_GRID = [
    (2, 2, 1, 2, 3),
    (3, 2, 1, 2, 4),
    (4, 2, 1, 2, 4),
    (5, 2, 1, 2, 3),
    (5, 1, 1, 2, 3),
    (3, 2, 2, 2, 4),  # t = k: pairwise trivial intersections
    (3, 2, 2, 2, 3),  # no family: 2-spaces of F^3 always meet
    (2, 3, 2, 2, 4),  # no family: 3-spaces of F^4 meet in dimension >= 2
    (3, 2, 1, 3, 3),
    (4, 2, 1, 3, 3),
    (4, 1, 1, 3, 2),
    (3, 2, 1, 4, 3),
    (3, 1, 1, 4, 2),
    (3, 3, 1, 2, 4),  # k = 3
    (4, 3, 1, 2, 4),
    (2, 3, 1, 3, 4),
    (2, 3, 2, 2, 5),  # t = 2 < k
    (3, 3, 2, 2, 4),  # no family: 3-spaces of F^4 meet in dimension >= 2
    (5, 2, 1, 3, 3),  # n >= 4: the walk builds adjacency rows from shared points
    (4, 1, 1, 4, 2),  # t = k over F_4: compatible members share no point
]


@pytest.mark.parametrize("n,k,t,q,d", REFERENCE_GRID)
def test_oracle_matches_reference_search(n, k, t, q, d):
    field = field_from_order(q)
    res = max_sum_bruteforce(n, k, t, field, d)
    assert (res.best_sum, res.witness) == _reference_max(n, k, t, field, d)
    assert res.exhaustive


@pytest.mark.parametrize("n,k,t,q,d", REFERENCE_GRID)
def test_search_stats_match_the_sizes_the_search_holds(n, k, t, q, d):
    field = field_from_order(q)
    stats = max_sum_bruteforce(n, k, t, field, d).stats
    listed = len(meeting_subspaces(d, k, t, field))
    # one rank test per k-space after c* that meets index 0
    assert stats.rank_tests == max(listed - 1, 0)
    # from n = 4 the first adjacency row lists the theta(k) points of all of L
    theta_k = (q**k - 1) // (q - 1)
    assert stats.point_entries == (stats.candidates * theta_k if n >= 4 else 0)
    if n == 3 and listed:
        # the root's meet, then one with each of 0 and c* per third member
        assert stats.intersect_calls == 1 + 2 * stats.nodes_per_depth[3]


def _sharing(rng, u, shared, field):
    """A space of u's dimension spanned by `shared` random vectors of u and random others."""
    d, q = u.ambient_dim, field.order
    while True:
        rows = []
        for _ in range(shared):
            v = [0] * d
            for r in u.basis:
                v = field.sub_multiple(v, field.neg(rng.randrange(q)), r)
            rows.append(v)
        rows += [[rng.randrange(q) for _ in range(d)] for _ in range(u.dim - shared)]
        w = rref(field, d, rows)
        if w.dim == u.dim:
            return w


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_shared_points_decide_compatibility_and_span_the_meet(q):
    field = field_from_order(q)
    rng = random.Random(q)
    for k in range(1, 5):
        d = 2 * k
        for shared in range(k + 1):
            u = random_subspace(d, k, field, rng.randrange(10**6))
            w = _sharing(rng, u, shared, field)
            dim = meet_dim(u, w)
            for t in range(1, k + 1):
                # L becomes (u, w) before the first adj call builds its index
                tree = _Tree(4, k, t, field, [u])
                tree.members = (*tree.members[:2], u, w)
                compatible = bool(tree.adj(2) >> 3 & 1)
                assert compatible == (dim == k - t), (k, shared, t)
                assert sum(map(len, tree._points.values())) == 2 * (q**k - 1) // (q - 1)
                if compatible:
                    meet = tree.meet(2, 3)
                    # k - t points in echelon form with leading ones, spanning u ∩ w
                    leads = [r.index(1) for r in meet]
                    assert len(meet) == k - t and leads == sorted(set(leads))
                    assert not any(any(r[:lead]) for r, lead in zip(meet, leads))
                    assert rref(field, d, meet) == intersect(u, w)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_meeting_subspaces_are_the_filtered_enumeration(q):
    field = field_from_order(q)
    for d in range(6 if q == 2 else 5):
        for k in range(d + 1):
            for t in range(k + 1):
                if q ** (k * (d - k)) > 2000:
                    continue
                zero = coordinate_subspace(field, d, range(k))
                want = [s for s in iter_subspaces(d, k, field) if intersect(s, zero).dim == k - t]
                got = meeting_subspaces(d, k, t, field)
                assert got == want, (d, k, t)
                count = gaussian_binomial(k, k - t, q) * gaussian_binomial(d - k, t, q)
                assert len(got) == count * q ** (t * t), (d, k, t)


def test_first_meeting_subspace_need_not_be_a_coordinate_subspace():
    c_star = meeting_subspaces(4, 2, 1, F2)[0]
    assert c_star.basis == ((1, 0, 0, 0), (0, 1, 0, 1))
    assert max_sum_bruteforce(3, 2, 1, F2, 4).witness.members[1] == c_star


def test_three_member_search_tests_no_pair_within_the_candidates():
    res = max_sum_bruteforce(3, 3, 1, F2, 5)
    # one rank test per k-space after c* that meets index 0, and none within L
    assert res.stats.rank_tests == len(meeting_subspaces(5, 3, 1, F2)) - 1
    # the root's intersection, then two per third member visited
    assert res.stats.intersect_calls == 1 + 2 * res.stats.nodes_per_depth[3]
    # and no adjacency row, so no point of L is listed
    assert res.stats.point_entries == 0


@pytest.mark.parametrize(
    "n,k,t,d",
    [(2, 2, 1, 3), (4, 2, 1, 4), (2, 3, 2, 4)],  # n = 2, n >= 4, no family
)
def test_jobs_split_agrees_with_serial_run(monkeypatch, n, k, t, d):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    solo = max_sum_bruteforce(n, k, t, F2, d)
    for jobs in (2, 3):
        multi = max_sum_bruteforce(n, k, t, F2, d, jobs=jobs)
        assert multi == solo
        assert multi.stats.nodes_per_depth == solo.stats.nodes_per_depth


def test_jobs_split_keeps_the_answer_of_a_walk_on_shared_points(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    solo = max_sum_bruteforce(4, 2, 1, F3, 4)
    multi = max_sum_bruteforce(4, 2, 1, F3, 4, jobs=2)
    assert (multi.best_sum, multi.witness) == (solo.best_sum, solo.witness)
    # each process lists the points of L for its own index
    assert multi.stats.point_entries == 2 * solo.stats.point_entries > 0


def test_intersect_calls_add_up_over_the_processes(monkeypatch):
    # each process keeps its meet of the first two members and their meets
    # with every candidate it visits: 1 + 2 * 20 alone, and 2 + 2 * 39 when
    # two processes visit the 20 candidates 39 times between them
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    calls = [max_sum_bruteforce(4, 2, 1, F3, 4, jobs=jobs).stats.intersect_calls for jobs in (1, 2)]
    assert calls == [41, 80]


@pytest.mark.parametrize("cpus,sizes", [(2, [2]), (64, [20]), (None, [])])
def test_jobs_are_capped_by_the_cpu_count(monkeypatch, cpus, sizes):
    started = []

    class Pool:
        """Records its size and walks the parts in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            return list(map(fn, parts))

    solo = max_sum_bruteforce(4, 2, 1, F3, 4)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: SimpleNamespace(Pool=Pool))
    multi = max_sum_bruteforce(4, 2, 1, F3, 4, jobs=5000)
    # at most one process per CPU, and per candidate: 20 here
    assert started == sizes
    assert (multi.best_sum, multi.witness) == (solo.best_sum, solo.witness)


def test_search_stats_are_diagnostic_only():
    res = max_sum_bruteforce(4, 2, 1, F2, 5)
    stats = res.stats
    assert res.explored == sum(stats.nodes_per_depth.values())
    assert sorted(stats.nodes_per_depth) == [2, 3, 4]
    assert stats.nodes_per_depth[2] == 1
    assert stats.nodes_per_depth[3] == stats.candidates > 0
    assert set(stats.prunes) == {"bound", "optimism"}
    assert stats.intersect_calls > 0 and stats.elapsed_s >= 0
    assert "stats" not in res.to_dict()
    assert res == SearchResult(res.best_sum, res.witness, res.explored, res.exhaustive)
    empty = max_sum_bruteforce(2, 3, 2, F2, 4)
    assert empty.explored == 0
    assert empty.stats.candidates == 0 and empty.stats.nodes_per_depth == {2: 0}


def test_jobs_merge_is_deterministic():
    solo = max_sum_bruteforce(3, 2, 1, F2, 4)
    multi = max_sum_bruteforce(3, 2, 1, F2, 4, jobs=3)
    assert solo.best_sum == multi.best_sum
    assert solo.witness == multi.witness
    assert multi.exhaustive


def test_jobs_split_keeps_the_maximum_and_witness_when_it_prunes_less():
    # the processes do not share their best sums: 9 nodes alone, 10 split in two
    solo = max_sum_bruteforce(3, 3, 1, F3, 5)
    multi = max_sum_bruteforce(3, 3, 1, F3, 5, jobs=2)
    assert multi.best_sum == solo.best_sum == 8
    assert multi.witness == solo.witness


def test_recorded_refined_regime_maximum_reproduces():
    recorded = json.loads((RESULTS / "max_sum_n4_k3_t1_q2_d6.json").read_text())
    assert recorded["params"] == {"n": 4, "k": 3, "t": 1, "q": 2, "d": 6}
    res = max_sum_bruteforce(4, 3, 1, F2, 6)
    assert res.exhaustive
    assert res.best_sum == recorded["exact_max"] == 8
    assert res.witness.to_dict() == recorded["witness"]
    assert recorded["best_bound"] == best_bound(ScidParams(4, 3, 1)).best == 9
    assert recorded["attains_bound"] is False


@pytest.mark.parametrize(
    "name", ["max_sum_n4_k3_t1_q3_d6.json", "max_sum_n5_k3_t1_q2_d7.json"]
)
def test_exact_maximum_record_reproduces_and_verifies(name, tmp_path, capsys):
    recorded = json.loads((RESULTS / name).read_text())
    p = recorded["params"]
    n, k, t, q, d = p["n"], p["k"], p["t"], p["q"], p["d"]
    assert d == k + (n - 1) * t
    assert recorded["reproduce"] == f"scidkit search --n {n} --k {k} --t {t} --q {q} --d {d}"
    res = max_sum_bruteforce(n, k, t, field_from_order(q), d)
    assert res.exhaustive
    assert res.best_sum == recorded["exact_max"]
    assert res.witness.to_dict() == recorded["witness"]
    assert recorded["best_bound"] == best_bound(ScidParams(n, k, t)).best
    assert recorded["attains_bound"] is (res.best_sum == recorded["best_bound"])
    family = tmp_path / "witness.json"
    family.write_text(json.dumps(recorded["witness"]))
    capsys.readouterr()
    assert main(["verify", str(family)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert (report["is_scid"], report["t"], report["sum"]) == (True, t, res.best_sum)


@pytest.mark.parametrize(
    "args, message",
    [
        (("--jobs", "0"), "jobs must be >= 1, got 0"),
        (("--jobs", "-3"), "jobs must be >= 1, got -3"),
        (("--random", "--iters", "-5"), "iterations must be >= 0, got -5"),
    ],
)
def test_search_rejects_counts_below_their_least(capsys, args, message):
    code = main(["search", "--n", "3", "--k", "2", "--t", "1", "--q", "2", "--d", "4", *args])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_oracle_rejects_bad_parameters():
    with pytest.raises(BadDims):
        max_sum_bruteforce(1, 2, 1, F2, 3)
    with pytest.raises(BadDims):
        max_sum_bruteforce(3, 2, 0, F2, 3)


def test_random_search_reproducible():
    a = random_scid_search(3, 2, 1, F2, 4, seed=11, iterations=40)
    b = random_scid_search(3, 2, 1, F2, 4, seed=11, iterations=40)
    assert a.best_sum == b.best_sum and a.witness == b.witness
    assert a.explored == b.explored
    assert not a.exhaustive


def test_random_search_stays_below_oracle():
    oracle = max_sum_bruteforce(3, 2, 1, F2, 4)
    rand = random_scid_search(3, 2, 1, F2, 4, seed=5, iterations=60)
    assert rand.best_sum is not None
    assert rand.best_sum <= oracle.best_sum
    assert verify_scid(rand.witness, 2, 1)
    assert analyze(rand.witness).sum == rand.best_sum


@pytest.mark.parametrize(
    "d, code, result",
    [
        ("2", 0, {"best_sum": None, "witness": None, "explored": 0, "exhaustive": False}),
        ("-1", 2, None),
    ],
)
def test_random_search_without_k_spaces_returns_at_once(d, code, result):
    # k > d leaves no k-space to draw and d < 0 no space at all; neither may sample
    src = str(Path(scidkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from scidkit.cli import main; sys.exit(main())",
         "search", "--random", "--n", "3", "--k", "3", "--t", "1", "--q", "2", "--d", d],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath), timeout=5,
    )
    assert proc.returncode == code, proc.stderr
    if result is not None:
        assert json.loads(proc.stdout)["result"] == result


def test_search_result_serialization():
    res = max_sum_bruteforce(2, 2, 1, F2, 3)
    d = res.to_dict()
    assert d["best_sum"] == 4 and d["exhaustive"] is True
    assert d["witness"]["members"]
    empty = max_sum_bruteforce(2, 3, 2, F2, 4).to_dict()
    assert empty["witness"] is None
