"""Exhaustive and randomized search over subspace families.

Canonical order of the k-subspaces of F_q^d: by the pivot columns of their
reduced row echelon bases, lexicographically, then by the free cells
(row-major) as base-q digits, the first most significant.
:func:`meeting_subspaces` generates the search's candidates in this order.

:func:`max_sum_bruteforce` is the ground-truth oracle for the largest
dim S + dim I over all families of n k-spaces with pairwise intersections of
dimension exactly k - t.  It is meant for small parameters; the enumeration
cap (env SCIDKIT_ENUM_CAP, default 1000000) keeps accidental monsters out.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from random import Random
from time import perf_counter

from .bounds import ScidParams, best_bound
from .gf import FieldSpec
from .linalg import (
    BadDims,
    Echelon,
    Subspace,
    _random_subspace_from,
    coordinate_subspace,
    intersect,
    meet_dim,
    projective_points,
)
from .scid import SubspaceFamily, analyze

ENUM_CAP_ENV = "SCIDKIT_ENUM_CAP"
DEFAULT_ENUM_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """An enumeration would visit more subspaces than the configured cap."""


def gaussian_binomial(d: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of a d-dimensional space over F_q."""
    if d < 0 or k < 0:
        raise BadDims(f"dimensions must be >= 0, got d={d}, k={k}")
    if q < 2:
        raise BadDims(f"field order must be >= 2, got {q}")
    if k > d:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q**d - q**i
        den *= q**k - q**i
    return num // den


def _check_cap(total: int) -> None:
    raw = os.environ.get(ENUM_CAP_ENV, "")
    if raw and not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{ENUM_CAP_ENV} must be a non-negative decimal integer, got {raw!r:.40}")
    cap = int(raw) if raw else DEFAULT_ENUM_CAP
    if total > cap:
        raise CapExceeded(
            f"{total} subspaces to enumerate exceeds the cap of {cap}; "
            f"raise {ENUM_CAP_ENV} to proceed"
        )


def meeting_subspaces(d: int, k: int, t: int, field: FieldSpec) -> list[Subspace]:
    """The k-spaces of F_q^d meeting <e_1..e_k> in dimension k - t, in canonical order.

    There are [k, k-t]_q [d-k, t]_q q^(t^2) of them; more than the cap
    (env SCIDKIT_ENUM_CAP) raises CapExceeded.  In the RREF basis of a
    k-space W, the u rows with pivot < k (the upper rows) vanish at the
    other rows' pivots, and the other rows vanish in the columns < k and are
    independent.  So the last d - k columns have rank (k - u) plus the rank
    of the upper rows there, and dim(W ∩ <e_1..e_k>) is k minus that rank.
    The walk fills the rows in order, each row's free cells as base-q digits
    with the first most significant, so it meets the bases in canonical
    order; it cuts a branch once the upper rows' rank in the last d - k
    columns can no longer end at t - (k - u).  Only a row's cells in those
    columns (its tail) move that rank, so a row's valid tails and their
    grown accumulators are listed once per accumulator its parent hands
    down, and its cells in the first k columns (its head), the more
    significant digits, loop outside them.  A tail raises the rank exactly
    when the accumulator does not contain it, and only an upper row before
    the last needs the grown copy.
    """
    if d < 0 or not 0 <= t <= k:
        raise BadDims(f"need d >= 0 and 0 <= t <= k, got d={d}, k={k}, t={t}")
    q = field.order
    if d >= k:
        _check_cap(gaussian_binomial(k, k - t, q) * gaussian_binomial(d - k, t, q) * q ** (t * t))
    out = []
    for pivots in combinations(range(d), k):
        upper = sum(p < k for p in pivots)
        need = t - (k - upper)
        if need < 0:
            continue

        # keyed by the accumulator's identity: every head hands down the same ones
        listed: dict[tuple[int, Echelon], list] = {}

        def tails_of(r: int, tails: Echelon, cells: list[int]) -> list:
            if (r, tails) not in listed:
                options = listed[r, tails] = []
                for values in product(range(q), repeat=len(cells)):
                    tail = [int(c == pivots[r]) for c in range(k, d)]
                    for c, x in zip(cells, values):
                        tail[c - k] = x
                    grown = tails
                    if r < upper:
                        rank = tails.rank + (not tails.contains(tail))
                        if not need - (upper - r - 1) <= rank <= need:
                            continue
                        if rank > tails.rank and r + 1 < upper:  # a later upper row reads it
                            grown = tails.copy()
                            grown.insert(tail)
                    options.append((tuple(tail), grown))
            return listed[r, tails]

        def fill(r: int, rows: tuple, tails: Echelon):
            if r == k:
                out.append(Subspace(field, d, rows))
                return
            cells = [c for c in range(pivots[r] + 1, d) if c not in pivots]
            head = [c for c in cells if c < k]
            options = tails_of(r, tails, cells[len(head) :])
            for values in product(range(q), repeat=len(head)):
                front = [int(c == pivots[r]) for c in range(k)]
                for c, x in zip(head, values):
                    front[c] = x
                front = tuple(front)
                for tail, grown in options:
                    fill(r + 1, rows + (front + tail,), grown)

        fill(0, (), Echelon(field, d - k))
    return out


PRUNE_REASONS = ("bound", "optimism")


@dataclass(frozen=True)
class SearchStats:
    """What an exhaustive search did: diagnostics outside every equality contract.

    nodes_per_depth maps a depth (the number of members chosen, from 2) to
    the search-tree nodes visited there.  prunes counts the candidate loops
    cut short, by reason: "bound" when the best sum found equals the proven
    bound, "optimism" when a node's optimistic sum is no better than the
    best.  candidates is |L|, the members left to choose from once the first
    two are fixed (see :func:`max_sum_bruteforce`).  The other counts are
    read off what the search holds when it ends (see :class:`_Tree`):
    rank_tests, the compatibility tests with c*, is one per k-space after
    c* that meets index 0; intersect_calls is the number of intersection
    bases kept with index 0 or c*; point_entries is the number of
    (point, member) entries in the index of L's projective points that
    adjacency rows are read from.  With jobs > 1 each process keeps its own
    tables: the meet of 0 and c*, their meets with every member of L the
    process visits, and its own index.  So intersect_calls and point_entries
    add up over the processes, and a member of L that two processes visit
    is counted twice: at (4,2,1,3,4), 41 intersect_calls with jobs = 1 and
    80 with jobs = 2.
    """

    nodes_per_depth: dict[int, int]
    prunes: dict[str, int]
    candidates: int
    rank_tests: int
    intersect_calls: int
    point_entries: int
    elapsed_s: float

    def to_dict(self) -> dict:
        return {
            "nodes_per_depth": {str(m): c for m, c in sorted(self.nodes_per_depth.items())},
            "prunes": dict(self.prunes),
            "candidates": self.candidates,
            "rank_tests": self.rank_tests,
            "intersect_calls": self.intersect_calls,
            "point_entries": self.point_entries,
            "elapsed_s": self.elapsed_s,
        }


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a family search.

    best_sum is None when no family with the requested intersection pattern
    was found; exhaustive records whether the search covered every family
    (brute force) or sampled (random).  explored counts search-tree nodes
    or completed samples, and stats holds the exhaustive search's
    diagnostics; both are diagnostic only, and stats is outside to_dict()
    and equality.  The processes of a search with jobs > 1 do not share
    their best sums, so they can prune less than a serial walk: explored
    and the node counts may then differ from it, best_sum and witness not.
    """

    best_sum: int | None
    witness: SubspaceFamily | None
    explored: int
    exhaustive: bool
    stats: SearchStats | None = dataclasses.field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "best_sum": self.best_sum,
            "witness": self.witness.to_dict() if self.witness is not None else None,
            "explored": self.explored,
            "exhaustive": self.exhaustive,
        }


class _Tree:
    """The search tree below the fixed pair (0, c*).

    members is (0, c*) followed by L, and the walk names members by their
    position there.  meet(i, j), for i < j, is a basis of the intersection
    of members i and j, and bit i of adj(j) is set when i > j and members i
    and j are compatible; the walk asks adj only of members of L.  Both are
    computed on first use and kept, in _meets and _adj, and the search's
    statistics are read off these tables (see :class:`SearchStats`).
    Compatibility with c* is a rank test, and a meet with 0 or c* is an
    intersection.  Within L, both come from one index that maps each
    projective point (see :func:`~scidkit.linalg.projective_points`) to the
    members of L containing it, kept in _points and _owners and built on the
    first adj call, so a three-member search lists no point.

    * Test.  Every nonzero vector of a space is a multiple of exactly one of
      its points, so two k-spaces share exactly the points of their
      intersection, and an m-space has theta(m) = (q^m - 1)/(q - 1) points.
      theta strictly increases with m, so members i and j are compatible
      exactly when they share theta(k - t) points.  That is 0 when t = k:
      a member that shares no point with j counts as sharing 0.
    * Meets.  The shared points are all the points of the meet.  The
      leading positions of a space's nonzero vectors are the pivots of its
      canonical basis, dim of them, and each point has a leading 1.  So one
      shared point per leading position, in order of position, gives k - t
      rows in echelon form: independent vectors of the meet, a basis of it,
      though not the reduced one.  The walk reads only ranks, which do not
      depend on the basis chosen.
    """

    def __init__(self, n: int, k: int, t: int, field: FieldSpec, with_0: list[Subspace]):
        self.n = n
        self.step = t + min(t, k - t)
        self.bound = best_bound(ScidParams(n, k, t)).best
        self._meets: dict[tuple[int, int], tuple] = {}
        self._adj: dict[int, int] = {}
        self._owners: dict[tuple[int, ...], list[int]] | None = None
        self._points: dict[int, dict[tuple[int, ...], None]] = {}
        self._theta = (field.order ** (k - t) - 1) // (field.order - 1)  # theta(k - t)
        self.members = (
            coordinate_subspace(field, with_0[0].ambient_dim, range(k)),
            with_0[0],
            *(w for w in with_0[1:] if meet_dim(with_0[0], w) == k - t),
        )

    def meet(self, i: int, j: int) -> tuple:
        if (i, j) not in self._meets:
            if i < 2:
                self._meets[i, j] = intersect(self.members[i], self.members[j]).basis
            else:  # both in L, so adj(i) has built the index
                points_i = self._points[i]
                leads: dict[int, tuple[int, ...]] = {}
                for p in self._points[j]:
                    if p in points_i:
                        leads.setdefault(p.index(1), p)
                self._meets[i, j] = tuple(leads[c] for c in sorted(leads))
        return self._meets[i, j]

    def adj(self, j: int) -> int:
        if j not in self._adj:
            if self._owners is None:
                self._owners = {}
                for m in range(2, len(self.members)):
                    points = self._points[m] = dict.fromkeys(projective_points(self.members[m]))
                    for p in points:
                        self._owners.setdefault(p, []).append(m)
            shared: Counter[int] = Counter()
            for p in self._points[j]:
                owners = self._owners[p]
                shared.update(owners[owners.index(j) + 1 :])
            if self._theta:
                later = [i for i, c in shared.items() if c == self._theta]
            else:
                later = [i for i in range(j + 1, len(self.members)) if i not in shared]
            self._adj[j] = sum(1 << i for i in later)
        return self._adj[j]


def _walk(payload):
    """DFS of a _Tree, over the third members at positions 2 + part, 2 + part + parts, ...

    Returns (best_sum, best positions, nodes per depth below the root,
    prunes by reason, counts); the caller counts the root, which every part
    shares, once.  counts holds intersect_calls and point_entries (see
    :class:`SearchStats`) as the walk leaves the tree, which is handed over
    holding no meet and no index, so no process counts another's.  A member
    chosen at depth n is a leaf: its two ranks are compared with the best
    sum on the spot.
    """
    tree, part, parts = payload
    n, step, bound = tree.n, tree.step, tree.bound
    best_sum: int | None = None
    best: tuple[int, ...] | None = None
    nodes = dict.fromkeys(range(2, n + 1), 0)
    prunes = dict.fromkeys(PRUNE_REASONS, 0)
    chosen: list[int] = [0, 1]

    def extend(m: int, cand: int, walk: int, s_ech: Echelon, i_ech: Echelon) -> None:
        nonlocal best_sum, best
        optimistic = s_ech.rank + i_ech.rank + (n - m) * step
        while walk:
            if best_sum is not None:
                if best_sum >= bound:
                    prunes["bound"] += 1
                    return
                if optimistic <= best_sum:
                    prunes["optimism"] += 1
                    return
            low = walk & -walk
            walk ^= low
            j = low.bit_length() - 1
            s2 = s_ech.copy()
            for row in tree.members[j].basis:
                s2.insert(row)
            i2 = i_ech.copy()
            for i in chosen:
                for row in tree.meet(i, j):
                    i2.insert(row)
            nodes[m + 1] += 1
            if m + 1 == n:
                if best_sum is None or s2.rank + i2.rank > best_sum:
                    best_sum, best = s2.rank + i2.rank, (*chosen, j)
                continue
            chosen.append(j)
            below = cand & tree.adj(j)
            extend(m + 1, below, below, s2, i2)
            chosen.pop()

    zero, c_star = tree.members[:2]
    s_root = Echelon.of(zero)
    for row in c_star.basis:
        s_root.insert(row)
    i_root = Echelon(zero.field, zero.ambient_dim)
    for row in tree.meet(0, 1):
        i_root.insert(row)
    size = len(tree.members)
    if n == 2:
        best_sum, best = s_root.rank + i_root.rank, (0, 1)
    else:
        dealt = sum(1 << j for j in range(2 + part, size, parts))
        extend(2, (1 << size) - 4, dealt, s_root, i_root)  # candidates: positions 2.. (all of L)
    counts = Counter(
        intersect_calls=sum(i < 2 for i, _ in tree._meets),
        point_entries=sum(map(len, tree._points.values())),
    )
    return best_sum, best, nodes, prunes, counts


def _check_family_dims(n: int, k: int, t: int) -> None:
    if n < 2:
        raise BadDims(f"n must be >= 2, got {n}")
    if not 1 <= t <= k:
        raise BadDims(f"need 1 <= t <= k, got t={t}, k={k}")


def max_sum_bruteforce(
    n: int,
    k: int,
    t: int,
    field: FieldSpec,
    d: int,
    jobs: int = 1,
) -> SearchResult:
    """Exact maximum of dim S + dim I over all (k, k-t) families in F_q^d.

    The witness is the lexicographically least maximizer in canonical
    order, whatever jobs is.  Candidates are the k-spaces of F_q^d in
    canonical order; a family is walked as its increasing index tuple,
    which kills the n! permutation symmetry.  Index 0 is the first
    candidate and c* the least index whose intersection with index 0 has
    dimension k - t.  Only tuples (0, c*, l_3, ..., l_n) are walked, with
    l_3 < ... < l_n in L, the list of indices above c* compatible (meeting
    in dimension k - t) with both 0 and c*.  This returns the same best_sum
    and witness as the walk over all increasing tuples:

    * GL(d, q) preserves the dimensions of spans and intersections, so g in
      GL(d, q) maps every family with pairwise intersection dimension k - t
      to another such family, whose S and I are g(S) and g(I): the same
      dim S + dim I.
    * GL(d, q) is transitive on k-spaces, and the stabilizer of a k-space U
      is transitive on the k-spaces W with dim(U ∩ W) = k - t: extend a
      basis of U ∩ W by t vectors to a basis of U, then by t vectors of W
      to a basis of U + W, then to a basis of F_q^d.  Bases built so for W
      and for W' have the same shape, and the linear map taking one to the
      other maps U onto U and W onto W'.
    * So for any maximizer and two of its members U, W (n >= 2), some g takes
      U to index 0 and W to c*, and the image is a maximizer containing 0
      and c*.  Its other members are compatible with 0, and every index
      compatible with 0 is at least c* (0 is not, as t >= 1), so its tuple
      starts (0, c*, ...).  The lexicographically least maximizer therefore
      starts (0, c*, ...) too: its first index is at most 0, and its second
      is at most c* and, being compatible with 0, at least c*.
    * The walk visits tuples in increasing lexicographic order and replaces
      the best only on a strictly larger sum, so it keeps the first of equal
      sums: the lexicographically least maximizer, as the full walk does.
    * If no index is compatible with 0, no two k-spaces meet in dimension
      k - t (g would map such a pair to one containing 0), so no family
      exists and best_sum is None.

    Nothing else is enumerated.  Index 0 has pivots 0..k-1 and no nonzero
    free cell, so it is <e_1..e_k>, and :func:`meeting_subspaces` lists
    exactly the indices compatible with it, in canonical order: c* is its
    first entry and L its later entries compatible with c*, the same list
    a filter of all k-spaces gives.  Compatibility needs no intersection:
    dim(U ∩ W) = 2k - dim(U + W), so U and W are compatible exactly when
    the 2k rows of their bases have rank k + t.

    Pruning uses the provable per-member increments of dim S + dim I: each
    member after the second adds at most t + min(t, k - t), because its new
    intersections pairwise meet inside the old I, and the sum never exceeds
    the best proven bound.  A node's loop stops when the best sum reaches
    the bound or the node's optimistic sum is no better than the best; ties
    keep the first witness, so neither cut changes the result.

    Each member of L gets an int bitmask of the later members of L
    compatible with it, so a node's candidate set is the AND of its
    members' masks.  Masks and intersection bases are built when the walk
    first needs them, those within L from shared projective points (see
    :class:`_Tree`), so a walk that stops at depth 3 tests no pair within L.
    jobs must be at least 1, and jobs > 1 deals the third member's positions
    in L round-robin to min(jobs, |L|, os.cpu_count() or 1) processes: a
    CPU-bound walk gains nothing from more processes than CPUs, and each
    extra process prunes less.  Each walks its subtrees on its own, and
    the merge keeps the largest sum, then the least tuple, so best_sum and
    the witness do not depend on jobs.  A process prunes only against its
    own best sum, so explored and the node counts can differ.
    """
    _check_family_dims(n, k, t)
    if jobs < 1:
        raise BadDims(f"jobs must be >= 1, got {jobs}")
    start = perf_counter()
    nodes = Counter(dict.fromkeys(range(2, n + 1), 0))
    prunes = Counter(dict.fromkeys(PRUNE_REASONS, 0))
    counts: Counter[str] = Counter()
    best_sum, best, witness, candidates = None, None, None, 0
    with_0 = meeting_subspaces(d, k, t, field)
    if with_0:
        tree = _Tree(n, k, t, field, with_0)
        candidates = len(tree.members) - 2
        nodes[2] = 1
        parts = min(jobs, candidates, os.cpu_count() or 1) if n > 2 else 1
        if parts <= 1:
            walks = [_walk((tree, 0, 1))]
        else:
            from multiprocessing import get_context

            try:
                ctx = get_context("fork")
            except ValueError:
                ctx = get_context("spawn")
            with ctx.Pool(processes=parts) as pool:
                walks = pool.map(_walk, [(tree, p, parts) for p in range(parts)])
        for b, w, walk_nodes, walk_prunes, walk_counts in walks:
            nodes.update(walk_nodes)
            prunes.update(walk_prunes)
            counts.update(walk_counts)
            if b is not None and (best_sum is None or b > best_sum or (b == best_sum and w < best)):
                best_sum, best = b, w
        if best is not None:
            witness = SubspaceFamily(field, d, tuple(tree.members[j] for j in best))
    stats = SearchStats(
        nodes, prunes, candidates, max(len(with_0) - 1, 0), counts["intersect_calls"],
        counts["point_entries"], perf_counter() - start,
    )
    return SearchResult(best_sum, witness, sum(nodes.values()), True, stats)


def random_scid_search(
    n: int,
    k: int,
    t: int,
    field: FieldSpec,
    d: int,
    seed: int = 0,
    iterations: int = 100,
) -> SearchResult:
    """Seeded greedy sampling of (k, k-t) families; a lower-bound probe.

    Each iteration grows a family member by member from one random stream,
    rejecting candidates that break the intersection pattern, with a fixed
    retry budget.  explored counts completed families.  Never exhaustive.
    With k > d there is no k-space to draw, and the result is empty.
    """
    _check_family_dims(n, k, t)
    if d < 0:
        raise BadDims(f"ambient dimension must be >= 0, got {d}")
    if iterations < 0:
        raise BadDims(f"iterations must be >= 0, got {iterations}")
    if k > d:
        return SearchResult(None, None, 0, False)
    rng = Random(seed)
    best: int | None = None
    witness: SubspaceFamily | None = None
    explored = 0
    for _ in range(iterations):
        members: list[Subspace] = []
        attempts = 0
        while len(members) < n and attempts < 64:
            attempts += 1
            cand = _random_subspace_from(rng, d, k, field)
            if all(meet_dim(cand, s) == k - t for s in members):
                members.append(cand)
        if len(members) < n:
            continue
        family = SubspaceFamily(field, d, tuple(members))
        explored += 1
        total = analyze(family).sum
        if best is None or total > best:
            best = total
            witness = family
    return SearchResult(best, witness, explored, False)
