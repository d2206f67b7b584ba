"""Exhaustive and randomized search over subspace families.

Enumeration walks reduced-row-echelon bases directly: one pivot-column
combination at a time (lexicographic), free cells filled with base-q digits,
most significant first.  Every k-dimensional subspace of F_q^d appears
exactly once, so positions are stable and a search can be split or resumed
by position alone.

:func:`max_sum_bruteforce` is the ground-truth oracle for the largest
dim S + dim I over all families of n k-spaces with pairwise intersections of
dimension exactly k - t.  It is meant for small parameters; the enumeration
cap (env SCIDKIT_ENUM_CAP, default 1000000) keeps accidental monsters out.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from itertools import combinations
from multiprocessing import get_context
from random import Random
from time import perf_counter

from .bounds import ScidParams, best_bound
from .gf import FieldSpec
from .linalg import BadDims, Echelon, Subspace, _random_subspace_from, intersect
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


def _enum_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    return int(raw) if raw else DEFAULT_ENUM_CAP


def _free_cells(pivots: tuple[int, ...], d: int) -> list[tuple[int, int]]:
    taken = set(pivots)
    cells = []
    for r, p in enumerate(pivots):
        for c in range(p + 1, d):
            if c not in taken:
                cells.append((r, c))
    return cells


def iter_subspaces(d: int, k: int, field: FieldSpec, start: int = 0):
    """Yield every k-subspace of F_q^d once, in canonical order, uncapped.

    Canonical order: pivot-column combinations lexicographically, then free
    cells (row-major) as base-q digits with the first cell most significant.
    `start` skips that many subspaces without building them.
    """
    if d < 0 or k < 0:
        raise BadDims(f"dimensions must be >= 0, got d={d}, k={k}")
    q = field.order
    for pivots in combinations(range(d), k):
        cells = _free_cells(pivots, d)
        block = q ** len(cells)
        if start >= block:
            start -= block
            continue
        for index in range(start, block):
            rows = [[0] * d for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            x = index
            for r, c in reversed(cells):
                rows[r][c] = x % q
                x //= q
            yield Subspace(field, d, tuple(tuple(row) for row in rows))
        start = 0


def enumerate_subspaces(d: int, k: int, field: FieldSpec, start: int = 0):
    """Capped canonical enumeration; raises CapExceeded instead of stalling."""
    total = gaussian_binomial(d, k, field.order)
    cap = _enum_cap()
    if total - start > cap:
        raise CapExceeded(
            f"{total - start} subspaces to enumerate exceeds the cap of {cap}; "
            f"raise {ENUM_CAP_ENV} to proceed"
        )
    return iter_subspaces(d, k, field, start)


def subspace_at(d: int, k: int, field: FieldSpec, position: int) -> Subspace:
    """The subspace at a canonical-order position, without a full walk."""
    if position < 0:
        raise BadDims(f"position must be >= 0, got {position}")
    for s in iter_subspaces(d, k, field, start=position):
        return s
    raise BadDims(f"position {position} out of range for ({d}, {k}) over F_{field.order}")


@dataclass(frozen=True)
class EnumerationCursor:
    """Resumable position in the canonical enumeration of (d, k) subspaces."""

    field: FieldSpec
    ambient_dim: int
    subspace_dim: int
    position: int = 0

    @property
    def total(self) -> int:
        return gaussian_binomial(self.ambient_dim, self.subspace_dim, self.field.order)

    @property
    def done(self) -> bool:
        return self.position >= self.total

    def take(self, count: int):
        """Next `count` subspaces and the advanced cursor."""
        batch = []
        for s in iter_subspaces(
            self.ambient_dim, self.subspace_dim, self.field, start=self.position
        ):
            batch.append(s)
            if len(batch) == count:
                break
        cursor = EnumerationCursor(
            self.field, self.ambient_dim, self.subspace_dim, self.position + len(batch)
        )
        return tuple(batch), cursor


PRUNE_REASONS = ("bound", "optimism")


@dataclass(frozen=True)
class SearchStats:
    """What an exhaustive search did: diagnostics outside every equality contract.

    nodes_per_depth maps a depth (the number of members chosen, from 2) to
    the search-tree nodes visited there.  prunes counts the candidate loops
    cut short, by reason: "bound" when the best sum found equals the proven
    bound, "optimism" when a node's optimistic sum is no better than the
    best.  candidates is |L|, the members left to choose from once the first
    two are fixed (see :func:`_search_range`).
    """

    nodes_per_depth: dict[int, int]
    prunes: dict[str, int]
    candidates: int
    intersect_calls: int
    elapsed_s: float

    def to_dict(self) -> dict:
        return {
            "nodes_per_depth": {str(m): c for m, c in sorted(self.nodes_per_depth.items())},
            "prunes": dict(self.prunes),
            "candidates": self.candidates,
            "intersect_calls": self.intersect_calls,
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
    and equality.
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


@dataclass(frozen=True)
class _Tree:
    """The search tree below the fixed pair (0, c*), indexed by position in L.

    basis[j] is the basis of L[j]; fixed[j] the bases of L[j] ∩ 0 and
    L[j] ∩ c*; meets[j][i], for each i < j with L[i] compatible with L[j],
    the basis of their intersection; bit i of adj[j] is set when i > j and
    L[i] is compatible with L[j].
    """

    n: int
    step: int
    bound: int
    s_root: Echelon
    i_root: Echelon
    basis: tuple
    fixed: tuple
    meets: tuple
    adj: tuple[int, ...]


def _walk(payload):
    """DFS of a _Tree, over the third members at positions part, part + parts, ...

    Returns (best_sum, best positions in L, nodes per depth, prunes by reason).
    """
    tree, part, parts = payload
    n, step, bound = tree.n, tree.step, tree.bound
    best_sum: int | None = None
    best: tuple[int, ...] | None = None
    nodes = dict.fromkeys(range(2, n + 1), 0)
    prunes = dict.fromkeys(PRUNE_REASONS, 0)
    chosen: list[int] = []

    def extend(m: int, cand: int, walk: int, s_ech: Echelon, i_ech: Echelon) -> None:
        nonlocal best_sum, best
        nodes[m] += 1
        cur = s_ech.rank + i_ech.rank
        if m == n:
            if best_sum is None or cur > best_sum:
                best_sum, best = cur, tuple(chosen)
            return
        optimistic = cur + (n - m) * step
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
            for row in tree.basis[j]:
                s2.insert(row)
            i2 = i_ech.copy()
            for row in tree.fixed[j]:
                i2.insert(row)
            for i in chosen:
                for row in tree.meets[j][i]:
                    i2.insert(row)
            chosen.append(j)
            below = cand & tree.adj[j]
            extend(m + 1, below, below, s2, i2)
            chosen.pop()

    size = len(tree.adj)
    dealt = sum(1 << j for j in range(part, size, parts))
    extend(2, (1 << size) - 1, dealt, tree.s_root, tree.i_root)
    return best_sum, best, nodes, prunes


def _search_range(
    n: int, k: int, t: int, field: FieldSpec, d: int, jobs: int = 1
) -> tuple[int | None, tuple[int, ...] | None, SearchStats]:
    """Exact maximum of dim S + dim I, walking only the families that start (0, c*).

    Candidates are the k-spaces of F_q^d in canonical order; a family is
    walked as its increasing index tuple, which kills the n! permutation
    symmetry.  Index 0 is the first candidate and c* the least index whose
    intersection with index 0 has dimension k - t.  Only tuples
    (0, c*, l_3, ..., l_n) are walked, with l_3 < ... < l_n in L, the list
    of indices above c* compatible (meeting in dimension k - t) with both 0
    and c*.  This returns the same best_sum and witness as the walk over all
    increasing tuples:

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

    Pruning uses the provable per-member increments of dim S + dim I: each
    member after the second adds at most t + min(t, k - t), because its new
    intersections pairwise meet inside the old I, and the sum never exceeds
    the best proven bound.  A node's loop stops when the best sum reaches
    the bound or the node's optimistic sum is no better than the best; ties
    keep the first witness, so neither cut changes the result.

    Each candidate in L holds an int bitmask of the later positions in L
    compatible with it, so a node's candidate set is the AND of its members'
    masks.  Intersection bases are stored only for compatible pairs and
    computed only with 0, with c* and within L.  jobs > 1 deals the third
    member's positions in L round-robin to that many processes; each walks
    its subtrees on its own and the merge keeps the largest sum, then the
    least tuple, so the result does not depend on jobs.
    """
    start = perf_counter()
    cands = list(enumerate_subspaces(d, k, field))
    calls = 0

    def meet(a: int, b: int):
        nonlocal calls
        calls += 1
        s = intersect(cands[a], cands[b])
        return s.basis if s.dim == k - t else None

    nodes = dict.fromkeys(range(2, n + 1), 0)
    prunes = dict.fromkeys(PRUNE_REASONS, 0)
    with_0 = [(c, m) for c in range(1, len(cands)) if (m := meet(0, c)) is not None]
    if not with_0:
        return None, None, SearchStats(nodes, prunes, 0, calls, perf_counter() - start)
    c_star, root_meet = with_0[0]
    members, fixed = [], []
    for c, m0 in with_0[1:]:
        mc = meet(c_star, c)
        if mc is not None:
            members.append(c)
            fixed.append(m0 + mc)
    meets: list[dict[int, tuple]] = [{} for _ in members]
    adj = [0] * len(members)
    for j in range(len(members)):
        for i in range(j):
            m = meet(members[i], members[j])
            if m is not None:
                meets[j][i] = m
                adj[i] |= 1 << j

    s_root = Echelon.of(cands[0])
    for row in cands[c_star].basis:
        s_root.insert(row)
    i_root = Echelon(field, d)
    for row in root_meet:
        i_root.insert(row)
    tree = _Tree(
        n, t + min(t, k - t), best_bound(ScidParams(n, k, t)).best, s_root, i_root,
        tuple(cands[c].basis for c in members), tuple(fixed), tuple(meets), tuple(adj),
    )

    parts = min(jobs, len(members)) if n > 2 else 1
    if parts <= 1:
        walks = [_walk((tree, 0, 1))]
    else:
        try:
            ctx = get_context("fork")
        except ValueError:
            ctx = get_context("spawn")
        with ctx.Pool(processes=parts) as pool:
            walks = pool.map(_walk, [(tree, p, parts) for p in range(parts)])

    best_sum, best = None, None
    for b, w, walk_nodes, walk_prunes in walks:
        for m, c in walk_nodes.items():
            nodes[m] += c
        for r, c in walk_prunes.items():
            prunes[r] += c
        if b is not None and (best_sum is None or b > best_sum or (b == best_sum and w < best)):
            best_sum, best = b, w
    witness = None if best is None else (0, c_star, *(members[j] for j in best))
    stats = SearchStats(nodes, prunes, len(members), calls, perf_counter() - start)
    return best_sum, witness, stats


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
    order, whatever jobs is; jobs > 1 deals the candidates for the third
    member to that many processes (see :func:`_search_range`).
    """
    if n < 2:
        raise BadDims(f"n must be >= 2, got {n}")
    if not 1 <= t <= k:
        raise BadDims(f"need 1 <= t <= k, got t={t}, k={k}")
    best, witness_idx, stats = _search_range(n, k, t, field, d, jobs)
    witness = None
    if witness_idx is not None:
        members = [subspace_at(d, k, field, i) for i in witness_idx]
        witness = SubspaceFamily(field, d, tuple(members))
    return SearchResult(best, witness, sum(stats.nodes_per_depth.values()), True, stats)


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
    """
    if n < 2:
        raise BadDims(f"n must be >= 2, got {n}")
    if not 1 <= t <= k:
        raise BadDims(f"need 1 <= t <= k, got t={t}, k={k}")
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
            if all(intersect(cand, s).dim == k - t for s in members):
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
