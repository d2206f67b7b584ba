"""Exact linear algebra over finite fields with canonical subspace forms.

Vectors are tuples of field element codes and matrices are tuples of such
rows; there is no wrapper class for either.  A :class:`Subspace` stores the
reduced row echelon basis of its row space together with an explicit ambient
dimension, so subspace equality, hashing and serialization are exact and
independent of how the subspace was presented.

All computations are exact; nothing here floats.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .gf import FieldMismatch, FieldSpec, _json_int


class AmbientMismatch(ValueError):
    """Operands live in different ambient spaces or fields."""


class NotNested(ValueError):
    """An inclusion precondition between subspaces fails."""


class BadDims(ValueError):
    """Dimension arguments out of range."""


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------


class Echelon:
    """Incremental row-space accumulator kept in echelon form.

    The one row-elimination kernel of the package.  Cheap rank bookkeeping
    for search loops: insert vectors one at a time, rows stay sorted by pivot
    column with normalized leading ones and zeros below each pivot;
    :meth:`reduced` clears above the pivots to give the canonical form.
    Every row operation is one call to the field's
    :meth:`~scidkit.gf.FieldSpec.sub_multiple` or
    :meth:`~scidkit.gf.FieldSpec.scale`, so the per-field row path lives in
    :mod:`scidkit.gf`.
    """

    __slots__ = ("field", "width", "rows", "pivots")

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows: list[tuple[int, ...]] = []
        self.pivots: list[int] = []

    @classmethod
    def of(cls, s: "Subspace") -> "Echelon":
        """An accumulator holding s's canonical basis, which is already echelon."""
        return cls._of_rows(s.field, s.ambient_dim, s.basis)

    @classmethod
    def _of_rows(cls, field: FieldSpec, width: int, rows) -> "Echelon":
        """An accumulator holding rows taken as they stand.

        The rows must already be echelon with leading ones, so each row's
        pivot is its first 1.
        """
        ech = cls(field, width)
        ech.rows = list(rows)
        ech.pivots = [r.index(1) for r in ech.rows]
        return ech

    def copy(self) -> "Echelon":
        other = Echelon.__new__(Echelon)
        other.field = self.field
        other.width = self.width
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        return other

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """Residual of vec after elimination against the stored rows."""
        sub_multiple = self.field.sub_multiple
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c:
                v = sub_multiple(v, c, row)
        return v

    def insert(self, vec: Sequence[int]) -> bool:
        """Insert vec's residual; True when the rank grew."""
        v = self.reduce(vec)
        for pivot, pv in enumerate(v):
            if pv:
                break
        else:
            return False
        if pv != 1:
            v = self.field.scale(self.field.inv(pv), v)
        at = bisect_left(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self.rows.insert(at, tuple(v))
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def reduced(self) -> tuple[tuple[int, ...], ...]:
        """The reduced row echelon basis of the stored rows.

        Bottom-up back-substitution: when a row's pivot is cleared from the
        rows above it, that row is already zero at every other pivot (left of
        its own pivot by echelon form, right of it by the earlier steps), so
        no cleared entry is refilled.
        """
        sub_multiple = self.field.sub_multiple
        rows = list(self.rows)
        for j in range(len(rows) - 1, 0, -1):
            p, row = self.pivots[j], rows[j]
            for i in range(j):
                c = rows[i][p]
                if c:
                    rows[i] = tuple(sub_multiple(rows[i], c, row))
        return tuple(rows)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^d held by its reduced row echelon basis.

    The basis must already be canonical (strictly increasing pivots, leading
    ones, zeros above and below each pivot, no zero rows); :func:`rref` is the
    constructor of choice for arbitrary row data.  Canonical form makes
    equality of Subspace values coincide with equality of subspaces.
    """

    field: FieldSpec
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(tuple(r) for r in self.basis))
        if self.ambient_dim < 0:
            raise BadDims(f"ambient dimension {self.ambient_dim} < 0")
        for r in self.basis:
            if len(r) != self.ambient_dim:
                raise AmbientMismatch(
                    f"basis row of length {len(r)} in ambient dimension {self.ambient_dim}"
                )

    # Cached, as analyze meets a sunflower's one intersection once per pair.
    # Ints only, so a value cached before pickling holds in another process.
    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, vec: Sequence[int]) -> bool:
        return Echelon.of(self).contains(vec)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^dim vectors of the subspace, zero vector included."""
        add, mul = self.field.add, self.field.mul
        d = self.ambient_dim
        for coeffs in product(range(self.field.order), repeat=self.dim):
            v = [0] * d
            for c, row in zip(coeffs, self.basis):
                if c:
                    v = [add(v[i], mul(c, row[i])) for i in range(d)]
            yield tuple(v)

    def to_dict(self) -> dict:
        return {"ambient": self.ambient_dim, "basis": [list(r) for r in self.basis]}

    @classmethod
    def from_dict(cls, field: FieldSpec, data: dict) -> "Subspace":
        ambient = _json_int(data["ambient"])
        rows = [[_json_int(x) for x in r] for r in data["basis"]]
        for r in rows:
            for x in r:
                if not 0 <= x < field.order:
                    raise ValueError(f"entry {x} out of range for {field!r}")
        return rref(field, ambient, rows)


def rref(field: FieldSpec, ambient_dim: int, rows: Iterable[Sequence[int]]) -> Subspace:
    """Canonicalize arbitrary spanning rows into a Subspace."""
    rows = list(rows)
    for r in rows:
        if len(r) != ambient_dim:
            raise AmbientMismatch(f"row of length {len(r)} in width-{ambient_dim} matrix")
    ech = Echelon(field, ambient_dim)
    for r in rows:
        ech.insert(r)
    return Subspace(field, ambient_dim, ech.reduced())


def zero_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, ())


def full_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return coordinate_subspace(field, ambient_dim, range(ambient_dim))


def coordinate_subspace(field: FieldSpec, ambient_dim: int, coords: Iterable[int]) -> Subspace:
    """Span of the standard basis vectors with the given indices."""
    rows = []
    for c in sorted(set(coords)):
        if not 0 <= c < ambient_dim:
            raise BadDims(f"coordinate {c} outside ambient dimension {ambient_dim}")
        row = [0] * ambient_dim
        row[c] = 1
        rows.append(tuple(row))
    return Subspace(field, ambient_dim, tuple(rows))


def _check_peers(a: Subspace, b: Subspace) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"{a.field!r} vs {b.field!r}")
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(f"ambient {a.ambient_dim} vs {b.ambient_dim}")


def span_sum(a: Subspace, b: Subspace) -> Subspace:
    """The subspace a + b."""
    _check_peers(a, b)
    return rref(a.field, a.ambient_dim, a.basis + b.basis)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The subspace a ∩ b via the doubled-width (Zassenhaus) elimination.

    Rows [v|v] for v in a and [w|0] for w in b span W = {(v + w, v)}, and
    (v + w, v) has a zero left half exactly when v = -w lies in a ∩ b, so
    W meets {0} x F^d in {0} x (a ∩ b).  a's canonical basis makes the rows
    [v|v] echelon with leading ones as they stand, so only b's rows are
    inserted.  In an echelon basis of W the rows with pivot >= d have a zero
    left half and are independent; any combination that uses a row with
    pivot < d is nonzero at the least such pivot, because the rows below it
    vanish there.  Those rows therefore span {0} x (a ∩ b).  Their right
    halves keep their order, pivots and leading ones, so they are echelon as
    they stand, and reducing them gives the canonical basis.
    """
    _check_peers(a, b)
    d = a.ambient_dim
    zeros = (0,) * d
    ech = Echelon._of_rows(a.field, 2 * d, [r + r for r in a.basis])
    for r in b.basis:
        ech.insert(r + zeros)
    inter = Echelon._of_rows(a.field, d, [r[d:] for p, r in zip(ech.pivots, ech.rows) if p >= d])
    return Subspace(a.field, d, inter.reduced())


def meet_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ∩ b) = dim a + dim b - rank [a; b], without building a basis.

    a's canonical rows seed one width-d accumulator as they stand, and each
    of b's rows that raises its rank is one dimension of b outside a.
    """
    _check_peers(a, b)
    ech = Echelon.of(a)
    return b.dim - sum(ech.insert(r) for r in b.basis)


def projective_points(s: Subspace) -> Iterator[tuple[int, ...]]:
    """Each 1-space of s once, by its vector whose first nonzero entry is 1.

    Row i of the canonical basis contributes b_i + sum over j > i of c_j b_j
    for every c in F_q^(dim - 1 - i).  Rows after i vanish at b_i's pivot
    and every column before it, so that entry is the vector's leading 1.
    The rows go in order and each c runs as base-q digits, the first most
    significant; for the whole of F_q^m that is the canonical order of its
    lines (see :mod:`scidkit.search`), each point its line's one-row basis.
    """
    field, basis = s.field, s.basis
    for i, row in enumerate(basis):
        for coeffs in product(field.elements(), repeat=len(basis) - 1 - i):
            v = row
            for c, b in zip(coeffs, basis[i + 1 :]):
                if c:
                    v = field.sub_multiple(v, field.neg(c), b)
            yield tuple(v)


def _meeting_pairs_by_points(spaces: Sequence[Subspace]) -> set[tuple[int, int]]:
    seen: dict[tuple[int, ...], list[int]] = {}
    pairs = set()
    for j, s in enumerate(spaces):
        for point in projective_points(s):
            owners = seen.setdefault(point, [])
            pairs.update((i, j) for i in owners)
            owners.append(j)
    return pairs


def _meeting_pairs_by_rank(spaces: Sequence[Subspace]) -> set[tuple[int, int]]:
    pairs = combinations(range(len(spaces)), 2)
    return {(i, j) for i, j in pairs if meet_dim(spaces[i], spaces[j])}


def meeting_pairs(spaces: Sequence[Subspace]) -> set[tuple[int, int]]:
    """The pairs i < j of spaces that share a nonzero vector.

    Two routes give this set; the input's own sizes pick the cheaper one.

    * Points.  Every nonzero v in s is a multiple of exactly one vector
      with leading entry 1, v divided by its first nonzero entry, and that
      vector lies in s.  So two spaces meet exactly when they share such a
      normalized vector, a projective point.  Write a normalized v of s in
      the canonical basis as sum a_j b_j and let i be the least j with
      a_j != 0.  The rows from i on vanish before b_i's pivot and only b_i
      is nonzero there, so v's leading entry is a_i = 1 at that pivot, and
      v is the vector :func:`projective_points` lists for row i and
      c_j = a_j.  Coordinates in a basis are unique, so it is listed once.
      A dict from point to the spaces listed so far then yields (i, j) for
      every j that lists a point some earlier i listed, and no other pair.
    * Rank.  The spaces a and b meet exactly when :func:`meet_dim` is
      nonzero.

    The point route lists the sum of theta(dim s) = (q^dim - 1)/(q - 1)
    vectors; the rank route inserts each space's rows once per earlier
    space.  The point route is taken exactly when the first count is not
    larger, so a large field or dimension, where theta is huge, stays on the
    rank route.  Both return the same set.
    """
    spaces = list(spaces)
    if not spaces:
        return set()
    for s in spaces[1:]:
        _check_peers(spaces[0], s)
    q = spaces[0].field.order
    points = sum((q**s.dim - 1) // (q - 1) for s in spaces)
    inserts = sum(j * s.dim for j, s in enumerate(spaces))
    if points <= inserts:
        return _meeting_pairs_by_points(spaces)
    return _meeting_pairs_by_rank(spaces)


def is_subspace_of(a: Subspace, b: Subspace) -> bool:
    _check_peers(a, b)
    if a.dim > b.dim:
        return False
    ech = Echelon.of(b)
    return all(ech.contains(r) for r in a.basis)


def complement_within(a: Subspace, b: Subspace) -> Subspace:
    """A direct complement of a inside b, chosen greedily from b's basis.

    Deterministic: walks b's canonical basis rows in order and keeps those
    independent of a plus the rows already kept.  Raises NotNested when a is
    not contained in b.
    """
    _check_peers(a, b)
    if not is_subspace_of(a, b):
        raise NotNested("first argument is not contained in the second")
    ech = Echelon.of(a)
    kept = []
    for r in b.basis:
        if ech.insert(r):
            kept.append(r)
    return rref(a.field, a.ambient_dim, kept)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """The quotient map phi: F_q^d -> F_q^d / C, written into F_q^(d - dim C).

    Let P be the pivot columns of C's canonical basis and F, `free`, the
    other columns; the target's coordinates are the columns F in order.

    * The map.  phi(v) is v's residual against C's rows, restricted to F.
      Each canonical row c_p of C vanishes on the other pivots, so the
      residual is v - sum over p in P of v_p c_p: it is linear in v, lies in
      v + C and vanishes on P.  phi(v) = 0 therefore makes the whole
      residual 0 and v lie in C, and v in C has residual 0, so ker phi = C
      exactly.
    * The read-off.  For C ⊆ x, phi(x)'s canonical basis is read off x's.
      The pivots of a subspace's canonical basis are the leading positions
      of its nonzero vectors, so C ⊆ x puts P among x's pivots, and
      dim x - dim C of x's rows have their pivot in F.  Those rows vanish on
      P, the other pivots, so phi maps each to its restriction to F, which
      keeps its leading one and stays zero on the other rows' pivots.  The
      restrictions are therefore canonical rows, dim x - dim C independent
      vectors of phi(x), whose dimension is dim x - dim C as ker phi = C ⊆ x:
      its basis.  No elimination is needed.
    * The lift.  lambda(y) writes y into the columns F, with zeros on P.  It
      vanishes on P, so phi(lambda(y)) = y.  The preimage of Y is therefore
      C + lambda(Y): v with phi(v) in Y has v - lambda(phi(v)) in ker phi = C.
      lambda(y) in C forces y = phi(lambda(y)) = 0, so the sum is direct.
      For C ⊆ x the preimage of phi(x) is x + C = x.

    Nothing here builds a basis of the whole space, so the cost stays linear
    in d for a small C and x.
    """

    center: Subspace
    free: tuple[int, ...]

    @property
    def target_dim(self) -> int:
        return len(self.free)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        d = self.center.ambient_dim
        if len(vec) != d:
            raise AmbientMismatch(f"vector of length {len(vec)} in ambient dimension {d}")
        v = Echelon.of(self.center).reduce(vec)
        return tuple(v[c] for c in self.free)

    def map_subspace(self, x: Subspace) -> Subspace:
        """phi(x), read off x's canonical basis; raises NotNested unless C ⊆ x."""
        if not is_subspace_of(self.center, x):
            raise NotNested("subspace does not contain the quotient's center")
        pivots = {r.index(1) for r in self.center.basis}
        rows = tuple(tuple(r[c] for c in self.free) for r in x.basis if r.index(1) not in pivots)
        return Subspace(x.field, self.target_dim, rows)

    def preimage(self, y: Subspace) -> Subspace:
        """C + lambda(y), the subspace of F_q^d that phi maps onto y."""
        if y.ambient_dim != self.target_dim:
            raise AmbientMismatch(f"ambient {y.ambient_dim} vs target {self.target_dim}")
        d = self.center.ambient_dim
        lifts = []
        for row in y.basis:
            v = [0] * d
            for c, x in zip(self.free, row):
                v[c] = x
            lifts.append(v)
        return rref(self.center.field, d, [*self.center.basis, *lifts])


def quotient_map(c: Subspace) -> QuotientMap:
    """The quotient map of F_q^d by c: c and its non-pivot columns."""
    pivots = {r.index(1) for r in c.basis}
    return QuotientMap(c, tuple(i for i in range(c.ambient_dim) if i not in pivots))


# ---------------------------------------------------------------------------
# sampling and embedding
# ---------------------------------------------------------------------------


def _random_subspace_from(rng: random.Random, d: int, k: int, field: FieldSpec) -> Subspace:
    q = field.order
    while True:
        rows = [[rng.randrange(q) for _ in range(d)] for _ in range(k)]
        ech = Echelon(field, d)
        for r in rows:
            ech.insert(r)
        if ech.rank == k:
            return Subspace(field, d, ech.reduced())


def random_subspace(d: int, k: int, field: FieldSpec, seed: int) -> Subspace:
    """A uniformly distributed k-subspace of F_q^d from a seeded stream.

    Batches of k vectors are drawn from random.Random(seed) and rejected
    until one batch is independent; conditioning on full rank keeps the row
    space uniform over all k-subspaces.
    """
    if not 0 <= k <= d:
        raise BadDims(f"need 0 <= k <= d, got k={k}, d={d}")
    return _random_subspace_from(random.Random(seed), d, k, field)


def embed_subspace(s: Subspace, new_ambient: int) -> Subspace:
    """Zero-pad basis rows on the right into a larger ambient space."""
    if new_ambient < s.ambient_dim:
        raise BadDims(f"cannot embed ambient {s.ambient_dim} into {new_ambient}")
    pad = (0,) * (new_ambient - s.ambient_dim)
    return Subspace(s.field, new_ambient, tuple(r + pad for r in s.basis))
