"""Families of equal-dimensional subspaces and their intersection structure.

A family is an ordered list of pairwise distinct subspaces of one ambient
space.  :func:`analyze` measures everything of interest at once: the pairwise
intersection dimension table, whether the family has constant intersection
dimension (every pair of k-dimensional members meets in dimension exactly
k - t for one common t), the total span S, the span I of all pairwise
intersections, the headline quantity dim S + dim I, and whether the family is
a sunflower (all pairwise intersections are one common center) or a partial
spread (all pairwise intersections trivial).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf import FieldMismatch, FieldSpec, _json_int
from .linalg import (
    AmbientMismatch,
    NotNested,
    Subspace,
    intersect,
    meet_dim,
    meeting_pairs,
    quotient_map,
    rref,
    zero_subspace,
)


class MixedMemberDimensions(ValueError):
    """Family members do not all have the same dimension."""


class DuplicateMembers(ValueError):
    """Two family members are the same subspace; degenerate and rejected."""


class TooFewMembers(ValueError):
    """Intersection analysis needs at least two members."""


@dataclass(frozen=True)
class SubspaceFamily:
    """Ordered, pairwise distinct subspaces of a common ambient space.

    Single-member families are representable (a one-line spread is one), but
    analysis requires n >= 2.  Families compare order-insensitively: two
    families with the same member set are equal.
    """

    field: FieldSpec
    ambient_dim: int
    members: tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a family needs at least one member")
        seen = set()
        for m in self.members:
            if m.field != self.field:
                raise FieldMismatch(f"member over {m.field!r} in family over {self.field!r}")
            if m.ambient_dim != self.ambient_dim:
                raise AmbientMismatch(
                    f"member ambient {m.ambient_dim} in family ambient {self.ambient_dim}"
                )
            if m.basis in seen:
                raise DuplicateMembers("family members must be pairwise distinct")
            seen.add(m.basis)

    @property
    def n(self) -> int:
        return len(self.members)

    def canonical(self) -> "SubspaceFamily":
        """Members sorted by basis; the order-insensitive representative."""
        ordered = tuple(sorted(self.members, key=lambda s: s.basis))
        return SubspaceFamily(self.field, self.ambient_dim, ordered)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubspaceFamily):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and sorted(m.basis for m in self.members) == sorted(m.basis for m in other.members)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, frozenset(m.basis for m in self.members)))

    @classmethod
    def from_members(cls, members) -> "SubspaceFamily":
        members = tuple(members)
        if not members:
            raise ValueError("a family needs at least one member")
        return cls(members[0].field, members[0].ambient_dim, members)

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "ambient": self.ambient_dim,
            "members": [m.to_dict() for m in self.members],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SubspaceFamily":
        field = FieldSpec.from_dict(data["field"])
        ambient = _json_int(data["ambient"])
        members = tuple(Subspace.from_dict(field, m) for m in data["members"])
        for m in members:
            if m.ambient_dim != ambient:
                raise AmbientMismatch("member ambient disagrees with family ambient")
        return cls(field, ambient, members)


@dataclass(frozen=True)
class ScidReport:
    """Full intersection-structure analysis of one family.

    `t` is defined only when `is_scid`, as k minus the common pairwise
    intersection dimension.  `sum` is dim S + dim I, the quantity all the
    bounds in :mod:`scidkit.bounds` constrain.
    """

    n: int
    k: int
    pairwise_dims: tuple[tuple[int, ...], ...]
    is_scid: bool
    t: int | None
    S: Subspace
    I: Subspace
    sum: int
    sunflower_center: Subspace | None
    is_partial_spread: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "pairwise_dims": [list(r) for r in self.pairwise_dims],
            "is_scid": self.is_scid,
            "t": self.t,
            "S": self.S.to_dict(),
            "I": self.I.to_dict(),
            "sum": self.sum,
            "sunflower_center": None
            if self.sunflower_center is None
            else self.sunflower_center.to_dict(),
            "is_partial_spread": self.is_partial_spread,
        }


def _pairwise_intersections(family: SubspaceFamily) -> tuple[int, dict[tuple[int, int], Subspace]]:
    """The member dimension k and the intersection of every pair i < j, keyed (i, j).

    Takes the core route of :func:`analyze` when the intersection of the
    first two members is a nonzero subspace of every member, and otherwise
    intersects every other pair by Zassenhaus as well.
    Raises MixedMemberDimensions on unequal member dimensions and
    TooFewMembers below two members.
    """
    n = family.n
    if n < 2:
        raise TooFewMembers(f"analysis needs n >= 2 members, got {n}")
    dims = {m.dim for m in family.members}
    if len(dims) != 1:
        raise MixedMemberDimensions(f"member dimensions {sorted(dims)} are not constant")
    k = dims.pop()
    members = family.members
    pairs = list(combinations(range(n), 2))
    core = intersect(members[0], members[1])
    if n > 2 and core.dim:
        qm = quotient_map(core)
        try:
            images = [qm.map_subspace(m) for m in members]
        except NotNested:
            pass
        else:
            met = meeting_pairs(images)
            return k, {
                (i, j): qm.preimage(intersect(images[i], images[j])) if (i, j) in met else core
                for i, j in pairs
            }
    rest = {(i, j): intersect(members[i], members[j]) for i, j in pairs[1:]}
    return k, {(0, 1): core, **rest}


def analyze(family: SubspaceFamily) -> ScidReport:
    """Measure a family's intersection structure from scratch.

    Order-invariant: permuting the members permutes the pairwise table but
    changes nothing else.  I is spanned by the distinct pairwise
    intersections, so a sunflower's n(n-1)/2 equal ones feed it once, and
    the family is a sunflower exactly when there is one distinct
    intersection.  Raises MixedMemberDimensions on unequal member
    dimensions and TooFewMembers below two members.

    The pairwise intersections come from one of two routes, chosen by the
    input.  Let C = pi_1 ∩ pi_2.  When n >= 3, dim C > 0 and C lies in every
    later member, the pairs are intersected modulo C, which gives the same
    subspaces as intersecting every pair by Zassenhaus:

    * C is the common core.  C ⊆ pi_m for every m, so C lies in every
      pairwise intersection and in their intersection ∩ pi_m, and
      ∩ pi_m ⊆ pi_1 ∩ pi_2 = C.
    * Correspondence.  Let phi be the quotient map by C and Q_i = phi(pi_i),
      read off pi_i's basis (see :class:`~scidkit.linalg.QuotientMap`).
      The preimage of Q_i is pi_i + C = pi_i, and preimages respect
      intersections, so pi_i ∩ pi_j is the preimage C + lambda(Q_i ∩ Q_j)
      of Q_i ∩ Q_j, of dimension dim C + dim(Q_i ∩ Q_j).
    * :func:`~scidkit.linalg.meeting_pairs` finds the pairs with
      Q_i ∩ Q_j != 0, by shared projective points or by rank, whichever
      touches fewer vectors.  Every other pair's intersection is C,
      recorded as the very Subspace C.  A pair that meets gets the
      canonical basis of C's rows and the lifts of a basis of Q_i ∩ Q_j.

    Every intersection is a canonical Subspace equal to the Zassenhaus one,
    so the table (their dimensions), the distinct intersections, I (the RREF
    of the span of the same subspaces), the center (the one distinct
    intersection, if there is one) and S (from the members alone) come out
    unchanged.  In every other case, including C = 0 and n = 2, each pair
    is intersected by Zassenhaus and the first pair's C is reused.
    """
    k, inter = _pairwise_intersections(family)
    n = family.n
    field, d = family.field, family.ambient_dim

    table = [[k] * n for _ in range(n)]
    dims: dict[Subspace, int] = {}  # each distinct intersection and its dimension
    for (i, j), sub in inter.items():
        dim = dims.get(sub)
        if dim is None:
            dim = dims[sub] = sub.dim
        table[i][j] = table[j][i] = dim
    off_diag = set(dims.values())
    is_scid = len(off_diag) == 1
    t = k - off_diag.pop() if is_scid else None

    s_rows = [r for m in family.members for r in m.basis]
    big_s = rref(field, d, s_rows)
    distinct = list(dims)
    i_rows = [r for sub in distinct for r in sub.basis]
    big_i = rref(field, d, i_rows) if i_rows else zero_subspace(field, d)
    center = distinct[0] if len(distinct) == 1 else None

    return ScidReport(
        n=n,
        k=k,
        pairwise_dims=tuple(tuple(r) for r in table),
        is_scid=is_scid,
        t=t,
        S=big_s,
        I=big_i,
        sum=big_s.dim + big_i.dim,
        sunflower_center=center,
        is_partial_spread=bool(is_scid and t == k),
    )


def verify_scid(family: SubspaceFamily, k: int, t: int) -> bool:
    """True iff every member is k-dimensional and every pair meets in k - t.

    Never raises on structural mismatch; anything off simply returns False.
    """
    if family.n < 2:
        return False
    if any(m.dim != k for m in family.members):
        return False
    want = k - t
    return all(meet_dim(a, b) == want for a, b in combinations(family.members, 2))
