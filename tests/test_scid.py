"""Family analysis: intersection tables, S and I, sunflowers, spreads."""

import random
from dataclasses import fields
from itertools import combinations

import pytest

from scidkit.construct import construct_max, construct_spectrum2, construct_sunflower
from scidkit.gf import field_from_order
from scidkit.linalg import Subspace, coordinate_subspace, rref
from scidkit.scid import (
    DuplicateMembers,
    MixedMemberDimensions,
    ScidReport,
    SubspaceFamily,
    TooFewMembers,
    analyze,
    verify_scid,
)

F2 = field_from_order(2)


def _coord_family(d, *coord_sets):
    return SubspaceFamily.from_members(
        [coordinate_subspace(F2, d, cs) for cs in coord_sets]
    )


def test_three_planes_pairwise_lines():
    fam = _coord_family(3, [0, 1], [0, 2], [1, 2])
    rep = analyze(fam)
    assert rep.n == 3 and rep.k == 2
    assert rep.is_scid and rep.t == 1
    assert rep.pairwise_dims == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    assert rep.S.dim == 3 and rep.I.dim == 3
    assert rep.sum == 6
    assert rep.sunflower_center is None
    assert not rep.is_partial_spread
    assert verify_scid(fam, 2, 1)


def test_sunflower_three_planes_common_line():
    fam = _coord_family(4, [0, 1], [0, 2], [0, 3])
    rep = analyze(fam)
    assert rep.is_scid and rep.t == 1
    assert rep.S.dim == 4 and rep.I.dim == 1
    assert rep.sum == 5
    assert rep.sunflower_center is not None
    assert rep.sunflower_center.dim == 1
    assert rep.sunflower_center.contains_vector((1, 0, 0, 0))


def test_partial_spread():
    fam = _coord_family(4, [0, 1], [2, 3])
    rep = analyze(fam)
    assert rep.is_scid and rep.t == 2
    assert rep.is_partial_spread
    assert rep.I.dim == 0 and rep.sum == 4
    # all-zero intersections still count as a (degenerate) common center
    assert rep.sunflower_center is not None and rep.sunflower_center.dim == 0


def test_not_constant_intersection():
    # pairs meet in dims 1, 1, 0: not constant
    fam = _coord_family(4, [0, 1], [1, 2], [3, 0])
    rep = analyze(fam)
    assert not rep.is_scid and rep.t is None
    assert not verify_scid(fam, 2, 1)


def test_analysis_is_order_invariant():
    rng = random.Random(3)
    fam = _coord_family(4, [0, 1], [0, 2], [0, 3])
    base = analyze(fam)
    members = list(fam.members)
    for _ in range(5):
        rng.shuffle(members)
        rep = analyze(SubspaceFamily(F2, 4, tuple(members)))
        assert (rep.sum, rep.S, rep.I, rep.is_scid, rep.t) == (
            base.sum,
            base.S,
            base.I,
            base.is_scid,
            base.t,
        )


def test_subfamily_inherits_pattern():
    fam = _coord_family(3, [0, 1], [0, 2], [1, 2])
    for drop in range(3):
        members = [m for i, m in enumerate(fam.members) if i != drop]
        sub = SubspaceFamily(F2, 3, tuple(members))
        assert verify_scid(sub, 2, 1)


def test_family_equality_ignores_order():
    a = _coord_family(3, [0, 1], [0, 2])
    b = _coord_family(3, [0, 2], [0, 1])
    assert a == b and hash(a) == hash(b)
    assert a.canonical() == b.canonical()
    assert a.canonical().members == b.canonical().members


def test_duplicate_members_rejected():
    s = coordinate_subspace(F2, 3, [0, 1])
    with pytest.raises(DuplicateMembers):
        SubspaceFamily(F2, 3, (s, s))


def test_too_few_members():
    fam = SubspaceFamily.from_members([coordinate_subspace(F2, 3, [0])])
    with pytest.raises(TooFewMembers):
        analyze(fam)
    assert not verify_scid(fam, 1, 1)


def test_mixed_dimensions_rejected():
    fam = SubspaceFamily.from_members(
        [coordinate_subspace(F2, 3, [0, 1]), coordinate_subspace(F2, 3, [2])]
    )
    with pytest.raises(MixedMemberDimensions):
        analyze(fam)
    assert not verify_scid(fam, 2, 1)


def test_verify_scid_wrong_parameters():
    fam = _coord_family(3, [0, 1], [0, 2], [1, 2])
    assert not verify_scid(fam, 2, 2)
    assert not verify_scid(fam, 3, 1)


def test_family_serialization_roundtrip():
    fam = _coord_family(4, [0, 1], [0, 2], [0, 3])
    again = SubspaceFamily.from_dict(fam.to_dict())
    assert again == fam
    assert analyze(again).sum == 5


def test_from_dict_normalizes_bases():
    data = {
        "field": {"p": 2, "tower": []},
        "ambient": 3,
        "members": [
            {"ambient": 3, "basis": [[1, 1, 0], [0, 1, 0]]},
            {"ambient": 3, "basis": [[0, 0, 1], [1, 0, 0]]},
        ],
    }
    fam = SubspaceFamily.from_dict(data)
    assert fam.members[0].basis == ((1, 0, 0), (0, 1, 0))
    assert fam.members[1].basis == ((1, 0, 0), (0, 0, 1))


def test_report_to_dict_shape():
    rep = analyze(_coord_family(3, [0, 1], [0, 2], [1, 2]))
    d = rep.to_dict()
    assert d["sum"] == 6 and d["is_scid"] and d["t"] == 1
    assert d["pairwise_dims"][0] == [2, 1, 1]
    assert d["S"]["ambient"] == 3

def test_analysis_with_non_rref_input_rows():
    # construction via rref from messy spanning sets, same verdicts
    m1 = rref(F2, 3, [(1, 1, 0), (1, 0, 0)])
    m2 = rref(F2, 3, [(1, 0, 1), (0, 0, 1)])
    m3 = rref(F2, 3, [(0, 1, 1), (0, 1, 0)])
    rep = analyze(SubspaceFamily.from_members([m1, m2, m3]))
    assert rep.sum == 6 and rep.t == 1


# ---------------------------------------------------------------------------
# differential test of analyze against a reference written here
# ---------------------------------------------------------------------------


def _gauss_jordan(field, rows, width):
    """Textbook reduced row echelon form; zero rows dropped."""
    mat = [list(r) for r in rows]
    top = 0
    for col in range(width):
        hit = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if hit is None:
            continue
        mat[top], mat[hit] = mat[hit], mat[top]
        pinv = field.inv(mat[top][col])
        mat[top] = [field.mul(pinv, x) for x in mat[top]]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != top and f:
                mat[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[r], mat[top])]
        top += 1
    return tuple(tuple(r) for r in mat[:top])


def _zassenhaus(field, d, a, b):
    """Basis of a ∩ b: the right halves of the reduced [a|a; b|0] rows whose left half is 0."""
    red = _gauss_jordan(field, [v + v for v in a] + [w + (0,) * d for w in b], 2 * d)
    return _gauss_jordan(field, [r[d:] for r in red if not any(r[:d])], d)


def _reference_report(family):
    """Every ScidReport field, Subspaces as bases: I from all rows, center by all-equal."""
    field, d, members = family.field, family.ambient_dim, family.members
    n, k = family.n, members[0].dim
    inter = {
        (i, j): _zassenhaus(field, d, members[i].basis, members[j].basis)
        for i, j in combinations(range(n), 2)
    }
    dims = [[k] * n for _ in range(n)]
    for (i, j), basis in inter.items():
        dims[i][j] = dims[j][i] = len(basis)
    off = {len(basis) for basis in inter.values()}
    t = k - min(off) if len(off) == 1 else None
    big_s = _gauss_jordan(field, [r for m in members for r in m.basis], d)
    big_i = _gauss_jordan(field, [r for basis in inter.values() for r in basis], d)
    first = inter[(0, 1)]
    return {
        "n": n,
        "k": k,
        "pairwise_dims": tuple(map(tuple, dims)),
        "is_scid": len(off) == 1,
        "t": t,
        "S": big_s,
        "I": big_i,
        "sum": len(big_s) + len(big_i),
        "sunflower_center": first if all(b == first for b in inter.values()) else None,
        "is_partial_spread": t == k,
    }


def _random_family(rng, field, d, k, n):
    members = {}
    while len(members) < n:
        rows = [[rng.randrange(field.order) for _ in range(d)] for _ in range(k)]
        s = rref(field, d, rows)
        if s.dim == k:
            members.setdefault(s.basis, s)
    return SubspaceFamily.from_members(list(members.values()))


def _through_vector(rng, field, d, k, n):
    """n distinct random k-spaces of F_q^d that all contain one random nonzero vector."""
    v = [0] * d
    while not any(v):
        v = [rng.randrange(field.order) for _ in range(d)]
    members = {}
    while len(members) < n:
        rows = [[rng.randrange(field.order) for _ in range(d)] for _ in range(k - 1)]
        s = rref(field, d, rows + [v])
        if s.dim == k:
            members.setdefault(s.basis, s)
    return SubspaceFamily.from_members(list(members.values()))


def _families(q):
    field = field_from_order(q)
    rng = random.Random(q)
    out = []
    for d, k, n in ((5, 2, 4), (5, 3, 3), (6, 3, 5), (4, 1, 3)):
        out.append(_random_family(rng, field, d, k, n))  # mostly not SCID
    for n in (3, 5, 7):
        # planes of F_q^3 meet pairwise in lines; three or more often share one
        out.append(_random_family(rng, field, 3, 2, min(n, q * q + q + 1)))
    out.append(construct_max(4, 3, 2, field)[0])
    out.append(construct_spectrum2(5, 4, 3, field, 3, 1)[0])  # repeated glued blocks
    out.append(construct_sunflower(5, 3, 2, field, 3, 1)[0])
    out.append(construct_sunflower(6, 2, 1, field, 3, 0)[0])
    out.append(construct_sunflower(6, 4, 3, field, 4, 2)[0])
    out.append(_random_family(rng, field, 5, 3, 2))
    # mostly a common core (the vector) with some pairs meeting beyond it
    out.append(_through_vector(rng, field, 5, 3, 6))
    coord_sets = (
        ([0, 1, 2], [0, 3, 4], [0, 1, 3]),  # core e_0; later pairs meet beyond it
        ([0, 1], [0, 2], [0, 3], [1, 3]),  # e_0 lies in every member but the last
        ([0, 1], [0, 2]),
    )
    for sets in coord_sets:
        out.append(SubspaceFamily.from_members([coordinate_subspace(field, 5, cs) for cs in sets]))
    out.append(SubspaceFamily.from_members(
        [coordinate_subspace(field, 5, cs) for cs in ([0, 1], [0, 2], [0, 3], [1, 2], [3, 4])]
    ))  # repeated and distinct intersections, not SCID
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_analyze_matches_reference_zassenhaus(q):
    kinds = set()
    for family in _families(q):
        rep = analyze(family)
        want = _reference_report(family)
        assert {f.name for f in fields(ScidReport)} == set(want)
        for name, expected in want.items():
            got = getattr(rep, name)
            if isinstance(got, Subspace):
                assert got.ambient_dim == family.ambient_dim
                got = got.basis
            assert got == expected, (q, name, family)
        kinds.add((rep.is_scid, rep.sunflower_center is not None))
    assert kinds >= {(False, False), (True, False), (True, True)}
