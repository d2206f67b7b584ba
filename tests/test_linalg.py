"""Subspace arithmetic: canonical form, Zassenhaus, quotients, batteries."""

import random
from itertools import combinations

import pytest

from scidkit import linalg
from scidkit.gf import FieldMismatch, field_from_order
from scidkit.linalg import (
    AmbientMismatch,
    BadDims,
    Echelon,
    NotNested,
    Subspace,
    complement_within,
    coordinate_subspace,
    embed_subspace,
    full_subspace,
    intersect,
    is_subspace_of,
    _meeting_pairs_by_points,
    _meeting_pairs_by_rank,
    meet_dim,
    meeting_pairs,
    projective_points,
    quotient_map,
    random_subspace,
    rref,
    span_sum,
    zero_subspace,
)

F2 = field_from_order(2)
F3 = field_from_order(3)
F4 = field_from_order(4)


def _random_rows(rng, field, count, width):
    return [[rng.randrange(field.order) for _ in range(width)] for _ in range(count)]


def _reference_rref(field, rows, width):
    """Textbook Gauss-Jordan on a copy of rows; zero rows dropped."""
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


def test_rref_canonical_golden():
    s = rref(F2, 3, [(1, 1, 0), (0, 1, 1)])
    assert s.basis == ((1, 0, 1), (0, 1, 1))
    assert s.dim == 2
    # dependent rows collapse
    s2 = rref(F2, 3, [(1, 1, 0), (1, 1, 0), (0, 0, 0)])
    assert s2.basis == ((1, 1, 0),)


def test_rref_matches_reference_gauss_jordan():
    rng = random.Random(3)
    for q in (2, 3, 4, 5, 8, 9):
        field = field_from_order(q)
        for _ in range(60):
            width = rng.randrange(1, 7)
            rows = _random_rows(rng, field, rng.randrange(0, width + 3), width)
            if rows and rng.random() < 0.5:
                # a dependent row: a random combination of two existing rows
                u, v = rng.choice(rows), rng.choice(rows)
                c = rng.randrange(field.order)
                rows.append([field.add(x, field.mul(c, y)) for x, y in zip(u, v)])
            if rng.random() < 0.3:
                rows.insert(rng.randrange(len(rows) + 1), [0] * width)
            rng.shuffle(rows)
            assert rref(field, width, rows).basis == _reference_rref(field, rows, width)


def test_rref_rejects_row_of_wrong_length():
    with pytest.raises(AmbientMismatch):
        rref(F2, 3, [(1, 0)])


def test_rref_scaling_needs_nonbinary_field():
    s = rref(F3, 2, [(2, 1)])
    assert s.basis == ((1, 2),)


def test_rref_invariant_under_row_shuffle_and_scale():
    rng = random.Random(11)
    for field in (F2, F3, F4):
        for _ in range(40):
            rows = _random_rows(rng, field, 3, 5)
            a = rref(field, 5, rows)
            shuffled = rows[:]
            rng.shuffle(shuffled)
            scaled = [
                [field.mul(c, scale) for c in row]
                for row, scale in zip(shuffled, [rng.randrange(1, field.order) for _ in shuffled])
            ]
            assert rref(field, 5, scaled) == a


def test_subspace_rejects_bad_entries():
    with pytest.raises(ValueError):
        Subspace.from_dict(F2, {"ambient": 2, "basis": [[1, 2]]})


def test_vectors_enumerates_all_points():
    s = rref(F3, 3, [(1, 0, 1), (0, 1, 2)])
    pts = list(s.vectors())
    assert len(pts) == 9 and len(set(pts)) == 9
    assert all(s.contains_vector(v) for v in pts)


def test_zero_full_coordinate():
    assert zero_subspace(F2, 4).dim == 0
    assert full_subspace(F2, 4).dim == 4
    c = coordinate_subspace(F2, 4, [2, 0])
    assert c.basis == ((1, 0, 0, 0), (0, 0, 1, 0))
    with pytest.raises(BadDims):
        coordinate_subspace(F2, 4, [4])


def test_echelon_matches_rref():
    rng = random.Random(5)
    for field in (F2, F3):
        for _ in range(50):
            rows = _random_rows(rng, field, 4, 5)
            ech = Echelon(field, 5)
            for r in rows:
                ech.insert(r)
            assert ech.rank == rref(field, 5, rows).dim
            inside = rows[rng.randrange(len(rows))]
            assert ech.contains(inside)


def test_grassmann_identity_battery():
    # dim(A+B) + dim(A∩B) == dim A + dim B, across fields and sizes
    rng = random.Random(23)
    for field in (F2, F3, F4):
        for _ in range(60):
            d = rng.randrange(2, 6)
            a = rref(field, d, _random_rows(rng, field, rng.randrange(1, d + 1), d))
            b = rref(field, d, _random_rows(rng, field, rng.randrange(1, d + 1), d))
            u = span_sum(a, b)
            i = intersect(a, b)
            assert u.dim + i.dim == a.dim + b.dim
            assert is_subspace_of(i, a) and is_subspace_of(i, b)
            assert is_subspace_of(a, u) and is_subspace_of(b, u)


def test_intersect_membership_exact():
    # the intersection contains exactly the common vectors
    rng = random.Random(31)
    for field in (F2, F3, F4):
        for _ in range(30):
            a = rref(field, 4, _random_rows(rng, field, 2, 4))
            b = rref(field, 4, _random_rows(rng, field, 2, 4))
            i = intersect(a, b)
            common = {v for v in a.vectors() if b.contains_vector(v)}
            assert set(i.vectors()) == common


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_meet_dim_matches_intersect(q):
    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(40):
        d = rng.randrange(1, 7)
        a = rref(field, d, _random_rows(rng, field, rng.randrange(d + 1), d))
        b = rref(field, d, _random_rows(rng, field, rng.randrange(d + 1), d))
        specials = (zero_subspace(field, d), full_subspace(field, d))
        pairs = [(a, b), (b, a), (a, a), *((a, s) for s in specials), *((s, a) for s in specials)]
        for x, y in pairs:
            assert meet_dim(x, y) == intersect(x, y).dim, (q, x, y)


def test_meet_dim_peer_checks_match_intersect():
    for x, y, error in [
        (zero_subspace(F2, 3), zero_subspace(F2, 4), AmbientMismatch),
        (full_subspace(F2, 3), full_subspace(F3, 3), FieldMismatch),
        (full_subspace(F4, 2), zero_subspace(F2, 3), FieldMismatch),
    ]:
        for fn in (intersect, meet_dim):
            with pytest.raises(error):
                fn(x, y)


MEETING_QS = [2, 3, 4, 5, 7, 8, 9]


def _theta(q, m):
    return (q**m - 1) // (q - 1)


def _meeting_families(field, rng):
    """Random families with 0-dim and full members, partial spreads, planted shared points."""
    top = 6 if field.order <= 3 else 4
    families = []
    for _ in range(8):
        d = rng.randrange(1, top + 1)
        members = [
            rref(field, d, _random_rows(rng, field, rng.randrange(d + 1), d))
            for _ in range(rng.randrange(1, 6))
        ]
        members += rng.sample([zero_subspace(field, d), full_subspace(field, d)], rng.randrange(3))
        rng.shuffle(members)
        families.append(members)
    for m in (1, 2):
        spread = []
        for _ in range(30):
            s = random_subspace(2 * m, m, field, rng.randrange(10**9))
            if all(meet_dim(s, x) == 0 for x in spread):
                spread.append(s)
        families.append(spread)
    for _ in range(6):
        d = rng.randrange(2, top + 1)
        v = [0] * d
        while not any(v):
            v = _random_rows(rng, field, 1, d)[0]
        families.append([
            rref(field, d, _random_rows(rng, field, rng.randrange(d), d) + [v] * rng.randrange(2))
            for _ in range(rng.randrange(2, 6))
        ])
    return families


@pytest.mark.parametrize("q", MEETING_QS)
def test_meeting_pairs_match_pairwise_meet_dim(q):
    field = field_from_order(q)
    families = _meeting_families(field, random.Random(100 + q))
    sizes = set()
    for spaces in families:
        want = {
            (i, j)
            for i, j in combinations(range(len(spaces)), 2)
            if meet_dim(spaces[i], spaces[j]) > 0
        }
        assert _meeting_pairs_by_points(spaces) == want, (q, spaces)
        assert _meeting_pairs_by_rank(spaces) == want, (q, spaces)
        assert meeting_pairs(spaces) == want, (q, spaces)
        sizes.add(min(len(want), 1))
    assert sizes == {0, 1}  # some families meet nowhere, some somewhere
    assert meeting_pairs([]) == set()


@pytest.mark.parametrize("q", MEETING_QS)
def test_projective_points_list_each_point_once(q):
    field = field_from_order(q)
    rng = random.Random(200 + q)
    for d in range(0, 4):
        spaces = [zero_subspace(field, d), full_subspace(field, d)]
        spaces += [rref(field, d, _random_rows(rng, field, rng.randrange(d + 1), d)) for _ in range(4)]
        for s in spaces:
            points = list(projective_points(s))
            assert len(points) == len(set(points)) == _theta(q, s.dim), (q, s)
            for v in points:
                assert next(x for x in v if x) == 1 and s.contains_vector(v), (q, s, v)


@pytest.mark.parametrize(
    "q, dims, route",
    [
        # point route exactly when sum theta(dim) <= sum over j of j * dim_j
        (2, (1, 1), "rank"),
        (2, (1, 1, 1), "points"),  # 3 <= 3
        (4, (1, 1, 1), "points"),
        (2, (2, 2, 2), "rank"),  # 9 > 6
        (2, (2, 2, 2, 2), "points"),  # 12 <= 12
        (3, (2, 2, 2, 2), "rank"),  # 16 > 12
        (3, (2, 2, 2, 2, 2), "points"),  # 20 <= 20
        (2, (3,) * 5, "rank"),  # 35 > 30
        (2, (3,) * 6, "points"),  # 42 <= 45
        (2, (0, 0, 0), "points"),  # 0 <= 0
        (2, (0, 2, 2), "points"),  # 6 <= 6
        (2, (2, 2, 0), "rank"),  # 6 > 2
    ],
)
def test_meeting_pairs_route_follows_the_work_counts(monkeypatch, q, dims, route):
    field = field_from_order(q)
    taken = []
    for name, label in (("_meeting_pairs_by_points", "points"), ("_meeting_pairs_by_rank", "rank")):
        real = getattr(linalg, name)

        def spy(spaces, real=real, label=label):
            taken.append(label)
            return real(spaces)

        monkeypatch.setattr(linalg, name, spy)
    spaces = [random_subspace(4, m, field, seed) for seed, m in enumerate(dims)]
    want = {(i, j) for i, j in combinations(range(len(dims)), 2) if meet_dim(spaces[i], spaces[j])}
    assert meeting_pairs(spaces) == want
    assert taken == [route]


def test_meeting_pairs_peer_checks():
    with pytest.raises(AmbientMismatch):
        meeting_pairs([zero_subspace(F2, 3), zero_subspace(F2, 4)])
    with pytest.raises(FieldMismatch):
        meeting_pairs([full_subspace(F2, 2), full_subspace(F3, 2)])


def test_peer_checks():
    with pytest.raises(AmbientMismatch):
        span_sum(zero_subspace(F2, 3), zero_subspace(F2, 4))
    with pytest.raises(ValueError):
        intersect(zero_subspace(F2, 3), zero_subspace(F3, 3))


def test_complement_within():
    rng = random.Random(47)
    for field in (F2, F3):
        for _ in range(40):
            d = rng.randrange(2, 6)
            b = rref(field, d, _random_rows(rng, field, rng.randrange(1, d + 1), d))
            sub_rows = [r for r in b.basis if rng.random() < 0.6]
            a = rref(field, d, sub_rows)
            c = complement_within(a, b)
            assert intersect(a, c).dim == 0
            assert span_sum(a, c) == b
    with pytest.raises(NotNested):
        complement_within(full_subspace(F2, 3), coordinate_subspace(F2, 3, [0]))


def test_quotient_map_properties():
    rng = random.Random(59)
    for _ in range(30):
        d = rng.randrange(2, 6)
        s_rows = _random_rows(rng, F2, d, d)
        s = rref(F2, d, s_rows)
        if s.dim == 0:
            continue
        c_rows = [r for r in s.basis if rng.random() < 0.5]
        c = rref(F2, d, c_rows)
        qm = quotient_map(c)
        assert qm.target_dim == d - c.dim
        # kernel on s is exactly c
        for v in s.vectors():
            img = qm.apply(v)
            assert (img == (0,) * qm.target_dim) == c.contains_vector(v)
        assert qm.map_subspace(s).dim == s.dim - c.dim
        # preimage round trip
        y = qm.map_subspace(s)
        back = qm.preimage(y)
        assert back == s


def _combination(rng, field, rows, width):
    v = [0] * width
    for row in rows:
        v = field.sub_multiple(v, rng.randrange(field.order), row)
    return v


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_quotient_read_off_matches_the_applied_map(q):
    field = field_from_order(q)
    rng = random.Random(67 + q)
    for _ in range(60):
        d = rng.randrange(1, 7)
        x = rref(field, d, _random_rows(rng, field, rng.randrange(d + 1), d))
        c_rows = [_combination(rng, field, x.basis, d) for _ in range(rng.randrange(x.dim + 1))]
        c = rref(field, d, c_rows)
        qm = quotient_map(c)
        y = qm.map_subspace(x)
        assert y == rref(field, d - c.dim, [qm.apply(r) for r in x.basis])
        assert y.dim == x.dim - c.dim
        assert qm.preimage(y) == x


def test_quotient_map_is_linear():
    c = coordinate_subspace(F3, 4, [0])
    qm = quotient_map(c)
    rng = random.Random(61)
    for _ in range(50):
        u = [rng.randrange(3) for _ in range(4)]
        v = [rng.randrange(3) for _ in range(4)]
        uv = [F3.add(a, b) for a, b in zip(u, v)]
        lhs = qm.apply(uv)
        rhs = tuple(F3.add(a, b) for a, b in zip(qm.apply(u), qm.apply(v)))
        assert lhs == rhs


def test_quotient_requires_nesting():
    with pytest.raises(NotNested):
        quotient_map(coordinate_subspace(F2, 3, [1])).map_subspace(coordinate_subspace(F2, 3, [0]))
    # C's pivots are among x's, yet C is not in x
    with pytest.raises(NotNested):
        quotient_map(rref(F3, 3, [(1, 2, 0)])).map_subspace(rref(F3, 3, [(1, 0, 0), (0, 0, 1)]))


def test_quotient_apply_checks_the_vector_length():
    qm = quotient_map(coordinate_subspace(F3, 4, [0]))
    assert qm.apply((1, 2, 0, 1)) == (2, 0, 1)
    for vec in [(1, 2, 0, 1, 2, 1), (1, 2), ()]:
        with pytest.raises(AmbientMismatch):
            qm.apply(vec)


def test_random_subspace_golden_stream():
    # pins the reference sampling stream; a change here breaks replayability
    s = random_subspace(4, 2, F2, seed=42)
    assert s.basis == ((1, 0, 0, 0), (0, 0, 1, 1))
    s3 = random_subspace(3, 2, F3, seed=7)
    assert s3.basis == ((1, 0, 0), (0, 0, 1))


def test_random_subspace_dimensions_and_determinism():
    for seed in range(20):
        a = random_subspace(5, 3, F2, seed=seed)
        b = random_subspace(5, 3, F2, seed=seed)
        assert a == b and a.dim == 3 and a.ambient_dim == 5
    with pytest.raises(BadDims):
        random_subspace(2, 3, F2, seed=0)


def test_embed_subspace():
    s = rref(F2, 2, [(1, 1)])
    e = embed_subspace(s, 4)
    assert e.basis == ((1, 1, 0, 0),) and e.ambient_dim == 4
    with pytest.raises(BadDims):
        embed_subspace(s, 1)
