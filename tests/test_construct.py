"""Constructions: golden families, dimension sweeps, reductions, lifts."""

import hashlib
import json
from itertools import combinations, product

import pytest

from scidkit.bounds import ScidParams, best_bound
from scidkit.construct import (
    CONSTRUCTIONS,
    NotASpread,
    PreconditionViolated,
    check_max_conditions,
    construct_max,
    construct_spectrum1,
    construct_spectrum2,
    construct_sunflower,
    derive_max_components,
    desarguesian_spread,
    expected_sum,
    lift_spread_to_sunflower,
)
from scidkit.construct import _field_reduce, _points, _spread_modulus
from scidkit.gf import FieldSpec, field_from_order
from scidkit.linalg import (
    BadDims,
    coordinate_subspace,
    full_subspace,
    intersect,
    projective_points,
    quotient_map,
    span_sum,
)
from scidkit.scid import SubspaceFamily, analyze, verify_scid


F2 = field_from_order(2)
F3 = field_from_order(3)


def test_max_golden_3_2_1():
    fam, trace = construct_max(3, 2, 1, F2)
    assert [m.basis for m in fam.members] == [
        ((1, 0, 0), (0, 1, 0)),
        ((1, 0, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1)),
    ]
    rep = analyze(fam)
    assert rep.sum == 6 == expected_sum("max", 3, 2, 1)
    assert trace.kind == "max"
    assert set(trace.components) == {"V_1_2", "V_1_3", "V_2_3", "U_1", "U_2", "U_3"}
    assert all(check_max_conditions(fam, trace).values())


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "n,k,t",
    [(2, 1, 1), (2, 3, 1), (3, 2, 1), (3, 3, 2), (3, 4, 2), (4, 3, 2), (4, 4, 3), (5, 4, 3)],
)
def test_max_attains_bound_sweep(n, k, t, q):
    field = field_from_order(q)
    fam, trace = construct_max(n, k, t, field)
    rep = analyze(fam)
    assert verify_scid(fam, k, t)
    assert rep.sum == n * k
    assert rep.sum == best_bound(ScidParams(n, k, t)).best
    u = k - (n - 1) * (k - t)
    assert fam.ambient_dim == n * (n - 1) // 2 * (k - t) + n * u
    conds = check_max_conditions(fam, trace)
    assert all(conds.values()), conds


def test_max_preconditions():
    with pytest.raises(PreconditionViolated, match=r"\(n-1\)\(k-t\) <= k"):
        construct_max(4, 2, 1, F2)
    with pytest.raises(PreconditionViolated, match="n >= 2"):
        construct_max(1, 2, 1, F2)
    with pytest.raises(PreconditionViolated, match="1 <= t <= k"):
        construct_max(3, 2, 0, F2)
    with pytest.raises(PreconditionViolated, match="1 <= t <= k"):
        construct_max(3, 2, 3, F2)


def test_trace_component_dims():
    fam, trace = construct_max(4, 3, 2, F2)
    for label, comp in trace.components.items():
        want = 3 - (4 - 1) * (3 - 2) if label.startswith("U") else 3 - 2
        assert comp.dim == want, label
        assert comp.ambient_dim == fam.ambient_dim


def test_derived_components_reproduce_max():
    fam, _ = construct_max(4, 3, 2, F3)
    derived = derive_max_components(fam)
    assert all(check_max_conditions(fam, derived).values())


def test_derived_components_expose_submaximal_family():
    fam, _ = construct_spectrum1(3, 2, 1, F2, eps=1)
    derived = derive_max_components(fam)
    conds = check_max_conditions(fam, derived)
    assert conds["pairwise_intersections"]
    assert not conds["members_generated"]
    assert not conds["span_dimension"]


def test_conditions_catch_tampered_trace():
    fam, trace = construct_max(3, 2, 1, F2)
    # members 1 and 2 are <e_0, e_1> and <e_0, e_2>, so V_1_2 = <e_0>; replace it by a
    # line of member 2 only, a line of member 1 only, and a subspace of both too small
    for coords in ([2], [1], []):
        bad = dict(trace.components)
        bad["V_1_2"] = coordinate_subspace(F2, fam.ambient_dim, coords)
        tampered = type(trace)(trace.kind, trace.parameters, bad)
        assert not check_max_conditions(fam, tampered)["pairwise_intersections"], coords


@pytest.mark.parametrize("n,k,t", [(3, 2, 1), (3, 3, 2), (4, 4, 3)])
def test_spectrum1_full_sweep(n, k, t):
    for eps in range(k - t + 1):
        fam, trace = construct_spectrum1(n, k, t, F2, eps)
        rep = analyze(fam)
        assert verify_scid(fam, k, t), (n, k, t, eps)
        assert rep.sum == n * k - eps == expected_sum("spectrum1", n, k, t, eps)
        assert trace.kind == "spectrum1" and trace.parameters["eps"] == eps


def test_spectrum1_eps0_is_max():
    fam_a, _ = construct_spectrum1(3, 3, 2, F2, 0)
    fam_b, _ = construct_max(3, 3, 2, F2)
    assert fam_a == fam_b


def test_spectrum1_trim_produces_sunflower_at_k_t_1():
    fam, trace = construct_spectrum1(3, 2, 1, F2, eps=1)
    rep = analyze(fam)
    assert rep.sum == 5
    assert rep.sunflower_center is not None and rep.sunflower_center.dim == 1
    assert {"E", "D_1", "D_2", "P_1", "P_2", "P_3"} <= set(trace.components)
    assert trace.components["E"].dim == 1
    assert trace.components["D_1"].dim == 0


def test_spectrum1_preconditions():
    with pytest.raises(PreconditionViolated, match="eps"):
        construct_spectrum1(3, 2, 1, F2, eps=2)
    with pytest.raises(PreconditionViolated, match="eps"):
        construct_spectrum1(3, 2, 1, F2, eps=-1)
    with pytest.raises(PreconditionViolated, match="n >= 3"):
        construct_spectrum1(2, 2, 1, F2, eps=1)
    with pytest.raises(PreconditionViolated, match=r"\(n-1\)\(k-t\) <= k"):
        construct_spectrum1(4, 2, 1, F2, eps=1)


@pytest.mark.parametrize("n,k,t", [(4, 3, 2), (5, 4, 3), (4, 6, 4)])
def test_spectrum2_full_sweep(n, k, t):
    for eta in range(2, n):
        for eps in range(k - t + 1):
            fam, trace = construct_spectrum2(n, k, t, F2, eta, eps)
            rep = analyze(fam)
            assert verify_scid(fam, k, t), (n, k, t, eta, eps)
            want = expected_sum("spectrum2", n, k, t, eps, eta)
            assert rep.sum == want == n * k - (eta - 2) * (k - t) - eps
            assert trace.kind == "spectrum2"


def test_spectrum2_eta2_delegates_to_spectrum1():
    fam_a, trace_a = construct_spectrum2(4, 3, 2, F2, 2, 1)
    fam_b, _ = construct_spectrum1(4, 3, 2, F2, 1)
    assert fam_a == fam_b
    assert trace_a.kind == "spectrum2" and trace_a.parameters["eta"] == 2


def test_spectrum2_bottom_value_is_max_sunflower_value():
    # eta = n-1 with eps = k-t lands exactly on 2k + (n-2)t
    n, k, t = 4, 3, 2
    fam, _ = construct_spectrum2(n, k, t, F2, n - 1, k - t)
    rep = analyze(fam)
    assert rep.sum == 2 * k + (n - 2) * t
    assert rep.sunflower_center is not None


def test_spectrum2_glued_block_is_shared():
    fam, trace = construct_spectrum2(5, 4, 3, F2, 3, 0)
    d = trace.components["D"]
    # members 1, 2 and n pairwise meet exactly in D
    glued = [fam.members[0], fam.members[1], fam.members[4]]
    for a, b in combinations(glued, 2):
        assert intersect(a, b) == d


def test_spectrum2_preconditions():
    with pytest.raises(PreconditionViolated, match="eta"):
        construct_spectrum2(4, 3, 2, F2, 1)
    with pytest.raises(PreconditionViolated, match="eta"):
        construct_spectrum2(4, 3, 2, F2, 4)
    with pytest.raises(PreconditionViolated, match="eps"):
        construct_spectrum2(4, 3, 2, F2, 3, 2)
    with pytest.raises(PreconditionViolated, match=r"\(n-1\)\(k-t\) <= k"):
        construct_spectrum2(4, 3, 1, F2, 3)


def test_field_reduce_golden():
    # F_4 = F_2[x]/(x^2 + x + 1), its element x coded 2
    modulus = _spread_modulus(F2, 2)
    assert modulus == (1, 1, 1)
    red = _field_reduce(F2, modulus, (1, 0))
    assert red.field == F2 and red.ambient_dim == 4
    assert red.basis == ((1, 0, 0, 0), (0, 1, 0, 0))
    # the diagonal line <(1,1)> picks up the multiplication structure:
    # x*(1,1) = (x,x) contributes the row pattern of x in both blocks
    diag = _field_reduce(F2, modulus, (1, 1))
    assert diag.basis == ((1, 0, 1, 0), (0, 1, 0, 1))
    # x*(1, x) = (x, x + 1): the x-step reduces x^2 modulo the modulus
    assert _field_reduce(F2, modulus, (1, 2)).basis == ((1, 0, 0, 1), (0, 1, 1, 1))
    # over F_8 = F_2[x]/(x^3 + x + 1) the rows x*p and x^2*p both reduce
    f8_line = _field_reduce(F2, _spread_modulus(F2, 3), (1, 6))
    assert f8_line.basis == ((1, 0, 0, 0, 1, 1), (0, 1, 0, 1, 1, 1), (0, 0, 1, 1, 0, 1))


@pytest.mark.parametrize(
    "m,tdeg,q", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (2, 2, 4), (3, 1, 4), (2, 2, 9)]
)
def test_field_reduce_exhaustive_lines(m, tdeg, q):
    base = field_from_order(q)
    points = list(_points(m, q**tdeg))
    # the spread and sunflower builders list lines in projective_points' order,
    # which depends on the order alone; digests pin it
    assert points == list(projective_points(full_subspace(field_from_order(q**tdeg), m)))
    reduced = [_field_reduce(base, _spread_modulus(base, tdeg), p) for p in points]
    assert len({r.basis for r in reduced}) == len(points)  # injective
    for r in reduced:
        assert r.dim == tdeg and r.ambient_dim == m * tdeg
    # trivially intersecting lines stay trivially intersecting
    for ra, rb in combinations(reduced, 2):
        assert intersect(ra, rb).dim == 0
        assert span_sum(ra, rb).dim == 2 * tdeg


def test_spreads_build_no_table_above_their_field(monkeypatch):
    orders = []
    build = FieldSpec._build_tables
    monkeypatch.setattr(FieldSpec, "_build_tables", lambda f: orders.append(f.order) or build(f))
    fam, _ = construct_sunflower(3, 3, 3, field_from_order(9), eta=1)
    assert analyze(fam).sum == expected_sum("sunflower", 3, 3, 3, 0, 1)
    assert desarguesian_spread(2, field_from_order(8), 2).n == 65
    assert all(q <= 9 for q in orders), orders


@pytest.mark.parametrize("m,q,tdeg", [(2, 2, 2), (2, 3, 2), (1, 2, 3)])
def test_desarguesian_spread_partitions(m, q, tdeg):
    base = field_from_order(q)
    spread = desarguesian_spread(m, base, tdeg)
    want_n = (q ** (tdeg * m) - 1) // (q**tdeg - 1)
    assert spread.n == want_n and spread.ambient_dim == m * tdeg
    seen = set()
    for member in spread.members:
        assert member.dim == tdeg
        for v in member.vectors():
            if any(v):
                assert v not in seen
                seen.add(v)
    assert len(seen) == q ** (tdeg * m) - 1


def test_lift_spread_roundtrip():
    spread = desarguesian_spread(2, F2, 2)
    lifted = lift_spread_to_sunflower(spread, 1)
    rep = analyze(lifted)
    assert verify_scid(lifted, 3, 2)
    assert rep.sunflower_center is not None and rep.sunflower_center.dim == 1
    assert rep.sum == (4 + 1) + 1
    # quotient by the center recovers a pairwise disjoint family
    center = rep.sunflower_center
    qm = quotient_map(center)
    images = [qm.map_subspace(m) for m in lifted.members]
    for img in images:
        assert img.dim == 2
    for a, b in combinations(images, 2):
        assert intersect(a, b).dim == 0


def test_lift_zero_center_is_identity_embedding():
    spread = desarguesian_spread(2, F2, 2)
    same = lift_spread_to_sunflower(spread, 0)
    assert same.ambient_dim == spread.ambient_dim
    assert same == spread


def test_lift_rejects_non_spreads():
    not_spanning = SubspaceFamily.from_members(
        [coordinate_subspace(F2, 3, [0]), coordinate_subspace(F2, 3, [1])]
    )
    with pytest.raises(NotASpread, match="span"):
        lift_spread_to_sunflower(not_spanning, 1)
    overlapping = SubspaceFamily.from_members(
        [coordinate_subspace(F2, 3, [0, 1]), coordinate_subspace(F2, 3, [1, 2])]
    )
    with pytest.raises(NotASpread, match="trivially"):
        lift_spread_to_sunflower(overlapping, 1)
    mixed = SubspaceFamily.from_members(
        [coordinate_subspace(F2, 3, [0, 1]), coordinate_subspace(F2, 3, [2])]
    )
    with pytest.raises(NotASpread, match="dimension"):
        lift_spread_to_sunflower(mixed, 1)
    with pytest.raises(BadDims):
        lift_spread_to_sunflower(desarguesian_spread(2, F2, 2), -1)


def test_sunflower_golden_3_2_1():
    fam, trace = construct_sunflower(3, 2, 1, F2, eta=1)
    assert [m.basis for m in fam.members] == [
        ((1, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 0, 1)),
        ((0, 1, 0), (0, 0, 1)),
    ]
    rep = analyze(fam)
    assert rep.sum == 4 == expected_sum("sunflower", 3, 2, 1, 0, 1)
    assert rep.sunflower_center is not None and rep.sunflower_center.dim == 1
    assert trace.components["C"].dim == 1


@pytest.mark.parametrize(
    "n,k,t,q,eta",
    [(3, 2, 1, 2, 1), (5, 3, 2, 2, 3), (4, 2, 1, 2, 1), (4, 2, 1, 3, 2), (5, 4, 2, 2, 2)],
)
def test_sunflower_sweep(n, k, t, q, eta):
    field = field_from_order(q)
    for eps in range(t):
        fam, trace = construct_sunflower(n, k, t, field, eta, eps)
        rep = analyze(fam)
        assert verify_scid(fam, k, t), (n, k, t, q, eta, eps)
        assert rep.sum == expected_sum("sunflower", n, k, t, eps, eta)
        assert rep.sunflower_center is not None
        assert rep.sunflower_center.dim == k - t


def test_sunflower_cardinality_gate():
    # eta = 2 leaves only (2^2 - 1) = 3 lines for 4 members over F_2
    with pytest.raises(PreconditionViolated, match="cardinality"):
        construct_sunflower(4, 2, 1, F2, eta=2)
    # over F_3 there are 4 lines, exactly enough
    fam, _ = construct_sunflower(4, 2, 1, F3, eta=2)
    assert analyze(fam).sum == expected_sum("sunflower", 4, 2, 1, 0, 2)


def test_sunflower_preconditions():
    with pytest.raises(PreconditionViolated, match="eta"):
        construct_sunflower(3, 2, 1, F2, eta=0)
    with pytest.raises(PreconditionViolated, match="eta"):
        construct_sunflower(3, 2, 1, F2, eta=2)
    with pytest.raises(PreconditionViolated, match="eps"):
        construct_sunflower(5, 3, 2, F2, eta=3, eps=2)


def test_expected_sum_rejects_unknown_kind():
    with pytest.raises(ValueError):
        expected_sum("mystery", 3, 2, 1)
    with pytest.raises(ValueError, match="eta"):
        expected_sum("spectrum2", 4, 3, 2, eps=1)


def test_expected_sum_rejects_parameters_the_kind_does_not_take():
    with pytest.raises(ValueError, match="max takes no eps"):
        expected_sum("max", 3, 2, 1, eps=1)
    with pytest.raises(ValueError, match="max takes no eps"):
        expected_sum("max", 3, 2, 1, eps=0)
    with pytest.raises(ValueError, match="spectrum1 takes no eta"):
        expected_sum("spectrum1", 3, 3, 2, eps=1, eta=5)
    # eps defaults to 0 for the kinds that take it
    assert expected_sum("spectrum1", 3, 3, 2) == expected_sum("spectrum1", 3, 3, 2, eps=0) == 9
    assert expected_sum("max", 3, 2, 1) == 6


def _builder_accepts(entry, n, k, t, field, params) -> bool:
    try:
        entry.build(n, k, t, field, **params)
    except PreconditionViolated:
        return False
    return True


def test_spectrum_settings_are_exactly_what_each_builder_accepts():
    # spectrum1 at eps = 0 builds max and spectrum2 at eta = 2 builds
    # spectrum1; the spectrum leaves those settings to the other kind.
    def delegates(kind, params):
        return (kind, params.get("eps")) == ("spectrum1", 0) or (
            kind, params.get("eta")) == ("spectrum2", 2)

    for q, n, k in product((2, 3), range(2, 6), range(1, 5)):
        field = field_from_order(q)
        for t in range(1, k + 1):
            ranges = {"eta": range(-1, n + 1), "eps": range(-1, k + 2)}
            for kind, entry in CONSTRUCTIONS.items():
                grid = [dict(zip(entry.params, values))
                        for values in product(*(ranges[p] for p in entry.params))]
                accepted = {
                    tuple(sorted(params.items())) for params in grid
                    if not delegates(kind, params)
                    and _builder_accepts(entry, n, k, t, field, params)
                }
                tried = {tuple(sorted(params.items())) for params in entry.settings(n, k, t, q)}
                assert tried == accepted, (kind, n, k, t, q)


def test_trace_serialization():
    _, trace = construct_max(3, 2, 1, F2)
    d = trace.to_dict()
    assert d["kind"] == "max"
    assert d["parameters"] == {"n": 3, "k": 2, "t": 1, "q": 2}
    assert list(d["components"]) == sorted(d["components"])


# sha256 of the glued families and traces below, recorded before their
# builders were rewritten as unions of named coordinate blocks
GLUED_DIGEST = "99b3db600704b1ac1456e94c8c7c9168e7ce3c1a68a05c193b80bfc31410281e"


def test_glued_constructions_keep_their_bytes():
    digest = hashlib.sha256()
    builds = 0
    for kind, q, n, k in product(("max", "spectrum1", "spectrum2"), (2, 3), range(2, 8), range(1, 8)):
        entry, field = CONSTRUCTIONS[kind], field_from_order(q)
        for t in range(1, k + 1):
            for params in entry.settings(n, k, t, q):
                family, trace = entry.build(n, k, t, field, **params)
                digest.update(json.dumps([family.to_dict(), trace.to_dict()], sort_keys=True).encode())
                builds += 1
    assert (builds, digest.hexdigest()) == (530, GLUED_DIGEST)


# sha256 of the sunflowers and spreads below, recorded while F_(q^t) was
# still built as a field to rewrite their lines over F_q
SPREAD_DIGEST = "cc3b4b18e10fb8301da89470ace7db48cfdebdec9d630eb8586b5e1fd3213625"


def test_sunflowers_and_spreads_keep_their_bytes():
    digest = hashlib.sha256()
    builds = 0
    entry = CONSTRUCTIONS["sunflower"]
    for q, n, k in product((2, 3, 4, 5, 7, 8, 9), range(3, 6), range(1, 4)):
        field = field_from_order(q)
        for t in range(1, k + 1):
            for params in entry.settings(n, k, t, q):
                family, trace = entry.build(n, k, t, field, **params)
                digest.update(json.dumps([family.to_dict(), trace.to_dict()], sort_keys=True).encode())
                builds += 1
    for q, (m, t) in product((2, 3, 4, 5, 7, 8, 9), ((1, 2), (2, 2), (3, 1), (2, 3))):
        if q ** (m * t) <= 4096:
            spread = desarguesian_spread(m, field_from_order(q), t)
            digest.update(json.dumps(spread.to_dict(), sort_keys=True).encode())
            builds += 1
    assert (builds, digest.hexdigest()) == (434, SPREAD_DIGEST)
