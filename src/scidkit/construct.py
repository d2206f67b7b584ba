"""Constructions of subspace families with prescribed dim S + dim I.

Four builders, each returning (family, trace):

* :func:`construct_max` glues pairwise-shared coordinate blocks V_ij with
  private blocks U_i and attains the general bound n*k whenever
  (n-1)(k-t) <= k.
* :func:`construct_spectrum1` trims one shared block by eps and compensates
  with fresh directions, landing on n*k - eps for 0 <= eps <= k - t.
* :func:`construct_spectrum2` additionally glues eta of the members through
  one common block, landing on n*k - (eta-2)(k-t) - eps.
* :func:`construct_sunflower` lifts a spanning partial t-spread, the lines
  of F_(q^t)^m rewritten over F_q, to a sunflower summing to
  2k + (n-2)t - eta*t + eps.  The rewrite computes over F_q alone: it needs
  only the modulus of F_(q^t), so F_(q^t) itself is never built.

Every member of the first three builders is a union of named, disjoint
blocks of standard coordinates, so the intersection pattern is exact
bookkeeping; the analysis in :mod:`scidkit.scid` re-derives it
independently.  Traces expose every block by name for re-verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Callable

from .gf import FieldSpec, _check_order, _digits, _smallest_irreducible, _too_large
from .linalg import (
    BadDims,
    Echelon,
    Subspace,
    complement_within,
    coordinate_subspace,
    embed_subspace,
    is_subspace_of,
    meet_dim,
    meeting_pairs,
    rref,
)
from .scid import SubspaceFamily, _pairwise_intersections
from .search import _check_cap, gaussian_binomial


class PreconditionViolated(ValueError):
    """A construction's parameter precondition fails; the message names it."""


class NotASpread(ValueError):
    """Lifting needs pairwise trivially intersecting members spanning the space."""


@dataclass(frozen=True)
class ConstructionTrace:
    """Named building blocks of one construction, for audit and re-checks.

    `kind` is a key of :data:`CONSTRUCTIONS`; `components` maps block labels
    (V_i_j, U_i, E, D, D_i, P_i, X_i, Y, C, sigma_i) to the subspaces actually
    used.
    """

    kind: str
    parameters: dict
    components: dict[str, Subspace]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": dict(self.parameters),
            "components": {label: s.to_dict() for label, s in sorted(self.components.items())},
        }


@dataclass(frozen=True)
class Construction:
    """One construction kind.

    `params` names the parameters beyond (n, k, t) that `build` and
    `closed_form` take as keywords, and :func:`_kind_params` resolves them;
    `settings(n, k, t, q)` lists the keyword sets the spectrum tries, each of
    which `build` accepts.  The lambdas below look the builders up by
    module-level name at call time, so a tool that replaces those attributes
    (``bench/tracing.py``) sees every call.
    """

    params: tuple[str, ...]
    build: Callable[..., tuple[SubspaceFamily, ConstructionTrace]]
    closed_form: Callable[..., int]
    settings: Callable[[int, int, int, int], list[dict]]
    condition: str
    check: Callable[[SubspaceFamily, ConstructionTrace], dict[str, bool]] | None = None


# In spectrum preference order.  spectrum1 at eps = 0 is max and spectrum2 at
# eta = 2 is spectrum1, so their settings leave those out.
CONSTRUCTIONS: dict[str, Construction] = {
    "max": Construction(
        params=(),
        build=lambda n, k, t, field: construct_max(n, k, t, field),
        closed_form=lambda n, k, t: n * k,
        settings=lambda n, k, t, q: [{}] if _glued_fits(n, k, t) else [],
        condition="(n-1)(k-t) <= k",
        check=lambda family, trace: check_max_conditions(family, trace),
    ),
    "spectrum1": Construction(
        params=("eps",),
        build=lambda n, k, t, field, eps: construct_spectrum1(n, k, t, field, eps),
        closed_form=lambda n, k, t, eps: n * k - eps,
        settings=lambda n, k, t, q: (
            [{"eps": eps} for eps in range(1, k - t + 1)] if n >= 3 and _glued_fits(n, k, t) else []
        ),
        condition="(n-1)(k-t) <= k and n >= 3",
    ),
    "spectrum2": Construction(
        params=("eta", "eps"),
        build=lambda n, k, t, field, eta, eps: construct_spectrum2(n, k, t, field, eta, eps),
        closed_form=lambda n, k, t, eta, eps: n * k - (eta - 2) * (k - t) - eps,
        settings=lambda n, k, t, q: (
            [{"eta": eta, "eps": eps} for eta in range(3, n) for eps in range(k - t + 1)]
            if _glued_fits(n, k, t) else []
        ),
        condition="(n-1)(k-t) <= k and 2 <= eta <= n-1",
    ),
    "sunflower": Construction(
        params=("eta", "eps"),
        build=lambda n, k, t, field, eta, eps: construct_sunflower(n, k, t, field, eta, eps),
        closed_form=lambda n, k, t, eta, eps: 2 * k + (n - 2) * t - eta * t + eps,
        # the modulus of F_(q^t) is searched for only up to the field layer's limit
        settings=lambda n, k, t, q: [] if _too_large(q, t) else [
            {"eta": eta, "eps": eps}
            for eta in range(1, n - 1)
            if n <= gaussian_binomial(n - eta, 1, q**t)
            for eps in range(t)
        ],
        condition="n <= (q^(t(n-eta))-1)/(q^t-1)",
    ),
}


def _kind_params(kind: str, given: dict, flag: str = "") -> dict:
    """The keywords the builder of `kind` takes, from `given` (None for absent).

    eps defaults to 0; every other parameter of the kind is required.
    Raises ValueError for an unknown kind, and PreconditionViolated naming
    flag + name for a given parameter the kind does not take or a missing one.
    """
    entry = CONSTRUCTIONS.get(kind)
    if entry is None:
        raise ValueError(f"unknown construction kind {kind!r}")
    for name, value in given.items():
        if value is not None and name not in entry.params:
            raise PreconditionViolated(f"{kind} takes no {flag}{name}")
    for name in entry.params:
        if name != "eps" and given.get(name) is None:
            raise PreconditionViolated(f"{kind} requires {flag}{name}")
    return {name: given.get(name) or 0 for name in entry.params}


def expected_sum(
    kind: str, n: int, k: int, t: int, eps: int | None = None, eta: int | None = None
) -> int:
    """Closed-form dim S + dim I each construction is built to achieve.

    The parameters resolve as for ``scidkit construct`` (:func:`_kind_params`),
    so a bad one raises a ValueError where the CLI exits 2.
    """
    params = _kind_params(kind, {"eta": eta, "eps": eps})
    return CONSTRUCTIONS[kind].closed_form(n, k, t, **params)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise PreconditionViolated(message)


def _check_common(n: int, k: int, t: int) -> None:
    _require(n >= 2, f"n >= 2 fails: n={n}")
    _require(1 <= t <= k, f"1 <= t <= k fails: t={t}, k={k}")


def _glued_fits(n: int, k: int, t: int) -> bool:
    """Each member has room for its n - 1 shared blocks of dimension k - t."""
    return (n - 1) * (k - t) <= k


def _check_glued(n: int, k: int, t: int) -> None:
    _check_common(n, k, t)
    _require(
        _glued_fits(n, k, t),
        f"(n-1)(k-t) <= k fails: ({n}-1)*({k}-{t}) = {(n - 1) * (k - t)} > {k}",
    )


# ---------------------------------------------------------------------------
# named coordinate blocks shared by the glued constructions
# ---------------------------------------------------------------------------


class _Blocks(dict):
    """Named lists of standard coordinates, the blocks of a glued family.

    :meth:`take` puts a new block on the next free coordinates, so the
    blocks it makes are disjoint and ``size`` is the ambient dimension.
    Entries set directly (a prefix of a block, say) allocate nothing.
    """

    size = 0

    def take(self, label: str, size: int) -> None:
        self[label] = list(range(self.size, self.size + size))
        self.size += size


def _union(blocks: dict, *labels: str) -> list:
    """The entries of the labelled blocks in turn: coordinates, or basis rows."""
    return [x for label in labels for x in blocks[label]]


def _pair(i: int, j: int) -> str:
    """The label of the block shared by members i and j."""
    return f"V_{min(i, j)}_{max(i, j)}"


def _max_blocks(n: int, k: int, t: int) -> _Blocks:
    """V_i_j of dimension k - t for every member pair, then U_i for every member."""
    blocks = _Blocks()
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            blocks.take(_pair(i, j), k - t)
    for i in range(1, n + 1):
        blocks.take(f"U_{i}", k - (n - 1) * (k - t))
    return blocks


def _max_member(blocks: dict, n: int, i: int, skip=()) -> list:
    """Member i of :func:`construct_max`: U_i and every V_ij with j != i not in skip."""
    return _union(blocks, f"U_{i}", *(_pair(i, j) for j in range(1, n + 1) if j not in (i, *skip)))


def _coordinate_family(kind: str, params: dict, field: FieldSpec, blocks: _Blocks, members, labels):
    """The family spanned by the members' coordinate lists, traced by the labelled blocks."""

    def span(coords):
        return coordinate_subspace(field, blocks.size, coords)

    family = SubspaceFamily(field, blocks.size, tuple(map(span, members)))
    return family, ConstructionTrace(kind, params, {label: span(blocks[label]) for label in labels})


# ---------------------------------------------------------------------------
# the bound-attaining construction
# ---------------------------------------------------------------------------


def construct_max(n: int, k: int, t: int, field: FieldSpec):
    """A family of n k-spaces meeting pairwise in k - t with sum exactly n*k.

    Requires (n-1)(k-t) <= k so each member has room for its n - 1 shared
    blocks.  Member i is the span of its private block U_i and the shared
    blocks V_ij for every j != i; all blocks sit on disjoint standard
    coordinates, so pi_i meets pi_j in exactly V_ij.
    """
    _check_glued(n, k, t)
    blocks = _max_blocks(n, k, t)
    members = [_max_member(blocks, n, i) for i in range(1, n + 1)]
    params = {"n": n, "k": k, "t": t, "q": field.order}
    return _coordinate_family("max", params, field, blocks, members, list(blocks))


def check_max_conditions(family: SubspaceFamily, trace: ConstructionTrace) -> dict[str, bool]:
    """The three structural conditions equivalent to sum == n*k.

    1. every traced V_ij equals the measured intersection of members i and j,
       tested without building it: V_ij lies in both members and has the
       dimension of their intersection;
    2. every member is generated by its U_i together with its V_ij, with U_i
       of dimension k - (n-1)(k-t);
    3. all U_i and V_ij together span dimension
       n(k - (n-1)(k-t)) + n(n-1)/2 * (k-t).

    A family with constant intersection dimension attains sum n*k iff all
    three hold for some choice of blocks.
    """
    n, members = family.n, family.members
    k, t = trace.parameters["k"], trace.parameters["t"]
    u = k - (n - 1) * (k - t)
    comp = trace.components
    vee = {(i, j): comp[_pair(i, j)] for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    you = {i: comp[f"U_{i}"] for i in range(1, n + 1)}
    rows = {label: s.basis for label, s in comp.items()}

    cond1 = all(
        v.dim == meet_dim(members[i - 1], members[j - 1])
        and is_subspace_of(v, members[i - 1])
        and is_subspace_of(v, members[j - 1])
        for (i, j), v in vee.items()
    )
    cond2 = all(
        you[i].dim == u
        and rref(family.field, family.ambient_dim, _max_member(rows, n, i)) == members[i - 1]
        for i in range(1, n + 1)
    )
    all_rows = [r for s in (*vee.values(), *you.values()) for r in s.basis]
    span_dim = rref(family.field, family.ambient_dim, all_rows).dim
    cond3 = span_dim == n * u + n * (n - 1) // 2 * (k - t)

    return {
        "pairwise_intersections": cond1,
        "members_generated": cond2,
        "span_dimension": cond3,
    }


def derive_max_components(family: SubspaceFamily) -> ConstructionTrace:
    """Measure candidate blocks from an arbitrary analyzed family.

    V_ij is taken to be the actual intersection and U_i a greedy complement
    of the intersections inside member i, so conditions 1 and 2 of
    :func:`check_max_conditions` hold by construction whenever the dimensions
    allow; condition 3 then decides whether the family attains n*k.
    """
    k, pairs = _pairwise_intersections(family)
    meet_dims = {s.dim for s in pairs.values()}
    if len(meet_dims) != 1:
        raise PreconditionViolated("component derivation needs constant intersection dimension")
    n, t = family.n, k - meet_dims.pop()
    comp: dict[str, Subspace] = {_pair(i + 1, j + 1): s for (i, j), s in pairs.items()}
    for i in range(1, n + 1):
        rows = [r for j in range(1, n + 1) if j != i for r in comp[_pair(i, j)].basis]
        inner = rref(family.field, family.ambient_dim, rows)
        comp[f"U_{i}"] = complement_within(inner, family.members[i - 1])
    return ConstructionTrace(
        kind="max",
        parameters={"n": n, "k": k, "t": t, "q": family.field.order},
        components=comp,
    )


# ---------------------------------------------------------------------------
# spectrum constructions: sums below n*k in unit steps
# ---------------------------------------------------------------------------


def construct_spectrum1(n: int, k: int, t: int, field: FieldSpec, eps: int = 0):
    """Sum n*k - eps by shrinking one shared block and re-inflating members.

    eps ranges over [0, k - t]; eps = 0 is exactly :func:`construct_max`.
    For eps > 0 three members get fresh private directions P_1, P_2, P_n of
    dimension eps each, members 1 and n keep a full shared block while member
    2 sees only its eps-dimensional part E, and two other shared blocks drop
    to dimension k - t - eps (D_1, D_2).  Needs n >= 3 when eps > 0: with two
    members there is no third block to re-route through.
    """
    _check_glued(n, k, t)
    _require(0 <= eps <= k - t, f"0 <= eps <= k-t fails: eps={eps}, k-t={k - t}")
    params = {"n": n, "k": k, "t": t, "q": field.order, "eps": eps}
    if eps == 0:
        family, base_trace = construct_max(n, k, t, field)
        return family, ConstructionTrace("spectrum1", params, base_trace.components)
    _require(n >= 3, f"n >= 3 fails for eps > 0: n={n}")

    blocks = _max_blocks(n, k, t)
    for i in (1, 2, n):
        blocks.take(f"P_{i}", eps)
    blocks["E"] = blocks[_pair(1, n)][:eps]
    blocks["D_1"] = blocks[_pair(1, 2)][: k - t - eps]
    blocks["D_2"] = blocks[_pair(2, n)][: k - t - eps]
    members = [
        _max_member(blocks, n, 1, skip=(2,)) + _union(blocks, "D_1", "P_1"),
        _max_member(blocks, n, 2, skip=(1, n)) + _union(blocks, "E", "D_1", "D_2", "P_2"),
        *(_max_member(blocks, n, j) for j in range(3, n)),
        _max_member(blocks, n, n, skip=(2,)) + _union(blocks, "D_2", f"P_{n}"),
    ]
    return _coordinate_family("spectrum1", params, field, blocks, members, list(blocks))


def construct_spectrum2(n: int, k: int, t: int, field: FieldSpec, eta: int, eps: int = 0):
    """Sum n*k - (eta-2)(k-t) - eps by gluing eta members through one block.

    eta in [2, n-1] members (numbers 1..eta-1 and n) share the single block
    D in place of their pairwise blocks, compensated by private blocks P_i of
    dimension (k-t)(eta-2); eta = 2 delegates to :func:`construct_spectrum1`.
    eps in [0, k - t] additionally shrinks the glued intersections onto an
    eps-dimensional part E of D, exactly as in spectrum1: member eta keeps
    only the first k - t - eps coordinates D_i of its block shared with
    glued member i and gains (eta-1)*eps fresh directions Y, while each
    glued member gains eps fresh directions X_i.
    """
    _check_glued(n, k, t)
    _require(2 <= eta <= n - 1, f"2 <= eta <= n-1 fails: eta={eta}, n={n}")
    _require(0 <= eps <= k - t, f"0 <= eps <= k-t fails: eps={eps}, k-t={k - t}")
    params = {"n": n, "k": k, "t": t, "q": field.order, "eta": eta, "eps": eps}
    if eta == 2:
        family, base_trace = construct_spectrum1(n, k, t, field, eps)
        return family, ConstructionTrace("spectrum2", params, base_trace.components)

    glued = (*range(1, eta), n)
    blocks = _max_blocks(n, k, t)
    for i in glued:
        blocks.take(f"P_{i}", (k - t) * (eta - 2))
    blocks["D"] = blocks[_pair(1, n)]
    labels = list(blocks)  # the blocks below are traced only when eps > 0
    for i in glued:
        blocks.take(f"X_{i}", eps)
    blocks.take("Y", (eta - 1) * eps)
    blocks["E"] = blocks["D"][:eps]
    for i in glued:
        blocks[f"D_{i}"] = blocks[_pair(i, eta)][: k - t - eps]

    def glued_member(i):
        return _max_member(blocks, n, i, skip=(*glued, eta)) + _union(
            blocks, "D", f"D_{i}", f"P_{i}", f"X_{i}"
        )

    members = [
        *map(glued_member, glued[:-1]),
        _max_member(blocks, n, eta, skip=glued)
        + _union(blocks, "E", "Y", *(f"D_{i}" for i in glued)),
        *(_max_member(blocks, n, j) for j in range(eta + 1, n)),
        glued_member(n),
    ]
    return _coordinate_family(
        "spectrum2", params, field, blocks, members, list(blocks) if eps else labels
    )


# ---------------------------------------------------------------------------
# spreads, field reduction and sunflowers
# ---------------------------------------------------------------------------


def _spread_modulus(field: FieldSpec, t: int) -> tuple[int, ...]:
    """The modulus of F_(q^t) over F_q: the least monic irreducible of degree t.

    Raises FieldError when q^t exceeds gf.MAX_EXTENSION_ORDER.
    """
    _check_order(field.order, t)
    return _smallest_irreducible(field, t)


def _points(m: int, order: int):
    """The points of F^m for a field F of this order, as code tuples.

    They come in projective_points(full_subspace(F, m))'s order, read off
    codes alone, so F_(q^t) need not be built.
    """
    for i in range(m):
        for coeffs in product(range(order), repeat=m - 1 - i):
            yield (0,) * i + (1,) + coeffs


def _field_reduce(field: FieldSpec, modulus: tuple[int, ...], point) -> Subspace:
    """The t-space of F_q^(m*t) that a point of F_(q^t)^m spans over F_q.

    F_(q^t) is F_q[x] modulo the monic `modulus` of degree t, and an element
    code c is its coefficient vector over F_q: the t little-endian base-q
    digits of c.  Coordinate j of the point expands to coordinates
    [j*t, (j+1)*t).  The F_(q^t)-multiples of the point form the F_q-span of
    x^l * point for l < t, so those t rows, flattened, are a basis.
    Multiplying by x shifts a vector up one place, and a coefficient c at
    x^t becomes -c times the modulus' lower coefficients.  Injective and
    intersection-compatible, since it relabels the same point set.
    """
    t = len(modulus) - 1
    vecs = [_digits(c, field.order, t) for c in point]
    rows = [[a for v in vecs for a in v]]
    for _ in range(t - 1):
        vecs = [
            [field.sub(a, field.mul(v[-1], b)) for a, b in zip([0, *v[:-1]], modulus)]
            for v in vecs
        ]
        rows.append([a for v in vecs for a in v])
    return rref(field, len(point) * t, rows)


def desarguesian_spread(m: int, field: FieldSpec, t: int) -> SubspaceFamily:
    """The classical partial t-spread of F_q^(m*t) from the lines of F_(q^t)^m.

    Its (q^(t*m)-1)/(q^t-1) members are pairwise disjoint t-spaces covering
    every nonzero vector exactly once.  m = 1 yields the single full member.
    """
    if m < 1:
        raise BadDims(f"m must be >= 1, got {m}")
    if t < 1:
        raise BadDims(f"t must be >= 1, got {t}")
    modulus = _spread_modulus(field, t)
    _check_cap(gaussian_binomial(m, 1, field.order**t))
    members = tuple(_field_reduce(field, modulus, p) for p in _points(m, field.order**t))
    return SubspaceFamily(field, m * t, members)


def lift_spread_to_sunflower(spread: SubspaceFamily, center_dim: int) -> SubspaceFamily:
    """Append a common center block to every member of a spanning spread.

    The input members must pairwise intersect trivially, share one dimension
    t, and span their ambient space (else NotASpread).  In ambient m +
    center_dim the images share exactly the center C spanned by the last
    center_dim coordinates: a (t + center_dim, center_dim)-sunflower with
    dim S = m + center_dim and dim I = center_dim.
    """
    if center_dim < 0:
        raise BadDims(f"center dimension must be >= 0, got {center_dim}")
    dims = {s.dim for s in spread.members}
    if len(dims) != 1:
        raise NotASpread(f"member dimensions {sorted(dims)} are not constant")
    if meeting_pairs(spread.members):
        raise NotASpread("members must intersect pairwise trivially")
    ech = Echelon(spread.field, spread.ambient_dim)
    for s in spread.members:
        for r in s.basis:
            ech.insert(r)
    if ech.rank != spread.ambient_dim:
        raise NotASpread(
            f"members span only {ech.rank} of {spread.ambient_dim} ambient dimensions"
        )
    m = spread.ambient_dim
    new_d = m + center_dim
    center_rows = coordinate_subspace(spread.field, new_d, range(m, new_d)).basis
    members = tuple(
        Subspace(
            spread.field,
            new_d,
            tuple(r + (0,) * center_dim for r in s.basis) + center_rows,
        )
        for s in spread.members
    )
    return SubspaceFamily(spread.field, new_d, members)


def construct_sunflower(n: int, k: int, t: int, field: FieldSpec, eta: int, eps: int = 0):
    """A (k, k-t)-sunflower of n members with sum 2k + (n-2)t - eta*t + eps.

    Takes n lines of F_(q^t)^(n-eta): the first eta lines in canonical order
    that are not standard basis lines, then the n - eta standard basis lines
    (so they span).  Expands them to a spanning partial t-spread over F_q,
    optionally trims the first member to dimension t - eps inside
    the old ambient plus eps fresh directions, and lifts with a center of
    dimension k - t.  Feasibility needs n <= (q^(t(n-eta)) - 1)/(q^t - 1)
    lines to exist.
    """
    _check_common(n, k, t)
    _require(1 <= eta <= n - 2, f"1 <= eta <= n-2 fails: eta={eta}, n={n}")
    _require(0 <= eps < t, f"0 <= eps < t fails: eps={eps}, t={t}")
    mprime = n - eta
    q = field.order
    line_count = gaussian_binomial(mprime, 1, q**t)
    _require(
        n <= line_count,
        "cardinality bound n <= (q^(t(n-eta))-1)/(q^t-1) fails: "
        f"{n} > {line_count}",
    )
    params = {"n": n, "k": k, "t": t, "q": q, "eta": eta, "eps": eps}

    modulus = _spread_modulus(field, t)
    # a normalized point is a standard basis vector exactly when it has one nonzero entry
    extras = islice((p for p in _points(mprime, q**t) if p.count(0) < mprime - 1), eta)
    units = [tuple(int(i == j) for j in range(mprime)) for i in range(mprime)]
    sigmas = [_field_reduce(field, modulus, p) for p in (*extras, *units)]
    ambient = mprime * t
    comp: dict[str, Subspace] = {}
    if eps:
        ambient += eps
        sigmas = [embed_subspace(s, ambient) for s in sigmas]
        e_coords = range(mprime * t, ambient)
        e_block = coordinate_subspace(field, ambient, e_coords)
        trimmed = Subspace(field, ambient, sigmas[0].basis[: t - eps])
        sigmas[0] = rref(field, ambient, list(trimmed.basis) + list(e_block.basis))
        comp["E"] = e_block
        comp["U"] = trimmed

    spread = SubspaceFamily(field, ambient, tuple(sigmas))
    family = lift_spread_to_sunflower(spread, k - t)
    for idx, s in enumerate(sigmas, start=1):
        comp[f"sigma_{idx}"] = s
    comp["C"] = coordinate_subspace(
        field, family.ambient_dim, range(ambient, family.ambient_dim)
    )
    return family, ConstructionTrace("sunflower", params, comp)
