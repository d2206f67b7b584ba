"""Constructions of subspace families with prescribed dim S + dim I.

Four builders, each returning (family, trace):

* :func:`construct_max` glues pairwise-shared coordinate blocks V_ij with
  private blocks U_i and attains the general bound n*k whenever
  (n-1)(k-t) <= k.
* :func:`construct_spectrum1` trims one shared block by eps and compensates
  with fresh directions, landing on n*k - eps for 0 <= eps <= k - t.
* :func:`construct_spectrum2` additionally glues eta of the members through
  one common block, landing on n*k - (eta-2)(k-t) - eps.
* :func:`construct_sunflower` lifts a spanning partial t-spread, itself
  obtained by expanding lines over a degree-t extension field, to a
  sunflower summing to 2k + (n-2)t - eta*t + eps.

Everything in the first three builders is a span of standard coordinates, so
the intersection pattern is exact bookkeeping; the analysis in
:mod:`scidkit.scid` re-derives it independently.  Traces expose every block
by name for re-verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .gf import FieldSpec, extension_field
from .linalg import (
    BadDims,
    Echelon,
    Subspace,
    complement_within,
    coordinate_subspace,
    embed_subspace,
    intersect,
    rref,
)
from .scid import SubspaceFamily, analyze
from .search import enumerate_subspaces, iter_subspaces


class PreconditionViolated(ValueError):
    """A construction's parameter precondition fails; the message names it."""


class NoBaseField(ValueError):
    """Field reduction needs a subspace over an extension field."""


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
    `closed_form` take as keywords; `settings(n, k, t, q)` lists the keyword
    sets the spectrum tries, each of which `build` accepts.  The lambdas
    below look the builders up by module-level name at call time, so a tool
    that replaces those attributes (``bench/tracing.py``) sees every call.
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
        settings=lambda n, k, t, q: [
            {"eta": eta, "eps": eps}
            for eta in range(1, n - 1)
            if n <= _sunflower_lines(q, t, n - eta)
            for eps in range(t)
        ],
        condition="n <= (q^(t(n-eta))-1)/(q^t-1)",
    ),
}


def expected_sum(kind: str, n: int, k: int, t: int, eps: int = 0, eta: int | None = None) -> int:
    """Closed-form dim S + dim I each construction is built to achieve."""
    if kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction kind {kind!r}")
    entry = CONSTRUCTIONS[kind]
    given = {"eta": eta, "eps": eps}
    missing = [name for name in entry.params if given[name] is None]
    if missing:
        raise ValueError(f"{kind} needs {', '.join(missing)}")
    return entry.closed_form(n, k, t, **{name: given[name] for name in entry.params})


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


def _sunflower_lines(q: int, t: int, m: int) -> int:
    """(q^(tm) - 1)/(q^t - 1), the number of lines of F_(q^t)^m."""
    return (q ** (t * m) - 1) // (q**t - 1)


# ---------------------------------------------------------------------------
# coordinate-block layout shared by the glued constructions
# ---------------------------------------------------------------------------


def _max_layout(n: int, k: int, t: int):
    """Disjoint coordinate blocks: one per member pair, one per member."""
    u = k - (n - 1) * (k - t)
    cursor = 0
    pair: dict[tuple[int, int], list[int]] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pair[(i, j)] = list(range(cursor, cursor + (k - t)))
            cursor += k - t
    priv: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        priv[i] = list(range(cursor, cursor + u))
        cursor += u
    return pair, priv, cursor


def _max_member_coords(i: int, n: int, pair, priv) -> list[int]:
    coords = list(priv[i])
    for j in range(1, n + 1):
        if j != i:
            coords += pair[(min(i, j), max(i, j))]
    return coords


def _block_components(field: FieldSpec, ambient: int, pair, priv) -> dict[str, Subspace]:
    comp = {}
    for (i, j), coords in pair.items():
        comp[f"V_{i}_{j}"] = coordinate_subspace(field, ambient, coords)
    for i, coords in priv.items():
        comp[f"U_{i}"] = coordinate_subspace(field, ambient, coords)
    return comp


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
    pair, priv, ambient = _max_layout(n, k, t)
    members = tuple(
        coordinate_subspace(field, ambient, _max_member_coords(i, n, pair, priv))
        for i in range(1, n + 1)
    )
    family = SubspaceFamily(field, ambient, members)
    trace = ConstructionTrace(
        kind="max",
        parameters={"n": n, "k": k, "t": t, "q": field.order},
        components=_block_components(field, ambient, pair, priv),
    )
    return family, trace


def check_max_conditions(family: SubspaceFamily, trace: ConstructionTrace) -> dict[str, bool]:
    """The three structural conditions equivalent to sum == n*k.

    1. every traced V_ij equals the measured intersection of members i and j;
    2. every member is generated by its U_i together with its V_ij, with U_i
       of dimension k - (n-1)(k-t);
    3. all U_i and V_ij together span dimension
       n(k - (n-1)(k-t)) + n(n-1)/2 * (k-t).

    A family with constant intersection dimension attains sum n*k iff all
    three hold for some choice of blocks.
    """
    n = family.n
    k = trace.parameters["k"]
    t = trace.parameters["t"]
    u = k - (n - 1) * (k - t)
    vee = {}
    you = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vee[(i, j)] = trace.components[f"V_{i}_{j}"]
        you[i] = trace.components[f"U_{i}"]

    cond1 = all(
        vee[(i, j)] == intersect(family.members[i - 1], family.members[j - 1])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )

    cond2 = True
    for i in range(1, n + 1):
        if you[i].dim != u:
            cond2 = False
            break
        rows = list(you[i].basis)
        for j in range(1, n + 1):
            if j != i:
                rows += list(vee[(min(i, j), max(i, j))].basis)
        if rref(family.field, family.ambient_dim, rows) != family.members[i - 1]:
            cond2 = False
            break

    all_rows = [r for s in vee.values() for r in s.basis]
    all_rows += [r for s in you.values() for r in s.basis]
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
    report = analyze(family)
    if not report.is_scid:
        raise PreconditionViolated("component derivation needs constant intersection dimension")
    n, k, t = report.n, report.k, report.t
    comp: dict[str, Subspace] = {}
    inters: dict[tuple[int, int], Subspace] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            s = intersect(family.members[i - 1], family.members[j - 1])
            inters[(i, j)] = s
            comp[f"V_{i}_{j}"] = s
    for i in range(1, n + 1):
        rows = []
        for j in range(1, n + 1):
            if j != i:
                rows += list(inters[(min(i, j), max(i, j))].basis)
        inner = rref(family.field, family.ambient_dim, rows)
        inner = intersect(inner, family.members[i - 1])
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

    pair, priv, cursor = _max_layout(n, k, t)
    fresh: dict[int, list[int]] = {}
    for label in (1, 2, n):
        fresh[label] = list(range(cursor, cursor + eps))
        cursor += eps
    ambient = cursor

    e_coords = pair[(1, n)][:eps]
    d1_coords = pair[(1, 2)][: k - t - eps]
    d2_coords = pair[(2, n)][: k - t - eps]

    m1 = priv[1] + d1_coords + fresh[1]
    for j in range(3, n + 1):
        m1 += pair[(1, j)]
    m2 = priv[2] + e_coords + d1_coords + d2_coords + fresh[2]
    for j in range(3, n):
        m2 += pair[(2, j)]
    middle = [_max_member_coords(j, n, pair, priv) for j in range(3, n)]
    mn = priv[n] + d2_coords + fresh[n] + pair[(1, n)]
    for j in range(3, n):
        mn += pair[(j, n)]

    coord_sets = [m1, m2, *middle, mn]
    members = tuple(coordinate_subspace(field, ambient, cs) for cs in coord_sets)
    family = SubspaceFamily(field, ambient, members)

    comp = _block_components(field, ambient, pair, priv)
    comp["E"] = coordinate_subspace(field, ambient, e_coords)
    comp["D_1"] = coordinate_subspace(field, ambient, d1_coords)
    comp["D_2"] = coordinate_subspace(field, ambient, d2_coords)
    for label in (1, 2, n):
        comp[f"P_{label}"] = coordinate_subspace(field, ambient, fresh[label])
    return family, ConstructionTrace("spectrum1", params, comp)


def construct_spectrum2(n: int, k: int, t: int, field: FieldSpec, eta: int, eps: int = 0):
    """Sum n*k - (eta-2)(k-t) - eps by gluing eta members through one block.

    eta in [2, n-1] members (numbers 1..eta-1 and n) share the single block
    D in place of their pairwise blocks, compensated by private blocks P_i of
    dimension (k-t)(eta-2); eta = 2 delegates to :func:`construct_spectrum1`.
    eps in [0, k - t] additionally shrinks the glued intersections onto an
    eps-dimensional part E of D, exactly as in spectrum1.
    """
    _check_glued(n, k, t)
    _require(2 <= eta <= n - 1, f"2 <= eta <= n-1 fails: eta={eta}, n={n}")
    _require(0 <= eps <= k - t, f"0 <= eps <= k-t fails: eps={eps}, k-t={k - t}")
    params = {"n": n, "k": k, "t": t, "q": field.order, "eta": eta, "eps": eps}
    if eta == 2:
        family, base_trace = construct_spectrum1(n, k, t, field, eps)
        return family, ConstructionTrace("spectrum2", params, base_trace.components)

    glued = list(range(1, eta)) + [n]
    pair, priv, cursor = _max_layout(n, k, t)
    pdim = (k - t) * (eta - 2)
    fresh_p: dict[int, list[int]] = {}
    for i in glued:
        fresh_p[i] = list(range(cursor, cursor + pdim))
        cursor += pdim
    fresh_x: dict[int, list[int]] = {}
    y_coords: list[int] = []
    if eps:
        for i in glued:
            fresh_x[i] = list(range(cursor, cursor + eps))
            cursor += eps
        y_coords = list(range(cursor, cursor + (eta - 1) * eps))
        cursor += (eta - 1) * eps
    ambient = cursor

    d_coords = pair[(1, n)]
    coord_sets: list[list[int]] = []
    comp = _block_components(field, ambient, pair, priv)
    comp["D"] = coordinate_subspace(field, ambient, d_coords)
    for i in glued:
        comp[f"P_{i}"] = coordinate_subspace(field, ambient, fresh_p[i])

    if eps == 0:
        for i in range(1, eta):
            ci = priv[i] + d_coords + fresh_p[i]
            for j in range(eta, n):
                ci += pair[(i, j)]
            coord_sets.append(ci)
        for j in range(eta, n):
            coord_sets.append(_max_member_coords(j, n, pair, priv))
        cn = priv[n] + d_coords + fresh_p[n]
        for j in range(eta, n):
            cn += pair[(j, n)]
        coord_sets.append(cn)
    else:
        e_coords = d_coords[:eps]
        shrunk: dict[int, list[int]] = {
            i: pair[(i, eta)][: k - t - eps] for i in range(1, eta)
        }
        shrunk[n] = pair[(eta, n)][: k - t - eps]
        for i in range(1, eta):
            ci = priv[i] + d_coords + shrunk[i] + fresh_p[i] + fresh_x[i]
            for j in range(eta + 1, n):
                ci += pair[(i, j)]
            coord_sets.append(ci)
        ceta = priv[eta] + e_coords + y_coords
        for i in range(1, eta):
            ceta += shrunk[i]
        ceta += shrunk[n]
        for j in range(eta + 1, n):
            ceta += pair[(eta, j)]
        coord_sets.append(ceta)
        for j in range(eta + 1, n):
            coord_sets.append(_max_member_coords(j, n, pair, priv))
        cn = priv[n] + d_coords + shrunk[n] + fresh_p[n] + fresh_x[n]
        for j in range(eta + 1, n):
            cn += pair[(j, n)]
        coord_sets.append(cn)

        comp["E"] = coordinate_subspace(field, ambient, e_coords)
        for i in range(1, eta):
            comp[f"D_{i}"] = coordinate_subspace(field, ambient, shrunk[i])
        comp[f"D_{n}"] = coordinate_subspace(field, ambient, shrunk[n])
        for i in glued:
            comp[f"X_{i}"] = coordinate_subspace(field, ambient, fresh_x[i])
        comp["Y"] = coordinate_subspace(field, ambient, y_coords)

    members = tuple(coordinate_subspace(field, ambient, cs) for cs in coord_sets)
    family = SubspaceFamily(field, ambient, members)
    return family, ConstructionTrace("spectrum2", params, comp)


# ---------------------------------------------------------------------------
# spreads, field reduction and sunflowers
# ---------------------------------------------------------------------------


def field_reduce(u: Subspace) -> Subspace:
    """Rewrite a subspace over an extension field as one over its base.

    A d-dimensional subspace of F_(q^t)^m becomes a (d*t)-dimensional
    subspace of F_q^(m*t): coordinate j expands to coordinates [j*t, (j+1)*t)
    through the little-endian coefficient vectors, and each basis row b is
    replaced by the rows x^l * b for l < t.  Injective and intersection-
    compatible, since it is a relabeling of the same point set.
    """
    ext = u.field
    if ext.base is None:
        raise NoBaseField(f"{ext!r} has no designated base field")
    base = ext.base
    tdeg = ext.degree
    m = u.ambient_dim
    rows = []
    for brow in u.basis:
        for l in range(tdeg):
            beta = base.order**l
            scaled = [ext.mul(beta, c) for c in brow]
            flat: list[int] = []
            for c in scaled:
                flat.extend(ext._unpack(c))
            rows.append(flat)
    return rref(base, m * tdeg, rows)


def desarguesian_spread(m: int, field: FieldSpec, t: int) -> SubspaceFamily:
    """The classical partial t-spread of F_q^(m*t) from the lines of F_(q^t)^m.

    Its (q^(t*m)-1)/(q^t-1) members are pairwise disjoint t-spaces covering
    every nonzero vector exactly once.  m = 1 yields the single full member.
    """
    if m < 1:
        raise BadDims(f"m must be >= 1, got {m}")
    if t < 1:
        raise BadDims(f"t must be >= 1, got {t}")
    ext = extension_field(field, t)
    members = tuple(field_reduce(line) for line in enumerate_subspaces(m, 1, ext))
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
    for a, b in combinations(spread.members, 2):
        if intersect(a, b).dim != 0:
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

    Takes n lines of F_(q^t)^(n-eta) whose last n - eta are the standard
    basis lines (so they span), expands them to a spanning partial t-spread
    over F_q, optionally trims the first member to dimension t - eps inside
    the old ambient plus eps fresh directions, and lifts with a center of
    dimension k - t.  Feasibility needs n <= (q^(t(n-eta)) - 1)/(q^t - 1)
    lines to exist.
    """
    _check_common(n, k, t)
    _require(1 <= eta <= n - 2, f"1 <= eta <= n-2 fails: eta={eta}, n={n}")
    _require(0 <= eps < t, f"0 <= eps < t fails: eps={eps}, t={t}")
    mprime = n - eta
    q = field.order
    line_count = _sunflower_lines(q, t, mprime)
    _require(
        n <= line_count,
        "cardinality bound n <= (q^(t(n-eta))-1)/(q^t-1) fails: "
        f"{n} > {line_count}",
    )
    params = {"n": n, "k": k, "t": t, "q": q, "eta": eta, "eps": eps}

    ext = extension_field(field, t)
    standard = {
        coordinate_subspace(ext, mprime, [i]).basis: i for i in range(mprime)
    }
    extras: list[Subspace] = []
    for line in iter_subspaces(mprime, 1, ext):
        if line.basis in standard:
            continue
        extras.append(line)
        if len(extras) == eta:
            break
    lines = extras + [coordinate_subspace(ext, mprime, [i]) for i in range(mprime)]

    sigmas = [field_reduce(line) for line in lines]
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
