"""Reference answers for the benchmark's output checks, written apart from scidkit.

Nothing here imports the package under test.  Field arithmetic, row
reduction and subspace intersection are re-implemented from the definitions
(small fields only: prime fields and one extension level, which covers every
field the workloads use), and the expected sums are the closed forms the
constructions are built to reach.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations


def canonical(obj) -> str:
    """The certificate encoding: sorted keys, minimal separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class Field:
    """GF(p) or GF(p^e) = GF(p)[x]/(m), from a serialized field dict.

    Element codes follow the certificate format: c_0 + c_1*p + ... for the
    coefficient vector over GF(p).  Tables are built by brute force, which is
    fine for the orders used here (at most 81).
    """

    def __init__(self, data: dict):
        p = int(data["p"])
        tower = data["tower"]
        if len(tower) > 1:
            raise ValueError("reference fields support one extension level")
        mod = [int(c) for c in tower[0]] if tower else [0, 1]
        e = len(mod) - 1
        q = p**e
        self.order = q

        def digits(a):
            return [(a // p**i) % p for i in range(e)]

        def pack(v):
            return sum(c * p**i for i, c in enumerate(v))

        def polymul(a, b):
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for deg in range(2 * e - 2, e - 1, -1):
                c = prod[deg]
                for j in range(e + 1):
                    prod[deg - e + j] = (prod[deg - e + j] - c * mod[j]) % p
            return pack(prod[:e])

        self.add = [[pack([(x + y) % p for x, y in zip(digits(a), digits(b))])
                     for b in range(q)] for a in range(q)]
        self.neg = [pack([(-x) % p for x in digits(a)]) for a in range(q)]
        self.mul = [[polymul(a, b) for b in range(q)] for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def reduce(self, rows, width: int) -> list[list[int]]:
        """Reduced row echelon form; zero rows dropped."""
        add, neg, mul, inv = self.add, self.neg, self.mul, self.inv
        mat = [list(r) for r in rows]
        for r in mat:
            if len(r) != width:
                raise ValueError("ragged matrix")
        top = 0
        for col in range(width):
            pivot = next((r for r in range(top, len(mat)) if mat[r][col]), None)
            if pivot is None:
                continue
            mat[top], mat[pivot] = mat[pivot], mat[top]
            scale = inv[mat[top][col]]
            mat[top] = [mul[scale][x] for x in mat[top]]
            for r in range(len(mat)):
                f = mat[r][col]
                if r != top and f:
                    mat[r] = [add[x][neg[mul[f][y]]] for x, y in zip(mat[r], mat[top])]
            top += 1
        return mat[:top]

    def meet(self, a, b, width: int) -> list[list[int]]:
        """A basis of rowspace(a) ∩ rowspace(b) (Zassenhaus)."""
        zeros = [0] * width
        rows = [list(r) + list(r) for r in a] + [list(r) + zeros for r in b]
        return [r[width:] for r in self.reduce(rows, 2 * width) if not any(r[:width])]


def family_sum(family: dict, k: int, t: int) -> int:
    """dim S + dim I of a serialized family, after checking it is a (k, k-t)-SCID.

    Raises ValueError naming the first property that fails.
    """
    field = Field(family["field"])
    d = int(family["ambient"])
    members = [m["basis"] for m in family["members"]]
    if len(members) < 2:
        raise ValueError("fewer than two members")
    for m in members:
        if len(field.reduce(m, d)) != k:
            raise ValueError(f"member of dimension != {k}")
    meets = []
    for a, b in combinations(members, 2):
        s = field.meet(a, b, d)
        if len(s) != k - t:
            raise ValueError(f"a pair meets in dimension {len(s)}, not {k - t}")
        meets.extend(s)
    if len({canonical(field.reduce(m, d)) for m in members}) != len(members):
        raise ValueError("repeated member")
    big_s = len(field.reduce([r for m in members for r in m], d))
    big_i = len(field.reduce(meets, d)) if meets else 0
    return big_s + big_i


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def construction_sum(kind: str, n: int, k: int, t: int, eps: int = 0, eta: int | None = None) -> int:
    """dim S + dim I that each construction of the paper is built to reach."""
    if kind == "max":
        return n * k
    if kind == "spectrum1":
        return n * k - eps
    if kind == "spectrum2":
        return n * k - (eta - 2) * (k - t) - eps
    if kind == "sunflower":
        return 2 * k + (n - 2) * t - eta * t + eps
    raise ValueError(kind)


def bound_table(n: int, k: int, t: int) -> dict:
    """The four proven bounds, the governing regime, and its sharpness."""
    table = {
        "general": n * k,
        "pair3": 2 * (k + t) if n == 3 else None,
        "linear": (n - 1) * k + 2 * t if n >= 3 else None,
        "refined": 2 * k + 2 * (n - 2) * t - (n - 3) if n >= 3 and k >= 2 * t else None,
    }
    if (k - t) * (n - 1) <= k:
        table.update(best=n * k, sharp="yes", regime="(k-t)(n-1) <= k")
    elif k >= 2 * t and n >= 3:
        table.update(best=table["refined"], sharp="unknown", regime="k >= 2t and n >= 3")
    else:
        table.update(best=n * k, sharp="no", regime="k < 2t and (k-t)(n-1) > k")
    return table


def max_sum_meeting_lines(n: int, d: int) -> int:
    """Exact maximum of dim S + dim I for n >= 3 lines of F_q^d meeting pairwise.

    Three lines that meet pairwise but not in one point lie in one plane, and
    any further line meeting all three meets that plane twice, so lies in it.
    So the lines either all pass through one point P (I = P and S is at most
    P plus n directions: sum <= min(n + 1, d) + 1, reached by lines through P
    in independent directions) or all lie in one projective plane (S has
    dimension 3 and I at most 3: sum <= 6, reached by lines no three
    concurrent, whose meeting points span the plane).  The answer is the
    larger of the two, whatever q is.
    """
    if n < 3 or d < 3:
        raise ValueError("needs n >= 3 and d >= 3")
    return max(min(n + 1, d) + 1, 6)
