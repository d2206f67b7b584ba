"""Exact arithmetic in small finite fields, including extension towers.

A field is described by a :class:`FieldSpec`: either a prime field F_p or a
degree-e extension of a smaller FieldSpec, reduced modulo a monic irreducible
polynomial with coefficients in that base field.  Elements are integer codes
in [0, q): the little-endian positional encoding of the coefficient vector
over the base, code = c_0 + c_1*b + ... + c_{e-1}*b^(e-1) where b is the base
order.  Code 0 is the additive identity and code 1 the multiplicative one.

Extension arithmetic is table driven: one addition, one negation, one q x q
multiplication and one inverse table, built together on first use from
exact polynomial arithmetic, which keeps row reduction over F_4/F_8/F_9 as
cheap as the modular prime-field path.  Specs are immutable values;
equality and hashing are structural over (characteristic, degree, modulus,
base).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence


class FieldError(ValueError):
    """Base class for field construction and arithmetic errors."""


class NotPrime(FieldError):
    """Requested characteristic is not a prime number."""


class ReducibleModulus(FieldError):
    """Supplied modulus polynomial factors over the base field."""


class DegreeMismatch(FieldError):
    """Supplied modulus does not have the requested degree, or is not monic."""


class FieldMismatch(FieldError):
    """Operands belong to different fields."""


class NotASubfieldInTower(FieldError):
    """Requested base field does not occur below this field in its tower."""


class ZeroInverse(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


# The first 13 primes.  Miller-Rabin with all of them as bases is exact below
# 3,317,044,064,679,887,385,961,981, the least composite that passes every one
# (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017; preprint 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


MAX_EXTENSION_ORDER = 2**10
"""The largest order :func:`field_new` builds an extension field of.

Extension arithmetic uses q x q addition and multiplication tables, built
on first use: at q = 1024 the two hold 2,097,152 entries.  The irreducibility
test of a given modulus tries every monic factor of up to half its degree,
so without the limit a degree-2 tower over a prime near 10^18 would try
10^18 linear factors.  Prime fields do modular arithmetic, need no tables
and take no limit.
"""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldError for n >= _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise FieldError(f"{n} is too large to test for primality (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over an arbitrary base field
#
# Polynomials are little-endian lists of element codes.  Only what the
# irreducibility test and the table build need: remainders, each step one
# row operation of the base field.
# ---------------------------------------------------------------------------


def _poly_mod(base: "FieldSpec", num: list[int], den: Sequence[int]) -> list[int]:
    """Remainder of num modulo den; den must be monic of degree >= 1."""
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            # den is monic, so this also zeroes rem[i]
            rem[i - dd : i + 1] = base.sub_multiple(rem[i - dd : i + 1], c, den)
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return rem


def _poly_is_irreducible(base: "FieldSpec", poly: Sequence[int]) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    b = base.order
    for d in range(1, deg // 2 + 1):
        for code in range(b**d):
            den = _digits(code, b, d) + [1]
            rem = _poly_mod(base, list(poly), den)
            if rem == [0]:
                return False
    return True


def _digits(code: int, radix: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(code % radix)
        code //= radix
    return out


@lru_cache(maxsize=None)
def _smallest_irreducible(base: "FieldSpec", degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree.

    Candidates are scanned in increasing order of the positional integer code
    of their non-leading coefficients, so the choice is deterministic for a
    fixed base field.
    """
    b = base.order
    for code in range(b**degree):
        cand = _digits(code, b, degree) + [1]
        if _poly_is_irreducible(base, cand):
            return tuple(cand)
    raise FieldError(f"no irreducible polynomial of degree {degree} found")  # pragma: no cover


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------


class FieldSpec:
    """A finite field F_q with q = b^e over its base field of order b.

    `base is None` marks the prime field F_p (degree 1, modulus x).  Use
    :func:`field_new` rather than calling this constructor directly; the
    constructor trusts its arguments.
    """

    __slots__ = (
        "characteristic",
        "degree",
        "modulus",
        "base",
        "order",
        "_hash",
        "_add_t",
        "_neg_t",
        "_mul_t",
        "_inv_t",
    )

    def __init__(
        self,
        characteristic: int,
        degree: int,
        modulus: tuple[int, ...],
        base: "FieldSpec | None" = None,
    ):
        self.characteristic = characteristic
        self.degree = degree
        self.modulus = tuple(modulus)
        self.base = base
        self.order = (base.order if base is not None else characteristic) ** degree
        self._hash = hash((characteristic, degree, self.modulus, base))
        self._add_t = None
        self._neg_t = None
        self._mul_t = None
        self._inv_t = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (
            self.characteristic == other.characteristic
            and self.degree == other.degree
            and self.modulus == other.modulus
            and self.base == other.base
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.base is None:
            return f"GF({self.order})"
        return f"GF({self.order}|{self.base!r})"

    def __getstate__(self):
        return (self.characteristic, self.degree, self.modulus, self.base)

    def __setstate__(self, state):
        self.__init__(*state)

    # -- element coding ----------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def _unpack(self, code: int) -> list[int]:
        """Coefficient vector over the immediate base, little-endian."""
        b = self.base.order if self.base is not None else self.characteristic
        return _digits(code, b, self.degree)

    def _pack(self, coeffs: Sequence[int]) -> int:
        b = self.base.order if self.base is not None else self.characteristic
        code = 0
        for c in reversed(coeffs):
            code = code * b + c
        return code

    def decompose(self, code: int, base: "FieldSpec") -> tuple[int, ...]:
        """Coordinates of an element over `base`, flattened through the tower.

        The result has length [F:base] and is linear in the element: addition
        and base-scalar multiplication act coordinate-wise.  Raises
        NotASubfieldInTower when `base` is not on this field's tower path.
        """
        if self == base:
            return (code,)
        if self.base is None:
            raise NotASubfieldInTower(f"{base!r} is not a subfield of {self!r} in this tower")
        out: list[int] = []
        for digit in self._unpack(code):
            out.extend(self.base.decompose(digit, base))
        return tuple(out)

    def tower_degree_over(self, base: "FieldSpec") -> int:
        """[F:base] through the tower; errors when base is not below F."""
        if self == base:
            return 1
        if self.base is None:
            raise NotASubfieldInTower(f"{base!r} is not a subfield of {self!r} in this tower")
        return self.degree * self.base.tower_degree_over(base)

    # -- arithmetic on codes -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return (a + b) % self.characteristic
        if self._add_t is None:
            self._build_tables()
        return self._add_t[a][b]

    def neg(self, a: int) -> int:
        if self.base is None:
            return (-a) % self.characteristic
        if self._neg_t is None:
            self._build_tables()
        return self._neg_t[a]

    def sub(self, a: int, b: int) -> int:
        if self.base is None:
            return (a - b) % self.characteristic
        if self._add_t is None:
            self._build_tables()
        return self._add_t[a][self._neg_t[b]]

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return (a * b) % self.characteristic
        if self._mul_t is None:
            self._build_tables()
        return self._mul_t[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self.base is None:
            return pow(a, self.characteristic - 2, self.characteristic)
        if self._inv_t is None:
            self._build_tables()
        return self._inv_t[a]

    def sub_multiple(self, v: Sequence[int], c: int, row: Sequence[int]) -> list[int]:
        """v - c*row entrywise: one elimination step in one call."""
        if self.base is None:
            p = self.characteristic
            return [(a - c * b) % p for a, b in zip(v, row)]
        if self._mul_t is None:
            self._build_tables()
        neg_c = self._mul_t[self._neg_t[c]]  # -c*b = (-c)*b
        add = self._add_t
        return [add[a][neg_c[b]] for a, b in zip(v, row)]

    def scale(self, c: int, row: Sequence[int]) -> list[int]:
        """c*row entrywise."""
        if self.base is None:
            p = self.characteristic
            return [c * b % p for b in row]
        if self._mul_t is None:
            self._build_tables()
        times_c = self._mul_t[c]
        return [times_c[b] for b in row]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = 1
        acc = a
        while n:
            if n & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            n >>= 1
        return result

    # -- table construction --------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Polynomial product of two codes reduced mod the modulus."""
        base = self.base
        e = self.degree
        vb = self._unpack(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self._unpack(a)):
            if x:
                prod[i : i + e] = base.sub_multiple(prod[i : i + e], base.neg(x), vb)
        return self._pack(_poly_mod(base, prod, self.modulus))

    def _build_tables(self) -> None:
        """Fill the addition, negation, multiplication and inverse tables.

        The units of F_q form a cyclic group of order q - 1, so the powers
        1, g, g^2, ... of a unit g first return to 1 after ord(g) steps, and
        g generates the group exactly when that walk has q - 1 elements.
        Such a g exists, so trying g = 1, 2, ... in turn ends; g = 1 is the
        generator of F_2 (q - 1 = 1), which degree-1 extensions of F_2 are.
        The walk of the generator is exp, a bijection from [0, q - 1) onto
        the units, and log is its inverse, so for units a and b
        a*b = exp[log a + log b] (indices mod q - 1) and 1/a = exp[-log a].
        Row 0 and column 0 of the product table are 0.
        """
        q = self.order
        base = self.base
        vecs = [self._unpack(a) for a in range(q)]
        badd, bneg = base.add, base.neg
        self._neg_t = [self._pack([bneg(x) for x in vecs[a]]) for a in range(q)]
        self._add_t = [
            [self._pack([badd(x, y) for x, y in zip(vecs[a], vecs[b])]) for b in range(q)]
            for a in range(q)
        ]
        for g in range(1, q):
            exp, acc = [1], g
            while acc != 1:
                exp.append(acc)
                acc = self._raw_mul(acc, g)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp2 = exp + exp
        unit_logs = log[1:]
        self._mul_t = [[0] * q] + [[0] + [exp2[la + lb] for lb in unit_logs] for la in unit_logs]
        self._inv_t = [0] + [exp[-la] for la in unit_logs]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON form: characteristic plus the modulus of each extension level."""
        levels: list[list[int]] = []
        f: FieldSpec | None = self
        while f is not None and f.base is not None:
            levels.append(list(f.modulus))
            f = f.base
        return {"p": self.characteristic, "tower": list(reversed(levels))}

    @classmethod
    def from_dict(cls, data: dict) -> "FieldSpec":
        """The field of a to_dict() form.

        While every level so far has the smallest irreducible modulus, a
        level with that modulus again is the cached extension_field, tables
        included.  Any other modulus is validated and built afresh, so input
        adds nothing to a cache but the canonical fields.
        """
        f = field_new(_json_int(data["p"]))
        canonical = True
        for mod in data["tower"]:
            modulus = tuple(map(_json_int, mod))
            e = len(modulus) - 1
            canonical = (canonical and e >= 1 and not _too_large(f, e)
                         and modulus == _smallest_irreducible(f, e))
            if canonical:
                f = extension_field(f, e)
            else:
                f = field_new(f.characteristic, e, modulus=modulus, base=f)
        return f


def _json_int(x) -> int:
    """x itself if it is a JSON integer: from_dict refuses 2.7, true and "2"."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r:.40}")
    return x


def _too_large(base: FieldSpec, e: int) -> bool:
    """Whether base^e exceeds MAX_EXTENSION_ORDER."""
    # order >= 2^e, so the bit-length test spares computing a huge power
    return e >= MAX_EXTENSION_ORDER.bit_length() or base.order**e > MAX_EXTENSION_ORDER


def field_new(
    p: int,
    e: int = 1,
    modulus: tuple[int, ...] | None = None,
    base: FieldSpec | None = None,
) -> FieldSpec:
    """Build a field F_(b^e) over `base` (the prime field F_p when absent).

    Without an explicit modulus the lexicographically smallest monic
    irreducible polynomial of degree e is selected, so repeated calls agree.
    Raises NotPrime, DegreeMismatch or ReducibleModulus on bad input, and
    FieldError for an extension of order above MAX_EXTENSION_ORDER, before
    any modulus is tested.
    """
    if e < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {e}")
    if base is None:
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        prime = FieldSpec(p, 1, (0, 1), None)
        if e == 1:
            if modulus is not None and tuple(modulus) != (0, 1):
                raise DegreeMismatch("the prime field is built modulo x")
            return prime
        base = prime
    else:
        if p != base.characteristic:
            raise FieldMismatch(
                f"characteristic {p} does not match base characteristic {base.characteristic}"
            )
    if _too_large(base, e):
        raise FieldError(
            f"extension of order {base.order}^{e} is too large (limit {MAX_EXTENSION_ORDER})"
        )
    if modulus is None:
        modulus = _smallest_irreducible(base, e)
    else:
        modulus = tuple(modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise DegreeMismatch(f"modulus must be monic of degree {e}")
        if not all(0 <= c < base.order for c in modulus):
            raise FieldError("modulus coefficients out of base-field range")
        if not _poly_is_irreducible(base, modulus):
            raise ReducibleModulus(f"{list(modulus)} factors over {base!r}")
    return FieldSpec(base.characteristic, e, modulus, base)


@lru_cache(maxsize=None)
def extension_field(base: FieldSpec, degree: int) -> FieldSpec:
    """Degree-`degree` extension of `base` with the canonical smallest modulus."""
    return field_new(base.characteristic, degree, base=base)


@lru_cache(maxsize=None)
def field_from_order(q: int) -> FieldSpec:
    """The field of order q = p^e over its prime field, canonical modulus."""
    if q < 2:
        raise FieldError(f"field order must be >= 2, got {q}")
    for e in range(q.bit_length(), 0, -1):
        p = _iroot(q, e)
        if p**e == q and _is_prime(p):
            return field_new(p) if e == 1 else extension_field(field_new(p), e)
    raise NotPrime(f"{q} is not a prime power")


def _iroot(n: int, e: int) -> int:
    """The integer part of the e-th root of n >= 1, by Newton's method."""
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y
