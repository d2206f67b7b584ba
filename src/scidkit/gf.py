"""Exact arithmetic in small finite fields, including extension towers.

A field is described by a :class:`FieldSpec`: either a prime field F_p or a
degree-e extension of a smaller FieldSpec, reduced modulo a monic irreducible
polynomial with coefficients in that base field.  Elements are integer codes
in [0, q): the little-endian positional encoding of the coefficient vector
over the base, code = c_0 + c_1*b + ... + c_{e-1}*b^(e-1) where b is the base
order.  Code 0 is the additive identity and code 1 the multiplicative one.

Extension arithmetic is table driven: addition tables plus discrete log/exp
tables over a primitive element are built lazily from exact polynomial
arithmetic, which keeps row reduction over F_4/F_8/F_9 as cheap as the
modular prime-field path.  Specs are immutable values; equality and hashing
are structural over (characteristic, degree, modulus, base).
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over an arbitrary base field
#
# Polynomials are little-endian lists of element codes.  Only what the
# irreducibility test needs: multiplication is not required, just remainders.
# ---------------------------------------------------------------------------


def _poly_mod(base: "FieldSpec", num: list[int], den: Sequence[int]) -> list[int]:
    """Remainder of num modulo den; den must be monic of degree >= 1."""
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        rem[i] = 0
        for j in range(dd):
            if den[j]:
                rem[i - dd + j] = base.sub(rem[i - dd + j], base.mul(c, den[j]))
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
        "_exp_t",
        "_log_t",
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
        self._exp_t = None
        self._log_t = None
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
        if a == 0 or b == 0:
            return 0
        if self._exp_t is None:
            self._build_tables()
        return self._exp_t[self._log_t[a] + self._log_t[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self.base is None:
            return pow(a, self.characteristic - 2, self.characteristic)
        if self._inv_t is None:
            self._build_tables()
        return self._inv_t[a]

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
        va, vb = self._unpack(a), self._unpack(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(va):
            if x == 0:
                continue
            for j, y in enumerate(vb):
                if y:
                    prod[i + j] = base.add(prod[i + j], base.mul(x, y))
        for m in range(2 * e - 2, e - 1, -1):
            c = prod[m]
            if c == 0:
                continue
            prod[m] = 0
            for j in range(e):
                if self.modulus[j]:
                    prod[m - e + j] = base.sub(prod[m - e + j], base.mul(c, self.modulus[j]))
        return self._pack(prod[:e])

    def _find_generator(self) -> int:
        n = self.order - 1
        factors = []
        m = n
        f = 2
        while f * f <= m:
            if m % f == 0:
                factors.append(f)
                while m % f == 0:
                    m //= f
            f += 1
        if m > 1:
            factors.append(m)

        def raw_pow(a: int, k: int) -> int:
            r, acc = 1, a
            while k:
                if k & 1:
                    r = self._raw_mul(r, acc)
                acc = self._raw_mul(acc, acc)
                k >>= 1
            return r

        for g in range(2, self.order):
            if all(raw_pow(g, n // f) != 1 for f in factors):
                return g
        return 1  # order 2: the only unit is 1

    def _build_tables(self) -> None:
        q = self.order
        base = self.base
        vecs = [self._unpack(a) for a in range(q)]
        badd, bneg = base.add, base.neg
        self._neg_t = [self._pack([bneg(x) for x in vecs[a]]) for a in range(q)]
        self._add_t = [
            [self._pack([badd(x, y) for x, y in zip(vecs[a], vecs[b])]) for b in range(q)]
            for a in range(q)
        ]
        g = self._find_generator()
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            exp[i + q - 1] = acc
            log[acc] = i
            acc = self._raw_mul(acc, g)
        self._exp_t = exp
        self._log_t = log
        inv = [0] * q
        inv[1] = 1
        for a in range(2, q):
            inv[a] = exp[q - 1 - log[a]]
        self._inv_t = inv

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
        f = field_new(int(data["p"]))
        for mod in data["tower"]:
            f = field_new(f.characteristic, len(mod) - 1, modulus=tuple(int(c) for c in mod), base=f)
        return f


def field_new(
    p: int,
    e: int = 1,
    modulus: tuple[int, ...] | None = None,
    base: FieldSpec | None = None,
) -> FieldSpec:
    """Build a field F_(b^e) over `base` (the prime field F_p when absent).

    Without an explicit modulus the lexicographically smallest monic
    irreducible polynomial of degree e is selected, so repeated calls agree.
    Raises NotPrime, DegreeMismatch or ReducibleModulus on bad input.
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
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotPrime(f"{q} is not a prime power")
    return field_new(p, e)

