"""Field arithmetic: golden tables, axioms, towers, serialization."""

import pickle
import random

import pytest

from scidkit.gf import (
    DegreeMismatch,
    FieldSpec,
    NotASubfieldInTower,
    NotPrime,
    ReducibleModulus,
    ZeroInverse,
    extension_field,
    field_from_order,
    field_new,
)


def test_f4_golden_table():
    f4 = field_from_order(4)
    # x^2 + x + 1, elements coded 0,1,x=2,x+1=3
    assert f4.modulus == (1, 1, 1)
    assert f4.add(2, 3) == 1
    assert f4.add(2, 2) == 0
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.mul(3, 3) == 2
    assert f4.inv(2) == 3
    assert f4.inv(3) == 2
    assert f4.inv(1) == 1


def test_prime_field_golden():
    f5 = field_from_order(5)
    assert f5.inv(2) == 3
    assert f5.mul(3, 4) == 2
    assert f5.neg(2) == 3
    assert f5.sub(1, 3) == 3


def test_f9_modulus_is_lex_smallest():
    # candidates in code order: x^2 -> reducible, x^2+1 -> irreducible over F_3
    assert field_from_order(9).modulus == (1, 0, 1)


def test_f8_modulus():
    # x^3 + x + 1 beats x^3 + x^2 + 1 in code order
    assert field_from_order(8).modulus == (1, 1, 0, 1)


def test_field_equality_and_hash():
    a = field_from_order(4)
    b = field_new(2, 2)
    assert a == b and hash(a) == hash(b)
    assert a != field_from_order(2)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        field_new(4)
    with pytest.raises(NotPrime):
        field_new(1)


def test_reducible_modulus_rejected():
    # x^2 = x*x and x^2+1 = (x+1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        field_new(2, 2, modulus=(0, 0, 1))
    with pytest.raises(ReducibleModulus):
        field_new(2, 2, modulus=(1, 0, 1))


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatch):
        field_new(2, 2, modulus=(1, 1, 1, 1))


def test_zero_inverse_raises():
    with pytest.raises(ZeroInverse):
        field_from_order(4).inv(0)
    with pytest.raises(ZeroInverse):
        field_from_order(7).inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        # Fermat: a^q == a
        assert f.pow(a, q) == a
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_tower_f16_over_f4():
    f4 = field_from_order(4)
    f16 = extension_field(f4, 2)
    assert f16.order == 16 and f16.characteristic == 2 and f16.base == f4
    els = list(f16.elements())
    for a in els:
        assert f16.pow(a, 16) == a
        if a:
            assert f16.mul(a, f16.inv(a)) == 1
    rng = random.Random(16)
    for _ in range(300):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert f16.mul(a, f16.add(b, c)) == f16.add(f16.mul(a, b), f16.mul(a, c))


def test_decompose_is_linear():
    f2 = field_from_order(2)
    f4 = extension_field(f2, 2)
    f16 = extension_field(f4, 2)
    rng = random.Random(0)
    for _ in range(100):
        a, b = rng.randrange(16), rng.randrange(16)
        da, db = f16.decompose(a, f2), f16.decompose(b, f2)
        ds = f16.decompose(f16.add(a, b), f2)
        assert ds == tuple(f2.add(x, y) for x, y in zip(da, db))
    assert len(f16.decompose(0, f2)) == 4
    assert f16.tower_degree_over(f2) == 4
    assert f16.tower_degree_over(f4) == 2


def test_decompose_rejects_foreign_base():
    f16 = extension_field(field_from_order(4), 2)
    with pytest.raises(NotASubfieldInTower):
        f16.decompose(3, field_from_order(3))


def test_negative_exponent():
    f7 = field_from_order(7)
    for a in range(1, 7):
        assert f7.pow(a, -1) == f7.inv(a)
        assert f7.mul(f7.pow(a, -2), f7.pow(a, 2)) == 1


def test_serialization_roundtrip():
    for q in (2, 9, 16):
        f = field_from_order(q)
        assert FieldSpec.from_dict(f.to_dict()) == f
    f16 = extension_field(field_from_order(4), 2)
    again = FieldSpec.from_dict(f16.to_dict())
    assert again == f16
    # arithmetic agrees after the roundtrip
    for a in (3, 7, 12):
        assert again.mul(a, a) == f16.mul(a, a)


def test_pickle_drops_and_rebuilds_tables():
    f9 = field_from_order(9)
    assert f9.mul(5, 7) == pickle.loads(pickle.dumps(f9)).mul(5, 7)


def test_field_from_order_rejects_non_prime_power():
    with pytest.raises(NotPrime):
        field_from_order(6)
    with pytest.raises(NotPrime):
        field_from_order(12)
