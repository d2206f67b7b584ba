"""Field arithmetic: golden tables, axioms, towers, serialization."""

import json
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import scidkit
from scidkit.cli import main
from scidkit.gf import (
    MAX_EXTENSION_ORDER,
    _MR_LIMIT,
    _is_prime,
    DegreeMismatch,
    FieldError,
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


def test_verify_reuses_the_canonical_field(capsys, monkeypatch, tmp_path):
    assert main(["construct", "max", "--n", "3", "--k", "3", "--t", "2", "--q", "9"]) == 0
    cert = json.loads(capsys.readouterr().out)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    built = []
    read = FieldSpec.from_dict.__func__
    monkeypatch.setattr(
        FieldSpec, "from_dict", classmethod(lambda cls, data: built.append(read(cls, data)) or built[-1])
    )
    for _ in range(2):
        assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert len(built) >= 2 and all(f is field_from_order(9) for f in built)
    # x^2 + 2 = (x + 1)(x + 2) over F_3 is still refused
    cert["family"]["field"]["tower"] = [[2, 0, 1]]
    path.write_text(json.dumps(cert))
    assert main(["verify", str(path)]) == 2
    assert "factors over" in capsys.readouterr().err


def test_other_moduli_are_built_afresh():
    # x^2 + x + 2 is irreducible over F_3 but not the smallest, x^2 + 1
    data = {"p": 3, "tower": [[2, 1, 1]]}
    cached = extension_field.cache_info().currsize
    a, b = FieldSpec.from_dict(data), FieldSpec.from_dict(data)
    assert a == b and a is not b and a != field_from_order(9)
    assert extension_field.cache_info().currsize == cached


def test_pickle_drops_and_rebuilds_tables():
    f9 = field_from_order(9)
    assert f9.mul(5, 7) == pickle.loads(pickle.dumps(f9)).mul(5, 7)


def test_field_from_order_rejects_non_prime_power():
    with pytest.raises(NotPrime):
        field_from_order(6)
    with pytest.raises(NotPrime):
        field_from_order(12)


def _trial_division(n):
    """The primality test field_new used before Miller-Rabin."""
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


def test_miller_rabin_agrees_with_trial_division():
    for n in range(-3, 10**5):
        assert _is_prime(n) == _trial_division(n), n
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 63973, 75361)
    assert not any(_is_prime(n) for n in carmichael)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, by their factors
    for factors in ((151, 751, 28351), (149491, 747451, 34233211), (399165290221, 798330580441)):
        n = 1
        for f in factors:
            n *= f
        assert not _is_prime(n), n
    for p in (2**61 - 1, 10**18 + 3, 2**64 - 59):
        assert _is_prime(p), p


def test_huge_characteristic_is_decided_fast(tmp_path, capsys):
    start = time.perf_counter()
    f = field_new(10**18 + 3)
    assert f.mul(f.inv(12345), 12345) == 1
    assert field_from_order(10**18 + 3) == f
    # the least composite that passes all 13 bases is beyond what is decided
    with pytest.raises(FieldError, match="too large"):
        field_new(_MR_LIMIT)
    with pytest.raises(FieldError):
        field_from_order(_MR_LIMIT + 2)
    family = {
        "ambient": 3,
        "members": [{"ambient": 3, "basis": [[1, 0, 0]]}, {"ambient": 3, "basis": [[0, 1, 0]]}],
    }
    codes = []
    for p in (10**18 + 3, _MR_LIMIT, 10**40 + 1):
        path = tmp_path / f"family_{p}.json"
        path.write_text(json.dumps({**family, "field": {"p": p, "tower": []}}))
        codes.append(main(["verify", str(path)]))
    capsys.readouterr()
    assert codes == [0, 2, 2]
    assert time.perf_counter() - start < 5


def test_tower_over_a_huge_prime_is_refused_fast(tmp_path):
    """verify exits 2 on a degree-2 tower over a prime near 10^18, in a guarded process."""
    family = {
        "field": {"p": 10**18 + 3, "tower": [[1, 0, 1]]},
        "ambient": 3,
        "members": [{"ambient": 3, "basis": [[1, 0, 0]]}, {"ambient": 3, "basis": [[0, 1, 0]]}],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    src = str(Path(scidkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from scidkit.cli import main; sys.exit(main())",
         "verify", str(path)],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert proc.returncode == 2, proc.stderr
    assert "too large" in proc.stderr


def test_extension_order_limit():
    assert field_from_order(MAX_EXTENSION_ORDER).order == MAX_EXTENSION_ORDER
    assert field_new(3, 6).order == 729 <= MAX_EXTENSION_ORDER
    for make in (
        lambda: field_from_order(2 * MAX_EXTENSION_ORDER),
        lambda: field_new(2, 10**9),
        lambda: field_new(2, 2, base=extension_field(field_from_order(2), 6)),
        lambda: field_new(10**18 + 3, 2, modulus=(1, 0, 1), base=field_new(10**18 + 3)),
    ):
        with pytest.raises(FieldError, match="too large"):
            make()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 10**18 + 3])
def test_fused_row_operations_match_entrywise_arithmetic(q):
    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(50):
        v = [rng.randrange(q) for _ in range(7)]
        row = [rng.randrange(q) for _ in range(7)]
        c = rng.randrange(q)
        want = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
        assert field.sub_multiple(v, c, row) == want
        assert field.scale(c, row) == [field.mul(c, b) for b in row]


def _schoolbook_add(f, a, b):
    """a + b coefficient by coefficient down the tower, with no table."""
    if f.base is None:
        return (a + b) % f.characteristic
    return f._pack([_schoolbook_add(f.base, x, y) for x, y in zip(f._unpack(a), f._unpack(b))])


def _schoolbook_mul(f, a, b):
    """The polynomial product of a and b over the base, reduced by the modulus."""
    if f.base is None:
        return a * b % f.characteristic
    base, e = f.base, f.degree
    minus_one = f.characteristic - 1  # the prime-field element -1 has this code at every level
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(f._unpack(a)):
        for j, y in enumerate(f._unpack(b)):
            prod[i + j] = _schoolbook_add(base, prod[i + j], _schoolbook_mul(base, x, y))
    for top in range(2 * e - 2, e - 1, -1):
        c = _schoolbook_mul(base, minus_one, prod[top])
        for j, m in enumerate(f.modulus):
            prod[top - e + j] = _schoolbook_add(base, prod[top - e + j], _schoolbook_mul(base, c, m))
    assert prod[e:] == [0] * (e - 1)
    return f._pack(prod[:e])


@pytest.mark.parametrize(
    "field",
    [field_from_order(q) for q in (4, 8, 9, 25, 27)]
    + [
        extension_field(field_from_order(4), 2),
        extension_field(field_from_order(2), 1),
        extension_field(field_from_order(3), 1),
    ],
    ids=repr,
)
def test_tables_are_the_schoolbook_product_modulo_the_modulus(field):
    q = field.order
    els = list(field.elements())
    v = random.Random(q).sample(els, q)
    for a in els:
        want = [_schoolbook_mul(field, a, b) for b in els]
        assert [field.mul(a, b) for b in els] == want
        assert field.scale(a, els) == want
        minus = [_schoolbook_mul(field, field.characteristic - 1, x) for x in want]
        assert field.sub_multiple(v, a, els) == [_schoolbook_add(field, x, y) for x, y in zip(v, minus)]
        if a:
            assert _schoolbook_mul(field, field.inv(a), a) == 1
