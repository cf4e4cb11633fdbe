import itertools
from fractions import Fraction

import pytest

from oneplusa import linalg
from oneplusa.errors import CapExceeded, DivisionByZero, NotPrime
from oneplusa.exactfield import (
    Cyclotomic,
    FiniteField,
    cyclotomic_polynomial,
    euler_phi,
    field_from_descriptor,
    gf,
    is_prime,
    trace,
)


def test_is_prime_small():
    primes = [n for n in range(40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


# moduli found by exhaustive scan, frozen: first monic irreducible in the
# base-p enumeration of lower coefficient vectors
def test_deterministic_moduli():
    assert gf(2, 2).modulus == (1, 1, 1)        # x^2 + x + 1
    assert gf(2, 3).modulus == (1, 1, 0, 1)     # x^3 + x + 1
    assert gf(3, 2).modulus == (1, 0, 1)        # x^2 + 1
    assert gf(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def test_gf4_has_no_earlier_modulus():
    # independent check of the scan order for GF(4): every candidate with a
    # smaller index vector factors over GF(2)
    f = gf(2, 2)
    seen_own = False
    for c0, c1 in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        idx = c0 + 2 * c1
        has_root = any((r * r + c1 * r + c0) % 2 == 0 for r in (0, 1))
        if idx < 3:
            assert has_root
        else:
            assert not has_root
            seen_own = True
    assert seen_own


def test_gf4_multiplication():
    f = gf(2, 2)
    x = f.gen
    assert x * x == f.element((1, 1))  # x^2 = x + 1
    assert x * (x + f.one) == f.one    # x(x+1) = x^2 + x = 1
    assert [e.index for e in f.elements] == [0, 1, 2, 3]


def test_gf_field_axioms_exhaustive():
    for f in (gf(2, 2), gf(3, 2), gf(2, 3)):
        els = f.elements
        for a, b in itertools.product(els, repeat=2):
            assert a + b == b + a
            assert a * b == b * a
        for a, b, c in itertools.product(els, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
        for a in els:
            assert a + f.zero == a
            assert a * f.one == a
            assert a + (-a) == f.zero
            if not a.is_zero():
                assert a * a.inverse() == f.one


def test_gf3_inverse():
    f = gf(3)
    two = f.elements[2]
    assert two.inverse() == two
    assert two * two == f.one


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        gf(5).zero.inverse()


def test_not_prime():
    with pytest.raises(NotPrime):
        FiniteField(4)


def test_field_order_cap():
    with pytest.raises(CapExceeded):
        FiniteField(2, 17)


@pytest.mark.parametrize("q", [2, 4, 9, 25, 3 ** 7])
def test_negation_and_subtraction_match_coefficients(q):
    # tabled fields read negation from a table; past FIELD_TABLE_CAP
    # (3^7 here) it is computed from the coefficients
    F = gf(q)
    p = F.p
    for x in F.elements if q < 100 else F.elements[::97]:
        neg = tuple((-a) % p for a in x.coeffs)
        assert F.elements[F.neg_idx(x.index)].coeffs == neg
        for y in F.elements if q < 100 else F.elements[::89]:
            diff = tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))
            assert F.elements[F.sub_idx(x.index, y.index)].coeffs == diff


def test_frobenius_is_additive():
    for f in (gf(2, 2), gf(2, 3), gf(3, 2), gf(2, 4), gf(3, 4)):
        p = f.p
        for a, b in itertools.product(f.elements, repeat=2):
            assert (a + b) ** p == a ** p + b ** p


# trace values for GF(4), frozen: Tr(a) = a + a^2
def test_trace_gf4():
    f = gf(2, 2)
    assert [trace(a) for a in f.elements] == [0, 0, 1, 1]


def test_trace_additive_and_balanced():
    for f in (gf(2, 3), gf(3, 2), gf(2, 4)):
        for a, b in itertools.product(f.elements, repeat=2):
            assert trace(a + b) == (trace(a) + trace(b)) % f.p
        zeros = sum(1 for a in f.elements if trace(a) == 0)
        assert zeros == f.q // f.p


def test_field_descriptor_roundtrip():
    f = gf(3, 2)
    assert field_from_descriptor(f.descriptor()) is f


# known cyclotomic polynomials, ascending coefficients
def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_zeta_relations():
    z4 = Cyclotomic.zeta(4)
    assert z4 ** 2 == Cyclotomic.rational(-1)
    z3 = Cyclotomic.zeta(3)
    assert Cyclotomic.rational(1) + z3 + z3 ** 2 == Cyclotomic.rational(0)
    z5 = Cyclotomic.zeta(5)
    assert sum((z5 ** t for t in range(1, 5)), Cyclotomic.rational(0)) == -1
    z8 = Cyclotomic.zeta(8)
    assert z8.conj() == Cyclotomic.from_terms(8, {3: -1})  # zeta8^7 = -zeta8^3
    assert z8 * z8.conj() == Cyclotomic.rational(1)


def test_conductor_descent():
    # values created at order 12 land at their true minimal order
    z12 = Cyclotomic.zeta(12)
    assert (z12 ** 4).order == 3
    assert z12 ** 4 == Cyclotomic.zeta(3)
    assert (z12 ** 3).order == 4
    assert z12 ** 3 == Cyclotomic.zeta(4)
    assert (z12 ** 6).order == 1
    assert z12 ** 6 == -1
    # even order over an odd conductor collapses: zeta6 = 1 + zeta3
    z6 = Cyclotomic.zeta(6)
    assert z6.order == 3
    assert z6 == Cyclotomic.rational(1) + Cyclotomic.zeta(3)
    assert Cyclotomic.zeta(2) == Cyclotomic.rational(-1)


def _membership_conductor(value, ambient):
    """Independent minimal-order oracle: try every divisor by linear solve."""
    target = value.embed_vec(ambient)
    for d in sorted(x for x in range(1, ambient + 1) if ambient % x == 0):
        step = ambient // d
        rows = [
            Cyclotomic.from_terms(ambient, {step * i: 1}).embed_vec(ambient)
            for i in range(euler_phi(d))
        ]
        if linalg.solve_combination(rows, target, linalg.rational_ops()) is not None:
            return d
    raise AssertionError


def test_descent_matches_membership_oracle():
    samples = [
        Cyclotomic.zeta(12, 2) + Cyclotomic.zeta(12, 10),
        Cyclotomic.zeta(12) - Cyclotomic.zeta(12, 5),
        Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7),
        Cyclotomic.zeta(9, 3),
        Cyclotomic.zeta(15, 5) + Cyclotomic.zeta(15, 10),
        Cyclotomic.zeta(12, 3) * 2 - 1,
        Cyclotomic.rational(Fraction(3, 7)) * Cyclotomic.zeta(6),
    ]
    for v in samples:
        assert v.order == _membership_conductor(v, 24 if v.order % 8 == 0 else v.order * 2)


def test_cross_order_arithmetic():
    z3, z4 = Cyclotomic.zeta(3), Cyclotomic.zeta(4)
    prod = z3 * z4
    assert prod.order == 12
    assert prod == Cyclotomic.zeta(12, 7)  # zeta12^4 * zeta12^3
    assert (z3 + z4) - z4 == z3
    assert (Cyclotomic.rational(1) + z3) * (Cyclotomic.rational(1) + z3 ** 2) == 1


def test_fraction_coefficients():
    half = Cyclotomic.rational(Fraction(1, 2))
    assert half * 2 == 1
    v = half * Cyclotomic.zeta(3)
    assert v + v == Cyclotomic.zeta(3)
    assert v.to_json()["coeffs"] == {"1": "1/2"}


def test_hash_and_set_semantics():
    a = Cyclotomic.zeta(6) ** 3
    b = Cyclotomic.rational(-1)
    assert a == b and hash(a) == hash(b)
    vals = {Cyclotomic.zeta(3), Cyclotomic.zeta(6, 2), Cyclotomic.zeta(12, 4)}
    assert len(vals) == 1


def test_json_roundtrip():
    vals = [
        Cyclotomic.zeta(8) - Cyclotomic.zeta(8, 3),
        Cyclotomic.rational(Fraction(-5, 3)),
        Cyclotomic.zeta(3) * 2 + 1,
    ]
    for v in vals:
        assert Cyclotomic.from_json(v.to_json()) == v


def test_rendering():
    assert str(Cyclotomic.zeta(8) * 2 - Cyclotomic.rational(Fraction(1, 2))) == "-1/2 + 2*zeta8"
    assert str(Cyclotomic.rational(0)) == "0"
    assert str(-Cyclotomic.zeta(4)) == "-zeta4"


def test_embed_vec_roundtrip():
    z3 = Cyclotomic.zeta(3)
    vec = z3.embed_vec(12)
    back = Cyclotomic.from_terms(12, {e: c for e, c in enumerate(vec)})
    assert back == z3
    with pytest.raises(ValueError):
        z3.embed_vec(8)
