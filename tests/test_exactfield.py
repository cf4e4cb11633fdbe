import itertools
import operator
import random
import types
from fractions import Fraction

import pytest

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
    # negation and subtraction work digit by digit on the index, in small
    # fields and large ones (3^7 here) alike
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
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(25) == tuple(int(e % 5 == 0) for e in range(21))
    assert euler_phi(12) == 4
    assert euler_phi(27) == 18
    for n in (6, 12, 15, 0):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(n)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", [2, 4, 8, 16, 3, 9, 27, 5, 25, 7])
def test_cyclotomic_polynomials_factor_x_n_minus_1(n):
    # x^n - 1 is the product of Phi_d over the divisors d of n
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = _poly_mul(prod, cyclotomic_polynomial(d))
    assert prod == [-1] + [0] * (n - 1) + [1]


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
    # values created at order 27 or 16 land at their true minimal order
    z27 = Cyclotomic.zeta(27)
    assert (z27 ** 3).order == 9
    assert z27 ** 3 == Cyclotomic.zeta(9)
    assert (z27 ** 9).order == 3
    assert z27 ** 9 == Cyclotomic.zeta(3)
    assert (z27 ** 27).order == 1
    # zeta9^3 + zeta9^6 = zeta3 + zeta3^2 = -1
    v = Cyclotomic.zeta(9, 3) + Cyclotomic.zeta(9, 6)
    assert v.order == 1 and v == -1
    z16 = Cyclotomic.zeta(16)
    assert (z16 ** 2).order == 8
    assert (z16 ** 4).order == 4
    assert z16 ** 4 == Cyclotomic.zeta(4)
    assert (z16 ** 8).order == 1
    assert z16 ** 8 == -1
    # zeta16^6 + zeta16^10 = zeta8^3 + zeta8^5 = -(zeta8 + zeta8^7) = -sqrt(2)
    v = Cyclotomic.zeta(16, 6) + Cyclotomic.zeta(16, 10)
    assert v.order == 8 and v == -(Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7))
    assert Cyclotomic.zeta(2) == Cyclotomic.rational(-1)
    assert Cyclotomic.from_terms(25, {5: 0, 7: Fraction(0)}).order == 1


# Fraction arithmetic in the shape of a FieldRing's linalg ops
RATIONAL_OPS = types.SimpleNamespace(
    zero=Fraction(0), one=Fraction(1), is_zero=lambda a: a == 0,
    add=operator.add, sub=operator.sub, mul=operator.mul, inv=lambda a: 1 / a,
)


def solve_combination(vectors, target, ops):
    """Coefficients c with sum(c_i * vectors[i]) == target, or None, by
    elimination with bookkeeping; the reference for the membership oracle."""
    vecs = [list(v) for v in vectors]
    m = len(vecs)
    combos = [[ops.one if i == j else ops.zero for j in range(m)] for i in range(m)]
    t = list(target)
    tc = [ops.zero] * m
    used = [False] * m
    for col in range(len(t)):
        piv = None
        for r in range(m):
            if not used[r] and not ops.is_zero(vecs[r][col]):
                piv = r
                break
        if piv is None:
            continue
        used[piv] = True
        scale = ops.inv(vecs[piv][col])
        vecs[piv] = [ops.mul(scale, v) for v in vecs[piv]]
        combos[piv] = [ops.mul(scale, v) for v in combos[piv]]
        for r in range(m):
            if r != piv and not ops.is_zero(vecs[r][col]):
                f = vecs[r][col]
                vecs[r] = [ops.sub(a, ops.mul(f, b)) for a, b in zip(vecs[r], vecs[piv])]
                combos[r] = [ops.sub(a, ops.mul(f, b)) for a, b in zip(combos[r], combos[piv])]
        if not ops.is_zero(t[col]):
            f = t[col]
            t = [ops.sub(a, ops.mul(f, b)) for a, b in zip(t, vecs[piv])]
            tc = [ops.add(a, ops.mul(f, b)) for a, b in zip(tc, combos[piv])]
    if any(not ops.is_zero(v) for v in t):
        return None
    return tuple(tc)


def _membership_conductor(value, ambient):
    """Independent minimal-order oracle: try every divisor by linear solve."""
    target = value.embed_vec(ambient)
    for d in sorted(x for x in range(1, ambient + 1) if ambient % x == 0):
        step = ambient // d
        rows = [
            Cyclotomic.from_terms(ambient, {step * i: 1}).embed_vec(ambient)
            for i in range(euler_phi(d))
        ]
        if solve_combination(rows, target, RATIONAL_OPS) is not None:
            return d
    raise AssertionError


def test_descent_matches_membership_oracle():
    samples = [
        (Cyclotomic.zeta(9, 2) + Cyclotomic.zeta(9, 7), 27),
        (Cyclotomic.zeta(9, 3) - Cyclotomic.zeta(9, 6), 27),
        (Cyclotomic.zeta(8) + Cyclotomic.zeta(8, 7), 16),
        (Cyclotomic.zeta(9, 3), 27),
        (Cyclotomic.zeta(25, 5) + Cyclotomic.zeta(25, 10), 25),
        (Cyclotomic.zeta(16, 4) * 2 - 1, 16),
        (Cyclotomic.rational(Fraction(3, 7)) * Cyclotomic.zeta(27, 18), 27),
        (Cyclotomic.rational(Fraction(-2, 3)), 9),
    ]
    # seeded random values with support on a sub-stride, so most descend
    rng = random.Random(0)
    for ambient in (8, 16, 9, 27, 25, 7):
        for _ in range(6):
            step = rng.choice([d for d in range(1, ambient + 1) if ambient % d == 0])
            terms = {step * rng.randrange(ambient // step): rng.randint(-3, 3)
                     for _ in range(rng.randint(1, 4))}
            samples.append((Cyclotomic.from_terms(ambient, terms), ambient))
    orders = set()
    for v, ambient in samples:
        assert v.order == _membership_conductor(v, ambient)
        orders.add(v.order)
    assert orders >= {1, 3, 4, 8, 9, 25, 27}


def test_composite_orders_are_rejected():
    for make in (
        lambda: Cyclotomic.zeta(6),
        lambda: Cyclotomic.zeta(12),
        lambda: Cyclotomic.zeta(3) * Cyclotomic.zeta(4),
        lambda: Cyclotomic.zeta(3) + Cyclotomic.zeta(4),
        lambda: Cyclotomic.from_terms(15, {}),
        lambda: Cyclotomic.from_json({"order": 6, "coeffs": {"1": "1"}}),
        lambda: Cyclotomic.zeta(3).embed_vec(12),
    ):
        with pytest.raises(ValueError):
            make()


def test_cross_order_arithmetic():
    z3, z9 = Cyclotomic.zeta(3), Cyclotomic.zeta(9)
    prod = z3 * z9
    assert prod.order == 9
    assert prod == Cyclotomic.zeta(9, 4)  # zeta9^3 * zeta9
    z4, z8 = Cyclotomic.zeta(4), Cyclotomic.zeta(8)
    assert z4 * z8 == Cyclotomic.zeta(8, 3)
    assert (z4 * z8.conj()).order == 8
    assert (z3 + z9) - z9 == z3
    assert (z4 + z8) - z8 == z4
    assert (Cyclotomic.rational(1) + z3) * (Cyclotomic.rational(1) + z3 ** 2) == 1


def test_fraction_coefficients():
    half = Cyclotomic.rational(Fraction(1, 2))
    assert half * 2 == 1
    v = half * Cyclotomic.zeta(3)
    assert v + v == Cyclotomic.zeta(3)
    assert v.to_json()["coeffs"] == {"1": "1/2"}


def test_hash_and_set_semantics():
    a = Cyclotomic.zeta(8) ** 4
    b = Cyclotomic.rational(-1)
    assert a == b and hash(a) == hash(b)
    vals = {Cyclotomic.zeta(3), Cyclotomic.zeta(9, 3), Cyclotomic.zeta(27, 9)}
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
    vec = z3.embed_vec(27)
    assert vec == tuple(Fraction(int(e == 9)) for e in range(18))
    back = Cyclotomic.from_terms(27, {e: c for e, c in enumerate(vec)})
    assert back == z3
    with pytest.raises(ValueError):
        z3.embed_vec(8)
