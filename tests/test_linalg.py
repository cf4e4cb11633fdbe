"""The stacked field-array kernel against the pure-Python row reduction.

linalg.rref and test_nilalg's scalar nullspace and combine are the
references: every matrix of a stack must reduce, null and multiply exactly
as it does alone.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneplusa import linalg
from oneplusa.exactfield import field_from_descriptor, gf
from oneplusa.linalg import FieldArrays, field_arrays
from oneplusa.nilalg import FieldRing

from test_nilalg import combine, nullspace
from test_unitgroup import _coeff_add, _coeff_mul

# GF(1024) is a large field, GF(9) an odd extension field, and OTHER_MODULUS
# GF(16) under Phi_5 = 1 + x + x^2 + x^3 + x^4, where x has order 5
FIELDS = [2, 3, 4, 9, 16, 1024]
OTHER_MODULUS = field_from_descriptor({"p": 2, "k": 4, "modulus": [1, 1, 1, 1, 1]})
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _matrix(draw, ops, q, r, c):
    """A zero matrix, a random one, or one of low rank: random combinations
    of a few random rows, so ranks and pivot columns vary within a stack."""
    kind = draw(st.sampled_from(["zero", "random", "low"]))
    entry = st.integers(0, q - 1)
    if kind == "zero":
        return [[0] * c for _ in range(r)]
    if kind == "random":
        return [[draw(entry) for _ in range(c)] for _ in range(r)]
    k = draw(st.integers(1, 2))
    base = [[draw(entry) for _ in range(c)] for _ in range(k)]
    return [list(combine([draw(entry) for _ in range(k)], base, ops, c)) for _ in range(r)]


@st.composite
def stacks(draw):
    q = draw(st.sampled_from(FIELDS))
    ops = FieldRing(gf(q))
    nb, r, c = draw(st.integers(1, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 6))
    stack = np.array([_matrix(draw, ops, q, r, c) for _ in range(nb)], dtype=np.int64)
    return q, ops, stack.reshape(nb, r, c)


@SETTINGS
@given(stacks())
def test_stacked_rref_matches_rref(case):
    q, ops, stack = case
    R, rank, pivots = field_arrays(gf(q)).rref(stack)
    assert R.shape == stack.shape
    for M, Rb, rk, pv in zip(stack.tolist(), R, rank, pivots):
        rows, cols = linalg.rref(M, ops)
        assert rk == len(rows)
        assert tuple(map(tuple, Rb[:rk].tolist())) == rows
        assert not Rb[rk:].any()
        assert tuple(np.flatnonzero(pv).tolist()) == cols


@SETTINGS
@given(stacks())
def test_null_rows_match_nullspace(case):
    q, ops, stack = case
    F = field_arrays(gf(q))
    N = F.nullrows(stack)
    c = stack.shape[2]
    assert N.shape == (len(stack), c, c)
    for M, Nb, pivots in zip(stack.tolist(), N, F.rref(stack)[2]):
        assert not Nb[pivots].any()
        assert linalg.rref(Nb[~pivots].tolist(), ops)[0] == nullspace(M, c, ops)


@SETTINGS
@given(stacks(), st.integers(0, 4), st.data())
def test_stacked_matmul_matches_combine(case, c, data):
    q, ops, X = case
    nb, _, m = X.shape
    Y = np.array(
        data.draw(st.lists(st.integers(0, q - 1), min_size=nb * m * c, max_size=nb * m * c)),
        dtype=np.int64,
    ).reshape(nb, m, c)
    P = field_arrays(gf(q)).matmul(X, Y)
    assert P.shape == (nb, X.shape[1], c)
    for Xb, Yb, Pb in zip(X.tolist(), Y.tolist(), P.tolist()):
        want = [list(combine(row, Yb, ops, c)) for row in Xb]
        assert Pb == want


@pytest.mark.parametrize("q", FIELDS)
def test_matmul_takes_one_dimensional_operands(q):
    # np.matmul's shapes: a 1-D left operand is a row, a 1-D right one a
    # column, and the result drops that axis
    F, ops = field_arrays(gf(q)), FieldRing(gf(q))
    rng = np.random.default_rng(q)
    v, w = rng.integers(0, q, size=3), rng.integers(0, q, size=4)
    S = rng.integers(0, q, size=(2, 3, 4))

    def times(c, rows):
        return list(combine(c.tolist(), rows.tolist(), ops, rows.shape[1]))

    assert F.matmul(v, S[0]).tolist() == times(v, S[0])
    assert F.matmul(S[0], w).tolist() == times(w, S[0].T)
    assert F.matmul(v, S).tolist() == [times(v, M) for M in S]
    assert F.matmul(S, w).tolist() == [times(w, M.T) for M in S]
    assert F.matmul(v, S[0, :, 0]).tolist() == times(v, S[0, :, :1])[0]


def _check_against_polynomials(field):
    # the array ops and the scalar ops, which share the field's digit
    # formulas and log tables, against polynomial arithmetic on coefficients
    q, F = field.q, field_arrays(field)
    rng = np.random.default_rng(q)
    if q <= 16:
        a, b = (np.array(t) for t in zip(*itertools.product(range(q), repeat=2)))
    else:
        a, b = rng.integers(0, q, size=(2, 2000))
    pairs = list(zip(a.tolist(), b.tolist()))
    add = [_coeff_add(field, x, y) for x, y in pairs]
    mul = [_coeff_mul(field, x, y) for x, y in pairs]
    neg = [field.element([-c for c in field.elements[x].coeffs]).index for x in a.tolist()]
    assert F.add(a, b).tolist() == add == [field.add_idx(x, y) for x, y in pairs]
    assert F.mul(a, b).tolist() == mul == [field.mul_idx(x, y) for x, y in pairs]
    assert F.neg(a).tolist() == neg == [field.neg_idx(x) for x in a.tolist()]
    nonzero = a[a != 0].tolist()
    assert F.inv(np.array(nonzero)).tolist() == [field.inv_idx(x) for x in nonzero]
    assert {_coeff_mul(field, x, field.inv_idx(x)) for x in nonzero} == {1}


@pytest.mark.parametrize("q", FIELDS)
def test_field_arithmetic_matches_the_field(q):
    _check_against_polynomials(gf(q))


def test_field_arithmetic_under_another_modulus():
    assert OTHER_MODULUS.modulus != gf(16).modulus
    _check_against_polynomials(OTHER_MODULUS)


@pytest.mark.parametrize("field", [gf(q) for q in FIELDS] + [OTHER_MODULUS],
                         ids=[*map(str, FIELDS), "16-Phi5"])
def test_antilogs_run_once_around_the_nonzero_elements(field):
    # the powers of the generator behind mul_idx and inv_idx: q - 1 distinct
    # nonzero indices, so the generator has order q - 1
    log, exp = field.logs
    n = field.q - 1
    assert len(set(exp[:n])) == n and 0 not in exp[:n]
    assert exp[n:2 * n] == exp[:n] and not any(exp[2 * n:])
    assert [log[x] for x in exp[:n]] == list(range(n)) and log[0] == 2 * n


def _walked_logs(field):
    # the reference: every candidate's whole cycle walked, by polynomial
    # arithmetic, until one has q - 1 elements
    n = field.q - 1
    for g in range(1, field.q):
        powers = [1]
        while (x := _coeff_mul(field, powers[-1], g)) != 1:
            powers.append(x)
        if len(powers) == n:
            break
    log = [2 * n] * field.q
    for t, x in enumerate(powers):
        log[x] = t
    return tuple(log), tuple(powers * 2 + [0] * (2 * n + 1))


@pytest.mark.parametrize("q", FIELDS + ["16-Phi5"])
def test_logs_pick_the_generator_the_cycle_walk_picks(q):
    # the generator is accepted by g^((q-1)/r) != 1 for the primes r of
    # q - 1, without walking its cycle: the same first g, so the same pair
    field = OTHER_MODULUS if q == "16-Phi5" else gf(q)
    assert field.logs == _walked_logs(field)


def test_matmul_int64_guard():
    # a duck-typed prime field past 2^31: (p - 1)^2 fits in int64, but a sum
    # of three such products does not, so the product must refuse to run
    def prime_field(p):
        return SimpleNamespace(p=p, k=1, q=p, add_idx=lambda a, b: (a + b) % p,
                               neg_idx=lambda a: -a % p)

    p = 2 ** 31 - 1
    F = FieldArrays(prime_field(p))
    big = np.full((1, 1), p - 1, dtype=np.int64)
    assert F.matmul(big, big).tolist() == [[1]]
    with pytest.raises(RuntimeError, match="int64 overflow guard"):
        F.matmul(np.full((1, 3), p - 1), np.full((3, 1), p - 1))
    with pytest.raises(RuntimeError, match="int64 overflow guard"):
        FieldArrays(prime_field(2 ** 61 - 1)).mul(big, big)
