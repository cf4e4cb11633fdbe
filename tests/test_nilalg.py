import itertools
import json

import pytest

from oneplusa.errors import CapExceeded, NotAnIdeal, NotAssociative, NotNilpotent
from oneplusa.exactfield import gf
from oneplusa.nilalg import (
    LAMBDA_RING,
    Z_RING,
    Algebra,
    FieldRing,
    Poly,
    Subspace,
    annihilator,
    free_nilpotent,
    is_ideal,
    is_subalgebra,
    quotient_algebra,
    strictly_upper_triangular,
    subalgebra_algebra,
    subalgebra_closure,
)


def _from_labels(A, terms):
    """The element sum c * e_label over the given {label: c}."""
    pos = {lab: i for i, lab in enumerate(A.labels)}
    coords = [A.ring.zero] * A.dim
    for lab, c in terms.items():
        coords[pos[lab]] = A.ring.coerce(c)
    return A.element(coords)


def _subs(poly, value):
    """Evaluate a Poly at an integer value of lam."""
    total = 0
    for c in reversed(poly.coeffs):
        total = total * value + c
    return total


def test_poly_arithmetic():
    lam = Poly.lam()
    sq = (lam + 1) * (lam + 1)
    assert sq == Poly((1, 2, 1))
    assert sq.render() == "1 + 2*lam + lam^2"
    assert _subs(sq, 1) == 4
    assert _subs(sq, -1) == 0
    assert (lam - lam).is_zero()
    assert (2 * lam - lam * 3).render() == "-lam"


def test_upper_triangular_3_structure():
    A = strictly_upper_triangular(3, gf(2))
    assert A.labels == ("e12", "e23", "e13")
    e12, e23, e13 = A.basis()
    assert e12 * e23 == e13
    assert (e23 * e12).is_zero()
    assert (e12 * e13).is_zero()
    assert A.nilpotency_index == 3
    assert A.power_subspace(2).rows == ((0, 0, 1),)
    assert A.power_subspace(3).dim == 0


def test_upper_triangular_matches_matrix_model():
    # independent oracle: multiply literal matrix units
    n, q = 4, 3
    A = strictly_upper_triangular(n, gf(q))
    pairs = [(i, i + d) for d in range(1, n) for i in range(1, n - d + 1)]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            prod = A.mul_coords(A._unit[a], A._unit[b])
            expect = [0] * A.dim
            if j == k:
                expect[pairs.index((i, l))] = 1
            assert list(prod) == expect


def test_constructor_checks_associativity_of_ul():
    for n, q in [(3, 2), (3, 4), (4, 2), (4, 3)]:
        A = strictly_upper_triangular(n, gf(q))
        Algebra(A.ring, A.dim, A.sc, labels=A.labels, check=True)


def test_not_associative_witness():
    with pytest.raises(NotAssociative) as err:
        Algebra(FieldRing(gf(2)), 2, {(0, 0): ((1, 1),), (1, 0): ((0, 1),)})
    assert err.value.witness == (0, 0, 0)


def test_not_nilpotent():
    with pytest.raises(NotNilpotent):
        Algebra(FieldRing(gf(3)), 1, {(0, 0): ((0, 1),)})


def test_power_filtration():
    for A in (strictly_upper_triangular(4, gf(2)), free_nilpotent(FieldRing(gf(3)), 2, 4)):
        n = A.nilpotency_index
        for m in range(1, n):
            assert A.power_subspace(m).dim > A.power_subspace(m + 1).dim
        assert A.power_subspace(n).dim == 0
        # A^m A^k lands in A^(m+k)
        for m, k in itertools.product(range(1, n), repeat=2):
            target = A.power_subspace(min(m + k, n))
            for x in A.power_subspace(m).row_elements():
                for y in A.power_subspace(k).row_elements():
                    assert target.contains(x * y) or (x * y).is_zero()


def test_graded_powers_match_generic_chain():
    A = strictly_upper_triangular(4, gf(2))
    B = Algebra(A.ring, A.dim, A.sc, labels=A.labels, check=True)
    assert B.graded_degrees is None
    for m in range(1, 6):
        assert A.power_subspace(m).rows == B.power_subspace(m).rows
    assert B.nilpotency_index == A.nilpotency_index == 4


def test_free_nilpotent_basis_and_products():
    J = free_nilpotent(Z_RING, 2, 3)
    assert J.dim == 6
    assert J.labels == ("x1", "x2", "x1*x1", "x1*x2", "x2*x1", "x2*x2")
    x1, x2 = J.basis_element(0), J.basis_element(1)
    assert (x1 * x2).coords == (0, 0, 0, 1, 0, 0)
    assert ((x1 * x2) * x1).is_zero()  # length 3 word is truncated away
    assert J.nilpotency_index == 3
    assert J.power_subspace(2).dim == 4


def test_free_nilpotent_is_associative_and_graded():
    for ring in (Z_RING, FieldRing(gf(2)), LAMBDA_RING):
        J = free_nilpotent(ring, 2, 4)
        Algebra(ring, J.dim, J.sc, check=True)
        assert J.graded_degrees == tuple(len(lab.split("*")) for lab in J.labels)


def test_free_nilpotent_cap():
    with pytest.raises(CapExceeded):
        free_nilpotent(Z_RING, 5, 5)  # dimension 780
    J = free_nilpotent(Z_RING, 4, 5)  # dimension 340 still allowed
    assert J.dim == 340


def test_concatenation_respects_quotient_map():
    # sending x1 -> e12, x2 -> e23 extends to an algebra map on basis words
    F = gf(2)
    J = free_nilpotent(FieldRing(F), 2, 3)
    A = strictly_upper_triangular(3, F)
    images = {0: A.basis_element(0), 1: A.basis_element(1)}

    def phi_word(word):
        out = images[word[0]]
        for t in word[1:]:
            out = out * images[t]
        return out

    words = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    for wa, wb in itertools.product(words, repeat=2):
        ua, ub = J.basis_element(words.index(wa)), J.basis_element(words.index(wb))
        lhs = phi_word(wa + wb) if len(wa + wb) < 3 else A.zero()
        prod = ua * ub
        rhs_coords = [0] * A.dim
        rhs = A.zero()
        for t, c in enumerate(prod.coords):
            if c:
                rhs = rhs + phi_word(words[t]).scale(c)
        assert lhs == rhs


def test_element_arithmetic_and_render():
    A = strictly_upper_triangular(3, gf(2))
    v = _from_labels(A, {"e12": 1, "e23": 1})
    assert (v * v).render() == "e13"
    assert (v + v).is_zero()
    assert _from_labels(A, {"e13": 1}).render() == "e13"
    B = free_nilpotent(LAMBDA_RING, 1, 3, names=["t"])
    w = B.element((Poly.lam(), Poly.const(0)))
    assert (w * w).render() == "lam^2*t*t"


def test_subspace_basics():
    A = strictly_upper_triangular(4, gf(3))
    S = Subspace.from_vectors(A, [_from_labels(A, {"e12": 1, "e13": 2}), _from_labels(A, {"e13": 1})])
    assert S.dim == 2
    assert S.pivots == (0, 3)
    assert S.contains(_from_labels(A, {"e12": 2, "e13": 1}))
    assert not S.contains(A.basis_element(1))
    assert S.coords_of(_from_labels(A, {"e12": 1})) == (1, 0)


def test_closures_and_ideals():
    A = strictly_upper_triangular(4, gf(2))
    grown = subalgebra_closure(A, [A.basis_element(0), A.basis_element(1)])
    assert grown.dim == 3  # e12, e23 and their product e13
    assert is_subalgebra(A, grown)
    # the ideal generated by e12 is span{e12, e13, e14}: an ideal, and no
    # proper subspace of it that contains e12 is one
    e12, e13, e14 = (_from_labels(A, {x: 1}) for x in ("e12", "e13", "e14"))
    ide = Subspace.from_vectors(A, [e12, e13, e14])
    assert ide.pivots == (0, 3, 5)
    assert is_ideal(A, ide)
    assert not is_ideal(A, Subspace.from_vectors(A, [e12]))
    for v in (e13, e14, e13 + e14):
        assert not is_ideal(A, Subspace.from_vectors(A, [e12, v]))


def test_quotient_algebra():
    A = strictly_upper_triangular(3, gf(2))
    Q, project, lift = quotient_algebra(A, A.power_subspace(2))
    assert Q.dim == 2
    assert Q.labels == ("e12", "e23")
    assert not Q.sc  # abelian: all products fall into the ideal
    assert project((0, 0, 1)) == (0, 0)
    assert lift((1, 0)) == (1, 0, 0)
    assert project(A.mul_coords(lift((1, 0)), lift((0, 1)))) == (0, 0)
    with pytest.raises(NotAnIdeal):
        quotient_algebra(A, Subspace.from_vectors(A, [A.basis_element(0)]))


def _with_null(A):
    """A with one more basis vector z whose products all vanish, so that z
    lies in Ann(A) but not in A^2."""
    return Algebra(A.ring, A.dim + 1, dict(A.sc), labels=A.labels + ("z",), check=False)


@pytest.mark.parametrize("make", [
    lambda: strictly_upper_triangular(3, gf(2)),
    lambda: strictly_upper_triangular(4, gf(2)),
    lambda: free_nilpotent(FieldRing(gf(2)), 2, 3),
    lambda: _with_null(strictly_upper_triangular(3, gf(2))),
    lambda: Algebra(FieldRing(gf(3)), 2, {}, check=False),
], ids=["ul(3,2)", "ul(4,2)", "free(2,2,3)", "ul(3,2)+z", "F_3^2"])
def test_annihilator_matches_a_scan_of_all_elements(make):
    A = make()
    q = A.ring.field.q
    basis = A.basis()
    everything = [A.element(c) for c in itertools.product(range(q), repeat=A.dim)]
    scanned = {x for x in everything
               if all((x * b).is_zero() and (b * x).is_zero() for b in basis)}
    ann = annihilator(A)
    assert {x for x in everything if ann.contains(x)} == scanned
    assert len(scanned) == q ** ann.dim
    assert annihilator(A) is ann


def test_standalone_subalgebra():
    A = strictly_upper_triangular(3, gf(2))
    S = Subspace.from_vectors(A, [A.basis_element(0), A.basis_element(2)])
    B = subalgebra_algebra(A, S)
    assert B.dim == 2 and not B.sc
    assert B.embed_rows == ((1, 0, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        subalgebra_algebra(A, Subspace.from_vectors(A, [A.basis_element(0), A.basis_element(1)]))


def test_json_roundtrip_and_key():
    A = strictly_upper_triangular(3, gf(4))
    data = A.to_json()
    B = Algebra.from_json(data)
    key = json.dumps(B.to_json(), sort_keys=True)
    assert key == json.dumps(data, sort_keys=True)
    assert B.labels == A.labels
    assert B.mul_coords(B._unit[0], B._unit[1]) == A.mul_coords(A._unit[0], A._unit[1])


def _random_element(A, rng):
    q = A.ring.field.q
    return A.element(tuple(rng.randrange(q) for _ in range(A.dim)))


def test_random_element_seeded():
    import random

    A = strictly_upper_triangular(3, gf(3))
    a = _random_element(A, random.Random(7))
    b = _random_element(A, random.Random(7))
    assert a == b
