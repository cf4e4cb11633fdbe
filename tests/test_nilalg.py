import itertools
import json
import random

import pytest

from oneplusa import linalg
from oneplusa.catalog import BUILTIN, resolve
from oneplusa.errors import CapExceeded, NotAnIdeal, NotAssociative, NotNilpotent
from oneplusa.exactfield import gf
from oneplusa.nilalg import (
    FREE_DIM_CAP,
    LAMBDA_RING,
    Z_RING,
    Algebra,
    FieldRing,
    Poly,
    QuotientSpace,
    Subspace,
    annihilator,
    free_nilpotent,
    adapted_rows,
    is_ideal,
    product_outside,
    quotient_algebra,
    strictly_upper_triangular,
    subalgebra_algebra,
    subalgebra_closure,
)


# ---------------------------------------------------------------------------
# the scalar references: pure-Python vector routines on tuples of field
# element indices with a ring's ops, one field call per entry, against which
# the FieldArrays arithmetic of Subspace, QuotientSpace, annihilator and
# adapted_rows is checked


def reduce_vector(vec, rows, pivots, ops):
    """Eliminate the pivot coordinates of vec against RREF rows; the residual
    is zero exactly when vec lies in the row space."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if not ops.is_zero(c):
            v = [ops.sub(a, ops.mul(c, b)) for a, b in zip(v, row)]
    return tuple(v)


def in_rowspace(vec, rows, pivots, ops):
    return all(ops.is_zero(c) for c in reduce_vector(vec, rows, pivots, ops))


def combine(coeffs, rows, ops, width):
    """sum of coeffs[i] * rows[i], coordinate-wise, as a tuple of length width."""
    acc = [ops.zero] * width
    for c, row in zip(coeffs, rows):
        if not ops.is_zero(c):
            acc = [ops.add(a, ops.mul(c, b)) for a, b in zip(acc, row)]
    return tuple(acc)


def coords_in_rowspace(vec, rows, pivots, ops):
    """Coefficients of vec in an RREF basis, or None if vec is outside it."""
    coeffs = tuple(vec[p] for p in pivots)
    if combine(coeffs, rows, ops, len(vec)) != tuple(vec):
        return None
    return coeffs


def nullspace(rows, ncols, ops):
    """Canonical RREF basis of {x : M x = 0} where rows are the rows of M."""
    red, pivots = linalg.rref(rows, ops)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for row, p in zip(red, pivots):
            v[p] = ops.neg(row[fc])
        basis.append(tuple(v))
    out, _ = linalg.rref(basis, ops)
    return out


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
    # a zero operand gives the other one back
    zero = Poly(())
    for total, want in ((zero + lam, lam), (lam + zero, lam), (lam + 0, lam), (0 + lam, lam),
                        (zero + sq, sq), (zero + 3, Poly.const(3)), (zero + zero, zero)):
        assert total == want


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
    for ring in (FieldRing(gf(3)), Z_RING):  # over Z the products show it
        with pytest.raises(NotNilpotent):
            Algebra(ring, 1, {(0, 0): ((0, 1),)})


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
    assert sum(d >= 2 for d in J.graded_degrees) == 4  # the words spanning J^2


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
    els = grown.row_elements()
    assert product_outside(grown, els, els) is None
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


# ---------------------------------------------------------------------------
# the subspace constructions against the bodies they replaced

SUBSPACE_CASES = (
    [(e.name, None) for e in BUILTIN]
    + [(t, None) for t in ("ul(4,3)", "ul(5,2)", "ul(4,4)", "ul(3,16)", "free(2,3,3)",
                           "ul(3,9)", "free(2,1,5)", "free(3,1,4)")]
    + [(t, seed) for t, seeds in (
        ("ul(4,2)", (1, 2, 3)), ("free(2,2,3)", (4, 5)), ("ul(3,3)", (6, 7)),
        ("free(3,2,3)", (8, 9)), ("ul(3,4)", (10, 11, 12)), ("ul(4,3)", (13, 14, 15)),
    ) for seed in seeds]
)


def _subspace_case(target, seed):
    # a catalog basis, or the same algebra in a seeded random basis, which is
    # not adapted to the power filtration and has several-term products;
    # imported here, as test_unitgroup imports this module
    from test_unitgroup import _random_basis

    A = resolve(target)
    return A if seed is None else _random_basis(A, seed)


def _keep_quotient_algebra(algebra, ideal_space):
    # the reference: A / I on the unit vectors at I's non-pivot coordinates
    ring = algebra.ring
    pivot_set = set(ideal_space.pivots)
    keep = [j for j in range(algebra.dim) if j not in pivot_set]

    def project(coords):
        red = ideal_space.reduce(coords)
        return tuple(red[j] for j in keep)

    def lift(qcoords):
        coords = [ring.zero] * algebra.dim
        for j, c in zip(keep, qcoords):
            coords[j] = c
        return tuple(coords)

    sc = {}
    for a, j1 in enumerate(keep):
        for b, j2 in enumerate(keep):
            entry = project(algebra.mul_coords(algebra._unit[j1], algebra._unit[j2]))
            kept = tuple((k, c) for k, c in enumerate(entry) if not ring.is_zero(c))
            if kept:
                sc[(a, b)] = kept
    quotient = Algebra(ring, len(keep), sc, labels=[algebra.labels[j] for j in keep], check=False)
    return quotient, project, lift


def _greedy_ideal_flag(algebra):
    # the reference: the rows of each power, deepest first, each kept only
    # if the rows before it do not span it
    taken = []
    cur = Subspace.from_vectors(algebra, [])
    for k in range(algebra.nilpotency_index - 1, 0, -1):
        for row in algebra.power_subspace(k).rows:
            if cur.contains(row):
                continue
            taken.append(row)
            cur = Subspace.from_vectors(algebra, taken)
    return taken


def _mul_vec_ops(algebra, u, v, ops):
    # the reference: the all-entries product loop, every (i, j) of sc
    # tested for two zero coordinates, by the given ring or linalg ops
    out = [ops.zero] * algebra.dim
    for (i, j), entry in algebra.sc.items():
        ui, vj = u[i], v[j]
        if ops.is_zero(ui) or ops.is_zero(vj):
            continue
        c = ops.mul(ui, vj)
        for k, coeff in entry:
            out[k] = ops.add(out[k], ops.mul(c, coeff))
    return tuple(out)


@pytest.mark.parametrize("target,seed", SUBSPACE_CASES)
def test_quotient_algebra_matches_the_keep_coordinate_reference(target, seed):
    A = _subspace_case(target, seed)
    q = A.ring.field.q
    rng = random.Random(seed)
    ideals = [annihilator(A)] + [A.power_subspace(k) for k in range(1, A.nilpotency_index + 1)]
    for ideal in ideals:
        Q, project, lift = quotient_algebra(A, ideal)
        R, ref_project, ref_lift = _keep_quotient_algebra(A, ideal)
        assert (Q.dim, Q.labels, Q.sc) == (R.dim, R.labels, R.sc)
        vectors = [e.coords for e in A.basis()]
        vectors += [tuple(rng.randrange(q) for _ in range(A.dim)) for _ in range(8)]
        assert [project(v) for v in vectors] == [ref_project(v) for v in vectors]
        qvectors = [e.coords for e in Q.basis()]
        qvectors += [tuple(rng.randrange(q) for _ in range(Q.dim)) for _ in range(8)]
        assert [lift(v) for v in qvectors] == [ref_lift(v) for v in qvectors]


@pytest.mark.parametrize("target,seed", SUBSPACE_CASES)
def test_adapted_identity_rows_are_the_greedy_ideal_flag(target, seed):
    from oneplusa.gutkin import find_polarization

    A = _subspace_case(target, seed)
    flag = _greedy_ideal_flag(A)
    assert adapted_rows(A, [e.coords for e in A.basis()]) == flag
    # and that is the flag find_polarization restricts its form to
    find_polarization(A, [(0,) * A.dim])
    assert A.memo("ideal_flag", lambda: pytest.fail("no flag was built")) == flag


def _twisted_free(num_gens, nil_index):
    # the free nilpotent ring over Z with w1 w2 = (-2)^(|w1| |w2|) w1w2,
    # associative as |a||b| + |ab||c| = |a||bc| + |b||c|; no graded degrees,
    # so its nilpotency index comes from products
    free = free_nilpotent(Z_RING, num_gens, nil_index)
    deg = [len(label.split("*")) for label in free.labels]
    sc = {(i, j): tuple((k, (-2) ** (deg[i] * deg[j])) for k, _ in entry)
          for (i, j), entry in free.sc.items()}
    return Algebra(Z_RING, free.dim, sc, labels=free.labels)


def _reference_power_chain(A):
    ops = A.ring.linalg_ops()
    units = [tuple(ops.one if t == j else ops.zero for t in range(A.dim)) for j in range(A.dim)]
    chain, products = [Subspace.unit(A, range(A.dim))], []
    while chain[-1].dim:
        products.append([_mul_vec_ops(A, row, u, ops) for row in chain[-1].rows for u in units])
        chain.append(Subspace(A, *linalg.rref(products[-1], ops)))
    return chain, products


@pytest.mark.parametrize("make", [
    lambda: strictly_upper_triangular(4, gf(4)),
    lambda: _subspace_case("ul(3,4)", 10),
    lambda: _subspace_case("ul(4,2)", 1),
], ids=["ul(4,4)", "ul(3,4)-random", "ul(4,2)-random"])
def test_power_chain_products_match_the_ops_domain_reference(monkeypatch, make):
    A = make()
    chain, products = _reference_power_chain(A)
    ops = A.ring.linalg_ops()
    # mul_coords on the chain's rows and on random rows is the reference product
    rng = random.Random(A.dim)
    rows = [tuple(rng.randrange(A.ring.field.q) for _ in range(A.dim)) for _ in range(4)]
    for row in [r for level in chain for r in level.rows] + rows:
        for e in A.basis():
            assert A.mul_coords(row, e.coords) == _mul_vec_ops(A, row, e.coords, ops)
    # the chain row-reduces exactly the reference products, as field element
    # indices, to the same rows
    seen = []
    rref = linalg.rref

    def spy(rows, ops):
        seen.append([tuple((type(c), c) for c in r) for r in rows])
        return rref(rows, ops)

    monkeypatch.setattr(linalg, "rref", spy)
    assert [S.rows for S in A._power_chain()] == [S.rows for S in chain]
    assert seen == [[tuple((type(c), c) for c in r) for r in vecs] for vecs in products]


@pytest.mark.parametrize("ring", [Z_RING, LAMBDA_RING], ids=["Z", "Z[lam]"])
def test_linear_algebra_needs_a_finite_field(ring):
    # over Z and Z[lam] building or using a subspace fails with the one
    # message of linalg_ops, not with an AttributeError deep inside
    J = free_nilpotent(ring, 2, 3)
    whole = Subspace(J, [e.coords for e in J.basis()], range(J.dim))
    for build in (lambda: Subspace.from_vectors(J, J.basis()),
                  lambda: J.power_subspace(2),
                  lambda: is_ideal(J, whole)):
        with pytest.raises(TypeError, match="finite field"):
            build()


def test_nilpotency_over_z_comes_from_products():
    A = _twisted_free(2, 4)
    assert A.graded_degrees is None
    assert A.nilpotency_index == 4
    with pytest.raises(TypeError, match="finite field"):
        A.power_subspace(2)


def test_product_outside_names_the_first_product_outside():
    A = strictly_upper_triangular(4, gf(2))
    e12, e23, e34, e13 = (_from_labels(A, {x: 1}) for x in ("e12", "e23", "e34", "e13"))
    S = Subspace.from_vectors(A, [e12, e23, e34])
    els = S.row_elements()
    assert product_outside(S, els, els) == (e12, e23)
    assert product_outside(S, els[1:], els[:1]) is None  # e23 e12 = e34 e12 = 0
    assert product_outside(S, els[1:], els) == (e23, e34)
    closed = Subspace.from_vectors(A, [e12, e23, e13])
    assert product_outside(closed, closed.row_elements(), closed.row_elements()) is None


# ---------------------------------------------------------------------------
# the element layer against the bodies it replaced


def _reference_free_nilpotent(ring, num_gens, nil_index):
    # the reference: every pair of words visited, each product located by a
    # word -> position dict; returns (sc, labels)
    words = []
    for L in range(1, nil_index):
        words.extend(itertools.product(range(num_gens), repeat=L))
    pos = {w: t for t, w in enumerate(words)}
    sc = {}
    for a, w1 in enumerate(words):
        for b, w2 in enumerate(words):
            if len(w1) + len(w2) < nil_index:
                sc[(a, b)] = ((pos[w1 + w2], ring.one),)
    return sc, tuple("*".join(f"x{t + 1}" for t in w) for w in words)


def _free_cases():
    # every (g, n) within the cap for 2 <= g <= 19, the generator counts
    # with a product of two words inside the cap; g = 1 up to dimension 40
    # and at the cap, and g at the cap with n = 2 (the reference is
    # quadratic in the dimension)
    cases = [(1, n) for n in range(42)] + [(1, FREE_DIM_CAP + 1), (FREE_DIM_CAP, 2)]
    for g in range(2, 20):
        n = 0
        while sum(g ** L for L in range(1, n)) <= FREE_DIM_CAP:
            cases.append((g, n))
            n += 1
    return cases


@pytest.mark.parametrize("ring", [Z_RING, LAMBDA_RING, FieldRing(gf(2)), FieldRing(gf(4))],
                         ids=["Z", "Z[lam]", "GF(2)", "GF(4)"])
def test_free_nilpotent_matches_the_all_pairs_reference(ring):
    cases = _free_cases()
    assert (4, 5) in cases and (2, 8) in cases and (3, 6) in cases
    for g, n in cases:
        J = free_nilpotent(ring, g, n)
        sc, labels = _reference_free_nilpotent(ring, g, n)
        assert list(J.sc.items()) == list(sc.items()), (g, n)  # content and order
        assert J.labels == labels, (g, n)


def _random_symbolic(A, rng):
    # about half the coordinates zero, the rest small ints or polynomials in
    # lam, some of them with zero coefficients
    def scalar():
        if rng.random() < 0.5:
            return A.ring.zero
        if A.ring is Z_RING:
            return rng.randint(-3, 3)
        return Poly(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))
    return tuple(scalar() for _ in range(A.dim))


def _random_field(A, rng):
    q = A.ring.field.q
    return tuple(rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(A.dim))


@pytest.mark.parametrize("make,draw", [
    (lambda: free_nilpotent(LAMBDA_RING, 2, 4), _random_symbolic),
    (lambda: free_nilpotent(LAMBDA_RING, 3, 4), _random_symbolic),
    (lambda: free_nilpotent(LAMBDA_RING, 4, 5), _random_symbolic),
    (lambda: free_nilpotent(Z_RING, 2, 5), _random_symbolic),
    (lambda: _twisted_free(2, 4), _random_symbolic),
    (lambda: resolve("ul(4,4)"), _random_field),
    (lambda: resolve("free(4,2,3)"), _random_field),
    (lambda: _subspace_case("ul(3,4)", 10), _random_field),
    (lambda: resolve("ul(3,9)"), _random_field),
    (lambda: _subspace_case("ul(3,9)", 12), _random_field),
], ids=["free-Z[lam](2,4)", "free-Z[lam](3,4)", "free-Z[lam](4,5)", "free-Z(2,5)",
        "twisted-Z", "ul(4,4)", "free(4,2,3)", "ul(3,4)-random", "ul(3,9)", "ul(3,9)-random"])
def test_products_match_the_all_entries_reference(make, draw):
    A = make()
    rng = random.Random(A.dim)
    zero = A.zero().coords
    elements = [draw(A, rng) for _ in range(12)] + [zero] + A._unit[-2:]
    for u in elements:
        for v in elements:
            assert A.mul_coords(u, v) == _mul_vec_ops(A, u, v, A.ring)


@pytest.mark.parametrize("make", [
    lambda: free_nilpotent(LAMBDA_RING, 3, 3),
    lambda: free_nilpotent(Z_RING, 2, 4),
    lambda: strictly_upper_triangular(4, gf(9)),
    lambda: Algebra(FieldRing(gf(2)), 0, {}, check=False),
], ids=["Z[lam]", "Z", "GF(9)", "dim-0"])
def test_basis_vectors_are_built_on_demand(make):
    A = make()
    ring = A.ring
    assert "unit" not in vars(A).get("_memo", {})  # no eager list
    units = [tuple(ring.one if t == i else ring.zero for t in range(A.dim))
             for i in range(A.dim)]
    assert [A.basis_element(i).coords for i in range(A.dim)] == units
    assert A._unit == units and A._unit is A._unit  # one memo entry


# ---------------------------------------------------------------------------
# the FieldArrays arithmetic of the subspace constructions against the
# scalar references at the top of this module

REFERENCE_CASES = (
    [(e.name, None) for e in BUILTIN]
    + [(t, None) for t in ("ul(3,9)", "ul(3,16)", "ul(3,1024)", "free(1024,1,3)")]
    + [("ul(4,2)", 1), ("ul(3,3)", 6), ("free(3,2,3)", 8), ("ul(3,4)", 10),
       ("ul(3,9)", 12), ("ul(3,16)", 16), ("free(1024,1,3)", 17)]
)


def _reference_spaces(A, rng):
    # the powers of A, its annihilator, random spans of one to three
    # vectors, and each random span widened by one more vector
    q = A.ring.field.q
    spaces = [A.power_subspace(k) for k in range(1, A.nilpotency_index + 1)]
    spaces.append(annihilator(A))
    for size in (1, 2, 3):
        S = Subspace.from_vectors(A, [_random_field(A, rng) for _ in range(size)])
        spaces += [S, S.sum_with(Subspace.from_vectors(A, [_random_field(A, rng)]))]
    return spaces, q


def _reference_adapted_rows(A, rows):
    # the body adapted_rows had on the scalar references
    ops = A.ring
    rows = [tuple(int(c) for c in r) for r in rows]
    taken, cur = [], ((), ())
    for k in range(A.nilpotency_index - 1, 0, -1):
        both = rows + list(A.power_subspace(k).rows)
        null = nullspace([[r[c] for r in both] for c in range(A.dim)], len(both), ops)
        for coeffs in null:
            v = combine(coeffs[:len(rows)], rows, ops, A.dim)
            if not in_rowspace(v, *cur, ops):
                taken.append(v)
                cur = linalg.rref(taken, ops)
    return taken


def _reference_annihilator_rows(A):
    # the conditions x e_j = 0 and e_j x = 0 summed term by term, and their
    # null space
    ops = A.ring
    rows = {}
    for (i, j), entry in A.sc.items():
        for k, c in entry:
            for key, col in ((("right", j, k), i), (("left", i, k), j)):
                row = rows.setdefault(key, [ops.zero] * A.dim)
                row[col] = ops.add(row[col], c)
    return nullspace(list(rows.values()), A.dim, ops)


@pytest.mark.parametrize("target,seed", REFERENCE_CASES)
def test_subspace_arithmetic_matches_the_scalar_references(target, seed):
    A = _subspace_case(target, seed)
    ops = A.ring
    rng = random.Random(f"{target}-{seed}")
    spaces, q = _reference_spaces(A, rng)
    contained = set()
    for S in spaces:
        inside = [combine([rng.randrange(q) for _ in S.rows], S.rows, ops, A.dim)
                  for _ in range(3)]
        vectors = inside + [_random_field(A, rng) for _ in range(5)] + A._unit
        for v in vectors:
            assert S.contains(v) == in_rowspace(v, S.rows, S.pivots, ops)
            assert S.reduce(v) == reduce_vector(v, S.rows, S.pivots, ops)
            assert S.coords_of(v) == coords_in_rowspace(v, S.rows, S.pivots, ops)
        for T in spaces:
            want = all(in_rowspace(r, S.rows, S.pivots, ops) for r in T.rows)
            assert S.contains_subspace(T) == want
            contained.add(want)
    assert contained == {True, False}


@pytest.mark.parametrize("target,seed", REFERENCE_CASES)
def test_quotient_spaces_match_the_scalar_references(target, seed):
    A = _subspace_case(target, seed)
    ops = A.ring
    rng = random.Random(f"{target}-{seed}")
    spaces, q = _reference_spaces(A, rng)
    pairs = [(V, W) for V in spaces for W in spaces
             if all(in_rowspace(r, W.rows, W.pivots, ops) for r in V.rows)]
    assert any(V.dim < W.dim for V, W in pairs)
    for V, W in pairs:
        Qs = QuotientSpace(A, V, W)
        reduced = [reduce_vector(r, V.rows, V.pivots, ops) for r in W.rows]
        assert (Qs.rows, Qs.pivots) == linalg.rref([r for r in reduced if any(r)], ops)
        vectors = [combine([rng.randrange(q) for _ in W.rows], W.rows, ops, A.dim)
                   for _ in range(4)] + [_random_field(A, rng) for _ in range(2)]
        for v in vectors:
            want = coords_in_rowspace(reduce_vector(v, V.rows, V.pivots, ops),
                                      Qs.rows, Qs.pivots, ops)
            if want is None:
                with pytest.raises(ValueError, match="outside the numerator"):
                    Qs.project(v)
            else:
                assert Qs.project(v) == want
        for c in [tuple(rng.randrange(q) for _ in range(Qs.dim)) for _ in range(4)]:
            assert Qs.rep(c).coords == combine(c, Qs.rows, ops, A.dim)


@pytest.mark.parametrize("target,seed", REFERENCE_CASES)
def test_annihilator_and_adapted_rows_match_the_scalar_references(target, seed):
    A = _subspace_case(target, seed)
    rng = random.Random(f"{target}-{seed}")
    assert annihilator(A).rows == _reference_annihilator_rows(A)
    # adapted rows fix the ideal flag of the polarizations: the same rows,
    # in the same order
    spaces, _ = _reference_spaces(A, rng)
    for rows in [[e.coords for e in A.basis()]] + [S.rows for S in spaces]:
        assert adapted_rows(A, rows) == _reference_adapted_rows(A, rows)


def test_repeated_structure_constant_terms_add_up():
    # e1 e2 = e3 + e3 = 2 e3 over GF(3), and e1 e1 = e3 + 2 e3 = 0: the terms
    # of one e_k are merged when the algebra is built, in first-seen order,
    # and a sum of zero drops
    ring = FieldRing(gf(3))
    A = Algebra(ring, 3, {(0, 1): ((2, 1), (2, 1)), (1, 0): ((2, 1),), (0, 0): ((2, 1), (2, 2))})
    assert A.sc == {(0, 1): ((2, 2),), (1, 0): ((2, 1),)}
    assert A.mul_coords(*A._unit[:2]) == (0, 0, 2)
    B = Algebra(ring, 3, {(0, 1): ((2, 1), (1, 1), (2, 1))}, check=False)
    assert B.sc == {(0, 1): ((2, 2), (1, 1))}
    J = Algebra(Z_RING, 3, {(0, 1): ((2, 3), (2, -3)), (1, 0): ((2, 4), (2, 1))})
    assert J.sc == {(1, 0): ((2, 5),)}
