import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oneplusa import chars, cli, gutkin, nilalg, unitgroup
from oneplusa.catalog import BUILTIN, resolve
from oneplusa.chars import character_table
from oneplusa.errors import CapExceeded, NotASubgroup, NotNormal
from oneplusa.exactfield import gf
from oneplusa.gutkin import quotient_pairing
from oneplusa.identities import beta
from oneplusa.linalg import field_arrays
from oneplusa.nilalg import (
    Algebra,
    FieldRing,
    Subspace,
    Z_RING,
    free_nilpotent,
    strictly_upper_triangular,
)
from oneplusa.unitgroup import (
    FiniteGroupTable,
    Subgroup,
    UnitGroup,
    check_commutator_theorem,
    commutator_subgroup,
    digits,
    map_indices,
    power_subgroup,
    sorted_unique,
    subgroup_closure,
    subspace_subgroup,
    undigits,
    unit,
    unit_group_of,
)
from test_nilalg import _from_labels, combine


def ul(n, q):
    return UnitGroup(strictly_upper_triangular(n, gf(q)))


def test_index_coords_roundtrip():
    G = ul(3, 3)
    for n in (0, 1, 5, 13, 26):
        assert G.index_of_coords(G.coords_of_index(n)) == n
    # coordinate 0 is the most significant digit
    assert G.coords_of_index(1) == (0, 0, 1)
    assert G.coords_of_index(9) == (1, 0, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16])
def test_coordinate_maps_match_scalar_combine(q):
    # map_indices and span_indices against one scalar combine per
    # coordinate vector
    G = ul(3, q)
    ops = FieldRing(G.field)
    rng = np.random.default_rng(q)
    for k in (1, 2, 3):
        P = rng.integers(0, q, size=(k, 3))
        n = np.arange(q ** k)
        want = [G.index_of_coords(combine(c, P.tolist(), ops, 3))
                for c in digits(n, q, k).tolist()]
        assert map_indices(G.field, n, P).tolist() == want
        assert G.span_indices(P.tolist()).tolist() == want


def test_geometric_series_inverse():
    G = ul(3, 2)
    u = unit(_from_labels(G.algebra, {"e12": 1, "e23": 1}))
    v = u.inverse()
    # 1 + sum (-a)^i = 1 + e12 + e23 + e13 over GF(2)
    assert v.a.coords == (1, 1, 1)
    assert (u * v).a.is_zero() and (v * u).a.is_zero()


def test_table_is_a_group_exhaustively():
    for G in (ul(3, 2), ul(3, 3), ul(3, 4)):
        T = G.table
        n = G.order
        assert (T[0, :] == np.arange(n)).all()
        assert (T[:, 0] == np.arange(n)).all()
        left = T[T[:, :, None], np.arange(n)[None, None, :]]
        right = T[np.arange(n)[:, None, None], T[None, :, :]]
        assert (left == right).all()
        assert (T[np.arange(n), G.inv] == 0).all()


def test_table_matches_element_arithmetic():
    # the index API on index arrays against UnitElement arithmetic, on every
    # pair of elements: mul, inv, conj(a, g) = g^-1 a g, and comm against
    # identities.beta
    for G in (ul(3, 3), ul(4, 2), UnitGroup(free_nilpotent(FieldRing(gf(2)), 2, 3))):
        x = np.arange(G.order)
        els = [G.element(a) for a in x]
        invs = [u.inverse() for u in els]
        assert G.inv.tolist() == [G.index_of_coords(v.a.coords) for v in invs]
        mul = G.mul(x[:, None], x[None, :])
        conj = G.conj(x[:, None], x[None, :])
        comm = G.comm(x[:, None], x[None, :])
        for a, u in enumerate(els):
            for b, v in enumerate(els):
                uv = u * v
                assert mul[a, b] == G.index_of_coords(uv.a.coords)
                assert conj[a, b] == G.index_of_coords((invs[b] * uv).a.coords)
                assert comm[a, b] == G.index_of_coords(beta(u, v).a.coords)


def test_ul32_classes():
    G = ul(3, 2)
    sizes = [len(c) for c in G.conjugacy_classes()]
    assert sizes == [1, 1, 2, 2, 2]
    assert G.exponent() == 4
    # the center is the set of singleton classes: 1 and 1 + e13
    assert sorted(int(c[0]) for c in G.conjugacy_classes() if len(c) == 1) == [0, 1]


def test_ul33_classes():
    G = ul(3, 3)
    sizes = [len(c) for c in G.conjugacy_classes()]
    assert sizes == [1, 1, 1] + [3] * 8
    assert G.exponent() == 3
    # the three singletons are the center 1 + A^2 = {1, 1+e13, 1+2e13}
    assert sorted(int(c[0]) for c in G.conjugacy_classes() if len(c) == 1) == [0, 1, 2]


# class numbers of U_n(q), the unitriangular n x n group, from the literature
# (Vera-Lopez & Arregi 2003, LAA 370; Pak & Soffer, arXiv:1507.00411); an
# oracle independent of the class enumeration
CLASS_NUMBERS = {
    3: lambda q: q ** 2 + q - 1,
    4: lambda q: 2 * q ** 3 + q ** 2 - 2 * q,
    5: lambda q: 5 * q ** 4 - 5 * q ** 2 + 1,
}


@pytest.mark.parametrize(
    "n,q", [(3, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(4, 2), (4, 3), (5, 2)]
)
def test_class_numbers_match_the_literature(n, q):
    assert len(ul(n, q).conjugacy_classes()) == CLASS_NUMBERS[n](q)


def test_class_of_partitions():
    for G in (ul(3, 2), ul(3, 4), ul(4, 2)):
        classes = G.conjugacy_classes()
        assert sum(len(c) for c in classes) == G.order
        for t, c in enumerate(classes):
            assert (G.class_of[c] == t).all()
        # closed under conjugation by a non-generator sample
        g = G.order - 1
        for c in classes:
            assert set(G.conj(c, g).tolist()) == set(c.tolist())


def test_generators_generate():
    for G in (ul(3, 2), ul(3, 4), ul(4, 3)):
        gens = G.generator_indices()
        assert len(gens) == G.field.k * G.algebra.dim
        assert len(G.subgroup_closure(gens)) == G.order


def test_power_subgroups_normal_lagrange():
    G = ul(4, 2)
    for m in (1, 2, 3):
        H = power_subgroup(G, m)
        assert G.order % H.order == 0
        assert G.is_normal(H.indices)
    assert power_subgroup(G, 2).order == 8
    assert power_subgroup(G, 3).order == 2
    assert power_subgroup(G, 4).order == 1


def test_commutator_subgroup_ul4():
    G = ul(4, 2)
    whole = power_subgroup(G, 1)
    D = commutator_subgroup(whole, whole)
    P = power_subgroup(G, 2)
    assert D.order == 8
    assert D.indices.tolist() == P.indices.tolist()


def test_commutator_subgroup_heisenberg():
    G = ul(3, 3)
    whole = power_subgroup(G, 1)
    D = commutator_subgroup(whole, whole)
    assert D.order == 3
    assert D.indices.tolist() == [0, 1, 2]


def test_commutator_of_two_subgroups():
    G = ul(4, 2)
    whole = power_subgroup(G, 1)
    assert whole.indices.tolist() == list(range(G.order))
    S2 = power_subgroup(G, 2)
    S3 = power_subgroup(G, 3)
    C = commutator_subgroup(whole, S2)
    # (1+A, 1+A^2) lands inside 1+A^3, and here fills it
    assert C.order == S3.order == 2
    assert set(map(int, C.indices)) == set(map(int, S3.indices))
    H = ul(3, 2)
    with pytest.raises(TypeError):
        commutator_subgroup(whole, power_subgroup(H, 2))


def _scan_commutator_subgroup(left, right):
    # reference: the closure of comm(x, y) over all |M| x |N| pairs, one row
    # of products per x
    group = left.group
    out = set()
    for x in left.indices.tolist():
        out.update(np.unique(group.comm(x, right.indices)).tolist())
    return group.subgroup_closure(np.array(sorted(out), dtype=np.int64))


def _span_subgroup(G, *labels):
    A = G.algebra
    space = Subspace.from_vectors(A, [_from_labels(A, {l: 1}) for l in labels])
    return subspace_subgroup(G, space)


@pytest.mark.parametrize("target,spans", [
    # 1+e12, 1+e34 against 1+e23, 1+e45: their commutators close to order
    # 16, the conjugates under the generators of one side only reach 32
    ("ul(5,2)", [("e12", "e34"), ("e23", "e45")]),
    ("ul(4,3)", []),
    ("free(3,2,3)", []),
    ("ul(3,4)", []),
])
def test_commutator_subgroup_matches_the_full_scan(target, spans):
    G = UnitGroup(resolve(target))
    top = G.algebra.nilpotency_index
    subgroups = [power_subgroup(G, m) for m in range(1, top + 1)]
    subgroups += [_span_subgroup(G, *labels) for labels in spans]
    for M in subgroups:
        for N in subgroups:
            want = _scan_commutator_subgroup(M, N)
            assert np.array_equal(commutator_subgroup(M, N).indices, want)
    if spans:
        assert commutator_subgroup(*subgroups[-2:]).order == 64


def test_commutators_suite_forms_few_commutators(monkeypatch, capsys):
    # (1+A^m, 1+A^n) comes from the commutators of generators; the scan of
    # every |1+A^m| x |1+A^n| pair formed 2,435,577 here
    formed = []
    real = FiniteGroupTable.comm

    def counting(self, x, y):
        out = real(self, x, y)
        formed.append(np.size(out))
        return out

    monkeypatch.setattr(FiniteGroupTable, "comm", counting)
    assert cli.main(["verify", "ul(5,2)", "--suite", "commutators"]) == 0
    capsys.readouterr()
    assert 0 < sum(formed) <= 10_000


def test_quotient_group_is_a_homomorphic_image():
    G = ul(4, 2)
    Q, proj, _ = G.quotient(power_subgroup(G, 2).indices)
    assert Q.order == 2 ** 3  # dim A/A^2 = 3
    T, QT = G.table, Q.table
    for x in range(G.order):
        row_ok = (proj[T[x]] == QT[proj[x]][proj]).all()
        assert row_ok
    x = np.arange(Q.order)
    assert not Q.comm(x[:, None], x[None, :]).any()  # abelian


def test_commutator_theorem_all_levels():
    for alg in (
        strictly_upper_triangular(4, gf(2)),
        strictly_upper_triangular(3, gf(3)),
        free_nilpotent(FieldRing(gf(2)), 2, 3),
    ):
        G = UnitGroup(alg)
        top = alg.nilpotency_index
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                ok, witness = check_commutator_theorem(G, m, n)
                assert ok, (m, n, witness)


def test_subgroup_verification_accepts_closed_set():
    G = ul(3, 2)
    H = Subgroup(G, [0, G.index_of_coords((1, 0, 0))])  # {1, 1+e12}
    assert H.order == 2


def test_subgroup_not_closed_detected():
    G = ul(3, 2)
    bad = [0, G.index_of_coords((1, 0, 0)), G.index_of_coords((0, 1, 0))]
    with pytest.raises(NotASubgroup):
        Subgroup(G, bad)
    with pytest.raises(NotASubgroup):
        Subgroup.from_subspace(G, Subspace.unit(G.algebra, [0, 1]))
    # the message names the first product outside, as the double loop did
    with pytest.raises(NotASubgroup) as exc:
        Subgroup.from_subspace(G, Subspace.unit(G.algebra, [1, 0]))
    assert str(exc.value) == "subspace not multiplicatively closed: (e12)(e23)"


def test_std_group_embedding():
    G = ul(4, 2)
    H = power_subgroup(G, 2)
    Hg, emb, sub_of = H.std_group
    assert Hg.order == H.order == 8
    for a in range(Hg.order):
        for b in range(Hg.order):
            assert emb[Hg.table[a, b]] == G.table[emb[a], emb[b]]
    assert H.mask[emb].all()
    assert sub_of[int(emb[3])] == 3
    assert (sub_of[~H.mask] == -1).all()


def test_generators_scale_each_row_by_the_field_basis():
    # 1 + x^t r for x^t over the polynomial basis of GF(4) (outer) and r over
    # the rows (inner): the basis of A for the whole group, B's rows for 1 + B
    A = strictly_upper_triangular(3, gf(4))
    G = UnitGroup(A)
    F = G.field
    B = Subspace.from_vectors(A, [(1, F.gen.index, 0), (0, 0, 1)])
    H = Subgroup.from_subspace(G, B)
    for gens, rows in ((G.generator_indices(), np.eye(3, dtype=int).tolist()),
                       (H.generator_indices(), B.rows)):
        want = [G.index_of_coords([F.mul_idx(x, c) for c in row])
                for x in (F.one.index, F.gen.index) for row in rows]
        assert gens == want
    # a subspace whose span is not the subgroup's index set fails the closure
    bad = Subgroup(G, power_subgroup(G, 2).indices, subspace=A.power_subspace(1))
    with pytest.raises(NotASubgroup):
        bad.generator_indices()


def _skew_truncated_polynomial():
    # F_3[e]/(e^3) in the basis f1 = e, f2 = 2e + e^2, which is not adapted
    # to the power filtration: 1 + f2 = (1 + f1)^2
    sc = {(0, 0): ((0, 1), (1, 1)), (0, 1): ((0, 2), (1, 2)),
          (1, 0): ((0, 2), (1, 2)), (1, 1): ((0, 1), (1, 1))}
    return Algebra(FieldRing(gf(3)), 2, sc, labels=["f1", "f2"])


def test_generators_come_from_adapted_rows_when_the_basis_falls_short(monkeypatch):
    # the basis rows of the skew F_3[e]/(e^3) generate only <1 + e>; the
    # retry takes rows adapted to A > A^2 > 0 (one in A^2 = span{e^2}), and
    # those generate the group.  An adapted basis never reaches the retry.
    A = _skew_truncated_polynomial()
    G = UnitGroup(A)
    eye = np.eye(2, dtype=np.int64)
    assert len(G.subgroup_closure(unitgroup._row_generators(G, eye))) == 3
    rows = nilalg.adapted_rows(A, eye)
    square = A.power_subspace(2)
    assert square.dim == 1 and sum(map(square.contains, rows)) == 1
    assert Subspace.from_vectors(A, rows) == A.power_subspace(1)
    assert np.array_equal(G.subgroup_closure(G.generator_indices()), np.arange(9))
    assert G.generator_indices() == unitgroup._row_generators(G, rows)

    def refuse(*args):
        raise AssertionError("an adapted basis took the retry")

    monkeypatch.setattr(unitgroup, "adapted_rows", refuse)
    for target in ("free(3,1,3)", "ul(4,2)", "free(2,2,3)", "ul(3,4)"):
        H = UnitGroup(resolve(target))
        assert len(H.subgroup_closure(H.generator_indices())) == H.order


def test_points_order_first_row_most_significant():
    # from_subspace and std_group enumerate 1+B in the base-q order of the
    # coefficients on the rows of B, first row most significant
    G = ul(3, 2)
    H = Subgroup.from_subspace(G, Subspace.unit(G.algebra, [0, 2]))
    _, emb, _ = H.std_group
    coords = [G.coords_of_index(int(n)) for n in emb]
    assert coords == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
    assert H.indices.tolist() == sorted(emb.tolist())
    G = ul(4, 3)
    A = G.algebra
    H = Subgroup.from_subspace(G, Subspace.from_vectors(A, [A.basis_element(0)]))
    _, emb, _ = H.std_group
    assert [G.coords_of_index(int(n)) for n in emb] == [
        (c, 0, 0, 0, 0, 0) for c in range(3)
    ]


def test_quotient_by_center():
    G = ul(3, 2)
    Z = power_subgroup(G, 2)
    Q, proj, reps = G.quotient(Z.indices)
    assert Q.order == 4
    x = np.arange(Q.order)
    assert not Q.comm(x[:, None], x[None, :]).any()  # abelian
    assert Q.exponent() == 2
    assert proj[0] == 0 and reps[0] == 0
    # the quotient is generated by the images of G's generators
    assert Q.generator_indices() == sorted({int(proj[g]) for g in G.generator_indices()})
    assert len(Q.subgroup_closure(Q.generator_indices())) == Q.order
    # {1, 1+e12} is not normal: 1+e23 conjugates 1+e12 to 1+e12+e13
    H = [0, G.index_of_coords((1, 0, 0))]
    assert G.conj(H[1], G.index_of_coords((0, 1, 0))) == G.index_of_coords((1, 0, 1))
    assert not G.is_normal(H)
    with pytest.raises(NotNormal):
        G.quotient(H)


def _order_of(G, x):
    # the order of x, one product at a time
    n, y = 1, x
    while y != 0:
        y = int(G.mul(y, x))
        n += 1
    return n


def _power_of(G, x, n):
    # x^n by repeated squaring
    y, b = 0, x
    while n:
        if n & 1:
            y = int(G.mul(y, b))
        b = int(G.mul(b, b))
        n >>= 1
    return y


@pytest.mark.parametrize(
    "make,expected",
    [(lambda: ul(3, 2), 4), (lambda: ul(3, 3), 3), (lambda: ul(4, 2), 4),
     (lambda: UnitGroup(free_nilpotent(FieldRing(gf(2)), 1, 5)), 8)],
    ids=["ul(3,2)", "ul(3,3)", "ul(4,2)", "free(2,1,5)"],
)
def test_exponent_is_the_lcm_of_element_orders(make, expected):
    G = make()
    lcm = 1
    for x in range(G.order):
        lcm = np.lcm(lcm, _order_of(G, x))
    assert G.exponent() == lcm == expected


def test_subgroup_closure_small():
    G = ul(3, 2)
    H = subgroup_closure(G, [G.index_of_coords((1, 0, 0))])
    assert H.order == 2
    K = subgroup_closure(G, [G.index_of_coords((1, 0, 0)), G.index_of_coords((0, 1, 0))])
    assert K.order == 8  # e12, e23 generate everything


def _fixed_point_closure(T, gens):
    members = {0, *gens}
    while True:
        grown = {int(T[x, y]) for x in members for y in members} | members
        if grown == members:
            return sorted(members)
        members = grown


@pytest.mark.parametrize("group", [
    lambda: ul(3, 4),
    lambda: UnitGroup(free_nilpotent(FieldRing(gf(2)), 2, 3)),
])
def test_subgroup_closure_matches_fixed_point(group):
    G = group()
    T = G.table
    rng = np.random.default_rng(11)
    for size in (0, 1, 1, 2, 2, 3, 4):
        gens = [int(g) for g in rng.choice(G.order, size=size, replace=False)]
        got = G.subgroup_closure(gens)
        assert got.dtype == np.int64
        assert got.tolist() == _fixed_point_closure(T, gens)


def test_unit_elements_over_integers():
    J = free_nilpotent(Z_RING, 2, 4)
    x1, x2 = J.basis_element(0), J.basis_element(1)
    u, v = unit(x1), unit(x2)
    assert (u * u.inverse()).a.is_zero()
    assert (u.inverse() * u).a.is_zero()
    c = beta(u.inverse(), v.inverse())
    assert c == u.inverse() * v.inverse() * u * v
    # defining relation u v = v u [u, v], and u v = beta(u, v) v u
    assert (v * u) * c == u * v
    assert beta(u, v) * (v * u) == u * v
    # leading term of the commutator is the ring bracket x1 x2 - x2 x1
    bracket = x1 * x2 - x2 * x1
    diff = c.a - bracket
    assert all(
        diff.coords[t] == 0
        for t, lab in enumerate(J.labels)
        if len(lab.split("*")) <= 2
    )


def test_unit_element_powers_and_order():
    G = ul(3, 2)
    u = unit(_from_labels(G.algebra, {"e12": 1, "e23": 1}))
    u2 = u * u
    assert u2.a.coords == (0, 0, 1)  # (1+a)^2 = 1 + e13
    assert not (u2 * u).a.is_zero()
    assert (u2 * u2).a.is_zero()  # u has order 4
    assert u2 * u == u.inverse()


def test_commutator_containment_small():
    for alg in (
        strictly_upper_triangular(3, gf(2)),
        strictly_upper_triangular(4, gf(2)),
        free_nilpotent(FieldRing(gf(2)), 2, 3),
    ):
        G = UnitGroup(alg)
        nil = alg.nilpotency_index
        for m in range(1, nil):
            for n in range(1, nil - m + 1):
                assert check_commutator_theorem(G, m, n) == (True, None)


def test_group_cap():
    with pytest.raises(CapExceeded):
        UnitGroup(strictly_upper_triangular(3, gf(2)), cap=4)
    big = UnitGroup(free_nilpotent(FieldRing(gf(2)), 2, 4))
    assert big.order == 2 ** 14
    with pytest.raises(CapExceeded):
        _ = big.table


def test_unit_group_of_checks_the_cap_on_every_call():
    # the group is kept on its algebra, and a smaller cap refuses it there
    # just as it refuses a fresh algebra
    A = strictly_upper_triangular(3, gf(4))
    G = unit_group_of(A)
    assert G.order == 64 and unit_group_of(A, cap=64) is G
    with pytest.raises(CapExceeded):
        unit_group_of(A, cap=16)
    with pytest.raises(CapExceeded):
        unit_group_of(strictly_upper_triangular(3, gf(4)), cap=16)


def _memo_groups():
    # ul(3,3) and its standalone copy as the unit group of 1 + A itself:
    # two owners of the same shape
    G = ul(3, 3)
    return G, subspace_subgroup(G, G.algebra.power_subspace(1)).std_group[0]


def _memo_subgroups():
    return tuple(subspace_subgroup(X, X.algebra.power_subspace(2)) for X in _memo_groups())


MEMO_CASES = [
    # (owners, read, (namespace, name) of the counted build, error, builds
    # after two failed reads)
    pytest.param(_memo_groups, lambda G: G.table, (UnitGroup, "_build_table"),
                 None, None, id="table"),
    pytest.param(_memo_groups, UnitGroup.conjugacy_classes, (UnitGroup, "_class_partition"),
                 None, None, id="classes"),
    pytest.param(_memo_groups, character_table, (chars, "_character_table"),
                 None, None, id="character_table"),
    pytest.param(_memo_groups, lambda G: quotient_pairing(G, 2), (gutkin, "_quotient_pairing"),
                 None, None, id="quotient_pairing"),
    pytest.param(_memo_groups, lambda G: subspace_subgroup(G, G.algebra.power_subspace(2)),
                 (Subgroup, "from_subspace"), None, None, id="subspace_subgroup"),
    pytest.param(_memo_subgroups, lambda H: H.std_group, (unitgroup, "subalgebra_algebra"),
                 None, None, id="std_group"),
    pytest.param(lambda: tuple(X.algebra for X in _memo_groups()), unit_group_of,
                 (UnitGroup, "__init__"), None, None, id="unit_group_of"),
    # the table cap is checked before the memo is read, so no build starts
    pytest.param(lambda: (ul(5, 3),), lambda G: G.table, (UnitGroup, "_build_table"),
                 CapExceeded, 0, id="table-past-cap"),
    # the group cap fails inside the build, which then stores nothing
    pytest.param(lambda: (strictly_upper_triangular(3, gf(4)),),
                 lambda A: unit_group_of(A, cap=16), (UnitGroup, "__init__"),
                 CapExceeded, 2, id="unit-group-past-cap"),
]


@pytest.mark.parametrize("owners,read,build,error,failed_builds", MEMO_CASES)
def test_memo_builds_each_key_once_per_owner(monkeypatch, owners, read, build, error,
                                             failed_builds):
    # a key is built once per owner and a second read returns the same
    # object; an owner of the same shape builds its own entry; a read that
    # raises leaves no entry, so the next read raises again
    owners = owners()
    namespace, name = build
    real = getattr(namespace, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(namespace, name, counting)
    if error is not None:
        for _ in range(2):
            with pytest.raises(error):
                read(owners[0])
        assert len(calls) == failed_builds
        return
    first, other = owners
    value = read(first)
    assert read(first) is value
    assert len(calls) == 1
    assert read(other) is not value
    assert read(other) is read(other)
    assert len(calls) == 2


def _coeff_add(field, a, b):
    """a + b on element indices, from the coefficient vectors mod p."""
    ca, cb = field.elements[a].coeffs, field.elements[b].coeffs
    return field.element([x + y for x, y in zip(ca, cb)]).index


def _coeff_mul(field, a, b):
    """a b on element indices, from the coefficient vectors: the polynomial
    product, its top terms reduced by x^k = -(m_0 + ... + m_{k-1} x^(k-1))
    for the monic modulus m of degree k."""
    k, m = field.k, field.modulus
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(field.elements[a].coeffs):
        for j, y in enumerate(field.elements[b].coeffs):
            prod[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        c, prod[d] = prod[d], 0
        for t in range(k):
            prod[d - k + t] -= c * m[t]
    return field.element(prod[:k]).index


def _scalar_tables(field):
    """The q x q addition and multiplication tables of a field on element
    indices, from polynomial arithmetic on the coefficient vectors: a
    reference that reads neither the field's log tables nor its digit
    formulas, which the scalar and the array arithmetic share."""
    q = field.q
    return tuple(
        np.array([[op(field, a, b) for b in range(q)] for a in range(q)], dtype=np.int16)
        for op in (_coeff_add, _coeff_mul)
    )


def _reference_table(G):
    # the coordinate build the digit arithmetic replaced: every coordinate of
    # every pair through the 2-D field tables, one structure constant at a time
    N, d, q = G.order, G.algebra.dim, G.field.q
    add_t, mul_t = _scalar_tables(G.field)
    E = digits(np.arange(N), q, d).astype(np.int16)
    table = np.empty((N, N), dtype=np.int32)
    block = max(1, (1 << 22) // max(1, N * d))
    for start in range(0, N, block):
        X = E[start:start + block]
        Z = add_t[X[:, None, :], E[None, :, :]]
        for (i, j), entry in G.algebra.sc.items():
            prod = mul_t[X[:, None, i], E[None, :, j]]
            for k, c in entry:
                term = prod if c == 1 else mul_t[prod, c]
                Z[:, :, k] = add_t[Z[:, :, k], term]
        acc = table[start:start + len(X)]
        acc[:] = 0
        for k in range(d):
            acc *= q
            acc += Z[:, :, k]
    return table


@pytest.mark.parametrize(
    "target",
    [e.name for e in BUILTIN]
    + ["ul(3,5)", "ul(3,8)", "ul(3,9)", "ul(4,3)", "ul(5,2)", "ul(3,16)", "ul(4,4)"],
)
def test_table_matches_the_coordinate_build(target):
    G = UnitGroup(resolve(target))
    assert np.array_equal(G.table, _reference_table(G))


def _random_basis(A, seed):
    # A in the basis given by the rows of a random invertible matrix P over
    # GF(q): f_i f_j = sum_k c_ijk f_k, with the coordinates of the product
    # solved through the index permutation v -> v P
    field, d = A.ring.field, A.dim
    rng = np.random.default_rng(seed)
    while True:
        P = rng.integers(0, field.q, size=(d, d))
        image = map_indices(field, np.arange(field.q ** d), P)
        if len(np.unique(image)) == len(image):
            break
    solve = np.empty_like(image)
    solve[image] = np.arange(len(image))
    rows = [tuple(int(c) for c in row) for row in P]
    sc = {}
    for i in range(d):
        for j in range(d):
            w = A.mul_coords(rows[i], rows[j])
            v = digits(solve[undigits(w, field.q)], field.q, d).tolist()
            kept = tuple((k, c) for k, c in enumerate(v) if c)
            if kept:
                sc[(i, j)] = kept
    return Algebra(A.ring, d, sc)


@pytest.mark.parametrize("target,seeds", [
    ("ul(4,2)", (1, 2, 3)), ("free(2,2,3)", (4, 5)), ("ul(3,3)", (6, 7)),
    ("free(3,2,3)", (8,)), ("ul(3,4)", (9, 10, 11)), ("ul(3,9)", (12, 13)),
])
def test_table_matches_the_coordinate_build_in_random_bases(target, seeds):
    # the catalog bases have structure constants 1 and one term per product;
    # random bases give other constants and products with several terms
    algebras = [_random_basis(resolve(target), seed) for seed in seeds]
    entries = [entry for A in algebras for entry in A.sc.values()]
    assert any(len(entry) > 1 for entry in entries)
    if algebras[0].ring.field.q > 2:
        assert any(c != 1 for entry in entries for _, c in entry)
    for A in algebras:
        G = UnitGroup(A)
        assert np.array_equal(G.table, _reference_table(G))


def test_table_build_needs_little_beyond_the_table():
    # the row blocks keep the build's transients small: the coordinate build
    # peaked about 17 MB over the 64 MB ul(4,4) table
    G = UnitGroup(resolve("ul(4,4)"))
    field_arrays(G.field)
    tracemalloc.start()
    try:
        table = G._build_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 4 * 2 ** 20


# ---------------------------------------------------------------------------
# set operations without numpy.ma, and a table that is not a group


def run_python(code, timeout):
    """Run code in a fresh interpreter that imports this package, with a time limit."""
    src = os.path.dirname(os.path.dirname(unitgroup.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)


@pytest.mark.parametrize("shape,high,dtype", [
    ((0,), 5, np.int64), ((1,), 5, np.int64), ((40,), 6, np.int64),
    ((5000,), 1000, np.int64), ((25000,), 4096, np.int32), ((30, 17), 50, np.int64),
    ((0, 3), 5, np.int32), ((64, 64), 4096, np.int32),
])
def test_sorted_unique_is_numpys_unique(shape, high, dtype):
    rng = np.random.default_rng(sum(shape) + high)
    for _ in range(3):
        values = rng.integers(0, high, size=shape).astype(dtype)
        before = values.copy()
        got, want = sorted_unique(values), np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(values, before)  # the input is left as it was


def test_exponent_of_a_table_that_is_not_a_group_names_an_element():
    # in a fresh interpreter with a time limit, so that an unbounded powering
    # loop fails this test instead of stalling the suite: x max y has
    # identity 0, and every x != 0 is its own power forever, so the
    # first witness is 1
    code = (
        "import numpy as np\n"
        "from oneplusa.errors import VerificationFailed\n"
        "from oneplusa.unitgroup import FiniteGroupTable\n"
        "G = FiniteGroupTable(np.maximum.outer(np.arange(5), np.arange(5)), [1, 2, 3, 4])\n"
        "try:\n"
        "    G.exponent()\n"
        "except VerificationFailed as err:\n"
        "    print(err.stage, err.witness)\n"
    )
    proc = run_python(code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["power-order-is-identity", "1"]
