import numpy as np
import pytest

from oneplusa.errors import CapExceeded, NotASubgroup, NotNormal
from oneplusa.exactfield import gf
from oneplusa.identities import beta
from oneplusa.nilalg import (
    FieldRing,
    Subspace,
    Z_RING,
    free_nilpotent,
    strictly_upper_triangular,
)
from oneplusa.unitgroup import (
    Subgroup,
    UnitGroup,
    check_commutator_theorem,
    commutator_subgroup,
    power_subgroup,
    quotient_group,
    subgroup_closure,
    unit,
)


def ul(n, q):
    return UnitGroup(strictly_upper_triangular(n, gf(q)))


def test_index_coords_roundtrip():
    G = ul(3, 3)
    for n in (0, 1, 5, 13, 26):
        assert G.index_of_coords(G.coords_of_index(n)) == n
    # coordinate 0 is the most significant digit
    assert G.coords_of_index(1) == (0, 0, 1)
    assert G.coords_of_index(9) == (1, 0, 0)


def test_geometric_series_inverse():
    G = ul(3, 2)
    u = unit(G.algebra.from_labels({"e12": 1, "e23": 1}))
    v = u.inverse()
    # 1 + sum (-a)^i = 1 + e12 + e23 + e13 over GF(2)
    assert v.a.coords == (1, 1, 1)
    assert (u * v).is_identity() and (v * u).is_identity()


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
        assert G.inv.tolist() == [G.index_of(v) for v in invs]
        mul = G.mul(x[:, None], x[None, :])
        conj = G.conj(x[:, None], x[None, :])
        comm = G.comm(x[:, None], x[None, :])
        for a, u in enumerate(els):
            for b, v in enumerate(els):
                uv = u * v
                assert mul[a, b] == G.index_of(uv)
                assert conj[a, b] == G.index_of(invs[b] * uv)
                assert comm[a, b] == G.index_of(beta(u, v))


def test_ul32_classes():
    G = ul(3, 2)
    sizes = [len(c) for c in G.conjugacy_classes()]
    assert sizes == [1, 1, 2, 2, 2]
    assert G.exponent() == 4
    assert sorted(G.center_indices().tolist()) == [0, 1]  # 1 and 1 + e13


def test_ul33_classes():
    G = ul(3, 3)
    sizes = [len(c) for c in G.conjugacy_classes()]
    assert sizes == [1, 1, 1] + [3] * 8
    assert G.exponent() == 3
    # the three singletons are the center 1 + A^2 = {1, 1+e13, 1+2e13}
    assert G.center_indices().tolist() == [0, 1, 2]


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


def test_quotient_group_is_a_homomorphic_image():
    G = ul(4, 2)
    Q, proj = quotient_group(G, G.algebra.power_subspace(2))
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
        top = alg.nilpotency_index
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                ok, witness = check_commutator_theorem(alg, m, n)
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
        lcm = np.lcm(lcm, G.order_of(x))
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
    assert (u * u.inverse()).is_identity()
    assert (u.inverse() * u).is_identity()
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
    u = unit(G.algebra.from_labels({"e12": 1, "e23": 1}))
    u2 = u * u
    assert u2.a.coords == (0, 0, 1)  # (1+a)^2 = 1 + e13
    assert not (u2 * u).is_identity()
    assert (u2 * u2).is_identity()  # u has order 4
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
