"""Monomial descent and polarizations.

The small cases are frozen by hand.  For U(3, 2) the whole pipeline is
pinned object by object: the scalar level, the pairing table, the matrix of
the induced map, the chosen line, both ideals, both extensions and the final
certificate.  Larger algebras get structural assertions (level sequence,
dimension drops, extension counts) plus the end-to-end verification that
induction really reproduces the character.
"""

import itertools
import json
import random

import numpy as np
import pytest

from oneplusa import cli, gutkin, polarization, unitgroup
from oneplusa.catalog import BUILTIN, resolve
from oneplusa.chars import (
    ClassFunction,
    character_table,
    clifford_parts,
    induce,
    linear_characters,
    restrict,
)
from oneplusa.errors import (
    EmptyExtensionSet,
    MultipleOrbits,
    NoLineFound,
    NotBilinear,
    NotLinear,
    NotInvariant,
    SearchExhausted,
    VerificationFailed,
    WrongStabilizer,
)
from oneplusa.exactfield import Cyclotomic, gf
from oneplusa.gutkin import (
    PairingTable,
    QuotientSpace,
    build_ideals,
    choose_line,
    clifford_constituent,
    commutator_pairing,
    extension_set,
    gutkin_decompose,
    minimal_scalar_level,
    phi_map,
    standard_additive_character,
    verify_gutkin_all,
)
from oneplusa.linalg import rref
from oneplusa.nilalg import (
    Algebra,
    FieldRing,
    QuotientSpace,
    Subspace,
    free_nilpotent,
    is_ideal,
    product_outside,
    strictly_upper_triangular,
)
from oneplusa.polarization import (
    _all_subspaces,
    _gram,
    _is_polarization,
    _structure_tensor,
    find_polarization,
)
from oneplusa.unitgroup import (
    Subgroup,
    UnitGroup,
    commutator_subgroup,
    digits,
    map_indices,
    power_subgroup,
    subspace_subgroup,
    undigits,
)
from test_nilalg import combine, nullspace
from test_unitgroup import (
    _random_basis,
    _scalar_tables,
    _scan_commutator_subgroup,
    _skew_truncated_polynomial,
)

ONE = Cyclotomic.rational(1)
MINUS_ONE = Cyclotomic.rational(-1)


def ul_group(n, q):
    return UnitGroup(strictly_upper_triangular(n, gf(q)))


# -- quotient coordinates ------------------------------------------------------


def test_quotient_space_roundtrip():
    A = strictly_upper_triangular(4, gf(2))
    Q = QuotientSpace(A, A.power_subspace(3), A.power_subspace(2))
    # A^2/A^3 for the 4x4 group: classes of e13 and e24
    assert Q.dim == 2
    assert Q.rows == ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0))
    for c in Q.all_coords():
        assert Q.project(Q.rep(c)) == c
    # the deeper power projects to zero
    assert Q.project(A.power_subspace(3).rows[0]) == (0, 0)


def test_quotient_space_rejects_outside_vectors():
    A = strictly_upper_triangular(4, gf(2))
    Q = QuotientSpace(A, A.power_subspace(3), A.power_subspace(2))
    with pytest.raises(ValueError):
        Q.project((1, 0, 0, 0, 0, 0))  # e12 is not in A^2


# -- the 8-element group, everything pinned by hand ---------------------------


def test_u32_scalar_level():
    G = ul_group(3, 2)
    tab = character_table(G)
    chi = tab.chars[-1]
    assert chi.degree_int() == 2
    m, zeta = minimal_scalar_level(chi)
    assert m == 2
    # 1 + A^2 = {1, 1+e13} has the indices 0 and 1; the central character
    # sends 1+e13 to -1 = zeta_4^2 (the group exponent is 4), one entry each
    assert G.exponent() == 4
    assert power_subgroup(G, m).indices.tolist() == [0, 1]
    assert zeta.tolist() == [0, 2]


def test_u32_scalar_level_of_linear_character():
    G = ul_group(3, 2)
    tab = character_table(G)
    m, zeta = minimal_scalar_level(tab.chars[0])
    assert m == 1
    assert len(zeta) == G.order and (zeta >= 0).all()


def test_u32_pairing_table():
    G = ul_group(3, 2)
    tab = character_table(G)
    m, zeta = minimal_scalar_level(tab.chars[-1])
    pairing = commutator_pairing(G, m, zeta)
    # both sides are A/A^2 with basis classes of e12, e23
    assert pairing.dom.rows == ((1, 0, 0), (0, 1, 0))
    assert pairing.cod.rows == ((1, 0, 0), (0, 1, 0))
    # (1+e12)(1+e23)(1+e12)^-1(1+e23)^-1 = 1+e13 picks up the -1
    assert pairing.value((1, 0), (0, 1)) == MINUS_ONE
    assert pairing.value((0, 1), (1, 0)) == MINUS_ONE
    for x in pairing.dom.all_coords():
        assert pairing.value(x, x) == ONE
    assert len(pairing.values) == 16


def test_u32_matrix_line_and_ideals():
    G = ul_group(3, 2)
    tab = character_table(G)
    m, zeta = minimal_scalar_level(tab.chars[-1])
    pairing = commutator_pairing(G, m, zeta)
    phi = phi_map(pairing)
    # psi(1) = -1 over F_2, so each entry is the coefficient itself
    assert phi.rows == ((0, 1), (1, 0))
    line = choose_line(phi)
    # (1,0) and (0,1) both work; the scan order prefers pivot position 0
    assert line == (1, 0)
    A1, U = build_ideals(phi, line)
    assert A1.rows == ((1, 0, 0), (0, 0, 1))  # span{e12, e13}
    assert U.rows == A1.rows
    assert A1.dim == G.algebra.dim - 1


def test_u32_extension_set():
    G = ul_group(3, 2)
    tab = character_table(G)
    m, zeta = minimal_scalar_level(tab.chars[-1])
    pairing = commutator_pairing(G, m, zeta)
    phi = phi_map(pairing)
    A1, U = build_ideals(phi, choose_line(phi))
    exts = extension_set(G, U, m, zeta, A1)
    assert len(exts) == 2
    # indices in 1+U: 0 = identity, 1 = 1+e13, 4 = 1+e12, 5 = 1+e12+e13, one
    # entry each; exponents mod 4, so 2 stands for -1
    on_u = np.array([0, 1, 4, 5])
    assert np.array_equal(subspace_subgroup(G, U).indices, on_u)
    assert exts[0].tolist() == [0, 2, 0, 2]
    assert exts[1].tolist() == [0, 2, 2, 0]
    # conjugating by 1+e23 swaps the two extensions
    g = G.index_of_coords((0, 1, 0))
    assert exts[0][np.searchsorted(on_u, G.conj(on_u, g))].tolist() == exts[1].tolist()


def test_u32_full_certificate():
    G = ul_group(3, 2)
    tab = character_table(G)
    chi = tab.chars[-1]
    datum = gutkin_decompose(chi)
    assert datum.verified
    assert len(datum.chain) == 1
    assert datum.chain[0].rows == ((1, 0, 0), (0, 0, 1))
    assert datum.alpha.degree_int() == 1
    # q^(dim A - dim B) = 2^(3-2) = deg chi
    assert chi.degree_int() == 2 ** (G.algebra.dim - datum.bottom_space.dim)
    assert datum.induced_from_bottom() == chi
    # alpha is -1 on the element that maps to 1+e13 upstairs
    bottom = {int(t): i for i, t in enumerate(datum.emb_to_top)}
    e13_top = G.index_of_coords((0, 0, 1))
    assert datum.alpha.value_at_index(bottom[e13_top]) == MINUS_ONE


def test_linear_character_needs_no_descent():
    G = ul_group(3, 2)
    tab = character_table(G)
    datum = gutkin_decompose(tab.chars[1])
    assert datum.chain == []
    assert datum.steps == []
    assert datum.bottom_space.dim == G.algebra.dim
    assert datum.alpha == tab.chars[1]
    assert datum.verified


# -- deeper descent on the 4x4 group ------------------------------------------


def test_u42_degree_four_descends_twice():
    G = ul_group(4, 2)
    tab = character_table(G)
    chi = tab.chars[-1]
    assert chi.degree_int() == 4
    m, _ = minimal_scalar_level(chi)
    assert m == 3  # scalar on 1+A^3 but not on 1+A^2
    datum = gutkin_decompose(chi)
    assert [len(s.rows) for s in datum.chain] == [5, 4]
    assert [step.m for step in datum.steps] == [3, 2]
    assert datum.steps[0].pairing.dom.dim == 3  # A/A^2
    assert datum.steps[0].pairing.cod.dim == 2  # A^2/A^3
    assert len(datum.steps[0].u.rows) == 2
    assert datum.steps[0].num_extensions == 2
    assert datum.verified
    assert datum.induced_from_bottom() == chi


def test_u42_chain_is_nested():
    G = ul_group(4, 2)
    tab = character_table(G)
    datum = gutkin_decompose(tab.chars[-1])
    full = Subspace.from_vectors(G.algebra, G.algebra.basis())
    spaces = [full] + list(datum.chain)
    for big, small in zip(spaces, spaces[1:]):
        assert big.contains_subspace(small)
        assert big.dim == small.dim + 1
        assert is_subalgebra(G.algebra, small)


def test_u42_induction_is_transitive_along_the_chain():
    # inducing alpha in two hops B -> A1 -> A agrees with the certificate
    G = ul_group(4, 2)
    tab = character_table(G)
    chi = tab.chars[-1]
    datum = gutkin_decompose(chi)
    A1_space, B_space = datum.chain
    SA1 = Subgroup.from_subspace(G, A1_space)
    H1, emb1, amb_to_mid = SA1.std_group
    # rewrite B in A1 coordinates and alpha on the copy of 1+B inside H1
    B_rel = Subspace.from_vectors(
        H1.algebra, [A1_space.coords_of(r) for r in B_space.rows]
    )
    SB = Subgroup.from_subspace(H1, B_rel)
    HB, embB, _ = SB.std_group
    bottom = {int(t): i for i, t in enumerate(datum.emb_to_top)}
    vals = []
    for cls in HB.conjugacy_classes():
        top = int(emb1[int(embB[int(cls[0])])])
        vals.append(datum.alpha.value_at_index(bottom[top]))
    rho = ClassFunction(HB, tuple(vals))
    mid = induce(rho, SB)
    top_chi = induce(mid, SA1)
    assert top_chi == chi


# -- odd characteristic and psi independence ----------------------------------


def test_u33_extension_count():
    G = ul_group(3, 3)
    tab = character_table(G)
    chi = tab.chars[-1]
    assert chi.degree_int() == 3
    datum = gutkin_decompose(chi)
    assert len(datum.steps) == 1
    assert datum.steps[0].num_extensions == 3
    assert datum.bottom_space.dim == 2
    assert datum.verified


def test_changing_psi_moves_phi_but_not_the_ideals():
    G = ul_group(3, 3)
    tab = character_table(G)
    m, zeta = minimal_scalar_level(tab.chars[-1])
    pairing = commutator_pairing(G, m, zeta)
    phi1 = phi_map(pairing)
    std = standard_additive_character(G.field)
    phi2 = phi_map(pairing, [std[G.field.mul_idx(2, t)] for t in range(G.field.q)])
    assert phi1.rows == ((0, 1), (2, 0))
    assert phi2.rows == ((0, 2), (1, 0))
    line1, line2 = choose_line(phi1), choose_line(phi2)
    assert line1 == line2 == (1, 0)
    A1a, Ua = build_ideals(phi1, line1)
    A1b, Ub = build_ideals(phi2, line2)
    assert A1a.rows == A1b.rows
    assert Ua.rows == Ub.rows


def test_phi_map_rejects_a_table_that_is_not_linear():
    G = ul_group(3, 3)
    m, zeta = minimal_scalar_level(character_table(G).chars[-1])
    good = commutator_pairing(G, m, zeta)
    e = G.exponent()

    def moved(x, y):  # the table with the value at (x, y) changed
        values = good.values.copy()
        t = G.index_of_coords(x) * 9 + G.index_of_coords(y)  # row-major, q^2 columns
        values[t] = (values[t] + 1) % e
        return PairingTable(G, m, good.dom, good.cod, values)

    # a point off the basis lines passes the solve and fails the full check
    with pytest.raises(NotLinear) as err:
        phi_map(moved((1, 1), (1, 1)))
    assert err.value.witness == ((1, 1), (1, 1))
    # a point (e_1, c e_2) that pins entry (0, 1) leaves it without a solution
    with pytest.raises(NotLinear) as err:
        phi_map(moved((1, 0), (0, 1)))
    assert err.value.witness == (0, 1, [])


def test_pairing_scalar_swap_beyond_prime_field():
    # over GF(4) the swap identity is checked for lambda outside F_2
    G = ul_group(3, 4)
    tab = character_table(G)
    m, zeta = minimal_scalar_level(tab.chars[-1])
    pairing = commutator_pairing(G, m, zeta)
    F = G.field
    lam = F.gen.index
    assert lam not in (0, 1)
    for x in pairing.dom.all_coords():
        for y in pairing.cod.all_coords():
            lx = tuple(F.mul_idx(lam, c) for c in x)
            ly = tuple(F.mul_idx(lam, c) for c in y)
            assert pairing.value(lx, y) == pairing.value(x, ly)


# -- the pairing and the descent ideals against their exhaustive scans --------


def _quotient_matrix(Qs):
    # the projection W -> W/V as a (dim A x dim W/V) matrix over GF(q):
    # V.reduce(e_t) read off at the complement pivots
    A = Qs.algebra
    return np.array(
        [[Qs.sub.reduce(e)[p] for p in Qs.pivots] for e in A.basis()], dtype=np.int64
    ).reshape(A.dim, len(Qs.pivots))


def _scan_quotient_pairing(group, m):
    # the reference for quotient_pairing: every g in 1+A against every h in
    # 1+A^(m-1), asserting that each commutator lies in 1+A^m, that its
    # class in Q depends only on g mod 1+A^2 and h mod 1+A^m, and that every
    # point of the table is covered; returns values, Q and to_q
    A, field = group.algebra, group.field
    Sm = power_subgroup(group, m)
    Q, to_q, _ = Sm.quotient(commutator_subgroup(power_subgroup(group, 1), Sm).indices)
    dom = QuotientSpace(A, A.power_subspace(2), A.power_subspace(1))
    cod = QuotientSpace(A, A.power_subspace(m), A.power_subspace(m - 1))
    garr = np.arange(group.order)
    present, first, block = np.unique(
        map_indices(field, garr, _quotient_matrix(dom)), return_index=True, return_inverse=True
    )
    values = np.full((field.q ** dom.dim, field.q ** cod.dim), -1, dtype=np.int64)
    hs = power_subgroup(group, m - 1).indices
    for h, y in zip(hs.tolist(), map_indices(field, hs, _quotient_matrix(cod)).tolist()):
        qv = to_q[group.comm(garr, h)]
        assert (qv >= 0).all(), ("outside 1+A^m", h)
        col = qv[first]
        assert (qv == col[block]).all(), ("depends on g beyond g mod 1+A^2", h)
        seen = values[present, y]
        assert ((seen < 0) | (seen == col)).all(), ("depends on h beyond h mod 1+A^m", h)
        values[present, y] = col
    assert (values >= 0).all(), "a point of the table is not covered"
    return values, Q, to_q


def _reference_bilinear(Q, values, field, dx, dy):
    # the reference for gutkin._check_bilinear: additivity compared on the
    # whole table, every row of x against every x and every pair of y
    q = field.q
    add_t, mul_t = _scalar_tables(field)
    X = digits(np.arange(q ** dx), q, dx)
    Y = digits(np.arange(q ** dy), q, dy)
    xs, ys = [tuple(x) for x in X.tolist()], [tuple(y) for y in Y.tolist()]
    xsum = undigits(add_t[X[:, None], X[None, :]], q)
    ysum = undigits(add_t[Y[:, None], Y[None, :]], q)
    for i, row in enumerate(values):
        bad = np.argwhere(values[xsum[i]] != Q.mul(row, values))
        if len(bad):
            j, t = bad[0]
            raise NotBilinear(("additive-in-x", xs[i], xs[j], ys[t]))
        bad = np.argwhere(row[ysum] != Q.mul(row[:, None], row[None, :]))
        if len(bad):
            s, t = bad[0]
            raise NotBilinear(("additive-in-y", xs[i], ys[s], ys[t]))
    lam = np.arange(q)[:, None, None]
    xscale = undigits(mul_t[lam, X[None]], q)
    yscale = undigits(mul_t[lam, Y[None]], q)
    for t in range(q):
        bad = np.argwhere(values[xscale[t]] != values[:, yscale[t]])
        if len(bad):
            i, j = bad[0]
            raise NotBilinear(("scalar-swap", t, xs[i], ys[j]))


def _bilinear_verdict(check, Q, values, field, dx, dy):
    # None when the table passes, else the kind of law that failed
    try:
        check(Q, values, field, dx, dy)
    except NotBilinear as err:
        stage = err.witness[0]
        assert stage in ("additive-in-x", "additive-in-y", "scalar-swap")
        return "scalar-swap" if stage == "scalar-swap" else "additive"
    return None


PROOF_TARGETS = [e.name for e in BUILTIN if e.summary()["group_order"] <= 1024]


@pytest.mark.parametrize(
    "target,reverse",
    [(t, False) for t in PROOF_TARGETS] + [("ul(4,2)", True), ("ul(3,3)", True)],
)
def test_pairing_and_ideals_match_their_scans(monkeypatch, target, reverse):
    # quotient_pairing from coset representatives against the exhaustive
    # scan, and the descent ideals by containment against the product scan
    # is_ideal, at every (group, m) and every build_ideals call of the
    # descents of every character
    pairings, ideals = [], []
    real_pairing, real_ideals = gutkin._quotient_pairing, gutkin.build_ideals

    def recording_pairing(group, m):
        data = real_pairing(group, m)
        pairings.append((group, m, data))
        return data

    def recording_ideals(phi, line):
        A1, U = real_ideals(phi, line)
        ideals.append((phi.pairing.group.algebra, phi.pairing.m, A1, U))
        return A1, U

    monkeypatch.setattr(gutkin, "_quotient_pairing", recording_pairing)
    monkeypatch.setattr(gutkin, "build_ideals", recording_ideals)
    A = resolve(target)
    G = UnitGroup(_reversed_basis(A) if reverse else A)
    for chi in character_table(G).chars:
        gutkin_decompose(chi)
    assert pairings and ideals
    for group, m, data in pairings:
        values, Q, to_q = _scan_quotient_pairing(group, m)
        assert np.array_equal(data["values"], values), (group.order, m)
        assert np.array_equal(data["Q"].table, Q.table)
        assert np.array_equal(data["to_q"], to_q)
        shape = (data["Q"], values, group.field, data["dom"].dim, data["cod"].dim)
        assert _bilinear_verdict(_reference_bilinear, *shape) is None
    for alg, m, A1, U in ideals:
        assert gutkin._between_powers(alg, A1, 2, 1) == is_ideal(alg, A1)
        assert gutkin._between_powers(alg, U, m, m - 1) == is_ideal(alg, U)


@pytest.mark.parametrize("target,m", [("ul(3,4)", 2), ("ul(4,2)", 3), ("ul(4,3)", 2), ("ul(3,9)", 2)])
def test_bilinearity_on_a_basis_agrees_with_the_full_tables(target, m):
    # the F_p-basis check against the whole-table loops on tampered tables:
    # one entry changed (at the origin, on an axis, inside), a row or a
    # column of Q's generator added, and the x coordinates put through the
    # Frobenius t -> t^p, which keeps additivity and breaks the scalar swap
    # over GF(p^k), k > 1
    G = UnitGroup(resolve(target))
    data = gutkin.quotient_pairing(G, m)
    Q, good, field = data["Q"], data["values"], G.field
    dx, dy, q = data["dom"].dim, data["cod"].dim, field.q
    assert Q.order > 1 and good.any()
    g = max(Q.generator_indices())  # not the identity 0
    tables = [good]
    for i, t in [(0, 0), (0, 1), (1, 0), (q + 1, q ** dy - 1), (q ** dx - 1, 2)]:
        bad = good.copy()
        bad[i, t] = Q.mul(bad[i, t], g)
        tables.append(bad)
    row, col = good.copy(), good.copy()
    row[1] = Q.mul(row[1], g)
    col[:, 1] = Q.mul(col[:, 1], g)
    tables += [row, col]
    frob = np.array([f.index for f in (x ** field.p for x in field.elements)])
    X = digits(np.arange(q ** dx), q, dx)
    tables.append(good[undigits(frob[X], q)])
    if q == 3:
        # times g^(phi(x_1) y_1) with phi(c) = [c != 0]: additive in y and
        # along every basis vector of x but the first, where 1 + 1 = 2 has
        # phi = 1, not 2; over F_2 every such phi is additive
        Y = digits(np.arange(q ** dy), q, dy)
        gp = [0, g, Q.mul(g, g)]
        assert Q.mul(gp[2], g) == 0
        twist = np.array(gp)[(X[:, 0] != 0)[:, None] * Y[None, :, 0] % 3]
        tables.append(Q.mul(good, twist))
    verdicts = []
    for values in tables:
        ref = _bilinear_verdict(_reference_bilinear, Q, values, field, dx, dy)
        new = _bilinear_verdict(gutkin._check_bilinear, Q, values, field, dx, dy)
        assert ref == new
        verdicts.append(new)
    assert verdicts[0] is None and verdicts[1:8] == ["additive"] * 7
    assert verdicts[8] == ("scalar-swap" if field.k > 1 else None)
    assert verdicts[9:] == (["additive"] if q == 3 else [])


@pytest.mark.parametrize("target", ["ul(3,2)", "ul(3,3)"])
def test_between_powers_implies_ideal(target):
    # the containment verdict is sound on every subspace, and each of its
    # two containments is needed: dropping either admits a non-ideal
    A = resolve(target)
    needed = set()
    for k in range(A.dim + 1):
        for rows in _all_subspaces(A, k):
            S = Subspace.from_vectors(A, rows)
            ideal = is_ideal(A, S)
            for low, high in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)):
                lower = S.contains_subspace(A.power_subspace(low))
                upper = A.power_subspace(high).contains_subspace(S)
                assert gutkin._between_powers(A, S, low, high) == (lower and upper)
                if lower and upper:
                    assert ideal, (rows, low, high)
                if not ideal:
                    needed.add("lower" if upper else "upper" if lower else None)
    assert {"lower", "upper"} <= needed


def test_build_ideals_rejects_a_line_above_its_level():
    # the pairing of U(3, 2) at m = 2 relabelled as level 3: the preimage of
    # the line is span{e12} + A^3, which lies outside A^2 and is no ideal
    G = ul_group(3, 2)
    m, zeta = minimal_scalar_level(character_table(G).chars[-1])
    good = commutator_pairing(G, m, zeta)
    phi = phi_map(PairingTable(G, m + 1, good.dom, good.cod, good.values))
    with pytest.raises(VerificationFailed) as err:
        build_ideals(phi, choose_line(phi))
    assert (err.value.stage, err.value.witness) == ("descent-ideal", "U")
    assert not is_ideal(G.algebra, Subspace.from_vectors(G.algebra, [good.cod.rep((1, 0)).coords]))


def test_pairing_rests_on_the_commutator_theorem(monkeypatch):
    # a failed containment (1+A^2, 1+A^(m-1)) <= (1+A, 1+A^m) stops the
    # pairing with the element outside as witness
    calls = []

    def failing(group, m, n):
        calls.append((m, n))
        return False, 7

    monkeypatch.setattr(gutkin, "check_commutator_theorem", failing)
    with pytest.raises(VerificationFailed) as err:
        gutkin.quotient_pairing(ul_group(4, 2), 3)
    assert (err.value.stage, err.value.witness) == ("pairing-well-defined", 7)
    assert calls == [(2, 2)]


def test_pairing_rejects_a_representative_outside_its_level(monkeypatch):
    # a representative of A^2/A^3 replaced by 1 + x with x outside A^2: its
    # commutators leave 1 + A^3, and the representative pair is the witness
    G = ul_group(4, 2)
    A = G.algebra
    dom = QuotientSpace(A, A.power_subspace(2), A.power_subspace(1))
    cod = QuotientSpace(A, A.power_subspace(3), A.power_subspace(2))
    stray = int(G.span_indices(dom.rows)[1])
    real = G.span_indices

    def span_indices(rows):
        out = real(rows)
        if rows == cod.rows:
            out = out.copy()
            out[1] = stray
        return out

    monkeypatch.setattr(G, "span_indices", span_indices)
    with pytest.raises(VerificationFailed) as err:
        gutkin.quotient_pairing(G, 3)
    assert err.value.stage == "pairing-level-containment"
    g, h = err.value.witness
    assert h == stray and g in real(dom.rows).tolist()


def test_additive_characters():
    # psi_a(t) = psi(a t) with psi the standard character: a -> psi_a
    # identifies the field with its own dual; values are zeta_p^(exponent)
    for q in (2, 3, 4, 9):
        f = gf(q)
        p = f.p
        std = standard_additive_character(f)
        assert ((std >= 0) & (std < p)).all()
        tables = [tuple(int(std[f.mul_idx(a, t)]) for t in range(q)) for a in range(q)]
        assert len(set(tables)) == q  # distinct characters
        for a, row in enumerate(tables):  # orthogonality to the trivial one
            total = sum((Cyclotomic.zeta(p, t) for t in row), Cyclotomic.rational(0))
            assert total == Cyclotomic.rational(q if a == 0 else 0)
        for row in tables:  # psi_a(x + y) = psi_a(x) psi_a(y)
            for x, y in itertools.product(range(q), repeat=2):
                assert row[f.add_idx(x, y)] == (row[x] + row[y]) % p


@pytest.mark.parametrize("q", [4, 9])
def test_coordinate_arrays_match_ring_arithmetic(q):
    # the array layer (span_indices behind from_subspace, std_group and the
    # pairing's coset representatives) against scalar ring arithmetic at
    # every element, over fields where multiplication is not reduction mod p
    A = strictly_upper_triangular(3, gf(q))
    G = UnitGroup(A)
    ops = A.ring.linalg_ops()
    g = G.field.gen.index
    twisted = Subspace.from_vectors(A, [(1, g, 0), (0, 0, 1)])  # e12 + x e23, e13
    for space in (twisted, A.power_subspace(2), A.power_subspace(1)):
        H = Subgroup.from_subspace(G, space)
        Hg, emb, sub_of = H.std_group
        for n in range(Hg.order):
            want = combine(Hg.coords_of_index(n), space.rows, ops, A.dim)
            assert G.coords_of_index(int(emb[n])) == want
        assert sorted(emb.tolist()) == H.indices.tolist()
        assert sub_of[emb].tolist() == list(range(Hg.order))
        assert int((sub_of >= 0).sum()) == Hg.order
    for low, high in ((2, 1), (3, 2), (3, 1)):
        W = power_subgroup(G, high)
        Qs = QuotientSpace(A, A.power_subspace(low), A.power_subspace(high))
        points = Qs.all_coords()
        reps = G.span_indices(Qs.rows)  # the coset representatives of the pairing
        assert W.mask[reps].all()
        for n, point in zip(reps.tolist(), points):
            assert Qs.project(G.coords_of_index(n)) == point


# -- subgroups in place against their standalone copies -----------------------


@pytest.mark.parametrize("target", ["ul(3,3)", "ul(4,2)", "free(2,2,3)"])
def test_subgroups_in_place_match_their_standalone_copies(monkeypatch, target):
    # generators and quotients of 1 + A^m and of every 1 + U met in the
    # descent, on ambient indices, against the old route through the
    # standalone copy read back through emb
    met = []
    real = gutkin.extension_set

    def recording(group, U, m, zeta, A1):
        met.append((group, U))
        return real(group, U, m, zeta, A1)

    monkeypatch.setattr(gutkin, "extension_set", recording)
    G = UnitGroup(resolve(target))
    for chi in character_table(G).chars:
        gutkin_decompose(chi)
    assert met
    cases = []
    for group in {id(g): g for g, _ in [(G, None)] + met}.values():
        whole = power_subgroup(group, 1)
        for m in range(1, group.algebra.nilpotency_index + 1):
            S = power_subgroup(group, m)
            cases += [(S, commutator_subgroup(whole, S)), (S, commutator_subgroup(S, S))]
    for group, U in met:
        SU = subspace_subgroup(group, U)
        cases.append((SU, commutator_subgroup(SU, SU)))
    for H, K in cases:
        Hg, emb, sub_of = H.std_group
        gens = H.generator_indices()
        assert gens == emb[Hg.generator_indices()].tolist()
        assert np.array_equal(H.group.subgroup_closure(gens), H.indices)
        Q, proj, reps = H.quotient(K.indices)
        Qc, proj_c, reps_c = Hg.quotient(sub_of[K.indices])
        assert np.array_equal(Q.table, Qc.table)
        assert np.array_equal(proj[emb], proj_c)
        assert (proj[~H.mask] == -1).all()
        assert np.array_equal(reps, emb[reps_c])
        assert Q.generator_indices() == Qc.generator_indices()


# -- failure paths -------------------------------------------------------------


def test_non_invariant_zeta_is_rejected():
    # 1+A^2 of the 4x4 group is abelian, so "-1 on the e14 coefficient" is a
    # genuine character of it, but conjugation by 1+e34 sends 1+e13 to
    # 1+e13+e14 and breaks invariance
    G = ul_group(4, 2)
    assert G.exponent() == 4  # -1 = zeta_4^2
    zeta = np.array([2 if G.coords_of_index(s)[5] else 0
                     for s in power_subgroup(G, 2).indices.tolist()])
    with pytest.raises(NotInvariant):
        commutator_pairing(G, 2, zeta)


def test_extension_set_needs_zeta_to_kill_the_commutators_of_1_plus_u():
    # with U = A, the commutator 1+e13 of 1+U is where zeta is -1; zeta is
    # given on 1 + A^2 = {1, 1+e13}
    G = ul_group(3, 2)
    A = G.algebra
    zeta = np.array([0, 2])
    A1 = Subspace.from_vectors(A, [(1, 0, 0), (0, 0, 1)])
    with pytest.raises(VerificationFailed) as err:
        extension_set(G, A.power_subspace(1), 2, zeta, A1)
    assert (err.value.stage, err.value.witness) == ("extension-precondition", 1)


def test_extension_set_rejects_a_commutator_outside_the_level_before_reading_zeta():
    # with m = 3, 1 + A^3 = {1} and zeta has its one entry there; the
    # commutator 1+e13 of 1+U = 1+A lies outside it, so it is the witness,
    # and no position in 1 + A^3 is looked up for it
    G = ul_group(3, 2)
    A = G.algebra
    A1 = Subspace.from_vectors(A, [(1, 0, 0), (0, 0, 1)])
    args = (G, A.power_subspace(1), 3, np.array([0]), A1)
    err = _both_fail(args, VerificationFailed)
    assert (err.stage, err.witness) == ("extension-precondition", 1)


def test_trivial_zeta_gives_zero_matrix_and_no_line():
    G = ul_group(3, 2)
    zeta = np.array([0, 0])  # trivial on 1 + A^2 = {1, 1+e13}
    pairing = commutator_pairing(G, 2, zeta)
    assert len(pairing.values) == 16 and (pairing.values == 0).all()
    phi = phi_map(pairing)
    assert not any(any(row) for row in phi.rows)
    with pytest.raises(NoLineFound):
        choose_line(phi)


def test_decompose_rejects_reducible_input():
    G = ul_group(3, 2)
    tab = character_table(G)
    chi = tab.chars[0]
    doubled = ClassFunction(G, tuple(v + v for v in chi.values))
    with pytest.raises(ValueError):
        gutkin_decompose(doubled)


# -- the constituent pick by Clifford projection ------------------------------


def _first_step(chi):
    # 1 + A1, 1 + U, the extensions of zeta and the coset representatives
    # 1 + c y of 1 + U over 1 + A^m for the first descent step
    G = chi.group
    *_, A1, U, exts, reps = gutkin.descent_step(G, *minimal_scalar_level(chi))
    return subspace_subgroup(G, A1), subspace_subgroup(G, U), exts, reps


def _table_scan_pick(chi, SA1):
    # the reference pick: restrict, then take the first constituent in the
    # character table of 1 + A1
    res = restrict(chi, SA1)
    Hg = SA1.std_group[0]
    return next(cand for cand in character_table(Hg).chars if res.inner(cand) != 0)


@pytest.mark.parametrize(
    "target,steps",
    [("ul(4,2)", 10), ("free(2,2,3)", 8), ("ul(3,4)", 3), ("ul(4,3)", 36)],
)
def test_clifford_pick_matches_the_table_scan(monkeypatch, target, steps):
    picks = []
    real = gutkin.clifford_constituent

    def recording(chi, SA1, SU, exts, reps):
        rho = real(chi, SA1, SU, exts, reps)
        picks.append((chi, SA1, rho))
        return rho

    monkeypatch.setattr(gutkin, "clifford_constituent", recording)
    G = UnitGroup(resolve(target))
    for chi in character_table(G).chars:
        gutkin_decompose(chi)
    assert len(picks) == steps
    for chi, SA1, rho in picks:
        assert rho == _table_scan_pick(chi, SA1)


def test_clifford_pick_rejects_a_reducible_class_function():
    chi = character_table(ul_group(3, 2)).chars[-1]
    SA1, SU, exts, reps = _first_step(chi)
    with pytest.raises(VerificationFailed) as err:
        clifford_constituent(ClassFunction(chi.group, [v + v for v in chi.values]),
                             SA1, SU, exts, reps)
    assert (err.value.stage, err.value.witness) == ("constituent-irreducible", "4")


def test_clifford_pick_rejects_a_character_outside_the_orbit():
    # summed over all of N, every part of a row outside the orbit is zero;
    # over the coset representatives 1 + c y the rows are read there only,
    # where these two agree with the extensions, so the pick is the true one
    # (rows that do not extend zeta are extension_set's to reject)
    chi = character_table(ul_group(3, 2)).chars[-1]
    SA1, SU, exts, reps = _first_step(chi)
    lins = linear_characters(SU)
    outside = lins[~(lins[:, None, :] == exts[None, :, :]).all(axis=2).any(axis=1)]
    assert len(outside) == 2
    with pytest.raises(VerificationFailed) as err:
        clifford_constituent(chi, SA1, SU, outside, SU.indices)  # every part is zero
    assert (err.value.stage, err.value.witness) == ("constituent-irreducible", "0")
    at = np.searchsorted(SU.indices, reps)
    assert sorted(map(tuple, outside[:, at])) == sorted(map(tuple, exts[:, at]))
    assert (clifford_constituent(chi, SA1, SU, outside, reps)
            == clifford_constituent(chi, SA1, SU, exts, reps))


def test_clifford_pick_rejects_a_negative_degree():
    chi = character_table(ul_group(3, 2)).chars[-1]
    SA1, SU, exts, reps = _first_step(chi)
    with pytest.raises(VerificationFailed) as err:
        clifford_constituent(ClassFunction(chi.group, [-v for v in chi.values]),
                             SA1, SU, exts, reps)
    assert (err.value.stage, err.value.witness) == ("constituent-degree", "-1")


@pytest.mark.parametrize("name", [e.name for e in BUILTIN] + [
    "ul(3,3)@5", "ul(3,3)@6", "ul(4,2)@1", "ul(4,2)@2", "free(2,2,3)@4", "ul(3,4)@10",
])
def test_clifford_projection_over_coset_representatives_matches_the_full_sum(
    monkeypatch, name
):
    # the reference sums over every element of N = 1 + U; the descent sums
    # over the q elements 1 + c y; every part must agree at every step of
    # the catalog and of seeded random bases
    calls = []
    real = gutkin.clifford_constituent

    def recording(chi, SA1, SU, exts, reps):
        calls.append((chi, SA1, SU, exts, reps))
        return real(chi, SA1, SU, exts, reps)

    monkeypatch.setattr(gutkin, "clifford_constituent", recording)
    G = UnitGroup(_reference_algebra(name))
    taken = [s for chi in character_table(G).chars for s in gutkin_decompose(chi).steps]
    assert len(calls) == len(taken) > 0
    for chi, SA1, SU, exts, reps in calls:
        q, e = chi.group.field.q, chi.group.exponent()
        sub_of = SA1.std_group[2]
        assert len(reps) == q and SU.mask[reps].all()
        psi = restrict(chi, SA1)
        want = clifford_parts(psi, sub_of[SU.indices], exts, e)
        got = clifford_parts(psi, sub_of[reps], exts[:, np.searchsorted(SU.indices, reps)], e)
        assert got == want


@pytest.mark.parametrize("target", [e.name for e in BUILTIN])
def test_descent_step_from_the_memo_matches_a_fresh_run(monkeypatch, target):
    # each character's step, as the group's memo hands it out, against the
    # five stages run again on (group, m, zeta) outside that memo
    got = []
    real = gutkin.descent_step

    def recording(group, m, zeta):
        step = real(group, m, zeta)
        got.append((group, m, zeta, step))
        return step

    monkeypatch.setattr(gutkin, "descent_step", recording)
    G = UnitGroup(resolve(target))
    taken = [s for chi in character_table(G).chars for s in gutkin_decompose(chi).steps]
    assert len(got) == len(taken)
    for group, m, zeta, (pairing, phi, line, A1, U, exts, reps) in got:
        fresh = commutator_pairing(group, m, zeta)
        assert np.array_equal(pairing.values, fresh.values)
        fphi = phi_map(fresh)
        fline = choose_line(fphi)
        fA1, fU = build_ideals(fphi, fline)
        assert (phi.rows, line, A1, U) == (fphi.rows, fline, fA1, fU)
        assert np.array_equal(exts, extension_set(group, fU, m, zeta, fA1))
        assert np.array_equal(reps, group.span_indices([fresh.cod.rep(fline).coords]))


@pytest.mark.parametrize("target", [e.name for e in BUILTIN])
def test_step_reports_write_the_bytes_of_their_pair_lists(target):
    # zeta and chi_u rendered as cell tables against the [index, value]
    # pairs they stand for, through the CLI writer and json.dumps
    def pairs(exps, H, e):
        return [[k, Cyclotomic.zeta(e, t).to_json()]
                for k, t in zip(H.indices.tolist(), exps.tolist())]

    def written(obj):
        out = []
        cli._write_json(obj, out.append)
        return "".join(out)

    G = UnitGroup(resolve(target))
    for chi in character_table(G).chars:
        for step in gutkin_decompose(chi).steps:
            group = step.pairing.group
            e = group.exponent()
            report = step.to_json()
            want = dict(report, zeta=pairs(step.zeta, power_subgroup(group, step.m), e),
                        chi_u=pairs(step.chi_u, subspace_subgroup(group, step.u), e))
            assert written(report) == written(want) == json.dumps(want, sort_keys=True, indent=2)


# -- the extension lemma on generator columns ---------------------------------


def _step_keys(steps):
    # the distinct (group, m, zeta) of the descent steps
    return {(id(s.pairing.group), s.m, s.zeta.tobytes()) for s in steps}


def _full_column_extension_set(group, U, m, zeta, A1):
    # the reference: every check of extension_set run on all of 1 + U, with
    # the |1+U|^2 commutator scan and the |G| x |1+U| conjugate rows; zeta
    # and the rows are over the indices of 1 + A^m and of 1 + U, and pos
    # reads an ambient index as a position in 1 + U (-1 off it)
    SU = subspace_subgroup(group, U)
    Sm = power_subgroup(group, m)
    SA1 = subspace_subgroup(group, A1)
    u = SU.indices
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[u] = np.arange(len(u))
    zeta_at = dict(zip(Sm.indices.tolist(), zeta.tolist()))
    bad = [c for c in group.commutator_values(u, u).tolist() if zeta_at.get(c) != 0]
    if bad:
        raise VerificationFailed("extension-precondition", witness=bad[0])

    lins = linear_characters(SU)
    on_m = pos[Sm.indices]
    exts = lins[:0] if (on_m < 0).any() else lins[(lins[:, on_m] == zeta).all(axis=1)]
    if not len(exts):
        raise EmptyExtensionSet((m, U.rows))

    garr = np.arange(group.order)
    P = pos[group.conj(u[None, :], garr[:, None])]  # row g: g^-1 (1+u) g
    if (P < 0).any():
        g, i = (int(t[0]) for t in np.nonzero(P < 0))
        raise VerificationFailed("extension-conjugation-closure", witness=(g, i))

    orbit = np.unique(exts[0][P], axis=0)
    ext_set = np.unique(exts, axis=0)
    if not np.array_equal(orbit, ext_set):
        raise MultipleOrbits((len(orbit), len(ext_set)))

    for t, vec in enumerate(exts):
        stab = (vec[P] == vec[None, :]).all(axis=1)
        if not (stab == SA1.mask).all():
            g = int(np.nonzero(stab != SA1.mask)[0][0])
            raise WrongStabilizer((t, g))

    return exts


@pytest.mark.parametrize("target", [e.name for e in BUILTIN])
def test_descent_rows_have_one_entry_per_subgroup_element(monkeypatch, target):
    # every extension set on the catalog has rows of length |1 + U|, one
    # per distinct (group, m, zeta) of the steps, and each step's report
    # keys zeta and chi_u by the level group's indices of 1 + A^m and 1 + U,
    # one key per element, in increasing order
    calls = []
    real = gutkin.extension_set

    def recording(group, U, m, zeta, A1):
        exts = real(group, U, m, zeta, A1)
        calls.append((group, U, exts))
        return exts

    monkeypatch.setattr(gutkin, "extension_set", recording)
    G = UnitGroup(resolve(target))
    steps = [s for chi in character_table(G).chars for s in gutkin_decompose(chi).steps]
    assert len(calls) == len(_step_keys(steps))
    for group, U, exts in calls:
        assert exts.ndim == 2 and exts.shape[1] == subspace_subgroup(group, U).order
    for step in steps:
        group = step.pairing.group
        rendered = step.to_json()
        Sm, SU = power_subgroup(group, step.m), subspace_subgroup(group, step.u)
        assert step.zeta.shape == (Sm.order,) and step.chi_u.shape == (SU.order,)
        assert [k for k, _ in rendered["zeta"]] == Sm.indices.tolist()
        assert [k for k, _ in rendered["chi_u"]] == SU.indices.tolist()


def _reversed_basis(A):
    # A with its basis listed backwards: the rows of a U that contains A^m
    # then start at the central basis vectors, so the last generators of
    # 1 + U are the ones the extensions differ on, not central ones
    n = A.dim - 1
    sc = {
        (n - i, n - j): tuple((n - k, c) for k, c in entry)
        for (i, j), entry in A.sc.items()
    }
    return Algebra(
        A.ring, A.dim, sc, labels=A.labels[::-1],
        graded_degrees=A.graded_degrees[::-1], nilindex=A.nilpotency_index,
    )


@pytest.mark.parametrize(
    "target,reverse,steps",
    [
        ("ul(3,3)", False, 2), ("ul(4,2)", False, 10), ("free(2,2,3)", False, 8),
        ("ul(4,3)", False, 36), ("ul(3,4)", True, 3), ("ul(4,2)", True, 10),
        ("ul(5,2)", False, 78), ("free(3,2,3)", False, 54),
    ],
)
def test_extension_set_matches_the_full_column_checks(
    monkeypatch, target, reverse, steps
):
    # steps descent steps, and one extension_set call per distinct
    # (group, m, zeta) among them, each against the reference
    calls = []
    real = gutkin.extension_set

    def recording(group, U, m, zeta, A1):
        exts = real(group, U, m, zeta, A1)
        calls.append((group, U, m, zeta, A1, exts))
        return exts

    monkeypatch.setattr(gutkin, "extension_set", recording)
    A = resolve(target)
    G = UnitGroup(_reversed_basis(A) if reverse else A)
    taken = [s for chi in character_table(G).chars for s in gutkin_decompose(chi).steps]
    assert len(taken) == steps
    assert len(calls) == len(_step_keys(taken))
    for group, U, m, zeta, A1, exts in calls:
        assert np.array_equal(exts, _full_column_extension_set(group, U, m, zeta, A1))


@pytest.mark.parametrize("target", ["ul(3,2)", "ul(3,3)", "ul(4,2)", "free(2,2,3)"])
def test_extension_set_on_every_line_matches_the_full_column_checks(target):
    # the first step of every character, on every line the descent could
    # have chosen, not only the first: there 1 + A1 need not hold the first
    # generator of 1 + A, so the orbits need every generator's permutation
    G = UnitGroup(resolve(target))
    q = G.field.q
    lines = 0
    for chi in character_table(G).chars:
        if chi.degree_int() == 1:
            continue
        m, zeta = minimal_scalar_level(chi)
        phi = phi_map(commutator_pairing(G, m, zeta))
        dy = phi.pairing.cod.dim
        for v in digits(np.arange(1, q ** dy), q, dy):
            if not gutkin._line_image(phi, v).any():
                continue
            A1, U = build_ideals(phi, tuple(v.tolist()))
            want = _full_column_extension_set(G, U, m, zeta, A1)
            assert np.array_equal(extension_set(G, U, m, zeta, A1), want)
            lines += 1
    assert lines > 0


@pytest.mark.parametrize("target", ["ul(4,2)", "free(2,2,3)", "ul(4,3)"])
def test_derived_subgroup_matches_the_full_commutator_scan(monkeypatch, target):
    # (H, H) as the normal closure of the generator commutators, against the
    # |H|^2 scan, on every 1 + A^m and every 1 + U of the descent
    seen = []
    real = gutkin.extension_set

    def recording(group, U, m, zeta, A1):
        seen.append(subspace_subgroup(group, U))
        return real(group, U, m, zeta, A1)

    monkeypatch.setattr(gutkin, "extension_set", recording)
    G = UnitGroup(resolve(target))
    for chi in character_table(G).chars:
        gutkin_decompose(chi)
    powers = [power_subgroup(G, m) for m in range(1, G.algebra.nilpotency_index + 1)]
    assert len(seen) > len(powers)
    for H in powers + seen:
        want = _scan_commutator_subgroup(H, H)
        assert np.array_equal(commutator_subgroup(H, H).indices, want)


def test_derived_subgroup_closes_under_conjugation(monkeypatch):
    # H = ul(4,2) presented by 1+e12, 1+e23, 1+e34: their commutators 1+e13
    # and 1+e24 generate a subgroup of order 4 that 1+e34 does not normalize
    # (it conjugates 1+e13 to 1+e13+e14), and the normal closure is 1 + A^2
    G = ul_group(4, 2)
    gens = [G.index_of_coords(G.algebra.basis_element(i).coords) for i in (0, 1, 2)]
    comms = G.commutator_values(gens, gens)
    assert len(G.subgroup_closure(comms)) == 4
    H = Subgroup(G, G.subgroup_closure(gens), verify=False)
    # in place of the generators of a basis of A
    monkeypatch.setattr(H, "generator_indices", lambda: gens)
    want = _scan_commutator_subgroup(H, H)
    assert want.tolist() == power_subgroup(G, 2).indices.tolist()
    assert commutator_subgroup(H, H).indices.tolist() == want.tolist()


def _both_fail(args, error):
    # the generator-column checks and the reference fail with the same name;
    # returns the generator-column failure for its witness
    with pytest.raises(error) as ref:
        _full_column_extension_set(*args)
    with pytest.raises(error) as err:
        extension_set(*args)
    assert err.value.stage == ref.value.stage
    return err.value


def test_extension_set_rejects_a_u_that_is_not_an_ideal():
    # U = span{e12, e14} is an abelian subalgebra containing A^3 = span{e14}
    # but no ideal: 1+e23 conjugates 1+e12 to 1+e12+e13
    G = ul_group(4, 2)
    A = G.algebra
    U = Subspace.from_vectors(A, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)])
    zeta = np.zeros(power_subgroup(G, 3).order, dtype=np.int64)
    err = _both_fail((G, U, 3, zeta, A.power_subspace(1)), VerificationFailed)
    assert err.stage == "extension-conjugation-closure"
    g, s = err.witness
    assert g in G.generator_indices()
    assert s in subspace_subgroup(G, U).generator_indices()
    assert not subspace_subgroup(G, U).mask[G.conj(s, g)]


def test_extension_set_rejects_invariant_extensions():
    # U = A^2 + span{e12} in ul(3,2) and zeta trivial on 1+A^2: both
    # extensions (trivial, and -1 on the e12 coefficient) are fixed by 1+A
    G = ul_group(3, 2)
    A = G.algebra
    U = Subspace.from_vectors(A, [(1, 0, 0), (0, 0, 1)])
    zeta = np.array([0, 0])  # on 1 + A^2 = {1, 1+e13}
    err = _both_fail((G, U, 2, zeta, U), MultipleOrbits)
    assert err.witness == (1, 2)


def test_extension_set_rejects_a_wrong_stabilizer():
    # the first step of the degree-2 character of ul(3,2) with A1 replaced by
    # A: 1+e23 swaps the two extensions, so it is outside every stabilizer
    G = ul_group(3, 2)
    m, zeta = minimal_scalar_level(character_table(G).chars[-1])
    phi = phi_map(commutator_pairing(G, m, zeta))
    A1, U = build_ideals(phi, choose_line(phi))
    assert A1.dim == 2
    err = _both_fail((G, U, m, zeta, G.algebra.power_subspace(1)), WrongStabilizer)
    t, g = err.witness
    assert t == 0 and not subspace_subgroup(G, A1).mask[g]


def test_extension_set_rejects_a_conjugate_outside_the_linear_characters(monkeypatch):
    # with one extension missing from the linear characters of 1 + U, the
    # conjugate of the other has no row to map to
    G, U, m, zeta, A1 = _stabilizer_case()
    missing = extension_set(G, U, m, zeta, A1)[1]
    real = gutkin.linear_characters
    monkeypatch.setattr(gutkin, "linear_characters",
                        lambda H: real(H)[(real(H) != missing).any(axis=1)])
    G, U, m, zeta, A1 = _stabilizer_case()
    with pytest.raises(VerificationFailed) as err:
        extension_set(G, U, m, zeta, A1)
    assert err.value.stage == "extension-conjugate-character"
    assert err.value.witness[0] in G.generator_indices()


def test_extension_work_is_built_once_per_group_and_u(monkeypatch):
    # decompose ul(4,3) makes 36 descent steps over 12 distinct
    # (group, m, zeta), one extension_set call each, and 4 distinct
    # (group, U): the linear characters of 1 + U are built once for each
    steps, built = [], []
    real_ext, real_lins = gutkin.extension_set, gutkin.linear_characters

    def recording(group, U, m, zeta, A1):
        steps.append((id(group), U.rows))
        return real_ext(group, U, m, zeta, A1)

    def counting(H):
        built.append((id(H.group), H.subspace.rows))
        return real_lins(H)

    monkeypatch.setattr(gutkin, "extension_set", recording)
    monkeypatch.setattr(gutkin, "linear_characters", counting)
    G = UnitGroup(resolve("ul(4,3)"))
    taken = [s for chi in character_table(G).chars for s in gutkin_decompose(chi).steps]
    assert len(taken) == 36 and len(_step_keys(taken)) == len(steps) == 12
    assert sorted(built) == sorted(set(steps)) and len(built) == 4


def _stabilizer_case():
    # the first step of the degree-2 character of ul(3,2): A1 is one of the
    # three codimension-one ideals containing A^2 = span{e13}
    G = ul_group(3, 2)
    m, zeta = minimal_scalar_level(character_table(G).chars[-1])
    phi = phi_map(commutator_pairing(G, m, zeta))
    A1, U = build_ideals(phi, choose_line(phi))
    return G, U, m, zeta, A1


def test_extension_set_rejects_an_ideal_that_moves_the_first_extension():
    # another codimension-one ideal: normal and of the right order, but its
    # generators move exts[0], so the stabilizer proof fails and the scan
    # finds the member and the element
    G, U, m, zeta, A1 = _stabilizer_case()
    A = G.algebra
    others = [Subspace.from_vectors(A, [r, (0, 0, 1)]) for r in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    others = [B for B in others if B != A1]
    assert len(others) == 2
    for B in others:
        SB = subspace_subgroup(G, B)
        assert SB.is_normal() and SB.order == subspace_subgroup(G, A1).order
        err = _both_fail((G, U, m, zeta, B), WrongStabilizer)
        t, g = err.witness
        assert t == 0 and SB.mask[g] != subspace_subgroup(G, A1).mask[g]


def test_extension_set_rejects_a_stabilizer_of_the_wrong_order():
    # 1 + A^2 lies in the stabilizer of every extension, and is normal, but
    # it is too small: |orbit| |1 + A^2| = 4 < 8
    G, U, m, zeta, A1 = _stabilizer_case()
    err = _both_fail((G, U, m, zeta, G.algebra.power_subspace(2)), WrongStabilizer)
    t, g = err.witness
    assert t == 0 and subspace_subgroup(G, A1).mask[g]


def test_extension_set_rejects_a_stabilizer_that_is_not_normal():
    # in ul(4,2), U = span{e12, e13, e14} is an ideal and zeta the nontrivial
    # character of 1 + A^3 = 1 + span{e14}: the four extensions form one
    # orbit, and 1 + B, B = span{e12, e23, e13, e14}, is exactly the
    # stabilizer of the first.  But 1 + B is not normal (1 + e34 moves
    # 1 + e23 to 1 + e23 + e24), so the others have other stabilizers
    G = ul_group(4, 2)
    A = G.algebra
    unit = np.eye(6, dtype=np.int64).tolist()
    U = Subspace.from_vectors(A, [unit[0], unit[3], unit[5]])
    B = Subspace.from_vectors(A, [unit[0], unit[1], unit[3], unit[5]])
    S3 = power_subgroup(G, 3)
    zeta = np.array([0 if G.coords_of_index(s)[5] == 0 else 2 for s in S3.indices.tolist()])
    SB, SU = subspace_subgroup(G, B), subspace_subgroup(G, U)
    assert not SB.is_normal()
    lins = linear_characters(SU)
    first = lins[(lins[:, np.searchsorted(SU.indices, S3.indices)] == zeta).all(axis=1)][0]
    P = np.searchsorted(SU.indices, G.conj(SU.indices[None, :], np.arange(G.order)[:, None]))
    assert np.array_equal((first[P] == first).all(axis=1), SB.mask)
    err = _both_fail((G, U, 3, zeta, B), WrongStabilizer)
    t, g = err.witness
    assert t > 0


# -- bases that are not adapted to the power filtration -------------------------


def test_non_adapted_bases_decompose_like_their_adapted_ones(monkeypatch):
    # the skew F_3[e]/(e^3) and seeded random bases: the same degrees as the
    # catalog basis, every certificate verified, and the generators of some
    # groups and subgroups on the way taken from adapted rows
    retried = []
    real = unitgroup.adapted_rows

    def recording(A, rows):
        retried.append(A)
        return real(A, rows)

    monkeypatch.setattr(unitgroup, "adapted_rows", recording)
    cases = [("free(3,1,3)", _skew_truncated_polynomial())]
    cases += [(t, _random_basis(resolve(t), seed))
              for t, seed in (("ul(3,3)", 5), ("ul(3,3)", 6), ("ul(4,2)", 1), ("ul(4,2)", 2),
                              ("free(2,1,4)", 5))]
    took = []
    for target, A in cases:
        before = len(retried)
        want = sorted(character_table(UnitGroup(resolve(target))).degrees)
        G = UnitGroup(A)
        report = verify_gutkin_all(G)
        assert sorted(character_table(G).degrees) == want
        assert sorted(e["degree"] for e in report["entries"]) == want
        assert report["verified"] == report["characters"] == len(want)
        took.append(len(retried) > before)
    assert took == [True, True, False, False, False, True]


# -- whole-table sweeps --------------------------------------------------------


@pytest.mark.parametrize(
    "n,q,expected",
    [(3, 2, 5), (3, 3, 11), (4, 2, 16)],
)
def test_verify_all_upper_triangular(n, q, expected):
    A = strictly_upper_triangular(n, gf(q))
    report = verify_gutkin_all(UnitGroup(A))
    assert report["characters"] == expected
    assert report["verified"] == expected
    for entry in report["entries"]:
        assert entry["verified"]


def test_verify_all_free_algebra():
    A = free_nilpotent(FieldRing(gf(2)), 2, 3)
    report = verify_gutkin_all(UnitGroup(A))
    assert report["characters"] == 40
    assert report["verified"] == 40
    degs = sorted(e["degree"] for e in report["entries"])
    assert degs == [1] * 32 + [2] * 8


def test_free_33_sample_character():
    # one degree-3 character of the 729-element group; the full sweep lives
    # in the acceptance suite
    A = free_nilpotent(FieldRing(gf(3)), 2, 3)
    G = UnitGroup(A)
    tab = character_table(G)
    chi = tab.chars[-1]
    assert chi.degree_int() == 3
    datum = gutkin_decompose(chi)
    assert datum.bottom_space.dim == 5
    assert [step.m for step in datum.steps] == [2]
    assert datum.steps[0].num_extensions == 3
    assert datum.verified


def test_decomposition_is_deterministic():
    def digest():
        A = strictly_upper_triangular(3, gf(3))
        G = UnitGroup(A)
        tab = character_table(G)
        return json.dumps(
            gutkin_decompose(tab.chars[-1]).to_json(), sort_keys=True
        )

    assert digest() == digest()


# -- polarizations -------------------------------------------------------------


def is_subalgebra(algebra, space):
    # the closure reference: every product of two rows of space lies in it
    els = space.row_elements()
    return product_outside(space, els, els) is None


def _polarization(A, f):
    (B,) = find_polarization(A, [f])
    return B


def _functionals(alg, count, seed):
    rng = random.Random(seed)
    q = alg.ring.field.q
    return [tuple(rng.randrange(q) for _ in range(alg.dim)) for _ in range(count)]


def test_polarization_zero_functional_is_everything():
    A = strictly_upper_triangular(3, gf(2))
    assert _polarization(A, (0, 0, 0)).dim == 3


def test_polarization_abelian_algebra():
    # nilpotency index 2 means the commutator form vanishes identically
    A = free_nilpotent(FieldRing(gf(3)), 2, 2)
    assert _polarization(A, tuple(1 for _ in range(A.dim))).dim == A.dim


def test_polarization_heisenberg():
    A = strictly_upper_triangular(3, gf(2))
    B = _polarization(A, (0, 0, 1))
    assert B.rows == ((1, 0, 0), (0, 0, 1))  # span{e12, e13}


def test_polarization_of_no_functionals():
    assert find_polarization(strictly_upper_triangular(3, gf(2)), []) == []


def _bracket_value(algebra, f, x, y):
    # f(xy - yx) from two algebra products: the reference for _gram
    ring = algebra.ring
    s = ring.zero
    for fc, c in zip(f, (x * y - y * x).coords):
        s = ring.add(s, ring.mul(fc, c))
    return s


def _isotropic_subalgebra(alg, f, space):
    if not is_subalgebra(alg, space):
        return False
    els = space.row_elements()
    return all(
        alg.ring.is_zero(_bracket_value(alg, f, x, y))
        for x in els
        for y in els
    )


def _brute_force_best(alg, f):
    for k in range(alg.dim, 0, -1):
        for rows in _all_subspaces(alg, k):
            if _isotropic_subalgebra(alg, f, Subspace.from_vectors(alg, rows)):
                return k
    return 0


def test_polarization_matches_brute_force_on_u32():
    A = strictly_upper_triangular(3, gf(2))
    fs = list(itertools.product(range(2), repeat=3))
    for f, B in zip(fs, find_polarization(A, fs), strict=True):
        assert B.dim == _brute_force_best(A, f)


def test_polarization_matches_brute_force_dim4():
    # a*b = c and nothing else; d is a direct abelian summand
    sc = {(0, 1): ((2, 1),)}
    A = Algebra(FieldRing(gf(2)), 4, sc, labels=("a", "b", "c", "d"))
    fs = list(itertools.product(range(2), repeat=4))
    for f, B in zip(fs, find_polarization(A, fs), strict=True):
        assert B.dim == _brute_force_best(A, f)


def test_polarization_random_functionals():
    algebras = [
        strictly_upper_triangular(3, gf(2)),
        strictly_upper_triangular(3, gf(3)),
        strictly_upper_triangular(4, gf(2)),
        free_nilpotent(FieldRing(gf(2)), 2, 3),
        free_nilpotent(FieldRing(gf(3)), 2, 3),
    ]
    for seed, alg in enumerate(algebras):
        basis = alg.basis()
        ops = alg.ring.linalg_ops()
        fs = _functionals(alg, 20, seed)
        for f, B in zip(fs, find_polarization(alg, fs), strict=True):
            assert _isotropic_subalgebra(alg, f, B)
            gram = [
                tuple(_bracket_value(alg, f, x, y) for y in basis)
                for x in basis
            ]
            rank = len(rref(gram, ops)[0])
            assert B.dim == alg.dim - rank // 2


# The reference is the per-pair construction: a Gram matrix of
# _bracket_value products, the form radical on each flag ideal as a Subspace,
# and element-wise isotropy.  find_polarization must agree row for row.


def _reference_flag(alg):
    taken, spaces = [], []
    cur = Subspace.from_vectors(alg, [])
    for k in range(alg.nilpotency_index - 1, 0, -1):
        for row in alg.power_subspace(k).rows:
            if cur.contains(row):
                continue
            taken.append(row)
            cur = Subspace.from_vectors(alg, taken)
            spaces.append(cur)
    return spaces


def _form_radical(alg, f, space):
    """Vectors spanning {x in V : f([x, y]) = 0 for all y in V}."""
    els = space.row_elements()
    ops = alg.ring.linalg_ops()
    rows = [tuple(_bracket_value(alg, f, x, y) for y in els) for x in els]
    null = nullspace(rows, len(els), ops)
    return [combine(c, space.rows, ops, alg.dim) for c in null]


def _bracket_gram(alg, f):
    basis = alg.basis()
    return [[_bracket_value(alg, f, x, y) for y in basis] for x in basis]


def _reference_polarization(alg, f):
    rank = len(rref(_bracket_gram(alg, f), alg.ring.linalg_ops())[0])
    target = alg.dim - rank // 2
    vecs = []
    for space in _reference_flag(alg):
        vecs.extend(_form_radical(alg, f, space))
    cand = Subspace.from_vectors(alg, vecs)
    if cand.dim == target and _isotropic_subalgebra(alg, f, cand):
        return cand
    assert alg.dim <= 4
    for rows in _all_subspaces(alg, target):
        cand = Subspace.from_vectors(alg, rows)
        if _isotropic_subalgebra(alg, f, cand):
            return cand
    raise AssertionError("no polarization")


def _dim4_algebra():
    # the non-graded algebra of test_polarization_matches_brute_force_dim4
    return Algebra(FieldRing(gf(2)), 4, {(0, 1): ((2, 1),)})


REFERENCE_ALGEBRAS = [e.name for e in BUILTIN] + ["dim4"]
# GF(1024) is a large field; free(9,2,3) is an odd extension
# field; the random bases are not adapted to the power filtration
POLARIZATION_CASES = REFERENCE_ALGEBRAS + [
    "ul(3,1024)", "free(9,2,3)", "ul(4,2)@1", "ul(3,3)@5", "free(2,2,3)@4", "ul(3,4)@10",
]


def _reference_algebra(name):
    if name == "dim4":
        return _dim4_algebra()
    target, _, seed = name.partition("@")
    return _random_basis(resolve(target), int(seed)) if seed else resolve(target)


@pytest.mark.parametrize("name", POLARIZATION_CASES)
def test_polarization_matches_reference(name):
    alg = _reference_algebra(name)
    fs = _functionals(alg, 50, 17)
    for f, B in zip(fs, find_polarization(alg, fs), strict=True):
        assert B.rows == _reference_polarization(alg, f).rows, f
        assert B == Subspace.from_vectors(alg, B.rows)  # canonical pivots too


def test_polarization_alone_is_the_one_in_a_stack():
    for name in ("ul(4,2)", "ul(3,4)", "free(3,2,3)", "ul(3,2)@7"):
        alg = _reference_algebra(name)
        fs = _functionals(alg, 12, 3)
        stacked = find_polarization(alg, fs)
        assert [_polarization(alg, f) for f in fs] == stacked, name
        assert find_polarization(alg, fs[::-1]) == stacked[::-1], name


@pytest.mark.parametrize(
    "name", REFERENCE_ALGEBRAS + ["free(5,2,3)", "free(4,3,3)", "ul(3,1024)"]
)
def test_gram_matches_bracket_values(name):
    alg = _reference_algebra(name)
    if name.startswith("free"):  # e_i e_i != 0: G[i][i] must cancel to zero
        assert any(i == j for i, j in alg.sc)
    fs = _functionals(alg, 10, 5)
    G = _gram(alg, np.array(fs, dtype=np.int64))
    assert G.shape == (len(fs), alg.dim, alg.dim)
    assert G.tolist() == [_bracket_gram(alg, f) for f in fs]


@pytest.mark.parametrize("sc", [
    {(0, 1): ((2, 1), (2, 1)), (1, 0): ((2, 1),)},
    {(0, 1): ((2, 1), (2, 2), (2, 2)), (1, 0): ((2, 2), (2, 2))},
], ids=["twice", "three-terms"])
def test_structure_tensor_agrees_with_products_under_repeated_terms(sc):
    # repeated terms of one e_k add up in the products and in the tensor
    # the polarizations read, alike
    alg = Algebra(FieldRing(gf(3)), 3, sc)
    S = _structure_tensor(alg)
    assert S.tolist() == [[list(alg.mul_coords(x, y)) for y in alg._unit] for x in alg._unit]
    assert S[0, 1, 2] == 2


def test_is_polarization_matches_elementwise_check():
    # on U(4, 2) with this functional, subspaces of the target dimension
    # include isotropic non-subalgebras and non-isotropic subalgebras
    alg = strictly_upper_triangular(4, gf(2))
    f = (0, 0, 1, 0, 1, 1)
    target = alg.dim - len(rref(_bracket_gram(alg, f), alg.ring.linalg_ops())[0]) // 2
    spaces = [Subspace.from_vectors(alg, rows) for rows in _all_subspaces(alg, target)]
    C = np.array([S.rows for S in spaces], dtype=np.int64)
    G = _gram(alg, np.array([f] * len(spaces), dtype=np.int64))
    got = _is_polarization(alg, G, C, np.full(len(spaces), target))
    kinds = set()
    for S, ok in zip(spaces, got):
        els = S.row_elements()
        iso = all(
            alg.ring.is_zero(_bracket_value(alg, f, x, y))
            for x in els
            for y in els
        )
        sub = is_subalgebra(alg, S)
        assert ok == (iso and sub), S.rows
        kinds.add((iso, sub))
    assert len(kinds) == 4
    # zero rows pad a candidate and do not count towards its dimension
    padded = np.concatenate([C, np.zeros_like(C)], axis=1)
    assert np.array_equal(_is_polarization(alg, G, padded, np.full(len(spaces), target)), got)
    assert not _is_polarization(alg, G[:1], np.zeros((1, 0, alg.dim), dtype=np.int64),
                                np.array([target]))[0]


def test_is_polarization_closure_on_larger_fields():
    # over GF(3), GF(4) and GF(9) the annihilator rows have entries other
    # than 1, so the closure check must use them with the field's arithmetic
    for name in ("ul(3,3)", "ul(3,4)", "ul(3,9)", "ul(4,3)"):
        alg = resolve(name)
        kinds = set()
        for k in range(alg.dim + 1):
            every = list(_all_subspaces(alg, k))
            spaces = [Subspace.from_vectors(alg, rows) for rows in every[::len(every) // 200 + 1]]
            C = np.array([S.rows for S in spaces], dtype=np.int64).reshape(len(spaces), k, alg.dim)
            G = np.zeros((len(spaces), alg.dim, alg.dim), dtype=np.int64)
            got = _is_polarization(alg, G, C, np.full(len(spaces), k))
            for S, ok in zip(spaces, got):
                assert ok == is_subalgebra(alg, S), (name, S.rows)
                kinds.add(bool(ok))
        assert kinds == {True, False}, name


def test_polarization_rank_comes_from_its_own_reduction(monkeypatch):
    # a form of odd rank is no commutator form; the rank and its parity come
    # from the row reduction of G, not from the pairs of the flag pass
    A = strictly_upper_triangular(3, gf(2))
    monkeypatch.setattr(
        polarization, "_gram", lambda A, fs: np.tile(np.eye(A.dim, dtype=np.int64), (len(fs), 1, 1))
    )
    with pytest.raises(VerificationFailed) as err:
        find_polarization(A, [(0, 0, 1)])
    assert err.value.stage == "form-rank-even"


def test_polarization_without_a_candidate_is_search_exhausted(monkeypatch):
    # a candidate that fails its checks goes to the enumeration, which is
    # bounded at dim 4; past it the search gives up with the functional
    monkeypatch.setattr(polarization, "_is_polarization", lambda A, G, C, t: np.zeros(len(G), bool))
    A = strictly_upper_triangular(4, gf(2))
    with pytest.raises(SearchExhausted, match=r"\(0, 0, 1, 0, 0, 0\)"):
        find_polarization(A, [(0, 0, 1, 0, 0, 0)])


def test_polarization_requires_a_field():
    from oneplusa.nilalg import Z_RING

    A = free_nilpotent(Z_RING, 2, 2)
    with pytest.raises(TypeError):
        find_polarization(A, [(0,) * A.dim])
