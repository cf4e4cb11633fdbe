"""Symbolic commutator identities over Z and Z[lam], and the finite
brute-force pairing check.

The defects are computed in free algebras truncated one level past the
claimed membership degree, so a wrong implementation would show up as a
nonzero low-degree word, not as a vacuous pass.
"""

import numpy as np
import pytest

from oneplusa.chars import linear_characters
from oneplusa.errors import CapExceeded, NotInvariant, VerificationFailed
from oneplusa.exactfield import gf
from oneplusa.gutkin import commutator_pairing, quotient_character, quotient_pairing
from oneplusa.identities import (
    additivity_defect,
    additivity_defect_check,
    beta,
    finite_pairing_check,
    halasi_explore,
    lemma_auxiliary_check,
    scaling_defect,
    scaling_defect_check,
)
from oneplusa.nilalg import (
    FieldRing,
    Z_RING,
    free_nilpotent,
    quotient_algebra,
    strictly_upper_triangular,
)
from oneplusa.unitgroup import UnitGroup, power_subgroup, unit, unit_group_of


# -- the collapsed commutator --------------------------------------------------


def test_lemma_simplest_case():
    # two generators, class 3, m = 2: (1+x, 1+y) = 1 + xy - yx on the nose
    ok, residual = lemma_auxiliary_check(2, 3, 2)
    assert ok
    assert residual.is_zero()


def test_lemma_full_grid():
    for gens in (1, 2, 3):
        for n in range(2, 6):
            for m in range(2, n):
                ok, residual = lemma_auxiliary_check(gens, n, m)
                assert ok, (gens, n, m, residual.render())


def test_lemma_truncates_to_identity_for_large_m():
    ok, residual = lemma_auxiliary_check(2, 3, 5)
    assert ok and residual.is_zero()


def test_lemma_three_generators_product_word():
    ok, residual = lemma_auxiliary_check(3, 4, 3)
    assert ok and residual.is_zero()


def test_lemma_rejects_m_one():
    with pytest.raises(ValueError):
        lemma_auxiliary_check(2, 3, 1)


def test_collapse_fails_without_depth():
    # sanity that the lemma is not vacuous: with y a plain generator and
    # m = 3 the commutator does NOT equal 1 + [x, y]
    N = free_nilpotent(Z_RING, 2, 4)
    x, y = N.basis_element(0), N.basis_element(1)
    lhs = beta(unit(x), unit(y))
    rhs = unit(x * y - y * x)
    assert not (lhs.a - rhs.a).is_zero()


# -- additivity defect ---------------------------------------------------------


def test_additivity_defect_membership():
    assert additivity_defect_check(2)
    assert additivity_defect_check(3)


def test_additivity_defect_is_not_trivial():
    # the defect itself is a nontrivial unit; only its low words vanish
    d = additivity_defect(2)
    assert not d.a.is_zero()
    degs = d.a.algebra.graded_degrees
    low = [c for c, deg in zip(d.a.coords, degs) if deg <= 2]
    high = [c for c, deg in zip(d.a.coords, degs) if deg > 2]
    assert all(c == 0 for c in low)
    assert any(c != 0 for c in high)


def test_additivity_defect_zero_summand():
    # with x2 = 0 the defect collapses to the identity exactly
    J = free_nilpotent(Z_RING, 3, 4, names=["x1", "x2", "a1"])
    x1 = J.basis_element(0)
    y = J.basis_element(2)
    zero = J.zero()
    d = (
        beta(unit(x1 + zero), unit(y))
        * beta(unit(x1), unit(y)).inverse()
        * beta(unit(zero), unit(y)).inverse()
    )
    assert d.a.is_zero()


def test_additivity_defect_hits_dimension_cap():
    # m = 4 needs five generators at class 5: dimension 780 > 400
    with pytest.raises(CapExceeded):
        additivity_defect_check(4)


# -- scaling defect ------------------------------------------------------------


def test_scaling_defect_membership():
    for m in (2, 3, 4):
        assert scaling_defect_check(m), m


def test_scaling_defect_coefficients():
    # for m = 2 the surviving words sit in degree 3 with coefficients
    # +-(lam - lam^2), which vanish at lam = 1
    d = scaling_defect(2)
    J = d.a.algebra
    nonzero = {
        lab: c.render()
        for lab, c in zip(J.labels, d.a.coords)
        if not c.is_zero()
    }
    assert nonzero == {
        "x*a1*x": "lam - lam^2",
        "x*a1*a1": "-lam + lam^2",
        "a1*x*x": "-lam + lam^2",
        "a1*x*a1": "lam - lam^2",
    }


def test_scaling_defect_specializes_to_identity():
    for m in (2, 3):
        d = scaling_defect(m)
        assert all(sum(c.coeffs) == 0 for c in d.a.coords)  # value at lam = 1


# -- finite pairing at the quotient level ---------------------------------------


def _exponents(S, values):
    """zeta in the exponent format on the subgroup S: {index of S: +1 or -1}
    as exponents mod the group exponent e (-1 = zeta_e^(e/2)), one per
    element of S.indices, each of which must be given."""
    e = S.group.exponent()
    return np.array([0 if values[n] == 1 else e // 2 for n in S.indices.tolist()])


def test_finite_pairing_heisenberg():
    A = strictly_upper_triangular(3, gf(2))
    S = power_subgroup(unit_group_of(A), 2)
    assert finite_pairing_check(A, 2, _exponents(S, {0: 1, 1: -1}))
    assert finite_pairing_check(A, 2, _exponents(S, {0: 1, 1: 1}))
    # here (1+A, 1+A^2) is trivial, so Q is all of 1+A^2
    data = quotient_pairing(unit_group_of(A), 2)
    assert data["Q"].order == data["Sm"].order == 2


def test_finite_pairing_every_invariant_zeta():
    cases = [
        (strictly_upper_triangular(3, gf(3)), 2),
        (strictly_upper_triangular(4, gf(2)), 2),
        (strictly_upper_triangular(4, gf(2)), 3),
        (free_nilpotent(FieldRing(gf(2)), 2, 3), 2),
    ]
    for A, m in cases:
        G = unit_group_of(A)
        # a character of Q is checked on a generating set of Q only
        data = quotient_pairing(G, m)
        Q = data["Q"]
        assert len(Q.subgroup_closure(Q.generator_indices())) == Q.order
        checked = 0
        for zeta in linear_characters(power_subgroup(G, m)):
            try:
                assert finite_pairing_check(A, m, zeta)
                checked += 1
            except NotInvariant:
                continue
        assert checked >= 1, (A.dim, m)


def test_finite_pairing_counts_invariant_characters_u42():
    # (1+A, 1+A^2) = 1+A^3 has order 2, so exactly half of the eight
    # characters of 1+A^2 survive the invariance test
    A = strictly_upper_triangular(4, gf(2))
    G = unit_group_of(A)
    good = bad = 0
    for zeta in linear_characters(power_subgroup(G, 2)):
        try:
            finite_pairing_check(A, 2, zeta)
            good += 1
        except NotInvariant:
            bad += 1
    assert (good, bad) == (4, 4)


def test_finite_pairing_on_quotient_algebra():
    # class-4 free algebra reduced mod its cube behaves like the class-3 one
    J = free_nilpotent(FieldRing(gf(2)), 2, 4)
    A, project, lift = quotient_algebra(J, J.power_subspace(3))
    assert A.dim == 6
    G = unit_group_of(A)
    zetas = linear_characters(power_subgroup(G, 2))
    assert len(zetas) == 16  # 1 + A^2 is elementary abelian of order 16
    for zeta in zetas:
        assert finite_pairing_check(A, 2, zeta)


def _free_223_non_character():
    # On free(2,2,3), 1+A^2 is central and elementary abelian of order 16,
    # and the commutators of 1+A are 1 and 1 + x1x2 - x2x1.  zeta is the
    # character "-1 on the x1x2 coefficient" except at 1 + x1^2, where it
    # is -1 too; the pairing scan never evaluates zeta there.
    A = free_nilpotent(FieldRing(gf(2)), 2, 3)
    G = unit_group_of(A)
    S = power_subgroup(G, 2)
    signs = {}
    for s in S.indices.tolist():
        c = G.coords_of_index(s)
        signs[s] = -1 if c[3] or c == (0, 0, 1, 0, 0, 0) else 1
    assert signs[G.index_of_coords((0, 0, 0, 1, 1, 0))] == -1
    return A, _exponents(S, signs)


def test_finite_pairing_rejects_non_character():
    heisenberg = strictly_upper_triangular(3, gf(2))
    cases = [
        # not multiplicative: the value at 1 must be 1
        (heisenberg, _exponents(power_subgroup(unit_group_of(heisenberg), 2), {0: -1, 1: 1}),
         "zeta-identity"),
        _free_223_non_character() + ("zeta-multiplicative",),
    ]
    for A, bad, stage in cases:
        with pytest.raises(VerificationFailed) as err:
            finite_pairing_check(A, 2, bad)
        assert err.value.stage == stage
        # the descent's pairing shares the check, so it rejects bad as well
        with pytest.raises(VerificationFailed) as err:
            commutator_pairing(unit_group_of(A), 2, bad)
        assert err.value.stage == stage


def _loop_quotient_character(G, m, zeta):
    # the element-by-element checks of quotient_character, as a reference
    data = quotient_pairing(G, m)
    e, to_q, n = G.exponent(), data["to_q"], data["Q"].order
    vals, where = [None] * n, [None] * n
    for s, z in zip(data["Sm"].indices.tolist(), zeta.tolist()):
        t = int(to_q[s])
        if where[t] is None:
            vals[t], where[t] = z, s
        elif z != vals[t]:
            raise NotInvariant((where[t], s))
    if vals[0] != 0:
        raise VerificationFailed("zeta-identity", witness=0)
    QT = data["Q"].table
    for a in range(n):
        for g in data["Q"].generator_indices():
            if vals[int(QT[a, g])] != (vals[a] + vals[g]) % e:
                raise VerificationFailed("zeta-multiplicative", witness=(where[a], where[g]))
    return vals


def _outcome(check, *args):
    try:
        return list(check(*args))
    except VerificationFailed as err:
        return (err.stage, err.witness)


def test_quotient_character_matches_the_loop_reference():
    # every linear character of 1 + A^m, then each with one value moved or
    # dropped, and with its values moved on one whole coset of
    # (1+A, 1+A^m): same result, or same failing stage and witness
    rng = np.random.default_rng(5)
    cases = [
        (strictly_upper_triangular(4, gf(2)), 2),
        (strictly_upper_triangular(4, gf(2)), 3),
        (strictly_upper_triangular(3, gf(3)), 2),
        (free_nilpotent(FieldRing(gf(2)), 2, 3), 2),
        (strictly_upper_triangular(4, gf(3)), 2),
    ]
    outcomes = set()
    for A, m in cases:
        G = UnitGroup(A)
        e = G.exponent()
        S = power_subgroup(G, m)
        to_q = quotient_pairing(G, m)["to_q"][S.indices]
        for zeta in linear_characters(S):
            shifted, dropped, coset = zeta.copy(), zeta.copy(), zeta.copy()
            s, t = (int(x) for x in rng.choice(S.order, 2))  # positions in S
            shifted[s] = (shifted[s] + 1) % e
            dropped[t] = -1
            on = to_q == rng.integers(1, to_q.max() + 1)
            coset[on] = (coset[on] + 1) % e
            for z in (zeta, shifted, dropped, coset):
                got = _outcome(quotient_character, G, m, z)
                assert got == _outcome(_loop_quotient_character, G, m, z)
                outcomes.add(got[0] if isinstance(got, tuple) else "character")
    assert outcomes == {"character", "conjugation-invariance", "zeta-identity",
                        "zeta-multiplicative"}


# -- the derived-intersection explorer ------------------------------------------


def test_halasi_orders_class_three():
    r = halasi_explore(gf(2), 2, 3, 2)
    assert (r["lhs_order"], r["rhs_order"]) == (2, 2)
    assert r["equal"]
    r = halasi_explore(gf(3), 2, 3, 2)
    assert (r["lhs_order"], r["rhs_order"]) == (3, 3)
    assert r["equal"]


def test_halasi_top_level_is_trivial():
    r = halasi_explore(gf(2), 2, 3, 3)
    assert (r["lhs_order"], r["rhs_order"]) == (1, 1)
    assert r["equal"]


def test_halasi_containment_always_reported():
    for k in (2, 3):
        r = halasi_explore(gf(2), 2, 3, k)
        assert r["rhs_order"] <= r["lhs_order"]


def test_halasi_rejects_k_one():
    with pytest.raises(ValueError):
        halasi_explore(gf(2), 2, 3, 1)
