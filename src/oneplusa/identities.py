"""Exact commutator identities in free nilpotent algebras.

The group commutator of 1+x and 1+y collapses to 1+[x, y] once y sits deep
enough in the power filtration; the additivity and scaling defects of that
commutator, computed over Z and Z[lam] with no modular shortcuts, vanish in
all word degrees <= m.  Over a finite field the same statements are checked
at the level of the quotient Q = (1+A^m)/(1+A, 1+A^m), with
no character theory involved: the pairing is tabulated and checked once per
group and level (gutkin.quotient_pairing), and each zeta is only checked to
be a character of Q, given as exponents mod e (the chars format for linear
characters, no Cyclotomic values).  The explorer at the bottom measures
whether the derived-subgroup intersection (1+J, 1+J) with 1+J^k collapses
to (1+J, 1+J^(k-1)) over finite fields, where the characteristic-zero
argument is unavailable; it reports orders and takes no side.
"""

from .errors import VerificationFailed
from .gutkin import quotient_character
from .nilalg import (
    FREE_DIM_CAP,
    FieldRing,
    LAMBDA_RING,
    Poly,
    Z_RING,
    free_nilpotent,
)
from .unitgroup import (
    DEFAULT_GROUP_CAP,
    Subgroup,
    commutator_subgroup,
    power_subgroup,
    unit,
    unit_group_of,
)


def beta(g, h):
    """g h g^-1 h^-1 for unit elements; the group-theory commutator in the
    order matching the pairing definition."""
    return g * h * g.inverse() * h.inverse()


def _free_dim(gens, nil_index):
    return sum(gens ** L for L in range(1, nil_index))


def _truncation_index(gens, m):
    # Membership of the defect in 1+J^(m+1) only depends on the image mod
    # J^(m+1), so class m+1 is already a faithful check.  When the cap
    # allows, work one level deeper so the defect is visibly nonzero and
    # the grading argument has teeth.
    if _free_dim(gens, m + 2) <= FREE_DIM_CAP:
        return m + 2
    return m + 1


def _generator_word(J, indices):
    w = J.basis_element(indices[0])
    for i in indices[1:]:
        w = w * J.basis_element(i)
    return w


def _words_up_to_degree_vanish(a, m):
    ring = a.algebra.ring
    degs = a.algebra.graded_degrees
    return all(
        ring.is_zero(c) for c, d in zip(a.coords, degs) if d <= m
    )


def lemma_auxiliary_check(gens, n, m):
    """(1+x)(1+y)(1+x)^-1(1+y)^-1 = 1 + xy - yx exactly, for x a generator
    and y a product of m-1 generators, computed in the free algebra of class
    n truncated at J^(m+1).  Returns (passed, residual element)."""
    if m < 2:
        raise ValueError("the identity needs m >= 2")
    if gens < 1:
        raise ValueError("need at least one generator")
    N = free_nilpotent(Z_RING, gens, min(n, m + 1))
    x = N.basis_element(0)
    if gens == 1:
        picks = [0] * (m - 1)
    else:
        picks = [1 + (t % (gens - 1)) for t in range(m - 1)]
    y = _generator_word(N, picks)
    lhs = beta(unit(x), unit(y))
    rhs = unit(x * y - y * x)
    residual = lhs.a - rhs.a
    return residual.is_zero(), residual


def additivity_defect(m):
    """The unit beta(1+x1+x2, 1+y) beta(1+x1, 1+y)^-1 beta(1+x2, 1+y)^-1
    over Z, with y = a_1 ... a_(m-1) a product of fresh generators."""
    if m < 2:
        raise ValueError("the defect needs m >= 2")
    gens = m + 1
    names = ["x1", "x2"] + [f"a{j}" for j in range(1, m)]
    J = free_nilpotent(Z_RING, gens, _truncation_index(gens, m), names=names)
    x1, x2 = J.basis_element(0), J.basis_element(1)
    y = _generator_word(J, list(range(2, m + 1)))
    u, v = unit(x1), unit(x2)
    w = unit(y)
    return (
        beta(unit(x1 + x2), w)
        * beta(u, w).inverse()
        * beta(v, w).inverse()
    )


def additivity_defect_check(m):
    """All words of length <= m in the additivity defect have coefficient
    zero, i.e. the defect lies in 1+J^(m+1)."""
    return _words_up_to_degree_vanish(additivity_defect(m).a, m)


def scaling_defect(m):
    """beta(1+lam*x, 1+y) beta(1+x, 1+lam*y)^-1 over Z[lam]."""
    if m < 2:
        raise ValueError("the defect needs m >= 2")
    gens = m
    names = ["x"] + [f"a{j}" for j in range(1, m)]
    J = free_nilpotent(
        LAMBDA_RING, gens, _truncation_index(gens, m), names=names
    )
    lam = Poly.lam()
    x = J.basis_element(0)
    y = _generator_word(J, list(range(1, m))) if m > 1 else x
    return (
        beta(unit(x.scale(lam)), unit(y))
        * beta(unit(x), unit(y.scale(lam))).inverse()
    )


def scaling_defect_check(m):
    """The scaling defect lies in 1+J^(m+1), coefficients polynomial in
    lam; exact over Z[lam]."""
    return _words_up_to_degree_vanish(scaling_defect(m).a, m)


# -- finite-field verification at the quotient level ---------------------------


def finite_pairing_check(algebra, m, zeta, cap=DEFAULT_GROUP_CAP):
    """Check, independent of any character table, that the
    commutator map factors through (A/A^2) x (A^(m-1)/A^m) into the finite
    quotient Q = (1+A^m)/(1+A, 1+A^m) and is bilinear there (verified once
    per group and level by quotient_pairing); then that zeta (exponents mod
    e over the indices of 1+A^m, as chars.linear_characters lists them) is
    a character of Q, which for a character of 1+A^m is exactly
    conjugation invariance."""
    quotient_character(unit_group_of(algebra, cap), m, zeta)
    return True


# -- the derived-intersection question over finite fields ----------------------


def halasi_explore(field, num_gens, n, k, cap=DEFAULT_GROUP_CAP):
    """Orders of (1+J,1+J) intersected with 1+J^k versus (1+J,1+J^(k-1)) in
    the free nilpotent algebra of class n over a finite field.  The right
    side is always contained in the left (that containment is asserted);
    whether they are equal is reported, not asserted."""
    if k < 2:
        raise ValueError("the comparison needs k >= 2")
    J = free_nilpotent(FieldRing(field), num_gens, n)
    G = unit_group_of(J, cap)
    whole = power_subgroup(G, 1)
    derived = commutator_subgroup(whole, whole)
    Sk = power_subgroup(G, k)
    lhs = Subgroup(G, derived.indices[Sk.mask[derived.indices]])
    rhs = commutator_subgroup(whole, power_subgroup(G, k - 1))
    outside = rhs.indices[~lhs.mask[rhs.indices]]
    if len(outside):
        raise VerificationFailed(
            "derived-intersection-containment", witness=outside[:4].tolist()
        )
    return {
        "field": field.q,
        "num_gens": num_gens,
        "nil_index": n,
        "k": k,
        "lhs_order": lhs.order,
        "rhs_order": rhs.order,
        "equal": lhs.order == rhs.order,
    }
