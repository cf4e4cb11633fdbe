"""Monomial certificates for irreducible characters of unit groups 1 + A.

Every irreducible character of 1 + A over a finite field F_q is induced from
a linear character alpha of a subgroup 1 + B, B a subalgebra, and its degree
is q^(dim A - dim B).  gutkin_decompose builds that pair by descending
through codimension-one ideals A > A_1 > ... > B, and verifies every claim
it relies on along the way: the minimal scalar level, conjugation invariance
of the central character, the commutator pairing on (A/A^2) x (A^(m-1)/A^m)
with all three of its bilinearity laws, the ideals cut out by the induced
linear map, and the extension lemma for 1 + U (nonempty, a single
conjugation orbit, stabilizer exactly 1 + A_1), checked on the generator
columns of 1 + U (extension_set).  All of that reads only the group, the
level m and the central character zeta, so it runs once per (group, m,
zeta) (descent_step).  Per character there remain the Clifford projection
of chi onto one extension, over q coset representatives and with no
character table of 1 + A_1 (clifford_constituent), and the recursion.  The
pairing is computed once per group and level from coset representatives, on
the quotient spaces A/A^2 and A^(m-1)/A^m (nilalg.QuotientSpace), with values
in the finite quotient Q = (1+A^m)/(1+A, 1+A^m) and no character involved;
the paper's containment (1+A^2, 1+A^(m-1)) <= (1+A, 1+A^m) makes it well
defined (quotient_pairing), and each central character then only has to be
checked to be a character of Q.  Violations surface as VerificationFailed
with a witness, so the module doubles as a falsification harness for the
theorem it implements.

Linear characters (zeta, its extensions to 1 + U, the pairing values, the
additive character psi) are int64 exponent arrays in the chars format:
t stands for zeta_e^t (zeta_p^t for psi), compared and multiplied mod e, and
a character of a subgroup H has one entry per element of H.indices.
Cyclotomic values are built only in GutkinStep.to_json and PairingTable.value.

find_polarization, the companion construction for linear functionals, lives
in the polarization module and is part of this module's API.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .chars import (
    CellRows,
    ClassFunction,
    character_table,
    clifford_parts,
    induce,
    linear_characters,
    mackey_irreducible,
    restrict,
    scalar_character_on,
)
from .errors import (
    EmptyExtensionSet,
    MultipleOrbits,
    NoLineFound,
    NotBilinear,
    NotInvariant,
    NotLinear,
    VerificationFailed,
    WrongStabilizer,
)
from .exactfield import Cyclotomic, trace
from .nilalg import QuotientSpace, Subspace
from .polarization import find_polarization  # noqa: F401  (gutkin.find_polarization)
from .unitgroup import (
    check_commutator_theorem,
    commutator_subgroup,
    digits,
    orbit_labels,
    polynomial_basis,
    power_subgroup,
    subspace_subgroup,
    undigits,
)


# ---------------------------------------------------------------------------
# scalar level and the commutator pairing


def minimal_scalar_level(chi):
    """Smallest m >= 1 such that chi acts by scalars on 1 + A^m, together
    with the central character zeta as exponents mod e over the indices of
    1 + A^m (see scalar_character_on).

    m = 1 exactly when chi is linear, and m always exists because 1 + A^n is
    trivial at the nilpotency index n.  Conjugation invariance of zeta is
    not checked here: commutator_pairing (through quotient_character) checks
    that zeta is constant on the cosets of K = (1+A, 1+A^m), and that implies
    it, since g h g^-1 = (g h g^-1 h^-1) h with the first factor in K."""
    group = chi.group
    for m in range(1, group.algebra.nilpotency_index + 1):
        zeta = scalar_character_on(chi, power_subgroup(group, m))
        if zeta is not None:
            return m, zeta
    raise RuntimeError("no scalar level found")  # unreachable: 1 + A^n = {1}


def quotient_pairing(group, m):
    """The commutator pairing (1+x, 1+y) -> (1+x)(1+y)(1+x)^-1(1+y)^-1 with
    values in Q = (1+A^m)/(1+A, 1+A^m), on (A/A^2) x (A^(m-1)/A^m).
    (1+A, 1+A^m) is unitgroup.commutator_subgroup, the normal closure of the
    commutators of the generators of 1+A with those of 1+A^m.

    Character-free, and computed and verified once per group and level from
    one commutator per pair of coset representatives 1+x, 1+y (x, y over the
    complement rows of dom and cod).  With K = (1+A, 1+A^m) and
    [g, h] = g h g^-1 h^-1, the class of [g, h] in Q depends only on the
    cosets: [g, hk] = [g, h] h[g, k]h^-1 with [g, k] in K for k in 1+A^m, K
    normal; [gk, h] = g[k, h]g^-1 [g, h] with [k, h] in (1+A^2, 1+A^(m-1))
    <= K for k in 1+A^2, the paper's containment, checked by
    check_commutator_theorem(group, 2, m-1) (pairing-well-defined); and
    1 + x + a lies in (1+x)(1+A^2) for a in A^2, an ideal, as does y mod A^m.
    So the table is covered by construction.  Each representative commutator
    must lie in 1+A^m (pairing-level-containment), and the three bilinearity
    laws (multiplicativity in x, in y, and the scalar swap
    C(lam*x, y) = C(x, lam*y)) are checked on Q's multiplication table.

    Returns a dict with the quotient spaces dom and cod, Sm = 1+A^m, the
    FiniteGroupTable Q (identity 0; its generators are the images of those
    of 1+A^m), to_q (ambient index -> Q index, -1 off 1+A^m) and values (Q
    indices, one row per dom point and one column per cod point, in
    all_coords order)."""
    if m < 2:
        raise ValueError("the pairing needs m >= 2")
    return group.memo(("quotient_pairing", m), lambda: _quotient_pairing(group, m))


def _quotient_pairing(group, m):
    A = group.algebra
    field = group.field
    Sm = power_subgroup(group, m)
    K = commutator_subgroup(power_subgroup(group, 1), Sm)
    if not Sm.mask[K.indices].all():
        raise VerificationFailed("level-quotient", witness=m)
    Q, to_q, _ = Sm.quotient(K.indices)

    ok, witness = check_commutator_theorem(group, 2, m - 1)
    if not ok:
        raise VerificationFailed("pairing-well-defined", witness=witness)

    dom = QuotientSpace(A, A.power_subspace(2), A.power_subspace(1))
    cod = QuotientSpace(A, A.power_subspace(m), A.power_subspace(m - 1))
    gx, hy = group.span_indices(dom.rows), group.span_indices(cod.rows)
    values = to_q[group.comm(gx[:, None], hy[None, :])]
    bad = np.argwhere(values < 0)
    if len(bad):
        i, j = bad[0]
        raise VerificationFailed("pairing-level-containment", witness=(int(gx[i]), int(hy[j])))

    _check_bilinear(Q, values, field, dom.dim, cod.dim)
    return {"dom": dom, "cod": cod, "Sm": Sm, "Q": Q, "to_q": to_q, "values": values}


def _check_bilinear(Q, values, field, dx, dy):
    """NotBilinear unless the table values (Q indices, one row per point x
    of GF(q)^dx and one column per point y of GF(q)^dy, in base-q order)
    is additive in x, additive in y, and has C(lam*x, y) = C(x, lam*y).

    Additivity is checked on an F_p-basis only: f(0, y) = 1 and
    f(x + b, y) = f(x, y) f(b, y) for every x and y and every b in the basis
    x^s e_i (s < k) of GF(p^k)^dx over F_p.  That gives all of it, by
    induction on the number of basis vectors in a sum: let S be the set of
    x with f(x + z, y) = f(x, y) f(z, y) for every z and y.  0 lies in S
    as f(0, y) = 1.  If x lies in S, so does x + b: f(x + b + z, y) =
    f(x + z, y) f(b, y) = f(x, y) f(z, y) f(b, y) = f(x + b, y) f(z, y), by
    the basis check at x + z, then at x, in the abelian Q (it is a
    quotient of 1+A^m by a subgroup containing (1+A^m, 1+A^m)).  Every
    point is a sum of basis vectors, so S is everything; y likewise.  A
    failure names its stage and the triple (x, x', y) or (x, y, y') whose
    product law fails.

    The scalar swap is checked at lam = g, the generator of F_q* that
    field.logs runs around, only.  The lam with C(lam*x, y) = C(x, lam*y)
    for all x and y are closed under products: if mu and nu are such,
    C(mu nu*x, y) = C(nu*x, mu*y) = C(x, nu mu*y).  0 and 1 pass, by the
    additivity stage's C(0, y) = C(x, 0) = 1, and the powers of g are all
    of F_q*, so every lam passes.  A failure names (g, x, y)."""
    q, F = field.q, linalg.field_arrays(field)
    X = digits(np.arange(q ** dx), q, dx)
    Y = digits(np.arange(q ** dy), q, dy)
    xs, ys = [tuple(x) for x in X.tolist()], [tuple(y) for y in Y.tolist()]
    bad = np.nonzero(values[0] != 0)[0]
    if len(bad):
        raise NotBilinear(("additive-in-x", xs[0], xs[0], ys[bad[0]]))
    for b in _prime_basis(field, dx):
        bad = np.argwhere(values[undigits(F.add(X, X[b]), q)] != Q.mul(values, values[b]))
        if len(bad):
            i, t = bad[0]
            raise NotBilinear(("additive-in-x", xs[i], xs[b], ys[t]))
    bad = np.nonzero(values[:, 0] != 0)[0]
    if len(bad):
        raise NotBilinear(("additive-in-y", xs[bad[0]], ys[0], ys[0]))
    for b in _prime_basis(field, dy):
        bad = np.argwhere(values[:, undigits(F.add(Y, Y[b]), q)]
                          != Q.mul(values, values[:, b, None]))
        if len(bad):
            i, t = bad[0]
            raise NotBilinear(("additive-in-y", xs[i], ys[t], ys[b]))
    g = field.logs[1][1]
    bad = np.argwhere(values[undigits(F.mul(g, X), q)] != values[:, undigits(F.mul(g, Y), q)])
    if len(bad):
        i, j = bad[0]
        raise NotBilinear(("scalar-swap", g, xs[i], ys[j]))


def _prime_basis(field, d):
    """Base-q indices of the F_p-basis x^s e_i (s < k, i < d) of GF(p^k)^d."""
    return [c * field.q ** (d - 1 - i) for i in range(d) for c in polynomial_basis(field)]


def quotient_character(group, m, zeta):
    """zeta, given on 1+A^m as exponents mod e = group.exponent() over the
    indices of power_subgroup(group, m), as an array over the indices of
    Q = (1+A^m)/(1+A, 1+A^m), after checking that it is a character of Q:
    constant on the cosets of (1+A, 1+A^m) (for a character of 1+A^m,
    exactly conjugation invariance), zeta(1) = 1, and
    zeta(a g) = zeta(a) zeta(g) for every a in Q and every g in a generating
    set of Q, which is enough in a finite group."""
    data = quotient_pairing(group, m)
    e = group.exponent()
    s = data["Sm"].indices
    t = data["to_q"][s]
    _, first = np.unique(t, return_index=True)  # Q index -> first s in its coset
    vals, where = zeta[first], s[first]
    bad = np.nonzero(zeta != vals[t])[0]
    if len(bad):
        raise NotInvariant((int(where[t[bad[0]]]), int(s[bad[0]])))
    if vals[0] != 0:
        raise VerificationFailed("zeta-identity", witness=0)
    Q = data["Q"]
    gens = np.array(Q.generator_indices(), dtype=np.int64)
    prods = vals[Q.mul(np.arange(Q.order)[:, None], gens[None, :])]
    bad = np.argwhere(prods != (vals[:, None] + vals[gens][None, :]) % e)
    if len(bad):
        a, g = bad[0]
        raise VerificationFailed(
            "zeta-multiplicative", witness=(int(where[a]), int(where[gens[g]]))
        )
    return vals


class PairingTable:
    """Exhaustive table of the commutator pairing.

    values[i * len(ys) + j] = t with zeta_e^t = zeta of the group commutator
    (1+x)(1+y)(1+x)^-1(1+y)^-1, where x has the i-th coordinates of A/A^2
    and y the j-th of A^(m-1)/A^m (all_coords order) and e is the group
    exponent.  value() renders one entry as a Cyclotomic.  Built by
    commutator_pairing."""

    __slots__ = ("group", "m", "dom", "cod", "values")

    def __init__(self, group, m, dom, cod, values):
        self.group = group
        self.m = m
        self.dom = dom
        self.cod = cod
        self.values = values

    def value(self, xc, yc):
        q = self.group.field.q
        t = self.values[int(undigits(xc, q)) * q ** self.cod.dim + int(undigits(yc, q))]
        return Cyclotomic.zeta(self.group.exponent(), int(t))


def commutator_pairing(group, m, zeta):
    """Tabulate (x, y) -> zeta((1+x)(1+y)(1+x)^-1(1+y)^-1) on the quotients
    (A/A^2) x (A^(m-1)/A^m): the verified table of quotient_pairing composed
    with zeta, once quotient_character has checked that zeta is a character
    of Q.  Bilinearity in Q carries over to the values, since zeta is a
    homomorphism."""
    data = quotient_pairing(group, m)
    zq = quotient_character(group, m, zeta)
    values = zq[data["values"]].ravel()
    return PairingTable(group, m, data["dom"], data["cod"], values)


# ---------------------------------------------------------------------------
# from the pairing to a linear map, a line, and the descent ideals


def standard_additive_character(field):
    """t -> zeta_p^(trace of t), the fixed nontrivial character of (F_q, +),
    as the array of its exponents mod p over the field element indices."""
    return np.array([trace(x) for x in field.elements], dtype=np.int64)


class PhiMap:
    """Matrix of the linear map (A/A^2) -> functionals on (A^(m-1)/A^m)
    induced by a commutator pairing through an additive character psi:
    pairing value at (x, y) = psi(sum_ij x_i rows[i][j] y_j).  Entries are
    field element indices in the quotient bases."""

    __slots__ = ("pairing", "rows")

    def __init__(self, pairing, rows):
        self.pairing = pairing
        self.rows = rows


def phi_map(pairing, psi=None):
    """Solve for the matrix of the induced linear map from the pairing table.

    Characters of (A^(m-1)/A^m, +) are identified with F_q-linear
    functionals through psi, given as exponents mod p over the field
    element indices (default: trace composed with the canonical p-th root
    of unity); each matrix entry is pinned down by scanning the scalar
    multiples of one basis vector, and the finished matrix is then verified
    against the whole table.  A failure of either step raises NotLinear."""
    field = pairing.group.field
    q, F = field.q, linalg.field_arrays(field)
    if psi is None:
        psi = standard_additive_character(field)
    psi = np.asarray(psi, dtype=np.int64)
    if not (psi % field.p).any():
        raise ValueError("the additive character must be nontrivial")
    # zeta_p^s = zeta_e^(s e/p): psi in the exponents of the pairing values
    e = pairing.group.exponent()
    psi_e = psi * (e // field.p) % e

    dx, dy = pairing.dom.dim, pairing.cod.dim
    V = pairing.values.reshape(q ** dx, q ** dy)
    # V at (e_i, c e_j) for every i, c, j against psi(c t) for every c, t
    unit_x = q ** np.arange(dx - 1, -1, -1)
    unit_y = q ** np.arange(dy - 1, -1, -1)
    c = np.arange(q)
    at = V[unit_x[:, None, None], c[None, :, None] * unit_y[None, None, :]]
    match = (at[:, :, :, None] == psi_e[F.mul(c[:, None], c)][None, :, None, :]).all(axis=1)
    bad = np.argwhere(match.sum(axis=2) != 1)
    if len(bad):
        i, j = (int(x) for x in bad[0])
        raise NotLinear((i, j, np.nonzero(match[i, j])[0].tolist()))
    R = match.argmax(axis=2)
    phi = PhiMap(pairing, tuple(tuple(r) for r in R.tolist()))

    # x^T R y over GF(q) at every point of the table
    X = digits(np.arange(q ** dx), q, dx)
    Y = digits(np.arange(q ** dy), q, dy)
    xRy = F.matmul(F.matmul(X, R), Y.T)
    bad = np.argwhere(V != psi_e[xRy])
    if len(bad):
        i, j = bad[0]
        raise NotLinear((pairing.dom.all_coords()[i], pairing.cod.all_coords()[j]))
    return phi


def _line_image(phi, lines):
    # Phi . v over GF(q) for each candidate direction v (the last axis)
    F = linalg.field_arrays(phi.pairing.group.field)
    return F.matmul(lines, np.array(phi.rows).T)


def choose_line(phi):
    """Deterministic direction vector spanning a line L in A^(m-1)/A^m such
    that x -> Phi(x) restricted to L is surjective onto the characters of L.

    Candidates are scanned with the pivot position first and the remaining
    free coordinates counting up, so the first valid normalized vector wins;
    the condition is simply Phi . v != 0."""
    q = phi.pairing.group.field.q
    dy = phi.pairing.cod.dim
    for pivot in range(dy):
        free = dy - pivot - 1
        cands = np.zeros((q ** free, dy), dtype=np.int64)
        cands[:, pivot] = 1
        cands[:, pivot + 1:] = digits(np.arange(q ** free), q, free)
        hit = np.nonzero(_line_image(phi, cands).any(axis=1))[0]
        if len(hit):
            return tuple(cands[hit[0]].tolist())
    raise NoLineFound(phi.rows)


def _between_powers(A, S, low, high):
    """A^low <= S <= A^high, which for low <= high + 1 makes S a two-sided
    ideal: A S <= A^(high+1) <= A^low <= S, and S A likewise."""
    return (S.contains_subspace(A.power_subspace(low))
            and A.power_subspace(high).contains_subspace(S))


def build_ideals(phi, line):
    """The two descent ideals cut out by a chosen line.

    A1 is the preimage in A of the kernel of x -> Phi(x)|_L, a
    codimension-one two-sided ideal; U is the preimage in A^(m-1) of L
    itself, a two-sided ideal contained in A1.  The codimensions and U <= A1
    are checked directly, and both ideal claims by containment
    (_between_powers): A^2 <= A1 gives A A1 <= A^2 <= A1, and
    A^m <= U <= A^(m-1) gives A U <= A A^(m-1) <= A^m <= U, on both
    sides."""
    pairing = phi.pairing
    group = pairing.group
    A = group.algebra
    F = linalg.field_arrays(group.field)

    w = _line_image(phi, line)
    if not w.any():
        raise ValueError("the line must pair nontrivially with some x")
    # the null rows of w (zero rows at its pivot column) lifted through the
    # complement basis of A/A^2: they and A^2 span A1
    lifted = F.matmul(F.nullrows(w.reshape(1, 1, -1))[0], pairing.dom.basis.R)
    A1 = Subspace.from_vectors(A, lifted.tolist() + list(A.power_subspace(2).rows))
    if A1.dim != A.dim - 1:
        raise VerificationFailed("descent-codimension", witness=A1.dim)
    if not _between_powers(A, A1, 2, 1):
        raise VerificationFailed("descent-ideal", witness="A1")

    Am = A.power_subspace(pairing.m)
    U = Subspace.from_vectors(A, [pairing.cod.rep(line).coords] + list(Am.rows))
    if U.dim != Am.dim + 1:
        raise VerificationFailed("line-preimage-dimension", witness=U.dim)
    if not _between_powers(A, U, pairing.m, pairing.m - 1):
        raise VerificationFailed("descent-ideal", witness="U")
    if not A1.contains_subspace(U):
        raise VerificationFailed("containment-U-in-A1", witness=(A1.rows, U.rows))
    return A1, U


# ---------------------------------------------------------------------------
# the extension lemma, checked on generator columns


def extension_set(group, U, m, zeta, A1):
    """All linear characters of 1 + U restricting to zeta on 1 + A^m.

    zeta, a character of 1 + A^m (commutator_pairing checks it), is given
    over the indices of 1 + A^m; the extensions are returned as rows of
    exponents mod e over the indices of 1 + U, in linear_characters order,
    after checking the extension lemma: the set is nonempty, one orbit
    under conjugation by 1 + A, and each member's stabilizer is exactly
    1 + A1.  Characters of 1 + A^m that agree on its generators are equal,
    so the rows are matched with zeta there, and those must lie in 1 + U.

    The zeta-free half is built once per (group, U) (_extension_data): the
    generators gens of 1 + U and their commutators, the linear characters
    of 1 + U, the closure check and the orbits under 1 + A.  Then:
    - Precondition, first: zeta kills the commutators of pairs of gens.
      (1+U, 1+U) is their normal closure in 1 + U, and ker zeta is normal
      in 1 + A (quotient_character has checked zeta multiplicative and
      constant on the cosets of (1+A, 1+A^m)), so zeta kills (1+U, 1+U).
      A commutator outside 1 + A^m fails before zeta is looked up.
    - Closure of 1 + U under conjugation: each s in gens conjugated by each
      generator g of 1 + A, as in FiniteGroupTable.is_normal; witness (g, s).
    - Orbit: a linear character lambda is fixed by its values on gens, and
      its conjugate by g takes the value lambda(g^-1 s g) at s, so each
      generator of 1 + A permutes the characters; the extensions must be
      the orbit of the first (MultipleOrbits with the two sizes otherwise).
    - Stabilizer, proved: the orbit of lambda = exts[0] has
      |G| / |Stab(lambda)| members.  If the generators of 1 + A1 fix
      lambda and |orbit| |1 + A1| = |G|, then Stab(lambda) = 1 + A1 (a
      subgroup of the same order), and so is g^-1 Stab(lambda) g, the
      stabilizer of lambda^g, when 1 + A1 is normal (Subgroup.is_normal).  Only when one of these three checks
      fails are the stabilizers scanned for the WrongStabilizer witness
      (t, g): the member t and the first g where its stabilizer and 1 + A1
      differ."""
    data = _extension_data(group, U)
    SU = subspace_subgroup(group, U)
    Sm = power_subgroup(group, m)
    cs = data["cs"]
    bad = ~Sm.mask[cs]
    bad[~bad] = zeta[np.searchsorted(Sm.indices, cs[~bad])] != 0
    if bad.any():
        raise VerificationFailed("extension-precondition", witness=int(cs[bad][0]))

    lins, s = data["lins"], np.array(Sm.generator_indices(), dtype=np.int64)
    hit = np.zeros(len(lins), dtype=bool)  # none, unless 1 + A^m <= 1 + U
    if SU.mask[s].all():
        hit = (lins[:, np.searchsorted(SU.indices, s)]
               == zeta[np.searchsorted(Sm.indices, s)]).all(axis=1)
    idx = np.nonzero(hit)[0]
    if not len(idx):
        raise EmptyExtensionSet((m, U.rows))

    if data["outside"] is not None:
        raise VerificationFailed("extension-conjugation-closure", witness=data["outside"])

    orbit = np.nonzero(data["orbits"] == data["orbits"][idx[0]])[0]
    if not np.array_equal(orbit, idx):
        raise MultipleOrbits((len(orbit), len(idx)))

    SA1 = subspace_subgroup(group, A1)
    gens, at = data["gens"], data["at"]
    lam = lins[idx[0]]
    moved = group.conj(gens[None, :], np.array(SA1.generator_indices())[:, None])
    proved = ((lam[np.searchsorted(SU.indices, moved)] == lam[at]).all()
              and len(idx) * SA1.order == group.order
              and SA1.is_normal())
    if not proved:
        P = np.searchsorted(SU.indices, group.conj(gens[None, :], np.arange(group.order)[:, None]))
        for t, vec in enumerate(lins[idx]):
            stab = (vec[P] == vec[at][None, :]).all(axis=1)
            if not (stab == SA1.mask).all():
                g = int(np.nonzero(stab != SA1.mask)[0][0])
                raise WrongStabilizer((t, g))
    return lins[idx]


def _extension_data(group, U):
    """The zeta-free half of extension_set, built once per (group, U) and
    kept in the group's memo: gens, the generators of 1 + U, and at, their
    positions among its indices; cs, their commutators; lins, the linear
    characters of 1 + U (over its indices); outside, the first pair
    (g, s) of a generator g of 1 + A and s of gens with g^-1 s g outside
    1 + U, or None; and orbits, the least row index in the orbit of each
    row of lins (unitgroup.orbit_labels), when 1 + U is closed.  A row's
    conjugate by g is the row whose values on gens are its values at
    g^-1 gens g, one permutation of the rows per generator of 1 + A."""
    def build():
        SU = subspace_subgroup(group, U)
        gens = np.array(SU.generator_indices(), dtype=np.int64)
        at = np.searchsorted(SU.indices, gens)
        lins = linear_characters(SU)
        data = {"gens": gens, "at": at, "cs": group.commutator_values(gens, gens),
                "lins": lins, "outside": None, "orbits": None}
        ggens = np.array(group.generator_indices(), dtype=np.int64)
        moved = group.conj(gens[None, :], ggens[:, None])
        outside = np.argwhere(~SU.mask[moved])
        if len(outside):
            i, j = outside[0]
            data["outside"] = (int(ggens[i]), int(gens[j]))
            return data
        # the rows on gens and their images, as keys of one 1-D unique
        images = lins[:, np.searchsorted(SU.indices, moved)].transpose(1, 0, 2)
        rows = np.concatenate([lins[:, at][None], images])
        flat = np.ascontiguousarray(rows.reshape(-1, len(gens)))
        _, key = np.unique(flat.view(np.dtype((np.void, flat.itemsize * len(gens)))).ravel(),
                           return_inverse=True)
        key = key.reshape(len(rows), len(lins))
        row_of = np.full(key.max() + 1, -1, dtype=np.int64)
        row_of[key[0]] = np.arange(len(lins))
        moves = row_of[key[1:]]
        bad = np.argwhere(moves < 0)
        if len(bad):  # a conjugate that is no linear character of 1 + U
            k, i = bad[0]
            raise VerificationFailed("extension-conjugate-character", witness=(int(ggens[k]), int(i)))
        data["orbits"] = orbit_labels(moves, len(lins))
        return data
    return group.memo(("extension", U.rows), build)


# ---------------------------------------------------------------------------
# the full descent


def descent_step(group, m, zeta):
    """What a descent step reads from (group, m, zeta) alone, once per key
    in the group's memo: pairing, phi, line, A1, U, the extensions of zeta
    to 1 + U, and reps, the indices of 1 + c y (c in F_q) for the lift y of
    the line, U = A^m + F_q y."""
    def build():
        pairing = commutator_pairing(group, m, zeta)
        phi = phi_map(pairing)
        line = choose_line(phi)
        A1, U = build_ideals(phi, line)
        exts = extension_set(group, U, m, zeta, A1)
        return pairing, phi, line, A1, U, exts, group.span_indices([pairing.cod.rep(line).coords])
    return group.memo(("descent_step", m, zeta.tobytes()), build)


class GutkinStep:
    """Transcript of one descent level, in that level's own coordinates;
    zeta and chi_u are rows over the indices of 1 + A^m and of 1 + U."""

    __slots__ = (
        "dim", "m", "zeta", "pairing", "phi", "line", "a1", "u",
        "chi_u", "num_extensions",
    )

    def __init__(self, dim, m, zeta, pairing, phi, line, a1, u, chi_u, num_extensions):
        self.dim = dim
        self.m = m
        self.zeta = zeta
        self.pairing = pairing
        self.phi = phi
        self.line = line
        self.a1 = a1
        self.u = u
        self.chi_u = chi_u
        self.num_extensions = num_extensions

    def to_json(self):
        group = self.pairing.group
        e = group.exponent()
        zetas = [Cyclotomic.zeta(e, t).to_json() for t in range(e)]

        def render(exps, H):  # the pairs [k, zeta_e^t] as one cell table
            n = len(H.indices)
            return CellRows(H.indices.tolist() + zetas, np.stack([np.arange(n), n + exps], 1))

        return {
            "dim": self.dim,
            "m": self.m,
            "zeta": render(self.zeta, power_subgroup(group, self.m)),
            "phi": [list(r) for r in self.phi.rows],
            "line": list(self.line),
            "a1": [[int(c) for c in r] for r in self.a1.rows],
            "u": [[int(c) for c in r] for r in self.u.rows],
            "chi_u": render(self.chi_u, subspace_subgroup(group, self.u)),
            "extensions": self.num_extensions,
        }


class MonomialDatum:
    """Verified certificate for one irreducible character: a chain of
    codimension-one ideals from A down to the subalgebra B, and a linear
    character alpha of 1 + B inducing the character exactly, with
    deg chi = q^(dim A - dim B)."""

    def __init__(self, chi, chain, alpha, steps, bottom_group, emb_to_top):
        self.group = chi.group
        self.chi = chi
        self.chain = chain  # Subspaces of the top algebra: A_1, ..., B
        self.alpha = alpha  # linear character on the bottom standalone group
        self.steps = steps
        self.bottom_group = bottom_group
        self.emb_to_top = emb_to_top  # bottom index -> ambient index
        self.verified = False

    @property
    def bottom_space(self):
        if self.chain:
            return self.chain[-1]
        return Subspace.unit(self.group.algebra, range(self.group.algebra.dim))

    def induced_from_bottom(self):
        """Induce alpha from 1 + B straight up to the top group."""
        if not self.chain:
            return self.alpha
        SB = subspace_subgroup(self.group, self.chain[-1])
        HB, embB, _ = SB.std_group
        # HB and the bottom group both enumerate 1 + B, possibly in different orders
        bottom_of = np.full(self.group.order, -1, dtype=np.int64)
        bottom_of[self.emb_to_top] = np.arange(len(self.emb_to_top))
        alpha_class = self.bottom_group.class_of[bottom_of[embB[HB.class_reps()]]]
        return induce(ClassFunction._of(HB, self.alpha.coeffs[alpha_class]), SB)

    def verify(self):
        """Degree formula and one-shot induction from the bottom, both exact."""
        G = self.group
        q = G.field.q
        space = Subspace.unit(G.algebra, range(G.algebra.dim))
        for link in self.chain:
            if not (space.contains_subspace(link) and link.dim == space.dim - 1):
                raise VerificationFailed("chain-step", witness=link.rows)
            space = link
        if self.chi.degree_int() != q ** (G.algebra.dim - self.bottom_space.dim):
            raise VerificationFailed(
                "degree-power",
                witness=(self.chi.degree_int(), G.algebra.dim - self.bottom_space.dim),
            )
        if self.induced_from_bottom() != self.chi:
            raise VerificationFailed("induced-character", witness=None)
        self.verified = True
        return True

    def to_json(self):
        bottom = self.bottom_group
        gens = sorted(set(bottom.generator_indices()))
        return {
            "order": self.group.order,
            "dim": self.group.algebra.dim,
            "degree": self.chi.degree_int(),
            "chain": [[[int(c) for c in r] for r in s.rows] for s in self.chain],
            "bottom_dim": self.bottom_space.dim,
            "alpha": [
                [int(self.emb_to_top[g]), self.alpha.value_at_index(g).to_json()]
                for g in gens
            ],
            "steps": [s.to_json() for s in self.steps],
            "verified": self.verified,
        }


def clifford_constituent(chi, SA1, SU, exts, reps):
    """The constituent rho of chi restricted to H = 1 + A1 that induces chi,
    by Clifford projection onto the extensions exts of zeta to N = 1 + U.

    exts holds rows over the indices of N, as extension_set returns them.
    N is normal (U is an ideal), exts is a single orbit under 1 + A and H
    is the stabilizer of each member (extension_set), so Res_H chi is the
    sum of its exts-parts, each irreducible, and each induces chi.  rho is
    the part with the least sort_key: the first constituent in table order.
    <rho, rho> = 1 and rho(1) > 0 are checked (VerificationFailed).

    The sum over N runs over reps (descent_step; all of N also does): chi
    is zeta on 1 + A^m and each l in exts extends zeta, so conj(l(n)) chi(hn)
    is constant on the cosets of 1 + A^m, and the q elements 1 + c y lie one
    in each of the q, as (1+cy)^-1 (1+c'y) = 1 + (c'-c)y mod A^(2m-2) <= A^m."""
    _, _, sub_of = SA1.std_group
    parts = clifford_parts(restrict(chi, SA1), sub_of[reps],
                           exts[:, np.searchsorted(SU.indices, reps)], chi.group.exponent())
    rho = min(parts, key=ClassFunction.sort_key)
    norm = rho.inner(rho)
    if norm != 1:
        raise VerificationFailed("constituent-irreducible", witness=str(norm))
    if rho.coeffs[0, 1:].any() or rho.coeffs[0, 0] <= 0:
        raise VerificationFailed("constituent-degree", witness=str(rho.degree))
    return rho


def gutkin_decompose(chi):
    """Produce and verify the monomial certificate for an irreducible chi.

    Linear characters return immediately with B = A.  Otherwise one descent
    step is run (scalar level, then descent_step), the constituent rho of
    the restriction to 1 + A_1 is projected out by Clifford theory
    (clifford_constituent), and rho is checked to induce back to chi
    irreducibly before recursing on it.  No character table is computed on
    the way down."""
    G = chi.group
    if chi.inner(chi) != 1:
        raise ValueError("only irreducible characters have monomial certificates")

    F = linalg.field_arrays(G.field)
    steps = []
    chain = []
    cur_G, cur_chi = G, chi
    emb_to_top = np.arange(G.order, dtype=np.int64)
    basis = np.eye(G.algebra.dim, dtype=np.int64)  # cur_G's basis in top coordinates

    while cur_chi.degree_int() > 1:
        m, zeta = minimal_scalar_level(cur_chi)
        pairing, phi, line, A1, U, exts, reps = descent_step(cur_G, m, zeta)
        steps.append(
            GutkinStep(
                cur_G.algebra.dim, m, zeta, pairing, phi, line, A1, U,
                exts[0], len(exts),
            )
        )

        SA1 = subspace_subgroup(cur_G, A1)
        H, emb, _ = SA1.std_group
        rho = clifford_constituent(cur_chi, SA1, subspace_subgroup(cur_G, U), exts, reps)
        if not mackey_irreducible(rho, SA1):
            raise VerificationFailed("induced-irreducibility", witness=A1.rows)
        if induce(rho, SA1) != cur_chi:
            raise VerificationFailed("induction-mismatch", witness=A1.rows)

        # H's basis is A1's rows (subalgebra_algebra embeds it by them), so
        # one product gives both the chain link and the next level's basis
        basis = F.matmul(A1.R, basis)
        chain.append(Subspace.from_vectors(G.algebra, basis.tolist()))
        emb_to_top = emb_to_top[emb]
        cur_G, cur_chi = H, rho

    datum = MonomialDatum(chi, chain, cur_chi, steps, cur_G, emb_to_top)
    datum.verify()
    return datum


def verify_gutkin_all(G):
    """Run gutkin_decompose on every irreducible character of the unit group
    G = 1 + A, using the independent table oracle, and return a JSON-able
    report.  Every degree must come out as a power of q; any falsified step
    raises."""
    q = G.field.q
    entries = []
    for t, chi in enumerate(character_table(G).chars):
        datum = gutkin_decompose(chi)
        d = chi.degree_int()
        n = d
        while n % q == 0:
            n //= q
        if n != 1:
            raise VerificationFailed("degree-not-power-of-q", witness=d)
        entries.append(
            {
                "char": t,
                "degree": d,
                "levels": [s.m for s in datum.steps],
                "extensions": [s.num_extensions for s in datum.steps],
                "bottom_dim": datum.bottom_space.dim,
                "verified": datum.verified,
            }
        )
    return {
        "order": G.order,
        "dim": G.algebra.dim,
        "field": q,
        "characters": len(entries),
        "verified": sum(1 for e in entries if e["verified"]),
        "entries": entries,
    }
