"""Monomial certificates for irreducible characters of unit groups 1 + A.

Every irreducible character of 1 + A over a finite field F_q is induced from
a linear character alpha of a subgroup 1 + B, B a subalgebra, and its degree
is q^(dim A - dim B).  gutkin_decompose builds that pair by descending
through codimension-one ideals A > A_1 > ... > B, and verifies every claim
it relies on along the way: the minimal scalar level, conjugation invariance
of the central character, the commutator pairing on (A/A^2) x (A^(m-1)/A^m)
with all three of its bilinearity laws, the ideals cut out by the induced
linear map, and the extension lemma for 1 + U (nonempty, a single
conjugation orbit, stabilizer exactly 1 + A_1).  The pairing is scanned and
checked once per group and level, with values in the finite quotient
Q = (1+A^m)/(1+A, 1+A^m) and no character involved; each central character
then only has to be checked to be a character of Q.  Violations surface as
VerificationFailed with a witness, so the module doubles as a falsification
harness for the theorem it implements.

find_polarization is the companion construction for linear functionals: a
subalgebra isotropic for the commutator form f(xy - yx), of dimension
dim A - rank/2.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .chars import (
    ClassFunction,
    character_table,
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
    NotWellDefined,
    SearchExhausted,
    VerificationFailed,
    WrongStabilizer,
)
from .exactfield import Cyclotomic, FieldElement, trace
from .nilalg import AlgebraElement, Subspace, is_ideal, is_subalgebra
from .unitgroup import (
    DEFAULT_GROUP_CAP,
    Subgroup,
    UnitGroup,
    commutator_subgroup,
    digits,
    field_tables,
    map_indices,
    power_subgroup,
    subspace_subgroup,
    undigits,
)


# ---------------------------------------------------------------------------
# quotient spaces W / V with a canonical complement basis


class QuotientSpace:
    """W / V for nested subspaces V <= W of a finite-field algebra.

    The complement basis is canonical: the rows of W reduced modulo V and
    re-echelonized, so two runs always agree.  Quotient coordinates are
    field element indices relative to that basis.  On W the projection is
    linear: matrix (dim A x dim W/V) holds sub.reduce(e_t) read off at the
    complement pivots, for use on whole arrays of vectors."""

    __slots__ = ("algebra", "sub", "sup", "rows", "pivots", "matrix")

    def __init__(self, algebra, sub, sup):
        if not sup.contains_subspace(sub):
            raise ValueError("quotient needs nested subspaces")
        ops = algebra.ring.linalg_ops()
        reduced = [sub.reduce(r) for r in sup.rows]
        rows, pivots = linalg.rref(
            [r for r in reduced if any(not ops.is_zero(c) for c in r)], ops
        )
        self.algebra = algebra
        self.sub = sub
        self.sup = sup
        self.rows = rows
        self.pivots = pivots
        self.matrix = np.array(
            [[sub.reduce(e)[p] for p in pivots] for e in algebra.basis()],
            dtype=np.int64,
        ).reshape(algebra.dim, len(pivots))

    @property
    def dim(self):
        return len(self.rows)

    def project(self, v):
        """Quotient coordinates of v (an element or coords); v must lie in W."""
        red = self.sub.reduce(v)
        coords = linalg.coords_in_rowspace(
            red, self.rows, self.pivots, self.algebra.ring.linalg_ops()
        )
        if coords is None:
            raise ValueError("vector outside the numerator subspace")
        return coords

    def rep(self, coords):
        """The canonical coset representative with these quotient coordinates."""
        ops = self.algebra.ring.linalg_ops()
        return AlgebraElement(
            self.algebra, linalg.combine(coords, self.rows, ops, self.algebra.dim)
        )

    def all_coords(self):
        q = self.algebra.ring.field.q
        points = digits(np.arange(q ** self.dim), q, self.dim)
        return [tuple(c) for c in points.tolist()]


# ---------------------------------------------------------------------------
# scalar level and the commutator pairing


def minimal_scalar_level(chi):
    """Smallest m >= 1 such that chi acts by scalars on 1 + A^m, together
    with the central character zeta as {group index: value}.

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

    Character-free, and computed and verified once per group and level: the
    scan over every g in 1+A and h in 1+A^(m-1) checks that each commutator
    lies in 1+A^m, that its class in Q depends only on the two cosets, and
    that all q^(dim dom + dim cod) points are covered; the three bilinearity
    laws (multiplicativity in x, in y, and the scalar swap
    C(lam*x, y) = C(x, lam*y)) are then checked on Q's multiplication table.

    Returns a dict with the quotient spaces dom and cod, Sm = 1+A^m, the
    FiniteGroupTable Q (identity 0), to_q (ambient index -> Q index, -1 off
    1+A^m), gens (the Q indices of the generators of 1+A^m) and values (Q
    indices, one row per dom point and one column per cod point, in
    all_coords order)."""
    if m < 2:
        raise ValueError("the pairing needs m >= 2")
    cache = getattr(group, "_quotient_pairing_cache", None)
    if cache is None:
        cache = group._quotient_pairing_cache = {}
    if m in cache:
        return cache[m]

    A = group.algebra
    field = group.field
    q = field.q
    T, inv = group.table, group.group.inv
    Sm = power_subgroup(group, m)
    whole = Subgroup(group, np.arange(group.order), verify=False)
    K = commutator_subgroup(whole, Sm)
    if not Sm.mask[K.indices].all():
        raise VerificationFailed("level-quotient", witness=m)
    Hm, emb, sub_of = Sm.std_group
    Q, proj, _ = Hm.group.quotient(sub_of[K.indices])
    to_q = np.full(group.order, -1, dtype=np.int64)
    to_q[emb] = proj
    gens = sorted({int(proj[g]) for g in Hm.generator_indices()})

    dom = QuotientSpace(A, A.power_subspace(2), A.power_subspace(1))
    cod = QuotientSpace(A, A.power_subspace(m), A.power_subspace(m - 1))
    xs, ys = dom.all_coords(), cod.all_coords()
    garr = np.arange(group.order)
    xid = map_indices(field, garr, dom.matrix)
    present, first, block = np.unique(xid, return_index=True, return_inverse=True)
    values = np.full((len(xs), len(ys)), -1, dtype=np.int64)
    filled_by = {}
    hs = power_subgroup(group, m - 1).indices
    for h, y in zip(hs.tolist(), map_indices(field, hs, cod.matrix).tolist()):
        qv = to_q[T[T[T[garr, h], inv], inv[h]]]  # (g h g^-1) h^-1 for every g
        if (qv < 0).any():
            g = int(np.nonzero(qv < 0)[0][0])
            raise VerificationFailed("pairing-level-containment", witness=(g, h))
        col = qv[first]
        bad = np.nonzero(qv != col[block])[0]
        if len(bad):
            g = int(bad[0])
            raise NotWellDefined(((int(first[block[g]]), h), (g, h)))
        if y not in filled_by:
            values[present, y] = col
            filled_by[y] = h
            continue
        bad = np.nonzero(values[present, y] != col)[0]
        if len(bad):
            g = int(first[bad[0]])
            raise NotWellDefined(((g, filled_by[y]), (g, h)))
    missing = np.argwhere(values < 0)
    if len(missing):
        i, j = missing[0]
        raise VerificationFailed("pairing-coverage", witness=(xs[i], ys[j]))

    add_t, mul_t = field_tables(field)
    X = np.array(xs, dtype=np.int64)
    Y = np.array(ys, dtype=np.int64)
    QT = Q.table
    xsum = undigits(add_t[X[:, None], X[None, :]], q)
    ysum = undigits(add_t[Y[:, None], Y[None, :]], q)
    for i, row in enumerate(values):
        bad = np.argwhere(values[xsum[i]] != QT[row, values])
        if len(bad):
            j, t = bad[0]
            raise NotBilinear(("additive-in-x", xs[i], xs[j], ys[t]))
        bad = np.argwhere(row[ysum] != QT[row[:, None], row[None, :]])
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

    cache[m] = {
        "dom": dom,
        "cod": cod,
        "Sm": Sm,
        "Q": Q,
        "to_q": to_q,
        "gens": gens,
        "values": values,
    }
    return cache[m]


def quotient_character(group, m, zeta):
    """zeta, given on 1+A^m as {group index: value}, as a list over the
    indices of Q = (1+A^m)/(1+A, 1+A^m), after checking that it is a
    character of Q: constant on the cosets of (1+A, 1+A^m) (for a character
    of 1+A^m, exactly conjugation invariance), zeta(1) = 1, and
    zeta(a g) = zeta(a) zeta(g) for every a in Q and every g in a generating
    set of Q, which is enough in a finite group."""
    data = quotient_pairing(group, m)
    to_q = data["to_q"]
    n = data["Q"].order
    vals, where = [None] * n, [None] * n
    for s in data["Sm"].indices.tolist():
        t = int(to_q[s])
        if where[t] is None:
            vals[t], where[t] = zeta[s], s
        elif zeta[s] != vals[t]:
            raise NotInvariant((where[t], s))
    if vals[0] != 1:
        raise VerificationFailed("zeta-identity", witness=0)
    QT = data["Q"].table
    for a in range(n):
        for g in data["gens"]:
            if vals[int(QT[a, g])] != vals[a] * vals[g]:
                raise VerificationFailed(
                    "zeta-multiplicative", witness=(where[a], where[g])
                )
    return vals


class PairingTable:
    """Exhaustive table of the commutator pairing.

    values[(xc, yc)] = zeta of the group commutator (1+x)(1+y)(1+x)^-1(1+y)^-1
    where xc are the coordinates of x in A/A^2 and yc those of y in
    A^(m-1)/A^m.  Built by commutator_pairing."""

    __slots__ = ("group", "m", "zeta", "dom", "cod", "values")

    def __init__(self, group, m, zeta, dom, cod, values):
        self.group = group
        self.m = m
        self.zeta = zeta
        self.dom = dom
        self.cod = cod
        self.values = values

    def value(self, xc, yc):
        return self.values[(tuple(xc), tuple(yc))]


def commutator_pairing(group, m, zeta):
    """Tabulate (x, y) -> zeta((1+x)(1+y)(1+x)^-1(1+y)^-1) on the quotients
    (A/A^2) x (A^(m-1)/A^m): the verified table of quotient_pairing composed
    with zeta, once quotient_character has checked that zeta is a character
    of Q.  Bilinearity in Q carries over to the values, since zeta is a
    homomorphism."""
    data = quotient_pairing(group, m)
    zq = quotient_character(group, m, zeta)
    xs, ys = data["dom"].all_coords(), data["cod"].all_coords()
    values = {
        (x, y): zq[t]
        for x, row in zip(xs, data["values"].tolist())
        for y, t in zip(ys, row)
    }
    return PairingTable(group, m, zeta, data["dom"], data["cod"], values)


# ---------------------------------------------------------------------------
# from the pairing to a linear map, a line, and the descent ideals


def standard_additive_character(field):
    """t -> zeta_p^(trace of t): the fixed nontrivial character of (F_q, +)."""

    def psi(t):
        return Cyclotomic.zeta(field.p, trace(field.elements[t]))

    return psi


class PhiMap:
    """Matrix of the linear map (A/A^2) -> functionals on (A^(m-1)/A^m)
    induced by a commutator pairing through an additive character psi:
    pairing value at (x, y) = psi(sum_ij x_i rows[i][j] y_j).  Entries are
    field element indices in the quotient bases."""

    __slots__ = ("pairing", "rows", "psi_values")

    def __init__(self, pairing, rows, psi_values):
        self.pairing = pairing
        self.rows = rows
        self.psi_values = psi_values

    def is_zero(self):
        return all(all(c == 0 for c in row) for row in self.rows)

    def apply(self, xc):
        """Functional coordinates of the image of dom coordinates xc."""
        ops = self.pairing.group.algebra.ring.linalg_ops()
        return linalg.combine(xc, self.rows, ops, self.pairing.cod.dim)


def phi_map(pairing, psi=None):
    """Solve for the matrix of the induced linear map from the pairing table.

    Characters of (A^(m-1)/A^m, +) are identified with F_q-linear
    functionals through psi (default: trace composed with the canonical p-th
    root of unity); each matrix entry is pinned down by scanning the scalar
    multiples of one basis vector, and the finished matrix is then verified
    against the whole table.  A failure of either step raises NotLinear."""
    field = pairing.group.field
    q = field.q
    if psi is None:
        psi = standard_additive_character(field)
    psi_values = tuple(psi(t) for t in range(q))
    if all(v == 1 for v in psi_values):
        raise ValueError("the additive character must be nontrivial")

    mul = field.mul_idx
    dx, dy = pairing.dom.dim, pairing.cod.dim
    rows = []
    for i in range(dx):
        ei = tuple(1 if t == i else 0 for t in range(dx))
        row = []
        for j in range(dy):
            matches = [
                t
                for t in range(q)
                if all(
                    pairing.values[(ei, tuple(c if s == j else 0 for s in range(dy)))]
                    == psi_values[mul(c, t)]
                    for c in range(q)
                )
            ]
            if len(matches) != 1:
                raise NotLinear((i, j, matches))
            row.append(matches[0])
        rows.append(tuple(row))
    phi = PhiMap(pairing, tuple(rows), psi_values)

    ops = pairing.group.algebra.ring.linalg_ops()
    ys = pairing.cod.all_coords()
    for xc in pairing.dom.all_coords():
        for yc, t in zip(ys, _matvec(ys, phi.apply(xc), ops)):
            if pairing.values[(xc, yc)] != psi_values[t]:
                raise NotLinear((xc, yc))
    return phi


def _matvec(rows, v, ops):
    # the matrix-vector product rows . v, as a combination of the columns
    return linalg.combine(v, tuple(zip(*rows)), ops, len(rows))


def choose_line(phi):
    """Deterministic direction vector spanning a line L in A^(m-1)/A^m such
    that x -> Phi(x) restricted to L is surjective onto the characters of L.

    Candidates are scanned with the pivot position first and the remaining
    free coordinates counting up, so the first valid normalized vector wins;
    the condition is simply Phi . v != 0."""
    ring = phi.pairing.group.algebra.ring
    q, ops = ring.field.q, ring.linalg_ops()
    dy = phi.pairing.cod.dim
    for pivot in range(dy):
        free = dy - pivot - 1
        for combo in digits(np.arange(q ** free), q, free).tolist():
            v = (0,) * pivot + (1,) + tuple(combo)
            if any(_matvec(phi.rows, v, ops)):
                return v
    raise NoLineFound(phi.rows)


def build_ideals(phi, line):
    """The two descent ideals cut out by a chosen line.

    A1 is the preimage in A of the kernel of x -> Phi(x)|_L, a
    codimension-one two-sided ideal; U is the preimage in A^(m-1) of L
    itself, a two-sided ideal contained in A1.  All three claims are
    verified on basis products before returning."""
    pairing = phi.pairing
    group = pairing.group
    A = group.algebra
    ops = A.ring.linalg_ops()

    w = _matvec(phi.rows, line, ops)
    if not any(w):
        raise ValueError("the line must pair nontrivially with some x")
    kernel = linalg.nullspace([w], pairing.dom.dim, ops)
    lifted = [pairing.dom.rep(row).coords for row in kernel]
    A1 = Subspace.from_vectors(A, lifted + list(A.power_subspace(2).rows))
    if A1.dim != A.dim - 1:
        raise VerificationFailed("descent-codimension", witness=A1.dim)
    if not is_ideal(A, A1):
        raise VerificationFailed("descent-ideal", witness="A1")

    Am = A.power_subspace(pairing.m)
    U = Subspace.from_vectors(A, [pairing.cod.rep(line).coords] + list(Am.rows))
    if U.dim != Am.dim + 1:
        raise VerificationFailed("line-preimage-dimension", witness=U.dim)
    if not is_ideal(A, U):
        raise VerificationFailed("descent-ideal", witness="U")
    if not A1.contains_subspace(U):
        raise VerificationFailed("containment-U-in-A1", witness=(A1.rows, U.rows))
    return A1, U


# ---------------------------------------------------------------------------
# the extension lemma, checked exhaustively


def extension_set(group, U, m, zeta, A1):
    """All linear characters of 1 + U restricting to zeta on 1 + A^m.

    Returns them as {ambient index: value} maps in a deterministic order,
    after checking the three parts of the extension lemma: the set is
    nonempty, it forms a single orbit under conjugation by 1 + A, and the
    stabilizer of each member is exactly 1 + A1.  The precondition that zeta
    kills every commutator of 1 + U is checked first."""
    SU = subspace_subgroup(group, U)
    Sm = power_subgroup(group, m)
    SA1 = subspace_subgroup(group, A1)
    T, inv = group.table, group.group.inv

    for c in group.group.commutator_values(SU.indices, SU.indices):
        c = int(c)
        if not Sm.mask[c] or zeta[c] != 1:
            raise VerificationFailed("extension-precondition", witness=c)

    Ug, emb, sub_of = SU.std_group
    exts = [
        lin
        for lin in linear_characters(Ug)
        if all(
            lin.value_at_index(int(sub_of[int(s)])) == zeta[int(s)]
            for s in Sm.indices
        )
    ]
    if not exts:
        raise EmptyExtensionSet((m, U.rows))

    vid = {}
    ext_vecs = []
    for lin in exts:
        vec = np.empty(Ug.order, dtype=np.int64)
        for n in range(Ug.order):
            vec[n] = vid.setdefault(lin.value_at_index(n), len(vid))
        ext_vecs.append(vec)

    garr = np.arange(group.order)
    inner = T[T[garr[:, None], emb[None, :]], inv[garr][:, None]]  # g (1+u) g^-1
    P = sub_of[inner]
    if (P < 0).any():
        g, i = (int(t[0]) for t in np.nonzero(P < 0))
        raise VerificationFailed("extension-conjugation-closure", witness=(g, i))

    orbit = np.unique(ext_vecs[0][P], axis=0)
    ext_set = np.unique(np.array(ext_vecs), axis=0)
    if not np.array_equal(orbit, ext_set):
        raise MultipleOrbits((len(orbit), len(ext_set)))

    for t, vec in enumerate(ext_vecs):
        stab = (vec[P] == vec[None, :]).all(axis=1)
        if not (stab == SA1.mask).all():
            g = int(np.nonzero(stab != SA1.mask)[0][0])
            raise WrongStabilizer((t, g))

    return [
        {int(emb[i]): lin.value_at_index(i) for i in range(Ug.order)}
        for lin in exts
    ]


# ---------------------------------------------------------------------------
# the full descent


class GutkinStep:
    """Transcript of one descent level, in that level's own coordinates."""

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
        return {
            "dim": self.dim,
            "m": self.m,
            "zeta": [[k, self.zeta[k].to_json()] for k in sorted(self.zeta)],
            "phi": [list(r) for r in self.phi.rows],
            "line": list(self.line),
            "a1": [[int(c) for c in r] for r in self.a1.rows],
            "u": [[int(c) for c in r] for r in self.u.rows],
            "chi_u": [[k, self.chi_u[k].to_json()] for k in sorted(self.chi_u)],
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
        vmap = {
            int(a): self.alpha.value_at_index(i)
            for i, a in enumerate(self.emb_to_top)
        }
        rho = ClassFunction(
            HB,
            tuple(vmap[int(embB[int(c[0])])] for c in HB.conjugacy_classes()),
        )
        return induce(rho, SB)

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


def gutkin_decompose(chi):
    """Produce and verify the monomial certificate for an irreducible chi.

    Linear characters return immediately with B = A.  Otherwise one descent
    step is run (scalar level, pairing, linear map, line, ideals, extension
    checks), the restriction to 1 + A_1 is split against the recursively
    computed character table, and the first constituent rho in table order
    is checked to induce back to chi irreducibly before recursing on it."""
    G = chi.group
    if chi.inner(chi) != 1:
        raise ValueError("only irreducible characters have monomial certificates")

    ops = G.algebra.ring.linalg_ops()
    steps = []
    chain = []
    cur_G, cur_chi = G, chi
    emb_to_top = np.arange(G.order, dtype=np.int64)
    basis_rows = list(Subspace.unit(G.algebra, range(G.algebra.dim)).rows)

    while cur_chi.degree_int() > 1:
        m, zeta = minimal_scalar_level(cur_chi)
        pairing = commutator_pairing(cur_G, m, zeta)
        phi = phi_map(pairing)
        line = choose_line(phi)
        A1, U = build_ideals(phi, line)
        exts = extension_set(cur_G, U, m, zeta, A1)
        steps.append(
            GutkinStep(
                cur_G.algebra.dim, m, zeta, pairing, phi, line, A1, U,
                exts[0], len(exts),
            )
        )

        SA1 = subspace_subgroup(cur_G, A1)
        H, emb, _ = SA1.std_group
        res = restrict(cur_chi, SA1)
        rho = None
        for cand in character_table(H).chars:
            if res.inner(cand) != 0:
                rho = cand
                break
        if rho is None:
            raise VerificationFailed("restriction-constituent", witness=None)
        if not mackey_irreducible(rho, SA1):
            raise VerificationFailed("induced-irreducibility", witness=A1.rows)
        if induce(rho, SA1) != cur_chi:
            raise VerificationFailed("induction-mismatch", witness=A1.rows)

        chain.append(
            Subspace.from_vectors(
                G.algebra,
                [linalg.combine(r, basis_rows, ops, G.algebra.dim) for r in A1.rows],
            )
        )
        basis_rows = [
            linalg.combine(r, basis_rows, ops, G.algebra.dim)
            for r in H.algebra.embed_rows
        ]
        emb_to_top = emb_to_top[emb]
        cur_G, cur_chi = H, rho

    datum = MonomialDatum(chi, chain, cur_chi, steps, cur_G, emb_to_top)
    datum.verify()
    return datum


def verify_gutkin_all(algebra, cap=DEFAULT_GROUP_CAP):
    """Run gutkin_decompose on every irreducible character of 1 + A, using
    the independent table oracle, and return a JSON-able report.  Every
    degree must come out as a power of q; any falsified step raises."""
    G = algebra if isinstance(algebra, UnitGroup) else UnitGroup(algebra, cap=cap)
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


# ---------------------------------------------------------------------------
# polarizations of linear functionals


def _as_functional(algebra, f):
    out = []
    for c in f:
        if isinstance(c, FieldElement):
            if c.field is not algebra.ring.field:
                raise TypeError("functional over a different field")
            out.append(c.index)
        else:
            c = int(c)
            if not 0 <= c < algebra.ring.field.q:
                raise ValueError("functional coordinates are field element indices")
            out.append(c)
    if len(out) != algebra.dim:
        raise ValueError(f"need {algebra.dim} coordinates")
    return tuple(out)


def _apply_functional(f, coords, ring):
    s = ring.zero
    for fc, c in zip(f, coords):
        if not (ring.is_zero(fc) or ring.is_zero(c)):
            s = ring.add(s, ring.mul(fc, c))
    return s


def _bracket_value(algebra, f, x, y):
    return _apply_functional(f, (x * y - y * x).coords, algebra.ring)


def _ideal_flag(algebra):
    """A complete flag of two-sided ideals refining the power chain, built
    deepest power first: anything between A^(k+1) and A^k is an ideal since
    both A.A^k and A^k.A land in A^(k+1)."""
    taken = []
    spaces = []
    cur = Subspace.from_vectors(algebra, [])
    for k in range(algebra.nilpotency_index - 1, 0, -1):
        for row in algebra.power_subspace(k).rows:
            if cur.contains(row):
                continue
            taken.append(row)
            cur = Subspace.from_vectors(algebra, taken)
            spaces.append(cur)
    return spaces


def _form_radical(algebra, f, space):
    """Vectors spanning {x in V : f([x, y]) = 0 for all y in V}."""
    els = space.row_elements()
    ring = algebra.ring
    rows = [
        tuple(_bracket_value(algebra, f, x, y) for y in els)
        for x in els
    ]
    null = linalg.nullspace(rows, len(els), ring.linalg_ops())
    return [linalg.combine(c, space.rows, ring.linalg_ops(), algebra.dim) for c in null]


def _is_polarization(algebra, f, space, target):
    if space.dim != target:
        return False
    els = space.row_elements()
    ring = algebra.ring
    for x in els:
        for y in els:
            if not ring.is_zero(_bracket_value(algebra, f, x, y)):
                return False
    return is_subalgebra(algebra, space)


def _all_subspaces(algebra, k):
    """Canonical RREF bases of every dimension-k subspace."""
    n = algebra.dim
    q = algebra.ring.field.q
    for pivots in itertools.combinations(range(n), k):
        free = [
            [c for c in range(p + 1, n) if c not in pivots] for p in pivots
        ]
        slots = sum(len(x) for x in free)
        for combo in itertools.product(range(q), repeat=slots):
            it = iter(combo)
            rows = []
            for p, cols in zip(pivots, free):
                row = [0] * n
                row[p] = 1
                for c in cols:
                    row[c] = next(it)
                rows.append(tuple(row))
            yield rows


def find_polarization(algebra, f):
    """A subalgebra isotropic for the form (x, y) -> f(xy - yx), of the
    maximal possible dimension dim A - rank/2.

    The candidate is the sum of the radicals of the form restricted along a
    complete ideal flag refining the power chain; isotropy, multiplicative
    closure and the dimension formula are all checked, and if any fails the
    search falls back to full subspace enumeration (practical to dim 4)."""
    ring = algebra.ring
    if ring.kind != "field":
        raise TypeError("polarizations are computed over finite fields")
    f = _as_functional(algebra, f)
    ops = ring.linalg_ops()

    basis = algebra.basis()
    gram = [
        tuple(_bracket_value(algebra, f, x, y) for y in basis) for x in basis
    ]
    rank = len(linalg.rref(gram, ops)[0])
    assert rank % 2 == 0, "the commutator form must have even rank"
    target = algebra.dim - rank // 2

    vecs = []
    for space in _ideal_flag(algebra):
        vecs.extend(_form_radical(algebra, f, space))
    cand = Subspace.from_vectors(algebra, vecs)
    if _is_polarization(algebra, f, cand, target):
        return cand

    if algebra.dim <= 4:
        for rows in _all_subspaces(algebra, target):
            cand = Subspace.from_vectors(algebra, rows)
            if _is_polarization(algebra, f, cand, target):
                return cand
    raise SearchExhausted(
        f"no isotropic subalgebra of dimension {target} found"
    )
