"""Exact complex character tables of the unit groups, plus the induction
and restriction toolkit.

The table is computed by the classical modular method: central characters
omega_k = n_k chi(g_k) / chi(1) are simultaneous eigenvectors of the class
multiplication matrices; over F_ell with ell = 1 mod exponent(G) and
ell > 2 sqrt(|G|) the eigenspaces split the class algebra into r lines,
and the actual character values are recovered from the mod-ell data by a
discrete Fourier transform over power maps.  Everything after recovery is
verified by exact orthogonality over Q(zeta_e).

This module deliberately knows nothing about the monomial-certificate
machinery; it is the independent reference the certificates are checked
against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import VerificationFailed
from .exactfield import CYC_ZERO, Cyclotomic, euler_phi, is_prime, prime_factors

# ---------------------------------------------------------------------------
# dense linear algebra mod ell (small matrices, numpy int64)


def _inv_mod(a, l):
    return pow(int(a), l - 2, l)


def _rref_mod(M, l):
    M = M.copy() % l
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if len(nz) == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            M[[r, p]] = M[[p, r]]
        M[r] = (M[r] * _inv_mod(M[r, c], l)) % l
        other = np.nonzero(M[:, c])[0]
        for t in other:
            if t != r:
                M[t] = (M[t] - M[t, c] * M[r]) % l
        pivots.append(c)
        r += 1
    return M[:r], pivots


def _nullspace_mod(M, l):
    """Rows spanning {v : M v = 0 mod l}."""
    R, pivots = _rref_mod(M, l)
    cols = M.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for t, f in enumerate(free):
        out[t, f] = 1
        for rr, pc in enumerate(pivots):
            out[t, pc] = (-R[rr, f]) % l
    return out


def _hessenberg_mod(M, l):
    H = M.copy() % l
    n = H.shape[0]
    for c in range(n - 2):
        nz = np.nonzero(H[c + 1:, c])[0]
        if len(nz) == 0:
            continue
        p = c + 1 + int(nz[0])
        if p != c + 1:
            H[[c + 1, p]] = H[[p, c + 1]]
            H[:, [c + 1, p]] = H[:, [p, c + 1]]
        inv = _inv_mod(H[c + 1, c], l)
        for r in range(c + 2, n):
            if H[r, c]:
                f = (H[r, c] * inv) % l
                H[r] = (H[r] - f * H[c + 1]) % l
                H[:, c + 1] = (H[:, c + 1] + f * H[:, r]) % l
    return H


def _eigenvalues_mod(M, l):
    """All lambda in F_ell with det(M - lambda I) = 0, via one Hessenberg
    reduction and the leading-minor recurrence evaluated at every lambda."""
    n = M.shape[0]
    if n == 0:
        return []
    H = _hessenberg_mod(M, l)
    lam = np.arange(l, dtype=np.int64)
    # D[k](lam) = det of leading k x k block of (H - lam I)
    D = [np.ones(l, dtype=np.int64)]
    sub = [int(H[j, j - 1]) % l for j in range(1, n)]
    for k in range(1, n + 1):
        # expansion along the last column of the k x k block
        total = ((int(H[k - 1, k - 1]) - lam) * D[k - 1]) % l
        prod = 1
        for i in range(k - 2, -1, -1):
            prod = (prod * sub[i]) % l  # sub-diagonal entries rows i+1..k-1
            sign = 1 if (i + k - 1) % 2 == 0 else -1
            coef = (sign * int(H[i, k - 1]) * prod) % l
            if coef:
                total = (total + coef * D[i]) % l
        D.append(total % l)
    return [int(x) for x in np.nonzero(D[n] == 0)[0]]


def _det_mod_bruteforce(M, l):
    # reference determinant by permutation expansion, for cross-checks
    n = M.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for s in range(n):
            if not seen[s]:
                length = 0
                t = s
                while not seen[t]:
                    seen[t] = True
                    t = perm[t]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = sign
        for s in range(n):
            term = term * int(M[s, perm[s]])
        total += term
    return total % l


def _primitive_root(l):
    fac = prime_factors(l - 1)
    for r0 in range(2, l):
        if all(pow(r0, (l - 1) // p, l) != 1 for p in fac):
            return r0
    raise RuntimeError(f"no primitive root mod {l}")  # unreachable for prime l


def _choose_prime(order, exponent):
    # need ell = 1 mod e, ell > 2 sqrt(|G|) (so degrees and multiplicities
    # lift uniquely from F_ell), ell not dividing |G|
    lower = max(math.isqrt(4 * order) + 1, exponent + 1)
    l = ((lower - 2) // exponent + 1) * exponent + 1
    while True:
        if is_prime(l) and order % l != 0:
            return l
        l += exponent


# ---------------------------------------------------------------------------


class ClassFunction:
    """Exact class function on a UnitGroup, one Cyclotomic value per class
    in the group's class order."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        self.group = group
        self.values = tuple(values)

    @property
    def degree(self):
        return self.values[0]

    def degree_int(self):
        return int(self.values[0].rational_value())

    def value_at_index(self, g):
        return self.values[int(self.group.class_of[g])]

    def __add__(self, other):
        self._check(other)
        return ClassFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._check(other)
            return ClassFunction(self.group, tuple(a * b for a, b in zip(self.values, other.values)))
        return ClassFunction(self.group, tuple(v * other for v in self.values))

    __rmul__ = __mul__

    def conj(self):
        return ClassFunction(self.group, tuple(v.conj() for v in self.values))

    def inner(self, other):
        """<self, other> = (1/|G|) sum n_k a_k conj(b_k), exact."""
        self._check(other)
        sizes = [len(c) for c in self.group.conjugacy_classes()]
        total = CYC_ZERO
        for n_k, a, b in zip(sizes, self.values, other.values):
            total = total + a * b.conj() * n_k
        return total * Fraction(1, self.group.order)

    def is_irreducible(self):
        return self.inner(self) == 1

    def _check(self, other):
        if other.group is not self.group:
            raise TypeError("class functions on different groups")

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and other.values == self.values
        )

    def __hash__(self):
        return hash((id(self.group), self.values))

    def sort_key(self):
        e = self.group.exponent()
        return (
            self.degree.rational_value(),
            tuple(v.embed_vec(e) for v in self.values),
        )

    def __repr__(self):
        return f"ClassFunction({', '.join(str(v) for v in self.values)})"


def trivial_character(group):
    r = len(group.conjugacy_classes())
    one = Cyclotomic.rational(1)
    return ClassFunction(group, (one,) * r)


def regular_character(group):
    r = len(group.conjugacy_classes())
    vals = [Cyclotomic.rational(group.order)] + [CYC_ZERO] * (r - 1)
    return ClassFunction(group, vals)


class CharacterTable:
    def __init__(self, group, chars, meta):
        self.group = group
        self.chars = tuple(chars)
        self.meta = dict(meta)

    @property
    def degrees(self):
        return [c.degree_int() for c in self.chars]

    def __len__(self):
        return len(self.chars)

    def __iter__(self):
        return iter(self.chars)

    def validate(self):
        """Exact first-orthogonality over Q(zeta_e) for every pair of rows,
        plus the degree mass formula.  Raises VerificationFailed."""
        G = self.group
        classes = G.conjugacy_classes()
        r = len(self.chars)
        if r != len(classes):
            raise VerificationFailed("character-count", witness=(r, len(classes)))
        if sum(d * d for d in self.degrees) != G.order:
            raise VerificationFailed("degree-mass", witness=self.degrees)
        e = G.exponent()
        phi = euler_phi(e)
        X = np.empty((r, r, phi), dtype=np.int64)
        for s, ch in enumerate(self.chars):
            for k, v in enumerate(ch.values):
                vec = v.embed_vec(e)
                if any(f.denominator != 1 for f in vec):
                    raise VerificationFailed("value-integrality", witness=(s, k))
                X[s, k] = [int(f) for f in vec]
        # conjugation and multiplication in the power basis of Q(zeta_e);
        # both have integer matrices because the cyclotomic modulus is monic
        def _int_vec(c):
            vec = c.embed_vec(e)
            assert all(f.denominator == 1 for f in vec)
            return [int(f) for f in vec]

        conj_rows = np.array(
            [_int_vec(Cyclotomic.zeta(e, (e - u) % e)) for u in range(phi)],
            dtype=np.int64,
        )
        prod = np.array(
            [
                [_int_vec(Cyclotomic.zeta(e, u + v)) for v in range(phi)]
                for u in range(phi)
            ],
            dtype=np.int64,
        )
        sizes = np.array([len(c) for c in classes], dtype=np.int64)
        Xn = X * sizes[None, :, None]
        Xc = np.einsum("tkv,vw->tkw", X, conj_rows)
        pair = np.einsum("sku,tkv->stuv", Xn, Xc, optimize=True)
        gram = np.einsum("stuv,uvw->stw", pair, prod)
        expect = np.zeros((r, r, phi), dtype=np.int64)
        expect[np.arange(r), np.arange(r), 0] = G.order
        if not (gram == expect).all():
            bad = np.argwhere((gram != expect).any(axis=2))[0]
            raise VerificationFailed("orthogonality", witness=tuple(int(x) for x in bad))
        return {
            "irreducibles": r,
            "degree_mass": G.order,
            "orthogonality": "exact",
        }

    def to_json(self):
        G = self.group
        classes = G.conjugacy_classes()
        return {
            "group_order": G.order,
            "field": G.field.descriptor(),
            "algebra_dim": G.algebra.dim,
            "num_classes": len(classes),
            "class_sizes": [len(c) for c in classes],
            "class_reps": [list(G.coords_of_index(int(c[0]))) for c in classes],
            "exponent": G.exponent(),
            "degrees": self.degrees,
            "values": [[v.to_json() for v in ch.values] for ch in self.chars],
            "oracle": self.meta,
        }

    def to_csv(self):
        G = self.group
        classes = G.conjugacy_classes()
        reps = [
            "1" if int(c[0]) == 0
            else "1 + " + G.element(int(c[0])).a.render()
            for c in classes
        ]
        lines = ["char," + ",".join(f'"{r}"' for r in reps)]
        lines.append("size," + ",".join(str(len(c)) for c in classes))
        for t, ch in enumerate(self.chars):
            lines.append(f"X{t + 1}," + ",".join(f'"{v}"' for v in ch.values))
        return "\n".join(lines) + "\n"


def character_table(group):
    """The full table of irreducible complex characters, exact values."""
    if getattr(group, "_char_table", None) is not None:
        return group._char_table

    classes = group.conjugacy_classes()
    r = len(classes)
    sizes = np.array([len(c) for c in classes], dtype=np.int64)
    reps = group.class_reps()
    T = group.table
    CL = group.class_of
    e = group.exponent()

    if group.order == 1:
        table = CharacterTable(group, [trivial_character(group)], {"mod_prime": None})
        table.validate()
        group._char_table = table
        return table

    l = _choose_prime(group.order, e)
    r0 = _primitive_root(l)
    w0 = pow(r0, (l - 1) // e, l)

    def class_matrix_T(i):
        # N[k, j] = a_ijk: pairs (x, y) in C_i x C_j with xy a fixed member
        # of C_k; computed as a product-class histogram divided by |C_k|
        rows = T[classes[i]]
        counts = np.zeros((r, r), dtype=np.int64)
        src = np.broadcast_to(CL[None, :], rows.shape)
        np.add.at(counts, (src.ravel(), CL[rows].ravel()), 1)
        assert (counts % sizes[None, :] == 0).all()
        return (counts // sizes[None, :]).T % l

    # split the class algebra into common eigenlines over F_ell
    live = [np.eye(r, dtype=np.int64)]
    done = []
    for i in range(1, r):
        if not live:
            break
        N = class_matrix_T(i)
        nxt = []
        for B in live:
            BN = (B @ N) % l
            pivots = [int(np.nonzero(row)[0][0]) for row in B]
            R = BN[:, pivots]
            if not ((R @ B) % l == BN).all():
                raise RuntimeError("class-matrix restriction left the subspace")
            for lam in _eigenvalues_mod(R, l):
                K = _nullspace_mod((R.T - lam * np.eye(R.shape[0], dtype=np.int64)) % l, l)
                rows, _ = _rref_mod((K @ B) % l, l)
                if rows.shape[0] == 1:
                    done.append(rows[0])
                elif rows.shape[0] > 1:
                    nxt.append(rows)
        live = nxt
    if live:
        raise RuntimeError(
            f"class algebra did not split over F_{l}; subspaces left: "
            f"{[b.shape[0] for b in live]}"
        )
    assert len(done) == r

    # inverse-class pairing and power-map classes for the Fourier lift
    inv = group.group.inv
    inv_class = np.array([int(CL[inv[g]]) for g in reps], dtype=np.int64)
    cls_pow = np.empty((r, e), dtype=np.int64)
    for k, g in enumerate(reps):
        x = 0
        for s in range(e):
            cls_pow[k, s] = CL[x]
            x = int(T[x, g])
    w0_pow = [pow(w0, t, l) for t in range(e)]
    W = np.array(
        [[w0_pow[(-s * j) % e] for j in range(e)] for s in range(e)], dtype=np.int64
    )
    e_inv = _inv_mod(e, l)
    n_inv = np.array([_inv_mod(int(n), l) for n in sizes], dtype=np.int64)

    chars = []
    value_cache = {}
    for w in done:
        w = (w * _inv_mod(int(w[0]), l)) % l  # omega_0 = 1
        denom = int((w * w[inv_class] % l * n_inv % l).sum() % l)
        dd = (group.order * _inv_mod(denom, l)) % l
        roots = [t for t in range(1, (l + 1) // 2) if (t * t - dd) % l == 0]
        assert len(roots) == 1, f"degree square {dd} has {len(roots)} small roots"
        d = roots[0]
        chibar = (d * w % l) * n_inv % l
        P = chibar[cls_pow]
        M = (P @ W) % l * e_inv % l
        if int(M.max()) > d:
            raise RuntimeError("character lift left the expected range")
        assert (M.sum(axis=1) == d).all()
        assert ((M @ np.array(w0_pow, dtype=np.int64)) % l == chibar).all()
        values = []
        for k in range(r):
            key = tuple(int(x) for x in M[k])
            val = value_cache.get(key)
            if val is None:
                val = Cyclotomic.from_terms(e, {j: int(m) for j, m in enumerate(M[k]) if m})
                value_cache[key] = val
            values.append(val)
        chars.append(ClassFunction(group, values))

    chars.sort(key=lambda c: c.sort_key())
    table = CharacterTable(
        group,
        chars,
        {"mod_prime": l, "primitive_root": r0, "unity_root": w0, "exponent": e},
    )
    table.validate()
    group._char_table = table
    return table


# ---------------------------------------------------------------------------
# linear characters straight from the abelianization


def _cyclic_decomposition(Q):
    """Generators, orders and full coordinates for a finite abelian group
    table: every element is uniquely prod_i g_i^(a_i)."""
    if Q.order == 1:
        return [], [], np.zeros((1, 0), dtype=np.int64)
    assert Q.is_abelian()
    orders = [Q.order_of(x) for x in range(Q.order)]
    m = max(orders)
    g = orders.index(m)
    powers = {}
    x = 0
    for t in range(m):
        powers[x] = t
        x = int(Q.table[x, g])
    C = Q.subgroup_closure([g])
    assert len(C) == m
    Q2, proj2, reps2 = Q.quotient(C)
    gens2, orders2, exps2 = _cyclic_decomposition(Q2)
    lifted = []
    for gi, mi in zip(gens2, orders2):
        h = int(reps2[gi])
        t = powers[Q.power_of(h, mi)]
        assert t % mi == 0, "maximal-order peeling broke divisibility"
        h = int(Q.table[h, Q.power_of(g, (-(t // mi)) % m)])
        assert Q.order_of(h) == mi
        lifted.append(h)
    gens = [g] + lifted
    orders_out = [m] + list(orders2)
    exps = np.zeros((Q.order, len(gens)), dtype=np.int64)
    for x in range(Q.order):
        rest = exps2[proj2[x]]
        y = x
        for h, a, mi in zip(lifted, rest, orders2):
            y = int(Q.table[y, Q.power_of(h, (-int(a)) % mi)])
        assert y in powers, "coordinate peeling left the cyclic part"
        exps[x] = [powers[y]] + [int(a) for a in rest]
        # reconstruction check: the coordinates really multiply back to x
        z = Q.power_of(g, int(exps[x, 0]))
        for h, a in zip(lifted, exps[x, 1:]):
            z = int(Q.table[z, Q.power_of(h, int(a))])
        assert z == x
    return gens, orders_out, exps


def linear_characters(group):
    """All degree-1 characters, via G / (G, G)."""
    Tg = group.group
    K = Tg.commutator_subgroup()
    Q, proj, _ = Tg.quotient(K)
    gens, orders, exps = _cyclic_decomposition(Q)
    E = math.lcm(1, *orders) if orders else 1
    classes = group.conjugacy_classes()
    rep_q = [int(proj[int(c[0])]) for c in classes]
    chars = []
    for tup in itertools.product(*(range(m) for m in orders)):
        weights = [tup_i * (E // m) for tup_i, m in zip(tup, orders)]
        values = []
        for k in rep_q:
            t = sum(w * int(a) for w, a in zip(weights, exps[k])) % E
            values.append(Cyclotomic.zeta(E, t))
        chars.append(ClassFunction(group, values))
    assert len(chars) == Q.order
    assert len(set(chars)) == Q.order
    return chars


# ---------------------------------------------------------------------------
# induction / restriction through a subgroup with a standalone copy


def induce(rho, H):
    """Induced class function on the ambient group of the subgroup H.
    Ind(C) = (|G| / (|H| |C|)) * sum of rho over C intersect H."""
    G = H.group
    Hg, emb, _ = H.std_group
    if rho.group is not Hg:
        raise TypeError("character does not live on the subgroup's standalone copy")
    classes = G.conjugacy_classes()
    sums = [CYC_ZERO] * len(classes)
    for a in range(Hg.order):
        k = int(G.class_of[int(emb[a])])
        sums[k] = sums[k] + rho.values[int(Hg.class_of[a])]
    values = [
        s * Fraction(G.order, H.order * len(c)) for s, c in zip(sums, classes)
    ]
    return ClassFunction(G, values)


def restrict(chi, H):
    """Restriction to the subgroup's standalone copy."""
    G = H.group
    if chi.group is not G:
        raise TypeError("character lives on a different group")
    Hg, emb, _ = H.std_group
    return ClassFunction(
        Hg,
        tuple(chi.value_at_index(int(emb[int(c[0])])) for c in Hg.conjugacy_classes()),
    )


def frobenius_reciprocity_holds(rho, H, chi):
    return induce(rho, H).inner(chi) == rho.inner(restrict(chi, H))


def mackey_irreducible(rho, H):
    """Is Ind rho irreducible?  Checked through the inner product, and, for a
    normal subgroup, also through the stabilizer criterion: the induced
    character is irreducible iff every g outside H moves rho.  The two
    criteria must agree; disagreement means a bug, not a theorem failure."""
    G = H.group
    ind = induce(rho, H)
    by_inner = ind.inner(ind) == 1
    if not H.is_normal() or rho.inner(rho) != 1:
        # the inertia criterion below needs rho irreducible and H normal
        return by_inner
    Hg, emb, sub_of = H.std_group
    T, inv = G.table, G.group.inv
    seen = np.zeros(G.order, dtype=bool)
    seen[H.indices] = True
    moved_everywhere = True
    for g in range(G.order):
        if seen[g]:
            continue
        seen[T[g, H.indices]] = True  # one representative per coset is enough
        gi = int(inv[g])
        moves = False
        for a in range(Hg.order):
            h_amb = int(emb[a])
            conj_amb = int(T[T[gi, h_amb], g])
            if rho.values[int(Hg.class_of[sub_of[conj_amb]])] != rho.values[int(Hg.class_of[a])]:
                moves = True
                break
        if not moves:
            moved_everywhere = False
            break
    if by_inner != moved_everywhere:
        raise RuntimeError(
            "Mackey criteria disagree: inner product says "
            f"{by_inner}, stabilizer says {moved_everywhere}"
        )
    return by_inner


def scalar_character_on(chi, H):
    """If chi is a multiple of a single linear character on the subgroup H,
    return {ambient index: value}; otherwise None."""
    d = chi.degree_int()
    out = {}
    scale = Fraction(1, d)
    for n in H.indices:
        v = chi.value_at_index(int(n)) * scale
        if v * v.conj() != 1:
            return None
        out[int(n)] = v
    return out


def scalar_on(chi, H):
    return scalar_character_on(chi, H) is not None
