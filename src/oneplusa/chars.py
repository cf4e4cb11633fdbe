"""Exact complex character tables of the unit groups, plus the induction
and restriction toolkit.

The table is computed by the classical modular method: central characters
omega_k = n_k chi(g_k) / chi(1) are simultaneous eigenvectors of the class
multiplication matrices; over F_ell with ell = 1 mod exponent(G) and
ell > 2 sqrt(|G|) the eigenspaces split the class algebra into r lines,
and the actual character values are recovered from the mod-ell data by a
discrete Fourier transform over power maps.  The split starts from one
block per character of the center Z = Z(1+A), which acts on the classes by
multiplication: on every block the class matrices of Z are scalars and
those of a Z-orbit of classes are multiples of each other, so only one
class matrix per non-central orbit is built, as a bincount histogram.
Two kinds of line need no split.  The characters trivial on the central
subgroup 1 + Ann(A) are inflated from the table of 1 + A/Ann(A), computed
the same way, recursively, and their blocks are dropped; a linear
character lambda has the line omega(K) = |K| lambda(g_K), and the rest of
its block is one null space mod ell (_character_rows).  The split visits
the class matrices in order with every live eigenspace stacked into one
product; the products run through float64 BLAS on integers mod ell, exact
under a checked bound (k (ell-1)^2 < 2^53, RuntimeError otherwise).  Only
the table of the group asked for is memoized and validated.  Everything
after recovery is verified by exact orthogonality over Q(zeta_e), whose
contraction over classes runs through float64 BLAS under a checked bound
of the same kind.

Class functions are integer arrays: every group here is a p-group, so the
exponent e is a prime power and every character value lies in Z[zeta_e].
A ClassFunction stores one row of power-basis coefficients per class, and
inner products, induction, restriction and orthogonality are exact int64
contractions behind an explicit overflow guard (RuntimeError), with no
floats.  Cyclotomic objects appear only at the edges: reports, parsing and
tests read them through a lazy cache keyed by coefficient row.

A linear character of a subgroup H, as the descent consumes it, is an int64
array of exponents t mod e (value zeta_e^t, e the ambient exponent), one per
element of H in the order of H.indices, never a ClassFunction:
linear_characters lists them all from H/(H, H) in place, scalar_character_on
reads off the one chi is a multiple of.

This module deliberately knows nothing about the monomial-certificate
machinery; it is the independent reference the certificates are checked
against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import VerificationFailed
from .exactfield import (
    Cyclotomic,
    _zeta_power_vectors,
    euler_phi,
    is_prime,
    prime_factors,
)
from .linalg import _guard
from .nilalg import Subspace, annihilator, quotient_algebra
from .unitgroup import Subgroup, UnitGroup, commutator_subgroup, map_indices

# ---------------------------------------------------------------------------
# dense linear algebra mod ell: int64 arrays with entries in 0..ell-1, and
# products through float64 BLAS under a checked exactness bound

_FLOAT_EXACT = 2 ** 53  # float64 holds every integer below this exactly


def _inv_mod(a, l):
    return pow(int(a), l - 2, l)


def _matmul_mod(a, b, l):
    """a @ b mod l as int64, computed in float64 through BLAS.  The operands
    are reduced mod l, so every dot product is a sum of k terms below
    (l-1)^2; while k (l-1)^2 < 2^53 all partial sums are exact integers.
    Both operands are copied to C order: BLAS on a transposed operand can
    be orders of magnitude slower at these sizes."""
    k = a.shape[-1]
    if k * (l - 1) ** 2 >= _FLOAT_EXACT:
        raise RuntimeError(
            f"float64 exactness guard in a mod-{l} product: "
            f"{k} * {l - 1}^2 >= 2^53"
        )
    fa = np.ascontiguousarray(a % l, dtype=np.float64)
    fb = np.ascontiguousarray(b % l, dtype=np.float64)
    return (fa @ fb).astype(np.int64) % l


def _rref_mod(M, l):
    """Reduced row echelon form mod l and its pivot columns.  Each pivot
    clears its column in every other row in one array update; only the
    pivot row and column are reduced on the way, the rest once at the end.
    Every update adds less than (l-1)^2 to an entry, hence the guard."""
    M = M % l
    rows, cols = M.shape
    _guard("row reduction mod ell", l + min(rows, cols) * (l - 1) ** 2)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = M[r:, c] % l
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            M[[r, p]] = M[[p, r]]
        M[r, c:] = (M[r, c:] % l) * _inv_mod(col[nz[0]], l) % l
        f = M[:, c] % l
        f[r] = 0
        M[:, c:] -= f[:, None] * M[r, c:]
        pivots.append(c)
        r += 1
    return M[:r] % l, pivots


def _nullspace_mod(M, l):
    """Rows spanning {v : M v = 0 mod l}."""
    R, pivots = _rref_mod(M, l)
    cols = M.shape[1]
    is_pivot = np.zeros(cols, dtype=bool)
    is_pivot[pivots] = True
    free = np.nonzero(~is_pivot)[0]
    out = np.zeros((len(free), cols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = (-R[:, free].T) % l
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


def _split_class_algebra(matrices, blocks, l, r):
    """Split the span of blocks into common left eigenlines of the class
    matrices, taken in order (each transposed: N[k, j] = a_ijk), and return
    one vector per line.  The blocks are subspaces of F_ell^c (c classes)
    in reduced row echelon form, each the span of the eigenlines it meets,
    and their dimensions must sum to r, the number of lines to find
    (RuntimeError otherwise): c for all of F_ell^c as one block or for
    _center_blocks, and fewer for what _character_rows leaves of those;
    a one-row block is a line at once.  A
    live block is a subspace in RREF, invariant under every matrix seen so
    far; each matrix restricts to R on it, and the eigenspaces of R become
    the next blocks.  All live blocks meet a matrix in one stacked product,
    and a matrix is drawn from the iterable only while a block is live.  A
    block on which R is scalar is kept as it is; every block is still
    checked to be invariant (RuntimeError otherwise: the matrices do not
    commute)."""
    dims = [len(B) for B in blocks]
    if sum(dims) != r:
        raise RuntimeError(f"split seeded with blocks of dimensions {dims}, not summing to {r}")
    live = [B for B in blocks if len(B) > 1]
    done = [B[0] for B in blocks if len(B) == 1]
    for N in matrices if live else ():
        SN = _matmul_mod(np.concatenate(live), N, l)
        nxt = []
        start = 0
        for B in live:
            BN = SN[start:start + len(B)]
            start += len(B)
            # B is in RREF, so the coordinates of BN in B are its pivot columns
            R = BN[:, (B != 0).argmax(axis=1)]
            lam = int(R[0, 0])
            eye = np.eye(len(B), dtype=np.int64)
            if (R == lam * eye).all():
                if not (BN == (lam * B) % l).all():
                    raise RuntimeError("class-matrix restriction left the subspace")
                nxt.append(B)
                continue
            if not (_matmul_mod(R, B, l) == BN).all():
                raise RuntimeError("class-matrix restriction left the subspace")
            for lam in _eigenvalues_mod(R, l):
                K = _nullspace_mod((R.T - lam * eye) % l, l)
                rows, _ = _rref_mod(_matmul_mod(K, B, l), l)
                if rows.shape[0] == 1:
                    done.append(rows[0])
                elif rows.shape[0] > 1:
                    nxt.append(rows)
        live = nxt
        if not live:
            break
    if live:
        raise RuntimeError(
            f"class algebra did not split over F_{l}; subspaces left: "
            f"{[b.shape[0] for b in live]}"
        )
    if len(done) != r:
        raise RuntimeError(f"class algebra split into {len(done)} lines, expected {r}")
    return done


# ---------------------------------------------------------------------------
# class functions as integer arrays over Z[zeta_e]


def _maxabs(a):
    return int(np.abs(a).max()) if a.size else 0


class _PowerBasis:
    """The power basis 1, zeta, ..., zeta^(phi-1) of Q(zeta_e), e a prime
    power or 1, as fixed integer arrays: zeta[t] is the row of zeta^t and
    herm[u, v] the row of zeta^u * conj(zeta^v) = zeta^(u-v).  Integer
    because the cyclotomic polynomial is monic.  Also holds the one cache
    of Cyclotomic values, keyed by coefficient row."""

    def __init__(self, e):
        if len(prime_factors(e)) > 1:
            raise RuntimeError(f"class functions need a prime-power exponent, got {e}")
        self.e = e
        self.phi = euler_phi(e)
        self.zeta = np.array(_zeta_power_vectors(e), dtype=np.int64)
        u = np.arange(self.phi)
        self.herm = self.zeta[(u[:, None] - u[None, :]) % e]
        self.zmax = _maxabs(self.zeta)
        self._values = {}

    def value(self, row, denom=1):
        """The Cyclotomic with coefficient row / denom."""
        if denom != 1:
            if (row % denom).any():
                return Cyclotomic.from_terms(
                    self.e, {j: Fraction(int(c), denom) for j, c in enumerate(row) if c}
                )
            row = row // denom
        key = row.tobytes()
        val = self._values.get(key)
        if val is None:
            val = Cyclotomic.from_terms(self.e, {j: int(c) for j, c in enumerate(row) if c})
            self._values[key] = val
        return val

    def row(self, value):
        """Coefficient row of a Cyclotomic (or rational) value; values outside
        Z[zeta_e] raise VerificationFailed."""
        if not isinstance(value, Cyclotomic):
            value = Cyclotomic.rational(value)
        if self.e % value.order == 0:
            vec = value.embed_vec(self.e)
            if all(f.denominator == 1 for f in vec):
                return np.array([int(f) for f in vec], dtype=np.int64)
        raise VerificationFailed("value-integrality", witness=(str(value), self.e))

    def embed(self, coeffs, sub_e):
        """Rows over Q(zeta_sub_e), sub_e | e, along the last axis of coeffs,
        written in this basis.  Since zeta_sub_e = zeta_e^(e/sub_e), for
        prime powers the power basis of the subfield is the stride-(e/sub_e)
        part of this one."""
        out = np.zeros(coeffs.shape[:-1] + (self.phi,), dtype=np.int64)
        out[..., :: self.e // sub_e] = coeffs
        return out

    def descend(self, coeffs, sub_e, what):
        """Inverse of embed, for rows that must lie in Q(zeta_sub_e); a
        nonzero off-stride coefficient raises VerificationFailed."""
        stride = self.e // sub_e
        off = np.ones(self.phi, dtype=bool)
        off[::stride] = False
        bad = np.nonzero(coeffs[:, off].any(axis=1))[0]
        if len(bad):
            raise VerificationFailed(what, witness=(int(bad[0]), sub_e))
        return np.ascontiguousarray(coeffs[:, ::stride])

    def exponents(self, rows, what, scale=1):
        """The exponents t with row = scale * zeta^t, one per row; a row that
        is not scale times a root of unity raises VerificationFailed."""
        hit = (rows[:, None, :] == scale * self.zeta[None, :, :]).all(axis=2)
        bad = np.nonzero(~hit.any(axis=1))[0]
        if len(bad):
            raise VerificationFailed(what, witness=(int(bad[0]), scale))
        return hit.argmax(axis=1)


@lru_cache(maxsize=None)
def _power_basis(e):
    return _PowerBasis(e)


class ClassFunction:
    """Exact class function on a UnitGroup.  coeffs is a read-only int64
    array of shape (r, phi(e)), e = group.exponent(): row k is the value on
    class k (in the group's class order) in the power basis of Q(zeta_e).
    Every group here is a p-group, so e is a prime power and every
    character value lies in Z[zeta_e]; values outside it are rejected.
    The Cyclotomic values are built lazily, for reports and tests."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, values):
        values = tuple(values)
        basis = _power_basis(group.exponent())
        coeffs = np.zeros((len(values), basis.phi), dtype=np.int64)
        for k, v in enumerate(values):
            coeffs[k] = basis.row(v)
        self._set(group, coeffs)

    @classmethod
    def _of(cls, group, coeffs):
        """Wrap an int64 coefficient array in the group's power basis."""
        self = object.__new__(cls)
        self._set(group, coeffs)
        return self

    def _set(self, group, coeffs):
        coeffs.flags.writeable = False
        self.group = group
        self.coeffs = coeffs

    def _basis(self):
        return _power_basis(self.group.exponent())

    @property
    def values(self):
        return tuple(map(self._basis().value, self.coeffs))

    @property
    def degree(self):
        return self._basis().value(self.coeffs[0])

    def degree_int(self):
        if self.coeffs[0, 1:].any():
            raise ValueError(f"{self.degree} is not rational")
        return int(self.coeffs[0, 0])

    def value_at_index(self, g):
        return self._basis().value(self.coeffs[self.group.class_of[g]])

    def inner(self, other):
        """<self, other> = (1/|G|) sum n_k a_k conj(b_k), exact: one integer
        contraction over classes and basis pairs, divided by |G| at the end."""
        self._check(other)
        G = self.group
        basis = self._basis()
        _guard("inner product", G.order, _maxabs(self.coeffs), _maxabs(other.coeffs),
               basis.phi ** 2, basis.zmax)
        pair = (self.coeffs * G.class_sizes[:, None]).T @ other.coeffs
        total = pair.reshape(-1) @ basis.herm.reshape(-1, basis.phi)
        return basis.value(total, G.order)

    def _check(self, other):
        if other.group is not self.group:
            raise TypeError("class functions on different groups")

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and other.group is self.group
            and np.array_equal(other.coeffs, self.coeffs)
        )

    def __hash__(self):
        return hash((id(self.group), self.coeffs.tobytes()))

    def sort_key(self):
        # the degree, then the value rows class by class; row 0 starts with
        # the degree, so the flattened array orders the same way
        return tuple(self.coeffs.ravel().tolist())

    def __repr__(self):
        return f"ClassFunction({', '.join(str(v) for v in self.values)})"


def _class_pairs(X, sizes):
    """pair[s, t, u, v] = sum_k sizes[k] X[s, k, u] X[t, k, v] as int64, for
    the coefficient rows X[s] of class functions: one r x r float64 BLAS
    product per basis pair (u, v), all exact while k max|sizes X| max|X|
    < 2^53 (RuntimeError otherwise), as every partial sum then is."""
    r, k, phi = X.shape
    bound = k * _maxabs(X * sizes[None, :, None]) * _maxabs(X)
    if bound >= _FLOAT_EXACT:
        raise RuntimeError(f"float64 exactness guard in orthogonality: bound {bound} >= 2^53")
    right = [np.ascontiguousarray(X[:, :, v].T, dtype=np.float64) for v in range(phi)]
    pair = np.empty((r, r, phi, phi), dtype=np.int64)
    for u in range(phi):
        left = np.ascontiguousarray(X[:, :, u] * sizes[None, :], dtype=np.float64)
        for v, b in enumerate(right):
            pair[:, :, u, v] = left @ b
    return pair


class CharacterTable:
    def __init__(self, group, chars, meta):
        self.group = group
        self.chars = tuple(chars)
        self.meta = dict(meta)

    @property
    def degrees(self):
        return [c.degree_int() for c in self.chars]

    def validate(self):
        """Exact first-orthogonality over Q(zeta_e) for every pair of rows,
        plus the degree mass formula.  Raises VerificationFailed, with the
        first failing pair (s, t) as the orthogonality witness; coefficients
        too large for exact float64 products or int64 sums raise
        RuntimeError."""
        G = self.group
        classes = G.conjugacy_classes()
        r = len(self.chars)
        if r != len(classes):
            raise VerificationFailed("character-count", witness=(r, len(classes)))
        if sum(d * d for d in self.degrees) != G.order:
            raise VerificationFailed("degree-mass", witness=self.degrees)
        basis = _power_basis(G.exponent())
        phi = basis.phi
        X = np.stack([ch.coeffs for ch in self.chars])
        _guard("orthogonality", G.order, _maxabs(X) ** 2, phi ** 2, basis.zmax)
        pair = _class_pairs(X, G.class_sizes)
        gram = pair.reshape(r, r, phi * phi) @ basis.herm.reshape(-1, phi)
        gram[np.arange(r), np.arange(r), 0] -= G.order
        bad = np.argwhere(gram.any(axis=2))
        if len(bad):
            raise VerificationFailed("orthogonality", witness=tuple(int(x) for x in bad[0]))
        return {
            "irreducibles": r,
            "degree_mass": G.order,
            "orthogonality": "exact",
        }

    def _cells(self):
        """The distinct values of the table, as Cyclotomics, and ids with
        ids[s, k] the index among them of chars[s] on class k: one 1-D
        unique over the coefficient rows as raw bytes."""
        M = np.concatenate([ch.coeffs for ch in self.chars])
        keys = M.view(np.dtype((np.void, M.itemsize * M.shape[1]))).ravel()
        _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
        basis = _power_basis(self.group.exponent())
        return [basis.value(row) for row in M[first]], ids.reshape(len(self.chars), -1)

    def to_json(self):
        G = self.group
        classes = G.conjugacy_classes()
        values, ids = self._cells()
        return {
            "group_order": G.order,
            "field": G.field.descriptor(),
            "algebra_dim": G.algebra.dim,
            "num_classes": len(classes),
            "class_sizes": [len(c) for c in classes],
            "class_reps": [list(G.coords_of_index(int(c[0]))) for c in classes],
            "exponent": G.exponent(),
            "degrees": self.degrees,
            "values": CellRows([v.to_json() for v in values], ids),
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
        values, ids = self._cells()
        texts = [f'"{v}"' for v in values]
        lines += [f"X{t + 1}," + ",".join([texts[i] for i in row])
                  for t, row in enumerate(ids.tolist())]
        return "\n".join(lines) + "\n"


class CellRows(list):
    """A report's table: row s lists the cells[t] for t in ids[s], a cell
    any JSON value, one per distinct value.  A writer may render it from
    cells and ids alone, each distinct cell once, so its rows stay as built."""

    def __init__(self, cells, ids):
        super().__init__([cells[t] for t in row] for row in ids.tolist())
        self.cells, self.ids = cells, ids


def _class_matrix_T(group, i, l):
    """N[k, j] = a_ijk mod l: the pairs (x, y) in C_i x C_j with xy a fixed
    member of C_k.  Computed as the histogram of (class of y, class of xy)
    over x in C_i and every y, divided by |C_k|; the keys r * class(y) +
    class(xy) are int32, as r^2 <= TABLE_CAP^2 < 2^31."""
    classes = group.conjugacy_classes()
    r = len(classes)
    sizes = group.class_sizes
    CL = group.class_of.astype(np.int32)
    rows = group.mul(classes[i][:, None], np.arange(group.order)[None, :])
    key = CL[rows] + r * CL
    counts = np.bincount(key.ravel(), minlength=r * r).reshape(r, r)
    bad = np.argwhere(counts % sizes[None, :] != 0)
    if len(bad):
        raise VerificationFailed(
            "class-matrix-divisibility", witness=(i, *(int(x) for x in bad[0]))
        )
    return (counts // sizes[None, :]).T % l


def _center_characters(group):
    """The center Z = Z(1+A) = 1 + Z(A) as the classes of size 1, which the
    class order puts first (so in increasing order), and its characters mu as
    exponent rows over Z, from linear_characters on Z."""
    nz = int(np.count_nonzero(group.class_sizes == 1))
    Z = group.class_reps()[:nz]  # increasing, as Subgroup.indices
    space = Subspace.from_vectors(group.algebra, [group.coords_of_index(z) for z in Z])
    return np.array(Z), linear_characters(Subgroup(group, Z, subspace=space, verify=False))


def _center_blocks(group, w0_pow, center):
    """The blocks V_mu that seed the split, one per character mu of the
    center Z (center is _center_characters(group)), and the least class of
    each Z-orbit of classes, in increasing order.  The first orbit is Z
    itself, with least class 0, and mu(z) = w0_pow[t], w0^t mod ell for the
    exponent t (w0 a primitive e-th root of unity).

    Z acts on the classes by K_k -> z K_k = K_zk, and for every irreducible
    chi with central character mu_chi, omega_chi(K_zk) = mu_chi(z)
    omega_chi(K_k).  So on each Z-orbit of classes, with least class k,
    the eigenline of chi is omega_chi(K_k) times the row v[class(z g_k)] =
    mu_chi(z), which is well defined exactly when mu_chi is trivial on the
    orbit's stabilizer (else omega_chi(K_k) = 0).  V_mu is spanned by those
    rows, one per orbit where mu is well defined: it holds exactly the
    eigenlines of the chi with mu_chi = mu; the rows have disjoint supports
    and pivot entry 1, so it is in RREF.  An empty V_mu raises
    RuntimeError (every character of Z lies under some chi).

    The class matrix of K_zk is that of z times that of K_k, and the one of
    z acts on V_mu as the scalar mu(z).  So on every V_mu the class
    matrices of a Z-orbit are scalar multiples of each other, and those of
    Z are scalars: the split needs one class matrix per non-central orbit,
    at its least class, and none of Z."""
    Z, mus = center
    r = len(group.class_sizes)
    reps = np.array(group.class_reps(), dtype=np.int64)
    vals = w0_pow[mus]
    act = group.class_of[group.mul(Z[:, None], reps[None, :])]
    heads = np.nonzero(act.min(axis=0) == np.arange(r))[0]
    rows = [[] for _ in mus]
    for k in heads:
        orbit = act[:, k]
        V = np.zeros((len(mus), r), dtype=np.int64)
        V[:, orbit] = vals
        ok = np.nonzero((V[:, orbit] == vals).all(axis=1))[0]
        for m, row in zip(ok, V[ok]):
            rows[m].append(row)
    if not all(rows):
        raise RuntimeError("a character of the center has an empty block")
    return [np.array(b) for b in rows], heads.tolist()


def character_table(group):
    """The full table of irreducible complex characters, exact values,
    computed once per group."""
    return group.memo("character_table", lambda: _character_table(group))


def _character_table(group):
    X, meta = _character_rows(group)
    chars = sorted((ClassFunction._of(group, x) for x in X), key=ClassFunction.sort_key)
    table = CharacterTable(group, chars, meta)
    table.validate()
    return table


def _character_rows(group):
    """The coefficient rows X[s, k] (class k, power basis of Q(zeta_e), e =
    exp(G)) of every irreducible character of G = 1 + A, unsorted, and the
    oracle's meta: ell, its primitive root r0, w0 = r0^((ell-1)/e) and e.
    Nothing is memoized or validated here: character_table validates the
    table of the group it is asked for, and the quotient groups below are
    freed as soon as their rows are read.

    Inflation.  N = 1 + Ann(A) is central, since (1+x)(1+y) = 1+x+y for x
    in Ann(A), and the projection A -> A/Ann(A) is a map of algebras, so
    G/N is the unit group of A/Ann(A).  An irreducible chi is chi(1) mu_chi
    on N, so N lies in ker chi exactly when mu_chi is trivial on N: the
    blocks V_mu of _center_blocks with mu trivial on N hold exactly the
    eigenlines of the characters inflated from G/N, and no others.  Those
    blocks are dropped, their dimensions must sum to the number of
    inflated characters (RuntimeError otherwise), and the inflated rows
    are the quotient's rows, from this function on the quotient group
    (recursively, down to the trivial group: Ann(A) = A once A^2 = 0), read
    at the images of the class representatives.

    Linear characters.  A linear lambda lies in the block of its
    restriction mu to Z, which is trivial on Z n (G, G), and its eigenline
    is omega_lambda(K) = |K| lambda(g_K).  As sum_k omega_chi(K_k)
    conj(lambda)(g_k) = |G| <chi, lambda> / chi(1), which is |G| for chi =
    lambda and 0 otherwise, the other eigenlines of V_mu span the v in V_mu
    with sum_k v_k conj(lambda)(g_k) = 0 for every lambda in V_mu: one null
    space mod ell, whose dimension must be dim V_mu less their number
    (RuntimeError otherwise).  Only blocks of more than one row are cut
    this way (a one-row block is a line already), and (G, G) and the linear
    characters are computed only when one of them has mu trivial on
    Z n (G, G).  What is left goes through _split_class_algebra and the
    Fourier lift (_lift_lines)."""
    if group.order == 1:
        return np.ones((1, 1, 1), dtype=np.int64), {"mod_prime": None}
    group.check_table_cap()  # before any quotient is built and solved
    A, field = group.algebra, group.field
    Aq, project, _ = quotient_algebra(A, annihilator(A))
    P = np.array([project(b.coords) for b in A.basis()], dtype=np.int64).reshape(A.dim, Aq.dim)
    Gq = UnitGroup(Aq)
    Xq, _ = _character_rows(Gq)
    eq, qclass = Gq.exponent(), Gq.class_of
    del Gq  # before G's table is built

    r = len(group.conjugacy_classes())
    reps = np.array(group.class_reps(), dtype=np.int64)
    e = group.exponent()
    l = _choose_prime(group.order, e)
    r0 = _primitive_root(l)
    w0 = pow(r0, (l - 1) // e, l)
    w0_pow = np.array([pow(w0, t, l) for t in range(e)], dtype=np.int64)
    basis = _power_basis(e)
    inflated = basis.embed(Xq[:, qclass[map_indices(field, reps, P)]], eq)

    Z, mus = center = _center_characters(group)
    blocks, heads = _center_blocks(group, w0_pow, center)
    dropped = ~mus[:, map_indices(field, Z, P) == 0].any(axis=1)
    if sum(len(B) for B, d in zip(blocks, dropped) if d) != len(Xq):
        raise RuntimeError("the blocks trivial on 1 + Ann(A) do not hold the inflated characters")
    blocks = [B for B, d in zip(blocks, dropped) if not d]
    linear, blocks = _split_off_linear(group, blocks, mus[~dropped], Z, w0_pow, l)
    # one class matrix per non-central Z-orbit is enough (_center_blocks)
    lines = _split_class_algebra((_class_matrix_T(group, k, l) for k in heads[1:]), blocks, l,
                                 r - len(Xq) - len(linear))
    X = np.concatenate([inflated, basis.zeta[linear], _lift_lines(group, lines, l, w0_pow)])
    return X, {"mod_prime": l, "primitive_root": r0, "unity_root": w0, "exponent": e}


def _split_off_linear(group, blocks, mus, Z, w0_pow, l):
    """The exponent rows at the class representatives of the linear
    characters in the blocks of more than one row, and the blocks with
    their eigenlines taken out (see _character_rows); mus[m] is the
    character of Z under blocks[m]."""
    e = len(w0_pow)
    big = [m for m, B in enumerate(blocks) if len(B) > 1]
    found = np.zeros((0, len(group.class_sizes)), dtype=np.int64)
    if not big:
        return found, blocks
    A = group.algebra
    whole = Subgroup(group, np.arange(group.order), subspace=Subspace.unit(A, range(A.dim)),
                     verify=False)
    whole.memo("generators", group.generator_indices)  # the same span, built already
    in_derived = commutator_subgroup(whole, whole).mask[Z]
    if mus[big][:, in_derived].any(axis=1).all():
        return found, blocks
    T = linear_characters(whole)[:, group.class_reps()]  # whole.indices is every index
    block_of = {mu.tobytes(): m for m, mu in enumerate(mus)}
    # the classes of Z come first, so T[:, :len(Z)] is each lambda on Z
    owner = np.array([block_of.get(row.tobytes(), -1) for row in T[:, :len(Z)]])
    blocks = list(blocks)
    for m in big:
        mine = T[owner == m]
        if not len(mine):
            continue
        V = blocks[m]
        K = _nullspace_mod(_matmul_mod(w0_pow[-mine % e], V.T, l), l)
        if len(K) != len(V) - len(mine):
            raise RuntimeError(f"the linear characters of a block span {len(V) - len(K)} "
                               f"of its dimensions, not {len(mine)}")
        blocks[m] = _rref_mod(_matmul_mod(K, V, l), l)[0]
    is_big = np.zeros(len(blocks) + 1, dtype=bool)  # owner -1 reads the last, False
    is_big[big] = True
    return T[is_big[owner]], [B for B in blocks if len(B)]


def _lift_lines(group, lines, l, w0_pow):
    """The coefficient rows of the characters chi whose eigenlines
    omega_chi are the given vectors mod ell: the degree d from
    sum_k omega_k omega_k' / n_k = |G| / d^2, then chi(g_k) = d omega_k /
    n_k mod ell, lifted to Z[zeta_e] by a discrete Fourier transform over
    the power maps g_k -> g_k^s, whose coefficients must lie in 0..d."""
    r = len(group.class_sizes)
    e = len(w0_pow)
    basis = _power_basis(e)
    out = np.zeros((len(lines), r, basis.phi), dtype=np.int64)
    if not lines:
        return out
    sizes, CL = group.class_sizes, group.class_of
    reps = np.array(group.class_reps(), dtype=np.int64)
    inv_class = CL[group.inv[reps]]
    cls_pow = np.empty((r, e), dtype=np.int64)
    x = np.zeros(r, dtype=np.int64)
    for s in range(e):
        cls_pow[:, s] = CL[x]
        x = group.mul(x, reps)
    W = np.array(
        [[w0_pow[(-s * j) % e] for j in range(e)] for s in range(e)], dtype=np.int64
    )
    e_inv = _inv_mod(e, l)
    n_inv = np.array([_inv_mod(int(n), l) for n in sizes], dtype=np.int64)
    # every lift has entries in 0..d <= sqrt(|G|) summing over e powers
    _guard("character lift", e, math.isqrt(group.order), basis.zmax)
    for s, w in enumerate(lines):
        w = (w * _inv_mod(int(w[0]), l)) % l  # omega_0 = 1
        denom = int((w * w[inv_class] % l * n_inv % l).sum() % l)
        dd = (group.order * _inv_mod(denom, l)) % l
        roots = [t for t in range(1, (l + 1) // 2) if (t * t - dd) % l == 0]
        if len(roots) != 1:
            raise VerificationFailed("degree-root", witness=(dd, roots))
        d = roots[0]
        chibar = (d * w % l) * n_inv % l
        P = chibar[cls_pow]
        M = (P @ W) % l * e_inv % l
        if int(M.max()) > d:
            raise RuntimeError("character lift left the expected range")
        bad = np.nonzero(M.sum(axis=1) != d)[0]
        if len(bad):
            raise VerificationFailed("lift-row-sum", witness=(d, int(bad[0])))
        bad = np.nonzero((M @ w0_pow) % l != chibar)[0]
        if len(bad):
            raise VerificationFailed("lift-consistency", witness=(d, int(bad[0])))
        # row k: sum_j M[k, j] zeta^j in the power basis
        out[s] = M @ basis.zeta
    return out


# ---------------------------------------------------------------------------
# linear characters straight from the abelianization


def _power_table(Q):
    """pw[t, x] = x^t for t below the exponent E of Q, and the order of
    every element, from one power loop over all elements at once, as in
    FiniteGroupTable.exponent: x^k = pw[k mod E, x] for every k."""
    x = np.arange(Q.order)
    rows, orders = [np.zeros_like(x)], np.zeros_like(x)
    cur, t = x, 1
    while True:
        orders[(cur == 0) & (orders == 0)] = t
        if orders.all():
            return np.array(rows), orders
        rows.append(cur)
        cur, t = Q.mul(cur, x), t + 1


def _cyclic_decomposition(Q):
    """Generators, orders and full coordinates for a finite abelian group
    table: every element is uniquely prod_i g_i^(a_i).

    g is the first element of the largest order m, the rest is the
    decomposition of Q/<g>, and each of its generators is lifted to an
    element h of the same order (peeling: h^mi = g^t needs mi | t, and
    h g^(-t/mi) is the lift).  The coordinates of every x follow: the
    image of x in Q/<g> gives the exponents a_i of the lifts, x prod_i
    h_i^(-a_i) must be a power of g, and the coordinates must multiply back
    to x.  All powers are read off _power_table, so the coordinates of all
    elements are found and checked in array operations."""
    if Q.order == 1:
        return [], [], np.zeros((1, 0), dtype=np.int64)
    qgens = np.asarray(Q.generator_indices(), dtype=np.int64)
    bad = np.argwhere(Q.comm(qgens[:, None], qgens[None, :]))
    if len(bad):
        raise VerificationFailed("abelian-quotient", witness=tuple(qgens[bad[0]].tolist()))
    pw, orders = _power_table(Q)
    E = len(pw)
    g = int(orders.argmax())
    m = int(orders[g])
    log_g = np.full(Q.order, -1, dtype=np.int64)  # g^t -> t
    log_g[pw[:m, g]] = np.arange(m)
    C = Q.subgroup_closure([g])
    if len(C) != m:
        raise VerificationFailed("cyclic-closure", witness=(g, m, len(C)))
    Q2, proj2, reps2 = Q.quotient(C)
    gens2, orders2, exps2 = _cyclic_decomposition(Q2)
    lifted = []
    for gi, mi in zip(gens2, orders2):
        h = int(reps2[gi])
        t = int(log_g[pw[mi % E, h]])
        if t % mi:
            raise VerificationFailed("peeling-divisibility", witness=(h, mi, t))
        h = int(Q.mul(h, pw[(-(t // mi)) % m, g]))
        if orders[h] != mi:
            raise VerificationFailed("peeling-order", witness=(h, mi, int(orders[h])))
        lifted.append(h)
    x = np.arange(Q.order)
    rest = exps2[proj2]
    y = x
    for i, (h, mi) in enumerate(zip(lifted, orders2)):
        y = Q.mul(y, pw[(-rest[:, i]) % mi, h])
    first = log_g[y]
    # reconstruction check: the coordinates really multiply back to x
    z = pw[first, g]
    for i, h in enumerate(lifted):
        z = Q.mul(z, pw[rest[:, i], h])
    lost = first < 0
    bad = np.nonzero(lost | (z != x))[0]
    if len(bad):
        b = int(bad[0])
        if lost[b]:
            raise VerificationFailed("peeling-cyclic-part", witness=(b, int(y[b])))
        raise VerificationFailed("peeling-reconstruction", witness=(b, int(z[b])))
    return [g] + lifted, [m] + list(orders2), np.concatenate([first[:, None], rest], axis=1)


def linear_characters(H):
    """Every linear character of the Subgroup H = 1 + B (all of G is
    power_subgroup(G, 1)) from H/(H, H), computed in place on ambient
    indices: one int64 row per character, of shape (H.order,), whose entry
    at position i is t mod e = exp(G) (value zeta_e^t) at the element
    H.indices[i], in itertools.product order over the cyclic decomposition
    of H/(H, H).
    (H, H) is unitgroup.commutator_subgroup(H, H), the normal closure of the
    commutators of H's generators."""
    G = H.group
    Q, proj, _ = H.quotient(commutator_subgroup(H, H).indices)
    _, orders, exps = _cyclic_decomposition(Q)
    E = math.lcm(1, *orders)
    e = G.exponent()
    if e % E:
        raise VerificationFailed("abelianization-exponent", witness=(E, e))
    count = math.prod(orders)
    if count != Q.order:
        raise VerificationFailed("linear-count", witness=(count, Q.order))
    tuples = np.array(list(itertools.product(*(range(m) for m in orders))), dtype=np.int64)
    weights = tuples.reshape(count, len(orders)) * (E // np.array(orders, dtype=np.int64))
    # the value at h is zeta_E^t = zeta_e^(t e/E)
    on_h = (weights @ exps[proj[H.indices]].T) % E * (e // E)
    distinct = len({row.tobytes() for row in on_h})
    if distinct != Q.order:
        raise VerificationFailed("linear-distinct", witness=(distinct, Q.order))
    return on_h


# ---------------------------------------------------------------------------
# induction / restriction through a subgroup with a standalone copy


def induce(rho, H):
    """Induced class function on the ambient group of the subgroup H.
    Ind(C) = (|G| / (|H| |C|)) * sum of rho over C intersect H."""
    G = H.group
    Hg, emb, _ = H.std_group
    if rho.group is not Hg:
        raise TypeError("character does not live on the subgroup's standalone copy")
    basis = _power_basis(G.exponent())
    _guard("induction", Hg.order, _maxabs(rho.coeffs), G.order)
    sums = np.zeros((len(G.class_sizes), rho.coeffs.shape[1]), dtype=np.int64)
    np.add.at(sums, G.class_of[emb], rho.coeffs[Hg.class_of])
    num = basis.embed(sums, Hg.exponent()) * G.order
    den = (H.order * G.class_sizes)[:, None]
    bad = np.nonzero((num % den).any(axis=1))[0]
    if len(bad):
        raise VerificationFailed("induced-integrality", witness=int(bad[0]))
    return ClassFunction._of(G, num // den)


def restrict(chi, H):
    """Restriction to the subgroup's standalone copy."""
    G = H.group
    if chi.group is not G:
        raise TypeError("character lives on a different group")
    Hg, emb, _ = H.std_group
    rows = chi.coeffs[G.class_of[emb[Hg.class_reps()]]]
    return ClassFunction._of(
        Hg, chi._basis().descend(rows, Hg.exponent(), "restriction-field")
    )


def clifford_parts(psi, normal, lams, e):
    """The parts rho_l(h) = |N|^-1 sum over n in N of conj(l(n)) psi(h n) of
    a class function psi on a group H, one per linear character l of a
    subgroup N.  normal holds the indices in H of N, or of a transversal of
    N/(1+A^m) where each summand is constant on the cosets, and lams one
    row of exponents mod e (zeta_e^t, e a multiple of exp(H)) per l, over
    those.  For N normal and each l invariant in H, rho_l is the character
    of the l-isotypic part of psi (Clifford), read at the class
    representatives of H.  An exponent that is no multiple of e / exp(H)
    and a sum that len(normal) does not divide raise VerificationFailed."""
    H = psi.group
    basis = psi._basis()
    stride = e // basis.e
    bad = np.argwhere(lams % stride)
    if len(bad):
        raise VerificationFailed("clifford-exponent", witness=tuple(bad[0].tolist()))
    t = lams // stride
    reps = np.array(H.class_reps(), dtype=np.int64)
    terms = psi.coeffs[H.class_of[H.mul(reps[:, None], normal[None, :])]]
    # conj(zeta^t) zeta^u = zeta^(u-t): row u of the power basis, rotated
    u = np.arange(basis.phi)
    rot = basis.zeta[(u[None, None, :] - t[:, :, None]) % basis.e]
    _guard("Clifford projection", len(normal), _maxabs(psi.coeffs), basis.phi, basis.zmax)
    sums = np.einsum("knu,lnuw->lkw", terms, rot)
    bad = np.argwhere(sums % len(normal))
    if len(bad):
        raise VerificationFailed("clifford-integrality", witness=tuple(bad[0][:2].tolist()))
    return [ClassFunction._of(H, s) for s in sums // len(normal)]


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
    # one id per distinct value row of rho, read on every element of H
    _, vid = np.unique(rho.coeffs, axis=0, return_inverse=True)
    on_h = vid.reshape(-1)[Hg.class_of]
    seen = np.zeros(G.order, dtype=bool)
    seen[H.indices] = True
    moved_everywhere = True
    for g in range(G.order):
        if seen[g]:
            continue
        seen[G.mul(g, H.indices)] = True  # one representative per coset is enough
        conj = sub_of[G.conj(emb, g)]
        if (on_h[conj] == on_h).all():
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
    return that character as exponents t mod e (value zeta_e^t), one per
    element of H.indices; otherwise None."""
    d = chi.degree_int()
    basis = chi._basis()
    ks, at = np.unique(chi.group.class_of[H.indices], return_inverse=True)
    rows = chi.coeffs[ks]
    # |chi(h)|^2 = d^2 on every class that meets H
    _guard("scalar test", _maxabs(rows) ** 2, basis.phi ** 2, basis.zmax)
    norms = np.einsum("ku,kv,uvw->kw", rows, rows, basis.herm)
    expect = np.zeros(basis.phi, dtype=np.int64)
    expect[0] = d * d
    if not (norms == expect).all():
        return None
    return basis.exponents(rows, "scalar-root-of-unity", scale=d)[at]
