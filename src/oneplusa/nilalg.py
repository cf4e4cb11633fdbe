"""Nilpotent associative algebras given by structure constants.

An algebra here is a free module of finite rank over a coefficient ring
(a finite field, Z, or Z[lam]) with a bilinear product described by a sparse
table sc[(i, j)] = ((k, c), ...) meaning e_i e_j = sum_k c * e_k (repeated
terms of one e_k add up, merged when the algebra is built).  There is no
unit; nilpotency means some power A^n vanishes.  Everything downstream
(unit groups, characters, monomial certificates) is built on this class.

This is also the one home of the subspace constructions built on it:
subspaces as canonical RREF rows, quotients W / V with a canonical
complement basis (QuotientSpace) and the quotient algebras A / I on it,
bases adapted to the power filtration (adapted_rows), and closure checks
that name the first product outside a subspace (product_outside).  They
exist over a finite field only.  Echelon forms come from linalg.rref, the
one single-matrix RREF, with the FieldRing as its own ops; membership,
reduction, coordinates, null spaces and combinations of rows are
linalg.FieldArrays products on int64 arrays.  Over Z or Z[lam] (one
SymbolicRing class, for the exact commutator identities) the first such
computation raises TypeError, and the nilpotency index comes from products.

Derived state is cached in one place per owner: an Algebra, a group or a
subgroup is a Memoized, and every value computed on first use lives in its
memo(key, build), whichever module computes it.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import CapExceeded, NotAnIdeal, NotAssociative, NotNilpotent
from .exactfield import FieldElement, field_from_descriptor

FREE_DIM_CAP = 400


class Poly:
    """Element of Z[lam], integer coefficients in ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @staticmethod
    def const(n):
        return Poly((n,))

    @staticmethod
    def lam():
        return Poly((0, 1))

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        if not other.coeffs:  # a Poly is immutable, so an operand is the sum
            return self
        if not self.coeffs:
            return other
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        return isinstance(other, Poly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                base = str(abs(c))
            else:
                power = "lam" if e == 1 else f"lam^{e}"
                base = power if abs(c) == 1 else f"{abs(c)}*{power}"
            parts.append(("-" if c < 0 else "+", base))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, chunk in parts[1:]:
            out += f" {sign} {chunk}"
        return out

    __str__ = render

    def __repr__(self):
        return f"Poly({self.render()})"


# ---------------------------------------------------------------------------
# coefficient rings: small adapters so the algebra code is ring-agnostic.
# "raw" scalars are field element indices, ints, or Poly values respectively.


class FieldRing:
    """GF(q) on element indices; it is its own linalg ops, so row
    reduction calls the field's index arithmetic with no adapter."""

    kind = "field"

    def __init__(self, field):
        self.field = field
        self.zero = 0
        self.one = 1
        self.add = field.add_idx
        self.neg = field.neg_idx
        self.sub = field.sub_idx
        self.mul = field.mul_idx
        self.inv = field.inv_idx

    def is_zero(self, a):
        return a == 0

    def coerce(self, v):
        if isinstance(v, FieldElement):
            if v.field is not self.field:
                raise TypeError("element of a different field")
            return v.index
        if isinstance(v, int):
            return v % self.field.p
        raise TypeError(f"cannot use {v!r} as a scalar")

    def render(self, a):
        return self.field.elements[a].render()

    def linalg_ops(self):
        return self

    def descriptor(self):
        return {"type": "field", **self.field.descriptor()}

    def __eq__(self, other):
        return isinstance(other, FieldRing) and other.field == self.field

    def __hash__(self):
        return hash(self.field)

    def __repr__(self):
        return repr(self.field)


class SymbolicRing:
    """Z or Z[lam] on ints or Poly values, for the exact commutator
    identities: products and graded degrees, no linear algebra."""

    def __init__(self, kind, name, scalar):
        self.kind = kind
        self.name = name
        self.scalar = scalar
        self.zero = scalar(0)
        self.one = scalar(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == self.zero

    def coerce(self, v):
        if isinstance(v, type(self.zero)):
            return v
        if isinstance(v, int):
            return self.scalar(v)
        raise TypeError(f"cannot use {v!r} as a {self.name} scalar")

    def render(self, a):
        return str(a)

    def linalg_ops(self):
        raise TypeError("linear algebra needs a finite field")

    def __repr__(self):
        return self.name


Z_RING = SymbolicRing("int", "Z", int)
LAMBDA_RING = SymbolicRing("poly", "Z[lam]", Poly.const)


# ---------------------------------------------------------------------------


class AlgebraElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def __add__(self, other):
        self._check(other)
        r = self.algebra.ring
        return AlgebraElement(self.algebra, tuple(r.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        r = self.algebra.ring
        return AlgebraElement(self.algebra, tuple(r.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        r = self.algebra.ring
        return AlgebraElement(self.algebra, tuple(r.neg(a) for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        r = self.algebra.ring
        c = r.coerce(c)
        return AlgebraElement(self.algebra, tuple(r.mul(c, a) for a in self.coords))

    def is_zero(self):
        r = self.algebra.ring
        return all(r.is_zero(a) for a in self.coords)

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise TypeError("elements of different algebras")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def render(self):
        r = self.algebra.ring
        parts = []
        for label, c in zip(self.algebra.labels, self.coords):
            if r.is_zero(c):
                continue
            text = r.render(c)
            if text == "1":
                parts.append(label)
            elif any(ch in text for ch in " +-") and not text.lstrip("-").isdigit():
                parts.append(f"({text})*{label}")
            else:
                parts.append(f"{text}*{label}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self.render()}>"


class Memoized:
    """An owner of derived state, kept in one dict per object."""

    def memo(self, key, build):
        """The value stored under key, or else build() stored there; a
        build that raises stores nothing, so the next call builds again."""
        cache = vars(self).setdefault("_memo", {})
        if key not in cache:
            cache[key] = build()
        return cache[key]


class Algebra(Memoized):
    """Associative nilpotent algebra with a fixed basis.

    graded_degrees marks bases where e_i e_j is supported on degrees
    deg(i) + deg(j); then A^m is spanned by the basis vectors of degree >= m
    and power subspaces come for free.
    """

    def __init__(self, ring, dim, sc, labels=None, check=True,
                 graded_degrees=None, nilindex=None):
        self.ring = ring
        self.dim = dim
        clean = {}
        for (i, j), entry in sc.items():
            merged = {}  # repeated terms of one e_k add up, in first-seen order
            for k, c in entry:
                merged[k] = ring.add(merged.get(k, ring.zero), c)
            kept = tuple((k, c) for k, c in merged.items() if not ring.is_zero(c))
            if kept:
                clean[(i, j)] = kept
        self.sc = clean
        self.labels = tuple(labels) if labels else tuple(f"e{i + 1}" for i in range(dim))
        if len(self.labels) != dim:
            raise ValueError("label count does not match dimension")
        self.graded_degrees = tuple(graded_degrees) if graded_degrees else None
        if nilindex is not None:
            self.memo("nilindex", lambda: nilindex)
        if check:
            self._check_associative()
            _ = self.nilpotency_index  # raises NotNilpotent if the chain stalls

    # -- multiplication ------------------------------------------------------

    def mul_coords(self, u, v):
        """The coordinates of u v.  Only the nonzero coordinates u_i are
        walked, each against the structure constants e_i e_j of its row i
        (built once into the memo), so a sparse left factor costs little."""
        ring = self.ring
        out = [ring.zero] * self.dim
        for ui, row in zip(u, self.memo("sc_rows", self._sc_rows)):
            if not row or ring.is_zero(ui):
                continue
            for j, entry in row:
                vj = v[j]
                if ring.is_zero(vj):
                    continue
                c = ring.mul(ui, vj)
                for k, coeff in entry:
                    out[k] = ring.add(out[k], ring.mul(c, coeff))
        return tuple(out)

    def _sc_rows(self):
        """rows[i] = ((j, sc[(i, j)]), ...), the structure constants by left index."""
        rows = [[] for _ in range(self.dim)]
        for (i, j), entry in self.sc.items():
            rows[i].append((j, entry))
        return rows

    def _check_associative(self):
        unit = self._unit
        for i in range(self.dim):
            ei = unit[i]
            for j in range(self.dim):
                ij = self.mul_coords(ei, unit[j])
                for k in range(self.dim):
                    left = self.mul_coords(ij, unit[k])
                    right = self.mul_coords(ei, self.mul_coords(unit[j], unit[k]))
                    if left != right:
                        raise NotAssociative(i, j, k)

    # -- elements --------------------------------------------------------------

    def element(self, coords):
        coords = tuple(self.ring.coerce(c) if not self._is_raw(c) else c for c in coords)
        if len(coords) != self.dim:
            raise ValueError(f"need {self.dim} coordinates")
        return AlgebraElement(self, coords)

    def _is_raw(self, c):
        return isinstance(c, type(self.ring.zero))

    def basis_element(self, i):
        return AlgebraElement(self, self._unit_vector(i))

    def _unit_vector(self, i):
        v = [self.ring.zero] * self.dim
        v[i] = self.ring.one
        return tuple(v)

    @property
    def _unit(self):
        """The coordinates of every basis vector, built on first use."""
        return self.memo("unit", lambda: [self._unit_vector(i) for i in range(self.dim)])

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self):
        return AlgebraElement(self, tuple(self.ring.zero for _ in range(self.dim)))

    # -- nilpotency and power subspaces ---------------------------------------

    @property
    def nilpotency_index(self):
        """Smallest n with A^n = 0."""
        if self.ring.kind != "field":
            return self.memo("nilindex", self._nilindex_by_products)
        return self.memo("nilindex", lambda: len(self.memo("powers", self._power_chain)))

    def _power_chain(self):
        """[A, A^2, ..., A^n = 0], A^(m+1) spanned by the products of the
        rows of A^m with the basis."""
        chain, unit = [Subspace.unit(self, range(self.dim))], self._unit
        while chain[-1].dim > 0:
            prev = chain[-1]
            nxt = Subspace.from_vectors(
                self, [self.mul_coords(row, e) for row in prev.rows for e in unit]
            )
            if nxt.dim >= prev.dim and prev.dim > 0:
                raise NotNilpotent(
                    f"power chain stalls at dimension {prev.dim}",
                )
            chain.append(nxt)
        return chain

    def _nilindex_by_products(self):
        # track the set of nonzero left-normed basis products; over Z and
        # Z[lam] tensoring with the fraction field bounds a nilpotent chain
        # by dim+1
        unit = self._unit
        vals = set(unit)
        m = 1
        while vals:
            if m > self.dim + 1:
                raise NotNilpotent(f"products of length {m} still nonzero")
            nxt = set()
            for v in vals:
                for j in range(self.dim):
                    w = self.mul_coords(v, unit[j])
                    if any(not self.ring.is_zero(c) for c in w):
                        nxt.add(w)
            vals = nxt
            m += 1
        return m

    def power_subspace(self, m):
        """A^m as a subspace of A (A^1 = A)."""
        if m < 1:
            raise ValueError("power must be >= 1")
        if self.graded_degrees is not None:
            return Subspace.unit(self, [i for i, d in enumerate(self.graded_degrees) if d >= m])
        chain = self.memo("powers", self._power_chain)
        return chain[min(m, len(chain)) - 1]

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        if self.ring.kind != "field":
            raise TypeError("only finite-field algebras serialize")
        return {
            "ring": self.ring.descriptor(),
            "dim": self.dim,
            "labels": list(self.labels),
            "sc": {
                f"{i},{j}": [[k, c] for k, c in entry]
                for (i, j), entry in sorted(self.sc.items())
            },
        }

    @staticmethod
    def from_json(data):
        """The algebra of to_json's form, checked: every structure constant
        names basis vectors in 0..dim-1 and a field element in 0..q-1
        (ValueError naming the entry otherwise)."""
        ring_d = data["ring"]
        if ring_d.get("type") != "field":
            raise ValueError("expected a finite-field algebra")
        ring = FieldRing(field_from_descriptor(ring_d))
        dim, q = int(data["dim"]), ring.field.q
        sc = {}
        for key, entry in data["sc"].items():
            i, j = (int(t) for t in key.split(","))
            terms = tuple((int(k), int(c)) for k, c in entry)
            if not (all(0 <= t < dim for t in (i, j, *(k for k, _ in terms)))
                    and all(0 <= c < q for _, c in terms)):
                raise ValueError(f"structure constant {key!r}: {entry} is outside "
                                 f"the algebra of dim {dim} over GF({q})")
            sc[(i, j)] = terms
        return Algebra(ring, dim, sc, labels=data.get("labels"))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, over {self.ring!r})"


def _coords(v):
    """The coordinates of an element, or v itself for a coordinate tuple."""
    return getattr(v, "coords", v)


def _array(rows, width):
    """Rows of field coordinates as an int64 (len(rows), width) array."""
    import numpy as np

    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


class Subspace:
    """Subspace of a finite-field algebra, held as its canonical reduced
    rows of field element indices: rows (a tuple of int tuples, the key of
    equality, memos and reports), their pivot columns, and R, the same rows
    as an int64 array.  Membership, reduction and coordinates are one
    residual V - V[:, pivots] R each (linalg.FieldArrays), zero exactly on
    the rows of V inside the subspace.  Over Z or Z[lam] a subspace still
    constructs, with R None, and its first arithmetic raises TypeError."""

    __slots__ = ("algebra", "rows", "pivots", "R")

    def __init__(self, algebra, rows, pivots):
        self.algebra = algebra
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        self.R = _array(self.rows, algebra.dim) if algebra.ring.kind == "field" else None

    @staticmethod
    def from_vectors(algebra, vectors):
        ops = algebra.ring.linalg_ops()
        rows, pivots = linalg.rref([_coords(v) for v in vectors], ops)
        return Subspace(algebra, rows, pivots)

    @staticmethod
    def unit(algebra, indices):
        ops = algebra.ring.linalg_ops()
        indices = sorted(indices)
        rows = [
            tuple(ops.one if t == i else ops.zero for t in range(algebra.dim))
            for i in indices
        ]
        return Subspace(algebra, rows, indices)

    @property
    def dim(self):
        return len(self.rows)

    def _arith(self):
        return linalg.field_arrays(self.algebra.ring.linalg_ops().field)

    def _residual(self, rows):
        """V - V[:, pivots] R for the stack V of rows: each row reduced
        modulo the subspace."""
        F = self._arith()
        V = _array(rows, self.algebra.dim)
        return F.add(V, F.neg(F.matmul(V[:, self.pivots], self.R)))

    def contains(self, v):
        return not self._residual([_coords(v)]).any()

    def contains_subspace(self, other):
        return not self._residual(other.R).any()

    def reduce(self, v):
        return tuple(self._residual([_coords(v)])[0].tolist())

    def coords_of(self, v):
        """Coefficients of v in the rows, or None if v is outside."""
        v = _coords(v)
        if self._residual([v]).any():
            return None
        return tuple(int(v[p]) for p in self.pivots)

    def sum_with(self, other):
        return Subspace.from_vectors(self.algebra, list(self.rows) + list(other.rows))

    def row_elements(self):
        return [AlgebraElement(self.algebra, r) for r in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.algebra is self.algebra
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((id(self.algebra), self.rows))

    def __repr__(self):
        basis = ", ".join(e.render() for e in self.row_elements()) if self.rows else "0"
        return f"Subspace<{basis}>"


class QuotientSpace:
    """W / V for nested subspaces V <= W of a finite-field algebra.

    The complement basis is canonical: the rows of W reduced modulo V and
    re-echelonized (a Subspace, basis), so two runs always agree.  Quotient
    coordinates are field element indices relative to that basis."""

    __slots__ = ("algebra", "sub", "basis", "rows", "pivots")

    def __init__(self, algebra, sub, sup):
        if not sup.contains_subspace(sub):
            raise ValueError("quotient needs nested subspaces")
        self.algebra = algebra
        self.sub = sub
        self.basis = Subspace.from_vectors(algebra, sub._residual(sup.R).tolist())
        self.rows, self.pivots = self.basis.rows, self.basis.pivots

    @property
    def dim(self):
        return len(self.rows)

    def project(self, v):
        """Quotient coordinates of v (an element or coords); v must lie in W."""
        coords = self.basis.coords_of(self.sub.reduce(v))
        if coords is None:
            raise ValueError("vector outside the numerator subspace")
        return coords

    def rep(self, coords):
        """The canonical coset representative with these quotient coordinates."""
        row = self.basis._arith().matmul(coords, self.basis.R)
        return AlgebraElement(self.algebra, tuple(row.tolist()))

    def all_coords(self):
        """Every coordinate vector, in base-q order, most significant first."""
        return list(itertools.product(range(self.algebra.ring.field.q), repeat=self.dim))


# ---------------------------------------------------------------------------
# constructors


def strictly_upper_triangular(n, field):
    """Strictly upper triangular n x n matrices, basis ordered by diagonal:
    e12, e23, ..., then e13, e24, ..., finishing with e1n."""
    pairs = [(i, i + d) for d in range(1, n) for i in range(1, n - d + 1)]
    pos = {pr: t for t, pr in enumerate(pairs)}
    ring = FieldRing(field)
    sc = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if j == k:
                sc[(a, b)] = ((pos[(i, l)], ring.one),)
    return Algebra(
        ring,
        len(pairs),
        sc,
        labels=[f"e{i}{j}" for i, j in pairs],
        check=False,
        graded_degrees=[j - i for i, j in pairs],
        nilindex=n if n >= 2 else 1,
    )


def free_nilpotent(ring, num_gens, nil_index, names=None):
    """Free associative algebra on num_gens generators, truncated so that all
    products of nil_index factors vanish.  Basis: words of length < nil_index
    in length-then-lex order; the product is concatenation.

    Only the nonzero products are visited, the pairs with |w1| + |w2| <
    nil_index.  With g = num_gens and start[L] the position of the first word
    of length L, the word at position a of length L1 is the base-g number
    a - start[L1] of L1 digits, so w1 w2 for w2 at b of length L2 sits at
    start[L1 + L2] + (a - start[L1]) g^L2 + (b - start[L2])."""
    if names is None:
        names = [f"x{i + 1}" for i in range(num_gens)]
    if len(names) != num_gens:
        raise ValueError("need one name per generator")
    dim = sum(num_gens ** L for L in range(1, nil_index))
    if dim > FREE_DIM_CAP:
        raise CapExceeded(
            f"free nilpotent algebra on {num_gens} generators at index "
            f"{nil_index} has dimension {dim} > {FREE_DIM_CAP}"
        )
    words = []
    start = [0] * (nil_index + 1)
    for L in range(1, nil_index):
        words.extend(itertools.product(range(num_gens), repeat=L))
        start[L + 1] = len(words)
    sc = {}
    for L1 in range(1, nil_index - 1):
        for a in range(start[L1], start[L1 + 1]):
            for L2 in range(1, nil_index - L1):
                at = start[L1 + L2] + (a - start[L1]) * num_gens ** L2 - start[L2]
                for b in range(start[L2], start[L2 + 1]):
                    sc[(a, b)] = ((at + b, ring.one),)
    return Algebra(
        ring,
        dim,
        sc,
        labels=["*".join(names[t] for t in w) for w in words],
        check=False,
        graded_degrees=[len(w) for w in words],
        nilindex=nil_index if dim else 1,
    )


def subalgebra_closure(algebra, vectors):
    """Smallest multiplicatively closed subspace containing the vectors."""
    span = Subspace.from_vectors(algebra, vectors)
    while True:
        els = span.row_elements()
        prods = [(x * y).coords for x in els for y in els]
        bigger = span.sum_with(Subspace.from_vectors(algebra, prods))
        if bigger.dim == span.dim:
            return span
        span = bigger


def product_outside(space, lefts, rights):
    """The first pair (x, y), x in lefts and y in rights in their order,
    whose product x y lies outside space, or None if every product is in it.
    All products are tested in one residual."""
    pairs = [(x, y) for x in lefts for y in rights]
    outside = space._residual([(x * y).coords for x, y in pairs]).any(axis=1)
    return pairs[outside.argmax()] if outside.any() else None


def is_ideal(algebra, space):
    els, basis = space.row_elements(), algebra.basis()
    return all(product_outside(space, x, y) is None for x, y in ((els, basis), (basis, els)))


def adapted_rows(algebra, rows):
    """A basis of the span B of rows (field coordinates) adapted to the
    filtration B n A^k: for every k the rows lying in A^k span B n A^k
    modulo B n A^(k+1).  Rows are taken deepest power first, each one only
    if the rows before it do not span it; with rows the identity this is
    the flag of ideals refining the power chain that find_polarization in
    gutkin restricts its form to.
    B n A^k is read off the null space of the rows of B and A^k stacked:
    sum_i a_i b_i + sum_j c_j p_j = 0 puts sum_i a_i b_i in both.  Its
    canonical RREF basis (rref of the null rows, zero rows dropped) fixes
    the order the rows are taken in."""
    ops = algebra.ring.linalg_ops()
    F = linalg.field_arrays(ops.field)
    rows = [tuple(int(c) for c in r) for r in rows]
    taken = []
    cur = Subspace.from_vectors(algebra, [])
    for k in range(algebra.nilpotency_index - 1, 0, -1):
        both = _array(rows + list(algebra.power_subspace(k).rows), algebra.dim)
        null, _ = linalg.rref(F.nullrows(both.T[None])[0].tolist(), ops)
        for v in F.matmul(_array(null, len(both))[:, :len(rows)], both[:len(rows)]).tolist():
            if not cur.contains(v):
                taken.append(tuple(v))
                cur = Subspace.from_vectors(algebra, taken)
    return taken


def annihilator(algebra):
    """Ann(A) = {x : xA = Ax = 0}, a two-sided ideal, built once per
    algebra as one null space: x e_j = 0 and e_j x = 0 for every basis
    vector e_j, one condition per coordinate e_k of each product, read off
    the structure constants.  The entry c of e_i e_j at e_k puts c at
    column i of the condition x e_j = 0 on e_k, and at column j of the
    condition e_i x = 0 on e_k."""
    def build():
        ops = algebra.ring.linalg_ops()
        rows = {}
        for (i, j), entry in algebra.sc.items():
            for k, c in entry:
                for key, col in ((("right", j, k), i), (("left", i, k), j)):
                    rows.setdefault(key, [ops.zero] * algebra.dim)[col] = c
        F = linalg.field_arrays(ops.field)
        null = F.nullrows(_array(list(rows.values()), algebra.dim)[None])[0]
        return Subspace.from_vectors(algebra, null.tolist())  # rref drops its zero rows
    return algebra.memo("annihilator", build)


def quotient_algebra(algebra, ideal_space):
    """A / I on the canonical complement basis of QuotientSpace(A, I, A).

    That basis is the unit vectors e_j at the non-pivot coordinates j of I,
    labels inherited: such an e_j is already reduced mod I, and each pivot
    e_p reduces into their span, so their RREF, which is unique, is the
    complement basis, with pivots j.  Returns (quotient, project, lift):
    project maps ambient coords to quotient coords, lift picks the
    canonical coset representative.
    """
    if algebra.ring.kind != "field":
        raise TypeError("quotients need a finite field")
    if not is_ideal(algebra, ideal_space):
        raise NotAnIdeal("the subspace is not a two-sided ideal")
    space = QuotientSpace(algebra, ideal_space, Subspace.unit(algebra, range(algebra.dim)))
    unit, keep = algebra._unit, space.pivots
    prods = [algebra.mul_coords(unit[j1], unit[j2]) for j1 in keep for j2 in keep]
    # on that basis a product's quotient coordinates are its entries at keep,
    # once reduced mod I; Algebra drops the zero coefficients
    coords = ideal_space._residual(prods)[:, keep].tolist()
    sc = {divmod(ab, len(keep)): tuple(enumerate(c)) for ab, c in enumerate(coords)}
    quotient = Algebra(
        algebra.ring,
        space.dim,
        sc,
        labels=[algebra.labels[j] for j in keep],
        check=False,
    )
    return quotient, space.project, lambda qcoords: space.rep(qcoords).coords


def subalgebra_algebra(algebra, space):
    """The subspace as a standalone algebra; requires multiplicative closure.
    The result carries embed_rows mapping its coordinates back into A."""
    if algebra.ring.kind != "field":
        raise TypeError("standalone subalgebras need a finite field")
    els = space.row_elements()
    k = len(els)
    prods = [(x * y).coords for x in els for y in els]
    if space._residual(prods).any():
        raise ValueError("subspace is not multiplicatively closed")
    sc = {}
    for ab, prod in enumerate(prods):  # in the span, coordinates are the pivot entries
        kept = tuple((t, prod[p]) for t, p in enumerate(space.pivots) if prod[p])
        if kept:
            sc[divmod(ab, k)] = kept
    sub = Algebra(
        algebra.ring,
        k,
        sc,
        labels=[f"b{t + 1}" for t in range(k)],
        check=False,
    )
    sub.embed_rows = tuple(e.coords for e in els)
    return sub
