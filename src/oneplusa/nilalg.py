"""Nilpotent associative algebras given by structure constants.

An algebra here is a free module of finite rank over a coefficient ring
(a finite field, Z, or Z[lam]) with a bilinear product described by a sparse
table sc[(i, j)] = ((k, c), ...) meaning e_i e_j = sum_k c * e_k.  There is
no unit; nilpotency means some power A^n vanishes.  Everything downstream
(unit groups, characters, monomial certificates) is built on this class.

Derived state is cached in one place per owner: an Algebra, a group or a
subgroup is a Memoized, and every value computed on first use lives in its
memo(key, build), whichever module computes it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .errors import CapExceeded, NotAnIdeal, NotAssociative, NotNilpotent
from .exactfield import FieldElement, field_from_descriptor, field_ops

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

    def __repr__(self):
        return f"Poly({self.render()})"


# ---------------------------------------------------------------------------
# coefficient rings: small adapters so the algebra code is ring-agnostic.
# "raw" scalars are field element indices, ints, or Poly values respectively.


class FieldRing:
    kind = "field"

    def __init__(self, field):
        self.field = field
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return self.field.add_idx(a, b)

    def neg(self, a):
        return self.field.neg_idx(a)

    def sub(self, a, b):
        return self.field.sub_idx(a, b)

    def mul(self, a, b):
        return self.field.mul_idx(a, b)

    def inv(self, a):
        return self.field.inv_idx(a)

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
        return field_ops(self.field)

    def ops_scalar(self, a):
        return a

    def ops_vector(self, coords):
        return tuple(coords)

    def raw_vector(self, vec):
        return tuple(vec)

    def descriptor(self):
        return {"type": "field", **self.field.descriptor()}

    def __eq__(self, other):
        return isinstance(other, FieldRing) and other.field == self.field

    def __hash__(self):
        return hash(self.field)

    def __repr__(self):
        return repr(self.field)


class IntegerRing:
    kind = "int"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def coerce(self, v):
        if isinstance(v, int):
            return v
        raise TypeError(f"cannot use {v!r} as an integer scalar")

    def render(self, a):
        return str(a)

    def linalg_ops(self):
        return linalg.rational_ops()

    def ops_scalar(self, a):
        return Fraction(a)

    def ops_vector(self, coords):
        return tuple(Fraction(c) for c in coords)

    def descriptor(self):
        return {"type": "int"}

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("int-ring")

    def __repr__(self):
        return "Z"


class LambdaRing:
    """Z[lam], used for scaling identities with a formal parameter."""

    kind = "poly"
    zero = Poly(())
    one = Poly((1,))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a.is_zero()

    def coerce(self, v):
        if isinstance(v, Poly):
            return v
        if isinstance(v, int):
            return Poly.const(v)
        raise TypeError(f"cannot use {v!r} as a Z[lam] scalar")

    def render(self, a):
        return a.render()

    def linalg_ops(self):
        raise TypeError("no linear algebra over Z[lam]")

    def descriptor(self):
        return {"type": "poly"}

    def __eq__(self, other):
        return isinstance(other, LambdaRing)

    def __hash__(self):
        return hash("lam-ring")

    def __repr__(self):
        return "Z[lam]"


Z_RING = IntegerRing()
LAMBDA_RING = LambdaRing()


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
            kept = tuple((k, c) for k, c in entry if not ring.is_zero(c))
            if kept:
                clean[(i, j)] = kept
        self.sc = clean
        self.labels = tuple(labels) if labels else tuple(f"e{i + 1}" for i in range(dim))
        if len(self.labels) != dim:
            raise ValueError("label count does not match dimension")
        self.graded_degrees = tuple(graded_degrees) if graded_degrees else None
        if nilindex is not None:
            self.memo("nilindex", lambda: nilindex)
        self._unit = [
            tuple(ring.one if t == i else ring.zero for t in range(dim))
            for i in range(dim)
        ]
        if check:
            self._check_associative()
            _ = self.nilpotency_index  # raises NotNilpotent if the chain stalls

    # -- multiplication ------------------------------------------------------

    def mul_coords(self, u, v):
        ring = self.ring
        out = [ring.zero] * self.dim
        for (i, j), entry in self.sc.items():
            ui, vj = u[i], v[j]
            if ring.is_zero(ui) or ring.is_zero(vj):
                continue
            c = ring.mul(ui, vj)
            for k, coeff in entry:
                out[k] = ring.add(out[k], ring.mul(c, coeff))
        return tuple(out)

    def _mul_vec_ops(self, u, v, ops):
        # same product in the linalg ops domain (exact fractions for Z)
        out = [ops.zero] * self.dim
        ring = self.ring
        for (i, j), entry in self.sc.items():
            ui, vj = u[i], v[j]
            if ops.is_zero(ui) or ops.is_zero(vj):
                continue
            c = ops.mul(ui, vj)
            for k, coeff in entry:
                out[k] = ops.add(out[k], ops.mul(c, ring.ops_scalar(coeff)))
        return tuple(out)

    def _check_associative(self):
        for i in range(self.dim):
            ei = self._unit[i]
            for j in range(self.dim):
                ij = self.mul_coords(ei, self._unit[j])
                for k in range(self.dim):
                    left = self.mul_coords(ij, self._unit[k])
                    right = self.mul_coords(ei, self.mul_coords(self._unit[j], self._unit[k]))
                    if left != right:
                        raise NotAssociative(i, j, k)

    # -- elements --------------------------------------------------------------

    def element(self, coords):
        coords = tuple(self.ring.coerce(c) if not self._is_raw(c) else c for c in coords)
        if len(coords) != self.dim:
            raise ValueError(f"need {self.dim} coordinates")
        return AlgebraElement(self, coords)

    def _is_raw(self, c):
        if self.ring.kind == "poly":
            return isinstance(c, Poly)
        return isinstance(c, int)

    def basis_element(self, i):
        return AlgebraElement(self, self._unit[i])

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero(self):
        return AlgebraElement(self, tuple(self.ring.zero for _ in range(self.dim)))

    # -- nilpotency and power subspaces ---------------------------------------

    @property
    def nilpotency_index(self):
        """Smallest n with A^n = 0."""
        if self.ring.kind == "poly":
            return self.memo("nilindex", self._nilindex_by_products)
        return self.memo("nilindex", lambda: len(self.memo("powers", self._power_chain)))

    def _power_chain(self):
        """[A, A^2, ..., A^n = 0]."""
        chain = [Subspace.unit(self, range(self.dim))]
        ops = self.ring.linalg_ops()
        while chain[-1].dim > 0:
            prev = chain[-1]
            vecs = []
            for row in prev.rows:
                for j in range(self.dim):
                    u = tuple(ops.one if t == j else ops.zero for t in range(self.dim))
                    vecs.append(self._mul_vec_ops(row, u, ops))
            rows, pivots = linalg.rref(vecs, ops)
            nxt = Subspace(self, rows, pivots)
            if nxt.dim >= prev.dim and prev.dim > 0:
                raise NotNilpotent(
                    f"power chain stalls at dimension {prev.dim}",
                )
            chain.append(nxt)
        return chain

    def _nilindex_by_products(self):
        # track the set of nonzero left-normed basis products; over Z[lam]
        # tensoring with the fraction field bounds a nilpotent chain by dim+1
        vals = set(self._unit) if self.dim else set()
        m = 1
        while vals:
            if m > self.dim + 1:
                raise NotNilpotent(f"products of length {m} still nonzero")
            nxt = set()
            for v in vals:
                for j in range(self.dim):
                    w = self.mul_coords(v, self._unit[j])
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
    def from_json(data, check=True):
        ring_d = data["ring"]
        if ring_d.get("type") != "field":
            raise ValueError("expected a finite-field algebra")
        ring = FieldRing(field_from_descriptor(ring_d))
        sc = {}
        for key, entry in data["sc"].items():
            i, j = (int(t) for t in key.split(","))
            sc[(i, j)] = tuple((int(k), int(c)) for k, c in entry)
        return Algebra(
            ring,
            int(data["dim"]),
            sc,
            labels=data.get("labels"),
            check=check,
        )

    def __repr__(self):
        return f"Algebra(dim={self.dim}, over {self.ring!r})"


class Subspace:
    """Subspace of the underlying module, held as canonical reduced rows."""

    __slots__ = ("algebra", "rows", "pivots")

    def __init__(self, algebra, rows, pivots):
        self.algebra = algebra
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @staticmethod
    def from_vectors(algebra, vectors):
        ops = algebra.ring.linalg_ops()
        vecs = []
        for v in vectors:
            coords = v.coords if isinstance(v, AlgebraElement) else tuple(v)
            vecs.append(algebra.ring.ops_vector(coords))
        rows, pivots = linalg.rref(vecs, ops)
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

    def _ops_vec(self, v):
        coords = v.coords if isinstance(v, AlgebraElement) else tuple(v)
        return self.algebra.ring.ops_vector(coords)

    def contains(self, v):
        ops = self.algebra.ring.linalg_ops()
        return linalg.in_rowspace(self._ops_vec(v), self.rows, self.pivots, ops)

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.rows)

    def reduce(self, v):
        ops = self.algebra.ring.linalg_ops()
        return linalg.reduce_vector(self._ops_vec(v), self.rows, self.pivots, ops)

    def coords_of(self, v):
        ops = self.algebra.ring.linalg_ops()
        return linalg.coords_in_rowspace(self._ops_vec(v), self.rows, self.pivots, ops)

    def sum_with(self, other):
        return Subspace.from_vectors(self.algebra, list(self.rows) + list(other.rows))

    def row_elements(self):
        raw = self.algebra.ring.raw_vector
        return [AlgebraElement(self.algebra, raw(r)) for r in self.rows]

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
    in length-then-lex order; the product is concatenation."""
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
    for L in range(1, nil_index):
        words.extend(itertools.product(range(num_gens), repeat=L))
    pos = {w: t for t, w in enumerate(words)}
    sc = {}
    for a, w1 in enumerate(words):
        for b, w2 in enumerate(words):
            if len(w1) + len(w2) < nil_index:
                sc[(a, b)] = ((pos[w1 + w2], ring.one),)
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


def is_ideal(algebra, space):
    for x in space.row_elements():
        for e in algebra.basis():
            if not (space.contains(x * e) and space.contains(e * x)):
                return False
    return True


def is_subalgebra(algebra, space):
    els = space.row_elements()
    return all(space.contains(x * y) for x in els for y in els)


def adapted_rows(algebra, rows):
    """A basis of the span B of rows (field coordinates) adapted to the
    filtration B n A^k: for every k the rows lying in A^k span B n A^k
    modulo B n A^(k+1).  Rows are taken deepest power first, each one only
    if the rows before it do not span it, as _ideal_flag in gutkin does.
    B n A^k is read off the null space of the rows of B and A^k stacked:
    sum_i a_i b_i + sum_j c_j p_j = 0 puts sum_i a_i b_i in both."""
    ops = algebra.ring.linalg_ops()
    rows = [tuple(int(c) for c in r) for r in rows]
    taken = []
    cur = Subspace.from_vectors(algebra, [])
    for k in range(algebra.nilpotency_index - 1, 0, -1):
        both = rows + list(algebra.power_subspace(k).rows)
        null = linalg.nullspace(
            [[r[c] for r in both] for c in range(algebra.dim)], len(both), ops
        )
        for coeffs in null:
            v = linalg.combine(coeffs[:len(rows)], rows, ops, algebra.dim)
            if not cur.contains(v):
                taken.append(v)
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
                    row = rows.setdefault(key, [ops.zero] * algebra.dim)
                    row[col] = ops.add(row[col], algebra.ring.ops_scalar(c))
        basis = linalg.nullspace(list(rows.values()), algebra.dim, ops)
        pivots = [next(t for t, c in enumerate(row) if not ops.is_zero(c)) for row in basis]
        return Subspace(algebra, basis, pivots)
    return algebra.memo("annihilator", build)


def quotient_algebra(algebra, ideal_space):
    """A / I with basis the non-pivot coordinates of I, labels inherited.

    Returns (quotient, project, lift): project maps ambient coords to
    quotient coords, lift picks the canonical coset representative.
    """
    if algebra.ring.kind != "field":
        raise TypeError("quotients need a finite field")
    if not is_ideal(algebra, ideal_space):
        raise NotAnIdeal("the subspace is not a two-sided ideal")
    ring = algebra.ring
    pivot_set = set(ideal_space.pivots)
    keep = [j for j in range(algebra.dim) if j not in pivot_set]

    def project(coords):
        red = ideal_space.reduce(coords)
        return tuple(red[j] for j in keep)

    def lift(qcoords):
        coords = [ring.zero] * algebra.dim
        for j, c in zip(keep, qcoords):
            coords[j] = c
        return tuple(coords)

    sc = {}
    for a, j1 in enumerate(keep):
        for b, j2 in enumerate(keep):
            entry = project(algebra.mul_coords(algebra._unit[j1], algebra._unit[j2]))
            kept = tuple((k, c) for k, c in enumerate(entry) if not ring.is_zero(c))
            if kept:
                sc[(a, b)] = kept
    quotient = Algebra(
        ring,
        len(keep),
        sc,
        labels=[algebra.labels[j] for j in keep],
        check=False,
    )
    return quotient, project, lift


def subalgebra_algebra(algebra, space):
    """The subspace as a standalone algebra; requires multiplicative closure.
    The result carries embed_rows mapping its coordinates back into A."""
    if algebra.ring.kind != "field":
        raise TypeError("standalone subalgebras need a finite field")
    els = space.row_elements()
    k = len(els)
    sc = {}
    for a in range(k):
        for b in range(k):
            prod = els[a] * els[b]
            coords = space.coords_of(prod)
            if coords is None:
                raise ValueError("subspace is not multiplicatively closed")
            kept = tuple((t, c) for t, c in enumerate(coords) if not algebra.ring.is_zero(c))
            if kept:
                sc[(a, b)] = kept
    sub = Algebra(
        algebra.ring,
        k,
        sc,
        labels=[f"b{t + 1}" for t in range(k)],
        check=False,
    )
    sub.embed_rows = tuple(e.coords for e in els)
    return sub
