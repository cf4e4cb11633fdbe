"""Unit groups 1 + A of nilpotent algebras.

Group elements are formal expressions 1 + a with a in A, multiplied by
(1+x)(1+y) = 1 + (x + y + xy); nilpotency makes every such element invertible
via the geometric series.  Over a finite field the group is finite of order
q^dim and we keep an explicit numpy multiplication table (for orders up to
TABLE_CAP) that powers conjugacy classes, subgroup closures and the character
machinery.  UnitElement itself is ring-agnostic and also serves the symbolic
checks over Z and Z[lam].

Element n of a group, subgroup or quotient has the base-q digits of n as its
coordinates, first coordinate most significant.  Every move between them is
GF(q)-linear on coordinates, so it is one array operation: digits/undigits
convert between indices and coordinate arrays, and combine applies a matrix
over GF(q) through the field's lookup tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapExceeded, NotASubgroup, NotNormal
from .exactfield import FIELD_TABLE_CAP
from .nilalg import subalgebra_algebra

DEFAULT_GROUP_CAP = 2 ** 20
TABLE_CAP = 4096


# ---------------------------------------------------------------------------
# coordinates: base-q indices and GF(q)-linear maps on arrays


def digits(n, q, width):
    """Base-q digits of n (an int or an integer array), most significant
    first, along a new last axis of length width."""
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.asarray(n, dtype=np.int64)[..., None] // powers % q


def undigits(coords, q):
    """Inverse of digits: the base-q value of each vector along the last axis."""
    coords = np.asarray(coords, dtype=np.int64)
    return coords @ q ** np.arange(coords.shape[-1] - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def field_tables(field):
    """The field's addition and multiplication tables on element indices, as
    int16 numpy arrays (fields up to FIELD_TABLE_CAP)."""
    field._ensure_tables()
    return (
        np.array(field._add_table, dtype=np.int16),
        np.array(field._mul_table, dtype=np.int16),
    )


def combine(field, coeffs, rows):
    """sum_i coeffs[..., i] * rows[i] over GF(q), on arrays of field element
    indices; rows is a k x d matrix and the result has last axis d."""
    add_t, mul_t = field_tables(field)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros(coeffs.shape[:-1] + rows.shape[1:], dtype=add_t.dtype)
    for i, row in enumerate(rows):
        out = add_t[out, mul_t[coeffs[..., i, None], row]]
    return out


def map_indices(field, indices, matrix):
    """Base-q indices of c . matrix over GF(q), where c runs over the
    coordinate vectors with the given base-q indices; matrix is k x d."""
    q = field.q
    return undigits(combine(field, digits(indices, q, len(matrix)), matrix), q)


class UnitElement:
    """1 + a, with a an AlgebraElement over any coefficient ring."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    @property
    def algebra(self):
        return self.a.algebra

    def __mul__(self, other):
        x, y = self.a, other.a
        return UnitElement(x + y + x * y)

    def inverse(self):
        # 1 + sum_i (-a)^i, truncated by nilpotency
        a = self.a
        term = -a
        total = term
        for _ in range(2, self.algebra.nilpotency_index):
            term = term * (-a)
            if term.is_zero():
                break
            total = total + term
        return UnitElement(total)

    def commutator(self, other):
        return self.inverse() * other.inverse() * self * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = UnitElement(self.algebra.zero())
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def order(self):
        n = 1
        u = self
        while not u.a.is_zero():
            u = u * self
            n += 1
        return n

    def is_identity(self):
        return self.a.is_zero()

    def __eq__(self, other):
        return isinstance(other, UnitElement) and other.a == self.a

    def __hash__(self):
        return hash(("unit", self.a))

    def __repr__(self):
        body = self.a.render()
        return "<1>" if body == "0" else f"<1 + {body}>"


def unit(a):
    return UnitElement(a)


class FiniteGroupTable:
    """A bare finite group: an n x n multiplication table over 0..n-1 with
    identity 0.  Everything here is index arithmetic on numpy arrays."""

    def __init__(self, table):
        self.table = table
        self.order = table.shape[0]
        self._inv = None

    @property
    def inv(self):
        if self._inv is None:
            self._inv = np.nonzero(self.table == 0)[1].astype(self.table.dtype)
        return self._inv

    def order_of(self, x):
        n = 1
        y = x
        while y != 0:
            y = int(self.table[y, x])
            n += 1
        return n

    def exponent(self):
        """The least e with x^e = 1 for every x, found by powering all
        elements at once until they reach the identity together."""
        g = np.arange(self.order)
        x, e = g, 1
        while x.any():
            x, e = self.table[x, g], e + 1
        return e

    def is_abelian(self):
        return bool((self.table == self.table.T).all())

    def subgroup_closure(self, gens):
        """Sorted indices of the subgroup generated by gens: breadth-first
        right multiplication by the generators, starting at the identity.
        In a finite group the products of generators already form the
        subgroup, so inverses and left products are never needed."""
        gens = np.unique(np.fromiter(gens, dtype=np.int64))
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while len(frontier):
            prods = np.unique(self.table[np.ix_(frontier, gens)])
            frontier = prods[~seen[prods]]
            seen[frontier] = True
        return np.nonzero(seen)[0]

    def commutator_values(self, left=None, right=None):
        """Unique values of [x, y] = x^-1 y^-1 x y for x in left, y in right."""
        T, inv = self.table, self.inv
        left = np.arange(self.order) if left is None else np.asarray(left)
        right = np.arange(self.order) if right is None else np.asarray(right)
        out = set()
        rinv = inv[right]
        for x in left:
            v = T[T[T[inv[x], rinv], x], right]
            out.update(np.unique(v).tolist())
        return np.array(sorted(out), dtype=np.int64)

    def commutator_subgroup(self):
        return self.subgroup_closure(self.commutator_values())

    def is_normal(self, indices):
        mask = np.zeros(self.order, dtype=bool)
        mask[indices] = True
        T, inv = self.table, self.inv
        g = np.arange(self.order)
        for n in indices:
            if not mask[T[T[inv, int(n)], g]].all():
                return False
        return True

    def quotient(self, normal_indices):
        """Quotient group, the projection array (old index -> new index), and
        the coset representatives (minimal member of each coset)."""
        narr = np.asarray(sorted(int(x) for x in normal_indices), dtype=np.int64)
        if not self.is_normal(narr):
            raise NotNormal("quotient by a non-normal subgroup")
        rep = self.table[:, narr].min(axis=1)
        reps = np.unique(rep)
        qindex = {int(r): t for t, r in enumerate(reps)}
        proj = np.array([qindex[int(rep[x])] for x in range(self.order)], dtype=np.int64)
        qtable = proj[self.table[np.ix_(reps, reps)]]
        return FiniteGroupTable(qtable), proj, reps

    def power_of(self, x, n):
        y = 0
        b = x
        while n:
            if n & 1:
                y = int(self.table[y, b])
            b = int(self.table[b, b])
            n >>= 1
        return y


class UnitGroup:
    """The full unit group 1 + A over a finite field."""

    def __init__(self, algebra, cap=DEFAULT_GROUP_CAP):
        if algebra.ring.kind != "field":
            raise TypeError("unit group enumeration needs a finite field")
        self.algebra = algebra
        self.field = algebra.ring.field
        self.order = self.field.q ** algebra.dim
        if self.order > cap:
            raise CapExceeded(f"group order {self.order} exceeds cap {cap}")
        if self.field.q > FIELD_TABLE_CAP:
            raise CapExceeded(
                f"field order {self.field.q} exceeds the field-table cap "
                f"{FIELD_TABLE_CAP} for enumerated groups"
            )
        self._subgroups = {}  # subspace rows -> Subgroup, see subspace_subgroup
        self._table = None
        self._group = None
        self._classes = None
        self._class_of = None
        self._class_sizes = None
        self._exponent = None
        self._generators = None
        self._char_table = None  # see chars.character_table
        self._quotient_pairings = {}  # level m -> tables, see gutkin.quotient_pairing

    # -- index <-> element ----------------------------------------------------

    def coords_of_index(self, n):
        return tuple(digits(n, self.field.q, self.algebra.dim).tolist())

    def index_of_coords(self, coords):
        return int(undigits(coords, self.field.q))

    def span_indices(self, rows):
        """Index of sum_i c_i rows[i] for every c in GF(q)^k, in the base-q
        order of c (first row most significant)."""
        matrix = np.array(rows, dtype=np.int64).reshape(len(rows), self.algebra.dim)
        return map_indices(self.field, np.arange(self.field.q ** len(rows)), matrix)

    def element(self, n):
        from .nilalg import AlgebraElement

        return UnitElement(AlgebraElement(self.algebra, self.coords_of_index(n)))

    def index_of(self, u):
        return self.index_of_coords(u.a.coords)

    def elements(self):
        return (self.element(n) for n in range(self.order))

    # -- multiplication table ----------------------------------------------------

    @property
    def table(self):
        if self._table is None:
            if self.order > TABLE_CAP:
                raise CapExceeded(
                    f"group order {self.order} exceeds table cap {TABLE_CAP}"
                )
            self._table = self._build_table()
        return self._table

    def _build_table(self):
        N, d, q = self.order, self.algebra.dim, self.field.q
        add_t, mul_t = field_tables(self.field)
        E = digits(np.arange(N), q, d).astype(np.int16)
        table = np.empty((N, N), dtype=np.int32)
        block = max(1, (1 << 22) // max(1, N * d))
        for start in range(0, N, block):
            X = E[start:start + block]
            Z = add_t[X[:, None, :], E[None, :, :]]
            for (i, j), entry in self.algebra.sc.items():
                prod = mul_t[X[:, None, i], E[None, :, j]]
                for k, c in entry:
                    term = prod if c == 1 else mul_t[prod, c]
                    Z[:, :, k] = add_t[Z[:, :, k], term]
            table[start:start + len(X)] = undigits(Z, q)
        return table

    @property
    def group(self):
        """The multiplication table as a bare FiniteGroupTable (identity 0)."""
        if self._group is None:
            self._group = FiniteGroupTable(self.table)
        return self._group

    # -- generators ---------------------------------------------------------------

    def generator_indices(self):
        """1 + c*e_i for c running over the polynomial basis of the field.
        These generate the whole group (checked by closure once)."""
        if self._generators is None:
            gens = []
            x = self.field.one
            for t in range(self.field.k):
                for i in range(self.algebra.dim):
                    coords = [0] * self.algebra.dim
                    coords[i] = x.index
                    gens.append(self.index_of_coords(coords))
                x = x * self.field.gen
            if self.order <= TABLE_CAP:
                closure = self.group.subgroup_closure(gens)
                if len(closure) != self.order:
                    raise NotASubgroup(
                        f"generators span {len(closure)} of {self.order} elements"
                    )
            self._generators = gens
        return self._generators

    # -- conjugacy ------------------------------------------------------------------

    def conjugacy_classes(self):
        """Sorted index arrays, ordered by (size, smallest member)."""
        if self._classes is None:
            T = self.table
            inv = self.group.inv
            gens = self.generator_indices()
            ginv = [int(inv[g]) for g in gens]
            seen = np.zeros(self.order, dtype=bool)
            classes = []
            for x0 in range(self.order):
                if seen[x0]:
                    continue
                seen[x0] = True
                orbit = [x0]
                frontier = [x0]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for g, gi in zip(gens, ginv):
                            y = int(T[T[gi, x], g])
                            if not seen[y]:
                                seen[y] = True
                                orbit.append(y)
                                nxt.append(y)
                    frontier = nxt
                classes.append(np.array(sorted(orbit), dtype=np.int64))
            classes.sort(key=lambda c: (len(c), int(c[0])))
            self._classes = classes
            self._class_of = np.empty(self.order, dtype=np.int64)
            for t, c in enumerate(classes):
                self._class_of[c] = t
            self._class_sizes = np.array([len(c) for c in classes], dtype=np.int64)
        return self._classes

    @property
    def class_of(self):
        self.conjugacy_classes()
        return self._class_of

    @property
    def class_sizes(self):
        self.conjugacy_classes()
        return self._class_sizes

    def class_reps(self):
        return [int(c[0]) for c in self.conjugacy_classes()]

    def exponent(self):
        if self._exponent is None:
            self._exponent = self.group.exponent()
        return self._exponent

    def center_indices(self):
        return np.array(
            sorted(int(c[0]) for c in self.conjugacy_classes() if len(c) == 1),
            dtype=np.int64,
        )

    def __repr__(self):
        return f"UnitGroup(order={self.order}, dim={self.algebra.dim}, {self.field!r})"


class Subgroup:
    """Subgroup given by its sorted element indices; optionally attached to the
    subspace B with H = 1 + B, which provides a standalone copy of H as the
    unit group of B with an embedding back into the ambient group."""

    def __init__(self, group, indices, subspace=None, verify=True):
        self.group = group
        self.indices = np.unique(np.asarray(indices, dtype=np.int64))
        self.subspace = subspace
        self.mask = np.zeros(group.order, dtype=bool)
        self.mask[self.indices] = True
        if not self.mask[0]:
            raise NotASubgroup("missing identity")
        if verify:
            T = group.table
            prods = T[np.ix_(self.indices, self.indices)]
            if not self.mask[prods].all():
                raise NotASubgroup("not closed under multiplication")
        self._std = None

    @staticmethod
    def from_subspace(group, subspace, verify_closed=True):
        """1 + B for a multiplicatively closed subspace B."""
        if verify_closed:
            els = subspace.row_elements()
            for x in els:
                for y in els:
                    if not subspace.contains(x * y):
                        raise NotASubgroup(
                            f"subspace not multiplicatively closed: "
                            f"({x.render()})({y.render()})"
                        )
        return Subgroup(
            group, group.span_indices(subspace.rows), subspace=subspace, verify=False
        )

    @property
    def order(self):
        return len(self.indices)

    def elements(self):
        return [self.group.element(int(n)) for n in self.indices]

    def is_normal(self):
        T = self.group.table
        inv = self.group.group.inv
        for g in self.group.generator_indices():
            gi = int(inv[g])
            if not self.mask[T[T[gi, self.indices], g]].all():
                return False
        return True

    @property
    def std_group(self):
        """(H as its own UnitGroup, emb, sub_of): emb[i] is the ambient
        index of the i-th element of the standalone group, and sub_of is its
        inverse as an array over the ambient group, -1 off H."""
        if self._std is None:
            if self.subspace is None:
                raise ValueError("no subspace attached to this subgroup")
            sub_alg = subalgebra_algebra(self.group.algebra, self.subspace)
            H = UnitGroup(sub_alg)
            emb = self.group.span_indices(sub_alg.embed_rows)
            if not np.array_equal(np.sort(emb), self.indices):
                raise NotASubgroup("the standalone copy does not enumerate H")
            sub_of = np.full(self.group.order, -1, dtype=np.int64)
            sub_of[emb] = np.arange(H.order)
            self._std = (H, emb, sub_of)
        return self._std


def unit_group_of(algebra, cap=DEFAULT_GROUP_CAP):
    """The unit group of algebra, built once and kept on the algebra."""
    if algebra._unit_group is None:
        algebra._unit_group = UnitGroup(algebra, cap=cap)
    return algebra._unit_group


def subgroup_closure(group, indices):
    return Subgroup(group, group.group.subgroup_closure(indices), verify=False)


def commutator_subgroup(left, right=None):
    """Commutator subgroup (S1, S2): closure of all pairwise commutators.
    Pass a UnitGroup for (G, G), or two Subgroups of the same ambient group."""
    if right is None:
        group = left.group if isinstance(left, Subgroup) else left
        li = left.indices if isinstance(left, Subgroup) else None
        vals = group.group.commutator_values(li, li)
    else:
        if left.group is not right.group:
            raise TypeError("subgroups of different ambient groups")
        group = left.group
        vals = group.group.commutator_values(left.indices, right.indices)
    return Subgroup(group, group.group.subgroup_closure(vals), verify=False)


def subspace_subgroup(group, space, verify_closed=True):
    """1 + space as a Subgroup of group, built once per group and subspace."""
    sub = group._subgroups.get(space.rows)
    if sub is None:
        sub = Subgroup.from_subspace(group, space, verify_closed=verify_closed)
        group._subgroups[space.rows] = sub
    return sub


def power_subgroup(group, m):
    """1 + A^m; A^m is an ideal, so this is a normal subgroup."""
    space = group.algebra.power_subspace(m)
    return subspace_subgroup(group, space, verify_closed=False)


def quotient_group(group, ideal):
    """(1+A)/(1+I) realized as the unit group of A/I, plus the projection
    array sending ambient indices to quotient indices (a homomorphism with
    kernel 1+I)."""
    from .nilalg import quotient_algebra

    Qalg, project, _ = quotient_algebra(group.algebra, ideal)
    Q = UnitGroup(Qalg)
    basis = group.algebra.basis()
    matrix = np.array([project(e) for e in basis], dtype=np.int64)
    matrix = matrix.reshape(len(basis), Qalg.dim)
    return Q, map_indices(group.field, np.arange(group.order), matrix)


def check_commutator_theorem(algebra, m, n, cap=DEFAULT_GROUP_CAP):
    """Does (1 + A^m, 1 + A^n) lie inside (1 + A, 1 + A^(m+n-1))?  Both sides
    are computed as full subgroup closures of the pairwise commutators.
    Returns (True, None) or (False, witness index outside the right side)."""
    G = algebra if isinstance(algebra, UnitGroup) else UnitGroup(algebra, cap=cap)
    full = Subgroup(G, np.arange(G.order), verify=False)
    lhs = commutator_subgroup(power_subgroup(G, m), power_subgroup(G, n))
    rhs = commutator_subgroup(full, power_subgroup(G, m + n - 1))
    outside = lhs.indices[~rhs.mask[lhs.indices]]
    if len(outside):
        return False, int(outside[0])
    return True, None
