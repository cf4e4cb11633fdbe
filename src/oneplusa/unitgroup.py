"""Unit groups 1 + A of nilpotent algebras.

Group elements are formal expressions 1 + a with a in A, multiplied by
(1+x)(1+y) = 1 + (x + y + xy); nilpotency makes every such element invertible
via the geometric series.  Over a finite field the group is finite of order
q^dim and we keep an explicit numpy multiplication table (for orders up to
TABLE_CAP) that powers conjugacy classes, subgroup closures and the character
machinery.  UnitElement itself is ring-agnostic and also serves the symbolic
checks over Z and Z[lam].
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapExceeded, NotASubgroup, NotNormal
from .nilalg import Subspace, subalgebra_algebra

DEFAULT_GROUP_CAP = 2 ** 20
TABLE_CAP = 4096


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
        e = 1
        for x in range(self.order):
            e = math.lcm(e, self.order_of(x))
        return e

    def is_abelian(self):
        return bool((self.table == self.table.T).all())

    def subgroup_closure(self, gens):
        """Sorted indices of the subgroup generated by gens."""
        members = {0}
        members.update(int(g) for g in gens)
        frontier = sorted(members)
        while frontier:
            base = np.fromiter(members, dtype=np.int64)
            f = np.asarray(frontier, dtype=np.int64)
            prods = np.unique(
                np.concatenate([
                    self.table[np.ix_(base, f)].ravel(),
                    self.table[np.ix_(f, base)].ravel(),
                ])
            )
            frontier = [int(x) for x in prods if x not in members]
            members.update(frontier)
        return np.array(sorted(members), dtype=np.int64)

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
        self._powers = tuple(
            self.field.q ** (algebra.dim - 1 - t) for t in range(algebra.dim)
        )
        self._table = None
        self._group = None
        self._classes = None
        self._class_of = None
        self._generators = None

    # -- index <-> element ----------------------------------------------------

    def coords_of_index(self, n):
        return tuple((n // w) % self.field.q for w in self._powers)

    def index_of_coords(self, coords):
        return sum(c * w for c, w in zip(coords, self._powers))

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
        field = self.field
        field._ensure_tables()
        add_t = np.array(field._add_table, dtype=np.int16)
        mul_t = np.array(field._mul_table, dtype=np.int16)
        E = np.array(
            list(itertools.product(range(q), repeat=d)), dtype=np.int16
        ).reshape(N, d)
        powers = np.array(self._powers, dtype=np.int64)
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
            table[start:start + len(X)] = Z.astype(np.int64) @ powers
        return table

    @property
    def group(self):
        """The multiplication table as a bare FiniteGroupTable (identity 0)."""
        if self._group is None:
            self._group = FiniteGroupTable(self.table)
        return self._group

    def mul(self, x, y):
        return int(self.table[x, y])

    def inv(self, x):
        return int(self.group.inv[x])

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
        return self._classes

    @property
    def class_of(self):
        self.conjugacy_classes()
        return self._class_of

    def class_reps(self):
        return [int(c[0]) for c in self.conjugacy_classes()]

    def exponent(self):
        e = 1
        for r in self.class_reps():
            e = math.lcm(e, self.group.order_of(r))
        return e

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
        alg = group.algebra
        if verify_closed:
            els = subspace.row_elements()
            for x in els:
                for y in els:
                    if not subspace.contains(x * y):
                        raise NotASubgroup(
                            f"subspace not multiplicatively closed: "
                            f"({x.render()})({y.render()})"
                        )
        idx = sorted(group.index_of_coords(p.coords) for p in subspace.points())
        return Subgroup(group, idx, subspace=subspace, verify=False)

    @property
    def order(self):
        return len(self.indices)

    def contains_index(self, n):
        return bool(self.mask[n])

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
        """(H as its own UnitGroup, emb, amb_to_sub): emb[i] is the ambient
        index of the i-th element of the standalone group."""
        if self._std is None:
            if self.subspace is None:
                raise ValueError("no subspace attached to this subgroup")
            sub_alg = subalgebra_algebra(self.group.algebra, self.subspace)
            H = UnitGroup(sub_alg)
            rows = sub_alg.embed_rows
            ring = self.group.algebra.ring
            emb = np.empty(H.order, dtype=np.int64)
            for n in range(H.order):
                bc = H.coords_of_index(n)
                coords = [ring.zero] * self.group.algebra.dim
                for c, row in zip(bc, rows):
                    if c:
                        for t, r in enumerate(row):
                            if not ring.is_zero(r):
                                coords[t] = ring.add(coords[t], ring.mul(c, r))
                emb[n] = self.group.index_of_coords(coords)
            amb_to_sub = {int(a): i for i, a in enumerate(emb)}
            assert sorted(amb_to_sub) == self.indices.tolist()
            self._std = (H, emb, amb_to_sub)
        return self._std


def unit_group_of(algebra, cap=DEFAULT_GROUP_CAP):
    """The unit group of algebra, built once and kept on the algebra."""
    G = getattr(algebra, "_unit_group", None)
    if G is None:
        G = algebra._unit_group = UnitGroup(algebra, cap=cap)
    return G


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


def power_subgroup(group, m):
    """1 + A^m; A^m is an ideal, so this is a normal subgroup."""
    return Subgroup.from_subspace(group, group.algebra.power_subspace(m), verify_closed=False)


def quotient_group(group, ideal):
    """(1+A)/(1+I) realized as the unit group of A/I, plus the projection
    array sending ambient indices to quotient indices (a homomorphism with
    kernel 1+I)."""
    from .nilalg import quotient_algebra

    Qalg, project, _ = quotient_algebra(group.algebra, ideal)
    Q = UnitGroup(Qalg)
    proj = np.empty(group.order, dtype=np.int64)
    for n in range(group.order):
        proj[n] = Q.index_of_coords(project(group.coords_of_index(n)))
    return Q, proj


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
