"""Unit groups 1 + A of nilpotent algebras.

Group elements are formal expressions 1 + a with a in A, multiplied by
(1+x)(1+y) = 1 + (x + y + xy); nilpotency makes every such element invertible
via the geometric series.  Over a finite field the group is finite of order
q^dim and we keep an explicit numpy multiplication table (for orders up to
TABLE_CAP).  UnitGroup is a FiniteGroupTable, and that class's index API,
mul, inv, conj and comm on index arrays, is the one place that knows the
table: conjugacy classes, subgroup closures, quotients, the character
machinery and the descent all multiply through it, so the table can later
give way to coordinate arithmetic.  UnitElement itself is ring-agnostic and
also serves the symbolic checks over Z and Z[lam].

Element n of a group, subgroup or quotient has the base-q digits of n as its
coordinates, first coordinate most significant.  Every move between them is
GF(q)-linear on coordinates, so it is one array operation: digits/undigits
convert between indices and coordinate arrays, and map_indices applies a
matrix over GF(q) with linalg.FieldArrays, the package's GF(q) arrays.
Those arrays and the scalar field ops share the field's one log/antilog
pair and need no q x q table, so the group takes a field of any order.

The table is built by digit arithmetic on indices, never by coordinates.
FiniteField numbers GF(p^k) by the base-p digits of its coefficients, so an
index is also the base-p number of the coordinates over GF(p): x + y is
digit-wise addition mod p without carry (XOR when p = 2), and the bilinear
xy is the sum over the left coordinates i of (x_i e_i) y, read from one
small q x N table per i (UnitGroup._build_table).

Groups and subgroups keep everything they compute on first use (the table,
inverses, classes, generators, subgroups, and the character tables and
pairings of the modules above) in their one memo, nilalg.Memoized.memo.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded, NotASubgroup, NotNormal, VerificationFailed
from .linalg import field_arrays
from .nilalg import Memoized, adapted_rows, product_outside, subalgebra_algebra

DEFAULT_GROUP_CAP = 2 ** 20
TABLE_CAP = 4096
TABLE_BLOCK = 1 << 16  # int32 entries per row block of the table build


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


def sorted_unique(values):
    """np.unique(values) with no flags: the sorted distinct entries of the
    flattened array, by one sort and a mask of the entries that differ from
    their left neighbour.  numpy's own flagless unique imports numpy.ma on
    first use, and its hash table is slower on the int64 index arrays here."""
    values = np.sort(np.asarray(values).ravel())
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def map_indices(field, indices, matrix):
    """Base-q indices of c . matrix over GF(q), where c runs over the
    coordinate vectors with the given base-q indices; matrix is k x d."""
    q = field.q
    coords = digits(indices, q, len(matrix))
    return undigits(field_arrays(field).matmul(coords, matrix), q)


class _DigitAdder:
    """Addition of group indices below n = p^w digit by digit mod p, without
    carry, which is the index of the sum in GF(p)^w.  For p = 2 that is XOR
    on whole indices.  Otherwise an index array is held as two parts, the
    high and the low half of its base-p digits, and each half is added
    through an int32 table of at most sqrt(n) x sqrt(n) entries.  The
    second operand of add comes from split(..., scaled=True), so each table
    is read at the sum of two arrays, with no division inside a loop."""

    def __init__(self, p, n):
        self.xor = p == 2
        if self.xor:
            return
        width = 0
        while p ** width < n:
            width += 1
        self.low = p ** (width // 2)
        self.sizes = (n // self.low, self.low)
        self.tables = []
        for size in self.sizes:  # table[b * size + a] = digit-wise a + b
            a = digits(np.arange(size), p, width)
            table = undigits((a[:, None] + a[None, :]) % p, p)
            self.tables.append(table.astype(np.int32).ravel())

    def split(self, x, scaled=False):
        """The parts of the index array x; scaled, each part is multiplied
        by its table's row length, ready to be the second operand of add."""
        if self.xor:
            return [x]
        parts = np.divmod(x, self.low)
        if scaled:
            return [part * size for part, size in zip(parts, self.sizes)]
        return list(parts)

    def add(self, parts, other):
        """parts += other, in place; other is split(..., scaled=True)."""
        if self.xor:
            np.bitwise_xor(parts[0], other[0], out=parts[0])
            return
        for part, scaled, table in zip(parts, other, self.tables):
            np.take(table, scaled + part, out=part)

    def start(self, x, out):
        """Parts holding the index column x on every column of out; for XOR
        the one part is out itself."""
        if self.xor:
            out[:] = x
            return [out]
        return [np.repeat(part, out.shape[1], axis=1) for part in self.split(x)]

    def join(self, parts, out):
        """Write the indices the parts hold into out."""
        if not self.xor:
            np.multiply(parts[0], self.low, out=out)
            out += parts[1]


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

    def __eq__(self, other):
        return isinstance(other, UnitElement) and other.a == self.a

    def __hash__(self):
        return hash(("unit", self.a))

    def __repr__(self):
        body = self.a.render()
        return "<1>" if body == "0" else f"<1 + {body}>"


def unit(a):
    return UnitElement(a)


class FiniteGroupTable(Memoized):
    """A finite group on the indices 0..n-1 with identity 0, given by its
    n x n multiplication table and a generating set.

    mul, inv, conj and comm are the index API: they take index arrays (or
    ints) and broadcast like numpy indexing, and they are the only code that
    reads the table.  Everything else here, and every other module, does its
    group arithmetic through them."""

    def __init__(self, table, generators):
        self.table = table
        self.order = table.shape[0]
        self._generators = generators

    def mul(self, x, y):
        """x y."""
        return self.table[x, y]

    @property
    def inv(self):
        """inv[x] = x^-1, as an array over the indices: row x of the table
        is a permutation, and x^-1 is where it holds the identity 0."""
        return self.memo("inv", lambda: self.table.argmin(axis=1).astype(self.table.dtype))

    def conj(self, x, g):
        """g^-1 x g."""
        return self.mul(self.mul(self.inv[g], x), g)

    def comm(self, x, y):
        """x y x^-1 y^-1, the commutator in the order of identities.beta."""
        return self.mul(x, self.mul(y, self.mul(self.inv[x], self.inv[y])))

    def generator_indices(self):
        """Indices of a generating set."""
        return self._generators

    def exponent(self):
        """The least e with x^e = 1 for every x, found by powering all
        elements at once until they reach the identity together.  In a
        group e divides the order, so an element x with x^order != 1 proves
        the table wrong (VerificationFailed naming x)."""
        def build():
            g = np.arange(self.order)
            x, e = g, 1
            while x.any():
                if e >= self.order:
                    raise VerificationFailed(
                        "power-order-is-identity", witness=int(np.flatnonzero(x)[0]))
                x, e = self.mul(x, g), e + 1
            return e
        return self.memo("exponent", build)

    def subgroup_closure(self, gens):
        """Sorted indices of the subgroup generated by gens: breadth-first
        right multiplication by the generators, starting at the identity.
        In a finite group the products of generators already form the
        subgroup, so inverses and left products are never needed."""
        gens = np.fromiter(gens, dtype=np.int64)
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while len(frontier):
            prods = sorted_unique(self.mul(frontier[:, None], gens[None, :]))
            frontier = prods[~seen[prods]]
            seen[frontier] = True
        return np.nonzero(seen)[0]

    def commutator_values(self, left, right):
        """Unique values of comm(x, y) for x in left, y in right, from one
        broadcast |left| x |right| array; callers pass generators."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        return sorted_unique(self.comm(left[:, None], right[None, :])).astype(np.int64)

    def is_normal(self, indices, gens=None):
        """Is the subgroup with these indices normalized by the generators
        gens (default: this group's)?  Conjugating by generators is enough:
        each maps the finite subgroup into itself, hence onto itself."""
        indices = np.asarray(indices, dtype=np.int64)
        mask = np.zeros(self.order, dtype=bool)
        mask[indices] = True
        gens = self.generator_indices() if gens is None else gens
        return all(mask[self.conj(indices, g)].all() for g in gens)

    def quotient(self, normal_indices):
        """Quotient group, the projection array (old index -> new index), and
        the coset representatives (least member of each coset).  The
        quotient's generators are the images of this group's."""
        return _quotient(
            self, np.arange(self.order), self.generator_indices(), normal_indices
        )


def _quotient(group, members, gens, normal_indices):
    """H/K for the subgroup H of group with sorted indices members and
    generators gens, and a normal subgroup K of H.  Each coset is
    represented by its least member, proj runs over the ambient indices
    (-1 off H), and the quotient's generators are the images of gens."""
    narr = sorted_unique(np.asarray(normal_indices, dtype=np.int64))
    in_members = np.zeros(group.order, dtype=bool)
    in_members[members] = True
    if not (in_members[narr].all() and group.is_normal(narr, gens)):
        raise NotNormal("quotient by a non-normal subgroup")
    rep = group.mul(members[:, None], narr[None, :]).min(axis=1)
    reps = sorted_unique(rep)
    proj = np.full(group.order, -1, dtype=np.int64)
    proj[members] = np.searchsorted(reps, rep)
    qtable = proj[group.mul(reps[:, None], reps[None, :])]
    qgens = sorted_unique(proj[gens]).tolist()
    return FiniteGroupTable(qtable, qgens), proj, reps


def orbit_labels(moves, n):
    """label[i] = the least index in the orbit of i, for the group generated
    by the permutations moves of 0..n-1 (index arrays), by min-label
    propagation: each index takes the least label among itself and its
    images, labels are followed to their own label (pointer jumping), and
    this repeats until nothing changes.  A label only ever moves within
    its orbit; at the end it is constant along every permutation, hence on
    the orbit, and the least index of an orbit keeps its own."""
    label = np.arange(n)
    while True:
        new = label
        for move in moves:
            new = np.minimum(new, new[move])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def polynomial_basis(field):
    """Indices of 1, x, ..., x^(k-1), the basis of GF(p^k) over F_p."""
    xs, x = [], field.one
    for _ in range(field.k):
        xs.append(x.index)
        x = x * field.gen
    return xs


def _row_generators(group, rows):
    # 1 + x^t r for x^t (t < k) over the polynomial basis of GF(p^k)
    field, n = group.field, len(rows)
    xs = polynomial_basis(field)
    coeffs = np.outer(xs, field.q ** np.arange(n - 1, -1, -1, dtype=np.int64)).ravel()
    matrix = np.array(rows, dtype=np.int64).reshape(n, group.algebra.dim)
    return map_indices(field, coeffs, matrix).tolist()


def _span_generators(group, rows, members):
    """1 + x^t r for x^t (t < k) over the polynomial basis of GF(p^k) and r
    over rows, which span B: generators of 1 + B, whose sorted indices
    members must be their closure (NotASubgroup) when the table exists.

    Rows that span B need not give generators: in F_3[e]/(e^3) with the
    basis f1 = e, f2 = 2e + e^2, 1 + f2 = (1 + f1)^2.  When the closure
    falls short, the generators are taken again from rows adapted to the
    filtration B n A^k (nilalg.adapted_rows), and those generate 1 + B.
    By downward induction on k, 1 + (B n A^k) lies in the subgroup H they
    generate.  Let r_i be the rows in A^k, which span B n A^k modulo
    B n A^(k+1), and b in B n A^k: b = sum_i c_i r_i + b' with b' in
    B n A^(k+1) and c_i = sum_t a_it x^t, a_it in F_p.  Then
    h = prod_(i,t) (1 + x^t r_i)^(a_it) is 1 + s with s = sum_i c_i r_i + w,
    w a sum of products of two or more rows, in A^(2k) <= A^(k+1).  So
    h^-1 (1 + b) = 1 + (1 + s)^-1 (b' - w), and as A^(k+1) is an ideal this
    lies in 1 + A^(k+1), and in 1 + B with h and 1 + b, hence in
    1 + (B n A^(k+1)) <= H.  The closure is still checked.  Rows that
    already generate are kept, so adapted bases never reach the retry."""
    gens = _row_generators(group, rows)
    if group.order <= TABLE_CAP:
        closure = group.subgroup_closure(gens)
        if not np.array_equal(closure, members):
            gens = _row_generators(group, adapted_rows(group.algebra, rows))
            closure = group.subgroup_closure(gens)
        if not np.array_equal(closure, members):
            raise NotASubgroup(f"generators span {len(closure)} of {len(members)} elements")
    return gens


class UnitGroup(FiniteGroupTable):
    """The full unit group 1 + A over a finite field, with the index API of
    FiniteGroupTable; the table is built on first use, up to TABLE_CAP."""

    def __init__(self, algebra, cap=DEFAULT_GROUP_CAP):
        if algebra.ring.kind != "field":
            raise TypeError("unit group enumeration needs a finite field")
        self.algebra = algebra
        self.field = algebra.ring.field
        self.order = self.field.q ** algebra.dim
        if self.order > cap:
            raise CapExceeded(f"group order {self.order} exceeds cap {cap}")

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

    # -- multiplication table ----------------------------------------------------

    def check_table_cap(self):
        """CapExceeded unless the Cayley table may be built."""
        if self.order > TABLE_CAP:
            raise CapExceeded(f"group order {self.order} exceeds table cap {TABLE_CAP}")

    @property
    def table(self):
        self.check_table_cap()
        return self.memo("table", self._build_table)

    def _build_table(self):
        """table[x, y] = index of (1+x)(1+y) = 1 + (x + y + xy), by digit
        arithmetic on indices.  An index is the base-p number of the
        coordinates over GF(p) (FiniteField numbers its elements by base-p
        coefficient digits), so x + y is digit-wise addition mod p without
        carry (_DigitAdder).  xy is bilinear: it is the sum over the left
        coordinates i of (x_i e_i) y, and left[i][a, y] holds the index of
        (a e_i) y for every a in GF(q).  Each row block of the table starts
        from x + y and adds left[i][x_i] for every i; blocks hold about
        TABLE_BLOCK int32 entries, so the build needs little beyond the
        table itself."""
        N, d, q = self.order, self.algebra.dim, self.field.q
        adder = _DigitAdder(self.field.p, N)
        y = np.arange(N, dtype=np.int32)
        ys = adder.split(y, scaled=True)
        left = {
            i: adder.split(rows, scaled=True)
            for i, rows in self._left_products(y).items()
        }
        table = np.empty((N, N), dtype=np.int32)
        block = max(1, TABLE_BLOCK // N)
        for start in range(0, N, block):
            x = y[start:start + block, None]
            acc = table[start:start + len(x)]
            parts = adder.start(x, acc)
            adder.add(parts, ys)
            for i, rows in left.items():
                xi = x[:, 0] // q ** (d - 1 - i) % q
                adder.add(parts, [part[xi] for part in rows])
            adder.join(parts, acc)
        return table

    def _left_products(self, y):
        """{i: R} over the coordinates i that occur on the left of a
        structure constant, with R[a, y] = index of (a e_i) y (int32, q x N)
        for the group indices y = 0..N-1."""
        field, d = self.field, self.algebra.dim
        F = field_arrays(field)
        mats = {}
        for (i, j), entry in self.algebra.sc.items():
            m = mats.setdefault(i, np.zeros((d, d), dtype=np.int64))
            for k, c in entry:  # row j of m: the coordinates of e_i e_j
                m[j, k] = field.add_idx(int(m[j, k]), c)
        coords = digits(y, field.q, d)
        scalars = np.arange(field.q)[:, None, None]
        left = {}
        for i, m in sorted(mats.items()):
            prod = F.matmul(coords, m)  # coordinates of e_i y
            left[i] = undigits(F.mul(scalars, prod), field.q).astype(np.int32)
        return left

    # -- generators ---------------------------------------------------------------

    def generator_indices(self):
        """1 + x^t e_i: _span_generators on the basis of A."""
        return self.memo("generators", lambda: _span_generators(
            self, np.eye(self.algebra.dim, dtype=np.int64), np.arange(self.order)))

    # -- conjugacy ------------------------------------------------------------------

    def conjugacy_classes(self):
        """Sorted index arrays, ordered by (size, smallest member).  Every
        element is labelled by the least member of its class, found by
        min-label propagation along conjugation by each generator.  The
        classes, class_of and class_sizes are one memo entry, and the two
        properties read it through this method, so it is built here."""
        return self.memo("classes", self._class_partition)[0]

    def _class_partition(self):
        x = np.arange(self.order)
        label = orbit_labels([self.conj(x, g) for g in self.generator_indices()], self.order)
        firsts, which, sizes = np.unique(label, return_inverse=True, return_counts=True)
        order = np.lexsort((firsts, sizes))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        class_of, class_sizes = rank[which], sizes[order]
        members = np.argsort(class_of, kind="stable")
        return np.split(members, np.cumsum(class_sizes)[:-1]), class_of, class_sizes

    @property
    def class_of(self):
        self.conjugacy_classes()
        return self.memo("classes", self._class_partition)[1]

    @property
    def class_sizes(self):
        self.conjugacy_classes()
        return self.memo("classes", self._class_partition)[2]

    def class_reps(self):
        """The least member of each class, in class order; kept in the memo
        beside the classes, so callers must not change the list."""
        return self.memo("class_reps", lambda: [int(c[0]) for c in self.conjugacy_classes()])

    def __repr__(self):
        return f"UnitGroup(order={self.order}, dim={self.algebra.dim}, {self.field!r})"


class Subgroup(Memoized):
    """Subgroup given by its sorted ambient indices; optionally attached to
    the subspace B with H = 1 + B, which gives it generators and quotients
    in place, on ambient indices, and (std_group) a standalone copy of H as
    the unit group of B, for the descent's 1 + A1 and 1 + B only."""

    def __init__(self, group, indices, subspace=None, verify=True):
        self.group = group
        self.indices = sorted_unique(np.asarray(indices, dtype=np.int64))
        self.subspace = subspace
        self.mask = np.zeros(group.order, dtype=bool)
        self.mask[self.indices] = True
        if not self.mask[0]:
            raise NotASubgroup("missing identity")
        if verify:
            prods = group.mul(self.indices[:, None], self.indices[None, :])
            if not self.mask[prods].all():
                raise NotASubgroup("not closed under multiplication")

    @staticmethod
    def from_subspace(group, subspace):
        """1 + B for a multiplicatively closed subspace B, checked first."""
        els = subspace.row_elements()
        outside = product_outside(subspace, els, els)
        if outside:
            x, y = outside
            raise NotASubgroup(
                f"subspace not multiplicatively closed: ({x.render()})({y.render()})"
            )
        return Subgroup(
            group, group.span_indices(subspace.rows), subspace=subspace, verify=False
        )

    @property
    def order(self):
        return len(self.indices)

    def _subspace(self):
        if self.subspace is None:
            raise ValueError("no subspace attached to this subgroup")
        return self.subspace

    def generator_indices(self):
        """Ambient indices of _span_generators on the rows of B."""
        return self.memo(
            "generators",
            lambda: _span_generators(self.group, self._subspace().rows, self.indices),
        )

    def is_normal(self):
        """Is H normal in its ambient group?  Built once per subgroup."""
        return self.memo("normal", lambda: self.group.is_normal(self.indices))

    def quotient(self, normal_indices):
        """H/K on ambient indices, as FiniteGroupTable.quotient (see _quotient)."""
        return _quotient(self.group, self.indices, self.generator_indices(), normal_indices)

    @property
    def std_group(self):
        """(H as its own UnitGroup, emb, sub_of): emb[i] is the ambient
        index of the i-th element of the standalone group, and sub_of is its
        inverse as an array over the ambient group, -1 off H."""
        def build():
            sub_alg = subalgebra_algebra(self.group.algebra, self._subspace())
            H = UnitGroup(sub_alg)
            emb = self.group.span_indices(sub_alg.embed_rows)
            if not np.array_equal(np.sort(emb), self.indices):
                raise NotASubgroup("the standalone copy does not enumerate H")
            sub_of = np.full(self.group.order, -1, dtype=np.int64)
            sub_of[emb] = np.arange(H.order)
            return H, emb, sub_of
        return self.memo("std_group", build)


def unit_group_of(algebra, cap=DEFAULT_GROUP_CAP):
    """The unit group of algebra, built once per algebra; cap is checked on
    every call, whichever cap built the group."""
    G = algebra.memo("unit_group", lambda: UnitGroup(algebra, cap=cap))
    if G.order > cap:
        raise CapExceeded(f"group order {G.order} exceeds cap {cap}")
    return G


def subgroup_closure(group, indices):
    return Subgroup(group, group.subgroup_closure(indices), verify=False)


def commutator_subgroup(left, right):
    """(M, N) for two Subgroups M, N of the same ambient group: the normal
    closure in <M, N> of the commutators of their generators X, Y, which is
    [<X>, <Y>] = <[X, Y]>^<X u Y> (Robinson, A Course in the Theory of
    Groups, 5.1).  The closure K of comm(X, Y) is widened by the conjugates
    of its generators under X u Y until X u Y normalize it.  K lies in
    (M, N), because (M, N) is normalized by M and N.  Modulo K every
    generator of M commutes with every generator of N, so M and N commute
    and (M, N) lies in K."""
    if left.group is not right.group:
        raise TypeError("subgroups of different ambient groups")
    group = left.group
    lg = np.asarray(left.generator_indices(), dtype=np.int64)
    rg = np.asarray(right.generator_indices(), dtype=np.int64)
    conjugators = sorted_unique(np.append(lg, rg))
    kgens = group.commutator_values(lg, rg)
    K = group.subgroup_closure(kgens)
    while not group.is_normal(K, conjugators):
        kgens = sorted_unique(np.append(kgens, group.conj(kgens[:, None], conjugators[None, :])))
        K = group.subgroup_closure(kgens)
    return Subgroup(group, K, verify=False)


def subspace_subgroup(group, space):
    """1 + space as a Subgroup of group, built once per group and subspace."""
    return group.memo(("subgroup", space.rows), lambda: Subgroup.from_subspace(group, space))


def power_subgroup(group, m):
    """1 + A^m; A^m is an ideal, so this is a normal subgroup."""
    return subspace_subgroup(group, group.algebra.power_subspace(m))


def check_commutator_theorem(G, m, n):
    """Does (1 + A^m, 1 + A^n) lie inside (1 + A, 1 + A^(m+n-1)) in G = 1 + A?
    Both sides come from commutator_subgroup, the normal closures of the
    commutators of the two sides' generators.  Returns (True, None) or
    (False, witness outside the right)."""
    lhs = commutator_subgroup(power_subgroup(G, m), power_subgroup(G, n))
    rhs = commutator_subgroup(power_subgroup(G, 1), power_subgroup(G, m + n - 1))
    outside = lhs.indices[~rhs.mask[lhs.indices]]
    if len(outside):
        return False, int(outside[0])
    return True, None
