"""Character table oracle and the induction toolkit.

Degree multisets for the upper-triangular groups are frozen from the
classical count: U(3, q) has q^2 linear characters and q - 1 of degree q.
Everything else is pinned by exact orthogonality or by hand computation
on the 8-element group U(3, 2) (dihedral of order 8).
"""

import gc
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from oneplusa import chars
from oneplusa.chars import (
    CellRows,
    CharacterTable,
    ClassFunction,
    _center_blocks,
    _class_matrix_T,
    _eigenvalues_mod,
    _guard,
    _inv_mod,
    _hessenberg_mod,
    _choose_prime,
    _matmul_mod,
    _nullspace_mod,
    _primitive_root,
    _rref_mod,
    _split_class_algebra,
    character_table,
    clifford_parts,
    induce,
    linear_characters,
    mackey_irreducible,
    restrict,
    _power_basis,
    scalar_character_on,
)
from oneplusa.catalog import BUILTIN, resolve
from oneplusa.errors import VerificationFailed
from oneplusa.exactfield import Cyclotomic, gf
from oneplusa.nilalg import (
    Algebra, FieldRing, Subspace, free_nilpotent, strictly_upper_triangular,
)
from oneplusa.unitgroup import Subgroup, UnitGroup, power_subgroup
from test_gutkin import _reversed_basis
from test_nilalg import _with_null
from test_unitgroup import _order_of, _power_of, _random_basis


def ul_group(n, q):
    return UnitGroup(strictly_upper_triangular(n, gf(q)))


def free_group(q, gens, idx):
    return UnitGroup(free_nilpotent(FieldRing(gf(q)), gens, idx))


def trivial_character(group):
    return ClassFunction(group, [1] * len(group.conjugacy_classes()))


def linear_class_functions(H):
    # linear_characters(H) as ClassFunctions: on the ambient group when H is
    # all of it, else on the standalone copy of H
    G = H.group
    e = G.exponent()
    if H.order == G.order:
        on, emb = G, np.arange(G.order)
    else:
        on, emb, _ = H.std_group
    reps = emb[on.class_reps()]
    return [
        ClassFunction(on, [Cyclotomic.zeta(e, int(t)) for t in row[reps]])
        for row in linear_characters(H)
    ]


# -- mod-ell eigenvalue helpers ----------------------------------------------


def _det_mod_bruteforce(M, l):
    # reference determinant by permutation expansion
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


def test_hessenberg_preserves_charpoly_roots():
    rng = np.random.default_rng(7)
    l = 101
    for n in range(1, 6):
        for _ in range(8):
            M = rng.integers(0, l, size=(n, n)).astype(np.int64)
            got = set(_eigenvalues_mod(M, l))
            want = {
                lam
                for lam in range(l)
                if _det_mod_bruteforce((M - lam * np.eye(n, dtype=np.int64)) % l, l) == 0
            }
            assert got == want


def test_hessenberg_similarity():
    rng = np.random.default_rng(11)
    l = 61
    M = rng.integers(0, l, size=(6, 6)).astype(np.int64)
    H = _hessenberg_mod(M, l)
    # hessenberg shape
    for r in range(2, 6):
        assert (H[r, : r - 1] == 0).all()
    # same characteristic polynomial, checked at every point of F_61
    for lam in range(l):
        dM = _det_mod_bruteforce((M - lam * np.eye(6, dtype=np.int64)) % l, l)
        dH = _det_mod_bruteforce((H - lam * np.eye(6, dtype=np.int64)) % l, l)
        assert dM == dH


def _rref_reference(M, l):
    # textbook Gauss-Jordan on Python ints
    M = [[int(x) % l for x in row] for row in M]
    rows, cols = len(M), len(M[0]) if M else 0
    pivots, r = [], 0
    for c in range(cols):
        p = next((t for t in range(r, rows) if M[t][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = pow(M[r][c], l - 2, l)
        M[r] = [x * inv % l for x in M[r]]
        for t in range(rows):
            if t != r and M[t][c]:
                f = M[t][c]
                M[t] = [(x - f * y) % l for x, y in zip(M[t], M[r])]
        pivots.append(c)
        r += 1
    return M[:r], pivots


def test_rref_and_nullspace_match_reference():
    rng = np.random.default_rng(5)
    for l in (5, 61, 193):
        for rows, cols, rank in [(1, 1, 0), (4, 7, 2), (7, 4, 3), (12, 12, 12), (30, 20, 9)]:
            M = (rng.integers(0, l, size=(rows, rank))
                 @ rng.integers(0, l, size=(rank, cols))) % l
            M[:, rng.integers(0, cols)] = 0  # a column with no pivot
            R, pivots = _rref_mod(M, l)
            want, want_pivots = _rref_reference(M, l)
            assert pivots == want_pivots
            assert R.tolist() == want
            K = _nullspace_mod(M, l)
            assert K.shape == (cols - len(pivots), cols)
            assert not ((M @ K.T) % l).any()
            assert len(_rref_mod(K, l)[1]) == K.shape[0]


def test_matmul_mod_is_the_exact_product():
    rng = np.random.default_rng(3)
    for l in (2, 61, 1201, 2 ** 20 + 7):
        a = rng.integers(0, l, size=(9, 13))
        b = rng.integers(0, l, size=(13, 6))
        want = (a.astype(object) @ b.astype(object)) % l
        for x in (a, np.asfortranarray(a), a - l):
            for y in (b, np.asfortranarray(b), b.T.copy().T):
                got = _matmul_mod(x, y, l)
                assert got.dtype == np.int64
                assert (got == want).all()
    # the largest entries a k = 3 product may hold: 3 (l-1)^2 < 2^53
    l = math.isqrt(2 ** 53 // 3)
    a = np.full((2, 3), l - 1, dtype=np.int64)
    assert (_matmul_mod(a, a.T, l) == (3 * (l - 1) ** 2) % l).all()


def test_matmul_mod_exactness_guard():
    l = 2 ** 26 + 1  # (l-1)^2 = 2^52
    one = np.ones((1, 1), dtype=np.int64)
    assert _matmul_mod(one, one, l)[0, 0] == 1  # k = 1: 2^52 < 2^53
    two = np.ones((1, 2), dtype=np.int64)
    with pytest.raises(RuntimeError, match="exactness"):
        _matmul_mod(two, two.T, l)  # k = 2: 2^53 is not below the bound
    with pytest.raises(RuntimeError, match="exactness"):
        _matmul_mod(np.ones((1, 3)), np.ones((3, 1)), l)


def test_split_rejects_non_commuting_matrices():
    l = 5
    # the first matrix leaves the block span{e0, e1} live and splits off e2
    first = np.diag([1, 1, 2])
    # scalar on the block's pivot columns but moving e0 out of the block:
    # caught by the fast path's elementwise invariance check
    scalar_but_not_invariant = np.eye(3, dtype=np.int64)
    scalar_but_not_invariant[0, 2] = 1
    # not scalar on the block, and e0 N leaves the block too: caught by the
    # general path's R B == B N check
    general = np.array([[1, 1, 1], [0, 2, 0], [0, 0, 3]])
    whole = [np.eye(3, dtype=np.int64)]
    for second in (scalar_but_not_invariant, general):
        assert (first @ second != second @ first).any()
        with pytest.raises(RuntimeError, match="left the subspace"):
            _split_class_algebra(iter([first, second]), whole, l)
    # commuting matrices: one line per common eigenvector
    lines = _split_class_algebra(iter([first, np.diag([1, 3, 3])]), whole, l)
    assert sorted(tuple(v.tolist()) for v in lines) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    with pytest.raises(RuntimeError, match="did not split"):
        _split_class_algebra(iter([first]), whole, l)


def test_class_matrix_counts_pairs_onto_each_representative():
    # a_ijk = #{(x, y) in C_i x C_j : xy = g_k}, straight from the definition;
    # U(3, 3) has classes that are not their own inverses
    G = ul_group(3, 3)
    classes = G.conjugacy_classes()
    reps = G.class_reps()
    l = _choose_prime(G.order, G.exponent())
    for i, Ci in enumerate(classes):
        N = _class_matrix_T(G, i, l)
        for j, Cj in enumerate(classes):
            prods = G.mul(Ci[:, None], Cj[None, :])
            assert [int(N[k, j]) for k in range(len(classes))] == [
                int(np.count_nonzero(prods == g)) % l for g in reps
            ]


def _split_setup(G):
    # r, |Z| (the classes of size 1), ell and the powers of the e-th root of
    # unity w0 that the oracle uses for G
    e = G.exponent()
    l = _choose_prime(G.order, e)
    w0 = pow(_primitive_root(l), (l - 1) // e, l)
    w0_pow = np.array([pow(w0, t, l) for t in range(e)], dtype=np.int64)
    return len(G.class_sizes), int((G.class_sizes == 1).sum()), l, w0_pow


def _lines(lines):
    return sorted(tuple(v.tolist()) for v in lines)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ul_group(3, 2),
        lambda: ul_group(4, 3),
        lambda: free_group(2, 2, 3),
        lambda: ul_group(3, 4),
        lambda: free_group(3, 2, 3),
    ],
    ids=["ul(3,2)", "ul(4,3)", "free(2,2,3)", "ul(3,4)", "free(3,2,3)"],
)
def test_center_presplit_matches_the_plain_split(make):
    G = make()
    r, nz, l, w0_pow = _split_setup(G)
    identity = [np.eye(r, dtype=np.int64)]
    plain = _split_class_algebra((_class_matrix_T(G, i, l) for i in range(1, r)), identity, l)
    blocks, heads = _center_blocks(G, w0_pow)
    # one block per character of the center, each in RREF with pivot 1 on
    # the least class of each orbit it meets; Z itself is the orbit of 0
    assert len(blocks) == nz
    assert sum(len(B) for B in blocks) == r
    assert heads[0] == 0 and all(k >= nz for k in heads[1:])
    for B in blocks:
        pivots = (B != 0).argmax(axis=1)
        assert set(pivots.tolist()) <= set(heads)
        assert (np.diff(pivots) > 0).all()
        assert (B[:, pivots] == np.eye(len(B), dtype=np.int64)).all()
    # every non-central class matrix, and only those of the orbit heads
    for ks in (range(nz, r), heads[1:]):
        pre = _split_class_algebra((_class_matrix_T(G, k, l) for k in ks), blocks, l)
        assert _lines(pre) == _lines(plain)


def _count_class_matrices(monkeypatch):
    # (group, i) for every class matrix built, the quotient groups' included
    calls = []
    build = chars._class_matrix_T

    def counting(group, i, l):
        calls.append((group, i))
        return build(group, i, l)

    monkeypatch.setattr(chars, "_class_matrix_T", counting)
    return calls


def test_abelian_group_needs_no_class_matrix(monkeypatch):
    G = free_group(2, 2, 2)
    r, nz, _, w0_pow = _split_setup(G)
    assert nz == r == 4
    blocks, heads = _center_blocks(G, w0_pow)
    assert [len(B) for B in blocks] == [1] * r
    assert heads == [0]
    calls = _count_class_matrices(monkeypatch)
    assert character_table(G).degrees == [1] * r
    assert calls == []


@pytest.mark.parametrize(
    "make,any_built", [(lambda: ul_group(4, 3), True), (lambda: free_group(3, 2, 3), False)],
    ids=["ul(4,3)", "free(3,2,3)"],
)
def test_split_builds_only_non_central_class_matrices(monkeypatch, make, any_built):
    G = make()
    r, nz, _, w0_pow = _split_setup(G)
    assert nz > 1
    _, heads = _center_blocks(G, w0_pow)
    calls = _count_class_matrices(monkeypatch)
    character_table(G)
    if not any_built:
        # every block of free(3,2,3) left after inflation is a line once its
        # linear characters are taken out, and its quotients are abelian
        assert calls == []
        return
    # at most one class matrix per non-central Z-orbit of G, built once
    own = [i for group, i in calls if group is G]
    assert 0 < len(own) <= len(heads) - 1 < r - nz
    assert set(own) <= set(heads[1:])
    assert len(set(own)) == len(own)


def test_split_rejects_blocks_not_summing_to_r():
    l = 5
    eye = np.eye(3, dtype=np.int64)
    with pytest.raises(RuntimeError, match="not summing to 3"):
        _split_class_algebra(iter([]), [eye[:1], eye[1:2]], l)
    with pytest.raises(RuntimeError, match="not summing to 3"):
        _split_class_algebra(iter([]), [eye[:2], eye[1:]], l)
    # one-row blocks are lines at once: no matrix is needed
    assert _lines(_split_class_algebra(iter([]), [eye[:1], eye[1:2], eye[2:]], l)) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)
    ]
    # a partial seeding passes the number of lines it expects
    assert _lines(_split_class_algebra(iter([]), [eye[1:2]], l, 1)) == [(0, 1, 0)]
    assert _split_class_algebra(iter([]), [], l, 0) == []
    with pytest.raises(RuntimeError, match="not summing to 2"):
        _split_class_algebra(iter([]), [eye[1:2]], l, 2)


def _center_only_table(group):
    # the oracle before inflation from 1 + A/Ann(A) and linear-character
    # lines, as the reference: every line of the center's blocks split by
    # class matrices and lifted
    r = len(group.conjugacy_classes())
    sizes = group.class_sizes
    reps = np.array(group.class_reps(), dtype=np.int64)
    CL = group.class_of
    e = group.exponent()

    if group.order == 1:
        table = CharacterTable(group, [trivial_character(group)], {"mod_prime": None})
        table.validate()
        return table

    l = _choose_prime(group.order, e)
    r0 = _primitive_root(l)
    w0 = pow(r0, (l - 1) // e, l)
    w0_pow = np.array([pow(w0, t, l) for t in range(e)], dtype=np.int64)

    blocks, heads = _center_blocks(group, w0_pow)
    done = _split_class_algebra((_class_matrix_T(group, k, l) for k in heads[1:]), blocks, l)

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

    basis = _power_basis(e)
    _guard("character lift", e, math.isqrt(group.order), basis.zmax)
    found = []
    for w in done:
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
        found.append(ClassFunction._of(group, M @ basis.zeta))

    found.sort(key=lambda c: c.sort_key())
    table = CharacterTable(
        group,
        found,
        {"mod_prime": l, "primitive_root": r0, "unity_root": w0, "exponent": e},
    )
    table.validate()
    return table


REFERENCE_ALGEBRAS = (
    [pytest.param(e.construct, id=e.name) for e in BUILTIN]
    + [pytest.param(lambda t=t, s=s: _random_basis(resolve(t), s), id=f"{t}-random")
       for t, s in (("ul(4,3)", 1), ("ul(3,4)", 2))]
    + [pytest.param(lambda t=t: _reversed_basis(resolve(t)), id=f"{t}-reversed")
       for t in ("ul(4,3)", "ul(3,4)")]
    + [pytest.param(lambda t=t: _with_null(resolve(t)), id=f"{t}+z")
       for t in ("ul(3,2)", "ul(3,3)", "free(2,2,3)")]
    + [pytest.param(lambda: Algebra(FieldRing(gf(3)), 2, {}, check=False), id="F_3^2")]
)


@pytest.mark.parametrize("make", REFERENCE_ALGEBRAS)
def test_table_matches_the_center_only_reference(make):
    # inflation from 1 + A/Ann(A) and the linear-character lines give the
    # same rows, in the same order, with the same oracle meta; the +z
    # algebras have Ann(A) outside A^2, F_3^2 has Ann(A) = A
    G = UnitGroup(make())
    want = _center_only_table(G)
    got = character_table(G)
    assert got.meta == want.meta
    assert len(got.chars) == len(want.chars)
    for a, b in zip(got.chars, want.chars):
        assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("make,orders", [
    (lambda: ul_group(4, 3), [243, 27, 1]),
    (lambda: ul_group(5, 2), [512, 128, 16, 1]),
    (lambda: free_group(3, 2, 3), [9, 1]),
], ids=["ul(4,3)", "ul(5,2)", "free(3,2,3)"])
def test_quotient_groups_die_before_the_next_table_is_built(monkeypatch, make, orders):
    # each 1 + A/Ann(A) is a bare UnitGroup in no reference cycle, so it is
    # freed by refcount as soon as its rows are read: with the collector
    # off, no smaller one is alive when a group's Cayley table is built,
    # and none when character_table returns
    made, alive = [], []
    real_group, real_build = chars.UnitGroup, UnitGroup._build_table

    def recording(algebra):
        group = real_group(algebra)
        made.append((group.order, weakref.ref(group)))
        return group

    def building(self):
        alive.append([order for order, ref in made
                      if ref() not in (None, self) and order < self.order])
        return real_build(self)

    monkeypatch.setattr(chars, "UnitGroup", recording)
    monkeypatch.setattr(UnitGroup, "_build_table", building)
    gc.disable()
    try:
        character_table(make())
        assert [order for order, _ in made] == orders
        assert all(ref() is None for _, ref in made)
    finally:
        gc.enable()
    assert len(alive) == len(orders) + 1
    assert alive == [[]] * len(alive)


def test_prime_choice():
    # 2*sqrt(729) = 54, so the prime must be > 54, = 1 mod 3
    assert _choose_prime(729, 3) == 61
    # 2*sqrt(8) ~ 5.66 and the prime must be = 1 mod 4: 9 fails, 13 works
    assert _choose_prime(8, 4) == 13
    l = _choose_prime(1024, 2)
    assert l > 64 and l % 2 == 1 and 1024 % l != 0


# -- the dihedral table, fully by hand -----------------------------------------


def test_ul32_table_matches_hand_computation():
    G = ul_group(3, 2)
    tab = character_table(G)
    assert tab.degrees == [1, 1, 1, 1, 2]
    one = Cyclotomic.rational(1)
    neg = Cyclotomic.rational(-1)
    # classes sorted by (size, min index): identity, center, then three 2-classes
    sizes = [len(c) for c in G.conjugacy_classes()]
    assert sizes == [1, 1, 2, 2, 2]
    # the degree-2 character is 2 at 1, -2 at the center, 0 elsewhere
    chi = tab.chars[-1]
    assert chi.values[0] == 2
    assert chi.values[1] == -2
    assert all(v == 0 for v in chi.values[2:])
    # each linear character is +-1 everywhere and 1 on the center
    for ch in tab.chars[:4]:
        assert ch.values[1] == one
        assert all(v in (one, neg) for v in ch.values)
    # rows are pairwise distinct and the table is exactly orthogonal
    assert len({ch.values for ch in tab.chars}) == 5
    report = tab.validate()
    assert report["orthogonality"] == "exact"


def test_ul32_inner_products():
    G = ul_group(3, 2)
    tab = character_table(G)
    for a, b in itertools.combinations_with_replacement(tab.chars, 2):
        want = 1 if a is b else 0
        assert a.inner(b) == want


def test_regular_character_decomposition():
    G = ul_group(3, 2)
    tab = character_table(G)
    # the regular character: |G| at the identity class, 0 elsewhere
    reg = ClassFunction(G, [G.order] + [0] * (len(tab.chars) - 1))
    for ch in tab.chars:
        assert reg.inner(ch) == ch.degree
    # reg = sum of deg * chi
    acc = None
    for ch in tab.chars:
        term = ch * ch.degree
        acc = term if acc is None else acc + term
    assert acc == reg


# -- degree multisets for the other catalog groups -----------------------------


def test_ul33_degrees():
    tab = character_table(ul_group(3, 3))
    assert sorted(tab.degrees) == [1] * 9 + [3, 3]


def test_ul34_degrees():
    tab = character_table(ul_group(3, 4))
    assert sorted(tab.degrees) == [1] * 16 + [4, 4, 4]


def test_ul42_degrees():
    # order 64: 8 linear, 6 of degree 2, 2 of degree 4 is wrong for this group;
    # pin the actual multiset from the computed, orthogonality-checked table
    tab = character_table(ul_group(4, 2))
    assert sum(d * d for d in tab.degrees) == 64
    assert tab.degrees == sorted(tab.degrees)
    assert tab.degrees.count(1) == 8
    assert set(tab.degrees) <= {1, 2, 4}


def test_abelian_group_all_linear():
    G = free_group(2, 2, 2)  # 1 + A with A^2 = 0, elementary abelian of order 4
    tab = character_table(G)
    assert tab.degrees == [1, 1, 1, 1]
    vals = {ch.values for ch in tab.chars}
    assert len(vals) == 4


def test_free323_table_shape():
    # two generators, class 2, over GF(3): 729 elements, 297 classes
    G = free_group(3, 2, 3)
    tab = character_table(G)
    assert tab.meta["mod_prime"] == 61
    assert len(tab.chars) == 297
    degs = tab.degrees
    assert degs.count(1) == 243
    assert degs.count(3) == 54
    assert sum(d * d for d in degs) == 729


# -- linear characters from the abelianization ---------------------------------


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
def test_linear_characters_match_table(n, q):
    G = ul_group(n, q)
    lin = linear_class_functions(power_subgroup(G, 1))
    tab = character_table(G)
    from_table = {ch.values for ch in tab.chars if ch.degree == 1}
    assert {ch.values for ch in lin} == from_table
    assert len(lin) == len(from_table)


def test_linear_characters_are_homomorphisms():
    G = ul_group(3, 3)
    e = G.exponent()
    x = np.arange(0, G.order, 5)[:, None]
    y = np.arange(1, G.order, 7)[None, :]
    for row in linear_characters(power_subgroup(G, 1)):
        assert (row[G.mul(x, y)] == (row[x] + row[y]) % e).all()


def _reference_cyclic_decomposition(Q):
    # the reference for chars._cyclic_decomposition: element orders one at
    # a time, and the peeling and reconstruction element by element
    if Q.order == 1:
        return [], [], np.zeros((1, 0), dtype=np.int64)
    qgens = np.asarray(Q.generator_indices(), dtype=np.int64)
    bad = np.argwhere(Q.comm(qgens[:, None], qgens[None, :]))
    if len(bad):
        raise VerificationFailed("abelian-quotient", witness=tuple(qgens[bad[0]].tolist()))
    orders = [_order_of(Q, x) for x in range(Q.order)]
    m = max(orders)
    g = orders.index(m)
    powers = {}
    x = 0
    for t in range(m):
        powers[x] = t
        x = int(Q.mul(x, g))
    C = Q.subgroup_closure([g])
    if len(C) != m:
        raise VerificationFailed("cyclic-closure", witness=(g, m, len(C)))
    Q2, proj2, reps2 = Q.quotient(C)
    gens2, orders2, exps2 = _reference_cyclic_decomposition(Q2)
    lifted = []
    for gi, mi in zip(gens2, orders2):
        h = int(reps2[gi])
        t = powers[_power_of(Q, h, mi)]
        if t % mi:
            raise VerificationFailed("peeling-divisibility", witness=(h, mi, t))
        h = int(Q.mul(h, _power_of(Q, g, (-(t // mi)) % m)))
        if _order_of(Q, h) != mi:
            raise VerificationFailed("peeling-order", witness=(h, mi, _order_of(Q, h)))
        lifted.append(h)
    gens = [g] + lifted
    orders_out = [m] + list(orders2)
    exps = np.zeros((Q.order, len(gens)), dtype=np.int64)
    for x in range(Q.order):
        rest = exps2[proj2[x]]
        y = x
        for h, a, mi in zip(lifted, rest, orders2):
            y = int(Q.mul(y, _power_of(Q, h, (-int(a)) % mi)))
        if y not in powers:
            raise VerificationFailed("peeling-cyclic-part", witness=(x, y))
        exps[x] = [powers[y]] + [int(a) for a in rest]
        z = _power_of(Q, g, int(exps[x, 0]))
        for h, a in zip(lifted, exps[x, 1:]):
            z = int(Q.mul(z, _power_of(Q, h, int(a))))
        if z != x:
            raise VerificationFailed("peeling-reconstruction", witness=(x, z))
    return gens, orders_out, exps


@pytest.mark.parametrize(
    "target", [e.name for e in BUILTIN if e.summary()["group_order"] <= 1024] + ["ul(5,2)"]
)
def test_cyclic_decomposition_matches_the_elementwise_reference(monkeypatch, target):
    # every abelian group decomposed on the way: H/(H, H) for every 1 + U of
    # the descents, G/(G, G) and the center of the oracle, and the
    # quotients the recursion peels off them
    seen = []
    real = chars._cyclic_decomposition

    def recording(Q):
        out = real(Q)
        seen.append((Q, out))
        return out

    monkeypatch.setattr(chars, "_cyclic_decomposition", recording)
    from oneplusa.gutkin import gutkin_decompose

    G = UnitGroup(resolve(target))
    for chi in character_table(G).chars:
        gutkin_decompose(chi)
    assert len({Q.order for Q, _ in seen}) > 2
    for Q, (gens, orders, exps) in seen:
        ref_gens, ref_orders, ref_exps = _reference_cyclic_decomposition(Q)
        assert (gens, orders) == (ref_gens, ref_orders)
        assert all(type(v) is int for v in gens + orders)
        assert exps.dtype == np.int64 and np.array_equal(exps, ref_exps)


# -- induction and restriction --------------------------------------------------


def test_restrict_degree2_to_center():
    G = ul_group(3, 2)
    tab = character_table(G)
    chi = tab.chars[-1]
    Z = power_subgroup(G, 2)  # the center: 1 + span{e13}
    rho = restrict(chi, Z)
    Hg, emb, _ = Z.std_group
    assert rho.values[0] == 2
    # on the nonidentity central element the value is -2 = 2 * (-1)
    assert rho.value_at_index(1) == -2


def test_induce_from_index_two():
    G = ul_group(3, 2)
    # H = 1 + span{e12, e13} is abelian of order 4, index 2
    A = G.algebra
    S = Subspace.from_vectors(A, [A.basis_element(0), A.basis_element(2)])
    H = Subgroup.from_subspace(G, S)
    assert H.order == 4
    lin = linear_class_functions(H)
    tab = character_table(G)
    got_irreducible = 0
    for rho in lin:
        ind = induce(rho, H)
        assert ind.degree == 2
        if mackey_irreducible(rho, H):
            got_irreducible += 1
            assert ind == tab.chars[-1]
    # exactly two of the four linear characters induce the degree-2 character
    assert got_irreducible == 2


def test_frobenius_reciprocity():
    G = ul_group(3, 3)
    H = power_subgroup(G, 2)
    tab = character_table(G)
    rhos = linear_class_functions(H)
    for rho in rhos[:4]:
        for chi in tab.chars[:4] + tab.chars[-2:]:
            assert induce(rho, H).inner(chi) == rho.inner(restrict(chi, H))


def test_induced_inner_product_counts_constituents():
    G = ul_group(3, 2)
    H = power_subgroup(G, 2)
    Hg, _, _ = H.std_group
    tab = character_table(G)
    triv = trivial_character(Hg)
    ind = induce(triv, H)
    assert ind.degree == 4
    # Ind 1 from the center = sum of the four linear characters
    acc = None
    for ch in tab.chars[:4]:
        acc = ch if acc is None else acc + ch
    assert ind == acc


@pytest.mark.parametrize("make", [lambda: ul_group(3, 3), lambda: ul_group(4, 2)])
def test_clifford_parts_over_the_center(make):
    # Z = 1 + A^(n-1) is central and acts on chi by chi(1) l_chi, so the part
    # over l_chi is chi itself and every other part is zero
    G = make()
    Z = power_subgroup(G, G.algebra.nilpotency_index - 1)
    lams = linear_characters(Z)[:, Z.indices]
    for chi in character_table(G).chars:
        own = (lams == scalar_character_on(chi, Z)[Z.indices]).all(axis=1)
        assert own.sum() == 1
        parts = clifford_parts(chi, Z.indices, lams, G.exponent())
        for is_own, part in zip(own, parts):
            assert part == chi if is_own else not part.coeffs.any()


def test_clifford_parts_reject_values_outside_the_ring():
    G = ul_group(3, 2)  # exponent 4; Z = {1, 1 + e13}
    Z = power_subgroup(G, 2)
    chi = character_table(G).chars[-1]  # chi(1 + e13) = -2
    # exponents mod 8 are read mod 4: 4 is -1, but 1 is zeta_8
    assert clifford_parts(chi, Z.indices, np.array([[0, 4]]), 8)[0] == chi
    with pytest.raises(VerificationFailed) as err:
        clifford_parts(chi, Z.indices, np.array([[0, 4], [0, 1]]), 8)
    assert (err.value.stage, err.value.witness) == ("clifford-exponent", (1, 1))
    # 1 at the identity and 0 elsewhere: the trivial part is 1/2 there
    delta = ClassFunction(G, [1, 0, 0, 0, 0])
    with pytest.raises(VerificationFailed) as err:
        clifford_parts(delta, Z.indices, np.array([[0, 0]]), 4)
    assert (err.value.stage, err.value.witness) == ("clifford-integrality", (0, 0))


def test_scalar_on_center():
    G = ul_group(3, 2)  # exponent 4
    tab = character_table(G)
    chi = tab.chars[-1]
    Z = power_subgroup(G, 2)
    exps = scalar_character_on(chi, Z)
    assert exps is not None
    # exponents mod 4 on 1 and 1+e13: zeta_4^0 = 1, zeta_4^2 = -1; -1 off Z
    assert exps.tolist() == [0, 2] + [-1] * 6
    # the degree-2 character is not scalar on the full group
    full = Subgroup(G, np.arange(G.order), verify=False)
    assert scalar_character_on(chi, full) is None


@pytest.mark.parametrize("make", [lambda: ul_group(3, 2), lambda: ul_group(3, 3),
                                  lambda: free_group(2, 1, 5)],
                         ids=["ul(3,2)", "ul(3,3)", "free(2,1,5)"])
def test_scalar_exponents_give_the_values(make):
    # chi(h) = deg chi * zeta_e^t(h) wherever chi is scalar on 1 + A^m
    G = make()
    e = G.exponent()
    for chi in character_table(G).chars:
        d = chi.degree_int()
        for m in range(1, G.algebra.nilpotency_index + 1):
            S = power_subgroup(G, m)
            exps = scalar_character_on(chi, S)
            if exps is None:
                continue
            assert (exps[~S.mask] == -1).all()
            for h in S.indices.tolist():
                assert Cyclotomic.zeta(e, int(exps[h])) * d == chi.value_at_index(h)


def test_scalar_test_rejects_a_norm_that_is_no_root_of_unity():
    # |3 + 4i|^2 = 5^2, but (3 + 4i)/5 is not a root of unity
    G = ul_group(3, 2)
    vals = [5, 3 + 4 * Cyclotomic.zeta(4), 5, 5, 5]
    with pytest.raises(VerificationFailed) as err:
        scalar_character_on(ClassFunction(G, vals), power_subgroup(G, 2))
    assert err.value.stage == "scalar-root-of-unity"


@pytest.mark.parametrize("e", [2, 4, 8, 9, 27])
def test_row_to_exponent_lookup(e):
    basis = _power_basis(e)
    rows = np.stack([basis.row(Cyclotomic.zeta(e, t)) for t in range(e)])
    assert basis.exponents(rows, "lookup").tolist() == list(range(e))
    assert basis.exponents(3 * rows, "lookup", scale=3).tolist() == list(range(e))
    for bad in (2, 1 + Cyclotomic.zeta(e)):  # 1 + zeta_4 at e = 4, 0 at e = 2
        with pytest.raises(VerificationFailed) as err:
            basis.exponents(np.stack([rows[1], basis.row(bad)]), "lookup")
        assert (err.value.stage, err.value.witness) == ("lookup", (1, 1))
    with pytest.raises(VerificationFailed):
        basis.exponents(rows, "lookup", scale=2)


@pytest.mark.parametrize("make", [lambda: ul_group(4, 2), lambda: free_group(2, 1, 5)],
                         ids=["ul(4,2)", "free(2,1,5)"])
def test_linear_characters_match_the_subgroup_table(make):
    # the rows of linear_characters(H), computed in place on ambient indices,
    # are the degree-1 rows of the character table of H's standalone copy,
    # rescaled from zeta_(e_H) to zeta_e of the ambient group
    G = make()
    e = G.exponent()
    A = G.algebra
    twisted = Subspace.from_vectors(
        A, [A.basis_element(0)] + [A.basis_element(i) for i, d in
                                   enumerate(A.graded_degrees) if d >= 2]
    )
    subgroups = [power_subgroup(G, m) for m in range(1, A.nilpotency_index + 1)]
    subgroups.append(Subgroup.from_subspace(G, twisted))
    for H in subgroups:
        Hg, emb, _ = H.std_group
        basis = _power_basis(Hg.exponent())
        want = set()
        for ch in character_table(Hg).chars:
            if ch.degree_int() != 1:
                continue
            t = basis.exponents(ch.coeffs, "linear-root-of-unity") * (e // basis.e)
            row = np.full(G.order, -1, dtype=np.int64)
            row[emb] = t[Hg.class_of]
            want.add(row.tobytes())
        rows = linear_characters(H)
        assert rows.dtype == np.int64 and rows.shape == (len(want), G.order)
        assert {row.tobytes() for row in rows} == want


def test_mackey_criteria_agree_on_normal_subgroups():
    G = ul_group(3, 3)
    H = power_subgroup(G, 2)
    assert G.is_normal(H.indices)
    for rho in linear_class_functions(H):
        mackey_irreducible(rho, H)  # raises if the two criteria disagree


# -- the array path against the per-value Cyclotomic formulas ------------------


def ref_inner(G, a_vals, b_vals):
    total = Cyclotomic.rational(0)
    for c, x, y in zip(G.conjugacy_classes(), a_vals, b_vals):
        total = total + x * y.conj() * len(c)
    return total * Fraction(1, G.order)


def ref_induce(rho, H):
    G = H.group
    Hg, emb, _ = H.std_group
    classes = G.conjugacy_classes()
    sums = [Cyclotomic.rational(0)] * len(classes)
    for a in range(Hg.order):
        k = int(G.class_of[int(emb[a])])
        sums[k] = sums[k] + rho.values[int(Hg.class_of[a])]
    return tuple(s * Fraction(G.order, H.order * len(c)) for s, c in zip(sums, classes))


def ref_restrict(chi, H):
    Hg, emb, _ = H.std_group
    return tuple(chi.value_at_index(int(emb[int(c[0])])) for c in Hg.conjugacy_classes())


@pytest.mark.parametrize(
    "make",
    [
        lambda: ul_group(3, 4),
        lambda: free_group(2, 2, 3),
        lambda: ul_group(4, 2),
        # cyclic-by-cyclic groups of exponent 9 and 8, whose subgroups of
        # exponent 3 and 4 restrict through a stride that is not trivial
        lambda: free_group(3, 1, 4),
        lambda: free_group(2, 1, 5),
    ],
    ids=["ul(3,4)", "free(2,2,3)", "ul(4,2)", "free(3,1,4)", "free(2,1,5)"],
)
def test_array_path_matches_cyclotomic_formulas(make):
    G = make()
    A = G.algebra
    chars = character_table(G).chars
    e = G.exponent()
    # every ordered pair, the second twisted by a root of unity so that the
    # products are not all real
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            z = Cyclotomic.zeta(e, i + 2 * j)
            assert a.inner(b * z) == ref_inner(G, a.values, [v * z for v in b.values])
    # 1 + A^m down to the trivial group, through smaller exponents, and
    # 1 + (span{b_0} + A^2), whose embedding is not the identity on indices
    top = [A.basis_element(0)]
    top += [A.basis_element(i) for i, d in enumerate(A.graded_degrees) if d >= 2]
    subgroups = [power_subgroup(G, m) for m in range(1, A.nilpotency_index + 1)]
    subgroups.append(Subgroup.from_subspace(G, Subspace.from_vectors(A, top)))
    exponents = set()
    for H in subgroups:
        Hg, _, _ = H.std_group
        exponents.add(Hg.exponent())
        for chi in chars:
            assert restrict(chi, H).values == ref_restrict(chi, H)
        for rho in character_table(Hg).chars:
            assert rho.inner(rho) == ref_inner(Hg, rho.values, rho.values)
            assert induce(rho, H).values == ref_induce(rho, H)
    assert 1 in exponents and len(exponents) > 2


def test_inner_overflow_guard():
    G = ul_group(3, 2)
    r = len(G.conjugacy_classes())
    big = ClassFunction(G, [Cyclotomic.rational(2 ** 40)] * r)
    with pytest.raises(RuntimeError, match="overflow guard"):
        big.inner(big)
    # just inside the bound the contraction is still exact
    near = ClassFunction(G, [Cyclotomic.zeta(4) * 2 ** 27] * r)
    assert near.inner(near) == ref_inner(G, near.values, near.values) == 2 ** 54


def test_restrict_rejects_values_outside_the_subfield():
    G = ul_group(3, 4)
    Z = power_subgroup(G, 2)
    Hg, _, _ = Z.std_group
    assert (G.exponent(), Hg.exponent()) == (4, 2)
    f = ClassFunction(G, [Cyclotomic.zeta(4)] * len(G.conjugacy_classes()))
    with pytest.raises(VerificationFailed) as err:
        restrict(f, Z)
    assert err.value.stage == "restriction-field"


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), Cyclotomic.zeta(3), Cyclotomic.zeta(8)], ids=str
)
def test_class_function_values_must_lie_in_the_ring(value):
    G = ul_group(3, 2)  # exponent 4: values live in Z[i]
    with pytest.raises(VerificationFailed) as err:
        ClassFunction(G, [value] * len(G.conjugacy_classes()))
    assert err.value.stage == "value-integrality"


# -- exact validation ------------------------------------------------------------


def _table_of(tab, X):
    # the table tab with the coefficient array X in place of its rows
    G = tab.group
    return CharacterTable(G, [ClassFunction._of(G, row.copy()) for row in X], tab.meta)


def _coeffs(tab):
    return np.stack([ch.coeffs for ch in tab.chars])


def test_validate_rejects_a_perturbed_coefficient():
    tab = character_table(ul_group(3, 3))
    X = _coeffs(tab)
    s, k = len(X) - 1, len(X[0]) - 1  # the last row, on a class off the identity
    X[s, k, 0] += 1
    # <chi_t, chi_s> moves by |C_k| chi_t(k) for every t, so the first
    # failing pair is (t, s) for the least t with chi_t(k) != 0
    t = int(np.nonzero(X[:, k].any(axis=1))[0][0])
    assert t < s
    with pytest.raises(VerificationFailed) as err:
        _table_of(tab, X).validate()
    assert err.value.stage == "orthogonality"
    assert err.value.witness == (t, s)


def test_validate_rejects_a_duplicated_row():
    tab = character_table(ul_group(3, 3))
    X = _coeffs(tab)
    assert tab.degrees[:2] == [1, 1]
    X[1] = X[0]  # the degree mass still holds
    with pytest.raises(VerificationFailed) as err:
        _table_of(tab, X).validate()
    assert err.value.stage == "orthogonality"
    assert err.value.witness == (0, 1)


def test_validate_float64_exactness_guard():
    G = ul_group(4, 2)
    tab = character_table(G)
    r = len(tab.chars)
    k = int(np.nonzero(G.class_sizes == 2)[0][0])
    X = _coeffs(tab)
    # r * max|n_k X| * max|X| = 16 * 2^25 * 2^24 = 2^53: not below the bound
    X[-1, k, 0] = 2 ** 24
    Xn = X * G.class_sizes[None, :, None]
    assert r * int(np.abs(Xn).max()) * int(np.abs(X).max()) == 2 ** 53
    with pytest.raises(RuntimeError, match="float64 exactness guard in orthogonality"):
        _table_of(tab, X).validate()
    # just below it the products are exact, and the table is simply wrong
    X[-1, k, 0] = 2 ** 24 - 1
    with pytest.raises(VerificationFailed) as err:
        _table_of(tab, X).validate()
    assert err.value.stage == "orthogonality"


# -- serialization ---------------------------------------------------------------


def test_table_json_and_csv():
    G = ul_group(3, 2)
    tab = character_table(G)
    d = tab.to_json()
    assert d["group_order"] == 8
    assert d["degrees"] == [1, 1, 1, 1, 2]
    assert d["num_classes"] == 5
    assert len(d["values"]) == 5
    got = Cyclotomic.from_json(d["values"][4][1])
    assert got == Cyclotomic.rational(-2)
    csv = tab.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == 7
    assert lines[0].startswith("char,")
    assert lines[1] == "size,1,1,2,2,2"
    assert lines[-1].startswith("X5,")


@pytest.mark.parametrize("make", [
    lambda: ul_group(3, 4),
    lambda: free_group(2, 2, 3),
    lambda: free_group(3, 2, 3),
    lambda: ul_group(4, 4),
], ids=["ul(3,4)", "free(2,2,3)", "free(3,2,3)", "ul(4,4)"])
def test_table_cells_are_the_distinct_coefficient_rows(make):
    tab = character_table(make())
    X = np.stack([ch.coeffs for ch in tab.chars])
    values, ids = tab._cells()
    basis = _power_basis(tab.group.exponent())
    rows = np.array([basis.row(v) for v in values])
    assert ids.shape == X.shape[:2]
    assert np.array_equal(rows[ids], X)
    assert len({row.tobytes() for row in rows}) == len(rows)
    # the axis=0 unique the table used before, as the reference
    reference = np.unique(X.reshape(-1, X.shape[2]), axis=0)
    assert len(reference) == len(rows)
    assert {r.tobytes() for r in reference} == {r.tobytes() for r in rows}


def test_table_values_are_cell_rows_sharing_one_dict_per_value():
    tab = character_table(ul_group(3, 4))
    values = tab.to_json()["values"]
    assert isinstance(values, CellRows) and isinstance(values, list)
    assert values.ids.shape == (len(tab.chars), len(tab.chars))
    for s, ch in enumerate(tab.chars):
        assert values[s] == [v.to_json() for v in ch.values]
        for k, t in enumerate(values.ids[s]):
            assert values[s][k] is values.cells[t]


def test_table_cached_on_group():
    G = ul_group(3, 2)
    t1 = character_table(G)
    t2 = character_table(G)
    assert t1 is t2
