"""Polarizations of linear functionals.

A polarization of a linear functional f on a nilpotent algebra A over F_q is
a subalgebra isotropic for the commutator form f(xy - yx) of the maximal
possible dimension dim A - rank/2: the orbit-method side of the subgroups
1 + B of the paper.  find_polarization builds them for a whole sequence of
functionals in one stacked computation on field arrays (linalg.FieldArrays),
with every product read off the structure constants.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .errors import SearchExhausted, VerificationFailed
from .exactfield import FieldElement
from .nilalg import Subspace, adapted_rows


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


def _structure_tensor(algebra):
    """S[i, j, k], the coefficient of e_k in e_i e_j, built once per algebra."""
    def build():
        n = algebra.dim
        S = np.zeros((n, n, n), dtype=np.int64)
        for (i, j), entry in algebra.sc.items():
            for k, c in entry:
                S[i, j, k] = c
        return S
    return algebra.memo("structure_tensor", build)


def _gram(algebra, fs):
    """The Gram matrices G[b, i, j] = f_b(e_i e_j - e_j e_i) of the
    commutator forms of a (B, n) stack of functionals: one contraction of
    the stack with the bracket tensor S[i, j, k] - S[j, i, k], read off the
    structure constants."""
    F = linalg.field_arrays(algebra.ring.field)
    n = algebra.dim

    def bracket():
        S = _structure_tensor(algebra)
        return F.add(S, F.neg(S.transpose(1, 0, 2))).reshape(n * n, n).T

    T = algebra.memo("bracket_tensor", bracket)
    return F.matmul(fs, T).reshape(len(fs), n, n)


def _is_polarization(algebra, G, C, target):
    """Which of the stacked candidates are isotropic subalgebras of the
    target dimensions: C (B, r, n) holds RREF rows padded with zero rows,
    G (B, n, n) the forms.  Isotropy is C G C^T = 0; closure is
    C (sum_k kappa_k S[:, :, k]) C^T = 0 for every row kappa of C's
    annihilator (find_polarization says why)."""
    F = linalg.field_arrays(algebra.ring.field)
    nb, _, n = C.shape
    Ct = C.transpose(0, 2, 1)
    ok = (C != 0).any(axis=2).sum(axis=1) == target
    ok &= ~F.matmul(F.matmul(C, G), Ct).any(axis=(1, 2))
    S = _structure_tensor(algebra).reshape(n * n, n).T
    for kappa in F.nullrows(C).transpose(1, 0, 2):  # zero at C's pivots
        if kappa.any():
            T = F.matmul(kappa, S).reshape(nb, n, n)
            ok &= ~F.matmul(F.matmul(C, T), Ct).any(axis=(1, 2))
    return ok


def _flag_radicals(F, M):
    """Rows spanning sum_j rad_j for each form of a (B, n, n) stack M,
    rad_j the radical of the form on the span of the first j coordinate
    vectors, as a (B, n, n) stack padded with zero rows: one pass over the
    coordinates that keeps a basis of rad_j and hyperbolic pairs (u, v),
    B(u, v) = 1 (find_polarization says why it is right)."""
    nb, n, _ = M.shape
    pairs = np.zeros((nb, 2 * n, n), dtype=np.int64)  # u at slot j, v at n + j
    rad = np.zeros((nb, n, n), dtype=np.int64)
    rec = np.zeros((nb, n, n), dtype=np.int64)
    batch = np.arange(nb)
    for j in range(n):
        # w = e_j - sum B(e_j, v) u + sum B(e_j, u) v
        c = F.matmul(pairs, M[:, j, :, None])[:, :, 0]
        coef = np.concatenate([F.neg(c[:, n:]), c[:, :n]], axis=1)
        w = F.matmul(coef[:, None, :], pairs)[:, 0]
        w[:, j] = 1
        s = F.matmul(rad, F.matmul(w[:, None, :], M)[:, 0, :, None])[:, :, 0]
        paired = s.any(axis=1)
        first = (s != 0).argmax(axis=1)
        r, si = rad[batch, first], s[batch, first]
        rad = F.add(rad, F.mul(F.neg(F.mul(s, F.inv(si)[:, None]))[:, :, None], r[:, None, :]))
        pairs[paired, j] = r[paired]
        pairs[paired, n + j] = F.mul(w[paired], F.inv(F.neg(si[paired]))[:, None])
        rad[~paired, j] = rec[~paired, j] = w[~paired]
    return rec


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


def find_polarization(algebra, fs):
    """For each functional f of the sequence fs, in order, a subalgebra
    isotropic for the form B(x, y) = f(xy - yx), of the maximal possible
    dimension dim A - rank/2.

    All functionals go through one stacked computation on field arrays
    (linalg.FieldArrays).  The forms are one Gram stack G, read off the
    structure constants (_gram).  The rank of each comes from its own row
    reduction, apart from the construction below, so the dimension check is
    not circular.

    The candidate is Vergne's: the sum of the radicals rad_j of the form on
    the ideals of a complete flag refining the power chain.  The flag rows
    W are nilalg.adapted_rows of the identity, built once per algebra: rows
    taken deepest power first, each outside the span of those before it,
    so span(W[:j]) is the j-th flag ideal; anything between A^(k+1) and A^k
    is an ideal, since A.A^k and A^k.A lie in A^(k+1).  On M = W G W^T one
    pass along the flag (_flag_radicals) keeps a basis of rad_j and
    hyperbolic pairs that together span the first j flag rows.  Step j
    projects the next flag row off the pairs, giving w, orthogonal to the
    pairs.  If w pairs with no radical row, it is orthogonal to all of the
    j-th ideal, so rad_(j+1) = rad_j + F w, and w is recorded.  Otherwise
    the first radical row r with B(w, r) != 0 forms a new pair with
    w / B(r, w), and the other radical rows are cleared against w, which
    leaves {x in rad_j : B(x, w) = 0} = rad_(j+1).  So every rad_j lies in
    the span of the recorded rows, and each recorded row lies in the
    radical of the step that recorded it: the recorded rows span
    sum_j rad_j, and the RREF C of those rows times W is the candidate, the
    same whatever basis spans each ideal.

    The dimension, isotropy (C G C^T = 0) and multiplicative closure are
    checked on the arrays (_is_polarization).  For closure let K be the
    rows of C's null space, so that span(C) = {y : K y = 0}.  The product
    of rows c and c' of C has coordinates c S[:, :, k] c'^T, so C is closed
    exactly when C (sum_k kappa_k S[:, :, k]) C^T = 0 for every row kappa
    of K, read off the structure tensor S the way G is.  A functional whose
    candidate fails goes to full subspace enumeration (practical to dim 4)
    under the same check."""
    ring = algebra.ring
    if ring.kind != "field":
        raise TypeError("polarizations are computed over finite fields")
    fs = [_as_functional(algebra, f) for f in fs]
    if not fs:
        return []
    n = algebra.dim
    F = linalg.field_arrays(ring.field)

    G = _gram(algebra, np.array(fs, dtype=np.int64))
    rank = F.rref(G)[1]
    odd = np.flatnonzero(rank % 2)
    if odd.size:
        b = int(odd[0])
        raise VerificationFailed("form-rank-even", witness=(fs[b], int(rank[b])))
    target = n - rank // 2

    W = np.array(algebra.memo(
        "ideal_flag", lambda: adapted_rows(algebra, [e.coords for e in algebra.basis()])
    ), dtype=np.int64).reshape(n, n)
    M = F.matmul(F.matmul(W, G), W.T)
    C, dims, pivots = F.rref(F.matmul(_flag_radicals(F, M), W))
    C = C[:, :dims.max()]
    ok = _is_polarization(algebra, G, C, target)

    out = []
    for b, f in enumerate(fs):
        if ok[b]:
            rows = C[b, :dims[b]].tolist()
            out.append(Subspace(algebra, rows, np.flatnonzero(pivots[b]).tolist()))
            continue
        candidates = _all_subspaces(algebra, int(target[b])) if n <= 4 else ()
        for rows in candidates:
            cand = np.array(rows, dtype=np.int64).reshape(1, -1, n)
            if _is_polarization(algebra, G[b:b + 1], cand, target[b:b + 1])[0]:
                out.append(Subspace.from_vectors(algebra, rows))
                break
        else:
            raise SearchExhausted(
                f"no isotropic subalgebra of dimension {target[b]} found for {f}"
            )
    return out
