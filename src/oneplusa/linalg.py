"""Dense exact linear algebra over a finite field.

rref is the one single-matrix row reduction: pure Python on tuples of raw
scalar values (field element indices), with the ops object, the algebra's
FieldRing, supplying the field arithmetic.  It returns the canonical
reduced row echelon form, so subspace comparisons are plain equality; at
the sizes of the algebra layer it is faster than a stacked reduction of
one matrix.

FieldArrays is the same algebra on int64 arrays of field element indices,
and the package's one GF(q) vector arithmetic: subspace membership,
reduction, coordinates and null spaces (nilalg.Subspace, QuotientSpace),
the group layer's coordinate maps and table build, the descent's pairing
checks and the stacked polarizations all compute through it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache


def rref(rows, ops):
    """Reduced row echelon form; returns (rows, pivot columns), zero rows dropped."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if not ops.is_zero(work[r][col]):
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        scale = ops.inv(work[rank][col])
        work[rank] = [ops.mul(scale, v) for v in work[rank]]
        for r in range(len(work)):
            if r != rank and not ops.is_zero(work[r][col]):
                f = work[r][col]
                work[r] = [ops.sub(a, ops.mul(f, b)) for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


# ---------------------------------------------------------------------------
# stacked arrays: int64 arrays of field element indices, batch axis first

_INT64_MAX = 2 ** 63 - 1


def _guard(what, *factors):
    """Raise RuntimeError unless the product of the factors, each taken as
    at least 1, fits in int64.  Callers pass bounds (max-abs entries, term
    counts) whose product bounds every intermediate of their contraction,
    so a passing guard means the int64 result is exact."""
    bound = 1
    for f in factors:
        bound *= max(1, int(f))
    if bound > _INT64_MAX:
        raise RuntimeError(f"int64 overflow guard in {what}: bound {bound} > {_INT64_MAX}")


@lru_cache(maxsize=None)
def field_arrays(field):
    """The array arithmetic of a field (anything with p, k, q, add_idx,
    neg_idx and, to multiply over GF(p^k) or to invert, logs), built once
    per field."""
    return FieldArrays(field)


class FieldArrays:
    """GF(q) arithmetic on int64 arrays of field element indices, where
    index i is the element whose coefficients are the base-p digits of i.

    add and neg are the field's own add_idx and neg_idx, which work digit
    by digit with integer operators on ints and arrays alike.  A prime field
    multiplies mod p; GF(p^k) multiplies, and every field inverts, through
    array copies of the field's one log/antilog pair, field.logs, of at
    most 5q entries, so it needs no q x q table and fields of any order run
    the same code.  Row reduction, null rows and matrix products take
    stacks (..., rows, cols) and treat each matrix on its own.
    """

    def __init__(self, field):
        # numpy is bound here, not on import: nilalg imports this module
        # before the larger package modules are compiled, and numpy loaded
        # under those compilations raises every command's peak memory
        global np
        import numpy as np

        self.field = field
        self.p, self.k, self.q = field.p, field.k, field.q
        self.add, self.neg = field.add_idx, field.neg_idx

    @cached_property
    def log_exp(self):
        """The int64 copies of field.logs, made on first use: a prime field
        reads them only to invert."""
        return tuple(np.array(t, dtype=np.int64) for t in self.field.logs)

    def mul(self, a, b):
        if self.k == 1:
            _guard("field product", self.p - 1, self.p - 1)
            return a * b % self.p
        log, exp = self.log_exp
        return exp[log[a] + log[b]]

    def inv(self, a):
        """Inverses of nonzero entries; a zero entry gives an unspecified value."""
        log, exp = self.log_exp
        return exp[-log[a] % (self.q - 1)]

    def matmul(self, a, b):
        """The stacked product a @ b over the field, shaped as np.matmul
        shapes it: a 1-D a is one row and a 1-D b one column, and their
        axis is dropped from the result."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.k == 1:
            _guard("field matmul", self.p - 1, self.p - 1, a.shape[-1])
            return np.matmul(a, b) % self.p
        row, col = a.ndim == 1, b.ndim == 1
        a, b = a.reshape((1,) * row + a.shape), b.reshape(b.shape + (1,) * col)
        shape = np.broadcast_shapes(a.shape[:-1] + (1,), b.shape[:-2] + (1, b.shape[-1]))
        out = np.zeros(shape, dtype=np.int64)
        for l in range(a.shape[-1]):
            out = self.add(out, self.mul(a[..., :, l, None], b[..., l, None, :]))
        if row:
            out = out[..., 0, :]
        return out[..., 0] if col else out

    def rref(self, stack):
        """Reduced row echelon form of each matrix of a (B, r, c) stack, as
        (R, rank, pivot mask): R keeps the shape, with each matrix's rank
        nonzero rows first, and the mask (B, c) marks its pivot columns.
        Every matrix picks its own pivots, column by column.

        A pivot row is zero left of its column, so each elimination updates
        the columns from the pivot's on.  The walk stops once every
        matrix's rank equals its number of nonzero input rows: those rows
        are then independent and fully reduced, and the rest are zero.  A
        stack padded with zero rows, as nullrows pads, so stops at its last
        pivot rather than its last column."""
        R = np.array(stack, dtype=np.int64)
        nb, nr, nc = R.shape
        rank = np.zeros(nb, dtype=np.int64)
        pivots = np.zeros((nb, nc), dtype=bool)
        rows = np.arange(nr)
        filled = np.count_nonzero(R.any(axis=2), axis=1)
        for col in range(nc):
            if (rank == filled).all():
                break
            live = (R[:, :, col] != 0) & (rows >= rank[:, None])
            hit = np.flatnonzero(live.any(axis=1))
            if not hit.size:
                continue
            src, dst = live[hit].argmax(axis=1), rank[hit]
            prow = R[hit, src]
            R[hit, src] = R[hit, dst]
            prow = self.mul(prow, self.inv(prow[:, col])[:, None])
            R[hit, dst] = prow
            f = R[hit, :, col]
            f[np.arange(hit.size), dst] = 0
            R[hit, :, col:] = self.add(R[hit, :, col:],
                                       self.mul(self.neg(f)[:, :, None], prow[:, None, col:]))
            pivots[hit, col] = True
            rank[hit] += 1
        return R, rank, pivots

    def nullrows(self, stack):
        """Null spaces {x : M x = 0} of a (B, r, c) stack, as a (B, c, c)
        stack N: row j of N[b] is the basis vector with a 1 at free column j
        of M_b, zeros at the other free columns and the pivot entries the
        RREF of M_b forces; rows at pivot columns are zero."""
        R, rank, pivots = self.rref(stack)
        nb, _, nc = R.shape
        N = np.zeros((nb, nc, nc), dtype=np.int64)
        b, cols = np.nonzero(pivots)
        row = np.arange(b.size) - (np.cumsum(rank) - rank)[b]
        N[b, :, cols] = self.neg(R[b, row])
        N[pivots] = 0
        b, cols = np.nonzero(~pivots)
        N[b, cols, cols] = 1
        return N
