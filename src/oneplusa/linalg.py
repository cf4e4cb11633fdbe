"""Dense exact linear algebra over a finite field.

Vectors are tuples of raw scalar values (field element indices); the ops
object, the algebra's FieldRing, supplies the field arithmetic.  Everything
that returns a basis returns the canonical reduced row echelon form, so
subspace comparisons are plain equality.
"""

from __future__ import annotations


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


def reduce_vector(vec, rows, pivots, ops):
    """Eliminate the pivot coordinates of vec against RREF rows; the residual
    is zero exactly when vec lies in the row space."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if not ops.is_zero(c):
            v = [ops.sub(a, ops.mul(c, b)) for a, b in zip(v, row)]
    return tuple(v)


def in_rowspace(vec, rows, pivots, ops):
    return all(ops.is_zero(c) for c in reduce_vector(vec, rows, pivots, ops))


def combine(coeffs, rows, ops, width):
    """sum of coeffs[i] * rows[i], coordinate-wise, as a tuple of length width."""
    acc = [ops.zero] * width
    for c, row in zip(coeffs, rows):
        if not ops.is_zero(c):
            acc = [ops.add(a, ops.mul(c, b)) for a, b in zip(acc, row)]
    return tuple(acc)


def coords_in_rowspace(vec, rows, pivots, ops):
    """Coefficients of vec in an RREF basis, or None if vec is outside it."""
    coeffs = tuple(vec[p] for p in pivots)
    if combine(coeffs, rows, ops, len(vec)) != tuple(vec):
        return None
    return coeffs


def nullspace(rows, ncols, ops):
    """Canonical RREF basis of {x : M x = 0} where rows are the rows of M."""
    red, pivots = rref(rows, ops)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [ops.zero] * ncols
        v[fc] = ops.one
        for row, p in zip(red, pivots):
            v[p] = ops.neg(row[fc])
        basis.append(tuple(v))
    out, _ = rref(basis, ops)
    return out
