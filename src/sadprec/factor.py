"""Cholesky factorization of SPD matrices and triangular solves.

Two backends share one interface: LAPACK's dense factorization (through
``np.linalg.cholesky``) for matrices whose dense copy fits under
``sparse.dense_cap()``, and an up-looking sparse factorization
(elimination-tree reach, row by row) for those it refuses.  Both factor
in the natural ordering: the shifted stabilization blocks this module
mostly factors are already tightly banded.
"""

import numpy as np

from .sparse import CsrMatrix, _check_symmetric, dense_cap, to_dense

__all__ = [
    "CholeskyFactor",
    "NotPositiveDefiniteError",
    "cholesky",
    "cholesky_dense",
    "solve",
]

_PIVOT_RTOL = 1e-14


class NotPositiveDefiniteError(ValueError):
    pass


class CholeskyFactor:
    """Lower-triangular factor L with M = L L^T.  Immutable after construction."""

    def __init__(self, kind, L, size):
        self.kind = kind        # "dense" or "sparse"
        self.L = L              # ndarray or CsrMatrix
        self.size = size


def cholesky(M):
    """Factor a symmetric positive definite CsrMatrix.

    Parameters
    ----------
    M : CsrMatrix
        Symmetric; symmetry is verified, definiteness is discovered
        through the pivots.  Factored densely when its n * n entries fit
        under ``sparse.dense_cap()``, sparsely otherwise.

    Raises
    ------
    NotPositiveDefiniteError
        On a pivot at or below 1e-14 times the largest diagonal entry.
    """
    if M.nrows != M.ncols:
        raise ValueError("matrix must be square")
    _check_symmetric(M, "matrix")
    n = M.nrows
    if n * n <= dense_cap():
        return CholeskyFactor("dense", _dense_lower(to_dense(M)), n)
    return CholeskyFactor("sparse", _sparse_lower(M), n)


def cholesky_dense(a):
    """Dense-array entry point used for explicitly formed matrices."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return CholeskyFactor("dense", _dense_lower(a), a.shape[0])


def solve(fac, b):
    """Solve M x = b given the factor of M; b may be a vector or columns."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != fac.size:
        raise ValueError(f"dimension mismatch: factor of size {fac.size}, rhs of length {b.shape[0]}")
    if fac.kind == "dense":
        return _dense_backward(fac.L, _dense_forward(fac.L, b))
    return _sparse_backward(fac.L, _sparse_forward(fac.L, b))


# -- dense backend ------------------------------------------------------


def _dense_lower(a):
    n = a.shape[0]
    if n == 0:
        return a.copy()
    tol = _PIVOT_RTOL * max(float(np.max(np.abs(np.diagonal(a)))), 1.0)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    pivots = np.diagonal(L) ** 2
    low = np.flatnonzero(~(pivots > tol))  # a NaN pivot fails too
    if low.size:
        j = int(low[0])
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {pivots[j]:.3e} at row {j})"
        )
    return L


def _dense_forward(L, b):
    n = L.shape[0]
    x = b.copy()
    for i in range(n):
        if i:
            x[i] = x[i] - L[i, :i] @ x[:i]
        x[i] = x[i] / L[i, i]
    return x


def _dense_backward(L, b):
    n = L.shape[0]
    x = b.copy()
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] = x[i] - L[i + 1:, i] @ x[i + 1:]
        x[i] = x[i] / L[i, i]
    return x


# -- sparse backend (up-looking) -----------------------------------------


def _sparse_lower(A):
    """Up-looking factorization; the elimination tree is grown on the fly."""
    n = A.nrows
    max_diag = float(np.max(np.abs(A.diagonal()))) if n else 0.0
    tol = _PIVOT_RTOL * max(max_diag, 1.0)
    parent = np.full(n, -1, dtype=np.int64)
    stamp = np.full(n, -1, dtype=np.int64)
    x = np.zeros(n)
    lcols = [None] * n   # per-row column index arrays of L
    lvals = [None] * n
    for i in range(n):
        cols_i, vals_i = A.row(i)
        below = cols_i <= i
        cols_i, vals_i = cols_i[below], vals_i[below]
        d = 0.0
        pattern = []
        stamp[i] = i
        for j, a in zip(cols_i, vals_i):
            if j == i:
                d = a
                continue
            x[j] = a
            # climb the elimination tree to collect the reach of row i
            while stamp[j] != i:
                stamp[j] = i
                pattern.append(j)
                if parent[j] == -1:
                    parent[j] = i
                    break
                j = parent[j]
        pattern.sort()
        row_cols = np.empty(len(pattern) + 1, dtype=np.int64)
        row_vals = np.empty(len(pattern) + 1)
        for k, j in enumerate(pattern):
            cj, vj = lcols[j], lvals[j]
            v = x[j]
            if cj.size > 1:
                v -= np.dot(vj[:-1], x[cj[:-1]])
            v /= lvals[j][-1]
            x[j] = v
            row_cols[k] = j
            row_vals[k] = v
            d -= v * v
        if not d > tol:  # a NaN pivot fails too
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite (pivot {d:.3e} at row {i})"
            )
        row_cols[-1] = i
        row_vals[-1] = np.sqrt(d)
        lcols[i] = row_cols
        lvals[i] = row_vals
        for j in pattern:
            x[j] = 0.0
    counts = np.array([c.size for c in lcols], dtype=np.int64)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    col_idx = np.concatenate(lcols) if n else np.empty(0, dtype=np.int64)
    values = np.concatenate(lvals) if n else np.empty(0)
    return CsrMatrix(n, n, row_ptr, col_idx, values)


def _sparse_forward(L, b):
    x = b.copy()
    for i in range(L.nrows):
        cols, vals = L.row(i)
        if cols.size > 1:
            x[i] = x[i] - vals[:-1] @ x[cols[:-1]]
        x[i] = x[i] / vals[-1]
    return x


def _sparse_backward(L, b):
    x = b.copy()
    for i in range(L.nrows - 1, -1, -1):
        cols, vals = L.row(i)
        x[i] = x[i] / vals[-1]
        if cols.size > 1:
            x[cols[:-1]] -= np.multiply.outer(vals[:-1], x[i]) if x.ndim > 1 else vals[:-1] * x[i]
    return x
