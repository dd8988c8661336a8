"""Cholesky factorization of SPD matrices and solves with the factor.

``cholesky(M, shift)`` factors M + shift I.  It splits M into the
connected components of its graph and factors them with LAPACK
(``np.linalg.cholesky``), one call per component size.  Rows keep their
natural order within a component, and no fill crosses components, so
the factor is the natural-ordering Cholesky factor of the whole matrix.
``sparse.dense_cap()`` bounds each component at k * k entries.  The
shifted stabilization block beta I + C of the Q1-P0 generator falls
apart into 2x2-macroelement tiles of four pressures; a general matrix
is usually one component.

The work splits into a symbolic and a numeric part (George and Liu,
Computer Solution of Large Sparse Positive Definite Systems, 1981).
The symbolic part depends on M's pattern only: the symmetry check, the
components, and the place of every stored entry in the per-size stacks.
It is M's ``_cholesky_pattern``, a ``functools.cached_property`` built
by the first ``cholesky`` of M (never by a constructor): 8 B per stored
entry plus 16 B per row.  The numeric part, run by every call, scatters
M's values into the stacks, adds the shift to their diagonals and calls
LAPACK.  So the mgss, rmgss and hss preconditioners of one system share
one analysis of C, and factor no assembled shifted copy.

``solve`` multiplies by the inverse factor Linv = L^{-1} and then by
its transpose, x = Linv^T (Linv b): two products, vector or column
block, with no loop over components.  The first solve builds Linv
(``np.linalg.inv`` of each component's factor) and the factor keeps it
in one of two forms:

- one component: a dense k x k array, multiplied through BLAS;
- several components: the block-diagonal Linv and Linv^T as padded
  rows (``sparse._padded_mul``, the ELLPACK kernel of ``spmv``), one
  slot per column of the widest component.  They share one index array,
  so they take 24 B x rows x widest component (a ``CsrMatrix``'s padded
  rows take 16 B x rows x widest row).  No slot reads another component,
  so a NaN stays in its own component.

``solve`` copies b into an operand buffer (see ``sparse``) and solves
there in place with ``_solve_padded``: each product gathers its operand
before it writes, so both write back into that one buffer.  The mgss
and rmgss Schur operator calls it on the buffer that holds B x, made
once per inner CG call.

An explicit triangular inverse is accurate enough here (Du Croz and
Higham, Stability of methods for matrix inversion, IMA J. Numer. Anal.
1992); M^{-1} itself is never formed.
"""

from functools import cached_property

import numpy as np

from .sparse import _check_operand, _check_symmetric_dense, _padded_mul, _square, _zero_padded, dense_cap

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


def _non_finite(a):
    # the error for an array that holds a NaN or an inf: either passes the
    # symmetry checks, and LAPACK, which reads only the lower triangle,
    # would miss one above the diagonal
    kind = "a NaN" if np.isnan(a).any() else "an inf"
    return NotPositiveDefiniteError(f"matrix is not positive definite (it has {kind} entry)")


class CholeskyFactor:
    """M = L L^T, stored one connected component at a time.

    ``blocks`` holds one ``(index, L)`` pair per component size k:
    ``index`` (c, k) lists the rows of c components, each in increasing
    order, and ``L`` (c, k, k) their lower-triangular factors; neither
    changes.  ``_inverse`` is the inverse factor, a
    ``functools.cached_property`` that the first ``solve`` (never
    ``cholesky``) builds: one k x k array for a single component of
    order k, else the padded Linv and Linv^T, 24 B x rows x widest
    component.
    """

    def __init__(self, size, blocks):
        self.size = size
        self.blocks = blocks

    @cached_property
    def _inverse(self):
        # a 2-D Linv for one component (its rows are 0 .. n-1), else the
        # padded layouts (idx, Linv values) and (idx, Linv^T values): slot s
        # of row index[c, p] reads column index[c, s] in both, and slots past
        # a component's order read the zero slot n
        n, blocks = self.size, self.blocks
        inverses = [np.tril(np.linalg.inv(L)) for _, L in blocks]
        if len(blocks) == 1 and len(blocks[0][0]) == 1:
            return inverses[0][0]
        width = max((index.shape[1] for index, _ in blocks), default=0)
        idx = np.full((width, n), n, dtype=np.int64)
        lo, up = np.zeros(idx.shape), np.zeros(idx.shape)
        for (index, _), Linv in zip(blocks, inverses):
            k = index.shape[1]
            idx[:k, index] = index.T[:, :, None]
            lo[:k, index] = Linv.transpose(2, 0, 1)
            up[:k, index] = Linv.transpose(1, 0, 2)
        return (idx, lo), (idx, up)


def cholesky(M, shift=0.0):
    """Factor M + shift I for a symmetric CsrMatrix M.

    Parameters
    ----------
    M : CsrMatrix
        Symmetric; symmetry is verified, definiteness of M + shift I is
        discovered through the pivots.  Each connected component of its
        graph is factored densely and must fit under ``sparse.dense_cap()``.
    shift : float
        Added to every diagonal entry, stored or not (default 0).

    The pattern work (the symmetry check, the components and the place
    of each stored entry in the per-size stacks) is M's cached
    ``_cholesky_pattern``, 8 B per stored entry plus 16 B per row, built
    by the first call for M and read by every later one, whatever the
    shift.  Each call only scatters M's values into the stacks, adds
    ``shift`` to their diagonals and factors them: the blocks equal
    those of ``cholesky(sparse.add_scaled_identity(M, shift))`` bit for
    bit, since M_ii + shift is the one sum either way and a diagonal
    joins no components.  M's symmetry is checked by
    ``sparse._check_symmetric``, as in ``SaddleSystem``.

    Raises
    ------
    NotPositiveDefiniteError
        On a pivot at or below 1e-14 times the largest diagonal entry of
        M + shift I, a NaN or inf entry anywhere in M, or a shift that is
        NaN or inf.
    ValueError
        If M is not square or not symmetric, or if a component of order
        k has k * k entries above the dense cap.
    """
    if M.nrows != M.ncols:
        raise ValueError("matrix must be square")
    groups, total, entries, diagonal, largest = M._cholesky_pattern
    if not np.isfinite(M.values).all():
        raise _non_finite(M.values)
    if not np.isfinite(shift):
        raise NotPositiveDefiniteError(f"matrix is not positive definite (shift {shift})")
    limit = dense_cap()
    if largest ** 2 > limit:
        raise ValueError(
            f"a connected component of order {largest} needs {largest ** 2} dense entries, above the "
            f"cap of {limit} (raise SADPREC_DENSE_CAP to factor it)"
        )
    buf = np.zeros(total)
    buf[entries] = M.values
    buf[diagonal] += shift
    return _factor(M.nrows, [(index, buf[place].reshape(*index.shape, index.shape[1]))
                             for index, place in groups])


def cholesky_dense(a):
    """Dense-array entry point used for explicitly formed matrices.

    The array must pass ``sparse._check_symmetric_dense``, the check of
    ``spectral.jacobi_symmetric``; otherwise ``ValueError``.  A NaN or
    inf entry, wherever it sits, and a pivot that fails the rule of
    ``cholesky`` raise ``NotPositiveDefiniteError``.
    """
    a = _square(a)
    if not np.isfinite(_check_symmetric_dense(a, "matrix")):
        raise _non_finite(a)
    return _factor(a.shape[0], [(np.arange(a.shape[0])[None], a[None])])


def _factor(n, stacks):
    # one LAPACK call per stack, with the pivot rule of the whole matrix
    max_diag = 0.0
    for _, a in stacks:
        max_diag = max(max_diag, np.abs(np.diagonal(a, axis1=1, axis2=2)).max(initial=0.0))
    tol = _PIVOT_RTOL * max_diag
    blocks = []
    for index, a in stacks:
        try:
            L = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError("matrix is not positive definite") from exc
        pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
        low = np.argwhere(~(pivots > tol))  # a NaN pivot fails too
        if low.size:
            c, i = low[0]
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite (pivot {pivots[c, i]:.3e} at row {index[c, i]})"
            )
        blocks.append((index, L))
    return CholeskyFactor(n, blocks)


def solve(fac, b):
    """Solve M x = b given the factor of M; b may be a vector or columns.

    x = Linv^T (Linv b), two products with the inverse factor that the
    first solve caches on ``fac``: ``Linv.T @ (Linv @ b)`` through BLAS
    for one component, two padded-row products for several, on b
    copied into an operand buffer (see ``sparse``), so the bits do not
    depend on b's memory layout.  In the padded form each row adds its
    component's entries in column order, so column j of a block solve
    is bitwise equal to the solve of ``b[:, j]``.
    """
    b = _check_operand(b, fac.size, f"factor of size {fac.size}")
    bz, x = _zero_padded(b, 0, fac.size + 1)
    _solve_padded(fac, bz)
    return x


def _solve_padded(fac, bz):
    # the solve of b = bz[:n] written back over it, where bz[n] is 0: the
    # Linv product and then the Linv^T product, each gathered from bz
    # before it writes bz[:n]
    n, inverse = fac.size, fac._inverse
    if isinstance(inverse, np.ndarray):
        np.matmul(inverse.T, inverse @ bz[:n], out=bz[:n])
        return
    lo, up = inverse
    _padded_mul(lo, bz, n, out=bz[:n])
    _padded_mul(up, bz, n, out=bz[:n])
