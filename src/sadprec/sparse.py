"""CSR sparse matrices, saddle point block systems, and vector kernels.

Everything downstream (factorizations, Krylov solvers, preconditioners)
is built on the two containers defined here: ``CsrMatrix`` for sparse
storage and ``SaddleSystem`` for the 2x2 block system

    [[ A, B^T],      (x)   ( f)
     [-B, C  ]]  *   (y) = (-g)

with A symmetric positive definite, C symmetric positive semidefinite
and B of size m x n, m <= n.  All arithmetic is float64.
"""

import os

import numpy as np

__all__ = [
    "CsrMatrix",
    "SaddleSystem",
    "spmv",
    "spmv_transpose",
    "assemble_block_saddle",
    "add_scaled_identity",
    "gram_plus_identity",
    "to_dense",
    "norm2",
    "dense_cap",
]

_DEFAULT_DENSE_CAP = 4_000_000


def dense_cap():
    """Maximum number of entries allowed in a dense matrix.

    The one size rule of the package: ``to_dense`` refuses larger
    conversions, and ``factor.cholesky`` refuses a connected component
    of order k whose k * k entries exceed it.  Overridable through the
    SADPREC_DENSE_CAP environment variable, which must hold a finite,
    non-negative number.
    """
    env = os.environ.get("SADPREC_DENSE_CAP")
    if not env:
        return _DEFAULT_DENSE_CAP
    try:
        cap = float(env)
    except ValueError:
        cap = float("nan")
    if not 0 <= cap < float("inf"):
        raise ValueError(
            f"SADPREC_DENSE_CAP must be a finite, non-negative number of entries, got {env!r}"
        )
    return int(cap)


class CsrMatrix:
    """Compressed sparse row matrix with canonical structure.

    Within each row the column indices are strictly increasing, there
    are no duplicate positions, and no explicitly stored zeros.  The
    arrays are never mutated after construction, so instances can be
    shared freely between threads.

    The first ``spmv`` caches the rows padded to the widest one (an
    ELLPACK layout), and the first ``spmv_transpose`` caches the same
    for the transpose.  Each layout costs 16 bytes x rows x widest row
    (an int64 index and a float64 value per slot): about nnz when rows
    are of even length, and at most twice a dense float64 copy.
    """

    def __init__(self, nrows, ncols, row_ptr, col_idx, values):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._row_of = None
        self._padded = None     # rows padded to the widest, built by the first spmv
        self._padded_t = None   # the same for the transpose, built by the first spmv_transpose
        self._validate()

    # -- construction -------------------------------------------------

    @classmethod
    def from_triplets(cls, nrows, ncols, rows, cols, vals):
        """Build from COO triplets; duplicates are summed, exact zeros dropped.

        The triplets are ordered by one stable sort of their position key
        ``row * ncols + col`` (``np.ravel_multi_index``), so the entries at
        one position are added in input order.  A shape whose key would
        overflow int64 (nrows * ncols >= 2**63) raises ValueError.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("triplet arrays must have identical length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("column index out of range")
        order = np.argsort(np.ravel_multi_index((rows, cols), (nrows, ncols)), kind="stable")
        # rebound, so the unsorted arrays can be freed during the merge
        rows, cols, vals = rows[order], cols[order], vals[order]
        return _merge_sorted(nrows, ncols, rows, cols, vals)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = np.nonzero(arr)
        return cls.from_triplets(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n):
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols, np.zeros(nrows + 1, dtype=np.int64), [], [])

    # -- basic queries -------------------------------------------------

    @property
    def nnz(self):
        return self.values.size

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def to_triplets(self):
        return self._rows().copy(), self.col_idx.copy(), self.values.copy()

    def transpose(self):
        return CsrMatrix.from_triplets(self.ncols, self.nrows, self.col_idx, self._rows(), self.values)

    def __repr__(self):
        return f"CsrMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    # -- internals -----------------------------------------------------

    def _rows(self):
        # expanded row index of every stored entry, cached lazily
        if self._row_of is None:
            self._row_of = np.repeat(
                np.arange(self.nrows, dtype=np.int64), np.diff(self.row_ptr)
            )
        return self._row_of

    def _padded_rows(self):
        # a column-major (width, max(nrows, 2)) index array and value
        # array: column i holds row i's entries in storage order, padded
        # to the widest row with index ncols (the zero slot
        # _padded_product appends to x) and value 0.0.  With one column
        # numpy would sum it pairwise, not left to right.
        if self._padded is None:
            rows = self._rows()
            width = int(np.diff(self.row_ptr).max(initial=0))
            idx = np.full((width, max(self.nrows, 2)), self.ncols, dtype=np.int64)
            val = np.zeros(idx.shape)
            slot = np.arange(self.nnz) - self.row_ptr[rows]
            idx[slot, rows] = self.col_idx
            val[slot, rows] = self.values
            self._padded = idx, val
        return self._padded

    def _padded_cols(self):
        # the transpose keeps each column's entries in row order, the
        # order in which the transpose product adds them
        if self._padded_t is None:
            self._padded_t = self.transpose()._padded_rows()
        return self._padded_t

    def _validate(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative dimension")
        if self.row_ptr.shape != (self.nrows + 1,):
            raise ValueError("row_ptr has wrong length")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_idx.size:
            raise ValueError("row_ptr endpoints inconsistent with entry count")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.col_idx.size != self.values.size:
            raise ValueError("col_idx and values length mismatch")
        if self.col_idx.size:
            if self.col_idx.min() < 0 or self.col_idx.max() >= self.ncols:
                raise ValueError("column index out of range")
            # strictly increasing inside each row; jumps allowed only at row starts
            nondecr = np.diff(self.col_idx) > 0
            is_row_start = np.zeros(self.col_idx.size, dtype=bool)
            starts = self.row_ptr[1:-1]
            is_row_start[starts[starts < self.col_idx.size]] = True
            bad = ~nondecr & ~is_row_start[1:]
            if np.any(bad):
                raise ValueError("column indices not strictly increasing within a row")
        if np.any(self.values == 0.0):
            raise ValueError("explicitly stored zero entry")


def _merge_sorted(nrows, ncols, rows, cols, vals):
    """CsrMatrix of triplets sorted by position (row, then column).

    Each run of equal positions is summed left to right, and sums that
    are exactly 0 are dropped, together with their positions.
    """
    if rows.size:
        first = np.empty(rows.size, dtype=bool)
        first[0] = True
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(first)
        vals = np.add.reduceat(vals, starts)
        keep = vals != 0.0
        rows, cols, vals = rows[starts][keep], cols[starts][keep], vals[keep]
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=row_ptr[1:])
    return CsrMatrix(nrows, ncols, row_ptr, cols, vals)


def _padded_product(layout, x, nout):
    # one gather, one in-place multiply, one reduction over the padded
    # axis; the outer-axis reduction adds each row left to right.
    # take() reads the same elements as xz[idx] at a fraction of the
    # cost of fancy indexing on a block.
    idx, val = layout
    xz = np.zeros((x.shape[0] + 1,) + x.shape[1:])
    xz[:-1] = x
    prod = xz.take(idx, axis=0)
    prod *= val if x.ndim == 1 else val[:, :, None]
    return np.add.reduce(prod, axis=0, initial=0.0)[:nout]


def _check_operand(M, x, nin):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != nin:
        raise ValueError(f"dimension mismatch: matrix is {M.nrows}x{M.ncols}, operand has shape {x.shape}")
    return x


def spmv(M, x):
    """Product M @ x of a vector, or of each column of a 2-D block.

    Stored entries of each row are accumulated left to right, so the
    result is bitwise reproducible for a fixed matrix, and column j of a
    block product is bitwise equal to ``spmv(M, x[:, j])``.  Padding
    reads an exact zero, so a row without a stored entry in a column
    where x holds inf or NaN stays exactly 0.  The first call caches M's
    padded-row layout (16 bytes x rows x widest row, see ``CsrMatrix``);
    a block product holds a temporary of widest row x rows x columns.
    """
    return _padded_product(M._padded_rows(), _check_operand(M, x, M.ncols), M.nrows)


def spmv_transpose(M, x):
    """Product M.T @ x of a vector or a 2-D block.

    Each column's entries are accumulated in row order.  The first call
    forms the transpose once and caches its padded-row layout (16 bytes
    x columns x widest column); the transposed matrix itself is not
    kept.
    """
    return _padded_product(M._padded_cols(), _check_operand(M, x, M.nrows), M.ncols)


def add_scaled_identity(M, s):
    """Return M + s*I as a new CsrMatrix (square M).

    ``from_triplets`` of M's triplets plus (i, i, s) for every i: the
    shift is added to a stored diagonal entry, a missing one is
    inserted (unless s is 0), and one that cancels to exactly 0 is
    dropped.  Costs one position-key sort of nnz + n entries.
    """
    if M.nrows != M.ncols:
        raise ValueError("matrix must be square")
    diag = np.arange(M.nrows)
    return CsrMatrix.from_triplets(M.nrows, M.ncols, np.concatenate([M._rows(), diag]),
                                   np.concatenate([M.col_idx, diag]),
                                   np.concatenate([M.values, np.full(M.nrows, float(s))]))


def gram_plus_identity(M, s):
    """Return M M^T + s*I as a new CsrMatrix, exactly symmetric.

    Entry (i, j) adds the products M[i, k] M[j, k] over the columns k
    the two rows share, in increasing k, and then s on the diagonal;
    entry (j, i) adds the same products in the same order, so the two
    are bitwise equal.  Each row's candidate products come from M's
    padded layouts (the ones ``spmv`` and ``spmv_transpose`` cache) and
    are sorted within the row, not globally, then summed as in
    ``from_triplets``, which drops entries that cancel to exactly 0: a
    temporary of 16 bytes x rows x widest row x widest column.
    """
    m, n = M.nrows, M.ncols
    idx, val = M._padded_rows()
    tidx, tval = M._padded_cols()
    # one more column of the transposed layout for the row pads' index n
    tidx = np.hstack([tidx[:, :n], np.full((tidx.shape[0], 1), m)]).T
    tval = np.hstack([tval[:, :n], np.zeros((tval.shape[0], 1))]).T
    k = idx[:, :m].T
    width = k.shape[1] * tidx.shape[1]
    # row i's candidates (j, M[i, k] M[j, k]) in the order (k, j), then (i, s)
    cand = np.hstack([tidx[k].reshape(m, width), np.arange(m)[:, None]])
    prod = np.hstack([(val[:, :m].T[:, :, None] * tval[k]).reshape(m, width),
                      np.full((m, 1), float(s))])
    order = np.argsort(cand, axis=1, kind="stable")
    cand = np.take_along_axis(cand, order, axis=1)
    prod = np.take_along_axis(prod, order, axis=1)
    del order  # freed before the row index of the same size is made
    prod[cand == m] = 0.0  # pads, in column m, sum to 0 and drop, even beside an inf
    rows = np.repeat(np.arange(m), cand.shape[1])
    return _merge_sorted(m, m, rows, cand.ravel(), prod.ravel())


def to_dense(M):
    """Dense ndarray copy of M; refuses matrices above ``dense_cap()``."""
    limit = dense_cap()
    if M.nrows * M.ncols > limit:
        raise ValueError(
            f"dense conversion of {M.nrows}x{M.ncols} exceeds cap of {limit} entries"
        )
    out = np.zeros((M.nrows, M.ncols))
    if M.nnz:
        out[M._rows(), M.col_idx] = M.values
    return out


def norm2(x):
    return float(np.linalg.norm(np.asarray(x, dtype=np.float64)))


def _check_symmetric(M, name, rtol=1e-12):
    Mt = M.transpose()
    scale = float(np.max(np.abs(M.values))) if M.nnz else 0.0
    same_structure = (
        np.array_equal(M.row_ptr, Mt.row_ptr) and np.array_equal(M.col_idx, Mt.col_idx)
    )
    if not same_structure:
        raise ValueError(f"{name} is structurally non-symmetric")
    if M.nnz and float(np.max(np.abs(M.values - Mt.values))) > rtol * scale:
        raise ValueError(f"{name} is numerically non-symmetric beyond {rtol:g} relative")


class SaddleSystem:
    """Blocks and right-hand side of a saddle point system.

    The assembled operator is [[A, B^T], [-B, C]] acting on (x; y) with
    right-hand side (f; -g).  Finite entries (no NaN or inf) and symmetry
    of A and C are enforced here; definiteness is checked on demand
    (``check_spd_A``, ``check_spsd_C``) because it requires a
    factorization or sampling.
    """

    def __init__(self, A, B, C, f, g):
        if A.nrows != A.ncols:
            raise ValueError("A must be square")
        if C.nrows != C.ncols:
            raise ValueError("C must be square")
        if B.nrows != C.nrows or B.ncols != A.nrows:
            raise ValueError("B must be m x n with A n x n and C m x m")
        if C.nrows > A.nrows:
            raise ValueError("m <= n is required")
        self.A = A
        self.B = B
        self.C = C
        self.f = np.ascontiguousarray(f, dtype=np.float64)
        self.g = np.ascontiguousarray(g, dtype=np.float64)
        if self.f.shape != (A.nrows,) or self.g.shape != (C.nrows,):
            raise ValueError("right-hand side lengths do not match the blocks")
        for name, vals in (("A", A.values), ("B", B.values), ("C", C.values),
                           ("f", self.f), ("g", self.g)):
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
        _check_symmetric(A, "A")
        _check_symmetric(C, "C")

    @property
    def n(self):
        return self.A.nrows

    @property
    def m(self):
        return self.C.nrows

    @property
    def order(self):
        return self.n + self.m

    def rhs(self):
        return np.concatenate([self.f, -self.g])

    def matvec(self, u):
        """Apply the block operator without assembling it."""
        u = np.asarray(u, dtype=np.float64)
        x, y = u[: self.n], u[self.n:]
        top = spmv(self.A, x) + spmv_transpose(self.B, y)
        bot = -spmv(self.B, x) + spmv(self.C, y)
        return np.concatenate([top, bot])

    def check_spd_A(self):
        """Cholesky-based SPD check of A; raises if it fails.

        Each connected component of A is factored densely.  The Stokes
        generator's A has two (q-1)^2-node velocity components, above
        the default dense cap from q = 46 on: raise SADPREC_DENSE_CAP
        (to (q-1)^4 entries) to check those grids.
        """
        from . import factor

        factor.cholesky(self.A)

    def check_spsd_C(self, samples=64, seed=0, tol=1e-10):
        rng = np.random.default_rng(seed)
        scale = float(np.max(np.abs(self.C.values))) if self.C.nnz else 1.0
        for _ in range(samples):
            x = rng.standard_normal(self.m)
            quad = float(np.dot(x, spmv(self.C, x)))
            if quad < -tol * scale * float(np.dot(x, x)):
                raise ValueError("C failed the positive semidefinite probe")


def assemble_block_saddle(sys):
    """Assemble the (n+m) x (n+m) CSR matrix [[A, B^T], [-B, C]]."""
    n, m = sys.n, sys.m
    ar, ac, av = sys.A.to_triplets()
    br, bc, bv = sys.B.to_triplets()
    cr, cc, cv = sys.C.to_triplets()
    rows = np.concatenate([ar, bc, br + n, cr + n])
    cols = np.concatenate([ac, br + n, bc, cc + n])
    vals = np.concatenate([av, bv, -bv, cv])
    return CsrMatrix.from_triplets(n + m, n + m, rows, cols, vals)
