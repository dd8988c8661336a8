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
from functools import cached_property

import numpy as np

__all__ = [
    "CsrMatrix",
    "SaddleSystem",
    "spmv",
    "spmv_transpose",
    "assemble_block_saddle",
    "add_scaled_identity",
    "to_dense",
    "saddle_dense",
    "dense_cap",
]

_DEFAULT_DENSE_CAP = 4_000_000
_SYMMETRY_RTOL = 1e-12


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

    Products use one of two layouts, each a ``functools.cached_property``
    (``_diagonals``, ``_padded_rows``; ``_padded_cols`` for the
    transpose): built on first use, never by a constructor, and then
    read as a plain attribute.  A banded matrix whose stored entries
    lie on no more diagonals than its widest row has entries, with at
    least 2 rows and 2**14 slots (rows x widest row), is multiplied
    along its diagonals: 8 bytes x diagonals x rows, no index array
    (the Stokes A and alpha I + A from q=32 on, alpha^2 I + B B^T from
    q=64 on).  Any other
    matrix, and a banded one whose operand holds inf or NaN, uses its
    rows padded to the widest one (an ELLPACK layout): 16 bytes x rows
    x widest row (an int64 index and a float64 value per slot), about
    nnz when rows are of even length, and at most twice a dense float64
    copy.  ``spmv_transpose`` always uses the padded layout of the
    transpose.

    ``_cholesky_pattern``, one more ``functools.cached_property``, is
    the pattern analysis that ``factor.cholesky`` builds on its first
    call for the matrix and reads on every later one, whatever the
    shift: the symmetry verdict, the connected components grouped by
    order, and where each stored entry and each diagonal sits in the
    stacks that LAPACK factors.  It takes 8 bytes per stored entry plus
    16 bytes per row.  ``_gram``, the last, is M M^T, exactly symmetric,
    which every hss preconditioner of M shifts by its own alpha^2.
    """

    def __init__(self, nrows, ncols, row_ptr, col_idx, values):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._validate()

    # -- construction -------------------------------------------------

    @classmethod
    def from_triplets(cls, nrows, ncols, rows, cols, vals):
        """Build from COO triplets; duplicates are summed, exact zeros dropped.

        The triplets are ordered by one stable sort of their position key
        ``row * ncols + col`` (``np.ravel_multi_index``), so the entries at
        one position are summed in input order by ``_merge_sorted``'s rule.
        A shape whose key would overflow int64 (nrows * ncols >= 2**63)
        raises ValueError.  The constructor for entries that may be
        unordered or repeated; ``from_dense`` and ``transpose`` have theirs
        in order already and skip the sort.
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
        """Build from a 2-D array, storing every entry that is not 0.0 or -0.0.

        Those entries, read row by row, are already in CSR order, each
        position once: nothing is sorted or merged.
        """
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        cols = np.broadcast_to(np.arange(arr.shape[1], dtype=np.int64), arr.shape)
        return cls._from_rows(arr.shape[1], cols, arr, arr != 0.0)

    @classmethod
    def _from_rows(cls, ncols, cols, vals, keep):
        # row r stores cols[r][keep[r]], increasing, and vals[r][keep[r]]
        row_ptr = np.zeros(keep.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(keep, axis=1), out=row_ptr[1:])
        return cls(keep.shape[0], ncols, row_ptr, cols[keep], vals[keep])

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
        return self._rows.copy(), self.col_idx.copy(), self.values.copy()

    def transpose(self):
        """The transpose, by one stable sort of the column indices.

        The entries are stored in row order, so a stable sort by column
        leaves each column's entries in row order, the CSR order of the
        transpose: nothing is merged.
        """
        row_ptr, order = self._column_order()
        return CsrMatrix(self.ncols, self.nrows, row_ptr, self._rows[order], self.values[order])

    def __repr__(self):
        return f"CsrMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    # -- internals -----------------------------------------------------

    @cached_property
    def _rows(self):
        # expanded row index of every stored entry
        return np.repeat(np.arange(self.nrows, dtype=np.int64), np.diff(self.row_ptr))

    def _column_order(self):
        # the transpose's row_ptr, and the stable column sort of the
        # stored entries that puts them in the transpose's CSR order
        row_ptr = np.zeros(self.ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.col_idx, minlength=self.ncols), out=row_ptr[1:])
        return row_ptr, np.argsort(self.col_idx, kind="stable")

    def _width(self):
        return int(np.diff(self.row_ptr).max(initial=0))

    @cached_property
    def _padded_rows(self):
        # a column-major (width, max(nrows, 2)) index array and value
        # array: column i holds row i's entries in storage order, padded
        # to the widest row with index ncols (the zero slot that follows
        # x in the padded operand) and value 0.0.  With one column
        # numpy would sum it pairwise, not left to right.
        rows = self._rows
        idx = np.full((self._width(), max(self.nrows, 2)), self.ncols, dtype=np.int64)
        val = np.zeros(idx.shape)
        slot = np.arange(self.nnz) - self.row_ptr[rows]
        idx[slot, rows] = self.col_idx
        val[slot, rows] = self.values
        return idx, val

    @cached_property
    def _diagonals(self):
        # None, or the diagonal layout of a banded matrix: the window
        # start of each stored diagonal (offset col - row plus the zero
        # padding _operand puts before x) in increasing offset order, a
        # (ndiag, nrows) value array with 0.0 where a row stores nothing,
        # the padding before x and the padded operand's length, which
        # leaves at least one zero after x: the padded product's zero
        # slot.  Taken only when it holds no more slots than the
        # padded-row layout and the product is large enough to pay for
        # it (_DIAGONAL_MIN_SLOTS).  The offsets are the nonzero bins of
        # one bincount of col - row + nrows - 1, and a diagonal's number
        # is the count of nonzero bins up to its own.
        width = self._width()
        if self.nrows < 2 or width * self.nrows < _DIAGONAL_MIN_SLOTS:
            return None
        rows = self._rows
        key = self.col_idx - rows + (self.nrows - 1)
        stored = np.bincount(key) > 0
        offsets = np.flatnonzero(stored) - (self.nrows - 1)
        if offsets.size > width:
            return None
        val = np.zeros((offsets.size, self.nrows))
        val[(np.cumsum(stored) - 1)[key], rows] = self.values
        before = max(0, -int(offsets[0]))
        after = max(1, self.nrows + int(offsets[-1]) - self.ncols)
        return offsets + before, val, before, before + self.ncols + after

    @cached_property
    def _cholesky_pattern(self):
        # what factor.cholesky reads of the pattern, never of the values.
        # M = M^T is checked first (a failure raises, and nothing is
        # cached); the rows then split into the connected components of
        # M's graph, grouped by order k, each component's rows in natural
        # order.  One flat buffer holds every group's (c, k, k) stack, one
        # after the other.  Returns the groups as (index (c, k), slice of
        # the buffer), the buffer's length, the place of every stored
        # entry and of every row's diagonal in it, and the largest order.
        # A diagonal joins no rows, so M + s I has the same analysis.
        _check_symmetric(self, "matrix")
        n, rows, cols = self.nrows, self._rows, self.col_idx
        label = _component_labels(n, rows, cols)
        comp = (np.cumsum(label == np.arange(n)) - 1)[label]  # numbered by smallest row
        sizes = np.bincount(comp)
        order = np.argsort(comp, kind="stable")
        start = np.cumsum(sizes) - sizes
        first = np.empty(n, dtype=np.int64)  # a row's first place in the buffer
        within = np.empty(n, dtype=np.int64)  # a row's place in its component
        groups, total = [], 0
        for k in np.unique(sizes):
            index = order[start[sizes == k][:, None] + np.arange(k)]
            first[index] = total + k * np.arange(index.size).reshape(index.shape)
            within[index] = np.arange(k)
            groups.append((index, slice(total, total + index.size * k)))
            total += index.size * k
        return groups, total, first[rows] + within[cols], first + within, int(sizes.max(initial=0))

    @cached_property
    def _padded_cols(self):
        # the transpose keeps each column's entries in row order, the
        # order in which the transpose product adds them
        return self.transpose()._padded_rows

    @cached_property
    def _gram(self):
        # M M^T: entries (i, j) and (j, i) sum the same products M[i, k] M[j, k]
        # in increasing k by _merge_sorted's rule, so they are bitwise equal;
        # exact cancellations drop.  Each row's candidates come from the two
        # padded layouts and are sorted within the row: a temporary of 16
        # bytes x rows x widest row x widest column
        m, n = self.nrows, self.ncols
        idx, val = self._padded_rows
        tidx, tval = self._padded_cols
        # one more column of the transposed layout for the row pads' index n
        tidx = np.hstack([tidx[:, :n], np.full((tidx.shape[0], 1), m)]).T
        tval = np.hstack([tval[:, :n], np.zeros((tval.shape[0], 1))]).T
        k = idx[:, :m].T
        width = k.shape[1] * tidx.shape[1]
        # row i's candidates (j, M[i, k] M[j, k]) in the order (k, j)
        cand = tidx[k].reshape(m, width)
        prod = (val[:, :m].T[:, :, None] * tval[k]).reshape(m, width)
        order = np.argsort(cand, axis=1, kind="stable")
        cand = np.take_along_axis(cand, order, axis=1)
        prod = np.take_along_axis(prod, order, axis=1)
        del order  # freed before the row index of the same size is made
        prod[cand == m] = 0.0  # pads, in column m, sum to 0 and drop, even beside an inf
        rows = np.repeat(np.arange(m), width)
        return _merge_sorted(m, m, rows, cand.ravel(), prod.ravel())

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


def _component_labels(n, rows, cols):
    # label propagation for a symmetric pattern: each row takes the
    # smallest label among its neighbours, then every label jumps to its
    # own label until none changes (a chain collapses in log(length)
    # jumps, not one sweep per step); labels end as each component's
    # smallest row index
    label = np.arange(n)
    while True:
        before = label.copy()
        np.minimum.at(label, rows, label[cols])
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
        if np.array_equal(label, before):
            return label


def _merge_sorted(nrows, ncols, rows, cols, vals):
    """CsrMatrix of triplets sorted by position (row, then column).

    A run of equal positions a[0], ..., a[L-1] sums as a[0] + (a[1] + ...
    + a[L-1]) (``np.add.reduceat``; the bracket goes left to right up to
    L = 8, pairwise beyond), so 1.0, 1e16, -1e16 give 1.0, not 0.0.
    Sums that are exactly 0 are dropped, together with their positions.
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
    xz = np.zeros((x.shape[0] + 1,) + x.shape[1:])
    xz[:-1] = x
    return _padded_mul(layout, xz, nout)


def _padded_mul(layout, xz, nout, out=None):
    # the padded product of an operand followed by its zero slot: one
    # gather, one in-place multiply, one reduction over the padded axis;
    # the outer-axis reduction adds each row left to right, into out if
    # given (one row per layout row, the same bits).  take() reads the
    # same elements as xz[idx] at a fraction of the cost of fancy
    # indexing on a block.
    idx, val = layout
    prod = xz.take(idx, axis=0)
    prod *= val if xz.ndim == 1 else val[:, :, None]
    return np.add.reduce(prod, axis=0, initial=0.0, out=out)[:nout]


# below about this many slots (rows x widest row) the diagonal product
# plus its finiteness check is no faster than the padded product.  Best
# of 7 x 300 vector products on a 2-vCPU Xeon, one BLAS thread, padded
# against diagonal plus check: Stokes A at q=16 (5.2k slots) 10.1 us
# against 8.8 + 1.6, at q=24 (11.3k) 16.2 against 14.8 + 1.9, at q=32
# (19.6k) 27.5 against 18.3 + 2.2, at q=64 (76k) 111 against 65 + 3.2
_DIAGONAL_MIN_SLOTS = 1 << 14


def _diagonal_product(layout, x):
    _, _, before, length = layout
    xz = np.zeros((length,) + x.shape[1:])
    xz[before:before + x.shape[0]] = x
    return _diagonal_mul(layout, xz)


def _diagonal_mul(layout, xz):
    # y[i] = sum over diagonals k of val[k, i] * x[i + offset_k]: the
    # rows of a strided window over the zero-padded operand xz are x
    # shifted by each offset, so one fancy-indexed read gathers them
    # with no index array.  Offsets increase, so each row adds its
    # entries in column order; the slots a row does not store add
    # 0.0 * finite = +-0.0 to a sum that starts at +0.0, which leaves
    # it unchanged, so the result has the padded product's bits.
    starts, val, _, length = layout
    nrows = val.shape[1]
    window = np.ndarray((length - nrows + 1, nrows) + xz.shape[1:], buffer=xz,
                        strides=xz.strides[:1] + xz.strides)
    prod = window[starts]
    prod *= val if xz.ndim == 1 else val[:, :, None]
    return np.add.reduce(prod, axis=0, initial=0.0)


def _operand(M, x):
    # x (a vector or a block) copied into a zero buffer laid out for M's
    # product, and the view of the buffer that holds it: x after the
    # diagonal layout's leading zeros if M has one, else x followed by
    # the padded layout's zero slot.  Writing the view changes the
    # operand, so an iteration can keep its vector there
    diagonals = M._diagonals
    if diagonals is None:
        xz = np.zeros((M.ncols + 1,) + x.shape[1:])
        view = xz[:-1]
    else:
        _, _, before, length = diagonals
        xz = np.zeros((length,) + x.shape[1:])
        view = xz[before:before + M.ncols]
    view[...] = x
    return xz, view


def _padded_operand(M, xz):
    # x followed by its zero slot within its buffer xz from _operand(M, .),
    # past the diagonal layout's leading zeros: the operand of any padded
    # product with M's number of columns
    diagonals = M._diagonals
    return xz if diagonals is None else xz[diagonals[2]:]


def _padded_result(M, xz):
    # M @ x on its padded layout, for x followed by its zero slot in xz,
    # written straight into a zero buffer where it is followed by a zero
    # slot too: the operand of a next padded product.  The buffer has a
    # row per layout row, max(nrows, 2); a row past nrows sums only
    # padding, to +0.0
    idx, _ = layout = M._padded_rows
    out = np.zeros((idx.shape[1] + 1,) + xz.shape[1:])
    _padded_mul(layout, xz, M.nrows, out=out[:-1])
    return out


def _product(M, xz, x):
    # M @ x for the operand x in its buffer xz from _operand(M, .): the
    # diagonal layout for a finite x, else the padded layout
    diagonals = M._diagonals
    if diagonals is None:
        return _padded_mul(M._padded_rows, xz, M.nrows)
    if np.isfinite(x).all():
        return _diagonal_mul(diagonals, xz)
    return _padded_mul(M._padded_rows, _padded_operand(M, xz), M.nrows)


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
    diagonal layout if M is banded, else its padded-row layout (see
    ``CsrMatrix`` for when each is taken and what it costs); a banded M
    builds its padded layout too only on an operand with inf or NaN.
    Both give the same bits for a finite operand.  Each call copies x
    into a fresh zero buffer laid out for M's product (``_operand``) and
    multiplies it there (``_product``), the path ``krylov.cg`` takes for
    a ``CsrMatrix`` with its search direction kept in such a buffer.  A
    block product holds a temporary of (diagonals or widest row) x rows
    x columns.
    """
    x = _check_operand(M, x, M.ncols)
    return _product(M, *_operand(M, x))


def spmv_transpose(M, x):
    """Product M.T @ x of a vector or a 2-D block.

    Each column's entries are accumulated in row order.  The first call
    forms the transpose once and caches its padded-row layout (16 bytes
    x columns x widest column); the transposed matrix itself is not
    kept.
    """
    return _padded_product(M._padded_cols, _check_operand(M, x, M.nrows), M.ncols)


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
    return CsrMatrix.from_triplets(M.nrows, M.ncols, np.concatenate([M._rows, diag]),
                                   np.concatenate([M.col_idx, diag]),
                                   np.concatenate([M.values, np.full(M.nrows, float(s))]))


def _dense_zeros(nrows, ncols):
    # a zero array of that shape; refused above dense_cap()
    limit = dense_cap()
    if nrows * ncols > limit:
        raise ValueError(f"dense conversion of {nrows}x{ncols} exceeds cap of {limit} entries")
    return np.zeros((nrows, ncols))


def to_dense(M):
    """Dense ndarray copy of M; refuses matrices above ``dense_cap()``."""
    out = _dense_zeros(M.nrows, M.ncols)
    out[M._rows, M.col_idx] = M.values
    return out


def _check_symmetric(M, name):
    """``ValueError`` unless M = M^T in structure and to ``_SYMMETRY_RTOL`` max |M| in value.

    No transpose is built: ``M._column_order()`` gives M^T's row_ptr
    and the order in which M's entries make M^T's CSR arrays, which are
    compared with M's own (a non-square M fails on row_ptr).  A NaN or
    inf entry passes, so that the caller reports it.
    """
    row_ptr, order = M._column_order()
    if not (np.array_equal(row_ptr, M.row_ptr) and np.array_equal(M._rows[order], M.col_idx)):
        raise ValueError(f"{name} is structurally non-symmetric")
    with np.errstate(invalid="ignore"):  # inf - inf
        skew = np.abs(M.values - M.values[order]).max(initial=0.0)  # each entry less its mirror
    if skew > _SYMMETRY_RTOL * np.abs(M.values).max(initial=0.0):
        raise ValueError(f"{name} is numerically non-symmetric beyond {_SYMMETRY_RTOL:g} relative")


def _check_symmetric_dense(a, name):
    """max |a - a.T| of a square array; ``ValueError`` above ``_SYMMETRY_RTOL`` max |a|.

    A NaN or inf entry makes it NaN or inf, which passes, so that the
    caller reports it: the result is finite exactly when every entry is.
    """
    with np.errstate(invalid="ignore"):  # inf - inf
        skew = a - a.T  # one temporary: a second one of this size costs more than the arithmetic
    skew = float(np.abs(skew, out=skew).max(initial=0.0))
    if skew > _SYMMETRY_RTOL * float(np.max(np.abs(a), initial=0.0)):
        raise ValueError(f"{name} is not symmetric (|a - a.T| above {_SYMMETRY_RTOL:g} max |a|)")
    return skew


class SaddleSystem:
    """Blocks and right-hand side of a saddle point system.

    The assembled operator is [[A, B^T], [-B, C]] acting on (x; y) with
    right-hand side (f; -g).  Finite entries (no NaN or inf) and symmetry
    of A and C are enforced here.  Definiteness is not, because it needs
    a factorization or an eigensolver: ``factor.cholesky(sys.A)`` raises
    ``NotPositiveDefiniteError`` unless A is positive definite.
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


def saddle_dense(sys):
    """The dense saddle matrix K = [[A, B^T], [-B, C]], refused above ``dense_cap()``.

    The stored entries of A, B^T, -B and C are scattered into one zero
    array, with no CSR assembly: the bits of
    ``to_dense(assemble_block_saddle(sys))``, since the four blocks do
    not overlap and hold no zero.
    """
    n = sys.n
    K = _dense_zeros(sys.order, sys.order)
    B = sys.B
    K[sys.A._rows, sys.A.col_idx] = sys.A.values
    K[B.col_idx, B._rows + n] = B.values
    K[B._rows + n, B.col_idx] = -B.values
    K[sys.C._rows + n, sys.C.col_idx + n] = sys.C.values
    return K


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
