import hashlib

import numpy as np
import pytest

from sadprec.sparse import (
    CsrMatrix,
    SaddleSystem,
    _check_symmetric,
    add_scaled_identity,
    assemble_block_saddle,
    dense_cap,
    gram_plus_identity,
    norm2,
    spmv,
    spmv_transpose,
    to_dense,
)
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0


def toy_t1():
    A = CsrMatrix.from_dense([[2.0]])
    B = CsrMatrix.from_dense([[1.0]])
    C = CsrMatrix.zeros(1, 1)
    return SaddleSystem(A, B, C, np.array([1.0]), np.array([0.0]))


class TestSpmv:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(spmv(CsrMatrix.identity(3), x), x)

    def test_hand_2x2(self):
        M = CsrMatrix.from_dense([[2.0, 1.0], [-1.0, 0.0]])
        # hand multiplication: [[2,1],[-1,0]] (0,1) = (1, 0)
        assert np.array_equal(spmv(M, np.array([0.0, 1.0])), np.array([1.0, 0.0]))

    def test_zero_row(self):
        M = CsrMatrix.from_dense([[0.0, 0.0], [3.0, 4.0]])
        y = spmv(M, np.array([1.0, 1.0]))
        assert y[0] == 0.0 and y[1] == 7.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(CsrMatrix.identity(3), np.ones(4))


class TestSpmvTranspose:
    def test_identity(self):
        x = np.array([4.0, 5.0])
        assert np.array_equal(spmv_transpose(CsrMatrix.identity(2), x), x)

    def test_scalar(self):
        B = CsrMatrix.from_dense([[1.0]])
        assert spmv_transpose(B, np.array([3.0]))[0] == 3.0

    def test_hand_2x2(self):
        M = CsrMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])
        # [[1,2],[3,4]]^T (1,1) = (4, 6)
        assert np.array_equal(spmv_transpose(M, np.ones(2)), np.array([4.0, 6.0]))

    def test_dimension_mismatch(self):
        M = CsrMatrix.from_dense([[1.0, 2.0]])
        with pytest.raises(ValueError):
            spmv_transpose(M, np.ones(2))


class TestConstruction:
    def test_duplicates_summed_zeros_dropped(self):
        M = CsrMatrix.from_triplets(2, 2, [0, 0, 1, 1], [0, 0, 1, 1], [1.0, 2.0, 1.0, -1.0])
        assert M.nnz == 1
        assert to_dense(M)[0, 0] == 3.0

    def test_triplet_round_trip(self):
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((6, 4)) * (rng.random((6, 4)) < 0.4)
        M = CsrMatrix.from_dense(dense)
        rows, cols, vals = M.to_triplets()
        M2 = CsrMatrix.from_triplets(6, 4, rows, cols, vals)
        assert np.array_equal(M.row_ptr, M2.row_ptr)
        assert np.array_equal(M.col_idx, M2.col_idx)
        assert np.array_equal(M.values, M2.values)

    def test_invalid_row_ptr(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_stored_zero_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(1, 2, [0, 2], [0, 1], [1.0, 0.0])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    def test_add_scaled_identity(self):
        M = CsrMatrix.from_dense([[1.0, 2.0], [2.0, -3.0]])
        S = add_scaled_identity(M, 3.0)
        assert np.allclose(to_dense(S), [[4.0, 2.0], [2.0, 0.0]])
        assert S.nnz == 3  # the (1,1) entry cancelled exactly and was dropped


    def test_position_key_overflow_rejected(self):
        # row * ncols + col would pass 2**63 for row 2
        with pytest.raises(ValueError):
            CsrMatrix.from_triplets(3, 2**62, [2, 0], [0, 5], [1.0, 2.0])


def lexsort_triplets(nrows, ncols, rows, cols, vals):
    """CSR arrays of the triplets, ordered by np.lexsort on (row, col).

    Equal positions keep their input order and are summed in it, exact
    zeros are dropped.
    """
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(first)
    vals = np.add.reduceat(vals, starts)
    keep = vals != 0.0
    rows, cols, vals = rows[starts][keep], cols[starts][keep], vals[keep]
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=row_ptr[1:])
    return row_ptr, cols, vals


def shuffled_triplet_cases():
    rng = np.random.default_rng(11)
    A = generate_stokes_q1p0(StokesConfig(8)).A
    rows, cols, vals = A.to_triplets()
    # every entry twice, the copy scaled, in a random order
    rows, cols = np.tile(rows, 2), np.tile(cols, 2)
    vals = np.concatenate([vals, vals * rng.uniform(-2.0, 2.0, vals.size)])
    order = rng.permutation(rows.size)
    yield "stokes8-A", (A.nrows, A.ncols, rows[order], cols[order], vals[order])
    # 600 triplets on 30 x 20 positions, magnitudes from 1e-8 to 1e8, and
    # in row 30 one pair that cancels exactly
    rows = np.append(rng.integers(0, 30, 600), [30, 30])
    cols = np.append(rng.integers(0, 20, 600), [4, 4])
    vals = rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(-8, 8, 600)
    vals = np.append(vals, [2.5, -2.5])
    order = rng.permutation(rows.size)
    yield "random-wide-range", (31, 20, rows[order], cols[order], vals[order])


class TestTripletOrder:
    @pytest.mark.parametrize("case", list(shuffled_triplet_cases()), ids=lambda c: c[0])
    def test_bitwise_equal_to_lexsort(self, case):
        _, args = case
        M = CsrMatrix.from_triplets(*args)
        for name, want in zip(("row_ptr", "col_idx", "values"), lexsort_triplets(*args)):
            got = getattr(M, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def shifted_by_triplets(M, s):
    # M + s I through from_triplets: the shift as n more triplets, re-sorted
    rows, cols, vals = M.to_triplets()
    diag = np.arange(M.nrows)
    return CsrMatrix.from_triplets(M.nrows, M.ncols, np.concatenate([rows, diag]),
                                   np.concatenate([cols, diag]),
                                   np.concatenate([vals, np.full(M.nrows, s)]))


def shift_cases():
    stokes = generate_stokes_q1p0(StokesConfig(8))
    yield "stokes-A", stokes.A, 0.1
    yield "stokes-C", stokes.C, 1e-3
    stokes = generate_stokes_q1p0(StokesConfig(64, pin_pressure=False))
    yield "stokes64-A", stokes.A, 0.1
    yield "stokes64-C", stokes.C, 0.1
    yield "zero-C", CsrMatrix.zeros(3, 3), 0.5
    yield "empty", CsrMatrix.zeros(0, 0), 0.5
    # rows 0 and 2 hold no diagonal entry, row 3 is empty
    gaps = CsrMatrix.from_dense([[0.0, 2.0, 0.0, 0.0], [2.0, 1.0, -1.0, 0.0],
                                 [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    yield "missing-diagonal", gaps, 0.25
    yield "zero-shift-missing-diagonal", gaps, 0.0
    # the diagonal entry -0.75 cancels to exactly 0
    yield "cancelling-diagonal", CsrMatrix.from_dense([[-0.75, 1.0], [1.0, 2.0]]), 0.75


class TestShiftedAssembly:
    @pytest.mark.parametrize("case", list(shift_cases()), ids=lambda c: c[0])
    def test_add_scaled_identity_bitwise_equals_triplet_path(self, case):
        _, M, s = case
        got, want = add_scaled_identity(M, s), shifted_by_triplets(M, s)
        for name in ("row_ptr", "col_idx", "values"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("make", [lambda: generate_stokes_q1p0(StokesConfig(8)),
                                      lambda: generate_random_saddle(60, 24, seed=3)],
                             ids=["stokes-q8", "random-60x24"])
    @pytest.mark.parametrize("s", [1e-2, 0.0])
    def test_gram_symmetric_and_matches_dense(self, make, s):
        B = make().B
        G = gram_plus_identity(B, s)
        _check_symmetric(G, "gram", rtol=0.0)
        Bd = to_dense(B)
        want = Bd @ Bd.T + s * np.eye(B.nrows)
        assert np.abs(to_dense(G) - want).max() <= 1e-14 * np.abs(want).max()

    def test_gram_drops_cancelled_entries(self):
        # Q1-P0: pressures of edge-neighbour elements cancel exactly,
        # leaving each element and its four diagonal neighbours
        B = generate_stokes_q1p0(StokesConfig(16, pin_pressure=False)).B
        assert np.diff(gram_plus_identity(B, 0.01).row_ptr).max() == 5

    @pytest.mark.parametrize("B,want", [
        (CsrMatrix.zeros(0, 4), np.zeros((0, 0))),
        (CsrMatrix.zeros(2, 3), 2.0 * np.eye(2)),
        (CsrMatrix.from_dense([[1.0], [2.0]]), [[3.0, 2.0], [2.0, 6.0]]),
        # column 0 is padded next to an inf: the pad's NaN product is dropped
        (CsrMatrix.from_dense([[np.inf, 1.0], [0.0, 1.0]]), [[np.inf, 1.0], [1.0, 3.0]]),
    ], ids=["no-rows", "zero-B", "one-column", "inf-beside-pad"])
    def test_gram_edge_shapes(self, B, want):
        with np.errstate(invalid="ignore"):
            G = gram_plus_identity(B, 2.0)
        assert np.array_equal(to_dense(G), want)


def digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()


class TestDerivedGolden:
    # sha256 of the derived matrices (row_ptr, col_idx, values) and of a
    # 5-column transpose product, recorded with the code before the
    # constructors shared one sort
    DIGESTS = {
        (16, True): {
            "A+0.1I": "91c2dd8e49e565fefbc9660ed22e941555691b05e8d4a225003cf7fd23ad6efb",
            "C+1e-3I": "cd0dc51b591e392e99869eca7220722857705d6bd218611032d275a48b2bd415",
            "BBt+0.01I": "4c08bef45ef85b9c99b4f9d2f7fd2ede9b71551d084839eb97ed2acf3261c825",
            "B^T Y": "f776da7dea009a210df4c236d3fc22fb539abb6cb3f21469cf140619c237e1fe",
        },
        (64, False): {
            "A+0.1I": "aeb83f01702f209d55321bd7c0e66007f9e5660a330ced2adaee8405083f825e",
            "C+1e-3I": "a7037904d0f16833d25de8934d9af592b74351bb4a3a15eb5b92ea8cb7b4dbad",
            "BBt+0.01I": "230c70696c7281a2ba6cc92ea64f2adab90a77c33b7a45fc142f7e1036bf4976",
            "B^T Y": "21b94a3929f98486e58733362863a47467d1fb1d7f93dc593269ba941c806097",
        },
    }

    @pytest.mark.parametrize("q,pin", sorted(DIGESTS))
    def test_derived_digests(self, q, pin):
        sys_ = generate_stokes_q1p0(StokesConfig(q, pin_pressure=pin))
        rng = np.random.default_rng(q)
        m = sys_.m
        Y = rng.standard_normal((m, 5)) * 10.0 ** rng.uniform(-8, 8, (m, 5))
        matrices = {"A+0.1I": add_scaled_identity(sys_.A, 0.1),
                    "C+1e-3I": add_scaled_identity(sys_.C, 1e-3),
                    "BBt+0.01I": gram_plus_identity(sys_.B, 0.01)}
        got = {name: digest(M.row_ptr, M.col_idx, M.values) for name, M in matrices.items()}
        got["B^T Y"] = digest(spmv_transpose(sys_.B, Y))
        assert got == self.DIGESTS[(q, pin)]


class TestVectorOps:
    def test_to_dense_identity(self):
        assert np.array_equal(to_dense(CsrMatrix.identity(2)), np.eye(2))

    def test_dense_cap(self, monkeypatch):
        monkeypatch.delenv("SADPREC_DENSE_CAP", raising=False)
        assert dense_cap() == 4_000_000
        with pytest.raises(ValueError, match="exceeds cap"):
            to_dense(CsrMatrix.zeros(2001, 2000))

    def test_dense_cap_env_override(self, monkeypatch):
        M = CsrMatrix.identity(100)
        monkeypatch.setenv("SADPREC_DENSE_CAP", "99")
        with pytest.raises(ValueError):
            to_dense(M)
        monkeypatch.setenv("SADPREC_DENSE_CAP", "1e5")
        assert to_dense(M).shape == (100, 100)

    def test_norm2(self):
        assert norm2([3.0, 4.0]) == 5.0


class TestAdjointConsistency:
    @pytest.mark.parametrize("seed", range(8))
    def test_spmv_vs_transpose(self, seed):
        rng = np.random.default_rng(seed)
        nr, nc = rng.integers(1, 30, size=2)
        dense = rng.standard_normal((nr, nc)) * (rng.random((nr, nc)) < 0.5)
        M = CsrMatrix.from_dense(dense)
        x = rng.standard_normal(nc)
        y = rng.standard_normal(nr)
        frob = np.linalg.norm(dense)
        lhs = float(np.dot(y, spmv(M, x)))
        rhs = float(np.dot(spmv_transpose(M, y), x))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, frob * norm2(x) * norm2(y))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.3)
        M = CsrMatrix.from_dense(dense)
        x = rng.standard_normal(40)
        y1 = spmv(M, x)
        y2 = spmv(M, x)
        assert np.array_equal(y1, y2)


def bincount_spmv(M, x):
    """The scatter-add kernel spmv used before the padded-row layout."""
    if M.nnz == 0:
        return np.zeros(M.nrows)
    rows = np.repeat(np.arange(M.nrows), np.diff(M.row_ptr))
    return np.bincount(rows, weights=M.values * x[M.col_idx], minlength=M.nrows)


def bincount_spmv_transpose(M, x):
    if M.nnz == 0:
        return np.zeros(M.ncols)
    rows = np.repeat(np.arange(M.nrows), np.diff(M.row_ptr))
    return np.bincount(M.col_idx, weights=M.values * x[rows], minlength=M.ncols)


def assert_matches_bincount(M, X, Y):
    """spmv and spmv_transpose equal the reference bit for bit.

    X holds right-hand sides of length ncols as columns, Y of length nrows;
    both kernels are checked one column at a time and on the whole block.
    """
    for j in range(X.shape[1]):
        assert np.array_equal(spmv(M, X[:, j]), bincount_spmv(M, X[:, j]), equal_nan=True)
    for j in range(Y.shape[1]):
        assert np.array_equal(
            spmv_transpose(M, Y[:, j]), bincount_spmv_transpose(M, Y[:, j]), equal_nan=True
        )
    cols, cols_t = spmv(M, X), spmv_transpose(M, Y)
    assert cols.shape == (M.nrows, X.shape[1]) and cols_t.shape == (M.ncols, Y.shape[1])
    for j in range(X.shape[1]):
        assert np.array_equal(cols[:, j], bincount_spmv(M, X[:, j]), equal_nan=True)
    for j in range(Y.shape[1]):
        assert np.array_equal(cols_t[:, j], bincount_spmv_transpose(M, Y[:, j]), equal_nan=True)


def wide_range_columns(rng, n, k=6):
    # entries scaled from 1e-8 to 1e8, so the order of additions shows
    return rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-8, 8, (n, k))


def kernel_cases():
    for pinned in (True, False):
        sys_ = generate_stokes_q1p0(StokesConfig(8, pin_pressure=pinned))
        label = "pinned" if pinned else "unpinned"
        yield f"stokes8-{label}-A", sys_.A
        yield f"stokes8-{label}-B", sys_.B
        yield f"stokes8-{label}-C", sys_.C
    sys_ = generate_random_saddle(40, 16, seed=3)
    yield "random-A", sys_.A
    yield "random-B", sys_.B
    yield "random-C", sys_.C
    yield "empty-row", CsrMatrix.from_dense([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 3.0, 4.0]])
    yield "zero-nnz", CsrMatrix.zeros(4, 3)
    yield "m0-B", CsrMatrix.zeros(0, 5)
    # one output row wider than 8 entries: numpy would sum it pairwise
    yield "one-wide-row", CsrMatrix.from_dense(np.arange(1.0, 21.0)[None, :])


class TestPaddedKernel:
    @pytest.mark.parametrize("case", list(kernel_cases()), ids=lambda c: c[0])
    def test_bitwise_equal_to_bincount(self, case):
        _, M = case
        rng = np.random.default_rng(M.nrows * 31 + M.ncols)
        assert_matches_bincount(
            M, wide_range_columns(rng, M.ncols), wide_range_columns(rng, M.nrows)
        )

    @pytest.mark.parametrize("layout", ["fortran", "strided", "one-column", "84-columns"])
    @pytest.mark.parametrize("case", [c for c in kernel_cases() if c[0] in
                                      ("stokes8-pinned-A", "stokes8-pinned-B", "random-A", "empty-row")],
                             ids=lambda c: c[0])
    def test_block_layouts(self, case, layout):
        # any memory layout and width of a block must give the bincount
        # reference column by column
        _, M = case
        rng = np.random.default_rng(M.nrows * 17 + M.ncols)
        make = {
            "fortran": lambda n: np.asfortranarray(wide_range_columns(rng, n)),
            "strided": lambda n: wide_range_columns(rng, n, k=12)[:, ::2],
            "one-column": lambda n: wide_range_columns(rng, n, k=1),
            "84-columns": lambda n: wide_range_columns(rng, n, k=84),
        }[layout]
        assert_matches_bincount(M, make(M.ncols), make(M.nrows))

    def test_non_finite_x_stays_out_of_rows_without_entries(self):
        # column 1 is empty, column 2 is used by row 2 only; row 1 is empty
        M = CsrMatrix.from_dense([[1.0, 0.0, 0.0, 2.0],
                                  [0.0, 0.0, 0.0, 0.0],
                                  [0.0, 0.0, 5.0, 6.0]])
        x = np.array([1.0, np.inf, np.nan, 1.0])
        y = spmv(M, x)
        assert y[0] == 3.0 and y[1] == 0.0 and np.isnan(y[2])
        # row 1 holds the NaN and has no entries
        yt = spmv_transpose(M, np.array([np.inf, np.nan, 1.0]))
        assert yt[0] == np.inf and yt[1] == 0.0 and yt[2] == 5.0 and yt[3] == np.inf
        X = np.array([[1.0, np.inf, np.nan, 1.0], [np.nan, -np.inf, 0.0, 2.0]]).T
        Y = np.array([[np.inf, np.nan, 1.0], [1.0, np.inf, -np.inf]]).T
        assert_matches_bincount(M, X, Y)

    def test_row_skewed(self):
        # one dense row among 1999 diagonal ones: the layout is 2000 wide
        n = 2000
        rng = np.random.default_rng(5)
        rows = np.concatenate([np.full(n, 7), np.arange(n)])
        cols = np.concatenate([np.arange(n), np.arange(n)])
        M = CsrMatrix.from_triplets(n, n, rows, cols, rng.uniform(0.5, 2.0, 2 * n))
        assert_matches_bincount(
            M, wide_range_columns(rng, n, k=2), wide_range_columns(rng, n, k=2)
        )


class TestSaddleSystem:
    def test_rhs_sign(self):
        sys_ = toy_t1()
        assert np.array_equal(sys_.rhs(), np.array([1.0, -0.0]))

    def test_assemble_toy(self):
        # A=[2], B=[1], C=[0] gives [[2,1],[-1,0]]
        acal = to_dense(assemble_block_saddle(toy_t1()))
        assert np.array_equal(acal, np.array([[2.0, 1.0], [-1.0, 0.0]]))

    def test_assemble_m0_degenerate(self):
        A = CsrMatrix.from_dense([[2.0, 1.0], [1.0, 3.0]])
        sys_ = SaddleSystem(A, CsrMatrix.zeros(0, 2), CsrMatrix.zeros(0, 0), np.ones(2), np.zeros(0))
        assert np.array_equal(to_dense(assemble_block_saddle(sys_)), to_dense(A))

    def test_assemble_nnz_count(self):
        rng = np.random.default_rng(1)
        Ad = rng.standard_normal((5, 5)) * (rng.random((5, 5)) < 0.6)
        Ad = Ad + Ad.T + 10 * np.eye(5)
        Bd = rng.standard_normal((2, 5)) * (rng.random((2, 5)) < 0.8)
        Bd[:, :2] += np.eye(2)
        Cd = np.eye(2)
        sys_ = SaddleSystem(
            CsrMatrix.from_dense(Ad),
            CsrMatrix.from_dense(Bd),
            CsrMatrix.from_dense(Cd),
            np.zeros(5),
            np.zeros(2),
        )
        acal = assemble_block_saddle(sys_)
        assert acal.nnz == sys_.A.nnz + 2 * sys_.B.nnz + sys_.C.nnz

    def test_assemble_matches_block_layout(self):
        rng = np.random.default_rng(3)
        Ad = rng.standard_normal((4, 4))
        Ad = Ad + Ad.T
        Bd = rng.standard_normal((2, 4))
        Cd = rng.standard_normal((2, 2))
        Cd = Cd + Cd.T
        sys_ = SaddleSystem(
            CsrMatrix.from_dense(Ad),
            CsrMatrix.from_dense(Bd),
            CsrMatrix.from_dense(Cd),
            np.zeros(4),
            np.zeros(2),
        )
        expected = np.block([[Ad, Bd.T], [-Bd, Cd]])
        assert np.allclose(to_dense(assemble_block_saddle(sys_)), expected, atol=0.0)
        u = rng.standard_normal(6)
        assert np.allclose(sys_.matvec(u), expected @ u, atol=1e-14)

    def test_asymmetric_A_rejected(self):
        A = CsrMatrix.from_dense([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            SaddleSystem(A, CsrMatrix.zeros(1, 2), CsrMatrix.zeros(1, 1), np.zeros(2), np.zeros(1))

    def test_nan_in_f_rejected(self):
        with pytest.raises(ValueError, match="f has a non-finite entry"):
            SaddleSystem(
                CsrMatrix.from_dense([[2.0]]),
                CsrMatrix.from_dense([[1.0]]),
                CsrMatrix.zeros(1, 1),
                np.array([np.nan]),
                np.array([0.0]),
            )

    def test_inf_in_B_rejected(self):
        with pytest.raises(ValueError, match="B has a non-finite entry"):
            SaddleSystem(
                CsrMatrix.identity(2),
                CsrMatrix.from_dense([[1.0, np.inf]]),
                CsrMatrix.zeros(1, 1),
                np.zeros(2),
                np.zeros(1),
            )

    def test_m_greater_n_rejected(self):
        A = CsrMatrix.identity(1)
        B = CsrMatrix.from_dense([[1.0], [1.0]])
        C = CsrMatrix.identity(2)
        with pytest.raises(ValueError):
            SaddleSystem(A, B, C, np.zeros(1), np.zeros(2))

    def test_stokes_q16_order(self):
        from sadprec.problems import StokesConfig, generate_stokes_q1p0

        sys_ = generate_stokes_q1p0(StokesConfig(16, pin_pressure=False))
        acal = assemble_block_saddle(sys_)
        assert acal.shape == (834, 834)  # 578 + 256
