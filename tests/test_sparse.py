import functools
import hashlib
import re

import numpy as np
import pytest

from sadprec import factor, sparse, spectral
from sadprec.precond import PrecondSpec, make_preconditioner
from sadprec.sparse import (
    CsrMatrix,
    SaddleSystem,
    _check_symmetric,
    _diagonal_mul,
    _operand,
    _padded_mul,
    _padded_operand,
    add_scaled_identity,
    assemble_block_saddle,
    dense_cap,
    saddle_dense,
    spmv,
    spmv_transpose,
    to_dense,
)
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0


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

    def test_duplicates_summed_first_plus_the_rest(self):
        # np.add.reduceat sums a run as a[0] + (a[1] + a[2]); left to
        # right, 1.0 would vanish into 1e16 and the entry would drop
        M = CsrMatrix.from_triplets(1, 1, [0, 0, 0], [0, 0, 0], [1.0, 1e16, -1e16])
        assert M.nnz == 1 and M.values[0] == 1.0

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

    @pytest.mark.parametrize("args,name", [
        ((2, 2, [0, 1.7, 2], [0, 1], [1.0, 2.0]), "row_ptr"),
        ((2, 2, [0, 1, 2], [0.9, 1.2], [1.0, 2.0]), "col_idx"),
        ((2, 2, [0, 1, 2], [True, True], [1.0, 2.0]), "col_idx"),
        ((2.7, 2, [0, 1, 2], [0, 1], [1.0, 2.0]), "nrows"),
        ((2, np.float64(2.0), [0, 1, 2], [0, 1], [1.0, 2.0]), "ncols"),
        ((True, 2, [0, 1], [0], [1.0]), "nrows"),
        ((-1, 2, [0], [], []), "nrows"),
    ], ids=["float-row_ptr", "float-col_idx", "bool-col_idx", "float-nrows", "float-ncols",
            "bool-nrows", "negative-nrows"])
    def test_non_integer_input_refused(self, args, name):
        # int64 conversion used to truncate each of these to a valid matrix
        with pytest.raises(ValueError, match=f"^{name} must"):
            CsrMatrix(*args)

    @pytest.mark.parametrize("args,name", [
        ((2, 2, [0.5, 1.5], [0, 1], [1.0, 1.0]), "row indices"),
        ((2, 2, [0, 1], [0.0, 1.0], [1.0, 1.0]), "column indices"),
        ((2.5, 2, [0, 1], [0, 1], [1.0, 1.0]), "nrows"),
        ((2, 2.0, [0, 1], [0, 1], [1.0, 1.0]), "ncols"),
    ], ids=["float-rows", "float-cols", "float-nrows", "float-ncols"])
    def test_non_integer_triplets_refused(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            CsrMatrix.from_triplets(*args)

    def test_empty_index_arrays_of_any_dtype(self):
        # CsrMatrix.zeros passes [] (float64 to numpy); numpy integer
        # dimensions and int32 indices stay accepted
        assert CsrMatrix.zeros(2, 3).col_idx.dtype == np.int64
        assert CsrMatrix.from_triplets(2, 3, [], [], []).nnz == 0
        M = CsrMatrix(np.int32(2), np.int64(3), np.array([0, 1, 1], dtype=np.int32),
                      np.array([2], dtype=np.uint8), [1.0])
        assert M.shape == (2, 3) and type(M.nrows) is int and M.col_idx.dtype == np.int64
        assert to_dense(M)[0, 2] == 1.0

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


def dense_cases():
    rng = np.random.default_rng(5)
    for shape in [(9, 6), (6, 9), (1, 7), (7, 1)]:
        arr = rng.standard_normal(shape) * (rng.random(shape) < 0.4)
        # -0.0 is not stored; NaN is, with its payload bits
        arr.flat[rng.choice(arr.size, 3, replace=False)] = [-0.0, np.nan, -np.nan]
        if min(shape) > 1:
            arr[shape[0] // 2] = 0.0
            arr[:, 1] = -0.0
        yield f"random-{shape[0]}x{shape[1]}", arr
    yield "stokes4-B", to_dense(generate_stokes_q1p0(StokesConfig(4)).B)
    yield "all-zero", np.array([[0.0, -0.0], [-0.0, 0.0]])
    yield "shape-0x5", np.zeros((0, 5))
    yield "shape-5x0", np.zeros((5, 0))


def assert_same_arrays(M, want):
    # row_ptr, col_idx and values: same dtypes and the same bytes
    for name, arr in zip(("row_ptr", "col_idx", "values"), want):
        got = getattr(M, name)
        assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), name


class TestTripletOrder:
    @pytest.mark.parametrize("case", list(shuffled_triplet_cases()), ids=lambda c: c[0])
    def test_bitwise_equal_to_lexsort(self, case):
        _, args = case
        M = CsrMatrix.from_triplets(*args)
        for name, want in zip(("row_ptr", "col_idx", "values"), lexsort_triplets(*args)):
            got = getattr(M, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("case", list(dense_cases()), ids=lambda c: c[0])
    def test_from_dense_bitwise_equal_to_lexsort(self, case):
        # the reference gets every entry, zeros too, in a shuffled order
        _, arr = case
        rows, cols = np.indices(arr.shape).reshape(2, -1)
        order = np.random.default_rng(0).permutation(arr.size)
        args = (*arr.shape, rows[order], cols[order], arr.ravel()[order])
        M = CsrMatrix.from_dense(arr)
        assert_same_arrays(M, lexsort_triplets(*args))
        T = CsrMatrix.from_triplets(*args)
        assert_same_arrays(M, (T.row_ptr, T.col_idx, T.values))

    @pytest.mark.parametrize("case", list(dense_cases()) + [("shape-0x0", np.zeros((0, 0)))],
                             ids=lambda c: c[0])
    def test_from_dense_bitwise_equal_to_nonzero_rows(self, case):
        # the masked-row constructor against the np.nonzero construction
        # it replaced: -0.0 unstored, NaN stored, empty and one-wide shapes
        _, arr = case
        stored = arr != 0.0
        row_ptr = np.zeros(arr.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(stored, axis=1), out=row_ptr[1:])
        assert_same_arrays(CsrMatrix.from_dense(arr), (row_ptr, np.nonzero(stored)[1], arr[stored]))

    @pytest.mark.parametrize("case", list(dense_cases()) + [
        ("stokes8-B", to_dense(generate_stokes_q1p0(StokesConfig(8)).B)),
        ("random-saddle-B", to_dense(generate_random_saddle(60, 24, seed=3).B)),
    ], ids=lambda c: c[0])
    def test_transpose_bitwise_equal_to_lexsort(self, case):
        _, arr = case
        M = CsrMatrix.from_dense(arr)
        rows, cols, vals = M.to_triplets()
        Mt = M.transpose()
        assert Mt.shape == (M.ncols, M.nrows)
        assert_same_arrays(Mt, lexsort_triplets(M.ncols, M.nrows, cols, rows, vals))
        T = CsrMatrix.from_triplets(M.ncols, M.nrows, cols, rows, vals)
        assert_same_arrays(Mt, (T.row_ptr, T.col_idx, T.values))
        assert_same_arrays(Mt.transpose(), (M.row_ptr, M.col_idx, M.values))


def propagated_labels(n, rows, cols):
    # plain label propagation, one sweep per step of the graph's diameter
    label = np.arange(n)
    while True:
        before = label.copy()
        np.minimum.at(label, rows, label[cols])
        if np.array_equal(label, before):
            return label


def tridiagonal(n):
    return CsrMatrix.from_dense(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))


def label_cases():
    rng = np.random.default_rng(12)
    yield "tridiagonal-2000", tridiagonal(2000)
    for pin in (True, False):
        sys_ = generate_stokes_q1p0(StokesConfig(16, pin_pressure=pin))
        yield f"stokes16-{'pinned' if pin else 'unpinned'}-A", sys_.A
        yield f"stokes16-{'pinned' if pin else 'unpinned'}-C", sys_.C
    pattern = rng.random((80, 80)) < 0.02
    yield "random-80", CsrMatrix.from_dense((pattern | pattern.T) + np.eye(80))
    # two interleaved chains (even and odd rows) and four isolated rows
    chains = np.eye(40, k=2) + np.eye(40, k=-2)
    chains[:4] = chains[:, :4] = 0.0
    yield "disconnected", CsrMatrix.from_dense(chains[::-1, ::-1] + np.eye(40))
    yield "no-edges", CsrMatrix.zeros(4, 4)
    yield "empty", CsrMatrix.zeros(0, 0)


class CountingNumpy:
    # numpy as sparse sees it, with each np.minimum.at call counted
    def __init__(self):
        self.minimum = self
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def at(self, *args):
        self.calls += 1
        np.minimum.at(*args)


class TestComponentLabels:
    @pytest.mark.parametrize("case", list(label_cases()), ids=lambda c: c[0])
    def test_equal_to_plain_propagation(self, case):
        _, M = case
        got = sparse._component_labels(M.nrows, M._rows, M.col_idx)
        want = propagated_labels(M.nrows, M._rows, M.col_idx)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_chain_takes_few_sweeps(self, monkeypatch):
        # plain propagation sweeps about 2000 times along the chain
        M = tridiagonal(2000)
        counting = CountingNumpy()
        monkeypatch.setattr(sparse, "np", counting)
        labels = sparse._component_labels(M.nrows, M._rows, M.col_idx)
        assert counting.calls <= 3 and not labels.any()


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
        G = add_scaled_identity(B._gram, s)
        Gd = to_dense(G)
        assert Gd.tobytes() == Gd.T.tobytes()  # exactly symmetric
        Bd = to_dense(B)
        want = Bd @ Bd.T + s * np.eye(B.nrows)
        assert np.abs(Gd - want).max() <= 1e-14 * np.abs(want).max()

    def test_gram_drops_cancelled_entries(self):
        # Q1-P0: pressures of edge-neighbour elements cancel exactly,
        # leaving each element and its four diagonal neighbours
        B = generate_stokes_q1p0(StokesConfig(16, pin_pressure=False)).B
        assert np.diff(add_scaled_identity(B._gram, 0.01).row_ptr).max() == 5

    @pytest.mark.parametrize("B,want", [
        (CsrMatrix.zeros(0, 4), np.zeros((0, 0))),
        (CsrMatrix.zeros(2, 3), 2.0 * np.eye(2)),
        (CsrMatrix.from_dense([[1.0], [2.0]]), [[3.0, 2.0], [2.0, 6.0]]),
        # column 0 is padded next to an inf: the pad's NaN product is dropped
        (CsrMatrix.from_dense([[np.inf, 1.0], [0.0, 1.0]]), [[np.inf, 1.0], [1.0, 3.0]]),
    ], ids=["no-rows", "zero-B", "one-column", "inf-beside-pad"])
    def test_gram_edge_shapes(self, B, want):
        with np.errstate(invalid="ignore"):
            G = add_scaled_identity(B._gram, 2.0)
        assert np.array_equal(to_dense(G), want)

    @pytest.mark.parametrize("make", [
        lambda: CsrMatrix.zeros(0, 4),
        lambda: CsrMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, -1.0]]),
        lambda: generate_stokes_q1p0(StokesConfig(8)).B,
    ], ids=["no-rows", "empty-row", "stokes-q8"])
    def test_gram_cached_exactly_symmetric_product(self, make):
        B = make()
        assert "_gram" not in vars(B)  # built on first read, not by a constructor
        G = B._gram
        assert B._gram is G
        Gd = to_dense(G)
        assert Gd.tobytes() == Gd.T.tobytes()
        Bd = to_dense(B)
        want = Bd @ Bd.T
        assert np.abs(Gd - want).max(initial=0.0) <= 1e-14 * np.abs(want).max(initial=0.0)

    def test_gram_empty_row_takes_the_shift(self):
        # row 1 of B is empty, so its Gram row is too; the shift is inserted
        B = CsrMatrix.from_dense([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, -1.0]])
        assert np.array_equal(B._gram.row_ptr, [0, 2, 2, 4])
        want = [[5.0, 0.0, -2.0], [0.0, 0.0, 0.0], [-2.0, 0.0, 10.0]]
        assert np.array_equal(to_dense(B._gram), want)
        assert np.array_equal(to_dense(add_scaled_identity(B._gram, 0.25)), want + 0.25 * np.eye(3))


def digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()


class TestDerivedGolden:
    # sha256 of the derived matrices (row_ptr, col_idx, values), recorded
    # with the code before the constructors shared one sort, and of a
    # 5-column transpose product.  The product's operand scales normal
    # samples by exact powers of two (np.ldexp), since numpy's 10.0 **
    # rounds some values differently with and without AVX-512
    DIGESTS = {
        (16, True): {
            "A+0.1I": "91c2dd8e49e565fefbc9660ed22e941555691b05e8d4a225003cf7fd23ad6efb",
            "C+1e-3I": "cd0dc51b591e392e99869eca7220722857705d6bd218611032d275a48b2bd415",
            "BBt+0.01I": "4c08bef45ef85b9c99b4f9d2f7fd2ede9b71551d084839eb97ed2acf3261c825",
            "B^T Y": "d516caee368ac00bd8e00e546b40de223db538ee799cf5733f6ca9975c40f244",
        },
        (64, False): {
            "A+0.1I": "aeb83f01702f209d55321bd7c0e66007f9e5660a330ced2adaee8405083f825e",
            "C+1e-3I": "a7037904d0f16833d25de8934d9af592b74351bb4a3a15eb5b92ea8cb7b4dbad",
            "BBt+0.01I": "230c70696c7281a2ba6cc92ea64f2adab90a77c33b7a45fc142f7e1036bf4976",
            "B^T Y": "470d6fc81d2a7528a75d7dd7e2d8e84785579e93655b03176303b459750160bc",
        },
    }

    @pytest.mark.parametrize("q,pin", sorted(DIGESTS))
    def test_derived_digests(self, q, pin):
        sys_ = generate_stokes_q1p0(StokesConfig(q, pin_pressure=pin))
        rng = np.random.default_rng(q)
        m = sys_.m
        Y = np.ldexp(rng.standard_normal((m, 5)), rng.integers(-26, 27, (m, 5)))
        matrices = {"A+0.1I": add_scaled_identity(sys_.A, 0.1),
                    "C+1e-3I": add_scaled_identity(sys_.C, 1e-3),
                    "BBt+0.01I": add_scaled_identity(sys_.B._gram, 0.01)}
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
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, frob * np.linalg.norm(x) * np.linalg.norm(y))

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


@functools.cache
def unpinned_stokes(q):
    return generate_stokes_q1p0(StokesConfig(q, pin_pressure=False))


def band_matrix(nrows, ncols, offsets, seed):
    # the given diagonals with about a tenth of their entries left out,
    # so some rows miss their diagonal entry, plus two empty rows
    rng = np.random.default_rng(seed)
    i = np.arange(nrows)
    rows = np.concatenate([i[(i + d >= 0) & (i + d < ncols)] for d in offsets])
    cols = np.concatenate([i[(i + d >= 0) & (i + d < ncols)] + d for d in offsets])
    keep = (rng.random(rows.size) < 0.9) & (rows != 3) & (rows != nrows // 2)
    return CsrMatrix.from_triplets(nrows, ncols, rows[keep], cols[keep],
                                   rng.standard_normal(keep.sum()))


def diagonal_cases():
    # matrices the diagonal layout takes
    yield "stokes32-A", lambda: unpinned_stokes(32).A
    yield "stokes64-A", lambda: unpinned_stokes(64).A
    yield "stokes64-A+0.1I", lambda: add_scaled_identity(unpinned_stokes(64).A, 0.1)
    yield "stokes64-BBt+0.01I", lambda: add_scaled_identity(unpinned_stokes(64).B._gram, 0.01)
    yield "band-with-holes", lambda: band_matrix(6000, 6000, (-70, -1, 0, 1, 70), seed=1)
    yield "tall-band", lambda: band_matrix(5000, 4000, (-9, -2, 0, 5), seed=2)
    yield "wide-band", lambda: band_matrix(6000, 7000, (1, 3, 800), seed=3)


def padded_cases():
    # matrices that stay on the padded layout, each with the rule that
    # keeps it there: more diagonals than its widest row has entries,
    # fewer slots than the floor, or a single row
    yield "stokes64-B", "diagonals", lambda: unpinned_stokes(64).B
    yield "stokes128-C", "diagonals", lambda: unpinned_stokes(128).C
    yield "stokes64-C+0.1I", "slots", lambda: add_scaled_identity(unpinned_stokes(64).C, 0.1)
    yield "stokes16-A", "slots", lambda: unpinned_stokes(16).A
    yield "random-A", "diagonals", lambda: generate_random_saddle(200, 80, seed=4).A
    yield "one-row", "rows", lambda: CsrMatrix.from_dense(np.arange(1.0, 20001.0)[None, :])


class TestDiagonalLayout:
    @pytest.mark.parametrize("case", list(diagonal_cases()), ids=lambda c: c[0])
    def test_same_bits_as_padded_product(self, case):
        M = case[1]()
        assert M._diagonals is not None
        rng = np.random.default_rng(M.nrows + M.ncols)
        X = wide_range_columns(rng, M.ncols, k=5)
        block = spmv(M, X)
        xz, _ = _operand(M, X)
        assert np.array_equal(block, _padded_mul(M._padded_rows, _padded_operand(M, xz), M.nrows))
        assert np.array_equal(block, _diagonal_mul(M._diagonals, xz))
        for j in range(X.shape[1]):
            y = spmv(M, X[:, j])
            xz, _ = _operand(M, X[:, j])
            assert np.array_equal(y, _padded_mul(M._padded_rows, _padded_operand(M, xz), M.nrows))
            assert np.array_equal(y, block[:, j])

    @pytest.mark.parametrize("case", [c for c in diagonal_cases()
                                      if c[0] in ("stokes32-A", "band-with-holes", "tall-band", "wide-band")],
                             ids=lambda c: c[0])
    def test_non_finite_x_stays_out_of_rows_without_entries(self, case):
        # 0 * inf would be NaN along a diagonal; the padded layout keeps
        # rows without an entry in an inf or NaN column exactly finite.
        # Column 3 is read by row 3, empty in the band matrices and an
        # identity row of the Stokes A, through its main diagonal.  The
        # wide band's diagonals need no zero after x, but its padded
        # product reads one from the same buffer.
        M = case[1]()
        assert M._diagonals is not None
        rng = np.random.default_rng(7)
        X = wide_range_columns(rng, M.ncols, k=3)
        X[[3, M.ncols // 3], 0] = np.inf
        X[M.ncols - 2, 1] = np.nan
        X[0, 2] = -np.inf
        Y = wide_range_columns(rng, M.nrows, k=1)
        assert_matches_bincount(M, X, Y)

    @pytest.mark.parametrize("case", [c for c in diagonal_cases()
                                      if c[0] in ("band-with-holes", "tall-band", "wide-band")],
                             ids=lambda c: c[0])
    def test_offsets_match_unique(self, case):
        # one bincount of the shifted offsets finds what np.unique with
        # return_inverse found: the offsets and where each entry goes
        M = case[1]()
        starts, val, before, length = M._diagonals
        offsets, which = np.unique(M.col_idx - M._rows, return_inverse=True)
        want = np.zeros((offsets.size, M.nrows))
        want[which, M._rows] = M.values
        assert np.array_equal(starts - before, offsets) and starts.dtype == offsets.dtype
        assert np.array_equal(val, want)
        assert before == max(0, -offsets[0])
        assert length == before + M.ncols + max(1, M.nrows + offsets[-1] - M.ncols)

    @pytest.mark.parametrize("case", list(padded_cases()), ids=lambda c: c[0])
    def test_stays_on_padded_layout(self, case):
        _, rule, make = case
        M = make()
        slots = M.nrows * M._width()
        assert {"diagonals": M.nrows >= 2 and slots >= sparse._DIAGONAL_MIN_SLOTS,
                "slots": M.nrows >= 2 and slots < sparse._DIAGONAL_MIN_SLOTS,
                "rows": M.nrows == 1 and slots >= sparse._DIAGONAL_MIN_SLOTS}[rule]
        assert M._diagonals is None
        rng = np.random.default_rng(M.nrows + M.ncols)
        assert_matches_bincount(M, wide_range_columns(rng, M.ncols, k=2),
                                wide_range_columns(rng, M.nrows, k=1))

    def test_small_workloads_never_take_it(self, monkeypatch):
        # the pinned Stokes q=16 Table-2 rows and the spectral checks on a
        # random (60, 24) system and on pinned Stokes q=8 stay padded
        from sadprec import spectral, stationary
        from sadprec.krylov import StoppingRule, gmres_restarted, saddle_operator
        from sadprec.precond import PrecondSpec, make_preconditioner

        def refuse(layout, xz):
            raise AssertionError("a small workload reached the diagonal layout")

        monkeypatch.setattr(sparse, "_diagonal_mul", refuse)
        sys16 = generate_stokes_q1p0(StokesConfig(16))
        rule = StoppingRule(rel_tol=1e-9, max_outer=2000, restart=5)
        for spec in (PrecondSpec("mgss", alpha=1e-3, beta=1e-3), PrecondSpec("rmgss", beta=1e-3)):
            assert gmres_restarted(saddle_operator(sys16), sys16.rhs(),
                                   make_preconditioner(sys16, spec), rule).converged
        for sys_ in (generate_random_saddle(60, 24, seed=12), generate_stokes_q1p0(StokesConfig(8))):
            spectral.predicted_rmgss_spectrum(sys_, 1e-3)
            spectral.dense_eigen_real_schur(spectral.rmgss_preconditioned_dense(sys_, 1e-3))
            spectral.iteration_matrix_check(sys_, 0.1, 0.1)
            spectral.power_spectral_radius(stationary.IterationMatrixOperator(sys_, 0.1, 0.1))


def assert_symmetry_fault(M, fault):
    # _check_symmetric passes when fault is None, else names the fault
    if fault is None:
        _check_symmetric(M, "M")
    else:
        with pytest.raises(ValueError, match=f"M is {fault} non-symmetric"):
            _check_symmetric(M, "M")


class TestSaddleSystem:
    def test_rhs_sign(self, toy_t1):
        sys_ = toy_t1
        assert np.array_equal(sys_.rhs(), np.array([1.0, -0.0]))

    def test_assemble_toy(self, toy_t1):
        # A=[2], B=[1], C=[0] gives [[2,1],[-1,0]]
        acal = to_dense(assemble_block_saddle(toy_t1))
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

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: generate_random_saddle(60, 24, seed=12), id="random60x24"),
        pytest.param(lambda: generate_stokes_q1p0(StokesConfig(8)), id="stokes8-pinned"),
        pytest.param(lambda: generate_stokes_q1p0(StokesConfig(8, pin_pressure=False)), id="stokes8-unpinned"),
        pytest.param(lambda: SaddleSystem(CsrMatrix.from_dense([[2.0, 1.0], [1.0, 3.0]]), CsrMatrix.zeros(0, 2),
                                          CsrMatrix.zeros(0, 0), np.ones(2), np.zeros(0)), id="m0"),
    ])
    def test_saddle_dense_is_the_assembled_matrix_bitwise(self, make):
        sys_ = make()
        assert saddle_dense(sys_).tobytes() == to_dense(assemble_block_saddle(sys_)).tobytes()

    def test_saddle_dense_refused_as_to_dense(self, monkeypatch):
        sys_ = generate_random_saddle(12, 5, seed=1)
        monkeypatch.setenv("SADPREC_DENSE_CAP", "288")  # 17 x 17 = 289 entries
        with pytest.raises(ValueError) as want:
            to_dense(assemble_block_saddle(sys_))
        with pytest.raises(ValueError) as got:
            saddle_dense(sys_)
        assert str(got.value) == str(want.value) == "dense conversion of 17x17 exceeds cap of 288 entries"

    def test_asymmetric_A_rejected(self):
        A = CsrMatrix.from_dense([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            SaddleSystem(A, CsrMatrix.zeros(1, 2), CsrMatrix.zeros(1, 1), np.zeros(2), np.zeros(1))

    # the mirror of (0, 1) differs from it by a hair more or less than
    # 1e-12 max |a| = 4e-12
    BELOW, ABOVE = 1.0 + 0.999 * 4e-12, 1.0 + 1.001 * 4e-12
    SYMMETRY_CASES = [
        ("symmetric", [[4.0, 1.0, 0.0], [1.0, 2.0, -3.0], [0.0, -3.0, 1.0]], None),
        ("missing-mirror", [[4.0, 1.0, 0.0], [1.0, 2.0, -3.0], [0.0, 0.0, 1.0]], "structurally"),
        # every row and column holds two entries, but (0, 1) has no mirror
        ("same-counts", [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], "structurally"),
        ("mirror-just-below", [[4.0, 1.0], [BELOW, 2.0]], None),
        ("mirror-just-above", [[4.0, 1.0], [ABOVE, 2.0]], "numerically"),
        ("non-square", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "structurally"),
        ("non-square-nnz0", np.zeros((2, 3)), "structurally"),
        ("nnz0", np.zeros((3, 3)), None),
        ("empty", np.zeros((0, 0)), None),
        # non-finite entries pass, for the caller to report
        ("nan-mirror", [[4.0, np.nan], [1.0, 2.0]], None),
        ("inf-mirror", [[4.0, np.inf], [1.0, 2.0]], None),
        ("inf-diagonal", [[np.inf, 1.0], [1.0, 2.0]], None),
    ]

    @pytest.mark.parametrize("case", SYMMETRY_CASES, ids=lambda c: c[0])
    def test_symmetry_check(self, case):
        _, arr, fault = case
        assert_symmetry_fault(CsrMatrix.from_dense(arr), fault)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry_check_agrees_with_triplet_transpose(self, seed):
        # a symmetric matrix, kept, or with one entry above the diagonal
        # dropped or perturbed, judged against the transpose built by
        # from_triplets
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 12)) * (rng.random((12, 12)) < 0.3)
        a = a + a.T
        i, j = rng.choice(np.argwhere(np.triu(a, 1)))
        a[i, j] *= [1.0, 0.0, 1.0 + 1e-11][seed % 3]
        M = CsrMatrix.from_dense(a)
        Mt = CsrMatrix.from_triplets(12, 12, M.col_idx, M.to_triplets()[0], M.values)
        if not (np.array_equal(M.row_ptr, Mt.row_ptr) and np.array_equal(M.col_idx, Mt.col_idx)):
            fault = "structurally"
        elif np.abs(M.values - Mt.values).max(initial=0.0) > 1e-12 * np.abs(M.values).max(initial=0.0):
            fault = "numerically"
        else:
            fault = None
        assert_symmetry_fault(M, fault)

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


@functools.cache
def operand_entry_points():
    # each entry point that takes a vector or a block of columns: the
    # call, the number of rows it takes and how its message names it
    sys_ = generate_random_saddle(14, 10, seed=1)
    app = make_preconditioner(sys_, PrecondSpec("mgss"))
    return {
        "spmv": (lambda x: spmv(sys_.B, x), 14, "matrix is 10x14"),
        "spmv_transpose": (lambda x: spmv_transpose(sys_.B, x), 10, "matrix is 10x14"),
        "factor.solve": (lambda x: factor.solve(app.shifted_factor, x), 10, "factor of size 10"),
        "apply": (app.apply, 24, "system of order 24"),
        "schur": (app.schur, 14, "operator of dimension 14"),
    }


class TestInputChecks:
    # sparse._check_operand and sparse._square are the one home of each refusal

    @pytest.mark.parametrize("shape", [lambda n: (), lambda n: (n + 1,), lambda n: (n, 2, 2)],
                             ids=["0d", "long", "3d"])
    @pytest.mark.parametrize("entry", ["spmv", "spmv_transpose", "factor.solve", "apply", "schur"])
    def test_operand_refusal(self, entry, shape):
        call, n, what = operand_entry_points()[entry]
        shape = shape(n)
        message = f"dimension mismatch: {what}, operand has shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(np.ones(shape))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)], ids=["2x3", "1d", "3d"])
    @pytest.mark.parametrize("entry", [factor.cholesky_dense, spectral.jacobi_symmetric,
                                       spectral.dense_eigen_real_schur],
                             ids=["cholesky_dense", "jacobi_symmetric", "dense_eigen_real_schur"])
    def test_square_refusal(self, entry, shape):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            entry(np.ones(shape))
