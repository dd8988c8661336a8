import re

import numpy as np
import pytest

from sadprec import factor, sparse
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0
from sadprec.sparse import CsrMatrix, add_scaled_identity, spmv, to_dense


def random_spd(n, seed, density=0.4):
    """One connected component: a single stack of one."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    M = W @ W.T + np.eye(n)
    return CsrMatrix.from_dense(0.5 * (M + M.T))


def tiled_spd(n, seed):
    """Many components, like the Stokes macroelement tiles of beta I + C.

    Component sizes cycle through 4, 1, 4, 3, 4, 2 (the last one cut to
    fit n), and each component takes rows scattered over the whole
    numbering, so components interleave.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    M = np.zeros((n, n))
    start, sizes = 0, (4, 1, 4, 3, 4, 2)
    while start < n:
        idx = perm[start:start + sizes[0]]
        W = rng.standard_normal((idx.size, idx.size))
        M[np.ix_(idx, idx)] = W @ W.T + np.eye(idx.size)
        start += sizes[0]
        sizes = sizes[1:] + sizes[:1]
    return CsrMatrix.from_dense(0.5 * (M + M.T))


def stokes_shifted_q16():
    """beta I + C of pinned Stokes q=16: 63 tiles of 4 pressures and one of 3."""
    return add_scaled_identity(generate_stokes_q1p0(StokesConfig(16)).C, 1e-3)


def both_cases(n, seed):
    return random_spd(n, seed), tiled_spd(n, seed)


def ill_conditioned_spd(n, cond, seed):
    """Q diag(1 .. 1/cond) Q^T, eigenvalues spaced geometrically."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (Q * np.geomspace(1.0, 1.0 / cond, n)) @ Q.T
    return 0.5 * (M + M.T)


def counting_inv(monkeypatch):
    """Count the calls to np.linalg.inv from here on."""
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def lower(fac):
    """The factor as one dense lower-triangular matrix in the original numbering."""
    L = np.zeros((fac.size, fac.size))
    for index, blocks in fac.blocks:
        L[index[:, :, None], index[:, None, :]] = blocks
    return L


class TestCholesky:
    def test_hand_2x2(self):
        M = CsrMatrix.from_dense([[4.0, 2.0], [2.0, 5.0]])
        fac = factor.cholesky(M)
        assert np.allclose(lower(fac), [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_identity(self):
        fac = factor.cholesky(CsrMatrix.identity(5))
        assert np.allclose(lower(fac), np.eye(5))

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky(CsrMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))
        # the same 2x2 block among SPD tiles, on rows 3 and 40
        D = to_dense(tiled_spd(60, seed=3))
        D[[3, 40], :] = 0.0
        D[:, [3, 40]] = 0.0
        D[np.ix_([3, 40], [3, 40])] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky(CsrMatrix.from_dense(D))

    def test_nan_pivot_rejected(self):
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky_dense([[np.nan, 0.0], [0.0, 1.0]])
        # one component, then two singletons
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky(CsrMatrix.from_dense([[np.nan, 1.0], [1.0, 2.0]]))
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky(CsrMatrix.from_dense([[np.nan, 0.0], [0.0, 1.0]]))

    def test_dense_non_symmetric_rejected(self):
        # only the lower triangle would be factored: solving against e1
        # would give (0.2667, -0.0667), not the true (0.25, -0.0625)
        with pytest.raises(ValueError, match="not symmetric") as exc:
            factor.cholesky_dense([[4.0, 0.0], [1.0, 4.0]])
        assert not isinstance(exc.value, factor.NotPositiveDefiniteError)
        # the rule of spectral.jacobi_symmetric: 1e-12 max |a|, below
        # unit scale too
        factor.cholesky_dense([[4.0, 4e-12], [0.0, 4.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            factor.cholesky_dense([[4.0, 5e-12], [0.0, 4.0]])
        factor.cholesky_dense([[0.5, 5e-13], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not symmetric"):
            factor.cholesky_dense([[0.5, 6e-13], [0.0, 0.5]])

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_dense_nan_anywhere_rejected(self, where):
        a = np.array([[4.0, 1.0], [1.0, 4.0]])
        a[where] = np.nan
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky_dense(a)

    @pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)], ids=["above", "below", "diagonal"])
    def test_csr_nan_anywhere_rejected(self, where):
        # a NaN passes the symmetry check, and LAPACK reads only the lower
        # triangle: above the diagonal it used to be dropped, and the solve
        # against e1 gave (0.2667, -0.0667)
        a = np.array([[4.0, 1.0], [1.0, 4.0]])
        a[where] = np.nan
        with pytest.raises(factor.NotPositiveDefiniteError, match="NaN entry"):
            factor.cholesky(CsrMatrix.from_dense(a))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)], ids=["above", "below", "diagonal"])
    def test_inf_anywhere_rejected(self, where, bad):
        # an inf made the symmetry checks' tolerance inf, so any asymmetry
        # passed: [[4, inf], [1, 4]] was factored as [[4, 1], [1, 4]]
        a = np.array([[4.0, 1.0], [1.0, 4.0]])
        a[where] = bad
        with pytest.raises(factor.NotPositiveDefiniteError, match="an inf entry"):
            factor.cholesky_dense(a)
        with pytest.raises(factor.NotPositiveDefiniteError, match="an inf entry"):
            factor.cholesky(CsrMatrix.from_dense(a))

    def test_pivot_rule_spans_components(self):
        # the 1e-14 rule is relative to the largest diagonal entry of the
        # whole matrix, not of each component
        M = CsrMatrix.from_dense(np.diag([1e20, 1e7, 1e-7]))
        with pytest.raises(factor.NotPositiveDefiniteError, match="at row 2"):
            factor.cholesky(M)

    def test_reconstruction_both_backends(self):
        for M in both_cases(40, seed=2):
            dense = to_dense(M)
            fac = factor.cholesky(M)
            L = lower(fac)
            err = np.linalg.norm(L @ L.T - dense) / np.linalg.norm(dense)
            assert err <= 1e-10
            # no fill across components: the natural-ordering factor
            assert np.allclose(L, np.linalg.cholesky(dense), rtol=0, atol=1e-12 * np.abs(dense).max())
            assert fac.size == 40

    def test_components_grouped_by_size(self):
        fac = factor.cholesky(tiled_spd(60, seed=4))
        assert sorted(L.shape[1:] for _, L in fac.blocks) == [(1, 1), (2, 2), (3, 3), (4, 4)]
        rows = np.concatenate([index.ravel() for index, _ in fac.blocks])
        assert np.array_equal(np.sort(rows), np.arange(60))
        for index, L in fac.blocks:
            assert L.shape == index.shape + index.shape[1:]
            assert np.all(np.diff(index, axis=1) > 0)
        # a single component is one stack of one
        [(index, L)] = factor.cholesky(random_spd(30, seed=4)).blocks
        assert np.array_equal(index, np.arange(30)[None])

    def test_component_above_cap_rejected(self, monkeypatch):
        M = tiled_spd(60, seed=5)
        monkeypatch.setenv("SADPREC_DENSE_CAP", "16")
        factor.cholesky(M)  # 60 * 60 entries as a whole, 4 * 4 per component
        monkeypatch.setenv("SADPREC_DENSE_CAP", "15")
        with pytest.raises(ValueError, match="SADPREC_DENSE_CAP"):
            factor.cholesky(M)


def stokes_c(q, **kw):
    return generate_stokes_q1p0(StokesConfig(q, **kw)).C


SHIFTED_CASES = {
    **{f"stokes{q}-{'pinned' if pin else 'unpinned'}": (lambda q=q, pin=pin: stokes_c(q, pin_pressure=pin))
       for q in (2, 8, 16, 64) for pin in (True, False)},
    "stokes8-no-stabilization": lambda: stokes_c(8, stab_param=0.0),
    "random60x24": lambda: generate_random_saddle(60, 24, seed=3).C,
    "m0": lambda: CsrMatrix.zeros(0, 0),
}


class TestShiftedCholesky:
    @pytest.mark.parametrize("shift", [1e-3, 0.1])
    @pytest.mark.parametrize("case", list(SHIFTED_CASES))
    def test_bitwise_equal_to_assembled_shift(self, case, shift):
        M = SHIFTED_CASES[case]()
        got = factor.cholesky(M, shift).blocks
        want = factor.cholesky(add_scaled_identity(M, shift)).blocks
        assert len(got) == len(want)
        for (index, L), (index_want, L_want) in zip(got, want):
            assert np.array_equal(index, index_want)
            assert L.tobytes() == L_want.tobytes()

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(factor.NotPositiveDefiniteError, match="shift"):
            factor.cholesky(CsrMatrix.identity(3), shift)

    def test_exact_cancellation_fails_pivot_rule(self):
        # -1/2 + 1/2 is exactly 0, which add_scaled_identity drops
        M = CsrMatrix.from_dense([[-0.5, 0.0], [0.0, 1.0]])
        errors = []
        for A, shift in ((M, 0.5), (add_scaled_identity(M, 0.5), 0.0)):
            with pytest.raises(factor.NotPositiveDefiniteError) as exc:
                factor.cholesky(A, shift)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_analysis_cached_once_per_matrix(self, monkeypatch):
        calls = []
        real = sparse._component_labels

        def counting(n, rows, cols):
            calls.append(n)
            return real(n, rows, cols)

        monkeypatch.setattr(sparse, "_component_labels", counting)
        M = tiled_spd(30, seed=6)
        facs = [factor.cholesky(M, s) for s in (0.0, 1e-3, 0.1)]
        assert calls == [30]
        # the shift reaches the values only
        assert np.allclose(lower(facs[2]) @ lower(facs[2]).T, to_dense(M) + 0.1 * np.eye(30))

    def test_symmetry_checked_on_the_matrix_itself(self):
        # the rule of SaddleSystem, 1e-12 times max |M|: measured against
        # max |M + shift I| = 1e6 + 1, this skew of 2e-12 would pass
        M = CsrMatrix.from_dense([[1.0, 1.0 + 2e-12], [1.0, 1.0]])
        with pytest.raises(ValueError, match="numerically non-symmetric"):
            factor.cholesky(M, 1e6)


def tile_solve(fac, b):
    """x = Linv^T (Linv b) tile by tile, each row summed left to right from +0.0.

    Linv is ``np.linalg.inv`` of each tile's factor, taken one tile at a
    time; a vector b and each column of a block b give the same sums.
    """
    y, x = np.zeros_like(b), np.zeros_like(b)
    for index, L in fac.blocks:
        for rows, Lc in zip(index, L):
            Linv = np.tril(np.linalg.inv(Lc))
            for p, row in enumerate(rows):
                for s, col in enumerate(rows):
                    y[row] = y[row] + Linv[p, s] * b[col]
            for p, row in enumerate(rows):
                for s, col in enumerate(rows):
                    x[row] = x[row] + Linv[s, p] * y[col]
    return x


class TestSolve:
    def test_identity(self):
        fac = factor.cholesky(CsrMatrix.identity(3))
        b = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(factor.solve(fac, b), b)

    def test_hand_2x2(self):
        # dense solve oracle: [[4,2],[2,5]] x = (8,9) has x = (1.375, 1.25)
        fac = factor.cholesky(CsrMatrix.from_dense([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(factor.solve(fac, np.array([8.0, 9.0])), [1.375, 1.25], atol=1e-14)

    def test_scalar_shifted(self):
        # beta I + C with beta = 1, C = [0]: solve 1 * w = 2
        fac = factor.cholesky(CsrMatrix.from_dense([[1.0]]))
        assert factor.solve(fac, np.array([2.0]))[0] == 2.0

    def test_dimension_mismatch(self):
        fac = factor.cholesky(CsrMatrix.identity(3))
        with pytest.raises(ValueError):
            factor.solve(fac, np.ones(4))

    @pytest.mark.parametrize("shape", [(), (3, 2, 2)], ids=["0d", "3d"])
    def test_operand_neither_vector_nor_block(self, shape):
        for fac in (factor.cholesky(tiled_spd(3, seed=0)), factor.cholesky_dense(np.eye(3))):
            with pytest.raises(ValueError, match=rf"factor of size 3, operand has shape {re.escape(str(shape))}"):
                factor.solve(fac, np.ones(shape))

    def test_one_component_is_two_blas_products(self):
        # the dense inverse factor, multiplied as Linv^T (Linv b)
        rng = np.random.default_rng(3)
        b, B = rng.standard_normal(40), rng.standard_normal((40, 5))
        for fac in (factor.cholesky(random_spd(40, seed=3)),
                    factor.cholesky_dense(to_dense(random_spd(40, seed=4)))):
            [(index, L)] = fac.blocks
            assert index.shape == (1, 40)
            Linv = np.tril(np.linalg.inv(L[0]))
            for rhs in (b, B):
                assert np.array_equal(factor.solve(fac, rhs), Linv.T @ (Linv @ rhs))

    @pytest.mark.parametrize("M", [tiled_spd(60, seed=8), stokes_shifted_q16()], ids=["tiled60", "stokes16"])
    def test_tiles_block_columns_match_vector_solves(self, M):
        fac = factor.cholesky(M)
        assert len(fac.blocks) > 1
        B = np.random.default_rng(10).standard_normal((M.nrows, 5))
        X = factor.solve(fac, B)
        dense = to_dense(M)
        for j in range(5):
            assert np.array_equal(X[:, j], factor.solve(fac, B[:, j]))
            ref = np.linalg.solve(dense, B[:, j])
            assert np.linalg.norm(X[:, j] - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("M", [tiled_spd(60, seed=8), stokes_shifted_q16()], ids=["tiled60", "stokes16"])
    def test_tiles_have_the_bits_of_a_row_by_row_reference(self, M):
        fac = factor.cholesky(M)
        assert len(fac.blocks) > 1
        rng = np.random.default_rng(12)
        for b in (rng.standard_normal(M.nrows), rng.standard_normal((M.nrows, 3))):
            assert factor.solve(fac, b).tobytes() == tile_solve(fac, b).tobytes()

    @pytest.mark.parametrize("M", [random_spd(40, seed=3), tiled_spd(60, seed=8)], ids=["one", "tiled60"])
    def test_block_bits_do_not_depend_on_memory_layout(self, M):
        # b is copied into a C-ordered operand buffer first
        fac = factor.cholesky(M)
        B = np.random.default_rng(13).standard_normal((M.nrows, 30))
        want = factor.solve(fac, B).tobytes()
        for layout in (np.asfortranarray(B), np.repeat(B, 2, axis=1)[:, ::2]):
            assert factor.solve(fac, layout).tobytes() == want

    def test_nan_stays_in_its_tile(self):
        M = stokes_shifted_q16()
        fac = factor.cholesky(M)
        b = np.random.default_rng(11).standard_normal(M.nrows)
        finite = factor.solve(fac, b)
        for index in (tile for stack, _ in fac.blocks for tile in stack):
            poisoned = b.copy()
            poisoned[index[0]] = np.nan
            x = factor.solve(fac, poisoned)
            others = np.setdiff1d(np.arange(M.nrows), index)
            assert np.isnan(x[index]).any()
            assert np.array_equal(x[others], finite[others])

    @pytest.mark.parametrize("n,seed", [(10, 0), (60, 1), (200, 2)])
    def test_residual_random_spd(self, n, seed):
        b = np.random.default_rng(seed + 100).standard_normal(n)
        for M in both_cases(n, seed):
            x = factor.solve(factor.cholesky(M), b)
            assert np.linalg.norm(spmv(M, x) - b) <= 1e-9 * np.linalg.norm(b)

    def test_multiple_rhs_columns(self):
        rng = np.random.default_rng(9)
        Bcols = rng.standard_normal((25, 4))
        for M in both_cases(25, seed=5):
            fac = factor.cholesky(M)
            X = factor.solve(fac, Bcols)
            assert X.shape == (25, 4)
            for j in range(4):
                assert np.allclose(X[:, j], factor.solve(fac, Bcols[:, j]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n,seed", [(7, 0), (60, 1), (150, 2)])
    def test_matches_dense_solve(self, n, seed):
        rng = np.random.default_rng(seed + 200)
        b, B = rng.standard_normal(n), rng.standard_normal((n, 3))
        for M in both_cases(n, seed):
            dense = to_dense(M)
            fac = factor.cholesky(M)
            for rhs in (b, B):
                x = factor.solve(fac, rhs)
                ref = np.linalg.solve(dense, rhs)
                assert x.shape == rhs.shape
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("cond", [1e2, 1e5, 1e8, 1e11, 1e13])
    def test_ill_conditioned(self, cond):
        # the explicit triangular inverses stay backward stable: scaled
        # residual near machine precision, forward error within cond * eps
        M = ill_conditioned_spd(60, cond, seed=int(np.log10(cond)))
        x_true = np.random.default_rng(1).standard_normal(60)
        b = M @ x_true
        x = factor.solve(factor.cholesky(CsrMatrix.from_dense(M)), b)
        assert np.linalg.norm(M @ x - b) <= 1e-13 * np.linalg.norm(M, 2) * np.linalg.norm(x)
        assert np.linalg.norm(x - x_true) <= 1e-14 * cond * np.linalg.norm(x_true)

    def test_cholesky_builds_no_inverse(self, monkeypatch):
        calls = counting_inv(monkeypatch)
        for M in both_cases(30, seed=6):
            factor.cholesky(M)
        factor.cholesky_dense(np.eye(4))
        assert calls == []

    def test_inverse_built_once_per_stack(self, monkeypatch):
        calls = counting_inv(monkeypatch)
        fac = factor.cholesky(tiled_spd(60, seed=7))
        b = np.ones(60)
        first = factor.solve(fac, b)
        for rhs in (b, np.ones((60, 2)), b):
            factor.solve(fac, rhs)
        assert sorted(calls) == sorted(L.shape for _, L in fac.blocks)
        assert np.array_equal(factor.solve(fac, b), first)

    def test_empty(self):
        fac = factor.cholesky(CsrMatrix.zeros(0, 0))
        assert factor.solve(fac, np.zeros(0)).shape == (0,)
        assert factor.solve(fac, np.zeros((0, 3))).shape == (0, 3)


class TestFactorContract:
    def test_diagonal_positive(self):
        for M in both_cases(30, seed=11):
            assert np.all(np.diagonal(lower(factor.cholesky(M))) > 0)

    def test_cholesky_dense_entry_point(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        L = lower(factor.cholesky_dense(a))
        assert np.allclose(L @ L.T, a)
