import numpy as np
import pytest

from sadprec import factor
from sadprec.sparse import CsrMatrix, to_dense


def random_spd(n, seed, density=0.4):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    M = W @ W.T + np.eye(n)
    return CsrMatrix.from_dense(0.5 * (M + M.T))


def both_backends(M, monkeypatch):
    """The dense and the sparse factor of M; a dense cap of 0 selects the sparse one."""
    dense = factor.cholesky(M)
    with monkeypatch.context() as mp:
        mp.setenv("SADPREC_DENSE_CAP", "0")
        sparse = factor.cholesky(M)
    assert (dense.kind, sparse.kind) == ("dense", "sparse")
    return dense, sparse


class TestCholesky:
    def test_hand_2x2(self):
        M = CsrMatrix.from_dense([[4.0, 2.0], [2.0, 5.0]])
        fac = factor.cholesky(M)
        assert np.allclose(fac.L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_identity(self):
        fac = factor.cholesky(CsrMatrix.identity(5))
        assert np.allclose(fac.L, np.eye(5))

    def test_indefinite_rejected(self, monkeypatch):
        # eigenvalues 3 and -1
        M = CsrMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky(M)
        monkeypatch.setenv("SADPREC_DENSE_CAP", "0")
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky(M)

    def test_nan_pivot_rejected(self, monkeypatch):
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky_dense([[np.nan, 0.0], [0.0, 1.0]])
        monkeypatch.setenv("SADPREC_DENSE_CAP", "0")
        with pytest.raises(factor.NotPositiveDefiniteError):
            factor.cholesky(CsrMatrix.from_dense([[np.nan, 0.0], [0.0, 1.0]]))

    def test_reconstruction_both_backends(self, monkeypatch):
        M = random_spd(40, seed=2)
        dense = to_dense(M)
        for fac in both_backends(M, monkeypatch):
            L = fac.L if fac.kind == "dense" else to_dense(fac.L)
            rebuilt = L @ L.T
            err = np.linalg.norm(rebuilt - dense) / np.linalg.norm(dense)
            assert err <= 1e-10


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

    @pytest.mark.parametrize("n,seed", [(10, 0), (60, 1), (200, 2)])
    def test_residual_random_spd(self, n, seed, monkeypatch):
        M = random_spd(n, seed)
        b = np.random.default_rng(seed + 100).standard_normal(n)
        for fac in both_backends(M, monkeypatch):
            x = factor.solve(fac, b)
            from sadprec.sparse import spmv

            assert np.linalg.norm(spmv(M, x) - b) <= 1e-9 * np.linalg.norm(b)

    def test_multiple_rhs_columns(self):
        M = random_spd(25, seed=5)
        rng = np.random.default_rng(9)
        Bcols = rng.standard_normal((25, 4))
        fac = factor.cholesky(M)
        X = factor.solve(fac, Bcols)
        for j in range(4):
            assert np.allclose(X[:, j], factor.solve(fac, Bcols[:, j]))


class TestFactorContract:
    def test_diagonal_positive(self, monkeypatch):
        M = random_spd(30, seed=11)
        for fac in both_backends(M, monkeypatch):
            diag = np.diagonal(fac.L) if fac.kind == "dense" else to_dense(fac.L).diagonal()
            assert np.all(diag > 0)

    def test_cholesky_dense_entry_point(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        fac = factor.cholesky_dense(a)
        assert np.allclose(fac.L @ fac.L.T, a)
