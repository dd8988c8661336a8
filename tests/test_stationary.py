import numpy as np
import pytest

from sadprec.krylov import StoppingRule, saddle_operator, stationary_richardson
from sadprec.precond import MgssApplicator, PrecondSpec, dense_preconditioner_matrix
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0
from sadprec.sparse import CsrMatrix, SaddleSystem, assemble_block_saddle, to_dense
from sadprec.spectral import power_spectral_radius
from sadprec.stationary import IterationMatrixOperator


def toy_t1():
    return SaddleSystem(
        CsrMatrix.from_dense([[2.0]]),
        CsrMatrix.from_dense([[1.0]]),
        CsrMatrix.zeros(1, 1),
        np.array([1.0]),
        np.array([0.0]),
    )


TOY_GAMMA = np.array([[-0.5, -0.5], [0.5, 0.5]])  # dense M^{-1} N for alpha=beta=1


class TestGammaOperator:
    def test_toy_dense_oracle(self):
        op = IterationMatrixOperator(toy_t1(), 1.0, 1.0)
        assert np.allclose(op(np.array([1.0, 0.0])), TOY_GAMMA @ [1.0, 0.0], atol=1e-14)

    def test_zero_vector(self):
        op = IterationMatrixOperator(toy_t1(), 1.0, 1.0)
        assert np.allclose(op(np.zeros(2)), np.zeros(2), atol=1e-15)

    def test_toy_null_direction(self):
        op = IterationMatrixOperator(toy_t1(), 1.0, 1.0)
        assert np.allclose(op(np.array([1.0, -1.0])), np.zeros(2), atol=1e-14)

    def test_equals_m_inverse_n(self):
        sys_ = generate_random_saddle(18, 7, seed=6)
        alpha, beta = 0.3, 0.6
        op = IterationMatrixOperator(sys_, alpha, beta)
        M = dense_preconditioner_matrix(sys_, PrecondSpec("mgss", alpha, beta))
        N = M - to_dense(assemble_block_saddle(sys_))
        gamma_dense = np.linalg.solve(M, N)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(25)
        assert np.allclose(op(v), gamma_dense @ v, atol=1e-10)


class TestSplittingIdentity:
    @pytest.mark.parametrize("n,m,seed", [(10, 4, 0), (60, 25, 1), (130, 64, 2)])
    def test_M_minus_N_is_A(self, n, m, seed):
        sys_ = generate_random_saddle(n, m, seed=seed)
        M = dense_preconditioner_matrix(sys_, PrecondSpec("mgss", 0.2, 0.5))
        acal = to_dense(assemble_block_saddle(sys_))
        N = M - acal
        # entrywise: M - N recovers the assembled operator exactly
        assert np.array_equal(M - N, acal)


def run_mgss(sys_, spec, rule):
    # the stationary mgss scheme M u+ = N u + b on A u = (f; -g)
    return stationary_richardson(saddle_operator(sys_), sys_.rhs(), MgssApplicator(sys_, spec), rule)


class TestRunMgss:
    def test_toy_exact_in_two_steps(self):
        # Gamma^2 = 0 for the toy system at alpha=beta=1
        assert np.allclose(TOY_GAMMA @ TOY_GAMMA, np.zeros((2, 2)))
        rep = run_mgss(toy_t1(), PrecondSpec("mgss", 1.0, 1.0, inner="direct"), StoppingRule(1e-12, 10, 5))
        assert rep.converged and rep.outer_iterations <= 2
        assert np.allclose(rep.solution, [0.0, 1.0], atol=1e-12)

    def test_stokes_q8_converges_to_manufactured_solution(self):
        sys_ = generate_stokes_q1p0(StokesConfig(8))
        rng = np.random.default_rng(11)
        u_star = rng.standard_normal(sys_.order)
        b = sys_.matvec(u_star)
        prec = MgssApplicator(sys_, PrecondSpec("mgss", 0.1, 0.1, inner="direct"))
        rep = stationary_richardson(
            saddle_operator(sys_), b, prec, StoppingRule(1e-9, 20000, 5)
        )
        assert rep.converged
        assert rep.residual_history[-1] <= 1e-9 * rep.residual_history[0]
        # forward error is residual times conditioning; the stabilization
        # block is small so kappa is around 1e4 here
        assert np.linalg.norm(rep.solution - u_star) <= 1e-4 * np.linalg.norm(u_star)

    def test_rho_estimate_recorded(self):
        # Gamma is nilpotent for the toy system at alpha=beta=1
        assert power_spectral_radius(IterationMatrixOperator(toy_t1(), 1.0, 1.0)) < 1e-8

    def test_fixed_point_property(self):
        sys_ = generate_random_saddle(24, 10, seed=3)
        acal = to_dense(assemble_block_saddle(sys_))
        u_star = np.linalg.solve(acal, sys_.rhs())
        prec = MgssApplicator(sys_, PrecondSpec("mgss", 0.5, 0.5, inner="direct"))
        step = u_star + prec.apply(sys_.rhs() - sys_.matvec(u_star))
        assert np.linalg.norm(step - u_star) <= 1e-12 * np.linalg.norm(u_star)


class TestSpectralRadiusGrid:
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("beta", [0.001, 0.01, 0.1, 1.0, 10.0])
    def test_rho_below_one(self, alpha, beta):
        from sadprec.spectral import dense_eigen_real_schur, gamma_dense

        for sys_ in (toy_t1(), generate_random_saddle(14, 6, seed=1)):
            lam = dense_eigen_real_schur(gamma_dense(sys_, alpha, beta)).eigenvalues
            assert np.max(np.abs(lam)) < 1.0
