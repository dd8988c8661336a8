import tracemalloc

import numpy as np
import pytest

from sadprec.krylov import StoppingRule, saddle_operator, stationary_richardson
from sadprec.precond import MgssApplicator, PrecondSpec, dense_preconditioner_matrix, shift_diagonal
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0
from sadprec.sparse import CsrMatrix, SaddleSystem, assemble_block_saddle, to_dense
from sadprec.spectral import gamma_dense, power_spectral_radius
from sadprec.stationary import IterationMatrixOperator


TOY_GAMMA = np.array([[-0.5, -0.5], [0.5, 0.5]])  # dense M^{-1} N for alpha=beta=1


GAMMA_CASES = [
    pytest.param(lambda: generate_random_saddle(18, 7, seed=6), 0.3, 0.6, id="random18x7"),
    pytest.param(lambda: generate_stokes_q1p0(StokesConfig(4)), 0.1, 0.1, id="stokes4-pinned"),
]


def m_inverse_n(sys_, alpha, beta):
    # (Sigma + K)^{-1} (Sigma - K) from the dense mgss matrix (Sigma + K) / 2
    K = to_dense(assemble_block_saddle(sys_))
    plus = 2.0 * dense_preconditioner_matrix(sys_, PrecondSpec("mgss", alpha, beta))
    return np.linalg.solve(plus, plus - 2.0 * K)


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestGammaOperator:
    def test_toy_dense_oracle(self, toy_t1):
        op = IterationMatrixOperator(toy_t1, 1.0, 1.0)
        assert np.allclose(op(np.array([1.0, 0.0])), TOY_GAMMA @ [1.0, 0.0], atol=1e-14)

    def test_zero_vector(self, toy_t1):
        op = IterationMatrixOperator(toy_t1, 1.0, 1.0)
        assert np.allclose(op(np.zeros(2)), np.zeros(2), atol=1e-15)

    def test_toy_null_direction(self, toy_t1):
        op = IterationMatrixOperator(toy_t1, 1.0, 1.0)
        assert np.allclose(op(np.array([1.0, -1.0])), np.zeros(2), atol=1e-14)

    @pytest.mark.parametrize("make,alpha,beta", GAMMA_CASES)
    def test_equals_m_inverse_n(self, make, alpha, beta):
        sys_ = make()
        gamma = m_inverse_n(sys_, alpha, beta)
        op = IterationMatrixOperator(sys_, alpha, beta)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(sys_.order)
        V = rng.standard_normal((sys_.order, 5))
        assert rel_err(op(v), gamma @ v) <= 1e-12
        assert rel_err(op(V), gamma @ V) <= 1e-12

    @pytest.mark.parametrize("make,alpha,beta", GAMMA_CASES)
    def test_gamma_dense_equals_m_inverse_n(self, make, alpha, beta):
        sys_ = make()
        assert rel_err(gamma_dense(sys_, alpha, beta), m_inverse_n(sys_, alpha, beta)) <= 1e-12

    @pytest.mark.parametrize("make,alpha,beta", GAMMA_CASES)
    def test_gamma_dense_is_the_solve_with_sigma(self, make, alpha, beta):
        # the bits of one LU solve (Sigma + K)^{-1} (Sigma - K); one direct
        # mgss solve with the columns of Sigma, minus I, agrees to rounding
        sys_ = make()
        spec = PrecondSpec("mgss", alpha=alpha, beta=beta, inner="direct")
        K = to_dense(assemble_block_saddle(sys_))
        sigma = np.diag(shift_diagonal(sys_, spec))
        got = gamma_dense(sys_, alpha, beta)
        assert got.tobytes() == np.linalg.solve(sigma + K, sigma - K).tobytes()
        direct = MgssApplicator(sys_, spec).apply(sigma) - np.eye(sys_.order)
        assert rel_err(got, direct) <= 1e-12

    def test_m_zero(self):
        # no constraints: Gamma = (alpha I + A)^{-1} (alpha I - A)
        Ad = np.array([[2.0, 1.0], [1.0, 3.0]])
        sys_ = SaddleSystem(CsrMatrix.from_dense(Ad), CsrMatrix.zeros(0, 2), CsrMatrix.zeros(0, 0),
                            np.ones(2), np.zeros(0))
        want = np.linalg.solve(0.5 * np.eye(2) + Ad, 0.5 * np.eye(2) - Ad)
        assert rel_err(gamma_dense(sys_, 0.5, 0.3), want) <= 1e-14
        assert rel_err(IterationMatrixOperator(sys_, 0.5, 0.3)(np.eye(2)), want) <= 1e-14

    def test_elimination_built_on_first_application(self):
        sys_ = generate_random_saddle(18, 7, seed=6)
        with pytest.raises(ValueError, match="mgss requires alpha > 0"):
            IterationMatrixOperator(sys_, 0.0, 0.6)
        op = IterationMatrixOperator(sys_, 0.3, 0.6)
        op.dense()
        assert "_prec" not in vars(op)
        op(np.ones(sys_.order))
        assert isinstance(vars(op)["_prec"], MgssApplicator)

    def test_gamma_dense_never_holds_the_identity(self):
        # the old formula applied the operator to the identity and so kept
        # I and Sigma I alive together through the solve
        sys_ = generate_stokes_q1p0(StokesConfig(8, pin_pressure=True))
        gamma_dense(sys_, 0.1, 0.1)  # builds the system's lazy layouts outside the traces

        def peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        old = peak(lambda: IterationMatrixOperator(sys_, 0.1, 0.1)(np.eye(sys_.order)))
        assert peak(lambda: gamma_dense(sys_, 0.1, 0.1)) < old

    def test_one_preconditioner_solve_and_no_saddle_matvec(self, monkeypatch):
        sys_ = generate_random_saddle(18, 7, seed=6)
        calls = {"apply": 0, "matvec": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(MgssApplicator, "apply", counted("apply", MgssApplicator.apply))
        monkeypatch.setattr(SaddleSystem, "matvec", counted("matvec", SaddleSystem.matvec))
        # built after patching, so a bound sys_.matvec taken at construction counts too
        op = IterationMatrixOperator(sys_, 0.3, 0.6)
        for operand in (np.ones(sys_.order), np.ones((sys_.order, 5))):
            calls.update(apply=0, matvec=0)
            op(operand)
            assert calls == {"apply": 1, "matvec": 0}


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
    def test_toy_exact_in_two_steps(self, toy_t1):
        # Gamma^2 = 0 for the toy system at alpha=beta=1
        assert np.allclose(TOY_GAMMA @ TOY_GAMMA, np.zeros((2, 2)))
        rep = run_mgss(toy_t1, PrecondSpec("mgss", 1.0, 1.0, inner="direct"), StoppingRule(1e-12, 10, 5))
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

    def test_rho_estimate_recorded(self, toy_t1):
        # Gamma is nilpotent for the toy system at alpha=beta=1
        assert power_spectral_radius(IterationMatrixOperator(toy_t1, 1.0, 1.0)) < 1e-8

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
    def test_rho_below_one(self, alpha, beta, toy_t1):
        from sadprec.spectral import dense_eigen_real_schur, gamma_dense

        for sys_ in (toy_t1, generate_random_saddle(14, 6, seed=1)):
            lam = dense_eigen_real_schur(gamma_dense(sys_, alpha, beta)).eigenvalues
            assert np.max(np.abs(lam)) < 1.0
