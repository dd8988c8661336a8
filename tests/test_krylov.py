import re
import tracemalloc
import warnings

import numpy as np
import pytest

from sadprec.krylov import (
    LinearOperator,
    StoppingRule,
    as_operator,
    cg,
    gmres_restarted,
    saddle_operator,
    stationary_richardson,
)
from sadprec.precond import MgssApplicator, PrecondSpec, make_preconditioner
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0
from sadprec.sparse import CsrMatrix, add_scaled_identity, assemble_block_saddle, spmv, to_dense


class TestCg:
    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0, 3.0])
        rep = cg(CsrMatrix.identity(3), b, reduction_factor=1e9, max_iters=10)
        assert rep.converged and rep.outer_iterations == 1
        assert np.allclose(rep.solution, b)

    def test_hand_2x2(self):
        # dense solve: [[4,1],[1,3]] x = (1,2)  ->  x = (1/11, 7/11)
        op = CsrMatrix.from_dense([[4.0, 1.0], [1.0, 3.0]])
        rep = cg(op, np.array([1.0, 2.0]), reduction_factor=1e12, max_iters=20)
        assert np.allclose(rep.solution, [1.0 / 11.0, 7.0 / 11.0], atol=1e-10)

    def test_scalar_schur(self):
        rep = cg(CsrMatrix.from_dense([[4.0]]), np.array([2.0]), 100.0, 40)
        assert rep.solution[0] == pytest.approx(0.5)

    def test_zero_rhs(self):
        rep = cg(CsrMatrix.identity(4), np.zeros(4), 100.0, 40)
        assert rep.converged and rep.outer_iterations == 0

    def test_max_iters_is_not_an_error(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((30, 30))
        M = CsrMatrix.from_dense(W @ W.T + np.eye(30))
        rep = cg(M, rng.standard_normal(30), reduction_factor=1e16, max_iters=3)
        assert rep.outer_iterations == 3 and rep.stop_reason == "max_iters"

    def test_breakdown_on_indefinite(self):
        M = CsrMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            cg(M, np.array([0.0, 1.0]), 1e12, 50)

    @pytest.mark.parametrize("reduction", [np.nan, np.inf, 0.5, 0.0, -100.0])
    def test_bad_reduction_factor_rejected(self, reduction):
        # a NaN reduction made the target NaN, so CG ran to its cap
        with pytest.raises(ValueError, match="reduction_factor must be finite and at least 1"):
            cg(CsrMatrix.identity(3), np.ones(3), reduction, 40)

    @pytest.mark.parametrize("max_iters", [-1, True, 2.5, 40.0, "40"])
    def test_bad_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer of at least 0"):
            cg(CsrMatrix.identity(3), np.ones(3), 100.0, max_iters)

    def test_boundary_arguments_accepted(self):
        # reduction 1 stops after the first step; no steps at all is a
        # cap hit; numpy integers count as integers
        rep = cg(CsrMatrix.from_dense([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0]), 1, np.int64(5))
        assert rep.outer_iterations == 1 and rep.stop_reason == "tolerance"
        rep = cg(CsrMatrix.identity(3), np.ones(3), 100.0, 0)
        assert rep.outer_iterations == 0 and rep.stop_reason == "max_iters" and not rep.converged

    def test_no_step_allowed_is_not_convergence(self):
        # a reduction of 1 is met by the initial residual, but the cap of
        # 0 steps stops the solve first
        rep = cg(CsrMatrix.identity(3), np.ones(3), 1.0, 0)
        assert rep.stop_reason == "max_iters" and not rep.converged

    def test_a_norm_error_monotone(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((25, 25))
        Ad = W @ W.T + 25 * np.eye(25)
        M = CsrMatrix.from_dense(0.5 * (Ad + Ad.T))
        b = rng.standard_normal(25)
        x_star = np.linalg.solve(to_dense(M), b)
        errs = []
        for k in range(1, 12):
            rep = cg(M, b, reduction_factor=1e16, max_iters=k)
            e = rep.solution - x_star
            errs.append(np.sqrt(e @ (to_dense(M) @ e)))
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))


class TestGmres:
    def test_identity(self):
        b = np.array([2.0, -1.0])
        rep = gmres_restarted(CsrMatrix.identity(2), b, None, StoppingRule(1e-9, 50, 5))
        assert rep.converged and rep.outer_iterations == 1
        assert np.allclose(rep.solution, b)

    def test_toy_saddle_full_krylov(self, toy_t1):
        sys_ = toy_t1
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), None, StoppingRule(1e-9, 50, 2))
        assert rep.converged and rep.outer_iterations <= 2
        assert np.allclose(rep.solution, [0.0, 1.0], atol=1e-9)

    def test_rmgss_toy_m_plus_one(self, toy_t1):
        sys_ = toy_t1
        prec = MgssApplicator(sys_, PrecondSpec("rmgss", beta=1.0, inner="direct"))
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), prec, StoppingRule(1e-9, 50, 2))
        assert rep.converged and rep.outer_iterations <= sys_.m + 1

    def test_zero_rhs(self):
        rep = gmres_restarted(CsrMatrix.identity(3), np.zeros(3), None, StoppingRule())
        assert rep.converged and rep.outer_iterations == 0
        assert rep.stop_reason == "tolerance" and rep.residual_history == [0.0]

    def test_max_outer_flagged(self):
        rng = np.random.default_rng(1)
        sys_ = generate_random_saddle(20, 8, seed=1)
        rep = gmres_restarted(
            saddle_operator(sys_), rng.standard_normal(28), None, StoppingRule(1e-12, 3, 5)
        )
        assert not rep.converged and rep.stop_reason == "max_outer"
        assert rep.outer_iterations == 3

    def test_stall_labelled_stagnated(self):
        # pinned q=16 hss with an exact inner solve: GMRES(5) stalls on the
        # pin's isolated eigenvalue, its last 20 restarts leave the residual
        # unchanged to 1e-11, and the label leaves the stopping point alone
        sys_ = generate_stokes_q1p0(StokesConfig(16))
        prec = make_preconditioner(sys_, PrecondSpec("hss", alpha=0.1, inner="direct"))
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), prec, StoppingRule(1e-9, 2000, 5))
        assert not rep.converged and rep.stop_reason == "stagnated"
        assert rep.outer_iterations == 2000 and len(rep.residual_history) == 401
        assert rep.final_relative_residual == pytest.approx(6.46e-5, rel=1e-2)
        hist = rep.residual_history
        assert abs(hist[-21] / hist[-1] - 1.0) <= 1e-11

    def test_converging_cut_off_keeps_max_outer(self):
        # unpreconditioned GMRES(5) on unpinned q=8 converges in 179 steps;
        # at 60 its last 10 restarts still cut the residual about 160-fold
        sys_ = generate_stokes_q1p0(StokesConfig(8, pin_pressure=False))
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), None, StoppingRule(1e-9, 60, 5))
        assert not rep.converged and rep.stop_reason == "max_outer"
        assert rep.outer_iterations == 60 and len(rep.residual_history) == 13
        hist = rep.residual_history
        assert hist[-11] / hist[-1] > 100.0

    def test_history_true_residuals_non_increasing(self):
        sys_ = generate_random_saddle(30, 12, seed=3)
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), None, StoppingRule(1e-9, 400, 5))
        hist = rep.residual_history
        assert all(hist[i + 1] <= hist[i] * (1.0 + 1e-12) for i in range(len(hist) - 1))
        if rep.converged:
            assert hist[-1] <= 1e-9 * hist[0]

    @pytest.mark.parametrize("n,m,seed", [(8, 3, 0), (30, 12, 1), (70, 30, 2)])
    def test_unrestarted_converges_within_order(self, n, m, seed):
        sys_ = generate_random_saddle(n, m, seed=seed)
        k = sys_.order
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), None, StoppingRule(1e-9, k, k))
        assert rep.converged and rep.outer_iterations <= k

    def test_restart_beyond_order_sized_by_order(self):
        # a cycle holds at most dim Arnoldi vectors, so restart 3000 on an
        # order-10 system runs and allocates as restart 10 does
        sys_ = generate_random_saddle(7, 3, seed=0)
        op, b = saddle_operator(sys_), sys_.rhs()
        tracemalloc.start()
        try:
            rep = gmres_restarted(op, b, None, StoppingRule(1e-9, 3000, 3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        ref = gmres_restarted(op, b, None, StoppingRule(1e-9, 3000, sys_.order))
        assert rep.converged and rep.outer_iterations == ref.outer_iterations
        assert np.array_equal(rep.solution, ref.solution)

    @pytest.mark.parametrize("n,m,seed", [(12, 5, 0), (40, 16, 7), (120, 60, 8)])
    def test_rmgss_m_plus_one_random(self, n, m, seed):
        sys_ = generate_random_saddle(n, m, seed=seed)
        prec = MgssApplicator(sys_, PrecondSpec("rmgss", beta=0.1, inner="direct"))
        dim = sys_.order
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), prec, StoppingRule(1e-9, dim, dim))
        assert rep.converged and rep.outer_iterations <= m + 1

    @pytest.mark.parametrize("b,step", [([0.0, 1.0, 0.0], 1), ([1.0, 1.0, 0.0], 2)])
    def test_zero_pivot_at_breakdown_raises(self, b, step):
        # diag(1, 0, 0) is singular on the Krylov space of both right-hand
        # sides: the breakdown leaves a rotated diagonal entry of 0 (about
        # 1e-16 for (1, 1, 0) under some OpenBLAS kernels), which used to
        # reach the triangular solve as a division and then blame the
        # operator for a NaN residual
        A = CsrMatrix.from_triplets(3, 3, [0], [0], [1.0])
        message = f"GMRES breakdown at Arnoldi step {step}: the operator is singular on the Krylov space"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                gmres_restarted(A, b)

    def test_operator_returning_its_operand(self):
        # the result is orthogonalised in place, which used to overwrite
        # the basis vector it was the product of
        rep = gmres_restarted(LinearOperator(3, lambda x: x), [1.0, 2.0, 3.0])
        assert rep.converged and rep.outer_iterations == 1
        assert np.array_equal(rep.solution, [1.0, 2.0, 3.0])

    def test_unpinned_stokes_count_independent_of_rounding(self):
        # The singular but consistent enclosed-flow system has no isolated
        # small eigenvalue, so last-digit changes to b leave GMRES(5) unmoved
        # (the pinned system scatters over 1865-2781 steps at q=8).
        sys_ = generate_stokes_q1p0(StokesConfig(8, pin_pressure=False))
        op, b = saddle_operator(sys_), sys_.rhs()
        counts = set()
        for scale in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 3e-15):
            rep = gmres_restarted(op, b * scale, None, StoppingRule(1e-9, 2000, 5))
            assert rep.converged and rep.outer_iterations <= 2000
            counts.add(rep.outer_iterations)
        assert len(counts) == 1


class TestStationary:
    def test_toy_nilpotent_two_steps(self, toy_t1):
        sys_ = toy_t1
        prec = MgssApplicator(sys_, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        rep = stationary_richardson(
            saddle_operator(sys_), sys_.rhs(), prec, StoppingRule(1e-12, 10, 5)
        )
        assert rep.converged and rep.outer_iterations <= 2
        assert np.allclose(rep.solution, [0.0, 1.0], atol=1e-12)

    def test_zero_rhs_zero_iterations(self, toy_t1):
        sys_ = toy_t1
        prec = MgssApplicator(sys_, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        rep = stationary_richardson(saddle_operator(sys_), np.zeros(2), prec, StoppingRule())
        assert rep.converged and rep.outer_iterations == 0

    def test_max_outer_zero_returns_initial_guess(self, toy_t1):
        sys_ = toy_t1
        prec = MgssApplicator(sys_, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        rep = stationary_richardson(
            saddle_operator(sys_), sys_.rhs(), prec, StoppingRule(1e-9, 0, 5)
        )
        assert not rep.converged
        assert np.array_equal(rep.solution, np.zeros(2))

    def test_max_outer_zero_is_not_convergence(self, toy_t1):
        # a relative tolerance of 2 is met by the initial residual, but
        # the cap of 0 steps stops the iteration first
        sys_ = toy_t1
        prec = MgssApplicator(sys_, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        rep = stationary_richardson(saddle_operator(sys_), sys_.rhs(), prec, StoppingRule(2.0, 0, 5))
        assert rep.stop_reason == "max_outer" and not rep.converged


class Returning:
    """A preconditioner whose apply returns what ``result(r)`` makes of r."""

    def __init__(self, result):
        self.result = result

    def apply(self, r):
        return self.result(r)


class TestPreconditionerResult:
    @pytest.mark.parametrize("result,shape", [
        (lambda r: 1.0, ()),
        (lambda r: np.ones(1), (1,)),
        (lambda r: r[:-1].copy(), (49,)),
        (lambda r: r[:, None].copy(), (50, 1)),
    ], ids=["scalar", "length-1", "short", "column"])
    @pytest.mark.parametrize("solver", [gmres_restarted, stationary_richardson], ids=["gmres", "richardson"])
    def test_shape_other_than_dim_refused(self, solver, result, shape):
        # a scalar or length-1 result used to broadcast into the
        # stationary iterate, or to fail in GMRES naming the operator
        sys_ = generate_random_saddle(30, 20, seed=0)
        message = f"preconditioner Returning returned shape {shape} for a residual of shape (50,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            solver(saddle_operator(sys_), sys_.rhs(), Returning(result), StoppingRule(1e-9, 20, 5))

    def test_stationary_none_is_the_identity(self):
        op = CsrMatrix.from_dense(np.diag(np.linspace(0.5, 1.5, 20)))
        b = np.random.default_rng(2).standard_normal(20)
        rule = StoppingRule(1e-9, 200, 5)
        rep = stationary_richardson(op, b, None, rule)
        same = stationary_richardson(op, b, Returning(lambda r: r.copy()), rule)
        assert rep.converged and rep.total_inner_cg_iterations == 0
        assert rep.solution.tobytes() == same.solution.tobytes()
        assert rep.residual_history == same.residual_history


def nan_operator(dim):
    return LinearOperator(dim, lambda x: np.full(dim, np.nan))


class TestNonFinite:
    def test_cg_nan_operator_raises(self):
        with pytest.raises(ValueError, match="not positive"):
            cg(nan_operator(3), np.ones(3), 100.0, 40)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cg_non_finite_rhs_raises(self, bad):
        with pytest.raises(ValueError, match="right-hand side"):
            cg(CsrMatrix.from_dense(np.eye(3)), np.array([1.0, bad, 0.0]), 100.0, 40)

    def test_gmres_nan_rhs_raises(self):
        with pytest.raises(ValueError, match="right-hand side has a non-finite entry"):
            gmres_restarted(CsrMatrix.identity(3), np.array([1.0, np.nan, 0.0]))

    def test_gmres_nan_operator_raises(self):
        with pytest.raises(ValueError, match="true residual norm is nan"):
            gmres_restarted(nan_operator(3), np.ones(3))

    def test_stationary_nan_rhs_raises(self, toy_t1):
        sys_ = toy_t1
        prec = MgssApplicator(sys_, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        with pytest.raises(ValueError, match="right-hand side has a non-finite entry"):
            stationary_richardson(saddle_operator(sys_), np.array([np.nan, 0.0]), prec)

    def test_stationary_nan_operator_raises(self, toy_t1):
        sys_ = toy_t1
        prec = MgssApplicator(sys_, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        with pytest.raises(ValueError, match="true residual norm is nan"):
            stationary_richardson(nan_operator(2), sys_.rhs(), prec)


class TestDimensions:
    def test_gmres_rhs_length_checked(self):
        with pytest.raises(ValueError, match=re.escape("dimension mismatch: operator is 65x65, "
                                                       "right-hand side has shape (3,)")):
            gmres_restarted(CsrMatrix.identity(65), np.ones(3))

    def test_stationary_rhs_length_checked(self, toy_t1):
        prec = MgssApplicator(toy_t1, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        for b in (np.ones(3), np.ones((2, 1))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                stationary_richardson(saddle_operator(toy_t1), b, prec)

    @pytest.mark.parametrize("b", [np.ones((3, 3)), np.ones((3, 1)), np.ones(4)],
                             ids=["square-block", "column", "length-4"])
    def test_cg_rhs_shape_checked(self, b):
        # a (3, 3) block used to fail converting p.Ap to a float, a (3, 1)
        # column in np.dot; both now fail before any step, as in GMRES
        message = f"dimension mismatch: operator is 3x3, right-hand side has shape {b.shape}"
        for op in (CsrMatrix.identity(3), as_operator(CsrMatrix.identity(3))):
            with pytest.raises(ValueError, match=re.escape(message)):
                cg(op, b, 100.0, 40)


def cg_outcome(op, b):
    # everything one inner CG reports: the solution's bytes, the residual
    # history, the step count and stop reason, or the error it raised,
    # together with the warnings it gave
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rep = cg(op, b, 100.0, 40)
            got = (rep.solution.tobytes(), rep.residual_history, rep.outer_iterations, rep.stop_reason)
        except ValueError as exc:
            got = str(exc)
    return got, [(w.category, str(w.message)) for w in caught]


def scaled(M, factor):
    return CsrMatrix(M.nrows, M.ncols, M.row_ptr, M.col_idx, M.values * factor)


def unpinned(q):
    return generate_stokes_q1p0(StokesConfig(q, pin_pressure=False))


class TestCgOperatorPaths:
    """A CsrMatrix, given as is or through as_operator, keeps CG's search
    direction in its product's padded operand; a LinearOperator around
    spmv copies it into a fresh one at every step.  Both paths give the
    same bits, errors and warnings."""

    @pytest.mark.parametrize("make,diagonal,rhs_scale", [
        (lambda: add_scaled_identity(unpinned(32).A, 0.1), True, 1.0),
        (lambda: add_scaled_identity(unpinned(64).A, 0.1), True, 1.0),
        (lambda: add_scaled_identity(unpinned(64).B._gram, 0.01), True, 1.0),
        (lambda: add_scaled_identity(unpinned(64).C, 0.1), False, 1.0),
        # p.Ap overflows on step 1 and A p on step 2; on step 3 p is NaN,
        # takes the padded layout and breaks down
        (lambda: scaled(add_scaled_identity(unpinned(32).A, 0.1), 2.0 ** 1000), True, 2.0 ** 20),
    ], ids=["alphaI+A-q32", "alphaI+A-q64", "BBt+alpha2I-q64", "alphaI+C-q64", "overflow-band"])
    def test_same_bits(self, make, diagonal, rhs_scale):
        M = make()
        assert (M._diagonals is not None) == diagonal
        b = np.random.default_rng(M.nrows).standard_normal(M.nrows) * rhs_scale
        matrix = cg_outcome(M, b)
        assert cg_outcome(as_operator(M), b) == matrix
        assert cg_outcome(LinearOperator(M.nrows, lambda x: spmv(M, x)), b) == matrix
        if rhs_scale != 1.0:
            assert "CG breakdown" in matrix[0]


class TestLinearOperator:
    def test_block_columns_match_vectors(self):
        sys_ = generate_stokes_q1p0(StokesConfig(4))
        op = saddle_operator(sys_)
        X = np.random.default_rng(0).standard_normal((sys_.order, 3))
        Y = op(X)
        assert Y.shape == X.shape
        for j in range(3):
            assert np.array_equal(Y[:, j], op(X[:, j]))

    def test_wrong_block_shape_raises(self):
        op = LinearOperator(4, lambda x: x[:, :1])
        with pytest.raises(ValueError, match=r"returned shape \(4, 1\) for an operand of shape \(4, 3\)"):
            op(np.ones((4, 3)))

    def test_result_sharing_the_operand_is_copied(self):
        x = np.arange(6.0).reshape(3, 2)
        for apply in (lambda x: x, lambda x: x[:, ::-1][:, ::-1]):
            y = LinearOperator(3, apply)(x)
            assert np.array_equal(y, x) and not np.may_share_memory(y, x)

    def test_wrong_operand_length_raises(self):
        op = LinearOperator(4, lambda x: x)
        with pytest.raises(ValueError, match=r"operand of shape \(5,\)"):
            op(np.ones(5))

    def test_dense_applies_the_operator_to_the_identity(self):
        sys_ = generate_random_saddle(18, 7, seed=6)
        assert np.array_equal(saddle_operator(sys_).dense(), to_dense(assemble_block_saddle(sys_)))


class TestStoppingRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingRule(rel_tol=0.0)
        with pytest.raises(ValueError):
            StoppingRule(restart=0)
        with pytest.raises(ValueError):
            StoppingRule(max_outer=-1)

    # a float count would reach range() in gmres_restarted as a TypeError, and
    # the stationary loop would run 4 steps under max_outer=3.5
    @pytest.mark.parametrize("field,value", [
        ("max_outer", 7.0), ("max_outer", 3.5), ("max_outer", True), ("max_outer", "7"),
        ("restart", 2.5), ("restart", True), ("restart", np.float64(5.0)), ("restart", None),
    ])
    def test_count_that_is_not_an_integer_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            StoppingRule(**{field: value})

    @pytest.mark.parametrize("count", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_counts_accepted(self, count):
        sys_ = generate_random_saddle(10, 4, seed=3)
        rule = StoppingRule(rel_tol=1e-9, max_outer=count, restart=count)
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), None, rule)
        assert rep.outer_iterations == 5


class TestOracles:
    """CG / unrestarted GMRES against dense solve oracles (50 instances)."""

    def test_cg_matches_dense_solve(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(2, 40))
            W = rng.standard_normal((n, n))
            Ad = W @ W.T + n * np.eye(n)
            Ad = 0.5 * (Ad + Ad.T)
            b = rng.standard_normal(n)
            x_star = np.linalg.solve(Ad, b)
            rep = cg(CsrMatrix.from_dense(Ad), b, reduction_factor=1e13, max_iters=20 * n)
            assert np.linalg.norm(rep.solution - x_star) <= 1e-8 * np.linalg.norm(x_star)

    def test_gmres_matches_dense_solve(self):
        rng = np.random.default_rng(43)
        for trial in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, max(2, n // 2 + 1)))
            sys_ = generate_random_saddle(n, m, seed=int(rng.integers(0, 10_000)))
            acal = to_dense(assemble_block_saddle(sys_))
            b = sys_.rhs()
            x_star = np.linalg.solve(acal, b)
            k = sys_.order
            rep = gmres_restarted(saddle_operator(sys_), b, None, StoppingRule(1e-11, 3 * k, k))
            assert rep.converged
            assert np.linalg.norm(rep.solution - x_star) <= 1e-8 * np.linalg.norm(x_star)
