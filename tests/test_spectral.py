import tracemalloc

import numpy as np
import pytest

from sadprec.factor import NotPositiveDefiniteError
from sadprec.krylov import LinearOperator, as_operator
from sadprec.precond import MgssApplicator, PrecondSpec, dense_preconditioner_matrix, make_preconditioner
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0
from sadprec.sparse import CsrMatrix, SaddleSystem, assemble_block_saddle, to_dense
from sadprec.spectral import (
    COMPUTED_DENSE,
    PREDICTED,
    Spectrum,
    dense_eigen_real_schur,
    gamma_dense,
    jacobi_symmetric,
    power_spectral_radius,
    preconditioned_dense,
    predicted_rmgss_spectrum,
    rmgss_preconditioned_dense,
    iteration_matrix_check,
)
from sadprec.stationary import IterationMatrixOperator


class TestJacobi:
    def test_diagonal(self):
        w, V = jacobi_symmetric(np.diag([5.0, 1.0, 3.0]))
        assert np.allclose(w, [1.0, 3.0, 5.0])
        assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])

    def test_hand_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 = 1 -> {1, 3}
        w, _ = jacobi_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0], atol=1e-12)

    def test_toy_G(self):
        # G = C + B A^{-1} B^T = 0 + 1 * (1/2) * 1 = 0.5
        w, _ = jacobi_symmetric(np.array([[0.5]]))
        assert w[0] == 0.5

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            jacobi_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)], ids=["above", "below", "diagonal"])
    def test_non_finite_rejected(self, where, bad):
        # eigh reads one triangle: [[4, inf], [1, 4]] gave the eigenvalues 3 and 5
        a = np.array([[4.0, 1.0], [1.0, 4.0]])
        a[where] = bad
        with pytest.raises(ValueError, match="NaN or inf entry"):
            jacobi_symmetric(a)

    @pytest.mark.parametrize("n,seed", [(6, 0), (40, 1), (150, 2)])
    def test_against_numpy_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        w, _ = jacobi_symmetric(a)
        assert np.allclose(np.sort(w), np.linalg.eigvalsh(a), atol=1e-10 * max(1, np.linalg.norm(a)))

    @pytest.mark.parametrize("n,seed", [(15, 3), (60, 4)])
    def test_eigenpair_residuals(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        w, V = jacobi_symmetric(a)
        scale = np.linalg.norm(a)
        for i in range(n):
            assert np.linalg.norm(a @ V[:, i] - w[i] * V[:, i]) <= 1e-8 * scale


class TestRealSchur:
    def test_triangular(self):
        spec = dense_eigen_real_schur(np.array([[2.0, 7.0], [0.0, 3.0]]))
        assert np.allclose(spec.eigenvalues, [2.0, 3.0])

    def test_rotation_complex_pair(self):
        spec = dense_eigen_real_schur(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-1.0j, 1.0j])

    def test_toy_gamma_nilpotent(self, toy_t1):
        spec = dense_eigen_real_schur(gamma_dense(toy_t1, 1.0, 1.0))
        assert np.max(np.abs(spec.eigenvalues)) <= 1e-8

    @pytest.mark.parametrize("n,seed", [(3, 0), (17, 1), (80, 2), (200, 3)])
    def test_against_numpy_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        mine = dense_eigen_real_schur(a).eigenvalues
        ref = np.linalg.eigvals(a)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert np.max(np.abs(mine - ref)) <= 1e-9 * max(1.0, np.linalg.norm(a))

    def test_clustered_identity_plus_coupling(self):
        rng = np.random.default_rng(4)
        n, m = 30, 8
        T = 0.95 * np.eye(m) + 0.01 * rng.standard_normal((m, m))
        psi = np.block(
            [[np.eye(n), rng.standard_normal((n, m))], [np.zeros((m, n)), T]]
        )
        mine = dense_eigen_real_schur(psi).eigenvalues
        ref = np.linalg.eigvals(psi)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert np.max(np.abs(mine - ref)) <= 1e-9


class TestPowerRadius:
    def test_scaled_identity(self):
        op = as_operator(CsrMatrix.from_dense(0.5 * np.eye(4)))
        assert power_spectral_radius(op) == pytest.approx(0.5, abs=1e-10)

    def test_diagonal_gap(self):
        op = as_operator(CsrMatrix.from_dense(np.diag([0.5, 0.25])))
        assert power_spectral_radius(op) == pytest.approx(0.5, abs=1e-6)

    def test_stokes_gamma_below_one(self):
        sys_ = generate_stokes_q1p0(StokesConfig(8))
        op = IterationMatrixOperator(sys_, 0.01, 0.01)
        assert power_spectral_radius(op) < 1.0

    @pytest.mark.parametrize("diag", [[0.9, 0.5, 0.1], [2.0, 1.5, 0.2], [0.6, 0.5, 0.4]])
    def test_bracket_on_diagonal_gap(self, diag):
        op = as_operator(CsrMatrix.from_dense(np.diag(diag)))
        rho = max(abs(d) for d in diag)
        est = power_spectral_radius(op)
        assert est <= rho + 1e-4
        assert est >= 0.99 * rho


    # order 225 and 84, at most the 500 columns of 100 steps x 5 starts: the
    # plain ids take the probe path, and a zero dense cap forces the operator path
    @pytest.mark.parametrize("make,cap", [
        pytest.param(make, cap, id=name + suffix)
        for suffix, cap in (("", None), ("-operator", "0"))
        for name, make in (
            ("stokes8-pinned", lambda: generate_stokes_q1p0(StokesConfig(8, pin_pressure=True))),
            ("random60x24", lambda: generate_random_saddle(60, 24, seed=12)),
        )
    ])
    def test_block_matches_per_restart_loop(self, make, cap, monkeypatch):
        # block products and column norms round differently from the
        # vector ones, so the estimates agree to rounding, not bitwise
        op = IterationMatrixOperator(make(), 0.1, 0.1)
        ref = power_radius_loop(op)
        if cap is not None:
            monkeypatch.setenv("SADPREC_DENSE_CAP", cap)
        est = power_spectral_radius(op)
        assert abs(est - ref) <= 1e-13 * ref

    def test_small_operator_is_probed_once_with_the_identity(self):
        op = IterationMatrixOperator(generate_random_saddle(60, 24, seed=12), 0.1, 0.1)
        counted, operands = counting(op)
        est = power_spectral_radius(counted)
        assert len(operands) == 1 and np.array_equal(operands[0], np.eye(op.dim))
        # a plain wrapper probes op(eye) too; op.dense() is an LU solve instead
        assert est == power_spectral_radius(LinearOperator(op.dim, op))

    def test_operator_with_more_columns_than_steps_is_iterated(self):
        # 100 steps of 5 starts apply it to 500 columns, fewer than its 833
        op = IterationMatrixOperator(generate_stokes_q1p0(StokesConfig(16, pin_pressure=True)), 0.1, 0.1)
        counted, operands = counting(op)
        power_spectral_radius(counted)
        assert [x.shape for x in operands] == [(833, 5)] * 100

    def test_probe_holds_no_more_than_the_dense_matrix(self):
        op = IterationMatrixOperator(generate_stokes_q1p0(StokesConfig(8, pin_pressure=True)), 0.1, 0.1)
        op.dense()  # builds the lazy factors and layouts outside the traces

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the slack covers the (225, 5) iterates, far below one 225 x 225 array
        assert peak(lambda: power_spectral_radius(op)) <= peak(op.dense) + 64 * 1024

    def test_dense_cap_zero_forces_the_operator_path(self, monkeypatch):
        op = IterationMatrixOperator(generate_stokes_q1p0(StokesConfig(8, pin_pressure=True)), 0.1, 0.1)
        probed = power_spectral_radius(op)
        op(np.zeros(op.dim))  # builds the elimination, whose dense Schur matrix needs the cap
        monkeypatch.setenv("SADPREC_DENSE_CAP", "0")
        counted, operands = counting(op)
        iterated = power_spectral_radius(counted)
        assert len(operands) == 100
        assert abs(probed - iterated) <= 1e-13 * probed

    def test_zero_operator_scores_zero(self):
        op = LinearOperator(6, np.zeros_like)
        assert power_spectral_radius(op) == 0.0 == power_radius_loop(op)

    @pytest.mark.parametrize("cap", [None, "0"], ids=["probe", "operator"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_operator_raises(self, value, cap, monkeypatch):
        # a NaN column norm used to drop out of the score and read as 0
        if cap is not None:
            monkeypatch.setenv("SADPREC_DENSE_CAP", cap)
        op = LinearOperator(6, lambda x: np.full_like(x, value))
        with pytest.raises(ValueError, match="NaN or inf"):
            power_spectral_radius(op)


def counting(op):
    """``op`` wrapped so that every operand it is applied to is recorded."""
    operands = []

    def apply(x):
        operands.append(np.array(x))
        return op(x)

    return LinearOperator(op.dim, apply), operands


def power_radius_loop(op):
    """The per-restart, one-vector-at-a-time power iteration the block form replaced."""
    rng = np.random.default_rng(20240613)
    best = 0.0
    for _ in range(5):
        v = rng.standard_normal(op.dim)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        ratio = 0.0
        for _ in range(100):
            w = op(v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                ratio = 0.0
                break
            ratio = nw
            v = w / nw
        best = max(best, ratio)
    return best


SYSTEMS = {
    "random60x24": lambda: generate_random_saddle(60, 24, seed=12),
    "stokes4-pinned": lambda: generate_stokes_q1p0(StokesConfig(4, pin_pressure=True)),
    # no constraints: K is A, and the eliminations reduce to solves with A's blocks
    "m0": lambda: SaddleSystem(CsrMatrix.from_dense([[2.0, 1.0], [1.0, 3.0]]), CsrMatrix.zeros(0, 2),
                               CsrMatrix.zeros(0, 0), np.ones(2), np.zeros(0)),
}


class TestPreconditionedDense:
    @pytest.mark.parametrize("kind", ["none", "mgss", "rmgss", "hss"])
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_is_the_solve_with_the_preconditioner_matrix(self, name, kind):
        # a CG-mode spec (the default) is applied in direct mode
        sys_ = SYSTEMS[name]()
        spec = PrecondSpec(kind)
        K = to_dense(assemble_block_saddle(sys_))
        ref = np.linalg.solve(dense_preconditioner_matrix(sys_, spec), K)
        assert np.linalg.norm(preconditioned_dense(sys_, spec) - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_rmgss_is_the_direct_elimination_bitwise(self, name):
        # the bits of one LU solve with the dense rmgss matrix; the direct
        # block elimination agrees to rounding
        sys_ = SYSTEMS[name]()
        spec = PrecondSpec("rmgss", beta=1e-3)
        got = preconditioned_dense(sys_, spec)
        assert got.tobytes() == rmgss_preconditioned_dense(sys_, 1e-3).tobytes()
        K = to_dense(assemble_block_saddle(sys_))
        assert got.tobytes() == np.linalg.solve(dense_preconditioner_matrix(sys_, spec), K).tobytes()
        direct = MgssApplicator(sys_, PrecondSpec("rmgss", beta=1e-3, inner="direct")).apply(K)
        assert np.linalg.norm(got - direct) <= 1e-10 * np.linalg.norm(direct)

    @pytest.mark.parametrize("kind", ["none", "mgss", "rmgss", "hss"])
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_agrees_with_the_direct_applicator(self, name, kind):
        sys_ = SYSTEMS[name]()
        spec = PrecondSpec(kind)
        K = to_dense(assemble_block_saddle(sys_))
        prec = make_preconditioner(sys_, PrecondSpec(kind, spec.alpha, spec.beta, "direct"))
        want = K if prec is None else prec.apply(K)
        got = preconditioned_dense(sys_, spec)
        assert got.shape == K.shape
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_hss_holds_a_few_dense_matrices(self):
        # order 833: one array is 5.3 MiB; hss direct mode's padded inverse
        # factors used to take 847 MiB here
        sys_ = generate_stokes_q1p0(StokesConfig(16, pin_pressure=True))
        tracemalloc.start()
        try:
            preconditioned_dense(sys_, PrecondSpec("hss"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestSpectrumCsv:
    def test_golden_bytes(self, tmp_path):
        # sorted by real part; 17 significant digits through %g
        lam = [complex(np.inf, np.nan), complex(1 / 3, -1e-17), complex(-0.0, 5e-324)]
        Spectrum(np.array(lam), PREDICTED).save_csv(tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == (
            b"re,im,source\n-0,4.9406564584124654e-324,PREDICTED\n"
            b"0.33333333333333331,-1.0000000000000001e-17,PREDICTED\ninf,nan,PREDICTED\n"
        )
        Spectrum(np.zeros(0), COMPUTED_DENSE).save_csv(tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_bytes() == b"re,im,source\n"


class TestPredictedSpectrum:
    def test_toy(self, toy_t1):
        spec = predicted_rmgss_spectrum(toy_t1, 1.0)
        assert spec.source == PREDICTED
        assert np.allclose(spec.eigenvalues, [1.0 / 3.0, 1.0], atol=1e-14)

    def test_large_beta_limit(self, toy_t1):
        spec = predicted_rmgss_spectrum(toy_t1, 1e6)
        lam_small = spec.eigenvalues[0].real
        assert lam_small == pytest.approx(5e-7, rel=1e-3)

    def test_m_zero_degenerate(self):
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0]))
        sys_ = SaddleSystem(A, CsrMatrix.zeros(0, 2), CsrMatrix.zeros(0, 0), np.zeros(2), np.zeros(0))
        spec = predicted_rmgss_spectrum(sys_, 0.5)
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan])
    def test_beta_checked_as_for_rmgss(self, beta, toy_t1):
        with pytest.raises(ValueError, match="rmgss requires beta > 0|shift beta must be finite"):
            predicted_rmgss_spectrum(toy_t1, beta)

    def test_indefinite_A_refused(self):
        # A = [[1, 2], [2, 1]] is symmetric with eigenvalues 3 and -1
        sys_ = SaddleSystem(CsrMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]), CsrMatrix.from_dense([[1.0, 0.0]]),
                            CsrMatrix.zeros(1, 1), np.zeros(2), np.zeros(1))
        with pytest.raises(NotPositiveDefiniteError):
            predicted_rmgss_spectrum(sys_, 0.5)

    @pytest.mark.parametrize("beta", [0.001, 0.1, 1.0])
    def test_matches_dense_spectrum(self, beta):
        sys_ = generate_random_saddle(40, 17, seed=8)
        comp = dense_eigen_real_schur(rmgss_preconditioned_dense(sys_, beta)).eigenvalues
        pred = predicted_rmgss_spectrum(sys_, beta).eigenvalues
        assert np.max(np.abs(comp - pred)) <= 1e-8


class TestIterationMatrixCheck:
    def test_toy(self, toy_t1):
        res = iteration_matrix_check(toy_t1, 1.0, 1.0)
        assert res["rho"] <= 1e-8
        assert res["min_dist_to_plus1"] == pytest.approx(1.0, abs=1e-8)
        assert res["min_dist_to_minus1"] == pytest.approx(1.0, abs=1e-8)

    def test_stokes_q4(self):
        sys_ = generate_stokes_q1p0(StokesConfig(4))
        assert sys_.order == 65
        res = iteration_matrix_check(sys_, 0.01, 0.01)
        assert res["rho"] < 1.0
        assert res["min_dist_to_plus1"] > 0.0 and res["min_dist_to_minus1"] > 0.0

    def test_random_order_40_extreme_shifts(self):
        sys_ = generate_random_saddle(28, 12, seed=12)
        res = iteration_matrix_check(sys_, 10.0, 0.001)
        assert res["rho"] < 1.0

    def test_distances_relative_on_known_spectrum(self):
        # B = 0: Sigma^{-1} K = diag(1, 0.5, 0.25, 0.75) / 1e-8, so Gamma's eigenvalue
        # nearest -1 is (1 - 1e8) / (1 + 1e8), at distance 2 / (1 + 1e8)
        sys_ = SaddleSystem(CsrMatrix.from_dense(np.diag([1.0, 0.5, 0.25])), CsrMatrix.zeros(1, 3),
                            CsrMatrix.from_dense([[0.75]]), np.zeros(3), np.zeros(1))
        res = iteration_matrix_check(sys_, 1e-8, 1e-8)
        assert res["min_dist_to_minus1"] == pytest.approx(2.0 / (1.0 + 1e8), rel=1e-14, abs=0.0)
        assert res["min_dist_to_plus1"] == pytest.approx(2.0 * 2.5e7 / (1.0 + 2.5e7), rel=1e-14, abs=0.0)
        assert res["rho"] == pytest.approx((1e8 - 1.0) / (1e8 + 1.0), rel=1e-14, abs=0.0)

    def test_overflowing_shifts_refused(self):
        sys_ = generate_random_saddle(12, 5, seed=0)
        assert iteration_matrix_check(sys_, 1e-300, 1e-300)["rho"] <= 1.0
        with pytest.raises(ValueError, match="overflows"):
            iteration_matrix_check(sys_, 1e-310, 1e-310)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: generate_random_saddle(60, 24, seed=12), id="random12"),
        pytest.param(lambda: generate_random_saddle(60, 24, seed=13), id="random13"),
        pytest.param(lambda: generate_random_saddle(60, 24, seed=14), id="random14"),
        pytest.param(lambda: generate_stokes_q1p0(StokesConfig(4)), id="stokes-q4"),
        pytest.param(lambda: generate_stokes_q1p0(StokesConfig(8)), id="stokes-q8"),
    ])
    def test_cayley_route_matches_dense_gamma(self, make):
        # the eigenvalues of Gamma itself; |lambda -+ 1| loses digits to cancellation there
        sys_ = make()
        for alpha in (1e-3, 0.1, 10.0):
            for beta in (1e-3, 0.1, 10.0):
                lam = dense_eigen_real_schur(gamma_dense(sys_, alpha, beta)).eigenvalues
                res = iteration_matrix_check(sys_, alpha, beta)
                assert res["rho"] == pytest.approx(np.abs(lam).max(), rel=0.0, abs=1e-10)
                assert res["min_dist_to_plus1"] == pytest.approx(np.abs(lam - 1.0).min(), rel=1e-6)
                assert res["min_dist_to_minus1"] == pytest.approx(np.abs(lam + 1.0).min(), rel=1e-6)


class TestClusteringBound:
    def test_non_unit_deviation_equals_beta_over_beta_plus_mu_min(self):
        sys_ = generate_stokes_q1p0(StokesConfig(4))
        from sadprec import factor
        from sadprec.sparse import to_dense

        Ad, Bd, Cd = to_dense(sys_.A), to_dense(sys_.B), to_dense(sys_.C)
        G = Cd + Bd @ np.linalg.solve(Ad, Bd.T)
        mu, _ = jacobi_symmetric(0.5 * (G + G.T))
        mu_min = float(np.min(mu))
        assert mu_min > 0.0
        bounds = []
        for beta in (1.0, 0.1, 0.01, 0.001):
            lam = dense_eigen_real_schur(rmgss_preconditioned_dense(sys_, beta)).eigenvalues
            dev = np.abs(lam - 1.0)
            worst = np.sort(dev)[::-1][: sys_.m]  # the m non-unit eigenvalues
            assert abs(np.max(worst) - beta / (beta + mu_min)) <= 1e-8
            bounds.append(np.max(worst))
        # decreasing beta tightens the cluster around (1, 0)
        assert all(bounds[i + 1] < bounds[i] for i in range(len(bounds) - 1))


class TestSpectrumContainer:
    def test_sorted_and_sized(self):
        spec = Spectrum(np.array([3.0, 1.0 + 2.0j, 1.0 - 2.0j]), COMPUTED_DENSE)
        assert len(spec) == 3
        re = spec.eigenvalues.real
        assert np.all(np.diff(re) >= 0)

    def test_csv_round_trip(self, tmp_path):
        spec = Spectrum(np.array([0.1234567890123456789, 1.0 + 0.5j]), COMPUTED_DENSE)
        path = tmp_path / "spec.csv"
        spec.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re,im,source"
        re0, im0, src = lines[1].split(",")
        assert float(re0) == spec.eigenvalues[0].real
        assert float(im0) == spec.eigenvalues[0].imag
        assert src == COMPUTED_DENSE
