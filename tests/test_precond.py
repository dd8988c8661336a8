import numpy as np
import pytest

from sadprec import factor, precond, sparse, spectral
from sadprec.precond import (
    HssApplicator,
    MgssApplicator,
    PrecondSpec,
    dense_preconditioner_matrix,
    form_schur_dense,
    make_preconditioner,
)
from sadprec.krylov import LinearOperator, StoppingRule, cg, gmres_restarted, saddle_operator
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0
from sadprec.sparse import (
    CsrMatrix,
    SaddleSystem,
    assemble_block_saddle,
    spmv,
    spmv_transpose,
    to_dense,
)


class TestPrecondSpec:
    def test_mgss_requires_positive_shifts(self):
        with pytest.raises(ValueError):
            PrecondSpec("mgss", alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            PrecondSpec("mgss", alpha=1.0, beta=0.0)

    def test_rmgss_pins_alpha(self):
        with pytest.raises(ValueError):
            PrecondSpec("rmgss", alpha=0.5, beta=1.0)
        with pytest.raises(ValueError):
            PrecondSpec("rmgss", beta=0.0)

    def test_hss_requires_alpha(self):
        with pytest.raises(ValueError):
            PrecondSpec("hss", alpha=0.0)

    @pytest.mark.parametrize("kind,shifts", [("hss", {"alpha": 0.1, "beta": 5.0}),
                                             ("none", {"alpha": 3.0})])
    def test_shift_the_kind_does_not_take_rejected(self, kind, shifts):
        with pytest.raises(ValueError, match=f"{kind} takes no"):
            PrecondSpec(kind, **shifts)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PrecondSpec("ilu")

    @pytest.mark.parametrize("kind", precond.SHIFTS)
    def test_omitted_shifts_take_table_values(self, kind):
        spec = PrecondSpec(kind)
        assert (spec.alpha, spec.beta) == (precond.SHIFTS[kind].get("alpha", 0.0),
                                           precond.SHIFTS[kind].get("beta", 0.0))

    def test_given_shift_still_checked(self):
        with pytest.raises(ValueError, match="mgss requires alpha > 0"):
            PrecondSpec("mgss", alpha=0.0)
        with pytest.raises(ValueError, match="hss takes no beta"):
            PrecondSpec("hss", beta=5.0)
        spec = PrecondSpec("mgss", beta=0.5)
        assert (spec.alpha, spec.beta) == (precond.SHIFTS["mgss"]["alpha"], 0.5)

    @pytest.mark.parametrize("kind,shifts,name", [
        ("mgss", {"alpha": np.inf, "beta": 1.0}, "alpha"),
        ("mgss", {"alpha": 1.0, "beta": np.inf}, "beta"),
        ("mgss", {"alpha": np.nan, "beta": 1.0}, "alpha"),
        ("rmgss", {"beta": np.inf}, "beta"),
        ("hss", {"alpha": np.inf}, "alpha"),
    ], ids=["mgss-alpha-inf", "mgss-beta-inf", "mgss-alpha-nan", "rmgss-beta-inf", "hss-alpha-inf"])
    def test_non_finite_shift_rejected(self, kind, shifts, name):
        with pytest.raises(ValueError, match=f"shift {name} must be finite"):
            PrecondSpec(kind, **shifts)


class TestMgssApply:
    def test_toy_steps(self, toy_t1):
        # hand elimination: w=0, w1=2, S=[4], z1=0.5, v=0.5, z2=0.5
        sys_ = toy_t1
        app = MgssApplicator(sys_, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        z = app.apply(np.array([1.0, 0.0]))
        assert np.allclose(z, [0.5, 0.5], atol=1e-14)
        # dense oracle: M z = r with M = 0.5 [[3,1],[-1,1]]
        M = 0.5 * np.array([[3.0, 1.0], [-1.0, 1.0]])
        assert np.allclose(M @ z, [1.0, 0.0], atol=1e-14)

    def test_zero_residual(self, toy_t1):
        app = MgssApplicator(toy_t1, PrecondSpec("mgss", 1.0, 1.0, inner="direct"))
        assert np.array_equal(app.apply(np.zeros(2)), np.zeros(2))

    def test_remark1_shift_splitting_reduction(self):
        # C = 0 and alpha = beta: apply equals the dense inverse of (alpha I + Acal)/2
        rng = np.random.default_rng(12)
        n, m = 4, 2
        W = rng.standard_normal((n, n))
        Ad = W @ W.T + n * np.eye(n)
        Ad = 0.5 * (Ad + Ad.T)
        Bd = rng.standard_normal((m, n))
        Bd[:, :m] += np.eye(m)
        sys_ = SaddleSystem(
            CsrMatrix.from_dense(Ad),
            CsrMatrix.from_dense(Bd),
            CsrMatrix.zeros(m, m),
            np.zeros(n),
            np.zeros(m),
        )
        alpha = 0.7
        app = MgssApplicator(sys_, PrecondSpec("mgss", alpha, alpha, inner="direct"))
        acal = to_dense(assemble_block_saddle(sys_))
        P_ss = 0.5 * (alpha * np.eye(n + m) + acal)
        r = rng.standard_normal(n + m)
        assert np.linalg.norm(app.apply(r) - np.linalg.solve(P_ss, r)) <= 1e-10 * np.linalg.norm(r)

    def test_inner_cg_stays_close_to_direct(self, monkeypatch):
        sys_ = generate_random_saddle(25, 10, seed=4)
        r = np.random.default_rng(6).standard_normal(35)
        z_direct = MgssApplicator(sys_, PrecondSpec("mgss", 0.5, 0.5, inner="direct")).apply(r)
        monkeypatch.setattr(precond, "_INNER_REDUCTION", 1e12)
        monkeypatch.setattr(precond, "_INNER_MAX_ITERS", 500)
        app = MgssApplicator(sys_, PrecondSpec("mgss", 0.5, 0.5, inner="cg"))
        z_cg = app.apply(r)
        assert app.inner_iterations > 0
        assert np.linalg.norm(z_cg - z_direct) <= 1e-8 * np.linalg.norm(z_direct)

    def test_inner_cap_is_not_an_error(self, monkeypatch):
        sys_ = generate_random_saddle(30, 12, seed=9)
        monkeypatch.setattr(precond, "_INNER_MAX_ITERS", 2)
        app = MgssApplicator(sys_, PrecondSpec("mgss", 0.01, 0.01, inner="cg"))
        z = app.apply(np.ones(42))
        assert np.all(np.isfinite(z))
        assert app.inner_iterations == 2


class TestRmgssApply:
    def test_toy_steps(self, toy_t1):
        # w=0, w1=1, S0=[3], z1=1/3, v=1/3, z2=1/3
        sys_ = toy_t1
        app = MgssApplicator(sys_, PrecondSpec("rmgss", beta=1.0, inner="direct"))
        z = app.apply(np.array([1.0, 0.0]))
        assert np.allclose(z, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)
        P = np.array([[2.0, 1.0], [-1.0, 1.0]])
        assert np.allclose(P @ z, [1.0, 0.0], atol=1e-14)

    def test_zero_residual(self, toy_t1):
        app = MgssApplicator(toy_t1, PrecondSpec("rmgss", beta=1.0, inner="direct"))
        assert np.array_equal(app.apply(np.zeros(2)), np.zeros(2))

    def test_toy_preconditioned_eigenvalues(self, toy_t1):
        # dense eigendecomposition of P^{-1} Acal = [[1, 1/3], [0, 1/3]]
        sys_ = toy_t1
        app = MgssApplicator(sys_, PrecondSpec("rmgss", beta=1.0, inner="direct"))
        psi = app.apply(to_dense(assemble_block_saddle(sys_)))
        lam = np.sort(np.linalg.eigvals(psi).real)
        assert np.allclose(lam, [1.0 / 3.0, 1.0], atol=1e-12)

    def test_kind_mismatch_raises(self, toy_t1):
        with pytest.raises(ValueError, match="expected an hss spec"):
            HssApplicator(toy_t1, PrecondSpec("rmgss", beta=1.0))
        with pytest.raises(ValueError, match="expected an mgss or rmgss spec"):
            MgssApplicator(toy_t1, PrecondSpec("hss", alpha=1.0))


class TestHssApply:
    def test_toy_chain(self, toy_t1):
        sys_ = toy_t1
        spec = PrecondSpec("hss", alpha=1.0, inner="direct")
        z = HssApplicator(sys_, spec).apply(np.array([1.0, 0.0]))
        assert np.allclose(z, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        # check (1/2)(I + H)(I + S) z = r
        H = np.diag([2.0, 0.0])
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        P = 0.5 * (np.eye(2) + H) @ (np.eye(2) + S)
        assert np.allclose(P @ z, [1.0, 0.0], atol=1e-12)

    def test_zero_residual(self, toy_t1):
        z = HssApplicator(toy_t1, PrecondSpec("hss", alpha=1.0, inner="direct")).apply(np.zeros(2))
        assert np.array_equal(z, np.zeros(2))

    def test_decoupled_blocks_when_B_and_C_zero(self):
        rng = np.random.default_rng(3)
        n, m = 5, 2
        W = rng.standard_normal((n, n))
        Ad = 0.5 * ((W @ W.T) + (W @ W.T).T) + n * np.eye(n)
        sys_ = SaddleSystem(
            CsrMatrix.from_dense(Ad),
            CsrMatrix.zeros(m, n),
            CsrMatrix.zeros(m, m),
            np.zeros(n),
            np.zeros(m),
        )
        alpha = 0.9
        r = rng.standard_normal(n + m)
        z = HssApplicator(sys_, PrecondSpec("hss", alpha=alpha, inner="direct")).apply(r)
        # with B = C = 0 the two factors act blockwise: the velocity part
        # sees 2 alpha (alpha I)^{-1} (alpha I + A)^{-1}, the pressure part
        # 2 alpha (alpha I)^{-1} (alpha I)^{-1}
        z1_exp = 2.0 * np.linalg.solve(Ad + alpha * np.eye(n), r[:n])
        z2_exp = 2.0 * r[n:] / alpha
        assert np.allclose(z[:n], z1_exp, atol=1e-12)
        assert np.allclose(z[n:], z2_exp, atol=1e-12)


def hss_apply_unassembled(sys_, alpha, r):
    # the hss apply with each SPD block applied as products plus a shifted
    # copy of the operand, never assembled: spmv + alpha x for alpha I + A
    # and alpha I + C, B (B^T x) + alpha^2 x for alpha^2 I + B B^T
    A, B, C, n = sys_.A, sys_.B, sys_.C, sys_.n

    def solve(dim, matvec, rhs):
        return cg(LinearOperator(dim, matvec), rhs, 100.0, 40).solution

    t1 = solve(n, lambda x: spmv(A, x) + alpha * x, r[:n])
    t2 = solve(sys_.m, lambda x: spmv(C, x) + alpha * x, r[n:])
    z2 = solve(sys_.m, lambda x: spmv(B, spmv_transpose(B, x)) + alpha * alpha * x,
               alpha * t2 + spmv(B, t1))
    z1 = (t1 - spmv_transpose(B, z2)) / alpha
    return 2.0 * alpha * np.concatenate([z1, z2])


class TestHssAssembledBlocks:
    @pytest.mark.parametrize("make", [lambda: generate_random_saddle(60, 24, seed=3),
                                      lambda: generate_stokes_q1p0(StokesConfig(8))],
                             ids=["random-60x24", "stokes-q8"])
    def test_cg_apply_matches_unassembled_blocks(self, make):
        sys_ = make()
        app = HssApplicator(sys_, PrecondSpec("hss", alpha=0.1))
        rng = np.random.default_rng(5)
        # the products round differently; inner CG on the ill-conditioned
        # random alpha^2 I + B B^T carries that to about 3e-12 relative
        for _ in range(3):
            r = rng.standard_normal(sys_.order)
            want = hss_apply_unassembled(sys_, 0.1, r)
            assert np.linalg.norm(app.apply(r) - want) <= 1e-10 * np.linalg.norm(want)

    def test_cg_blocks_assembled_on_first_apply(self):
        sys_ = generate_random_saddle(30, 12, seed=2)
        app = HssApplicator(sys_, PrecondSpec("hss", alpha=0.3))
        assert "blocks" not in vars(app)
        app.apply(np.ones(sys_.order))
        shifted_A, shifted_C, shifted_BBt = app.blocks
        assert all(isinstance(M, CsrMatrix) for M in app.blocks)
        Bd = to_dense(sys_.B)
        assert np.allclose(to_dense(shifted_A), to_dense(sys_.A) + 0.3 * np.eye(30), rtol=0, atol=1e-15)
        assert np.allclose(to_dense(shifted_C), to_dense(sys_.C) + 0.3 * np.eye(12), rtol=0, atol=1e-15)
        assert np.allclose(to_dense(shifted_BBt), Bd @ Bd.T + 0.09 * np.eye(12), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("q,steps", [(16, (59, 993)), (32, (124, 2192))])
    def test_unpinned_stokes_steps(self, q, steps):
        # the Table-2 hss rows (alpha = 0.1): the same counts under one
        # BLAS thread and under the Haswell kernel with two
        sys_ = generate_stokes_q1p0(StokesConfig(q, pin_pressure=False))
        prec = make_preconditioner(sys_, PrecondSpec("hss", alpha=0.1))
        rule = StoppingRule(rel_tol=1e-9, max_outer=2000, restart=5)
        report = gmres_restarted(saddle_operator(sys_), sys_.rhs(), prec, rule)
        assert report.converged
        assert (report.outer_iterations, report.total_inner_cg_iterations) == steps

    def test_diagonal_layout_keeps_q32_solution_bits(self, monkeypatch):
        # unpinned q=32 hss: A and alpha I + A take the diagonal layout;
        # with its slot floor out of reach every product is padded, and
        # the counts and the solution are the same to the bit
        def solve():
            sys_ = generate_stokes_q1p0(StokesConfig(32, pin_pressure=False))
            prec = make_preconditioner(sys_, PrecondSpec("hss", alpha=0.1))
            rule = StoppingRule(rel_tol=1e-9, max_outer=2000, restart=5)
            report = gmres_restarted(saddle_operator(sys_), sys_.rhs(), prec, rule)
            layouts = [M._diagonals is not None for M in (sys_.A, *prec.blocks)]
            return report, layouts

        diagonal, diagonal_layouts = solve()
        monkeypatch.setattr(sparse, "_DIAGONAL_MIN_SLOTS", np.inf)
        padded, padded_layouts = solve()
        assert diagonal_layouts == [True, True, False, False] and not any(padded_layouts)
        for report in (diagonal, padded):
            assert (report.outer_iterations, report.total_inner_cg_iterations) == (124, 2192)
        assert np.array_equal(diagonal.solution, padded.solution)
        assert diagonal.residual_history == padded.residual_history


# the systems of the direct-mode bitwise checks: random, pinned and unpinned Stokes
SYSTEMS = {
    "random-30x12": lambda: generate_random_saddle(30, 12, seed=2),
    "stokes-q16": lambda: generate_stokes_q1p0(StokesConfig(16)),
    "stokes-q8-unpinned": lambda: generate_stokes_q1p0(StokesConfig(8, pin_pressure=False)),
}


class TestHssDirectBlocks:
    @pytest.mark.parametrize("case", list(SYSTEMS))
    @pytest.mark.parametrize("alpha", [0.1, 0.37])
    def test_factors_equal_those_of_assembled_copies(self, case, alpha):
        sys_ = SYSTEMS[case]()
        app = HssApplicator(sys_, PrecondSpec("hss", alpha=alpha, inner="direct"))
        for fac, M in zip(app.blocks, (sys_.A, sys_.C)):
            want = factor.cholesky(sparse.add_scaled_identity(M, alpha)).blocks
            assert len(fac.blocks) == len(want)
            for (index, L), (index_want, L_want) in zip(fac.blocks, want):
                assert np.array_equal(index, index_want)
                assert L.tobytes() == L_want.tobytes()

    @pytest.mark.parametrize("case", list(SYSTEMS))
    @pytest.mark.parametrize("alpha", [0.1, 0.37])
    def test_blocks_shift_the_systems_own_matrices(self, case, alpha):
        # A and C by alpha and B's Gram by alpha^2: direct mode factors
        # the shifted copies that CG mode assembles, to the bit
        sys_ = SYSTEMS[case]()
        direct = HssApplicator(sys_, PrecondSpec("hss", alpha=alpha, inner="direct")).blocks
        assembled = HssApplicator(sys_, PrecondSpec("hss", alpha=alpha)).blocks
        table = ((sys_.A, alpha), (sys_.C, alpha), (sys_.B._gram, alpha * alpha))
        for (M, s), fac, got in zip(table, direct, assembled, strict=True):
            shifted = sparse.add_scaled_identity(M, s)
            for name in ("row_ptr", "col_idx", "values"):
                assert np.array_equal(getattr(got, name), getattr(shifted, name)), name
            want = factor.cholesky(shifted).blocks
            assert len(fac.blocks) == len(want)
            for (index, L), (index_want, L_want) in zip(fac.blocks, want):
                assert np.array_equal(index, index_want)
                assert L.tobytes() == L_want.tobytes()

    def test_cg_and_direct_read_one_gram_of_B(self):
        sys_ = SYSTEMS["stokes-q16"]()
        assert "_gram" not in vars(sys_.B)
        HssApplicator(sys_, PrecondSpec("hss")).apply(np.ones(sys_.order))
        gram = vars(sys_.B)["_gram"]
        HssApplicator(sys_, PrecondSpec("hss", alpha=0.2, inner="direct"))
        assert vars(sys_.B)["_gram"] is gram


class TestBatchedResidual:
    @pytest.mark.parametrize("spec", [
        PrecondSpec("mgss", alpha=0.5, beta=0.5),
        PrecondSpec("rmgss", beta=0.5),
        PrecondSpec("hss", alpha=0.5),
    ], ids=["mgss", "rmgss", "hss"])
    def test_cg_mode_rejects_columns(self, spec):
        sys_ = generate_random_saddle(10, 4, seed=0)
        with pytest.raises(ValueError, match="batched application requires inner='direct'"):
            make_preconditioner(sys_, spec).apply(np.ones((sys_.order, 3)))


class TestStokesShiftedBlock:
    # pinned Stokes q=16: beta I + C has order 255 and falls apart into
    # 63 tiles of 4 pressures and one of 3; a cap of 1e4 refuses its
    # 65025-entry dense copy but none of the tiles
    @pytest.mark.parametrize("cap", ["4e6", "1e4"])
    @pytest.mark.parametrize("spec,steps", [
        (PrecondSpec("mgss", alpha=1e-3, beta=1e-3), (13, 293)),
        (PrecondSpec("rmgss", beta=1e-3), (13, 292)),
    ], ids=["mgss", "rmgss"])
    def test_pinned_stokes_q16_same_steps(self, spec, steps, cap, monkeypatch):
        monkeypatch.setenv("SADPREC_DENSE_CAP", cap)
        sys_ = generate_stokes_q1p0(StokesConfig(16))
        prec = make_preconditioner(sys_, spec)
        assert sorted(index.shape for index, _ in prec.shifted_factor.blocks) == [(1, 3), (63, 4)]
        rule = StoppingRule(rel_tol=1e-9, max_outer=2000, restart=5)
        report = gmres_restarted(saddle_operator(sys_), sys_.rhs(), prec, rule)
        assert report.converged
        assert (report.outer_iterations, report.total_inner_cg_iterations) == steps

    @pytest.mark.parametrize("spec,steps", [
        (PrecondSpec("mgss", alpha=1e-3, beta=1e-3), (45, 1602)),
        (PrecondSpec("rmgss", beta=1e-3), (54, 1988)),
    ], ids=["mgss", "rmgss"])
    def test_pinned_stokes_q32_steps(self, spec, steps):
        # the pinned Table-2 rows at q=32: 255 tiles of 4 pressures and one of 3
        sys_ = generate_stokes_q1p0(StokesConfig(32))
        prec = make_preconditioner(sys_, spec)
        assert sorted(index.shape for index, _ in prec.shifted_factor.blocks) == [(1, 3), (255, 4)]
        rule = StoppingRule(rel_tol=1e-9, max_outer=2000, restart=5)
        report = gmres_restarted(saddle_operator(sys_), sys_.rhs(), prec, rule)
        assert report.converged
        assert (report.outer_iterations, report.total_inner_cg_iterations) == steps

    @pytest.mark.parametrize("q,spec,steps", [
        (16, PrecondSpec("mgss", alpha=1e-3, beta=1e-3), (10, 207)),
        (16, PrecondSpec("rmgss", beta=1e-3), (10, 212)),
        (32, PrecondSpec("mgss", alpha=1e-3, beta=1e-3), (13, 434)),
        (32, PrecondSpec("rmgss", beta=1e-3), (13, 428)),
        (64, PrecondSpec("mgss", alpha=1e-3, beta=1e-3), (24, 943)),
        (64, PrecondSpec("rmgss", beta=1e-3), (25, 989)),
    ], ids=["q16-mgss", "q16-rmgss", "q32-mgss", "q32-rmgss", "q64-mgss", "q64-rmgss"])
    def test_unpinned_stokes_steps(self, q, spec, steps):
        # the unpinned Table-2 rows: beta I + C is (q/2)^2 tiles of four
        # pressures; the counts are the same under one BLAS thread and
        # under the Haswell kernel with two
        sys_ = generate_stokes_q1p0(StokesConfig(q, pin_pressure=False))
        prec = make_preconditioner(sys_, spec)
        assert [index.shape for index, _ in prec.shifted_factor.blocks] == [((q // 2) ** 2, 4)]
        rule = StoppingRule(rel_tol=1e-9, max_outer=2000, restart=5)
        report = gmres_restarted(saddle_operator(sys_), sys_.rhs(), prec, rule)
        assert report.converged
        assert (report.outer_iterations, report.total_inner_cg_iterations) == steps


    def test_mgss_rmgss_and_hss_direct_share_one_analysis_of_C(self, monkeypatch):
        # hss direct factors alpha I + C from the analysis mgss made of
        # C, and alpha I + A from one of A; only its Gram block is new
        calls = []
        real = sparse._component_labels
        sys_ = generate_stokes_q1p0(StokesConfig(16))
        names = {id(sys_.A._rows): "A", id(sys_.C._rows): "C"}

        def counting(n, rows, cols):
            calls.append(names.get(id(rows), "gram"))
            return real(n, rows, cols)

        monkeypatch.setattr(sparse, "_component_labels", counting)
        for kind in ("mgss", "rmgss", "hss"):
            make_preconditioner(sys_, PrecondSpec(kind, inner="direct"))
        assert calls == ["C", "A", "gram"]

    def test_hss_direct_shifts_share_three_analyses(self, monkeypatch):
        # an alpha sweep labels A, C and B's Gram once each, in the
        # order hss builds its blocks
        calls = []
        real = sparse._component_labels
        sys_ = generate_stokes_q1p0(StokesConfig(16))
        names = {id(sys_.A._rows): "A", id(sys_.C._rows): "C", id(sys_.B._gram._rows): "gram"}

        def counting(n, rows, cols):
            calls.append(names.get(id(rows), "other"))
            return real(n, rows, cols)

        monkeypatch.setattr(sparse, "_component_labels", counting)
        for alpha in (0.05, 0.1, 0.2, 0.4):
            make_preconditioner(sys_, PrecondSpec("hss", alpha=alpha, inner="direct"))
        assert calls == ["A", "C", "gram"]

    def test_mgss_and_rmgss_share_one_pattern_analysis(self, monkeypatch):
        # both rows of a Table-2 system factor beta I + C from C's one
        # cached analysis: the components are labelled once
        calls = []
        real = sparse._component_labels

        def counting(n, rows, cols):
            calls.append(n)
            return real(n, rows, cols)

        monkeypatch.setattr(sparse, "_component_labels", counting)
        sys_ = generate_stokes_q1p0(StokesConfig(16))
        for spec in (PrecondSpec("mgss"), PrecondSpec("rmgss"), PrecondSpec("rmgss", inner="direct")):
            make_preconditioner(sys_, spec)
        assert calls == [sys_.m]


class TestSchur:
    def test_toy_values(self, toy_t1):
        sys_ = toy_t1
        assert np.allclose(form_schur_dense(sys_, 1.0, 1.0), [[4.0]])
        assert np.allclose(form_schur_dense(sys_, 0.0, 1.0), [[3.0]])

    def test_B_zero_gives_shifted_A(self):
        rng = np.random.default_rng(8)
        Ad = np.diag(rng.uniform(1.0, 2.0, 4))
        sys_ = SaddleSystem(
            CsrMatrix.from_dense(Ad),
            CsrMatrix.zeros(0, 4),
            CsrMatrix.zeros(0, 0),
            np.zeros(4),
            np.zeros(0),
        )
        S = form_schur_dense(sys_, 0.3, 1.0)
        assert np.allclose(S, Ad + 0.3 * np.eye(4))

    def test_operator_spd_probe(self):
        sys_ = generate_random_saddle(30, 14, seed=10)
        app = MgssApplicator(sys_, PrecondSpec("mgss", 0.2, 0.7))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(30)
            assert float(x @ app.schur(x)) > 0.0

    def test_operator_matches_dense(self):
        sys_ = generate_random_saddle(20, 9, seed=2)
        app = MgssApplicator(sys_, PrecondSpec("mgss", 0.4, 0.9))
        S = form_schur_dense(sys_, 0.4, 0.9)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(20)
        assert np.allclose(app.schur(x), S @ x, atol=1e-10 * np.linalg.norm(S))

    @pytest.mark.parametrize("kind", ["mgss", "rmgss"])
    @pytest.mark.parametrize("make,a_diagonal,c_dense", [
        (lambda: generate_stokes_q1p0(StokesConfig(16)), False, False),
        (lambda: generate_stokes_q1p0(StokesConfig(32, pin_pressure=False)), True, False),
        (lambda: generate_random_saddle(60, 24, seed=12), False, True),
        # B's padded layout has two rows for m < 2; the spare ones sum to +0.0
        (lambda: generate_random_saddle(12, 1, seed=3), False, True),
        (lambda: no_constraints(), False, False),
    ], ids=["stokes-q16", "stokes-q32-unpinned", "random-60x24", "random-12x1", "m0"])
    def test_operator_has_the_bits_of_its_products(self, kind, make, a_diagonal, c_dense):
        # x padded once for A and B, and B x carried through both inverse
        # factors to B^T in zero-padded buffers, give the bits of the
        # products one by one: for a vector, a block of columns, and a
        # vector with an inf, which a banded A multiplies on its padded
        # layout.  A is on the diagonal layout for q=32; beta I + C is
        # one dense component for the random systems, else padded
        sys_ = make()
        app = MgssApplicator(sys_, PrecondSpec(kind))
        alpha, shifted = app.spec.alpha, app.shifted_factor
        rng = np.random.default_rng(sys_.order)
        inf = rng.standard_normal(sys_.n)
        inf[3] = np.inf
        for x in (rng.standard_normal(sys_.n), rng.standard_normal((sys_.n, 3)), inf):
            with np.errstate(all="ignore"):
                want = spmv(sys_.A, x)
                if alpha != 0.0:
                    want = want + alpha * x
                want = want + spmv_transpose(sys_.B, factor.solve(shifted, spmv(sys_.B, x)))
                assert app.schur(x).tobytes() == want.tobytes()
        assert (sys_.A._diagonals is not None) == a_diagonal
        assert isinstance(shifted._inverse, np.ndarray) == c_dense

    @pytest.mark.parametrize("kind", ["mgss", "rmgss"])
    def test_direct_setup_factors_shifted_block_once(self, kind, monkeypatch):
        from sadprec import factor

        sys_ = generate_random_saddle(30, 14, seed=4)
        spec = PrecondSpec(kind, alpha=0.2 if kind == "mgss" else 0.0, beta=0.7, inner="direct")
        calls = []
        real = factor.cholesky

        def counting(M, shift=0.0):
            calls.append((M.shape, shift))
            return real(M, shift)

        monkeypatch.setattr(factor, "cholesky", counting)
        app = MgssApplicator(sys_, spec)
        assert calls == [((14, 14), 0.7)]
        # the Schur matrix is the one form_schur_dense builds
        S = form_schur_dense(sys_, spec.alpha, spec.beta)
        [(_, L)] = app.schur.blocks
        assert np.array_equal(L[0], np.linalg.cholesky(S))


class TestSchurComplement:
    # the one dense builder against the two formulas it replaced
    @pytest.mark.parametrize("case", list(SYSTEMS))
    def test_mgss_schur_bits(self, case):
        sys_ = SYSTEMS[case]()
        alpha, beta = 1e-3, 1e-3
        shifted = factor.cholesky(sys_.C, beta)
        Bd = to_dense(sys_.B)
        S = to_dense(sys_.A) + alpha * np.eye(sys_.n) + Bd.T @ factor.solve(shifted, Bd)
        want = 0.5 * (S + S.T)
        got = precond._schur_complement(to_dense(sys_.A) + alpha * np.eye(sys_.n), Bd, shifted)
        assert got.tobytes() == want.tobytes()
        assert form_schur_dense(sys_, alpha, beta).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", list(SYSTEMS))
    def test_predicted_rmgss_matrix_bits(self, case):
        sys_ = SYSTEMS[case]()
        Bd = to_dense(sys_.B)
        fac = factor.cholesky_dense(to_dense(sys_.A))
        G = to_dense(sys_.C) + Bd @ factor.solve(fac, Bd.T)
        want = 0.5 * (G + G.T)
        got = precond._schur_complement(to_dense(sys_.C), Bd.T, fac)
        assert got.tobytes() == want.tobytes()
        mu = np.linalg.eigh(want)[0]
        predicted = spectral.predicted_rmgss_spectrum(sys_, 1e-3).eigenvalues
        spectrum = np.sort(np.concatenate([np.ones(sys_.n), mu / (1e-3 + mu)])).astype(np.complex128)
        assert predicted.tobytes() == spectrum.tobytes()


def no_constraints(n=6):
    # m = 0: a tridiagonal SPD A and no constraint rows at all
    Ad = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return SaddleSystem(
        CsrMatrix.from_dense(Ad),
        CsrMatrix.zeros(0, n),
        CsrMatrix.zeros(0, 0),
        np.arange(1.0, n + 1.0),
        np.zeros(0),
    )


def _instances(toy):
    yield toy
    yield no_constraints()
    yield generate_random_saddle(12, 5, seed=0)
    yield generate_random_saddle(40, 16, seed=1)
    yield generate_random_saddle(120, 50, seed=2)


class TestReconstruction:
    @pytest.mark.parametrize("kind", ["mgss", "rmgss", "hss", "none"])
    def test_dense_P_times_apply_is_identity(self, kind, toy_t1):
        rng = np.random.default_rng(77)
        for sys_ in _instances(toy_t1):
            if kind == "mgss":
                spec = PrecondSpec("mgss", 0.3, 0.8, inner="direct")
            elif kind == "rmgss":
                spec = PrecondSpec("rmgss", beta=0.8, inner="direct")
            elif kind == "hss":
                spec = PrecondSpec("hss", alpha=0.6, inner="direct")
            else:
                spec = PrecondSpec("none")
            app = make_preconditioner(sys_, spec)
            P = dense_preconditioner_matrix(sys_, spec)
            for _ in range(5):
                r = rng.standard_normal(sys_.order)
                # "none" gives None, which gmres_restarted applies as the identity
                z = r if app is None else app.apply(r)
                assert np.linalg.norm(P @ z - r) <= 1e-10 * np.linalg.norm(r)

    def test_three_factor_inverse_identity(self):
        # the block factorization of the mgss matrix, multiplied out,
        # must equal the dense inverse (order <= 100)
        sys_ = generate_random_saddle(60, 25, seed=5)
        alpha, beta = 0.4, 0.9
        n, m = sys_.n, sys_.m
        Ad, Bd, Cd = to_dense(sys_.A), to_dense(sys_.B), to_dense(sys_.C)
        shifted = Cd + beta * np.eye(m)
        S = form_schur_dense(sys_, alpha, beta)
        lower = np.block(
            [[np.eye(n), np.zeros((n, m))], [np.linalg.solve(shifted, Bd), np.eye(m)]]
        )
        middle = np.block(
            [
                [np.linalg.inv(S), np.zeros((n, m))],
                [np.zeros((m, n)), np.linalg.inv(shifted)],
            ]
        )
        upper = np.block(
            [
                [np.eye(n), -Bd.T @ np.linalg.inv(shifted)],
                [np.zeros((m, n)), np.eye(m)],
            ]
        )
        P_inv_factored = 2.0 * lower @ middle @ upper
        P = dense_preconditioner_matrix(sys_, PrecondSpec("mgss", alpha, beta))
        P_inv = np.linalg.inv(P)
        rel = np.linalg.norm(P_inv_factored - P_inv) / np.linalg.norm(P_inv)
        assert rel <= 1e-10

    @pytest.mark.parametrize("spec", [
        PrecondSpec("mgss", alpha=0.3, beta=0.8),
        PrecondSpec("rmgss", beta=0.8),
        PrecondSpec("hss", alpha=0.6),
    ], ids=["mgss", "rmgss", "hss"])
    def test_no_constraints_cg_mode_gmres(self, spec):
        sys_ = no_constraints()
        app = make_preconditioner(sys_, spec)
        rule = StoppingRule(rel_tol=1e-9, max_outer=50, restart=5)
        report = gmres_restarted(saddle_operator(sys_), sys_.rhs(), app, rule)
        assert report.converged
        assert app.inner_iterations > 0
        A = to_dense(sys_.A)
        assert np.linalg.norm(A @ report.solution - sys_.f) <= 1e-8 * np.linalg.norm(sys_.f)


class TestNoConstraintsPaths:
    """m = 0 runs the general eliminations: the empty blocks drop out."""

    @pytest.mark.parametrize("inner", ["cg", "direct"])
    @pytest.mark.parametrize("spec_args,scale", [
        (("mgss", 0.3, 0.8), 2.0),
        (("rmgss", 0.0, 0.8), 1.0),
    ], ids=["mgss", "rmgss"])
    def test_mgss_apply_is_the_schur_solve(self, spec_args, scale, inner):
        sys_ = no_constraints()
        app = MgssApplicator(sys_, PrecondSpec(*spec_args, inner=inner))
        r1 = np.random.default_rng(5).standard_normal(sys_.n)
        if inner == "cg":
            expected = cg(app.schur, scale * r1, 100.0, 40).solution
        else:
            expected = factor.solve(app.schur, scale * r1)
        assert np.array_equal(app.apply(r1), expected)

    @pytest.mark.parametrize("inner", ["cg", "direct"])
    def test_hss_apply_is_twice_the_shifted_A_solve(self, inner):
        sys_ = no_constraints()
        app = HssApplicator(sys_, PrecondSpec("hss", alpha=0.6, inner=inner))
        r1 = np.random.default_rng(6).standard_normal(sys_.n)
        shifted_A = app.blocks[0]
        if inner == "cg":
            t1 = cg(shifted_A, r1, 100.0, 40).solution
        else:
            t1 = factor.solve(shifted_A, r1)
        z = app.apply(r1)
        assert np.linalg.norm(z - 2.0 * t1) <= 1e-15 * np.linalg.norm(2.0 * t1)

    @pytest.mark.parametrize("inner,steps", [("cg", (7, 1, 10)), ("direct", (7, 1, 9))])
    def test_gmres_steps(self, inner, steps):
        sys_ = no_constraints()
        specs = (PrecondSpec("mgss", 0.3, 0.8, inner=inner), PrecondSpec("rmgss", beta=0.8, inner=inner),
                 PrecondSpec("hss", alpha=0.6, inner=inner))
        rule = StoppingRule(rel_tol=1e-9, max_outer=50, restart=5)
        got = tuple(
            gmres_restarted(saddle_operator(sys_), sys_.rhs(), make_preconditioner(sys_, spec), rule)
            .outer_iterations for spec in specs
        )
        assert got == steps
