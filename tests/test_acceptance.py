"""Acceptance gate: one test per criterion, each printing PASS on success.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines.  The instance set shared by the spectral criteria is
the 2x2 toy system, twenty seeded random saddle systems of order up to
120, and the pinned q=4 Stokes discretization.
"""

import time

import numpy as np
import pytest

from sadprec.krylov import StoppingRule, cg, gmres_restarted, saddle_operator
from sadprec.precond import (
    MgssApplicator,
    PrecondSpec,
    dense_preconditioner_matrix,
    form_schur_dense,
    make_preconditioner,
)
from sadprec.problems import (
    StokesConfig,
    generate_random_saddle,
    generate_stokes_q1p0,
    read_matrix_market,
    write_matrix_market,
)
from sadprec.sparse import (
    CsrMatrix,
    SaddleSystem,
    assemble_block_saddle,
    to_dense,
)
from sadprec.spectral import (
    dense_eigen_real_schur,
    gamma_dense,
    jacobi_symmetric,
    predicted_rmgss_spectrum,
    rmgss_preconditioned_dense,
)

_RANDOM_SHAPES = [
    (8, 3), (12, 5), (16, 8), (20, 10), (30, 12),
    (40, 16), (50, 20), (60, 25), (70, 28), (80, 40),
]


def _toy():
    return SaddleSystem(
        CsrMatrix.from_dense([[2.0]]),
        CsrMatrix.from_dense([[1.0]]),
        CsrMatrix.zeros(1, 1),
        np.array([1.0]),
        np.array([0.0]),
    )


@pytest.fixture(scope="module")
def instance_set():
    systems = [("toy", _toy())]
    for idx, (n, m) in enumerate(_RANDOM_SHAPES):
        for seed in (0, 1):
            systems.append((f"rand{n}x{m}s{seed}", generate_random_saddle(n, m, seed=seed + 13 * idx)))
    systems.append(("stokes4", generate_stokes_q1p0(StokesConfig(4))))
    assert len(systems) == 22
    return systems


def test_criterion_1_predicted_spectrum_exactness(instance_set):
    t0 = time.perf_counter()
    worst = 0.0
    for _, sys_ in instance_set:
        assert sys_.order <= 200
        for beta in (0.001, 0.1, 1.0):
            computed = dense_eigen_real_schur(rmgss_preconditioned_dense(sys_, beta)).eigenvalues
            predicted = predicted_rmgss_spectrum(sys_, beta).eigenvalues
            err = float(np.max(np.abs(computed - predicted)))
            worst = max(worst, err)
            assert err <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 (predicted spectrum exactness, worst {worst:.2e}, {elapsed:.1f}s): PASS")


def test_criterion_2_iteration_matrix_contraction(instance_set):
    worst_rho = 0.0
    worst_dist = np.inf
    grid = (0.001, 0.1, 1.0, 10.0)
    for _, sys_ in instance_set:
        for alpha in grid:
            for beta in grid:
                lam = dense_eigen_real_schur(gamma_dense(sys_, alpha, beta)).eigenvalues
                rho = float(np.max(np.abs(lam)))
                d1 = float(np.min(np.abs(lam - 1.0)))
                d2 = float(np.min(np.abs(lam + 1.0)))
                worst_rho = max(worst_rho, rho)
                worst_dist = min(worst_dist, d1, d2)
                assert rho < 1.0
                assert d1 > 1e-10 and d2 > 1e-10
    print(f"ACCEPTANCE 2 (iteration matrix contraction, max rho {worst_rho:.6f}, min dist {worst_dist:.2e}): PASS")


def test_criterion_3_krylov_termination(instance_set):
    systems = list(instance_set) + [
        ("rand130x64", generate_random_saddle(130, 64, density=0.2, seed=21)),
        ("rand140x60", generate_random_saddle(140, 60, density=0.2, seed=22)),
    ]
    worst_margin = None
    for name, sys_ in systems:
        assert sys_.order <= 200
        prec = MgssApplicator(sys_, PrecondSpec("rmgss", beta=0.001, inner="direct"))
        dim = sys_.order
        rep = gmres_restarted(
            saddle_operator(sys_), sys_.rhs(), prec, StoppingRule(1e-9, dim + 1, dim + 1)
        )
        assert rep.converged, name
        assert rep.outer_iterations <= sys_.m + 1, name
        margin = sys_.m + 1 - rep.outer_iterations
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    print(f"ACCEPTANCE 3 (termination within m+1, min slack {worst_margin}): PASS")


def test_criterion_4_table1_dimensions():
    t0 = time.perf_counter()
    expected = {16: (578, 256, 768), 32: (2178, 1024, 3072)}
    for q, (n, m, nnz_c) in expected.items():
        sys_ = generate_stokes_q1p0(StokesConfig(q, pin_pressure=False))
        assert sys_.n == n
        assert sys_.m == m
        assert sys_.C.nnz == nnz_c
    sys16 = generate_stokes_q1p0(StokesConfig(16, pin_pressure=False))
    assert abs(sys16.A.nnz - 3826) <= 0.15 * 3826
    assert abs(sys16.B.nnz - 1800) <= 0.15 * 1800
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 4 (grid dimensions: q=16 nnz A {sys16.A.nnz}, nnz B {sys16.B.nnz}, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_5_table2_qualitative():
    t0 = time.perf_counter()
    sys_ = generate_stokes_q1p0(StokesConfig(16, pin_pressure=False))
    op = saddle_operator(sys_)
    b = sys_.rhs()
    rule = StoppingRule(rel_tol=1e-9, max_outer=3000, restart=5)

    rep_mgss = gmres_restarted(op, b, make_preconditioner(sys_, PrecondSpec("mgss", 0.001, 0.001)), rule)
    assert rep_mgss.converged and rep_mgss.outer_iterations <= 18

    rep_rmgss = gmres_restarted(op, b, make_preconditioner(sys_, PrecondSpec("rmgss", beta=0.001)), rule)
    assert rep_rmgss.converged and rep_rmgss.outer_iterations <= 18

    rep_none = gmres_restarted(op, b, None, rule)
    assert rep_none.outer_iterations >= 2 * rep_mgss.outer_iterations

    best_hss = None
    for alpha in (0.02, 0.05, 0.1, 0.2, 0.4):
        rep = gmres_restarted(op, b, make_preconditioner(sys_, PrecondSpec("hss", alpha=alpha)), rule)
        if rep.converged and (best_hss is None or rep.outer_iterations < best_hss.outer_iterations):
            best_hss = rep
    assert best_hss is not None and best_hss.converged
    assert best_hss.outer_iterations > rep_mgss.outer_iterations

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5 (q=16 iterations: mgss {rep_mgss.outer_iterations}, "
        f"rmgss {rep_rmgss.outer_iterations}, none {rep_none.outer_iterations}, "
        f"hss {best_hss.outer_iterations}, {elapsed:.1f}s): PASS"
    )


def test_criterion_6_reconstruction(instance_set):
    rng = np.random.default_rng(2024)
    systems = [sys_ for name, sys_ in instance_set if name in
               ("toy", "rand12x5s0", "rand40x16s0", "rand120x50s0", "stokes4")]
    # fall back to explicit picks if the naming above drifts
    if len(systems) < 5:
        systems = [_toy(), generate_random_saddle(12, 5, seed=0),
                   generate_random_saddle(40, 16, seed=1),
                   generate_random_saddle(120, 50, seed=2),
                   generate_stokes_q1p0(StokesConfig(4))]
    specs = [
        PrecondSpec("mgss", 0.3, 0.8, inner="direct"),
        PrecondSpec("rmgss", beta=0.8, inner="direct"),
        PrecondSpec("hss", alpha=0.6, inner="direct"),
        PrecondSpec("none"),
    ]
    total = 0
    worst = 0.0
    for sys_ in systems:
        for spec in specs:
            app = make_preconditioner(sys_, spec)
            P = dense_preconditioner_matrix(sys_, spec)
            R = rng.standard_normal((sys_.order, 50))
            # "none" gives None, which gmres_restarted applies as the identity
            Z = R if app is None else app.apply(R)
            resid = P @ Z - R
            err = float(np.max(np.linalg.norm(resid, axis=0) / np.linalg.norm(R, axis=0)))
            worst = max(worst, err)
            assert err <= 1e-10
            total += 50
    assert total == 1000

    # three-factor form of the inverse against the dense inverse (order <= 100)
    sys_ = generate_random_saddle(60, 25, seed=5)
    alpha, beta = 0.4, 0.9
    n, m = sys_.n, sys_.m
    Bd, Cd = to_dense(sys_.B), to_dense(sys_.C)
    shifted = Cd + beta * np.eye(m)
    S = form_schur_dense(sys_, alpha, beta)
    lower = np.block([[np.eye(n), np.zeros((n, m))], [np.linalg.solve(shifted, Bd), np.eye(m)]])
    middle = np.block([[np.linalg.inv(S), np.zeros((n, m))], [np.zeros((m, n)), np.linalg.inv(shifted)]])
    upper = np.block([[np.eye(n), -Bd.T @ np.linalg.inv(shifted)], [np.zeros((m, n)), np.eye(m)]])
    P_inv = np.linalg.inv(dense_preconditioner_matrix(sys_, PrecondSpec("mgss", alpha, beta)))
    rel = np.linalg.norm(2.0 * lower @ middle @ upper - P_inv) / np.linalg.norm(P_inv)
    assert rel <= 1e-10
    print(f"ACCEPTANCE 6 (reconstruction over {total} residuals, worst {worst:.2e}; "
          f"factored inverse rel err {rel:.2e}): PASS")


def test_criterion_7_shift_splitting_reduction():
    rng = np.random.default_rng(99)
    n, m = 4, 2
    W = rng.standard_normal((n, n))
    Ad = W @ W.T + n * np.eye(n)
    Ad = 0.5 * (Ad + Ad.T)
    Bd = rng.standard_normal((m, n))
    Bd[:, :m] += 2.0 * np.eye(m)
    sys_ = SaddleSystem(
        CsrMatrix.from_dense(Ad),
        CsrMatrix.from_dense(Bd),
        CsrMatrix.zeros(m, m),
        np.zeros(n),
        np.zeros(m),
    )
    alpha = 0.37
    app = MgssApplicator(sys_, PrecondSpec("mgss", alpha, alpha, inner="direct"))
    P_ss_inv = np.linalg.inv(0.5 * (alpha * np.eye(n + m) + to_dense(assemble_block_saddle(sys_))))
    worst = 0.0
    for _ in range(20):
        r = rng.standard_normal(n + m)
        err = np.linalg.norm(app.apply(r) - P_ss_inv @ r) / np.linalg.norm(r)
        worst = max(worst, float(err))
        assert err <= 1e-10
    print(f"ACCEPTANCE 7 (shift-splitting reduction at C=0, worst {worst:.2e}): PASS")


def test_criterion_8_solver_oracles(tmp_path):
    rng = np.random.default_rng(4242)
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(2, 45))
        W = rng.standard_normal((n, n))
        Ad = W @ W.T + n * np.eye(n)
        Ad = 0.5 * (Ad + Ad.T)
        b = rng.standard_normal(n)
        x_star = np.linalg.solve(Ad, b)
        rep = cg(CsrMatrix.from_dense(Ad), b, reduction_factor=1e13, max_iters=30 * n)
        err = np.linalg.norm(rep.solution - x_star) / np.linalg.norm(x_star)
        worst = max(worst, float(err))
        assert err <= 1e-8
    for trial in range(25):
        n = int(rng.integers(3, 35))
        m = int(rng.integers(1, max(2, n // 2 + 1)))
        sys_ = generate_random_saddle(n, m, seed=int(rng.integers(0, 100000)))
        x_star = np.linalg.solve(to_dense(assemble_block_saddle(sys_)), sys_.rhs())
        k = sys_.order
        rep = gmres_restarted(saddle_operator(sys_), sys_.rhs(), None, StoppingRule(1e-11, 3 * k, k))
        assert rep.converged
        err = np.linalg.norm(rep.solution - x_star) / np.linalg.norm(x_star)
        worst = max(worst, float(err))
        assert err <= 1e-8

    dense = rng.standard_normal((9, 7)) * (rng.random((9, 7)) < 0.5)
    M = CsrMatrix.from_dense(dense)
    path = tmp_path / "roundtrip.mtx"
    write_matrix_market(M, path)
    M2 = read_matrix_market(path)
    assert np.array_equal(M.values, M2.values)
    assert np.array_equal(M.col_idx, M2.col_idx)
    print(f"ACCEPTANCE 8 (solver oracles over 50 systems, worst {worst:.2e}; "
          f"matrix market bit-exact): PASS")


def test_criterion_9_clustering_monotonicity():
    sys_ = generate_stokes_q1p0(StokesConfig(4))
    Ad, Bd, Cd = to_dense(sys_.A), to_dense(sys_.B), to_dense(sys_.C)
    G = Cd + Bd @ np.linalg.solve(Ad, Bd.T)
    mu, _ = jacobi_symmetric(0.5 * (G + G.T))
    mu_min = float(np.min(mu))
    assert mu_min > 0.0
    deviations = []
    for beta in (1.0, 0.1, 0.01, 0.001):
        lam = dense_eigen_real_schur(rmgss_preconditioned_dense(sys_, beta)).eigenvalues
        dev = np.sort(np.abs(lam - 1.0))[::-1][: sys_.m]
        worst_dev = float(np.max(dev))
        assert abs(worst_dev - beta / (beta + mu_min)) <= 1e-8
        deviations.append(worst_dev)
    assert all(deviations[i + 1] < deviations[i] for i in range(len(deviations) - 1))
    print(
        "ACCEPTANCE 9 (cluster radius beta/(beta+mu_min): "
        + ", ".join(f"{d:.4f}" for d in deviations)
        + " decreasing): PASS"
    )
