"""Tests of the benchmark's own machinery: spans, the correctness gate, seeds, host speed.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from sadprec import factor, krylov, precond, problems, sparse, stationary  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],   # overlaps a: the union [1, 6] is covered once
        ["c", 2.0, 3.0, 1],   # grandchild: already inside a, not subtracted from root
        ["b", 8.0, 9.0, 0],
    ]
    totals = spans.span_totals(tree)
    assert totals["root"] == (1, 10.0, 10.0 - 5.0 - 1.0)
    assert totals["a"] == (1, 3.0, 2.0)
    assert totals["b"] == (2, 4.0, 4.0)
    assert totals["c"] == (1, 1.0, 1.0)


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert tracer.spans == [["outer", 0.0, 5.0, -1], ["inner", 1.0, 2.0, 0], ["inner", 3.0, 4.0, 0]]
    assert spans.span_totals(tracer.spans)["outer"] == (1, 5.0, 3.0)


def test_install_covers_imported_names_and_uninstall_restores_them():
    bindings = spans.layer_bindings()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in bindings]
    assert precond.spmv is sparse.spmv and krylov.spmv is sparse.spmv
    assert "__call__" not in vars(stationary.IterationMatrixOperator)

    tracer = spans.Tracer()
    tracer.install(bindings)
    try:
        assert precond.spmv is not sparse.spmv
        system = problems.generate_stokes_q1p0(problems.StokesConfig(4))
        prec = precond.make_preconditioner(system, precond.PrecondSpec("mgss", alpha=1e-3, beta=1e-3))
        rep = krylov.gmres_restarted(krylov.saddle_operator(system), system.rhs(), prec)
    finally:
        tracer.uninstall()

    assert rep.converged
    assert [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in bindings] == before
    names = {s[0] for s in tracer.spans}
    assert {"problems.generate", "precond.setup", "factor.cholesky", "krylov.gmres", "precond.apply",
            "krylov.cg", "factor.solve", "sparse.matvec", "sparse.spmv"} <= names
    metrics = spans.layer_metrics(tracer.spans, tracer.counts, passes=1)
    assert metrics["krylov.gmres_cycles"][0] == len(rep.residual_history) - 1
    assert metrics["precond.apply_calls"][0] == rep.outer_iterations
    assert metrics["precond.inner_per_apply"][0] == rep.total_inner_cg_iterations / rep.outer_iterations
    assert metrics["sparse.spmv_nnz"][0] > metrics["sparse.spmv_calls"][0] > 0
    assert metrics["spectral.dense_eig_s"][0] == 0.0
    # once uninstalled, calls leave no spans
    count = len(tracer.spans)
    factor.solve(factor.cholesky(system.A), system.f)
    assert len(tracer.spans) == count


def _solved_row():
    system = problems.generate_stokes_q1p0(problems.StokesConfig(4))
    prec = precond.make_preconditioner(system, precond.PrecondSpec("rmgss", beta=1e-3))
    row = workloads.Row("stokes4 rmgss", system, prec, True)
    return row, workloads.run_pass(workloads.Setup([row]))


def test_gate_passes_a_true_solution():
    row, result = _solved_row()
    checks = oracle.gate([result], [row], workloads.RULE.rel_tol)
    assert [ok for _, ok, _ in checks] == [True, True, True]


@pytest.mark.parametrize("corrupt", [
    lambda x: x * (1.0 + 1e-6),
    lambda x: np.where(np.arange(x.size) == 7, x[7] + 1.0, x),
    lambda x: np.full_like(x, np.nan),
])
def test_corrupted_solution_counts_as_failure(corrupt):
    row, result = _solved_row()
    (_, rep), = result.solutions
    rep.solution = corrupt(rep.solution)
    checks = oracle.gate([result], [row], workloads.RULE.rel_tol)
    failed = [name for name, ok, _ in checks if not ok]
    assert "stokes4 rmgss residual" in failed


def test_unconverged_solve_counts_as_failure():
    row, result = _solved_row()
    result.solutions[0][1].converged = False
    failed = [name for name, ok, _ in oracle.gate([result], [row], workloads.RULE.rel_tol) if not ok]
    assert failed == ["stokes4 rmgss converged"]


def _arrays(system):
    return [a for M in (system.A, system.B, system.C) for a in (M.row_ptr, M.col_idx, M.values)] + [
        system.f, system.g]


def _same(s1, s2):
    return all(np.array_equal(a, b) for a, b in zip(_arrays(s1), _arrays(s2)))


def test_seed_changes_the_random_instances_and_nothing_else():
    first, second = workloads.setup_spectral(1), workloads.setup_spectral(2)
    inst1, rows1, inst2, rows2 = first.instances, first.rows, second.instances, second.rows
    again = workloads.setup_spectral(1).instances
    assert [label for label, _ in inst1] != [label for label, _ in inst2]
    for (_, a), (_, b), (_, c) in zip(inst1[:-1], inst2[:-1], again[:-1]):
        assert not _same(a, b)
        assert _same(a, c)
    assert _same(inst1[-1][1], inst2[-1][1])
    assert [(r.label, r.prec.spec.__dict__, r.pinned) for r in rows1] == \
        [(r.label, r.prec.spec.__dict__, r.pinned) for r in rows2]
    for setup in (workloads.setup_shift_q16, workloads.setup_hss_q64):
        r1, r2 = setup(1).rows, setup(2).rows
        assert [r.label for r in r1] == [r.label for r in r2]
        assert all(_same(a.system, b.system) for a, b in zip(r1, r2))


def test_reference_loop_time_stays_in_proportion_to_the_work(monkeypatch):
    clock = iter(range(1000))
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: 0.01 * next(clock))
    ref, samples = hostspeed.Reference(), []
    monkeypatch.setattr(ref, "work", lambda: 0.0)  # each sample takes 0.01 s on the fake clock
    ref.follow(0.0, samples)
    assert samples == []
    for _ in range(10):
        ref.follow(0.1175, samples)  # owes 0.0235 s more each time
    assert len(samples) == 24  # the overshoot is carried over, not lost or repaid twice
    assert sum(samples) == pytest.approx(hostspeed.SHARE * 1.175, abs=0.01)
    assert hostspeed.slowdown(samples) == pytest.approx(0.01 / hostspeed.REFERENCE_SECONDS)
