"""The benchmark's workloads, built only from sadprec's public functions.

A workload is set up once per pass (problem generation and
preconditioner construction, timed as ``setup_s``) and then run
(spectral checks and GMRES solves, timed as ``solve_s``).  Passes run
one after another in one process, one solve at a time.  Only
``spectral-checks`` depends on the seed: it picks the random saddle
systems.  The Stokes systems are fixed by the grid, so the seed
changes nothing else.
"""

import time
from dataclasses import dataclass, field

from sadprec import krylov, precond, problems, spectral, stationary

# The paper's settings: GMRES(5) to a relative residual of 1e-9, inner
# CG with the factor-100 / 40-step rule (the PrecondSpec default), and
# the shifts of the Table-2 rows.
RULE = krylov.StoppingRule(rel_tol=1e-9, max_outer=2000, restart=5)
SHIFT = 1e-3
HSS_ALPHA = 0.1
# Spectral checks: rmgss spectrum at the headline beta, iteration
# matrix at alpha = beta = 0.1, twelve random systems of order 84.
# Many small systems rather than a few large ones: the dense
# eigensolver's work varies by instance, a sum over twelve little by seed.
ITERATION_SHIFT = 0.1
RANDOM_SHAPE = (60, 24)
RANDOM_INSTANCES = 12
SPECTRUM_ATOL = 1e-8


@dataclass
class Row:
    """One GMRES solve: a system, its preconditioner, and whether it is pinned."""

    label: str
    system: object
    prec: object
    pinned: bool


@dataclass
class Setup:
    """A workload's inputs: GMRES rows, and systems for the spectral checks."""

    rows: list
    instances: list = field(default_factory=list)  # (label, SaddleSystem)


@dataclass
class PassResult:
    """What one pass measured, plus what the correctness gate inspects.

    Solutions are kept by row label, without the system: a pass holds
    no inputs, so memory does not grow with the number of passes.
    """

    solve_s: float = 0.0
    outer_steps: int = 0
    inner_steps: int = 0
    solutions: list = field(default_factory=list)  # (row label, SolveReport)
    checks: list = field(default_factory=list)  # (name, ok, detail)


def _stokes(q, pinned=True):
    return problems.generate_stokes_q1p0(problems.StokesConfig(q, pin_pressure=pinned))


def _shift_split_rows(label, system):
    return [
        Row(f"{label} mgss", system,
            precond.make_preconditioner(system, precond.PrecondSpec("mgss", alpha=SHIFT, beta=SHIFT)), True),
        Row(f"{label} rmgss", system,
            precond.make_preconditioner(system, precond.PrecondSpec("rmgss", beta=SHIFT)), True),
    ]


def instance_seeds(seed):
    """Seeds of the random saddle systems of ``spectral-checks``."""
    return [RANDOM_INSTANCES * seed + i for i in range(RANDOM_INSTANCES)]


def setup_shift_q16(seed):
    return Setup(_shift_split_rows("stokes16", _stokes(16)))


def setup_hss_q64(seed):
    system = _stokes(64, pinned=False)
    return Setup([Row("stokes64 hss", system,
                      precond.make_preconditioner(system, precond.PrecondSpec("hss", alpha=HSS_ALPHA)), False)])


def setup_spectral(seed):
    instances = [(f"random{s}", problems.generate_random_saddle(*RANDOM_SHAPE, seed=s))
                 for s in instance_seeds(seed)]
    stokes8 = _stokes(8)
    instances.append(("stokes8", stokes8))
    return Setup(_shift_split_rows("stokes8", stokes8), instances)


def run_pass(state, after_part=None):
    """The spectral checks of every instance, then every GMRES row.

    ``after_part``, if given, is called untimed with the seconds of
    each instance's checks and of each row's solve, after each.
    """
    out = PassResult()
    for label, system in state.instances:
        t0 = time.perf_counter()
        predicted = spectral.predicted_rmgss_spectrum(system, SHIFT).eigenvalues
        computed = spectral.dense_eigen_real_schur(
            spectral.rmgss_preconditioned_dense(system, SHIFT)).eigenvalues
        rho = spectral.iteration_matrix_check(system, ITERATION_SHIFT, ITERATION_SHIFT)["rho"]
        power = spectral.power_spectral_radius(
            stationary.IterationMatrixOperator(system, ITERATION_SHIFT, ITERATION_SHIFT))
        elapsed = time.perf_counter() - t0
        out.solve_s += elapsed
        if after_part is not None:
            after_part(elapsed)
        err = float(abs(predicted - computed).max())
        out.checks += [
            (f"{label} predicted spectrum", err <= SPECTRUM_ATOL, f"max error {err:.2e}"),
            (f"{label} contraction", rho < 1.0, f"rho {rho:.8f}"),
            (f"{label} power bound", power <= rho, f"power {power:.8f} vs rho {rho:.8f}"),
        ]
    for row in state.rows:
        t0 = time.perf_counter()
        rep = krylov.gmres_restarted(krylov.saddle_operator(row.system), row.system.rhs(), row.prec, RULE)
        elapsed = time.perf_counter() - t0
        out.solve_s += elapsed
        if after_part is not None:
            after_part(elapsed)
        out.outer_steps += rep.outer_iterations
        out.inner_steps += rep.total_inner_cg_iterations
        out.solutions.append((row.label, rep))
    return out


@dataclass(frozen=True)
class Workload:
    """A workload, and how its time follows the host's speed.

    ``host_sensitivity`` is the slope of the log of the workload's time
    against the log of the reference loop's time (see hostspeed.py),
    fitted over ten-second windows on the baseline host.  Loops of small
    numpy calls follow the loop one to one; the hss solve, made of long
    vector operations, follows it about half as much.
    """

    name: str
    why: str
    setup: object
    host_sensitivity: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stokes-shift-q16",
            "Table-2 rows: pinned Stokes q=16, mgss and rmgss with inner CG; "
            "hundreds of single-vector factor solves",
            setup_shift_q16, 1.0),
        Workload(
            "stokes-hss-q64",
            "unpinned Stokes q=64 with hss in CG mode: spmv and GMRES orthogonalisation, "
            "no factor calls",
            setup_hss_q64, 0.5),
        Workload(
            "spectral-checks",
            "twelve seeded random saddle systems plus pinned Stokes q=8: eigensolvers, "
            "power iteration, many dense factorisations",
            setup_spectral, 1.0),
    )
}
