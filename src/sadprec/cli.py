"""Benchmark command line: generate, solve, sweep, spectrum, bench.

Each record is written one way.  ``solve`` prints its record as JSON;
``sweep`` and ``bench`` print CSV records, the same bytes their
``--csv`` file gets; ``spectrum`` writes an eigenvalue CSV and, beside
it, a gnuplot script that plots it.  All commands are deterministic
given identical inputs and seeds (wall times excepted).  Timings
(``timing_scope``) cover the solver call only: the clock starts after
the preconditioner's constructor, so what is built on first use is
timed: the hss CG-mode blocks, sparse product layouts and Cholesky
inverse factors (see the ``precond`` docstring).  The process exits 0
only if every requested solve converged, and 2 with an ``error:`` line
on invalid input or a file it cannot read or write.
"""

import argparse
import csv
import io
import itertools
import json
import os
import pathlib
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import problems, spectral
from .krylov import StoppingRule, gmres_restarted, saddle_operator, stationary_richardson
from .precond import SHIFTS, PrecondSpec, make_preconditioner

TIMING_SCOPE = "solver call only"


@dataclass
class BenchRecord:
    problem: str
    method: str
    alpha: float
    beta: float
    it: int
    cpu: float
    converged: bool
    final_relres: float
    inner_iterations: int
    restart: int
    tol: float
    stop_reason: str
    timing_scope: str = TIMING_SCOPE


def _csv_text(records, optimal=None):
    """The records as CSV text under a header line.

    ``optimal``, one flag per record, adds an ``optimal`` column.
    Floats are written at full precision except the wall time, booleans
    in lower case; a field holding a comma or a quote is quoted.
    """
    def cell(name, v):
        if isinstance(v, bool):
            return str(v).lower()
        if isinstance(v, float):
            return f"{v:.6f}" if name == "cpu" else f"{v:.17g}"
        return v

    names = [f.name for f in fields(BenchRecord)]
    rows = [[cell(name, getattr(rec, name)) for name in names] for rec in records]
    if optimal is not None:
        names.append("optimal")
        rows = [row + [cell("optimal", flag)] for row, flag in zip(rows, optimal)]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([names] + rows)
    return out.getvalue()


def _report(records, csv_path, optimal=None):
    """Write the records' CSV text to ``csv_path`` if given, print it; the exit status."""
    text = _csv_text(records, optimal)
    if csv_path:
        pathlib.Path(csv_path).write_text(text)
    print(text, end="")
    return 0 if all(r.converged for r in records) else 1


def _load(indir):
    """A bundle's system and its problem id, ``<generator>:<bundle directory>``."""
    sys_, meta = problems.load_bundle(indir)
    return sys_, meta.get("generator", "bundle") + f":{os.path.basename(os.path.normpath(indir))}"


def _rule(args):
    return StoppingRule(rel_tol=args.tol, max_outer=args.max_outer, restart=args.restart)


def _solve_once(sys_, problem_id, spec, rule, stationary=False):
    op = saddle_operator(sys_)
    b = sys_.rhs()
    # the clock starts after the preconditioner's constructor (module docstring)
    prec = make_preconditioner(sys_, spec)
    solver = stationary_richardson if stationary else gmres_restarted
    t0 = time.perf_counter()
    report = solver(op, b, prec, rule)
    cpu = time.perf_counter() - t0
    return BenchRecord(
        problem=problem_id,
        method=("stationary-" if stationary else "") + spec.kind,
        alpha=spec.alpha,
        beta=spec.beta,
        it=report.outer_iterations,
        cpu=cpu,
        converged=report.converged,
        final_relres=report.final_relative_residual,
        inner_iterations=report.total_inner_cg_iterations,
        restart=rule.restart,
        tol=rule.rel_tol,
        stop_reason=report.stop_reason,
    )


# -- generate -------------------------------------------------------------


def cmd_generate(args):
    if args.generator == "stokes":
        cfg = problems.StokesConfig(args.q, stab_param=args.stab, pin_pressure=args.pin)
        sys_ = problems.generate_stokes_q1p0(cfg)
        meta = {"generator": "stokes-q1p0", **vars(cfg)}
    else:
        sys_ = problems.generate_random_saddle(args.n, args.m, density=args.density, seed=args.seed)
        meta = {"generator": "random", "seed": args.seed, "density": args.density}
    problems.save_bundle(sys_, args.out, meta)
    print(f"wrote bundle to {args.out} (n={sys_.n}, m={sys_.m})")
    return 0


# -- solve ----------------------------------------------------------------


def cmd_solve(args):
    sys_, problem_id = _load(args.indir)
    if args.stationary and args.method != "mgss":
        raise ValueError("--stationary runs the mgss splitting scheme; use --method mgss")
    spec = PrecondSpec(args.method, args.alpha, args.beta, args.inner)
    record = _solve_once(sys_, problem_id, spec, _rule(args), args.stationary)
    print(json.dumps(asdict(record), sort_keys=True))
    if args.csv:
        pathlib.Path(args.csv).write_text(_csv_text([record]))
    return 0 if record.converged else 1


# -- sweep ----------------------------------------------------------------


def _grid(text):
    """``start:stop:count`` as the ``count`` evenly spaced points."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError("a grid must contain at least one point")
    return np.linspace(start, stop, count)


def cmd_sweep(args):
    sys_, problem_id = _load(args.indir)
    # a shift without a grid takes the one point None: its Table-2 value
    grids = [[None] if grid is None else grid for grid in (args.alpha_grid, args.beta_grid)]
    specs = [PrecondSpec(args.method, alpha, beta, args.inner)
             for alpha, beta in itertools.product(*grids)]
    rule = _rule(args)
    records = [_solve_once(sys_, problem_id, spec, rule) for spec in specs]
    # min keeps the earliest of tied grid points, so reruns agree
    best = min((idx for idx, rec in enumerate(records) if rec.converged),
               key=lambda idx: records[idx].it, default=None)
    return _report(records, args.csv, [idx == best for idx in range(len(records))])


# -- spectrum -------------------------------------------------------------

# each operator: the preconditioner kind whose shifts it takes, and the function
# of the system and that kind's spec that forms the dense matrix (none for the
# predicted spectrum, which is not computed from a matrix)
_OPERATORS = {
    "saddle": ("none", spectral.preconditioned_dense),
    "mgss-prec": ("mgss", spectral.preconditioned_dense),
    "rmgss-prec": ("rmgss", spectral.preconditioned_dense),
    "gamma": ("mgss", lambda sys_, spec: spectral.gamma_dense(sys_, spec.alpha, spec.beta)),
    "rmgss-predicted": ("rmgss", None),
}


def cmd_spectrum(args):
    sys_, _ = problems.load_bundle(args.indir)
    kind, dense = _OPERATORS[args.operator]
    prec = PrecondSpec(kind, args.alpha, args.beta)
    if dense is None:
        spec = spectral.predicted_rmgss_spectrum(sys_, prec.beta)
    else:
        spec = spectral.dense_eigen_real_schur(dense(sys_, prec))
    spec.save_csv(args.csv)
    gp_path = spectral.save_gnuplot(args.csv, args.operator)
    print(f"wrote {len(spec)} eigenvalues to {args.csv} and plot script to {gp_path}")
    return 0


# -- bench ----------------------------------------------------------------


def cmd_bench(args):
    # every grid and shift is checked before the first solve
    configs = [problems.StokesConfig(q, pin_pressure=args.pin) for q in args.grids]
    specs = [PrecondSpec(meth, args.alpha, args.beta, args.inner) for meth in args.methods]
    rule = _rule(args)
    records = []
    for cfg in configs:
        sys_ = problems.generate_stokes_q1p0(cfg)
        pid = f"stokes-{cfg.q}x{cfg.q}" + ("-pinned" if args.pin else "")
        records.extend(_solve_once(sys_, pid, spec, rule) for spec in specs)
    return _report(records, args.csv)


# -- parser ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sadprec",
        description="saddle point preconditioner benchmarks (mgss, rmgss, hss)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--restart", type=int, default=StoppingRule.restart)
    solver.add_argument("--tol", type=float, default=StoppingRule.rel_tol)
    solver.add_argument("--max-outer", type=int, default=StoppingRule.max_outer)
    solver.add_argument("--inner", choices=("cg", "direct"), default="cg")
    shifts = argparse.ArgumentParser(add_help=False)
    for name in ("alpha", "beta"):
        shifts.add_argument(f"--{name}", type=float, help="if the method takes it (default: the method's)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output bundle directory")

    p = sub.add_parser("generate", help="write a saddle system bundle")
    p.set_defaults(func=cmd_generate)
    generators = p.add_subparsers(dest="generator", required=True)
    g = generators.add_parser("stokes", parents=[out], help="stabilized Q1-P0 Stokes system")
    g.add_argument("--q", type=int, required=True, help="cells per side, even")
    g.add_argument("--stab", type=float, default=0.25, help="stabilization parameter")
    g.add_argument("--no-pin", dest="pin", action="store_false",
                   help="keep the singular unpinned pressure space")
    g = generators.add_parser("random", parents=[out], help="seeded random saddle system")
    g.add_argument("--n", type=int, required=True, help="velocity unknowns")
    g.add_argument("--m", type=int, required=True, help="constraints, at most n")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--density", type=float, default=0.3)

    p = sub.add_parser("solve", parents=[solver, shifts], help="solve one bundle and print a JSON record")
    p.add_argument("--in", dest="indir", required=True, help="bundle directory")
    p.add_argument("--method", choices=SHIFTS, required=True)
    p.add_argument("--stationary", action="store_true", help="run the splitting iteration instead of GMRES")
    p.add_argument("--csv", help="also write the record as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[solver], help="parameter sweep, CSV output with the optimum marked")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--method", choices=SHIFTS, required=True)
    p.add_argument("--alpha-grid", type=_grid, help="start:stop:count (default: the method's alpha)")
    p.add_argument("--beta-grid", type=_grid, help="start:stop:count (default: the method's beta)")
    p.add_argument("--csv", help="write the sweep table to this file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", parents=[shifts],
                       help="export an eigenvalue scatter as CSV plus a gnuplot script beside it")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--operator", choices=_OPERATORS, required=True)
    p.add_argument("--csv", default="spectrum.csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bench", parents=[solver, shifts], help="grid x method Stokes solves, CSV records on stdout")
    p.add_argument("--grids", nargs="+", type=int, required=True, metavar="Q", help="e.g. 4 8 16")
    p.add_argument("--methods", nargs="+", choices=SHIFTS, required=True)
    p.add_argument(
        "--pin",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="pin the last pressure unknown (default: unpinned, consistent system; "
        "the pin leaves one isolated small eigenvalue on which GMRES(5) stalls or "
        "converges at rounding-dependent counts)",
    )
    p.add_argument("--csv", help="also write the records to this file")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
