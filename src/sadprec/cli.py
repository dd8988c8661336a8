"""Benchmark command line: generate, solve, sweep, spectrum, bench.

All commands are deterministic given identical inputs and seeds (wall
times excepted).  Timings cover the solver call only, never assembly
or factorization setup; the JSON/CSV records say so in their
``timing_scope`` field.  The process exits 0 only if every requested
solve converged.
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
from .sparse import assemble_block_saddle, to_dense

TIMING_SCOPE = "solver call only"
# alpha and beta of each kind in solve and bench when not given (hss: Table 2)
DEFAULT_SHIFTS = {"mgss": 0.001, "rmgss": 0.001, "hss": 0.1}


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


class CliError(Exception):
    pass


def _kv_pairs(tokens, what):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise CliError(f"{what} expects key=value tokens, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


def _make_spec(method, shifts, inner):
    # shifts maps shift names to values; only those the method takes reach the spec
    return PrecondSpec(method, inner=inner, **{name: shifts[name] for name in SHIFTS[method]})


def _load(indir):
    """A bundle's system and its problem id, ``<generator>:<bundle directory>``."""
    sys_, meta = problems.load_bundle(indir)
    return sys_, meta.get("generator", "bundle") + f":{os.path.basename(os.path.normpath(indir))}"


def _rule(args):
    return StoppingRule(rel_tol=args.tol, max_outer=args.max_outer, restart=args.restart)


def _solve_once(sys_, problem_id, spec, rule, stationary=False):
    op = saddle_operator(sys_)
    b = sys_.rhs()
    # the clock starts after preconditioner setup: cpu is the solver call only
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
    if (args.stokes is None) == (args.random is None):
        raise CliError("choose exactly one of --stokes or --random")
    if args.stokes is not None:
        kv = _kv_pairs(args.stokes, "--stokes")
        unknown = set(kv) - {"q", "stab"}
        if unknown:
            raise CliError(f"--stokes got unknown keys {sorted(unknown)}")
        if "q" not in kv:
            raise CliError("--stokes requires q=<cells per side>")
        cfg = problems.StokesConfig(
            int(kv["q"]),
            stab_param=float(kv.get("stab", 0.25)),
            pin_pressure=not args.no_pin,
        )
        sys_ = problems.generate_stokes_q1p0(cfg)
        meta = {
            "generator": "stokes-q1p0",
            "q": cfg.q,
            "stab_param": cfg.stab_param,
            "pin_pressure": cfg.pin_pressure,
        }
    else:
        kv = _kv_pairs(args.random, "--random")
        unknown = set(kv) - {"n", "m", "seed", "density"}
        if unknown:
            raise CliError(f"--random got unknown keys {sorted(unknown)}")
        for need in ("n", "m"):
            if need not in kv:
                raise CliError(f"--random requires {need}=<count>")
        n, m = int(kv["n"]), int(kv["m"])
        seed = int(kv.get("seed", 0))
        density = float(kv.get("density", 0.3))
        sys_ = problems.generate_random_saddle(n, m, density=density, seed=seed)
        meta = {"generator": "random", "seed": seed, "density": density}
    problems.save_bundle(sys_, args.out, meta)
    print(f"wrote bundle to {args.out} (n={sys_.n}, m={sys_.m})")
    return 0


# -- solve ----------------------------------------------------------------


def cmd_solve(args):
    sys_, problem_id = _load(args.indir)
    if args.stationary and args.method != "mgss":
        raise CliError("--stationary runs the mgss splitting scheme; use --method mgss")
    # every given shift reaches the spec, which refuses one the method does
    # not take; a taken shift left unset gets the default
    shifts = {name: getattr(args, name) for name in ("alpha", "beta") if getattr(args, name) is not None}
    spec = PrecondSpec(args.method, inner=args.inner,
                       **{name: DEFAULT_SHIFTS[args.method] for name in SHIFTS[args.method]} | shifts)
    record = _solve_once(sys_, problem_id, spec, _rule(args), args.stationary)
    print(json.dumps(asdict(record), sort_keys=True))
    if args.csv:
        pathlib.Path(args.csv).write_text(_csv_text([record]))
    return 0 if record.converged else 1


# -- sweep ----------------------------------------------------------------


def _parse_grid(text, what):
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"{what} expects start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"{what}: malformed grid {text!r}") from exc
    if count < 1:
        raise CliError(f"{what}: grid must contain at least one point")
    return np.linspace(start, stop, count)


def cmd_sweep(args):
    sys_, problem_id = _load(args.indir)
    names = SHIFTS[args.method]
    if not names:
        raise CliError("sweeping the unpreconditioned solver has no parameters")
    for name in ("alpha", "beta"):
        if name not in names and getattr(args, f"{name}_grid") is not None:
            raise CliError(f"{args.method} takes no {name}; drop --{name}-grid")
    texts = [getattr(args, f"{name}_grid") for name in names]
    if None in texts:
        raise CliError(f"{args.method} sweeps need " + " and ".join(f"--{name}-grid" for name in names))
    grids = [_parse_grid(text, f"--{name}-grid") for name, text in zip(names, texts)]
    rule = _rule(args)
    records = [
        _solve_once(sys_, problem_id, _make_spec(args.method, dict(zip(names, point)), args.inner), rule)
        for point in itertools.product(*grids)
    ]
    best = None
    for idx, rec in enumerate(records):
        if not rec.converged:
            continue
        # ties resolve to the earliest grid point so reruns agree
        if best is None or rec.it < records[best].it:
            best = idx
    text = _csv_text(records, [idx == best for idx in range(len(records))])
    if args.csv:
        pathlib.Path(args.csv).write_text(text)
    print(text, end="")
    return 0 if all(r.converged for r in records) else 1


# -- spectrum -------------------------------------------------------------

# each operator: the preconditioner kind whose shifts it takes, and the
# function of the system and those shifts that forms its dense matrix
# (none for the predicted spectrum, which is not computed from a matrix)
_OPERATORS = {
    "saddle": ("none", lambda sys_: to_dense(assemble_block_saddle(sys_))),
    "mgss-prec": ("mgss", spectral.mgss_preconditioned_dense),
    "rmgss-prec": ("rmgss", spectral.rmgss_preconditioned_dense),
    "gamma": ("mgss", spectral.gamma_dense),
    "rmgss-predicted": ("rmgss", None),
}


def cmd_spectrum(args):
    sys_, _ = problems.load_bundle(args.indir)
    kind, dense = _OPERATORS[args.operator]
    for name in ("alpha", "beta"):
        if name not in SHIFTS[kind] and getattr(args, name) is not None:
            raise CliError(f"--operator {args.operator} takes no {name}; drop --{name}")
    shifts = [getattr(args, name) for name in SHIFTS[kind]]
    missing = [name for name, shift in zip(SHIFTS[kind], shifts) if shift is None]
    if missing:
        raise CliError(f"--operator {args.operator} requires --{missing[0]}")
    if dense is None:
        spec = spectral.predicted_rmgss_spectrum(sys_, *shifts)
    else:
        spec = spectral.dense_eigen_real_schur(dense(sys_, *shifts))
    spec.save_csv(args.csv)
    gp_path = args.gnuplot or (os.path.splitext(args.csv)[0] + ".gp")
    _write_gnuplot(gp_path, args.csv, args.operator)
    print(f"wrote {len(spec)} eigenvalues to {args.csv} and plot script to {gp_path}")
    return 0


def _write_gnuplot(path, csv_path, title):
    rel = os.path.relpath(csv_path, os.path.dirname(path) or ".")
    with open(path, "w") as fh:
        fh.write(
            "\n".join(
                [
                    f"set title 'eigenvalue distribution: {title}'",
                    "set xlabel 'Re'",
                    "set ylabel 'Im'",
                    "set grid",
                    "set datafile separator ','",
                    f"plot '{rel}' every ::1 using 1:2 with points pt 7 ps 1 notitle",
                    "pause -1 'press enter to close'",
                    "",
                ]
            )
        )


# -- bench ----------------------------------------------------------------


def cmd_bench(args):
    grids = [int(tok) for tok in args.grids.split(",") if tok]
    methods = [tok for tok in args.methods.split(",") if tok]
    if not grids:
        raise CliError("--grids must name at least one grid size")
    if not methods:
        raise CliError("--methods must name at least one method")
    for meth in methods:
        if meth not in SHIFTS:
            raise CliError(f"unknown method {meth!r}")
    rule = _rule(args)
    records = []
    for q in grids:
        sys_ = problems.generate_stokes_q1p0(problems.StokesConfig(q, pin_pressure=args.pin))
        pid = f"stokes-{q}x{q}" + ("-pinned" if args.pin else "")
        for meth in methods:
            shifts = {"alpha": args.hss_alpha if meth == "hss" else args.alpha, "beta": args.beta}
            records.append(_solve_once(sys_, pid, _make_spec(meth, shifts, args.inner), rule))
    widths = (20, 18, 10, 10, 6, 10, 10)
    headers = ("problem", "method", "alpha", "beta", "IT", "CPU", "converged")
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    print(fmt(headers))
    print(fmt(tuple("-" * w for w in widths)))
    for rec in records:
        print(
            fmt(
                (
                    rec.problem,
                    rec.method,
                    f"{rec.alpha:g}",
                    f"{rec.beta:g}",
                    rec.it,
                    f"{rec.cpu:.3f}",
                    rec.converged,
                )
            )
        )
    if args.csv:
        pathlib.Path(args.csv).write_text(_csv_text(records))
    return 0 if all(r.converged for r in records) else 1


# -- parser ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sadprec",
        description="saddle point preconditioner benchmarks (mgss, rmgss, hss)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--restart", type=int, default=5)
    solver.add_argument("--tol", type=float, default=1e-9)
    solver.add_argument("--max-outer", type=int, default=2000)
    solver.add_argument("--inner", choices=("cg", "direct"), default="cg")

    p = sub.add_parser("generate", help="write a saddle system bundle")
    p.add_argument("--stokes", nargs="+", metavar="KEY=VAL", help="q=16 [stab=0.25]")
    p.add_argument("--random", nargs="+", metavar="KEY=VAL", help="n=10 m=4 [seed=0 density=0.3]")
    p.add_argument("--no-pin", action="store_true", help="keep the singular unpinned pressure space")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", parents=[solver], help="solve one bundle and print a JSON record")
    p.add_argument("--in", dest="indir", required=True, help="bundle directory")
    p.add_argument("--method", choices=SHIFTS, required=True)
    p.add_argument("--alpha", type=float, help=f"if the method takes it; default by method {DEFAULT_SHIFTS}")
    p.add_argument("--beta", type=float, help=f"if the method takes it; default by method {DEFAULT_SHIFTS}")
    p.add_argument("--stationary", action="store_true", help="run the splitting iteration instead of GMRES")
    p.add_argument("--csv", help="also write the record as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[solver], help="parameter sweep, CSV output with the optimum marked")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--method", choices=SHIFTS, required=True)
    p.add_argument("--alpha-grid", help="start:stop:count")
    p.add_argument("--beta-grid", help="start:stop:count")
    p.add_argument("--csv", help="write the sweep table to this file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="export an eigenvalue scatter as CSV plus gnuplot script")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--operator", choices=_OPERATORS, required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--csv", default="spectrum.csv")
    p.add_argument("--gnuplot", help="plot script path (default: csv path with .gp)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bench", parents=[solver], help="grid x method comparison table")
    p.add_argument("--grids", required=True, help="comma list, e.g. 4,8,16")
    p.add_argument("--methods", required=True, help="comma list from " + ",".join(SHIFTS))
    p.add_argument("--alpha", type=float, default=DEFAULT_SHIFTS["mgss"])
    p.add_argument("--beta", type=float, default=DEFAULT_SHIFTS["mgss"])
    p.add_argument("--hss-alpha", type=float, default=DEFAULT_SHIFTS["hss"])
    p.add_argument(
        "--pin",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="pin the last pressure unknown (default: unpinned, consistent system; "
        "the pin leaves one isolated small eigenvalue on which GMRES(5) stalls or "
        "converges at rounding-dependent counts)",
    )
    p.add_argument("--csv")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
