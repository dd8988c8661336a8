"""Span tracing of sadprec's layers from outside the package.

``Tracer.install`` rebinds the public functions and methods of each
module to timing wrappers, including the names other modules imported
(``precond.spmv`` and ``krylov.spmv`` are separate bindings of
``sparse.spmv``), and ``uninstall`` puts the originals back.  Spans are
kept in memory as ``[name, start, end, parent]`` lists and written out
once, at the end of a run.  Nothing under ``src/`` is touched, and an
untraced run never calls ``install``.
"""

import json
import time
from collections import Counter


def _nnz(counts, args, out):
    counts["sparse.spmv_nnz"] += args[0].nnz


def _cg_steps(counts, args, out):
    counts["krylov.cg_steps"] += out.outer_iterations
    counts["krylov.cg_cap_hits"] += out.stop_reason == "max_iters"


def _gmres_cycles(counts, args, out):
    counts["krylov.gmres_cycles"] += len(out.residual_history) - 1


def layer_bindings():
    """(owner, attribute, span name, count hook) for every traced boundary."""
    from sadprec import factor, krylov, precond, problems, sparse, spectral, stationary

    return [
        (problems, "generate_stokes_q1p0", "problems.generate", None),
        (problems, "generate_random_saddle", "problems.generate", None),
        (sparse, "spmv", "sparse.spmv", _nnz),
        (sparse, "spmv_transpose", "sparse.spmv", _nnz),
        (precond, "spmv", "sparse.spmv", _nnz),
        (precond, "spmv_transpose", "sparse.spmv", _nnz),
        (krylov, "spmv", "sparse.spmv", _nnz),
        (sparse.SaddleSystem, "matvec", "sparse.matvec", None),
        (factor, "cholesky", "factor.cholesky", None),
        (factor, "cholesky_dense", "factor.cholesky", None),
        (factor, "solve", "factor.solve", None),
        (krylov, "gmres_restarted", "krylov.gmres", _gmres_cycles),
        (krylov, "cg", "krylov.cg", _cg_steps),
        (precond, "cg", "krylov.cg", _cg_steps),
        (precond.MgssApplicator, "__init__", "precond.setup", None),
        (precond.HssApplicator, "__init__", "precond.setup", None),
        (precond.MgssApplicator, "apply", "precond.apply", None),
        (precond.HssApplicator, "apply", "precond.apply", None),
        (stationary.IterationMatrixOperator, "__call__", "stationary.gamma", None),
        (spectral, "predicted_rmgss_spectrum", "spectral.predicted", None),
        (spectral, "dense_eigen_real_schur", "spectral.dense_eig", None),
        (spectral, "power_spectral_radius", "spectral.power", None),
    ]


class Tracer:
    """In-memory span recorder that wraps callables at layer boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, bindings):
        for owner, attr, name, count in bindings:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, count))
            self._patches.append((owner, attr, original if own else None))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def span_totals(spans):
    """Per span name: number of spans, total duration and total self time.

    Self time is a span's duration minus the part of its interval that
    its direct children cover (the union of their intervals).
    """
    children = [[] for _ in spans]
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    totals = {}
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = hi = start
        for c in sorted(children[idx], key=lambda k: spans[k][1]):
            c_lo, c_hi = max(spans[c][1], start), min(spans[c][2], end)
            if c_lo > hi:
                covered += hi - lo
                lo = c_lo
            hi = max(hi, c_hi)
        covered += hi - lo
        calls, total, self_time = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, total + (end - start), self_time + (end - start - covered))
    return totals


def layer_metrics(spans, counts, passes):
    """The per-layer metrics of BENCHMARK.json, per pass of the workload."""
    totals = span_totals(spans)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / passes

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / passes

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "problems.generate_s": (seconds("problems.generate"), "s"),
        "sparse.spmv_calls": (calls("sparse.spmv"), "count"),
        "sparse.spmv_s": (seconds("sparse.spmv"), "s"),
        "sparse.spmv_nnz": (counts["sparse.spmv_nnz"] / passes, "count"),
        "sparse.matvec_calls": (calls("sparse.matvec"), "count"),
        "sparse.matvec_s": (seconds("sparse.matvec"), "s"),
        "factor.cholesky_calls": (calls("factor.cholesky"), "count"),
        "factor.cholesky_s": (seconds("factor.cholesky"), "s"),
        "factor.solve_calls": (calls("factor.solve"), "count"),
        "factor.solve_s": (seconds("factor.solve"), "s"),
        "factor.solve_mean_ms": (1e3 * ratio(seconds("factor.solve"), calls("factor.solve")), "ms"),
        "krylov.gmres_self_s": (self_s("krylov.gmres"), "s"),
        "krylov.gmres_cycles": (counts["krylov.gmres_cycles"] / passes, "count"),
        "krylov.cg_calls": (calls("krylov.cg"), "count"),
        "krylov.cg_self_s": (self_s("krylov.cg"), "s"),
        "krylov.cg_cap_hit_ratio": (ratio(counts["krylov.cg_cap_hits"], passes * calls("krylov.cg")), "ratio"),
        "precond.setup_s": (seconds("precond.setup"), "s"),
        "precond.apply_calls": (calls("precond.apply"), "count"),
        "precond.apply_s": (seconds("precond.apply"), "s"),
        "precond.apply_self_s": (self_s("precond.apply"), "s"),
        "precond.inner_per_apply": (ratio(counts["krylov.cg_steps"], passes * calls("precond.apply")), "ratio"),
        "stationary.gamma_calls": (calls("stationary.gamma"), "count"),
        "stationary.gamma_s": (seconds("stationary.gamma"), "s"),
        "spectral.predicted_s": (seconds("spectral.predicted"), "s"),
        "spectral.dense_eig_s": (seconds("spectral.dense_eig"), "s"),
        "spectral.power_s": (seconds("spectral.power"), "s"),
    }
