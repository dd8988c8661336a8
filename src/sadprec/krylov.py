"""Conjugate gradients, restarted GMRES, and the stationary iteration.

GMRES is right preconditioned and keeps the preconditioned basis
vectors (flexible variant), so inexact preconditioner applications,
e.g. an inner CG truncated after a fixed residual reduction, are
handled without any linearity assumption.  Convergence tests use the
true residual norm ||b - A x||, recomputed at every restart boundary.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix, _operand, _product, spmv

__all__ = [
    "LinearOperator",
    "SolveReport",
    "StoppingRule",
    "as_operator",
    "saddle_operator",
    "cg",
    "gmres_restarted",
    "stationary_richardson",
]

_STALL_RESTARTS = 10
_STALL_FACTOR = 2.0


class LinearOperator:
    """A square operator given by its dimension and an apply callable.

    It is applied to a vector of shape ``(dim,)`` or to a block of
    columns of shape ``(dim, k)``, and the result must have the
    operand's shape.  ``apply`` must accept both, as every operator
    sadprec builds does; the Krylov solvers pass vectors only, and
    ``spectral.power_spectral_radius`` passes blocks or calls ``dense``.
    """

    def __init__(self, dim, apply):
        self.dim = int(dim)
        self._apply = apply

    def __call__(self, x):
        y = np.asarray(self._apply(x), dtype=np.float64)
        shape = np.shape(x)
        if y.shape != shape or shape[:1] != (self.dim,) or len(shape) > 2:
            raise ValueError(
                f"operator of dimension {self.dim} returned shape {y.shape} "
                f"for an operand of shape {shape}"
            )
        return y

    def dense(self):
        """The operator as an array: its columns applied to the identity."""
        return self(np.eye(self.dim))


def as_operator(M):
    if isinstance(M, LinearOperator):
        return M
    if isinstance(M, CsrMatrix):
        if M.nrows != M.ncols:
            raise ValueError("operator matrix must be square")
        return LinearOperator(M.nrows, lambda x: spmv(M, x))
    raise TypeError(f"cannot wrap {type(M)!r} as a linear operator")


def saddle_operator(sys):
    """Unassembled block operator [[A, B^T], [-B, C]] of a SaddleSystem."""
    return LinearOperator(sys.order, sys.matvec)


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``stop_reason`` is ``"tolerance"``; ``"max_iters"`` (CG at its step
    cap); ``"max_outer"`` (GMRES or the stationary iteration at its step
    cap); ``"stagnated"`` (GMRES at its step cap after 10 restarts that
    cut the true residual by less than a factor of 2 together); or
    ``"diverged"`` (the stationary iteration).  The solvers set
    ``converged`` exactly when ``stop_reason`` is ``"tolerance"``.
    """

    converged: bool
    outer_iterations: int
    total_inner_cg_iterations: int
    residual_history: list
    solution: np.ndarray
    stop_reason: str = ""

    @property
    def final_relative_residual(self):
        h = self.residual_history
        return h[-1] / h[0] if h[0] > 0 else 0.0


@dataclass
class StoppingRule:
    rel_tol: float = 1e-9
    max_outer: int = 2000
    restart: int = 5

    def __post_init__(self):
        if not 0 < self.rel_tol < np.inf:  # NaN fails too
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        _check_count("restart", self.restart, 1)
        _check_count("max_outer", self.max_outer, 0)


def _is_integer(value):
    # bool is an int subclass; numpy integers are Integral
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name, value, low):
    if not _is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


def cg(op, b, reduction_factor, max_iters):
    """Conjugate gradient from a zero initial guess.

    Stops when the residual norm has dropped by ``reduction_factor`` or
    after ``max_iters`` steps, whichever comes first; hitting the step
    cap is a normal outcome, not an error.  The operator must be
    symmetric positive definite; a non-positive or NaN curvature p.Ap
    breaks the recurrences and raises, and so does a right-hand side
    whose norm is not finite.  ``reduction_factor`` must be finite and
    at least 1, ``max_iters`` an integer of at least 0, and ``b`` of
    shape ``(dim,)``.

    The iterate, residual and search direction are updated in place
    through one work vector, all made fresh by each call.  For a
    ``CsrMatrix`` the search direction lives in the zero-padded operand
    buffer of its product (``sparse._operand``), so a step copies no
    operand and multiplies through ``sparse._product``, with the bits
    of ``spmv``; any other operator is called as ``op(p)``.
    """
    if not 1.0 <= reduction_factor < np.inf:  # NaN fails too
        raise ValueError(f"reduction_factor must be finite and at least 1, got {reduction_factor}")
    _check_count("max_iters", max_iters, 0)
    matrix = op if isinstance(op, CsrMatrix) else None
    op = as_operator(op)
    b = _rhs(b, op.dim)
    r = b.copy()
    x = np.zeros(op.dim)
    rn0 = float(np.linalg.norm(r))
    if not np.isfinite(rn0):
        raise ValueError(f"right-hand side norm is {rn0}: an entry is NaN or inf, or the norm overflows")
    history = [rn0]
    if rn0 == 0.0:
        return SolveReport(True, 0, 0, history, x, "tolerance")
    target = rn0 / reduction_factor
    if matrix is None:
        p = r.copy()
    else:
        pz, p = _operand(matrix, r)
    work = np.empty(op.dim)
    rs = rn0 * rn0
    k = 0
    reason = "max_iters"
    while k < max_iters:
        ap = op(p) if matrix is None else _product(matrix, pz, p)
        pap = float(np.dot(p, ap))
        if not pap > 0.0:  # NaN fails too
            raise ValueError(
                f"CG breakdown: p.Ap = {pap:.3e} is not positive, "
                "operator is not symmetric positive definite"
            )
        alpha = rs / pap
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(ap, alpha, out=work)
        rs_new = float(np.dot(r, r))
        k += 1
        history.append(math.sqrt(rs_new))
        if history[-1] <= target:
            reason = "tolerance"
            break
        p *= rs_new / rs
        p += r
        rs = rs_new
    return SolveReport(reason == "tolerance", k, 0, history, x, reason)


def _givens(a, b):
    if b == 0.0:
        return 1.0, 0.0
    r = np.hypot(a, b)
    return a / r, b / r


def gmres_restarted(op, b, precond=None, rule=None):
    """Restarted GMRES with optional right preconditioning.

    Arnoldi uses modified Gram-Schmidt with Givens rotations for the
    running least-squares problem.  ``outer_iterations`` counts the
    total number of Arnoldi steps across all restart cycles (not the
    number of restarts).  The residual history holds true residual
    norms, one entry per restart boundary.  A cycle ends early at a
    breakdown: an Arnoldi step whose new direction has norm at most
    1e-14 times the largest |H[i, j]| above it in its column.  A solve
    cut off by ``rule.max_outer`` reports ``"max_outer"`` or
    ``"stagnated"`` (see ``SolveReport``).  A ``b`` of length other
    than ``op.dim`` or with a non-finite entry, or a non-finite true
    residual at a restart, raises ``ValueError``.
    """
    op = as_operator(op)
    rule = rule or StoppingRule()
    dim = op.dim
    b = _finite_rhs(b, dim)
    bn = float(np.linalg.norm(b))
    inner0 = getattr(precond, "inner_iterations", 0)
    x = np.zeros(dim)
    tol_abs = rule.rel_tol * bn
    r = b.copy()
    rn = bn
    history = [rn]
    steps = 0
    while rn > tol_abs and steps < rule.max_outer:
        # a cycle spans at most dim directions; a longer one would only grow V, Z and H
        kmax = min(rule.restart, rule.max_outer - steps, dim)
        V = np.zeros((dim, kmax + 1))
        # without a preconditioner the update lives in the Arnoldi basis
        Z = V if precond is None else np.zeros((dim, kmax))
        H = np.zeros((kmax + 1, kmax))
        cs = np.zeros(kmax)
        sn = np.zeros(kmax)
        gvec = np.zeros(kmax + 1)
        gvec[0] = rn
        V[:, 0] = r / rn
        k = 0
        for j in range(kmax):
            z = V[:, j]
            if precond is not None:
                z = precond.apply(z)
                Z[:, j] = z
            w = op(z)
            for i in range(j + 1):
                H[i, j] = float(np.dot(V[:, i], w))
                w -= H[i, j] * V[:, i]
            hj = float(np.linalg.norm(w))
            H[j + 1, j] = hj
            happy = hj <= 1e-14 * float(np.max(np.abs(H[: j + 1, j])))
            if not happy:
                V[:, j + 1] = w / hj
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            cs[j], sn[j] = _givens(H[j, j], H[j + 1, j])
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            gvec[j + 1] = -sn[j] * gvec[j]
            gvec[j] *= cs[j]
            steps += 1
            k = j + 1
            if abs(gvec[j + 1]) <= tol_abs or happy or steps >= rule.max_outer:
                break
        y = _solve_upper(H[:k, :k], gvec[:k])
        x += Z[:, :k] @ y
        r, rn = _true_residual(op, b, x)
        history.append(rn)
    inner = getattr(precond, "inner_iterations", 0) - inner0
    if rn <= tol_abs:
        reason = "tolerance"
    elif len(history) > _STALL_RESTARTS and history[-1 - _STALL_RESTARTS] < _STALL_FACTOR * rn:
        reason = "stagnated"
    else:
        reason = "max_outer"
    return SolveReport(reason == "tolerance", steps, inner, history, x, reason)


def _rhs(b, dim):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (dim,):
        raise ValueError(f"dimension mismatch: operator is {dim}x{dim}, right-hand side has shape {b.shape}")
    return b


def _finite_rhs(b, dim):
    b = _rhs(b, dim)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side has a non-finite entry (NaN or inf)")
    return b


def _true_residual(op, b, x):
    # one scalar check per restart catches NaN or inf from the operator
    # or the preconditioner, which every later comparison would let through
    r = b - op(x)
    rn = float(np.linalg.norm(r))
    if not np.isfinite(rn):
        raise ValueError(
            f"true residual norm is {rn}: the operator or preconditioner produced NaN or inf"
        )
    return r, rn


def _solve_upper(R, g):
    k = R.shape[0]
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        s = g[i] - R[i, i + 1:] @ y[i + 1:]
        y[i] = s / R[i, i]
    return y


def stationary_richardson(op, b, precond, rule=None):
    """Fixed-point iteration u <- u + P^{-1}(b - A u) from a zero guess.

    With P equal to the half-sum splitting matrix of the saddle
    operator this is exactly the stationary scheme M u+ = N u + b.
    Residual growth past 10x the initial norm is flagged as divergence
    (converged False, stop_reason "diverged") rather than raised.  A
    ``b`` of length other than ``op.dim``, or a non-finite ``b`` or true
    residual, raises ``ValueError``.
    """
    op = as_operator(op)
    rule = rule or StoppingRule()
    b = _finite_rhs(b, op.dim)
    inner0 = getattr(precond, "inner_iterations", 0)
    x = np.zeros(op.dim)
    r = b.copy()
    rn0 = float(np.linalg.norm(r))
    history = [rn0]
    if rn0 == 0.0:
        return SolveReport(True, 0, 0, history, x, "tolerance")
    its = 0
    reason = "max_outer"
    while its < rule.max_outer:
        x += precond.apply(r)
        r, rn = _true_residual(op, b, x)
        its += 1
        history.append(rn)
        if rn <= rule.rel_tol * rn0:
            reason = "tolerance"
            break
        if rn > 10.0 * rn0:
            reason = "diverged"
            break
    inner = getattr(precond, "inner_iterations", 0) - inner0
    return SolveReport(reason == "tolerance", its, inner, history, x, reason)
