"""Shift-splitting preconditioners for saddle point systems.

Four preconditioners share one ``apply(r) -> P^{-1} r`` interface:

* ``mgss``  : P = (1/2) [[alpha I + A, B^T], [-B, beta I + C]], the
  modified generalized shift-splitting matrix.  Applied through a block
  elimination that needs one solve with the Schur matrix
  S = alpha I + A + B^T (beta I + C)^{-1} B and two solves with
  beta I + C.
* ``rmgss`` : the relaxed variant P = [[A, B^T], [-B, beta I + C]],
  same elimination with alpha = 0 and without the factor-2 scalings.
* ``hss``   : Hermitian / skew-Hermitian splitting,
  P = (1/(2 alpha)) (alpha I + H)(alpha I + S) with H = blkdiag(A, C)
  and S = [[0, B^T], [-B, 0]].
* ``none``  : identity, for unpreconditioned baselines.

The Schur solve runs either as an inner CG on the unassembled operator
(``inner="cg"``, residual reduction 100, at most 40 steps) or through a
dense Cholesky of the explicitly formed matrix (``inner="direct"``),
which makes the preconditioner an exactly linear operator for spectral
work.

Applicators allocate fresh work vectors per call, so concurrent
``apply`` calls are safe.  Two things change in place: the
``inner_iterations`` statistics counter, and each Cholesky factor's
inverse factors, cached on its first solve; racing first calls can
only store identical arrays.
"""

import numpy as np

from . import factor
from .krylov import LinearOperator, cg
from .sparse import (
    add_scaled_identity,
    assemble_block_saddle,
    spmv,
    spmv_transpose,
    to_dense,
)

__all__ = [
    "PrecondSpec",
    "SchurOperator",
    "MgssApplicator",
    "HssApplicator",
    "IdentityApplicator",
    "make_preconditioner",
    "form_schur_dense",
    "dense_preconditioner_matrix",
]

KINDS = ("mgss", "rmgss", "hss", "none")


class PrecondSpec:
    """Preconditioner identity plus shift parameters and inner-solve policy.

    ``mgss`` needs alpha > 0 and beta > 0; ``rmgss`` fixes alpha to 0
    and needs beta > 0; ``hss`` uses alpha > 0 only.
    """

    def __init__(self, kind, alpha=0.0, beta=0.0, inner="cg",
                 inner_reduction=100.0, inner_max_iters=40):
        if kind not in KINDS:
            raise ValueError(f"unknown preconditioner kind {kind!r}")
        if inner not in ("cg", "direct"):
            raise ValueError(f"inner solve must be 'cg' or 'direct', got {inner!r}")
        if kind == "mgss" and not (alpha > 0 and beta > 0):
            raise ValueError("mgss requires alpha > 0 and beta > 0")
        if kind == "rmgss":
            if alpha != 0.0:
                raise ValueError("rmgss fixes alpha to 0")
            if not beta > 0:
                raise ValueError("rmgss requires beta > 0")
        if kind == "hss" and not alpha > 0:
            raise ValueError("hss requires alpha > 0")
        self.kind = kind
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.inner = inner
        self.inner_reduction = float(inner_reduction)
        self.inner_max_iters = int(inner_max_iters)

    def __repr__(self):
        return (f"PrecondSpec({self.kind!r}, alpha={self.alpha}, beta={self.beta}, "
                f"inner={self.inner!r})")


class SchurOperator(LinearOperator):
    """x -> (alpha I + A + B^T (beta I + C)^{-1} B) x, never assembled.

    Symmetric positive definite whenever A is SPD, C is SPSD and
    alpha, beta are admissible shifts.
    """

    def __init__(self, A, B, shifted_factor, alpha):
        self.A = A
        self.B = B
        self.shifted_factor = shifted_factor
        self.alpha = float(alpha)
        super().__init__(A.nrows, self._matvec)

    def _matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        y = spmv(self.A, x)
        if self.alpha != 0.0:
            y = y + self.alpha * x
        if self.B.nrows:
            y = y + spmv_transpose(self.B, factor.solve(self.shifted_factor, spmv(self.B, x)))
        return y


def form_schur_dense(sys, alpha, beta):
    """Explicit dense Schur matrix alpha I + A + B^T (beta I + C)^{-1} B."""
    return _schur_dense(sys, alpha, factor.cholesky(add_scaled_identity(sys.C, beta)))


def _schur_dense(sys, alpha, shifted):
    # the dense Schur matrix, given the factor of beta I + C
    S = to_dense(sys.A) + alpha * np.eye(sys.n)
    if sys.m:
        Bd = to_dense(sys.B)
        S = S + Bd.T @ factor.solve(shifted, Bd)
    return 0.5 * (S + S.T)


class MgssApplicator:
    """Applies the inverse of the mgss or rmgss splitting matrix.

    For a residual r = (r1; r2) the mgss application runs the block
    elimination

        1. solve (beta I + C) w = 2 r2
        2. w1 = 2 r1 - B^T w
        3. solve S z1 = w1                 (inner CG or dense Cholesky)
        4. solve (beta I + C) v = B z1
        5. z2 = v + w

    and returns (z1; z2).  The rmgss variant is the same elimination
    with alpha = 0 and without the factor-2 scalings.  ``apply`` also
    accepts a 2-D array and treats its columns as independent
    right-hand sides (direct mode only).
    """

    def __init__(self, sys, spec):
        if spec.kind not in ("mgss", "rmgss"):
            raise ValueError(f"expected an mgss or rmgss spec, got {spec.kind!r}")
        self.sys = sys
        self.spec = spec
        self.inner_iterations = 0
        self.shifted_factor = factor.cholesky(add_scaled_identity(sys.C, spec.beta))
        self.schur_op = SchurOperator(sys.A, sys.B, self.shifted_factor, spec.alpha)
        self.schur_factor = None
        if spec.inner == "direct":
            S = _schur_dense(sys, spec.alpha, self.shifted_factor)
            self.schur_factor = factor.cholesky_dense(S)

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        if r.shape[0] != self.sys.order:
            raise ValueError("residual length does not match the system order")
        n = self.sys.n
        B = self.sys.B
        scale = 2.0 if self.spec.kind == "mgss" else 1.0
        r1, r2 = r[:n], r[n:]
        if self.sys.m:
            w = factor.solve(self.shifted_factor, scale * r2)
            bt_w = spmv_transpose(B, w)
            w1 = scale * r1 - bt_w
        else:
            w = r2
            w1 = scale * r1
        z1 = self._schur_solve(w1)
        if self.sys.m:
            bz = spmv(B, z1)
            z2 = factor.solve(self.shifted_factor, bz) + w
        else:
            z2 = w
        return np.concatenate([z1, z2])

    def _schur_solve(self, w1):
        if self.schur_factor is not None:
            return factor.solve(self.schur_factor, w1)
        if w1.ndim == 2:
            raise ValueError("batched application requires inner='direct'")
        report = cg(self.schur_op, w1, self.spec.inner_reduction, self.spec.inner_max_iters)
        self.inner_iterations += report.outer_iterations
        return report.solution


class HssApplicator:
    """Applies the inverse of the HSS preconditioner.

    P^{-1} r = 2 alpha (alpha I + S)^{-1} (alpha I + H)^{-1} r.  The
    skew part is inverted by eliminating the first block:
    (alpha^2 I + B B^T) z2 = alpha t2 + B t1, then
    z1 = (t1 - B^T z2) / alpha.  In CG mode all three SPD solves are
    inner CG runs on unassembled operators (B B^T is never formed); in
    direct mode the three matrices are formed densely and
    Cholesky-factored once.
    """

    def __init__(self, sys, spec):
        if spec.kind != "hss":
            raise ValueError(f"expected an hss spec, got {spec.kind!r}")
        self.sys = sys
        self.spec = spec
        self.inner_iterations = 0
        a = spec.alpha
        n, m = sys.n, sys.m
        self._ops = None
        self._factors = None
        if spec.inner == "direct":
            Ad = to_dense(sys.A)
            Cd = to_dense(sys.C)
            Bd = to_dense(sys.B)
            self._factors = (
                factor.cholesky_dense(Ad + a * np.eye(n)),
                factor.cholesky_dense(Cd + a * np.eye(m)),
                factor.cholesky_dense(Bd @ Bd.T + a * a * np.eye(m)),
            )
        else:
            A, B, C = sys.A, sys.B, sys.C
            self._ops = (
                LinearOperator(n, lambda x: spmv(A, x) + a * x),
                LinearOperator(m, lambda x: spmv(C, x) + a * x),
                LinearOperator(m, lambda x: spmv(B, spmv_transpose(B, x)) + a * a * x),
            )

    def _solve(self, which, rhs):
        if self._factors is not None:
            return factor.solve(self._factors[which], rhs)
        if rhs.ndim == 2:
            raise ValueError("batched application requires inner='direct'")
        report = cg(self._ops[which], rhs, self.spec.inner_reduction, self.spec.inner_max_iters)
        self.inner_iterations += report.outer_iterations
        return report.solution

    def apply(self, r):
        r = np.asarray(r, dtype=np.float64)
        if r.shape[0] != self.sys.order:
            raise ValueError("residual length does not match the system order")
        n = self.sys.n
        a = self.spec.alpha
        B = self.sys.B
        t1 = self._solve(0, r[:n])
        if self.sys.m == 0:
            return 2.0 * t1
        t2 = self._solve(1, r[n:])
        bt1 = spmv(B, t1)
        z2 = self._solve(2, a * t2 + bt1)
        btz2 = spmv_transpose(B, z2)
        z1 = (t1 - btz2) / a
        return 2.0 * a * np.concatenate([z1, z2])


class IdentityApplicator:
    def __init__(self, sys=None, spec=None):
        self.inner_iterations = 0

    def apply(self, r):
        return np.array(r, dtype=np.float64, copy=True)


def make_preconditioner(sys, spec):
    if spec.kind in ("mgss", "rmgss"):
        return MgssApplicator(sys, spec)
    if spec.kind == "hss":
        return HssApplicator(sys, spec)
    return IdentityApplicator(sys, spec)


def dense_preconditioner_matrix(sys, spec):
    """The preconditioner assembled densely, for reconstruction tests."""
    n = sys.n
    K = to_dense(assemble_block_saddle(sys))
    if spec.kind == "none":
        return np.eye(sys.order)
    if spec.kind == "hss":
        # skew part S = [[0, B^T], [-B, 0]]; the rest of K is H = blkdiag(A, C)
        S = np.zeros_like(K)
        S[:n, n:], S[n:, :n] = K[:n, n:], K[n:, :n]
        aI = spec.alpha * np.eye(sys.order)
        return (aI + K - S) @ (aI + S) / (2.0 * spec.alpha)
    # mgss and rmgss (whose alpha is 0): K plus blkdiag(alpha I, beta I)
    P = K + np.diag(np.concatenate([np.full(n, spec.alpha), np.full(sys.m, spec.beta)]))
    return 0.5 * P if spec.kind == "mgss" else P
