"""Shift-splitting preconditioners for saddle point systems.

Four kinds; the first three share one ``apply(r) -> P^{-1} r`` interface:

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
* ``none``  : identity, for unpreconditioned baselines;
  ``make_preconditioner`` returns None, which the Krylov solvers take
  as no preconditioner.

Every SPD sub-solve of an elimination (the Schur matrix for mgss and
rmgss; alpha I + A, alpha I + C and alpha^2 I + B B^T for hss) runs
either as an inner CG (``inner="cg"``, residual reduction 100, at most
40 steps; the rule is fixed) or through a Cholesky factor
(``inner="direct"``), which makes the preconditioner an exactly linear
operator for spectral work.  The Schur matrix is applied unassembled in
CG mode and formed densely in direct mode.  The three hss blocks are
assembled as sparse matrices, B B^T by a Gram product: CG mode applies
each with one ``spmv`` per step, direct mode factors the same matrices.

Applicators allocate fresh work vectors per call, so concurrent
``apply`` calls are safe.  Three things change in place: the
``inner_iterations`` statistics counter; the CG-mode hss blocks,
assembled on the first ``apply``; and each Cholesky factor's inverse
factors, cached on its first solve.  Racing first calls can only store
identical arrays.
"""

import numpy as np

from . import factor
from .krylov import LinearOperator, cg
from .sparse import (
    add_scaled_identity,
    assemble_block_saddle,
    gram_plus_identity,
    spmv,
    spmv_transpose,
    to_dense,
)

__all__ = [
    "PrecondSpec",
    "MgssApplicator",
    "HssApplicator",
    "make_preconditioner",
    "form_schur_dense",
    "dense_preconditioner_matrix",
]

# the shifts each kind takes; a kind's other shifts stay 0
SHIFTS = {"mgss": ("alpha", "beta"), "rmgss": ("beta",), "hss": ("alpha",), "none": ()}

# the inner CG rule: stop at a residual reduction of 100 or after 40 steps
_INNER_REDUCTION = 100.0
_INNER_MAX_ITERS = 40


class PrecondSpec:
    """Preconditioner identity plus finite shift parameters and inner-solve mode.

    A shift the kind takes (``SHIFTS[kind]``: alpha and beta for
    ``mgss``, beta for ``rmgss``, alpha for ``hss``, none for ``none``)
    must be > 0, and every other shift must be 0.  ``inner`` is
    ``"cg"`` (the fixed factor-100 / 40-step inner CG rule) or
    ``"direct"`` (dense Cholesky).
    """

    def __init__(self, kind, alpha=0.0, beta=0.0, inner="cg"):
        if kind not in SHIFTS:
            raise ValueError(f"unknown preconditioner kind {kind!r}")
        if inner not in ("cg", "direct"):
            raise ValueError(f"inner solve must be 'cg' or 'direct', got {inner!r}")
        for name, shift in (("alpha", alpha), ("beta", beta)):
            if not np.isfinite(shift):
                raise ValueError(f"shift {name} must be finite, got {shift}")
            if name in SHIFTS[kind] and not shift > 0:
                raise ValueError(f"{kind} requires {name} > 0")
            if name not in SHIFTS[kind] and shift != 0.0:
                raise ValueError(f"{kind} takes no {name}; it must be 0, got {shift}")
        self.kind = kind
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.inner = inner

    def __repr__(self):
        return (f"PrecondSpec({self.kind!r}, alpha={self.alpha}, beta={self.beta}, "
                f"inner={self.inner!r})")


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


class _Applicator:
    """Shared parts of the eliminations: the residual split and the SPD solves.

    An SPD block is a Cholesky factor in direct mode, else an operator
    or a matrix for inner CG, whose steps add to ``inner_iterations``.
    """

    def __init__(self, sys, spec):
        self.sys = sys
        self.spec = spec
        self.inner_iterations = 0

    def _split(self, r):
        r = np.asarray(r, dtype=np.float64)
        if r.shape[0] != self.sys.order:
            raise ValueError("residual length does not match the system order")
        return r[:self.sys.n], r[self.sys.n:]

    def _spd_solve(self, block, rhs):
        if isinstance(block, factor.CholeskyFactor):
            return factor.solve(block, rhs)
        if rhs.ndim == 2:
            raise ValueError("batched application requires inner='direct'")
        report = cg(block, rhs, _INNER_REDUCTION, _INNER_MAX_ITERS)
        self.inner_iterations += report.outer_iterations
        return report.solution


class MgssApplicator(_Applicator):
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
    right-hand sides (direct mode only).  ``schur`` is the Schur block:
    an operator x -> S x in CG mode, the factor of S in direct mode.
    """

    def __init__(self, sys, spec):
        if spec.kind not in ("mgss", "rmgss"):
            raise ValueError(f"expected an mgss or rmgss spec, got {spec.kind!r}")
        super().__init__(sys, spec)
        A, B, alpha = sys.A, sys.B, spec.alpha
        shifted = self.shifted_factor = factor.cholesky(add_scaled_identity(sys.C, spec.beta))
        if spec.inner == "direct":
            self.schur = factor.cholesky_dense(_schur_dense(sys, alpha, shifted))
            return

        def schur_matvec(x):
            x = np.asarray(x, dtype=np.float64)
            y = spmv(A, x)
            if alpha != 0.0:
                y = y + alpha * x
            if B.nrows:
                y = y + spmv_transpose(B, factor.solve(shifted, spmv(B, x)))
            return y

        self.schur = LinearOperator(sys.n, schur_matvec)

    def apply(self, r):
        r1, r2 = self._split(r)
        B = self.sys.B
        scale = 2.0 if self.spec.kind == "mgss" else 1.0
        if self.sys.m == 0:
            return np.concatenate([self._spd_solve(self.schur, scale * r1), r2])
        w = factor.solve(self.shifted_factor, scale * r2)
        z1 = self._spd_solve(self.schur, scale * r1 - spmv_transpose(B, w))
        z2 = factor.solve(self.shifted_factor, spmv(B, z1)) + w
        return np.concatenate([z1, z2])


class HssApplicator(_Applicator):
    """Applies the inverse of the HSS preconditioner.

    P^{-1} r = 2 alpha (alpha I + S)^{-1} (alpha I + H)^{-1} r.  The
    skew part is inverted by eliminating the first block:
    (alpha^2 I + B B^T) z2 = alpha t2 + B t1, then
    z1 = (t1 - B^T z2) / alpha.  ``blocks()`` holds the three SPD
    blocks alpha I + A, alpha I + C and alpha^2 I + B B^T, each
    assembled once as a CsrMatrix (B B^T by
    ``sparse.gram_plus_identity``): in CG mode inner CG applies them
    with one ``spmv`` per step, and they are assembled on the first
    call; in direct mode the constructor factors them
    (``factor.cholesky``).
    """

    def __init__(self, sys, spec):
        if spec.kind != "hss":
            raise ValueError(f"expected an hss spec, got {spec.kind!r}")
        super().__init__(sys, spec)
        self._blocks = None
        if spec.inner == "direct":
            self._blocks = [factor.cholesky(M) for M in self._assemble()]

    def _assemble(self):
        a, sys = self.spec.alpha, self.sys
        return [add_scaled_identity(sys.A, a), add_scaled_identity(sys.C, a),
                gram_plus_identity(sys.B, a * a)]

    def blocks(self):
        # racing first calls can only store identical matrices
        if self._blocks is None:
            self._blocks = self._assemble()
        return self._blocks

    def apply(self, r):
        r1, r2 = self._split(r)
        a = self.spec.alpha
        B = self.sys.B
        shifted_A, shifted_C, shifted_BBt = self.blocks()
        t1 = self._spd_solve(shifted_A, r1)
        if self.sys.m == 0:
            return 2.0 * t1
        t2 = self._spd_solve(shifted_C, r2)
        z2 = self._spd_solve(shifted_BBt, a * t2 + spmv(B, t1))
        z1 = (t1 - spmv_transpose(B, z2)) / a
        return 2.0 * a * np.concatenate([z1, z2])


def make_preconditioner(sys, spec):
    """The applicator of ``spec.kind`` for ``sys``; None for ``none``."""
    if spec.kind in ("mgss", "rmgss"):
        return MgssApplicator(sys, spec)
    if spec.kind == "hss":
        return HssApplicator(sys, spec)
    return None


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
