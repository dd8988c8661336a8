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

``SHIFTS`` holds the shifts each kind takes at their Table-2 values; a
``PrecondSpec`` shift left None takes that value.

Every SPD sub-solve of an elimination (the Schur matrix for mgss and
rmgss; alpha I + A, alpha I + C and alpha^2 I + B B^T for hss) runs
either as an inner CG (``inner="cg"``, residual reduction 100, at most
40 steps; the rule is fixed) or through a Cholesky factor
(``inner="direct"``), which makes the preconditioner an exactly linear
operator for spectral work.  The Schur matrix is applied unassembled in
CG mode and formed densely in direct mode by ``_schur_complement``, as
is ``spectral``'s predicted rmgss matrix.  hss shifts A and C by alpha
and B's cached Gram matrix ``B._gram`` by alpha^2; CG mode assembles
the shifted copies.  Direct mode assembles none: ``factor.cholesky(M,
shift)`` reuses M's cached pattern analysis, so one system's
preconditioners share the analysis of C, and its hss ones at every
alpha share those of A and B B^T.

Applicators allocate fresh work vectors per call, so concurrent
``apply`` calls are safe.  Within a call they are updated in place:
``krylov.cg`` keeps its iterate, residual and search direction across
steps, and on a ``CsrMatrix`` block (hss CG mode) the search direction
lives in the zero-padded operand buffer of the block's product.  The
Schur matvec of mgss and rmgss pads x once for both A and B, and
carries B x through both inverse factors of beta I + C to B^T in two
zero-padded buffers (``factor._solve_padded``), with the bits of
``spmv``, ``factor.solve`` and ``spmv_transpose``.  Only the
``inner_iterations`` statistics counter changes across calls.
Everything built lazily is a ``functools.cached_property``: the CG-mode
hss blocks, assembled on the first ``apply``; each Cholesky factor's
inverse factor, built on its first solve; and each sparse matrix's
product layouts and Gram matrix, built on first use.  Racing first
reads can only store identical values.
"""

from functools import cached_property

import numpy as np

from . import factor
from .krylov import LinearOperator, cg
from .sparse import (_operand, _padded_mul, _padded_operand, _padded_result, _product,
                     add_scaled_identity, saddle_dense, spmv, spmv_transpose, to_dense)

__all__ = [
    "PrecondSpec",
    "MgssApplicator",
    "HssApplicator",
    "make_preconditioner",
    "form_schur_dense",
    "shift_diagonal",
    "dense_preconditioner_matrix",
]

# the shifts each kind takes, at their Table-2 values; a kind's other shifts stay 0
SHIFTS = {"mgss": {"alpha": 0.001, "beta": 0.001}, "rmgss": {"beta": 0.001},
          "hss": {"alpha": 0.1}, "none": {}}

# the inner CG rule: stop at a residual reduction of 100 or after 40 steps
_INNER_REDUCTION = 100.0
_INNER_MAX_ITERS = 40


class PrecondSpec:
    """Preconditioner identity plus finite shift parameters and inner-solve mode.

    A shift the kind takes (a key of ``SHIFTS[kind]``) must be > 0, and
    every other shift must be 0.  A shift left None takes its Table-2
    value ``SHIFTS[kind][name]``, or 0 if the kind does not take it.
    ``inner`` is ``"cg"`` (the fixed factor-100 / 40-step inner CG rule)
    or ``"direct"`` (dense Cholesky).
    """

    def __init__(self, kind, alpha=None, beta=None, inner="cg"):
        if kind not in SHIFTS:
            raise ValueError(f"unknown preconditioner kind {kind!r}")
        if inner not in ("cg", "direct"):
            raise ValueError(f"inner solve must be 'cg' or 'direct', got {inner!r}")
        alpha = SHIFTS[kind].get("alpha", 0.0) if alpha is None else alpha
        beta = SHIFTS[kind].get("beta", 0.0) if beta is None else beta
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
    return _schur_dense(sys, alpha, factor.cholesky(sys.C, beta))


def _schur_dense(sys, alpha, shifted):
    # the dense Schur matrix, given the factor of beta I + C
    return _schur_complement(to_dense(sys.A) + alpha * np.eye(sys.n), to_dense(sys.B), shifted)


def _schur_complement(D, Y, fac):
    # D + Y^T F^{-1} Y, given the factor of F, made exactly symmetric
    S = D + Y.T @ factor.solve(fac, Y)
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
        shifted = self.shifted_factor = factor.cholesky(sys.C, spec.beta)
        if spec.inner == "direct":
            self.schur = factor.cholesky_dense(_schur_dense(sys, alpha, shifted))
            return

        def schur_matvec(x):
            # A x + alpha x + B^T (beta I + C)^{-1} B x with the bits of
            # spmv, factor.solve and spmv_transpose: x is padded once, in
            # A's operand buffer, where B's padded product reads it too,
            # and B x goes through both inverse factors of beta I + C to
            # B^T in zero-padded buffers, with no copy
            x = np.asarray(x, dtype=np.float64)
            xz, xv = _operand(A, x)
            y = _product(A, xz, xv)
            if alpha != 0.0:
                y += alpha * x
            bz = _padded_result(B, _padded_operand(A, xz))
            factor._solve_padded(shifted, bz)
            y += _padded_mul(B._padded_cols, bz, B.ncols)
            return y

        self.schur = LinearOperator(sys.n, schur_matvec)

    def apply(self, r):
        r1, r2 = self._split(r)
        B = self.sys.B
        scale = 2.0 if self.spec.kind == "mgss" else 1.0
        w = factor.solve(self.shifted_factor, scale * r2)
        z1 = self._spd_solve(self.schur, scale * r1 - spmv_transpose(B, w))
        z2 = factor.solve(self.shifted_factor, spmv(B, z1)) + w
        return np.concatenate([z1, z2])


class HssApplicator(_Applicator):
    """Applies the inverse of the HSS preconditioner.

    P^{-1} r = 2 alpha (alpha I + S)^{-1} (alpha I + H)^{-1} r.  The
    skew part is inverted by eliminating the first block:
    (alpha^2 I + B B^T) z2 = alpha t2 + B t1, then
    z1 = (t1 - B^T z2) / alpha.  ``blocks``, a
    ``functools.cached_property``, holds the SPD blocks alpha I + A,
    alpha I + C and alpha^2 I + B B^T: A, C and ``B._gram`` shifted, in
    that order, by one rule per mode.  Direct mode holds
    ``factor.cholesky(M, shift)`` of each and reads them in the
    constructor, so a block that is not SPD fails there.  CG mode
    assembles ``sparse.add_scaled_identity(M, shift)`` on the first
    ``apply`` and applies each with one product per inner CG step, in
    the operand buffer where ``krylov.cg`` keeps its search direction.
    """

    def __init__(self, sys, spec):
        if spec.kind != "hss":
            raise ValueError(f"expected an hss spec, got {spec.kind!r}")
        super().__init__(sys, spec)
        if spec.inner == "direct":
            self.blocks  # factored now, so a block that is not SPD fails here

    @cached_property
    def blocks(self):
        a, sys = self.spec.alpha, self.sys
        shifted = factor.cholesky if self.spec.inner == "direct" else add_scaled_identity
        return [shifted(M, s) for M, s in ((sys.A, a), (sys.C, a), (sys.B._gram, a * a))]

    def apply(self, r):
        r1, r2 = self._split(r)
        a = self.spec.alpha
        B = self.sys.B
        shifted_A, shifted_C, shifted_BBt = self.blocks
        t1 = self._spd_solve(shifted_A, r1)
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


def shift_diagonal(sys, spec):
    """The diagonal of Sigma = blkdiag(alpha I, beta I), of length ``sys.order``."""
    return np.concatenate([np.full(sys.n, spec.alpha), np.full(sys.m, spec.beta)])


def dense_preconditioner_matrix(sys, spec):
    """The preconditioner matrix P of ``spec`` as a dense array, from ``sparse.saddle_dense``.

    The identity for ``none``; for mgss (Sigma + K) / 2 and for rmgss
    Sigma + K, with Sigma = blkdiag(alpha I, beta I); for hss
    (alpha I + H)(alpha I + S) / (2 alpha), with H = blkdiag(A, C) and S
    the skew part [[0, B^T], [-B, 0]] of K.  P is nonsingular for every
    valid spec, so ``spectral.preconditioned_dense`` and
    ``stationary.IterationMatrixOperator.dense`` solve with it by LU.
    Every kind but ``none`` is refused above ``sparse.dense_cap()``, as K is.
    """
    if spec.kind == "none":
        return np.eye(sys.order)
    n = sys.n
    P = saddle_dense(sys)
    if spec.kind == "hss":
        # alpha I + S takes K's off-diagonal blocks, alpha I + H the rest
        a, diag = spec.alpha, np.diag_indices_from(P)
        skew = np.zeros_like(P)
        skew[:n, n:], skew[n:, :n] = P[:n, n:], P[n:, :n]
        P[:n, n:], P[n:, :n] = 0.0, 0.0
        P[diag] += a
        skew[diag] = a
        return P @ skew / (2.0 * a)
    # mgss and rmgss (whose alpha is 0): K plus Sigma
    P[np.diag_indices_from(P)] += shift_diagonal(sys, spec)
    if spec.kind == "mgss":
        P *= 0.5
    return P
