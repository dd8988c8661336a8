"""The iteration-matrix operator of the stationary mgss scheme.

With Sigma = blkdiag(alpha I, beta I) and K the saddle matrix, the mgss
matrix is M = (Sigma + K) / 2 and the splitting K = M - N leaves
N = (Sigma - K) / 2.  The scheme M u+ = N u + b is the fixed point
iteration u+ = u + M^{-1}(b - K u), which ``krylov.stationary_richardson``
runs with an ``MgssApplicator``.  Its iteration matrix

    Gamma = M^{-1} N = (Sigma + K)^{-1} (Sigma - K) = M^{-1} Sigma - I

is exposed here as an operator, applied through the last form: one
direct mgss solve per application, built and factored on the first.
Its ``dense``, the one builder of Gamma as an array, is the LU solve of
the middle form with the dense K of ``sparse.saddle_dense`` and builds
no preconditioner; it serves ``spectral.gamma_dense`` and the power
iteration's probe of small operators.
"""

from functools import cached_property

import numpy as np

from .krylov import LinearOperator
from .precond import MgssApplicator, PrecondSpec, shift_diagonal
from .sparse import saddle_dense

__all__ = ["IterationMatrixOperator"]


class IterationMatrixOperator(LinearOperator):
    """v -> M^{-1}(Sigma v) - v with the exactly linear (direct) mgss inverse.

    One application costs one preconditioner solve and no product with
    K; Sigma, held as its diagonal, scales vectors and column blocks.
    The shifts are checked at construction, but the direct mgss
    elimination (``_prec``, a ``functools.cached_property``) is built
    and factored on the first application: ``dense`` needs none.
    """

    def __init__(self, sys, alpha, beta):
        self._sys = sys
        self._spec = PrecondSpec("mgss", alpha=alpha, beta=beta, inner="direct")
        self._shift = shift_diagonal(sys, self._spec)
        super().__init__(sys.order, self._matvec)

    @cached_property
    def _prec(self):
        return MgssApplicator(self._sys, self._spec)

    def _matvec(self, v):
        v = np.asarray(v, dtype=np.float64)
        shift = self._shift if v.ndim == 1 else self._shift[:, None]
        return self._prec.apply(shift * v) - v

    def dense(self):
        """Gamma as an array: ``np.linalg.solve(Sigma + K, Sigma - K)``, one LU solve.

        K comes from ``sparse.saddle_dense``; Sigma + K overwrites it, so
        three order x order arrays are alive through the solve.  Sigma + K
        = 2 M is nonsingular for every pair of positive shifts; a singular
        one raises numpy's ``LinAlgError``.
        """
        plus = saddle_dense(self._sys)
        minus = np.diag(self._shift)
        minus -= plus
        plus[np.diag_indices_from(plus)] += self._shift
        return np.linalg.solve(plus, minus)
