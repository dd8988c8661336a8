"""The iteration-matrix operator of the stationary mgss scheme.

With Sigma = blkdiag(alpha I, beta I) and K the saddle matrix, the mgss
matrix is M = (Sigma + K) / 2 and the splitting K = M - N leaves
N = (Sigma - K) / 2.  The scheme M u+ = N u + b is the fixed point
iteration u+ = u + M^{-1}(b - K u), which ``krylov.stationary_richardson``
runs with an ``MgssApplicator``.  Its iteration matrix

    Gamma = M^{-1} N = (Sigma + K)^{-1} (Sigma - K) = M^{-1} Sigma - I

is exposed here as an operator.  Its ``dense``, the one builder of
Gamma as an array, serves ``spectral.gamma_dense`` and the power
iteration's probe of small operators.
"""

import numpy as np

from .krylov import LinearOperator
from .precond import MgssApplicator, PrecondSpec, shift_diagonal

__all__ = ["IterationMatrixOperator"]


class IterationMatrixOperator(LinearOperator):
    """v -> M^{-1}(Sigma v) - v with the exactly linear (direct) mgss inverse.

    One application costs one preconditioner solve and no product with
    K; Sigma, held as its diagonal, scales vectors and column blocks.
    """

    def __init__(self, sys, alpha, beta):
        spec = PrecondSpec("mgss", alpha=alpha, beta=beta, inner="direct")
        self._prec = MgssApplicator(sys, spec)
        self._shift = shift_diagonal(sys, spec)
        super().__init__(sys.order, self._matvec)

    def _matvec(self, v):
        v = np.asarray(v, dtype=np.float64)
        shift = self._shift if v.ndim == 1 else self._shift[:, None]
        return self._prec.apply(shift * v) - v

    def dense(self):
        """Gamma as an array: one solve with the columns of Sigma, then I subtracted in place.

        The same bits as ``LinearOperator.dense``, the operator applied to
        the identity, with one order x order array fewer alive.
        """
        gamma = self._prec.apply(np.diag(self._shift))
        gamma[np.diag_indices_from(gamma)] -= 1.0
        return gamma
