"""The iteration-matrix operator of the stationary mgss scheme.

Splitting the saddle matrix as A = M - N with M the mgss matrix turns
M u+ = N u + b into the fixed point iteration u+ = u + M^{-1}(b - A u),
which ``krylov.stationary_richardson`` runs with an ``MgssApplicator``.
Its iteration matrix G = M^{-1} N = I - M^{-1} A is exposed here as an
operator, for ``spectral.power_spectral_radius``, and never assembled
outside of column-probe use in tests and spectra.
"""

from .krylov import LinearOperator, saddle_operator
from .precond import MgssApplicator, PrecondSpec

__all__ = ["IterationMatrixOperator"]


class IterationMatrixOperator(LinearOperator):
    """v -> v - P^{-1}(A v) with the exactly linear (direct) mgss inverse."""

    def __init__(self, sys, alpha, beta):
        spec = PrecondSpec("mgss", alpha=alpha, beta=beta, inner="direct")
        self._prec = MgssApplicator(sys, spec)
        self._block = saddle_operator(sys)
        super().__init__(sys.order, self._matvec)

    def _matvec(self, v):
        return v - self._prec.apply(self._block(v))
