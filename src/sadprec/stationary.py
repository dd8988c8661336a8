"""The stationary mgss scheme and its iteration-matrix operator.

Splitting the saddle matrix as A = M - N with M the mgss matrix turns
M u+ = N u + b into the fixed point iteration implemented by
``krylov.stationary_richardson``; the iteration matrix
G = M^{-1} N = I - M^{-1} A is exposed as an operator and never
assembled outside of column-probe use in tests and spectra.
"""

from .krylov import LinearOperator, StoppingRule, saddle_operator, stationary_richardson
from .precond import MgssApplicator, PrecondSpec

__all__ = ["IterationMatrixOperator", "run_mgss_iteration"]


class IterationMatrixOperator(LinearOperator):
    """v -> v - P^{-1}(A v) with the exactly linear (direct) mgss inverse."""

    def __init__(self, sys, alpha, beta):
        spec = PrecondSpec("mgss", alpha=alpha, beta=beta, inner="direct")
        self._prec = MgssApplicator(sys, spec)
        self._block = saddle_operator(sys)
        super().__init__(sys.order, self._matvec)

    def _matvec(self, v):
        return v - self._prec.apply(self._block(v))


def run_mgss_iteration(sys, spec, rule=None, estimate_rho=False):
    """Run the stationary scheme on A u = (f; -g) and report.

    With ``estimate_rho`` the report carries a power-iteration estimate
    of the iteration matrix spectral radius, computed with an exact
    (direct inner) twin of the preconditioner.
    """
    if spec.kind != "mgss":
        raise ValueError("the stationary scheme is defined for the mgss splitting")
    rule = rule or StoppingRule(max_outer=5000)
    prec = MgssApplicator(sys, spec)
    report = stationary_richardson(saddle_operator(sys), sys.rhs(), prec, rule)
    if estimate_rho:
        from .spectral import power_spectral_radius

        gamma = IterationMatrixOperator(sys, spec.alpha, spec.beta)
        report.rho_estimate = power_spectral_radius(gamma, iters=100, restarts=5)
    return report
