"""Independent correctness checks of GMRES solutions, with scipy as oracle.

The saddle operator is assembled with ``scipy.sparse`` straight from
the CSR arrays, so neither sadprec's kernels nor its block matvec take
part in the check.  scipy is used here only; the package itself stays
numpy-only.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

# GMRES stops at ||b - Kx|| <= 1e-9 ||b||, so the forward error may be
# up to cond(K) times that.  cond(K) of the pinned Stokes system is
# 1.3e4 at q=8 and 2.2e5 at q=16 (dense 2-norm); the measured errors
# against the direct solve are 2e-7 at q=8, 6e-6 at q=16 and 4e-5 at q=32.
SPSOLVE_RTOL = 1e-3


def assemble(system):
    """[[A, B^T], [-B, C]] as a scipy CSR matrix."""

    def csr(M):
        return sp.csr_matrix((M.values, M.col_idx, M.row_ptr), shape=M.shape)

    A, B, C = csr(system.A), csr(system.B), csr(system.C)
    return sp.bmat([[A, B.T], [-B, C]], format="csr")


class Oracle:
    """Checks solutions; caches the assembled operator and direct solve per system."""

    def __init__(self, tol):
        self.tol = tol
        self._cache = {}

    def _reference(self, system, pinned):
        key = id(system)
        if key not in self._cache:
            K = assemble(system)
            x = spsolve(K.tocsc(), system.rhs()) if pinned else None
            self._cache[key] = (system, K, x)
        return self._cache[key][1:]

    def check(self, label, system, x, converged, pinned):
        """(name, ok, detail) for every check of one solution."""
        K, reference = self._reference(system, pinned)
        b = system.rhs()
        relres = float(np.linalg.norm(b - K @ x) / np.linalg.norm(b))
        checks = [
            (f"{label} converged", bool(converged), ""),
            (f"{label} residual", relres <= self.tol, f"scipy relative residual {relres:.2e}"),
        ]
        if pinned:
            err = float(np.linalg.norm(x - reference) / np.linalg.norm(reference))
            checks.append((f"{label} spsolve", err <= SPSOLVE_RTOL, f"relative error {err:.2e}"))
        return checks


def gate(passes, rows, tol):
    """Every correctness check of every pass, as (name, ok, detail).

    ``rows`` come from a fresh set-up with the run's seed; set-up is
    deterministic, so they hold the very systems every pass solved.
    """
    oracle = Oracle(tol)
    by_label = {row.label: row for row in rows}
    checks = []
    for p in passes:
        checks += p.checks
        for label, rep in p.solutions:
            row = by_label[label]
            checks += oracle.check(label, row.system, rep.solution, rep.converged, row.pinned)
    return [(name, bool(ok), detail) for name, ok, detail in checks]
