"""Export eigenvalue scatters of the saddle operator and its
preconditioned variants, plus gnuplot scripts to view them.

Writes spectrum_<name>.csv / .gp into the working directory.  The
preconditioned spectra collapse toward the point (1, 0), which is the
whole story of why the shift-splitting preconditioners work.
"""

import numpy as np

from sadprec import PrecondSpec, StokesConfig, dense_eigen_real_schur, generate_stokes_q1p0
from sadprec.spectral import preconditioned_dense, save_gnuplot

BETA = 0.001
sys_ = generate_stokes_q1p0(StokesConfig(8))
print(f"stokes 8x8, order {sys_.order}, shifts alpha = beta = {BETA}")

jobs = {
    "saddle": preconditioned_dense(sys_, PrecondSpec("none")),
    "mgss": preconditioned_dense(sys_, PrecondSpec("mgss", BETA, BETA)),
    "rmgss": preconditioned_dense(sys_, PrecondSpec("rmgss", beta=BETA)),
}
for name, matrix in jobs.items():
    spec = dense_eigen_real_schur(matrix)
    lam = spec.eigenvalues
    csv = f"spectrum_{name}.csv"
    spec.save_csv(csv)
    save_gnuplot(csv, name)
    spread = np.max(np.abs(lam - 1.0))
    print(
        f"  {name:<8} re range [{lam.real.min():9.3g}, {lam.real.max():9.3g}]"
        f"  max |lambda - 1| = {spread:9.3g}  -> {csv}"
    )
