"""Sparse saddle point solvers with shift-splitting preconditioners.

The package covers the full pipeline for 2x2 block systems with an SPD
(1,1)-block and a symmetric positive semidefinite (2,2)-block: CSR
kernels, component-wise LAPACK Cholesky, CG and restarted GMRES, the
mgss / rmgss / hss preconditioner family, spectral verification
tooling, a stabilized Q1-P0 Stokes generator, and a benchmark CLI
(``sadprec``).
"""

from .factor import CholeskyFactor, NotPositiveDefiniteError, cholesky, cholesky_dense, solve
from .krylov import (
    LinearOperator,
    SolveReport,
    StoppingRule,
    as_operator,
    cg,
    gmres_restarted,
    saddle_operator,
    stationary_richardson,
)
from .precond import (
    HssApplicator,
    MgssApplicator,
    PrecondSpec,
    dense_preconditioner_matrix,
    form_schur_dense,
    make_preconditioner,
)
from .problems import (
    StokesConfig,
    generate_random_saddle,
    generate_stokes_q1p0,
    load_bundle,
    read_matrix_market,
    save_bundle,
    stokes_velocity_interpolant,
    write_matrix_market,
)
from .sparse import (
    CsrMatrix,
    SaddleSystem,
    assemble_block_saddle,
    norm2,
    spmv,
    spmv_transpose,
    to_dense,
)
from .spectral import (
    Spectrum,
    dense_eigen_real_schur,
    jacobi_symmetric,
    jacobi_symmetric_eigen,
    power_spectral_radius,
    predicted_rmgss_spectrum,
    iteration_matrix_check,
)
from .stationary import IterationMatrixOperator, run_mgss_iteration

__version__ = "0.1.0"
