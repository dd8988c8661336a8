"""Eigenvalue machinery for spectra of preconditioned saddle operators.

The eigensolvers are LAPACK's, through numpy: ``np.linalg.eigh`` for
symmetric matrices and ``np.linalg.eigvals`` (real Schur form) for
general real ones.  On top of them sit the operators this package
actually cares about: the spectrum of the stationary iteration matrix
(whose spectral radius must stay below one for every positive pair of
shifts), and the spectrum of the rmgss-preconditioned matrix, which
consists of the eigenvalue 1 with multiplicity n together with
mu_i / (beta + mu_i) where mu_i are the eigenvalues of
C + B A^{-1} B^T.

``preconditioned_dense`` is the one builder of P^{-1} K for every
kind, and ``gamma_dense`` (``IterationMatrixOperator.dense``) of Gamma.
Each is one LU solve (``np.linalg.solve``) with a dense matrix built
from ``sparse.saddle_dense``, the dense K: P from
``precond.dense_preconditioner_matrix``, Sigma + K for Gamma.  No
preconditioner is built or factored, so these matrices need only be
nonsingular, as they are for every valid shift; a singular one raises
numpy's ``LinAlgError``.  The two theory checks use neither builder:
``iteration_matrix_check`` takes Gamma's eigenvalues through the
Cayley map from those of Sigma^{-1} K (one ``eigvals``, no LU), and
``predicted_rmgss_spectrum`` forms C + B A^{-1} B^T with one LU solve
with A, after a Cholesky factorization that only checks A is positive
definite.  ``sparse.dense_cap()`` (``SADPREC_DENSE_CAP``)
is the only limit on the order of a spectrum: a few order x order
arrays are alive at once, and the eigensolvers add no limit of their
own.  ``save_gnuplot`` writes the plot script of a spectrum CSV.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import factor
from .precond import PrecondSpec, dense_preconditioner_matrix, shift_diagonal
from .sparse import _check_symmetric_dense, _square, dense_cap, saddle_dense, to_dense
from .stationary import IterationMatrixOperator

__all__ = [
    "Spectrum",
    "save_gnuplot",
    "COMPUTED_DENSE",
    "PREDICTED",
    "jacobi_symmetric",
    "dense_eigen_real_schur",
    "power_spectral_radius",
    "predicted_rmgss_spectrum",
    "iteration_matrix_check",
    "gamma_dense",
    "preconditioned_dense",
    "rmgss_preconditioned_dense",
]

COMPUTED_DENSE = "COMPUTED_DENSE"
PREDICTED = "PREDICTED"

# the power iteration's steps, fixed-seed random starts, and seed
_POWER_ITERS, _POWER_RESTARTS, _POWER_SEED = 100, 5, 20240613


def _sorted_complex(vals):
    vals = np.asarray(vals, dtype=np.complex128)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


@dataclass
class Spectrum:
    """Eigenvalue multiset, sorted by (re, im), with provenance tag."""

    eigenvalues: np.ndarray
    source: str

    def __post_init__(self):
        self.eigenvalues = _sorted_complex(self.eigenvalues)

    def save_csv(self, path):
        lam = self.eigenvalues
        np.savetxt(path, np.column_stack([lam.real, lam.imag]), fmt=f"%.17g,%.17g,{self.source}",
                   header="re,im,source", comments="")

    def __len__(self):
        return self.eigenvalues.size


_GNUPLOT = """\
set title 'eigenvalue distribution: {title}'
set xlabel 'Re'
set ylabel 'Im'
set grid
set datafile separator ','
plot '{csv}' every ::1 using 1:2 with points pt 7 ps 1 notitle
pause -1 'press enter to close'
"""


def save_gnuplot(csv_path, title):
    """Write a gnuplot script that plots a ``Spectrum.save_csv`` file; return its path.

    The script is ``<csv stem>.gp`` beside the CSV, so it names the CSV
    by its basename.
    """
    gp_path = os.path.splitext(csv_path)[0] + ".gp"
    with open(gp_path, "w") as fh:
        fh.write(_GNUPLOT.format(title=title, csv=os.path.basename(csv_path)))
    return gp_path


# -- eigensolvers (LAPACK through numpy) -----------------------------------


def jacobi_symmetric(M):
    """Eigen-decomposition of a symmetric matrix.

    Returns the eigenvalue vector w (ascending) and an orthonormal
    matrix V with M @ V equal to V @ diag(w) up to rounding, computed by
    LAPACK through ``np.linalg.eigh``.  The name is kept for the
    acceptance tests and demos, which call it by that name.  A NaN or
    inf entry raises ``ValueError``: ``eigh`` reads one triangle only.
    """
    a = _square(M)
    if not np.isfinite(_check_symmetric_dense(a, "symmetric eigensolver input")):
        raise ValueError("symmetric eigensolver input has a NaN or inf entry")
    return np.linalg.eigh(a)


def dense_eigen_real_schur(M):
    """All eigenvalues of a real square matrix, via LAPACK's real Schur form.

    ``np.linalg.eigvals`` balances, reduces to Hessenberg form and runs
    the shifted QR iteration.
    """
    return Spectrum(np.linalg.eigvals(_square(M)), COMPUTED_DENSE)


# -- operator spectra ------------------------------------------------------


def _column_norms(V):
    # the bits of np.linalg.norm(V, axis=0), without its Python wrapper
    return np.sqrt(np.add.reduce(V * V, axis=0))


def power_spectral_radius(op):
    """Power-iteration estimate of the spectral radius (lower biased).

    The best estimate over 5 fixed-seed random starts of the growth
    ratio after 100 applications.  The starts are iterated together as
    the columns of one ``(op.dim, 5)`` block, so ``op`` must accept
    column blocks, as every operator sadprec builds does.  A start or
    iterate of norm 0 scores 0; a NaN or inf norm raises ``ValueError``.

    When the operator's order is at most 500 (the 100 x 5 columns the
    iteration would apply it to) and its dense matrix fits
    ``sparse.dense_cap()``, the iteration multiplies by ``op.dense()``
    instead.  This probe requires ``op`` to be linear; every operator
    sadprec builds that accepts blocks is (CG-mode preconditioners
    reject them).
    """
    if op.dim <= _POWER_ITERS * _POWER_RESTARTS and op.dim ** 2 <= dense_cap():
        G = op.dense()
        if not np.isfinite(G).all():
            raise ValueError("the probed operator matrix holds NaN or inf")
        apply = G.__matmul__
    else:
        apply = op
    rng = np.random.default_rng(_POWER_SEED)
    # the same numbers as drawing the starts one after another
    V = rng.standard_normal((_POWER_RESTARTS, op.dim)).T
    norms = _column_norms(V)
    live = norms > 0.0
    for _ in range(_POWER_ITERS):
        V = apply(V / np.where(live, norms, 1.0))
        norms = _column_norms(V)
        top = norms.max()
        if not math.isfinite(top):
            raise ValueError(f"power iterate norm is {top}: the operator produced NaN or inf")
        live &= norms > 0.0
    return float(np.max(norms, where=live, initial=0.0))


def gamma_dense(sys, alpha, beta):
    """Dense iteration matrix Gamma = (Sigma + K)^{-1} (Sigma - K).

    ``stationary.IterationMatrixOperator.dense``: one LU solve, with no
    preconditioner built.
    """
    return IterationMatrixOperator(sys, alpha, beta).dense()


def preconditioned_dense(sys, spec):
    """Dense P^{-1} K, one LU solve with ``dense_preconditioner_matrix``; K itself for ``none``.

    Only ``spec``'s kind and shifts matter, not its inner mode.  P is
    nonsingular for every valid spec; a singular one raises numpy's
    ``LinAlgError``.
    """
    if spec.kind == "none":
        return saddle_dense(sys)
    P = dense_preconditioner_matrix(sys, spec)
    return np.linalg.solve(P, saddle_dense(sys))


def rmgss_preconditioned_dense(sys, beta):
    return preconditioned_dense(sys, PrecondSpec("rmgss", beta=beta))


def predicted_rmgss_spectrum(sys, beta):
    """Predicted spectrum of the rmgss-preconditioned matrix.

    The multiset {1 with multiplicity n} plus mu_i / (beta + mu_i),
    where mu_i are the eigenvalues of G = C + B A^{-1} B^T.  A's
    Cholesky factorization (``factor.cholesky_dense``) is only the
    check that A is positive definite (else ``NotPositiveDefiniteError``);
    G is formed with one LU solve, ``np.linalg.solve(A, B^T)`` (about
    2/3 n^3 + 2 n^2 m flops), made exactly symmetric as
    ``precond._schur_complement`` makes it, and its eigenvalues come
    from ``np.linalg.eigh``.  beta must be > 0 and finite, as for an
    rmgss ``PrecondSpec``.
    """
    beta = PrecondSpec("rmgss", beta=beta).beta
    A = to_dense(sys.A)
    factor.cholesky_dense(A)
    Bd = to_dense(sys.B)
    G = to_dense(sys.C) + Bd @ np.linalg.solve(A, Bd.T)
    mu, _ = jacobi_symmetric(0.5 * (G + G.T))
    return Spectrum(np.concatenate([np.ones(sys.n), mu / (beta + mu)]), PREDICTED)


def iteration_matrix_check(sys, alpha, beta):
    """Spectral radius of the iteration matrix and distances to +-1.

    Gamma = (Sigma + K)^{-1} (Sigma - K) is the Cayley transform
    (I + T)^{-1} (I - T) of T = Sigma^{-1} K, so its eigenvalues are
    lambda = (1 - mu) / (1 + mu) for the eigenvalues mu of T.  T is
    the dense K of ``sparse.saddle_dense`` with row i divided by
    sigma_i, so the cost is one ``np.linalg.eigvals`` of order n + m;
    Gamma itself (``gamma_dense``, an LU solve of about 8/3 (n + m)^3
    flops) is never formed.  Reports max |lambda| (``rho``) and
    min |lambda -+ 1| over the spectrum, taken as 2 |mu| / |1 + mu| and
    2 / |1 + mu|, which lose no digits to cancellation when lambda is
    near -+1.  Sigma + K is nonsingular for every pair of positive
    shifts, so 1 + mu is never 0.  Shifts so small that K / sigma
    overflows (below about 5e-309 times K's largest entry) raise
    ``ValueError``.
    """
    T = saddle_dense(sys)
    with np.errstate(over="ignore"):
        T /= shift_diagonal(sys, PrecondSpec("mgss", alpha=alpha, beta=beta))[:, None]
    if not np.isfinite(T).all():
        raise ValueError("Sigma^{-1} K overflows: the shifts are too small for the scale of K")
    mu = np.linalg.eigvals(T)
    plus = np.abs(1.0 + mu)
    return {
        "rho": float(np.max(np.abs(1.0 - mu) / plus, initial=0.0)),
        "min_dist_to_plus1": float(np.min(2.0 * np.abs(mu) / plus, initial=np.inf)),
        "min_dist_to_minus1": float(np.min(2.0 / plus, initial=np.inf)),
    }
