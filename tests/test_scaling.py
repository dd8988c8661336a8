"""Scaling a system and its shifts by a power of two scales every output exactly.

A, B, C, f, g and every shift are multiplied by s = 2^-64 or 2^64.
Multiplying by a power of two is exact, and every tolerance of the
package is relative (the Cholesky pivot rule, GMRES's breakdown test,
both symmetry checks, the inner and outer stopping rules), so the
scaled run takes the same branches on the same digits: solutions, step
counts, spectral radii and spectra are bitwise those of the unscaled
system, residual histories are s times theirs and Cholesky factors
sqrt(s) times theirs.  The power probe is also checked at scales such
as 2^-600 and 2^600, whose squared entries underflow or overflow; there
the estimate scales to rounding.
"""

import functools

import numpy as np
import pytest

from sadprec import factor
from sadprec.krylov import StoppingRule, as_operator, cg, gmres_restarted, saddle_operator, stationary_richardson
from sadprec.precond import SHIFTS, PrecondSpec, make_preconditioner
from sadprec.problems import StokesConfig, generate_random_saddle, generate_stokes_q1p0
from sadprec.sparse import CsrMatrix, SaddleSystem
from sadprec.spectral import iteration_matrix_check, jacobi_symmetric, power_spectral_radius, predicted_rmgss_spectrum
from sadprec.stationary import IterationMatrixOperator


SYSTEMS = {
    "stokes8-pinned": lambda: generate_stokes_q1p0(StokesConfig(8)),
    "stokes8-unpinned": lambda: generate_stokes_q1p0(StokesConfig(8, pin_pressure=False)),
    "random40x16": lambda: generate_random_saddle(40, 16, seed=3),
}
SCALES = [pytest.param(2.0 ** -64, id="2^-64"), pytest.param(2.0 ** 64, id="2^64")]
METHODS = [("none", "cg")] + [(kind, inner) for kind in ("mgss", "rmgss", "hss") for inner in ("cg", "direct")]
SHIFT = 0.5  # alpha = beta for the stationary iteration and its spectra


def scaled(M, s):
    return CsrMatrix(M.nrows, M.ncols, M.row_ptr, M.col_idx, M.values * s)


@functools.cache
def system(name, s=1.0):
    sys_ = SYSTEMS[name]()
    if s == 1.0:
        return sys_
    return SaddleSystem(scaled(sys_.A, s), scaled(sys_.B, s), scaled(sys_.C, s), sys_.f * s, sys_.g * s)


@functools.cache
def gmres(name, kind, inner, s=1.0):
    sys_ = system(name, s)
    spec = PrecondSpec(kind, inner=inner, **{k: v * s for k, v in SHIFTS[kind].items()})
    return gmres_restarted(saddle_operator(sys_), sys_.rhs(), make_preconditioner(sys_, spec),
                           StoppingRule(max_outer=300))


def richardson(name, s=1.0):
    sys_ = system(name, s)
    prec = make_preconditioner(sys_, PrecondSpec("mgss", SHIFT * s, SHIFT * s, inner="direct"))
    return stationary_richardson(saddle_operator(sys_), sys_.rhs(), prec, StoppingRule(max_outer=50))


def assert_scaled_report(got, want, s):
    assert got.solution.tobytes() == want.solution.tobytes()
    assert (got.outer_iterations, got.total_inner_cg_iterations, got.stop_reason) == \
        (want.outer_iterations, want.total_inner_cg_iterations, want.stop_reason)
    assert [h / s for h in got.residual_history] == want.residual_history


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", SYSTEMS)
class TestScaledSystem:
    @pytest.mark.parametrize("kind,inner", METHODS, ids=lambda v: v)
    def test_gmres(self, name, kind, inner, s):
        want = gmres(name, kind, inner)
        assert want.outer_iterations > 1
        assert_scaled_report(gmres(name, kind, inner, s), want, s)

    def test_stationary_richardson(self, name, s):
        assert_scaled_report(richardson(name, s), richardson(name), s)

    def test_cg_on_A(self, name, s):
        want = cg(system(name).A, system(name).f, 1e8, 100)
        got = cg(system(name, s).A, system(name, s).f, 1e8, 100)
        assert_scaled_report(got, want, s)

    def test_cholesky_blocks(self, name, s):
        # sqrt(s) = 2^-32 or 2^32, also a power of two
        pairs = zip(factor.cholesky(system(name).A).blocks, factor.cholesky(system(name, s).A).blocks, strict=True)
        for want, got in pairs:
            assert np.array_equal(got[0], want[0])
            assert (got[1] / np.sqrt(s)).tobytes() == want[1].tobytes()

    def test_spectral_radii(self, name, s):
        want, got = system(name), system(name, s)
        assert iteration_matrix_check(got, SHIFT * s, SHIFT * s) == iteration_matrix_check(want, SHIFT, SHIFT)
        assert power_spectral_radius(IterationMatrixOperator(got, SHIFT * s, SHIFT * s)) == \
            power_spectral_radius(IterationMatrixOperator(want, SHIFT, SHIFT))

    def test_predicted_rmgss_spectrum(self, name, s):
        beta = SHIFTS["rmgss"]["beta"]
        want = predicted_rmgss_spectrum(system(name), beta).eigenvalues
        assert predicted_rmgss_spectrum(system(name, s), beta * s).eigenvalues.tobytes() == want.tobytes()


@pytest.mark.parametrize("check", [factor.cholesky_dense, jacobi_symmetric])
def test_small_non_symmetric_refused(check):
    # |a - a.T| = 2^-64 is a quarter of max |a|
    with pytest.raises(ValueError, match="not symmetric") as exc:
        check(2.0 ** -64 * np.array([[4.0, 1.0], [0.0, 3.0]]))
    assert not isinstance(exc.value, factor.NotPositiveDefiniteError)


@pytest.mark.parametrize("cap", [None, "0"], ids=["probe", "operator"])
@pytest.mark.parametrize("s", [2.0 ** -600, 1e-300, 1e-170, 1e160, 1e200, 2.0 ** 600],
                         ids=["2^-600", "1e-300", "1e-170", "1e160", "1e200", "2^600"])
@pytest.mark.parametrize("M", [np.diag([1.0, 0.5, 0.25]), np.random.default_rng(5).standard_normal((7, 7))],
                         ids=["diagonal", "random7"])
def test_power_probe_is_scale_free(M, s, cap, monkeypatch):
    # squared entries below about 1e-162 underflow and above 1e154 overflow
    # (with a RuntimeWarning, an error in this suite): such column norms are
    # taken from the columns divided by their largest |entry|, which rounds,
    # so the estimate scales to rounding, not bitwise
    if cap is not None:
        monkeypatch.setenv("SADPREC_DENSE_CAP", cap)
    want = power_spectral_radius(as_operator(CsrMatrix.from_dense(M)))
    got = power_spectral_radius(as_operator(CsrMatrix.from_dense(M * s)))
    assert abs(got / s - want) <= 1e-14 * want
