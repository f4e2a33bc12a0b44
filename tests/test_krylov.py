import numpy as np
import numpy.testing as npt
import pytest

from emibddc.errors import SolverError
from emibddc.krylov import lanczos_spectrum, pcg


def _spd(n, rng, cond=None):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if cond is None:
        w = rng.uniform(1.0, 10.0, n)
    else:
        w = np.geomspace(1.0, cond, n)
    return (q * w) @ q.T


def test_identity_converges_immediately():
    b = np.arange(1.0, 9.0)
    x, rep = pcg(lambda v: v, b, tol=1e-12)
    npt.assert_allclose(x, b, rtol=1e-14)
    assert rep.iterations == 1
    assert rep.converged
    npt.assert_allclose(rep.kappa_est, 1.0, rtol=1e-12)
    npt.assert_allclose(rep.lambda_min, 1.0, rtol=1e-12)


def test_diagonal_condition_number_recovered():
    d = np.arange(1.0, 11.0)
    rng = np.random.default_rng(30)
    b = rng.standard_normal(10)
    x, rep = pcg(lambda v: d * v, b, tol=1e-14, maxiter=50)
    npt.assert_allclose(x, b / d, rtol=1e-10)
    npt.assert_allclose(rep.kappa_est, 10.0, rtol=1e-6)
    npt.assert_allclose(rep.lambda_min, 1.0, rtol=1e-6)
    npt.assert_allclose(rep.lambda_max, 10.0, rtol=1e-6)


def test_single_iteration_spectrum_is_inverse_alpha():
    d = np.array([2.0, 5.0, 9.0])
    b = np.ones(3)
    x, rep = pcg(lambda v: d * v, b, tol=1e-30, maxiter=1)
    assert rep.iterations == 1 and not rep.converged
    # with one CG step the tridiagonal collapses to the scalar 1/alpha_0
    alpha0 = (b @ b) / (b @ (d * b))
    npt.assert_allclose(rep.lambda_min, 1.0 / alpha0, rtol=1e-14)
    npt.assert_allclose(rep.lambda_max, 1.0 / alpha0, rtol=1e-14)


def test_lanczos_matches_dense_tridiagonal():
    rng = np.random.default_rng(31)
    alphas = rng.uniform(0.1, 2.0, 12)
    betas = rng.uniform(0.01, 1.0, 11)
    lo, hi = lanczos_spectrum(alphas, betas)
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    off = np.sqrt(betas) / alphas[:-1]
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ev = np.linalg.eigvalsh(t)
    npt.assert_allclose([lo, hi], [ev[0], ev[-1]], rtol=1e-12)


def test_lanczos_extremes_are_monotone_in_depth():
    """Ritz bounds only tighten as the recurrence grows (interlacing)."""
    rng = np.random.default_rng(32)
    alphas = rng.uniform(0.1, 2.0, 15)
    betas = rng.uniform(0.01, 1.0, 14)
    prev_lo, prev_hi = np.inf, -np.inf
    for k in range(1, 16):
        lo, hi = lanczos_spectrum(alphas[:k], betas[: k - 1])
        assert lo <= prev_lo + 1e-14
        assert hi >= prev_hi - 1e-14
        prev_lo, prev_hi = lo, hi


def test_lanczos_length_mismatch():
    with pytest.raises(SolverError):
        lanczos_spectrum([1.0, 2.0], [0.5, 0.5])


def test_indefinite_operator_rejected():
    d = np.array([1.0, -1.0, 2.0])
    with pytest.raises(SolverError, match="not positive definite"):
        pcg(lambda v: d * v, np.array([0.0, 1.0, 0.0]))


def test_indefinite_preconditioner_rejected():
    with pytest.raises(SolverError, match="preconditioner"):
        pcg(lambda v: v, np.ones(4), apply_m=lambda v: -v)


def test_true_residual_meets_tolerance():
    rng = np.random.default_rng(33)
    a = _spd(30, rng, cond=100.0)
    b = rng.standard_normal(30)
    tol = 1e-9
    x, rep = pcg(lambda v: a @ v, b, tol=tol, maxiter=200)
    assert rep.converged
    assert np.linalg.norm(b - a @ x) <= 10 * tol * np.linalg.norm(b)


def test_maxiter_exhaustion_reported():
    rng = np.random.default_rng(34)
    a = _spd(40, rng, cond=1e6)
    b = rng.standard_normal(40)
    x, rep = pcg(lambda v: a @ v, b, tol=1e-14, maxiter=3)
    assert not rep.converged
    assert rep.iterations == 3
    assert len(rep.residuals) == 3


def test_zero_rhs_short_circuits():
    x, rep = pcg(lambda v: v, np.zeros(5))
    npt.assert_array_equal(x, 0.0)
    assert rep.converged and rep.iterations == 0


def test_stop_mode_validation():
    with pytest.raises(SolverError):
        pcg(lambda v: v, np.ones(3), maxiter=0)


def test_projected_semidefinite_solve():
    """Singular operator with known kernel: projection keeps CG consistent."""
    rng = np.random.default_rng(36)
    n = 25
    proj_mat = np.eye(n) - np.ones((n, n)) / n
    a = proj_mat @ _spd(n, rng) @ proj_mat  # PSD, kernel = constants
    b = proj_mat @ rng.standard_normal(n)
    project = lambda v: v - v.mean()
    x, rep = pcg(lambda v: a @ v, b, tol=1e-12, project=project, maxiter=200)
    assert rep.converged
    npt.assert_allclose(x.mean(), 0.0, atol=1e-12)
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    expected -= expected.mean()
    npt.assert_allclose(x, expected, atol=1e-9)


def test_preconditioning_reduces_iterations():
    rng = np.random.default_rng(37)
    a = _spd(50, rng, cond=1e4)
    b = rng.standard_normal(50)
    _, plain = pcg(lambda v: a @ v, b, tol=1e-10, maxiter=500)
    a_inv = np.linalg.inv(a)
    _, exact = pcg(lambda v: a @ v, b, apply_m=lambda v: a_inv @ v, tol=1e-10)
    assert exact.iterations <= 2
    assert exact.iterations < plain.iterations
    npt.assert_allclose(exact.kappa_est, 1.0, rtol=1e-8)


def test_report_string_mentions_state():
    _, rep = pcg(lambda v: v, np.ones(3))
    assert "converged" in str(rep)
    assert "kappa" in str(rep)
