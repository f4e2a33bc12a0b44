"""Preconditioned conjugate gradients with spectral condition estimation.

The solver targets symmetric positive *semi*definite operators whose kernel
is known; a projection callback keeps all Krylov vectors inside the kernel
complement.  The preconditioned Lanczos tridiagonal matrix is accumulated
from the CG coefficients,

    T[0,0]   = 1/alpha_0
    T[k,k]   = 1/alpha_k + beta_{k-1}/alpha_{k-1}
    T[k,k+1] = sqrt(beta_k)/alpha_k,

and its extreme eigenvalues estimate the spectrum of the preconditioned
operator; their ratio is the reported condition number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import SolverError

__all__ = ["SolveReport", "pcg", "lanczos_spectrum"]


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    converged: bool
    kappa_est: float
    lambda_min: float
    lambda_max: float
    residuals: tuple
    rhs_norm: float
    tol: float

    def __str__(self):
        state = "converged" if self.converged else "NOT converged"
        return (
            f"pcg {state} in {self.iterations} iterations, "
            f"kappa ~ {self.kappa_est:.3f} "
            f"[{self.lambda_min:.3e}, {self.lambda_max:.3e}]"
        )


def lanczos_spectrum(alphas, betas):
    """Extreme eigenvalues of the CG-coefficient tridiagonal matrix."""
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if len(alphas) == 0:
        return np.nan, np.nan
    if len(betas) != len(alphas) - 1:
        raise SolverError(
            f"need one beta per alpha pair, got {len(alphas)} alphas "
            f"and {len(betas)} betas"
        )
    diag = 1.0 / alphas
    diag[1:] += betas / alphas[:-1]
    off = np.sqrt(np.maximum(betas, 0.0)) / alphas[:-1]
    ev = eigvalsh_tridiagonal(diag, off)
    return float(ev[0]), float(ev[-1])


def pcg(
    apply_a,
    b,
    apply_m=None,
    *,
    tol=1e-8,
    maxiter=500,
    project=None,
):
    """Solve A x = b from the zero start; returns ``(x, SolveReport)``.

    ``apply_m`` defaults to the identity.  ``project`` (if given) is applied
    to the right-hand side and after every operator and preconditioner
    application, keeping the iteration in the kernel complement of a
    semidefinite A.  The iteration stops once the Euclidean norm of the
    residual is at most ``tol`` times that of the right-hand side.
    """
    if maxiter < 1:
        raise SolverError("maxiter must be at least 1")

    b = np.asarray(b, dtype=np.float64)
    if project is not None:
        b = project(b)
    b_norm = float(np.linalg.norm(b))
    threshold = tol * b_norm

    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x, SolveReport(
            iterations=0, converged=True, kappa_est=1.0,
            lambda_min=np.nan, lambda_max=np.nan, residuals=(0.0,),
            rhs_norm=0.0, tol=tol,
        )

    r = b.copy()
    z = apply_m(r) if apply_m is not None else r.copy()
    if project is not None:
        z = project(z)
    rz = float(r @ z)
    if not rz > 0:  # NaN included
        raise SolverError(f"preconditioner is not positive definite (r'z = {rz:.3e})")
    p = z.copy()

    alphas, betas, residuals = [], [], []
    converged = False
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        if project is not None:
            ap = project(ap)
        pap = float(p @ ap)
        if not pap > 0:
            raise SolverError(
                f"operator is not positive definite on the Krylov space "
                f"(p'Ap = {pap:.3e} at iteration {it})"
            )
        alpha = rz / pap
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        residuals.append(res)
        if res <= threshold:
            converged = True
            break
        z = apply_m(r) if apply_m is not None else r.copy()
        if project is not None:
            z = project(z)
        rz_new = float(r @ z)
        if not rz_new > 0:
            raise SolverError(
                f"preconditioner lost positive definiteness (r'z = {rz_new:.3e})"
            )
        beta = rz_new / rz
        betas.append(beta)
        p = z + beta * p
        rz = rz_new

    # when maxiter stops the loop a beta for the never-started step exists
    lam_min, lam_max = lanczos_spectrum(alphas, betas[: len(alphas) - 1])
    kappa = lam_max / lam_min if lam_min > 0 else np.inf
    return x, SolveReport(
        iterations=len(alphas),
        converged=converged,
        kappa_est=float(kappa),
        lambda_min=lam_min,
        lambda_max=lam_max,
        residuals=tuple(residuals),
        rhs_norm=b_norm,
        tol=tol,
    )
