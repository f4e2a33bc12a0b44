"""Sparse direct solvers used by the substructured preconditioner.

Two building blocks:

* :class:`SPDSolver` -- sparse LU factorization (scipy's SuperLU) of a
  symmetric positive definite matrix, optionally after the pin shift below.

* :class:`ConstrainedSolver` -- minimizes ``0.5 u^T A u - b^T u`` subject to
  sparse constraint rows ``C u = g`` (averages, or single dofs with weight
  one) where ``A`` is symmetric positive semidefinite with at most the
  constant vector in its kernel.  The KKT system is reduced to a dense
  multiplier problem so that only one sparse LU factorization is needed.
  Singular ``A`` is handled by pinning a single entry with a rank-one
  diagonal shift and compensating through an extra multiplier, which keeps
  the factorized matrix sparse *and* the reduced system exactly equivalent
  to the original KKT conditions:

      [A + rho*e_p*e_p^T   Ct^T] [u ]   [b ]          Ct = [C; e_p^T]
      [Ct                   D  ] [nu] = [gt],         D  = diag(0,..,0, 1/rho)

  whose second block forces nu_last = -rho * u_p, cancelling the shift in
  the first block, so (u, nu[:-1]) solves the original problem.

  The factor of ``A + rho*e_p*e_p^T`` does not depend on ``C``, so a caller
  that solves against several constraint sets builds the :class:`SPDSolver`
  once and hands it to every :class:`ConstrainedSolver`.  With the
  multiplier basis ``W = (A + rho*e_p*e_p^T)^{-1} Ct^T`` and the dense
  ``H = Ct W - D`` the solution is the sum of two parts,

      solve(b)  = y - W H^{-1} Ct y,     y = (A + rho*e_p*e_p^T)^{-1} b,
      extend(g) = W H^{-1} [g; 0],

  the load response with ``C u = 0`` and the unloaded energy-minimal
  extension of the targets; the second needs no sparse solve.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import FactorizationError

HAS_CHOLMOD = False  # SuperLU is the only backend; kept for provenance reports

__all__ = ["SPDSolver", "ConstrainedSolver"]


class SPDSolver:
    """Reusable factorization of a sparse SPD matrix.

    With ``pin=True`` the matrix may be only semidefinite with the constant
    vector in its kernel; the factor is then that of
    ``matrix + rho * e_0 e_0^T`` with ``rho`` the mean diagonal entry, and
    ``rho`` is kept for :class:`ConstrainedSolver`.  ``rho`` is 0 without
    the pin.
    """

    def __init__(self, matrix: sp.spmatrix, label: str = "", pin: bool = False):
        if matrix.shape[0] != matrix.shape[1]:
            raise FactorizationError(f"matrix {label or '?'} is not square")
        self.n = matrix.shape[0]
        self.label = label
        self.rho = 0.0
        if pin:
            if self.n == 0:
                raise FactorizationError(f"empty singular block for {label or '?'}")
            matrix = matrix.tocsr()
            self.rho = float(matrix.diagonal().mean()) or 1.0
            matrix = matrix + sp.coo_matrix(
                ([self.rho], ([0], [0])), shape=matrix.shape
            ).tocsr()
        try:
            self._lu = sp.linalg.splu(matrix.tocoo().tocsc())
        except RuntimeError as exc:
            raise FactorizationError(
                f"matrix {label or '?'} could not be factorized"
            ) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one vector (n,) or a block of right-hand sides (n, k)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        squeeze = rhs.ndim == 1
        out = self._lu.solve(rhs.reshape(self.n, -1))
        if not np.all(np.isfinite(out)):
            raise FactorizationError(
                f"solve with {self.label or '?'} produced non-finite values"
            )
        return out[:, 0] if squeeze else out


class ConstrainedSolver:
    """Equality-constrained solves against a PSD matrix with 1D kernel.

    Parameters
    ----------
    factor:
        :class:`SPDSolver` of the matrix, built with ``pin=True`` when the
        matrix may contain the constant vector in its kernel (the solver
        then adds the internal pin row) and ``pin=False`` when it is
        positive definite.  Several solvers with different constraints may
        share one factor.
    constraints:
        Sparse constraint rows (``m`` x ``n``).

    :meth:`solve` returns the solution for a load with zero constraint
    values, :meth:`extend` the one for constraint values with zero load;
    the solution for both is their sum.
    """

    def __init__(self, factor: SPDSolver, constraints, label=""):
        self.n = factor.n
        self.label = label
        constraints = constraints.tocsr()
        if constraints.shape[1] != self.n:
            raise FactorizationError(
                f"constraint rows for {label or '?'} have wrong width"
            )
        self.m = constraints.shape[0]

        self._rho = factor.rho
        if self._rho:
            pin_row = sp.coo_matrix(([1.0], ([0], [0])), shape=(1, self.n)).tocsr()
            self._ct = sp.vstack([constraints, pin_row]).tocsr()
        else:
            self._ct = constraints

        self._mt = self._ct.shape[0]
        self._spd = factor
        self._rows = None
        self._w = None
        self._h_lu = None
        if self._mt:
            w = self._spd.solve(self._ct.T.toarray())
            h = self._ct @ w
            if self._rho:
                h[-1, -1] -= 1.0 / self._rho
            try:
                with np.errstate(invalid="raise"), warnings.catch_warnings():
                    # singular pivots are caught explicitly below
                    warnings.simplefilter("ignore", sla.LinAlgWarning)
                    self._h_lu = sla.lu_factor(h)
            except (ValueError, sla.LinAlgError, FloatingPointError) as exc:
                raise FactorizationError(
                    f"dependent constraint rows for {label or '?'}"
                ) from exc
            piv = np.abs(np.diag(self._h_lu[0]))
            if piv.size and piv.min() <= 1e-13 * max(piv.max(), 1.0):
                raise FactorizationError(
                    f"dependent constraint rows for {label or '?'}"
                )
            self._w = w.reshape(self.n, self._mt)

    def compress(self, rows: np.ndarray):
        """Keep the multiplier basis only at ``rows``; later solves and
        extensions return the solution restricted to those rows."""
        self._rows = np.asarray(rows, dtype=np.int64)
        if self._w is not None:
            self._w = np.ascontiguousarray(self._w[self._rows])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Energy minimizer for the load ``rhs`` (one vector or a block of
        columns) subject to ``C u = 0``."""
        rhs = np.asarray(rhs, dtype=np.float64)
        squeeze = rhs.ndim == 1
        y = self._spd.solve(rhs.reshape(self.n, -1))
        out = y if self._rows is None else y[self._rows]
        if self._mt:
            out = out - self._w @ sla.lu_solve(self._h_lu, self._ct @ y)
        return out[:, 0] if squeeze else out

    def extend(self, targets: np.ndarray) -> np.ndarray:
        """Energy minimizer without load subject to ``C u = targets``
        (``(m,)`` or ``(m, k)``): ``W H^{-1} [g; 0]``, no sparse solve."""
        g = np.asarray(targets, dtype=np.float64)
        squeeze = g.ndim == 1
        g = g.reshape(self.m, -1)
        lam = np.zeros((self._mt, g.shape[1]))
        lam[: self.m] = g
        out = self._w @ sla.lu_solve(self._h_lu, lam)
        return out[:, 0] if squeeze else out
