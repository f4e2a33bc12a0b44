"""Sparse direct solvers used by the substructured preconditioner.

Two building blocks:

* :class:`SPDSolver` -- factorization of a sparse SPD matrix with scipy's
  SuperLU.

* :class:`ConstrainedSolver` -- minimizes ``0.5 u^T A u - b^T u`` subject to
  sparse averaging constraints ``C u = g`` where ``A`` is symmetric positive
  semidefinite with at most the constant vector in its kernel.  The KKT
  system is reduced to a dense multiplier problem so that only one sparse
  Cholesky factorization is needed.  Singular ``A`` is handled by pinning a
  single entry with a rank-one diagonal shift and compensating through an
  extra multiplier, which keeps the factorized matrix sparse *and* the
  reduced system exactly equivalent to the original KKT conditions:

      [A + rho*e_p*e_p^T   Ct^T] [u ]   [b ]          Ct = [C; e_p^T]
      [Ct                   D  ] [nu] = [gt],         D  = diag(0,..,0, 1/rho)

  whose second block forces nu_last = -rho * u_p, cancelling the shift in
  the first block, so (u, nu[:-1]) solves the original problem.
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
    """Reusable factorization of a sparse SPD matrix."""

    def __init__(self, matrix: sp.spmatrix, label: str = ""):
        matrix = matrix.tocoo()
        if matrix.shape[0] != matrix.shape[1]:
            raise FactorizationError(f"matrix {label or '?'} is not square")
        self.n = matrix.shape[0]
        self.label = label
        try:
            self._lu = sp.linalg.splu(matrix.tocsc())
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
    matrix:
        Sparse symmetric PSD matrix (``n`` x ``n``).
    constraints:
        Sparse constraint rows (``m`` x ``n``); ``None`` means no rows.
    make_spd:
        Pass ``True`` when ``matrix`` may contain the constant vector in its
        kernel (nothing was pinned yet); the solver then adds the internal
        pin row.  Pass ``False`` when the matrix is already positive
        definite.
    """

    def __init__(self, matrix, constraints=None, make_spd=True, label=""):
        matrix = matrix.tocsr()
        self.n = matrix.shape[0]
        self.label = label
        if constraints is None:
            constraints = sp.csr_matrix((0, self.n))
        constraints = constraints.tocsr()
        if constraints.shape[1] != self.n:
            raise FactorizationError(
                f"constraint rows for {label or '?'} have wrong width"
            )
        self.m = constraints.shape[0]

        self._pinned = bool(make_spd)
        if make_spd:
            if self.n == 0:
                raise FactorizationError(f"empty singular block for {label or '?'}")
            diag = matrix.diagonal()
            self._rho = float(diag.mean()) or 1.0
            shift = sp.coo_matrix(
                ([self._rho], ([0], [0])), shape=matrix.shape
            ).tocsr()
            a_spd = matrix + shift
            pin_row = sp.coo_matrix(([1.0], ([0], [0])), shape=(1, self.n)).tocsr()
            self._ct = sp.vstack([constraints, pin_row]).tocsr()
        else:
            a_spd = matrix
            self._ct = constraints

        self._mt = self._ct.shape[0]
        self._spd = SPDSolver(a_spd, label=label)
        self._rows = None
        self._w = None
        self._h_lu = None
        if self._mt:
            w = self._spd.solve(self._ct.T.toarray())
            h = self._ct @ w
            if self._pinned:
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
        """Keep the multiplier basis only at ``rows``; later solves return
        the solution restricted to those rows."""
        self._rows = np.asarray(rows, dtype=np.int64)
        if self._w is not None:
            self._w = np.ascontiguousarray(self._w[self._rows])

    def solve(self, rhs: np.ndarray, targets: np.ndarray = None) -> np.ndarray:
        """Constrained solve; ``targets`` are the per-row values of ``C u``.

        After :meth:`compress` the returned array holds only the kept rows.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        squeeze = rhs.ndim == 1
        y = self._spd.solve(rhs.reshape(self.n, -1))
        out = y if self._rows is None else y[self._rows]
        if self._mt:
            lam_rhs = self._ct @ y
            if targets is not None:
                g = np.asarray(targets, dtype=np.float64).reshape(self.m, -1)
                lam_rhs[: self.m] -= g
            out = out - self._w @ sla.lu_solve(self._h_lu, lam_rhs)
        return out[:, 0] if squeeze else out
