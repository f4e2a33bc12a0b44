"""Sparse direct solvers used by the substructured preconditioner.

Two building blocks:

* :class:`SPDSolver` -- sparse LU factorization (scipy's SuperLU) of a
  symmetric positive definite matrix, optionally after the pin shift below.
  SuperLU runs in symmetric mode: one minimum-degree ordering of
  ``A^T + A`` is applied to rows and columns alike, and the diagonal is
  taken as pivot without row interchanges.  Summed over the factors of a
  benchmark study this stores 28-41% fewer entries than SuperLU's default
  (COLAMD with partial pivoting).  Dropping the row pivoting is
  safe because every matrix factored is SPD (an interior block ``K_II``,
  or a Neumann block made definite by the pin): elimination on an SPD
  matrix meets only positive pivots and its entries do not grow.

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
  ``H = Ct W - D``, the solution for a load ``b`` and targets ``g`` is

      u = y + V ([g; 0] - Ct y),   y = (A + rho*e_p*e_p^T)^{-1} b,   V = W H^{-1}.

  ``V`` is formed once, at set-up, so a solve is one sparse solve, one
  sparse product with ``Ct`` and one dense product with ``V``, and the
  targets need no sparse solve.  ``Q = H^{-1} [I_m; 0]`` (the first ``m``
  columns of ``V`` are ``W Q``) is the energy of the extensions:
  ``psi = W Q`` minimizes ``psi^T A psi`` subject to ``C psi = I_m``, and
  ``psi^T A psi = Q[:m]``, since
  ``psi^T (A + rho*e_p*e_p^T) psi = Q[:m] + Q^T D Q`` and the pin adds
  ``rho*(e_p^T psi)^2 = Q^T D Q``.  Likewise ``psi^T b = Q^T Ct y``, the
  leading multipliers ``(H^{-1} Ct y)[:m]``, as ``H`` is symmetric.
"""

from __future__ import annotations

import ctypes
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import FactorizationError

HAS_CHOLMOD = False  # SuperLU is the only backend; kept for provenance reports

try:  # glibc's malloc_trim; None where the C library has none
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

__all__ = ["SPDSolver", "ConstrainedSolver"]

_FOLD_ROWS = 1024  # rows of W per in-place block of the V = W H^{-1} fold


class SPDSolver:
    """Reusable factorization of a sparse SPD matrix.

    With ``pin=True`` the matrix may be only semidefinite with the constant
    vector in its kernel; the factor is then that of
    ``matrix + rho * e_0 e_0^T`` with ``rho`` the mean diagonal entry, and
    ``rho`` is kept for :class:`ConstrainedSolver`.  ``rho`` is 0 without
    the pin.

    The factor is SuperLU's in symmetric mode: minimum-degree ordering on
    the pattern of ``A^T + A`` (``MMD_AT_PLUS_A``), applied symmetrically,
    with diagonal pivots and no row pivoting (``diag_pivot_thresh=0``).
    This relies on the factored matrix being SPD, which holds for both
    callers; a matrix that is singular anyway still raises
    :class:`FactorizationError`, from SuperLU's exact-zero pivot or from
    the finite check in :meth:`solve`.
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
        # SuperLU reserves factor storage from a fill estimate and touches only
        # what it fills; a reserve placed in freed but resident heap counts in
        # full.  Freed heap goes back first, so the convex-h12 workload's first
        # study peaks at 169 MiB in every run, not 185 or 209 (2-core Linux).
        if _malloc_trim is not None:
            _malloc_trim(0)
        try:
            self._lu = sp.linalg.splu(
                matrix.tocoo().tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise FactorizationError(
                f"matrix {label or '?'} could not be factorized"
            ) from exc

    @property
    def fill(self) -> int:
        """Entries of the factor, ``L.nnz + U.nnz``.

        SuperLU builds ``L`` and ``U`` as new CSC copies of its supernodal
        storage on every call, so this costs time and memory in proportion
        to the fill: a diagnostic, never to be read in set-up or in an
        apply.  (Reading ``fill`` instead of :attr:`nnz` to rank the
        substructures for a threaded M-apply raised the peak RSS of the
        ``convex-h12`` benchmark workload from 277 to 457 MiB.)
        :attr:`nnz` is the O(1) count to use there.
        """
        return self._lu.L.nnz + self._lu.U.nnz

    @property
    def nnz(self) -> int:
        """SuperLU's own count of stored factor entries, read in O(1).

        It counts supernodal storage, padding included, so it reads above
        :attr:`fill`: by 0.4-2.4% on the bath Neumann factors of the
        benchmark workloads (1,071,698 against 1,046,104 on ``rhs-stream``,
        5,398,362 against 5,376,289 on ``convex-h12``) and by 7-33% on the
        smallest cell factors.  It still ranks factors by solve cost, which
        is what the M-apply reads it for.
        """
        return self._lu.nnz

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one vector (n,) or a block of right-hand sides (n, k)."""
        out = self._substitute(rhs)
        if not np.all(np.isfinite(out)):
            raise FactorizationError(
                f"solve with {self.label or '?'} produced non-finite values"
            )
        return out

    def _substitute(self, rhs: np.ndarray) -> np.ndarray:
        """The triangular solves alone, for a caller that checks the
        results of many factors at once."""
        rhs = np.asarray(rhs, dtype=np.float64)
        out = self._lu.solve(rhs.reshape(self.n, -1))
        return out[:, 0] if rhs.ndim == 1 else out


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

    :meth:`solve` returns the solution for a load and constraint targets.
    The pieces of a solve are public for callers that stack them over many
    solvers: ``factor``, ``ct`` (``Ct``, the constraint rows and the pin
    row), ``v`` (``V = W H^{-1}``, at the kept rows after :meth:`compress`)
    and ``q``, ``Q = H^{-1} [I_m; 0]`` (``m + 1`` rows with the pin, else
    ``m``), whose first ``m`` rows are the energy of the extensions of the
    unit targets.
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
            self.ct = sp.vstack([constraints, pin_row]).tocsr()
        else:
            self.ct = constraints

        self.factor = factor
        self._rows = None
        w = factor.solve(self.ct.T.toarray())
        h = self.ct @ w
        if self._rho:
            h[-1, -1] -= 1.0 / self._rho
        try:
            with np.errstate(invalid="raise"), warnings.catch_warnings():
                # singular pivots are caught explicitly below
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                h_lu = sla.lu_factor(h)
        except (ValueError, sla.LinAlgError, FloatingPointError) as exc:
            raise FactorizationError(
                f"dependent constraint rows for {label or '?'}"
            ) from exc
        piv = np.abs(np.diag(h_lu[0]))
        if piv.size and piv.min() <= 1e-13 * max(piv.max(), 1.0):
            raise FactorizationError(
                f"dependent constraint rows for {label or '?'}"
            )
        self.q = sla.lu_solve(h_lu, np.eye(self.ct.shape[0], self.m))
        # V = W H^{-1} as H^T V^T = W^T, written over W one block of rows at
        # a time through a row-major copy (LAPACK takes the rows of W as
        # columns).  One whole-height block raised the peak RSS of the
        # rhs-stream benchmark workload by 11 MiB, blocks of 1,024 rows by 1.5.
        for r in range(0, self.n, _FOLD_ROWS):
            block = np.ascontiguousarray(w[r:r + _FOLD_ROWS])
            w[r:r + _FOLD_ROWS] = sla.lu_solve(h_lu, block.T, trans=1, overwrite_b=True).T
        self.v = w

    def compress(self, rows: np.ndarray):
        """Keep ``V`` only at ``rows`` (``V[rows]`` is ``W[rows] H^{-1}``);
        later solves return the solution restricted to those rows."""
        self._rows = np.asarray(rows, dtype=np.int64)
        self.v = np.ascontiguousarray(self.v[self._rows])

    def solve(self, rhs: np.ndarray, targets: np.ndarray | None = None) -> np.ndarray:
        """Energy minimizer for the load ``rhs`` subject to ``C u = targets``
        (zero when omitted): one vector, or a block of columns in both."""
        y = self.factor.solve(rhs)
        d = -(self.ct @ y)
        if targets is not None:
            d[: self.m] += targets
        if self._rows is not None:
            y = y[self._rows]
        y += self.v @ d
        return y
