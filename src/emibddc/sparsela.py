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
  multiplier basis ``W = (A + rho*e_p*e_p^T)^{-1} Ct^T``, the dense
  ``H = Ct W - D`` and its first ``m`` columns solved once,
  ``Q = H^{-1} [I_m; 0]``, the solution for a load ``b`` and targets ``g`` is

      u = y + W (Q g - lam),   y = (A + rho*e_p*e_p^T)^{-1} b,   lam = H^{-1} Ct y,

  in two phases: the sparse solve and the multipliers ``lam``, then one
  dense product with ``W``; the targets need no sparse solve.  ``Q`` is
  also the energy of the extensions: ``psi = W Q`` minimizes
  ``psi^T A psi`` subject to ``C psi = I_m``, and ``psi^T A psi = Q[:m]``,
  since ``psi^T (A + rho*e_p*e_p^T) psi = Q[:m] + Q^T D Q`` and the pin
  adds ``rho*(e_p^T psi)^2 = Q^T D Q``.  Likewise ``psi^T b = lam[:m]``.
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
        apply.  (Grouping the substructures for the threaded applies by
        ``fill`` instead of :attr:`nnz` raised the peak RSS of the
        ``convex-h12`` benchmark workload from 277 to 457 MiB.)
        :attr:`nnz` is the O(1) count to use there.
        """
        return self._lu.L.nnz + self._lu.U.nnz

    @property
    def nnz(self) -> int:
        """SuperLU's own count of stored factor entries, read in O(1).

        It counts supernodal storage, padding included, so it reads above
        :attr:`fill`: by 3-15% on the bath Neumann factors of the benchmark
        workloads (1,165,552 against 1,127,085 on ``rhs-stream``,
        11,517,222 against 10,104,944 on ``convex-h12``) and by about 30%
        on the small cell factors of ``cellgrid-h12``.  It still ranks
        factors by solve cost, which is what it is used for.
        """
        return self._lu.nnz

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one vector (n,) or a block of right-hand sides (n, k)."""
        return self._solve(rhs)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
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

    :meth:`solve` returns the solution for a load and constraint targets.
    Its two phases are private kernels that worker threads may call:
    :meth:`_multipliers` (the sparse solve) and :meth:`_correct` (one dense
    product with ``W``).  ``q`` is ``Q = H^{-1} [I_m; 0]`` (``m + 1`` rows
    with the pin, else ``m``); its first ``m`` rows are the energy of the
    extensions of the unit targets.
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
        self._w = w
        self.q = sla.lu_solve(self._h_lu, np.eye(self._mt, self.m))

    def compress(self, rows: np.ndarray):
        """Keep the multiplier basis only at ``rows``; later solves return
        the solution restricted to those rows."""
        self._rows = np.asarray(rows, dtype=np.int64)
        self._w = np.ascontiguousarray(self._w[self._rows])

    def solve(self, rhs: np.ndarray, targets: np.ndarray | None = None) -> np.ndarray:
        """Energy minimizer for the load ``rhs`` subject to ``C u = targets``
        (zero when omitted): one vector, or a block of columns in both."""
        y, lam = self._multipliers(rhs)
        g = np.zeros((self.m,) + y.shape[1:]) if targets is None else targets
        return self._correct(y, lam, np.asarray(g, dtype=np.float64))

    def _multipliers(self, rhs: np.ndarray):
        """Phase one: ``y`` at the kept rows and ``lam = H^{-1} Ct y``."""
        y = self._spd._solve(rhs)
        lam = sla.lu_solve(self._h_lu, self._ct @ y)
        return (y if self._rows is None else y[self._rows]), lam

    def _correct(self, y: np.ndarray, lam: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Phase two, in place: ``y += W (Q g - lam)``; returns ``y``."""
        y += self._w @ (self.q @ targets - lam)
        return y
