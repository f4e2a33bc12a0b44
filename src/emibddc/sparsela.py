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
  or a Neumann block or the BDDC coarse operator made definite by the
  pin): elimination on an SPD matrix meets only positive pivots and its
  entries do not grow.

* :func:`multiplier_basis` -- the multiplier pieces of minimizing
  ``0.5 u^T A u - b^T u`` subject to sparse constraint rows ``C u = g``
  (averages, or single dofs with weight one) where ``A`` is symmetric
  positive semidefinite with at most the constant vector in its kernel.
  The KKT system is reduced to a dense multiplier problem so that only one
  sparse LU factorization is needed.  Singular ``A`` is handled by pinning
  a single entry with a rank-one diagonal shift and compensating through
  an extra multiplier, the *pin row*, which keeps the factorized matrix
  sparse *and* the reduced system exactly equivalent to the original KKT
  conditions:

      [A + rho*e_p*e_p^T   Ct^T] [u ]   [b ]          Ct = [C; e_p^T]
      [Ct                   D  ] [nu] = [gt],         D  = diag(0,..,0, 1/rho)

  whose second block forces nu_last = -rho * u_p, cancelling the shift in
  the first block, so (u, nu[:-1]) solves the original problem.

  The factor of ``A + rho*e_p*e_p^T`` does not depend on ``C``, so a caller
  with several constraint sets builds the :class:`SPDSolver` once and
  hands it to every call.  With the multiplier basis
  ``W = (A + rho*e_p*e_p^T)^{-1} Ct^T`` and the dense ``H = Ct W - D``,
  the solution for a load ``b`` and targets ``g`` is

      u = y + W H^{-1} ([g; 0] - Ct y),   y = (A + rho*e_p*e_p^T)^{-1} b.

  ``W`` is solved once, at set-up, a fixed number of columns at a time,
  and kept at the rows the caller reads; :func:`multiplier_inverse` forms
  ``H^{-1}`` from the LU that refuses dependent rows.  A solve (the BDDC
  M-apply stacks them) is then one sparse solve, one sparse product with
  ``Ct``, one with ``H^{-1}`` and one dense product with ``W``, and the
  targets need no sparse solve.  Leading constraint rows of an earlier
  call's, with the pin row, need no sparse solve either: their ``H`` is a
  principal submatrix of its ``H`` and their ``W`` a set of its columns
  (:mod:`~emibddc.bddc` reads ``ve``'s basis off ``vef``'s so).
  ``Q = H^{-1} [I_m; 0]``, the leading columns of ``H^{-1}``, is the
  energy of the extensions:
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

__all__ = ["SPDSolver", "multiplier_basis", "multiplier_inverse"]

SOLVE_COLS = 32  # columns of W per block solve in multiplier_basis


class SPDSolver:
    """Reusable factorization of a sparse SPD matrix.

    With ``pin=True`` the matrix may be only semidefinite with the constant
    vector in its kernel; the factor is then that of
    ``matrix + rho * e_0 e_0^T`` with ``rho`` the mean diagonal entry, and
    ``rho`` is kept for :func:`multiplier_basis`.  ``rho`` is 0 without
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


def multiplier_basis(factor: SPDSolver, constraints, rows) -> tuple:
    """The pieces ``(ct, h, w)`` of the constrained solves against ``factor``.

    ``factor`` is the :class:`SPDSolver` of the matrix, built with
    ``pin=True`` when the matrix may hold the constant vector in its kernel
    (``ct`` then ends in the pin row) and ``pin=False`` when it is positive
    definite; several calls may share one factor.  ``constraints`` are the
    sparse constraint rows (``m`` x ``n``).  ``ct`` is ``Ct`` in CSR, ``h``
    the dense multiplier matrix ``H = Ct W - D`` and ``w`` the multiplier
    basis ``W`` at ``rows`` alone, C-contiguous.  ``W`` is solved
    ``SOLVE_COLS`` columns at a time, and only ``H`` and ``W[rows]`` are
    kept of each block.
    """
    label = factor.label or "?"
    constraints = constraints.tocsr()
    if constraints.shape[1] != factor.n:
        raise FactorizationError(f"constraint rows for {label} have wrong width")
    if factor.rho:
        pin_row = sp.coo_matrix(([1.0], ([0], [0])), shape=(1, factor.n)).tocsr()
        ct = sp.vstack([constraints, pin_row]).tocsr()
    else:
        ct = constraints
    mt = ct.shape[0]

    rows = np.asarray(rows)
    h = np.empty((mt, mt))
    w = np.empty((len(rows), mt))
    cols_t = ct.T.tocsc()
    for c in range(0, mt, SOLVE_COLS):
        block = factor.solve(cols_t[:, c:c + SOLVE_COLS].toarray())
        h[:, c:c + SOLVE_COLS] = ct @ block
        w[:, c:c + SOLVE_COLS] = block[rows]
    if factor.rho:
        h[-1, -1] -= 1.0 / factor.rho
    return ct, h, w


def multiplier_inverse(h: np.ndarray, label: str = "") -> np.ndarray:
    """``H^{-1}``, explicit, from an LU of ``h`` that refuses dependent
    constraint rows (a singular or nearly singular pivot)."""
    try:
        with np.errstate(invalid="raise"), warnings.catch_warnings():
            # singular pivots are caught explicitly below
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            h_lu = sla.lu_factor(h)
    except (ValueError, sla.LinAlgError, FloatingPointError) as exc:
        raise FactorizationError(f"dependent constraint rows for {label or '?'}") from exc
    piv = np.abs(np.diag(h_lu[0]))
    if piv.size and piv.min() <= 1e-13 * max(piv.max(), 1.0):
        raise FactorizationError(f"dependent constraint rows for {label or '?'}")
    return sla.lu_solve(h_lu, np.eye(len(h)))
