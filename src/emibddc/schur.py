"""Static condensation of substructure interiors.

Interior unknowns (mesh nodes touching exactly one substructure, including
nodes on the outer box boundary) couple only inside their own substructure,
so they can be eliminated exactly from the assembled step operator ``K``.
What remains is the assembled interface complement

    S_hat = K_gg - K_gI * K_II^{-1} * K_Ig

on the assembled interface unknowns (``DofMap.gamma_global``), where
``K_II`` is block diagonal with one block per substructure.  ``S_hat``
inherits symmetry and positive semidefiniteness from ``K`` and keeps the
constant vector as its kernel.  The reduction is exact: solving the
reduced system and back-substituting interiors reproduces the full
solution.  The broken interface of the substructures is not needed here;
it belongs to the preconditioner.

:class:`SchurSystem` keeps the three couplings as slices of ``K`` and one
interior factor per substructure.  The S-apply, the reduced load and the
interior recovery are sparse products around one kernel,
:meth:`SchurSystem._solve_interiors`, and take a vector or a block of
columns alike.

That kernel solves the interiors on one thread per core
(:mod:`emibddc._threads`; the pool is sized from the cores this process
may run on, with no setting).  The substructures are split into groups of
similar factor size once, at construction; each group writes only its own
slice of the stacked interior vector, so the result is bit-identical for
any core count.  Workers call only ``SPDSolver._solve``, never a public
method, so a tracer that wraps the public API sees every span on the
calling thread.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ._threads import partition, run_groups
from .errors import FactorizationError
from .femspace import DofMap
from .sparsela import SPDSolver

__all__ = ["SchurSystem", "condense"]


class SchurSystem:
    """Assembled interface operator with exact interior elimination.

    ``k_ig``, ``k_gi`` and ``k_gg`` are the slices of the step matrix over
    ``interior_ids`` and ``dofmap.gamma_global``, ``interiors`` the interior
    factor of each substructure (None when it has no interior), and
    ``interior_ids[interior_ptr[i]:interior_ptr[i + 1]]`` the global ids of
    substructure i's interior unknowns.
    """

    def __init__(self, dofmap: DofMap, matrix: sp.csr_matrix):
        self.dofmap = dofmap
        self.interior_ids = np.concatenate(
            [l2g[:n_i] for l2g, n_i in zip(dofmap.local_to_global, dofmap.n_interior)]
        )
        self.interior_ptr = np.concatenate([[0], np.cumsum(dofmap.n_interior)])
        ids, gamma = self.interior_ids, dofmap.gamma_global
        rows_i, rows_g = matrix[ids], matrix[gamma]
        self.k_ig = rows_i[:, gamma]
        self.k_gi = rows_g[:, ids]
        self.k_gg = rows_g[:, gamma]
        self.interiors = []
        for sub, n_i in enumerate(dofmap.n_interior):
            sl = slice(self.interior_ptr[sub], self.interior_ptr[sub + 1])
            factor = None
            if n_i:
                try:
                    factor = SPDSolver(rows_i[sl][:, ids[sl]], label=f"interior block {sub}")
                except FactorizationError as exc:
                    raise FactorizationError(
                        f"substructure {sub}: interior block is singular "
                        "(disconnected region?)"
                    ) from exc
            self.interiors.append(factor)
        self._groups = partition([0 if f is None else f.nnz for f in self.interiors])

    @property
    def n(self) -> int:
        return self.dofmap.n_gamma

    def _solve_interiors(self, y: np.ndarray) -> np.ndarray:
        """K_II^{-1} y for stacked interior values y (vector or block)."""
        x = np.empty_like(y)

        def run(group):
            for k in group:
                if self.interiors[k] is not None:
                    sl = slice(self.interior_ptr[k], self.interior_ptr[k + 1])
                    x[sl] = self.interiors[k]._solve(y[sl])

        run_groups(run, self._groups)
        return x

    def apply(self, v_gamma: np.ndarray) -> np.ndarray:
        """Assembled interface operator times an assembled vector or block."""
        return self.k_gg @ v_gamma - self.k_gi @ self._solve_interiors(self.k_ig @ v_gamma)

    def reduce_rhs(self, f: np.ndarray) -> np.ndarray:
        """Interface right-hand side f_g - K_gI K_II^{-1} f_I (assembled)."""
        corr = self.k_gi @ self._solve_interiors(f[self.interior_ids])
        return f[self.dofmap.gamma_global] - corr

    def recover_interior(self, u_gamma: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Full assembled solution from interface values and the original rhs."""
        dm = self.dofmap
        u = np.zeros(dm.n_global)
        u[dm.gamma_global] = u_gamma
        ids = self.interior_ids
        u[ids] = self._solve_interiors(f[ids] - self.k_ig @ u_gamma)
        return u


def condense(dofmap: DofMap, matrix: sp.csr_matrix) -> SchurSystem:
    """Factor all interiors of the step matrix and return the reduced
    interface system."""
    return SchurSystem(dofmap, matrix)
