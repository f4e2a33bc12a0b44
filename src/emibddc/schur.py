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
sparse factor of all of ``K_II``.  The blocks do not couple, so that factor
is as large as one factor per substructure together: on each benchmark
workload the stored entries are equal (55,232 on ``rhs-stream``).  The
S-apply, the reduced load and the interior recovery are sparse products
around one solve with it, and take a vector or a block of columns alike.

One factor of all interiors costs far less per call than one factor per
substructure: on ``rhs-stream`` (2 cores, median of 200 calls) an S-apply
took 0.46-0.52 ms with it, against 1.3-1.8 ms with per-substructure
factors solved on a thread pool.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import FactorizationError
from .femspace import DofMap
from .sparsela import SPDSolver

__all__ = ["SchurSystem", "condense"]


class SchurSystem:
    """Assembled interface operator with exact interior elimination.

    ``k_ig``, ``k_gi`` and ``k_gg`` are the slices of the step matrix over
    ``interior_ids`` (every substructure's interior unknowns, substructure
    by substructure) and ``dofmap.gamma_global``, and ``interior`` the
    factor of ``K_II``, the slice over ``interior_ids`` alone.
    """

    def __init__(self, dofmap: DofMap, matrix: sp.csr_matrix):
        self.dofmap = dofmap
        self.interior_ids = np.concatenate(
            [l2g[:n_i] for l2g, n_i in zip(dofmap.local_to_global, dofmap.n_interior)]
        )
        ids, gamma = self.interior_ids, dofmap.gamma_global
        rows_i, rows_g = matrix[ids], matrix[gamma]
        self.k_ig = rows_i[:, gamma]
        self.k_gi = rows_g[:, ids]
        self.k_gg = rows_g[:, gamma]
        k_ii = rows_i[:, ids]
        try:
            self.interior = SPDSolver(k_ii, label="interior blocks")
        except FactorizationError as exc:
            # name the first singular block; its own factor fails alike
            start = 0
            for sub, n_i in enumerate(dofmap.n_interior):
                block = k_ii[start:start + n_i, start:start + n_i]
                start += n_i
                try:
                    SPDSolver(block)
                except FactorizationError:
                    raise FactorizationError(
                        f"substructure {sub}: interior block is singular "
                        "(disconnected region?)"
                    ) from exc
            raise

    @property
    def n(self) -> int:
        return self.dofmap.n_gamma

    def apply(self, v_gamma: np.ndarray) -> np.ndarray:
        """Assembled interface operator times an assembled vector or block."""
        return self.k_gg @ v_gamma - self.k_gi @ self.interior.solve(self.k_ig @ v_gamma)

    def reduce_rhs(self, f: np.ndarray) -> np.ndarray:
        """Interface right-hand side f_g - K_gI K_II^{-1} f_I (assembled)."""
        corr = self.k_gi @ self.interior.solve(f[self.interior_ids])
        return f[self.dofmap.gamma_global] - corr

    def recover_interior(self, u_gamma: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Full assembled solution from interface values and the original rhs."""
        dm = self.dofmap
        u = np.zeros(dm.n_global)
        u[dm.gamma_global] = u_gamma
        ids = self.interior_ids
        u[ids] = self.interior.solve(f[ids] - self.k_ig @ u_gamma)
        return u


def condense(dofmap: DofMap, matrix: sp.csr_matrix) -> SchurSystem:
    """Factor the interiors of the step matrix and return the reduced
    interface system."""
    return SchurSystem(dofmap, matrix)
