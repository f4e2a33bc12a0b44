"""Static condensation of substructure interiors.

Interior unknowns (mesh nodes touching exactly one substructure, including
nodes on the outer box boundary) couple only inside their own substructure,
so they can be eliminated exactly.  What remains is the assembled interface
complement

    S_hat = R^T diag(S_i) R,
    S_i   = K_gg - K_gI * K_II^{-1} * K_Ig      (blocks of one broken operator)

acting on the assembled interface unknowns, where ``R`` gathers them into
the stacked broken interface (``DofMap.bro_gamma``).  ``S_hat`` inherits
symmetry and positive semidefiniteness from the step operator and keeps
the constant vector as its kernel.  The reduction is exact: solving the
reduced system and back-substituting interiors reproduces the full
solution.

:class:`SchurSystem` stores ``diag(S_i)`` as one stacked operator: the
couplings ``K_Ig``, ``K_gI`` and ``K_gg`` of all substructures as three
block-diagonal matrices over the stacked interiors and the stacked broken
interface, and one interior factor per substructure.  Each row of a
block-diagonal matrix holds its block row's entries in the same order, so
a stacked product sums the same terms in the same order as the
per-substructure products and gives the same bits.  The S-apply, the
reduced load and the interior recovery are stacked products around one
kernel, :meth:`SchurSystem._solve_interiors`.

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


def _block_diag(blocks) -> sp.csr_matrix:
    """Block-diagonal CSR matrix whose rows keep the CSR ``blocks``' entries
    in their stored order (the blocks' index dtype is kept, so no wider
    temporary is made)."""
    offsets = np.cumsum([(0, 0, 0)] + [(*b.shape, b.nnz) for b in blocks], axis=0)
    indptr = np.concatenate([[0]] + [b.indptr[1:] + p for b, p in zip(blocks, offsets[:, 2])])
    indices = np.concatenate(
        [b.indices + b.indices.dtype.type(c) for b, c in zip(blocks, offsets[:, 1])]
    )
    data = np.concatenate([b.data for b in blocks])
    return sp.csr_matrix((data, indices, indptr), shape=tuple(offsets[-1, :2]))


class SchurSystem:
    """Assembled interface operator with exact interior elimination.

    ``k_ig``, ``k_gi`` and ``k_gg`` are the stacked couplings, ``interiors``
    the interior factor of each substructure (None when it has no
    interior), and ``interior_ids[interior_ptr[i]:interior_ptr[i + 1]]`` the
    global ids of substructure i's interior unknowns.
    """

    def __init__(self, dofmap: DofMap, local_ops):
        self.dofmap = dofmap
        # stacked before the factorizations, so that the freed slices are
        # reused by them (stacked after, they raised peak RSS by 3-6 MiB)
        split = [(lo.matrix, lo.n_interior) for lo in local_ops]
        self.k_ig = _block_diag([k[:n_i, n_i:] for k, n_i in split])
        self.k_gi = _block_diag([k[n_i:, :n_i] for k, n_i in split])
        self.k_gg = _block_diag([k[n_i:, n_i:] for k, n_i in split])
        self.interiors = []
        for lo in local_ops:
            n_i = lo.n_interior
            factor = None
            if n_i:
                try:
                    factor = SPDSolver(lo.matrix[:n_i, :n_i], label=f"interior block {lo.sub}")
                except FactorizationError as exc:
                    raise FactorizationError(
                        f"substructure {lo.sub}: interior block is singular "
                        "(disconnected region?)"
                    ) from exc
            self.interiors.append(factor)
        self.interior_ids = np.concatenate(
            [l2g[:n_i] for l2g, n_i in zip(dofmap.local_to_global, dofmap.n_interior)]
        )
        self.interior_ptr = np.concatenate([[0], np.cumsum(dofmap.n_interior)])
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
        """Assembled interface operator times an assembled vector: one gather
        into the stacked broken interface, one scatter back from it."""
        dm = self.dofmap
        v_bro = v_gamma[dm.bro_gamma]
        s_bro = self.k_gg @ v_bro - self.k_gi @ self._solve_interiors(self.k_ig @ v_bro)
        return np.bincount(dm.bro_gamma, weights=s_bro, minlength=dm.n_gamma)

    def reduce_rhs(self, f: np.ndarray) -> np.ndarray:
        """Interface right-hand side f_g - K_gI K_II^{-1} f_I (assembled).

        Trace-copy rows of the interior coupling are structurally zero (the
        copies enter only through interface mass), so scattering the whole
        local correction is the exact assembled reduction.
        """
        dm = self.dofmap
        corr = self.k_gi @ self._solve_interiors(f[self.interior_ids])
        return f[dm.gamma_global] - np.bincount(dm.bro_gamma, weights=corr, minlength=dm.n_gamma)

    def recover_interior(self, u_gamma: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Full assembled solution from interface values and the original rhs."""
        dm = self.dofmap
        u = np.zeros(dm.n_global)
        u[dm.gamma_global] = u_gamma
        ids = self.interior_ids
        u[ids] = self._solve_interiors(f[ids] - self.k_ig @ u_gamma[dm.bro_gamma])
        return u


def condense(dofmap: DofMap, local_ops) -> SchurSystem:
    """Factor all interiors and return the reduced interface system."""
    return SchurSystem(dofmap, local_ops)
