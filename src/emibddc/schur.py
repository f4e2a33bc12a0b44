"""Static condensation of substructure interiors.

Interior unknowns (mesh nodes touching exactly one substructure, including
nodes on the outer box boundary) couple only inside their own substructure,
so they can be eliminated exactly.  What remains is the assembled interface
complement

    S_hat = sum_i R_i^T S_i R_i,
    S_i   = K_gg - K_gI * K_II^{-1} * K_Ig      (blocks of one broken operator)

acting on the assembled interface unknowns.  ``S_hat`` inherits symmetry and
positive semidefiniteness from the step operator and keeps the constant
vector as its kernel.  The reduction is exact: solving the reduced system
and back-substituting interiors reproduces the full solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import FactorizationError
from .femspace import DofMap
from .sparsela import SPDSolver

__all__ = ["SubstructureBlocks", "SchurSystem", "condense"]


@dataclass
class SubstructureBlocks:
    """Interior/interface partition of one broken local operator."""

    sub: int
    k_ig: sp.csr_matrix
    k_gi: sp.csr_matrix
    k_gg: sp.csr_matrix
    interior: SPDSolver | None  # None when the substructure has no interior

    def schur_apply(self, v: np.ndarray) -> np.ndarray:
        """S_i v for local interface values v (vector or block)."""
        out = self.k_gg @ v
        if self.interior is not None:
            out = out - self.k_gi @ self.interior.solve(self.k_ig @ v)
        return out

    def harmonic_extension(self, v: np.ndarray) -> np.ndarray:
        """Discrete-harmonic local vector with trace v: [u_I; v]."""
        v = np.asarray(v, dtype=np.float64)
        if self.interior is None:
            return v.copy()
        u_i = -self.interior.solve(self.k_ig @ v)
        return np.concatenate([u_i, v], axis=0)

    def energy(self, v: np.ndarray) -> float:
        """Interface energy v^T S_i v (nonnegative)."""
        return float(v @ self.schur_apply(v))


class SchurSystem:
    """Assembled interface operator with exact interior elimination."""

    def __init__(self, dofmap: DofMap, local_ops):
        self.dofmap = dofmap
        self.blocks = []
        for lo in local_ops:
            n_i = lo.n_interior
            k = lo.matrix
            k_ii = k[:n_i, :n_i].tocsr()
            k_ig = k[:n_i, n_i:].tocsr()
            k_gi = k[n_i:, :n_i].tocsr()
            k_gg = k[n_i:, n_i:].tocsr()
            if n_i:
                try:
                    interior = SPDSolver(k_ii, label=f"interior block {lo.sub}")
                except FactorizationError as exc:
                    raise FactorizationError(
                        f"substructure {lo.sub}: interior block is singular "
                        "(disconnected region?)"
                    ) from exc
            else:
                interior = None
            self.blocks.append(
                SubstructureBlocks(
                    sub=lo.sub, k_ig=k_ig, k_gi=k_gi, k_gg=k_gg, interior=interior,
                )
            )

    @property
    def n(self) -> int:
        return self.dofmap.n_gamma

    def apply(self, v_gamma: np.ndarray) -> np.ndarray:
        """Assembled interface operator times an assembled vector: one gather
        into the stacked broken interface, one scatter back from it."""
        dm = self.dofmap
        v_bro = v_gamma[dm.bro_gamma]
        s_bro = np.concatenate(
            [blk.schur_apply(v_bro[dm.gamma_slice(blk.sub)]) for blk in self.blocks]
        )
        return np.bincount(dm.bro_gamma, weights=s_bro, minlength=dm.n_gamma)

    def reduce_rhs(self, f: np.ndarray) -> np.ndarray:
        """Interface right-hand side f_g - K_gI K_II^{-1} f_I (assembled).

        Trace-copy rows of the interior coupling are structurally zero (the
        copies enter only through interface mass), so scattering the whole
        local correction is the exact assembled reduction.
        """
        dm = self.dofmap
        out = f[dm.gamma_global].copy()
        for blk in self.blocks:
            if blk.interior is None:
                continue
            i = blk.sub
            f_i = f[dm.local_to_global[i][: dm.n_interior[i]]]
            corr = blk.k_gi @ blk.interior.solve(f_i)
            out -= np.bincount(
                dm.bro_gamma[dm.gamma_slice(i)], weights=corr, minlength=dm.n_gamma
            )
        return out

    def recover_interior(self, u_gamma: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Full assembled solution from interface values and the original rhs."""
        dm = self.dofmap
        u = np.zeros(dm.n_global)
        u[dm.gamma_global] = u_gamma
        u_bro = u_gamma[dm.bro_gamma]
        for blk in self.blocks:
            if blk.interior is None:
                continue
            i = blk.sub
            ids = dm.local_to_global[i][: dm.n_interior[i]]
            rhs = f[ids] - blk.k_ig @ u_bro[dm.gamma_slice(i)]
            u[ids] = blk.interior.solve(rhs)
        return u


def condense(dofmap: DofMap, local_ops) -> SchurSystem:
    """Factor all interiors and return the reduced interface system."""
    return SchurSystem(dofmap, local_ops)
