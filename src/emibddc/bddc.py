"""Balancing domain decomposition by constraints for the interface system.

The preconditioner works on the assembled interface unknowns of the reduced
(interior-eliminated) step operator.  One application consists of

1. scaled restriction of the residual into the stacked broken interface
   (every copy group shares the residual by conductivity weights),
2. independent constrained Neumann solves per substructure, where the primal
   averages are forced to zero (the *dual* correction),
3. one coarse solve in the primal class space, built from energy-minimal
   local basis functions (the *coarse* correction),
4. scaled prolongation back to the assembled interface.

Every primal class -- vertex, edge or face -- is a set of constraint rows,
one per substructure that holds a copy of the averaged values; a vertex row
has one local dof with weight one.  All rows are enforced the same way,
through the multipliers of :class:`~emibddc.sparsela.ConstrainedSolver`, so
each substructure's Neumann matrix is its full local operator, pinned at
one entry for its constant kernel.  Its sparse LU factorization is built
once per problem as ``LocalOperator.neumann`` and shared by ``vef`` and
``ve``; each preconditioner adds only its own multiplier basis ``W`` and
dense ``H``.

The coarse basis ``psi`` of a substructure minimizes local energy subject
to unit value on one class and zero on the others; with ``g`` its
constraint targets it is ``W H^{-1} [g; 0]`` and costs no sparse solve.
The coarse problem is dense and is inverted on the orthogonal complement of
its one-dimensional kernel (the coarse image of the constant vector).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConstraintError, FactorizationError
from .femspace import ConstraintSet, DofMap
from .sparsela import ConstrainedSolver

__all__ = ["build_scaling", "BddcPreconditioner"]


def build_scaling(dofmap: DofMap, sigma: np.ndarray) -> np.ndarray:
    """Conductivity-weighted partition of unity on the broken interface.

    Every broken interface dof is weighted by the conductivity of its
    *holder's* region (``sigma`` is per region), normalized over its copy
    group, so multiplying by the scaling twice (restriction and
    prolongation) averages copy groups exactly once.
    """
    w = np.asarray(sigma, dtype=np.float64)[dofmap.sub_region[dofmap.bro_holder]]
    if np.any(w <= 0):
        raise ConstraintError("conductivity scaling requires positive weights")
    total = np.bincount(dofmap.bro_gamma, weights=w, minlength=dofmap.n_gamma)
    return w / total[dofmap.bro_gamma]


class _SubstructureSolver:
    """Dual solver plus coarse basis of one substructure."""

    def __init__(self, lo, rows, label):
        self.sub = lo.sub
        self.n_interior = lo.n_interior
        n_loc = lo.matrix.shape[0]
        self.class_ids = np.array([cid for cid, _ in rows], dtype=np.int64)
        c = sp.lil_matrix((len(rows), n_loc))
        for r, (_, row) in enumerate(rows):
            c[r, row.local_dofs] = row.weights
        self.solver = ConstrainedSolver(lo.neumann, c.tocsr(), label=label)

        # energy-minimal coarse basis: unit value on one class, zero on the rest
        psi = self.solver.extend(np.eye(len(rows)))
        self.coarse_matrix = psi.T @ (lo.matrix @ psi)
        self.psi_gamma = np.ascontiguousarray(psi[self.n_interior:])

        # applies only ever need interface rows of the dual solution
        self.solver.compress(np.arange(self.n_interior, n_loc))

    def dual_apply(self, r_local: np.ndarray) -> np.ndarray:
        """Constrained Neumann solve for an interface residual (zero primal)."""
        b = np.zeros(self.solver.n)
        b[self.n_interior:] = r_local
        return self.solver.solve(b)


class BddcPreconditioner:
    """Two-level preconditioner for the assembled interface operator."""

    def __init__(
        self,
        dofmap: DofMap,
        constraints: ConstraintSet,
        local_ops,
        sigma: np.ndarray,
    ):
        if dofmap.n_substructures < 2 or dofmap.n_gamma == 0:
            raise ConstraintError(
                "preconditioner needs at least two coupled substructures"
            )
        self.dofmap = dofmap
        self.constraints = constraints
        self.delta = build_scaling(dofmap, sigma)
        self.coarse_dim = constraints.coarse_dim

        self.subs = []
        for lo in local_ops:
            rows = constraints.rows_of(lo.sub)
            if not rows:
                raise ConstraintError(
                    f"substructure {lo.sub} carries no primal constraints under "
                    f"variant '{constraints.variant.value}'; its local Neumann "
                    "problem is singular and the preconditioner is undefined"
                )
            self.subs.append(
                _SubstructureSolver(
                    lo, rows, label=f"substructure {lo.sub} dual block"
                )
            )

        s_pp = np.zeros((self.coarse_dim, self.coarse_dim))
        for ss in self.subs:
            s_pp[np.ix_(ss.class_ids, ss.class_ids)] += ss.coarse_matrix
        self._factor_coarse(s_pp)

    def _factor_coarse(self, s_pp: np.ndarray):
        n = self.coarse_dim
        q = np.ones(n)
        alpha = float(np.trace(s_pp)) / n
        if not alpha > 0:
            raise FactorizationError("coarse operator has nonpositive trace")
        try:
            self._coarse_cho = sla.cho_factor(s_pp + (alpha / n) * np.outer(q, q))
        except sla.LinAlgError as exc:
            raise FactorizationError(
                "coarse operator is singular beyond the constant kernel"
            ) from exc
        self._s_pp = s_pp

    def _coarse_solve(self, rho: np.ndarray) -> np.ndarray:
        """Pseudo-inverse of the coarse operator on the kernel complement."""
        rho = rho - rho.mean()
        z = sla.cho_solve(self._coarse_cho, rho)
        return z - z.mean()

    def apply(self, r_gamma: np.ndarray) -> np.ndarray:
        """One preconditioned residual z = M^{-1} r on the assembled interface."""
        dm = self.dofmap
        r_bro = self.delta * r_gamma[dm.bro_gamma]
        z_bro = np.zeros(dm.n_broken)
        rho = np.zeros(self.coarse_dim)
        for ss in self.subs:
            sl = dm.gamma_slice(ss.sub)
            r_i = r_bro[sl]
            rho[ss.class_ids] += ss.psi_gamma.T @ r_i
            z_bro[sl] = ss.dual_apply(r_i)
        z_pi = self._coarse_solve(rho)
        for ss in self.subs:
            z_bro[dm.gamma_slice(ss.sub)] += ss.psi_gamma @ z_pi[ss.class_ids]
        return np.bincount(
            dm.bro_gamma, weights=self.delta * z_bro, minlength=dm.n_gamma
        )

    def apply_ED(self, w_bro: np.ndarray) -> np.ndarray:
        """Scaled copy-group averaging on the stacked broken interface."""
        avg = np.bincount(
            self.dofmap.bro_gamma, weights=self.delta * w_bro,
            minlength=self.dofmap.n_gamma,
        )
        return avg[self.dofmap.bro_gamma]

    def apply_PD(self, w_bro: np.ndarray) -> np.ndarray:
        """Complementary jump operator: what averaging throws away."""
        return w_bro - self.apply_ED(w_bro)
