"""Balancing domain decomposition by constraints for the interface system.

The preconditioner works on the assembled interface unknowns of the reduced
(interior-eliminated) step operator.  One application consists of

1. scaled restriction of the residual into the stacked broken interface
   (every copy group shares the residual by conductivity weights),
2. independent constrained Neumann solves per substructure, where the primal
   averages are forced to zero (the *dual* correction); the multipliers of
   each solve carry its part of the coarse residual,
3. one coarse solve in the primal class space with the dense coarse
   operator, whose solution each substructure extends by energy-minimal
   local basis functions (the *coarse* correction),
4. scaled prolongation back to the assembled interface.

Every primal class -- vertex, edge or face -- is a set of constraint rows,
one per substructure that holds a copy of the averaged values; a vertex row
has one local dof with weight one.  All rows are enforced the same way,
through the multipliers of :class:`~emibddc.sparsela.ConstrainedSolver`, so
each substructure's Neumann matrix is its full local operator, pinned at
one entry for its constant kernel.  Its sparse LU factorization is built
once per problem as ``LocalOperator.neumann`` and shared by ``vef`` and
``ve``; each preconditioner adds only its own folded multiplier basis
``V = W H^{-1}`` at the interface rows (``W`` the multiplier basis, ``H``
the dense multiplier matrix) and the small ``Q = H^{-1} [I_m; 0]``.

The coarse basis ``psi = W Q`` of a substructure minimizes local energy
subject to unit value on one class and zero on the others, but it is never
formed: its energy ``psi^T K psi`` is ``H^{-1}[:m, :m] = Q[:m]``, the
substructure's block of the coarse operator, and for a load ``b`` its
coarse residual ``psi^T b`` is ``Q^T Ct y``, the leading dual multipliers
``(H^{-1} Ct y)[:m]`` of the load response ``y``.  An application is
therefore two phases per substructure around the coarse solve:

* phase one, ``y = K_p^{-1} [0; r_i]``, ``c_i = Ct y`` and ``z_i = y_Gamma``;
  the coarse residual is the sum of the ``Q^T c_i`` (an ``m x (m+1)``
  product each),
* phase two, ``z_i += V_Gamma ([z_Pi[classes]; 0] - c_i)``, the dual and
  the coarse correction in one dense product.

Neither phase makes a LAPACK call; the one coarse solve between them does.
The coarse problem is dense and is inverted on the orthogonal complement of
its one-dimensional kernel (the coarse image of the constant vector).

Both phases run on one thread per core (:mod:`emibddc._threads`; the pool
is sized from the cores this process may run on, with no setting), in
groups of similar Neumann factor size fixed at construction.  A worker
writes only its substructures' slices of the correction and their entries
of a per-substructure list of multipliers; the coarse residual is summed
from that list in the calling thread, in substructure order, so the result
is bit-identical for any core count.  Workers call only private kernels
(``ConstrainedSolver._multipliers`` and ``_correct``, ``SPDSolver._solve``),
never a public method, so a tracer that wraps the public API sees every
span on the calling thread.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ._threads import partition, run_groups
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
    """Constrained Neumann solver of one substructure and its coarse block."""

    def __init__(self, lo, rows, gamma, label):
        self.sub = lo.sub
        self.gamma = gamma  # slice of the stacked broken interface
        self.n_interior = lo.n_interior
        n_loc = lo.matrix.shape[0]
        self.class_ids = np.array([cid for cid, _ in rows], dtype=np.int64)
        # one CSR row per constraint row, whose local dofs are distinct and sorted
        ptr = np.cumsum([0] + [len(row.weights) for _, row in rows])
        weights = np.concatenate([row.weights for _, row in rows])
        dofs = np.concatenate([row.local_dofs for _, row in rows])
        c = sp.csr_matrix((weights, dofs, ptr), shape=(len(rows), n_loc))
        self.solver = ConstrainedSolver(lo.neumann, c, label=label)
        self.cost = lo.neumann.nnz
        # psi^T K psi of the energy-minimal coarse basis psi = W Q
        self.coarse_matrix = self.solver.q[: len(rows)]
        # applies only ever need interface rows of the solution
        self.solver.compress(np.arange(self.n_interior, n_loc))


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
                    lo, rows, dofmap.gamma_slice(lo.sub),
                    label=f"substructure {lo.sub} dual block",
                )
            )

        s_pp = np.zeros((self.coarse_dim, self.coarse_dim))
        for ss in self.subs:
            s_pp[np.ix_(ss.class_ids, ss.class_ids)] += ss.coarse_matrix
        self._factor_coarse(s_pp)
        self._groups = partition([ss.cost for ss in self.subs])

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
        z_bro = np.empty(dm.n_broken)
        lam = [None] * len(self.subs)

        def dual(group):
            for k in group:
                ss = self.subs[k]
                b = np.zeros(ss.solver.n)
                b[ss.n_interior:] = r_bro[ss.gamma]
                z_bro[ss.gamma], lam[k] = ss.solver._multipliers(b)

        run_groups(dual, self._groups)
        # summed here, in substructure order, so no sum depends on the groups
        rho = np.zeros(self.coarse_dim)
        for ss, part in zip(self.subs, lam):
            rho[ss.class_ids] += part[: len(ss.class_ids)]
        z_pi = self._coarse_solve(rho)

        def coarse(group):
            for k in group:
                ss = self.subs[k]
                ss.solver._correct(z_bro[ss.gamma], lam[k], z_pi[ss.class_ids])

        run_groups(coarse, self._groups)
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
