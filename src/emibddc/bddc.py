"""Balancing domain decomposition by constraints for the interface system.

The preconditioner works on the assembled interface unknowns of the reduced
(interior-eliminated) step operator.  One application restricts the
residual to the broken interface by conductivity weights, adds the
constrained Neumann solves of every substructure with its primal averages
held at zero (the *dual* correction) to the energy-minimal extension of one
coarse solve in the primal class space (the *coarse* correction), and
prolongs the sum back by the same weights.

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
``(H^{-1} Ct y)[:m]`` of the load response ``y``.

An application works on one *stacked local vector* (every substructure's
local vector in turn) through operators stacked over all substructures at
set-up: the scaled scatter of the assembled interface into its interface
positions (the scaled assembly is its transpose), the block-diagonal
``Ct`` of every substructure's constraint rows, pin rows included, the
coarse restriction ``R`` holding each substructure's ``Q^T`` at its class
ids, and the dense coarse pseudo-inverse
``P = Pi (S_pp + (alpha/n) 11^T)^{-1} Pi`` with ``Pi = I - 11^T/n``, which
inverts the coarse operator on the complement of its kernel (the coarse
image of the constant vector).  With ``y`` the Neumann solves of the
scattered residual,

    c = Ct y,   rho = R c,   d = (P rho)[targets] - c,   y_Gamma += V d,

where ``targets`` maps each constraint row to its class id (a pin row's
target is zero); the scaled assembly of ``y`` is the result.  Every step
is one call over all substructures but the sparse solves and the ``V``
products, no step makes a LAPACK call, and the residual may be one vector
or a block of columns.

The sparse solves and the ``V`` products run on one thread per core
(:mod:`emibddc._threads`), in groups of similar Neumann factor size fixed
at construction.  A worker writes only its substructures' slices of the
stacked vector and calls only private kernels (``_solve_group``,
``_extend_group``, ``SPDSolver._substitute``), so the result is
bit-identical for any core count and a tracer that wraps the public API
sees every span on the calling thread.  The solves are checked for
non-finite values once, after all of them, naming the first substructure
at fault.
"""

from __future__ import annotations

from functools import partial

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


def _constraint_matrix(rows, n_loc: int) -> sp.csr_matrix:
    """One CSR row per constraint row, whose local dofs are distinct and sorted."""
    ptr = np.cumsum([0] + [len(row.weights) for _, row in rows])
    weights = np.concatenate([row.weights for _, row in rows])
    dofs = np.concatenate([row.local_dofs for _, row in rows])
    return sp.csr_matrix((weights, dofs, ptr), shape=(len(rows), n_loc))


class BddcPreconditioner:
    """Two-level preconditioner for the assembled interface operator.

    ``solvers[i]`` is substructure ``i``'s constrained Neumann solver, its
    ``V`` kept at the interface rows; the apply reads its factor and ``V``
    and otherwise works on the stacked operators built here.
    """

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
        self.coarse_dim = n = constraints.coarse_dim

        self.solvers, class_ids = [], []
        for lo in local_ops:
            rows = constraints.rows_of(lo.sub)
            if not rows:
                raise ConstraintError(
                    f"substructure {lo.sub} carries no primal constraints under "
                    f"variant '{constraints.variant.value}'; its local Neumann "
                    "problem is singular and the preconditioner is undefined"
                )
            n_loc = lo.matrix.shape[0]
            solver = ConstrainedSolver(
                lo.neumann, _constraint_matrix(rows, n_loc),
                label=f"substructure {lo.sub} dual block",
            )
            # applies only ever need interface rows of the solution
            solver.compress(np.arange(lo.n_interior, n_loc))
            self.solvers.append(solver)
            class_ids.append(np.array([cid for cid, _ in rows], dtype=np.int64))

        # psi^T K psi of the energy-minimal coarse basis psi = W Q
        self._s_pp = s_pp = np.zeros((n, n))
        for solver, ids in zip(self.solvers, class_ids):
            s_pp[np.ix_(ids, ids)] += solver.q[: len(ids)]
        self._coarse_inv = self._coarse_pseudo_inverse(s_pp)

        # the stacked operators, after the coarse inverse: their transients never meet
        pos = np.empty(dofmap.n_broken, dtype=np.int64)
        local_ptr, row_ptr = [0], [0]
        targets, r_rows, r_cols, r_vals = [], [], [], []
        for lo, solver, ids in zip(local_ops, self.solvers, class_ids):
            m, mt = len(ids), solver.ct.shape[0]
            r_rows.append(np.repeat(ids, mt))
            r_cols.append(row_ptr[-1] + np.tile(np.arange(mt), m))
            r_vals.append(solver.q.T.ravel())
            targets.append(np.concatenate([ids, np.full(mt - m, n)]))
            pos[dofmap.gamma_slice(lo.sub)] = local_ptr[-1] + np.arange(lo.n_interior, solver.n)
            local_ptr.append(local_ptr[-1] + solver.n)
            row_ptr.append(row_ptr[-1] + mt)

        self._local = [slice(a, b) for a, b in zip(local_ptr, local_ptr[1:])]
        self._iface = [slice(b - s.v.shape[0], b) for s, b in zip(self.solvers, local_ptr[1:])]
        self._rows = [slice(a, b) for a, b in zip(row_ptr, row_ptr[1:])]
        self._scatter = sp.csr_matrix(
            (self.delta, (pos, dofmap.bro_gamma)), shape=(local_ptr[-1], dofmap.n_gamma)
        )
        self._assemble = self._scatter.T.tocsr()
        self._ct = sp.block_diag([s.ct for s in self.solvers], format="csr")
        self._restrict = sp.csr_matrix(
            (np.concatenate(r_vals), (np.concatenate(r_rows), np.concatenate(r_cols))),
            shape=(n, row_ptr[-1]),
        )
        self._targets = np.concatenate(targets)
        self._groups = partition([s.factor.nnz for s in self.solvers])

    @staticmethod
    def _coarse_pseudo_inverse(s_pp: np.ndarray) -> np.ndarray:
        """``Pi (S_pp + (alpha/n) 11^T)^{-1} Pi`` over one extra zero row,
        the target of the pin rows."""
        n = len(s_pp)
        alpha = float(np.trace(s_pp)) / n
        if not alpha > 0:
            raise FactorizationError("coarse operator has nonpositive trace")
        try:
            cho = sla.cho_factor(s_pp + alpha / n)
        except sla.LinAlgError as exc:
            raise FactorizationError(
                "coarse operator is singular beyond the constant kernel"
            ) from exc
        inv = sla.cho_solve(cho, np.eye(n))
        inv -= inv.mean(axis=0)
        inv -= inv.mean(axis=1)[:, None]
        return np.vstack([inv, np.zeros(n)])

    def _solve_group(self, group, b, y):
        for k in group:
            sl = self._local[k]
            y[sl] = self.solvers[k].factor._substitute(b[sl])

    def _extend_group(self, group, d, y):
        for k in group:
            y[self._iface[k]] += self.solvers[k].v @ d[self._rows[k]]

    def apply(self, r_gamma: np.ndarray) -> np.ndarray:
        """Preconditioned residual z = M^{-1} r on the assembled interface,
        for one residual (n_gamma,) or a block of them (n_gamma, k)."""
        b = self._scatter @ r_gamma
        y = np.empty_like(b)
        run_groups(partial(self._solve_group, b=b, y=y), self._groups)
        if not np.isfinite(y).all():
            bad = next(k for k, sl in enumerate(self._local) if not np.isfinite(y[sl]).all())
            raise FactorizationError(
                f"solve with {self.solvers[bad].factor.label} produced non-finite values"
            )
        c = self._ct @ y
        d = (self._coarse_inv @ (self._restrict @ c))[self._targets]
        d -= c
        run_groups(partial(self._extend_group, d=d, y=y), self._groups)
        return self._assemble @ y

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
