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

Each substructure's Neumann matrix ``K_ff`` (its local operator on the dofs
left after pinning its subdomain vertices, shifted at one entry when nothing
is pinned) has one sparse LU factorization per problem.  It is stored in
``LocalOperator.neumann`` under the pinned dofs and lives as long as the
local operator, so ``vef`` and ``ve``, which pin the same vertices, share
it; each preconditioner adds only its own multiplier basis ``W`` and dense
``H`` via :class:`~emibddc.sparsela.ConstrainedSolver`.

The coarse basis ``psi`` of a substructure minimizes local energy subject
to unit value on one class and zero on the others.  A column for a vertex
pin has the load ``b = -K_fp d_pin`` and costs one sparse solve; a column
for an average class has ``b = 0``, so with ``g`` its constraint targets

    psi_free = W H^{-1} [g; 0]

and it costs no sparse solve.  The coarse problem is dense and is inverted
on the orthogonal complement of its one-dimensional kernel (the coarse image
of the constant vector).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConstraintError, FactorizationError
from .femspace import ConstraintSet, DofMap
from .sparsela import ConstrainedSolver, SPDSolver

__all__ = ["build_scaling", "BddcPreconditioner"]


def build_scaling(dofmap: DofMap, sigma: np.ndarray) -> np.ndarray:
    """Conductivity-weighted partition of unity on the broken interface.

    Every broken interface dof is weighted by its *holder's* conductivity,
    normalized over its copy group, so multiplying by the scaling twice
    (restriction and prolongation) averages copy groups exactly once.
    """
    w = np.asarray(sigma, dtype=np.float64)[dofmap.bro_holder]
    if np.any(w <= 0):
        raise ConstraintError("conductivity scaling requires positive weights")
    total = np.bincount(dofmap.bro_gamma, weights=w, minlength=dofmap.n_gamma)
    return w / total[dofmap.bro_gamma]


class _SubstructureSolver:
    """Dual solver plus coarse basis of one substructure."""

    def __init__(self, lo, rows, pins, label):
        self.sub = lo.sub
        n_interior = lo.n_interior
        n_loc = lo.matrix.shape[0]
        pin_dofs = np.array([dof for _, dof in pins], dtype=np.int64)
        if len(np.unique(pin_dofs)) != len(pin_dofs):
            raise ConstraintError(f"{label}: repeated vertex dof")
        free = np.setdiff1d(np.arange(n_loc), pin_dofs)
        self.n_free = len(free)

        m_r = len(rows)
        m_loc = m_r + len(pins)
        self.class_ids = np.array(
            [cid for cid, _ in rows] + [cid for cid, _ in pins], dtype=np.int64
        )

        pin_pos = np.full(n_loc, -1, dtype=np.int64)
        pin_pos[pin_dofs] = np.arange(len(pin_dofs))
        free_pos = np.full(n_loc, -1, dtype=np.int64)
        free_pos[free] = np.arange(len(free))

        c_free = sp.lil_matrix((m_r, self.n_free))
        c_pin = np.zeros((m_r, len(pins)))
        for r, (_, row) in enumerate(rows):
            fp = free_pos[row.local_dofs]
            keep = fp >= 0
            c_free[r, fp[keep]] = row.weights[keep]
            pp = pin_pos[row.local_dofs[~keep]]
            c_pin[r, pp] = row.weights[~keep]

        k_csr = lo.matrix.tocsr()
        key = tuple(sorted(pin_dofs.tolist()))
        factor = lo.neumann.get(key)
        if factor is None:
            factor = lo.neumann[key] = SPDSolver(
                k_csr[free, :][:, free], label=label, pin=(len(pin_dofs) == 0)
            )
        self.solver = ConstrainedSolver(
            factor, c_free.tocsr() if m_r else None, label=label
        )

        # energy-minimal coarse basis: unit average on one class, zero on the
        # rest, vertex dofs pinned to their class indicator; the zero columns
        # of b (average classes) take no sparse solve
        d_pin = np.zeros((len(pins), m_loc))
        for p in range(len(pins)):
            d_pin[p, m_r + p] = 1.0
        if len(pin_dofs):
            k_fp = k_csr[free, :][:, pin_dofs]
            b = -(k_fp @ d_pin)
        else:
            b = np.zeros((self.n_free, m_loc))
        targets = None
        if m_r:
            targets = np.zeros((m_r, m_loc))
            targets[:, :m_r] = np.eye(m_r)
            targets -= c_pin @ d_pin
        psi_free = self.solver.solve(b, targets=targets)

        psi = np.zeros((n_loc, m_loc))
        psi[free] = psi_free
        if len(pin_dofs):
            psi[pin_dofs] = d_pin
        self.coarse_matrix = psi.T @ (k_csr @ psi)
        self.psi_gamma = np.ascontiguousarray(psi[n_interior:])

        # applies only ever need interface rows of the dual solution
        mask = free >= n_interior
        self._free_iface = np.nonzero(mask)[0]
        self._gamma_pos = free[mask] - n_interior
        self.n_gamma_local = n_loc - n_interior
        self.solver.compress(self._free_iface)

    def dual_apply(self, r_local: np.ndarray) -> np.ndarray:
        """Constrained Neumann solve for an interface residual (zero primal)."""
        b = np.zeros(self.n_free)
        b[self._free_iface] = r_local[self._gamma_pos]
        u = self.solver.solve(b)
        out = np.zeros(self.n_gamma_local)
        out[self._gamma_pos] = u
        return out


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
            pins = constraints.vertex_members_of(lo.sub)
            if not rows and not pins:
                raise ConstraintError(
                    f"substructure {lo.sub} carries no primal constraints under "
                    f"variant '{constraints.variant.value}'; its local Neumann "
                    "problem is singular and the preconditioner is undefined"
                )
            self.subs.append(
                _SubstructureSolver(
                    lo, rows, pins, label=f"substructure {lo.sub} dual block"
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
