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
through the multipliers of :func:`~emibddc.sparsela.multiplier_basis`, so
each substructure's Neumann matrix is its full local operator, pinned at
one entry for its constant kernel.  Its sparse LU factorization is built
once per problem as ``LocalOperator.neumann`` and shared by ``vef`` and
``ve``.  Each preconditioner keeps the multiplier basis ``W`` at the
interface rows and the explicit inverse of the dense multiplier matrix
``H``, whose leading columns ``Q = H^{-1} [I_m; 0]`` it writes into the
coarse restriction below.  The problem keeps the largest basis solved so
far beside each factor (``LocalOperator.solved``): each substructure's
``ve`` rows are among its ``vef`` rows, so ``ve`` built after ``vef``
takes its ``H`` as a principal submatrix of ``vef``'s and its ``W`` as a
set of ``vef``'s columns, with no Neumann solve.

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
block-diagonal ``H^{-1}``, the coarse restriction ``R`` holding each
substructure's ``Q^T`` at its class ids, and the coarse spread ``E``, the
0/1 matrix that maps each constraint row to its class id and a pin row
to nothing.  The coarse operator is ``S_pp = (R E)^T``, symmetrized
against the round-off of ``H^{-1}``; the coarse image of the constant
vector is its kernel, so it is factored like a Neumann matrix, pinned at
one entry.  With ``y`` the Neumann solves of the scattered residual,

    c = Ct y,   g = H^{-1} c,   rho = E^T g - mean,
    z = S_pp^{-1} rho - mean,   d = R^T z - g,   y_Gamma += W d;

``E^T g`` is ``R c`` and ``R^T z`` is ``H^{-1} E z``, as ``H`` is
symmetric, so ``W d`` is the constrained correction
``W H^{-1} (E z - c)``.  For a zero-mean ``rho`` the pinned solve returns
a solution of ``S_pp z = rho``, and removing its mean makes ``z`` the
pseudo-inverse's ``S_pp^+ rho``.  The scaled assembly of ``y`` is the
result.  Every step is one call over all substructures but the Neumann
solves and the ``W`` products, no step makes a LAPACK call, and the
residual may be one vector or a block of columns.

The Neumann solves and the ``W`` products run substructure by substructure
on the calling thread, each writing only its own slices of the stacked
vector, but for one overlap: on a host with more than one core, when the
largest Neumann factor holds at least ``OVERLAP_NNZ`` entries, the
calling thread solves with it while one extra thread runs the other
solves.  SuperLU releases the GIL inside a solve, so the long solve
overlaps the short ones.  On a shared 2-core host (scipy 1.17), two
threads looping solves reached 1.74-1.84x one thread's throughput on a
3.0M-entry bath factor (``cellgrid-h12``) but 0.99-1.46x on a
1.07M-entry one (``rhs-stream``), and without the overlap the
``cellgrid-h12`` solves were 24% and 43% slower in two of three
benchmark batches.  The long solve stays on the calling thread, which
starts it at once: on the extra thread it made ``convex-h12`` 11% slower
per load.  The thread calls only private kernels (``_solve_each``,
``SPDSolver._substitute``), so a tracer that wraps the public API sees
every span on the calling thread, and the result is bit-identical either
way.  The Neumann solves are checked for non-finite values once, after
all of them, naming the first substructure at fault; the coarse solve
follows on the calling thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import scipy.sparse as sp

from .errors import ConstraintError, FactorizationError
from .femspace import ConstraintSet, DofMap
from .sparsela import SPDSolver, multiplier_basis, multiplier_inverse

__all__ = ["build_scaling", "BddcPreconditioner"]

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# stored entries (SPDSolver.nnz) of the largest factor from which the other solves overlap it
OVERLAP_NNZ = 2_000_000

# its thread starts on the first submit, so a host that never overlaps starts none
_POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="emibddc")


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

    Per substructure it keeps the Neumann factor and ``W`` at the interface
    rows; the apply otherwise works on the stacked operators built here.
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

        self._factors, self._w, cts, h_invs = [], [], [], []
        pos = np.empty(dofmap.n_broken, dtype=np.int64)
        local_ptr, row_ptr = [0], [0]
        r_rows, r_cols, r_vals, e_rows, e_cols = [], [], [], [], []
        for lo in local_ops:
            rows = constraints.rows_of(lo.sub)
            if not rows:
                raise ConstraintError(
                    f"substructure {lo.sub} carries no primal constraints under "
                    f"variant '{constraints.variant.value}'; its local Neumann "
                    "problem is singular and the preconditioner is undefined"
                )
            n_loc = lo.matrix.shape[0]
            iface = np.arange(lo.n_interior, n_loc)
            # applies only ever need interface rows of the solution; the
            # largest basis solved on this problem serves any later rows it holds
            solved = lo.solved[0] if lo.solved else None
            c = _constraint_matrix(rows, n_loc)
            ct, h, w = basis = multiplier_basis(lo.neumann, c, iface, solved)
            if solved is None or len(h) > len(solved[1]):
                lo.solved[:] = [basis]
            h_inv = multiplier_inverse(h, lo.neumann.label)
            self._factors.append(lo.neumann)
            self._w.append(w)
            cts.append(ct)
            h_invs.append(h_inv)
            ids = np.array([cid for cid, _ in rows], dtype=np.int64)
            m, mt = len(ids), ct.shape[0]
            r_rows.append(np.repeat(ids, mt))
            r_cols.append(row_ptr[-1] + np.tile(np.arange(mt), m))
            r_vals.append(h_inv[:, :m].T.ravel())  # Q^T
            e_rows.append(row_ptr[-1] + np.arange(m))
            e_cols.append(ids)
            pos[dofmap.gamma_slice(lo.sub)] = local_ptr[-1] + iface
            local_ptr.append(local_ptr[-1] + n_loc)
            row_ptr.append(row_ptr[-1] + mt)

        self._local = [slice(a, b) for a, b in zip(local_ptr, local_ptr[1:])]
        self._iface = [slice(b - len(w), b) for w, b in zip(self._w, local_ptr[1:])]
        self._rows = [slice(a, b) for a, b in zip(row_ptr, row_ptr[1:])]
        self._scatter = sp.csr_matrix(
            (self.delta, (pos, dofmap.bro_gamma)), shape=(local_ptr[-1], dofmap.n_gamma)
        )
        self._assemble = self._scatter.T.tocsr()
        self._ct = sp.block_diag(cts, format="csr")
        self._h_inv = sp.block_diag(h_invs, format="csr")
        self._restrict = sp.csr_matrix(
            (np.concatenate(r_vals), (np.concatenate(r_rows), np.concatenate(r_cols))),
            shape=(n, row_ptr[-1]),
        )
        e_rows = np.concatenate(e_rows)
        self._spread = sp.csr_matrix(
            (np.ones(len(e_rows)), (e_rows, np.concatenate(e_cols))), shape=(row_ptr[-1], n)
        )
        self._gather = self._spread.T.tocsr()
        self._extend = self._restrict.T.tocsr()
        self._coarse = SPDSolver(self._coarse_matrix(), label="coarse operator", pin=True)
        nnz = [f.nnz for f in self._factors]
        big = int(np.argmax(nnz))
        self._big = big if CORES > 1 and nnz[big] >= OVERLAP_NNZ else None

    def _coarse_matrix(self) -> sp.csr_matrix:
        """``S_pp``: the substructures' blocks ``Q[:m] = psi^T K psi`` of the
        energy-minimal coarse basis ``psi = W Q`` summed at their class ids,
        symmetrized: ``R E`` is its transpose."""
        s_pp = self._restrict @ self._spread
        return ((s_pp + s_pp.T) * 0.5).tocsr()

    def _solve_each(self, ks, y: np.ndarray) -> None:
        for k in ks:
            sl = self._local[k]
            # the solve copies its input, so it may overwrite it
            y[sl] = self._factors[k]._substitute(y[sl])

    def apply(self, r_gamma: np.ndarray) -> np.ndarray:
        """Preconditioned residual z = M^{-1} r on the assembled interface,
        for one residual (n_gamma,) or a block of them (n_gamma, k)."""
        y = self._scatter @ r_gamma
        big = self._big
        if big is None:
            self._solve_each(range(len(self._factors)), y)
        else:
            rest = [k for k in range(len(self._factors)) if k != big]
            pending = _POOL.submit(self._solve_each, rest, y)
            try:
                self._solve_each((big,), y)
            finally:
                # the thread writes into y: never go on before it
                wait((pending,))
            pending.result()
        if not np.isfinite(y).all():
            bad = next(k for k, sl in enumerate(self._local) if not np.isfinite(y[sl]).all())
            raise FactorizationError(
                f"solve with {self._factors[bad].label} produced non-finite values"
            )
        g = self._h_inv @ (self._ct @ y)
        rho = self._gather @ g
        rho -= rho.mean(axis=0)
        z = self._coarse.solve(rho)
        z -= z.mean(axis=0)
        d = self._extend @ z
        d -= g
        for w, sl, rows in zip(self._w, self._iface, self._rows):
            y[sl] += w @ d[rows]
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
