"""Dense reference computations for cross-checking the sparse solver stack.

Everything here is rebuilt from the raw local operators with plain dense
linear algebra (``numpy.linalg`` / ``scipy.linalg``) and deliberately does
not reuse the production factorization or preconditioner code paths, so a
disagreement implicates exactly one side.  Intended for meshes of at most
a few thousand unknowns.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .bddc import build_scaling
from .errors import VerificationError

__all__ = [
    "dense_substructure_schur",
    "dense_broken_schur",
    "dense_assembled_schur",
    "difference_rows",
    "constrained_basis",
    "dense_bddc_matrix",
    "preconditioned_spectrum",
    "projected_solve",
]


def dense_substructure_schur(op):
    """Dense interface Schur complement of one local operator.

    Eliminates the interior block by direct dense solves:
    ``S = K_gg - K_gi inv(K_ii) K_ig``.
    """
    k = op.matrix.toarray()
    ni = op.n_interior
    k_ii = k[:ni, :ni]
    k_ig = k[:ni, ni:]
    k_gi = k[ni:, :ni]
    k_gg = k[ni:, ni:]
    if ni == 0:
        return k_gg
    return k_gg - k_gi @ np.linalg.solve(k_ii, k_ig)


def dense_broken_schur(dofmap, local_ops):
    """Block-diagonal Schur complement on the stacked broken interface."""
    nb = dofmap.n_broken
    sb = np.zeros((nb, nb))
    for op in local_ops:
        sl = dofmap.gamma_slice(op.sub)
        sb[sl, sl] = dense_substructure_schur(op)
    return sb


def dense_assembled_schur(dofmap, local_ops):
    """``sum_i G_i^T S_i G_i``, each ``S_i`` added at the dofs it copies."""
    s_hat = np.zeros((dofmap.n_gamma, dofmap.n_gamma))
    for op in local_ops:
        g = dofmap.bro_gamma[dofmap.gamma_slice(op.sub)]
        s_hat[np.ix_(g, g)] += dense_substructure_schur(op)
    return s_hat


def _row_to_broken(dofmap, row):
    """Spread one ConstraintRow onto the stacked broken interface."""
    vec = np.zeros(dofmap.n_broken)
    pos = dofmap.bro_ptr[row.sub] + row.local_dofs - dofmap.n_interior[row.sub]
    vec[pos] = row.weights
    return vec


def difference_rows(dofmap, constraints):
    """All primal identifications as difference functionals on W(Gamma').

    Each class with k rows contributes k - 1 rows of the form
    ``row - first row``; their joint null space is the partially assembled
    space of admissible vectors.
    """
    rows = []
    for cl in constraints.classes:
        base = _row_to_broken(dofmap, cl.rows[0])
        for row in cl.rows[1:]:
            rows.append(_row_to_broken(dofmap, row) - base)
    if not rows:
        return np.zeros((0, dofmap.n_broken))
    return np.array(rows)


def constrained_basis(dofmap, constraints):
    """Orthonormal basis of the constrained (partially assembled) space.

    The difference rows fall into blocks that share no dof (two dofs are in
    one block when a chain of rows links them), so the null space is one
    SVD per block, placed at the block's dofs; the dofs that no row touches
    come first, as identity columns.
    """
    # imported here: csgraph adds ~3 MiB to every process that imports the package
    from scipy.sparse.csgraph import connected_components

    rows = difference_rows(dofmap, constraints)
    touched = sp.csr_matrix(rows != 0)
    _, block = connected_components(touched.T @ touched, directed=False)
    row_block = block[touched.indices[touched.indptr[:-1]]]
    free = np.flatnonzero(touched.getnnz(axis=0) == 0)
    pieces = [
        (dofs, sla.null_space(rows[np.ix_(row_block == b, dofs)]))
        for b in np.unique(row_block)
        for dofs in [np.flatnonzero(block == b)]
    ]
    z = np.zeros((dofmap.n_broken, len(free) + sum(p.shape[1] for _, p in pieces)))
    z[free, np.arange(len(free))] = 1.0
    col = len(free)
    for dofs, basis in pieces:
        z[dofs, col:col + basis.shape[1]] = basis
        col += basis.shape[1]
    return z


def dense_bddc_matrix(dofmap, constraints, local_ops, sigma):
    """Explicit preconditioner matrix on the assembled interface space.

    Realizes M^-1 = R_D^T S~^+ R_D with the constrained-space solve done
    as one dense pseudo-inverse in a null-space basis ``Z``, which is
    exactly the block-elimination sum (local dual solvers + coarse solve)
    that the production code evaluates piecewise.  ``S = Z^T S~ Z``, summed
    over substructure blocks, has the constants ``c = Z^T 1`` as kernel, so
    ``S^+ = (S + (a/c^T c) c c^T)^-1 - c c^T / (a c^T c)`` for any a > 0.
    """
    z = constrained_basis(dofmap, constraints)
    if z.shape[1] == 0:
        raise VerificationError("constrained space is empty; nothing to verify")
    s_z = np.empty_like(z)  # S~ Z, one substructure block at a time
    for op in local_ops:
        sl = dofmap.gamma_slice(op.sub)
        s_z[sl] = dense_substructure_schur(op) @ z[sl]
    s_z = z.T @ s_z
    c = z.sum(axis=0)
    alpha, cc = np.trace(s_z) / len(c), c @ c
    s_z += np.outer((alpha / cc) * c, c)
    try:
        low = sla.cholesky(s_z, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise VerificationError("constrained operator is singular beyond constants") from exc
    # (Z^T R_D)^T: every broken dof adds its scaled row of Z at the dof it copies
    zr = np.zeros((dofmap.n_gamma, len(c)))
    np.add.at(zr, dofmap.bro_gamma, build_scaling(dofmap, sigma)[:, None] * z)
    y = sla.solve_triangular(low, zr.T, lower=True)
    return y.T @ y - np.outer(zr @ c, zr @ c) / (alpha * cc)


def preconditioned_spectrum(m_inv, s_hat):
    """Eigenvalues of M^-1 S restricted to the complement of constants."""
    n = s_hat.shape[0]
    q = sla.null_space(np.ones((1, n)))
    a2 = q.T @ s_hat @ q
    m2 = q.T @ m_inv @ q
    try:
        low = np.linalg.cholesky(m2)
    except np.linalg.LinAlgError as exc:
        raise VerificationError(
            "projected preconditioner is not positive definite"
        ) from exc
    return np.sort(sla.eigvalsh(low.T @ a2 @ low))


def projected_solve(s_hat, rhs):
    """Minimum-norm solve of the singular interface system, mean removed."""
    n = s_hat.shape[0]
    rhs = rhs - rhs.mean()
    q = sla.null_space(np.ones((1, n)))
    x = q @ np.linalg.solve(q.T @ s_hat @ q, q.T @ rhs)
    return x - x.mean()
