"""Batched element kernels for P1 tetrahedra and interface triangles."""

import numpy as np

from .errors import AssemblyError

HAS_NUMBA = False  # the kernels are plain numpy; kept for provenance reports

# A coupling sigma*vol*(g_i . g_j) with |k_ij| <= _ORTHOGONAL * sqrt(k_ii k_jj)
# is a dot product of orthogonal gradients: in a Kuhn path tet three of the
# six pairs are orthogonal, and rounding leaves them at most ~3e-16 of the
# diagonal scale, while a genuine coupling there is at least 0.5 of it.  A
# value this small cannot be told apart from rounding, so it is snapped to 0.0.
_ORTHOGONAL = 4096 * np.finfo(np.float64).eps    # ~9.1e-13


def tet_stiffness_batch(coords, sigma):
    """Stiffness matrices sigma * |vol| * G G^T for batches of P1 tets.

    coords: (T, 4, 3) vertex coordinates, sigma: (T,) conductivities.
    Returns (T, 4, 4) element matrices, the same for either orientation,
    and (T,) signed volumes; raises on degenerate cells.  A coupling of
    orthogonal gradients (``|k_ij| <= _ORTHOGONAL * sqrt(k_ii k_jj)``) is
    exactly 0.0, not a rounding residue.
    """
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    sigma = np.ascontiguousarray(sigma, dtype=np.float64)
    e = coords[:, 1:, :] - coords[:, :1, :]          # (T, 3, 3) edge vectors
    vol = np.linalg.det(e) / 6.0
    if coords.shape[0] and np.min(np.abs(vol)) < 1e-300:
        bad = int(np.argmin(np.abs(vol)))
        raise AssemblyError(f"degenerate tetrahedron at batch index {bad} (zero volume)")
    # gradients of barycentric coordinates 1..3 are rows of inv(e)^T
    ginv = np.linalg.inv(e)                          # (T, 3, 3)
    g123 = np.transpose(ginv, (0, 2, 1))
    g0 = -g123.sum(axis=1, keepdims=True)
    grads = np.concatenate([g0, g123], axis=1)       # (T, 4, 3)
    ke = np.einsum("tid,tjd->tij", grads, grads)
    ke *= (sigma * np.abs(vol))[:, None, None]
    scale = np.sqrt(np.abs(np.einsum("tii->ti", ke)))
    ke[np.abs(ke) <= _ORTHOGONAL * scale[:, :, None] * scale[:, None, :]] = 0.0
    return ke, vol


def tri_mass_batch(coords):
    """Consistent P1 mass matrices (area/12 pattern) for triangle batches;
    rejects slivers."""
    coords = np.ascontiguousarray(coords, dtype=np.float64)
    u = coords[:, 1, :] - coords[:, 0, :]
    v = coords[:, 2, :] - coords[:, 0, :]
    area = 0.5 * np.linalg.norm(np.cross(u, v), axis=1)
    if coords.shape[0] and np.min(area) < 1e-300:
        bad = int(np.argmin(area))
        raise AssemblyError(f"degenerate triangle at batch index {bad} (zero area)")
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return area[:, None, None] * base, area
