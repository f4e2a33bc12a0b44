"""System assembly for the cell-by-cell bioelectric model.

One implicit-Euler step of the model couples volumetric conduction inside
every region with capacitive/resistive transmission across the interfaces:

    K u = f,    K = tau * A + M

where ``A`` is the conduction stiffness (block diagonal over regions, scaled
by each region's conductivity) and ``M`` penalises the potential jumps across
every patch between two regions with a surface mass matrix times the
membrane capacitance; a conforming patch (two substructures of one region)
carries no jump and no mass.  ``K`` is symmetric positive semidefinite with
a one-dimensional kernel (global constants).

The right-hand side carries the previous potential jump through the same
surface mass matrices, minus ``tau`` times the transmission current density:
a nonlinear ionic current on membrane patches (cell against bath) and an
ohmic current ``v / r_gap`` on cell-to-cell gap-junction patches.

Every element block is assembled once, into the local (per-substructure)
operator of the substructure that holds it; each side of an interface patch
takes half of its mass block.  ``K`` is the sum of the local operators
through ``local_to_global``, ``K = sum_i R_i^T K_i R_i``, so the broken
operators BDDC works on and the assembled one agree by construction.  The
stiffness kernel snaps couplings of orthogonal gradients to exactly zero
and every assembled matrix drops its zero entries, so the local operators
store no structural zeros for the sparse factors to order and fill around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._kernels import tet_stiffness_batch, tri_mass_batch
from .errors import AssemblyError
from .femspace import DofMap
from .geometry import BATH, FaceGroup, InterfaceTopology, Mesh, _is_positive_real
from .sparsela import SPDSolver

__all__ = [
    "ModelParams",
    "AlievPanfilov",
    "LocalOperator",
    "SystemOperators",
    "MembraneState",
    "assemble_system",
    "assemble_rhs",
    "oriented_pair",
    "compute_jump",
    "ionic_step",
    "project_compatible",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical and stepping parameters (units: cm, ms, mV, mS, uF)."""

    sigma_intra: float = 3.0     # cytosol conductivity, mS/cm
    sigma_extra: float = 20.0    # bath conductivity, mS/cm
    c_m: float = 1.0             # membrane capacitance, uF/cm^2
    tau: float = 0.01            # time step, ms
    r_gap: float = 4.5e-4        # gap-junction area resistance, kOhm*cm^2
    sigma: tuple = None          # optional per-region override, bath first

    def __post_init__(self):
        for name in ("sigma_intra", "sigma_extra", "c_m", "tau", "r_gap"):
            value = getattr(self, name)
            if not _is_positive_real(value):
                raise AssemblyError(f"{name} must be a finite number > 0, got {value!r}")
        if self.sigma is not None:
            sigma = tuple(self.sigma) if np.iterable(self.sigma) else None
            if sigma is None or not all(_is_positive_real(s) for s in sigma):
                raise AssemblyError(
                    f"sigma must be a sequence of finite conductivities > 0, got {self.sigma!r}"
                )
            object.__setattr__(self, "sigma", tuple(float(s) for s in sigma))

    def conductivities(self, n_regions: int) -> np.ndarray:
        """Per-region conductivity: ``sigma_extra`` in the bath (region
        ``BATH``), ``sigma_intra`` in every cell, unless overridden."""
        if self.sigma is not None:
            if len(self.sigma) != n_regions:
                raise AssemblyError(
                    f"sigma override has {len(self.sigma)} entries, "
                    f"mesh has {n_regions} regions"
                )
            return np.asarray(self.sigma, dtype=np.float64)
        out = np.full(n_regions, self.sigma_intra, dtype=np.float64)
        out[BATH] = self.sigma_extra
        return out


@dataclass(frozen=True)
class AlievPanfilov:
    """Two-variable excitable membrane kinetics (dimensionless v, gate w)."""

    k: float = 8.0
    a: float = 0.15
    eps0: float = 0.002
    mu1: float = 0.2
    mu2: float = 0.3

    def current(self, v, w):
        """Outward ionic current density for transmembrane potential v."""
        v = np.asarray(v, dtype=np.float64)
        return self.k * v * (v - self.a) * (v - 1.0) + v * w

    def rate(self, v, w):
        """dw/dt of the recovery gate."""
        v = np.asarray(v, dtype=np.float64)
        eps = self.eps0 + self.mu1 * w / (self.mu2 + v)
        return eps * (-w - self.k * v * (v - self.a - 1.0))


@dataclass(frozen=True)
class LocalOperator:
    """Broken operator of one substructure in its local dof ordering.

    ``neumann`` belongs to the preconditioner: the pinned factor of
    ``matrix``, the Neumann matrix of every primal space (see
    :class:`~emibddc.bddc.BddcPreconditioner`).  It is built on first use
    and lives as long as the operator, so every primal space built on one
    problem shares it.  ``solved`` holds the largest multiplier basis
    solved against it so far (see
    :func:`~emibddc.sparsela.multiplier_basis`): a primal space whose rows
    are its leading rows, ``ve`` after ``vef``, reads its basis off it at
    those rows and the pin row, with no solve.
    """

    sub: int
    matrix: sp.csr_matrix    # tau * stiffness + half interface mass
    n_interior: int
    solved: list = field(default_factory=list, compare=False, repr=False)  # one basis at most

    @cached_property
    def neumann(self) -> SPDSolver:
        return SPDSolver(
            self.matrix, label=f"substructure {self.sub} dual block", pin=True
        )


@dataclass(frozen=True)
class SystemOperators:
    matrix: sp.csr_matrix     # K = tau*A + M, the sum of the local operators
    local_ops: tuple
    sigma: np.ndarray         # per region


def oriented_pair(fg: FaceGroup):
    """Jump orientation of a patch as ``(lead, other)`` regions: (cell, bath)
    on membranes, region ids ascending on gap junctions, so the same
    physical jump is produced no matter which side assembles it.  A
    conforming patch has no jump and raises :class:`AssemblyError`."""
    if fg.kind == "conforming":
        raise AssemblyError(f"conforming patch ({fg.sub_i},{fg.sub_j}) carries no jump")
    if fg.is_membrane:
        return (fg.region_j if fg.region_i == BATH else fg.region_i), BATH
    return min(fg.region_i, fg.region_j), max(fg.region_i, fg.region_j)


def assemble_system(
    mesh: Mesh,
    topo: InterfaceTopology,
    dofmap: DofMap,
    params: ModelParams,
) -> SystemOperators:
    """Assemble the broken local operators and, from them, the step matrix.

    Every element block is scattered once, into its substructure's local
    operator by local id; K is the sum of the local operators through
    ``local_to_global``, where a trace copy aliases its owner's unknown.
    """
    region = mesh.sub_region
    sigma = params.conductivities(mesh.n_regions)
    parts = [[] for _ in range(mesh.n_substructures)]  # (rows, cols, vals) per substructure

    def add(sub, rows, cols, blocks):
        """Scatter (T, k, k) element blocks at (T, k) local row/col ids into sub."""
        k = rows.shape[1]
        parts[sub].append(
            (np.repeat(rows, k, axis=1).ravel(), np.tile(cols, (1, k)).ravel(), blocks.ravel())
        )

    def assembled(entries, n):
        """Summed (n, n) CSR of (rows, cols, vals) entries, no stored zeros; empties entries."""
        rows, cols, vals = (np.concatenate(a) for a in zip(*entries))
        entries.clear()
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
        del rows, cols, vals  # drop the 64-bit inputs before tocsr, the memory peak
        mat = mat.tocsr()
        mat.sum_duplicates()
        mat.eliminate_zeros()
        return mat

    # conduction stiffness, one decoupled block per region
    for i in range(mesh.n_substructures):
        tets = mesh.tets[mesh.tet_sub == i]
        ke, _ = tet_stiffness_batch(
            mesh.vertices[tets], np.full(len(tets), sigma[region[i]])
        )
        lids = dofmap.local_ids(i, region[i], tets)
        add(i, lids, lids, params.tau * ke)

    # interface jump coupling: c_m * [[Mf, -Mf], [-Mf, Mf]] per patch, half
    # into each touching substructure's broken operator; each takes its own
    # region's block first, an order that fixes how the duplicates sum
    for fg in topo.faces:
        if fg.kind == "conforming":
            continue  # one region on both sides: no jump to penalise
        mf, _ = tri_mass_batch(mesh.vertices[fg.triangles])
        mf = 0.5 * params.c_m * mf
        for sub, pair in ((fg.sub_i, (fg.region_i, fg.region_j)),
                          (fg.sub_j, (fg.region_j, fg.region_i))):
            a, b = (dofmap.local_ids(sub, r, fg.triangles) for r in pair)
            for rows, cols, s in ((a, a, 1.0), (a, b, -1.0), (b, a, -1.0), (b, b, 1.0)):
                add(sub, rows, cols, s * mf)

    # K: every stored local entry, at the global ids of its row and column
    local_ops, k_parts = [], []
    for i in range(mesh.n_substructures):
        lo = LocalOperator(i, assembled(parts[i], int(dofmap.n_local[i])), int(dofmap.n_interior[i]))
        a, l2g = lo.matrix.tocoo(), dofmap.local_to_global[i]
        k_parts.append((l2g[a.row], l2g[a.col], a.data))
        local_ops.append(lo)
    return SystemOperators(assembled(k_parts, dofmap.n_global), tuple(local_ops), sigma)


@dataclass
class MembraneState:
    """Recovery-gate values per membrane patch, aligned with patch nodes."""

    gates: dict = field(default_factory=dict)  # (sub_i, sub_j) -> (n_nodes,) array

    @classmethod
    def zeros(cls, topo: InterfaceTopology) -> "MembraneState":
        return cls(
            gates={
                (fg.sub_i, fg.sub_j): np.zeros(len(fg.nodes))
                for fg in topo.faces
                if fg.is_membrane
            }
        )


def compute_jump(dofmap: DofMap, fg: FaceGroup, u: np.ndarray) -> np.ndarray:
    """Oriented potential jump at the patch nodes: leading region minus other."""
    lead, other = oriented_pair(fg)
    return u[dofmap.global_ids(lead, fg.nodes)] - u[dofmap.global_ids(other, fg.nodes)]


def assemble_rhs(
    mesh: Mesh,
    topo: InterfaceTopology,
    dofmap: DofMap,
    params: ModelParams,
    u_prev: np.ndarray,
    state: MembraneState = None,
    kinetics: AlievPanfilov = None,
    stimulus: dict = None,
) -> np.ndarray:
    """Right-hand side of one implicit step from the previous potential.

    ``stimulus`` optionally maps membrane patch keys ``(sub_i, sub_j)`` to an
    applied current density added to the ionic current on that patch.
    """
    kinetics = kinetics or AlievPanfilov()
    f = np.zeros(dofmap.n_global)
    for fg in topo.faces:
        if fg.kind == "conforming":
            continue
        mf, _ = tri_mass_batch(mesh.vertices[fg.triangles])
        lead, other = oriented_pair(fg)
        v = compute_jump(dofmap, fg, u_prev)
        if fg.is_membrane:
            key = (fg.sub_i, fg.sub_j)
            w = state.gates[key] if state is not None else np.zeros(len(fg.nodes))
            current = kinetics.current(v, w)
            if stimulus and key in stimulus:
                current = current + stimulus[key]
            nodal = params.c_m * v - params.tau * current
        else:
            nodal = (params.c_m - params.tau / params.r_gap) * v

        # integrate the nodal density against the P1 trace basis
        vals = np.zeros(len(fg.nodes))
        local = np.searchsorted(fg.nodes, fg.triangles.ravel()).reshape(fg.triangles.shape)
        contrib = np.einsum("tab,tb->ta", mf, nodal[local])
        np.add.at(vals, local.ravel(), contrib.ravel())

        f[dofmap.global_ids(lead, fg.nodes)] += vals
        f[dofmap.global_ids(other, fg.nodes)] -= vals
    return f


def ionic_step(
    topo: InterfaceTopology,
    dofmap: DofMap,
    params: ModelParams,
    u: np.ndarray,
    state: MembraneState,
    kinetics: AlievPanfilov = None,
) -> MembraneState:
    """Advance the recovery gates one explicit step from the current jumps."""
    kinetics = kinetics or AlievPanfilov()
    new = {}
    for fg in topo.faces:
        if not fg.is_membrane:
            continue
        key = (fg.sub_i, fg.sub_j)
        v = compute_jump(dofmap, fg, u)
        w = state.gates[key]
        new[key] = w + params.tau * kinetics.rate(v, w)
    return MembraneState(gates=new)


def project_compatible(f: np.ndarray) -> np.ndarray:
    """Project onto the range of the singular step operator (mean removal)."""
    return f - f.mean()
