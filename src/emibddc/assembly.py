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

Local (per-substructure) operators use half of every interface mass block so
that the subassembled sum over substructures reproduces the global operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._kernels import tet_stiffness_batch, tri_mass_batch
from .errors import AssemblyError
from .femspace import DofMap
from .geometry import BATH, FaceGroup, InterfaceTopology, Mesh
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
            if not getattr(self, name) > 0:
                raise AssemblyError(f"{name} must be positive")
        if self.sigma is not None:
            try:
                sigma = tuple(float(s) for s in self.sigma)
            except (TypeError, ValueError):
                raise AssemblyError(
                    f"sigma must be a sequence of conductivities, got {self.sigma!r}"
                ) from None
            object.__setattr__(self, "sigma", sigma)
            if any(s <= 0 for s in self.sigma):
                raise AssemblyError("all conductivities must be positive")

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
    problem shares it.
    """

    sub: int
    matrix: sp.csr_matrix    # tau * stiffness + half interface mass
    n_interior: int

    @cached_property
    def neumann(self) -> SPDSolver:
        return SPDSolver(
            self.matrix, label=f"substructure {self.sub} dual block", pin=True
        )


@dataclass(frozen=True)
class SystemOperators:
    stiffness: sp.csr_matrix  # A, global
    coupling: sp.csr_matrix   # M, global
    matrix: sp.csr_matrix     # K = tau*A + M
    local_ops: tuple
    sigma: np.ndarray         # per region
    params: ModelParams


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


def _coo_blocks(rows3, cols3, blocks):
    """Flatten (T, k, k) element blocks against (T, k) row/col index arrays."""
    t, k = rows3.shape
    r = np.repeat(rows3, k, axis=1).ravel()
    c = np.tile(cols3, (1, k)).ravel()
    return r, c, blocks.ravel()


def assemble_system(
    mesh: Mesh,
    topo: InterfaceTopology,
    dofmap: DofMap,
    params: ModelParams,
) -> SystemOperators:
    """Assemble the global step operator and the broken local operators."""
    nsub = mesh.n_substructures
    region = mesh.sub_region
    sigma = params.conductivities(mesh.n_regions)
    ngd = dofmap.n_global

    glob_rows, glob_cols, glob_vals = [], [], []
    loc_entries = [([], [], []) for _ in range(nsub)]

    # conduction stiffness, one decoupled block per region
    stiff_rows, stiff_cols, stiff_vals = [], [], []
    for i in range(nsub):
        tets = mesh.tets[mesh.tet_sub == i]
        ke, _ = tet_stiffness_batch(
            mesh.vertices[tets], np.full(len(tets), sigma[region[i]])
        )
        gids = dofmap.global_own(region[i], tets.ravel()).reshape(tets.shape)
        r, c, v = _coo_blocks(gids, gids, ke)
        stiff_rows.append(r)
        stiff_cols.append(c)
        stiff_vals.append(v)
        lids = dofmap.own_positions(i, tets.ravel()).reshape(tets.shape)
        r, c, v = _coo_blocks(lids, lids, params.tau * ke)
        lr, lc, lv = loc_entries[i]
        lr.append(r)
        lc.append(c)
        lv.append(v)

    stiffness = sp.coo_matrix(
        (np.concatenate(stiff_vals), (np.concatenate(stiff_rows), np.concatenate(stiff_cols))),
        shape=(ngd, ngd),
    ).tocsr()
    stiffness.sum_duplicates()

    # interface jump coupling: c_m * [[Mf, -Mf], [-Mf, Mf]] per patch
    for fg in topo.faces:
        if fg.kind == "conforming":
            continue  # one region on both sides: no jump to penalise
        mf, _ = tri_mass_batch(mesh.vertices[fg.triangles])
        mf = params.c_m * mf
        gi = dofmap.global_own(fg.region_i, fg.triangles.ravel()).reshape(fg.triangles.shape)
        gj = dofmap.global_own(fg.region_j, fg.triangles.ravel()).reshape(fg.triangles.shape)
        for rows3, cols3, s in ((gi, gi, 1.0), (gi, gj, -1.0), (gj, gi, -1.0), (gj, gj, 1.0)):
            r, c, v = _coo_blocks(rows3, cols3, s * mf)
            glob_rows.append(r)
            glob_cols.append(c)
            glob_vals.append(v)

        # half of the block into each touching substructure's broken operator
        li_own = dofmap.own_positions(fg.sub_i, fg.triangles.ravel()).reshape(fg.triangles.shape)
        li_cp = dofmap.copy_positions(fg.sub_i, fg.region_j, fg.triangles.ravel()).reshape(
            fg.triangles.shape
        )
        lj_own = dofmap.own_positions(fg.sub_j, fg.triangles.ravel()).reshape(fg.triangles.shape)
        lj_cp = dofmap.copy_positions(fg.sub_j, fg.region_i, fg.triangles.ravel()).reshape(
            fg.triangles.shape
        )
        for sub, a, b in ((fg.sub_i, li_own, li_cp), (fg.sub_j, lj_own, lj_cp)):
            lr, lc, lv = loc_entries[sub]
            for rows3, cols3, s in ((a, a, 0.5), (a, b, -0.5), (b, a, -0.5), (b, b, 0.5)):
                r, c, v = _coo_blocks(rows3, cols3, s * mf)
                lr.append(r)
                lc.append(c)
                lv.append(v)

    if glob_vals:
        coupling = sp.coo_matrix(
            (np.concatenate(glob_vals), (np.concatenate(glob_rows), np.concatenate(glob_cols))),
            shape=(ngd, ngd),
        ).tocsr()
        coupling.sum_duplicates()
    else:
        coupling = sp.csr_matrix((ngd, ngd))

    local_ops = []
    for i in range(nsub):
        lr, lc, lv = loc_entries[i]
        n = int(dofmap.n_local[i])
        mat = sp.coo_matrix(
            (np.concatenate(lv), (np.concatenate(lr), np.concatenate(lc))), shape=(n, n)
        ).tocsr()
        mat.sum_duplicates()
        local_ops.append(
            LocalOperator(sub=i, matrix=mat, n_interior=int(dofmap.n_interior[i]))
        )

    matrix = (params.tau * stiffness + coupling).tocsr()
    return SystemOperators(
        stiffness=stiffness,
        coupling=coupling,
        matrix=matrix,
        local_ops=tuple(local_ops),
        sigma=sigma,
        params=params,
    )


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
    return u[dofmap.global_own(lead, fg.nodes)] - u[dofmap.global_own(other, fg.nodes)]


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

        f[dofmap.global_own(lead, fg.nodes)] += vals
        f[dofmap.global_own(other, fg.nodes)] -= vals
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
