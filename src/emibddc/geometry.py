"""Structured tetrahedral meshes for stacked-cell test geometries.

A simulation box of ``cells_x x cells_y x cells_z`` unit cells is voxelized
with ``n = base_resolution * 2**refinement`` voxels per cell edge and every
voxel is split into six tetrahedra around its main diagonal, so triangulations
of shared voxel faces match between neighbours.  Voxels are tagged by the
region containing their center:

* ``repetitive``   -- each unit cell holds a plus-shaped intracellular region
  (central cube of half the cell edge plus six arms of the same cross-section
  reaching the cell faces); arms of adjacent cells meet and form gap-junction
  interfaces.
* ``convex_cells`` -- each unit cell holds a plain inset cube of half the cell
  edge, so every intracellular region is convex and touches only the
  extracellular space.

Every tet belongs to a *substructure* (a subdomain of the domain
decomposition) and every substructure to a *region* of the model: region
``BATH`` (0) is the connected extracellular medium and region ``k >= 1`` is
cell ``k``.  The potential jumps across a face between two regions (a
membrane or a gap junction); a face between two substructures of one region
is an ordinary conforming interface.  :func:`build_mesh` emits one
substructure per region.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._kernels import tet_stiffness_batch, tri_mass_batch
from .errors import MeshError, TopologyError

__all__ = [
    "BATH",
    "MeshConfig",
    "Mesh",
    "FaceGroup",
    "JunctionEdge",
    "InterfaceTopology",
    "build_mesh",
    "extract_interfaces",
    "export_vtk",
    "load_vtk",
]

#: local corner offsets of a voxel, corner id = 4*dx + 2*dy + dz
_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)


def _kuhn_table():
    """Corner-id table (6, 4) of the six path tetrahedra of the unit voxel."""
    table = []
    for perm in itertools.permutations(range(3)):
        p = np.zeros(3, dtype=np.int64)
        ids = [0]
        for axis in perm:
            p = p.copy()
            p[axis] = 1
            ids.append(4 * p[0] + 2 * p[1] + p[2])
        table.append(ids)
    table = np.array(table, dtype=np.int64)
    # orient all six tets positively
    corners = _CORNERS.astype(float)
    for t in range(6):
        verts = corners[table[t]]
        det = np.linalg.det(verts[1:] - verts[0])
        if det < 0:
            table[t, [2, 3]] = table[t, [3, 2]]
    return table


_KUHN = _kuhn_table()

#: region id of the extracellular bath; region k >= 1 is cell k
BATH = 0


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_positive_real(value) -> bool:
    """A finite real number > 0; a bool is not a number here."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value) and value > 0


@dataclass(frozen=True)
class MeshConfig:
    """Parameters of a stacked-cell voxel mesh."""

    cells_x: int = 1
    cells_y: int = 1
    cells_z: int = 1
    refinement: int = 0
    base_resolution: int = 4
    geometry_kind: str = "repetitive"
    cell_edge_mm: float = 0.1

    def __post_init__(self):
        lows = dict(cells_x=1, cells_y=1, cells_z=1, refinement=0, base_resolution=2)
        for name, low in lows.items():
            value = getattr(self, name)
            if not _is_int(value):
                raise MeshError(
                    f"{name} must be an integer; {type(value).__name__} {value!r} "
                    "is not supported"
                )
            if value < low:
                raise MeshError(f"{name} must be >= {low}, got {value}")
        if self.base_resolution % 2:
            raise MeshError(
                f"base_resolution must be an even number, got {self.base_resolution}"
            )
        if self.resolution < 4:
            raise MeshError(
                "resolution per cell edge must be >= 4 to resolve the intracellular "
                f"shape; got base_resolution={self.base_resolution} at "
                f"refinement={self.refinement}"
            )
        if self.geometry_kind not in ("repetitive", "convex_cells"):
            raise MeshError(f"unknown geometry_kind {self.geometry_kind!r}")
        if self.geometry_kind == "convex_cells":
            for name in ("cells_x", "cells_y", "cells_z"):
                if getattr(self, name) not in (1, 2):
                    raise MeshError(
                        f"convex_cells supports 1 or 2 cells per axis, got "
                        f"{name}={getattr(self, name)}"
                    )
        if not _is_positive_real(self.cell_edge_mm):
            raise MeshError(
                f"cell_edge_mm must be a finite number > 0, got {self.cell_edge_mm!r}"
            )

    @property
    def resolution(self) -> int:
        """Voxels per cell edge (the mesh-size ratio H/h of one cell)."""
        return self.base_resolution * 2**self.refinement

    @property
    def cell_edge_cm(self) -> float:
        return self.cell_edge_mm / 10.0

    @property
    def cells(self):
        return (self.cells_x, self.cells_y, self.cells_z)

    @property
    def n_regions(self) -> int:
        """The bath plus one region per cell."""
        return 1 + self.cells_x * self.cells_y * self.cells_z


@dataclass(frozen=True)
class Mesh:
    """Immutable tetrahedral mesh with per-tet substructure tags and the
    region of every substructure (by default, its own: region = id)."""

    config: MeshConfig
    vertices: np.ndarray  # (V, 3) float64, cm
    tets: np.ndarray      # (T, 4) int64
    tet_sub: np.ndarray   # (T,) int64 substructure of each tet, ids 0..N-1
    sub_region: np.ndarray = None  # (N,) int64 region of each substructure

    def __post_init__(self):
        subs = np.unique(self.tet_sub)
        if not np.array_equal(subs, np.arange(len(subs))):
            raise MeshError(f"substructure ids must form a contiguous range 0..N-1, got {subs}")
        region = np.arange(len(subs)) if self.sub_region is None else self.sub_region
        region = np.array(region, dtype=np.int64)
        object.__setattr__(self, "sub_region", region)
        if len(region) != len(subs):
            raise MeshError(
                f"sub_region has {len(region)} entries, mesh has {len(subs)} substructures"
            )
        regions = np.unique(region)
        if not np.array_equal(regions, np.arange(len(regions))):
            raise MeshError(
                f"region ids must form a contiguous range 0..R-1 starting at the "
                f"bath ({BATH}), got {regions}"
            )
        for arr in (self.vertices, self.tets, self.tet_sub, self.sub_region):
            arr.setflags(write=False)

    @property
    def n_substructures(self) -> int:
        return len(self.sub_region)

    @property
    def n_regions(self) -> int:
        return int(self.sub_region.max()) + 1

    @property
    def spacing(self) -> float:
        """Voxel edge length h in cm."""
        return self.config.cell_edge_cm / self.config.resolution

    def tet_volumes(self) -> np.ndarray:
        _, vol = tet_stiffness_batch(self.vertices[self.tets], np.ones(len(self.tets)))
        return vol


def _tag_voxels(config: MeshConfig) -> np.ndarray:
    n = config.resolution
    cx, cy, cz = config.cells
    gx, gy, gz = cx * n, cy * n, cz * n
    ii, jj, kk = np.meshgrid(np.arange(gx), np.arange(gy), np.arange(gz), indexing="ij")
    # center coordinates local to the owning unit cell, in [0, 1]
    u = ((ii % n) + 0.5) / n
    v = ((jj % n) + 0.5) / n
    w = ((kk % n) + 0.5) / n
    inside_axis = np.stack(
        [(0.25 <= u) & (u <= 0.75), (0.25 <= v) & (v <= 0.75), (0.25 <= w) & (w <= 0.75)]
    )
    hits = inside_axis.sum(axis=0)
    if config.geometry_kind == "repetitive":
        intra = hits >= 2  # plus shape: at least two coordinates in the core band
    else:
        intra = hits == 3  # inset cube
    cell_id = 1 + (ii // n) + (jj // n) * cx + (kk // n) * cx * cy
    return np.where(intra, cell_id, BATH).ravel()


def build_mesh(config: MeshConfig) -> Mesh:
    """Voxelize the box, apply the Kuhn six-tet split, tag substructures
    (one per region: the bath is substructure 0, cell k is substructure k)."""
    n = config.resolution
    cx, cy, cz = config.cells
    gx, gy, gz = cx * n, cy * n, cz * n
    h = config.cell_edge_cm / n

    nx, ny, nz = gx + 1, gy + 1, gz + 1
    ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    vertices = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3).astype(np.float64) * h

    vi, vj, vk = np.meshgrid(np.arange(gx), np.arange(gy), np.arange(gz), indexing="ij")
    origin = np.stack([vi, vj, vk], axis=-1).reshape(-1, 3)       # (Vox, 3)
    corner_idx = origin[:, None, :] + _CORNERS[None, :, :]        # (Vox, 8, 3)
    corner_ids = (corner_idx[..., 0] * ny + corner_idx[..., 1]) * nz + corner_idx[..., 2]
    tets = corner_ids[:, _KUHN].reshape(-1, 4)                    # (6 Vox, 4)

    sub = np.repeat(_tag_voxels(config), 6)
    return Mesh(
        config=config, vertices=vertices, tets=tets, tet_sub=sub,
        sub_region=np.arange(config.n_regions),
    )


@dataclass(frozen=True)
class FaceGroup:
    """All interface triangles shared by one pair of substructures."""

    sub_i: int
    sub_j: int            # sub_i < sub_j
    region_i: int         # region of sub_i
    region_j: int         # region of sub_j
    triangles: np.ndarray  # (m, 3) vertex ids
    nodes: np.ndarray      # sorted unique vertex ids
    node_weights: np.ndarray  # lumped P1 surface-mass weights per node
    area: float

    @property
    def kind(self) -> str:
        """``"membrane"`` between the bath and a cell, ``"gap"`` between two
        cells, ``"conforming"`` between two substructures of one region."""
        if self.region_i == self.region_j:
            return "conforming"
        return "membrane" if BATH in (self.region_i, self.region_j) else "gap"

    @property
    def is_membrane(self) -> bool:
        return self.kind == "membrane"


@dataclass(frozen=True)
class JunctionEdge:
    """1D junction where three substructures meet (rim of a shared face)."""

    subs: tuple            # sorted triple (i, j, k)
    segments: np.ndarray   # (m, 2) vertex ids
    nodes: np.ndarray      # sorted unique vertex ids
    vertex_nodes: np.ndarray  # polyline endpoints / branch points
    node_weights: np.ndarray  # lumped P1 line-mass weights per node
    length: float


@dataclass(frozen=True)
class InterfaceTopology:
    """Faces, junction edges, subdomain vertices and node multiplicities."""

    n_substructures: int
    faces: list = field(default_factory=list)
    junctions: list = field(default_factory=list)
    subdomain_vertices: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    node_sub_ptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    node_sub_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def node_subs(self, node: int) -> np.ndarray:
        """Sorted substructure ids whose closure contains the node."""
        return self.node_sub_ids[self.node_sub_ptr[node]:self.node_sub_ptr[node + 1]]

    @property
    def multiplicity(self) -> np.ndarray:
        return np.diff(self.node_sub_ptr)

    def face_group(self, i: int, j: int):
        a, b = min(i, j), max(i, j)
        for fg in self.faces:
            if fg.sub_i == a and fg.sub_j == b:
                return fg
        return None

    def junction(self, i: int, j: int, k: int):
        key = tuple(sorted((i, j, k)))
        for je in self.junctions:
            if je.subs == key:
                return je
        return None


def _face_lumped_weights(vertices, triangles, nodes):
    _, areas = tri_mass_batch(vertices[triangles])
    w = np.zeros(len(nodes))
    idx = np.searchsorted(nodes, triangles)
    np.add.at(w, idx.ravel(), np.repeat(areas / 3.0, 3))
    return w, float(areas.sum())


def _segment_lengths(vertices, segments):
    d = vertices[segments[:, 0]] - vertices[segments[:, 1]]
    return np.linalg.norm(d, axis=1)


def extract_interfaces(mesh: Mesh) -> InterfaceTopology:
    """Collect interface triangles per substructure pair plus 1D junctions.

    Raises :class:`TopologyError` if any triangle is shared by more than two
    tetrahedra (non-manifold input).
    """
    tets, sub = mesh.tets, mesh.tet_sub
    nv = len(mesh.vertices)

    local_faces = tets[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]]  # (T, 4, 3)
    faces = np.sort(local_faces.reshape(-1, 3), axis=1)
    owner = np.repeat(np.arange(len(tets)), 4)

    key = (faces[:, 0] * nv + faces[:, 1]) * nv + faces[:, 2]
    order = np.argsort(key, kind="stable")
    key_s, owner_s = key[order], owner[order]
    uniq, start, counts = np.unique(key_s, return_index=True, return_counts=True)
    if counts.max(initial=0) > 2:
        bad = uniq[np.argmax(counts)]
        raise TopologyError(
            f"non-manifold mesh: triangle key {bad} shared by {counts.max()} tets"
        )

    shared = counts == 2
    t1 = owner_s[start[shared]]
    t2 = owner_s[start[shared] + 1]
    iface = sub[t1] != sub[t2]
    tri = faces[order[start[shared][iface]]]
    pa = np.minimum(sub[t1][iface], sub[t2][iface])
    pb = np.maximum(sub[t1][iface], sub[t2][iface])

    # group triangles by substructure pair
    pair_key = pa * (mesh.n_substructures + 1) + pb
    order2 = np.argsort(pair_key, kind="stable")
    tri, pa, pb, pair_key = tri[order2], pa[order2], pb[order2], pair_key[order2]
    boundaries = np.flatnonzero(np.diff(pair_key)) + 1
    groups = np.split(np.arange(len(tri)), boundaries)

    face_groups = []
    group_edges = []
    for g in groups:
        if len(g) == 0:
            continue
        i, j = int(pa[g[0]]), int(pb[g[0]])
        tris = np.ascontiguousarray(tri[g])
        nodes = np.unique(tris)
        weights, area = _face_lumped_weights(mesh.vertices, tris, nodes)
        face_groups.append(
            FaceGroup(
                i, j, int(mesh.sub_region[i]), int(mesh.sub_region[j]),
                tris, nodes, weights, area,
            )
        )
        edges = np.sort(tris[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2), axis=1)
        group_edges.append(edges[:, 0] * nv + edges[:, 1])

    # 1D junctions: an edge on two face groups that share one substructure
    # lies on the junction of their three; pair up the groups of every edge
    n_fg = len(face_groups)
    fg_subs = np.array([(fg.sub_i, fg.sub_j) for fg in face_groups], np.int64).reshape(-1, 2)
    keyed = [e * n_fg + g for g, e in enumerate(group_edges)]  # edge, then group
    on = np.unique(np.concatenate([np.empty(0, np.int64), *keyed]))
    edge_keys, on_subs = on // n_fg, fg_subs[on % n_fg]
    triples, seg_found = [np.empty((0, 3), np.int64)], [np.empty(0, np.int64)]
    for d in range(1, len(on)):
        same = np.flatnonzero(edge_keys[d:] == edge_keys[:-d])
        if len(same) == 0:
            break  # no edge lies on more than d face groups
        # the two groups' four subs, sorted; sharing one leaves three distinct
        four = np.sort(np.hstack([on_subs[same], on_subs[same + d]]), axis=1)
        meet = np.any(four[:, 1:] == four[:, :-1], axis=1)
        mid = np.where(four[:, 1] == four[:, 0], four[:, 2], four[:, 1])
        triples.append(np.stack([four[:, 0], mid, four[:, 3]], axis=1)[meet])
        seg_found.append(edge_keys[same][meet])
    triples, seg_found = np.concatenate(triples), np.concatenate(seg_found)
    by_triple = np.lexsort(triples.T[::-1])
    keys3, start = np.unique(triples[by_triple], axis=0, return_index=True)

    junctions, vert_nodes = [], []
    for key3, found in zip(keys3, np.split(seg_found[by_triple], start[1:])):
        seg_keys = np.unique(found)
        segments = np.stack([seg_keys // nv, seg_keys % nv], axis=1)
        nodes, degree = np.unique(segments, return_counts=True)
        endpoints = nodes[degree != 2]
        lengths = _segment_lengths(mesh.vertices, segments)
        idx = np.searchsorted(nodes, segments)
        w = np.bincount(idx.ravel(), np.repeat(lengths / 2.0, 2), len(nodes))
        junctions.append(JunctionEdge(
            tuple(int(t) for t in key3), segments, nodes, endpoints, w, float(lengths.sum())
        ))
        vert_nodes.append(endpoints)

    vertices_all = np.unique(np.concatenate([np.empty(0, np.int64), *vert_nodes]))

    # node -> substructure incidence
    pairs_ns = np.unique(tets.ravel() * (mesh.n_substructures + 1) + np.repeat(sub, 4))
    ns_node, ns_sub = pairs_ns // (mesh.n_substructures + 1), pairs_ns % (
        mesh.n_substructures + 1
    )
    ptr = np.zeros(nv + 1, dtype=np.int64)
    np.add.at(ptr, ns_node + 1, 1)
    np.cumsum(ptr, out=ptr)

    return InterfaceTopology(
        n_substructures=mesh.n_substructures,
        faces=face_groups,
        junctions=junctions,
        subdomain_vertices=vertices_all,
        node_sub_ptr=ptr,
        node_sub_ids=ns_sub,
    )


def export_vtk(mesh: Mesh, path, title: str = "emibddc mesh") -> None:
    """Write the mesh as a legacy ASCII VTK unstructured grid.

    Cell type is 10 (tetrahedron) throughout; the substructure tag is stored
    as an integer cell-data array named ``substructure``.
    """
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(f"{title}\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {len(mesh.vertices)} double\n")
        np.savetxt(f, mesh.vertices, fmt="%.17g")
        f.write(f"CELLS {len(mesh.tets)} {5 * len(mesh.tets)}\n")
        cells = np.column_stack([np.full(len(mesh.tets), 4, np.int64), mesh.tets])
        np.savetxt(f, cells, fmt="%d")
        f.write(f"CELL_TYPES {len(mesh.tets)}\n")
        np.savetxt(f, np.full(len(mesh.tets), 10, np.int64), fmt="%d")
        f.write(f"CELL_DATA {len(mesh.tets)}\n")
        f.write("SCALARS substructure int 1\nLOOKUP_TABLE default\n")
        np.savetxt(f, mesh.tet_sub, fmt="%d")


def load_vtk(path):
    """Minimal reader for files written by :func:`export_vtk`.

    Returns ``(points, tets, cell_types, substructure)`` arrays.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    idx = 0

    def seek(prefix):
        nonlocal idx
        while idx < len(lines) and not lines[idx].startswith(prefix):
            idx += 1
        if idx == len(lines):
            raise MeshError(f"VTK section {prefix!r} not found in {path}")
        return lines[idx].split()

    hdr = seek("POINTS")
    npts = int(hdr[1])
    pts = np.array(
        " ".join(lines[idx + 1:idx + 1 + npts]).split(), dtype=float
    ).reshape(npts, 3)
    hdr = seek("CELLS")
    ncell = int(hdr[1])
    raw = np.array(
        " ".join(lines[idx + 1:idx + 1 + ncell]).split(), dtype=np.int64
    ).reshape(ncell, 5)
    if not np.all(raw[:, 0] == 4):
        raise MeshError("expected tetrahedral cells only")
    hdr = seek("CELL_TYPES")
    types = np.array(
        " ".join(lines[idx + 1:idx + 1 + ncell]).split(), dtype=np.int64
    )
    seek("SCALARS")
    idx += 2  # skip LOOKUP_TABLE line
    tags = np.array(" ".join(lines[idx:idx + ncell]).split(), dtype=np.int64)
    return pts, raw[:, 1:], types, tags
