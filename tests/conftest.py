import numpy as np
import pytest

from emibddc.geometry import Mesh, MeshConfig, build_mesh, extract_interfaces
from emibddc.assembly import ModelParams
from emibddc.harness import build_problem, make_preconditioner


def _orient(verts, tets):
    v = verts[tets]
    vol6 = np.einsum("ij,ij->i", np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), v[:, 3] - v[:, 0])
    flip = vol6 < 0
    tets = tets.copy()
    tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2]
    return tets


def _split_tets(verts, tets, sub):
    """One level of 1:8 red subdivision (corner tets + octahedron split)."""
    verts = [v for v in verts]
    mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = len(verts)
            verts.append((np.asarray(verts[a]) + np.asarray(verts[b])) / 2.0)
        return mid[key]

    out_t, out_s = [], []
    for t, s in zip(tets, sub):
        v0, v1, v2, v3 = t
        m01, m02, m03 = midpoint(v0, v1), midpoint(v0, v2), midpoint(v0, v3)
        m12, m13, m23 = midpoint(v1, v2), midpoint(v1, v3), midpoint(v2, v3)
        out_t += [
            (v0, m01, m02, m03), (v1, m01, m12, m13),
            (v2, m02, m12, m23), (v3, m03, m13, m23),
            (m01, m23, m02, m12), (m01, m23, m12, m13),
            (m01, m23, m13, m03), (m01, m23, m03, m02),
        ]
        out_s += [s] * 8
    verts = np.asarray(verts, dtype=float)
    return verts, _orient(verts, np.array(out_t)), np.array(out_s)


def tetra_patch(levels: int = 2) -> Mesh:
    """Four substructures filling a reference tetrahedron around its centroid.

    Every substructure shares a face with every other one; the four junction
    edges run from the corners to the centroid, so each substructure touches
    three interface faces, three junction edges and four subdomain vertices.
    """
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    verts = np.vstack([corners, corners.mean(axis=0)[None, :]])
    tets = _orient(verts, np.array([[0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]]))
    sub = np.arange(4)
    for _ in range(levels):
        verts, tets, sub = _split_tets(verts, tets, sub)
    return Mesh(MeshConfig(), verts, tets, sub)


@pytest.fixture(scope="session")
def patch_mesh():
    return tetra_patch(levels=2)


@pytest.fixture(scope="session")
def patch_topo(patch_mesh):
    return extract_interfaces(patch_mesh)


@pytest.fixture(scope="session")
def split_bath():
    """The two-cell row, unchanged and with its bath re-tagged as
    substructures 0 (x below one cell edge) and 3 (above), both of region 0."""
    whole = build_mesh(MeshConfig(cells_x=2))
    centroid_x = whole.vertices[whole.tets].mean(axis=1)[:, 0]
    tet_sub = np.where(
        (whole.tet_sub == 0) & (centroid_x > whole.config.cell_edge_cm), 3, whole.tet_sub
    )
    split = Mesh(
        whole.config, whole.vertices, whole.tets, tet_sub, sub_region=np.array([0, 1, 2, 0])
    )
    return whole, split


@pytest.fixture(scope="session")
def problem_1cell():
    """Single cell in a bath: 193 interface dofs, no junctions."""
    return build_problem(MeshConfig(cells_x=1, cells_y=1, cells_z=1), ModelParams())


@pytest.fixture(scope="session")
def problem_2cell():
    """Two cells in a row: includes gap junctions and a junction edge."""
    return build_problem(MeshConfig(cells_x=2, cells_y=1, cells_z=1), ModelParams())


@pytest.fixture(scope="session")
def precond_2cell_vef(problem_2cell):
    return make_preconditioner(problem_2cell, "vef")


@pytest.fixture(scope="session")
def precond_2cell_ve(problem_2cell):
    return make_preconditioner(problem_2cell, "ve")
