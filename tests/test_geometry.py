from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from emibddc.errors import MeshError, TopologyError
from emibddc.geometry import (
    BATH,
    Mesh,
    MeshConfig,
    build_mesh,
    export_vtk,
    extract_interfaces,
    load_vtk,
)


# (cells, tets, nodes, substructures, face groups, junction edges)
GRID_COUNTS = [
    ((1, 1, 1), 384, 125, 2, 1, 0),
    ((2, 1, 1), 768, 225, 3, 3, 1),
    ((2, 2, 1), 1536, 405, 5, 8, 4),
    ((2, 2, 2), 3072, 729, 9, 20, 12),
]


@pytest.mark.parametrize("cells,n_tets,n_nodes,n_subs,n_faces,n_junctions", GRID_COUNTS)
def test_grid_counts(cells, n_tets, n_nodes, n_subs, n_faces, n_junctions):
    cfg = MeshConfig(cells_x=cells[0], cells_y=cells[1], cells_z=cells[2])
    mesh = build_mesh(cfg)
    topo = extract_interfaces(mesh)
    assert len(mesh.tets) == n_tets
    assert len(mesh.vertices) == n_nodes
    assert mesh.n_substructures == n_subs
    assert len(topo.faces) == n_faces
    assert len(topo.junctions) == n_junctions


def test_volume_tiling():
    """Tet volumes tile the bounding box exactly (conforming voxel split)."""
    for kind in ("repetitive", "convex_cells"):
        cfg = MeshConfig(cells_x=2, cells_y=1, cells_z=1, geometry_kind=kind)
        mesh = build_mesh(cfg)
        box = np.prod(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0))
        npt.assert_allclose(mesh.tet_volumes().sum(), box, rtol=1e-12)
        assert (mesh.tet_volumes() > 0).all()


def test_junctions_are_triples():
    mesh = build_mesh(MeshConfig(cells_x=2, cells_y=2, cells_z=2))
    topo = extract_interfaces(mesh)
    for j in topo.junctions:
        assert len(j.subs) == 3
        assert len(set(j.subs)) == 3
        assert j.length > 0
        npt.assert_allclose(j.node_weights.sum(), j.length, rtol=1e-12)


def _junctions_by_face_pairs(mesh, topo):
    """Junction segments found the direct way: the edges that every pair of
    face groups sharing one substructure have in common, per triple."""
    nv = len(mesh.vertices)
    edges = {}
    for fg in topo.faces:
        e = np.sort(fg.triangles[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2), axis=1)
        edges[(fg.sub_i, fg.sub_j)] = np.unique(e[:, 0] * nv + e[:, 1])
    found = {}
    pairs = sorted(edges)
    for a, pa in enumerate(pairs):
        for pb in pairs[a + 1:]:
            triple = tuple(sorted(set(pa) | set(pb)))
            common = np.intersect1d(edges[pa], edges[pb])
            if len(triple) == 3 and len(common):
                found[triple] = np.union1d(found.get(triple, common), common)
    return [(t, np.stack([k // nv, k % nv], axis=1)) for t, k in sorted(found.items())]


@pytest.mark.parametrize("name", ["grid", "patch", "split_bath"])
def test_junctions_match_face_pair_intersection(name, patch_mesh, split_bath):
    mesh = {
        "grid": build_mesh(MeshConfig(cells_x=2, cells_y=2, cells_z=2)),
        "patch": patch_mesh,
        "split_bath": split_bath[1],
    }[name]
    topo = extract_interfaces(mesh)
    expected = _junctions_by_face_pairs(mesh, topo)
    assert [je.subs for je in topo.junctions] == [t for t, _ in expected]
    for je, (_, segments) in zip(topo.junctions, expected):
        npt.assert_array_equal(je.segments, segments)


def test_multiplicity_bounds():
    mesh = build_mesh(MeshConfig(cells_x=2, cells_y=2, cells_z=1))
    topo = extract_interfaces(mesh)
    assert int(topo.multiplicity.max()) == 3
    single = build_mesh(MeshConfig())
    assert int(extract_interfaces(single).multiplicity.max()) == 2


def test_face_groups_partition_interface():
    mesh = build_mesh(MeshConfig(cells_x=2, cells_y=1, cells_z=1))
    topo = extract_interfaces(mesh)
    for fg in topo.faces:
        assert fg.sub_i < fg.sub_j
        assert fg.area > 0
        npt.assert_allclose(fg.node_weights.sum(), fg.area, rtol=1e-12)
        # membrane faces join the bath region to a cell region, gap
        # junctions join two cell regions; this mesh has no conforming face
        regions = {fg.region_i, fg.region_j}
        assert (fg.region_i, fg.region_j) == tuple(mesh.sub_region[[fg.sub_i, fg.sub_j]])
        assert len(regions) == 2
        assert fg.is_membrane == (BATH in regions)
        assert fg.kind == ("membrane" if BATH in regions else "gap")
    membranes = [fg for fg in topo.faces if fg.is_membrane]
    gaps = [fg for fg in topo.faces if not fg.is_membrane]
    assert len(membranes) == 2 and len(gaps) == 1


def test_convex_cells_have_no_junctions():
    cfg = MeshConfig(cells_x=2, cells_y=1, cells_z=1, geometry_kind="convex_cells")
    topo = extract_interfaces(build_mesh(cfg))
    assert len(topo.junctions) == 0
    assert topo.subdomain_vertices.size == 0
    assert int(topo.multiplicity.max()) == 2


def test_refinement_nests_vertices():
    cfg = MeshConfig(cells_x=1, cells_y=1, cells_z=1)
    coarse = build_mesh(cfg)
    fine = build_mesh(replace(cfg, refinement=1))
    assert len(fine.tets) == 8 * len(coarse.tets)
    npt.assert_allclose(fine.spacing, coarse.spacing / 2.0, rtol=1e-15)
    # every coarse vertex must reappear exactly in the fine mesh
    fine_set = {tuple(np.round(v, 12)) for v in fine.vertices}
    for v in coarse.vertices:
        assert tuple(np.round(v, 12)) in fine_set


def test_spacing_property():
    cfg = MeshConfig(cell_edge_mm=100.0, base_resolution=4, refinement=1)
    mesh = build_mesh(cfg)
    npt.assert_allclose(mesh.spacing, 10.0 / 8.0, rtol=1e-15)


def test_vtk_roundtrip(tmp_path):
    mesh = build_mesh(MeshConfig(cells_x=2, cells_y=1, cells_z=1))
    path = tmp_path / "mesh.vtk"
    export_vtk(mesh, path)
    verts, tets, cell_types, sub = load_vtk(path)
    npt.assert_allclose(verts, mesh.vertices, rtol=0, atol=1e-12)
    npt.assert_array_equal(tets, mesh.tets)
    npt.assert_array_equal(cell_types, np.full(len(mesh.tets), 10))
    npt.assert_array_equal(sub, mesh.tet_sub)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(cells_x=0),
        dict(refinement=-1),
        dict(base_resolution=3),
        dict(base_resolution=0),
        dict(geometry_kind="spherical"),
        dict(geometry_kind="convex_cells", cells_x=3),
        dict(cell_edge_mm=0.0),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(MeshError):
        MeshConfig(**kwargs)


def test_noncontiguous_substructure_ids_rejected():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tets = np.array([[0, 1, 2, 3]])
    with pytest.raises(MeshError):
        Mesh(MeshConfig(), verts, tets, np.array([1]))
    # region table: one entry per substructure, ids 0..R-1 with the bath (0)
    verts = np.vstack([verts, [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]])
    tets = np.array([[0, 1, 2, 3], [1, 2, 3, 4], [0, 1, 2, 5]])
    sub = np.array([0, 1, 2])
    npt.assert_array_equal(Mesh(MeshConfig(), verts, tets, sub).sub_region, [0, 1, 2])
    assert Mesh(MeshConfig(), verts, tets, sub, np.array([0, 1, 0])).n_regions == 2
    for sub_region, message in (
        ([0, 1], "3 substructures"),
        ([0, 1, 2, 3], "3 substructures"),
        ([1, 1, 2], "contiguous"),
        ([0, 2, 2], "contiguous"),
    ):
        with pytest.raises(MeshError, match=message):
            Mesh(MeshConfig(), verts, tets, sub, np.array(sub_region))


def test_nonmanifold_mesh_rejected():
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [1.0, 1.0, 1.0],
        ]
    )
    # three tets share the (0, 1, 2) triangle
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    mesh = Mesh(MeshConfig(), verts, tets, np.array([0, 1, 2]))
    with pytest.raises(TopologyError):
        extract_interfaces(mesh)


def test_patch_topology(patch_mesh, patch_topo):
    """Four substructures around a centroid: all pairs share a face."""
    assert patch_mesh.n_substructures == 4
    assert len(patch_topo.faces) == 6
    assert len(patch_topo.junctions) == 4
    assert patch_topo.subdomain_vertices.size == 5
    npt.assert_allclose(patch_mesh.tet_volumes().sum(), 1.0 / 6.0, rtol=1e-12)
