import numpy as np
import numpy.testing as npt
import pytest

from emibddc.errors import ConstraintError
from emibddc.femspace import build_composite_space, build_primal_constraints
from emibddc.geometry import BATH, MeshConfig, build_mesh, extract_interfaces


@pytest.fixture(scope="module")
def two_cell_space():
    mesh = build_mesh(MeshConfig(cells_x=2, cells_y=1, cells_z=1))
    topo = extract_interfaces(mesh)
    return mesh, topo, build_composite_space(mesh, topo)


def _global_table(mesh):
    """Global id of every (region, node), -1 off the region's closure, from
    the mesh alone: the regions in turn, each region's nodes in order."""
    on_closure = np.zeros((mesh.n_regions, len(mesh.vertices)), dtype=bool)
    tet_region = mesh.sub_region[mesh.tet_sub]
    for r in range(mesh.n_regions):
        on_closure[r, mesh.tets[tet_region == r].ravel()] = True
    table = np.full(on_closure.shape, -1, dtype=np.int64)
    table[on_closure] = np.arange(on_closure.sum())
    return table


def _node_of(mesh, dm, sub, pos):
    """Geometric node of a local dof, through its global id."""
    nodes = np.nonzero(_global_table(mesh) >= 0)[1]
    return nodes[dm.local_to_global[sub][np.asarray(pos)]]


def _broken_reference(mesh, topo):
    """(holder, side region, node) of every broken interface dof, listed per
    holder: its own interface nodes, then its copies of each other region it
    shares a face with, from the faces' nodes; and the assembled interface
    dofs (the own entries' global ids) in order.  Built from ``mesh.tets``
    and the face groups alone."""
    copies = {}
    for fg in topo.faces:
        if fg.kind != "conforming":
            copies.setdefault((fg.sub_i, fg.region_j), set()).update(fg.nodes.tolist())
            copies.setdefault((fg.sub_j, fg.region_i), set()).update(fg.nodes.tolist())
    holder, side, node = [], [], []
    for i in range(mesh.n_substructures):
        closure = np.unique(mesh.tets[mesh.tet_sub == i])
        blocks = [(mesh.sub_region[i], closure[topo.multiplicity[closure] >= 2])]
        blocks += [(r, np.array(sorted(copies[(h, r)]))) for h, r in sorted(copies) if h == i]
        for r, nodes in blocks:
            holder.append(np.full(len(nodes), i, np.int64))
            side.append(np.full(len(nodes), r, np.int64))
            node.append(nodes)
    holder, side, node = (np.concatenate(a) for a in (holder, side, node))
    is_own = side == mesh.sub_region[holder]
    gamma_global = np.unique(_global_table(mesh)[side[is_own], node[is_own]])
    return holder, side, node, gamma_global


def _assert_layout(dm, holder, gamma_global):
    """``bro_ptr``, ``bro_holder`` and ``gamma_global`` match the reference."""
    sizes = np.bincount(holder, minlength=dm.n_substructures)
    npt.assert_array_equal(dm.bro_ptr, np.concatenate([[0], np.cumsum(sizes)]))
    npt.assert_array_equal(dm.bro_holder, holder)
    npt.assert_array_equal(dm.gamma_global, gamma_global)


def test_global_dofs_count_one_per_node_side(two_cell_space):
    mesh, topo, dm = two_cell_space
    n_global = int(topo.multiplicity.sum())
    assert n_global == 362
    assert max(m.max() for m in dm.local_to_global) + 1 == n_global
    assert dm.n_gamma == 266
    npt.assert_array_equal(dm.n_interior, [72, 12, 12])


def test_copy_group_sizes(two_cell_space):
    """Face-interior traces are duplicated once; junction traces twice."""
    mesh, topo, dm = two_cell_space
    sizes = np.bincount(dm.bro_gamma)
    hist = {int(s): int((sizes == s).sum()) for s in np.unique(sizes)}
    assert hist == {2: 242, 3: 24}
    # the junction ring carries 8 nodes x 3 sides
    ring = topo.junctions[0]
    assert len(ring.nodes) == 8
    assert ring.vertex_nodes.size == 0  # closed loop, no endpoints


def test_junction_node_has_nine_broken_dofs(two_cell_space):
    mesh, topo, dm = two_cell_space
    holder, bro_side, bro_node, gamma_global = _broken_reference(mesh, topo)
    _assert_layout(dm, holder, gamma_global)
    node = topo.junctions[0].nodes[0]
    at_node = np.flatnonzero(bro_node == node)
    assert len(at_node) == 9
    assert sorted(set(dm.bro_holder[at_node])) == [0, 1, 2]
    assert sorted(set(bro_side[at_node])) == [0, 1, 2]


def test_broken_bookkeeping_consistency(two_cell_space):
    mesh, topo, dm = two_cell_space
    holder, side, _, gamma_global = _broken_reference(mesh, topo)
    _assert_layout(dm, holder, gamma_global)
    # copies and own entries agree with the per-substructure slices
    for s in range(mesh.n_substructures):
        sl = dm.gamma_slice(s)
        assert sl.stop - sl.start == np.sum(holder == s)
        assert dm.n_local[s] == dm.n_interior[s] + np.sum(holder == s)
    assert dm.n_broken == len(holder)
    # every broken entry points at a valid compact-gamma slot
    assert dm.bro_gamma.min() >= 0 and dm.bro_gamma.max() < dm.n_gamma
    # each group holds exactly one own entry (one substructure per region)
    own_per_group = np.zeros(dm.n_gamma, dtype=int)
    np.add.at(own_per_group, dm.bro_gamma[side == mesh.sub_region[holder]], 1)
    npt.assert_array_equal(own_per_group, np.ones(dm.n_gamma, dtype=int))


@pytest.mark.parametrize("which", ["two_cell", "split_bath"])
def test_one_lookup_for_own_values_and_copies(which, request):
    """``local_ids`` finds every broken dof of the reference, own value or
    trace copy, through one (region, node) lookup; ``holds`` is true exactly
    for the values a substructure holds."""
    if which == "two_cell":
        mesh, topo, dm = request.getfixturevalue("two_cell_space")
    else:
        mesh = request.getfixturevalue("split_bath")[1]
        topo = extract_interfaces(mesh)
        dm = build_composite_space(mesh, topo)
    holder, side, node, _ = _broken_reference(mesh, topo)
    table = _global_table(mesh)
    closures = [np.unique(mesh.tets[mesh.tet_sub == i]) for i in range(mesh.n_substructures)]
    n_interior = np.array([np.sum(topo.multiplicity[c] < 2) for c in closures])
    # the broken dofs follow each holder's interior dofs in reference order
    first = np.searchsorted(holder, holder)
    position = n_interior[holder] + np.arange(len(holder)) - first
    for h, r, x, pos in zip(holder, side, node, position):
        assert dm.holds(h, r, [x])
        assert dm.local_ids(h, r, [x])[0] == pos
        assert dm.local_to_global[h][pos] == dm.global_ids(r, x) == table[r, x]

    # each substructure holds its own region on its closure and copies of
    # another region only at the reference's copy nodes; nothing else
    for h in range(mesh.n_substructures):
        for r in range(mesh.n_regions):
            if r == mesh.sub_region[h]:
                expected = closures[h]
            else:
                expected = node[(holder == h) & (side == r)]
            held = [x for x in range(len(mesh.vertices)) if dm.holds(h, r, [x])]
            npt.assert_array_equal(held, expected)
            # several nodes at once: held only if every one is
            missing = np.setdiff1d(np.arange(len(mesh.vertices)), expected)
            if len(expected):
                assert dm.holds(h, r, expected)
                assert not dm.holds(h, r, np.append(expected, missing[0]))

    if which == "split_bath":
        # bath piece 0 does not border cell 2
        assert not dm.holds(0, 2, closures[0][:1])
        cut = topo.face_group(0, 3)
        for h in (0, 3):
            # region 0 at the cut is each piece's own value, in its own block;
            # the loop above shows that neither holds copies of region 0
            assert mesh.sub_region[h] == BATH and dm.holds(h, BATH, cut.nodes)
            assert np.all(dm.local_ids(h, BATH, cut.nodes) < len(closures[h]))


def _hosted_counts(cs, sub):
    """(face rows, edge rows, vertex points) that one substructure hosts."""
    hosted = [cs.classes[ci] for ci, _ in cs.rows_of(sub)]
    face = sum(cl.kind == "face" for cl in hosted)
    edge = sum(cl.kind == "edge" for cl in hosted)
    points = {cl.entity for cl in hosted if cl.kind == "vertex"}
    return face, edge, len(points)


def test_patch_hosted_constraint_counts(patch_mesh, patch_topo):
    """Each substructure of the patch hosts 6 face rows, 9 edge rows and 4
    vertex points with the full primal space, and loses exactly the face rows
    when face averages are dropped."""
    dm = build_composite_space(patch_mesh, patch_topo)
    cs = build_primal_constraints(dm, patch_topo, "vef")
    for s in range(4):
        assert _hosted_counts(cs, s) == (6, 9, 4)
    assert cs.coarse_dim == 40
    cs_ve = build_primal_constraints(dm, patch_topo, "ve")
    for s in range(4):
        assert _hosted_counts(cs_ve, s) == (0, 9, 4)
    assert cs_ve.coarse_dim == 28


def test_edge_average_reproduces_linear_midpoint(patch_mesh, patch_topo):
    """A length-weighted average over a straight edge is exact for linear
    fields: it must return the value at the edge midpoint."""
    dm = build_composite_space(patch_mesh, patch_topo)
    cs = build_primal_constraints(dm, patch_topo, "vef")
    f = lambda p: 2.0 * p[..., 0] - 3.0 * p[..., 1] + 0.5 * p[..., 2] + 1.25
    checked = 0
    for cl in cs.classes:
        if cl.kind != "edge":
            continue
        jn = patch_topo.junction(*cl.entity)
        mid = patch_mesh.vertices[jn.vertex_nodes].mean(axis=0)
        for row in cl.rows:
            nodes = _node_of(patch_mesh, dm, row.sub, row.local_dofs)
            val = np.dot(row.weights, f(patch_mesh.vertices[nodes]))
            npt.assert_allclose(val, f(mid), rtol=1e-13)
            checked += 1
    assert checked == 4 * 3 * 3  # 4 junctions x 3 sides x 3 rows


def test_face_average_is_exact_for_linear_fields(patch_mesh, patch_topo):
    dm = build_composite_space(patch_mesh, patch_topo)
    cs = build_primal_constraints(dm, patch_topo, "vef")
    f = lambda p: 1.0 * p[..., 0] + 4.0 * p[..., 1] - 2.0 * p[..., 2] + 0.5
    checked = 0
    for cl in cs.classes:
        if cl.kind != "face":
            continue
        fg = patch_topo.face_group(*cl.entity)
        tp = patch_mesh.vertices[fg.triangles]
        areas = 0.5 * np.linalg.norm(
            np.cross(tp[:, 1] - tp[:, 0], tp[:, 2] - tp[:, 0]), axis=1
        )
        exact = (areas * f(tp.mean(axis=1))).sum() / areas.sum()
        for row in cl.rows:
            nodes = _node_of(patch_mesh, dm, row.sub, row.local_dofs)
            val = np.dot(row.weights, f(patch_mesh.vertices[nodes]))
            npt.assert_allclose(val, exact, rtol=1e-13)
            checked += 1
    assert checked == 6 * 2 * 2  # 6 faces x 2 sides x 2 rows


def test_constraint_rows_sum_to_one(two_cell_space, patch_mesh, patch_topo):
    for dm, topo in [
        (two_cell_space[2], two_cell_space[1]),
        (build_composite_space(patch_mesh, patch_topo), patch_topo),
    ]:
        cs = build_primal_constraints(dm, topo, "vef")
        for cl in cs.classes:
            for row in cl.rows:
                npt.assert_allclose(np.sum(row.weights), 1.0, rtol=1e-14)
                assert len(row.weights) == len(row.local_dofs)


def test_vertex_classes_identify_all_copies(patch_mesh, patch_topo):
    dm = build_composite_space(patch_mesh, patch_topo)
    cs = build_primal_constraints(dm, patch_topo, "vef")
    vertex_classes = [cl for cl in cs.classes if cl.kind == "vertex"]
    # centroid carries 4 sides with 4 holders each; corners 3 sides x 3 holders
    sizes = sorted(len(cl.rows) for cl in vertex_classes)
    assert len(vertex_classes) == 16
    assert sizes == [3] * 12 + [4] * 4


def test_ve_variant_drops_face_classes(two_cell_space):
    mesh, topo, dm = two_cell_space
    vef = build_primal_constraints(dm, topo, "vef")
    ve = build_primal_constraints(dm, topo, "ve")
    assert sum(1 for cl in ve.classes if cl.kind == "face") == 0
    assert sum(1 for cl in vef.classes if cl.kind == "face") == 2 * len(topo.faces)
    assert ve.coarse_dim < vef.coarse_dim
    assert vef.variant == "vef" and ve.variant == "ve"


def test_unknown_variant_rejected(two_cell_space):
    mesh, topo, dm = two_cell_space
    with pytest.raises((ConstraintError, ValueError)):
        build_primal_constraints(dm, topo, "vefx")


def test_rows_of_matches_counts(patch_mesh, patch_topo):
    dm = build_composite_space(patch_mesh, patch_topo)
    cs = build_primal_constraints(dm, patch_topo, "vef")
    for s in range(4):
        face_rows, edge_rows, vertex_points = _hosted_counts(cs, s)
        # every vertex point contributes one one-dof row per side present
        # there: the centroid is shared by all four substructures, the
        # corners by three
        vertex_rows = [row for ci, row in cs.rows_of(s) if cs.classes[ci].kind == "vertex"]
        assert len(vertex_rows) == 4 + 3 * 3
        assert all(len(row.local_dofs) == 1 and row.weights[0] == 1.0 for row in vertex_rows)
        assert len(cs.rows_of(s)) == face_rows + edge_rows + len(vertex_rows)
        assert vertex_points == 4


@pytest.mark.parametrize("which", ["patch", "convex_2x2x1"])
def test_bro_gamma_matches_per_dof_lookup(which, patch_mesh, patch_topo):
    """The grouped lookup gives every broken dof the assembled dof that a
    per-dof search of its side region's sorted nodes gives."""
    if which == "patch":
        mesh, topo = patch_mesh, patch_topo
    else:
        mesh = build_mesh(
            MeshConfig(cells_x=2, cells_y=2, cells_z=1, geometry_kind="convex_cells")
        )
        topo = extract_interfaces(mesh)
    dm = build_composite_space(mesh, topo)
    holder, bro_side, bro_node, gamma_global = _broken_reference(mesh, topo)
    _assert_layout(dm, holder, gamma_global)
    full_to_gamma = np.full(dm.n_global, -1, dtype=np.int64)
    full_to_gamma[gamma_global] = np.arange(len(gamma_global))
    table = _global_table(mesh)
    reference = np.array(
        [full_to_gamma[table[r, x]] for r, x in zip(bro_side, bro_node)], dtype=np.int64
    )
    assert len(reference) == dm.n_broken > 0
    assert dm.bro_gamma.dtype == reference.dtype
    npt.assert_array_equal(dm.bro_gamma, reference)
    assert dm.bro_gamma.min() >= 0
