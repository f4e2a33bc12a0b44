import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from emibddc import _kernels
from emibddc.assembly import (
    AlievPanfilov,
    MembraneState,
    ModelParams,
    assemble_rhs,
    assemble_system,
    compute_jump,
    ionic_step,
    oriented_pair,
    project_compatible,
)
from emibddc.errors import AssemblyError
from emibddc.femspace import build_composite_space
from emibddc.geometry import (
    _CORNERS,
    _KUHN,
    BATH,
    Mesh,
    MeshConfig,
    build_mesh,
    extract_interfaces,
)


UNIT_TET = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
UNIT_TRI = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_reference_tet_stiffness():
    """P1 stiffness of the reference tetrahedron with unit conductivity."""
    ke, vol = _kernels.tet_stiffness_batch(UNIT_TET[None, :, :], np.array([1.0]))
    expected = (1.0 / 6.0) * np.array(
        [
            [3.0, -1.0, -1.0, -1.0],
            [-1.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )
    npt.assert_allclose(ke[0], expected, atol=1e-14)
    npt.assert_allclose(vol[0], 1.0 / 6.0, rtol=1e-14)
    assert np.all(ke[0][expected == 0.0] == 0.0)
    # conductivity scales the block linearly
    ke5, _ = _kernels.tet_stiffness_batch(UNIT_TET[None, :, :], np.array([5.0]))
    npt.assert_allclose(ke5[0], 5.0 * expected, atol=1e-13)
    assert np.all(ke5[0][expected == 0.0] == 0.0)


def test_reference_tri_mass():
    me, area = _kernels.tri_mass_batch(UNIT_TRI[None, :, :])
    expected = (1.0 / 24.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    npt.assert_allclose(me[0], expected, atol=1e-15)
    npt.assert_allclose(area[0], 0.5, rtol=1e-15)


def test_kernel_scaling_laws():
    """Stiffness scales like h, surface mass like h^2 in 3D."""
    ke1, _ = _kernels.tet_stiffness_batch(UNIT_TET[None, :, :], np.array([1.0]))
    ke2, vol2 = _kernels.tet_stiffness_batch(2.0 * UNIT_TET[None, :, :], np.array([1.0]))
    npt.assert_allclose(ke2, 2.0 * ke1, atol=1e-13)
    npt.assert_allclose(vol2[0], 8.0 / 6.0, rtol=1e-14)
    me1, _ = _kernels.tri_mass_batch(UNIT_TRI[None, :, :])
    me2, _ = _kernels.tri_mass_batch(2.0 * UNIT_TRI[None, :, :])
    npt.assert_allclose(me2, 4.0 * me1, atol=1e-13)


def random_elements():
    """64 generic tets, 64 triangles and conductivities, and the generator
    that drew them."""
    rng = np.random.default_rng(42)
    tets = rng.random((64, 4, 3))
    tets[:, 3, 2] += 1.0
    tris = rng.random((64, 3, 3))
    tris[:, 1, 0] += 1.0
    tris[:, 2, 1] += 1.0
    sigma = rng.uniform(0.5, 5.0, 64)
    return rng, tets, tris, sigma


def test_element_kernel_identities():
    """Random elements against identities that hold for exact P1 matrices."""
    rng, tets, tris, sigma = random_elements()
    ke, vol = _kernels.tet_stiffness_batch(tets, sigma)
    e = tets[:, 1:] - tets[:, :1]
    vol_ref = np.einsum("td,td->t", np.cross(e[:, 0], e[:, 1]), e[:, 2]) / 6.0
    npt.assert_allclose(vol, vol_ref, rtol=1e-12)
    scale = np.abs(ke).max(axis=(1, 2), keepdims=True)
    npt.assert_allclose(ke @ np.ones(4) / scale[:, :, 0], 0.0, atol=1e-12)  # constants
    npt.assert_allclose(ke, np.transpose(ke, (0, 2, 1)), rtol=0, atol=1e-12 * scale.max())
    # a linear field u = a.x has the constant gradient a: energy
    # sigma*|vol|*|a|^2, whatever the orientation (35 of the 64 are inverted)
    a = rng.standard_normal((64, 3))
    u = np.einsum("tvd,td->tv", tets, a)
    energy = np.einsum("ti,tij,tj->t", u, ke, u)
    npt.assert_allclose(energy, sigma * np.abs(vol_ref) * (a * a).sum(axis=1), rtol=1e-10)

    me, area = _kernels.tri_mass_batch(tris)
    p, q = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    gram = (p * p).sum(axis=1) * (q * q).sum(axis=1) - (p * q).sum(axis=1) ** 2
    area_ref = 0.5 * np.sqrt(gram)
    npt.assert_allclose(area, area_ref, rtol=1e-12)
    npt.assert_allclose(me.sum(axis=(1, 2)), area_ref, rtol=1e-12)  # 1^T M 1


def reference_stiffness(coords, sigma):
    """sigma * |vol| * G G^T with the gradients G solved from the 4x4
    barycentric system [1 x_v] C = I, independent of the kernel."""
    b = np.concatenate([np.ones(coords.shape[:2] + (1,)), coords], axis=2)
    grads = np.transpose(np.linalg.solve(b, np.eye(4))[:, 1:, :], (0, 2, 1))
    vol = np.abs(np.linalg.det(b)) / 6.0
    return (sigma * vol)[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)


def assert_matches_reference(ke, ref):
    """Every entry within 1e-13 of its diagonal scale sqrt(|r_ii r_jj|)."""
    d = np.sqrt(np.abs(np.einsum("tii->ti", ref)))
    assert np.all(np.abs(ke - ref) <= 1e-13 * d[:, :, None] * d[:, None, :])


def test_kuhn_path_tet_orthogonal_pairs_are_exact_zeros():
    """In a Kuhn path tet x0 -> x0+e_a -> x0+e_a+e_b -> x0+1 the gradients
    of barycentric coordinates two or more steps apart on the path are
    orthogonal, so the three non-path couplings are exactly 0.0.  The voxel
    sits off the origin at the H/h 12 spacing of a 0.1 mm cell, where the
    rounded product leaves residues in some of those pairs."""
    coords = (np.array([7, 2, 9]) + _CORNERS[_KUHN]) * (0.01 / 12)
    ke, _ = _kernels.tet_stiffness_batch(coords, np.full(6, 3.0))
    path = np.argsort(_CORNERS[_KUHN].sum(axis=2), axis=1)  # vertex order along the path
    pairs = [(0, 2), (0, 3), (1, 3)]
    rows = np.array([[p[a] for a, _ in pairs] for p in path])
    cols = np.array([[p[b] for _, b in pairs] for p in path])
    tet = np.arange(6)[:, None]
    assert np.all(ke[tet, rows, cols] == 0.0)
    assert np.all(ke[tet, cols, rows] == 0.0)
    assert np.any(reference_stiffness(coords, np.full(6, 3.0))[tet, rows, cols] != 0.0)
    assert np.count_nonzero(ke) == 6 * 10  # diagonal and path pairs are kept


def test_snap_keeps_genuine_couplings(patch_mesh):
    """On generic tets (the random ones and the red-refined patch mesh) the
    kernel zeroes nothing and agrees with an independent G G^T to 1e-13 of
    the diagonal scale."""
    _, tets, _, sigma = random_elements()
    ke, _ = _kernels.tet_stiffness_batch(tets, sigma)
    assert_matches_reference(ke, reference_stiffness(tets, sigma))
    assert np.all(ke != 0.0)

    coords = patch_mesh.vertices[patch_mesh.tets]
    sigma = np.linspace(1.0, 20.0, len(coords))
    ke, _ = _kernels.tet_stiffness_batch(coords, sigma)
    assert_matches_reference(ke, reference_stiffness(coords, sigma))
    assert np.all(ke != 0.0)


def test_inverted_tets_assemble_like_oriented(patch_mesh):
    """P1 stiffness does not depend on orientation: the patch mesh with
    every tet inverted assembles A, M, K and every local operator of the
    oriented mesh, within 1e-14 of each one's largest entry, with no
    negative diagonal."""
    flipped = Mesh(
        patch_mesh.config, patch_mesh.vertices, patch_mesh.tets[:, [0, 1, 3, 2]],
        patch_mesh.tet_sub,
    )
    _, vol = _kernels.tet_stiffness_batch(
        flipped.vertices[flipped.tets], np.ones(len(flipped.tets))
    )
    assert np.all(vol < 0)
    built = []
    for mesh in (patch_mesh, flipped):
        topo = extract_interfaces(mesh)
        dm = build_composite_space(mesh, topo)
        built.append((dm, assemble_system(mesh, topo, dm, ModelParams())))
    (dm, ops), (dm_flip, ops_flip) = built
    for g, g_flip in zip(dm.local_to_global, dm_flip.local_to_global):
        assert np.array_equal(g, g_flip)
    pairs = [
        (ops.stiffness, ops_flip.stiffness),
        (ops.coupling, ops_flip.coupling),
        (ops.matrix, ops_flip.matrix),
    ] + [(lo.matrix, lo_flip.matrix) for lo, lo_flip in zip(ops.local_ops, ops_flip.local_ops)]
    for a, b in pairs:
        assert abs(b - a).max() <= 1e-14 * abs(a).max()
        assert b.diagonal().min() >= 0.0


def test_degenerate_elements_rejected():
    flat = UNIT_TET.copy()
    flat[3] = [0.5, 0.5, 0.0]  # coplanar
    with pytest.raises(AssemblyError):
        _kernels.tet_stiffness_batch(flat[None, :, :], np.array([1.0]))
    needle = UNIT_TRI.copy()
    needle[2] = [0.5, 0.0, 0.0]  # collinear
    with pytest.raises(AssemblyError):
        _kernels.tri_mass_batch(needle[None, :, :])


def test_params_validation():
    with pytest.raises(AssemblyError):
        ModelParams(tau=0.0)
    with pytest.raises(AssemblyError):
        ModelParams(c_m=-1.0)
    with pytest.raises(AssemblyError):
        ModelParams(sigma=(3.0, -2.0))
    p = ModelParams()
    npt.assert_allclose(p.conductivities(3), [20.0, 3.0, 3.0])
    q = ModelParams(sigma=(7.0, 1.0, 2.0))
    npt.assert_allclose(q.conductivities(3), [7.0, 1.0, 2.0])
    with pytest.raises(AssemblyError):
        q.conductivities(4)


def test_oriented_pair_membrane_and_gap(problem_2cell):
    """Membranes lead with the cell region against the bath region, gap
    junctions with the lower cell region."""
    topo = problem_2cell.topo
    for fg in topo.faces:
        lead, other = oriented_pair(fg)
        assert {lead, other} == {fg.region_i, fg.region_j}
        if fg.is_membrane:
            assert other == BATH and lead != BATH
        else:
            assert BATH not in (lead, other) and lead < other


def test_system_matrix_structure(problem_2cell):
    """K = tau*A + M with a one-dimensional constant kernel."""
    ops = problem_2cell.operators
    params = problem_2cell.params
    k = ops.matrix.toarray()
    npt.assert_allclose(k, k.T, atol=1e-14)
    recomposed = params.tau * ops.stiffness.toarray() + ops.coupling.toarray()
    npt.assert_allclose(k, recomposed, atol=1e-15, rtol=0)
    ones = np.ones(k.shape[0])
    npt.assert_allclose(k @ ones, 0.0, atol=1e-13)
    w = np.linalg.eigvalsh(k)
    assert w[0] > -1e-12
    assert w[1] > 1e-12  # kernel is exactly the global constant


def test_timestep_linearity(problem_2cell):
    mesh, topo, dofmap = problem_2cell.mesh, problem_2cell.topo, problem_2cell.dofmap
    p1 = ModelParams(tau=0.01)
    p2 = ModelParams(tau=0.02)
    ops1 = assemble_system(mesh, topo, dofmap, p1)
    ops2 = assemble_system(mesh, topo, dofmap, p2)
    diff = (ops2.matrix - ops1.matrix).toarray()
    npt.assert_allclose(diff, 0.01 * ops1.stiffness.toarray(), atol=1e-15, rtol=0)


def test_local_operators_store_no_zeros():
    """No local operator of the 2x2x1 grid stores an entry with
    |a_ij| <= 1e-10 sqrt(|a_ii a_jj|): neither an explicit zero nor a
    rounding residue of a coupling that is zero in exact arithmetic."""
    mesh = build_mesh(MeshConfig(cells_x=2, cells_y=2))
    topo = extract_interfaces(mesh)
    ops = assemble_system(mesh, topo, build_composite_space(mesh, topo), ModelParams())
    for lo in ops.local_ops:
        a = lo.matrix.tocoo()
        d = np.abs(lo.matrix.diagonal())
        assert np.all(np.abs(a.data) > 1e-10 * np.sqrt(d[a.row] * d[a.col])), lo.sub


def test_local_splitting_reassembles_global(problem_2cell):
    """Substructure operators with half interface mass tile K exactly."""
    dm = problem_2cell.dofmap
    ops = problem_2cell.operators
    n = ops.matrix.shape[0]
    acc = sp.csr_matrix((n, n))
    for lo in ops.local_ops:
        g = dm.local_to_global[lo.sub]
        r = sp.csr_matrix(
            (np.ones(len(g)), (np.arange(len(g)), g)), shape=(lo.matrix.shape[0], n)
        )
        acc = acc + r.T @ lo.matrix @ r
    npt.assert_allclose(acc.toarray(), ops.matrix.toarray(), atol=1e-14)


def test_rhs_zero_for_constant_state(problem_2cell):
    u0 = np.ones(problem_2cell.dofmap.n_global) * 3.7
    f = assemble_rhs(
        problem_2cell.mesh,
        problem_2cell.topo,
        problem_2cell.dofmap,
        problem_2cell.params,
        u0,
        MembraneState.zeros(problem_2cell.topo),
    )
    npt.assert_allclose(f, 0.0, atol=1e-14)


def test_rhs_gap_junction_weighting(problem_2cell):
    """A unit jump across a gap junction loads both sides with
    +-(c_m - tau/r_gap) times the surface mass of the patch."""
    mesh, topo, dm = problem_2cell.mesh, problem_2cell.topo, problem_2cell.dofmap
    params = problem_2cell.params
    gap = next(fg for fg in topo.faces if not fg.is_membrane)
    lead, other = oriented_pair(gap)
    # the rim of the gap patch also lies on membrane patches; keep the jump
    # supported strictly inside the gap so no other patch is loaded
    membrane_nodes = set()
    for fg in topo.faces:
        if fg.is_membrane:
            membrane_nodes.update(int(n) for n in fg.nodes)
    inside = np.array([n for n in gap.nodes if int(n) not in membrane_nodes])
    assert inside.size > 0
    u = np.zeros(dm.n_global)
    u[dm.global_ids(lead, inside)] = 1.0
    f = assemble_rhs(mesh, topo, dm, params, u, MembraneState.zeros(topo))
    scale = params.c_m - params.tau / params.r_gap
    got = f[dm.global_ids(lead, gap.nodes)].sum()
    # sum of the loaded rows equals the integral of the jump density
    expected = scale * gap.node_weights[np.isin(gap.nodes, inside)].sum()
    npt.assert_allclose(got, expected, rtol=1e-12)
    npt.assert_allclose(f[dm.global_ids(other, gap.nodes)].sum(), -expected, rtol=1e-12)
    npt.assert_allclose(f.sum(), 0.0, atol=1e-13)


def test_rhs_is_compatible(problem_2cell):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(problem_2cell.dofmap.n_global)
    f = assemble_rhs(
        problem_2cell.mesh,
        problem_2cell.topo,
        problem_2cell.dofmap,
        problem_2cell.params,
        u,
        MembraneState.zeros(problem_2cell.topo),
    )
    assert abs(f.sum()) < 1e-10 * np.linalg.norm(f)
    g = project_compatible(f)
    npt.assert_allclose(g.sum(), 0.0, atol=1e-10)
    npt.assert_allclose(g, f - f.mean(), atol=1e-14)


def test_ionic_rest_state_is_stationary(problem_2cell):
    kin = AlievPanfilov()
    assert kin.current(0.0, 0.0) == 0.0
    assert kin.rate(0.0, 0.0) == 0.0
    topo, dm = problem_2cell.topo, problem_2cell.dofmap
    state = MembraneState.zeros(topo)
    u = np.zeros(dm.n_global)
    nxt = ionic_step(topo, dm, problem_2cell.params, u, state)
    for key, w in nxt.gates.items():
        npt.assert_allclose(w, 0.0, atol=1e-16)


def test_ionic_upstroke_sign():
    """Between the threshold and the peak the cubic drives v upward."""
    kin = AlievPanfilov()
    v = 0.5
    assert kin.current(v, 0.0) < 0.0  # inward (depolarizing) for a < v < 1
    assert kin.current(0.05, 0.0) > 0.0  # below threshold decays back


def test_compute_jump_orientation(problem_2cell):
    mesh, topo, dm = problem_2cell.mesh, problem_2cell.topo, problem_2cell.dofmap
    fg = next(f for f in topo.faces if f.is_membrane)
    lead, other = oriented_pair(fg)
    u = np.zeros(dm.n_global)
    u[dm.global_ids(lead, fg.nodes)] = 2.0
    u[dm.global_ids(other, fg.nodes)] = 0.5
    npt.assert_allclose(compute_jump(dm, fg, u), 1.5)
