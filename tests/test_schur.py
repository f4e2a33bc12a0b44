import numpy as np
import numpy.testing as npt
import pytest

from emibddc import denseref
from emibddc.assembly import ModelParams, assemble_system
from emibddc.errors import FactorizationError
from emibddc.femspace import build_composite_space
from emibddc.geometry import MeshConfig, extract_interfaces
from emibddc.harness import Problem, build_problem
from emibddc.schur import condense
from emibddc.sparsela import SPDSolver


@pytest.fixture(scope="module")
def small(problem_1cell):
    """Interface system of the single-cell problem (small enough for dense)."""
    return problem_1cell


@pytest.fixture(scope="module")
def split(split_bath):
    """Interface system of the two-cell row with its bath cut in two: two
    substructures of one region then share assembled interface unknowns."""
    _, mesh = split_bath
    params = ModelParams()
    topo = extract_interfaces(mesh)
    dm = build_composite_space(mesh, topo)
    ops = assemble_system(mesh, topo, dm, params)
    return Problem(mesh.config, params, mesh, topo, dm, ops, condense(dm, ops.matrix))


def test_apply_matches_dense_oracle(small, split):
    for problem in (small, split):
        s_dense = denseref.dense_assembled_schur(problem.dofmap, problem.operators.local_ops)
        n = problem.schur.n
        assert s_dense.shape == (n, n)
        rng = np.random.default_rng(10)
        for _ in range(5):
            v = rng.standard_normal(n)
            npt.assert_allclose(problem.schur.apply(v), s_dense @ v, atol=1e-10 * n)


def test_schur_symmetric_psd_with_constant_kernel(small):
    s = denseref.dense_assembled_schur(small.dofmap, small.operators.local_ops)
    npt.assert_allclose(s, s.T, atol=1e-12)
    w = np.linalg.eigvalsh(s)
    assert w[0] > -1e-10
    assert w[1] > 1e-12
    npt.assert_allclose(s @ np.ones(s.shape[0]), 0.0, atol=1e-12)


def _extension(problem, sub, v):
    """Discrete-harmonic local vector [u_I; v] of ``sub`` for local interface
    values v: the recovery with zero load from v scattered into an otherwise
    zero interface vector, restricted to ``sub``."""
    dm = problem.dofmap
    v_gamma = np.zeros(dm.n_gamma)
    v_gamma[dm.bro_gamma[dm.gamma_slice(sub)]] = v
    u = problem.schur.recover_interior(v_gamma, np.zeros(dm.n_global))
    return u[dm.local_to_global[sub]]


def test_energy_identity(small):
    """Trace energy equals the volume energy of the harmonic extension."""
    rng = np.random.default_rng(11)
    k = small.operators.matrix
    zero = np.zeros(small.dofmap.n_global)
    for _ in range(3):
        v = rng.standard_normal(small.schur.n)
        u = small.schur.recover_interior(v, zero)
        npt.assert_allclose(v @ small.schur.apply(v), u @ (k @ u), rtol=1e-10)


def test_harmonic_extension_minimizes_energy(small):
    rng = np.random.default_rng(12)
    lo = small.operators.local_ops[0]
    v = rng.standard_normal(lo.matrix.shape[0] - lo.n_interior)
    u_star = _extension(small, 0, v)
    e_star = u_star @ (lo.matrix @ u_star)
    n_i = lo.n_interior
    for _ in range(10):
        u = u_star.copy()
        u[:n_i] += rng.standard_normal(n_i)
        assert u @ (lo.matrix @ u) >= e_star - 1e-12


def test_harmonic_extension_interior_residual_vanishes(small):
    """K u = 0 on interior rows defines the discrete-harmonic extension."""
    rng = np.random.default_rng(13)
    lo = small.operators.local_ops[0]
    u = _extension(small, 0, rng.standard_normal(lo.matrix.shape[0] - lo.n_interior))
    res = (lo.matrix @ u)[: lo.n_interior]
    npt.assert_allclose(res, 0.0, atol=1e-11)


def test_reduce_recover_roundtrip(small, split):
    """Condensation + back substitution reproduces the direct solution."""
    for problem in (small, split):
        rng = np.random.default_rng(14)
        k = problem.operators.matrix.toarray()
        n = k.shape[0]
        f = rng.standard_normal(n)
        f -= f.mean()  # compatible load
        # direct: solve in the orthogonal complement of the constant
        u_direct = np.linalg.lstsq(k, f, rcond=None)[0]
        u_direct -= u_direct.mean()

        sch = problem.schur
        s = denseref.dense_assembled_schur(problem.dofmap, problem.operators.local_ops)
        g = sch.reduce_rhs(f)
        u_gamma = np.linalg.lstsq(s, g, rcond=None)[0]
        u = sch.recover_interior(u_gamma, f)
        u -= u.mean()
        npt.assert_allclose(u, u_direct, atol=1e-8 * np.linalg.norm(u_direct))


def test_zero_maps_to_zero(small):
    npt.assert_array_equal(small.schur.apply(np.zeros(small.schur.n)), 0.0)
    z = small.schur.reduce_rhs(np.zeros(small.dofmap.n_global))
    npt.assert_array_equal(z, 0.0)


def test_reduced_rhs_is_compatible(small):
    """The reduced load keeps the zero-sum compatibility of the full load."""
    rng = np.random.default_rng(15)
    f = rng.standard_normal(small.dofmap.n_global)
    f -= f.mean()
    g = small.schur.reduce_rhs(f)
    assert abs(g.sum()) < 1e-9 * np.linalg.norm(g)


def test_randomized_psd(small):
    rng = np.random.default_rng(16)
    for _ in range(100):
        v = rng.standard_normal(small.schur.n)
        assert v @ small.schur.apply(v) > -1e-10


@pytest.mark.parametrize("which", ["cells_2x2x1", "patch", "split"])
def test_apply_equals_per_substructure_scatter(which, patch_mesh, patch_topo, split):
    """The S-apply of the assembled step matrix agrees with the sum of one
    scatter of K_gg v - K_gI K_II^{-1} K_Ig v per substructure, built from
    the broken local operators and their own interior factors, to 1e-13 of
    the largest entry (the two paths sum their terms in different orders;
    the largest difference seen is 1.1e-15 of it, on the 2x2x1 grid)."""
    if which == "patch":
        dm = build_composite_space(patch_mesh, patch_topo)
        ops = assemble_system(patch_mesh, patch_topo, dm, ModelParams())
        sch = condense(dm, ops.matrix)
    elif which == "split":
        dm, ops, sch = split.dofmap, split.operators, split.schur
    else:
        problem = build_problem(MeshConfig(cells_x=2, cells_y=2, cells_z=1), ModelParams())
        dm, ops, sch = problem.dofmap, problem.operators, problem.schur
    rng = np.random.default_rng(17)
    for _ in range(3):
        v = rng.standard_normal(dm.n_gamma)
        expected = np.zeros(dm.n_gamma)
        for lo in ops.local_ops:
            n_i, k = lo.n_interior, lo.matrix
            ids = dm.bro_gamma[dm.gamma_slice(lo.sub)]
            s = k[n_i:, n_i:] @ v[ids]
            if n_i:
                s = s - k[n_i:, :n_i] @ SPDSolver(k[:n_i, :n_i]).solve(k[:n_i, n_i:] @ v[ids])
            expected += np.bincount(ids, weights=s, minlength=dm.n_gamma)
        npt.assert_allclose(sch.apply(v), expected, rtol=0, atol=1e-13 * np.abs(expected).max())


def test_apply_takes_a_block(split):
    """Each column of the S-apply of an (n, 3) block is the S-apply of that
    column, up to the last bits of SuperLU's multi-column solve."""
    sch = split.schur
    block = np.random.default_rng(18).standard_normal((sch.n, 3))
    got = sch.apply(block)
    assert got.shape == block.shape
    for j in range(block.shape[1]):
        expected = sch.apply(block[:, j])
        npt.assert_allclose(got[:, j], expected, rtol=0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("which", ["patch", "two_cell", "split"])
def test_one_interior_factor_matches_dense(which, patch_mesh, patch_topo, problem_2cell, split):
    """With one factor for all interiors, the S-apply agrees with the dense
    assembled Schur complement, and the reduced load and the recovered
    interiors with dense interior solves, each to 1e-12 of the norm."""
    if which == "patch":
        dm = build_composite_space(patch_mesh, patch_topo)
        ops = assemble_system(patch_mesh, patch_topo, dm, ModelParams())
        sch = condense(dm, ops.matrix)
    else:
        problem = problem_2cell if which == "two_cell" else split
        dm, ops, sch = problem.dofmap, problem.operators, problem.schur
    k = ops.matrix.toarray()
    ids, gamma = sch.interior_ids, dm.gamma_global
    k_ii = k[np.ix_(ids, ids)]
    rng = np.random.default_rng(19)
    v = rng.standard_normal(dm.n_gamma)
    f = rng.standard_normal(dm.n_global)

    def assert_close(got, expected):
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    assert_close(sch.apply(v), denseref.dense_assembled_schur(dm, ops.local_ops) @ v)
    reduced = f[gamma] - k[np.ix_(gamma, ids)] @ np.linalg.solve(k_ii, f[ids])
    assert_close(sch.reduce_rhs(f), reduced)
    u = sch.recover_interior(v, f)
    assert_close(u[ids], np.linalg.solve(k_ii, f[ids] - k[np.ix_(ids, gamma)] @ v))
    npt.assert_array_equal(u[gamma], v)


def test_singular_interior_block_names_its_substructure(problem_1cell):
    """An interior block that is singular makes the one interior factor
    fail, and the error names the substructure that block belongs to."""
    dm = problem_1cell.dofmap
    assert dm.n_interior[1]
    k = problem_1cell.operators.matrix.tolil()
    dof = dm.local_to_global[1][0]  # the cell's first interior unknown
    k[dof, :] = 0.0
    k[:, dof] = 0.0
    with pytest.raises(
        FactorizationError, match=r"^substructure 1: interior block is singular \(disconnected region\?\)$"
    ):
        condense(dm, k.tocsr())
