import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from emibddc import bddc, denseref
from emibddc.assembly import ModelParams, assemble_system, project_compatible
from emibddc.bddc import BddcPreconditioner, build_scaling
from emibddc.errors import ConstraintError, FactorizationError
from emibddc.femspace import build_composite_space, build_primal_constraints
from emibddc.geometry import Mesh, MeshConfig, build_mesh, extract_interfaces
from emibddc.harness import Problem, build_problem, make_preconditioner
from emibddc.schur import condense
from emibddc.sparsela import SPDSolver, multiplier_basis, multiplier_inverse


def test_scaling_values_on_membrane_and_junction(problem_2cell):
    """Copy groups weight their members by holder conductivity."""
    dm = problem_2cell.dofmap
    sigma = problem_2cell.operators.sigma  # (20, 3, 3)
    delta = build_scaling(dm, sigma)
    # membrane groups pair a cell (3) with the bath (20)
    sizes = np.bincount(dm.bro_gamma, minlength=dm.n_gamma)[dm.bro_gamma]
    two = sizes == 2
    vals = set(np.round(delta[two], 12))
    assert vals == {round(3 / 23, 12), round(20 / 23, 12), 0.5}
    # 0.5 appears only on cell-cell gap junction groups (equal conductivity)
    # junction groups hold bath + both cells
    three = sizes == 3
    vals3 = set(np.round(delta[three], 12))
    assert vals3 == {round(20 / 26, 12), round(3 / 26, 12)}


def test_scaling_is_partition_of_unity(problem_2cell):
    dm = problem_2cell.dofmap
    for sigma in ([20.0, 3.0, 3.0], [1.0, 1.0, 1.0], [5.0, 0.5, 7.0]):
        delta = build_scaling(dm, np.array(sigma))
        sums = np.bincount(dm.bro_gamma, weights=delta, minlength=dm.n_gamma)
        npt.assert_allclose(sums, 1.0, rtol=1e-14)


def test_scaling_rejects_nonpositive(problem_2cell):
    with pytest.raises(ConstraintError):
        build_scaling(problem_2cell.dofmap, np.array([20.0, 0.0, 3.0]))


def test_scaling_energy_inequality(problem_2cell):
    """sigma_i * delta_j^2 <= min(sigma_i, sigma_j) within each copy group,
    the algebraic fact behind conductivity-robust averaging."""
    dm = problem_2cell.dofmap
    rng = np.random.default_rng(21)
    for _ in range(20):
        sigma = rng.uniform(0.1, 50.0, dm.n_substructures)
        delta = build_scaling(dm, sigma)
        for g in range(dm.n_gamma):
            members = np.flatnonzero(dm.bro_gamma == g)
            hs = dm.bro_holder[members]
            for a in members:
                for b in members:
                    lhs = sigma[dm.bro_holder[a]] * delta[b] ** 2
                    bound = min(sigma[dm.bro_holder[a]], sigma[dm.bro_holder[b]])
                    assert lhs <= bound * (1 + 1e-12)


def test_averaging_is_idempotent_projection(problem_2cell, precond_2cell_vef):
    dm = problem_2cell.dofmap
    pc = precond_2cell_vef
    rng = np.random.default_rng(22)
    w = rng.standard_normal(dm.n_broken)
    ew = pc.apply_ED(w)
    npt.assert_allclose(pc.apply_ED(ew), ew, atol=1e-12)
    npt.assert_allclose(pc.apply_PD(w) + ew, w, atol=1e-13)
    npt.assert_allclose(pc.apply_PD(ew), 0.0, atol=1e-12)
    # continuous vectors are fixed points
    v = rng.standard_normal(dm.n_gamma)
    cont = v[dm.bro_gamma]
    npt.assert_allclose(pc.apply_ED(cont), cont, atol=1e-13)
    npt.assert_allclose(pc.apply_PD(cont), 0.0, atol=1e-13)


def test_averaging_weights_two_copies(problem_2cell, precond_2cell_vef):
    """E_D on a two-copy group returns delta1*a + delta2*b on both copies."""
    dm = problem_2cell.dofmap
    pc = precond_2cell_vef
    sizes = np.bincount(dm.bro_gamma, minlength=dm.n_gamma)
    g = int(np.flatnonzero(sizes == 2)[0])
    members = np.flatnonzero(dm.bro_gamma == g)
    w = np.zeros(dm.n_broken)
    w[members] = [2.0, -1.0]
    d1, d2 = pc.delta[members]
    out = pc.apply_ED(w)
    expected = d1 * 2.0 + d2 * (-1.0)
    npt.assert_allclose(out[members], expected, rtol=1e-14)


def _assert_apply_matches_dense(problem):
    """Application agrees with the dense realization on the complement of
    the constant vector (the space the projected iteration lives in)."""
    rng = np.random.default_rng(23)
    proj = project_compatible
    for variant in ("vef", "ve"):
        pc = make_preconditioner(problem, variant)
        cs = pc.constraints
        m_dense = denseref.dense_bddc_matrix(
            problem.dofmap, cs, problem.operators.local_ops, problem.operators.sigma,
        )
        for _ in range(3):
            r = proj(rng.standard_normal(problem.dofmap.n_gamma))
            z = proj(pc.apply(r))
            z_dense = proj(m_dense @ r)
            err = np.linalg.norm(z - z_dense) / np.linalg.norm(z_dense)
            assert err < 1e-9
        # the same as one block of columns
        block = np.column_stack([proj(rng.standard_normal(problem.dofmap.n_gamma)) for _ in range(3)])
        z = pc.apply(block)
        for j in range(3):
            z_dense = proj(m_dense @ block[:, j])
            err = np.linalg.norm(proj(z[:, j]) - z_dense) / np.linalg.norm(z_dense)
            assert err < 1e-9


def test_apply_matches_dense_oracle(problem_2cell):
    _assert_apply_matches_dense(problem_2cell)


def test_apply_matches_dense_oracle_with_vertex_classes(patch_mesh):
    """The patch is the only mesh with vertex classes."""
    _assert_apply_matches_dense(_problem_on("patch", patch_mesh))


def test_apply_is_symmetric(problem_2cell, precond_2cell_vef):
    rng = np.random.default_rng(24)
    n = problem_2cell.dofmap.n_gamma
    for _ in range(5):
        x, y = rng.standard_normal((2, n))
        a = x @ precond_2cell_vef.apply(y)
        b = y @ precond_2cell_vef.apply(x)
        npt.assert_allclose(a, b, rtol=1e-10)


@pytest.mark.parametrize("variant", ["vef", "ve"])
def test_block_apply_matches_single_applies(problem_2cell, patch_mesh, variant):
    """A block of three residuals gives the three single applies."""
    for problem in (problem_2cell, _problem_on("patch", patch_mesh)):
        pc = make_preconditioner(problem, variant)
        block = np.random.default_rng(25).standard_normal((problem.dofmap.n_gamma, 3))
        z = pc.apply(block)
        assert z.shape == block.shape
        for j in range(3):
            single = pc.apply(block[:, j])
            npt.assert_allclose(z[:, j], single, rtol=0, atol=1e-13 * np.abs(single).max())


def test_non_finite_solve_names_substructure(problem_2cell):
    """A factor whose solves produce NaN makes the apply raise, naming the
    first substructure at fault."""
    pc = make_preconditioner(problem_2cell, "vef")
    r = np.random.default_rng(26).standard_normal(problem_2cell.dofmap.n_gamma)
    # the factors belong to the shared problem: the instance attributes go
    # again afterwards (monkeypatch would leave bound methods behind)
    factors = pc._factors[1:]
    try:
        for factor in factors:
            factor._substitute = lambda rhs: np.full(np.shape(rhs), np.nan)
        with pytest.raises(FactorizationError, match="substructure 1 dual block"):
            pc.apply(r)
    finally:
        for factor in factors:
            del factor._substitute


def test_zero_residual_zero_correction(precond_2cell_vef, problem_2cell):
    z = precond_2cell_vef.apply(np.zeros(problem_2cell.dofmap.n_gamma))
    npt.assert_allclose(z, 0.0, atol=1e-15)


def test_preconditioned_spectrum_floor(problem_2cell):
    """All eigenvalues of M^{-1} S sit at or above one."""
    s = denseref.dense_assembled_schur(
        problem_2cell.dofmap, problem_2cell.operators.local_ops
    )
    for variant in ("vef", "ve"):
        pc = make_preconditioner(problem_2cell, variant)
        m = denseref.dense_bddc_matrix(
            problem_2cell.dofmap, pc.constraints,
            problem_2cell.operators.local_ops, problem_2cell.operators.sigma,
        )
        w = denseref.preconditioned_spectrum(m, s)
        assert w[0] >= 1.0 - 1e-6
        assert w[-1] < 1e4


def test_coarse_space_ordering(problem_2cell, precond_2cell_vef, precond_2cell_ve):
    assert precond_2cell_ve.coarse_dim < precond_2cell_vef.coarse_dim


def _coarse_basis(pc, lo):
    """The energy-minimal coarse basis of one substructure on all its local
    dofs, ``psi = W Q`` with ``Q`` the leading columns of ``H^{-1}``: its
    response to no load and unit targets."""
    rows = pc.constraints.rows_of(lo.sub)
    n_loc = lo.matrix.shape[0]
    c = np.zeros((len(rows), n_loc))
    for r, (_, row) in enumerate(rows):
        c[r, row.local_dofs] = row.weights
    _, h, w = multiplier_basis(lo.neumann, sp.csr_matrix(c), np.arange(n_loc))
    return w @ multiplier_inverse(h)[:, : len(rows)]


def test_coarse_basis_interpolates_constraints(problem_2cell, patch_mesh, patch_topo):
    """Each coarse basis function carries a unit value on its own class and
    zero on every other class of the same substructure, vertex classes
    included."""
    setups = [
        (problem_2cell.dofmap, problem_2cell.topo, problem_2cell.operators, "vef")
    ]
    dm_p = build_composite_space(patch_mesh, patch_topo)
    ops_p = assemble_system(patch_mesh, patch_topo, dm_p, ModelParams())
    setups.append((dm_p, patch_topo, ops_p, "vef"))
    for dm, topo, ops, variant in setups:
        cs = build_primal_constraints(dm, topo, variant)
        pc = BddcPreconditioner(dm, cs, ops.local_ops, ops.sigma)
        for lo in ops.local_ops:
            n_i = lo.n_interior
            psi_gamma = _coarse_basis(pc, lo)[n_i:]
            rows = cs.rows_of(lo.sub)
            for c, (cid, row) in enumerate(rows):
                applied = psi_gamma[np.asarray(row.local_dofs) - n_i].T @ row.weights
                expected = np.zeros(len(rows))
                expected[c] = 1.0
                npt.assert_allclose(applied, expected, atol=1e-10)


def test_jump_operator_gives_extreme_eigenvalue(problem_2cell):
    """The largest preconditioned eigenvalue equals the largest energy
    amplification of the complementary jump operator over the constrained
    broken space."""
    dm = problem_2cell.dofmap
    ops = problem_2cell.operators
    pc = make_preconditioner(problem_2cell, "vef")

    s_hat = denseref.dense_assembled_schur(dm, ops.local_ops)
    m_inv = denseref.dense_bddc_matrix(
        dm, pc.constraints, ops.local_ops, ops.sigma
    )
    lam_max = denseref.preconditioned_spectrum(m_inv, s_hat)[-1]

    s_tilde = denseref.dense_broken_schur(dm, ops.local_ops)
    z = denseref.constrained_basis(dm, pc.constraints)
    pd = np.column_stack(
        [pc.apply_PD(col) for col in np.eye(dm.n_broken)]
    )
    a = z.T @ pd.T @ s_tilde @ pd @ z
    b = z.T @ s_tilde @ z
    # deflate the constant (zero-energy) direction out of the pencil
    wb, vb = np.linalg.eigh(b)
    keep = wb > 1e-10 * wb[-1]
    t = vb[:, keep] / np.sqrt(wb[keep])
    gen = t.T @ a @ t
    sup = np.linalg.eigvalsh(gen)[-1]
    npt.assert_allclose(sup, lam_max, rtol=1e-8)


def test_missing_constraints_rejected():
    """A substructure without any primal class must be refused."""
    cfg = MeshConfig(cells_x=1, cells_y=1, cells_z=1)
    problem = build_problem(cfg, ModelParams())
    with pytest.raises(ConstraintError, match="no primal constraints"):
        make_preconditioner(problem, "ve")


def test_single_substructure_rejected():
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    mesh = Mesh(MeshConfig(), verts, np.array([[0, 1, 2, 3]]), np.array([0]))
    topo = extract_interfaces(mesh)
    dm = build_composite_space(mesh, topo)
    cs = build_primal_constraints(dm, topo, "vef")
    ops = assemble_system(mesh, topo, dm, ModelParams())
    with pytest.raises(ConstraintError):
        BddcPreconditioner(dm, cs, ops.local_ops, ops.sigma)


def _problem_on(which, patch_mesh):
    """A problem on the 2x2x1 cell grid (no vertex classes) or on the
    tetrahedral patch (every substructure hosts vertex rows)."""
    params = ModelParams()
    if which == "cells_2x2x1":
        return build_problem(MeshConfig(cells_x=2, cells_y=2, cells_z=1), params)
    topo = extract_interfaces(patch_mesh)
    dm = build_composite_space(patch_mesh, topo)
    ops = assemble_system(patch_mesh, topo, dm, params)
    schur = condense(dm, ops.matrix)
    return Problem(patch_mesh.config, params, patch_mesh, topo, dm, ops, schur)


@pytest.mark.parametrize("which", ["cells_2x2x1", "patch"])
def test_neumann_factor_shared_between_primal_spaces(which, patch_mesh, monkeypatch):
    """vef then ve on one problem factor each substructure's Neumann matrix
    once, beside the one factor of all interiors and one coarse operator
    per preconditioner, and give the same preconditioner as ve on a fresh
    problem."""
    labels = []
    original = SPDSolver.__init__

    def counting(self, matrix, label="", pin=False):
        labels.append(label)
        original(self, matrix, label=label, pin=pin)

    monkeypatch.setattr(SPDSolver, "__init__", counting)
    problem = _problem_on(which, patch_mesh)
    make_preconditioner(problem, "vef")
    reused = make_preconditioner(problem, "ve")
    monkeypatch.undo()

    dm = problem.dofmap
    cs = reused.constraints
    vertex_rows = [
        sum(cs.classes[cid].kind == "vertex" for cid, _ in cs.rows_of(i))
        for i in range(dm.n_substructures)
    ]
    assert all(vertex_rows) if which == "patch" else not any(vertex_rows)
    assert sum(dm.n_interior)
    neumann = [f"substructure {i} dual block" for i in range(dm.n_substructures)]
    assert sorted(labels) == sorted(["interior blocks"] + neumann + ["coarse operator"] * 2)

    fresh = make_preconditioner(_problem_on(which, patch_mesh), "ve")
    r = np.random.default_rng(31).standard_normal(dm.n_gamma)
    assert np.array_equal(reused.apply(r), fresh.apply(r))

    if which == "patch":
        # C psi hits its targets: unit on its own class, zero on the others
        for lo in problem.operators.local_ops:
            n_i = lo.n_interior
            psi_gamma = _coarse_basis(reused, lo)[n_i:]
            rows = cs.rows_of(lo.sub)
            expected = np.eye(len(rows))
            for c, (_, row) in enumerate(rows):
                got = psi_gamma[np.asarray(row.local_dofs) - n_i].T @ row.weights
                npt.assert_allclose(got, expected[c], rtol=0, atol=1e-12)


@pytest.mark.parametrize("which", ["cells_2x2x1", "patch"])
def test_ve_after_vef_takes_no_neumann_solve(which, patch_mesh, monkeypatch):
    """ve built after vef on one problem reads each substructure's basis
    off vef's, with no solve against a Neumann factor, and applies a block
    of residuals as ve built on a fresh problem does, to round-off."""
    problem = _problem_on(which, patch_mesh)
    make_preconditioner(problem, "vef")
    labels = []
    original = SPDSolver.solve

    def counting(self, rhs):
        labels.append(self.label)
        return original(self, rhs)

    monkeypatch.setattr(SPDSolver, "solve", counting)
    reused = make_preconditioner(problem, "ve")
    monkeypatch.undo()
    assert not [label for label in labels if "dual block" in label]

    fresh = make_preconditioner(_problem_on(which, patch_mesh), "ve")
    block = np.random.default_rng(33).standard_normal((problem.dofmap.n_gamma, 3))
    expected = fresh.apply(block)
    npt.assert_allclose(reused.apply(block), expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def _neumann_solvers(monkeypatch, build):
    """``build()`` and the substructures whose Neumann factor it solved with."""
    subs = set()
    original = SPDSolver.solve

    def counting(self, rhs):
        if "dual block" in self.label:
            subs.add(int(self.label.split()[1]))
        return original(self, rhs)

    monkeypatch.setattr(SPDSolver, "solve", counting)
    try:
        return build(), subs
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("which", ["cells_2x2x1", "patch"])
def test_vef_after_ve_takes_its_own_solves(which, patch_mesh, monkeypatch):
    """vef's rows are not ve's leading rows, so vef built after ve on one
    problem solves every substructure's basis and applies bit for bit as
    vef on a fresh problem does; the larger basis is the one kept."""
    problem = _problem_on(which, patch_mesh)
    make_preconditioner(problem, "ve")
    reused, subs = _neumann_solvers(monkeypatch, lambda: make_preconditioner(problem, "vef"))
    assert subs == set(range(problem.dofmap.n_substructures))
    kept = [len(lo.solved[0][1]) for lo in problem.operators.local_ops]
    assert kept == [rows.stop - rows.start for rows in reused._rows]

    fresh = make_preconditioner(_problem_on(which, patch_mesh), "vef")
    block = np.random.default_rng(34).standard_normal((problem.dofmap.n_gamma, 3))
    assert np.array_equal(reused.apply(block), fresh.apply(block))


@pytest.mark.parametrize("which", ["cells_2x2x1", "patch"])
def test_rows_that_do_not_lead_take_a_solve(which, patch_mesh, monkeypatch):
    """ve without its first class, built after vef: a substructure that held
    the dropped class keeps rows of vef's basis that are not its leading
    rows, so it solves, while the others read vef's basis; the result
    applies as on a fresh problem, to round-off."""
    problem = _problem_on(which, patch_mesh)
    make_preconditioner(problem, "vef")
    ve = build_primal_constraints(problem.dofmap, problem.topo, "ve")
    cs = dataclasses.replace(ve, classes=ve.classes[1:])
    ops = problem.operators

    def build():
        return BddcPreconditioner(problem.dofmap, cs, ops.local_ops, ops.sigma)

    reused, subs = _neumann_solvers(monkeypatch, build)
    assert subs == {row.sub for row in ve.classes[0].rows}

    fresh_ops = _problem_on(which, patch_mesh).operators
    fresh = BddcPreconditioner(problem.dofmap, cs, fresh_ops.local_ops, fresh_ops.sigma)
    block = np.random.default_rng(35).standard_normal((problem.dofmap.n_gamma, 3))
    expected = fresh.apply(block)
    npt.assert_allclose(reused.apply(block), expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("which", ["cells_2x2x1", "patch"])
def test_coarse_operator_and_residual_from_multipliers(which, patch_mesh):
    """The coarse block of each substructure in the coarse restriction
    R = (H^{-1} E)^T, Q[:m], is psi^T K psi of its coarse basis with the
    pin taken out again, and the stacked coarse restriction of the
    constraint values of a load response, rho = R (Ct y), is the coarse
    residual psi_Gamma^T r at the substructure's classes and zero
    elsewhere.  Entries that vanish in exact arithmetic carry only
    round-off, so both compare relative to their largest entry."""

    def assert_close(actual, desired):
        npt.assert_allclose(actual, desired, rtol=0, atol=1e-10 * np.abs(desired).max())

    problem = _problem_on(which, patch_mesh)
    pc = make_preconditioner(problem, "vef")
    rng = np.random.default_rng(32)
    for lo, local, rows in zip(problem.operators.local_ops, pc._local, pc._rows):
        n_i = lo.n_interior
        ids = [cid for cid, _ in pc.constraints.rows_of(lo.sub)]
        psi = _coarse_basis(pc, lo)
        restrict = (pc._h_inv @ pc._spread).T.tocsr()  # R = (H^{-1} E)^T
        q = restrict[ids][:, rows].toarray().T  # R holds Q^T at the class ids
        assert_close(q[: len(ids)], psi.T @ (lo.matrix @ psi))
        r = rng.standard_normal(psi.shape[0] - n_i)
        y = np.zeros(pc._ct.shape[1])
        y[local] = lo.neumann.solve(np.concatenate([np.zeros(n_i), r]))
        expected = np.zeros(pc.coarse_dim)
        expected[ids] = psi[n_i:].T @ r
        assert_close(restrict @ (pc._ct @ y), expected)


def test_repeated_vertex_row_rejected(patch_mesh):
    """A vertex class listed twice gives dependent one-dof rows, which the
    constrained solver refuses."""
    problem = _problem_on("patch", patch_mesh)
    cs = build_primal_constraints(problem.dofmap, problem.topo, "ve")
    vertex = next(cl for cl in cs.classes if cl.kind == "vertex")
    twice = dataclasses.replace(cs, classes=cs.classes + (vertex,))
    ops = problem.operators
    with pytest.raises(FactorizationError, match="dependent constraint rows"):
        BddcPreconditioner(problem.dofmap, twice, ops.local_ops, ops.sigma)


def test_coarse_operator_without_energy_fails_at_set_up(problem_2cell, monkeypatch):
    """Coarse blocks Q of zero make a coarse operator with no energy: its
    factorization raises, so no apply is left to produce NaN."""

    monkeypatch.setattr(bddc, "multiplier_inverse", lambda h, label: np.zeros_like(h))
    with pytest.raises(FactorizationError, match="coarse operator"):
        make_preconditioner(problem_2cell, "vef")
