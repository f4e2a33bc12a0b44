import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from emibddc.assembly import ModelParams
from emibddc.errors import FactorizationError
from emibddc.geometry import BATH, MeshConfig
from emibddc.harness import build_problem
from emibddc.sparsela import ConstrainedSolver, SPDSolver


def _random_spd(n, rng, density=0.4):
    b = sp.random(n, n, density=density, random_state=rng.integers(2**31)).toarray()
    a = b @ b.T + n * np.eye(n)
    return sp.csr_matrix(a)


def _random_psd_with_constant_kernel(n, rng):
    """PSD matrix whose kernel is exactly the constant vector."""
    proj = np.eye(n) - np.ones((n, n)) / n
    b = rng.standard_normal((n + 4, n)) @ proj
    return sp.csr_matrix(b.T @ b)


def _dense_kkt(a, c, b, g):
    n, m = a.shape[0], c.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = a
    kkt[:n, n:] = c.T
    kkt[n:, :n] = c
    rhs = np.concatenate([b, g])
    return np.linalg.solve(kkt, rhs)[:n]


def test_spd_solver_matches_dense():
    rng = np.random.default_rng(0)
    a = _random_spd(40, rng)
    solver = SPDSolver(a, label="test")
    b = rng.standard_normal(40)
    npt.assert_allclose(solver.solve(b), np.linalg.solve(a.toarray(), b), rtol=1e-10)
    # block right-hand sides share the factorization
    blk = rng.standard_normal((40, 5))
    npt.assert_allclose(solver.solve(blk), np.linalg.solve(a.toarray(), blk), rtol=1e-10)


def test_symmetric_mode_cuts_fill_of_bath_neumann_factor():
    """The pinned Neumann factor of the bath on the 2x2x1 cell grid stores at
    least 25% fewer entries than SuperLU's default ordering and pivoting
    would, and still solves the pinned matrix."""
    problem = build_problem(MeshConfig(cells_x=2, cells_y=2, cells_z=1), ModelParams())
    mesh = problem.mesh
    bath = next(
        lo for lo in problem.operators.local_ops if mesh.sub_region[lo.sub] == BATH
    )
    factor = bath.neumann
    pinned = bath.matrix.toarray()
    pinned[0, 0] += factor.rho
    default = sp.linalg.splu(sp.csc_matrix(pinned))
    assert factor.fill <= 0.75 * (default.L.nnz + default.U.nnz)
    b = np.random.default_rng(9).standard_normal(factor.n)
    npt.assert_allclose(factor.solve(b), np.linalg.solve(pinned, b), rtol=1e-9)


def test_spd_solver_rejects_nonsquare():
    with pytest.raises(FactorizationError):
        SPDSolver(sp.csr_matrix(np.ones((3, 4))))


def test_spd_solver_rejects_singular():
    a = sp.diags([1.0, 1.0, 0.0]).tocsr()
    with pytest.raises(FactorizationError):
        solver = SPDSolver(a)
        solver.solve(np.ones(3))  # splu may defer the failure to the solve


def test_constrained_matches_dense_kkt_spd():
    """Definite block, no pinning: plain KKT agreement."""
    rng = np.random.default_rng(1)
    n, m = 30, 4
    a = _random_spd(n, rng)
    c = sp.csr_matrix(rng.standard_normal((m, n)))
    b = rng.standard_normal(n)
    g = rng.standard_normal(m)
    solver = ConstrainedSolver(SPDSolver(a), c)
    u = solver.solve(b, g)
    npt.assert_allclose(u, _dense_kkt(a.toarray(), c.toarray(), b, g), rtol=1e-9)
    npt.assert_allclose(c @ u, g, atol=1e-9)


def test_constrained_matches_dense_kkt_singular():
    """Semidefinite block with constant kernel handled by the pin trick."""
    rng = np.random.default_rng(2)
    n, m = 25, 3
    a = _random_psd_with_constant_kernel(n, rng)
    c_rows = rng.standard_normal((m, n))
    c_rows[0] += 1.0  # make the constraints see the constant direction
    c = sp.csr_matrix(c_rows)
    b = rng.standard_normal(n)
    g = rng.standard_normal(m)
    solver = ConstrainedSolver(SPDSolver(a, pin=True), c)
    u = solver.solve(b, g)
    # dense reference: KKT with the same pin construction is equivalent to
    # the original singular KKT, which we solve via lstsq on the full system
    n_tot = n + m
    kkt = np.zeros((n_tot, n_tot))
    kkt[:n, :n] = a.toarray()
    kkt[:n, n:] = c.toarray().T
    kkt[n:, :n] = c.toarray()
    sol, *_ = np.linalg.lstsq(kkt, np.concatenate([b, g]), rcond=None)
    npt.assert_allclose(c @ u, g, atol=1e-8)
    npt.assert_allclose(a @ u + c.T @ (np.linalg.lstsq(c.toarray().T, b - a @ u, rcond=None)[0]), b, atol=1e-7)
    npt.assert_allclose(u, sol[:n], atol=1e-7)


def test_constrained_zero_targets_default():
    rng = np.random.default_rng(3)
    n = 20
    a = _random_psd_with_constant_kernel(n, rng)
    c = sp.csr_matrix(np.ones((1, n)) / n)
    solver = ConstrainedSolver(SPDSolver(a, pin=True), c)
    u = solver.solve(rng.standard_normal(n))
    npt.assert_allclose(u.mean(), 0.0, atol=1e-10)


def test_constrained_energy_minimization():
    """Any feasible perturbation increases the quadratic energy."""
    rng = np.random.default_rng(4)
    n, m = 24, 3
    a = _random_psd_with_constant_kernel(n, rng)
    ad = a.toarray()
    c_rows = rng.standard_normal((m, n))
    c_rows[0] += 1.0
    c = sp.csr_matrix(c_rows)
    b = rng.standard_normal(n)
    g = rng.standard_normal(m)
    solver = ConstrainedSolver(SPDSolver(a, pin=True), c)
    u = solver.solve(b, g)
    energy = lambda v: 0.5 * v @ ad @ v - b @ v
    e0 = energy(u)
    basis = np.linalg.svd(c_rows)[2][m:]  # null space of the constraints
    for _ in range(10):
        z = basis.T @ rng.standard_normal(n - m)
        assert energy(u + 0.1 * z) >= e0 - 1e-10


def test_compress_restricts_solution():
    rng = np.random.default_rng(5)
    n = 18
    a = _random_spd(n, rng)
    c = sp.csr_matrix(rng.standard_normal((2, n)))
    b = rng.standard_normal(n)
    full = ConstrainedSolver(SPDSolver(a), c).solve(b)
    rows = np.array([0, 5, 11])
    compressed = ConstrainedSolver(SPDSolver(a), c)
    compressed.compress(rows)
    npt.assert_allclose(compressed.solve(b), full[rows], rtol=1e-12)
    g = rng.standard_normal(2)
    npt.assert_allclose(
        compressed.solve(b, g), ConstrainedSolver(SPDSolver(a), c).solve(b, g)[rows],
        rtol=1e-12,
    )


def test_constraint_width_checked():
    a = sp.identity(5, format="csr")
    with pytest.raises(FactorizationError):
        ConstrainedSolver(SPDSolver(a, pin=True), sp.csr_matrix(np.ones((1, 4))))


def test_dependent_constraint_rows_rejected():
    rng = np.random.default_rng(6)
    a = _random_spd(10, rng)
    row = rng.standard_normal((1, 10))
    dup = sp.csr_matrix(np.vstack([row, row]))
    with pytest.raises(FactorizationError):
        ConstrainedSolver(SPDSolver(a), dup)


def test_shared_factor_serves_several_constraint_sets():
    """One pinned factor handed to solvers with different constraint rows
    gives what each solver computes with a factor of its own."""
    rng = np.random.default_rng(7)
    n = 22
    a = _random_psd_with_constant_kernel(n, rng)
    factor = SPDSolver(a, pin=True)
    assert factor.rho == pytest.approx(a.diagonal().mean())
    b = rng.standard_normal(n)
    for m in (1, 3):
        c_rows = rng.standard_normal((m, n))
        c_rows[0] += 1.0
        c = sp.csr_matrix(c_rows)
        g = rng.standard_normal(m)
        own = ConstrainedSolver(SPDSolver(a, pin=True), c)
        shared = ConstrainedSolver(factor, c)
        npt.assert_array_equal(shared.solve(b, g), own.solve(b, g))


def test_extend_takes_no_sparse_solve(monkeypatch):
    """Constraint targets cost no sparse solve: with or without targets a
    block load takes one block solve, the targets add W H^{-1} [g; 0],
    and every column meets its targets."""
    rng = np.random.default_rng(8)
    n, m = 20, 3
    a = _random_psd_with_constant_kernel(n, rng)
    c_rows = rng.standard_normal((m, n))
    c_rows[0] += 1.0
    c = sp.csr_matrix(c_rows)
    solver = ConstrainedSolver(SPDSolver(a, pin=True), c)
    b = rng.standard_normal((n, 4))
    g = rng.standard_normal((m, 4))
    calls = []
    original = SPDSolver.solve

    def counting(self, rhs):
        calls.append(rhs.shape)
        return original(self, rhs)

    monkeypatch.setattr(SPDSolver, "solve", counting)
    loaded = solver.solve(b)
    u = solver.solve(b, g)
    single = solver.solve(b[:, 2], g[:, 2])
    monkeypatch.undo()
    assert calls == [(n, 4), (n, 4), (n,)]
    assert u.shape == (n, 4)
    npt.assert_allclose(single, u[:, 2], rtol=1e-12, atol=1e-12)
    npt.assert_allclose(c @ u, g, atol=1e-10)
    extension = solver.solve(np.zeros((n, 4)), g)
    npt.assert_allclose(u, loaded + extension, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(c @ extension, g, atol=1e-10)
