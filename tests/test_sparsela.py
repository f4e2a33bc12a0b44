import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from emibddc.assembly import ModelParams
from emibddc.errors import FactorizationError
from emibddc.geometry import BATH, MeshConfig
from emibddc.harness import build_problem
from emibddc import sparsela
from emibddc.sparsela import SPDSolver, multiplier_basis, multiplier_inverse


def _random_spd(n, rng, density=0.4):
    b = sp.random(n, n, density=density, random_state=rng.integers(2**31)).toarray()
    a = b @ b.T + n * np.eye(n)
    return sp.csr_matrix(a)


def _random_psd_with_constant_kernel(n, rng):
    """PSD matrix whose kernel is exactly the constant vector."""
    proj = np.eye(n) - np.ones((n, n)) / n
    b = rng.standard_normal((n + 4, n)) @ proj
    return sp.csr_matrix(b.T @ b)


def _basis(factor, c):
    """The pieces the BDDC M-apply reads, ``(Ct, H^{-1}, W)``, with ``W``
    at every row."""
    ct, h, w = multiplier_basis(factor, c, np.arange(factor.n))
    return ct, multiplier_inverse(h, factor.label), w


def _solution(factor, ct, h_inv, w, b, g=None):
    """The constrained solution from the pieces the BDDC M-apply reads:
    ``y + W H^{-1} ([g; 0] - Ct y)`` with ``y`` the factor's solve of ``b``."""
    y = factor.solve(b)
    d = -(ct @ y)
    if g is not None:
        d[: len(g)] += g
    return y + w @ (h_inv @ d)


def _dense_pieces(a, c, rho):
    """``H^{-1}`` and ``W`` from the dense pinned matrix (``rho`` 0 for no
    pin)."""
    n = a.shape[0]
    ct = np.vstack([c, np.eye(1, n)]) if rho else c
    pinned = a.copy()
    pinned[0, 0] += rho
    w = np.linalg.solve(pinned, ct.T)
    h = ct @ w
    if rho:
        h[-1, -1] -= 1.0 / rho
    return np.linalg.inv(h), w


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
    fill = factor._lu.L.nnz + factor._lu.U.nnz
    assert fill <= 0.75 * (default.L.nnz + default.U.nnz)
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
    factor = SPDSolver(a)
    ct, h_inv, w = _basis(factor, c)
    assert ct.shape == (m, n)
    h_inv_ref, w_ref = _dense_pieces(a.toarray(), c.toarray(), 0.0)
    npt.assert_allclose(w, w_ref, rtol=1e-9, atol=1e-12)
    npt.assert_allclose(h_inv, h_inv_ref, rtol=1e-9, atol=1e-12)
    u = _solution(factor, ct, h_inv, w, b, g)
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
    factor = SPDSolver(a, pin=True)
    ct, h_inv, w = _basis(factor, c)
    # Ct is the constraint rows and the pin row at entry 0
    npt.assert_array_equal(ct.toarray(), np.vstack([c.toarray(), np.eye(1, n)]))
    h_inv_ref, w_ref = _dense_pieces(a.toarray(), c.toarray(), factor.rho)
    npt.assert_allclose(w, w_ref, rtol=1e-8, atol=1e-10)
    npt.assert_allclose(h_inv, h_inv_ref, rtol=1e-8, atol=1e-10)
    # Q[:m] is the energy of the extensions psi = W Q, the pin taken out
    q = h_inv[:, :m]
    psi = w @ q
    npt.assert_allclose(q[:m], psi.T @ a @ psi, rtol=1e-8, atol=1e-10)
    u = _solution(factor, ct, h_inv, w, b, g)
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
    """Zero targets, the M-apply's dual correction ``y - W H^{-1} Ct y``,
    hold the constrained average at zero."""
    rng = np.random.default_rng(3)
    n = 20
    a = _random_psd_with_constant_kernel(n, rng)
    c = sp.csr_matrix(np.ones((1, n)) / n)
    factor = SPDSolver(a, pin=True)
    u = _solution(factor, *_basis(factor, c), rng.standard_normal(n))
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
    factor = SPDSolver(a, pin=True)
    u = _solution(factor, *_basis(factor, c), b, g)
    energy = lambda v: 0.5 * v @ ad @ v - b @ v
    e0 = energy(u)
    basis = np.linalg.svd(c_rows)[2][m:]  # null space of the constraints
    for _ in range(10):
        z = basis.T @ rng.standard_normal(n - m)
        assert energy(u + 0.1 * z) >= e0 - 1e-10


def test_basis_at_rows_restricts_solution():
    """``W`` asked for at some rows is the all-rows ``W`` at those rows,
    C-contiguous, with the same ``H``, and with the load response taken at
    the same rows it gives the solution there."""
    rng = np.random.default_rng(5)
    n = 18
    a = _random_spd(n, rng)
    c = sp.csr_matrix(rng.standard_normal((2, n)))
    b = rng.standard_normal(n)
    g = rng.standard_normal(2)
    factor = SPDSolver(a)
    ct, h_all, w_all = multiplier_basis(factor, c, np.arange(n))
    rows = np.array([0, 5, 11])
    _, h, w = multiplier_basis(factor, c, rows)
    npt.assert_array_equal(w, w_all[rows])
    npt.assert_array_equal(h, h_all)
    assert w.flags.c_contiguous
    h_inv = multiplier_inverse(h)
    y = factor.solve(b)
    d = -(ct @ y)
    d[:2] += g
    npt.assert_allclose(
        y[rows] + w @ (h_inv @ d),
        _solution(factor, ct, h_inv, w_all, b, g)[rows],
        rtol=1e-12,
    )


def test_blocked_basis_matches_dense_kkt(monkeypatch):
    """A basis of more columns than one block is solved block by block,
    each block through ``SPDSolver.solve``, and its solution matches a
    dense KKT solve."""
    rng = np.random.default_rng(10)
    n, m = 90, sparsela.SOLVE_COLS + 8
    a = _random_spd(n, rng, density=0.1)
    c = sp.csr_matrix(rng.standard_normal((m, n)))
    b = rng.standard_normal(n)
    g = rng.standard_normal(m)
    factor = SPDSolver(a)
    calls = []
    original = SPDSolver.solve

    def counting(self, rhs):
        calls.append(rhs.shape)
        return original(self, rhs)

    monkeypatch.setattr(SPDSolver, "solve", counting)
    pieces = _basis(factor, c)
    monkeypatch.undo()
    assert calls == [(n, sparsela.SOLVE_COLS), (n, 8)]
    u = _solution(factor, *pieces, b, g)
    npt.assert_allclose(u, _dense_kkt(a.toarray(), c.toarray(), b, g), rtol=1e-9, atol=1e-12)


def test_non_finite_block_names_factor():
    """A block solve that produces non-finite values raises, naming the
    factor's label."""
    rng = np.random.default_rng(11)
    n = 60
    factor = SPDSolver(_random_psd_with_constant_kernel(n, rng), label="bath", pin=True)
    c = sp.csr_matrix(rng.standard_normal((sparsela.SOLVE_COLS + 3, n)))
    blocks = []

    def second_block_breaks(rhs):
        blocks.append(rhs.shape[1])
        out = np.array(rhs)
        if len(blocks) == 2:
            out[0, 0] = np.inf
        return out

    factor._substitute = second_block_breaks
    with pytest.raises(FactorizationError, match="bath"):
        multiplier_basis(factor, c, np.arange(n))
    assert blocks == [sparsela.SOLVE_COLS, 4]


def test_constraint_width_checked():
    a = sp.identity(5, format="csr")
    with pytest.raises(FactorizationError):
        _basis(SPDSolver(a, pin=True), sp.csr_matrix(np.ones((1, 4))))


def test_dependent_constraint_rows_rejected():
    rng = np.random.default_rng(6)
    a = _random_spd(10, rng)
    row = rng.standard_normal((1, 10))
    dup = sp.csr_matrix(np.vstack([row, row]))
    with pytest.raises(FactorizationError):
        _basis(SPDSolver(a), dup)


def test_shared_factor_serves_several_constraint_sets():
    """One pinned factor handed to calls with different constraint rows
    gives what each call computes with a factor of its own."""
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
        own_factor = SPDSolver(a, pin=True)
        own = _basis(own_factor, c)
        shared = _basis(factor, c)
        for piece in (1, 2):  # H^{-1} and W
            npt.assert_array_equal(shared[piece], own[piece])
        npt.assert_array_equal(shared[0].toarray(), own[0].toarray())
        npt.assert_array_equal(
            _solution(factor, *shared, b, g), _solution(own_factor, *own, b, g)
        )


def test_extend_takes_no_sparse_solve(monkeypatch):
    """Constraint targets cost no sparse solve: the extension of targets
    ``g`` is ``W Q g`` with ``Q = H^{-1}[:, :m]``, made of the pieces alone,
    so a block load with targets takes the one block solve of the load,
    and every column meets its targets."""
    rng = np.random.default_rng(8)
    n, m = 20, 3
    a = _random_psd_with_constant_kernel(n, rng)
    c_rows = rng.standard_normal((m, n))
    c_rows[0] += 1.0
    c = sp.csr_matrix(c_rows)
    factor = SPDSolver(a, pin=True)
    pieces = _basis(factor, c)
    _, h_inv, w = pieces
    b = rng.standard_normal((n, 4))
    g = rng.standard_normal((m, 4))
    calls = []
    original = SPDSolver.solve

    def counting(self, rhs):
        calls.append(rhs.shape)
        return original(self, rhs)

    monkeypatch.setattr(SPDSolver, "solve", counting)
    extension = w @ (h_inv[:, :m] @ g)
    assert calls == []
    loaded = _solution(factor, *pieces, b)
    u = _solution(factor, *pieces, b, g)
    single = _solution(factor, *pieces, b[:, 2], g[:, 2])
    monkeypatch.undo()
    assert calls == [(n, 4), (n, 4), (n,)]
    assert u.shape == (n, 4)
    npt.assert_allclose(single, u[:, 2], rtol=1e-12, atol=1e-12)
    npt.assert_allclose(c @ u, g, atol=1e-10)
    npt.assert_allclose(u, loaded + extension, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(c @ extension, g, atol=1e-10)
