"""The M-apply may overlap its largest Neumann solve with the others, run
on one extra thread; its results must not depend on that, and the thread
must call only private kernels."""

import sys
import threading

import numpy as np
import pytest

from emibddc import bddc
from emibddc.assembly import ModelParams
from emibddc.errors import FactorizationError
from emibddc.femspace import DofMap
from emibddc.geometry import MeshConfig
from emibddc.harness import build_problem, make_preconditioner, random_rhs, solve_interface
from emibddc.schur import SchurSystem
from emibddc.sparsela import SPDSolver

GRIDS = {"2x2x1": (2, 2, 1), "2x2x2": (2, 2, 2)}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid_problem(request):
    nx, ny, nz = GRIDS[request.param]
    return build_problem(MeshConfig(cells_x=nx, cells_y=ny, cells_z=nz), ModelParams())


def _solve(problem, precond, f):
    return solve_interface(problem, precond, f, tol=1e-8, maxiter=200)


def test_overlap_only_for_a_large_factor_on_several_cores(problem_2cell, monkeypatch):
    """The other solves go to the thread only with a second core and a
    largest factor of at least OVERLAP_NNZ stored entries."""
    nnz = [f.nnz for f in make_preconditioner(problem_2cell, "vef")._factors]
    big = nnz.index(max(nnz))
    for cores, limit, expected in (
        (2, max(nnz), big), (2, max(nnz) + 1, None), (1, max(nnz), None),
    ):
        monkeypatch.setattr(bddc, "CORES", cores)
        monkeypatch.setattr(bddc, "OVERLAP_NNZ", limit)
        assert make_preconditioner(problem_2cell, "vef")._big == expected


@pytest.mark.parametrize("variant", ["vef", "ve"])
def test_threaded_applies_match_one_group(grid_problem, variant):
    """The M-apply of a vector and of a block and a whole solve give the
    same bits with any substructure's solve overlapping the others and
    with no overlap."""
    problem = grid_problem
    precond = make_preconditioner(problem, variant)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(problem.schur.n)
    block = rng.standard_normal((problem.schur.n, 3))
    f = random_rhs(problem, rng)

    def results():
        u, report = _solve(problem, precond, f)
        return (precond.apply(v), precond.apply(block)), u, report.iterations, report.kappa_est

    default = precond._big
    got = {}
    try:
        for big in [None, *range(len(precond._factors))]:
            precond._big = big
            got[big] = results()
    finally:
        precond._big = default
    m1, u1, its1, kappa1 = got[None]
    for big, (m, u, its, kappa) in got.items():
        assert all(np.array_equal(a, b) for a, b in zip(m, m1)), big
        assert np.array_equal(u, u1) and its == its1 and kappa == kappa1, big


def test_overlapped_solve_under_fast_switching(grid_problem):
    """The interpreter switching threads every microsecond while both
    threads solve: a lost or misplaced write would change the result."""
    precond = make_preconditioner(grid_problem, "vef")
    v = np.random.default_rng(6).standard_normal(grid_problem.schur.n)
    expected = precond.apply(v)
    default = precond._big
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for k in range(len(precond._factors)):
            precond._big = k
            for _ in range(5):
                assert np.array_equal(precond.apply(v), expected)
    finally:
        sys.setswitchinterval(interval)
        precond._big = default


def test_public_kernels_run_on_the_main_thread(problem_2cell, monkeypatch):
    """While the thread runs a solve, every call of a public solver method
    (the ones a tracer may wrap) stays on the calling thread."""
    precond = make_preconditioner(problem_2cell, "vef")
    monkeypatch.setattr(precond, "_big", 0)

    public, solves = [], []
    for cls, name, log in (
        (SPDSolver, "solve", public),
        (SchurSystem, "apply", public),
        (SchurSystem, "reduce_rhs", public),
        (SchurSystem, "recover_interior", public),
        (DofMap, "gamma_slice", public),
        (SPDSolver, "_substitute", solves),
    ):
        def record(*args, _fn=getattr(cls, name), _log=log, **kwargs):
            _log.append(threading.current_thread() is threading.main_thread())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, record)

    f = random_rhs(problem_2cell, np.random.default_rng(8))
    _solve(problem_2cell, precond, f)
    assert public and all(public)
    # the private solve kernel did run on the thread too
    assert not all(solves)


@pytest.mark.parametrize("which", ["bddc", "bddc-coarse"])
def test_worker_error_reaches_caller(problem_2cell, which, monkeypatch):
    """A FactorizationError raised in substructure 1's Neumann solve on the
    thread, or in its W product on the calling thread, comes out of the
    apply as itself, and the next apply gives the same bits as the one
    before."""
    precond = make_preconditioner(problem_2cell, "vef")
    monkeypatch.setattr(precond, "_big", 0)
    v = np.random.default_rng(3).standard_normal(problem_2cell.schur.n)
    expected = precond.apply(v)

    threads = []

    def broken(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        raise FactorizationError("injected failure")

    class BrokenW:
        __matmul__ = broken

    # an instance attribute over the factor's method, or substructure 1's W
    factor, saved_w = precond._factors[1], precond._w[1]
    if which == "bddc":
        factor._substitute = broken
    else:
        precond._w[1] = BrokenW()
    try:
        with pytest.raises(FactorizationError, match="injected failure"):
            precond.apply(v)
    finally:
        vars(factor).pop("_substitute", None)
        precond._w[1] = saved_w
    assert threads == [which == "bddc-coarse"]
    assert np.array_equal(precond.apply(v), expected)
