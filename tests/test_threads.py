"""The substructure loops of the interface applies run on a thread pool;
their results must not depend on how the substructures are grouped, and
the pool's workers must call only private kernels."""

import sys
import threading

import numpy as np
import pytest

from emibddc import _threads
from emibddc.assembly import ModelParams
from emibddc.errors import FactorizationError
from emibddc.geometry import MeshConfig
from emibddc.harness import build_problem, make_preconditioner, random_rhs, solve_interface
from emibddc.schur import SubstructureBlocks
from emibddc.sparsela import ConstrainedSolver, SPDSolver

GRIDS = {"2x2x1": (2, 2, 1), "2x2x2": (2, 2, 2)}


@pytest.fixture(scope="module", params=sorted(GRIDS))
def grid_problem(request):
    nx, ny, nz = GRIDS[request.param]
    return build_problem(MeshConfig(cells_x=nx, cells_y=ny, cells_z=nz), ModelParams())


def _solve(problem, precond, f):
    return solve_interface(problem, precond, f, tol=1e-8, stop="rel", maxiter=200)


def _two_groups(obj):
    """Substructure 0 alone and all others, so that a worker thread runs even
    on one core."""
    return [[0], list(range(1, sum(len(g) for g in obj._groups)))]


def test_partition_is_greedy_largest_first():
    # costs 5, 4, 4 go to groups 0, 1, 1; then 1 and 0 join the lighter group 0
    assert _threads.partition([5, 1, 4, 4, 0], 2) == [[0, 1, 4], [2, 3]]
    # ties in cost go by index, ties in load to the first group
    assert _threads.partition([3, 3, 3], 2) == [[0, 2], [1]]
    # no empty groups, and one group holds everything in index order
    assert _threads.partition([1, 2, 3], 5) == [[2], [1], [0]]
    assert _threads.partition([7, 0, 9], 1) == [[0, 1, 2]]


def test_run_groups_waits_and_raises_first_error_in_group_order():
    done = []

    def fn(group):
        done.append(group[0])
        if group[0] in (1, 2):
            raise ValueError(f"group {group[0]}")

    with pytest.raises(ValueError, match="group 1"):
        _threads.run_groups(fn, [[0], [1], [2], [3]])
    assert sorted(done) == [0, 1, 2, 3]


@pytest.mark.parametrize("variant", ["vef", "ve"])
def test_threaded_applies_match_one_group(grid_problem, variant):
    """S-apply, M-apply and a whole solve give the same bits for the default
    groups, two groups and one group."""
    problem = grid_problem
    schur = problem.schur
    precond = make_preconditioner(problem, variant)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(schur.n)
    f = random_rhs(problem, rng)

    def results():
        u, report = _solve(problem, precond, f)
        return schur.apply(v), precond.apply(v), u, report.iterations, report.kappa_est

    layouts = {
        "default": (schur._groups, precond._groups),
        "two": (_two_groups(schur), _two_groups(precond)),
        "one": ([list(range(len(schur.blocks)))], [list(range(len(precond.subs)))]),
    }
    got = {}
    try:
        for name, (s_groups, m_groups) in layouts.items():
            schur._groups, precond._groups = s_groups, m_groups
            got[name] = results()
    finally:
        schur._groups, precond._groups = layouts["default"]
    for name in ("default", "two"):
        s, m, u, its, kappa = got[name]
        s1, m1, u1, its1, kappa1 = got["one"]
        assert np.array_equal(s, s1) and np.array_equal(m, m1), name
        assert np.array_equal(u, u1) and its == its1 and kappa == kappa1, name


def test_one_group_per_substructure_under_fast_switching(grid_problem):
    """More groups than threads, with the interpreter switching threads every
    microsecond: a lost or misplaced write would change the result."""
    schur = grid_problem.schur
    precond = make_preconditioner(grid_problem, "vef")
    v = np.random.default_rng(6).standard_normal(schur.n)
    expected = schur.apply(v), precond.apply(v)
    default = schur._groups, precond._groups
    interval = sys.getswitchinterval()
    try:
        schur._groups = [[k] for k in range(len(schur.blocks))]
        precond._groups = [[k] for k in range(len(precond.subs))]
        sys.setswitchinterval(1e-6)
        for _ in range(20):
            assert np.array_equal(schur.apply(v), expected[0])
            assert np.array_equal(precond.apply(v), expected[1])
    finally:
        sys.setswitchinterval(interval)
        schur._groups, precond._groups = default


def test_public_kernels_run_on_the_main_thread(problem_2cell, monkeypatch):
    """While workers run substructure groups, every call of a public solver
    method (the ones a tracer may wrap) stays on the calling thread."""
    precond = make_preconditioner(problem_2cell, "vef")
    schur = problem_2cell.schur
    monkeypatch.setattr(schur, "_groups", _two_groups(schur))
    monkeypatch.setattr(precond, "_groups", _two_groups(precond))

    public, private = [], []
    for cls, name, log in (
        (SPDSolver, "solve", public),
        (ConstrainedSolver, "solve", public),
        (SubstructureBlocks, "schur_apply", public),
        (SPDSolver, "_solve", private),
    ):
        def record(*args, _fn=getattr(cls, name), _log=log, **kwargs):
            _log.append(threading.current_thread() is threading.main_thread())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, record)

    f = random_rhs(problem_2cell, np.random.default_rng(8))
    _solve(problem_2cell, precond, f)
    assert public and all(public)
    # the private kernels did run on a worker too
    assert not all(private)


@pytest.mark.parametrize("which", ["schur", "bddc"])
def test_worker_error_reaches_caller(problem_2cell, which, monkeypatch):
    """A FactorizationError raised in a worker group comes out of the apply
    as itself, and the next apply works and gives the same result."""
    precond = make_preconditioner(problem_2cell, "vef")
    if which == "schur":
        obj = problem_2cell.schur
        target = obj.blocks[1].interior
    else:
        obj = precond
        target = obj.subs[1].solver
    monkeypatch.setattr(obj, "_groups", _two_groups(obj))
    v = np.random.default_rng(3).standard_normal(problem_2cell.schur.n)
    expected = obj.apply(v)

    threads = []

    def broken(rhs):
        threads.append(threading.current_thread() is threading.main_thread())
        raise FactorizationError("injected failure")

    target._solve = broken
    with pytest.raises(FactorizationError, match="injected failure"):
        obj.apply(v)
    assert threads == [False]
    del target._solve
    assert np.array_equal(obj.apply(v), expected)
