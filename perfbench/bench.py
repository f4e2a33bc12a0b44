"""Solve benchmark for emibddc: workloads, end-to-end probe, per-layer metrics.

Every study runs through the public entry point
``emibddc.harness.run_experiment``, the same path as ``emibddc solve`` and
``emibddc experiment``, so changes to the harness loops are measured rather
than bypassed.  A `Probe` wraps the three harness stages that split a study
into set-up and solve (``build_problem``, ``make_preconditioner``,
``solve_interface``) to time them and to keep each solve's inputs, which are
checked after the study: a solve fails when it raises, when its report is
not converged, or when ``||K u - f|| / ||f|| > 10 * tol`` against the
assembled step matrix.

End-to-end metrics come from untraced studies.  Per-layer metrics come from
traced studies (see ``tracer.py``), run alternately with untraced ones so
that the tracing overhead is their difference.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import functools
import gc
import math
import resource
import statistics
import time
import traceback

import numpy as np

from emibddc import harness
from tracer import LAYERS, Tracer, has_ancestor, layer_label, nesting_errors, self_times

# Workload -> ExperimentConfig fields (cell edge 100 mm everywhere).  The
# sizes keep each study at a few seconds on a 2-core machine, so that one
# run repeats set-up at least three times and reports medians.
WORKLOADS = {
    # Setup-bound (~80%): one bath with ~12k local dofs, factored twice,
    # and both coarse spaces (vef: dim 76, ve: dim 36); one solve each.
    "cellgrid-h12": {
        "experiment": "solve",
        "mesh": {"cells_x": 2, "cells_y": 2, "cells_z": 2, "refinement": 1,
                 "base_resolution": 6, "cell_edge_mm": 100.0},
        "variants": ["vef", "ve"],
    },
    # Solve-bound (~75%): 28 substructures, coarse dim 324, one
    # preconditioner reused for 20 right-hand sides, as in time stepping.
    # H/h 6 rather than 4 keeps more of the solve in SuperLU than in Python
    # loops, which made study times drift less with the host's load.
    "rhs-stream": {
        "experiment": "random_rhs",
        "mesh": {"cells_x": 3, "cells_y": 3, "cells_z": 3, "refinement": 0,
                 "base_resolution": 6, "cell_edge_mm": 100.0},
        "variants": ["vef"],
        "sample_count": 20,
    },
    # Condensation- and factorization-bound: convex cells inset in a bath
    # that is mostly interior; coarse dim 16, few solves.
    "convex-h12": {
        "experiment": "solve",
        "mesh": {"cells_x": 2, "cells_y": 2, "cells_z": 2, "refinement": 1,
                 "base_resolution": 6, "geometry_kind": "convex_cells",
                 "cell_edge_mm": 100.0},
        "variants": ["vef"],
    },
}

RESIDUAL_FACTOR = 10.0  # a solve fails when ||K u - f|| / ||f|| > this * tol
SELF_SUM_SLACK = 0.05  # layer self times must sum to the traced wall within this share

SOLVE_STAGE = "harness.solve_interface"

# Counts recorded at span boundaries: hook(args, kwargs, result) -> Span.info.
ANNOTATE = {
    "sparsela.SPDSolver.__init__": lambda a, k, r: a[0].n,
    "sparsela.SPDSolver.solve": lambda a, k, r: 1 if r.ndim == 1 else r.shape[1],
    "femspace.build_composite_space": lambda a, k, r: (
        r.n_global, r.n_gamma, int(np.max(r.n_local))
    ),
    "femspace.build_primal_constraints": lambda a, k, r: collections.Counter(
        c.kind for c in r.classes
    ),
    "bddc.BddcPreconditioner.__init__": lambda a, k, r: a[0].coarse_dim,
    "krylov.pcg": lambda a, k, r: r[1].iterations,
}


def experiment_config(spec: dict, seed: int, **overrides) -> harness.ExperimentConfig:
    """The only input the program receives: a config built from a workload and a seed."""
    data = copy.deepcopy(spec)
    data.update(seed=int(seed), **overrides)
    return harness.ExperimentConfig.from_dict(data)


@dataclasses.dataclass
class Solve:
    seconds: float
    report: object = None  # SolveReport; None when the call raised
    error: str = ""
    residual: float = math.nan  # ||K u - f|| / ||f||, set after the study

    @property
    def failed(self) -> bool:
        return (
            bool(self.error)
            or not self.report.converged
            or not self.residual <= RESIDUAL_FACTOR * self.report.tol
        )


class Probe:
    """Times the harness's set-up and solve stages and checks every solve."""

    def __init__(self):
        self.setup_s = 0.0
        self.solves: list[Solve] = []
        self._pending = []  # (Solve, K, f, u), checked once the study is over
        self._undo = {}

    def _timed_setup(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += time.perf_counter() - t0

        return wrapper

    def _checked_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(problem, precond, f, **kwargs):
            t0 = time.perf_counter()
            try:
                u, report = fn(problem, precond, f, **kwargs)
            except Exception as exc:
                self.solves.append(Solve(time.perf_counter() - t0, error=repr(exc)))
                raise
            solve = Solve(time.perf_counter() - t0, report)
            self.solves.append(solve)
            self._pending.append((solve, problem.operators.matrix, f, u))
            return u, report

        return wrapper

    def install(self):
        for name in ("build_problem", "make_preconditioner"):
            self._undo[name] = getattr(harness, name)
            setattr(harness, name, self._timed_setup(self._undo[name]))
        self._undo["solve_interface"] = harness.solve_interface
        harness.solve_interface = self._checked_solve(harness.solve_interface)

    def uninstall(self):
        for name, fn in self._undo.items():
            setattr(harness, name, fn)
        self._undo.clear()

    def check(self):
        for solve, k, f, u in self._pending:
            solve.residual = float(np.linalg.norm(k @ u - f) / np.linalg.norm(f))
        self._pending.clear()


@dataclasses.dataclass
class Study:
    wall_s: float
    setup_s: float
    solves: list
    rows: list
    error: str = ""
    spans: list | None = None
    peak_rss_mb: float = 0.0  # process peak resident memory when the study ended

    @property
    def _failed_outside_solves(self) -> bool:
        # a study that fails outside a solve still counts as one failed attempt
        return bool(self.error) and not any(s.error for s in self.solves)

    @property
    def attempted(self) -> int:
        return len(self.solves) + self._failed_outside_solves

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.solves) + self._failed_outside_solves

    def signature(self) -> tuple:
        """Iterations and kappa estimate of every solve, in order."""
        return tuple((s.report.iterations, s.report.kappa_est) for s in self.solves if s.report)

    def problems(self) -> list[str]:
        out = []
        if self.error:
            out.append("study raised:\n" + self.error)
        rows = tuple((r.iterations, r.kappa_est) for r in self.rows)
        if not self.error and rows != self.signature():
            out.append("result rows do not match the solve reports")
        for i, s in enumerate(self.solves):
            if s.failed:
                state = s.error or (
                    f"converged={s.report.converged} residual={s.residual:.3e} tol={s.report.tol:g}"
                )
                out.append(f"solve {i} failed: {state}")
        return out


def run_study(config: harness.ExperimentConfig, traced: bool = False) -> Study:
    """One ``run_experiment`` call, timed; traced when asked."""
    gc.collect()  # the previous study's garbage is neither timed nor counted in peak memory
    tracer = Tracer(ANNOTATE) if traced else None
    probe = Probe()
    if tracer:
        tracer.install()
    probe.install()
    rows, error = [], ""
    try:
        t0 = time.perf_counter()
        try:
            rows, _ = harness.run_experiment(config)
        except Exception:  # reported as a failed attempt, never swallowed
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    finally:
        probe.uninstall()
        if tracer:
            tracer.uninstall()
    probe.check()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Study(wall, probe.setup_s, probe.solves, rows, error, tracer.spans if tracer else None, peak)


def repeat(step, seconds: float, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, then while one more call is
    expected to end within ``seconds`` of the start."""
    out, took = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step())
        took.append(time.perf_counter() - t0)
        if len(out) >= minimum and time.perf_counter() - start + statistics.median(took) > seconds:
            return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else math.nan


def end_to_end_metrics(studies) -> dict:
    """name -> (value, unit, how it was taken)."""
    solves = [s for st in studies for s in st.solves if s.report]
    n, m = len(studies), len(solves)
    return {
        "wall_s": (_median(st.wall_s for st in studies), "s", f"median of {n} studies"),
        "setup_s": (_median(st.setup_s for st in studies), "s", f"median of {n} studies"),
        "solve_s": (_median(s.seconds for s in solves), "s", f"median of {m} solves"),
        "iterations": (_median(s.report.iterations for s in solves), "count", f"median of {m} solves"),
        "kappa_est": (_median(s.report.kappa_est for s in solves), "ratio", f"median of {m} solves"),
        # later studies in the same process add heap fragmentation, not fill
        "peak_rss_mb": (studies[0].peak_rss_mb, "MiB", "process peak after the first study"),
    }


def layer_metrics(study: Study) -> dict:
    """name -> (value, unit) from the spans of one traced study."""
    spans = study.spans
    own = self_times(spans)
    incl = collections.defaultdict(float)
    selfs = collections.defaultdict(float)
    calls = collections.Counter()
    infos = collections.defaultdict(list)
    layer_self = {layer_label(m): 0.0 for m in LAYERS}
    setup_solve_s = apply_solve_s = 0.0
    setup_solve_cols = apply_solve_calls = 0
    for i, s in enumerate(spans):
        incl[s.name] += s.seconds
        selfs[s.name] += own[i]
        calls[s.name] += 1
        layer_self[s.layer] += own[i]
        if s.info is not None:
            infos[s.name].append(s.info)
        if s.name == "sparsela.SPDSolver.solve":
            if has_ancestor(spans, i, SOLVE_STAGE):
                apply_solve_s += s.seconds
                apply_solve_calls += 1
            else:
                setup_solve_s += s.seconds
                setup_solve_cols += s.info or 0
    sizes = infos["femspace.build_composite_space"] or [(0, 0, 0)]
    kinds = infos["femspace.build_primal_constraints"] or [collections.Counter()]
    out = {f"{layer}.self_s": (t, "s") for layer, t in layer_self.items()}
    out.update({
        "geometry.build_mesh_s": (incl["geometry.build_mesh"], "s"),
        "geometry.extract_interfaces_s": (incl["geometry.extract_interfaces"], "s"),
        "femspace.build_composite_space_s": (incl["femspace.build_composite_space"], "s"),
        "femspace.build_primal_constraints_s": (incl["femspace.build_primal_constraints"], "s"),
        "femspace.n_global": (max(x[0] for x in sizes), "count"),
        "femspace.n_gamma": (max(x[1] for x in sizes), "count"),
        "femspace.n_local_max": (max(x[2] for x in sizes), "count"),
        "femspace.coarse_dim_vertex": (max(c["vertex"] for c in kinds), "count"),
        "femspace.coarse_dim_edge": (max(c["edge"] for c in kinds), "count"),
        "femspace.coarse_dim_face": (max(c["face"] for c in kinds), "count"),
        "assembly.assemble_system_s": (selfs["assembly.assemble_system"], "s"),
        "kernels.tet_stiffness_s": (incl["kernels.tet_stiffness_batch"], "s"),
        "kernels.tri_mass_s": (incl["kernels.tri_mass_batch"], "s"),
        "schur.condense_s": (incl["schur.condense"], "s"),
        "schur.apply_s": (incl["schur.SchurSystem.apply"], "s"),
        "schur.apply_calls": (calls["schur.SchurSystem.apply"], "count"),
        "schur.reduce_recover_s": (
            incl["schur.SchurSystem.reduce_rhs"] + incl["schur.SchurSystem.recover_interior"], "s",
        ),
        "sparsela.factor_s": (incl["sparsela.SPDSolver.__init__"], "s"),
        "sparsela.factor_count": (calls["sparsela.SPDSolver.__init__"], "count"),
        "sparsela.factor_dim_max": (max(infos["sparsela.SPDSolver.__init__"], default=0), "count"),
        "sparsela.setup_solve_s": (setup_solve_s, "s"),
        "sparsela.setup_solve_cols": (setup_solve_cols, "count"),
        "sparsela.apply_solve_s": (apply_solve_s, "s"),
        "sparsela.apply_solve_calls": (apply_solve_calls, "count"),
        "sparsela.constrained_setup_self_s": (selfs["sparsela.ConstrainedSolver.__init__"], "s"),
        "sparsela.constrained_solve_self_s": (selfs["sparsela.ConstrainedSolver.solve"], "s"),
        "bddc.setup_self_s": (selfs["bddc.BddcPreconditioner.__init__"], "s"),
        "bddc.apply_self_s": (selfs["bddc.BddcPreconditioner.apply"], "s"),
        "bddc.apply_calls": (calls["bddc.BddcPreconditioner.apply"], "count"),
        "bddc.coarse_dim": (max(infos["bddc.BddcPreconditioner.__init__"], default=0), "count"),
        "krylov.pcg_self_s": (selfs["krylov.pcg"], "s"),
        "krylov.iterations_total": (sum(infos["krylov.pcg"]), "count"),
        "harness.build_problem_s": (incl["harness.build_problem"], "s"),
        "harness.make_preconditioner_s": (incl["harness.make_preconditioner"], "s"),
        "harness.solve_interface_s": (incl[SOLVE_STAGE], "s"),
        "harness.residual_rel_max": (max((s.residual for s in study.solves), default=math.nan), "ratio"),
    })
    return out


def trace_problems(study: Study) -> list[str]:
    """Broken nesting, or layer self times that do not add up to the wall time."""
    out = nesting_errors(study.spans)
    total = sum(self_times(study.spans))
    if not abs(total - study.wall_s) <= SELF_SUM_SLACK * study.wall_s:
        out.append(f"layer self times sum to {total:.4f} s of {study.wall_s:.4f} s traced wall")
    return out


@dataclasses.dataclass
class RunResult:
    metrics: dict  # name -> (value, unit, note)
    attempted: int
    failed: int
    problems: list

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _result(metrics, studies, extra_problems=()) -> RunResult:
    reference = studies[0].signature()
    problems = [p for st in studies for p in st.problems()]
    if any(st.signature() != reference for st in studies):
        problems.append("iterations or kappa estimates differ between repeated studies of one input")
    return RunResult(
        metrics,
        sum(st.attempted for st in studies),
        sum(st.failed for st in studies),
        problems + list(extra_problems),
    )


def run_workload(config, seconds: float, trace: bool) -> RunResult:
    """Repeat studies of one config for ``seconds``; report medians.

    Untraced: at least three studies, end-to-end metrics.  Traced: at least
    two (untraced, traced) pairs, per-layer metrics of the traced study with
    the median wall time, and ``trace.overhead_s`` as the difference of the
    median traced and untraced walls.
    """
    if not trace:
        studies = repeat(lambda: run_study(config), seconds, minimum=3)
        return _result(end_to_end_metrics(studies), studies)
    pairs = repeat(lambda: (run_study(config), run_study(config, traced=True)), seconds, minimum=2)
    plain = [p[0] for p in pairs]
    traced = sorted((p[1] for p in pairs), key=lambda st: st.wall_s)
    chosen = traced[(len(traced) - 1) // 2]
    metrics = {k: (v, unit, "traced study with the median wall") for k, (v, unit) in layer_metrics(chosen).items()}
    overhead = _median(st.wall_s for st in traced) - _median(st.wall_s for st in plain)
    metrics["trace.overhead_s"] = (overhead, "s", f"median traced minus untraced wall, {len(pairs)} pairs")
    return _result(metrics, plain + traced, [p for st in traced for p in trace_problems(st)])
