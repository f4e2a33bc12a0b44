"""Self-tests of the benchmark on a tiny configuration (2x2x1 cells, refinement 0).

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from emibddc import assembly, harness, sparsela  # noqa: E402
from tracer import LAYERS, layer_label, nesting_errors, self_times  # noqa: E402

TINY = {
    "experiment": "solve",
    "mesh": {"cells_x": 2, "cells_y": 2, "cells_z": 1, "cell_edge_mm": 100.0},
    "variants": ["vef", "ve"],
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def config():
    return bench.experiment_config(TINY, seed=2026)


@pytest.fixture(scope="module")
def plain(config):
    return bench.run_study(config)


@pytest.fixture(scope="module")
def traced(config):
    return bench.run_study(config, traced=True)


def test_metric_names_and_units_match_benchmark_json(config):
    untraced = bench.run_workload(config, seconds=0, trace=False)
    traced = bench.run_workload(config, seconds=0, trace=True)
    assert untraced.correct, untraced.problems
    assert traced.correct, traced.problems
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert list(untraced.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced.metrics) == [m["name"] for m in SPEC["per_layer"]]
    for name, (_, unit, _) in {**untraced.metrics, **traced.metrics}.items():
        assert units[name] == unit, name


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for spec in bench.WORKLOADS.values():
        bench.experiment_config(spec, seed=1)  # every workload is a valid config


def test_spans_nest_and_self_times_sum_to_wall(traced):
    spans = traced.spans
    assert [s.name for s in spans if s.parent < 0] == ["harness.run_experiment"]
    assert nesting_errors(spans) == []
    assert abs(sum(self_times(spans)) - traced.wall_s) <= bench.SELF_SUM_SLACK * traced.wall_s
    assert bench.trace_problems(traced) == []
    assert {s.layer for s in spans} == {layer_label(m) for m in LAYERS}


def test_traced_run_reproduces_untraced_counts(plain, traced):
    assert len(plain.signature()) == 2
    assert traced.signature() == plain.signature()
    assert not plain.problems() and not traced.problems()


def test_tracer_restores_the_program(traced):
    assert harness.build_problem.__module__ == "emibddc.harness"
    assert not hasattr(harness.build_problem, "__wrapped__")
    assert not hasattr(sparsela.SPDSolver.solve, "__wrapped__")
    assert not hasattr(assembly.tet_stiffness_batch, "__wrapped__")


def test_non_converged_solve_counts_as_failure():
    config = bench.experiment_config(TINY, seed=2026, maxiter=3)
    result = bench.run_workload(config, seconds=0, trace=False)
    assert result.attempted == 6  # three studies of two solves
    assert result.failed == result.attempted
    assert not result.correct


@pytest.mark.parametrize(
    "converged, residual, error, failed",
    [
        (True, 1e-7, "", False),
        (False, 1e-9, "", True),  # not converged, even with a small residual
        (True, 2e-5, "", True),  # converged, but residual above 10 * tol
        (True, float("nan"), "", True),
        (None, float("nan"), "SolverError('not positive definite')", True),  # raised
    ],
)
def test_solve_failure_rule(converged, residual, error, failed):
    report = None if error else types.SimpleNamespace(converged=converged, tol=1e-6)
    assert bench.Solve(0.1, report, error, residual).failed is failed


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rhs-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
