import gc
import json
import re
import shlex
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from emibddc import cli, harness
from emibddc.assembly import ModelParams, assemble_rhs, MembraneState
from emibddc.errors import ConfigError
from emibddc.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    imex_rhs,
    polylog_model,
    random_rhs,
    run_experiment,
    rows_to_string,
    write_csv,
    write_model_csv,
)


TINY = {"mesh": {"cells_x": 1, "cells_y": 1, "cells_z": 1}, "variants": ["vef"]}


@pytest.fixture
def no_mesh(monkeypatch):
    """Fail the test if it builds a mesh."""

    def fail(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_mesh", fail)
    monkeypatch.setattr(cli, "build_mesh", fail)


def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "cells",
        "subdomains",
        "global_dofs",
        "primal_space",
        "iterations",
        "kappa_est",
        "coarse_dim",
        "solve_ms",
        "seed",
        "sigma_summary",
    )


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        ExperimentConfig.from_dict({"tolerance": 1e-6})
    with pytest.raises(ConfigError, match="mesh"):
        ExperimentConfig.from_dict({"mesh": {"cell_count": 2}})
    with pytest.raises(ConfigError, match="params"):
        ExperimentConfig.from_dict({"params": {"dt": 0.1}})


def test_from_dict_converts_containers():
    cfg = ExperimentConfig.from_dict(
        {
            "mesh": {"cells_x": 2},  # three regions, one sigma each
            "variants": ["ve"],
            "grids": [[2, 2, 1], [2, 2, 2]],
            "params": {"sigma": [20, 3, 3]},
            "levels": [0, 1],
        }
    )
    assert cfg.variants == ("ve",)
    assert cfg.grids == ((2, 2, 1), (2, 2, 2))
    assert cfg.params.sigma == (20.0, 3.0, 3.0)
    assert cfg.levels == (0, 1)


def test_variants_are_canonical_strings():
    variants = ExperimentConfig.from_dict({"variants": ["VEF", "ve"]}).variants
    assert variants == ("vef", "ve")
    assert [type(v) for v in variants] == [str, str]  # not the enum


def test_from_dict_leaves_input_unchanged():
    data = {"mesh": {"cells_x": 2}, "params": {"sigma": [20.0, 3.0, 3.0]}, "variants": ["vef"]}
    before = json.loads(json.dumps(data))
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.params.sigma == (20.0, 3.0, 3.0)
    assert data == before
    assert type(data["params"]["sigma"]) is list


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "scaling"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"sample_count": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"rhs": "sinusoid"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"variants": ["vem"]})


def test_result_row_formatting():
    row = ResultRow(
        cells="2x1x1",
        subdomains=3,
        global_dofs=362,
        primal_space="vef",
        iterations=12,
        kappa_est=3.14159265358979,
        coarse_dim=20,
        solve_ms=12.3456,
        seed=7,
        sigma_summary="extra=20|intra_min=3|intra_max=3",
    )
    fields = row.as_csv()
    assert fields[0] == "2x1x1"
    assert fields[5] == "3.141592654"  # ten significant digits
    assert fields[7] == "12.346"
    assert len(fields) == len(CSV_HEADER)


def test_problem_helpers(problem_2cell):
    assert problem_2cell.cells_label == "2x1x1"
    assert problem_2cell.sigma_summary() == "extra=20|intra_min=3|intra_max=3"


def test_random_rhs_is_compatible_and_seeded(problem_1cell):
    f1 = random_rhs(problem_1cell, np.random.default_rng(99))
    f2 = random_rhs(problem_1cell, np.random.default_rng(99))
    npt.assert_array_equal(f1, f2)
    assert abs(f1.sum()) < 1e-10 * np.linalg.norm(f1)


def test_imex_rhs_matches_assembly(problem_1cell):
    rng = np.random.default_rng(7)
    u_prev = rng.standard_normal(problem_1cell.dofmap.n_global)
    f = imex_rhs(problem_1cell, u_prev=u_prev)
    direct = assemble_rhs(
        problem_1cell.mesh,
        problem_1cell.topo,
        problem_1cell.dofmap,
        problem_1cell.params,
        u_prev,
        MembraneState.zeros(problem_1cell.topo),
    )
    npt.assert_allclose(f, direct, atol=1e-14)
    # the resting default has nothing to relax: zero load
    npt.assert_allclose(imex_rhs(problem_1cell), 0.0, atol=1e-15)


def test_polylog_model_intersects_first_point():
    model0 = polylog_model(5.0, 4, 4)
    npt.assert_allclose(model0, 5.0, rtol=1e-14)
    # doubling H/h raises the bound by ((1+log 8)/(1+log 4))^2
    expected = 5.0 * ((1 + np.log(8)) / (1 + np.log(4))) ** 2
    npt.assert_allclose(polylog_model(5.0, 4, 8), expected, rtol=1e-14)


def test_solve_rows_deterministic_modulo_timing():
    cfg = ExperimentConfig.from_dict(dict(TINY, seed=123))
    rows_a, _ = run_experiment(cfg)
    rows_b, _ = run_experiment(cfg)

    def scrub(rows):
        out = []
        for r in rows:
            f = list(r.as_csv())
            f[7] = "-"  # solve_ms is wall-clock
            out.append(",".join(f))
        return out

    assert scrub(rows_a) == scrub(rows_b)


@pytest.mark.parametrize(
    "spec, n_built",
    [
        ({"experiment": "random_sigma", "sample_count": 2}, 2),
        ({"experiment": "weak_scaling", "grids": [[2, 1, 1], [2, 1, 1]]}, 2),
        ({"experiment": "refinement", "levels": [0, 1]}, 2),
        ({"experiment": "random_rhs", "sample_count": 2}, 1),  # one operator: a control
    ],
    ids=["random_sigma", "weak_scaling", "refinement", "random_rhs"],
)
def test_run_experiment_keeps_no_problem_alive(spec, n_built, monkeypatch):
    """A study holds one operator at a time: every ``Problem`` it built
    before, with the factors and preconditioners it holds, is garbage when
    it builds the next, and all of them are once the study returns, so
    neither the rows, the extras nor a cache keep one alive."""
    built = []
    original = harness.build_problem

    def tracking(*args):
        gc.collect()
        assert [ref() for ref in built] == [None] * len(built), "an earlier problem is alive"
        problem = original(*args)
        built.append(weakref.ref(problem))
        return problem

    monkeypatch.setattr(harness, "build_problem", tracking)
    spec = dict(spec, mesh={"cells_x": 2, "cell_edge_mm": 100})
    rows, extra = run_experiment(ExperimentConfig.from_dict(spec))
    gc.collect()
    assert len(built) == n_built
    assert [ref() for ref in built] == [None] * n_built


def test_write_csv_and_rows_to_string(tmp_path):
    row = ResultRow("1x1x1", 2, 193, "vef", 5, 2.0, 2, 1.0, 0, "extra=20|intra_min=3|intra_max=3")
    path = tmp_path / "out.csv"
    write_csv([row], path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert text == rows_to_string([row])


def test_write_model_csv(tmp_path):
    model = [
        {"refinement": 0, "hh": 4, "primal_space": "vef", "kappa_est": 2.0, "polylog_model": 2.0}
    ]
    path = tmp_path / "model.csv"
    write_model_csv(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "refinement,hh,primal_space,kappa_est,polylog_model"
    assert len(lines) == 2


# ---------------------------------------------------------------- CLI


def test_cli_solve_exit_zero(tmp_path, capsys):
    out = tmp_path / "solve.csv"
    rc = cli.main(
        ["solve", "--set", "mesh.cells_x=1", "--variant", "vef", "--out", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert "[vef]" in capsys.readouterr().out


def test_cli_solve_not_converged_exits_one(capsys):
    for spelling in ([], ["--set", 'variants=["VEF"]']):
        rc = cli.main(["solve", "--set", "mesh.cells_x=2", "--maxiter", "3", *spelling])
        assert rc == 1
        captured = capsys.readouterr()
        assert "NOT converged" in captured.err
        assert "vef on 2x1x1" in captured.err  # the canonical name, however spelt
        assert "iterations=" not in captured.out  # no row for a failed solve


def test_cli_readme_random_sigma_command(tmp_path):
    """The README's random-sigma command: 20 samples, both primal spaces."""
    out = tmp_path / "sigma.csv"
    rc = cli.main(
        ["experiment", "random-sigma", "--set", "mesh.cells_x=2", "--samples", "20",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 40


@pytest.mark.parametrize("out", ["./ref", "runs.v2/ref"])
def test_cli_refinement_model_csv_next_to_out(out, tmp_path, monkeypatch):
    """The model CSV of a refinement study is the out path without its
    extension plus ``_model.csv``, also when the path has no extension and
    a directory name has a dot."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    rc = cli.main(
        ["experiment", "refinement", "--set", "mesh.cells_x=2", "--set", "levels=[0]",
         "--out", out]
    )
    assert rc == 0
    expected = (tmp_path / (out + "_model.csv")).resolve()
    assert [p.resolve() for p in tmp_path.rglob("*_model.csv")] == [expected]
    assert expected.read_text().startswith("refinement,hh,primal_space,kappa_est,polylog_model")


def test_cli_unknown_config_key_exits_two(capsys):
    rc = cli.main(["solve", "--set", "mesh.bogus=3"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_bad_set_syntax_exits_two(capsys):
    rc = cli.main(["solve", "--set", "mesh.cells_x"])
    assert rc == 2


def test_cli_unknown_experiment_exits_two(capsys):
    rc = cli.main(["experiment", "warp-speed"])
    assert rc == 2
    err = capsys.readouterr().err
    for name in ("random_rhs", "random_sigma", "refinement", "solve", "verify", "weak_scaling"):
        assert name in err


def test_cli_verify_prints_report(capsys):
    rc = cli.main(["experiment", "verify", "--set", "mesh.cells_x=2", "--variant", "vef"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("[vef] apply_rel_err=")
    assert "verify: all checks passed" in out


@pytest.mark.parametrize(
    "flag, value", [("--maxiter", "0"), ("--tol", "-1"), ("--tol", "0")]
)
def test_cli_invalid_tol_or_maxiter_exits_two(flag, value, capsys):
    """Caught as configuration errors before any mesh is built."""
    rc = cli.main(["solve", "--set", "mesh.cells_x=2", flag, value])
    assert rc == 2
    assert flag.lstrip("-") + " must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve", "--set", "mesh.cells_x=2", "--set", "stop=bogus"],
            "unknown key(s) under 'config': stop",
        ),
        (["solve", "--set", "mesh.cells_x=2", "--set", "seed=-1"], "seed must be"),
        (["solve", "--set", "mesh.cells_x=2", "--set", "seed=1.5"], "seed must be"),
        (["solve", "--set", "mesh.cells_x=0"], "cells_x must be"),
        (["solve", "--set", "mesh.cells_x=abc"], "not supported"),
        (["solve", "--set", "params.tau=-1"], "tau must be"),
        (
            [
                "experiment", "weak-scaling", "--set", "mesh.geometry_kind=convex_cells",
                "--set", "grids=[[2,1,1],[3,1,1]]",
            ],
            "convex_cells supports",
        ),
        (["experiment", "weak-scaling", "--set", "grids=[[2,1]]"], "weak_scaling study"),
        (["experiment", "refinement", "--set", "levels=[-1]"], "refinement must be"),
        (["solve", "--set", "mesh.cells_x=2", "--set", "params.sigma=[1,2]"], "3 regions"),
        (["solve", "--set", "params.sigma=abc"], "sigma must be"),
        (["solve", "--set", "tol=abc"], "tol must be"),
        (["solve", "--set", "maxiter=abc"], "maxiter must be"),
        (["solve", "--set", "maxiter=2.5"], "maxiter must be"),
        (["solve", "--set", "sample_count=abc"], "sample_count must be"),
        (["solve", "--set", "grids=3"], "grids must be"),
        (["solve", "--set", "out=5"], "out must be"),
        (["solve", "--set", "mesh.cells_x=2.5"], "cells_x must be an integer"),
        (["solve", "--set", "mesh.cells_x=true"], "cells_x must be an integer"),
        (["solve", "--set", "mesh.base_resolution=4.0"], "base_resolution must be an integer"),
        (["solve", "--set", "mesh.refinement=0.5"], "refinement must be an integer"),
        *(
            (["solve", "--set", "mesh.cells_x=2", "--set", "mesh.cell_edge_mm=100",
              "--set", setting], message)
            for setting, message in [
                ("params.tau=true", "tau must be a finite number"),
                ("mesh.cell_edge_mm=true", "cell_edge_mm must be a finite number"),
                ("params.sigma=[20,true,3]", "sigma must be"),
                ("tol=Infinity", "tol must be a finite number"),
                ("params.r_gap=Infinity", "r_gap must be a finite number"),
                ("params.sigma=[20,NaN,3]", "sigma must be"),
                ("params.tau=Infinity", "tau must be a finite number"),
                ("mesh.cell_edge_mm=Infinity", "cell_edge_mm must be a finite number"),
            ]
        ),
        (["solve", "--config", "."], "cannot read config file '.': Is a directory"),
        (["solve", "--config", "latin1.json"], "is not UTF-8 text"),
        (["solve", "--set", "mesh.cells_x=2", "--out", "."], "out '.' is a directory"),
        (
            ["solve", "--set", "mesh.cells_x=2", "--out", "missing/x.csv"],
            "the directory of out 'missing/x.csv' does not exist",
        ),
        (["mesh", "--out", "missing/m.vtk"], "does not exist"),
        (
            ["solve", "--set", "mesh.cells_x=2", "--set", "rhs=imex"],
            "unknown key(s) under 'config': rhs",
        ),
        (
            [
                "experiment", "random-sigma", "--set", "mesh.cells_x=2",
                "--set", "params.sigma=[1,2,3]",
            ],
            "params.sigma_extra",
        ),
        (
            ["experiment", "verify", "--set", "mesh.cells_x=2", "--out", "v.csv"],
            "verify writes no CSV",
        ),
        (["experiment", "refinement", "--set", "levels=[1,0]"], "strictly increasing"),
        (["experiment", "refinement", "--set", "levels=[0,0]"], "strictly increasing"),
        (["experiment", "refinement", "--set", "levels=[]"], "levels must not be empty"),
        (["experiment", "weak-scaling", "--set", "grids=[]"], "grids must not be empty"),
        (["solve", "--set", "params.sigma=5"], "sigma must be"),
    ],
)
def test_cli_bad_config_exits_two(argv, message, capsys, tmp_path, monkeypatch, no_mesh):
    """Unknown keys, bad seeds, meshes, model parameters, mistyped values,
    settings a study ignores, empty or unordered study axes, unreadable
    config files and unwritable or unused output paths are configuration
    errors, caught before any mesh is built."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes('{"out": "caf\xe9.csv"}'.encode("latin-1"))
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err


def test_readme_command_lines_load(tmp_path, monkeypatch, no_mesh):
    """Every ``emibddc`` line of the README's command-line block, and its
    JSON config file, loads as a configuration, with no mesh built."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    sh = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    argvs = [shlex.split(line)[1:] for line in sh.splitlines() if line.startswith("emibddc ")]
    assert argvs, "no emibddc command under '## Command line'"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    argvs.append(["experiment", "refinement", "--config", "run.json"])
    for argv in argvs:
        cli._load_config(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "kwargs", [{"tol": 0}, {"tol": -1e-6}, {"tol": float("nan")}, {"maxiter": 0}]
)
def test_config_rejects_nonpositive_tol_and_maxiter(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_cli_unknown_command_exits_two(capsys):
    rc = cli.main(["transmogrify"])
    assert rc == 2


def test_cli_check_failure_exits_one(capsys):
    # a single isolated cell has no junctions: the reduced primal space is
    # empty and building the preconditioner must fail as a check error
    rc = cli.main(
        ["experiment", "verify", "--set", "mesh.cells_x=1", "--variant", "ve"]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_config_file_roundtrip(tmp_path, capsys):
    cfg = {
        "experiment": "solve",
        "mesh": {"cells_x": 1, "cells_y": 1, "cells_z": 1},
        "variants": ["vef"],
        "tol": 1e-6,
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(path)]) == 0
    # malformed file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--config", str(bad)]) == 2
    # not an object
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert cli.main(["solve", "--config", str(arr)]) == 2
    # missing file
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_mesh_writes_vtk(tmp_path, capsys):
    out = tmp_path / "m.vtk"
    rc = cli.main(["mesh", "--set", "mesh.cells_x=1", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert "substructures" in capsys.readouterr().out


def test_cli_seed_and_tol_override(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["solve", "--set", "mesh.cells_x=1", "--variant", "vef", "--tol", "1e-4"]
    assert cli.main(argv + ["--seed", "11", "--out", str(out_a)]) == 0
    assert cli.main(argv + ["--seed", "11", "--out", str(out_b)]) == 0
    scrub = lambda p: [
        ",".join(line.split(",")[:7] + line.split(",")[8:])
        for line in p.read_text().splitlines()
    ]
    assert scrub(out_a) == scrub(out_b)
