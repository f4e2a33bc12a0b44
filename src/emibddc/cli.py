"""Command-line interface.

Subcommands
-----------
``emibddc mesh``        generate a mesh and export it as legacy VTK
``emibddc solve``       assemble and solve one interface system
``emibddc experiment``  run a named study and optionally write its CSV

Configuration is a JSON file mirroring :class:`~emibddc.harness.ExperimentConfig`
(keys ``experiment, mesh.*, params.*, variants, tol, maxiter,
sample_count, seed, grids, levels, out``), with ``--set path=value``
overrides applied on top.  Exit codes: 0 success, 1 failed check or solver
error, 2 usage/configuration error.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import ConfigError, EmiBddcError, VerificationError
from .geometry import build_mesh, extract_interfaces, export_vtk
from . import harness


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_set(tree: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set expects path=value, got '{assignment}'")
    path, value = assignment.split("=", 1)
    keys = path.strip().split(".")
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into non-mapping key '{key}'")
    node[keys[-1]] = _parse_value(value.strip())


def _load_config(args) -> harness.ExperimentConfig:
    tree = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(
                f"cannot read config file '{args.config}': {exc.strerror}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config file '{args.config}' is not UTF-8 text: {exc.reason}"
            ) from exc
        tree = json.loads(text)
        if not isinstance(tree, dict):
            raise ConfigError("config file must contain a JSON object")
    for assignment in getattr(args, "set", None) or []:
        _apply_set(tree, assignment)
    if getattr(args, "experiment", None):
        # checked against the known studies by ExperimentConfig
        tree["experiment"] = args.experiment.replace("-", "_")
    if getattr(args, "seed", None) is not None:
        tree["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        tree["tol"] = args.tol
    if getattr(args, "maxiter", None) is not None:
        tree["maxiter"] = args.maxiter
    if getattr(args, "variant", None):
        tree["variants"] = [args.variant]
    if getattr(args, "out", None):
        tree["out"] = args.out
    if getattr(args, "samples", None) is not None:
        tree["sample_count"] = args.samples
    return harness.ExperimentConfig.from_dict(tree)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a config entry, e.g. --set mesh.cells_x=3",
    )
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--tol", type=float, help="stopping tolerance")
    p.add_argument("--variant", choices=("vef", "ve"), help="primal space")
    p.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emibddc",
        description="BDDC-preconditioned interface solvers for cell-by-cell "
        "tissue models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate a mesh and export VTK")
    _add_common(p_mesh)

    p_solve = sub.add_parser("solve", help="solve a single interface system")
    _add_common(p_solve)
    p_solve.add_argument("--maxiter", type=int, help="iteration cap")

    p_exp = sub.add_parser("experiment", help="run a named study")
    p_exp.add_argument("experiment", help="study name (e.g. weak-scaling)")
    _add_common(p_exp)
    p_exp.add_argument("--samples", type=int, help="sample count")
    return parser


def _cmd_mesh(config) -> int:
    mesh = build_mesh(config.mesh)
    topo = extract_interfaces(mesh)
    out = config.out or "mesh.vtk"
    export_vtk(mesh, out)
    print(
        f"mesh: {len(mesh.tets)} tets, {len(mesh.vertices)} nodes, "
        f"{mesh.n_substructures} substructures"
    )
    print(
        f"interface: {len(topo.faces)} face groups, {len(topo.junctions)} "
        f"junction edges, {topo.subdomain_vertices.size} subdomain vertices"
    )
    print(f"wrote {out}")
    return 0


def _cmd_solve(config) -> int:
    rows, _ = harness.run_experiment(replace(config, experiment="solve"))
    for row in rows:
        print(
            f"[{row.primal_space}] iterations={row.iterations} "
            f"kappa_est={row.kappa_est:.4f} coarse_dim={row.coarse_dim} "
            f"global_dofs={row.global_dofs} solve_ms={row.solve_ms:.1f}"
        )
    if config.out:
        harness.write_csv(rows, config.out)
        print(f"wrote {config.out}")
    return 0


def _cmd_experiment(config) -> int:
    rows, extra = harness.run_experiment(config)
    if config.experiment == "verify":
        for variant, checks in extra.items():
            print(f"[{variant}] " + " ".join(f"{k}={v:.6g}" for k, v in checks.items()))
        print("verify: all checks passed")
        return 0
    print(harness.rows_to_string(rows), end="")
    if config.out:
        harness.write_csv(rows, config.out)
        print(f"wrote {config.out}")
    if config.experiment == "refinement" and extra is not None:
        for m in extra:
            print(
                f"model: level={m['refinement']} H/h={m['hh']} "
                f"{m['primal_space']} kappa={m['kappa_est']:.4f} "
                f"polylog={m['polylog_model']:.4f}"
            )
        if config.out:
            model_out = os.path.splitext(config.out)[0] + "_model.csv"
            harness.write_model_csv(extra, model_out)
            print(f"wrote {model_out}")
    elif extra is not None:
        for space, summary in extra.items():
            print(f"summary [{space}]: " + " ".join(f"{k}={v:.6g}" for k, v in summary.items()))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _load_config(args)
        if args.command == "mesh":
            return _cmd_mesh(config)
        if args.command == "solve":
            return _cmd_solve(config)
        if args.command == "experiment":
            return _cmd_experiment(config)
        raise ConfigError(f"unknown command '{args.command}'")
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except EmiBddcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
