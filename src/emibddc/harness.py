"""Experiment runner: scalability, optimality and robustness studies.

Each study assembles the time-step interface system, solves it with the
preconditioned CG solver and emits one CSV row per solve with the fixed
column set ``CSV_HEADER``.  Conditioning studies draw right-hand sides
uniformly from (-1, 1) (projected onto the compatible subspace) so that
the Lanczos estimates probe the full excited spectrum; the time-stepping
route (previous potential + ionic state) remains available through
:func:`imex_rhs`.
"""

import csv
import dataclasses
import io
import math
import os
import time

import numpy as np

from .assembly import (
    MembraneState,
    ModelParams,
    assemble_rhs,
    assemble_system,
    project_compatible,
)
from .bddc import BddcPreconditioner
from .errors import (
    AssemblyError,
    ConfigError,
    ConstraintError,
    MeshError,
    SolverError,
    VerificationError,
)
from .femspace import PrimalVariant, build_composite_space, build_primal_constraints
from .geometry import BATH, MeshConfig, _is_int, _is_positive_real, build_mesh, extract_interfaces
from .krylov import pcg
from .schur import condense
from . import denseref

__all__ = [
    "CSV_HEADER",
    "ExperimentConfig",
    "ResultRow",
    "Problem",
    "build_problem",
    "make_preconditioner",
    "imex_rhs",
    "solve_interface",
    "run_verify",
    "run_experiment",
    "write_csv",
]

WEAK_SCALING_GRIDS = ((2, 2, 1), (2, 2, 2), (3, 3, 2), (3, 3, 3))
REFINEMENT_LEVELS = (0, 1, 2, 3)

_EXPERIMENTS = (
    "solve",
    "weak_scaling",
    "refinement",
    "random_rhs",
    "random_sigma",
    "verify",
)


def _strict_kwargs(cls, data, where):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"unknown key(s) under '{where}': {', '.join(unknown)}")
    return data


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one harness run."""

    experiment: str = "solve"
    mesh: MeshConfig = MeshConfig()
    params: ModelParams = ModelParams()
    variants: tuple = ("vef", "ve")
    tol: float = 1e-6
    maxiter: int = 500
    sample_count: int = 100
    seed: int = 2026
    grids: tuple = WEAK_SCALING_GRIDS
    levels: tuple = REFINEMENT_LEVELS
    out: str = ""

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment '{self.experiment}'; "
                f"expected one of {', '.join(_EXPERIMENTS)}"
            )
        if not _is_positive_real(self.tol):
            raise ConfigError(f"tol must be a finite number > 0, got {self.tol!r}")
        if not _is_int(self.maxiter) or self.maxiter < 1:
            raise ConfigError(f"maxiter must be an integer >= 1, got {self.maxiter!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _is_int(self.sample_count) or self.sample_count < 1:
            raise ConfigError(
                f"sample_count must be an integer >= 1, got {self.sample_count!r}"
            )
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if self.out and self.experiment == "verify":
            raise ConfigError(f"verify writes no CSV, so out must be empty, got {self.out!r}")
        if self.out:
            # checked here so that a bad path fails before the study runs
            if os.path.isdir(self.out):
                raise ConfigError(f"out '{self.out}' is a directory, not a file path")
            if not os.path.isdir(os.path.dirname(self.out) or "."):
                raise ConfigError(f"the directory of out '{self.out}' does not exist")
        if not self.variants:
            raise ConfigError("at least one primal variant is required")
        for v in self.variants:
            try:
                PrimalVariant.parse(v)
            except ConstraintError as exc:
                raise ConfigError(str(exc)) from None
        try:
            meshes = self.study_meshes()
        except (MeshError, TypeError, ValueError) as exc:
            raise ConfigError(f"{self.experiment} study: {exc}") from None
        axis = {"weak_scaling": "grids", "refinement": "levels"}.get(self.experiment)
        if axis and not meshes:
            raise ConfigError(f"{self.experiment} study: {axis} must not be empty")
        # the model curve is pinned at the first level, which must be the coarsest
        lev = self.levels
        if axis == "levels" and any(a >= b for a, b in zip(lev, lev[1:])):
            raise ConfigError(f"levels must be strictly increasing, got {list(self.levels)!r}")
        # random_sigma draws the cell conductivities itself, so an override
        # would be ignored; elsewhere it must give one value per region of
        # every mesh of the study
        sigma = self.params.sigma
        if sigma is not None and self.experiment == "random_sigma":
            raise ConfigError(
                "random_sigma draws every cell's conductivity, so params.sigma "
                "must be unset; the bath takes params.sigma_extra"
            )
        if sigma is not None:
            for mesh in meshes:
                if len(sigma) != mesh.n_regions:
                    raise ConfigError(
                        f"params.sigma has {len(sigma)} entries, but a "
                        f"{'x'.join(map(str, mesh.cells))} mesh has "
                        f"{mesh.n_regions} regions (the bath, then one per cell)"
                    )

    def study_meshes(self) -> list:
        """The mesh of every operator the study builds, in row order."""
        if self.experiment == "weak_scaling":
            return [
                dataclasses.replace(self.mesh, cells_x=nx, cells_y=ny, cells_z=nz)
                for nx, ny, nz in self.grids
            ]
        if self.experiment == "refinement":
            return [dataclasses.replace(self.mesh, refinement=lev) for lev in self.levels]
        return [self.mesh]

    @classmethod
    def from_dict(cls, data) -> "ExperimentConfig":
        """Build a config from nested plain dictionaries, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise ConfigError("experiment config must be a mapping")
        data = dict(data)
        mesh = data.pop("mesh", {})
        params = data.pop("params", {})
        if not isinstance(mesh, dict) or not isinstance(params, dict):
            raise ConfigError("'mesh' and 'params' must be mappings")
        try:
            mesh_cfg = MeshConfig(**_strict_kwargs(MeshConfig, mesh, "mesh"))
            if "sigma" in params and params["sigma"] is not None:
                params = {**params, "sigma": tuple(params["sigma"])}  # the caller's dict stays
            params_cfg = ModelParams(**_strict_kwargs(ModelParams, params, "params"))
        except (MeshError, AssemblyError, TypeError) as exc:
            raise ConfigError(str(exc)) from None
        for key in ("variants", "grids", "levels"):
            if key in data:
                seq = data[key]
                if key == "grids":
                    if not isinstance(seq, (list, tuple)) or not all(
                        isinstance(g, (list, tuple)) for g in seq
                    ):
                        raise ConfigError(
                            f"grids must be a list of [nx, ny, nz] triples, got {seq!r}"
                        )
                    seq = tuple(tuple(g) for g in seq)
                elif isinstance(seq, (list, tuple)):
                    seq = tuple(seq)
                else:
                    seq = (seq,)
                data[key] = seq
        kwargs = _strict_kwargs(cls, data, "config")
        return cls(mesh=mesh_cfg, params=params_cfg, **kwargs)


@dataclasses.dataclass(frozen=True)
class ResultRow:
    cells: str
    subdomains: int
    global_dofs: int
    primal_space: str
    iterations: int
    kappa_est: float
    coarse_dim: int
    solve_ms: float
    seed: int
    sigma_summary: str

    def as_csv(self) -> tuple:
        return (
            self.cells,
            str(self.subdomains),
            str(self.global_dofs),
            self.primal_space,
            str(self.iterations),
            f"{self.kappa_est:.10g}",
            str(self.coarse_dim),
            f"{self.solve_ms:.3f}",
            str(self.seed),
            self.sigma_summary,
        )


CSV_HEADER = tuple(f.name for f in dataclasses.fields(ResultRow))


@dataclasses.dataclass
class Problem:
    """Assembled and condensed system, ready for preconditioning."""

    config: MeshConfig
    params: ModelParams
    mesh: object
    topo: object
    dofmap: object
    operators: object
    schur: object

    @property
    def cells_label(self) -> str:
        c = self.config
        return f"{c.cells_x}x{c.cells_y}x{c.cells_z}"

    def sigma_summary(self) -> str:
        sig = self.operators.sigma  # per region
        intra = np.delete(sig, BATH)
        return (
            f"extra={sig[BATH]:.6g}"
            f"|intra_min={intra.min():.6g}"
            f"|intra_max={intra.max():.6g}"
        )


def build_problem(mesh_cfg: MeshConfig, params: ModelParams) -> Problem:
    mesh = build_mesh(mesh_cfg)
    topo = extract_interfaces(mesh)
    dofmap = build_composite_space(mesh, topo)
    operators = assemble_system(mesh, topo, dofmap, params)
    schur = condense(dofmap, operators.matrix)
    return Problem(mesh_cfg, params, mesh, topo, dofmap, operators, schur)


def make_preconditioner(problem: Problem, variant) -> BddcPreconditioner:
    cset = build_primal_constraints(problem.dofmap, problem.topo, variant)
    return BddcPreconditioner(
        problem.dofmap, cset, problem.operators.local_ops, problem.operators.sigma
    )


def imex_rhs(problem: Problem, u_prev=None, state=None) -> np.ndarray:
    """Right-hand side of one implicit-explicit time step.

    Defaults to the documented resting start: zero previous potential and
    resting ionic state, which yields an identically zero (and compatible)
    load vector.
    """
    if u_prev is None:
        u_prev = np.zeros(problem.dofmap.n_global)
    if state is None:
        state = MembraneState.zeros(problem.topo)
    f = assemble_rhs(
        problem.mesh, problem.topo, problem.dofmap, problem.params, u_prev, state
    )
    return project_compatible(f)


def random_rhs(problem: Problem, rng) -> np.ndarray:
    return project_compatible(rng.uniform(-1.0, 1.0, problem.dofmap.n_global))


def solve_interface(problem, precond, f, *, tol, maxiter):
    """Reduce, run preconditioned CG on the interface to the relative
    residual ``tol``, recover interiors.  The constant kernel is projected
    out by mean removal."""
    x_gamma, report = pcg(
        problem.schur.apply,
        problem.schur.reduce_rhs(f),
        precond.apply,
        tol=tol,
        maxiter=maxiter,
        project=project_compatible,
    )
    u = problem.schur.recover_interior(x_gamma, f)
    return u, report


def _solve_row(problem, precond, f, config, variant) -> ResultRow:
    t0 = time.perf_counter()
    _, report = solve_interface(problem, precond, f, tol=config.tol, maxiter=config.maxiter)
    ms = (time.perf_counter() - t0) * 1e3
    if not report.converged:
        raise SolverError(
            f"{variant} on {problem.cells_label}: {report} "
            f"(tol {config.tol:g}, maxiter {config.maxiter})"
        )
    return ResultRow(
        cells=problem.cells_label,
        subdomains=problem.dofmap.n_substructures,
        global_dofs=problem.dofmap.n_global,
        primal_space=str(PrimalVariant.parse(variant).value),
        iterations=report.iterations,
        kappa_est=report.kappa_est,
        coarse_dim=precond.coarse_dim,
        solve_ms=ms,
        seed=config.seed,
        sigma_summary=problem.sigma_summary(),
    )


def _operators(config: ExperimentConfig):
    """Yield ``(problem, loads)`` for each operator of the study, in row order.

    ``random_sigma`` draws every cell region's conductivity from (1, 20)
    mS/cm (the bath region keeps the configured value) and one load per
    operator from a single random stream.  The other studies reseed per
    operator; ``random_rhs`` draws ``sample_count`` loads, the rest draw one.
    """
    if config.experiment == "random_sigma":
        rng = np.random.default_rng(config.seed)
        n_cells = config.mesh.n_regions - 1
        for _ in range(config.sample_count):
            draw = np.insert(rng.uniform(1.0, 20.0, n_cells), BATH, config.params.sigma_extra)
            params = dataclasses.replace(config.params, sigma=draw)
            problem = build_problem(config.mesh, params)
            yield problem, [random_rhs(problem, rng)]
        return
    for mesh_cfg in config.study_meshes():
        problem = build_problem(mesh_cfg, config.params)
        rng = np.random.default_rng(config.seed)
        n_loads = config.sample_count if config.experiment == "random_rhs" else 1
        yield problem, [random_rhs(problem, rng) for _ in range(n_loads)]


def polylog_model(kappa0: float, hh0: float, hh: float) -> float:
    """(1 + log(H/h))^2 growth curve pinned to the first measurement."""
    c = kappa0 / (1.0 + math.log(hh0)) ** 2
    return c * (1.0 + math.log(hh)) ** 2


def _model_table(config: ExperimentConfig, rows):
    """Measured estimate next to the poly-logarithmic curve calibrated on the
    first level, one entry per (level, variant)."""
    levels = [int(lev) for lev in config.levels for _ in config.variants]
    first = {}
    model = []
    for lev, row in zip(levels, rows):
        hh = config.mesh.base_resolution * 2**lev
        hh0, k0 = first.setdefault(row.primal_space, (hh, row.kappa_est))
        model.append(
            {
                "refinement": lev,
                "hh": hh,
                "primal_space": row.primal_space,
                "kappa_est": row.kappa_est,
                "polylog_model": polylog_model(k0, hh0, hh),
            }
        )
    return model


def _summarize(rows):
    its = np.array([r.iterations for r in rows], dtype=float)
    kap = np.array([r.kappa_est for r in rows], dtype=float)
    return {
        "samples": len(rows),
        "iter_min": float(its.min()),
        "iter_mean": float(its.mean()),
        "iter_max": float(its.max()),
        "kappa_min": float(kap.min()),
        "kappa_mean": float(kap.mean()),
        "kappa_max": float(kap.max()),
    }


def run_verify(config: ExperimentConfig):
    """Dense cross-checks of the full stack on a small mesh.

    Checks, in order: (a) the preconditioner application matches its dense
    realization, (b) the dense preconditioned spectrum stays above 1 on the
    kernel complement, (c) the Lanczos condition estimate agrees with the
    dense one within 15 percent, (d) the CG solution matches a dense direct
    solve.  Raises :class:`VerificationError` naming the first failed check.
    """
    problem = build_problem(config.mesh, config.params)
    dm = problem.dofmap
    if dm.n_global > 2500:
        raise ConfigError(
            f"verify needs a small mesh (<= 2500 global dofs), got {dm.n_global}"
        )
    rng = np.random.default_rng(config.seed)
    report = {}
    s_hat = denseref.dense_assembled_schur(dm, problem.operators.local_ops)
    for variant in config.variants:
        key = str(PrimalVariant.parse(variant).value)
        precond = make_preconditioner(problem, variant)
        cset = precond.constraints
        m_dense = denseref.dense_bddc_matrix(
            dm, cset, problem.operators.local_ops, problem.operators.sigma
        )
        # (a) operator application vs dense matrix
        r = project_compatible(rng.standard_normal(dm.n_gamma))
        za = project_compatible(precond.apply(r))
        zb = project_compatible(m_dense @ r)
        rel_a = np.linalg.norm(za - zb) / np.linalg.norm(zb)
        if not rel_a <= 1e-9:
            raise VerificationError(
                f"check (a) apply-vs-dense failed for {key}: rel err {rel_a:.3e}"
            )
        # (b) dense spectrum floor
        lams = denseref.preconditioned_spectrum(m_dense, s_hat)
        lam_min, lam_max = float(lams[0]), float(lams[-1])
        if not lam_min >= 1.0 - 1e-6:
            raise VerificationError(
                f"check (b) spectrum floor failed for {key}: lambda_min {lam_min:.9f}"
            )
        # (c) Lanczos estimate vs dense condition number
        f = random_rhs(problem, rng)
        u, rep = solve_interface(problem, precond, f, tol=1e-10, maxiter=config.maxiter)
        dense_kappa = lam_max / lam_min
        if not abs(rep.kappa_est - dense_kappa) <= 0.15 * dense_kappa:
            raise VerificationError(
                f"check (c) lanczos-vs-dense failed for {key}: "
                f"{rep.kappa_est:.4f} vs {dense_kappa:.4f}"
            )
        # (d) solved interface values vs dense direct solve
        f_gamma = problem.schur.reduce_rhs(f)
        x_dense = denseref.projected_solve(s_hat, f_gamma)
        x_pcg = u[dm.gamma_global]
        x_pcg = x_pcg - x_pcg.mean()
        rel_d = np.linalg.norm(x_pcg - x_dense) / np.linalg.norm(x_dense)
        if not rel_d <= 1e-8:
            raise VerificationError(
                f"check (d) pcg-vs-direct failed for {key}: rel err {rel_d:.3e}"
            )
        report[key] = {
            "apply_rel_err": float(rel_a),
            "lambda_min": lam_min,
            "lambda_max": lam_max,
            "dense_kappa": float(dense_kappa),
            "lanczos_kappa": float(rep.kappa_est),
            "solve_rel_err": float(rel_d),
            "iterations": rep.iterations,
        }
    return report


def run_experiment(config: ExperimentConfig):
    """Run one study; returns (rows, extra) where extra depends on the study.

    Every study is the same sweep: one preconditioner per (operator,
    variant), one CSV row per load.  The same loads are reused across
    variants so per-draw comparisons are meaningful.  ``refinement`` adds the
    model table, the random studies a summary of their rows, and ``verify``
    returns no rows but its dense cross-check report.  A solve that does not
    converge raises :class:`SolverError`.
    """
    if config.experiment == "verify":
        return [], run_verify(config)
    rows = []
    for problem, loads in _operators(config):
        for variant in config.variants:
            precond = make_preconditioner(problem, variant)
            rows.extend(_solve_row(problem, precond, f, config, variant) for f in loads)
    if config.experiment == "refinement":
        return rows, _model_table(config, rows)
    if config.experiment in ("random_rhs", "random_sigma"):
        return rows, _summarize(rows)
    return rows, None


def write_csv(rows, path_or_buf) -> None:
    """Emit result rows under the fixed header (contract: exact column set)."""

    def _write(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for row in rows:
            w.writerow(row.as_csv())

    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_buf)


def write_model_csv(model, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("refinement", "hh", "primal_space", "kappa_est", "polylog_model"))
        for m in model:
            w.writerow(
                (
                    m["refinement"],
                    m["hh"],
                    m["primal_space"],
                    f"{m['kappa_est']:.10g}",
                    f"{m['polylog_model']:.10g}",
                )
            )


def rows_to_string(rows) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()
