"""BDDC-preconditioned interface solvers for cell-by-cell tissue models.

The package assembles composite DG discretizations of coupled
intracellular/extracellular diffusion with capacitive membrane coupling,
reduces them to interface Schur systems, and solves those with conjugate
gradients preconditioned by a balancing domain decomposition with
vertex/edge/face primal constraints and conductivity-weighted averaging.
"""

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy < 2
    from numpy.core.multiarray import _set_madvise_hugepage

# numpy marks arrays of 4 MiB or more for huge pages, which the kernel's
# background collapse makes resident at moments that vary from run to run:
# the convex-h12 workload's first study peaks at 169-176 MiB, unmarked 169-170.
_set_madvise_hugepage(False)

from .errors import (
    EmiBddcError,
    ConfigError,
    MeshError,
    TopologyError,
    AssemblyError,
    ConstraintError,
    FactorizationError,
    SolverError,
    VerificationError,
)
from .geometry import (
    MeshConfig,
    Mesh,
    InterfaceTopology,
    build_mesh,
    extract_interfaces,
    export_vtk,
    load_vtk,
)
from .femspace import DofMap, ConstraintSet, build_composite_space, build_primal_constraints
from .assembly import ModelParams, MembraneState, AlievPanfilov, assemble_system, assemble_rhs
from .schur import SchurSystem, condense
from .bddc import BddcPreconditioner, build_scaling
from .krylov import SolveReport, pcg
from .harness import (
    ExperimentConfig,
    ResultRow,
    build_problem,
    make_preconditioner,
    run_experiment,
    run_verify,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "EmiBddcError",
    "ConfigError",
    "MeshError",
    "TopologyError",
    "AssemblyError",
    "ConstraintError",
    "FactorizationError",
    "SolverError",
    "VerificationError",
    "MeshConfig",
    "Mesh",
    "InterfaceTopology",
    "build_mesh",
    "extract_interfaces",
    "export_vtk",
    "load_vtk",
    "DofMap",
    "ConstraintSet",
    "build_composite_space",
    "build_primal_constraints",
    "ModelParams",
    "MembraneState",
    "AlievPanfilov",
    "assemble_system",
    "assemble_rhs",
    "SchurSystem",
    "condense",
    "BddcPreconditioner",
    "build_scaling",
    "SolveReport",
    "pcg",
    "ExperimentConfig",
    "ResultRow",
    "build_problem",
    "make_preconditioner",
    "run_experiment",
    "run_verify",
    "write_csv",
    "__version__",
]
