"""Print SHA-256 digests of the solver's numbering and operators.

    python3 tools/digests.py

Two checkouts whose printouts are identical build bit-identical
numberings, operators and preconditioners, so a refactor that must not
change any number is checked by running this script on the commit before
and after it and comparing the output.

The meshes are the two-cell row (2x1x1, default parameters) and the
meshes of the benchmark workloads in ``perfbench/bench.py``, each with the
``vef`` and ``ve`` primal spaces.  Per mesh it hashes ``bro_gamma``,
``gamma_global``, the global step matrix K, the global stiffness A and
coupling M, and every substructure's ``local_to_global`` and local
operator matrix; per primal space the
interface operator and the preconditioner applied to seeded vectors,
every substructure's ``psi_gamma`` and the coarse matrix.  A stage that
raises prints the error's type and message instead.  The package is
imported from ``src/`` next to this directory.
"""

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from bench import WORKLOADS  # noqa: E402
from emibddc.assembly import ModelParams  # noqa: E402
from emibddc.geometry import MeshConfig  # noqa: E402
from emibddc.harness import build_problem, make_preconditioner  # noqa: E402

SEED = 2026


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def meshes():
    yield "2x1x1", MeshConfig(cells_x=2)
    for name, spec in WORKLOADS.items():
        yield name, MeshConfig(**spec["mesh"])


def report(label, fn):
    """Print ``label digest`` (``label ok`` for a built object), or the error
    the stage raised; returns the stage's value, or None if it raised."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the error is the result
        print(f"{label} raised {type(exc).__name__}: {exc}")
        return None
    print(f"{label} {value if isinstance(value, str) else 'ok'}")
    return value


def main() -> int:
    for name, cfg in meshes():
        problem = report(f"{name} problem", lambda: build_problem(cfg, ModelParams()))
        if problem is None:
            continue
        dm, k = problem.dofmap, problem.operators.matrix
        print(f"{name} sizes n_global={dm.n_global} n_gamma={dm.n_gamma} n_broken={dm.n_broken}")
        report(f"{name} bro_gamma", lambda: digest(dm.bro_gamma))
        report(f"{name} gamma_global", lambda: digest(dm.gamma_global))
        report(f"{name} K", lambda: digest(k.indptr, k.indices, k.data))
        ops = problem.operators
        for label in ("stiffness", "coupling"):
            m = getattr(ops, label)
            report(f"{name} {label}", lambda: digest(m.indptr, m.indices, m.data))
        for lo in ops.local_ops:
            m = lo.matrix
            report(f"{name} local_matrix[{lo.sub}]", lambda: digest(m.indptr, m.indices, m.data))
            report(
                f"{name} local_to_global[{lo.sub}]",
                lambda: digest(dm.local_to_global[lo.sub]),
            )
        rng = np.random.default_rng(SEED)
        v = rng.standard_normal(dm.n_gamma)
        report(f"{name} schur_apply", lambda: digest(problem.schur.apply(v)))
        for variant in ("vef", "ve"):
            tag = f"{name} {variant}"
            pc = report(f"{tag} preconditioner", lambda: make_preconditioner(problem, variant))
            if pc is None:
                continue
            report(f"{tag} bddc_apply", lambda: digest(pc.apply(v)))
            for ss in pc.subs:
                report(f"{tag} psi_gamma[{ss.sub}]", lambda: digest(ss.psi_gamma))
            report(f"{tag} coarse_matrix", lambda: digest(pc._s_pp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
