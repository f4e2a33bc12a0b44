"""Print SHA-256 digests of the solver's numbering and operators.

    python3 tools/digests.py [--save DIR] [--compare DIR]

Two checkouts whose printouts are identical build bit-identical
numberings, operators and preconditioners, so a refactor that must not
change any number is checked by running this script on the commit before
and after it and comparing the output.

A change that is allowed to move values in the last bits shows how far
they moved: ``--save DIR`` on the commit before it writes every hashed
array to ``DIR`` (one ``.npz`` per label), and ``--compare DIR`` on the
commit after it appends ``max_rel_diff X`` to each hashed line.  ``X`` is
the largest over the label's arrays of ``max|new - old| / max|old|``; an
integer array, or one whose shape changed, counts as 0 when equal and
``inf`` otherwise, and a label with nothing saved shows ``missing``.

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

import argparse
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


def max_rel_diff(new, old) -> float:
    """Largest ``max|new - old| / max|old|`` over pairs of arrays."""
    worst = 0.0
    for a, b in zip(new, old, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or not np.issubdtype(a.dtype, np.floating):
            worst = max(worst, 0.0 if np.array_equal(a, b) else np.inf)
            continue
        diff = float(np.max(np.abs(a - b), initial=0.0))
        scale = float(np.max(np.abs(b), initial=0.0))
        worst = max(worst, diff / scale if scale else (0.0 if diff == 0 else np.inf))
    return worst


def meshes():
    yield "2x1x1", MeshConfig(cells_x=2)
    for name, spec in WORKLOADS.items():
        yield name, MeshConfig(**spec["mesh"])


def stage(label, fn):
    """Run one stage; print the error it raised and return None, or return
    its value."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the error is the result
        print(f"{label} raised {type(exc).__name__}: {exc}")
        return None


class Reporter:
    """Prints one line per stage, and saves or compares hashed arrays."""

    def __init__(self, save=None, compare=None):
        self.save = save
        self.compare = compare

    def built(self, label, fn):
        """Print ``label ok`` for a built object; returns it, or None."""
        value = stage(label, fn)
        if value is not None:
            print(f"{label} ok")
        return value

    def hashed(self, label, fn):
        """Print ``label digest`` for the arrays ``fn`` returns."""
        arrays = stage(label, fn)
        if arrays is None:
            return
        line = f"{label} {digest(*arrays)}"
        name = label.replace(" ", "_") + ".npz"
        if self.save is not None:
            np.savez(self.save / name, *arrays)
        if self.compare is not None:
            path = self.compare / name
            if path.is_file():
                with np.load(path) as old:
                    saved = [old[f"arr_{i}"] for i in range(len(old.files))]
                line += f" max_rel_diff {max_rel_diff(arrays, saved):.3g}"
            else:
                line += " max_rel_diff missing"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, help="write every hashed array to DIR")
    parser.add_argument("--compare", type=Path, help="compare with arrays saved in DIR")
    args = parser.parse_args(argv)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    if args.compare is not None and not args.compare.is_dir():
        parser.error(f"--compare: no directory {args.compare}")
    out = Reporter(args.save, args.compare)

    for name, cfg in meshes():
        problem = out.built(f"{name} problem", lambda: build_problem(cfg, ModelParams()))
        if problem is None:
            continue
        dm, ops = problem.dofmap, problem.operators
        print(f"{name} sizes n_global={dm.n_global} n_gamma={dm.n_gamma} n_broken={dm.n_broken}")
        out.hashed(f"{name} bro_gamma", lambda: (dm.bro_gamma,))
        out.hashed(f"{name} gamma_global", lambda: (dm.gamma_global,))
        for label, m in (("K", ops.matrix), ("stiffness", ops.stiffness), ("coupling", ops.coupling)):
            out.hashed(f"{name} {label}", lambda: (m.indptr, m.indices, m.data))
        for lo in ops.local_ops:
            m = lo.matrix
            out.hashed(f"{name} local_matrix[{lo.sub}]", lambda: (m.indptr, m.indices, m.data))
            out.hashed(f"{name} local_to_global[{lo.sub}]", lambda: (dm.local_to_global[lo.sub],))
        rng = np.random.default_rng(SEED)
        v = rng.standard_normal(dm.n_gamma)
        out.hashed(f"{name} schur_apply", lambda: (problem.schur.apply(v),))
        for variant in ("vef", "ve"):
            tag = f"{name} {variant}"
            pc = out.built(f"{tag} preconditioner", lambda: make_preconditioner(problem, variant))
            if pc is None:
                continue
            out.hashed(f"{tag} bddc_apply", lambda: (pc.apply(v),))
            for ss in pc.subs:
                out.hashed(f"{tag} psi_gamma[{ss.sub}]", lambda: (ss.psi_gamma,))
            out.hashed(f"{tag} coarse_matrix", lambda: (pc._s_pp,))
    return 0


if __name__ == "__main__":
    sys.exit(main())
