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
``inf`` otherwise, and a label with nothing saved shows ``missing``.  A
sparse matrix (K, the local operators, ``R``, ``H^{-1}`` and ``S_pp``)
is rebuilt from its saved ``(indptr, indices, data)`` and ``X`` is
``max|A_new - A_old| / max|A_old|`` over its entries, so a change of
which entries are stored does not hide how far the values moved.  Compared with a directory saved before the
global stiffness A and coupling M were dropped (K has been the sum of the
local operators since), the saved A and M files are simply not read; nor
is the dense ``coarse_matrix`` saved before the coarse operator was
sparse, so ``coarse_operator`` shows ``missing`` against such a directory,
``restrict``, which replaced the per-substructure ``Q[i]`` lines,
shows ``missing`` against a directory saved before it, and so does
``multiplier_inverse`` against one saved while the apply still folded
``V = W H^{-1}``.

The meshes are the two-cell row (2x1x1, default parameters) and the
meshes of the benchmark workloads in ``perfbench/bench.py``, each with the
``vef`` and ``ve`` primal spaces.  Per mesh it hashes ``bro_gamma``,
``gamma_global``, the global step matrix K, and every substructure's
``local_to_global`` and local operator matrix, the interface operator applied to a seeded vector, and
the reduced load and the recovered solution for a seeded compatible
load; per primal space the preconditioner applied to the same vector
and to a seeded block of three columns (the block path), the coarse
restriction ``R``, rebuilt as ``(H^{-1} E)^T`` from the stacked
``H^{-1}`` and the coarse spread ``E`` (every substructure's ``Q^T``,
``Q = H^{-1} [I_m; 0]`` its multiplier system solved for unit targets, at
its class ids; the leading rows of ``Q`` are its block of the coarse
matrix; it stores no zero entries, so its hash differs from that of a
saved ``R`` that did, while its values compare equal), the stacked
block-diagonal ``H^{-1}`` of every substructure's multiplier matrix (the
explicit inverse the apply multiplies by; ``Q`` is its leading columns),
the sparse coarse operator ``S_pp`` as factored, and one
``solve_interface`` of the seeded load at the studies' default ``tol``
and ``maxiter``: the recovered solution is hashed (``solution``), and
its iteration count and kappa estimate are printed as numbers, so a
moved count reads as one.  A stage that raises prints the error's type
and message instead.  The package is imported from ``src/`` next to
this directory.
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
import scipy.sparse as sp  # noqa: E402

from bench import WORKLOADS  # noqa: E402
from emibddc.assembly import ModelParams  # noqa: E402
from emibddc.geometry import MeshConfig  # noqa: E402
from emibddc.harness import (  # noqa: E402
    ExperimentConfig,
    build_problem,
    make_preconditioner,
    random_rhs,
    solve_interface,
)

SEED = 2026
STUDY = ExperimentConfig()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def rel_diff(diff, scale) -> float:
    """``diff / scale``, with 0/0 read as 0 and d/0 as ``inf``."""
    return diff / scale if scale else (0.0 if diff == 0 else np.inf)


def max_rel_diff(new, old) -> float:
    """Largest ``max|new - old| / max|old|`` over pairs of arrays."""
    worst = 0.0
    for a, b in zip(new, old, strict=True):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or not np.issubdtype(a.dtype, np.floating):
            worst = max(worst, 0.0 if np.array_equal(a, b) else np.inf)
            continue
        diff = float(np.max(np.abs(a - b), initial=0.0))
        worst = max(worst, rel_diff(diff, float(np.max(np.abs(b), initial=0.0))))
    return worst


def csr_rel_diff(new, old) -> float:
    """``max|A_new - A_old| / max|A_old|`` of two matrices, each given as
    its CSR ``(indptr, indices, data)``, whatever entries each stores; both
    are read as wide as the largest column index either stores."""
    if len(new[0]) != len(old[0]):
        return np.inf
    cols = 1 + max((int(i.max()) for _, i, _ in (new, old) if i.size), default=0)
    a, b = (sp.csr_matrix((d, i, p), shape=(len(p) - 1, cols)) for p, i, d in (new, old))
    return rel_diff(abs(a - b).max(), abs(b).max())


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

    def hashed(self, label, fn, compare=max_rel_diff):
        """Print ``label digest`` for the arrays ``fn`` returns; ``compare``
        measures them against the saved ones."""
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
                line += f" max_rel_diff {compare(arrays, saved):.3g}"
            else:
                line += " max_rel_diff missing"
        print(line)

    def matrix(self, label, m):
        """``hashed`` for the CSR arrays of matrix ``m``, compared by value."""
        self.hashed(label, lambda: (m.indptr, m.indices, m.data), csr_rel_diff)


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
        out.matrix(f"{name} K", ops.matrix)
        for lo in ops.local_ops:
            out.matrix(f"{name} local_matrix[{lo.sub}]", lo.matrix)
            out.hashed(f"{name} local_to_global[{lo.sub}]", lambda: (dm.local_to_global[lo.sub],))
        rng = np.random.default_rng(SEED)
        v = rng.standard_normal(dm.n_gamma)
        f = random_rhs(problem, rng)
        block = rng.standard_normal((dm.n_gamma, 3))
        out.hashed(f"{name} schur_apply", lambda: (problem.schur.apply(v),))
        out.hashed(f"{name} reduce_rhs", lambda: (problem.schur.reduce_rhs(f),))
        out.hashed(f"{name} recover_interior", lambda: (problem.schur.recover_interior(v, f),))
        for variant in ("vef", "ve"):
            tag = f"{name} {variant}"
            pc = out.built(f"{tag} preconditioner", lambda: make_preconditioner(problem, variant))
            if pc is None:
                continue
            out.hashed(f"{tag} bddc_apply", lambda: (pc.apply(v),))
            out.hashed(f"{tag} bddc_apply_block", lambda: (pc.apply(block),))
            out.matrix(f"{tag} restrict", (pc._h_inv @ pc._spread).T.tocsr())
            out.matrix(f"{tag} multiplier_inverse", pc._h_inv)
            out.matrix(f"{tag} coarse_operator", pc._coarse_matrix())
            result = stage(f"{tag} solve", lambda: solve_interface(
                problem, pc, f, tol=STUDY.tol, maxiter=STUDY.maxiter))
            if result is not None:
                u, report = result
                out.hashed(f"{tag} solution", lambda: (u,))
                print(f"{tag} solve iterations {report.iterations} kappa {report.kappa_est!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
