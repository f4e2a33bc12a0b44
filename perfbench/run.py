"""Run the emibddc solve benchmark.

    python3 perfbench/run.py --workload rhs-stream --seed 2026 --seconds 20 --trace 0

Each workload runs in a fresh process (``--workload all``, the default,
starts one per workload).  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics.  The lines before it state
every metric with its unit and sample count, the failure rate and the
provenance of the run.  The exit code is 0 only when every check passed.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# One BLAS thread: steadier timings, and never more threads than cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program():
    """Import emibddc from this checkout's ``src/``, or exit with code 2."""
    package = SRC / "emibddc"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import emibddc

    if Path(emibddc.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported emibddc from {emibddc.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    from emibddc import _kernels, sparsela

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "spd_backend": "cholmod" if sparsela.HAS_CHOLMOD else "splu",
        "numba": _kernels.HAS_NUMBA,
        "cvxopt": sparsela.HAS_CHOLMOD,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from bench import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from bench import WORKLOADS, experiment_config, run_workload

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    config = experiment_config(WORKLOADS[args.workload], args.seed)
    result = run_workload(config, args.seconds, bool(args.trace))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in result.metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")
    rate = result.failed / result.attempted if result.attempted else float("nan")
    print(f"  {'fail_rate':<36} {rate:>14.6g} {'ratio':<6} {result.failed} of {result.attempted} solves failed")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print("provenance " + json.dumps(provenance()))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
