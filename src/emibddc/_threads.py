"""One thread per core for the substructure loops of the M-apply.

The Neumann solves and the ``V`` products of an M-apply are independent
from one substructure to the next, and SuperLU's triangular solves and
numpy's matrix products release the GIL.  :func:`partition` splits the
substructures into one group per core, :func:`run_groups` runs those groups
at once: group 0 in the calling thread, the others on a module-level pool
of ``cores - 1`` threads.  Everything else in an M-apply is one stacked
product over all substructures in the calling thread (see
:mod:`emibddc.bddc`).

SuperLU takes the GIL back to allocate each solve's output, so two threads
of solve loops gain less than two processes would; the pool pays off by
letting the bath's one long solve overlap the cells' short ones.

The S-apply does not use the pool: its interior solve is one SuperLU solve
with one factor of all interiors (see :mod:`emibddc.schur`).

Callers keep results bit-identical for any core count: a worker writes only
its own substructures' slices of the output, and every sum across
substructures is formed afterwards in the calling thread.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# threads start on first submit, so one core never starts one
_POOL = ThreadPoolExecutor(max_workers=max(CORES - 1, 1), thread_name_prefix="emibddc")


def partition(costs, n_groups: int = CORES) -> list[list[int]]:
    """Indices of ``costs`` in at most ``n_groups`` groups of similar total cost.

    Greedy largest first: each index, by decreasing cost and then by
    increasing index, joins the group with the least cost so far (the first
    such group on a tie).  Each group lists its indices in increasing order;
    empty groups are dropped, so group 0 holds the costliest index.
    """
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    groups = [[] for _ in range(max(n_groups, 1))]
    load = [0] * len(groups)
    for i in order:
        g = load.index(min(load))
        groups[g].append(i)
        load[g] += costs[i]
    return [sorted(g) for g in groups if g]


def run_groups(fn, groups) -> None:
    """Call ``fn(group)`` for every group, group 0 in the calling thread.

    Returns once every group has finished; if any raised, the error of the
    first failing group in group order is raised again.
    """
    futures = [_POOL.submit(fn, g) for g in groups[1:]]
    try:
        fn(groups[0])
    finally:
        # workers write into the caller's buffers: never return before them
        wait(futures)
    for fut in futures:
        fut.result()
