"""Composite discontinuous finite-element spaces on substructured meshes.

Every substructure i carries P1 nodal unknowns on the closure of its own
region.  Interface values are therefore duplicated: at a membrane node both
touching substructures own an independent value ("side i" and "side j"), and
potentials jump across the interface.  For the preconditioner each
substructure additionally holds local *trace copies* of the neighbouring
sides' interface values; the copies alias the neighbour's global unknowns in
the assembled problem and become independent local degrees of freedom in the
broken substructure spaces.

The primal space is described by equivalence classes of constraint rows,
one row per substructure holding a copy of the averaged values:

* vertex classes   -- pointwise identification of all copies of one side's
  value at a subdomain vertex (one-dof rows of weight one),
* edge classes     -- equal line-integral means of all copies of one side
  along a junction edge (endpoint nodes excluded, they are vertex dofs),
* face classes     -- equal surface-integral means of the two copies of one
  side over an interface patch (only in the full variant).

All means are mass-weighted; every row's weights sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstraintError
from .geometry import InterfaceTopology, Mesh

__all__ = [
    "PrimalVariant",
    "DofMap",
    "PrimalClass",
    "ConstraintRow",
    "ConstraintSet",
    "SubstructureConstraintCounts",
    "build_composite_space",
    "build_primal_constraints",
]


class PrimalVariant(str, Enum):
    """Choice of primal continuity: vertices+edges+faces or vertices+edges."""

    VEF = "vef"
    VE = "ve"

    @classmethod
    def parse(cls, value) -> "PrimalVariant":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConstraintError(f"unknown primal variant {value!r}") from None


@dataclass(frozen=True)
class DofMap:
    """Numbering of global (assembled) and local (broken) degrees of freedom.

    Global unknowns are the *own* nodal values of every substructure; a mesh
    node shared by m substructures carries m distinct global unknowns (one per
    side).  Trace copies exist only locally and map onto the owning side's
    global index.

    Local ordering per substructure: interior own dofs, interface own dofs,
    then trace copies grouped by (ascending) neighbour id.  The stacked
    *broken interface* used by the preconditioner is built from these
    numberings alone: it is the concatenation of all local interface blocks
    (``bro_ptr`` slices it by holder), and ``bro_gamma`` maps each of its
    entries through ``local_to_global`` to the assembled unknown it copies.
    ``gamma_global`` lists the assembled interface unknowns in their compact
    solver order.  All copies of one side's value at one node share their
    ``bro_gamma`` entry, so that entry is the broken dof's copy group.
    """

    n_substructures: int
    n_global: int
    own_nodes: list          # per sub: sorted node ids of its closure
    own_offset: np.ndarray   # (N+1,) prefix sums of len(own_nodes)
    n_interior: np.ndarray   # per sub
    n_local: np.ndarray      # per sub, own + copies
    own_local_pos: list      # per sub: local position of k-th sorted own node
    copy_start: dict         # (i, j) -> local position of i's copies of side j
    copy_nodes: dict         # (i, j) -> node ids (sorted) of that copy block
    local_to_global: list    # per sub: (n_local,) global ids (copies alias owner)
    gamma_global: np.ndarray  # assembled interface dofs in compact order
    bro_ptr: np.ndarray      # (N+1,) slices of the stacked broken interface
    bro_holder: np.ndarray   # substructure holding each broken interface dof
    bro_gamma: np.ndarray    # assembled dof backing each broken interface dof

    @property
    def n_gamma(self) -> int:
        return len(self.gamma_global)

    @property
    def n_broken(self) -> int:
        return len(self.bro_holder)

    def own_positions(self, sub: int, nodes) -> np.ndarray:
        """Local positions of the given own nodes of ``sub``."""
        return self.own_local_pos[sub][np.searchsorted(self.own_nodes[sub], nodes)]

    def copy_positions(self, sub: int, side: int, nodes) -> np.ndarray:
        """Local positions of ``sub``'s trace copies of ``side`` at ``nodes``."""
        block = self.copy_nodes[(sub, side)]
        return self.copy_start[(sub, side)] + np.searchsorted(block, nodes)

    def global_own(self, sub: int, nodes) -> np.ndarray:
        return self.own_offset[sub] + np.searchsorted(self.own_nodes[sub], nodes)

    def gamma_slice(self, sub: int) -> slice:
        return slice(self.bro_ptr[sub], self.bro_ptr[sub + 1])


def build_composite_space(mesh: Mesh, topo: InterfaceTopology) -> DofMap:
    """Construct the dof numbering for a substructured mesh."""
    nsub = mesh.n_substructures
    mult = topo.multiplicity

    own_nodes, n_interior, own_local_pos = [], [], []
    for i in range(nsub):
        nodes = np.unique(mesh.tets[mesh.tet_sub == i])
        own_nodes.append(nodes)
        on_iface = mult[nodes] >= 2
        n_interior.append(int((~on_iface).sum()))
        # order: interior nodes, then interface nodes (node order inside each)
        pos = np.empty(len(nodes), dtype=np.int64)
        pos[~on_iface] = np.arange(n_interior[-1])
        pos[on_iface] = n_interior[-1] + np.arange(int(on_iface.sum()))
        own_local_pos.append(pos)

    own_offset = np.zeros(nsub + 1, dtype=np.int64)
    own_offset[1:] = np.cumsum([len(n) for n in own_nodes])
    n_global = int(own_offset[-1])

    copy_start, copy_nodes = {}, {}
    n_local = np.zeros(nsub, dtype=np.int64)
    for i in range(nsub):
        n_local[i] = len(own_nodes[i])
    for i in range(nsub):
        for j in topo.neighbors(i):
            fg = topo.face_group(i, j)
            copy_start[(i, j)] = int(n_local[i])
            copy_nodes[(i, j)] = fg.nodes
            n_local[i] += len(fg.nodes)

    local_to_global = []
    for i in range(nsub):
        l2g = np.empty(n_local[i], dtype=np.int64)
        l2g[own_local_pos[i]] = own_offset[i] + np.arange(len(own_nodes[i]))
        for j in topo.neighbors(i):
            start = copy_start[(i, j)]
            nodes = copy_nodes[(i, j)]
            l2g[start:start + len(nodes)] = own_offset[j] + np.searchsorted(
                own_nodes[j], nodes
            )
        local_to_global.append(l2g)

    # the assembled interface dofs are the own nodes on an interface, in
    # sub-major, node-sorted order; every interface entry of local_to_global
    # is one of them, so the search below is exact
    n_interior = np.array(n_interior, dtype=np.int64)
    n_iface = n_local - n_interior
    bro_ptr = np.zeros(nsub + 1, dtype=np.int64)
    bro_ptr[1:] = np.cumsum(n_iface)
    bro_holder = np.repeat(np.arange(nsub, dtype=np.int64), n_iface)
    gamma_global = np.flatnonzero(mult[np.concatenate(own_nodes)] >= 2)
    iface = [l2g[n_i:] for l2g, n_i in zip(local_to_global, n_interior)]
    bro_gamma = np.searchsorted(gamma_global, np.concatenate(iface))

    return DofMap(
        n_substructures=nsub,
        n_global=n_global,
        own_nodes=own_nodes,
        own_offset=own_offset,
        n_interior=n_interior,
        n_local=n_local,
        own_local_pos=own_local_pos,
        copy_start=copy_start,
        copy_nodes=copy_nodes,
        local_to_global=local_to_global,
        gamma_global=gamma_global,
        bro_ptr=bro_ptr,
        bro_holder=bro_holder,
        bro_gamma=bro_gamma,
    )


@dataclass(frozen=True)
class ConstraintRow:
    """One averaging functional over local dofs of one substructure."""

    sub: int
    local_dofs: np.ndarray
    weights: np.ndarray  # sum to 1


@dataclass(frozen=True)
class PrimalClass:
    """A shared coarse unknown: the values of all its rows must coincide."""

    kind: str           # "vertex" | "edge" | "face"
    side: int           # whose trace is averaged / identified
    entity: tuple       # (node,) or junction subs or face pair
    rows: tuple         # ConstraintRow per holder


@dataclass(frozen=True)
class SubstructureConstraintCounts:
    face_rows: int
    edge_rows: int
    vertex_points: int

    @property
    def total(self) -> int:
        return self.face_rows + self.edge_rows + self.vertex_points


@dataclass(frozen=True)
class ConstraintSet:
    variant: PrimalVariant
    classes: tuple
    n_substructures: int

    @property
    def coarse_dim(self) -> int:
        return len(self.classes)

    def rows_of(self, sub: int):
        """(class index, ConstraintRow) pairs hosted by one substructure."""
        out = []
        for ci, cl in enumerate(self.classes):
            for row in cl.rows:
                if row.sub == sub:
                    out.append((ci, row))
        return out

    def counts(self, sub: int) -> SubstructureConstraintCounts:
        fr = er = 0
        vnodes = set()
        for cl in self.classes:
            hosted = sum(row.sub == sub for row in cl.rows)
            if cl.kind == "face":
                fr += hosted
            elif cl.kind == "edge":
                er += hosted
            elif hosted:
                vnodes.add(cl.entity)
        return SubstructureConstraintCounts(fr, er, len(vnodes))


def _holds_copies(topo, holder, side, nodes) -> bool:
    fg = topo.face_group(holder, side)
    if fg is None:
        return False
    pos = np.searchsorted(fg.nodes, nodes)
    pos = np.clip(pos, 0, len(fg.nodes) - 1)
    return bool(np.all(fg.nodes[pos] == nodes))


def build_primal_constraints(
    dofmap: DofMap, topo: InterfaceTopology, variant=PrimalVariant.VEF
) -> ConstraintSet:
    """Enumerate the primal classes of the requested variant."""
    variant = PrimalVariant.parse(variant)
    classes = []

    vertex_set = set(int(v) for v in topo.subdomain_vertices)

    one = np.ones(1)
    for x in sorted(vertex_set):
        node = np.array([x])
        for side in topo.node_subs(x):
            side = int(side)
            rows = [ConstraintRow(side, dofmap.own_positions(side, node), one)]
            for holder in topo.node_subs(x):
                holder = int(holder)
                if holder == side:
                    continue
                if _holds_copies(topo, holder, side, node):
                    rows.append(
                        ConstraintRow(holder, dofmap.copy_positions(holder, side, node), one)
                    )
            if len(rows) >= 2:
                classes.append(
                    PrimalClass(kind="vertex", side=side, entity=(x,), rows=tuple(rows))
                )

    for je in topo.junctions:
        keep = ~np.isin(je.nodes, np.fromiter(vertex_set, np.int64, len(vertex_set)))
        nodes = je.nodes[keep]
        if len(nodes) == 0:
            continue  # too coarse: every junction node is already a vertex dof
        w = je.node_weights[keep]
        total = w.sum()
        if total <= 0:
            raise ConstraintError(f"degenerate junction edge {je.subs} (zero measure)")
        w = w / total
        for side in je.subs:
            rows = [ConstraintRow(side, dofmap.own_positions(side, nodes), w)]
            for holder in je.subs:
                if holder == side:
                    continue
                if _holds_copies(topo, holder, side, nodes):
                    rows.append(
                        ConstraintRow(holder, dofmap.copy_positions(holder, side, nodes), w)
                    )
            classes.append(
                PrimalClass(kind="edge", side=side, entity=je.subs, rows=tuple(rows))
            )

    if variant == PrimalVariant.VEF:
        for fg in topo.faces:
            if fg.area <= 0:
                raise ConstraintError(
                    f"degenerate interface patch ({fg.sub_i},{fg.sub_j}) (zero measure)"
                )
            w = fg.node_weights / fg.area
            for side, other in ((fg.sub_i, fg.sub_j), (fg.sub_j, fg.sub_i)):
                rows = (
                    ConstraintRow(side, dofmap.own_positions(side, fg.nodes), w),
                    ConstraintRow(other, dofmap.copy_positions(other, side, fg.nodes), w),
                )
                classes.append(
                    PrimalClass(
                        kind="face", side=side, entity=(fg.sub_i, fg.sub_j), rows=rows
                    )
                )

    return ConstraintSet(
        variant=variant, classes=tuple(classes), n_substructures=dofmap.n_substructures
    )
