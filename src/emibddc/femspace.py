"""Composite discontinuous finite-element spaces on substructured meshes.

Every region (the bath, each cell) carries P1 nodal unknowns on its own
closure.  Interface values are therefore duplicated across regions: at a
membrane node the bath and the cell each own an independent value (two
*sides*), and potentials jump across the interface.  Substructures of one
region share that region's unknowns; a node they share is an ordinary
conforming interface dof.  For the preconditioner each substructure
additionally holds local *trace copies* of the other regions' interface
values on the faces it shares with them; the copies alias those regions'
global unknowns in the assembled problem and become independent local
degrees of freedom in the broken substructure spaces.

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

    Global unknowns are the nodal values of every region, numbered region by
    region in node order; a mesh node shared by m regions carries m distinct
    global unknowns (one per side).  Each substructure owns the unknowns of
    its region on its closure.  Trace copies exist only locally and map onto
    the copied region's global index.

    Local ordering per substructure: interior own dofs, interface own dofs,
    then trace copies grouped by (ascending) copied region.  The stacked
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
    sub_region: np.ndarray   # (N,) region of each substructure
    region_nodes: list       # per region: sorted node ids of its closure
    region_offset: np.ndarray  # (R+1,) prefix sums of len(region_nodes)
    own_nodes: list          # per sub: sorted node ids of its closure
    n_interior: np.ndarray   # per sub
    n_local: np.ndarray      # per sub, own + copies
    own_local_pos: list      # per sub: local position of k-th sorted own node
    copy_start: dict         # (i, r) -> local position of i's copies of region r
    copy_nodes: dict         # (i, r) -> node ids (sorted) of that copy block
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

    def copy_positions(self, sub: int, region: int, nodes) -> np.ndarray:
        """Local positions of ``sub``'s trace copies of ``region`` at ``nodes``."""
        block = self.copy_nodes[(sub, region)]
        return self.copy_start[(sub, region)] + np.searchsorted(block, nodes)

    def holds_copies(self, sub: int, region: int, nodes) -> bool:
        """Whether ``sub`` holds trace copies of ``region`` at all ``nodes``."""
        block = self.copy_nodes.get((sub, region))
        if block is None:
            return False
        pos = np.minimum(np.searchsorted(block, nodes), len(block) - 1)
        return bool(np.all(block[pos] == nodes))

    def global_own(self, region: int, nodes) -> np.ndarray:
        """Global ids of ``region``'s unknowns at ``nodes``."""
        return self.region_offset[region] + np.searchsorted(self.region_nodes[region], nodes)

    def gamma_slice(self, sub: int) -> slice:
        return slice(self.bro_ptr[sub], self.bro_ptr[sub + 1])


def build_composite_space(mesh: Mesh, topo: InterfaceTopology) -> DofMap:
    """Construct the dof numbering for a substructured mesh."""
    nsub = mesh.n_substructures
    region = mesh.sub_region
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

    region_nodes = [
        np.unique(np.concatenate([own_nodes[i] for i in np.flatnonzero(region == r)]))
        for r in range(mesh.n_regions)
    ]
    region_offset = np.zeros(mesh.n_regions + 1, dtype=np.int64)
    region_offset[1:] = np.cumsum([len(n) for n in region_nodes])

    # trace copies: a substructure copies another region's values at the
    # nodes of the faces it shares with that region; a conforming face
    # (one region on both sides) shares its unknowns and needs none
    copy_faces = {}
    for fg in topo.faces:
        if fg.kind != "conforming":
            copy_faces.setdefault((fg.sub_i, fg.region_j), []).append(fg.nodes)
            copy_faces.setdefault((fg.sub_j, fg.region_i), []).append(fg.nodes)
    copy_start, copy_nodes = {}, {}
    n_local = np.array([len(n) for n in own_nodes], dtype=np.int64)
    for key in sorted(copy_faces):
        copy_start[key] = int(n_local[key[0]])
        copy_nodes[key] = np.unique(np.concatenate(copy_faces[key]))
        n_local[key[0]] += len(copy_nodes[key])

    def global_ids(r, nodes):
        return region_offset[r] + np.searchsorted(region_nodes[r], nodes)

    local_to_global = []
    for i in range(nsub):
        l2g = np.empty(n_local[i], dtype=np.int64)
        l2g[own_local_pos[i]] = global_ids(region[i], own_nodes[i])
        local_to_global.append(l2g)
    for (i, r), nodes in copy_nodes.items():
        start = copy_start[(i, r)]
        local_to_global[i][start:start + len(nodes)] = global_ids(r, nodes)

    # the assembled interface dofs are the region unknowns at nodes shared by
    # two or more substructures, in region-major, node-sorted order; every
    # interface entry of local_to_global is one of them, so the search below
    # is exact
    n_interior = np.array(n_interior, dtype=np.int64)
    n_iface = n_local - n_interior
    bro_ptr = np.zeros(nsub + 1, dtype=np.int64)
    bro_ptr[1:] = np.cumsum(n_iface)
    bro_holder = np.repeat(np.arange(nsub, dtype=np.int64), n_iface)
    gamma_global = np.flatnonzero(mult[np.concatenate(region_nodes)] >= 2)
    iface = [l2g[n_i:] for l2g, n_i in zip(local_to_global, n_interior)]
    bro_gamma = np.searchsorted(gamma_global, np.concatenate(iface))

    return DofMap(
        n_substructures=nsub,
        n_global=int(region_offset[-1]),
        sub_region=region,
        region_nodes=region_nodes,
        region_offset=region_offset,
        own_nodes=own_nodes,
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
    side: int           # substructure whose trace is averaged / identified
    entity: tuple       # (node,) or junction subs or face pair
    rows: tuple         # ConstraintRow per holder


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


def _class_rows(dofmap: DofMap, side: int, holders, nodes, weights) -> list:
    """The own row of ``side`` at ``nodes``, then one copy row for every
    holder that keeps trace copies of the side's region there."""
    region = int(dofmap.sub_region[side])
    rows = [ConstraintRow(side, dofmap.own_positions(side, nodes), weights)]
    for holder in holders:
        holder = int(holder)
        if dofmap.holds_copies(holder, region, nodes):
            rows.append(
                ConstraintRow(holder, dofmap.copy_positions(holder, region, nodes), weights)
            )
    return rows


def build_primal_constraints(
    dofmap: DofMap, topo: InterfaceTopology, variant=PrimalVariant.VEF
) -> ConstraintSet:
    """Enumerate the primal classes of the requested variant.

    Raises :class:`ConstraintError` on a conforming face (two substructures
    of one region): its primal classes are not defined yet.
    """
    variant = PrimalVariant.parse(variant)
    conforming = [(fg.sub_i, fg.sub_j) for fg in topo.faces if fg.kind == "conforming"]
    if conforming:
        raise ConstraintError(
            f"conforming faces {conforming} join substructures of one region; "
            "primal classes for them are not implemented"
        )
    classes = []

    vertex_set = set(int(v) for v in topo.subdomain_vertices)

    one = np.ones(1)
    for x in sorted(vertex_set):
        node = np.array([x])
        for side in topo.node_subs(x):
            rows = _class_rows(dofmap, int(side), topo.node_subs(x), node, one)
            if len(rows) >= 2:
                classes.append(
                    PrimalClass(kind="vertex", side=int(side), entity=(x,), rows=tuple(rows))
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
            rows = _class_rows(dofmap, side, je.subs, nodes, w)
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
                rows = _class_rows(dofmap, side, (other,), fg.nodes, w)
                classes.append(
                    PrimalClass(
                        kind="face", side=side, entity=(fg.sub_i, fg.sub_j), rows=tuple(rows)
                    )
                )

    return ConstraintSet(
        variant=variant, classes=tuple(classes), n_substructures=dofmap.n_substructures
    )
