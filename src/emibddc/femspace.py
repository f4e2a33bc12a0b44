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
degrees of freedom in the broken substructure spaces.  Every value, own or
copied, global or local, is thus one pair (region, node), and one key
``region * n_nodes + node`` finds it in both numberings (:class:`DofMap`).

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
from functools import cached_property

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

    Every value of the problem is one region's P1 value at one mesh node,
    keyed ``region * n_nodes + node``.  The global unknowns are the values
    on each region's closure; ``global_keys`` lists their keys sorted, and
    a key's rank is its global id (region by region, in node order).  A
    mesh node shared by m regions carries m distinct global unknowns (one
    per side).  A substructure holds, under the same keys, its own region's
    values on its closure and trace copies of the other regions' values on
    the faces it shares with them; ``local_keys`` lists them sorted and
    ``local_pos`` gives each one's local position.  Copies exist only
    locally and alias the copied region's global unknown.

    Local ordering per substructure: interior own dofs, interface own dofs,
    then trace copies in key order (by copied region, then node).  The
    stacked *broken interface* used by the preconditioner is built from
    these numberings alone: it is the concatenation of all local interface
    blocks (``bro_ptr`` slices it by holder), and ``bro_gamma`` maps each of
    its entries through ``local_to_global`` to the assembled unknown it
    copies.  ``gamma_global`` lists the assembled interface unknowns in
    their compact solver order.  All copies of one side's value at one node
    share their ``bro_gamma`` entry, so that entry is the broken dof's copy
    group.
    """

    n_substructures: int
    n_nodes: int             # mesh nodes; the key stride of one region
    sub_region: np.ndarray   # (N,) region of each substructure
    global_keys: np.ndarray  # sorted keys of the global unknowns
    local_keys: list         # per sub: sorted keys of its local dofs
    local_pos: list          # per sub: local position of each sorted key
    n_interior: np.ndarray   # per sub
    n_local: np.ndarray      # per sub, own + copies
    local_to_global: list    # per sub: (n_local,) global ids (copies alias owner)
    gamma_global: np.ndarray  # assembled interface dofs in compact order
    bro_ptr: np.ndarray      # (N+1,) slices of the stacked broken interface
    bro_holder: np.ndarray   # substructure holding each broken interface dof
    bro_gamma: np.ndarray    # assembled dof backing each broken interface dof

    @property
    def n_global(self) -> int:
        return len(self.global_keys)

    @property
    def n_gamma(self) -> int:
        return len(self.gamma_global)

    @property
    def n_broken(self) -> int:
        return len(self.bro_holder)

    def _keys(self, region: int, nodes) -> np.ndarray:
        return region * self.n_nodes + np.asarray(nodes)

    def global_ids(self, region: int, nodes) -> np.ndarray:
        """Global ids of ``region``'s unknowns at ``nodes`` (shape kept)."""
        return np.searchsorted(self.global_keys, self._keys(region, nodes))

    def local_ids(self, sub: int, region: int, nodes) -> np.ndarray:
        """Local positions of ``sub``'s values of ``region`` at ``nodes``
        (own values or trace copies alike; shape kept)."""
        keys = self._keys(region, nodes)
        return self.local_pos[sub][np.searchsorted(self.local_keys[sub], keys)]

    def holds(self, sub: int, region: int, nodes) -> bool:
        """Whether ``sub`` holds values of ``region`` at all ``nodes``."""
        held, keys = self.local_keys[sub], self._keys(region, nodes)
        pos = np.minimum(np.searchsorted(held, keys), len(held) - 1)
        return bool(np.all(held[pos] == keys))

    def gamma_slice(self, sub: int) -> slice:
        return slice(self.bro_ptr[sub], self.bro_ptr[sub + 1])


def build_composite_space(mesh: Mesh, topo: InterfaceTopology) -> DofMap:
    """Construct the dof numbering for a substructured mesh."""
    nsub = mesh.n_substructures
    region = mesh.sub_region
    n_nodes = len(mesh.vertices)
    mult = topo.multiplicity

    # trace copies: a substructure copies another region's values at the
    # nodes of the faces it shares with that region; a conforming face
    # (one region on both sides) shares its unknowns and needs none
    copies = [[np.empty(0, dtype=np.int64)] for _ in range(nsub)]
    for fg in topo.faces:
        if fg.kind != "conforming":
            copies[fg.sub_i].append(fg.region_j * n_nodes + fg.nodes)
            copies[fg.sub_j].append(fg.region_i * n_nodes + fg.nodes)

    # keys in local order: interior own nodes, interface own nodes (node
    # order inside each), then the copies in key order
    own, keys, n_interior = [], [], []
    for i in range(nsub):
        nodes = np.unique(mesh.tets[mesh.tet_sub == i])
        on_iface = mult[nodes] >= 2
        n_interior.append(int((~on_iface).sum()))
        own.append(region[i] * n_nodes + np.concatenate([nodes[~on_iface], nodes[on_iface]]))
        keys.append(np.concatenate([own[-1], np.unique(np.concatenate(copies[i]))]))
    local_pos = [np.argsort(k) for k in keys]
    local_keys = [k[pos] for k, pos in zip(keys, local_pos)]
    global_keys = np.unique(np.concatenate(own))
    local_to_global = [np.searchsorted(global_keys, k) for k in keys]

    # the assembled interface dofs are the region unknowns at nodes shared by
    # two or more substructures, in global order; every interface entry of
    # local_to_global is one of them, so the search below is exact
    n_interior = np.array(n_interior, dtype=np.int64)
    n_local = np.array([len(k) for k in keys], dtype=np.int64)
    n_iface = n_local - n_interior
    bro_ptr = np.zeros(nsub + 1, dtype=np.int64)
    bro_ptr[1:] = np.cumsum(n_iface)
    bro_holder = np.repeat(np.arange(nsub, dtype=np.int64), n_iface)
    gamma_global = np.flatnonzero(mult[global_keys % n_nodes] >= 2)
    iface = [l2g[n_i:] for l2g, n_i in zip(local_to_global, n_interior)]
    bro_gamma = np.searchsorted(gamma_global, np.concatenate(iface))

    return DofMap(
        n_substructures=nsub,
        n_nodes=n_nodes,
        sub_region=region,
        global_keys=global_keys,
        local_keys=local_keys,
        local_pos=local_pos,
        n_interior=n_interior,
        n_local=n_local,
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
    entity: tuple       # (node,) or junction subs or face pair
    rows: tuple         # ConstraintRow per holder


@dataclass(frozen=True)
class ConstraintSet:
    variant: PrimalVariant
    classes: tuple

    @property
    def coarse_dim(self) -> int:
        return len(self.classes)

    def rows_of(self, sub: int):
        """(class index, ConstraintRow) pairs hosted by one substructure,
        in class order."""
        return list(self._rows_by_sub.get(sub, ()))

    @cached_property
    def _rows_by_sub(self) -> dict:
        by_sub = {}
        for ci, cl in enumerate(self.classes):
            for row in cl.rows:
                by_sub.setdefault(row.sub, []).append((ci, row))
        return by_sub


def _class_rows(dofmap: DofMap, side: int, holders, nodes, weights) -> list:
    """One row for ``side`` and then for every other holder that holds the
    side region's values at ``nodes``, own values and trace copies alike."""
    region = int(dofmap.sub_region[side])
    return [
        ConstraintRow(sub, dofmap.local_ids(sub, region, nodes), weights)
        for sub in (side, *(int(h) for h in holders if h != side))
        if dofmap.holds(sub, region, nodes)
    ]


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
                classes.append(PrimalClass(kind="vertex", entity=(x,), rows=tuple(rows)))

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
            classes.append(PrimalClass(kind="edge", entity=je.subs, rows=tuple(rows)))

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
                    PrimalClass(kind="face", entity=(fg.sub_i, fg.sub_j), rows=tuple(rows))
                )

    return ConstraintSet(variant=variant, classes=tuple(classes))
