"""Pre-configured protection cycles baseline.

Cycles are enumerated up to a hop bound and bought greedily by a-priori
efficiency: protected working units per unit of cycle distance. A copy
protects a link once per detour ``plan.detour_arcs`` gives it; pc_design
holds the same rule as coverage matrices so one mat-vec scores them all.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import routing
from .plan import SCHEME_PC, CycleSelection, ProtectionPlan, link_load
from .topology import ScenarioError, Topology

# largest per-link working load the int64 coverage arithmetic holds
_MAX_LOAD = 2**63 - 1


@dataclass(frozen=True)
class Cycle:
    """Simple cycle in canonical ring form.

    nodes[0] is the smallest node on the cycle and nodes[1] < nodes[-1],
    the one orientation of the ring that enumerate_cycles records, so a
    ring has exactly one Cycle. links[i] connects nodes[i] to
    nodes[(i+1) % len].
    """

    nodes: tuple[int, ...]
    links: tuple[int, ...]
    length_mm: int

    @property
    def hops(self) -> int:
        return len(self.links)


def enumerate_cycles(topo: Topology, max_hops: int | None = None) -> list[Cycle]:
    """All simple cycles with at most max_hops links.

    Default bound is min(n, 12); the cap keeps dense instances tractable
    while small networks still get every cycle. A depth-first search from
    each cycle's smallest node walks only larger nodes and closes a ring
    only in its canonical orientation, so each cycle is found once, with
    no deduplication. The result is sorted by (distance, ring).
    """
    if max_hops is None:
        max_hops = min(topo.n, 12)
    nbrs = [topo.neighbors(v) for v in range(topo.n)]
    link_mm = topo.link_mm
    on_path = [False] * topo.n
    out = []

    def dfs(v: int, total: int):
        for w, lid in nbrs[v]:
            if w == anchor:
                # path[1] < v also means at least three hops
                if path[1] < v:
                    out.append(Cycle(tuple(path), (*links, lid), total + link_mm[lid]))
            elif w > anchor and not on_path[w] and len(path) < max_hops:
                path.append(w)
                links.append(lid)
                on_path[w] = True
                dfs(w, total + link_mm[lid])
                on_path[w] = False
                links.pop()
                path.pop()

    for anchor in range(topo.n):
        # the closing neighbour must exceed the first step, so the
        # largest neighbour above the anchor never starts a cycle
        for w, lid in [(w, lid) for w, lid in nbrs[anchor] if w > anchor][:-1]:
            path = [anchor, w]
            links = [lid]
            on_path[w] = True
            dfs(w, link_mm[lid])
            on_path[w] = False
    return sorted(out, key=lambda c: (c.length_mm, c.nodes))


def pc_design(topo: Topology, demand) -> ProtectionPlan:
    """Greedy unit-copy selection until every working unit is covered.

    Links whose working load cannot be covered by any cycle (bridges)
    leave their flows unprotected and the plan partial.
    """
    flows = tuple(demand)
    demand_idx = tuple(range(len(flows)))
    working_paths = []
    for f in flows:
        w = routing.shortest_path(topo, f.src, f.dst)
        if w is None:  # pragma: no cover - connected topologies
            raise ValueError(f"no route {f.src}->{f.dst}")
        working_paths.append(w)
    working_cap = link_load(topo.m, ((w.links, f.rate) for f, w in zip(flows, working_paths)))

    for lid, load in enumerate(working_cap):
        if load > _MAX_LOAD:
            raise ScenarioError(
                f"link {lid} carries a working load of {load} units; "
                f"p-cycle planning counts at most {_MAX_LOAD} per link"
            )

    cycles = enumerate_cycles(topo)
    nc = len(cycles)
    rows = np.repeat(np.arange(nc), [c.hops for c in cycles])
    on_mat = np.zeros((nc, topo.m), dtype=bool)
    on_mat[rows, np.array([l for c in cycles for l in c.links], dtype=np.intp)] = True
    has = np.zeros((nc, topo.n), dtype=bool)
    has[rows, np.array([v for c in cycles for v in c.nodes], dtype=np.intp)] = True
    # a straddling link has both endpoints on the cycle but is not on it
    ends_a = np.array([l.a for l in topo.links], dtype=np.intp)
    ends_b = np.array([l.b for l in topo.links], dtype=np.intp)
    str_mat = has[:, ends_a] & has[:, ends_b] & ~on_mat
    lengths = np.array([c.length_mm for c in cycles], dtype=np.float64)

    need = np.array(working_cap, dtype=np.int64)
    copies = np.zeros(nc, dtype=np.int64)
    while need.any():
        protected = on_mat @ np.minimum(need, 1) + str_mat @ np.minimum(need, 2)
        if nc == 0 or not protected.any():
            break
        # cycles are pre-sorted by (distance, ring); argmax takes the
        # first maximum, which realises the tie-break
        best = int(np.argmax(protected / lengths))
        if protected[best] == 0:
            break
        copies[best] += 1
        need = np.maximum(need - on_mat[best] - 2 * str_mat[best], 0)

    unprotected = []
    if need.any():
        bad = set(np.nonzero(need)[0])
        for fid, w in enumerate(working_paths):
            if bad & set(w.links):
                unprotected.append(fid)

    selections = tuple(
        CycleSelection(cycles[ci].nodes, cycles[ci].links, cycles[ci].length_mm, int(k))
        for ci, k in enumerate(copies)
        if k > 0
    )
    spare_cap = link_load(topo.m, ((sel.links, sel.copies) for sel in selections))
    return ProtectionPlan(
        scheme=SCHEME_PC,
        flows=flows,
        demand_idx=demand_idx,
        working_paths=tuple(working_paths),
        working_cap=working_cap,
        spare_cap=spare_cap,
        cycles=selections,
        unprotected=tuple(unprotected),
    )
