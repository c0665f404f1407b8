"""Pre-configured protection cycles baseline.

Cycles are enumerated up to a hop bound and bought greedily by a-priori
efficiency: protected working units per unit of cycle distance, where an
on-cycle link is protected once per copy and a straddling link (both
endpoints on the cycle, link not on it) twice per copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import routing
from .plan import SCHEME_PC, CycleSelection, ProtectionPlan
from .topology import Topology


@dataclass(frozen=True)
class Cycle:
    """Simple cycle in canonical ring form.

    nodes[0] is the smallest node on the cycle and nodes[1] < nodes[-1],
    which makes rotations and reflections compare equal. links[i]
    connects nodes[i] to nodes[(i+1) % len].
    """

    nodes: tuple[int, ...]
    links: tuple[int, ...]
    length_mm: int

    @property
    def hops(self) -> int:
        return len(self.links)


def _canonical(topo: Topology, nodes: list[int]) -> Cycle:
    ring = list(nodes)
    if ring[1] > ring[-1]:
        ring = [ring[0]] + ring[:0:-1]
    links = []
    total = 0
    for i in range(len(ring)):
        l = topo.link_between(ring[i], ring[(i + 1) % len(ring)])
        links.append(l.id)
        total += l.length_mm
    return Cycle(tuple(ring), tuple(links), total)


def enumerate_cycles(topo: Topology, max_hops: int | None = None) -> list[Cycle]:
    """All simple cycles with at most max_hops links.

    Default bound is min(n, 12); the cap keeps dense instances tractable
    while small networks still get every cycle. Each cycle is reported
    once, sorted by (distance, ring).
    """
    if max_hops is None:
        max_hops = min(topo.n, 12)
    out = []
    path = []

    def dfs(anchor: int, v: int):
        for w, _ in topo.neighbors(v):
            if w == anchor and len(path) >= 3:
                out.append(_canonical(topo, path))
            elif w > anchor and w not in on_path and len(path) < max_hops:
                # only nodes above the anchor: every cycle is discovered
                # exactly once, rooted at its smallest node
                path.append(w)
                on_path.add(w)
                dfs(anchor, w)
                on_path.remove(w)
                path.pop()

    for anchor in range(topo.n):
        path = [anchor]
        on_path = {anchor}
        dfs(anchor, anchor)

    # anchor-rooted DFS visits each cycle in both directions; canonical
    # form collapses them
    uniq = {c.nodes: c for c in out}
    return sorted(uniq.values(), key=lambda c: (c.length_mm, c.nodes))


def _coverage(topo: Topology, cycle: Cycle):
    """(on-cycle link ids, straddling link ids) for one cycle."""
    on = set(cycle.links)
    node_set = set(cycle.nodes)
    straddle = [
        l.id
        for l in topo.links
        if l.id not in on and l.a in node_set and l.b in node_set
    ]
    return sorted(on), straddle


def apriori_efficiency(topo: Topology, cycle: Cycle, need: np.ndarray) -> float:
    """Unmet working units this cycle can protect, per unit distance."""
    on, straddle = _coverage(topo, cycle)
    protected = 0
    for lid in on:
        protected += min(int(need[lid]), 1)
    for lid in straddle:
        protected += min(int(need[lid]), 2)
    return protected / cycle.length_mm


def pc_design(
    topo: Topology, demand, max_hops: int | None = None
) -> ProtectionPlan:
    """Greedy unit-copy selection until every working unit is covered.

    Links whose working load cannot be covered by any cycle (bridges)
    leave their flows unprotected and the plan partial.
    """
    flows = tuple(demand)
    demand_idx = tuple(range(len(flows)))
    working_paths = []
    working_cap = np.zeros(topo.m, dtype=np.int64)
    for f in flows:
        w = routing.shortest_path(topo, f.src, f.dst)
        if w is None:  # pragma: no cover - connected topologies
            raise ValueError(f"no route {f.src}->{f.dst}")
        working_paths.append(w)
        for lid in w.links:
            working_cap[lid] += f.rate

    cycles = enumerate_cycles(topo, max_hops)
    nc = len(cycles)
    on_mat = np.zeros((nc, topo.m), dtype=bool)
    str_mat = np.zeros((nc, topo.m), dtype=bool)
    for ci, c in enumerate(cycles):
        on, straddle = _coverage(topo, c)
        on_mat[ci, on] = True
        str_mat[ci, straddle] = True
    lengths = np.array([c.length_mm for c in cycles], dtype=np.float64)

    need = working_cap.copy()
    copies = np.zeros(nc, dtype=np.int64)
    spare_cap = np.zeros(topo.m, dtype=np.int64)
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
        spare_cap += on_mat[best]
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
