"""Pre-configured protection cycles baseline.

Cycles are enumerated up to a hop bound and bought greedily by a-priori
efficiency: protected working units per unit of cycle distance. A copy
protects a link once per detour ``plan.detour_arcs`` gives it; pc_design
holds the same rule as coverage matrices, scores every cycle once and
then rescores through the rows of the links each purchase changes.
numpy is imported by pc_design itself, so importing this module (and the
CLI) does not load it.
"""
from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from . import routing
from .plan import SCHEME_PC, CycleSelection, ProtectionPlan, link_load
from .topology import ScenarioError, Topology

# largest per-link working load the int64 coverage arithmetic holds
_MAX_LOAD = 2**63 - 1


class Cycle(NamedTuple):
    """Simple cycle in canonical ring form.

    nodes[0] is the smallest node on the cycle and nodes[1] < nodes[-1],
    the one orientation of the ring that enumerate_cycles records, so a
    ring has exactly one Cycle. links[i] connects nodes[i] to
    nodes[(i+1) % len]. Fields come in (distance, ring) order, the order
    enumerate_cycles returns; with no parallel links no two cycles share
    a ring, so links never decide a comparison.
    """

    length_mm: int
    nodes: tuple[int, ...]
    links: tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.links)


def enumerate_cycles(topo: Topology, max_hops: int | None = None) -> list[Cycle]:
    """All simple cycles with at most max_hops links.

    Default bound is min(n, 12); the cap keeps dense instances tractable
    while small networks still get every cycle. A depth-first search from
    each cycle's smallest node (the anchor) walks only larger nodes and
    closes a ring only in its canonical orientation, so each cycle is
    found once, with no deduplication. The result is sorted by
    (distance, ring).

    Hop bound: a ring that starts anchor -> s must close through a
    neighbour x of the anchor with x > s. Before searching from s, one
    breadth-first search over the nodes above the anchor gives hop[w],
    the fewest links from w to such an x plus one for the closing link.
    The search steps from a path of ``depth`` nodes to w only when
    ``depth + hop[w] <= max_hops``, and goes on from w only while some
    such x is off the path. hop[w] counts routes through the path's own
    nodes too, so it never exceeds the links a ring through w still
    needs, and an x on the path can no longer close one: every subtree
    cut holds no ring within the bound, and the result is the same as
    without the cuts.
    """
    if max_hops is None:
        max_hops = min(topo.n, 12)
    if max_hops < 3:
        return []
    n = topo.n
    link_mm = topo.link_mm
    # up[v]: v's neighbours >= anchor; neighbors() is sorted, so raising
    # the anchor past a node drops at most the first entry of each list
    up = [list(topo.neighbors(v)) for v in range(n)]
    # the bound allows no step to a node at hop ``far``, which is where
    # the nodes on the path are put
    far = max_hops + 1
    close = [0] * n  # link from each neighbour of the anchor back to it
    new = tuple.__new__  # builds a Cycle without NamedTuple's Python __new__
    out = []

    def dfs(v: int, total: int, depth: int, free: int):
        # free: closing neighbours not on the path (depth nodes, at v)
        room = max_hops - depth
        for w, lid in up[v]:
            h = hop[w]
            if h > room:
                continue
            mm = total + link_mm[lid]
            left = free
            if h == 1:
                out.append(new(Cycle, (mm + link_mm[close[w]], (*path, w), (*links, lid, close[w]))))
                left -= 1
            if room > 1 and left:
                path.append(w)
                links.append(lid)
                hop[w] = far
                dfs(w, mm, depth + 1, left)
                hop[w] = h
                links.pop()
                path.pop()

    for anchor in range(n):
        if anchor:
            for w, _ in up[anchor - 1]:
                up[w].pop(0)
        starts = up[anchor]
        for w, lid in starts:
            close[w] = lid
        # the largest neighbour above the anchor has none to close to
        for i, (s, lid) in enumerate(starts[:-1]):
            hop = [far] * n
            hop[anchor] = 0
            frontier = [w for w, _ in starts[i + 1:]]
            for w in frontier:
                hop[w] = 1
            # a step from depth >= 2 reads hop only up to max_hops - 2
            for level in range(2, max_hops - 1):
                nxt = []
                for v in frontier:
                    for w, _ in up[v]:
                        if hop[w] == far:
                            hop[w] = level
                            nxt.append(w)
                if not nxt:
                    break
                frontier = nxt
            hop[anchor] = hop[s] = far
            path = [anchor, s]
            links = [lid]
            dfs(s, link_mm[lid], 2, len(starts) - 1 - i)
    # dfs refers to itself through its closure: break that cycle so the
    # search state is freed on return, not at the next full collection
    del dfs
    # rings come out in node order (anchors, then each step's neighbours
    # ascending, a ring before its extensions), so a stable sort on
    # distance alone leaves them in (distance, ring) order
    out.sort(key=itemgetter(0))
    return out


def pc_design(topo: Topology, demand) -> ProtectionPlan:
    """Greedy selection of cycle copies until every working unit is covered.

    Each step buys the cycle with the most unmet working units protected
    per unit distance, ``protected / length``, where protected sums
    min(need, 1) over the cycle's own links and min(need, 2) over its
    straddlers; the first maximum in (distance, ring) order wins ties.
    One step buys k copies at once, with k the fewest purchases that
    change one of the cycle's terms: need over its on-cycle links and
    max(1, need // 2) over its straddlers, each with need > 0. Copies
    before the k-th change no min(need, 1) or min(need, 2) anywhere, so
    ``protected`` and hence the argmax would pick the same cycle again:
    buying them one at a time gives the same copies. k <= need on every
    on-cycle link and 2k <= need on every straddler with need >= 2, so
    no product leaves the int64 range, however large the rates.

    ``protected`` is computed once and then updated only through the
    rows of the links whose terms a step changed.

    Links whose working load cannot be covered by any cycle (bridges)
    leave their flows unprotected and the plan partial.
    """
    import numpy as np

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
    # coverage, links x cycles: onT[l, c] = 1 when l is on c, strT[l, c]
    # = 1 when l straddles c (both endpoints on c, l not on it)
    ring_links = [c.links for c in cycles]
    cols = np.repeat(np.arange(nc), list(map(len, ring_links)))
    lids = np.fromiter(chain.from_iterable(ring_links), np.intp, len(cols))
    onT = np.zeros((topo.m, nc), dtype=np.int8)
    onT[lids, cols] = 1
    ends_a = np.array([l.a for l in topo.links], dtype=np.intp)
    ends_b = np.array([l.b for l in topo.links], dtype=np.intp)
    # a cycle's nodes are the endpoints of its links
    has = np.zeros((topo.n, nc), dtype=bool)
    has[ends_a[lids], cols] = True
    has[ends_b[lids], cols] = True
    strT = np.empty((topo.m, nc), dtype=np.int8)
    for i in range(0, topo.m, 64):  # blocks of rows keep the temporaries small
        rows = slice(i, i + 64)
        strT[rows] = has[ends_a[rows]] & has[ends_b[rows]]
    strT -= onT
    del has
    lengths = np.array([c.length_mm for c in cycles], dtype=np.float64)

    def change(rows, old, new):
        """How ``protected`` moves when the need of links ``rows`` goes
        from old to new, summed a few rows at a time: the int8 rows
        widen to int64 in the product."""
        d1 = np.minimum(new, 1) - np.minimum(old, 1)
        d2 = np.minimum(new, 2) - np.minimum(old, 2)
        keep = (d1 != 0) | (d2 != 0)
        rows, d1, d2 = rows[keep], d1[keep], d2[keep]
        out = np.zeros(nc, dtype=np.int64)
        for i in range(0, len(rows), 16):
            part = rows[i:i + 16]
            out += d1[i:i + 16] @ onT[part] + d2[i:i + 16] @ strT[part]
        return out

    need = np.array(working_cap, dtype=np.int64)
    protected = change(np.arange(topo.m), np.zeros_like(need), need)
    copies = np.zeros(nc, dtype=np.int64)
    while nc:
        # cycles are pre-sorted by (distance, ring); argmax takes the
        # first maximum, which realises the tie-break
        best = int(np.argmax(protected / lengths))
        if protected[best] == 0:
            break
        # units of need one copy covers: 1 on the cycle, 2 straddling it
        per = onT[:, best] + 2 * strT[:, best]
        rows = np.flatnonzero((per > 0) & (need > 0))
        per = per[rows].astype(np.int64)
        old = need[rows]
        k = int(np.maximum(old // per, 1).min())
        copies[best] += k
        need[rows] = np.maximum(old - k * per, 0)
        protected += change(rows, old, need[rows])

    unprotected = []
    if need.any():
        bad = set(np.flatnonzero(need).tolist())
        for fid, w in enumerate(working_paths):
            if bad & set(w.links):
                unprotected.append(fid)

    selections = tuple(
        CycleSelection(cycles[ci].nodes, cycles[ci].links, cycles[ci].length_mm, int(k))
        for ci, k in enumerate(copies.tolist())
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
