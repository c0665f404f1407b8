"""Shortest paths and link-disjoint route sets.

All tie-breaks are deterministic: among equal-length shortest paths the
lexicographically smallest node sequence wins, and the disjoint-set
search relaxes links in id order so repeated runs give identical routes.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from . import kernels
from .kernels import INF_MM
from .topology import Path, Topology


def shortest_distances(topo: Topology, src: int, excluded=()) -> list[int]:
    """Distance (mm) from src to every node, INF_MM where unreachable."""
    blocked = topo.blocked_mask(excluded)
    return kernels.dijkstra_distances(
        topo.adj_indptr, topo.adj_node, topo.adj_link, topo.link_mm, src, blocked
    )


def shortest_path(topo: Topology, src: int, dst: int, excluded=()) -> Path | None:
    """Lexicographically smallest among the shortest src->dst paths.

    Returns None when dst is unreachable with the excluded links removed.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    blocked = topo.blocked_mask(excluded)
    dist = kernels.dijkstra_distances(
        topo.adj_indptr, topo.adj_node, topo.adj_link, topo.link_mm, dst, blocked
    )
    if dist[src] >= INF_MM:
        return None
    # Walk the shortest-path DAG from src, always taking the smallest
    # neighbour that stays on a shortest route. Valid because lengths are
    # strictly positive, so dist decreases at every step.
    nodes = [src]
    links = []
    v = src
    while v != dst:
        for w, lid in topo.neighbors(v):
            if blocked[lid]:
                continue
            if dist[v] == topo.link_mm[lid] + dist[w]:
                nodes.append(w)
                links.append(lid)
                v = w
                break
        else:  # pragma: no cover - dist[src] finite guarantees progress
            raise AssertionError("shortest-path walk stalled")
    return Path(tuple(nodes), tuple(links), int(dist[src]))


def path_delay(path, speed_km_s: float = 2.0e5) -> float:
    """One-way propagation delay in seconds for a Path or Route."""
    return path.length_mm * 1e-6 / speed_km_s


def hop_distances(topo: Topology, src: int) -> np.ndarray:
    """BFS hop counts from src (ignores link lengths)."""
    dist = np.full(topo.n, -1, dtype=np.int64)
    dist[src] = 0
    q = deque([src])
    while q:
        v = q.popleft()
        for w, _ in topo.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def disjoint_routes(
    topo: Topology, sources, dst: int, excluded=()
) -> list[Path] | None:
    """Min-total-length pairwise link-disjoint paths, one per source entry.

    Sources may repeat (several routes leaving one node). Solved as a
    unit-capacity min-cost flow with successive shortest augmenting
    paths, so trap layouts where greedy remove-and-reroute fails are
    handled: earlier routes are re-split when an augmentation cancels
    part of them. Returns None when no disjoint set of this size exists.
    """
    sources = list(sources)
    k = len(sources)
    if k == 0:
        return []
    if any(s == dst for s in sources):
        raise ValueError("a source equals the destination")
    base_blocked = topo.blocked_mask(excluded)
    m = topo.m
    # orient[l]: 0 unused, +1 carries flow a->b, -1 carries flow b->a
    orient = np.zeros(m, dtype=np.int8)
    supply: dict[int, int] = {}
    for s in sources:
        supply[s] = supply.get(s, 0) + 1

    for _ in range(k):
        parent_node, parent_link = _augment(topo, base_blocked, orient, supply, dst)
        if parent_node is None:
            return None
        # walk dst back to the source the search reached
        v = dst
        while parent_link[v] >= 0:
            lid = parent_link[v]
            u = parent_node[v]
            l = topo.links[lid]
            step = 1 if (u == l.a and v == l.b) else -1
            orient[lid] = 0 if orient[lid] == -step else step
            v = u
        supply[v] -= 1
        if supply[v] == 0:
            del supply[v]

    return _decompose(topo, orient, sources, dst)


def _augment(topo, base_blocked, orient, supply, dst):
    """Bellman-Ford over the residual graph; reverse arcs cost -length."""
    n = topo.n
    dist = np.full(n, np.iinfo(np.int64).max // 4, dtype=np.int64)
    parent_node = np.full(n, -1, dtype=np.int64)
    parent_link = np.full(n, -1, dtype=np.int64)
    active = False
    for s in supply:
        dist[s] = 0
        active = True
    if not active:
        return None, None
    for _ in range(n):
        changed = False
        for l in topo.links:
            if base_blocked[l.id]:
                continue
            w = topo.link_mm[l.id]
            o = orient[l.id]
            # forward a->b allowed unless already a->b; cost -w if cancelling b->a
            if o != 1:
                cost = -w if o == -1 else w
                nd = dist[l.a] + cost
                if nd < dist[l.b]:
                    dist[l.b] = nd
                    parent_node[l.b] = l.a
                    parent_link[l.b] = l.id
                    changed = True
            if o != -1:
                cost = -w if o == 1 else w
                nd = dist[l.b] + cost
                if nd < dist[l.a]:
                    dist[l.a] = nd
                    parent_node[l.a] = l.b
                    parent_link[l.a] = l.id
                    changed = True
        if not changed:
            break
    if parent_link[dst] < 0:
        return None, None
    return parent_node, parent_link


def _decompose(topo, orient, sources, dst):
    """Split the oriented unit flow into one path per source entry."""
    out: dict[int, list[tuple[int, int]]] = {}
    for l in topo.links:
        o = orient[l.id]
        if o == 0:
            continue
        u, v = (l.a, l.b) if o == 1 else (l.b, l.a)
        out.setdefault(u, []).append((l.id, v))
    for row in out.values():
        row.sort()
    used = set()
    paths = []
    for s in sources:
        nodes = [s]
        links = []
        total = 0
        v = s
        while v != dst:
            nxt = None
            for lid, w in out.get(v, ()):
                if lid not in used:
                    nxt = (lid, w)
                    break
            if nxt is None:  # pragma: no cover - conservation guarantees an arc
                raise AssertionError("flow decomposition stalled")
            used.add(nxt[0])
            links.append(nxt[0])
            total += int(topo.link_mm[nxt[0]])
            nodes.append(nxt[1])
            v = nxt[1]
        paths.append(Path(tuple(nodes), tuple(links), total))
    return paths


def disjoint_path_pair(topo: Topology, src: int, dst: int, excluded=()):
    """Two link-disjoint src->dst paths of minimum combined length.

    Returns (shorter, longer) or None when the src-dst min-cut is 1.
    The pair is found by augmentation, so a short greedy first path that
    blocks every second route gets repaired rather than reported as a
    failure.
    """
    routes = disjoint_routes(topo, [src, src], dst, excluded=excluded)
    if routes is None:
        return None
    a, b = sorted(routes, key=lambda p: (p.length_mm, p.nodes))
    return a, b


def protected_pair(topo: Topology, src: int, dst: int):
    """Working path plus a link-disjoint backup, as (working, backup).

    The working path stays on the unconstrained shortest path when a
    disjoint backup exists around it; otherwise both come from the
    jointly routed disjoint pair. Returns None when src and dst have no
    two link-disjoint routes.
    """
    w = shortest_path(topo, src, dst)
    if w is None:
        return None
    b = shortest_path(topo, src, dst, excluded=w.links)
    if b is not None:
        return w, b
    return disjoint_path_pair(topo, src, dst)
