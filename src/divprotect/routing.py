"""Shortest paths and link-disjoint route sets.

All tie-breaks are deterministic: among equal-length shortest paths the
lexicographically smallest node sequence wins, and the disjoint-set
search, a Dijkstra on reduced costs, keeps the parent a Bellman-Ford
sweep over the links in id order would keep (see ``disjoint_flow``),
so repeated runs give identical routes.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush

from .kernels import INF_MM
from .topology import Path, Topology


def shortest_path(topo: Topology, src: int, dst: int, excluded=()) -> Path | None:
    """Lexicographically smallest among the shortest src->dst paths.

    Returns None when dst is unreachable with the excluded links removed.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    blocked = topo.blocked_mask(excluded)
    dist = topo.distances(dst, blocked if excluded else None, (src,))
    return path_to_root(topo, dist, src, dst, blocked)


def path_to_root(topo: Topology, dist, src: int, root: int, blocked) -> Path | None:
    """Lexicographically smallest shortest src->root path, read off
    ``dist``, the distances from root with the ``blocked`` links skipped.
    A tree grown until src is settled is enough (see
    ``Topology.distances``): every node of the walk is nearer root.

    Returns None when src is unreachable.
    """
    if dist[src] >= INF_MM:
        return None
    # Walk the shortest-path DAG from src, always taking the smallest
    # neighbour that stays on a shortest route. Valid because lengths are
    # strictly positive, so dist decreases at every step.
    rows = topo.adj_rows
    nodes = [src]
    links = []
    v = src
    while v != root:
        for w, lid, mm in rows[v]:
            if blocked[lid]:
                continue
            if dist[v] == mm + dist[w]:
                nodes.append(w)
                links.append(lid)
                v = w
                break
        else:  # pragma: no cover - dist[src] finite guarantees progress
            raise AssertionError("shortest-path walk stalled")
    return Path(tuple(nodes), tuple(links), dist[src])


def path_from_root(topo: Topology, dist, root: int, target: int, blocked) -> Path | None:
    """Lexicographically smallest shortest root->target path, read off
    ``dist``, the distances from root with the ``blocked`` links skipped,
    so one tree serves every target. Returns None when target is
    unreachable.

    Marks the nodes that reach target over tight arcs (dist[x] + len ==
    dist[y]), then walks forward from root taking the smallest marked
    neighbour across a tight arc. This is ``shortest_path``'s rule: from
    a node v on a shortest root->target path, arc v->w lies on one
    exactly when it is tight and w reaches target over tight arcs, which
    is what ``shortest_path``'s test dist_t[v] == len + dist_t[w] picks
    with distances dist_t to target; so both walks take the same
    smallest neighbour at every step. A tree grown until target is
    settled is enough: both passes only step to nodes nearer root than
    one already known exact, and those are exact too.
    """
    if root == target:
        raise ValueError("root and target must differ")
    if dist[target] >= INF_MM:
        return None
    rows = topo.adj_rows
    on = bytearray(topo.n)
    on[target] = 1
    stack = [target]
    while stack:
        y = stack.pop()
        dy = dist[y]
        for x, lid, mm in rows[y]:
            if not on[x] and not blocked[lid] and dist[x] + mm == dy:
                on[x] = 1
                stack.append(x)
    nodes = [root]
    links = []
    v = root
    while v != target:
        dv = dist[v]
        for w, lid, mm in rows[v]:
            if on[w] and not blocked[lid] and dv + mm == dist[w]:
                nodes.append(w)
                links.append(lid)
                v = w
                break
        else:  # pragma: no cover - v reaches target over tight arcs
            raise AssertionError("shortest-path walk stalled")
    return Path(tuple(nodes), tuple(links), dist[target])


def disjoint_routes(topo: Topology, sources, dst: int) -> list[Path] | None:
    """Min-total-length pairwise link-disjoint paths, one per source entry;
    a repeated source's entries get its routes shortest first, then by
    node sequence. None when ``disjoint_flow`` finds no such set."""
    sources = list(sources)
    orient = disjoint_flow(topo, sources, dst)
    return None if orient is None else _decompose(topo, orient, sources, dst)


def disjoint_flow(topo: Topology, sources, dst: int) -> list[int] | None:
    """Min-cost unit flow from the source entries (a list) to dst.

    ``orient[l]`` is 0 when link l is unused, +1 when the flow crosses it
    a->b and -1 when b->a; None when no disjoint set of this size exists.
    Lengths are positive, so the flow holds no cycle and its links' total
    length is its paths'. Successive shortest augmenting paths handle
    trap layouts where greedy remove-and-reroute fails: earlier routes
    are re-split when an augmentation cancels part of them.

    Each augmentation is a Dijkstra over the residual graph, in which a
    link direction that cancels flow costs minus the link's length. It
    is seeded with every node that has supply left and stops once dst
    settles. It runs on reduced costs c - h[u] + h[v] with Johnson
    potentials h, which start as h[v] = dist(v, dst) off dst's shared
    shortest-path tree: every reduced cost is then >= 0, and the first
    search heads straight for dst. After each search a settled node's h
    falls by its reduced distance and every other node's by dst's, which
    keeps the reduced costs >= 0.

    Ties go as in a Bellman-Ford that sweeps the links in id order, in
    place, relaxing link l as a->b at sweep position 2l and as b->a at
    2l + 1: a node's parent is the tight link into it that such a sweep
    would relax first with its tail already final. The heap key is the
    pair (reduced distance, sweep time), where a seed has time -1 and
    u->v at position p gives v the first sweep time after u's that is p
    modulo 2m. Along a link the distance never falls and the time rises,
    so Dijkstra on the pair settles every node with that parent.
    """
    k = len(sources)
    if any(s == dst for s in sources):
        raise ValueError("a source equals the destination")
    n = topo.n
    rows = topo.adj_rows
    sweep = 2 * topo.m
    # the pair (K, t) packs into K * span + t + 1; a tree path has fewer
    # than n links and each adds at most one sweep to t
    span = sweep * (n + 1) + 1
    unseen = INF_MM * span
    h = list(topo.distances(dst))
    orient = [0] * topo.m
    supply: dict[int, int] = {}
    for s in sources:
        supply[s] = supply.get(s, 0) + 1

    for _ in range(k):
        label = [unseen] * n
        parent_node = [-1] * n
        parent_link = [-1] * n
        heap = []
        for s in supply:
            label[s] = h[s] * span
            heap.append((label[s], s))
        heapify(heap)
        settled = []
        while heap:
            key, u = heappop(heap)
            if key != label[u]:
                continue  # stale entry: u was relabelled lower
            settled.append(u)
            if u == dst:
                break
            t1 = key % span  # u's sweep time + 1
            base = key - h[u] * span + 1
            for w, lid, mm in rows[u]:
                o = orient[lid]
                if o:
                    if (o == 1) == (u < w):
                        continue  # the link already carries flow u->w
                    mm = -mm  # u->w cancels flow w->u
                nk = base + (mm + h[w]) * span + (2 * lid + (u > w) - t1) % sweep
                if nk < label[w]:
                    label[w] = nk
                    parent_node[w] = u
                    parent_link[w] = lid
                    heappush(heap, (nk, w))
        else:
            return None
        # h[v] -= min(K[v], K[dst]), plus K[dst] everywhere: reduced
        # costs only read differences of h
        kd = label[dst] // span
        for v in settled:
            h[v] += kd - label[v] // span
        # walk dst back to the source the search reached
        v = dst
        while parent_link[v] >= 0:
            lid = parent_link[v]
            u = parent_node[v]
            step = 1 if u < v else -1  # every Link has a < b
            orient[lid] = 0 if orient[lid] == -step else step
            v = u
        supply[v] -= 1
        if supply[v] == 0:
            del supply[v]

    return orient


def _decompose(topo, orient, sources, dst):
    """Split the oriented unit flow into one path per source entry, each
    leaving every node by its smallest unused flow link."""
    # per node, (link, head) of each flow link leaving it, largest first
    out: dict[int, list[tuple[int, int]]] = {}
    for lid, o in enumerate(orient):
        if o:
            _, a, b, _ = topo.links[lid]
            u, v = (a, b) if o == 1 else (b, a)
            out.setdefault(u, []).insert(0, (lid, v))
    walks: dict[int, list[Path]] = {}
    for s in sources:
        nodes = [s]
        links = []
        total = 0
        v = s
        while v != dst:
            lid, v = out[v].pop()  # conservation leaves one for each visit
            links.append(lid)
            total += topo.link_mm[lid]
            nodes.append(v)
        walks.setdefault(s, []).append(Path(tuple(nodes), tuple(links), total))
    # hand each repeated source's paths out shortest first
    for row in walks.values():
        row.sort(key=lambda p: (p.length_mm, p.nodes), reverse=True)
    return [walks[s].pop() for s in sources]


def protected_pair(topo: Topology, src: int, dst: int):
    """Working path plus a link-disjoint backup, as (working, backup).

    The working path stays on the unconstrained shortest path when a
    disjoint backup exists around it; otherwise both come from the
    jointly routed disjoint pair. When src and dst have no two
    link-disjoint routes, returns (shortest path, None). Each pair is
    routed once per topology and shared by every planner.
    """
    pair = topo.protected_pairs.get((src, dst))
    if pair is None:
        w = shortest_path(topo, src, dst)
        b = shortest_path(topo, src, dst, excluded=w.links)
        if b is not None:
            pair = w, b
        else:
            routes = disjoint_routes(topo, [src, src], dst)
            pair = (w, None) if routes is None else tuple(routes)
        topo.protected_pairs[src, dst] = pair
    return pair
