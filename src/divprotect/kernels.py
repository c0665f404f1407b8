"""Hot kernels: Dijkstra over per-node link rows and GF(2) rank.

Both are plain Python. Dijkstra is a binary-heap scan over the per-node
rows of a ``Topology`` that can stop once given nodes are settled and
resume later; the rank is elimination over rows packed into int
bitmasks, which suits the small decode matrices (at most a handful of
rows and columns) the planners and the failure sweep check.
"""
from __future__ import annotations

from heapq import heappop, heappush

# Sentinel for "unreachable". Topology keeps the total link length below
# INF_MM // 4, so no sum of real distances (millimetres) gets close.
INF_MM = 2**62

# Read by divbench/run.py's metadata(), which records the kernel flavour
# and refuses to compare results across flavours. There is one flavour.
NUMBA_ENABLED = False


def dijkstra_distances(rows, dist, heap, settled, root, blocked, until=None) -> list[int]:
    """Grow the shortest-path tree from root held in ``dist``, ``heap`` and
    ``settled``, in place, and return ``dist``.

    ``rows[v]`` holds a ``(neighbour, link, length_mm)`` triple per link
    at v; links whose entry in the per-link mask ``blocked`` (such as
    ``Topology.blocked_mask``'s byte array) is non-zero are skipped. A
    fresh tree is ``dist`` all INF_MM, ``heap`` empty and ``settled``
    all zero; the kernel seeds it with root. A tree it stopped early is
    resumed by passing its state back with the same root and mask.

    With ``until`` a collection of nodes, the scan stops right after it
    settles, and relaxes the links of, the last of them still unsettled;
    with None it runs until every reachable node is settled. A settled
    node's entry is its exact distance (mm); every other entry is at
    least the last distance settled, and INF_MM where the scan has not
    reached the node, which at the end means unreachable.
    """
    if until is None:
        left = None
    else:
        left = {t for t in until if not settled[t]}
        if not left:
            return dist
    if not settled[root]:  # only a fresh tree: root is settled first
        dist[root] = 0
        heap.append((0, root))
    while heap:
        d, u = heappop(heap)
        if settled[u]:
            continue  # stale entry: u was settled at a shorter distance
        settled[u] = 1
        for w, lk, mm in rows[u]:
            if blocked[lk]:
                continue
            nd = d + mm
            if nd < dist[w]:
                dist[w] = nd
                heappush(heap, (nd, w))
        if left is not None and u in left:
            left.remove(u)
            if not left:
                break
    return dist


def gf2_rank(rows) -> int:
    """Rank over GF(2) of a binary matrix given as a sequence of rows.

    Accepts nested sequences or a 2-D integer array; entries are reduced
    mod 2. Each row becomes an int bitmask and is reduced against the
    rows kept so far, keyed by their highest set bit; a row that does
    not reduce to zero adds one to the rank.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        mask = 0
        for j, x in enumerate(row):
            if int(x) & 1:
                mask |= 1 << j
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                break
            mask ^= pivots[top]
    return len(pivots)
