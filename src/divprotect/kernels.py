"""Hot kernels: Dijkstra over CSR adjacency and GF(2) rank.

Both are plain Python. Dijkstra is a binary-heap scan over the CSR tuples
of a ``Topology``; the rank is elimination over rows packed into int
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


def dijkstra_distances(indptr, nbr_node, nbr_link, link_mm, src, blocked) -> list[int]:
    """Distance (mm) from src to every node, INF_MM where unreachable.

    The first four arguments are a topology's CSR int tuples (row
    pointers, neighbour node, neighbour link, link length) and
    ``blocked`` is a per-link mask such as ``Topology.blocked_mask``'s
    byte array; links with a non-zero entry are skipped.
    """
    dist = [INF_MM] * (len(indptr) - 1)
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale entry: u was settled at a shorter distance
        for k in range(indptr[u], indptr[u + 1]):
            lk = nbr_link[k]
            if blocked[lk]:
                continue
            nd = d + link_mm[lk]
            w = nbr_node[k]
            if nd < dist[w]:
                dist[w] = nd
                heappush(heap, (nd, w))
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
