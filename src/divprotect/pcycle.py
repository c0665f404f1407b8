"""Pre-configured protection cycles baseline.

Cycles of at most ``_MAX_HOPS`` links are enumerated into two parallel
int lists (``Cycles``), each cycle's distance and the bitmask of its
links, and bought greedily by a-priori efficiency:
protected working units per unit of cycle distance. A copy
protects a link once per detour ``plan.detour_arcs`` gives it; pc_design
holds the same rule as one matrix of detours per copy, scores every cycle
once and then, after each purchase, rescores through the rows of only
those links whose need falls below 2. Copies are Python ints, like every
capacity. numpy is imported by pc_design itself, so importing this module
(and the CLI) does not load it.
"""
from __future__ import annotations

from . import routing
from .plan import SCHEME_PC, CycleSelection, ProtectionPlan, link_load
from .topology import ScenarioError, Topology

# most links on a cycle enumerate_cycles collects (fewer on networks of
# fewer nodes): the cap keeps dense instances tractable while small
# networks still get every cycle
_MAX_HOPS = 12
# most cycles enumerate_cycles collects: within the hop bound K10 has
# 556,014 and K11 5,488,059
_MAX_CYCLES = 1_000_000
# most links x cycles cells of the int8 detour matrix pc_design builds
_MAX_COVER_CELLS = 250_000_000


class Cycles:
    """enumerate_cycles' result: two parallel lists, ``lengths`` (each
    cycle's distance) and ``masks`` (its link mask, bit lid set for each
    link lid on the ring), in (distance, ring) order, the ring being the
    canonical node sequence ``cycle_ring`` rebuilds. len() is the number
    of cycles."""

    __slots__ = ("lengths", "masks")

    def __init__(self, lengths: list[int], masks: list[int]):
        self.lengths = lengths
        self.masks = masks

    def __len__(self) -> int:
        return len(self.masks)


def cycle_ring(topo: Topology, mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(nodes, links) of the simple cycle whose links are the set bits of
    mask, in canonical ring form: nodes[0] is the smallest node on the
    cycle and nodes[1] < nodes[-1], so a ring has exactly one form, and
    links[i] connects nodes[i] to nodes[(i+1) % len]."""
    first = topo.n
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        first = min(first, topo.links[low.bit_length() - 1].a)
    # walk the ring from its smallest node: adj_rows is sorted, so the
    # first step goes to the smaller of its two ring neighbours
    nodes, links = [first], []
    v, lid = first, -1
    while True:
        back = lid
        for w, lid, _ in topo.adj_rows[v]:
            if lid != back and mask >> lid & 1:
                break
        links.append(lid)
        if w == first:
            break
        nodes.append(w)
        v = w
    return tuple(nodes), tuple(links)


def enumerate_cycles(topo: Topology) -> Cycles:
    """All simple cycles with at most max_hops = min(n, ``_MAX_HOPS``) links.

    A depth-first search from each cycle's smallest node (the anchor)
    walks only larger nodes and closes a ring only in its canonical
    orientation, so each cycle is found once, with no deduplication. The
    search carries each path as its running distance and link mask
    alone, and a ring costs one entry in each of two int lists, with no
    tuple of any kind. The result is sorted by (distance, ring). More
    than ``_MAX_CYCLES`` rings is a ScenarioError, raised as the search
    closes the first one past the limit.

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
    n = topo.n
    max_hops = min(n, _MAX_HOPS)
    # up[v]: (w, distance, link bit) for v's neighbours w >= anchor;
    # adj_rows is sorted, so raising the anchor past a node drops at
    # most the first entry of each list
    up = [[(w, mm, 1 << lid) for w, lid, mm in row] for row in topo.adj_rows]
    # the bound allows no step to a node at hop ``far``, which is where
    # the nodes on the path are put
    far = max_hops + 1
    close = [None] * n  # (distance, link bit) from each neighbour of the anchor back to it
    lengths, masks = [], []
    add_length, add_mask = lengths.append, masks.append

    def dfs(v: int, total: int, mask: int, depth: int, free: int):
        # free: closing neighbours not on the path (depth nodes, at v)
        room = max_hops - depth
        for w, step_mm, step_bit in up[v]:
            h = hop[w]
            if h > room:
                continue
            mm = total + step_mm
            bits = mask | step_bit
            left = free
            if h == 1:
                back_mm, back_bit = close[w]
                add_length(mm + back_mm)
                add_mask(bits | back_bit)
                if len(masks) > _MAX_CYCLES:
                    raise ScenarioError(
                        f"the topology has more than {_MAX_CYCLES} cycles of at most"
                        f" {max_hops} links; p-cycle planning enumerates at most {_MAX_CYCLES}"
                    )
                left -= 1
            if room > 1 and left:
                hop[w] = far
                dfs(w, mm, bits, depth + 1, left)
                hop[w] = h

    for anchor in range(n):
        if anchor:
            for w, _, _ in up[anchor - 1]:
                up[w].pop(0)
        starts = up[anchor]
        for w, mm, bit in starts:
            close[w] = mm, bit
        # the largest neighbour above the anchor has none to close to
        for i, (s, mm, bit) in enumerate(starts[:-1]):
            hop = [far] * n
            hop[anchor] = 0
            frontier = [w for w, _, _ in starts[i + 1:]]
            for w in frontier:
                hop[w] = 1
            # a step from depth >= 2 reads hop only up to max_hops - 2
            for level in range(2, max_hops - 1):
                nxt = []
                for v in frontier:
                    for w, _, _ in up[v]:
                        if hop[w] == far:
                            hop[w] = level
                            nxt.append(w)
                if not nxt:
                    break
                frontier = nxt
            hop[anchor] = hop[s] = far
            dfs(s, mm, bit, 2, len(starts) - 1 - i)
    # dfs refers to itself through its closure: break that cycle so the
    # search state is freed on return, not at the next full collection
    del dfs
    # rings come out in node order (anchors, then each step's neighbours
    # ascending, a ring before its extensions), so a stable sort on
    # distance alone leaves them in (distance, ring) order
    order = sorted(range(len(masks)), key=lengths.__getitem__)
    return Cycles([lengths[i] for i in order], [masks[i] for i in order])


def _coverage(topo: Topology, cycles: Cycles):
    """Detours per copy, int8 links x cycles: cover[l, c] is 1 when link l
    is on cycle c, 2 when l straddles c (both endpoints on c, l not on it)
    and 0 otherwise, the count ``plan.detour_arcs`` gives. The masks are
    packed little-endian, one row of bytes per cycle, and unpacked along
    the link axis of the contiguous transpose: no full-size temporary."""
    import numpy as np

    nc = len(cycles)
    nb = (topo.m + 7) // 8
    packed = np.frombuffer(b"".join([m.to_bytes(nb, "little") for m in cycles.masks]), np.uint8)
    packed = np.ascontiguousarray(packed.reshape(nc, nb).T)
    cover = np.unpackbits(packed, axis=0, count=topo.m, bitorder="little").view(np.int8)
    del packed
    # a cycle's nodes are the endpoints of its links: OR each link's row
    # into its endpoints' rows, which are views of has
    has = np.zeros((topo.n, nc), dtype=bool)
    node_rows = list(has)
    for l, on in zip(topo.links, cover.view(bool)):
        row = node_rows[l.a]
        row |= on
        row = node_rows[l.b]
        row |= on
    ends_a = np.array([l.a for l in topo.links], dtype=np.intp)
    ends_b = np.array([l.b for l in topo.links], dtype=np.intp)
    # both ends on c: 2 - 1 for a ring link, 2 - 0 for a straddler
    for i in range(0, topo.m, 64):  # blocks of rows keep the temporaries small
        rows = slice(i, i + 64)
        cover[rows] = 2 * (has[ends_a[rows]] & has[ends_b[rows]]).view(np.int8) - cover[rows]
    return cover


def pc_design(topo: Topology, demand) -> ProtectionPlan:
    """Greedy selection of cycle copies until every working unit is covered.

    Each step buys the cycle with the most unmet working units protected
    per unit distance, ``protected / length``, where protected is
    Σ min(need, cover) over the links (``_coverage``); the first maximum
    in (distance, ring) order wins ties. One step buys k copies at once,
    k = min max(1, need // cover) over the links with need and cover: the
    fewest purchases that change one of the cycle's terms. Copies before
    the k-th change no term anywhere, so ``protected`` and hence the
    argmax would pick the same cycle again: buying them one at a time
    gives the same copies.

    The needs and copies are Python ints, so no rate is too large for
    them. ``protected`` (int64) is computed once; as cover <= 2, a link's
    terms move only when its need, clipped at 2, falls, and each
    purchase subtracts the row of just those links.

    Links whose working load cannot be covered by any cycle (bridges)
    leave their flows unprotected and the plan partial. A topology with
    more than ``_MAX_CYCLES`` cycles, or more than ``_MAX_COVER_CELLS``
    links x cycles, is a ScenarioError.
    """
    import numpy as np

    flows = tuple(demand)
    demand_idx = tuple(range(len(flows)))
    working_paths = [routing.shortest_path(topo, f.src, f.dst) for f in flows]
    working_cap = link_load(topo.m, ((w.links, f.rate) for f, w in zip(flows, working_paths)))

    cycles = enumerate_cycles(topo)
    nc = len(cycles)
    if topo.m * nc > _MAX_COVER_CELLS:
        raise ScenarioError(
            f"{topo.m} links x {nc} cycles make {topo.m * nc} detour cells;"
            f" p-cycle planning holds at most {_MAX_COVER_CELLS}"
        )
    cover = _coverage(topo, cycles)
    lengths = np.array(cycles.lengths, dtype=np.float64)

    need = list(working_cap)
    protected = np.zeros(nc, dtype=np.int64)
    for l, w in enumerate(need):
        if w:
            protected += np.minimum(cover[l], min(w, 2))
    copies = {}
    while nc:
        # cycles are pre-sorted by (distance, ring); argmax takes the
        # first maximum, which realises the tie-break
        best = int(np.argmax(protected / lengths))
        if protected[best] == 0:
            break
        per = cover[:, best]
        rows = [l for l in np.flatnonzero(per).tolist() if need[l]]
        per = per[rows].tolist()
        k = max(min(need[l] // c for l, c in zip(rows, per)), 1)
        copies[best] = copies.get(best, 0) + k
        for l, c in zip(rows, per):
            old = need[l]
            need[l] = new = max(old - k * c, 0)
            # k * c >= 1, so the clipped need falls exactly when new < 2; as
            # cover <= 2, its terms fall by cover >> new, or by cover != 0 from 1
            if new < 2:
                protected -= cover[l] >> new if old > 1 else cover[l] != 0

    unprotected = []
    if any(need):
        bad = {l for l, w in enumerate(need) if w}
        for fid, w in enumerate(working_paths):
            if bad & set(w.links):
                unprotected.append(fid)

    selections = tuple(
        CycleSelection(*cycle_ring(topo, cycles.masks[ci]), cycles.lengths[ci], k)
        for ci, k in sorted(copies.items())
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
