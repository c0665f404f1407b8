"""XOR parity protection: group construction and the planning sweep.

The planner walks an admission threshold from loose to tight redundancy
(low to high ratio), preferring larger groups, and falls back to 1+1
duplication for whatever cannot be grouped economically. Groups never
span destinations, so each destination is swept alone; each source
tuple is decided once, and only thresholds some tuple is admitted at
are walked. A candidate is priced on its working flow, and only a group
that routes is split into paths.
"""
from __future__ import annotations

from array import array
from itertools import combinations
from math import comb

from . import kernels, routing
from .kernels import INF_MM
from .plan import (
    SCHEME_DC,
    BackupPair,
    CodingGroup,
    ProtectionPlan,
    link_load,
    split_unit_flows,
)
from .topology import Path, ScenarioError, Topology


# Combination guard for dense instances: with more than _DENSE_FLOW_LIMIT
# flows sharing a destination, only sources within _SOURCE_HOP_RADIUS hops
# of each other are considered together.
_DENSE_FLOW_LIMIT = 12
_SOURCE_HOP_RADIUS = 3

# Most combinations one destination's sweep walks per threshold, summed
# over the group sizes it tries; more is refused before the walk.
_MAX_COMBINATIONS = 1_000_000

# Algorithm 1's admission ladder: the redundancy-ratio thresholds 1.6,
# 1.8, ..., 3.0 as exact (numerator, denominator) pairs in sweep order,
# and the largest parity group it tries. A group is admitted at the
# first threshold its ratio (capacity-distance over the flows'
# shortest-path floor) is within, so no group's ratio exceeds 3.0;
# 1+1 fallback pairs are exempt.
_THRESHOLDS = ((8, 5), (9, 5), (2, 1), (11, 5), (12, 5), (13, 5), (14, 5), (3, 1))
_MAX_GROUP_SIZE = 4

# Most unit flows algorithm_one splits the demand into. Each unit is its
# own Flow, so the split takes memory in proportion to the total rate; a
# larger demand is refused before it, with a ScenarioError.
_MAX_UNIT_FLOWS = 100_000


def group_capacity_mm(group: CodingGroup) -> int:
    return sum(w.length_mm for w in group.working) + group.parity.length_mm


def _parity_route(
    topo: Topology, sources: list[int], dst: int, blocked: set[int], budget: int | None = None
) -> Path | None:
    """Cheapest source-tapping trail to the decode node.

    Chains the distinct sources in nearest-neighbour order, each leg a
    shortest path avoiding the working links and the trail so far;
    every distinct start is tried and the shortest feasible trail wins,
    ties going to the smaller node sequence. A trail longer than
    ``budget`` (mm) counts as infeasible.

    Branch and bound: ``to_dst`` (distances to dst with the working
    links removed) bounds from below the rest of any trail from a node,
    and a start is abandoned once the trail so far plus the leg to some
    remaining source plus that source's ``to_dst`` exceeds the budget
    or the best trail found. The pruning is exact: lengths are positive
    and a start's mask only grows, so no abandoned trail could have come
    in within the limit; the comparison is strict, so trails of equal
    length still compete on node sequence. Each leg reads every
    remaining source off one tree rooted at the trail's end. Every tree
    is grown only until the nodes read off it are settled.
    """
    base = topo.blocked_mask(blocked)
    uniq = sorted(set(sources))
    to_dst = topo.distances(dst, base, uniq)
    # a trail never reuses a link, so it is shorter than all links together
    limit = INF_MM // 4 if budget is None else budget
    # every trail runs on from each source to dst
    if max(to_dst[u] for u in uniq) > limit:
        return None
    best = None
    for start in uniq:
        mask = array("B", base)
        nodes = [start]
        links: list[int] = []
        partial = 0
        cur = start
        remaining = [u for u in uniq if u != start]
        while remaining:
            dist = topo.distances(cur, mask, remaining)
            if partial + max(dist[u] + to_dst[u] for u in remaining) > limit:
                break
            u = min(remaining, key=lambda u: (dist[u], u))
            leg = routing.path_from_root(topo, dist, cur, u, mask)
            nodes += leg.nodes[1:]
            links += leg.links
            for lid in leg.links:
                mask[lid] = 1
            partial += leg.length_mm
            cur = u
            remaining.remove(u)
        if remaining:
            continue
        # with no leg taken the mask is still the working links' one
        tree = topo.distances(dst, mask, (cur,)) if links else to_dst
        if partial + tree[cur] > limit:
            continue
        tail = routing.path_to_root(topo, tree, cur, dst, mask)
        trail = Path((*nodes, *tail.nodes[1:]), (*links, *tail.links), partial + tail.length_mm)
        key = (trail.length_mm, trail.nodes)
        if best is None or key < best[0]:
            best = (key, trail)
            limit = trail.length_mm
    return best[1] if best else None


def find_group(topo: Topology, flows, max_mm=None) -> CodingGroup | None:
    """Route a parity group for the given flows, or report infeasibility.

    Flows must share a destination and carry equal rates. Working paths
    are a min-total-length pairwise link-disjoint set (one per flow, the
    shorter route of a shared source going to the earlier flow); the
    parity trail additionally avoids all of them. Either failing to
    route kills the group.

    ``max_mm`` is a ceiling on the group's capacity-distance (working
    paths plus parity trail): a group dearer than it is reported as
    None. The routes that fit are the ones found without a ceiling,
    because the search only drops trails that provably exceed it
    (lengths are positive and a trail's excluded links only grow).
    The working set is priced and blocked as its flow (``disjoint_flow``),
    whose links are the paths'; only a group that routes gets it split.
    The group numbers its flows 0..len(flows)-1 in the order given.
    """
    flows = list(flows)
    if len(flows) < 2:
        raise ValueError("a parity group needs at least two flows")
    dst = flows[0].dst
    if any(f.dst != dst for f in flows):
        return None
    if len({f.rate for f in flows}) != 1:
        return None

    srcs = [f.src for f in flows]
    orient = routing.disjoint_flow(topo, srcs, dst)
    if orient is None:
        return None
    blocked = {lid for lid, o in enumerate(orient) if o}
    budget = None
    if max_mm is not None:
        budget = max_mm - sum(topo.link_mm[lid] for lid in blocked)
        if budget < 0:
            return None
    parity = _parity_route(topo, srcs, dst, blocked, budget)
    if parity is None:
        return None
    return CodingGroup(
        flow_ids=tuple(range(len(flows))),
        working=tuple(routing._decompose(topo, orient, srcs, dst)),
        parity=parity,
        decode_node=dst,
    )


def algorithm_one(topo: Topology, demand) -> ProtectionPlan:
    """Threshold sweep planner.

    Demand rows are split into unit-rate subflows, and each destination's
    subflows are planned alone (``_plan_destination``): no group spans
    two destinations. Their groups are merged in sweep order: threshold
    (along _THRESHOLDS, 1.6 up to 3.0), then group size from
    _MAX_GROUP_SIZE down to 2, then destination, then acceptance.
    Remaining subflows get 1+1 pairs; flows without two disjoint routes
    are left unprotected and the plan is marked partial. A demand of
    more than _MAX_UNIT_FLOWS units in all is a ScenarioError.
    """
    demand = tuple(demand)
    units = sum(f.rate for f in demand)
    if units > _MAX_UNIT_FLOWS:
        raise ScenarioError(
            f"demand splits into more than {_MAX_UNIT_FLOWS} unit flows,"
            " the most parity planning handles"
        )
    flows, demand_idx = split_unit_flows(demand)
    by_dst: dict[int, list[int]] = {}
    for i, f in enumerate(flows):
        by_dst.setdefault(f.dst, []).append(i)

    tagged = []
    for dst in sorted(by_dst):
        tagged += _plan_destination(topo, flows, by_dst[dst])
    # stable: equal tags keep destination order, then acceptance order
    groups = [g for _, g in sorted(tagged, key=lambda t: t[0])]

    pairs: list[BackupPair] = []
    unprotected: list[int] = []
    working_paths: list[Path | None] = [None] * len(flows)
    for g in groups:
        for fid, w in zip(g.flow_ids, g.working):
            working_paths[fid] = w
    for i, f in enumerate(flows):
        if working_paths[i] is None:
            working_paths[i], b = routing.protected_pair(topo, f.src, f.dst)
            if b is None:
                unprotected.append(i)
            else:
                pairs.append(BackupPair(flow_id=i, working=working_paths[i], backup=b))

    working_cap = link_load(topo.m, ((p.links, 1) for p in working_paths if p is not None))
    spare_cap = link_load(
        topo.m,
        [(g.parity.links, 1) for g in groups] + [(pair.backup.links, 1) for pair in pairs],
    )

    return ProtectionPlan(
        scheme=SCHEME_DC,
        flows=flows,
        demand_idx=demand_idx,
        working_paths=tuple(working_paths),
        working_cap=working_cap,
        spare_cap=spare_cap,
        groups=tuple(groups),
        pairs=tuple(pairs),
        unprotected=tuple(unprotected),
    )


def _plan_destination(
    topo: Topology, flows, ids: list[int]
) -> list[tuple[tuple[int, int], CodingGroup]]:
    """The sweep over the unit flows ``ids``, which share one destination.

    For each admission threshold in _THRESHOLDS, and for each group size
    from _MAX_GROUP_SIZE down to 2, every combination of still-unprotected
    flows is considered; a group is accepted when it routes, its
    redundancy ratio is within the threshold, and it does not consume
    more capacity-distance than 1+1 pairs for the same flows would.
    Returns the accepted groups in acceptance order, each tagged
    (threshold index, -size). More than _MAX_COMBINATIONS combinations
    per threshold is a ScenarioError. Flows are unit rate, so ``decide``
    settles each source tuple the hop guard passes once, as its first
    admitting threshold and group. The unprotected set only shrinks, so
    the first pass meets every tuple a later one accepts; a threshold no
    tuple holds is skipped.
    """
    dst = flows[ids[0]].dst
    # size link-disjoint working paths enter dst on size distinct links
    # and the parity trail needs one more
    sizes = range(min(_MAX_GROUP_SIZE, len(ids), topo.degree(dst) - 1), 1, -1)
    if not sizes:
        return []
    walk = sum(comb(len(ids), size) for size in sizes)
    if walk > _MAX_COMBINATIONS:
        raise ScenarioError(
            f"the {len(ids)} unit flows into node {dst} make {walk} candidate groups; "
            f"parity planning walks at most {_MAX_COMBINATIONS} per destination"
        )
    hop = None
    if len(ids) > _DENSE_FLOW_LIMIT:
        hop = {s: topo.hop_distances(s) for s in {flows[i].src for i in ids}}
    top_num, top_den = _THRESHOLDS[-1]
    # per source, a unit flow's floor and its 1+1 cost; an unpairable
    # flow counts as unbounded so any group beats it
    floor = topo.distances(dst)
    fallback = {}
    for s in sorted({flows[i].src for i in ids}):
        w, b = routing.protected_pair(topo, s, dst)
        fallback[s] = w.length_mm + b.length_mm if b is not None else INF_MM

    def decide(combo, srcs) -> tuple[int, CodingGroup] | None:
        baseline = sum(floor[s] for s in srcs)
        pairs_mm = sum(fallback[s] for s in srcs)
        # no threshold admits a group dearer than the loosest ratio or
        # than 1+1 pairs for the same flows (which keeps total capacity
        # monotone in the threshold); admission re-tests the latter itself
        max_mm = min(baseline * top_num // top_den, pairs_mm)
        g = find_group(topo, [flows[i] for i in combo], max_mm=max_mm)
        if g is None or (consumed := group_capacity_mm(g)) > pairs_mm:
            return None
        # the first threshold the ratio is within, compared exactly
        for t, (num, den) in enumerate(_THRESHOLDS):
            if consumed * den <= baseline * num:
                return t, g
        return None

    # keyed by the sources in combination order
    decided: dict[tuple[int, ...], tuple[int, CodingGroup] | None] = {}
    alive = set(ids)
    accepted = []
    for t in range(len(_THRESHOLDS)):
        if t and all(v is None or v[0] != t for v in decided.values()):
            continue
        for size in sizes:
            for combo in combinations(ids, size):
                if not alive.issuperset(combo):
                    continue
                srcs = tuple(flows[i].src for i in combo)
                if srcs not in decided:
                    # a hop-rejected tuple is tested again, not stored:
                    # dense destinations reject millions
                    if hop and any(
                        hop[a][b] > _SOURCE_HOP_RADIUS for a, b in combinations(srcs, 2)
                    ):
                        continue
                    decided[srcs] = decide(combo, srcs)
                v = decided[srcs]
                if v is not None and v[0] == t:
                    # a decided group numbers its flows 0..size-1: stamp
                    # this combination's ids
                    accepted.append(((t, -size), v[1]._replace(flow_ids=combo)))
                    alive.difference_update(combo)
    return accepted


def _decodes(group: CodingGroup, failed_link: int) -> bool:
    """Whether the group's decode rows keep full column rank over GF(2)
    after the failure, so every stream is recovered by XOR combination:
    a surviving working path i gives the unit row ``1 << i``, a
    surviving parity trail the all-ones row."""
    n = group.size
    rows = [1 << i for i, w in enumerate(group.working) if failed_link not in w.links]
    if failed_link not in group.parity.links:
        rows.append((1 << n) - 1)
    return kernels.gf2_rank(rows) == n


def verify_decodable(plan: ProtectionPlan, failed_link: int) -> list[bool]:
    """Per-flow recoverability under a single link failure (XOR plans).

    A flow survives if its working path avoids the failure or its
    group's decode matrix keeps full column rank; 1+1 pairs survive via
    their dedicated duplicate.
    """
    if plan.scheme != SCHEME_DC:
        raise ValueError("decodability applies to XOR parity plans")
    ok = [True] * len(plan.flows)
    for g in plan.groups:
        hit = [i for i, w in enumerate(g.working) if failed_link in w.links]
        if not hit:
            continue
        full = _decodes(g, failed_link)
        for i in hit:
            ok[g.flow_ids[i]] = full
    for pair in plan.pairs:
        if failed_link in pair.working.links:
            ok[pair.flow_id] = failed_link not in pair.backup.links
    for fid in plan.unprotected:
        w = plan.working_paths[fid]
        if w is not None and failed_link in w.links:
            ok[fid] = False
    return ok
