"""XOR parity protection: group construction and the planning sweep.

The planner walks an admission threshold from loose to tight redundancy
(low to high ratio), preferring larger groups, and falls back to 1+1
duplication for whatever cannot be grouped economically. Group routing
is independent of planner state, so candidate evaluations are memoised
across thresholds.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import routing
from .gf2 import Gf2Matrix
from .plan import (
    SCHEME_DC,
    BackupPair,
    CodingGroup,
    ProtectionPlan,
    split_unit_flows,
)
from .topology import Flow, Path, Route, Topology


@dataclass(frozen=True)
class SearchParams:
    """Admission sweep controls.

    The sweep accepts a group when its redundancy ratio (consumed
    capacity-distance over the flows' shortest-path floor) does not
    exceed the current threshold. Ratios of accepted groups therefore
    never exceed ``ratio_high``; 1+1 fallback pairs are exempt.
    """

    ratio_low: float = 1.6
    ratio_high: float = 3.0
    ratio_step: float = 0.2
    max_group_size: int = 4
    # Combination guard for dense instances: with more than
    # dense_flow_limit flows sharing a destination, only sources within
    # source_hop_radius hops of each other are considered together.
    dense_flow_limit: int = 12
    source_hop_radius: int = 3

    def __post_init__(self):
        if self.ratio_low < 1.0:
            raise ValueError("ratio_low must be >= 1.0")
        if self.ratio_high < self.ratio_low:
            raise ValueError("ratio_high must be >= ratio_low")
        if self.ratio_step <= 0:
            raise ValueError("ratio_step must be positive")
        if self.max_group_size < 2:
            raise ValueError("max_group_size must be >= 2")

    def thresholds(self) -> list[float]:
        out = []
        i = 0
        while True:
            t = round(self.ratio_low + i * self.ratio_step, 9)
            if t > self.ratio_high + 1e-9:
                break
            out.append(t)
            i += 1
        return out


def group_capacity_mm(group: CodingGroup) -> int:
    return sum(w.length_mm for w in group.working) + group.parity.length_mm


def baseline_capacity_mm(topo: Topology, flows) -> int:
    total = 0
    for f in flows:
        p = routing.shortest_path(topo, f.src, f.dst)
        if p is None:  # pragma: no cover - connected topologies
            raise ValueError(f"no route {f.src}->{f.dst}")
        total += p.length_mm
    return total


def redundancy_ratio(topo: Topology, group: CodingGroup) -> float:
    """Consumed capacity-distance over the unconstrained shortest floor.

    Always >= 1; equals (N+1)/N when every route ties the shortest
    length. Flows in a group carry equal rates, so rates cancel.
    """
    flows = [Flow(w.src, w.dst, 1) for w in group.working]
    return group_capacity_mm(group) / baseline_capacity_mm(topo, flows)


def _parity_route(topo: Topology, sources: list[int], dst: int, blocked: set[int]) -> Route | None:
    """Cheapest source-tapping trail to the decode node.

    Chains the distinct sources in nearest-neighbour order, each leg a
    shortest path avoiding the working links and the trail so far;
    every distinct start is tried and the shortest feasible trail wins.
    """
    uniq = sorted(set(sources))
    best = None
    for start in uniq:
        nodes = [start]
        links: list[int] = []
        segs: list[int] = []
        used: set[int] = set()
        cur = start
        remaining = [u for u in uniq if u != start]
        dead = False
        while remaining:
            leg_best = None
            for u in remaining:
                p = routing.shortest_path(topo, cur, u, excluded=blocked | used)
                if p is None:
                    continue
                key = (p.length_mm, u)
                if leg_best is None or key < leg_best[0]:
                    leg_best = (key, u, p)
            if leg_best is None:
                dead = True
                break
            _, u, p = leg_best
            for w, lid in zip(p.nodes[1:], p.links):
                nodes.append(w)
                links.append(lid)
                segs.append(int(topo.link_mm[lid]))
                used.add(lid)
            cur = u
            remaining.remove(u)
        if dead:
            continue
        tail = routing.shortest_path(topo, cur, dst, excluded=blocked | used)
        if tail is None:
            continue
        for w, lid in zip(tail.nodes[1:], tail.links):
            nodes.append(w)
            links.append(lid)
            segs.append(int(topo.link_mm[lid]))
        segs.append(0)
        route = Route(tuple(nodes), tuple(links), sum(segs), tuple(segs))
        key = (route.length_mm, route.nodes)
        if best is None or key < best[0]:
            best = (key, route)
    return best[1] if best else None


def find_group(topo: Topology, flows, flow_ids=None) -> CodingGroup | None:
    """Route a parity group for the given flows, or report infeasibility.

    Flows must share a destination and carry equal rates. Working paths
    are a min-total-length pairwise link-disjoint set (one per flow);
    the parity trail additionally avoids all of them. Either failing to
    route kills the group.
    """
    flows = list(flows)
    if len(flows) < 2:
        raise ValueError("a parity group needs at least two flows")
    dst = flows[0].dst
    if any(f.dst != dst for f in flows):
        return None
    if len({f.rate for f in flows}) != 1:
        return None
    if flow_ids is None:
        flow_ids = tuple(range(len(flows)))

    workings = routing.disjoint_routes(topo, [f.src for f in flows], dst)
    if workings is None:
        return None
    # Deterministic flow->path assignment: among paths sharing a start
    # node, shorter (then lexicographically smaller) goes to the earlier
    # flow.
    by_src: dict[int, list[Path]] = {}
    for p in workings:
        by_src.setdefault(p.src, []).append(p)
    for row in by_src.values():
        row.sort(key=lambda p: (p.length_mm, p.nodes))
    taken: dict[int, int] = {}
    assigned = []
    for f in flows:
        k = taken.get(f.src, 0)
        assigned.append(by_src[f.src][k])
        taken[f.src] = k + 1

    blocked = {lid for p in assigned for lid in p.links}
    parity = _parity_route(topo, [f.src for f in flows], dst, blocked)
    if parity is None:
        return None
    return CodingGroup(
        flow_ids=tuple(flow_ids),
        working=tuple(assigned),
        parity=parity,
        decode_node=dst,
    )


def _ratio_fraction(threshold: float) -> Fraction:
    return Fraction(str(threshold))


def algorithm_one(
    topo: Topology, demand, params: SearchParams | None = None
) -> ProtectionPlan:
    """Threshold sweep planner.

    Demand rows are split into unit-rate subflows. For each admission
    threshold (loose to tight redundancy never loosens: the sweep runs
    from ratio_low up to ratio_high), and for each group size from
    max_group_size down to 2, every combination of still-unprotected
    same-destination subflows is evaluated; a group is accepted when it
    routes, its redundancy ratio is within the threshold, and it does
    not consume more capacity-distance than 1+1 pairs for the same
    flows would. Remaining subflows get 1+1 pairs; flows without two
    disjoint routes are left unprotected and the plan is marked partial.
    """
    params = params or SearchParams()
    flows, demand_idx = split_unit_flows(demand)
    nf = len(flows)
    alive = [True] * nf
    by_dst: dict[int, list[int]] = {}
    for i, f in enumerate(flows):
        by_dst.setdefault(f.dst, []).append(i)

    hop_ok = _make_hop_guard(topo, flows, by_dst, params)

    cache: dict[frozenset, tuple[CodingGroup, int, int] | None] = {}

    aps_mm: dict[int, int] = {}

    def fallback_mm(i: int) -> int:
        # capacity-distance the flow costs if left to the 1+1 fallback;
        # unpairable flows count as unbounded so any group beats them
        if i not in aps_mm:
            pr = routing.protected_pair(topo, flows[i].src, flows[i].dst)
            aps_mm[i] = (
                pr[0].length_mm + pr[1].length_mm if pr is not None else int(1 << 62)
            )
        return aps_mm[i]

    def evaluate(combo) -> tuple[CodingGroup, int, int] | None:
        key = frozenset(combo)
        if key not in cache:
            g = find_group(topo, [flows[i] for i in combo], flow_ids=combo)
            if g is None:
                cache[key] = None
            else:
                cache[key] = (
                    g,
                    group_capacity_mm(g),
                    baseline_capacity_mm(topo, [flows[i] for i in combo]),
                )
        return cache[key]

    groups: list[CodingGroup] = []
    for threshold in params.thresholds():
        frac = _ratio_fraction(threshold)
        for size in range(params.max_group_size, 1, -1):
            for dst in sorted(by_dst):
                ids = by_dst[dst]
                if len(ids) < size:
                    continue
                for combo in combinations(ids, size):
                    if not all(alive[i] for i in combo):
                        continue
                    if not hop_ok(combo):
                        continue
                    res = evaluate(combo)
                    if res is None:
                        continue
                    g, consumed, baseline = res
                    # admission: redundancy within the threshold (exact
                    # rational comparison) and never dearer than leaving
                    # the same flows to 1+1 pairs; the latter keeps total
                    # capacity monotone in the threshold ceiling
                    if consumed * frac.denominator > baseline * frac.numerator:
                        continue
                    if consumed > sum(fallback_mm(i) for i in combo):
                        continue
                    groups.append(g)
                    for i in combo:
                        alive[i] = False

    pairs: list[BackupPair] = []
    unprotected: list[int] = []
    working_paths: list[Path | None] = [None] * nf
    for g in groups:
        for fid, w in zip(g.flow_ids, g.working):
            working_paths[fid] = w
    for i in range(nf):
        if not alive[i]:
            continue
        pr = routing.protected_pair(topo, flows[i].src, flows[i].dst)
        if pr is None:
            w = routing.shortest_path(topo, flows[i].src, flows[i].dst)
            working_paths[i] = w
            unprotected.append(i)
            continue
        w, b = pr
        working_paths[i] = w
        pairs.append(BackupPair(flow_id=i, working=w, backup=b))

    working_cap = np.zeros(topo.m, dtype=np.int64)
    spare_cap = np.zeros(topo.m, dtype=np.int64)
    for p in working_paths:
        if p is not None:
            for lid in p.links:
                working_cap[lid] += 1
    for g in groups:
        for lid in g.parity.links:
            spare_cap[lid] += 1
    for pair in pairs:
        for lid in pair.backup.links:
            spare_cap[lid] += 1

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


def _make_hop_guard(topo, flows, by_dst, params):
    dense = {d for d, ids in by_dst.items() if len(ids) > params.dense_flow_limit}
    if not dense:
        return lambda combo: True
    hop = {}
    for d in dense:
        for i in by_dst[d]:
            s = flows[i].src
            if s not in hop:
                hop[s] = routing.hop_distances(topo, s)

    def ok(combo):
        f0 = flows[combo[0]]
        if f0.dst not in dense:
            return True
        srcs = [flows[i].src for i in combo]
        r = params.source_hop_radius
        for a in srcs:
            for b in srcs:
                if hop[a][b] > r:
                    return False
        return True

    return ok


def decode_matrix(group: CodingGroup, failed_link: int | None) -> Gf2Matrix:
    """Rows received at the decode node after a link failure.

    Surviving working path i contributes unit row e_i; a surviving
    parity trail contributes the all-ones row. Full column rank means
    every stream is recoverable by XOR combination.
    """
    n = group.size
    rows = []
    for i, w in enumerate(group.working):
        if failed_link is None or failed_link not in w.links:
            row = [0] * n
            row[i] = 1
            rows.append(row)
    if failed_link is None or failed_link not in group.parity.links:
        rows.append([1] * n)
    return Gf2Matrix.from_rows(rows)


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
        full = decode_matrix(g, failed_link).rank() == g.size
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
