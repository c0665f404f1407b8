"""Shared test utilities: fixture loading, randomized instances,
path and group helpers only the tests use, brute-force oracles kept
deliberately independent of the library's algorithms (different
enumeration strategies, no shared code paths), reference copies of the
p-cycle planner's, the parity-trail search's, the disjoint-route
search's, the group search's, the dc destination sweep's, the failure
sweep's and its restoration-time formulas', sr spare sizing's and the
recovery actions' earlier implementations, and the scenario parser with
and without its row reader."""
import importlib.util
from contextlib import contextmanager
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
from yaml.composer import Composer

from divprotect import coding, kernels, routing, topology
from divprotect.cli import fixture_path
from divprotect.coding import group_capacity_mm, verify_decodable
from divprotect.failsim import FailureReport
from divprotect.metrics import PROP_SPEED_KM_S, FailureGeometry, RtParams, SchemeResult, qor, scp
from divprotect.pcycle import cycle_ring
from divprotect.plan import (
    SCHEME_DC,
    SCHEME_PC,
    SCHEME_SR,
    BackupPair,
    CodingGroup,
    CycleSelection,
    ProtectionPlan,
    detour_arcs,
    link_load,
    shortest_working_capacity_mm,
)
from divprotect.topology import Flow, ScenarioError, Scenario, Topology, load_scenario


def load_bench_kernels():
    """The ``benchmarks/bench_kernels.py`` script, imported as a module."""
    script = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_fixture(name: str) -> Scenario:
    path = fixture_path(name)
    assert path is not None, f"missing bundled fixture {name}"
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def parse_outcome(text: str) -> str:
    """repr of the document ``topology._parse_yaml`` builds, or its error text."""
    try:
        return repr(topology._parse_yaml(text))
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


def composed_outcome(text: str) -> str:
    """parse_outcome with PyYAML's composer building every document: the
    row reader declines."""
    with mock.patch.object(topology, "_read_rows", lambda text: None):
        return parse_outcome(text)


@contextmanager
def counting_compositions():
    """Yield a list that gains an item per stream PyYAML's composer reads."""
    calls = []
    compose = Composer.get_single_node

    def counted(self):
        calls.append(None)
        return compose(self)

    with mock.patch.object(Composer, "get_single_node", counted):
        yield calls


@contextmanager
def counting_yaml_parses():
    """Yield a list that gains an item per text ``topology._read_rows``
    declines, that is per text ``yaml.safe_load`` reads."""
    calls = []
    read_rows = topology._read_rows

    def counted(text):
        doc = read_rows(text)
        if doc is None:
            calls.append(None)
        return doc

    with mock.patch.object(topology, "_read_rows", counted):
        yield calls


def fresh_tree(topo: Topology, root: int, blocked, until=None) -> list[int]:
    """Distances from root off one direct kernel call on a fresh tree."""
    return kernels.dijkstra_distances(
        topo.adj_rows, [kernels.INF_MM] * topo.n, [], bytearray(topo.n), root, blocked, until
    )


def make_path(topo: Topology, nodes) -> topology.Path:
    """Build a Path from a node walk; links must exist and not repeat."""
    links = []
    total = 0
    for u, v in zip(nodes, nodes[1:]):
        l = topo.link_between(u, v)
        if l is None:
            raise ValueError(f"no link {u}-{v}")
        links.append(l.id)
        total += l.length_mm
    if len(set(links)) != len(links):
        raise ValueError("walk reuses a link")
    return topology.Path(tuple(nodes), tuple(links), total)


# flows 0 and 1 into node 3 share their last link, 1-3; the parity trail
# 0-4-1-5-3 taps both sources
DC_TOPO = Topology.from_edge_list(
    [(0, 1, 2), (1, 3, 4), (0, 4, 3), (4, 1, 3), (1, 5, 1), (5, 3, 1), (0, 2, 5), (2, 3, 5)],
    unit="km",
)


def hand_built_dc(stray=None):
    """A dc plan on DC_TOPO: flows 0 and 1 in one group, flow 2 on a 1+1
    pair, flow 3 unprotected; ``stray``, a node walk into 3, adds a flow
    in no group, pair or unprotected list."""
    w0, w1 = make_path(DC_TOPO, [0, 1, 3]), make_path(DC_TOPO, [1, 3])
    parity = make_path(DC_TOPO, [0, 4, 1, 5, 3])
    w2, b2 = make_path(DC_TOPO, [0, 2, 3]), make_path(DC_TOPO, [0, 1, 5, 3])
    w3 = make_path(DC_TOPO, [2, 3])
    working = [w0, w1, w2, w3]
    if stray is not None:
        working.append(make_path(DC_TOPO, stray))
    flows = tuple(Flow(w.src, w.dst, 1) for w in working)
    return ProtectionPlan(
        scheme="dc",
        flows=flows,
        demand_idx=tuple(range(len(flows))),
        working_paths=tuple(working),
        working_cap=link_load(DC_TOPO.m, ((w.links, 1) for w in working)),
        spare_cap=link_load(DC_TOPO.m, [(parity.links, 1), (b2.links, 1)]),
        groups=(CodingGroup(flow_ids=(0, 1), working=(w0, w1), parity=parity, decode_node=3),),
        pairs=(BackupPair(flow_id=2, working=w2, backup=b2),),
        unprotected=(3,),
    )


def redundancy_ratio(topo: Topology, group: CodingGroup) -> float:
    """Consumed capacity-distance over the unconstrained shortest floor.

    Always >= 1; equals (N+1)/N when every route ties the shortest
    length. Flows in a group carry equal rates, so rates cancel.
    """
    flows = [Flow(w.src, w.dst, 1) for w in group.working]
    return group_capacity_mm(group) / shortest_working_capacity_mm(topo, flows)


def random_scenario(seed: int, max_nodes: int = 10, max_links: int = 20,
                    max_flows: int = 8):
    """Random biconnected instance: a Hamiltonian cycle (which already
    makes the graph 2-connected) plus random chords, integer-km spans,
    and unit-rate demands biased toward shared destinations."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, max_nodes + 1))
    perm = [int(v) for v in rng.permutation(n)]
    edges = set()
    for i in range(n):
        a, b = perm[i], perm[(i + 1) % n]
        edges.add((min(a, b), max(a, b)))
    cap = min(max_links, n * (n - 1) // 2)
    target = int(rng.integers(n, cap + 1))
    while len(edges) < target:
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    rows = [(a, b, int(rng.integers(1, 10))) for a, b in sorted(edges)]
    topo = Topology.from_edge_list(rows, unit="km")

    nf = int(rng.integers(1, max_flows + 1))
    flows = []
    for _ in range(nf):
        if flows and rng.random() < 0.5:
            dst = flows[-1].dst  # encourage groupable clusters
        else:
            dst = int(rng.integers(0, n))
        src = int(rng.integers(0, n))
        while src == dst:
            src = int(rng.integers(0, n))
        flows.append(Flow(src, dst, 1))
    return topo, flows


def unit_lengths(topo: Topology) -> Topology:
    """The same graph with every link 1 km long: shortest paths tie a lot."""
    return Topology.from_edge_list([(l.a, l.b, 1) for l in topo.links], unit="km")


def all_simple_paths(topo: Topology, src: int, dst: int, excluded=frozenset()):
    """Every simple src->dst path as (length_mm, node tuple, link tuple)."""
    out = []
    stack = [(src, (src,), (), 0)]
    while stack:
        v, nodes, links, dist = stack.pop()
        if v == dst:
            out.append((dist, nodes, links))
            continue
        for w, lid, mm in topo.adj_rows[v]:
            if lid in excluded or w in nodes:
                continue
            stack.append((w, nodes + (w,), links + (lid,), dist + mm))
    return out


def brute_shortest(topo: Topology, src: int, dst: int):
    """Lexicographically smallest shortest path, by full enumeration."""
    cands = all_simple_paths(topo, src, dst)
    if not cands:
        return None
    return min(cands, key=lambda c: (c[0], c[1]))


def brute_disjoint_pair_total(topo: Topology, src: int, dst: int):
    """Minimum combined length of two link-disjoint paths, or None."""
    cands = all_simple_paths(topo, src, dst)
    best = None
    for (la, _, ka), (lb, _, kb) in combinations(cands, 2):
        if set(ka) & set(kb):
            continue
        if best is None or la + lb < best:
            best = la + lb
    return best


def brute_disjoint_total(topo: Topology, sources, dst: int):
    """Minimum total length over pairwise link-disjoint assignments of one
    simple path per source entry, or None when there is none, by
    branch-and-bound over every simple path of every source."""
    sources = sorted(sources)
    cands = {s: sorted(all_simple_paths(topo, s, dst)) for s in set(sources)}
    if any(not cands[s] for s in sources):
        return None
    floor = [cands[s][0][0] for s in sources]
    best = None

    def place(i, first, used, total):
        # entries of one source take paths in increasing index order, so
        # each assignment is visited once
        nonlocal best
        if i == len(sources):
            best = total
            return
        rest = sum(floor[i + 1:])
        for j in range(first, len(cands[sources[i]])):
            length, _, links = cands[sources[i]][j]
            if best is not None and total + length + rest >= best:
                break
            if used.isdisjoint(links):
                nxt = sources[i + 1] if i + 1 < len(sources) else None
                place(i + 1, j + 1 if nxt == sources[i] else 0, used | set(links),
                      total + length)

    place(0, 0, frozenset(), 0)
    return best


def brute_cycles(topo: Topology):
    """All simple cycles as canonical rings, by circular-order search
    over node subsets (independent of any DFS strategy)."""
    found = {}
    nodes = range(topo.n)
    for k in range(3, topo.n + 1):
        for subset in combinations(nodes, k):
            anchor = subset[0]
            for order in permutations(subset[1:]):
                if order[0] > order[-1]:
                    continue  # one direction per ring
                ring = (anchor,) + order
                total = 0
                ok = True
                for i in range(k):
                    l = topo.link_between(ring[i], ring[(i + 1) % k])
                    if l is None:
                        ok = False
                        break
                    total += l.length_mm
                if ok:
                    found[ring] = total
    return found


# The p-cycle planner as it was before cycles were enumerated in one
# orientation and its coverage matrices built in one vectorised pass:
# every cycle is found in both directions and deduplicated in canonical
# form, each cycle's coverage scans every link, and the greedy buys one
# copy per step, rescoring every cycle each time. The plan it returns
# must serialize to the same bytes as pcycle.pc_design's.


class Ring(NamedTuple):
    """A cycle with its canonical node and link sequences spelled out:
    the reference enumeration's result, and pcycle's through ``rings``."""

    length_mm: int
    nodes: tuple[int, ...]
    links: tuple[int, ...]


def rings(topo: Topology, cycles) -> list[Ring]:
    """pcycle.Cycles masks mapped through ``cycle_ring``, checking on the
    way that each ring's links are exactly its mask's set bits."""
    out = []
    for length_mm, mask in zip(cycles.lengths, cycles.masks):
        ring = Ring(length_mm, *cycle_ring(topo, mask))
        assert sum(1 << lid for lid in set(ring.links)) == mask
        assert len(ring.links) == len(ring.nodes) == mask.bit_count()
        out.append(ring)
    return out


def _ref_canonical(topo: Topology, nodes: list[int]) -> Ring:
    ring = list(nodes)
    if ring[1] > ring[-1]:
        ring = [ring[0]] + ring[:0:-1]
    links = []
    total = 0
    for i in range(len(ring)):
        l = topo.link_between(ring[i], ring[(i + 1) % len(ring)])
        links.append(l.id)
        total += l.length_mm
    return Ring(length_mm=total, nodes=tuple(ring), links=tuple(links))


def _ref_enumerate_cycles(topo: Topology, max_hops: int | None = None) -> list[Ring]:
    if max_hops is None:
        max_hops = min(topo.n, 12)
    out = []
    path = []

    def dfs(anchor: int, v: int):
        for w, _, _ in topo.adj_rows[v]:
            if w == anchor and len(path) >= 3:
                out.append(_ref_canonical(topo, path))
            elif w > anchor and w not in on_path and len(path) < max_hops:
                path.append(w)
                on_path.add(w)
                dfs(anchor, w)
                on_path.remove(w)
                path.pop()

    for anchor in range(topo.n):
        path = [anchor]
        on_path = {anchor}
        dfs(anchor, anchor)

    uniq = {c.nodes: c for c in out}
    return sorted(uniq.values(), key=lambda c: (c.length_mm, c.nodes))


def all_links_coverage(topo: Topology, cycle: Ring):
    """(sorted on-cycle link ids, straddling link ids) by scanning every link."""
    on = set(cycle.links)
    node_set = set(cycle.nodes)
    straddle = [
        l.id
        for l in topo.links
        if l.id not in on and l.a in node_set and l.b in node_set
    ]
    return sorted(on), straddle


def dense_pc_reference(topo: Topology, demand) -> ProtectionPlan:
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

    cycles = _ref_enumerate_cycles(topo)
    nc = len(cycles)
    on_mat = np.zeros((nc, topo.m), dtype=bool)
    str_mat = np.zeros((nc, topo.m), dtype=bool)
    for ci, c in enumerate(cycles):
        on, straddle = all_links_coverage(topo, c)
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
        working_cap=tuple(working_cap.tolist()),
        spare_cap=tuple(spare_cap.tolist()),
        cycles=selections,
        unprotected=tuple(unprotected),
    )


def apriori_efficiency(topo: Topology, cycle: Ring, need) -> float:
    """Unmet working units one copy of the cycle can protect, per unit
    distance: the scalar form of ``pc_design``'s selection ratio."""
    protected = sum(
        min(int(need[lid]), len(detour_arcs(topo, cycle, lid))) for lid in range(topo.m)
    )
    return protected / cycle.length_mm


def reference_parity_route(topo: Topology, sources, dst: int, blocked: set[int]):
    """The parity-trail search as it was before it was bounded: one
    ``shortest_path`` call per remaining source on every leg, every
    start routed to the end."""
    uniq = sorted(set(sources))
    best = None
    for start in uniq:
        nodes = [start]
        links = []
        segs = []
        used = set()
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
                segs.append(topo.link_mm[lid])
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
            segs.append(topo.link_mm[lid])
        route = topology.Path(tuple(nodes), tuple(links), sum(segs))
        key = (route.length_mm, route.nodes)
        if best is None or key < best[0]:
            best = (key, route)
    return best[1] if best else None


def reference_find_group(topo: Topology, flows, max_mm=None):
    """``coding.find_group`` as it was when it split the working flow
    into paths (``routing.disjoint_routes``) before pricing it: the
    ceiling is met by the paths' total length."""
    flows = list(flows)
    dst = flows[0].dst
    if any(f.dst != dst for f in flows) or len({f.rate for f in flows}) != 1:
        return None
    workings = routing.disjoint_routes(topo, [f.src for f in flows], dst)
    if workings is None:
        return None
    budget = None
    if max_mm is not None:
        budget = max_mm - sum(p.length_mm for p in workings)
        if budget < 0:
            return None
    blocked = {lid for p in workings for lid in p.links}
    parity = coding._parity_route(topo, [f.src for f in flows], dst, blocked, budget)
    if parity is None:
        return None
    return CodingGroup(
        flow_ids=tuple(range(len(flows))), working=tuple(workings), parity=parity, decode_node=dst
    )


def reference_plan_destination(
    topo: Topology, flows, ids: list[int]
) -> list[tuple[tuple[int, int], CodingGroup]]:
    """``coding._plan_destination`` as it was when every threshold walked
    every combination, re-running the hop guard and re-testing a cached
    group's four numbers each time. The sweep over the unit flows
    ``ids``, which share one destination.

    For each admission threshold in ``coding._THRESHOLDS``, and for each
    group size from ``coding._MAX_GROUP_SIZE`` down to 2, every
    combination of still-unprotected flows is evaluated; a group is
    accepted when it routes, its redundancy ratio is within the
    threshold, and it does not consume more capacity-distance than 1+1
    pairs for the same flows would.
    Returns the accepted groups in acceptance order, each tagged
    (threshold index, -size). More than _MAX_COMBINATIONS combinations
    per threshold is a ScenarioError. A combination's floor and 1+1 cost
    are sums over per-source tables built once, cached with its group.
    """
    dst = flows[ids[0]].dst
    # size link-disjoint working paths enter dst on size distinct links
    # and the parity trail needs one more
    sizes = range(min(coding._MAX_GROUP_SIZE, len(ids), topo.degree(dst) - 1), 1, -1)
    if not sizes:
        return []
    walk = sum(comb(len(ids), size) for size in sizes)
    if walk > coding._MAX_COMBINATIONS:
        raise ScenarioError(
            f"the {len(ids)} unit flows into node {dst} make {walk} candidate groups; "
            f"parity planning walks at most {coding._MAX_COMBINATIONS} per destination"
        )
    hop = None
    if len(ids) > coding._DENSE_FLOW_LIMIT:
        hop = {s: topo.hop_distances(s) for s in {flows[i].src for i in ids}}
    # read at call time, as the planner reads it, so a patched ladder
    # reaches both sweeps
    fracs = coding._THRESHOLDS
    top_num, top_den = fracs[-1]
    # per source, a unit flow's floor and its 1+1 cost; an unpairable
    # flow counts as unbounded so any group beats it
    floor = topo.distances(dst)
    fallback = {}
    for s in sorted({flows[i].src for i in ids}):
        w, b = routing.protected_pair(topo, s, dst)
        fallback[s] = w.length_mm + b.length_mm if b is not None else 1 << 62

    # keyed by the sources in combination order: flows are unit rate,
    # so routes, floor and ceiling depend on nothing else
    cache: dict[tuple[int, ...], tuple[CodingGroup, int, int, int] | None] = {}
    alive = set(ids)
    accepted = []
    for t, (num, den) in enumerate(fracs):
        for size in sizes:
            for combo in combinations(ids, size):
                if not alive.issuperset(combo):
                    continue
                srcs = tuple(flows[i].src for i in combo)
                if hop and any(
                    hop[a][b] > coding._SOURCE_HOP_RADIUS for a, b in combinations(srcs, 2)
                ):
                    continue
                if srcs not in cache:
                    baseline = sum(floor[s] for s in srcs)
                    pairs_mm = sum(fallback[s] for s in srcs)
                    # admission ceiling: no threshold admits a group dearer
                    # than the loosest ratio allows or than 1+1 pairs
                    max_mm = min(baseline * top_num // top_den, pairs_mm)
                    members = [flows[i] for i in combo]
                    g = coding.find_group(topo, members, max_mm=max_mm)
                    cache[srcs] = (
                        None if g is None else (g, group_capacity_mm(g), baseline, pairs_mm)
                    )
                if cache[srcs] is None:
                    continue
                g, consumed, baseline, pairs_mm = cache[srcs]
                # admission: redundancy within the threshold (exact
                # rational comparison) and never dearer than leaving the
                # same flows to 1+1 pairs, which keeps total capacity
                # monotone in the threshold ceiling; max_mm implies the
                # latter, but admission does not rely on find_group for it
                if consumed * den > baseline * num:
                    continue
                if consumed > pairs_mm:
                    continue
                # a cached group may carry another combination's ids
                accepted.append(((t, -size), g._replace(flow_ids=combo)))
                alive.difference_update(combo)
    return accepted


def reference_disjoint_routes(topo: Topology, sources, dst: int):
    """``routing.disjoint_routes`` as it was when each augmentation ran a
    Bellman-Ford over every link in id order, in place; the tie rule of
    the Dijkstra that replaced it is defined by this search."""
    sources = list(sources)
    k = len(sources)
    if k == 0:
        return []
    if any(s == dst for s in sources):
        raise ValueError("a source equals the destination")
    arcs = tuple(map(tuple, topo.links))
    # orient[l]: 0 unused, +1 carries flow a->b, -1 carries flow b->a
    orient = [0] * topo.m
    supply: dict[int, int] = {}
    for s in sources:
        supply[s] = supply.get(s, 0) + 1

    for _ in range(k):
        parent_node, parent_link = _ref_augment(topo.n, arcs, orient, supply, dst)
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

    return routing._decompose(topo, orient, sources, dst)


def _ref_augment(n, arcs, orient, supply, dst):
    """Bellman-Ford over the residual graph of ``arcs``, (id, a, b,
    length_mm) per link; reverse arcs cost -length. Topology keeps the
    total link length below INF_MM // 4, so a reached node's distance
    stays within INF_MM // 4 of zero and one relaxed from an unreached
    node stays above 3 * INF_MM // 4."""
    INF_MM = kernels.INF_MM
    if not supply:
        return None, None
    dist = [INF_MM] * n
    parent_node = [-1] * n
    parent_link = [-1] * n
    for s in supply:
        dist[s] = 0
    for _ in range(n):
        changed = False
        for lid, a, b, w in arcs:
            o = orient[lid]
            # forward a->b allowed unless already a->b; cost -w if cancelling b->a
            if o != 1:
                nd = dist[a] + (-w if o == -1 else w)
                if nd < dist[b]:
                    dist[b] = nd
                    parent_node[b] = a
                    parent_link[b] = lid
                    changed = True
            if o != -1:
                nd = dist[b] + (-w if o == 1 else w)
                if nd < dist[a]:
                    dist[a] = nd
                    parent_node[a] = b
                    parent_link[a] = lid
                    changed = True
        if not changed:
            break
    if parent_link[dst] < 0:
        return None, None
    return parent_node, parent_link


# The failure sweep, sr spare sizing and recovery actions as they were
# before they shared one link -> flows index: every failure rescans every
# path, and each (flow, link) pair recomputes its p-cycle list.

def _ref_delay(length_mm: int) -> float:
    return length_mm * 1e-6 / PROP_SPEED_KM_S


def _ref_notify_delay(topo: Topology, lid: int) -> float:
    # worst case: break at mid-span, detected at the nearer end
    return _ref_delay(topo.link_mm[lid] // 2)


def _ref_tail_mm(topo, trail, node):
    """Distance from the first visit of node to the end of the trail."""
    walked = 0
    for v, mm in zip(trail.nodes, [topo.link_mm[lid] for lid in trail.links] + [0]):
        if v == node:
            return trail.length_mm - walked
        walked += mm
    raise ValueError(f"node {node} not on trail")


def _ref_sweep_dc(topo, plan, lid, affected):
    ok = verify_decodable(plan, lid)
    group_of = {}
    for g in plan.groups:
        for pos, fid in enumerate(g.flow_ids):
            group_of[fid] = (g, pos)
    pair_of = {pair.flow_id: pair for pair in plan.pairs}
    recovered = []
    geoms = []
    for fid in affected:
        recovered.append(ok[fid])
        if not ok[fid]:
            geoms.append(None)
            continue
        w = plan.working_paths[fid]
        if fid in group_of:
            g, _ = group_of[fid]
            tail = _ref_tail_mm(topo, g.parity, plan.flows[fid].src)
            skew = max(0, tail - w.length_mm)
        else:
            pair = pair_of[fid]
            skew = max(0, pair.backup.length_mm - w.length_mm)
        geoms.append(FailureGeometry(parity_skew_s=_ref_delay(skew)))
    return recovered, geoms, True


def _ref_sweep_sr(topo, plan, lid, affected):
    pair_of = {pair.flow_id: pair for pair in plan.pairs}
    recovered = []
    geoms = []
    rerouted = []
    for fid in affected:
        pair = pair_of.get(fid)
        if pair is None or lid in pair.backup.links:
            recovered.append(False)
            geoms.append(None)
            continue
        w, b = pair.working, pair.backup
        i = w.links.index(lid)
        prefix_mm = sum(topo.link_mm[l] for l in w.links[:i])
        geoms.append(
            FailureGeometry(
                backup_hops=b.hops,
                upstream_hops=i,
                prot_delay_s=_ref_delay(b.length_mm),
                upstream_delay_s=_ref_delay(prefix_mm),
                notify_delay_s=_ref_notify_delay(topo, lid),
            )
        )
        recovered.append(True)
        rerouted.append((b.links, plan.flows[fid].rate))
    load = link_load(topo.m, rerouted)
    cap_ok = all(x <= cap for x, cap in zip(load, plan.spare_cap))
    return recovered, geoms, cap_ok


def _ref_sweep_pc(topo, plan, lid, affected):
    # one detour per unit of rate, shortest first, over every bought copy
    arcs = sorted(arc for sel in plan.cycles for arc in detour_arcs(topo, sel, lid) * sel.copies)
    recovered = []
    geoms = []
    nxt = 0
    cap_ok = True
    for fid in affected:
        rate = plan.flows[fid].rate
        if nxt + rate > len(arcs):
            recovered.append(False)
            geoms.append(None)
            cap_ok = False
            continue
        worst = arcs[nxt + rate - 1]
        nxt += rate
        recovered.append(True)
        geoms.append(
            FailureGeometry(
                upstream_hops=worst[1],
                prot_delay_s=_ref_delay(worst[0]),
                notify_delay_s=_ref_notify_delay(topo, lid),
            )
        )
    return recovered, geoms, cap_ok


def _ref_rt_sr(g, p, switch_s):
    # the restoration-time formulas as single-geometry functions, frozen
    # with their terms in the order metrics.worst_rt_* adds them
    return (
        p.detect_s
        + g.upstream_delay_s
        + (g.upstream_hops + 1) * p.node_proc_s
        + (g.backup_hops + 1) * switch_s
        + 3 * g.prot_delay_s
        + 3 * (g.backup_hops + 1) * p.node_proc_s
        + g.notify_delay_s
    )


def _ref_rt_pc(g, p, switch_s):
    return (
        p.detect_s
        + (g.upstream_hops + 1) * p.node_proc_s
        + 2 * switch_s
        + g.prot_delay_s
        + g.notify_delay_s
    )


def _ref_rt_dc(g, p, switch_s):
    return p.detect_s + 2 * p.node_proc_s + g.parity_skew_s


REFERENCE_RT = {SCHEME_DC: _ref_rt_dc, SCHEME_SR: _ref_rt_sr, SCHEME_PC: _ref_rt_pc}

# timing constants other than RtParams' defaults
CUSTOM_RT = RtParams(detect_s=7e-6, node_proc_s=3e-6)


def reference_sweep(topo, plan, rt_params=None, switch_values_s=(0.5e-3, 1e-3, 5e-3, 10e-3)):
    p = rt_params or RtParams()
    handler = {
        SCHEME_DC: _ref_sweep_dc,
        SCHEME_SR: _ref_sweep_sr,
        SCHEME_PC: _ref_sweep_pc,
    }[plan.scheme]

    reports = []
    for lid in range(topo.m):
        affected = tuple(
            fid
            for fid, w in enumerate(plan.working_paths)
            if w is not None and lid in w.links
        )
        recovered, geoms, cap_ok = handler(topo, plan, lid, affected)
        reports.append(
            FailureReport(
                link=lid,
                affected=affected,
                recovered=tuple(recovered),
                geometries=tuple(geoms),
                capacity_feasible=cap_ok,
            )
        )

    swc = shortest_working_capacity_mm(topo, plan.flows)
    scp_pct = scp(plan.total_capacity_mm(topo), swc)
    rt_fn = REFERENCE_RT[plan.scheme]
    rt_map = {}
    qor_map = {}
    for c in switch_values_s:
        worst = 0.0
        for rep in reports:
            for g in rep.geometries:
                if g is not None:
                    worst = max(worst, rt_fn(g, p, c))
        rt_map[c] = worst
        qor_map[c] = qor(scp_pct, worst)
    result = SchemeResult(
        scheme=plan.scheme,
        scp_pct=scp_pct,
        rt_s=rt_map,
        qor=qor_map,
        partial=plan.partial
        or any(not all(rep.recovered) for rep in reports)
        or any(not rep.capacity_feasible for rep in reports),
    )
    return reports, result


def reference_sr_spare(topo: Topology, plan: ProtectionPlan) -> tuple[int, ...]:
    """``sr_design``'s spare capacity, one scan of every pair per failure."""
    flows, pairs = plan.flows, plan.pairs
    # spare[l] = max over single failures of the backup rate crossing l
    spare_cap = (0,) * topo.m
    for failed in range(topo.m):
        hit = [(p.backup.links, flows[p.flow_id].rate) for p in pairs if failed in p.working.links]
        spare_cap = tuple(map(max, spare_cap, link_load(topo.m, hit)))
    return spare_cap


def reference_recovery_actions(plan: ProtectionPlan, topo: Topology) -> dict[int, list[dict]]:
    actions: dict[int, list[dict]] = {}

    def add(lid, entry):
        actions.setdefault(lid, []).append(entry)

    for gi, g in enumerate(plan.groups):
        for fid, w in zip(g.flow_ids, g.working):
            for lid in w.links:
                add(lid, {"flow": fid, "mechanism": "decode", "group": gi})
    for pi, pair in enumerate(plan.pairs):
        mech = "switch-dedicated" if plan.scheme == SCHEME_DC else "switch-shared"
        for lid in pair.working.links:
            add(lid, {"flow": pair.flow_id, "mechanism": mech, "pair": pi})
    if plan.scheme == SCHEME_PC:
        for fid, w in enumerate(plan.working_paths):
            if w is None:
                continue
            for lid in w.links:
                cys = [ci for ci, sel in enumerate(plan.cycles) if detour_arcs(topo, sel, lid)]
                add(lid, {"flow": fid, "mechanism": "cycle-detour", "cycles": cys})
    for lid in actions:
        actions[lid].sort(key=lambda e: e["flow"])
    return actions


def reference_recovery_section(plan: ProtectionPlan, topo: Topology) -> str:
    """The ``recovery:`` section ``serialize_plan`` ends with, formatted
    from ``reference_recovery_actions``."""
    actions = reference_recovery_actions(plan, topo)
    out = ["recovery:"]
    for lid in range(topo.m):
        rows = actions.get(lid, [])
        if not rows:
            out.append(f"  - {{link: {lid}, actions: []}}")
            continue
        out.append(f"  - link: {lid}")
        out.append("    actions:")
        for e in rows:
            parts = [f"flow: {e['flow']}", f"mechanism: {e['mechanism']}"]
            if "group" in e:
                parts.append(f"group: {e['group']}")
            if "pair" in e:
                parts.append(f"pair: {e['pair']}")
            if "cycles" in e:
                parts.append(f"cycles: [{', '.join(str(c) for c in e['cycles'])}]")
            out.append(f"      - {{{', '.join(parts)}}}")
    return "\n".join(out) + "\n"
