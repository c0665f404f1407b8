"""Shared test utilities: fixture loading, randomized instances,
path and group helpers only the tests use, brute-force oracles kept
deliberately independent of the library's algorithms (different
enumeration strategies, no shared code paths), reference copies of the
p-cycle planner's, the parity-trail search's, the failure sweep's, sr
spare sizing's and the recovery actions' earlier implementations, and
the scenario parser with and without its row reader."""
import importlib.util
from contextlib import contextmanager
from itertools import combinations, permutations
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
from yaml.composer import Composer

from divprotect import routing, topology, yamldoc
from divprotect.cli import fixture_path
from divprotect.coding import group_capacity_mm, verify_decodable
from divprotect.failsim import FailureReport
from divprotect.metrics import FailureGeometry, RtParams, SchemeResult, qor, rt_dc, rt_pc, rt_sr, scp
from divprotect.pcycle import cycle_ring
from divprotect.plan import (
    SCHEME_DC,
    SCHEME_PC,
    SCHEME_SR,
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
    """Yield a list that gains an item per text ``yamldoc.parse`` reads,
    that is per text the row reader declines."""
    calls = []
    parse = yamldoc.parse

    def counted(text):
        calls.append(None)
        return parse(text)

    with mock.patch.object(yamldoc, "parse", counted):
        yield calls


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
        for w, lid in topo.neighbors(v):
            if lid in excluded or w in nodes:
                continue
            stack.append((w, nodes + (w,), links + (lid,),
                          dist + topo.link_mm[lid]))
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
    """pcycle.Cycle masks mapped through ``cycle_ring``, checking on the
    way that each ring's links are exactly its mask's set bits."""
    out = []
    for c in cycles:
        ring = Ring(c.length_mm, *cycle_ring(topo, c.mask))
        assert sum(1 << lid for lid in set(ring.links)) == c.mask
        assert len(ring.links) == len(ring.nodes) == c.hops
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
        for w, _ in topo.neighbors(v):
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


def dense_pc_reference(
    topo: Topology, demand, max_hops: int | None = None
) -> ProtectionPlan:
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

    cycles = _ref_enumerate_cycles(topo, max_hops)
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


# The failure sweep, sr spare sizing and recovery actions as they were
# before they shared one link -> flows index: every failure rescans every
# path, and each (flow, link) pair recomputes its p-cycle list.

def _ref_delay(length_mm: int, p: RtParams) -> float:
    return length_mm * 1e-6 / p.prop_speed_km_s


def _ref_notify_delay(topo: Topology, lid: int, p: RtParams) -> float:
    # worst case: break at mid-span, detected at the nearer end
    return _ref_delay(topo.link_mm[lid] // 2, p)


def _ref_tail_mm(topo, trail, node):
    """Distance from the first visit of node to the end of the trail."""
    walked = 0
    for v, mm in zip(trail.nodes, [topo.link_mm[lid] for lid in trail.links] + [0]):
        if v == node:
            return trail.length_mm - walked
        walked += mm
    raise ValueError(f"node {node} not on trail")


def _ref_sweep_dc(topo, plan, lid, affected, p):
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
        geoms.append(FailureGeometry(parity_skew_s=_ref_delay(skew, p)))
    return recovered, geoms, True


def _ref_sweep_sr(topo, plan, lid, affected, p):
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
                prot_delay_s=_ref_delay(b.length_mm, p),
                upstream_delay_s=_ref_delay(prefix_mm, p),
                notify_delay_s=_ref_notify_delay(topo, lid, p),
            )
        )
        recovered.append(True)
        rerouted.append((b.links, plan.flows[fid].rate))
    load = link_load(topo.m, rerouted)
    cap_ok = all(x <= cap for x, cap in zip(load, plan.spare_cap))
    return recovered, geoms, cap_ok


def _ref_sweep_pc(topo, plan, lid, affected, p):
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
                prot_delay_s=_ref_delay(worst[0], p),
                notify_delay_s=_ref_notify_delay(topo, lid, p),
            )
        )
    return recovered, geoms, cap_ok


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
        recovered, geoms, cap_ok = handler(topo, plan, lid, affected, p)
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
    rt_fn = {SCHEME_DC: rt_dc, SCHEME_SR: rt_sr, SCHEME_PC: rt_pc}[plan.scheme]
    rt_map = {}
    qor_map = {}
    for c in switch_values_s:
        pc = p.with_switch(c)
        worst = 0.0
        for rep in reports:
            for g in rep.geometries:
                if g is not None:
                    worst = max(worst, rt_fn(g, pc))
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
