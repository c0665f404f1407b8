"""Protection plan model shared by all three schemes, plus serialization.

A plan pins, for every operative flow, its working path and whatever
recovery structure protects it: a parity group, a dedicated or shared
backup path, or a set of protection cycles. Capacity is accounted per
link as integral working and spare unit counts.
"""
from __future__ import annotations

from typing import NamedTuple

from .topology import Flow, Path, Topology

SCHEME_DC = "dc"
SCHEME_SR = "sr"
SCHEME_PC = "pc"

SCHEME_LABELS = {
    SCHEME_DC: "diversity coding",
    SCHEME_SR: "source rerouting",
    SCHEME_PC: "p-cycles",
}


class CodingGroup(NamedTuple):
    """Flows whose working paths are protected by one XOR parity trail.

    All flows terminate at ``decode_node``; the parity trail, a Path that
    may revisit nodes, taps every distinct source and is link-disjoint
    from the working paths.
    """

    flow_ids: tuple[int, ...]
    working: tuple[Path, ...]
    parity: Path
    decode_node: int

    @property
    def size(self) -> int:
        return len(self.flow_ids)


class BackupPair(NamedTuple):
    """Dedicated (1+1) or shared backup path for a single flow."""

    flow_id: int
    working: Path
    backup: Path


class CycleSelection(NamedTuple):
    """A protection cycle and how many unit copies of it were bought."""

    nodes: tuple[int, ...]
    links: tuple[int, ...]
    length_mm: int
    copies: int


class ProtectionPlan(NamedTuple):
    """One scheme's routes, recovery structures and link capacities.

    ``working_cap`` and ``spare_cap`` hold, per link in link-id order,
    the working and spare units the plan reserves, as exact ints.
    """

    scheme: str
    flows: tuple[Flow, ...]
    demand_idx: tuple[int, ...]
    working_paths: tuple[Path, ...]
    working_cap: tuple[int, ...]
    spare_cap: tuple[int, ...]
    groups: tuple[CodingGroup, ...] = ()
    pairs: tuple[BackupPair, ...] = ()
    cycles: tuple[CycleSelection, ...] = ()
    unprotected: tuple[int, ...] = ()

    @property
    def partial(self) -> bool:
        return len(self.unprotected) > 0

    def working_capacity_mm(self, topo: Topology) -> int:
        return sum(c * mm for c, mm in zip(self.working_cap, topo.link_mm))

    def spare_capacity_mm(self, topo: Topology) -> int:
        return sum(c * mm for c, mm in zip(self.spare_cap, topo.link_mm))

    def total_capacity_mm(self, topo: Topology) -> int:
        return self.working_capacity_mm(topo) + self.spare_capacity_mm(topo)


def link_load(m: int, loads) -> tuple[int, ...]:
    """Per-link sums of ``(link ids, amount)`` loads over m links."""
    sums = sparse_link_load(loads)
    return tuple(sums.get(lid, 0) for lid in range(m))


def sparse_link_load(loads) -> dict[int, int]:
    """``link_load`` on only the links the loads cross: {link id: sum}.

    A single failure reroutes a few flows, so their backup load is
    summed over those flows' backup links, not over every link.
    """
    out: dict[int, int] = {}
    for links, amount in loads:
        for lid in links:
            out[lid] = out.get(lid, 0) + amount
    return out


def link_users(paths, m: int) -> list[list[int]]:
    """Per link id, the indices of the non-None paths crossing it, in
    ascending order."""
    users = [[] for _ in range(m)]
    for i, p in enumerate(paths):
        if p is not None:
            for lid in p.links:
                users[lid].append(i)
    return users


def split_unit_flows(demand) -> tuple[tuple[Flow, ...], tuple[int, ...]]:
    """Expand demand rows into unit-rate subflows, preserving order."""
    flows = []
    idx = []
    for i, f in enumerate(demand):
        for _ in range(f.rate):
            flows.append(Flow(f.src, f.dst, 1))
            idx.append(i)
    return tuple(flows), tuple(idx)


def shortest_working_capacity_mm(topo: Topology, demand) -> int:
    """Capacity-distance of routing every demand on its shortest path.

    This is the no-protection floor that spare-capacity percentages are
    measured against. Each destination's tree is grown until its
    demands' sources are settled.
    """
    sources: dict[int, list[int]] = {}
    for f in demand:
        sources.setdefault(f.dst, []).append(f.src)
    trees = {dst: topo.distances(dst, None, srcs) for dst, srcs in sources.items()}
    return sum(f.rate * trees[f.dst][f.src] for f in demand)


def detour_arcs(topo: Topology, cycle, lid: int) -> list[tuple[int, int]]:
    """Detours one copy of a protection cycle offers failed link lid.

    ``cycle`` is a ``CycleSelection``, or anything with its ``nodes``,
    ``links`` and ``length_mm`` in canonical ring form. Each detour
    is ``(length_mm, hops)``: an on-cycle link gets the long way round, a
    straddling link (both endpoints on the cycle, link not on it) gets
    both ring arcs between its endpoints, and any other link gets none
    (Grover & Stamatelakis, 1998).
    """
    if lid in cycle.links:
        return [(cycle.length_mm - topo.link_mm[lid], len(cycle.links) - 1)]
    ring = cycle.nodes
    link = topo.links[lid]
    if link.a not in ring or link.b not in ring:
        return []
    lo, hi = sorted((ring.index(link.a), ring.index(link.b)))
    arc_mm = sum(topo.link_mm[k] for k in cycle.links[lo:hi])
    return [(arc_mm, hi - lo), (cycle.length_mm - arc_mm, len(ring) - hi + lo)]


def cycle_users(topo: Topology, cycles) -> list[list[tuple[int, list[tuple[int, int]]]]]:
    """Per link id, ``(cycle index, detour_arcs(...))`` for each cycle
    that offers the link a detour, in cycle order.

    Only the links with both ends on a cycle, its own and its
    straddlers, get detours, so each cycle visits just those.
    """
    users = [[] for _ in range(topo.m)]
    for ci, cycle in enumerate(cycles):
        ring = set(cycle.nodes)
        for lid in {lid for v in ring for w, lid, _ in topo.adj_rows[v] if w in ring}:
            users[lid].append((ci, detour_arcs(topo, cycle, lid)))
    return users


def _path_doc(p) -> str:
    nodes = ", ".join(str(v) for v in p.nodes)
    links = ", ".join(str(l) for l in p.links)
    return f"{{nodes: [{nodes}], links: [{links}]}}"


def serialize_plan(plan: ProtectionPlan, topo: Topology) -> str:
    """Canonical byte-stable plan document (YAML subset)."""
    out = []
    out.append(f"scheme: {plan.scheme}")
    out.append(f"partial: {'true' if plan.partial else 'false'}")
    out.append("flows:")
    for f, di in zip(plan.flows, plan.demand_idx):
        out.append(f"  - {{src: {f.src}, dst: {f.dst}, rate: {f.rate}, demand: {di}}}")
    out.append("working_paths:")
    for fid, p in enumerate(plan.working_paths):
        if p is None:
            out.append(f"  - {{flow: {fid}, unrouted: true}}")
        else:
            out.append(f"  - {{flow: {fid}, path: {_path_doc(p)}}}")
    if plan.groups:
        out.append("groups:")
        for g in plan.groups:
            out.append(f"  - decode_node: {g.decode_node}")
            out.append(f"    flows: [{', '.join(str(i) for i in g.flow_ids)}]")
            out.append("    working:")
            for p in g.working:
                out.append(f"      - {_path_doc(p)}")
            out.append(f"    parity: {_path_doc(g.parity)}")
    if plan.pairs:
        key = "aps_pairs" if plan.scheme == SCHEME_DC else "backups"
        out.append(f"{key}:")
        for pair in plan.pairs:
            out.append(f"  - flow: {pair.flow_id}")
            out.append(f"    working: {_path_doc(pair.working)}")
            out.append(f"    backup: {_path_doc(pair.backup)}")
    if plan.cycles:
        out.append("cycles:")
        for sel in plan.cycles:
            out.append(f"  - {{nodes: [{', '.join(str(v) for v in sel.nodes)}], "
                       f"links: [{', '.join(str(l) for l in sel.links)}], copies: {sel.copies}}}")
    if plan.unprotected:
        out.append(f"unprotected: [{', '.join(str(i) for i in plan.unprotected)}]")
    out.append(f"working_cap: [{', '.join(str(x) for x in plan.working_cap)}]")
    out.append(f"spare_cap: [{', '.join(str(x) for x in plan.spare_cap)}]")
    # what the failure sweep executes, to audit recovery without running
    # it: a dc or sr flow recovers alike whichever of its links fails, a
    # pc flow over every cycle that offers the failed link a detour
    mech = "switch-dedicated" if plan.scheme == SCHEME_DC else "switch-shared"
    how = {}
    for gi, g in enumerate(plan.groups):
        for fid in g.flow_ids:
            how[fid] = f"mechanism: decode, group: {gi}"
    for pi, pair in enumerate(plan.pairs):
        how[pair.flow_id] = f"mechanism: {mech}, pair: {pi}"
    if plan.scheme == SCHEME_PC:
        detour = [
            f"mechanism: cycle-detour, cycles: [{', '.join(str(ci) for ci, _ in row)}]"
            for row in cycle_users(topo, plan.cycles)
        ]
    out.append("recovery:")
    for lid, fids in enumerate(link_users(plan.working_paths, topo.m)):
        if plan.scheme == SCHEME_PC:
            acts = [f"flow: {fid}, {detour[lid]}" for fid in fids]
        else:
            acts = [f"flow: {fid}, {how[fid]}" for fid in fids if fid in how]
        if not acts:
            out.append(f"  - {{link: {lid}, actions: []}}")
            continue
        out.append(f"  - link: {lid}")
        out.append("    actions:")
        out.extend(f"      - {{{act}}}" for act in acts)
    return "\n".join(out) + "\n"
