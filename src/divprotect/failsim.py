"""Single-link failure sweep and the bit-level parity recovery oracle.

The sweep exercises every link failure in link-id order against a plan
and aggregates worst-case restoration times, so its output is
byte-stable for identical inputs. A failure costs what it hits: the sr
capacity check reads only the rerouted flows' backup links, the dc pass
asks the decode rule only of the groups that hold a hit flow, and the
worst-case restoration times are the scheme's batch formula
(``metrics.worst_rt_*``) over the distinct geometries, which sums each
geometry's switch-free terms once for all the switch times.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from .coding import _decodes
from .metrics import (
    PROP_SPEED_KM_S,
    SWITCH_VALUES_S,
    FailureGeometry,
    RtParams,
    SchemeResult,
    qor,
    scp,
    worst_rt_dc,
    worst_rt_pc,
    worst_rt_sr,
)
from .plan import (
    SCHEME_DC,
    SCHEME_PC,
    SCHEME_SR,
    ProtectionPlan,
    cycle_users,
    link_users,
    shortest_working_capacity_mm,
    sparse_link_load,
)
from .topology import KM_PER_MM, Topology


class FailureReport(NamedTuple):
    """Outcome of one link failure: who was hit and how they recover."""

    link: int
    affected: tuple[int, ...]
    recovered: tuple[bool, ...]
    geometries: tuple[FailureGeometry | None, ...]
    capacity_feasible: bool


def _delay(length_mm: int) -> float:
    return length_mm * KM_PER_MM / PROP_SPEED_KM_S


def _notify_delay(topo: Topology, lid: int) -> float:
    # worst case: break at mid-span, detected at the nearer end
    return _delay(topo.link_mm[lid] // 2)


def _sweep_dc(topo, plan, users):
    # a flow's parity skew, group and 1+1 backup do not depend on the
    # failed link
    late_mm = {}
    backup_of = {}
    for pair in plan.pairs:
        late_mm[pair.flow_id] = pair.backup.length_mm
        backup_of[pair.flow_id] = frozenset(pair.backup.links)
    group_of = {}
    for gi, g in enumerate(plan.groups):
        for fid in g.flow_ids:
            # the trail taps a source at its first visit and runs on from there
            tap = g.parity.nodes.index(plan.flows[fid].src)
            late_mm[fid] = g.parity.length_mm - sum(topo.link_mm[l] for l in g.parity.links[:tap])
            group_of[fid] = gi
    geom = {}
    for fid, mm in late_mm.items():
        skew = max(0, mm - plan.working_paths[fid].length_mm)
        geom[fid] = FailureGeometry(parity_skew_s=_delay(skew))
    lost = set(plan.unprotected)
    for fid, w in enumerate(plan.working_paths):
        if w is not None and fid not in geom and fid not in lost:
            raise ValueError(
                f"dc plan's flow {fid} is routed but in no group, pair or unprotected list"
            )
    for lid, affected in enumerate(users):
        # verify_decodable's rule on the hit flows alone: an unprotected
        # flow is lost, a 1+1 pair survives off its backup, and a group
        # takes one rank test however many of its flows the link hits
        decodes = {}
        geoms = []
        for fid in affected:
            if fid in lost:
                ok = False
            elif fid in backup_of:
                ok = lid not in backup_of[fid]
            else:
                gi = group_of[fid]
                if gi not in decodes:
                    decodes[gi] = _decodes(plan.groups[gi], lid)
                ok = decodes[gi]
            geoms.append(geom[fid] if ok else None)
        yield geoms, True


def _sweep_sr(topo, plan, users):
    # per flow, once: where each working link sits and the delay up to
    # it, and the backup's links, delay and load
    reroute = {}
    for pair in plan.pairs:
        w, b = pair.working, pair.backup
        prefix_mm = accumulate((topo.link_mm[l] for l in w.links), initial=0)
        reroute[pair.flow_id] = (
            {lid: i for i, lid in enumerate(w.links)},
            [_delay(mm) for mm in prefix_mm],
            frozenset(b.links),
            b.hops,
            _delay(b.length_mm),
            (b.links, plan.flows[pair.flow_id].rate),
        )
    # a link no backup crosses passes exactly when its spare is not negative
    spare = plan.spare_cap
    spare_ok = all(cap >= 0 for cap in spare)
    for lid, affected in enumerate(users):
        notify_s = _notify_delay(topo, lid)
        geoms = []
        rerouted = []
        for fid in affected:
            r = reroute.get(fid)
            if r is None or lid in r[2]:  # no backup, or it crosses the failed link
                geoms.append(None)
                continue
            pos, prefix_s, _, hops, prot_s, load = r
            i = pos[lid]
            # fields by position, the cheaper call: backup_hops,
            # upstream_hops, prot, upstream and notify delays
            geoms.append(FailureGeometry(hops, i, prot_s, prefix_s[i], notify_s))
            rerouted.append(load)
        yield geoms, spare_ok and all(
            x <= spare[l] for l, x in sparse_link_load(rerouted).items()
        )


def _sweep_pc(topo, plan, users):
    by_link = cycle_users(topo, plan.cycles)
    for lid, affected in enumerate(users):
        notify_s = _notify_delay(topo, lid)
        # one detour per unit of rate, shortest first, over every bought
        # copy: the copies of one distinct arc fill a run of positions
        copies = {}
        for ci, detours in by_link[lid]:
            k = plan.cycles[ci].copies
            for arc in detours:
                copies[arc] = copies.get(arc, 0) + k
        arcs = sorted(copies)
        ends = list(accumulate((copies[arc] for arc in arcs), initial=0))
        geoms = []
        nxt = 0
        for fid in affected:
            rate = plan.flows[fid].rate
            if nxt + rate > ends[-1]:
                geoms.append(None)
                continue
            worst = arcs[bisect_right(ends, nxt + rate - 1) - 1]
            nxt += rate
            geoms.append(FailureGeometry(0, worst[1], _delay(worst[0]), 0.0, notify_s))
        # a flow left without a detour means the bought copies ran out
        yield geoms, None not in geoms


# per scheme: its outcomes pass and its batch restoration-time formula.
# A pass does its failure-independent work once per plan, then yields,
# per link in id order, each affected flow's geometry (None when it is
# not recovered) and whether the spare capacity sufficed.
_SCHEMES = {
    SCHEME_DC: (_sweep_dc, worst_rt_dc),
    SCHEME_SR: (_sweep_sr, worst_rt_sr),
    SCHEME_PC: (_sweep_pc, worst_rt_pc),
}


def sweep(
    topo: Topology,
    plan: ProtectionPlan,
    rt_params: RtParams | None = None,
    switch_values_s=SWITCH_VALUES_S,
) -> tuple[list[FailureReport], SchemeResult]:
    """Fail every link once; report per-failure outcomes and the
    scheme's worst-case restoration times and quality scores.

    A plan whose capacity tuples do not hold one entry per link is a
    ValueError, as is a dc plan with a routed flow in no group, 1+1 pair
    or unprotected list.
    """
    for name, cap in (("working_cap", plan.working_cap), ("spare_cap", plan.spare_cap)):
        if len(cap) != topo.m:
            raise ValueError(
                f"{plan.scheme} plan's {name} has {len(cap)} entries;"
                f" the topology has {topo.m} links"
            )
    p = rt_params or RtParams()
    outcomes, worst_rt = _SCHEMES[plan.scheme]
    users = link_users(plan.working_paths, topo.m)
    reports = [
        FailureReport(
            link=lid,
            affected=tuple(users[lid]),
            recovered=tuple(g is not None for g in geoms),
            geometries=tuple(geoms),
            capacity_feasible=cap_ok,
        )
        for lid, (geoms, cap_ok) in enumerate(outcomes(topo, plan, users))
    ]

    swc = shortest_working_capacity_mm(topo, plan.flows)
    scp_pct = scp(plan.total_capacity_mm(topo), swc)
    # equal geometries give equal times, so each is timed once
    distinct = dict.fromkeys(g for rep in reports for g in rep.geometries if g is not None)
    rt_map = dict(zip(switch_values_s, worst_rt(distinct, p, switch_values_s)))
    qor_map = {c: qor(scp_pct, worst) for c, worst in rt_map.items()}
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


def xor_stream_check(plan: ProtectionPlan, failed_link: int, payloads) -> list:
    """Bit-level recovery oracle for parity plans.

    Simulates actual byte streams: working paths deliver their payload
    unless they cross the failed link; a parity trail delivers the XOR
    of everything it tapped. Returns the bytes each flow's destination
    ends up with (None where unrecoverable). Independent of the rank
    check by construction, so the two can cross-validate.
    """
    if plan.scheme != SCHEME_DC:
        raise ValueError("bit-level parity check applies to XOR parity plans")
    payloads = [bytes(b) for b in payloads]
    if len(payloads) != len(plan.flows):
        raise ValueError("one payload per flow required")
    if len({len(p) for p in payloads}) > 1:
        raise ValueError("payloads must share a length")
    words = [int.from_bytes(p, "big") for p in payloads]

    out: list[bytes | None] = [None] * len(plan.flows)

    def deliver(fid):
        w = plan.working_paths[fid]
        return w is not None and failed_link not in w.links

    for g in plan.groups:
        parity_ok = failed_link not in g.parity.links
        parity = 0
        for fid in g.flow_ids:
            parity ^= words[fid]
        for fid in g.flow_ids:
            if deliver(fid):
                out[fid] = payloads[fid]
            elif parity_ok:
                rebuilt = parity
                usable = True
                for other in g.flow_ids:
                    if other == fid:
                        continue
                    if deliver(other):
                        rebuilt ^= words[other]
                    else:
                        usable = False
                        break
                if usable:
                    out[fid] = rebuilt.to_bytes(len(payloads[fid]), "big")
    for pair in plan.pairs:
        fid = pair.flow_id
        if deliver(fid):
            out[fid] = payloads[fid]
        elif failed_link not in pair.backup.links:
            out[fid] = payloads[fid]
    for fid in plan.unprotected:
        if deliver(fid):
            out[fid] = payloads[fid]
    return out
