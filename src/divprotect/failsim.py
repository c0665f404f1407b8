"""Single-link failure sweep and the bit-level parity recovery oracle.

The sweep exercises every link failure in link-id order against a plan
and aggregates worst-case restoration times, so its output is
byte-stable for identical inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

from .coding import verify_decodable
from .metrics import (
    FailureGeometry,
    RtParams,
    SchemeResult,
    qor,
    rt_dc,
    rt_pc,
    rt_sr,
    scp,
)
from .plan import (
    SCHEME_DC,
    SCHEME_PC,
    SCHEME_SR,
    ProtectionPlan,
    detour_arcs,
    link_load,
    shortest_working_capacity_mm,
)
from .topology import Topology

_RT_FN = {SCHEME_DC: rt_dc, SCHEME_SR: rt_sr, SCHEME_PC: rt_pc}


@dataclass(frozen=True)
class FailureReport:
    """Outcome of one link failure: who was hit and how they recover."""

    link: int
    affected: tuple[int, ...]
    recovered: tuple[bool, ...]
    geometries: tuple[FailureGeometry | None, ...]
    capacity_feasible: bool


def _delay(length_mm: int, p: RtParams) -> float:
    return length_mm * 1e-6 / p.prop_speed_km_s


def _notify_delay(topo: Topology, lid: int, p: RtParams) -> float:
    # worst case: break at mid-span, detected at the nearer end
    return _delay(topo.link_mm[lid] // 2, p)


def _sweep_dc(topo, plan, lid, affected, p):
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
            tail = g.parity.tail_mm(plan.flows[fid].src)
            skew = max(0, tail - w.length_mm)
        else:
            pair = pair_of[fid]
            skew = max(0, pair.backup.length_mm - w.length_mm)
        geoms.append(FailureGeometry(parity_skew_s=_delay(skew, p)))
    return recovered, geoms, True


def _sweep_sr(topo, plan, lid, affected, p):
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
                prot_delay_s=_delay(b.length_mm, p),
                upstream_delay_s=_delay(prefix_mm, p),
                notify_delay_s=_notify_delay(topo, lid, p),
            )
        )
        recovered.append(True)
        rerouted.append((b.links, plan.flows[fid].rate))
    load = link_load(topo.m, rerouted)
    cap_ok = all(x <= cap for x, cap in zip(load, plan.spare_cap))
    return recovered, geoms, cap_ok


def _sweep_pc(topo, plan, lid, affected, p):
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
                prot_delay_s=_delay(worst[0], p),
                notify_delay_s=_notify_delay(topo, lid, p),
            )
        )
    return recovered, geoms, cap_ok


def sweep(
    topo: Topology,
    plan: ProtectionPlan,
    rt_params: RtParams | None = None,
    switch_values_s=(0.5e-3, 1e-3, 5e-3, 10e-3),
) -> tuple[list[FailureReport], SchemeResult]:
    """Fail every link once; report per-failure outcomes and the
    scheme's worst-case restoration times and quality scores."""
    p = rt_params or RtParams()
    handler = {
        SCHEME_DC: _sweep_dc,
        SCHEME_SR: _sweep_sr,
        SCHEME_PC: _sweep_pc,
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
    rt_fn = _RT_FN[plan.scheme]
    rt_map: dict[float, float] = {}
    qor_map: dict[float, float] = {}
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
