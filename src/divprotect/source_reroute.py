"""Shared-backup source rerouting baseline.

Every flow keeps its shortest working path and pre-plans one disjoint
backup; spare capacity on a link is the worst simultaneous backup load
over all single-failure scenarios, so backups of flows that never fail
together share spare units. Each failure adds up only the backup links
of the flows it hits. No stub release: the failed working path's
capacity is not reused during recovery.
"""
from __future__ import annotations

from . import routing
from .plan import (
    SCHEME_SR,
    BackupPair,
    ProtectionPlan,
    link_load,
    link_users,
    sparse_link_load,
)
from .topology import Topology


def sr_design(topo: Topology, demand) -> ProtectionPlan:
    flows = tuple(demand)
    demand_idx = tuple(range(len(flows)))
    working_paths = []
    pairs = []
    unprotected = []
    for i, f in enumerate(flows):
        w, b = routing.protected_pair(topo, f.src, f.dst)
        working_paths.append(w)
        if b is None:
            unprotected.append(i)
        else:
            pairs.append(BackupPair(flow_id=i, working=w, backup=b))

    working_cap = link_load(topo.m, ((w.links, f.rate) for f, w in zip(flows, working_paths)))

    # spare[l] = max over single failures of the backup rate crossing l
    backups = [(p.backup.links, flows[p.flow_id].rate) for p in pairs]
    spare = [0] * topo.m
    for hit in link_users([p.working for p in pairs], topo.m):
        for lid, load in sparse_link_load(backups[i] for i in hit).items():
            if load > spare[lid]:
                spare[lid] = load

    return ProtectionPlan(
        scheme=SCHEME_SR,
        flows=flows,
        demand_idx=demand_idx,
        working_paths=tuple(working_paths),
        working_cap=working_cap,
        spare_cap=tuple(spare),
        pairs=tuple(pairs),
        unprotected=tuple(unprotected),
    )
