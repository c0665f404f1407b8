"""Shared-backup source rerouting baseline.

Every flow keeps its shortest working path and pre-plans one disjoint
backup; spare capacity on a link is the worst simultaneous backup load
over all single-failure scenarios, so backups of flows that never fail
together share spare units. No stub release: the failed working path's
capacity is not reused during recovery.
"""
from __future__ import annotations

import numpy as np

from . import routing
from .plan import SCHEME_SR, BackupPair, ProtectionPlan
from .topology import Topology


def sr_design(topo: Topology, demand) -> ProtectionPlan:
    flows = tuple(demand)
    demand_idx = tuple(range(len(flows)))
    working_paths = []
    pairs = []
    unprotected = []
    for i, f in enumerate(flows):
        pr = routing.protected_pair(topo, f.src, f.dst)
        if pr is None:
            w = routing.shortest_path(topo, f.src, f.dst)
            if w is None:  # pragma: no cover - connected topologies
                raise ValueError(f"no route {f.src}->{f.dst}")
            working_paths.append(w)
            unprotected.append(i)
            continue
        w, b = pr
        working_paths.append(w)
        pairs.append(BackupPair(flow_id=i, working=w, backup=b))

    working_cap = np.zeros(topo.m, dtype=np.int64)
    for f, w in zip(flows, working_paths):
        for lid in w.links:
            working_cap[lid] += f.rate

    # spare[l] = max over single failures of the backup rate crossing l
    spare_cap = np.zeros(topo.m, dtype=np.int64)
    for failed in range(topo.m):
        load = np.zeros(topo.m, dtype=np.int64)
        for pair in pairs:
            if failed in pair.working.links:
                for lid in pair.backup.links:
                    load[lid] += flows[pair.flow_id].rate
        np.maximum(spare_cap, load, out=spare_cap)

    return ProtectionPlan(
        scheme=SCHEME_SR,
        flows=flows,
        demand_idx=demand_idx,
        working_paths=tuple(working_paths),
        working_cap=working_cap,
        spare_cap=spare_cap,
        pairs=tuple(pairs),
        unprotected=tuple(unprotected),
    )
