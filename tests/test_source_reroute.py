from divprotect.source_reroute import sr_design
from divprotect.topology import Flow, Topology
from helpers import load_fixture

KM = 1_000_000


def test_example2_pairs_and_shared_spare():
    sc = load_fixture("example2")
    topo = sc.topology
    plan = sr_design(topo, sc.demands)
    assert plan.scheme == "sr"
    assert not plan.partial
    for pair in plan.pairs:
        assert not set(pair.working.links) & set(pair.backup.links)
    # flows 0,1 break together (same working), so their backups stack;
    # flow 3's backup shares link 1-3 with nothing that fails with it
    assert list(plan.spare_cap) == [0, 1, 2, 3, 0, 0, 1]
    assert plan.spare_capacity_mm(topo) == 18 * KM
    assert plan.working_capacity_mm(topo) == 14 * KM


def test_sharing_beats_dedicated_sum():
    sc = load_fixture("example2")
    topo = sc.topology
    plan = sr_design(topo, sc.demands)
    dedicated = [0] * topo.m
    for pair in plan.pairs:
        for lid in pair.backup.links:
            dedicated[lid] += plan.flows[pair.flow_id].rate
    assert all(s <= d for s, d in zip(plan.spare_cap, dedicated))
    assert sum(plan.spare_cap) < sum(dedicated)


def test_rate_carried_through():
    topo = load_fixture("fig1-star").topology
    plan = sr_design(topo, [Flow(0, 5, 3)])
    assert max(plan.working_cap) == 3
    assert max(plan.spare_cap) == 3


def test_trap_pair_fallback():
    # working shortest path leaves no disjoint backup; jointly routed
    # pair must be used instead (working reported may differ from the
    # plain shortest path)
    topo = Topology.from_edge_list(
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 10), (0, 2, 10)], unit="km"
    )
    plan = sr_design(topo, [Flow(0, 3, 1)])
    assert not plan.partial
    (pair,) = plan.pairs
    assert {pair.working.nodes, pair.backup.nodes} == {(0, 1, 3), (0, 2, 3)}


def test_unprotectable_flow_partial():
    topo = Topology.from_edge_list(
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)], unit="km"
    )
    plan = sr_design(topo, [Flow(0, 3, 1), Flow(1, 2, 1)])
    assert plan.partial
    assert plan.unprotected == (0,)
    assert len(plan.pairs) == 1
