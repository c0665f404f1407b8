import numpy as np
import pytest

from divprotect.cli import fixture_names
from divprotect.pcycle import enumerate_cycles, pc_design
from divprotect.plan import detour_arcs, serialize_plan
from divprotect.topology import Flow, Topology
from helpers import (
    all_links_coverage,
    apriori_efficiency,
    brute_cycles,
    dense_pc_reference,
    load_fixture,
    random_scenario,
)

KM = 1_000_000


def km(edges):
    return Topology.from_edge_list(edges, unit="km")


def test_triangle_has_one_cycle():
    topo = km([(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    cycles = enumerate_cycles(topo)
    assert len(cycles) == 1
    c = cycles[0]
    assert c.nodes == (0, 1, 2)
    assert c.hops == 3
    assert c.length_mm == 6 * KM


def test_k4_has_seven_cycles():
    topo = km([(a, b, 1) for a in range(4) for b in range(a + 1, 4)])
    cycles = enumerate_cycles(topo)
    assert len(cycles) == 7  # four triangles and three 4-rings
    assert sorted(c.hops for c in cycles) == [3, 3, 3, 3, 4, 4, 4]


def test_tree_has_no_cycles():
    topo = km([(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    assert enumerate_cycles(topo) == []


def test_example2_cycles_golden():
    topo = load_fixture("example2").topology
    cycles = enumerate_cycles(topo)
    assert [(c.nodes, c.length_mm // KM) for c in cycles] == [
        ((0, 1, 2), 5),
        ((1, 2, 3), 8),
        ((0, 1, 3, 2), 9),
        ((0, 1, 3, 4), 10),
        ((0, 2, 3, 4), 11),
        ((0, 1, 2, 3, 4), 12),
        ((0, 2, 1, 3, 4), 13),
    ]


def test_canonical_ring_is_rotation_and_reflection_free():
    topo = km([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    (c,) = enumerate_cycles(topo)
    assert c.nodes[0] == 0
    assert c.nodes[1] < c.nodes[-1]
    # ring links align with consecutive node pairs
    for i in range(c.hops):
        l = topo.links[c.links[i]]
        assert {c.nodes[i], c.nodes[(i + 1) % c.hops]} == {l.a, l.b}


def test_max_hops_bound():
    topo = km([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
    assert len(enumerate_cycles(topo)) == 3
    assert len(enumerate_cycles(topo, max_hops=3)) == 2  # 4-ring dropped


def test_enumeration_matches_bruteforce_on_fixtures():
    for name in ["example2", "fig1-star", "synthetic-reconstruction"]:
        topo = load_fixture(name).topology
        want = brute_cycles(topo)
        got = enumerate_cycles(topo, max_hops=topo.n)
        assert {c.nodes for c in got} == set(want)
        for c in got:
            assert c.length_mm == want[c.nodes]


@pytest.mark.parametrize("seed", range(15))
def test_enumeration_matches_bruteforce_within_hop_bound(seed):
    topo, _ = random_scenario(seed, max_nodes=8)
    want = brute_cycles(topo)
    for h in (3, 4, topo.n):
        got = enumerate_cycles(topo, max_hops=h)
        assert [(c.nodes, c.length_mm) for c in got] == sorted(
            ((ring, mm) for ring, mm in want.items() if len(ring) <= h),
            key=lambda r: (r[1], r[0]),
        )
        for c in got:
            assert c.links == tuple(
                topo.link_between(a, b).id
                for a, b in zip(c.nodes, c.nodes[1:] + c.nodes[:1])
            )


@pytest.mark.parametrize("name", fixture_names())
def test_coverage_matches_all_links_scan(name):
    # one detour for an on-cycle link, two for a straddler, none otherwise;
    # together the detours of a failed link run the rest of the ring
    topo = load_fixture(name).topology
    for c in enumerate_cycles(topo):
        on, straddle = all_links_coverage(topo, c)
        for lid in range(topo.m):
            arcs = detour_arcs(topo, c, lid)
            want = 1 if lid in on else 2 if lid in straddle else 0
            assert len(arcs) == want
            if arcs:
                cut = lid in on
                assert sum(mm for mm, _ in arcs) == c.length_mm - cut * topo.link_mm[lid]
                assert sum(hops for _, hops in arcs) == c.hops - cut


def test_apriori_efficiency_counts_straddlers_twice():
    # square with a diagonal: the 4-ring covers the diagonal twice
    topo = km([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
    ring = [c for c in enumerate_cycles(topo) if c.hops == 4][0]
    need = np.zeros(topo.m, dtype=np.int64)
    diag = topo.link_between(0, 2).id
    need[diag] = 2
    assert apriori_efficiency(topo, ring, need) == 2 / ring.length_mm
    need[:] = 1
    assert apriori_efficiency(topo, ring, need) == 5 / ring.length_mm
    need[:] = 0
    assert apriori_efficiency(topo, ring, need) == 0.0


def test_pc_design_example2_golden():
    sc = load_fixture("example2")
    plan = pc_design(sc.topology, sc.demands)
    assert [(s.nodes, s.copies) for s in plan.cycles] == [
        ((0, 1, 3, 2), 1),
        ((0, 1, 2, 3, 4), 1),
    ]
    assert not plan.partial
    # every loaded link is covered
    on = np.zeros(sc.topology.m, dtype=np.int64)
    for sel in plan.cycles:
        for lid in sel.links:
            on[lid] += sel.copies
        ring = set(sel.nodes)
        for l in sc.topology.links:
            if l.id not in sel.links and l.a in ring and l.b in ring:
                on[l.id] += 2 * sel.copies
    assert np.all(on >= plan.working_cap)


def test_pc_design_bridge_is_partial():
    topo = km([(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
    plan = pc_design(topo, [Flow(0, 3, 1), Flow(0, 1, 1)])
    assert plan.partial
    assert plan.unprotected == (0,)  # the flow crossing the bridge
    assert len(plan.cycles) == 1  # the triangle still protects flow 1


def test_pc_design_on_a_tree_protects_nothing():
    topo = km([(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    flows = [Flow(0, 2, 1), Flow(3, 0, 2)]
    plan = pc_design(topo, flows)
    assert plan.cycles == ()
    assert plan.unprotected == (0, 1)
    assert plan.partial
    assert not any(plan.spare_cap)


@pytest.mark.parametrize("name", fixture_names())
def test_pc_design_matches_dense_reference_on_fixtures(name):
    sc = load_fixture(name)
    want = serialize_plan(dense_pc_reference(sc.topology, sc.demands), sc.topology)
    assert serialize_plan(pc_design(sc.topology, sc.demands), sc.topology) == want


@pytest.mark.parametrize("seed", range(30))
def test_pc_design_matches_dense_reference_on_random_instances(seed):
    topo, flows = random_scenario(seed)
    want = serialize_plan(dense_pc_reference(topo, flows), topo)
    assert serialize_plan(pc_design(topo, flows), topo) == want
