import time

import numpy as np
import pytest

from divprotect.cli import fixture_names
from divprotect import cli, pcycle
from divprotect.pcycle import cycle_ring, enumerate_cycles, pc_design
from divprotect.plan import detour_arcs, serialize_plan
from divprotect.topology import Flow, ScenarioError, Topology
from helpers import (
    all_links_coverage,
    apriori_efficiency,
    brute_cycles,
    _ref_enumerate_cycles,
    dense_pc_reference,
    load_bench_kernels,
    load_fixture,
    random_scenario,
    rings,
)

KM = 1_000_000


def km(edges):
    return Topology.from_edge_list(edges, unit="km")


def test_triangle_has_one_cycle():
    topo = km([(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    cycles = enumerate_cycles(topo)
    assert len(cycles) == 1
    (mask,) = cycles.masks
    assert cycle_ring(topo, mask) == ((0, 1, 2), (0, 1, 2))
    assert mask.bit_count() == 3
    assert cycles.lengths == [6 * KM]


def test_k4_has_seven_cycles():
    topo = km([(a, b, 1) for a in range(4) for b in range(a + 1, 4)])
    cycles = enumerate_cycles(topo)
    assert len(cycles) == 7  # four triangles and three 4-rings
    assert sorted(mask.bit_count() for mask in cycles.masks) == [3, 3, 3, 3, 4, 4, 4]


def test_tree_has_no_cycles():
    topo = km([(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    assert len(enumerate_cycles(topo)) == 0


def test_example2_cycles_golden():
    topo = load_fixture("example2").topology
    cycles = rings(topo, enumerate_cycles(topo))
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
    (c,) = rings(topo, enumerate_cycles(topo))
    assert c.nodes[0] == 0
    assert c.nodes[1] < c.nodes[-1]
    # ring links align with consecutive node pairs
    hops = len(c.links)
    for i in range(hops):
        l = topo.links[c.links[i]]
        assert {c.nodes[i], c.nodes[(i + 1) % hops]} == {l.a, l.b}


@pytest.mark.parametrize("name", fixture_names())
def test_enumeration_matches_reference_on_fixtures(name):
    topo = load_fixture(name).topology
    assert rings(topo, enumerate_cycles(topo)) == _ref_enumerate_cycles(topo)


def enumeration_cases():
    for name in fixture_names():
        yield load_fixture(name).topology
    for seed in range(5):
        yield random_scenario(seed)[0]
    yield load_bench_kernels().random_graph(np.random.default_rng(7), 16, 14)


def test_cycles_is_two_lists():
    for topo in enumeration_cases():
        cycles = enumerate_cycles(topo)
        assert isinstance(cycles, pcycle.Cycles)
        lengths, masks = cycles.lengths, cycles.masks
        assert type(lengths) is type(masks) is list
        assert len(cycles) == len(lengths) == len(masks)
        assert lengths == sorted(lengths)
        assert len(set(masks)) == len(masks)


def test_pc_design_enumerates_once_through_the_module(monkeypatch):
    # a tracer replaces pcycle.enumerate_cycles on the module and counts
    # len() of what it returns as the cycles; a pc_design that bound the
    # function by name, or returned something else, would go unseen
    seen = []
    real = pcycle.enumerate_cycles

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(len(out))
        return out

    monkeypatch.setattr(pcycle, "enumerate_cycles", counting)
    for name in fixture_names():
        sc = load_fixture(name)
        pc_design(sc.topology, sc.demands)
        assert seen == [len(_ref_enumerate_cycles(sc.topology))]
        seen.clear()
    assert cli.main(["compare", "--schemes", "pc", "--scenario", "example2"]) == 0
    assert seen == [7]


def test_max_hops_bound(monkeypatch):
    assert pcycle._MAX_HOPS == 12
    topo = km([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
    assert len(enumerate_cycles(topo)) == 3
    monkeypatch.setattr(pcycle, "_MAX_HOPS", 3)
    assert len(enumerate_cycles(topo)) == 2  # 4-ring dropped


def test_k10_stays_within_the_cycle_limit():
    # every cycle of K10: sum over k = 3..10 of C(10, k) (k - 1)! / 2
    k10 = km([(a, b, 1) for a in range(10) for b in range(a + 1, 10)])
    assert len(enumerate_cycles(k10)) == 556_014 < pcycle._MAX_CYCLES


def test_cycle_limit_refuses_the_first_cycle_past_it(monkeypatch):
    k4 = km([(a, b, 1) for a in range(4) for b in range(a + 1, 4)])
    monkeypatch.setattr(pcycle, "_MAX_CYCLES", 7)
    assert len(enumerate_cycles(k4)) == 7
    monkeypatch.setattr(pcycle, "_MAX_CYCLES", 6)
    with pytest.raises(ScenarioError, match="^the topology has more than 6 cycles of at most 4 links;"):
        enumerate_cycles(k4)


def test_cover_budget_refuses_before_the_matrix(monkeypatch):
    # example2: 7 links x 7 cycles
    sc = load_fixture("example2")
    monkeypatch.setattr(pcycle, "_MAX_COVER_CELLS", 49)
    pc_design(sc.topology, sc.demands)
    monkeypatch.setattr(pcycle, "_MAX_COVER_CELLS", 48)
    monkeypatch.setattr(pcycle, "_coverage", None)
    with pytest.raises(ScenarioError, match="^7 links x 7 cycles make 49 detour cells;"
                                            " p-cycle planning holds at most 48$"):
        pc_design(sc.topology, sc.demands)


@pytest.mark.parametrize("max_hops", [0, 1, 2])
def test_fewer_than_three_hops_close_no_cycle(monkeypatch, max_hops):
    # below three links the search has no room to step, so it needs no
    # guard: two nodes and one link bound it at min(n, _MAX_HOPS) = 2
    assert len(enumerate_cycles(km([(0, 1, 1)]))) == 0
    monkeypatch.setattr(pcycle, "_MAX_HOPS", max_hops)
    topo = km([(a, b, 1) for a in range(4) for b in range(a + 1, 4)])
    assert len(enumerate_cycles(topo)) == 0


@pytest.mark.parametrize("seed", range(15))
def test_hop_pruned_enumeration_matches_reference_at_every_bound(monkeypatch, seed):
    topo, _ = random_scenario(seed)
    for h in range(3, topo.n + 1):
        monkeypatch.setattr(pcycle, "_MAX_HOPS", h)
        assert rings(topo, enumerate_cycles(topo)) == _ref_enumerate_cycles(topo, h)


def test_hop_pruned_enumeration_matches_reference_on_bench_graph(monkeypatch):
    # the shape of bench_kernels' cycles row: 16 nodes, 30 links
    topo = load_bench_kernels().random_graph(np.random.default_rng(7), 16, 14)
    assert topo.m == 30
    for h in range(3, topo.n + 1):
        monkeypatch.setattr(pcycle, "_MAX_HOPS", h)
        assert rings(topo, enumerate_cycles(topo)) == _ref_enumerate_cycles(topo, h)


def test_enumeration_matches_bruteforce_on_fixtures(monkeypatch):
    for name in ["example2", "fig1-star", "synthetic-reconstruction"]:
        topo = load_fixture(name).topology
        want = brute_cycles(topo)
        monkeypatch.setattr(pcycle, "_MAX_HOPS", topo.n)
        got = rings(topo, enumerate_cycles(topo))
        assert {c.nodes for c in got} == set(want)
        for c in got:
            assert c.length_mm == want[c.nodes]


@pytest.mark.parametrize("seed", range(15))
def test_enumeration_matches_bruteforce_within_hop_bound(monkeypatch, seed):
    topo, _ = random_scenario(seed, max_nodes=8)
    want = brute_cycles(topo)
    for h in (3, 4, topo.n):
        monkeypatch.setattr(pcycle, "_MAX_HOPS", h)
        got = rings(topo, enumerate_cycles(topo))
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
    # together the detours of a failed link run the rest of the ring.
    # pc_design's coverage matrix holds the same counts
    topo = load_fixture(name).topology
    cycles = enumerate_cycles(topo)
    cover = pcycle._coverage(topo, cycles)
    for ci, c in enumerate(rings(topo, cycles)):
        on, straddle = all_links_coverage(topo, c)
        for lid in range(topo.m):
            arcs = detour_arcs(topo, c, lid)
            want = 1 if lid in on else 2 if lid in straddle else 0
            assert len(arcs) == want == cover[lid, ci]
            if arcs:
                cut = lid in on
                assert sum(mm for mm, _ in arcs) == c.length_mm - cut * topo.link_mm[lid]
                assert sum(hops for _, hops in arcs) == len(c.links) - cut


def test_coverage_counts_the_detours_past_two_mask_words():
    topo, _ = ring_with_chords(0, 120, 24)
    assert topo.m > 128
    cycles = enumerate_cycles(topo)
    cover = pcycle._coverage(topo, cycles)
    assert cover.dtype == np.int8
    assert cover.shape == (topo.m, len(cycles))
    for ci, ring in enumerate(rings(topo, cycles)):
        assert cover[:, ci].tolist() == [len(detour_arcs(topo, ring, lid)) for lid in range(topo.m)]


def test_apriori_efficiency_counts_straddlers_twice():
    # square with a diagonal: the 4-ring covers the diagonal twice
    topo = km([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
    ring = [c for c in rings(topo, enumerate_cycles(topo)) if len(c.links) == 4][0]
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
    assert pcycle._coverage(topo, enumerate_cycles(topo)).shape == (topo.m, 0)
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


def ring_with_chords(seed, n, chords):
    """A ring of n nodes (link i joins i and i+1) and, after it, chords of
    3-6 hops at random steps along it, with demands of up to 7 hops. The
    graph is sparse, so cycles stay few at any m; the chords' ids and the
    ring links near its end sit past bit 64, or 128, of a cycle mask."""
    rng = np.random.default_rng(seed)
    rows = [(i, (i + 1) % n, int(rng.integers(1, 10))) for i in range(n)]
    a = 0
    for _ in range(chords):
        a += int(rng.integers(2, 7))
        rows.append((a % n, (a + int(rng.integers(3, 7))) % n, int(rng.integers(2, 20))))
    topo = km(rows)
    flows = []
    for _ in range(n // 2):
        src = int(rng.integers(0, n))
        flows.append(Flow(src, (src + int(rng.integers(1, 8))) % n, int(rng.integers(1, 4))))
    return topo, flows


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n,chords,lo,hi", [(60, 12, 65, 80), (120, 24, 129, 160)])
def test_pc_design_matches_dense_reference_past_one_and_two_mask_words(seed, n, chords, lo, hi):
    topo, flows = ring_with_chords(seed, n, chords)
    assert lo <= topo.m <= hi
    plan = pc_design(topo, flows)
    assert max(lid for sel in plan.cycles for lid in sel.links) >= lo - 1
    assert serialize_plan(plan, topo) == serialize_plan(dense_pc_reference(topo, flows), topo)


def scaled(flows, seed):
    """flows with every rate multiplied by 2-50, so selection buys
    several copies per step and straddlers carry needs of 4 and up."""
    rng = np.random.default_rng(1000 + seed)
    return [f._replace(rate=f.rate * int(rng.integers(2, 51))) for f in flows]


def scaled_rates(seed):
    """random_scenario with every rate scaled."""
    topo, flows = random_scenario(seed)
    return topo, scaled(flows, seed)


@pytest.mark.parametrize("seed", range(30))
def test_pc_design_matches_dense_reference_on_scaled_rates(seed):
    topo, flows = scaled_rates(seed)
    want = serialize_plan(dense_pc_reference(topo, flows), topo)
    assert serialize_plan(pc_design(topo, flows), topo) == want


@pytest.mark.parametrize("rates_scaled", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_pc_design_matches_dense_reference_on_backbone_meshes(seed, rates_scaled):
    # the shape of divbench's backbone meshes (40 nodes, 56 links, 48
    # flows), where each plan buys 27-46 copies over 15-21 cycles, so
    # needs of 2 fall to 1 and to 0 across purchases
    topo, flows = load_bench_kernels().sr_instance(np.random.default_rng(seed), 40, 56, 48)
    if rates_scaled:
        flows = scaled(flows, seed)
    want = serialize_plan(dense_pc_reference(topo, flows), topo)
    assert serialize_plan(pc_design(topo, flows), topo) == want


def test_pc_design_matches_dense_reference_across_a_bridge():
    topo = km([(0, 1, 1), (1, 2, 2), (0, 2, 1), (2, 3, 1), (0, 3, 5), (3, 4, 1)])
    flows = [Flow(0, 4, 7), Flow(1, 0, 9), Flow(0, 2, 13), Flow(1, 3, 4)]
    plan = pc_design(topo, flows)
    assert plan.partial and plan.unprotected == (0,)
    assert serialize_plan(plan, topo) == serialize_plan(dense_pc_reference(topo, flows), topo)


@pytest.mark.parametrize(
    "rate", [10**12 + 1, 2**62 - 1, 2**64 + 1, pytest.param(10**400 + 1, id="10**400+1")]
)
def test_pc_design_buys_huge_rates_in_batches(rate):
    # a square 0-1-2-3 with the chord 0-2, which carries the one demand:
    # the square protects the straddling chord twice per copy (2 units
    # per 4 km) and beats either triangle (1 unit per 3 km) until the
    # need is down to 1; the odd unit left goes to the first triangle
    topo = km([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
    t0 = time.perf_counter()
    plan = pc_design(topo, [Flow(0, 2, rate)])
    assert time.perf_counter() - t0 < 1.0
    assert [(s.nodes, s.copies) for s in plan.cycles] == [
        ((0, 1, 2), 1),
        ((0, 1, 2, 3), (rate - 1) // 2),
    ]
    assert not plan.partial
    chord = topo.link_between(0, 2).id
    assert plan.working_cap[chord] == rate
    assert plan.spare_cap[chord] == 1


@pytest.mark.parametrize("rate", range(1, 7))
def test_pc_design_matches_dense_reference_as_needs_cross_two(rate):
    # the square with its chord 0-2, which carries ``rate``; the 0-1 and
    # 2-3 spans carry 1 and 3. Across the rates the greedy buys one copy
    # at a time and two at once, and takes links from 1, 2 and 3 down to
    # 0 or 1 as well as from 3 and 4 down to 2, where no term moves
    topo = km([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 1)])
    flows = [Flow(0, 2, rate), Flow(0, 1, 1), Flow(2, 3, 3)]
    plan = pc_design(topo, flows)
    assert not plan.partial
    assert serialize_plan(plan, topo) == serialize_plan(dense_pc_reference(topo, flows), topo)
