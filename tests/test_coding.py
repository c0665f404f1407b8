import hashlib
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, count
from math import comb
from operator import itemgetter

import numpy as np
import pytest

from divprotect import coding, kernels, routing
from divprotect.cli import fixture_names
from divprotect.coding import (
    algorithm_one,
    decode_matrix,
    find_group,
    group_capacity_mm,
    verify_decodable,
)
from divprotect.plan import serialize_plan, shortest_working_capacity_mm, split_unit_flows
from divprotect.topology import Flow, ScenarioError, Topology
from helpers import (
    load_bench_kernels,
    load_fixture,
    random_scenario,
    redundancy_ratio,
    reference_find_group,
    reference_parity_route,
    reference_plan_destination,
    unit_lengths,
)

KM = 1_000_000


def test_threshold_ladder_and_group_cap():
    # 1.6 + 0.2 i for i = 0..7, each as its reduced fraction, ascending
    assert coding._THRESHOLDS == tuple(Fraction(8 + i, 5).as_integer_ratio() for i in range(8))
    assert [num / den for num, den in coding._THRESHOLDS] == [
        1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0,
    ]
    assert coding._MAX_GROUP_SIZE == 4


def test_find_group_star():
    topo = load_fixture("fig1-star").topology
    flows = [Flow(0, 5, 1)] * 3
    g = find_group(topo, flows)
    assert g is not None
    assert g.decode_node == 5
    assert [p.nodes for p in g.working] == [(0, 1, 5), (0, 2, 5), (0, 3, 5)]
    assert g.parity.nodes == (0, 4, 5)
    assert group_capacity_mm(g) == 800 * KM
    assert shortest_working_capacity_mm(topo, flows) == 600 * KM
    assert redundancy_ratio(topo, g) == pytest.approx(4 / 3, abs=1e-15)


def test_find_group_rejects_mismatches():
    topo = load_fixture("fig1-star").topology
    assert find_group(topo, [Flow(0, 5, 1), Flow(0, 4, 1)]) is None  # dst differs
    assert find_group(topo, [Flow(0, 5, 1), Flow(0, 5, 2)]) is None  # rate differs
    with pytest.raises(ValueError):
        find_group(topo, [Flow(0, 5, 1)])
    # more flows than disjoint entries into the sink
    assert find_group(topo, [Flow(0, 5, 1)] * 5) is None
    # four flows route, but no fifth path remains for the parity
    assert find_group(topo, [Flow(0, 5, 1)] * 4) is None


def test_find_group_mixed_sources_parity_taps_all():
    sc = load_fixture("example2")
    topo = sc.topology
    g = find_group(topo, [Flow(1, 3, 1), Flow(2, 3, 1)])
    assert g.flow_ids == (0, 1)
    assert [p.nodes for p in g.working] == [(1, 3), (2, 3)]
    assert g.parity.nodes == (2, 1, 0, 4, 3)  # taps 2, then 1, then decodes at 3
    assert redundancy_ratio(topo, g) == pytest.approx(2.5, abs=1e-15)


def test_find_group_ceiling_boundary():
    topo = load_fixture("example2").topology
    flows = [Flow(1, 3, 1), Flow(2, 3, 1)]
    g = find_group(topo, flows)
    cap = group_capacity_mm(g)
    assert find_group(topo, flows, max_mm=cap) == g
    assert find_group(topo, flows, max_mm=cap - 1) is None
    # the working routes alone already exceed the ceiling
    working = sum(w.length_mm for w in g.working)
    assert find_group(topo, flows, max_mm=working - 1) is None


def _parity_instances():
    for seed in range(40):
        topo, _ = random_scenario(seed, max_nodes=12, max_links=26)
        yield topo
        yield unit_lengths(topo)


def test_flow_priced_groups_match_path_first_reference():
    # find_group prices the working flow and splits it into paths only
    # for a group that routes; at every kind of ceiling it gives the
    # group, or None, of the search that split the flow first
    rng = np.random.default_rng(24)
    kinds = dict.fromkeys(("none", "below", "between", "above", "unrouted"), 0)
    routed = 0
    for topo in _parity_instances():
        for _ in range(12):
            dst = int(rng.integers(0, topo.n))
            others = [v for v in range(topo.n) if v != dst]
            picks = rng.integers(0, len(others), size=int(rng.integers(2, 5)))
            flows = [Flow(others[int(i)], dst, 1) for i in picks]
            free = reference_find_group(topo, flows)
            if free is None:
                ceilings = {"none": None, "unrouted": int(rng.integers(1, 200)) * KM}
            else:
                working = sum(w.length_mm for w in free.working)
                total = group_capacity_mm(free)
                ceilings = {
                    "none": None,
                    "below": int(rng.integers(0, working)),
                    "between": int(rng.integers(working, total)),
                    "above": int(rng.integers(total, 2 * total)),
                }
            for kind, max_mm in ceilings.items():
                want = reference_find_group(topo, flows, max_mm=max_mm)
                assert find_group(topo, flows, max_mm=max_mm) == want, (topo.links, flows, max_mm)
                kinds[kind] += 1
                routed += want is not None
    assert sum(kinds.values()) >= 1000 and min(kinds.values()) > 100
    assert routed > 300


def test_bounded_parity_search_matches_reference():
    # the branch-and-bound trail equals the unbounded search's whenever
    # that one fits the budget, and is None otherwise
    rng = np.random.default_rng(5)
    checked = 0
    for topo in _parity_instances():
        for dst in range(topo.n):
            for size in (2, 3, 4):
                sources = [int(s) for s in rng.integers(0, topo.n, size=size)]
                if dst in sources:
                    continue
                workings = routing.disjoint_routes(topo, sources, dst)
                if workings is None:
                    continue
                blocked = {lid for p in workings for lid in p.links}
                want = reference_parity_route(topo, sources, dst, blocked)
                assert coding._parity_route(topo, sources, dst, blocked) == want
                if want is None:
                    continue
                checked += 1
                for budget in (want.length_mm, want.length_mm - 1, want.length_mm + 1):
                    got = coding._parity_route(topo, sources, dst, blocked, budget)
                    assert got == (want if want.length_mm <= budget else None)
    assert checked > 500


def test_parity_routes_off_partial_trees_match_full_trees(monkeypatch):
    # every tree _parity_route reads is grown only until the nodes it
    # reads are settled; growing each one to the end changes nothing
    full = Topology.distances

    def whole(self, root, blocked=None, until=None):
        return full(self, root, blocked)

    rng = np.random.default_rng(9)
    cases = []
    for topo in _parity_instances():
        for dst in range(topo.n):
            sources = [int(s) for s in rng.integers(0, topo.n, size=int(rng.integers(2, 5)))]
            if dst in sources:
                continue
            workings = routing.disjoint_routes(topo, sources, dst)
            if workings is not None:
                blocked = {lid for p in workings for lid in p.links}
                cases.append((topo, sources, dst, blocked))
    got = [coding._parity_route(*case) for case in cases]
    with monkeypatch.context() as m:
        m.setattr(Topology, "distances", whole)
        want = [coding._parity_route(*case) for case in cases]
    assert got == want
    assert len(cases) > 300 and sum(w is not None for w in want) > 200
    for case, w in zip(cases, want):
        if w is not None:  # bounded at the trail's own length, and below it
            assert coding._parity_route(*case, w.length_mm) == w
            assert coding._parity_route(*case, w.length_mm - 1) is None


def test_working_floor_does_not_depend_on_the_order_trees_grow_in():
    # the floor reads each destination's shared tree grown only to its
    # sources; requests in any order, each growing the tree a little
    # further, give the values of full trees
    rng = np.random.default_rng(4)
    for seed in range(20):
        topo, _ = random_scenario(seed, max_nodes=14, max_links=30)
        for t in (topo, unit_lengths(topo)):
            edges = [(l.a, l.b, l.length_mm) for l in t.links]
            demands = [
                [Flow(int(s), int(d), int(r)) for s, d, r in zip(
                    rng.integers(0, t.n, size=6), rng.integers(0, t.n, size=6),
                    rng.integers(1, 4, size=6)) if s != d]
                for _ in range(8)
            ]
            want = [sum(f.rate * t.distances(f.dst)[f.src] for f in dem) for dem in demands]
            for _ in range(3):
                fresh = Topology(t.n, edges)
                order = rng.permutation(len(demands))
                got = {int(i): shortest_working_capacity_mm(fresh, demands[i]) for i in order}
                assert [got[i] for i in range(len(demands))] == want


def test_ratio_at_equal_lengths_is_n_plus_1_over_n():
    topo = load_fixture("fig1-star").topology
    for n in (2, 3):
        g = find_group(topo, [Flow(0, 5, 1)] * n)
        assert redundancy_ratio(topo, g) == pytest.approx((n + 1) / n, abs=1e-15)


def test_algorithm_one_example2_composition():
    sc = load_fixture("example2")
    plan = algorithm_one(sc.topology, sc.demands)
    assert [g.flow_ids for g in plan.groups] == [(0, 1), (2, 3)]
    assert plan.pairs == ()
    assert plan.unprotected == ()
    assert plan.total_capacity_mm(sc.topology) == 30 * KM


def test_algorithm_one_single_flow_degenerates_to_aps():
    sc = load_fixture("example2")
    plan = algorithm_one(sc.topology, [Flow(0, 3, 1)])
    assert plan.groups == ()
    assert len(plan.pairs) == 1
    pair = plan.pairs[0]
    assert pair.working.nodes == (0, 1, 3)
    assert pair.backup.nodes == (0, 2, 3)


def test_algorithm_one_tight_threshold_is_pure_aps(monkeypatch):
    sc = load_fixture("example2")
    monkeypatch.setattr(coding, "_THRESHOLDS", ((1, 1),))
    plan = algorithm_one(sc.topology, sc.demands)
    assert plan.groups == ()
    assert len(plan.pairs) == 4


def test_algorithm_one_unprotectable_flow_marks_partial():
    # pendant node 3 hangs off a triangle; 0->3 has no disjoint pair
    topo = Topology.from_edge_list(
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)], unit="km"
    )
    plan = algorithm_one(topo, [Flow(0, 3, 1), Flow(0, 1, 1)])
    assert plan.partial
    assert plan.unprotected == (0,)
    assert plan.working_paths[0] is not None  # still routed, just bare
    assert len(plan.pairs) == 1


def test_group_admission_never_beats_aps_fallback():
    # three disjoint 0->3 routes of 1, 1 and 10 km: a pair group would
    # cost 12 while two 1+1 pairs cost 4, so grouping must be declined
    # even though 12/2 <= 3.0 fails only the fallback comparison
    topo = Topology.from_edge_list(
        [(0, 1, 1), (1, 3, 10), (0, 3, 1), (0, 2, 5), (2, 3, 5)], unit="km"
    )
    flows = [Flow(0, 3, 1), Flow(0, 3, 1)]
    g = find_group(topo, flows)
    assert g is not None  # a group exists ...
    plan = algorithm_one(topo, flows)
    assert plan.groups == ()  # ... but the planner prefers the pairs
    assert len(plan.pairs) == 2


def test_memoised_search_matches_fresh_run():
    topo, flows = random_scenario(3)
    a = algorithm_one(topo, flows)
    b = algorithm_one(topo, flows)
    assert [g.flow_ids for g in a.groups] == [g.flow_ids for g in b.groups]
    assert a.total_capacity_mm(topo) == b.total_capacity_mm(topo)


def test_destination_degree_cut_keeps_plans(monkeypatch):
    # the cut skips group sizes the decode node's degree cannot admit;
    # reporting every degree as m switches it off and must not change a plan
    calls = []
    real = coding.find_group
    monkeypatch.setattr(
        coding, "find_group", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    instances = [load_fixture(name) for name in fixture_names()]
    instances = [(sc.topology, sc.demands) for sc in instances]
    instances += [random_scenario(seed) for seed in range(30)]
    skipped = 0
    for topo, flows in instances:
        calls.clear()
        cut = serialize_plan(algorithm_one(topo, flows), topo)
        skipped -= len(calls)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(topo, "degree", lambda v: topo.m)
            uncut = serialize_plan(algorithm_one(topo, flows), topo)
        skipped += len(calls)
        assert cut == uncut
    assert skipped > 0


def test_admission_ceiling_prunes_nothing_admissible(monkeypatch):
    # the ceiling only turns groups no threshold admits into None: a
    # search that ignores it must give the same plans
    real = coding.find_group
    rejected = []

    def checked(topo, flows, max_mm=None):
        g = real(topo, flows, max_mm=max_mm)
        free = real(topo, flows)
        if g is None and free is not None:
            assert group_capacity_mm(free) > max_mm
            rejected.append(1)
        else:
            assert g == free
        return g

    def unbounded(topo, flows, max_mm=None):
        return real(topo, flows)

    instances = [load_fixture(name) for name in fixture_names()]
    instances = [(sc.topology, sc.demands) for sc in instances]
    instances += [random_scenario(seed) for seed in range(30)]
    for seed in range(6):
        topo, flows = random_scenario(seed, max_nodes=12, max_links=26, max_flows=10)
        instances.append((unit_lengths(topo), flows))
    for topo, flows in instances:
        with monkeypatch.context() as m:
            m.setattr(coding, "find_group", checked)
            bounded = serialize_plan(algorithm_one(topo, flows), topo)
        with monkeypatch.context() as m:
            m.setattr(coding, "find_group", unbounded)
            free = serialize_plan(algorithm_one(topo, flows), topo)
        assert bounded == free
    assert rejected


def test_high_rate_demand_routes_each_source_tuple_once(monkeypatch):
    # one 0->1 demand of rate 12 on K6 splits into 12 unit flows whose
    # C(12, k) combinations all share one source tuple per size, and
    # all share the (src, dst) of the 1+1 pair they are priced against
    calls = []
    real = coding.find_group
    monkeypatch.setattr(
        coding, "find_group", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    # protected_pair searches a working path, then its backup, once per
    # (src, dst) on a topology
    searches = []
    real_path = routing.shortest_path
    monkeypatch.setattr(
        routing, "shortest_path", lambda *a, **kw: searches.append(a[1:3]) or real_path(*a, **kw)
    )
    topo = Topology.from_edge_list(
        [(a, b, 1) for a in range(6) for b in range(a + 1, 6)], unit="km"
    )
    plan = algorithm_one(topo, [Flow(0, 1, 12)])
    assert len(calls) <= 3
    assert searches == [(0, 1), (0, 1)]
    assert sorted(i for g in plan.groups for i in g.flow_ids) == list(range(12))
    assert plan.pairs == () and plan.unprotected == ()


def test_cached_groups_keep_each_flow_on_its_own_route():
    # a decided group is shared by every combination with the same
    # source tuple; each flow must still get the working route from its
    # source
    instances = [load_fixture(name) for name in fixture_names()]
    instances = [(sc.topology, sc.demands) for sc in instances]
    instances += [random_scenario(seed, max_flows=12) for seed in range(30)]
    # seeds where a permuted source tuple is accepted from the table
    instances += [random_scenario(seed, 8, 16, 8) for seed in (63, 376, 384)]
    for topo, demand in instances:
        plan = algorithm_one(topo, demand)
        for g in plan.groups:
            assert [(w.src, w.dst) for w in g.working] == [
                (plan.flows[i].src, plan.flows[i].dst) for i in g.flow_ids
            ]
            assert all(plan.working_paths[i] == w for i, w in zip(g.flow_ids, g.working))


def test_decode_matrix_cases():
    sc = load_fixture("example2")
    plan = algorithm_one(sc.topology, sc.demands)
    g = plan.groups[0]  # workings (0,1,3) and (0,2,3), parity (0,4,3)
    m = decode_matrix(g, None)
    assert m == ((1, 0), (0, 1), (1, 1))
    assert kernels.gf2_rank(m) == 2
    # failing link 1 (1-3) kills working 0; parity covers it
    m = decode_matrix(g, 1)
    assert m == ((0, 1), (1, 1))
    assert kernels.gf2_rank(m) == 2
    # failing the parity link leaves plain unit rows
    m = decode_matrix(g, 4)
    assert m == ((1, 0), (0, 1))
    assert kernels.gf2_rank(m) == 2


def test_verify_decodable_example2_all_failures():
    sc = load_fixture("example2")
    plan = algorithm_one(sc.topology, sc.demands)
    for lid in range(sc.topology.m):
        assert verify_decodable(plan, lid) == [True] * 4


def test_verify_decodable_flags_unprotected():
    topo = Topology.from_edge_list(
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)], unit="km"
    )
    plan = algorithm_one(topo, [Flow(0, 3, 1)])
    bridge = topo.link_between(2, 3).id
    assert verify_decodable(plan, bridge) == [False]
    other = topo.link_between(0, 1).id
    assert verify_decodable(plan, other) == [True]
    with pytest.raises(ValueError):
        from divprotect.source_reroute import sr_design

        verify_decodable(sr_design(topo, [Flow(0, 1, 1)]), 0)


def test_algorithm_one_counts_the_unit_flow_limit_over_all_rows():
    topo = Topology.from_edge_list([(a, b, 1) for a in range(4) for b in range(a + 1, 4)])
    half = coding._MAX_UNIT_FLOWS // 2
    with pytest.raises(ScenarioError, match=f"at most {coding._MAX_UNIT_FLOWS}$"):
        algorithm_one(topo, [Flow(0, 3, half), Flow(1, 3, coding._MAX_UNIT_FLOWS - half + 1)])


def _plan_digest(topo, flows) -> str:
    return hashlib.sha256(serialize_plan(algorithm_one(topo, flows), topo).encode()).hexdigest()


# Plans of ``dense_instance(seed)`` from benchmarks/bench_kernels.py:
# 14 unit flows into node 0 (degree 6 or more) of an 18-node, 30-link
# graph, more than _DENSE_FLOW_LIMIT, so the hop guard picks which
# sources are combined. These seeds are ones where it changes the plan.
DENSE_DIGESTS = {
    0: "a47217393c07b783fb7ff025277cb20964948ed1b28678f87e8a95c22bc8a26a",
    5: "d6b811ecb281a37e8611c838313543fd34b9cf7ea48f8c30801f8b86a9a535d9",
    8: "d14d62f21c31543bbfb6c120746e6adde7398a99a5f2e02ad10bd662d5688727",
}


@pytest.mark.parametrize("seed", sorted(DENSE_DIGESTS))
def test_hop_guard_plans_keep_their_bytes(monkeypatch, seed):
    topo, flows = load_bench_kernels().dense_instance(seed)
    assert len(flows) > coding._DENSE_FLOW_LIMIT and topo.degree(0) >= 6
    assert _plan_digest(topo, flows) == DENSE_DIGESTS[seed]
    # the guard is live: without it the same demand plans differently
    monkeypatch.setattr(coding, "_DENSE_FLOW_LIMIT", len(flows))
    assert _plan_digest(topo, flows) != DENSE_DIGESTS[seed]


def test_hop_rejected_source_tuples_are_not_stored():
    # 24 unit flows into hub 0, which has six spokes into a 96-node ring
    # (nodes 1-96); the sources sit 4 ring hops apart and 2 from the
    # nearest spoke, so the hop guard rejects all 12,926 source tuples
    # the walk meets. Keeping each one took 1.7 MB.
    ring = [(1 + i, 1 + (i + 1) % 96, 1) for i in range(96)]
    topo = Topology.from_edge_list(ring + [(0, 1 + 16 * k, 1) for k in range(6)], unit="km")
    srcs = [1 + 16 * k + off for k in range(6) for off in (2, 6, 10, 14)]
    flows = tuple(Flow(s, 0, 1) for s in srcs)
    assert len(flows) > coding._DENSE_FLOW_LIMIT
    assert all(
        topo.hop_distances(a)[b] > coding._SOURCE_HOP_RADIUS for a, b in combinations(srcs, 2)
    )
    ids = list(range(len(flows)))
    coding._plan_destination(topo, flows, ids)  # lazy imports and caches
    tracemalloc.start()
    try:
        assert coding._plan_destination(topo, flows, ids) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def _unit_keys(plan) -> list[tuple[int, int]]:
    """(demand row, unit within the row) of each flow id."""
    seen: dict[int, int] = {}
    keys = []
    for row in plan.demand_idx:
        keys.append((row, seen.get(row, 0)))
        seen[row] = seen.get(row, 0) + 1
    return keys


def test_destinations_plan_independently():
    # planning one destination's demand rows alone gives exactly that
    # destination's groups, pairs and unprotected flows of the full plan
    instances = [load_fixture(name) for name in fixture_names()]
    instances = [(sc.topology, sc.demands) for sc in instances]
    instances += [random_scenario(seed, max_flows=12) for seed in range(30)]
    instances += [load_bench_kernels().dense_instance(seed) for seed in (0, 5)]
    for topo, demand in instances:
        demand = list(demand)
        full = algorithm_one(topo, demand)
        full_keys = _unit_keys(full)
        for dst in sorted({f.dst for f in demand}):
            rows = [r for r, f in enumerate(demand) if f.dst == dst]
            part = algorithm_one(topo, [demand[r] for r in rows])
            # a flow id of the part plan, as the full plan numbers it
            fid = {i: full_keys.index((rows[r], k)) for i, (r, k) in enumerate(_unit_keys(part))}
            assert [
                g._replace(flow_ids=tuple(fid[i] for i in g.flow_ids)) for g in part.groups
            ] == [g for g in full.groups if g.decode_node == dst]
            assert [p._replace(flow_id=fid[p.flow_id]) for p in part.pairs] == [
                p for p in full.pairs if full.flows[p.flow_id].dst == dst
            ]
            assert [fid[i] for i in part.unprotected] == [
                i for i in full.unprotected if full.flows[i].dst == dst
            ]


def test_dc_walk_bound_refuses_only_destinations_past_it():
    # one 0->1 demand on K6 (degree 5) tries groups of 2 to 4 of its unit
    # flows: C(k, 4) + C(k, 3) + C(k, 2) combinations per threshold
    k6 = Topology.from_edge_list(
        [(a, b, 1) for a in range(6) for b in range(a + 1, 6)], unit="km"
    )
    walk = lambda k: comb(k, 4) + comb(k, 3) + comb(k, 2)
    assert walk(40) == 102_050 <= coding._MAX_COMBINATIONS < walk(100) == 4_087_875
    plan = algorithm_one(k6, [Flow(0, 1, 40)])
    assert [g.size for g in plan.groups] == [4] * 10
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError, match="^the 100 unit flows into node 1 make 4087875 "):
        algorithm_one(k6, [Flow(0, 1, 100)])
    assert time.perf_counter() - t0 < 1.0


def _k6() -> Topology:
    return Topology.from_edge_list(
        [(a, b, 1) for a in range(6) for b in range(a + 1, 6)], unit="km"
    )


def test_plan_destination_matches_the_reference():
    # deciding each source tuple once and skipping thresholds that admit
    # none gives each destination the tagged groups of the sweep that
    # walked every threshold and re-tested every live combination
    instances = [load_fixture(name) for name in fixture_names()]
    instances = [(sc.topology, sc.demands) for sc in instances]
    instances += [random_scenario(seed, max_flows=12) for seed in range(30)]
    instances += [load_bench_kernels().dense_instance(seed) for seed in (0, 5, 8)]
    instances += [(_k6(), [Flow(0, 1, rate)]) for rate in (12, 40)]
    for topo, demand in instances:
        flows, _ = split_unit_flows(demand)
        for dst in sorted({f.dst for f in flows}):
            ids = [i for i, f in enumerate(flows) if f.dst == dst]
            assert coding._plan_destination(topo, flows, ids) == (
                reference_plan_destination(topo, flows, ids)
            ), (topo.links, demand, dst)


@pytest.mark.parametrize(
    "thresholds, cap", [(((1, 1), (2, 1)), 2), (((12, 5), (3, 1), (4, 1)), 3)]
)
def test_plan_destination_follows_a_patched_ladder_and_cap(monkeypatch, thresholds, cap):
    # the planner and the reference read the ladder and the cap at call
    # time, so a patched pair reaches both sweeps alike
    monkeypatch.setattr(coding, "_THRESHOLDS", thresholds)
    monkeypatch.setattr(coding, "_MAX_GROUP_SIZE", cap)
    instances = [load_fixture(name) for name in fixture_names()]
    instances = [(sc.topology, sc.demands) for sc in instances]
    instances += [random_scenario(seed, max_flows=12) for seed in range(10)]
    for topo, demand in instances:
        flows, _ = split_unit_flows(demand)
        for dst in sorted({f.dst for f in flows}):
            ids = [i for i, f in enumerate(flows) if f.dst == dst]
            got = coding._plan_destination(topo, flows, ids)
            assert got == reference_plan_destination(topo, flows, ids), (topo.links, demand)
            assert all(t < len(thresholds) and g.size <= cap for (t, _), g in got)


K6_RATE_70_DIGEST = "f60f48253fee081be494a86d032bac641c7c05e1659d46fbd8347d4e84ba27ae"


def test_high_rate_demand_walks_only_the_admitting_thresholds(monkeypatch):
    # one 0->1 demand of rate 70 on K6 makes 974,050 combinations per
    # pass over three source tuples, admitted at 2.4 (sizes 4 and 3) and
    # 2.6 (size 2): the first pass decides them, and only the passes at
    # those two thresholds follow it (the per-threshold walk drew
    # 7,792,400 combinations over all eight)
    ids = list(range(70))
    drawn = count()
    real = coding.combinations

    def counted(pool, r):
        # zip draws one count per combination taken from the id list
        it = real(pool, r)
        return map(itemgetter(0), zip(it, drawn)) if pool == ids else it

    calls = []
    real_group = coding.find_group
    monkeypatch.setattr(coding, "combinations", counted)
    monkeypatch.setattr(
        coding, "find_group", lambda *a, **kw: calls.append(1) or real_group(*a, **kw)
    )
    topo = _k6()
    plan = algorithm_one(topo, [Flow(0, 1, 70)])
    assert [g.size for g in plan.groups] == [4] * 17 + [2]
    assert hashlib.sha256(serialize_plan(plan, topo).encode()).hexdigest() == K6_RATE_70_DIGEST
    assert len(calls) <= 3
    assert next(drawn) <= 3 * 974_050 == 2_922_150
