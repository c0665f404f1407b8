import pytest

from divprotect import failsim, plan as plan_module, source_reroute
from divprotect.coding import algorithm_one
from divprotect.failsim import sweep, xor_stream_check
from divprotect.metrics import PROP_SPEED_KM_S, RtParams
from divprotect.pcycle import pc_design
from divprotect.plan import SCHEME_DC
from divprotect.source_reroute import sr_design
from divprotect.topology import Flow, Topology
from helpers import load_fixture, make_path, random_scenario

MS = 1e-3
CS = (0.5e-3, 1e-3, 5e-3, 10e-3)


def test_dc_sweep_example2_golden():
    sc = load_fixture("example2")
    plan = algorithm_one(sc.topology, sc.demands)
    reports, res = sweep(sc.topology, plan)
    assert len(reports) == sc.topology.m
    assert all(all(r.recovered) for r in reports)
    assert all(r.capacity_feasible for r in reports)
    assert res.scp_pct == pytest.approx(100.0 * 16 / 14, abs=1e-9)
    for c in CS:
        # worst skew: 9 km parity tail minus 3 km working = 6 km
        assert res.rt_s[c] == pytest.approx(0.33 * MS, abs=1e-12)
    assert not res.partial


def test_sr_sweep_example2_golden():
    sc = load_fixture("example2")
    plan = sr_design(sc.topology, sc.demands)
    reports, res = sweep(sc.topology, plan)
    assert all(r.capacity_feasible for r in reports)
    assert res.rt_s[0.5e-3] == pytest.approx(2.7875 * MS, abs=1e-12)
    assert res.rt_s[10e-3] == pytest.approx(31.2875 * MS, abs=1e-12)


def test_pc_sweep_example2_golden():
    sc = load_fixture("example2")
    plan = pc_design(sc.topology, sc.demands)
    reports, res = sweep(sc.topology, plan)
    assert all(all(r.recovered) for r in reports)
    assert res.rt_s[0.5e-3] == pytest.approx(1.6575 * MS, abs=1e-12)
    assert res.rt_s[10e-3] == pytest.approx(20.6575 * MS, abs=1e-12)


def test_dc_restoration_time_is_decode_only():
    # no switching: 100us detect + 2x100us node visits, and the skew
    # clamps to zero when the parity copy arrives before the lost
    # working signal would have (the decode buffer absorbs it)
    from divprotect.plan import CodingGroup, ProtectionPlan

    topo = Topology.from_edge_list(
        [(0, 1, 10), (1, 3, 10), (0, 2, 10), (2, 3, 10), (0, 4, 1), (4, 3, 1)],
        unit="km",
    )
    w = make_path(topo, [0, 1, 3])  # 20 km
    parity = make_path(topo, [0, 4, 3])  # 2 km: arrives 18 km early
    group = CodingGroup(flow_ids=(0,), working=(w,), parity=parity, decode_node=3)
    plan = ProtectionPlan(
        scheme="dc",
        flows=(Flow(0, 3, 1),),
        demand_idx=(0,),
        working_paths=(w,),
        working_cap=tuple(int(lid in w.links) for lid in range(topo.m)),
        spare_cap=tuple(int(lid in parity.links) for lid in range(topo.m)),
        groups=(group,),
    )
    _, res = sweep(topo, plan)
    for c in CS:
        assert res.rt_s[c] == pytest.approx(300e-6, abs=1e-12)


def test_dc_parity_skew_counts_from_a_sources_first_visit():
    # the trail taps source 0, loops 0-4-5-0 and passes 0 again on its
    # way to source 1 and on to 3: flow 0's parity copy travels the whole
    # 18 km trail, 15 km more than its 3 km working path
    from divprotect.plan import CodingGroup, ProtectionPlan

    topo = Topology.from_edge_list(
        [(0, 3, 3), (1, 3, 3), (0, 4, 5), (4, 5, 5), (5, 0, 5), (0, 1, 1), (1, 2, 1),
         (2, 3, 1)],
        unit="km",
    )
    w0, w1 = make_path(topo, [0, 3]), make_path(topo, [1, 3])
    parity = make_path(topo, [0, 4, 5, 0, 1, 2, 3])
    assert parity.length_mm == 18_000_000
    group = CodingGroup(flow_ids=(0, 1), working=(w0, w1), parity=parity, decode_node=3)
    plan = ProtectionPlan(
        scheme="dc",
        flows=(Flow(0, 3, 1), Flow(1, 3, 1)),
        demand_idx=(0, 1),
        working_paths=(w0, w1),
        working_cap=tuple(int(lid in w0.links + w1.links) for lid in range(topo.m)),
        spare_cap=tuple(int(lid in parity.links) for lid in range(topo.m)),
        groups=(group,),
    )
    reports, _ = sweep(topo, plan)
    (g0,) = reports[topo.link_between(0, 3).id].geometries
    assert g0.parity_skew_s == pytest.approx(15 / PROP_SPEED_KM_S, abs=1e-15)
    # source 1 is tapped 2 km from the end, before its 3 km working path ends
    (g1,) = reports[topo.link_between(1, 3).id].geometries
    assert g1.parity_skew_s == 0


def test_affected_flows_and_unaffected_links():
    sc = load_fixture("example2")
    plan = algorithm_one(sc.topology, sc.demands)
    reports, _ = sweep(sc.topology, plan)
    assert reports[1].affected == (0, 2)  # link 1-3 carries flows 0 and 2
    assert reports[4].affected == ()  # parity-only link 0-4
    assert reports[4].recovered == ()


def test_custom_rt_params_scale_detection():
    sc = load_fixture("fig1-star")
    plan = algorithm_one(sc.topology, sc.demands)
    _, res = sweep(sc.topology, plan, RtParams(detect_s=1e-3))
    for c in CS:
        assert res.rt_s[c] == pytest.approx(1.2 * MS, abs=1e-12)


def test_partial_plan_reported():
    topo = Topology.from_edge_list(
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)], unit="km"
    )
    plan = algorithm_one(topo, [Flow(0, 3, 1)])
    reports, res = sweep(topo, plan)
    assert res.partial
    bridge = topo.link_between(2, 3).id
    assert reports[bridge].recovered == (False,)


def test_xor_stream_recovers_bytes():
    sc = load_fixture("example2")
    plan = algorithm_one(sc.topology, sc.demands)
    cases = [
        [b"alpha-stream", b"bravo-bytes!", b"charlie-data", b"delta-takes4"],
        # leading and trailing zero bytes must survive the XOR
        [b"\x00\x00a", b"\x00\x00\x00", b"z\x00\x00", b"\x00\x01\x00"],
        [b""] * 4,
    ]
    for payloads in cases:
        for lid in range(sc.topology.m):
            got = xor_stream_check(plan, lid, payloads)
            assert got == [bytes(p) for p in payloads]


def test_xor_stream_reports_losses():
    topo = Topology.from_edge_list(
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)], unit="km"
    )
    plan = algorithm_one(topo, [Flow(0, 3, 1)])
    bridge = topo.link_between(2, 3).id
    assert xor_stream_check(plan, bridge, [b"payload!"]) == [None]
    other = topo.link_between(0, 1).id
    assert xor_stream_check(plan, other, [b"payload!"]) == [b"payload!"]


def test_xor_stream_validates_input():
    sc = load_fixture("example2")
    plan = algorithm_one(sc.topology, sc.demands)
    with pytest.raises(ValueError):
        xor_stream_check(plan, 0, [b"x"])  # wrong payload count
    with pytest.raises(ValueError):
        xor_stream_check(plan, 0, [b"x", b"y", b"z", b"longer"])
    with pytest.raises(ValueError):
        xor_stream_check(sr_design(sc.topology, sc.demands), 0, [b"x"] * 4)


def test_worst_case_is_over_all_failures():
    sc = load_fixture("example2")
    plan = sr_design(sc.topology, sc.demands)
    reports, res = sweep(sc.topology, plan)
    from divprotect.metrics import worst_rt_sr

    per_failure = []
    for rep in reports:
        for g in rep.geometries:
            if g is not None:
                per_failure.append(worst_rt_sr((g,), RtParams(), (0.5e-3,))[0])
    assert res.rt_s[0.5e-3] == pytest.approx(max(per_failure), abs=1e-15)


@pytest.mark.parametrize("design", [algorithm_one, sr_design, pc_design])
@pytest.mark.parametrize("field", ["working_cap", "spare_cap"])
def test_capacity_tuple_of_the_wrong_length_is_refused(design, field):
    sc = load_fixture("example2")
    plan = design(sc.topology, sc.demands)
    m = sc.topology.m
    for cap in (getattr(plan, field)[:-1], getattr(plan, field) + (0,)):
        bad = plan._replace(**{field: cap})
        with pytest.raises(ValueError, match=f"^{plan.scheme} plan's {field} has {len(cap)} "
                                             f"entries; the topology has {m} links$"):
            sweep(sc.topology, bad)


def test_rt_is_timed_once_per_distinct_geometry(monkeypatch):
    sc = load_fixture("uslong-reconstruction")
    plan = algorithm_one(sc.topology, sc.demands)
    outcomes, rt_fn = failsim._SCHEMES[SCHEME_DC]
    calls = []

    def counting_rt(geoms, p, switch_s):
        calls.append(geoms)
        return rt_fn(geoms, p, switch_s)

    monkeypatch.setitem(failsim._SCHEMES, SCHEME_DC, (outcomes, counting_rt))
    reports, _ = sweep(sc.topology, plan)
    geoms = [g for rep in reports for g in rep.geometries if g is not None]
    assert len(calls) <= len(set(geoms)) * len(CS)
    # one call per recovered (flow, link) would be over twice as many
    assert len(geoms) > 2 * len(set(geoms))


def test_sr_sizing_and_sweep_build_no_link_long_load_per_failure(monkeypatch):
    dense = plan_module.link_load
    sizes = []

    def counting_load(m, loads):
        sizes.append(m)
        return dense(m, loads)

    for module in (plan_module, source_reroute, failsim):
        if hasattr(module, "link_load"):
            monkeypatch.setattr(module, "link_load", counting_load)
    uslong = load_fixture("uslong-reconstruction")
    counts = {}
    for topo, flows in (random_scenario(3), (uslong.topology, uslong.demands)):
        sizes.clear()
        sweep(topo, sr_design(topo, flows))
        counts[topo.m] = len(sizes)
    assert len(counts) == 2
    assert set(counts.values()) == {1}  # working_cap only
