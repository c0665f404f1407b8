"""The link -> flows and link -> cycles indexes, and the failure sweep,
sr spare sizing and serialized recovery section built on them, agree
with the per-link scans they replaced (kept in ``helpers``)."""
import pytest

from divprotect.cli import fixture_names
from divprotect.coding import algorithm_one, verify_decodable
from divprotect.failsim import sweep
from divprotect.pcycle import enumerate_cycles, pc_design
from divprotect.plan import (
    BackupPair,
    CodingGroup,
    ProtectionPlan,
    cycle_users,
    detour_arcs,
    link_load,
    link_users,
    serialize_plan,
)
from divprotect.source_reroute import sr_design
from divprotect.topology import Flow, Topology
from helpers import (
    CUSTOM_RT,
    load_fixture,
    make_path,
    random_scenario,
    reference_recovery_section,
    reference_sr_spare,
    reference_sweep,
    rings,
)


def scaled_scenario(seed):
    """random_scenario(seed) plus its flows for pc: on two seeds in three
    their rates are scaled by 2-50, so cycles are bought many times."""
    topo, flows = random_scenario(seed)
    scale = 1 if seed % 3 == 0 else 2 + seed * 7 % 49
    return topo, flows, [Flow(f.src, f.dst, f.rate * scale) for f in flows]


def assert_loops_match(topo, flows, pc_flows):
    sr = sr_design(topo, flows)
    assert sr.spare_cap == reference_sr_spare(topo, sr)
    for plan in (algorithm_one(topo, flows), sr, pc_design(topo, pc_flows)):
        assert repr(sweep(topo, plan)) == repr(reference_sweep(topo, plan))
        assert repr(sweep(topo, plan, CUSTOM_RT, (2e-3, 0.1e-3))) == repr(
            reference_sweep(topo, plan, CUSTOM_RT, (2e-3, 0.1e-3))
        )
        doc = serialize_plan(plan, topo)
        assert doc[doc.index("\nrecovery:\n") + 1 :] == reference_recovery_section(plan, topo)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_loops_match_reference(name):
    sc = load_fixture(name)
    assert_loops_match(sc.topology, sc.demands, sc.demands)


@pytest.mark.parametrize("seed", range(30))
def test_random_loops_match_reference(seed):
    assert_loops_match(*scaled_scenario(seed))


def test_scaled_seeds_buy_many_copies():
    multi = []
    for seed in range(30):
        topo, _, pc_flows = scaled_scenario(seed)
        multi.append(max(sel.copies for sel in pc_design(topo, pc_flows).cycles) > 1)
    assert sum(multi) >= 15


@pytest.mark.parametrize("seed", range(10))
def test_link_users_matches_a_scan(seed):
    topo, flows = random_scenario(seed)
    paths = list(sr_design(topo, flows).working_paths) + [None]
    users = link_users(paths, topo.m)
    assert users == [
        [i for i, p in enumerate(paths) if p is not None and lid in p.links]
        for lid in range(topo.m)
    ]


@pytest.mark.parametrize("seed", range(10))
def test_cycle_users_matches_a_scan(seed):
    topo, _ = random_scenario(seed)
    cycles = rings(topo, enumerate_cycles(topo, 6))
    assert cycle_users(topo, cycles) == [
        [(ci, detour_arcs(topo, c, lid)) for ci, c in enumerate(cycles) if detour_arcs(topo, c, lid)]
        for lid in range(topo.m)
    ]


def outcome(fn, *args):
    """repr of what ``fn(*args)`` returns, or the name of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__


# a 6-node ring, 0-1-2-3-4-5-0, and one 1-4 chord that no path uses
RING = Topology.from_edge_list(
    [(0, 1, 3), (1, 2, 5), (2, 3, 2), (3, 4, 7), (4, 5, 4), (5, 0, 6), (1, 4, 9)], unit="km"
)


def hand_built_sr(spare_cap=None):
    """An sr plan on RING: four unit flows, each backed up the other way
    round; the 0-1 failure hits two of them. ``spare_cap`` defaults to
    the one-scan reference sizing."""
    routes = [
        ([0, 1], [0, 5, 4, 3, 2, 1]),
        ([1, 2], [1, 0, 5, 4, 3, 2]),
        ([3, 4], [3, 2, 1, 0, 5, 4]),
        ([5, 0, 1, 2], [5, 4, 3, 2]),
    ]
    flows = tuple(Flow(w[0], w[-1], 1) for w, _ in routes)
    pairs = tuple(
        BackupPair(flow_id=i, working=make_path(RING, w), backup=make_path(RING, b))
        for i, (w, b) in enumerate(routes)
    )
    working = tuple(pair.working for pair in pairs)
    plan = ProtectionPlan(
        scheme="sr",
        flows=flows,
        demand_idx=tuple(range(len(flows))),
        working_paths=working,
        working_cap=link_load(RING.m, ((w.links, 1) for w in working)),
        spare_cap=(0,) * RING.m,
        pairs=pairs,
    )
    return plan._replace(spare_cap=spare_cap or reference_sr_spare(RING, plan))


def test_hand_built_sr_plan_matches_reference():
    plan = hand_built_sr()
    assert repr(sweep(RING, plan)) == repr(reference_sweep(RING, plan))
    reports, _ = sweep(RING, plan)
    assert all(rep.capacity_feasible for rep in reports)
    assert reports[RING.link_between(0, 1).id].affected == (0, 3)


def test_sr_plan_one_unit_short_is_infeasible_where_it_reroutes():
    short = RING.link_between(0, 1).id
    spare = list(reference_sr_spare(RING, hand_built_sr()))
    spare[short] -= 1
    plan = hand_built_sr(tuple(spare))
    assert repr(sweep(RING, plan)) == repr(reference_sweep(RING, plan))
    reports, res = sweep(RING, plan)
    over_short = {
        rep.link
        for rep in reports
        if any(short in plan.pairs[fid].backup.links for fid in rep.affected)
    }
    assert over_short == {RING.link_between(1, 2).id, RING.link_between(3, 4).id}
    assert {rep.link for rep in reports if not rep.capacity_feasible} == over_short
    assert res.partial


def test_sr_plan_with_negative_spare_off_every_backup_is_infeasible_everywhere():
    chord = RING.link_between(1, 4).id
    spare = list(reference_sr_spare(RING, hand_built_sr()))
    assert spare[chord] == 0
    spare[chord] = -1
    plan = hand_built_sr(tuple(spare))
    assert repr(sweep(RING, plan)) == repr(reference_sweep(RING, plan))
    reports, _ = sweep(RING, plan)
    assert not any(rep.capacity_feasible for rep in reports)


# flows 0 and 1 into node 3 share their last link, 1-3; the parity trail
# 0-4-1-5-3 taps both sources
DC_TOPO = Topology.from_edge_list(
    [(0, 1, 2), (1, 3, 4), (0, 4, 3), (4, 1, 3), (1, 5, 1), (5, 3, 1), (0, 2, 5), (2, 3, 5)],
    unit="km",
)


def hand_built_dc(stray=None):
    """A dc plan on DC_TOPO: flows 0 and 1 in one group, flow 2 on a 1+1
    pair, flow 3 unprotected; ``stray``, a node walk into 3, adds a flow
    in no group, pair or unprotected list."""
    w0, w1 = make_path(DC_TOPO, [0, 1, 3]), make_path(DC_TOPO, [1, 3])
    parity = make_path(DC_TOPO, [0, 4, 1, 5, 3])
    w2, b2 = make_path(DC_TOPO, [0, 2, 3]), make_path(DC_TOPO, [0, 1, 5, 3])
    w3 = make_path(DC_TOPO, [2, 3])
    working = [w0, w1, w2, w3]
    if stray is not None:
        working.append(make_path(DC_TOPO, stray))
    flows = tuple(Flow(w.src, w.dst, 1) for w in working)
    return ProtectionPlan(
        scheme="dc",
        flows=flows,
        demand_idx=tuple(range(len(flows))),
        working_paths=tuple(working),
        working_cap=link_load(DC_TOPO.m, ((w.links, 1) for w in working)),
        spare_cap=link_load(DC_TOPO.m, [(parity.links, 1), (b2.links, 1)]),
        groups=(CodingGroup(flow_ids=(0, 1), working=(w0, w1), parity=parity, decode_node=3),),
        pairs=(BackupPair(flow_id=2, working=w2, backup=b2),),
        unprotected=(3,),
    )


def test_dc_group_two_flows_share_a_link():
    plan = hand_built_dc()
    assert repr(sweep(DC_TOPO, plan)) == repr(reference_sweep(DC_TOPO, plan))
    reports, _ = sweep(DC_TOPO, plan)
    # both group flows lost on the link they share: only the parity row is left
    assert reports[DC_TOPO.link_between(1, 3).id].recovered == (False, False)
    assert reports[DC_TOPO.link_between(0, 1).id].recovered == (True,)
    assert reports[DC_TOPO.link_between(2, 3).id].recovered == (True, False)


def test_dc_stray_flow_is_recovered_as_verify_decodable_says():
    # verify_decodable leaves a flow in no structure recovered; the
    # reference sweep then looks for its parity skew and finds none,
    # while the sweep refuses the plan before any failure, naming the flow
    plan = hand_built_dc(stray=[4, 1, 3])
    stray = len(plan.flows) - 1
    hit = DC_TOPO.link_between(4, 1).id
    assert verify_decodable(plan, hit)[stray]
    assert outcome(reference_sweep, DC_TOPO, plan) == "KeyError"
    with pytest.raises(ValueError, match=f"flow {stray} is routed but in no group"):
        sweep(DC_TOPO, plan)


def test_repeated_geometries_under_custom_rt_params():
    plan = hand_built_dc()
    reports, _ = sweep(DC_TOPO, plan)
    geoms = [g for rep in reports for g in rep.geometries if g is not None]
    assert len(set(geoms)) < len(geoms)
    switch = (7e-3, 0.2e-3, 2e-3)
    assert repr(sweep(DC_TOPO, plan, CUSTOM_RT, switch)) == repr(
        reference_sweep(DC_TOPO, plan, CUSTOM_RT, switch)
    )
    ring = hand_built_sr()
    assert repr(sweep(RING, ring, CUSTOM_RT, switch)) == repr(
        reference_sweep(RING, ring, CUSTOM_RT, switch)
    )
