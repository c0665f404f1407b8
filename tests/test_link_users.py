"""The link -> flows and link -> cycles indexes, and the failure sweep,
sr spare sizing and recovery actions built on them, agree with the
per-link scans they replaced (kept in ``helpers``)."""
import pytest

from divprotect.cli import fixture_names
from divprotect.coding import algorithm_one
from divprotect.failsim import sweep
from divprotect.metrics import RtParams
from divprotect.pcycle import enumerate_cycles, pc_design
from divprotect.plan import cycle_users, detour_arcs, link_users, recovery_actions
from divprotect.source_reroute import sr_design
from divprotect.topology import Flow
from helpers import (
    load_fixture,
    random_scenario,
    reference_recovery_actions,
    reference_sr_spare,
    reference_sweep,
    rings,
)

CUSTOM = RtParams(detect_s=7e-6, node_proc_s=3e-6, prop_speed_km_s=1.5e5)


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
        assert repr(sweep(topo, plan, CUSTOM, (2e-3, 0.1e-3))) == repr(
            reference_sweep(topo, plan, CUSTOM, (2e-3, 0.1e-3))
        )
        assert recovery_actions(plan, topo) == reference_recovery_actions(plan, topo)


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
