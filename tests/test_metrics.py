import pytest

from divprotect.cli import fixture_names
from divprotect.coding import algorithm_one
from divprotect.failsim import sweep
from divprotect.metrics import (
    PROP_SPEED_KM_S,
    FailureGeometry,
    RtParams,
    q_rt,
    q_scp,
    qor,
    scp,
    worst_rt_dc,
    worst_rt_pc,
    worst_rt_sr,
)
from divprotect.pcycle import pc_design
from divprotect.plan import SCHEME_DC, SCHEME_PC, SCHEME_SR
from divprotect.source_reroute import sr_design
from helpers import CUSTOM_RT, REFERENCE_RT, load_fixture

P = RtParams()  # 100us detect, 100us proc
C = 1e-3  # switch time, s


def test_quality_anchor_points_exact():
    assert abs(q_rt(50e-3) - 0.5) < 1e-12
    assert abs(q_scp(100.0) - 0.5) < 1e-12


def test_quality_monotone_and_bounded():
    assert q_rt(0.0) == 1.0
    assert q_scp(0.0) == 1.0
    last = 1.0
    for rt in (1e-3, 10e-3, 50e-3, 100e-3, 1.0):
        cur = q_rt(rt)
        assert 0.0 < cur < last
        last = cur
    last = 1.0
    for s in (10.0, 100.0, 200.0, 1000.0):
        cur = q_scp(s)
        assert 0.0 < cur < last
        last = cur


def test_qor_weighting():
    # twice the restoration weight, one capacity weight
    assert qor(100.0, 50e-3) == pytest.approx(0.5, abs=1e-12)
    assert qor(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert qor(100.0, 0.0) == pytest.approx((2.0 + 0.5) / 3.0, abs=1e-12)


def test_scp_formula():
    assert scp(30_000_000, 14_000_000) == pytest.approx(100.0 * 16 / 14, abs=1e-9)
    assert scp(14_000_000, 14_000_000) == 0.0
    # exact ints past float range divide without overflow
    assert scp(3 * 10**400 + 3, 10**400 + 1) == 200.0
    assert scp(10**400 + 10**385, 10**400) == 1e-13


def test_rtparams_fields_are_the_switch_independent_timings():
    # the switch time is an argument of each formula and the signal
    # speed a module constant, not fields
    assert RtParams._fields == ("detect_s", "node_proc_s")
    assert PROP_SPEED_KM_S == 2.0e5


def test_rt_dc_plug_in():
    # detection + two node visits + parity skew
    g = FailureGeometry(parity_skew_s=0.0)
    assert worst_rt_dc((g,), P, (C,))[0] == pytest.approx(300e-6, abs=1e-12)
    g = FailureGeometry(parity_skew_s=1e-3)
    assert worst_rt_dc((g,), P, (C,))[0] == pytest.approx(1.3e-3, abs=1e-12)
    # switch time never enters
    assert worst_rt_dc((g,), P, (10e-3,)) == worst_rt_dc((g,), P, (C,))
    assert worst_rt_dc((g,), P, (C, 10e-3)) == worst_rt_dc((g,), P, (C,)) * 2


def test_rt_pc_plug_in():
    g = FailureGeometry(
        upstream_hops=2, prot_delay_s=0.5e-3, notify_delay_s=0.1e-3
    )
    # detect 0.1 + (2+1)*0.1 proc + 2*1 switch + 0.5 prop + 0.1 notify (ms)
    assert worst_rt_pc((g,), P, (C,))[0] == pytest.approx(3.0e-3, abs=1e-12)
    assert worst_rt_pc((g,), P, (5e-3,))[0] == pytest.approx(11.0e-3, abs=1e-12)


def test_rt_sr_plug_in():
    g = FailureGeometry(
        backup_hops=2,
        upstream_hops=1,
        prot_delay_s=1e-3,
        upstream_delay_s=0.4e-3,
        notify_delay_s=0.1e-3,
    )
    # detect .1 + upstream .4 + (1+1)*.1 + (2+1)*1 switch + 3*1 prop
    # + 3*(2+1)*.1 signalling + .1 notify = 7.7 ms
    assert worst_rt_sr((g,), P, (C,))[0] == pytest.approx(7.7e-3, abs=1e-12)
    assert worst_rt_sr((g,), P, (0.5e-3,))[0] == pytest.approx(6.2e-3, abs=1e-12)


def test_rt_ordering_for_same_geometry():
    g = FailureGeometry(
        backup_hops=3, upstream_hops=2, prot_delay_s=1e-3,
        upstream_delay_s=1e-3, notify_delay_s=0.2e-3, parity_skew_s=1e-3,
    )
    cs = (0.5e-3, 1e-3, 5e-3, 10e-3)
    times = zip(worst_rt_dc((g,), P, cs), worst_rt_pc((g,), P, cs), worst_rt_sr((g,), P, cs))
    for dc, pc, sr in times:
        assert dc < pc < sr


WORST = {SCHEME_DC: worst_rt_dc, SCHEME_SR: worst_rt_sr, SCHEME_PC: worst_rt_pc}
G = FailureGeometry(
    backup_hops=3, upstream_hops=2, prot_delay_s=1.1e-3,
    upstream_delay_s=0.7e-3, notify_delay_s=0.13e-3, parity_skew_s=0.9e-3,
)


@pytest.mark.parametrize("scheme", sorted(WORST))
def test_worst_rt_of_no_geometries_is_zero(scheme):
    assert WORST[scheme]((), P, (C,)) == (0.0,)
    assert WORST[scheme](iter(()), CUSTOM_RT, (C, 5e-3)) == (0.0, 0.0)
    assert WORST[scheme]([G], P, ()) == ()


@pytest.mark.parametrize("scheme", sorted(WORST))
def test_worst_rt_of_equal_geometries_is_their_time(scheme):
    # per scheme, a field its formula does not read
    unread = {SCHEME_DC: "backup_hops", SCHEME_SR: "parity_skew_s", SCHEME_PC: "upstream_delay_s"}
    twin = G._replace(**{unread[scheme]: 2 * getattr(G, unread[scheme])})
    assert twin != G
    for p, c in ((P, C), (CUSTOM_RT, C), (P, 5e-3)):
        value = REFERENCE_RT[scheme](G, p, c)
        assert WORST[scheme]((G,), p, (c,))[0] == value
        assert WORST[scheme]((G, G, G), p, (c,))[0] == value
        assert WORST[scheme]([G, twin], p, (c,))[0] == value
        assert WORST[scheme]({G: None, twin: None}, p, (c,))[0] == value


@pytest.mark.parametrize("design", [algorithm_one, sr_design, pc_design])
@pytest.mark.parametrize("name", fixture_names())
def test_worst_rt_equals_the_frozen_formula_on_every_fixture(name, design):
    sc = load_fixture(name)
    plan = design(sc.topology, sc.demands)
    reports, _ = sweep(sc.topology, plan)
    geoms = [g for rep in reports for g in rep.geometries if g is not None]
    assert geoms
    worst, ref = WORST[plan.scheme], REFERENCE_RT[plan.scheme]
    cs = (0.1e-3, 0.5e-3, 1e-3, 5e-3, 10e-3)
    for p in (P, CUSTOM_RT):
        # bit for bit, not approximately, at each switch time in turn
        expected = tuple(max(ref(g, p, c) for g in geoms) for c in cs)
        assert worst(geoms, p, cs) == expected
        assert worst(dict.fromkeys(geoms), p, cs) == expected
        assert worst(iter(geoms), p, cs[::-1]) == expected[::-1]
