import ast
from pathlib import Path

import divprotect
from divprotect.coding import algorithm_one
from divprotect.pcycle import pc_design
from divprotect.plan import (
    serialize_plan,
    shortest_working_capacity_mm,
    split_unit_flows,
)
from divprotect.source_reroute import sr_design
from divprotect.topology import Flow
from helpers import load_fixture

KM = 1_000_000


def test_split_unit_flows_preserves_order():
    flows, idx = split_unit_flows([Flow(0, 3, 2), Flow(1, 3, 1), Flow(2, 0, 3)])
    assert flows == (
        Flow(0, 3, 1), Flow(0, 3, 1), Flow(1, 3, 1),
        Flow(2, 0, 1), Flow(2, 0, 1), Flow(2, 0, 1),
    )
    assert idx == (0, 0, 1, 2, 2, 2)


def test_shortest_working_capacity_example2():
    sc = load_fixture("example2")
    # 2 x (0->3 at 4km) + 1->3 at 3km + 2->3 at 3km
    assert shortest_working_capacity_mm(sc.topology, sc.demands) == 14 * KM
    assert shortest_working_capacity_mm(
        sc.topology, [Flow(0, 3, 5)]
    ) == 20 * KM  # rate multiplies


def test_capacity_accounting_identity():
    # per-link capacity vectors must equal the capacity-distance sum of
    # the actual routes, for every scheme
    for name in ["example2", "fig1-star", "synthetic-reconstruction"]:
        sc = load_fixture(name)
        topo = sc.topology
        for build in (algorithm_one, sr_design, pc_design):
            plan = build(topo, sc.demands)
            work = 0
            for f, w in zip(plan.flows, plan.working_paths):
                work += f.rate * w.length_mm
            assert plan.working_capacity_mm(topo) == work
            spare = 0
            for g in plan.groups:
                spare += g.parity.length_mm
            if plan.scheme == "dc":
                for pair in plan.pairs:
                    spare += pair.backup.length_mm
            for sel in plan.cycles:
                spare += sel.copies * sel.length_mm
            if plan.scheme != "sr":
                assert plan.spare_capacity_mm(topo) == spare
            assert plan.total_capacity_mm(topo) == (
                plan.working_capacity_mm(topo) + plan.spare_capacity_mm(topo)
            )


def test_example2_dc_plan_golden():
    sc = load_fixture("example2")
    topo = sc.topology
    plan = algorithm_one(topo, sc.demands)
    assert plan.scheme == "dc"
    assert not plan.partial
    assert len(plan.groups) == 2 and not plan.pairs
    g0, g1 = plan.groups
    assert g0.flow_ids == (0, 1)
    assert [p.nodes for p in g0.working] == [(0, 1, 3), (0, 2, 3)]
    assert g0.parity.nodes == (0, 4, 3)
    assert g1.flow_ids == (2, 3)
    assert [p.nodes for p in g1.working] == [(1, 3), (2, 3)]
    assert g1.parity.nodes == (2, 1, 0, 4, 3)
    assert plan.working_capacity_mm(topo) == 15 * KM
    assert plan.spare_capacity_mm(topo) == 15 * KM
    assert list(plan.working_cap) == [1, 2, 1, 2, 0, 0, 0]
    assert list(plan.spare_cap) == [1, 0, 0, 0, 2, 2, 1]


def test_example2_sr_plan_golden():
    sc = load_fixture("example2")
    topo = sc.topology
    plan = sr_design(topo, sc.demands)
    assert [(p.working.nodes, p.backup.nodes) for p in plan.pairs] == [
        ((0, 1, 3), (0, 2, 3)),
        ((0, 1, 3), (0, 2, 3)),
        ((1, 3), (1, 2, 3)),
        ((2, 3), (2, 1, 3)),
    ]
    # shared spare: worst single-failure backup load per link
    assert list(plan.spare_cap) == [0, 1, 2, 3, 0, 0, 1]
    assert plan.working_capacity_mm(topo) == 14 * KM
    assert plan.spare_capacity_mm(topo) == 18 * KM


def test_example2_pc_plan_golden():
    sc = load_fixture("example2")
    topo = sc.topology
    plan = pc_design(topo, sc.demands)
    assert [(s.nodes, s.copies) for s in plan.cycles] == [
        ((0, 1, 3, 2), 1),
        ((0, 1, 2, 3, 4), 1),
    ]
    assert plan.spare_capacity_mm(topo) == 21 * KM
    assert plan.total_capacity_mm(topo) == 35 * KM


def test_serialize_plan_stable_and_complete():
    sc = load_fixture("example2")
    topo = sc.topology
    for build, key in [
        (algorithm_one, "groups:"),
        (sr_design, "backups:"),
        (pc_design, "cycles:"),
    ]:
        a = serialize_plan(build(topo, sc.demands), topo)
        b = serialize_plan(build(topo, sc.demands), topo)
        assert a == b  # byte-stable across runs
        assert key in a
        assert a.startswith("scheme: ")
        assert "recovery:" in a
        assert "working_cap: [" in a and "spare_cap: [" in a


def test_serialize_plan_dc_content():
    sc = load_fixture("example2")
    topo = sc.topology
    doc = serialize_plan(algorithm_one(topo, sc.demands), topo)
    lines = doc.splitlines()
    assert lines[0] == "scheme: dc"
    assert lines[1] == "partial: false"
    assert "  - {src: 0, dst: 3, rate: 1, demand: 0}" in lines
    assert "  - {src: 0, dst: 3, rate: 1, demand: 0}" in lines
    assert "    parity: {nodes: [0, 4, 3], links: [4, 5]}" in lines
    assert "    parity: {nodes: [2, 1, 0, 4, 3], links: [6, 0, 4, 5]}" in lines
    assert "working_cap: [1, 2, 1, 2, 0, 0, 0]" in lines
    assert "spare_cap: [1, 0, 0, 0, 2, 2, 1]" in lines
    # every link has a recovery stanza, in id order
    recovery = [ln for ln in lines if ln.startswith("  - link: ") or ln.startswith("  - {link: ")]
    assert len(recovery) == topo.m


def test_recovery_actions_mechanisms():
    from divprotect.plan import recovery_actions

    sc = load_fixture("example2")
    topo = sc.topology
    acts = recovery_actions(algorithm_one(topo, sc.demands), topo)
    # link 1 (1-3) carries flows 0 (group 0) and 2 (group 1)
    assert acts[1] == [
        {"flow": 0, "mechanism": "decode", "group": 0},
        {"flow": 2, "mechanism": "decode", "group": 1},
    ]
    acts = recovery_actions(sr_design(topo, sc.demands), topo)
    assert all(e["mechanism"] == "switch-shared" for rows in acts.values() for e in rows)
    acts = recovery_actions(pc_design(topo, sc.demands), topo)
    assert all(e["mechanism"] == "cycle-detour" for rows in acts.values() for e in rows)
    # every action names at least one cycle able to cover its link
    assert all(e["cycles"] for rows in acts.values() for e in rows)


def test_only_pcycle_imports_numpy():
    # read each module's import statements, function bodies included:
    # an import-time check cannot see pcycle's import inside pc_design
    importers = set()
    for path in Path(divprotect.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names):
                importers.add(path.name)
    assert importers == {"pcycle.py"}
