"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `acceptance N <name>: PASS|FAIL` line (visible
under `pytest -s`) and then asserts, so the module doubles as a release
checklist. Expected values come from hand computation or from the
brute-force oracles defined below, never from the code under test.
"""

import itertools
import time
import warnings

import numpy as np

from divprotect import coding
from divprotect.cli import fixture_names
from divprotect.coding import algorithm_one, verify_decodable
from divprotect.failsim import sweep, xor_stream_check
from divprotect.metrics import FailureGeometry, RtParams, q_rt, q_scp, scp, worst_rt_dc
from divprotect.pcycle import enumerate_cycles, pc_design
from divprotect.plan import shortest_working_capacity_mm, split_unit_flows
from divprotect.routing import disjoint_routes, shortest_path
from divprotect.source_reroute import sr_design
from divprotect.topology import Topology
from helpers import (
    all_simple_paths,
    brute_cycles,
    brute_disjoint_pair_total,
    brute_shortest,
    load_fixture,
    random_scenario,
    rings,
)

FIXTURES = fixture_names()  # every bundled fixture, so a new one is checked too
RECONSTRUCTIONS = [
    "cost239-reconstruction",
    "synthetic-reconstruction",
    "uslong-reconstruction",
]
SWITCH_GRID = (0.5e-3, 1e-3, 5e-3, 10e-3)

_RUNS: dict = {}


def _fixture_runs(name):
    """Plans and failure sweeps for one fixture, computed once."""
    if name not in _RUNS:
        sc = load_fixture(name)
        out = {}
        for scheme, design in (
            ("dc", algorithm_one),
            ("sr", sr_design),
            ("pc", pc_design),
        ):
            plan = design(sc.topology, sc.demands)
            reports, result = sweep(sc.topology, plan, switch_values_s=SWITCH_GRID)
            out[scheme] = (plan, reports, result)
        _RUNS[name] = (sc, out)
    return _RUNS[name]


def _verdict(label: str, failures: list) -> None:
    print(f"\nacceptance {label}: {'FAIL' if failures else 'PASS'}")
    assert not failures, "; ".join(str(f) for f in failures[:12])


# --- independent per-failure feasibility checks -----------------------------


def _check_dc(topo, plan, rng, failures, tag):
    payloads = [rng.bytes(24) for _ in plan.flows]
    for lid in range(topo.m):
        if not all(verify_decodable(plan, lid)):
            failures.append(f"{tag}: decode rank gap at link {lid}")
            return
        got = xor_stream_check(plan, lid, payloads)
        if got != payloads:
            failures.append(f"{tag}: parity stream loses data at link {lid}")
            return


def _check_sr(topo, plan, failures, tag):
    by_flow = {pr.flow_id: pr for pr in plan.pairs}
    for lid in range(topo.m):
        need = np.zeros(topo.m, dtype=np.int64)
        for fid, w in enumerate(plan.working_paths):
            if w is None or lid not in w.links:
                continue
            pr = by_flow.get(fid)
            if pr is None or lid in pr.backup.links:
                failures.append(f"{tag}: link {lid} strands flow {fid}")
                return
            for bl in pr.backup.links:
                need[bl] += plan.flows[fid].rate
        if np.any(need > plan.spare_cap):
            failures.append(f"{tag}: spare overrun when link {lid} fails")
            return


def _check_pc(topo, plan, failures, tag):
    for lid in range(topo.m):
        load = int(plan.working_cap[lid])
        if load == 0:
            continue
        a, b = topo.links[lid].a, topo.links[lid].b
        prot = 0
        for sel in plan.cycles:
            if lid in sel.links:
                prot += sel.copies
            elif a in sel.nodes and b in sel.nodes:
                prot += 2 * sel.copies
        if prot < load:
            failures.append(f"{tag}: link {lid} load {load} > protection {prot}")
            return


def test_1_single_failure_recovery_sweep():
    failures = []
    rng = np.random.default_rng(20240814)
    t0 = time.monotonic()

    cases = [(n, load_fixture(n)) for n in FIXTURES]
    for seed in range(50):
        topo, flows = random_scenario(seed)
        units = sum(f.rate for f in flows)
        if topo.n > 10 or topo.m > 20 or units > 8:
            failures.append(f"seed {seed}: generator out of bounds")
        cases.append((f"seed{seed}", (topo, flows)))

    for name, case in cases:
        topo, demands = (
            (case.topology, case.demands) if hasattr(case, "topology") else case
        )
        for scheme, design, check in (
            ("dc", algorithm_one, None),
            ("sr", sr_design, _check_sr),
            ("pc", pc_design, _check_pc),
        ):
            tag = f"{name}/{scheme}"
            plan = design(topo, demands)
            if plan.partial:
                failures.append(f"{tag}: unprotected flows {plan.unprotected}")
                continue
            if scheme == "dc":
                _check_dc(topo, plan, rng, failures, tag)
            else:
                check(topo, plan, failures, tag)

    # the library's own sweep agrees: every flow recovered within capacity
    for name in FIXTURES:
        _, runs = _fixture_runs(name)
        for scheme, (_, _, result) in runs.items():
            if result.partial:
                failures.append(f"{name}/{scheme}: sweep reports a partial recovery")

    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"sweep took {elapsed:.1f}s (budget 60s)")
    _verdict("1 single-failure recovery sweep", failures)


def test_2_quality_anchor_points():
    failures = []
    if abs(q_rt(50e-3) - 0.5) > 1e-12:
        failures.append(f"q_rt(50ms) = {q_rt(50e-3)!r}")
    if abs(q_scp(100.0) - 0.5) > 1e-12:
        failures.append(f"q_scp(100) = {q_scp(100.0)!r}")
    _verdict("2 quality anchor points", failures)


def test_3_decode_restoration_time_anchor():
    failures = []
    (rt,) = worst_rt_dc((FailureGeometry(),), RtParams(detect_s=100e-6, node_proc_s=100e-6), (1e-3,))
    if abs(rt - 300e-6) > 1e-6:
        failures.append(f"formula gives {rt * 1e6:.3f}us")
    # equal-length corridors: zero parity skew end to end
    _, runs = _fixture_runs("fig1-star")
    for c, worst in runs["dc"][2].rt_s.items():
        if abs(worst - 300e-6) > 1e-6:
            failures.append(f"fig1-star worst rt {worst * 1e6:.3f}us at C={c}")
    _verdict("3 decode restoration time anchor", failures)


def test_4_restoration_time_ordering():
    failures = []
    for name in FIXTURES:
        _, runs = _fixture_runs(name)
        for c in SWITCH_GRID:
            dc = runs["dc"][2].rt_s[c]
            pc = runs["pc"][2].rt_s[c]
            sr = runs["sr"][2].rt_s[c]
            if not (dc < pc < sr):
                failures.append(
                    f"{name} C={c}: dc={dc:.6f} pc={pc:.6f} sr={sr:.6f}"
                )
    _verdict("4 restoration time ordering", failures)


def test_5_switch_time_independence():
    failures = []
    for name in FIXTURES:
        _, runs = _fixture_runs(name)
        dc = runs["dc"][2]
        rt_cells = {f"{dc.rt_s[c]:.6f}" for c in SWITCH_GRID}
        qor_cells = {f"{dc.qor[c]:.6f}" for c in SWITCH_GRID}
        if len({dc.rt_s[c] for c in SWITCH_GRID}) != 1 or len(rt_cells) != 1:
            failures.append(f"{name}: dc rt varies with C")
        if len({dc.qor[c] for c in SWITCH_GRID}) != 1 or len(qor_cells) != 1:
            failures.append(f"{name}: dc qor varies with C")
        for scheme in ("sr", "pc"):
            q = [runs[scheme][2].qor[c] for c in SWITCH_GRID]
            if any(a < b for a, b in zip(q, q[1:])):
                failures.append(f"{name}: {scheme} qor rises with C: {q}")
    _verdict("5 switch time independence", failures)


# --- capacity oracles for the 5-node worked example -------------------------


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _parity_group_optimum(topo, srcs, dst, paths_from):
    """Cheapest pairwise-disjoint workings plus one covering parity path."""
    best = None
    for combo in itertools.product(*[paths_from[s] for s in srcs]):
        used: set = set()
        ok = True
        for _, _, ls in combo:
            if used & set(ls):
                ok = False
                break
            used |= set(ls)
        if not ok:
            continue
        wcost = sum(c[0] for c in combo)
        for s0 in set(srcs):
            for plen, pnodes, plinks in paths_from[s0]:
                if set(srcs).issubset(pnodes) and not (used & set(plinks)):
                    tot = wcost + plen
                    if best is None or tot < best:
                        best = tot
    return best


def _dc_optimum_mm(topo, flows, dst):
    paths_from = {s: all_simple_paths(topo, s, dst) for s in {f.src for f in flows}}
    best = None
    for part in _set_partitions(list(range(len(flows)))):
        total = 0
        for block in part:
            if len(block) == 1:
                t = brute_disjoint_pair_total(topo, flows[block[0]].src, dst)
            else:
                t = _parity_group_optimum(
                    topo, [flows[i].src for i in block], dst, paths_from
                )
            if t is None:
                total = None
                break
            total += t
        if total is not None and (best is None or total < best):
            best = total
    return best


def _pc_optimum_spare_mm(topo, working_cap):
    cands = []
    for ring, length in brute_cycles(topo).items():
        links = {
            topo.link_between(a, b).id
            for a, b in zip(ring, ring[1:] + ring[:1])
        }
        cands.append((set(ring), links, length))
    maxload = int(max(working_cap))
    best = None
    for copies in itertools.product(range(maxload + 1), repeat=len(cands)):
        ok = True
        for lid in range(topo.m):
            load = int(working_cap[lid])
            if load == 0:
                continue
            prot = 0
            for (nodes, links, _), c in zip(cands, copies):
                if c == 0:
                    continue
                if lid in links:
                    prot += c
                elif topo.links[lid].a in nodes and topo.links[lid].b in nodes:
                    prot += 2 * c
            if prot < load:
                ok = False
                break
        if ok:
            cost = sum(c * cand[2] for cand, c in zip(cands, copies))
            if best is None or cost < best:
                best = cost
    return best


def test_6_worked_example_capacity_ordering():
    failures = []
    sc, runs = _fixture_runs("example2")
    topo = sc.topology
    dc_plan, sr_plan, pc_plan = (runs[s][0] for s in ("dc", "sr", "pc"))
    dc_total = dc_plan.total_capacity_mm(topo)
    sr_total = sr_plan.total_capacity_mm(topo)
    pc_total = pc_plan.total_capacity_mm(topo)

    if (dc_total, sr_total, pc_total) != (30_000_000, 32_000_000, 35_000_000):
        failures.append(f"totals moved: {dc_total}, {sr_total}, {pc_total}")

    # parity planner output is capacity-optimal for its scheme
    flows, _ = split_unit_flows(sc.demands)
    if _dc_optimum_mm(topo, flows, flows[0].dst) != dc_total:
        failures.append("parity plan beaten by exhaustive route assignment")

    # rerouting backups are the shortest link-disjoint choices and the
    # shared spare equals an exhaustive per-failure recomputation
    by_flow = {pr.flow_id: pr for pr in sr_plan.pairs}
    spare = np.zeros(topo.m, dtype=np.int64)
    for fid, pr in by_flow.items():
        wl = set(pr.working.links)
        opts = [
            d
            for d, _, ls in all_simple_paths(topo, pr.working.src, pr.working.dst)
            if wl.isdisjoint(ls)
        ]
        if pr.backup.length_mm != min(opts):
            failures.append(f"flow {fid} backup not shortest disjoint")
    for lid in range(topo.m):
        need = np.zeros(topo.m, dtype=np.int64)
        for fid, pr in by_flow.items():
            if lid in pr.working.links:
                for bl in pr.backup.links:
                    need[bl] += sr_plan.flows[fid].rate
        spare = np.maximum(spare, need)
    if not np.array_equal(spare, sr_plan.spare_cap):
        failures.append("rerouting spare disagrees with failure enumeration")

    # ring planner output matches the optimal copy vector
    opt_spare = _pc_optimum_spare_mm(topo, pc_plan.working_cap)
    if opt_spare != pc_plan.spare_capacity_mm(topo):
        failures.append(f"ring spare {pc_plan.spare_capacity_mm(topo)} vs optimum {opt_spare}")

    if not (dc_total < sr_total and dc_total < pc_total):
        failures.append(f"ordering broken: {dc_total} vs {sr_total}, {pc_total}")
    _verdict("6 worked example capacity ordering", failures)


# --- routing primitives vs full enumeration ---------------------------------


def _check_graph(topo, failures, tag, pairs=None):
    if pairs is None:
        pairs = [(s, t) for s in range(topo.n) for t in range(topo.n) if s != t]
    for s, t in pairs:
        ref = brute_shortest(topo, s, t)
        got = shortest_path(topo, s, t)
        if ref is None:
            ok = got is None
        else:
            ok = got is not None and (got.length_mm, got.nodes) == ref[:2]
        if not ok:
            failures.append(f"{tag}: shortest {s}->{t}")
            return
    for s, t in sorted({(min(s, t), max(s, t)) for s, t in pairs}):
        ref = brute_disjoint_pair_total(topo, s, t)
        got = disjoint_routes(topo, [s, s], t)
        if (ref is None) != (got is None):
            failures.append(f"{tag}: pair existence {s}<->{t}")
            return
        if got is not None:
            p, q = got
            if (
                set(p.links) & set(q.links)
                or (p.src, p.dst) != (s, t)
                or (q.src, q.dst) != (s, t)
                or p.length_mm + q.length_mm != ref
            ):
                failures.append(f"{tag}: pair {s}<->{t}")
                return
    found = {c.nodes: c.length_mm for c in rings(topo, enumerate_cycles(topo))}
    if found != brute_cycles(topo):
        failures.append(f"{tag}: cycle enumeration")


def test_7_routing_matches_exhaustive_enumeration():
    failures = []
    # every connected labeled graph on 3..5 nodes, two weight profiles
    for n in (3, 4, 5):
        universe = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for mask in range(1 << len(universe)):
            edges = [e for i, e in enumerate(universe) if mask >> i & 1]
            if len(edges) < n - 1:
                continue
            adj = [[] for _ in range(n)]
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            seen = {0}
            stack = [0]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != n:
                continue
            rng = np.random.default_rng((n, mask))
            for dists in (
                [1] * len(edges),
                [int(d) for d in rng.integers(1, 8, size=len(edges))],
            ):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    topo = Topology.from_edge_list(
                        [(a, b, d) for (a, b), d in zip(edges, dists)]
                    )
                _check_graph(topo, failures, f"n={n} mask={mask}")
                if failures:
                    _verdict("7 routing matches exhaustive enumeration", failures)

    # random sparse graphs at 6..8 nodes, sampled endpoint pairs
    for n in (6, 7, 8):
        for seed in range(25):
            rng = np.random.default_rng((n, seed, 99))
            edges = {(i, i + 1) for i in range(n - 1)}
            while len(edges) < n + 4:
                a, b = sorted(rng.choice(n, size=2, replace=False))
                edges.add((int(a), int(b)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                topo = Topology.from_edge_list(
                    [(a, b, int(rng.integers(1, 10))) for a, b in sorted(edges)]
                )
            pairs = [
                tuple(int(x) for x in rng.choice(n, size=2, replace=False))
                for _ in range(6)
            ]
            _check_graph(topo, failures, f"rand n={n} seed={seed}", pairs)
    _verdict("7 routing matches exhaustive enumeration", failures)


def test_8_reconstruction_capacity_window():
    failures = []
    for name in RECONSTRUCTIONS:
        _, runs = _fixture_runs(name)
        pct = runs["dc"][2].scp_pct
        if not 60.0 <= pct <= 130.0:
            failures.append(f"{name}: dc scp {pct:.3f} outside [60, 130]")
        for c in SWITCH_GRID:
            dc, pc, sr = (runs[s][2].rt_s[c] for s in ("dc", "pc", "sr"))
            if not (dc < pc < sr):
                failures.append(f"{name}: rt ordering broken at C={c}")
        for scheme in ("sr", "pc"):
            q = [runs[scheme][2].qor[c] for c in SWITCH_GRID]
            if any(a < b for a, b in zip(q, q[1:])):
                failures.append(f"{name}: {scheme} qor rises with C")
    _verdict("8 reconstruction capacity window", failures)


def test_9_threshold_ladder_degeneration_and_monotonicity(monkeypatch):
    failures = []
    ladder = coding._THRESHOLDS

    def plan_at(topo, flows, thresholds):
        monkeypatch.setattr(coding, "_THRESHOLDS", thresholds)
        return algorithm_one(topo, flows)

    # equal-length disjoint corridors: pure 1+1 at exactly double capacity
    sc = load_fixture("fig1-star")
    plan = plan_at(sc.topology, sc.demands, ((1, 1),))
    if plan.groups:
        failures.append("unit thresholds still built parity groups")
    pct = scp(
        plan.total_capacity_mm(sc.topology),
        shortest_working_capacity_mm(sc.topology, sc.demands),
    )
    if pct != 100.0:
        failures.append(f"fig1-star pure 1+1 scp {pct!r}")

    for seed in range(50):
        topo, flows = random_scenario(seed)
        plan = plan_at(topo, flows, ((1, 1),))
        if plan.groups:
            failures.append(f"seed {seed}: unit thresholds admitted a group")
        if plan.partial:
            failures.append(f"seed {seed}: biconnected instance left unprotected")
        pct = scp(
            plan.total_capacity_mm(topo),
            shortest_working_capacity_mm(topo, flows),
        )
        if pct < 100.0 - 1e-9:
            failures.append(f"seed {seed}: pure 1+1 scp {pct:.3f} < 100")
        # the ladder from 1.6 up to each of its rungs
        totals = [
            plan_at(topo, flows, ladder[: k + 1]).total_capacity_mm(topo)
            for k in range(len(ladder))
        ]
        if any(a < b for a, b in zip(totals, totals[1:])):
            failures.append(f"seed {seed}: total rises along ladder {totals}")
    _verdict("9 threshold ladder degeneration and monotonicity", failures)


def test_10_decode_quality_of_recovery_dominance():
    # the paper's conclusion: parity groups give the best QoR overall
    failures = []
    for name in FIXTURES:
        _, runs = _fixture_runs(name)
        for c in SWITCH_GRID:
            dc, sr, pc = (runs[s][2].qor[c] for s in ("dc", "sr", "pc"))
            if dc < sr or dc < pc:
                failures.append(f"{name} C={c}: qor dc={dc:.4f} sr={sr:.4f} pc={pc:.4f}")
    _verdict("10 decode quality of recovery dominance", failures)
