"""Tests of the benchmark itself: python3 -m pytest divbench -q"""
import json
import random
import shutil
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from divprotect import cli  # noqa: E402

SHAPES = [(*shape, demands) for table in (run.GENERATED, run.TINY)
          for _, shape, demands, _ in table.values()]


def hop_distance(adj, src: int, dst: int, skip: tuple[int, int] | None = None) -> int:
    """BFS hops from src to dst without the undirected edge ``skip``;
    -1 when unreachable."""
    seen = {src: 0}
    q = deque([src])
    while q:
        v = q.popleft()
        if v == dst:
            return seen[v]
        for w in adj[v]:
            if skip is not None and {v, w} == set(skip):
                continue
            if w not in seen:
                seen[w] = seen[v] + 1
                q.append(w)
    return -1


def links_of(doc_text: str) -> tuple[int, list[tuple[int, int]]]:
    """Node count and (a, b) links of a scenario document."""
    doc = gen.yaml.safe_load(doc_text)
    return len(doc["topology"]["nodes"]), [(l["a"], l["b"]) for l in doc["topology"]["links"]]


def max_detour_hops(n: int, edges) -> int:
    """Hops of the longest cycle needed to put every link on a cycle:
    1 + the worst endpoint-to-endpoint hop count with the link removed,
    or 0 when some link is a bridge (the mesh is not 2-edge-connected)."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    worst = 0
    for a, b in edges:
        h = hop_distance(adj, a, b, skip=(a, b))
        if h < 0:
            return 0
        worst = max(worst, h + 1)
    return worst


@pytest.mark.parametrize("shape", SHAPES)
def test_generator_is_deterministic_per_seed(shape):
    a = gen.generated("x", random.Random(5), *shape)
    b = gen.generated("x", random.Random(5), *shape)
    c = gen.generated("x", random.Random(6), *shape)
    assert a.scenario == b.scenario and a.stats == b.stats
    assert a.scenario != c.scenario


@pytest.mark.parametrize("shape", SHAPES)
def test_generated_meshes_are_2_edge_connected_with_short_cycles(shape):
    for seed in range(10):
        inst = gen.generated("x", random.Random(seed), *shape)
        n, edges = links_of(inst.scenario)
        assert (n, len(edges)) == shape[:2]
        # 0 would mean a bridge; at most 5 keeps every link on a cycle
        # the p-cycle planner enumerates
        assert 3 <= max_detour_hops(n, edges) <= 5


@pytest.mark.parametrize("workload", ["cluster", "backbone"])
def test_full_size_instances_build_for_many_seeds(workload):
    for seed in range(1, 41):
        assert len(run.build_instances(workload, seed, tiny=False)) == run.GENERATED[workload][0]


@pytest.mark.parametrize("seed", range(4))
def test_cycle_count_matches_the_planner(seed):
    from divprotect.pcycle import enumerate_cycles
    from divprotect.topology import load_scenario

    inst = gen.generated("x", random.Random(seed), 12, 22, 6, ("spread", 2))
    topo = load_scenario(inst.scenario).topology
    links = [(l.a, l.b, 0) for l in topo.links]
    assert gen.count_cycles(topo.n, links, 12) == len(enumerate_cycles(topo))


def test_cycle_band_is_met():
    inst = gen.generated("x", random.Random(3), 16, 30, 8, ("spread", 4), (1700, 1880))
    n, edges = links_of(inst.scenario)
    assert 1700 <= gen.count_cycles(n, [(a, b, 0) for a, b in edges], 12) <= 1880


def test_clustered_destinations_meet_the_degree_sum():
    inst = gen.generated("x", random.Random(3), 18, 30, 4, ("clustered", 4, 5, 14))
    n, edges = links_of(inst.scenario)
    degree = [sum(v in e for e in edges) for v in range(n)]
    dsts = {d["dst"] for d in gen.yaml.safe_load(inst.scenario)["demands"]}
    assert len(dsts) == 4 and sum(degree[d] for d in dsts) == 14


def test_fixture_variant_keeps_network_destinations_and_rates():
    text = Path(cli.fixture_path("cost239-reconstruction")).read_text()
    var = gen.fixture_variant("v", random.Random(1), text, 0.25)
    base, new = gen.yaml.safe_load(text), gen.yaml.safe_load(var.scenario)
    assert new["topology"] == base["topology"]
    assert [(d["dst"], d.get("rate", 1)) for d in base["demands"]] == [
        (d["dst"], d["rate"]) for d in new["demands"]
    ]
    assert all(d["src"] != d["dst"] for d in new["demands"])
    moved = [(a["src"], b["src"]) for a, b in zip(base["demands"], new["demands"])
             if a["src"] != b["src"]]
    assert 1 <= len(moved) <= round(0.25 * len(base["demands"]))
    links = {frozenset((l["a"], l["b"])) for l in base["topology"]["links"]}
    assert all(frozenset(pair) in links for pair in moved)


def _run_cli(argv, out, call=cli.main):
    assert call([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def test_trace_wrappers_change_no_output_and_are_restored(tmp_path):
    originals = [getattr(mod, attr) for mod, attr, _ in layers.LAYERS]
    argvs = [
        ["compare", "--scenario", "example2"],
        ["plan", "--scenario", "cost239-reconstruction"],
    ]
    plain = [_run_cli(a, tmp_path / "o.txt") for a in argvs]
    tracer = layers.Tracer()
    with tracer.installed():
        assert getattr(layers.LAYERS[0][0], layers.LAYERS[0][1]) is not originals[0]
        traced = [_run_cli(a, tmp_path / "o.txt", tracer.invoke) for a in argvs]
    assert traced == plain
    assert [getattr(mod, attr) for mod, attr, _ in layers.LAYERS] == originals

    totals = tracer.layer_totals()
    assert totals[layers.ROOT][0] == len(argvs)
    assert totals["kernels.dijkstra_distances"][0] > 0
    # self times partition the root spans' durations
    roots = sum(e - s for name, s, e, parent, _ in tracer.spans if parent < 0)
    assert sum(t for _, t in totals.values()) == pytest.approx(roots)


def test_patched_restores_when_the_body_raises():
    orig = cli.sweep
    with pytest.raises(RuntimeError):
        with layers.patched([(cli, "sweep", lambda fn: None)]):
            assert cli.sweep is None
            raise RuntimeError
    assert cli.sweep is orig


def test_attempts_count_pairs_and_a_pair_fails_once(tmp_path):
    inst = run.build_instances("fixtures", 3, tiny=True)
    runner = run.Runner("fixtures", inst, tmp_path, None)
    bad = inst[0].name

    def call(argv):
        return 1 if argv[0] == "plan" and argv[argv.index("--scenario") + 1] == bad else cli.main(argv)

    for _ in range(3):
        runner.run_pass(call)
    assert runner.attempted == len(inst) * len(runner.commands)
    assert runner.failed == 1


def test_clock_scales_wall_time_by_host_speed():
    clock = run.Clock()
    _, ref_s, wall = clock.time(lambda: time.sleep(0.05))
    assert wall >= 0.05
    assert ref_s == pytest.approx(wall / clock.slowdowns[-1])


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(cwd, *args):
    out = subprocess.run(
        [sys.executable, "divbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_named_metric(workload, trace):
    out = _result(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "divbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _result(tmp_path, "--workload", "fixtures", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
