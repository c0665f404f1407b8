#!/usr/bin/env python3
"""Timing of the Dijkstra and GF(2)-rank kernels, cycle enumeration and scenario loading.

Usage: python benchmarks/bench_kernels.py [--repeats N] [--seed S] [--skip-end-to-end]

Prints best and mean reference milliseconds per row: each repeat is timed
through ``divbench/run.py``'s ``Clock``, which scales its wall time by
how fast the host ran a fixed piece of work right before and after it,
so rows taken on a loaded or a slower host, or at another commit, read
on one scale. divbench is only read: no file under it is written. The
kernel rows:

- ``dijkstra``: fresh full trees (no link blocked) through
  ``Topology.distances`` on seeded ring-plus-chord graphs of 20, 60 and
  120 nodes.
- ``dijkstra-until``: trees on the same graphs with a random link
  blocked, each grown only until one random target is settled (the
  shape of a backup-path search).
- ``gf2_rank``: the rank on random binary matrices from decode-matrix
  size (5x4) up.
- ``cycles``: cycle enumeration on one 16-node, 30-link graph, the shape
  of the benchmark's rings meshes (2,054 cycles of at most 12 hops at
  the default seed).
- ``load`` and ``load-40n``: ``load_scenario`` on the largest bundled
  fixture (``uslong-reconstruction``, 88 lines) and on the canonical
  dump of a 40-node, 56-link graph with 48 demands, the size of the
  benchmark's backbone meshes, both in the flow row layout.
- ``load-block``: that same scenario dumped by ``yaml.safe_dump`` in
  block style, which the row reader takes too.
- ``load-pyyaml``: the same dump with ``indent=4``, a layout the row
  reader declines, so ``yaml.safe_load`` builds it.
- ``dc-dense``: a dc plan (``algorithm_one``) of ``dense_instance(0)``,
  an 18-node, 30-link graph with 14 unit demands into one node, more
  than the planner's dense-destination limit of 12, so its hop guard
  decides which sources are combined.

The end-to-end rows, left out with ``--skip-end-to-end``:

- ``import-cli``: the time a fresh interpreter takes to run
  ``import divprotect.cli``, less the time it takes to run ``pass``.
- ``plan+sweep``: a full dc plan and failure sweep of the largest
  bundled fixture.
- ``sr-uslong``: an sr plan (``sr_design``) and its failure sweep of
  ``uslong-reconstruction``, the bundled fixture with the most links per
  demand, on a fresh copy of its topology in every repeat.
- ``dc-40n``: a dc plan of a seeded 40-node, 80-link graph with 60 unit
  demands over 5 destinations.
- ``dc-k6``: a dc plan of K6 (unit spans) with one 0->1 demand of rate
  70, whose 70 unit flows make 974,050 candidate groups per threshold
  over three source tuples.
- ``routes-40n``: ``disjoint_routes`` on the ``dc-40n`` graph for 200
  seeded sets of 2-5 sources of one destination's demands (the working
  sets the dc planner routes), with each destination's shared tree
  grown by the warmup.
- ``groups-40n``: ``find_group`` on that graph for 200 seeded sets of
  2-4 of one destination's demands, each with the ``max_mm`` ceiling
  the dc planner would pass it (the candidate groups it prices).
- ``sr-40n``: an sr plan of a 40-node, 56-link graph with 48 unit
  demands to distinct random nodes, the size of the benchmark's
  backbone meshes. This row and ``dc-40n`` run on a fresh copy of the
  topology in every repeat, so no shared tree or route carries over.
- ``pc-40n-sparse``: a pc plan of another graph and demand set of the
  ``sr-40n`` shape, drawn after it: a sparse mesh (322 cycles at the
  default seed) whose plan buys 34 copies, so the greedy's purchases
  weigh about as much as the cycle enumeration.
- ``pc-40n``: a pc plan (``pc_design``) of another graph and demand set
  of the ``dc-40n`` shape.
- ``sweep-100n``: the failure sweeps of the sr and pc plans of a
  100-node, 200-link graph with 150 unit demands over 5 destinations,
  with both plans built before the timer starts.
- ``pc-100n``: a pc plan of another graph and demand set of that shape,
  whose 200-link cycle masks span four 64-bit words.

``dc-k6`` and ``dc-40n`` are by far the slowest rows.
"""
import argparse
import importlib.util
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

from divprotect import coding, kernels, routing
from divprotect.cli import fixture_path
from divprotect.coding import algorithm_one, find_group
from divprotect.failsim import sweep
from divprotect.pcycle import enumerate_cycles, pc_design
from divprotect.routing import disjoint_routes
from divprotect.source_reroute import sr_design
from divprotect.topology import Flow, Scenario, Topology, dump_scenario, load_scenario


def random_graph(rng, n: int, extra: int) -> Topology:
    perm = [int(v) for v in rng.permutation(n)]
    edges = set()
    for i in range(n):
        a, b = perm[i], perm[(i + 1) % n]
        edges.add((min(a, b), max(a, b)))
    cap = n * (n - 1) // 2
    while len(edges) < min(cap, n + extra):
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    rows = [(a, b, int(rng.integers(1, 50))) for a, b in sorted(edges)]
    return Topology.from_edge_list(rows)


def random_scenario_text(rng, n: int, extra: int, demands: int) -> str:
    flows = []
    while len(flows) < demands:
        src, dst = (int(v) for v in rng.integers(0, n, size=2))
        if src != dst:
            flows.append(Flow(src, dst, int(rng.integers(1, 4))))
    return dump_scenario(Scenario(random_graph(rng, n, extra), flows))


def dc_instance(rng, n: int, demands: int, destinations: int = 5):
    """A 2n-link graph with unit demands dealt round-robin to randomly
    chosen destinations from random sources."""
    topo = random_graph(rng, n, n)
    dsts = [int(d) for d in rng.choice(n, size=destinations, replace=False)]
    flows = []
    for i in range(demands):
        dst = dsts[i % destinations]
        src = int(rng.integers(0, n))
        while src == dst:
            src = int(rng.integers(0, n))
        flows.append(Flow(src, dst, 1))
    return topo, flows


def dense_instance(seed: int, n: int = 18, m: int = 30, flows: int = 14):
    """An n-node, m-link graph (a random ring, at least six links at node
    0, then random chords; 1-9 km spans) with ``flows`` unit demands into
    node 0 from random sources."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[(i + 1) % n]))) for i in range(n)}
    while sum(0 in e for e in edges) < 6:
        edges.add((0, rng.randrange(1, n)))
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    topo = Topology.from_edge_list(
        [(a, b, rng.randint(1, 9)) for a, b in sorted(edges)], unit="km"
    )
    return topo, [Flow(rng.randrange(1, n), 0, 1) for _ in range(flows)]


def planned(design, topo, flows):
    """``design``'s plan on a fresh copy of topo: nothing is shared yet."""
    return design(Topology(topo.n, [(l.a, l.b, l.length_mm) for l in topo.links]), flows)


def sr_instance(rng, n: int, m: int, demands: int):
    """An m-link graph with unit demands between random node pairs."""
    topo = random_graph(rng, n, m - n)
    flows = []
    while len(flows) < demands:
        src, dst = (int(v) for v in rng.integers(0, n, size=2))
        if src != dst:
            flows.append(Flow(src, dst, 1))
    return topo, flows


def route_calls(instance, seed: int, per_dst: int = 40):
    """``disjoint_routes`` calls on a ``dc_instance``'s topology: for each
    destination, ``per_dst`` sets of 2-5 of its demands' sources, drawn
    without replacement, so a source repeats as often as its demands do."""
    topo, flows = instance
    rng = np.random.default_rng([seed, 2])
    calls = []
    for dst in sorted({f.dst for f in flows}):
        srcs = [f.src for f in flows if f.dst == dst]
        for _ in range(per_dst):
            picked = rng.choice(len(srcs), size=int(rng.integers(2, 6)), replace=False)
            calls.append((topo, [srcs[int(i)] for i in picked], dst))
    return calls


def group_calls(instance, seed: int, per_dst: int = 40):
    """``find_group`` calls on a ``dc_instance``'s topology: for each
    destination, ``per_dst`` sets of 2-4 of its demands, drawn without
    replacement, each with the ceiling ``coding._plan_destination``
    passes: the loosest threshold's multiple of the set's shortest-path
    floor, or what 1+1 pairs would cost the set if that is less."""
    topo, flows = instance
    rng = np.random.default_rng([seed, 3])
    num, den = coding._THRESHOLDS[-1]
    calls = []
    for dst in sorted({f.dst for f in flows}):
        mine = [f for f in flows if f.dst == dst]
        floor = topo.distances(dst)
        for _ in range(per_dst):
            picked = rng.choice(len(mine), size=int(rng.integers(2, 5)), replace=False)
            members = [mine[int(i)] for i in picked]
            pairs_mm = 0
            for f in members:
                w, b = routing.protected_pair(topo, f.src, dst)
                pairs_mm += w.length_mm + b.length_mm if b is not None else 1 << 62
            max_mm = min(sum(floor[f.src] for f in members) * num // den, pairs_mm)
            calls.append((topo, members, max_mm))
    return calls


def bench(clock, fn, calls, repeats: int) -> tuple[float, float]:
    """Best and mean reference seconds of ``repeats`` runs of every call,
    after one warmup run."""
    for args in calls:  # warmup
        fn(*args)

    def once():
        for args in calls:
            fn(*args)

    times = [clock.time(once)[1] for _ in range(repeats)]
    return min(times), statistics.mean(times)


def plan_and_sweep(sc) -> None:
    sweep(sc.topology, algorithm_one(sc.topology, sc.demands))


def sr_and_sweep(topo, flows) -> None:
    sweep(topo, sr_design(topo, flows))


def sweep_plans(topo, plans) -> None:
    for plan in plans:
        sweep(topo, plan)


def run_child(env, code: str) -> None:
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def import_cli_s(timed) -> tuple[float, float]:
    """Best and mean reference seconds of ``import divprotect.cli`` in a
    fresh interpreter, over those of a bare one, as ``timed`` takes them."""
    src = str(Path(kernels.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    best, mean = timed(run_child, [(env, "import divprotect.cli")])
    bare_best, bare_mean = timed(run_child, [(env, "pass")])
    return best - bare_best, mean - bare_mean


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--skip-end-to-end", action="store_true")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # no __pycache__ under divbench
    script = Path(__file__).resolve().parent.parent / "divbench" / "run.py"
    spec = importlib.util.spec_from_file_location("divbench_run", script)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    clock = run.Clock()

    def timed(fn, calls):
        return bench(clock, fn, calls, args.repeats)

    rng = np.random.default_rng(args.seed)

    graphs = [random_graph(rng, n, extra) for n in (20, 60, 120) for extra in (n,)]
    dij_calls = [(t, 0, t.blocked_mask()) for t in graphs for _ in range(10)]
    # the rows added later draw from their own generator, so every other
    # row keeps the instances it had
    late = np.random.default_rng([args.seed, 1])
    until_calls = [
        (t, int(late.integers(0, t.n)), t.blocked_mask([int(late.integers(0, t.m))]),
         (int(late.integers(0, t.n)),))
        for t in graphs
        for _ in range(10)
    ]
    gf2_calls = [
        (rng.integers(0, 2, size=(r, c), dtype=np.uint8).tolist(),)
        for r, c in ((5, 4), (24, 32), (64, 96))
        for _ in range(10)
    ]
    cycle_calls = [(random_graph(rng, 16, 14),)]
    with open(fixture_path("uslong-reconstruction"), encoding="utf-8") as fh:
        uslong = fh.read()
    mesh40 = random_scenario_text(rng, 40, 16, 48)
    block40 = yaml.safe_dump(yaml.safe_load(mesh40), sort_keys=False)
    indented40 = yaml.safe_dump(yaml.safe_load(mesh40), sort_keys=False, indent=4)

    rows = [
        ("dijkstra", *timed(Topology.distances, dij_calls)),
        ("dijkstra-until", *timed(Topology.distances, until_calls)),
        ("gf2_rank", *timed(kernels.gf2_rank, gf2_calls)),
        ("cycles", *timed(enumerate_cycles, cycle_calls)),
        ("load", *timed(load_scenario, [(uslong,)])),
        ("load-40n", *timed(load_scenario, [(mesh40,)])),
        ("load-block", *timed(load_scenario, [(block40,)])),
        ("load-pyyaml", *timed(load_scenario, [(indented40,)])),
        ("dc-dense", *timed(planned, [(algorithm_one, *dense_instance(0))])),
    ]
    if not args.skip_end_to_end:
        rows.append(("import-cli", *import_cli_s(timed)))
        sc = load_scenario(uslong)
        rows.append(("plan+sweep", *timed(plan_and_sweep, [(sc,)])))
        rows.append(("sr-uslong", *timed(planned, [(sr_and_sweep, sc.topology, sc.demands)])))
        dc40 = dc_instance(rng, 40, 60)
        rows.append(("dc-40n", *timed(planned, [(algorithm_one, *dc40)])))
        k6 = Topology.from_edge_list([(a, b, 1) for a in range(6) for b in range(a + 1, 6)])
        rows.append(("dc-k6", *timed(planned, [(algorithm_one, k6, [Flow(0, 1, 70)])])))
        rows.append(("routes-40n", *timed(disjoint_routes, route_calls(dc40, args.seed))))
        rows.append(("groups-40n", *timed(find_group, group_calls(dc40, args.seed))))
        rows.append(("sr-40n", *timed(planned, [(sr_design, *sr_instance(late, 40, 56, 48))])))
        rows.append(("pc-40n-sparse", *timed(pc_design, [sr_instance(late, 40, 56, 48)])))
        rows.append(("pc-40n", *timed(pc_design, [dc_instance(rng, 40, 60)])))
        topo, flows = dc_instance(rng, 100, 150)
        plans = [sr_design(topo, flows), pc_design(topo, flows)]
        rows.append(("sweep-100n", *timed(sweep_plans, [(topo, plans)])))
        rows.append(("pc-100n", *timed(pc_design, [dc_instance(rng, 100, 150)])))

    print(f"{'kernel':<16}{'best ref ms':>12}{'mean ref ms':>12}")
    for kernel, best, mean in rows:
        print(f"{kernel:<16}{best * 1e3:>12.3f}{mean * 1e3:>12.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
