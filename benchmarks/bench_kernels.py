#!/usr/bin/env python3
"""Timing of the Dijkstra and GF(2)-rank kernels, cycle enumeration and scenario loading.

Usage: python benchmarks/bench_kernels.py [--repeats N] [--seed S] [--skip-end-to-end]

Dijkstra runs on seeded ring-plus-chord graphs of 20, 60 and 120 nodes;
the rank on random binary matrices from decode-matrix size (5x4) up.
Cycle enumeration runs on one 16-node, 30-link graph, the shape of the
benchmark's rings meshes (2,054 cycles of at most 12 hops at the
default seed).
The load rows parse and validate the largest bundled fixture (88 lines)
and the canonical dump of a 40-node, 56-link graph with 48 demands, the
size of the benchmark's backbone meshes, both in the flow row layout,
(``load-block``) that same scenario dumped by ``yaml.safe_dump`` in block
style, which the row reader takes too, and (``load-pyyaml``) the same
dump with ``indent=4``, a layout the row reader declines, so PyYAML's
composer builds it.
The end-to-end rows time a full dc plan and failure sweep of the largest
bundled fixture, a dc plan (``algorithm_one``) of a 40-node, 80-link
graph with 60 unit demands over 5 destinations, a pc plan
(``pc_design``) of another graph and demand set of that shape, and
``sweep-100n``: the failure sweeps of the sr and pc plans of a 100-node,
200-link graph with 150 unit demands over 5 destinations, with both
plans built before the timer starts, and ``pc-100n``: a pc plan of
another graph and demand set of that shape, whose 200-link cycle masks
span four 64-bit words. ``import-cli`` is the time a fresh interpreter
takes to run ``import divprotect.cli``, less the time it takes to run
``pass``.
"""
import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from divprotect import kernels
from divprotect.cli import fixture_path
from divprotect.coding import algorithm_one
from divprotect.failsim import sweep
from divprotect.pcycle import enumerate_cycles, pc_design
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


def bench(fn, calls, repeats: int) -> tuple[float, float]:
    for args in calls:  # warmup
        fn(*args)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times), statistics.mean(times)


def plan_and_sweep(sc) -> None:
    sweep(sc.topology, algorithm_one(sc.topology, sc.demands))


def sweep_plans(topo, plans) -> None:
    for plan in plans:
        sweep(topo, plan)


def run_child(env, code: str) -> None:
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def import_cli_s(repeats: int) -> tuple[float, float]:
    """Best and mean seconds of ``import divprotect.cli`` in a fresh
    interpreter, over those of a bare one."""
    src = str(Path(kernels.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    best, mean = bench(run_child, [(env, "import divprotect.cli")], repeats)
    bare_best, bare_mean = bench(run_child, [(env, "pass")], repeats)
    return best - bare_best, mean - bare_mean


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--skip-end-to-end", action="store_true")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)

    graphs = [random_graph(rng, n, extra) for n in (20, 60, 120) for extra in (n,)]
    dij_calls = [
        (t.adj_indptr, t.adj_node, t.adj_link, t.link_mm, 0, t.blocked_mask())
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
        ("dijkstra", *bench(kernels.dijkstra_distances, dij_calls, args.repeats)),
        ("gf2_rank", *bench(kernels.gf2_rank, gf2_calls, args.repeats)),
        ("cycles", *bench(enumerate_cycles, cycle_calls, args.repeats)),
        ("load", *bench(load_scenario, [(uslong,)], args.repeats)),
        ("load-40n", *bench(load_scenario, [(mesh40,)], args.repeats)),
        ("load-block", *bench(load_scenario, [(block40,)], args.repeats)),
        ("load-pyyaml", *bench(load_scenario, [(indented40,)], args.repeats)),
    ]
    if not args.skip_end_to_end:
        rows.append(("import-cli", *import_cli_s(args.repeats)))
        sc = load_scenario(uslong)
        rows.append(("plan+sweep", *bench(plan_and_sweep, [(sc,)], args.repeats)))
        rows.append(("dc-40n", *bench(algorithm_one, [dc_instance(rng, 40, 60)], args.repeats)))
        rows.append(("pc-40n", *bench(pc_design, [dc_instance(rng, 40, 60)], args.repeats)))
        topo, flows = dc_instance(rng, 100, 150)
        plans = [sr_design(topo, flows), pc_design(topo, flows)]
        rows.append(("sweep-100n", *bench(sweep_plans, [(topo, plans)], args.repeats)))
        rows.append(("pc-100n", *bench(pc_design, [dc_instance(rng, 100, 150)], args.repeats)))

    print(f"{'kernel':<12}{'best ms':>10}{'mean ms':>10}")
    for kernel, best, mean in rows:
        print(f"{kernel:<12}{best * 1e3:>10.3f}{mean * 1e3:>10.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
