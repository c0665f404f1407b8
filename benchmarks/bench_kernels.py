#!/usr/bin/env python3
"""Timing of the Dijkstra and GF(2)-rank kernels.

Usage: python benchmarks/bench_kernels.py [--repeats N] [--seed S] [--skip-end-to-end]

Dijkstra runs on seeded ring-plus-chord graphs of 20, 60 and 120 nodes;
the rank on random binary matrices from decode-matrix size (5x4) up.
The end-to-end row times a full dc plan and failure sweep of the largest
bundled fixture.
"""
import argparse
import statistics
import time

import numpy as np

from divprotect import kernels
from divprotect.cli import fixture_path
from divprotect.coding import algorithm_one
from divprotect.failsim import sweep
from divprotect.topology import Topology, load_scenario


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--skip-end-to-end", action="store_true")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)

    graphs = [random_graph(rng, n, extra) for n in (20, 60, 120) for extra in (n,)]
    dij_calls = [
        (t.adj_indptr, t.adj_node, t.adj_link, t.link_mm, 0,
         np.zeros(t.m, dtype=np.uint8))
        for t in graphs
        for _ in range(10)
    ]
    gf2_calls = [
        (rng.integers(0, 2, size=(r, c), dtype=np.uint8).tolist(),)
        for r, c in ((5, 4), (24, 32), (64, 96))
        for _ in range(10)
    ]

    rows = [
        ("dijkstra", *bench(kernels.dijkstra_distances, dij_calls, args.repeats)),
        ("gf2_rank", *bench(kernels.gf2_rank, gf2_calls, args.repeats)),
    ]
    if not args.skip_end_to_end:
        with open(fixture_path("uslong-reconstruction"), encoding="utf-8") as fh:
            sc = load_scenario(fh.read())
        rows.append(("plan+sweep", *bench(plan_and_sweep, [(sc,)], args.repeats)))

    print(f"{'kernel':<12}{'best ms':>10}{'mean ms':>10}")
    for kernel, best, mean in rows:
        print(f"{kernel:<12}{best * 1e3:>10.3f}{mean * 1e3:>10.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
