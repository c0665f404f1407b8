"""Shared test utilities: fixture loading, randomized instances, and
brute-force oracles kept deliberately independent of the library's
algorithms (different enumeration strategies, no shared code paths)."""
from itertools import combinations, permutations

import numpy as np

from divprotect.cli import fixture_path
from divprotect.topology import Flow, Scenario, Topology, load_scenario


def load_fixture(name: str) -> Scenario:
    path = fixture_path(name)
    assert path is not None, f"missing bundled fixture {name}"
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def random_scenario(seed: int, max_nodes: int = 10, max_links: int = 20,
                    max_flows: int = 8):
    """Random biconnected instance: a Hamiltonian cycle (which already
    makes the graph 2-connected) plus random chords, integer-km spans,
    and unit-rate demands biased toward shared destinations."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, max_nodes + 1))
    perm = [int(v) for v in rng.permutation(n)]
    edges = set()
    for i in range(n):
        a, b = perm[i], perm[(i + 1) % n]
        edges.add((min(a, b), max(a, b)))
    cap = min(max_links, n * (n - 1) // 2)
    target = int(rng.integers(n, cap + 1))
    while len(edges) < target:
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    rows = [(a, b, int(rng.integers(1, 10))) for a, b in sorted(edges)]
    topo = Topology.from_edge_list(rows, unit="km")

    nf = int(rng.integers(1, max_flows + 1))
    flows = []
    for _ in range(nf):
        if flows and rng.random() < 0.5:
            dst = flows[-1].dst  # encourage groupable clusters
        else:
            dst = int(rng.integers(0, n))
        src = int(rng.integers(0, n))
        while src == dst:
            src = int(rng.integers(0, n))
        flows.append(Flow(src, dst, 1))
    return topo, flows


def all_simple_paths(topo: Topology, src: int, dst: int, excluded=frozenset()):
    """Every simple src->dst path as (length_mm, node tuple, link tuple)."""
    out = []
    stack = [(src, (src,), (), 0)]
    while stack:
        v, nodes, links, dist = stack.pop()
        if v == dst:
            out.append((dist, nodes, links))
            continue
        for w, lid in topo.neighbors(v):
            if lid in excluded or w in nodes:
                continue
            stack.append((w, nodes + (w,), links + (lid,),
                          dist + topo.link_mm[lid]))
    return out


def brute_shortest(topo: Topology, src: int, dst: int):
    """Lexicographically smallest shortest path, by full enumeration."""
    cands = all_simple_paths(topo, src, dst)
    if not cands:
        return None
    return min(cands, key=lambda c: (c[0], c[1]))


def brute_disjoint_pair_total(topo: Topology, src: int, dst: int):
    """Minimum combined length of two link-disjoint paths, or None."""
    cands = all_simple_paths(topo, src, dst)
    best = None
    for (la, _, ka), (lb, _, kb) in combinations(cands, 2):
        if set(ka) & set(kb):
            continue
        if best is None or la + lb < best:
            best = la + lb
    return best


def brute_cycles(topo: Topology):
    """All simple cycles as canonical rings, by circular-order search
    over node subsets (independent of any DFS strategy)."""
    found = {}
    nodes = range(topo.n)
    for k in range(3, topo.n + 1):
        for subset in combinations(nodes, k):
            anchor = subset[0]
            for order in permutations(subset[1:]):
                if order[0] > order[-1]:
                    continue  # one direction per ring
                ring = (anchor,) + order
                total = 0
                ok = True
                for i in range(k):
                    l = topo.link_between(ring[i], ring[(i + 1) % k])
                    if l is None:
                        ok = False
                        break
                    total += l.length_mm
                if ok:
                    found[ring] = total
    return found
