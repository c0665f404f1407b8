import numpy as np
import pytest

from divprotect import kernels, routing
from divprotect.routing import (
    disjoint_flow,
    disjoint_routes,
    path_from_root,
    shortest_path,
)
from divprotect.kernels import INF_MM
from divprotect.topology import Topology
from helpers import (
    brute_disjoint_total,
    fresh_tree,
    load_fixture,
    make_path,
    random_scenario,
    reference_disjoint_routes,
    unit_lengths,
)

FIXTURES = [
    "example2",
    "fig1-star",
    "cost239-reconstruction",
    "uslong-reconstruction",
    "synthetic-reconstruction",
]


def km(edges):
    return Topology.from_edge_list(edges, unit="km")


def test_shortest_path_example2():
    topo = load_fixture("example2").topology
    p = shortest_path(topo, 0, 3)
    assert p.nodes == (0, 1, 3)
    assert p.length_mm == 4_000_000
    assert shortest_path(topo, 1, 3).nodes == (1, 3)
    assert shortest_path(topo, 2, 3).nodes == (2, 3)
    assert shortest_path(topo, 4, 1).nodes == (4, 0, 1)


def test_shortest_path_breaks_ties_lexicographically():
    topo = load_fixture("fig1-star").topology
    # four equal 200 km spokes from 0 to 5; smallest interior node wins
    p = shortest_path(topo, 0, 5)
    assert p.nodes == (0, 1, 5)
    assert shortest_path(topo, 0, 5, excluded=p.links).nodes == (0, 2, 5)
    # diamond with equal sides: 0-1-3 beats 0-2-3
    topo = km([(0, 1, 5), (0, 2, 5), (1, 3, 5), (2, 3, 5)])
    assert shortest_path(topo, 0, 3).nodes == (0, 1, 3)
    assert shortest_path(topo, 3, 0).nodes == (3, 1, 0)


def test_shortest_path_respects_exclusions():
    topo = load_fixture("example2").topology
    p = shortest_path(topo, 0, 3, excluded=(0, 1))  # kill 0-1 and 1-3
    assert p.nodes == (0, 2, 3)
    assert shortest_path(topo, 1, 3, excluded=(1,)).nodes == (1, 2, 3)


def test_shortest_path_unreachable_and_degenerate():
    topo = km([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert shortest_path(topo, 0, 2, excluded=(1, 2)) is None
    with pytest.raises(ValueError):
        shortest_path(topo, 1, 1)


def test_shortest_distances_vector():
    topo = load_fixture("example2").topology
    d = topo.distances(0)
    assert list(d) == [0, 1_000_000, 2_000_000, 4_000_000, 2_000_000]
    d = topo.distances(0, topo.blocked_mask((0,)))
    assert d[1] == 4_000_000  # 0-2-1
    d = topo.distances(3, topo.blocked_mask((1, 3, 5)))
    assert d[4] == INF_MM


def _walk_fresh_tree(topo, src, dst, excluded=()):
    """Smallest-neighbour walk down a full tree from a direct kernel call,
    or None when the excluded links cut src off."""
    blocked = topo.blocked_mask(excluded)
    dist = fresh_tree(topo, dst, blocked)
    if dist[src] >= INF_MM:
        return None
    nodes = [src]
    while nodes[-1] != dst:
        v = nodes[-1]
        nodes.append(min(
            w for w, lid, mm in topo.adj_rows[v]
            if not blocked[lid] and dist[v] == mm + dist[w]
        ))
    return make_path(topo, nodes)


def test_unmasked_paths_from_shared_trees_match_fresh_trees():
    topos = [load_fixture(name).topology for name in FIXTURES]
    topos += [random_scenario(seed)[0] for seed in range(10)]
    for topo in topos:
        for dst in range(topo.n):
            for src in range(topo.n):
                if src != dst:
                    assert shortest_path(topo, src, dst) == _walk_fresh_tree(topo, src, dst)


def test_paths_off_partial_trees_match_full_trees():
    # shared trees are grown one source at a time, in a random order, and
    # masked ones stop at their source; unit lengths make ties everywhere
    rng = np.random.default_rng(11)
    topos = [random_scenario(seed, max_nodes=14, max_links=30)[0] for seed in range(20)]
    topos += [unit_lengths(t) for t in topos]
    masked = unreachable = 0
    for topo in topos:
        pairs = [(s, d) for d in range(topo.n) for s in range(topo.n) if s != d]
        for k in rng.permutation(len(pairs)):
            src, dst = pairs[k]
            assert shortest_path(topo, src, dst) == _walk_fresh_tree(topo, src, dst)
            excluded = [lid for lid in range(topo.m) if rng.random() < 0.25]
            want = _walk_fresh_tree(topo, src, dst, excluded)
            assert shortest_path(topo, src, dst, excluded) == want
            masked += 1
            unreachable += want is None
    assert masked > 2000 and unreachable > 0


def test_shared_trees_resume_and_skip_settled_targets(monkeypatch):
    topo = km([(v, v + 1, 1) for v in range(7)] + [(0, 7, 10)])
    want = tuple(fresh_tree(topo, 0, topo.blocked_mask()))
    calls = []
    real = kernels.dijkstra_distances
    monkeypatch.setattr(kernels, "dijkstra_distances", lambda *a: calls.append(a[6]) or real(*a))
    assert topo.distances(0, None, (2,))[:3] == (0, 1_000_000, 2_000_000)
    assert topo.distances(0, None, (1, 2))[:3] == (0, 1_000_000, 2_000_000)
    assert calls == [(2,)]  # every target settled: no kernel call
    assert topo.distances(0, None, (5,))[5] == 5_000_000
    full = topo.distances(0)
    assert calls == [(2,), (5,), None]
    assert full == want
    assert topo.distances(0) is full and topo.distances(0, None, (7,)) is full
    assert len(calls) == 3


def test_shared_trees_are_not_handed_out_mutable():
    topo = load_fixture("example2").topology
    before = shortest_path(topo, 0, 3)
    d = topo.distances(3, topo.blocked_mask())
    expected = list(d)
    d[:] = [0] * topo.n
    assert topo.distances(3, topo.blocked_mask()) == expected
    assert shortest_path(topo, 0, 3) == before
    assert isinstance(topo.distances(3), tuple)
    assert list(topo.distances(3)) == expected


def test_paths_read_off_a_source_tree_match_shortest_path():
    rng = np.random.default_rng(3)
    topos = [random_scenario(seed, max_nodes=12, max_links=24)[0] for seed in range(15)]
    topos += [unit_lengths(t) for t in topos]
    unreachable = 0
    for topo in topos:
        for _ in range(3):
            excluded = [lid for lid in range(topo.m) if rng.random() < 0.3]
            blocked = topo.blocked_mask(excluded)
            for src in range(topo.n):
                dist = topo.distances(src, blocked)
                for dst in range(topo.n):
                    if dst == src:
                        continue
                    want = shortest_path(topo, src, dst, excluded)
                    assert path_from_root(topo, dist, src, dst, blocked) == want
                    unreachable += want is None
    assert unreachable > 0
    with pytest.raises(ValueError):
        path_from_root(topos[0], topos[0].distances(0), 0, 0, topos[0].blocked_mask())


def test_hop_distances_ignore_lengths():
    topo = km([(0, 1, 100), (1, 2, 100), (0, 2, 1)])
    assert topo.hop_distances(0) == [0, 1, 1]


def test_disjoint_pair_example2():
    topo = load_fixture("example2").topology
    a, b = disjoint_routes(topo, [0, 0], 3)
    assert a.nodes == (0, 1, 3)
    assert b.nodes == (0, 2, 3)
    assert a.length_mm + b.length_mm == 9_000_000


def test_disjoint_pair_handles_trap():
    # the greedy trap: the unique shortest path 0-1-2-3 crosses the
    # middle rung, and removing its links disconnects 0 from 3, so
    # remove-and-reroute fails; augmentation re-splits it onto the two
    # expensive outer arms
    topo = km([(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 10), (0, 2, 10)])
    sp = shortest_path(topo, 0, 3)
    assert sp.nodes == (0, 1, 2, 3)
    assert shortest_path(topo, 0, 3, excluded=sp.links) is None
    pair = disjoint_routes(topo, [0, 0], 3)
    assert pair is not None
    a, b = pair
    assert not set(a.links) & set(b.links)
    assert {a.nodes, b.nodes} == {(0, 1, 3), (0, 2, 3)}
    assert a.length_mm + b.length_mm == 22_000_000


def test_disjoint_pair_none_across_bridge():
    topo = km([(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1), (4, 2, 1)])
    # 0 and 3 sit in different triangles joined at node 2: still fine
    assert disjoint_routes(topo, [0, 0], 3) is not None
    # but a pendant chain has a true bridge
    topo = km([(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
    assert disjoint_routes(topo, [0, 0], 3) is None


def test_disjoint_routes_same_source():
    topo = load_fixture("fig1-star").topology
    routes = disjoint_routes(topo, [0, 0, 0], 5)
    assert routes is not None
    assert len(routes) == 3
    used = [l for p in routes for l in p.links]
    assert len(used) == len(set(used))
    assert sorted(p.length_mm for p in routes) == [200_000_000] * 3
    # a fourth route exists (four spokes) but a fifth cannot
    assert disjoint_routes(topo, [0] * 4, 5) is not None
    assert disjoint_routes(topo, [0] * 5, 5) is None


def test_disjoint_routes_mixed_sources():
    topo = load_fixture("example2").topology
    routes = disjoint_routes(topo, [0, 1, 2], 3)
    assert routes is not None
    starts = sorted(p.src for p in routes)
    assert starts == [0, 1, 2]
    used = [l for p in routes for l in p.links]
    assert len(used) == len(set(used))
    for p in routes:
        assert p.dst == 3


def test_disjoint_routes_edge_cases():
    topo = km([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert disjoint_routes(topo, [], 2) == []
    with pytest.raises(ValueError):
        disjoint_routes(topo, [0, 2], 2)


def test_disjoint_routes_min_total_length():
    # two routes 0->3: optimum is 1+1+1 + 10 = 13 via re-split, while
    # greedy shortest-first would strand the second route on 1+20
    topo = km([
        (0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 10), (1, 2, 20),
    ])
    routes = disjoint_routes(topo, [0, 0], 3)
    total = sum(p.length_mm for p in routes)
    assert total == 13_000_000
    # a repeated source gets its shorter route first, also when its
    # lowest link id leads the longer way
    assert [p.nodes for p in routes] == [(0, 1, 3), (0, 2, 3)]
    topo = km([(0, 2, 5), (2, 3, 5), (0, 1, 1), (1, 3, 1)])
    routes = disjoint_routes(topo, [0, 0], 3)
    assert [p.nodes for p in routes] == [(0, 1, 3), (0, 2, 3)]


def _sparse_graph(seed: int, max_nodes: int = 12) -> Topology:
    """A random tree plus a few chords, 1-9 km spans: most links are
    bridges, so many disjoint route sets do not exist."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, max_nodes + 1))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(rng.integers(0, 4))):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    return km([(a, b, int(rng.integers(1, 10))) for a, b in sorted(edges)])


def _route_calls(topos, rng, per_topo):
    """(topo, sources, dst) with 1-5 sources drawn with repeats, none dst."""
    for topo in topos:
        for _ in range(per_topo):
            dst = int(rng.integers(0, topo.n))
            k = int(rng.integers(1, 6))
            others = [v for v in range(topo.n) if v != dst]
            yield topo, [others[int(i)] for i in rng.integers(0, len(others), size=k)], dst


def _reference_route_calls():
    """The seeded route calls checked against the Bellman-Ford reference."""
    topos = [random_scenario(seed)[0] for seed in range(60)]
    topos += [_sparse_graph(seed) for seed in range(40)]
    topos += [unit_lengths(t) for t in topos]
    return _route_calls(topos, np.random.default_rng(5), 6)


def test_disjoint_routes_match_bellman_ford_reference():
    # the Dijkstra keeps the parent the old in-place Bellman-Ford sweep
    # kept, so routes match it exactly, ties (unit lengths) included
    found = none = 0
    for topo, sources, dst in _reference_route_calls():
        want = reference_disjoint_routes(topo, sources, dst)
        assert disjoint_routes(topo, sources, dst) == want, (topo.links, sources, dst)
        found += want is not None and len(sources) > 2
        none += want is None
    assert found > 200 and none > 200


def test_disjoint_flow_holds_the_routes_links():
    # the flow's links, split, are the routes; their total length is the
    # routes' total, since a min-cost flow of positive lengths has no cycle
    found = none = 0
    for topo, sources, dst in _reference_route_calls():
        routes = disjoint_routes(topo, sources, dst)
        orient = disjoint_flow(topo, sources, dst)
        if routes is None:
            assert orient is None
            none += 1
            continue
        assert routing._decompose(topo, orient, sources, dst) == routes
        flow_mm = sum(topo.link_mm[lid] for lid, o in enumerate(orient) if o)
        assert flow_mm == sum(p.length_mm for p in routes)
        found += len(sources) > 2
    assert found > 200 and none > 200


def test_disjoint_routes_total_matches_exhaustive_search():
    rng = np.random.default_rng(8)
    topos = [random_scenario(seed, max_nodes=7, max_links=12)[0] for seed in range(40)]
    topos += [_sparse_graph(seed, max_nodes=7) for seed in range(20)]
    topos += [unit_lengths(t) for t in topos]
    deep = none = 0
    for topo, sources, dst in _route_calls(topos, rng, 5):
        want = brute_disjoint_total(topo, sources, dst)
        routes = disjoint_routes(topo, sources, dst)
        if want is None:
            assert routes is None
            none += 1
            continue
        assert routes is not None
        assert [p.src for p in routes] == sources
        assert all(p == make_path(topo, p.nodes) and p.dst == dst for p in routes)
        used = [lid for p in routes for lid in p.links]
        assert len(used) == len(set(used))
        assert sum(p.length_mm for p in routes) == want
        deep += len(sources) >= 3
    assert deep > 50 and none > 50
