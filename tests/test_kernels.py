import numpy as np

from divprotect import kernels
from divprotect.kernels import INF_MM
from helpers import all_simple_paths, fresh_tree, random_scenario


def python_int_rank(rows):
    """GF(2) rank over plain python ints (bitmask elimination)."""
    masks = []
    for r in rows:
        m = 0
        for j, x in enumerate(r):
            if int(x) & 1:
                m |= 1 << j
        masks.append(m)
    rank = 0
    for bit in range(max((len(r) for r in rows), default=0)):
        pivot = None
        for i in range(rank, len(masks)):
            if masks[i] >> bit & 1:
                pivot = i
                break
        if pivot is None:
            continue
        masks[rank], masks[pivot] = masks[pivot], masks[rank]
        for i in range(len(masks)):
            if i != rank and masks[i] >> bit & 1:
                masks[i] ^= masks[rank]
        rank += 1
    return rank


def test_dijkstra_matches_path_enumeration():
    for seed in range(25):
        topo, _ = random_scenario(seed)
        blocked = np.zeros(topo.m, dtype=np.uint8)
        rng = np.random.default_rng(seed)
        cut = int(rng.integers(0, topo.m))
        blocked[cut] = 1  # one blocked link
        for src in range(topo.n):
            want = [
                min((p[0] for p in all_simple_paths(topo, src, dst, {cut})),
                    default=INF_MM)
                for dst in range(topo.n)
            ]
            # any per-link mask works; the planners pass blocked_mask's
            for mask in (blocked, topo.blocked_mask([cut])):
                dist = fresh_tree(topo, src, mask)
                assert list(dist) == want, (seed, src, type(mask))


def test_dijkstra_unreachable_is_inf():
    # two triangles joined by one link; block the bridge
    from divprotect.topology import Topology

    topo = Topology(6, [
        (0, 1, 10), (1, 2, 10), (0, 2, 10),
        (3, 4, 10), (4, 5, 10), (3, 5, 10),
        (2, 3, 10),
    ])
    blocked = np.zeros(topo.m, dtype=np.uint8)
    blocked[6] = 1
    dist = fresh_tree(topo, 0, blocked)
    assert dist[0] == 0
    assert dist[1] == 10 and dist[2] == 10
    assert dist[3] == INF_MM and dist[4] == INF_MM and dist[5] == INF_MM


def test_dijkstra_until_stops_at_the_target_and_resumes():
    # on the path 0-1-...-9, a tree grown until node 3 settles 0..3 only:
    # 4 holds the bound relaxed from 3, and the rest are unreached
    from divprotect.topology import Topology

    topo = Topology(10, [(v, v + 1, 10) for v in range(9)])
    dist, heap, settled = [INF_MM] * 10, [], bytearray(10)
    state = (topo.adj_rows, dist, heap, settled, 0, topo.blocked_mask())
    assert kernels.dijkstra_distances(*state, (3,)) is dist
    assert list(settled) == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    assert dist == [0, 10, 20, 30, 40] + [INF_MM] * 5
    assert heap == [(40, 4)]
    # every target settled already: nothing moves
    kernels.dijkstra_distances(*state, (2, 3))
    assert list(settled) == [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    # resumed to the end, it is the full tree
    kernels.dijkstra_distances(*state)
    assert dist == [10 * v for v in range(10)] and all(settled) and heap == []
    # a blocked link leaves what lies past it at INF_MM
    dist = fresh_tree(topo, 0, topo.blocked_mask([5]), (8,))
    assert dist == [10 * v for v in range(6)] + [INF_MM] * 4


def test_gf2_rank_known_cases():
    # bit j of a row is column j
    assert kernels.gf2_rank([1, 2, 4, 8]) == 4
    assert kernels.gf2_rank([0, 0, 0]) == 0
    assert kernels.gf2_rank([0b111, 0b111, 0b111]) == 1
    # xor dependency: row2 = row0 ^ row1
    assert kernels.gf2_rank([0b101, 0b110, 0b011]) == 2
    # wide and tall rectangles
    assert kernels.gf2_rank([0b1101]) == 1
    assert kernels.gf2_rank([1, 1, 0]) == 1
    assert kernels.gf2_rank([]) == 0
    # decode shapes: unit rows of the surviving working paths plus the
    # all-ones parity row
    assert kernels.gf2_rank([1, 2, 4, 7]) == 3
    # one working path lost: the parity row restores full rank
    assert kernels.gf2_rank([1, 4, 7]) == 3
    # one working path and the parity lost: rank collapses
    assert kernels.gf2_rank([1, 4]) == 2


def test_gf2_rank_matches_python_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rng.integers(0, 2, size=(rows, cols)).tolist()
        masks = [sum(x << j for j, x in enumerate(row)) for row in m]
        assert kernels.gf2_rank(masks) == python_int_rank(m)
