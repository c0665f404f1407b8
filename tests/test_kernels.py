import numpy as np

from divprotect import kernels
from divprotect.kernels import INF_MM
from helpers import all_simple_paths, random_scenario


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
            dist = kernels.dijkstra_distances(
                topo.adj_indptr, topo.adj_node, topo.adj_link, topo.link_mm,
                src, blocked,
            )
            want = [
                min((p[0] for p in all_simple_paths(topo, src, dst, {cut})),
                    default=INF_MM)
                for dst in range(topo.n)
            ]
            assert list(dist) == want, (seed, src)


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
    dist = kernels.dijkstra_distances(
        topo.adj_indptr, topo.adj_node, topo.adj_link, topo.link_mm, 0, blocked
    )
    assert dist[0] == 0
    assert dist[1] == 10 and dist[2] == 10
    assert dist[3] == INF_MM and dist[4] == INF_MM and dist[5] == INF_MM


def test_gf2_rank_known_cases():
    assert kernels.gf2_rank(np.eye(4, dtype=np.uint8)) == 4
    assert kernels.gf2_rank(np.zeros((3, 3), dtype=np.uint8)) == 0
    assert kernels.gf2_rank(np.ones((3, 3), dtype=np.uint8)) == 1
    # xor dependency: row2 = row0 ^ row1
    m = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    assert kernels.gf2_rank(m) == 2
    # over GF(2), 2 == 0: entries reduced mod 2, so rows collapse
    m = np.array([[2, 1], [0, 1]], dtype=np.int64)
    assert kernels.gf2_rank(m) == 1
    assert kernels.gf2_rank(np.array([[2, 0], [4, 6]])) == 0
    # wide and tall rectangles
    assert kernels.gf2_rank(np.array([[1, 0, 1, 1]], dtype=np.uint8)) == 1
    assert kernels.gf2_rank(np.array([[1], [1], [0]], dtype=np.uint8)) == 1
    assert kernels.gf2_rank(np.zeros((0, 0), dtype=np.uint8)) == 0


def test_gf2_rank_matches_python_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        # entries up to 3 cover the mod-2 reduction
        m = rng.integers(0, 4, size=(rows, cols))
        want = python_int_rank((m & 1).tolist())
        assert kernels.gf2_rank(m) == want
        assert kernels.gf2_rank(m.tolist()) == want
