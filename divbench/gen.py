"""Seeded scenario generator for the benchmark.

Meshes are a Hamiltonian ring over a random node order plus chords, as
``random_graph`` in ``benchmarks/bench_kernels.py`` builds them, so every
instance is 2-edge-connected. A run of short chords puts every link on a
cycle of at most five hops: the p-cycle planner only enumerates cycles up
to ``min(n, 12)`` hops and leaves a link without one unprotected, so this
keeps every scheme able to protect every flow.

Demands are ``clustered`` (a few destinations with many unit flows each,
so the parity planner's combination search does real work) or ``spread``
(destinations dealt out evenly, so few flows share one). Fixture variants keep a
bundled network and its demand rows but move the sources of some rows.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import yaml


@dataclass(frozen=True)
class Instance:
    """One scenario as the CLI reads it, plus the sizes its cost depends on."""

    name: str
    scenario: str  # a bundled fixture name or a YAML document
    stats: dict = field(compare=False)
    bundled: bool = False


def _stats(n: int, links, demands) -> dict:
    """demands: (src, dst, rate) rows; rate counts unit flows."""
    per_dst: dict[int, int] = {}
    for _, d, rate in demands:
        per_dst[d] = per_dst.get(d, 0) + rate
    return {
        "n": n,
        "m": len(links),
        "unit_flows": sum(per_dst.values()),
        "max_flows_per_dst": max(per_dst.values()),
    }


def to_yaml(name: str, n: int, links, demands) -> str:
    """Scenario document in km with integer spans, one row per demand."""
    out = [f"name: {name}", "topology:", "  unit: km", "  nodes:"]
    out += [f"    - {{id: {v}}}" for v in range(n)]
    out.append("  links:")
    out += [f"    - {{a: {a}, b: {b}, distance: {d}}}" for a, b, d in links]
    out.append("demands:")
    out += [f"  - {{src: {s}, dst: {d}, rate: {r}}}" for s, d, r in demands]
    return "\n".join(out) + "\n"


def mesh(rng: random.Random, n: int, m: int, span: int) -> list[tuple[int, int, int]]:
    """Ring over a random node order plus chords, with integer-km lengths;
    returns sorted (a, b, km).

    A first run of chords, each 2 to 4 ring positions long and laid end
    to end, puts every ring link on a cycle of at most 5 hops; it is drawn
    again while it would need more than ``m`` links. The remaining chords
    join nodes at most ``span`` ring positions apart.
    """
    if not (4 <= n <= m <= n * (n - 1) // 2 and 2 <= span <= n // 2):
        raise ValueError(f"bad mesh shape n={n} m={m} span={span}")
    order = list(range(n))
    rng.shuffle(order)

    def join(i, j):
        a, b = order[i % n], order[j % n]
        edges.add((min(a, b), max(a, b)))

    for _ in range(100):
        edges: set[tuple[int, int]] = set()
        for i in range(n):
            join(i, i + 1)
        i = 0
        while i < n:
            step = rng.randint(2, min(4, span))
            join(i, i + step)
            i += step
        if len(edges) <= m:
            break
    else:
        raise ValueError(f"{m} links cannot hold the ring and its chords on {n} nodes")
    tries = 0
    while len(edges) < m:
        tries += 1
        if tries > 100 * m:
            raise ValueError(f"cannot place {m} links with span {span} on {n} nodes")
        i = rng.randrange(n)
        join(i, i + rng.randint(2, span))
    return [(a, b, rng.randint(20, 400)) for a, b in sorted(edges)]


def _other_node(rng: random.Random, n: int, avoid: int) -> int:
    v = rng.randrange(n - 1)
    return v if v < avoid else v + 1


def clustered(rng: random.Random, degree: list[int], dsts: int, per_dst: int,
              degree_sum: int):
    """``per_dst`` unit flows into each of ``dsts`` distinct destinations
    whose link counts sum to ``degree_sum``, or None if 100 draws find no
    such destinations. The parity planner's search time grows with the
    destinations' degree (more disjoint routes to try), so a free draw
    would let it vary widely between seeds."""
    n = len(degree)
    for _ in range(100):
        chosen = rng.sample(range(n), dsts)
        if sum(degree[d] for d in chosen) == degree_sum:
            return [(_other_node(rng, n, d), d, 1) for d in chosen for _ in range(per_dst)]
    return None


def spread(rng: random.Random, degree: list[int], count: int):
    """``count`` unit flows with destinations dealt out as evenly as
    possible (each node receives count // n or one more) and uniform
    sources. Random destinations would let the number of flows sharing one,
    and with it the parity planner's work, vary widely between seeds."""
    n = len(degree)
    dsts = []
    while len(dsts) < count:
        dsts += rng.sample(range(n), min(n, count - len(dsts)))
    return [(_other_node(rng, n, d), d, 1) for d in dsts]


def count_cycles(n: int, links, max_hops: int) -> int:
    """Simple cycles of 3 to ``max_hops`` links, the set the p-cycle planner
    enumerates, counted here without the program's code."""
    adj = [[] for _ in range(n)]
    for a, b, _ in links:
        adj[a].append(b)
        adj[b].append(a)
    twice = 0  # each cycle is walked in both directions from its smallest node
    for anchor in range(n):
        stack = [(anchor, 1 << anchor, 1)]
        while stack:
            v, on_path, nodes = stack.pop()
            for w in adj[v]:
                if w == anchor:
                    twice += nodes >= 3
                elif w > anchor and not on_path >> w & 1 and nodes < max_hops:
                    stack.append((w, on_path | 1 << w, nodes + 1))
    return twice // 2


def generated(name: str, rng: random.Random, n: int, m: int, span: int, demands,
              cycles: tuple[int, int] | None = None) -> Instance:
    """demands: ("clustered", dsts, per_dst, degree_sum) or ("spread", count).

    Meshes are drawn until the demands can be placed on one and, with
    ``cycles = (lo, hi)``, it has lo to hi cycles of at most min(n, 12)
    hops: the p-cycle planner's work grows with that count, which varies
    by about 15% between meshes of one shape.
    """
    kind, *args = demands
    for _ in range(1000):
        links = mesh(rng, n, m, span)
        if cycles is not None and not cycles[0] <= count_cycles(n, links, min(n, 12)) <= cycles[1]:
            continue
        degree = [0] * n
        for a, b, _ in links:
            degree[a] += 1
            degree[b] += 1
        rows = {"clustered": clustered, "spread": spread}[kind](rng, degree, *args)
        if rows is not None:
            return Instance(name, to_yaml(name, n, links, rows), _stats(n, links, rows))
    raise ValueError(f"no {n}-node mesh in 1000 draws takes demands {demands} and cycles {cycles}")


def fixture(name: str, text: str) -> Instance:
    """A bundled fixture as shipped, run by its name."""
    doc = yaml.safe_load(text)
    rows = [(d["src"], d["dst"], d.get("rate", 1)) for d in doc["demands"]]
    n = len(doc["topology"]["nodes"])
    return Instance(name, name, _stats(n, doc["topology"]["links"], rows), bundled=True)


def fixture_variant(name: str, rng: random.Random, text: str, share: float) -> Instance:
    """A bundled network with the sources of a random ``share`` of its
    demand rows (at least one) moved to a random neighbour other than the
    destination; the destinations and rates, and so the grouping
    pressure, are kept. Moving a source one hop keeps each variant close
    to the shipped demands, whose worst-case RT a free redraw could
    double."""
    doc = yaml.safe_load(text)
    n = len(doc["topology"]["nodes"])
    nbrs: dict[int, set[int]] = {}
    for link in doc["topology"]["links"]:
        nbrs.setdefault(link["a"], set()).add(link["b"])
        nbrs.setdefault(link["b"], set()).add(link["a"])
    count = len(doc["demands"])
    moved = set(rng.sample(range(count), max(1, round(share * count))))
    rows = []
    for i, d in enumerate(doc["demands"]):
        src = d["src"]
        choices = sorted(nbrs[src] - {d["dst"]})
        if i in moved and choices:
            src = rng.choice(choices)
        rows.append((src, d["dst"], d.get("rate", 1)))
    doc["name"] = name
    doc["demands"] = [{"src": s, "dst": d, "rate": r} for s, d, r in rows]
    return Instance(name, yaml.safe_dump(doc, sort_keys=False), _stats(n, doc["topology"]["links"], rows))
