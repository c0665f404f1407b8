"""Mesh topology model and scenario file round-tripping.

Distances are stored internally as integer millimetres so that length
comparisons and tie detection are exact. Scenario files declare their
own distance unit.
"""
from __future__ import annotations

import functools
import re
from array import array
from collections import deque
from typing import NamedTuple

from . import kernels
from .kernels import INF_MM

# Millimetres per declared file unit. "10mi" shows up in older long-haul
# studies whose span tables are given in tens of miles.
MM_PER_UNIT = {
    "km": 1_000_000,
    "mi": 1_609_344,
    "10mi": 16_093_440,
}

KM_PER_MM = 1e-6

# the largest int the CLI prints, a p-cycle spare entry, is at most 10**6
# cycles times the rates' sum: below this, within str()'s 4,300 digits
_RATE_SUM_LIMIT = 10**4000


def _known_unit(unit) -> bool:
    # a list or mapping read from a file is unhashable: no dict lookup
    return isinstance(unit, str) and unit in MM_PER_UNIT


class ScenarioError(ValueError):
    """Raised when a scenario document fails parsing or validation."""


class Link(NamedTuple):
    """Undirected span between two nodes. Endpoints satisfy a < b."""

    id: int
    a: int
    b: int
    length_mm: int


class Flow(NamedTuple):
    """A unidirectional demand of integer rate between two nodes."""

    src: int
    dst: int
    rate: int = 1


class Path(NamedTuple):
    """Walk that never reuses a link; nodes and links are aligned
    (len(links) == len(nodes)-1).

    Working and backup paths are simple; a parity trail may revisit
    nodes as it taps several sources on the way to a decode point.
    """

    nodes: tuple[int, ...]
    links: tuple[int, ...]
    length_mm: int

    @property
    def src(self) -> int:
        return self.nodes[0]

    @property
    def dst(self) -> int:
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        return len(self.links)


class Topology:
    """Connected undirected graph with positive integer-mm span lengths.

    ``adj_rows`` is its one adjacency, (neighbour, link, length_mm) rows
    sorted by neighbour id, read by the Dijkstra kernel and every other
    walk; the rest are convenience lookups.
    """

    def __init__(
        self,
        n: int,
        links: list[tuple[int, int, int]],
        unit: str = "km",
        names: dict[int, str] | None = None,
    ):
        if not _known_unit(unit):
            raise ScenarioError(f"unknown distance unit {unit!r}")
        if n < 2:
            raise ScenarioError("topology needs at least two nodes")
        self.n = n
        self.unit = unit
        self.names = dict(names or {})
        self.links: list[Link] = []
        # (a, b) with a < b -> link id, kept for link_between
        seen: dict[tuple[int, int], int] = {}
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for idx, (a, b, mm) in enumerate(links):
            if not (0 <= a < n and 0 <= b < n):
                raise ScenarioError(f"link {idx}: endpoint out of range")
            if a == b:
                raise ScenarioError(f"link {idx}: self-loop at node {a}")
            # converted first: a fraction of a millimetre would be a 0-mm link
            mm = int(mm)
            if mm <= 0:
                raise ScenarioError(f"link {idx}: distance must be positive")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ScenarioError(
                    f"link {idx}: duplicate span {key[0]}-{key[1]} (first at link {seen[key]})"
                )
            seen[key] = idx
            self.links.append(Link(idx, key[0], key[1], mm))
            adj[a].append((b, idx, mm))
            adj[b].append((a, idx, mm))
        self.m = len(self.links)
        if self.m == 0:
            raise ScenarioError("topology has no links")
        self._link_id = seen
        self.link_mm = tuple(l.length_mm for l in self.links)
        # the one adjacency: (neighbour, link, length_mm) per link at each
        # node, by neighbour id; a node has one link per neighbour
        self.adj_rows = tuple(tuple(sorted(row)) for row in adj)
        self._open = self.blocked_mask()
        # root -> [dist, heap, settled, tuple(dist) or None]: the shared
        # unmasked trees, as far as distances() has grown them
        self._trees: dict[int, list] = {}
        # (src, dst) -> routing.protected_pair(self, src, dst)
        self.protected_pairs: dict[tuple[int, int], tuple] = {}
        # keeps every path sum, and every potential and reduced distance
        # in the disjoint-route search, clear of the INF_MM sentinels
        total_mm = sum(self.link_mm)
        if total_mm >= INF_MM // 4:
            raise ScenarioError(
                f"total link length {total_mm * KM_PER_MM:.6g} km is too large "
                f"(limit {INF_MM // 4 * KM_PER_MM:.6g} km)"
            )

        self.warnings: list[str] = []
        hops = self.hop_distances(0)
        if -1 in hops:
            missing = [self.label(v) for v in range(n) if hops[v] < 0][:5]
            raise ScenarioError(f"topology is disconnected; unreachable nodes: {', '.join(missing)}")
        for v in range(n):
            if self.degree(v) == 1:
                lid = self.adj_rows[v][0][1]
                self.warnings.append(
                    f"node {self.label(v)} has degree 1; link {lid} cannot be protected"
                )

    def label(self, v: int) -> str:
        name = self.names.get(v)
        return f"{v} ({name})" if name else str(v)

    def degree(self, v: int) -> int:
        return len(self.adj_rows[v])

    def link_between(self, a: int, b: int) -> Link | None:
        lid = self._link_id.get((min(a, b), max(a, b)))
        return None if lid is None else self.links[lid]

    def hop_distances(self, src: int) -> list[int]:
        """Breadth-first hop counts from src, ignoring link lengths; -1
        where unreachable."""
        dist = [-1] * self.n
        dist[src] = 0
        q = deque([src])
        while q:
            v = q.popleft()
            for w, _, _ in self.adj_rows[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    q.append(w)
        return dist

    def blocked_mask(self, excluded=()) -> array:
        """Per-link bytes, 1 for each excluded link id."""
        mask = array("B", bytes(self.m))
        for lid in excluded:
            mask[lid] = 1
        return mask

    def distances(self, root: int, blocked: array | None = None, until=None):
        """Distances (mm) from root, INF_MM where unreachable: every
        shortest-path tree in the package.

        With ``until`` a collection of nodes, the tree is grown only until
        they are settled, so their entries, and the entries of every node
        nearer root than the farthest of them, are exact; any other entry
        is an upper bound no smaller than those. With None, every entry is
        exact. With ``blocked``, a ``blocked_mask`` whose links are
        skipped, the tree is fresh and comes as a list; with none, each
        root's tree is kept, resumed by later requests, and handed out as
        a tuple.
        """
        if blocked is not None:
            # through the module, so a wrapper set there sees every tree
            return kernels.dijkstra_distances(
                self.adj_rows, [INF_MM] * self.n, [], bytearray(self.n), root, blocked, until
            )
        tree = self._trees.get(root)
        if tree is None:
            tree = self._trees[root] = [[INF_MM] * self.n, [], bytearray(self.n), None]
        dist, heap, settled, shared = tree
        # the topology is connected: a full tree settles every node
        if not (all(settled) if until is None else all(settled[t] for t in until)):
            kernels.dijkstra_distances(self.adj_rows, dist, heap, settled, root, self._open, until)
            shared = None
        if shared is None:
            shared = tree[3] = tuple(dist)
        return shared

    @classmethod
    def from_edge_list(cls, edges, unit: str = "km", names=None) -> "Topology":
        """edges: iterable of (a, b, distance in `unit`)."""
        if not _known_unit(unit):
            raise ScenarioError(f"unknown distance unit {unit!r}")
        mm = MM_PER_UNIT[unit]
        n = 0
        rows = []
        for a, b, d in edges:
            n = max(n, a + 1, b + 1)
            rows.append((a, b, int(round(d * mm))))
        return cls(n, rows, unit=unit, names=names)


class Scenario(NamedTuple):
    """A topology plus its demand rows, as read from one document."""

    topology: Topology
    demands: list[Flow]
    name: str = ""
    reconstructed: bool = False


def _req(mapping, key, ctx):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError(f"{ctx}: missing required field {key!r}")
    return mapping[key]


def _as_int(value, ctx):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _as_name(value, ctx):
    if not isinstance(value, str):
        raise ScenarioError(f"{ctx}: expected a string, got {value!r}; quote the name in YAML")
    return value


def _int_field(row, key, kind, i):
    """Field ``key`` of row ``i`` of list ``kind``, an int. The row's
    context for an error, such as ``topology.links[3].b``, is formatted
    only on the way to ``_req`` and ``_as_int``."""
    if type(row) is dict:
        v = row.get(key)
        if type(v) is int:
            return v
    ctx = f"{kind}[{i}]"
    return _as_int(_req(row, key, ctx), f"{ctx}.{key}")


def _parse_yaml(text: str):
    """The one document of ``text``, as ``yaml.safe_load`` reads it, or
    ScenarioError.

    ``_read_rows`` here reads the flow rows ``dump_scenario`` writes,
    which every bundled fixture uses, and the block rows of a
    ``yaml.safe_dump``, without PyYAML. Any other text, which may hold
    anchors, tags, several documents or another layout, goes to
    ``yaml.safe_load``; PyYAML is imported on the first such text only.
    """
    doc = _read_rows(text)
    if doc is not None:
        return doc
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"scenario is not valid YAML{where}: {exc}") from exc
    except RecursionError:
        raise ScenarioError("scenario is not valid YAML: it nests too deeply") from None
    except (ValueError, LookupError, AttributeError) as exc:
        # the safe constructors' own conversions fail this way, e.g. on a
        # timestamp with month 13, "!!int many", "!!int ''" or "!!bool maybe"
        raise ScenarioError(f"scenario is not valid YAML: bad scalar value: {exc}") from None


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document (YAML)."""
    doc = _parse_yaml(text)
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")

    topo_doc = _req(doc, "topology", "scenario")
    unit = _req(topo_doc, "unit", "topology")
    nodes_doc = _req(topo_doc, "nodes", "topology")
    links_doc = _req(topo_doc, "links", "topology")
    if not isinstance(nodes_doc, list) or not nodes_doc:
        raise ScenarioError("topology.nodes: expected a non-empty list")
    if not isinstance(links_doc, list) or not links_doc:
        raise ScenarioError("topology.links: expected a non-empty list")
    if not _known_unit(unit):
        raise ScenarioError(
            f"topology.unit: unknown unit {unit!r} (expected one of {sorted(MM_PER_UNIT)})"
        )
    mm_per = MM_PER_UNIT[unit]

    ids = set()
    names: dict[int, str] = {}
    for i, nd in enumerate(nodes_doc):
        nid = _int_field(nd, "id", "topology.nodes", i)
        if nid in ids:
            raise ScenarioError(f"topology.nodes[{i}]: duplicate node id {nid}")
        ids.add(nid)
        if "name" in nd:
            names[nid] = _as_name(nd["name"], f"topology.nodes[{i}].name")
    n = len(ids)
    if ids != set(range(n)):
        raise ScenarioError(f"topology.nodes: ids must be exactly 0..{n - 1}")

    rows = []
    for i, ld in enumerate(links_doc):
        a = _int_field(ld, "a", "topology.links", i)
        b = _int_field(ld, "b", "topology.links", i)
        # ld is a mapping, or reading "a" would have failed
        dist = ld["distance"] if "distance" in ld else _req(ld, "distance", f"topology.links[{i}]")
        if type(dist) is not int and type(dist) is not float and (
            isinstance(dist, bool) or not isinstance(dist, (int, float))
        ):
            raise ScenarioError(f"topology.links[{i}].distance: expected a number, got {dist!r}")
        try:
            mm = int(round(float(dist) * mm_per))
        except (OverflowError, ValueError):  # nan, inf, or too large for a float
            raise ScenarioError(
                f"topology.links[{i}].distance: must be a finite number, got {dist!r}"
            ) from None
        if mm <= 0:
            raise ScenarioError(f"topology.links[{i}].distance: must be positive, got {dist!r}")
        rows.append((a, b, mm))

    try:
        topo = Topology(n, rows, unit=unit, names=names)
    except ScenarioError as exc:
        raise ScenarioError(f"topology: {exc}") from None

    demands_doc = _req(doc, "demands", "scenario")
    if not isinstance(demands_doc, list) or not demands_doc:
        raise ScenarioError("demands: expected a non-empty list")
    demands = []
    for i, dd in enumerate(demands_doc):
        src = _int_field(dd, "src", "demands", i)
        dst = _int_field(dd, "dst", "demands", i)
        rate = dd.get("rate", 1)
        if type(rate) is not int:
            rate = _as_int(rate, f"demands[{i}].rate")
        if not (0 <= src < n and 0 <= dst < n):
            raise ScenarioError(f"demands[{i}]: endpoint out of range 0..{n - 1}")
        if src == dst:
            raise ScenarioError(f"demands[{i}]: src and dst must differ")
        if rate < 1:
            raise ScenarioError(f"demands[{i}]: rate must be >= 1")
        demands.append(Flow(src, dst, rate))
    if sum(f.rate for f in demands) >= _RATE_SUM_LIMIT:
        raise ScenarioError("demands: the rates sum to 4,001 digits or more")

    reconstructed = doc.get("reconstructed", False)
    if not isinstance(reconstructed, bool):
        raise ScenarioError(f"reconstructed: expected true or false, got {reconstructed!r}")
    return Scenario(
        topology=topo,
        demands=demands,
        name=_as_name(doc.get("name", ""), "name"),
        reconstructed=reconstructed,
    )


# names that YAML would reparse as the same string can stay bare
_BARE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_.-]*")
_YAML_WORDS = {"true", "false", "null", "yes", "no", "on", "off", "none"}


def _fmt_name(s: str) -> str:
    if _BARE_NAME.fullmatch(s) and s.lower() not in _YAML_WORDS:
        return s
    import json  # only names that need quoting

    return json.dumps(s)


def _fmt_distance(mm: int, unit: str) -> str:
    value = mm / MM_PER_UNIT[unit]
    if value == int(value):
        return str(int(value))
    s = f"{value:.9f}".rstrip("0").rstrip(".")
    return s


def dump_scenario(sc: Scenario) -> str:
    """Serialize a scenario to its canonical byte-stable form."""
    topo = sc.topology
    out = []
    if sc.name:
        out.append(f"name: {_fmt_name(sc.name)}")
    if sc.reconstructed:
        out.append("reconstructed: true")
    out.append("topology:")
    out.append(f"  unit: {topo.unit}")
    out.append("  nodes:")
    for v in range(topo.n):
        if v in topo.names:
            out.append(f"    - {{id: {v}, name: {_fmt_name(topo.names[v])}}}")
        else:
            out.append(f"    - {{id: {v}}}")
    out.append("  links:")
    for l in topo.links:
        d = _fmt_distance(l.length_mm, topo.unit)
        out.append(f"    - {{a: {l.a}, b: {l.b}, distance: {d}}}")
    out.append("demands:")
    for f in sc.demands:
        out.append(f"  - {{src: {f.src}, dst: {f.dst}, rate: {f.rate}}}")
    return "\n".join(out) + "\n"


# a bare name, or a double- or single-quoted one without escapes
_NAME = rf"""{_BARE_NAME.pattern}|"[ !#-\[\]-~]*"|'[ -&(-~]*'"""
_NUM = "0|[1-9][0-9]*"  # YAML 1.1 reads 017 as octal


@functools.cache
def _head_pattern():
    """``_read_rows``' pattern for the lines up to ``  nodes:``, which both
    layouts share, compiled on first use rather than at import."""
    units = "|".join(map(re.escape, MM_PER_UNIT))
    return re.compile(
        rf"(?:name: ({_NAME})\n)?(?:reconstructed: (true|false)\n)?"
        rf"topology:\n  unit: ({units})\n  nodes:\n"
    )


@functools.cache
def _row_patterns(block: bool):
    """``_read_rows``' node, links-head, link, demands-head and demand
    patterns in the block layout or the flow one.

    A row kind is one field list, (key, value pattern, optional) each.
    Each pattern matches its lines, which ``_read_rows`` has cleared of
    comment and blank lines; every repetition consumes a newline, so
    matching is linear.
    """

    def row(indent, *fields):
        # a block row's later keys sit two columns deeper than its "- ";
        # a flow row sits two columns deeper than the block row
        if block:
            out, sep, end = " " * indent + "- ", "\n" + " " * (indent + 2), ""
        else:
            out, sep, end = " " * (indent + 2) + r"- \{", ", ", r"\}"
        for i, (key, value, optional) in enumerate(fields):
            field = f"{sep if i else ''}{key}: ({value})"
            out += f"(?:{field})?" if optional else field
        return out + end

    lines = (
        row(2, ("id", _NUM, False), ("name", _NAME, True)),
        "  links:",
        row(2, ("a", _NUM, False), ("b", _NUM, False),
            ("distance", rf"(?:{_NUM})(?:\.[0-9]+)?", False)),
        "demands:",
        row(0, ("src", _NUM, False), ("dst", _NUM, False), ("rate", _NUM, True)),
    )
    return tuple(re.compile(line + r"\n") for line in lines)


def _row_name(s: str):
    """A name group's string, or None for a bare word YAML reads as
    another type."""
    if s[0] in "\"'":
        return s[1:-1]
    return None if s.lower() in _YAML_WORDS else s


def _read_rows(text: str):
    """The document of ``text`` if it is in a row layout, else None.

    Two layouts: the flow one ``dump_scenario`` writes, one ``- {k: v, ...}``
    mapping per row, and the block one ``yaml.safe_dump(doc,
    sort_keys=False)`` writes, a ``- k: v`` line per row followed by one
    ``k: v`` line per further key, two columns deeper. Both have an
    optional ``name``, an optional ``reconstructed`` flag, then
    ``topology`` with its unit, node rows and link rows, then the demand
    rows, with the keys in that order, whole-line comments and blank
    lines anywhere, and ``\\n`` line ends. The first node row picks the
    layout of every row. The document is the one ``yaml.safe_load``
    builds. Any other text is refused at its first line out of the
    layout, as is a value that would not convert as PyYAML converts it.
    """
    if not isinstance(text, str):  # bytes: the YAML parser decodes them
        return None
    # "\n" only: CR and the other breaks splitlines() knows stay in their
    # lines, out of the layout
    lines = text.split("\n")
    if lines.pop():  # no final newline
        return None
    # a whole-line comment is "#" and printable ASCII
    text = "".join(
        line + "\n"
        for line in lines
        if line and not (line[0] == "#" and line.isascii() and line.isprintable())
    )
    m = _head_pattern().match(text)
    if m is None:
        return None
    node, links_head, link, demands_head, demand = _row_patterns(text.startswith("  - ", m.end()))
    name, reconstructed, unit = m.groups()
    doc = {}
    if name is not None:
        if (name := _row_name(name)) is None:
            return None
        doc["name"] = name
    if reconstructed is not None:
        doc["reconstructed"] = reconstructed == "true"
    pos = m.end()
    nodes, links, demands = [], [], []
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        while (m := node.match(text, pos)) is not None:
            nid, name = m.groups()
            if name is None:
                nodes.append({"id": int(nid)})
            elif (name := _row_name(name)) is None:
                return None
            else:
                nodes.append({"id": int(nid), "name": name})
            pos = m.end()
        if not nodes or (m := links_head.match(text, pos)) is None:
            return None
        pos = m.end()
        while (m := link.match(text, pos)) is not None:
            a, b, d = m.groups()
            links.append({"a": int(a), "b": int(b), "distance": float(d) if "." in d else int(d)})
            pos = m.end()
        if not links or (m := demands_head.match(text, pos)) is None:
            return None
        pos = m.end()
        while (m := demand.match(text, pos)) is not None:
            src, dst, rate = m.groups()
            if rate is None:
                demands.append({"src": int(src), "dst": int(dst)})
            else:
                demands.append({"src": int(src), "dst": int(dst), "rate": int(rate)})
            pos = m.end()
    except ValueError:
        return None
    if not demands or pos != len(text):
        return None
    doc["topology"] = {"unit": unit, "nodes": nodes, "links": links}
    doc["demands"] = demands
    return doc
