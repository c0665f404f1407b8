import importlib
import sys
from pathlib import Path

import pytest
import yaml

from divprotect import topology
from divprotect.cli import fixture_names, fixture_path, main
from divprotect.kernels import INF_MM
from divprotect.topology import (
    MM_PER_UNIT,
    Flow,
    Link,
    ScenarioError,
    Scenario,
    Topology,
    dump_scenario,
    load_scenario,
)
from helpers import (
    composed_outcome,
    counting_compositions,
    counting_yaml_parses,
    load_fixture,
    make_path,
    parse_outcome,
    random_scenario,
)

FIXTURES = [
    "example2",
    "fig1-star",
    "cost239-reconstruction",
    "uslong-reconstruction",
    "synthetic-reconstruction",
]


def _fixture_text(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


TRIANGLE = """
topology:
  unit: km
  nodes:
    - {id: 0}
    - {id: 1}
    - {id: 2}
  links:
    - {a: 0, b: 1, distance: 1}
    - {a: 1, b: 2, distance: 2}
    - {a: 0, b: 2, distance: 2.5}
demands:
  - {src: 0, dst: 2}
"""


def test_unit_scales_are_exact_integers():
    assert MM_PER_UNIT["km"] == 1_000_000
    assert MM_PER_UNIT["mi"] == 1_609_344
    assert MM_PER_UNIT["10mi"] == 16_093_440


def test_load_triangle():
    sc = load_scenario(TRIANGLE)
    topo = sc.topology
    assert topo.n == 3
    assert topo.m == 3
    assert topo.unit == "km"
    assert [l.length_mm for l in topo.links] == [1_000_000, 2_000_000, 2_500_000]
    assert sc.demands == [Flow(0, 2, 1)]
    assert topo.degree(0) == 2
    assert topo.adj_rows[0] == ((1, 0, 1_000_000), (2, 2, 2_500_000))
    assert topo.link_between(2, 1).id == 1
    assert topo.link_between(0, 0) is None


def test_link_endpoints_normalised():
    topo = Topology(3, [(2, 0, 5), (1, 2, 7), (0, 1, 3)])
    assert (topo.links[0].a, topo.links[0].b) == (0, 2)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_roundtrip_is_byte_identical(name):
    # each bundled fixture equals its own canonical dump, so dump(load(x)) == x
    raw = _fixture_text(name)
    sc = load_scenario(raw)
    dumped = dump_scenario(sc)
    body = "".join(
        ln for ln in raw.splitlines(keepends=True) if not ln.startswith("#")
    )
    assert dumped == body
    assert dump_scenario(load_scenario(dumped)) == dumped
    assert dump_scenario(load_scenario(raw.encode())) == dumped


def test_fractional_distance_roundtrip():
    text = TRIANGLE.replace("distance: 2.5", "distance: 0.123456789")
    sc = load_scenario(text)
    assert sc.topology.links[2].length_mm == 123_457  # rounded to whole mm
    again = load_scenario(dump_scenario(sc))
    assert again.topology.links[2].length_mm == 123_457


def _tail_mm(topo, trail, node):
    # the dc sweep's distance from a trail's first visit of node to its end
    tap = trail.nodes.index(node)
    return trail.length_mm - sum(topo.link_mm[l] for l in trail.links[:tap])


def test_make_path_and_route():
    sc = load_fixture("example2")
    topo = sc.topology
    p = make_path(topo, [0, 1, 3])
    assert p.links == (0, 1)
    assert p.length_mm == 4_000_000
    assert (p.src, p.dst, p.hops) == (0, 3, 2)
    with pytest.raises(ValueError):
        make_path(topo, [0, 3])  # nonadjacent
    with pytest.raises(ValueError):
        make_path(topo, [0, 1, 0])  # reuses link 0-1

    r = make_path(topo, [2, 1, 0, 4, 3])
    assert r.length_mm == 9_000_000
    assert _tail_mm(topo, r, 2) == 9_000_000
    assert _tail_mm(topo, r, 1) == 7_000_000
    assert _tail_mm(topo, r, 0) == 6_000_000
    assert _tail_mm(topo, r, 4) == 4_000_000
    assert _tail_mm(topo, r, 3) == 0
    with pytest.raises(ValueError):
        _tail_mm(topo, r, 9)
    with pytest.raises(ValueError):
        make_path(topo, [0, 1, 0, 1])  # reuses link 0-1

    # a trail may revisit a node; it is measured from the first visit
    t = make_path(topo, [0, 1, 2, 0, 4])
    assert t.links == (0, 6, 2, 4)
    assert t.length_mm == 7_000_000
    assert _tail_mm(topo, t, 0) == 7_000_000
    assert _tail_mm(topo, t, 2) == 4_000_000


def _link1(row):
    """TRIANGLE with its second link row, ``topology.links[1]``, replaced."""
    return lambda t: t.replace("{a: 1, b: 2, distance: 2}", row)


def _demand1(row):
    """TRIANGLE with ``row`` appended as ``demands[1]``."""
    return lambda t: t + f"  - {row}\n"


@pytest.mark.parametrize(
    "mutate,phrase",
    [
        (lambda t: t.replace("unit: km", "unit: furlong"), "unknown unit"),
        (lambda t: t.replace("unit: km", "unit: [km]"), "unknown unit ['km']"),
        (lambda t: t.replace("unit: km", "unit: {a: 1}"), "unknown unit {'a': 1}"),
        (lambda t: t.replace("  unit: km\n", ""), "missing required field 'unit'"),
        (lambda t: t.replace("{id: 2}", "{id: 1}"), "duplicate node id"),
        (lambda t: t.replace("{id: 2}", "{id: 7}"), "ids must be exactly 0..2"),
        (lambda t: t.replace("distance: 2.5", "distance: 0"), "must be positive"),
        (lambda t: t.replace("distance: 2.5", "distance: -1"), "must be positive"),
        (lambda t: t.replace("distance: 2.5", "distance: fast"), "expected a number"),
        (lambda t: t.replace("distance: 2.5", "distance: .nan"), "must be a finite number"),
        (lambda t: t.replace("distance: 2.5", "distance: .inf"), "must be a finite number"),
        # reaches the INF_MM "unreachable" sentinel on its own
        (lambda t: t.replace("distance: 2.5", "distance: 4611686018428"), "too large"),
        # beyond the int64 range
        (lambda t: t.replace("distance: 2.5", "distance: 10000000000000"), "too large"),
        (lambda t: t.replace("{a: 0, b: 2", "{a: 0, b: 9"), "endpoint out of range"),
        (lambda t: t.replace("{a: 0, b: 2", "{a: 2, b: 2"), "self-loop"),
        (lambda t: t.replace("{a: 0, b: 2", "{a: 1, b: 0"), "duplicate span 0-1"),
        (lambda t: t.replace("{src: 0, dst: 2}", "{src: 0, dst: 0}"), "src and dst must differ"),
        (lambda t: t.replace("{src: 0, dst: 2}", "{src: 0, dst: 5}"), "endpoint out of range"),
        (lambda t: t.replace("{src: 0, dst: 2}", "{src: 0, dst: 2, rate: 0}"), "rate must be >= 1"),
        (lambda t: t.replace("{src: 0, dst: 2}", "{dst: 2}"), "missing required field 'src'"),
        (lambda t: t + "  - {src: 0, dst: 1, rate: 1.5}\n", "expected an integer"),
        (lambda t: t.replace("demands:\n  - {src: 0, dst: 2}\n", "demands: []\n"), "non-empty list"),
        (lambda t: t.replace("nodes:\n    - {id: 0}\n    - {id: 1}\n    - {id: 2}\n", "nodes: []\n"),
         "topology.nodes: expected a non-empty list"),
        (lambda t: t.replace("    - {id: 1}\n    - {id: 2}\n", ""),
         "topology: topology needs at least two nodes"),
        (lambda t: t[:t.index("  links:")] + "  links: []\n" + t[t.index("demands:"):],
         "topology.links: expected a non-empty list"),
        (lambda t: "topology: 3\ndemands: []\n", "missing required field 'unit'"),
        (lambda t: "- just\n- a list\n", "must be a mapping"),
        (lambda t: "a: [unclosed\n", "not valid YAML"),
        (lambda t: "a: " + "[" * 2000 + "]" * 2000 + "\n", "nests too deeply"),
        # the safe constructors' own ValueError, KeyError, IndexError and
        # AttributeError
        (lambda t: "name: 2001-13-45\n" + t, "month must be in 1..12"),
        (lambda t: t.replace("{src: 0, dst: 2}", "{src: 0, dst: 2, rate: !!int many}"),
         "invalid literal for int()"),
        (lambda t: "reconstructed: !!bool maybe\n" + t, "bad scalar value: 'maybe'"),
        (lambda t: 'reconstructed: "false"\n' + t, "reconstructed: expected true or false"),
        (lambda t: "reconstructed: 1\n" + t, "reconstructed: expected true or false"),
        (lambda t: t.replace("{src: 0, dst: 2}", "{src: 0, dst: 2, rate: !!int ''}"),
         "bad scalar value"),
        (lambda t: "name: !!timestamp x\n" + t, "bad scalar value"),
        # the full row-and-field context of each field's error
        (lambda t: t.replace("{id: 1}", "{name: b}"),
         "topology.nodes[1]: missing required field 'id'"),
        (lambda t: t.replace("{id: 1}", "{id: x}"),
         "topology.nodes[1].id: expected an integer, got 'x'"),
        (lambda t: t.replace("{id: 1}", "{id: true}"),
         "topology.nodes[1].id: expected an integer, got True"),
        (_link1("{b: 2, distance: 2}"), "topology.links[1]: missing required field 'a'"),
        (_link1("{a: x, b: 2, distance: 2}"), "topology.links[1].a: expected an integer, got 'x'"),
        (_link1("{a: true, b: 2, distance: 2}"),
         "topology.links[1].a: expected an integer, got True"),
        (_link1("{a: 1, distance: 2}"), "topology.links[1]: missing required field 'b'"),
        (_link1("{a: 1, b: x, distance: 2}"), "topology.links[1].b: expected an integer, got 'x'"),
        (_link1("{a: 1, b: true, distance: 2}"),
         "topology.links[1].b: expected an integer, got True"),
        (_link1("{a: 1, b: 2}"), "topology.links[1]: missing required field 'distance'"),
        (_link1("{a: 1, b: 2, distance: true}"),
         "topology.links[1].distance: expected a number, got True"),
        (_demand1("{dst: 1}"), "demands[1]: missing required field 'src'"),
        (_demand1("{src: x, dst: 1}"), "demands[1].src: expected an integer, got 'x'"),
        (_demand1("{src: true, dst: 1}"), "demands[1].src: expected an integer, got True"),
        (_demand1("{src: 0}"), "demands[1]: missing required field 'dst'"),
        (_demand1("{src: 0, dst: x}"), "demands[1].dst: expected an integer, got 'x'"),
        (_demand1("{src: 0, dst: true}"), "demands[1].dst: expected an integer, got True"),
        (_demand1("{src: 0, dst: 1, rate: x}"), "demands[1].rate: expected an integer, got 'x'"),
        (_demand1("{src: 0, dst: 1, rate: true}"),
         "demands[1].rate: expected an integer, got True"),
        # with demands[0]'s rate 1, the rates sum to exactly 10^4000
        (_demand1(f"{{src: 0, dst: 1, rate: {10**4000 - 1}}}"),
         "demands: the rates sum to 4,001 digits or more"),
        # a name YAML reads as another type is refused, not turned into text
        (lambda t: t.replace("{id: 0}", "{id: 0, name: no}"),
         "topology.nodes[0].name: expected a string, got False; quote the name"),
        (lambda t: t.replace("{id: 1}", "{id: 1, name: yes}"),
         "topology.nodes[1].name: expected a string, got True"),
        (lambda t: t.replace("{id: 2}", "{id: 2, name: 017}"),
         "topology.nodes[2].name: expected a string, got 15"),
        (lambda t: t.replace("{id: 0}", "{id: 0, name: null}"),
         "topology.nodes[0].name: expected a string, got None"),
        (lambda t: "name: 017\n" + t, "name: expected a string, got 15; quote the name"),
        (lambda t: "name: no\n" + t, "name: expected a string, got False"),
    ],
)
def test_scenario_errors_carry_context(mutate, phrase):
    with pytest.raises(ScenarioError) as err:
        load_scenario(mutate(TRIANGLE))
    assert phrase in str(err.value)


def _row_texts():
    """Each fixture and the dumps of 30 random scenarios: the row layout."""
    texts = [_fixture_text(name) for name in FIXTURES]
    for seed in range(30):
        topo, flows = random_scenario(seed)
        texts.append(dump_scenario(Scenario(topo, flows, name=f"r{seed}")))
    return texts


def _block_texts():
    """Each fixture dumped in YAML's block style."""
    return [yaml.safe_dump(yaml.safe_load(_fixture_text(name)), sort_keys=False)
            for name in FIXTURES]


def test_parse_yaml_equals_safe_load_on_row_and_block_texts():
    # unlike ==, repr tells 1, 1.0 and True apart and matches nan with nan
    for text in _row_texts() + _block_texts():
        assert repr(topology._parse_yaml(text)) == repr(yaml.safe_load(text))


def test_scenario_documents_skip_the_composer():
    rows, blocks = _row_texts(), _block_texts()
    with counting_compositions() as composed, counting_yaml_parses() as parsed:
        for text in rows + blocks:
            load_scenario(text)
    assert parsed == []  # the row reader took every one, in either layout
    assert composed == []


def test_every_fixture_and_benchmark_instance_is_in_a_row_layout(monkeypatch):
    # the row reader takes each of them without PyYAML, which would read
    # one about ten times slower
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "divbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under divbench
    run = importlib.import_module("run")
    texts = {name: _fixture_text(name) for name in fixture_names()}
    for workload in run.WORKLOADS:
        for inst in run.build_instances(workload, 1, tiny=True):
            texts[inst.name] = _fixture_text(inst.scenario) if inst.bundled else inst.scenario
    assert len(texts) > len(fixture_names())
    assert [name for name, text in texts.items() if topology._read_rows(text) is None] == []


# dump_scenario's layout with every optional part: a top-level name, the
# reconstructed flag, bare and quoted node names, an integer and a
# fractional distance and demand rates
ROWS = dump_scenario(Scenario(
    Topology.from_edge_list([(0, 1, 10), (1, 2, 2.5), (0, 2, 7)],
                            names={0: "A", 1: "b.c-d_1", 2: "7"}),
    [Flow(0, 2, 3), Flow(1, 0, 1)],
    name="tri",
    reconstructed=True,
))


def _int_limit():
    # 0 where int() takes any number of digits
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# (old, new, taken by the row reader): ROWS with its first ``old`` made ``new``
ROW_MUTATIONS = {
    # numbers: YAML 1.1 reads each of these otherwise, or not as a number
    "octal": ("distance: 7}", "distance: 007}", False),
    "plus-sign": ("rate: 1}", "rate: +1}", False),
    "underscore": ("distance: 10}", "distance: 1_0}", False),
    "exponent": ("distance: 10}", "distance: 1e3}", False),
    "leading-dot": ("distance: 2.5}", "distance: .5}", False),
    "trailing-dot": ("distance: 7}", "distance: 5.}", False),
    "hex": ("{id: 0,", "{id: 0x1F,", False),
    "rate-5000-digits": ("rate: 3}", "rate: " + "7" * 5000 + "}", not 0 < _int_limit() < 5000),
    "rate-4000-digits": ("rate: 3}", "rate: " + "7" * 4000 + "}", True),
    "trailing-zero": ("distance: 2.5}", "distance: 2.50}", True),
    # names: YAML words, escapes, non-ASCII and single quotes
    "name-yes": ("name: A}", "name: yes}", False),
    "name-No": ("name: A}", "name: No}", False),
    "name-NULL": ("name: A}", "name: NULL}", False),
    "name-On": ("name: A}", "name: On}", False),
    "name-None": ("name: A}", "name: None}", False),
    "top-name-off": ("name: tri\n", "name: off\n", False),
    "name-escape": ("name: A}", 'name: "a\\tb"}', False),
    "name-accent": ("name: A}", 'name: "\u00e9"}', False),
    "name-single-quotes": ("name: A}", "name: 'single'}", True),
    "name-quoted-spaces": ("name: A}", 'name: "a #b {c}"}', True),
    "name-empty": ("name: A}", 'name: ""}', True),
    # text shape
    "crlf": ("name: tri\n", "name: tri\r\n", False),
    "trailing-space": ("topology:\n", "topology: \n", False),
    "tab": (", name: A}", ",\tname: A}", False),
    "bom": ("name: tri", "\ufeffname: tri", False),
    "comment-bell": ("  links:\n", "  links:\n# \x07\n", False),
    "comment-indented": ("  links:\n", "  links:\n  # note\n", False),
    "comment-after-row": ("rate: 1}\n", "rate: 1}  # note\n", False),
    "document-markers": ("name: tri\n", "---\nname: tri\n", False),
    "document-end": ("rate: 1}\n", "rate: 1}\n...\n", False),
    "comments-and-blanks": ("  links:\n", "  links:\n\n# note: {a: 1}\n\n", True),
    # structure
    "swapped-keys": ("{a: 0, b: 1,", "{b: 1, a: 0,", False),
    "duplicated-key": ("{id: 0,", "{id: 0, id: 0,", False),
    "duplicated-top-key": ("name: tri\n", "name: tri\nname: tro\n", False),
    "flag-false": ("reconstructed: true", "reconstructed: false", True),
    "flag-yes": ("reconstructed: true", "reconstructed: yes", False),
    "no-flag": ("reconstructed: true\n", "", True),
    "no-name": ("name: tri\n", "", True),
    "no-rate": (", rate: 1}", "}", True),
    "no-node-rows": ("    - {id: 0, name: A}\n    - {id: 1, name: b.c-d_1}\n"
                     '    - {id: 2, name: "7"}\n', "", False),
    # units
    "unit-mi": ("unit: km", "unit: mi", True),
    "unit-10mi": ("unit: km", "unit: 10mi", True),
    "unit-furlong": ("unit: km", "unit: furlong", False),
    "unit-list": ("unit: km", "unit: [km]", False),
}


@pytest.mark.parametrize("old, new, taken", ROW_MUTATIONS.values(), ids=ROW_MUTATIONS)
def test_row_reader_matches_the_composer_on_mutated_dumps(old, new, taken):
    assert old in ROWS
    text = ROWS.replace(old, new, 1)
    with counting_yaml_parses() as parsed:
        outcome = parse_outcome(text)
    assert outcome == composed_outcome(text)
    assert (parsed == []) == taken


# plain scalars of every resolver tag, each tried as a value, a key and
# inside flow collections
PLAIN_SCALARS = [
    "yes", "No", "on", "OFF", "~", "null", "0x1F", "0o17", "0b101", "017", "+12",
    "1_000", "1:30", "190:20:30", ".inf", "-.Inf", ".NaN", "6.8523015e+5", "685.230_15e+03",
    "._", "2002-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5",
    "2001-12-15T02:59:43.1Z", "'yes'", '"0x1F"', "'1:30'", "! 12", "! yes", "x y",
]
# anchors, aliases, tags, merge and value keys, collections as keys,
# several documents, deep nesting, values the constructors refuse, and
# YAML errors
COMPOSED = {
    "alias": "a: &x 1\nb: *x\n",
    "anchored-mapping": "a: &m {b: 1}\nc: *m\n",
    "recursive-alias": "&a [*a]\n",
    "unused-anchors": "a: &x 1\nb: &y [2]\nc: &z {d: 3}\n",
    "duplicate-scalar-anchor": "a: &x 1\nb: &x 2\n",
    "duplicate-collection-anchor": "a: &x [1]\nb: &x {c: 2}\n",
    "undefined-alias": "a: *nowhere\n",
    "merge": "base: &b {x: 1}\nd:\n  <<: *b\n  y: 2\n",
    "merge-flow": "{<<: {a: 1}, b: 2}\n",
    "merge-value": "a: <<\n",
    "value-key": "=: 1\nb: 2\n",
    "value-value": "a: =\n",
    "str-tag": "a: !!str 1\n",
    "int-tag": "a: !!int '7'\n",
    "float-tag": "a: !!float 1\n",
    "bad-int-tag": "a: !!int many\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "local-tag": "a: !local x\n",
    "set": "a: !!set {x, y}\n",
    "omap": "a: !!omap [{x: 1}, {y: 2}]\n",
    "pairs": "a: !!pairs [{x: 1}, {x: 2}]\n",
    "tagged-map": "!!map {a: 1}\n",
    "tagged-seq": "a: !!seq [1]\n",
    "sequence-key": "? [1, 2]\n: 3\n",
    "mapping-key": "? {a: 1}\n: 3\n",
    "flow-sequence-key": "{[1]: 2}\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    "three-scalar-documents": "--- 1\n--- 2\n--- 3\n",
    "empty": "",
    "comment-only": "# only a comment\n",
    "blank-lines": "\n\n",
    "nested-70": "a: " + "[" * 70 + "]" * 70 + "\n",
    "nested-2000": "a: " + "[" * 2000 + "]" * 2000 + "\n",
    "bad-month": "a: 2001-13-45\n",
    "bad-binary-int": "a: 0b_\n",
    "unclosed": "a: [unclosed\n",
    "mapping-in-scalar": "a: b: c\n",
    "error-after-document": "a: 1\n...\n]\n",
}
PLAIN = {
    **{f"scalar-{s}": f"v: {s}\n{s}: k\nl: [{s}, {{m: {s}}}]\n" for s in PLAIN_SCALARS},
    "duplicate-keys": "a: 1\nb: 2\na: 3\n",
    "untagged-collections": "! {a: ! [1, 2]}\n",
    "empty-values": "a:\nb: ''\nc: !\n",
    "scalar-document": "just text\n",
    "empty-document": "---\n...\n",
    "explicit-document": "%YAML 1.1\n---\na: [1, 2]\n...\n",
    "nested-32": "a: " + "[" * 31 + "]" * 31 + "\n",
    "null-and-nan-keys": "~: 1\n.nan: 2\n.NaN: 3\n",
    "quoted-escapes": "a: \"\\t\\u00e9\\x41\"\nb: 'it''s'\n",
    "block-scalars": "a: |\n  one\n  two\nb: >-\n  folded\n  text\n",
}


@pytest.mark.parametrize("text", [*PLAIN.values(), *COMPOSED.values()],
                         ids=[*PLAIN, *COMPOSED])
def test_declined_text_parses_as_yaml_safe_load(text):
    # the row reader declines each of these, and the outcome is
    # yaml.safe_load's document or its error
    assert topology._read_rows(text) is None
    outcome = parse_outcome(text)
    try:
        doc = yaml.safe_load(text)
    except RecursionError:
        assert outcome == "ScenarioError: scenario is not valid YAML: it nests too deeply"
    except (yaml.YAMLError, ValueError, LookupError, AttributeError) as exc:
        assert outcome.startswith("ScenarioError: scenario is not valid YAML")
        assert outcome.endswith(f": {exc}")
    else:
        assert outcome == repr(doc)


@pytest.mark.parametrize(
    "text, at_line",
    [
        ("topology:\n  nodes: [{id: 0}\n", True),
        ("a: b: c\n", True),
        ("a: 1\nb: *nowhere\n", True),
        ("a: !!python/object:os.system x\n", True),
        ('a: "\x00"\n', False),
        ('a: "\ud800"\n', False),
    ],
)
def test_yaml_error_text_matches_the_pure_loader(text, at_line):
    with pytest.raises(ScenarioError) as err:
        load_scenario(text)
    with pytest.raises(yaml.YAMLError) as exc:
        yaml.safe_load(text)
    mark = getattr(exc.value, "problem_mark", None)
    where = f" at line {mark.line + 1}" if mark is not None else ""
    assert str(err.value) == f"scenario is not valid YAML{where}: {exc.value}"
    assert (" at line " in str(err.value).splitlines()[0]) == at_line


def test_tab_separation_inside_a_line_is_refused(tmp_path):
    # yaml.safe_load's scanner rejects a tab after "key:" on every PyYAML
    # build
    tabbed = TRIANGLE.replace(": ", ":\t").replace(", ", ",\t")
    assert "\t" in tabbed
    with pytest.raises(ScenarioError, match="cannot start any token"):
        load_scenario(tabbed)
    path = tmp_path / "tabbed.yaml"
    path.write_text(tabbed, encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1


@pytest.mark.parametrize("name", fixture_names())
def test_safe_dumps_of_every_fixture_load_through_safe_load(name):
    # dumps with sorted keys or a 4-column indent leave the row layouts:
    # yaml.safe_load reads them, to the scenario the fixture holds
    text = _fixture_text(name)
    doc = yaml.safe_load(text)
    canonical = dump_scenario(load_scenario(text))
    for redump in (yaml.safe_dump(doc), yaml.safe_dump(doc, indent=4, sort_keys=False)):
        assert topology._read_rows(redump) is None
        assert dump_scenario(load_scenario(redump)) == canonical


def test_total_link_length_stays_below_the_sentinels():
    limit = INF_MM // 4
    topo = Topology(3, [(0, 1, limit - 3), (1, 2, 1), (0, 2, 1)])
    assert sum(topo.link_mm) == limit - 1
    with pytest.raises(ScenarioError, match="too large"):
        Topology(3, [(0, 1, limit - 2), (1, 2, 1), (0, 2, 1)])


def test_sub_millimetre_length_is_refused():
    # int(0.5) is a 0-mm link, on which the shortest-path walks never end
    with pytest.raises(ScenarioError, match="link 0: distance must be positive"):
        Topology(3, [(0, 1, 0.5), (1, 2, 1), (0, 2, 2)])


def test_adj_rows_are_the_one_adjacency():
    topos = [load_fixture(name).topology for name in FIXTURES]
    topos += [random_scenario(seed)[0] for seed in range(30)]
    for topo in topos:
        seen = [0] * topo.m
        for v in range(topo.n):
            rows = topo.adj_rows[v]
            assert topo.degree(v) == len(rows)
            assert [w for w, _, _ in rows] == sorted(w for w, _, _ in rows)
            for w, lid, mm in rows:
                link = topo.links[lid]
                assert {link.a, link.b} == {v, w}
                assert mm == topo.link_mm[lid]
                assert topo.link_between(w, v) is link
                seen[lid] += 1
        assert seen == [2] * topo.m


@pytest.mark.parametrize(
    "n, links, message",
    [
        (1, [], "topology needs at least two nodes"),
        (3, [], "topology has no links"),
    ],
)
def test_topology_needs_two_nodes_and_a_link(n, links, message):
    with pytest.raises(ScenarioError, match=f"^{message}$"):
        Topology(n, links)


@pytest.mark.parametrize("unit", [["km"], {"a": 1}])
def test_unit_must_be_a_known_name(unit):
    with pytest.raises(ScenarioError, match="unknown distance unit"):
        Topology(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)], unit=unit)
    with pytest.raises(ScenarioError, match="unknown distance unit"):
        Topology.from_edge_list([(0, 1, 1), (1, 2, 1), (0, 2, 1)], unit=unit)


def test_disconnected_topology_rejected():
    text = TRIANGLE.replace("{id: 2}", "{id: 2}\n    - {id: 3}")
    with pytest.raises(ScenarioError) as err:
        load_scenario(text)
    assert "disconnected" in str(err.value)
    assert "3" in str(err.value)


def test_degree_one_node_warns_but_loads():
    text = """
topology:
  unit: km
  nodes: [{id: 0}, {id: 1}, {id: 2}, {id: 3, name: leaf}]
  links:
    - {a: 0, b: 1, distance: 1}
    - {a: 1, b: 2, distance: 1}
    - {a: 0, b: 2, distance: 1}
    - {a: 2, b: 3, distance: 1}
demands:
  - {src: 0, dst: 1}
"""
    sc = load_scenario(text)
    assert len(sc.topology.warnings) == 1
    assert "degree 1" in sc.topology.warnings[0]
    assert "leaf" in sc.topology.warnings[0]


def test_blocked_mask_takes_link_ids():
    sc = load_fixture("example2")
    topo = sc.topology
    mask = topo.blocked_mask([0, 3])
    assert list(mask) == [1, 0, 0, 1, 0, 0, 0]
    # divbench's tracer keys each Dijkstra call on the mask's bytes
    assert mask.tobytes() == bytes([1, 0, 0, 1, 0, 0, 0])


def test_dump_quotes_names_only_when_needed():
    topo = Topology(
        2, [(0, 1, 1_000_000)], names={0: 'a "b"', 1: "Plain-name"}
    )
    sc = Scenario(topology=topo, demands=[Flow(0, 1, 1)], name="x: y")
    text = dump_scenario(sc)
    assert 'name: "x: y"' in text
    assert 'name: "a \\"b\\""' in text
    assert "name: Plain-name}" in text
    # strings that YAML would misread stay quoted
    topo = Topology(2, [(0, 1, 1_000_000)], names={0: "1", 1: "no"})
    text = dump_scenario(Scenario(topology=topo, demands=[Flow(0, 1, 1)]))
    assert 'name: "1"' in text
    assert 'name: "no"' in text
    again = load_scenario(text)
    assert again.topology.names == {0: "1", 1: "no"}
