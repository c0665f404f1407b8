"""The scenario parser's row reader and event builder against PyYAML's
composer: on random documents dumped in flow, block and canonical style, on
flow mappings spelled from plain scalars, anchors, aliases, tags and nested
collections, and on scenario texts in ``dump_scenario``'s row layout with
tricky values and comment and blank lines mixed in."""
import datetime
from itertools import count

import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import composed_outcome, parse_outcome  # noqa: E402

keys = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
)
scalars = st.one_of(
    keys,
    st.floats(),
    st.dates(),
    st.datetimes(timezones=st.sampled_from([None, datetime.timezone.utc])),
    st.sampled_from(["yes", "off", "~", "0x1F", "0o17", "1_000", "1:30", ".inf", "<<", "="]),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=30,
)
STYLES = {
    "flow": {"default_flow_style": True},
    "block": {"default_flow_style": False},
    "canonical": {"canonical": True},
}


TOKENS = [
    "yes", "On", "~", "", "0x1F", "0o17", "0b_", "1_000", "1:30", ".inf", ".NaN", "2001-12-14",
    "2001-13-45", "<<", "=", "x", "'q'", '"1"', "! 12", "!!str 1", "!!int x", "!!set {s}", "&a 1",
    "&b [1]", "*a", "*b", "[1, {c: d}]", "{b: [c]}", "{<<: {m: 1}}",
]
flow_mappings = st.lists(
    st.tuples(st.sampled_from(TOKENS), st.sampled_from(TOKENS)), max_size=6
).map(lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}\n")


@settings(max_examples=100, deadline=None, database=None)
@given(doc=documents, style=st.sampled_from(sorted(STYLES)))
def test_event_builder_matches_the_composer_on_random_documents(doc, style):
    text = yaml.safe_dump(doc, allow_unicode=True, **STYLES[style])
    assert parse_outcome(text) == composed_outcome(text)


@settings(max_examples=200, deadline=None, database=None)
@given(text=flow_mappings)
def test_event_builder_matches_the_composer_on_spelled_mappings(text):
    assert parse_outcome(text) == composed_outcome(text)


# per kind of slot, values the row reader takes, and values YAML reads
# otherwise or that fall outside the layout
ROW_VALUES = {
    "int": ["0", "1", "7", "12", "905"],
    "distance": ["1", "10", "2.5", "0.125", "1.000000001"],
    "name": ["A", "b.c-d_1", "x9", '"7"', '"a #b {c}"', '""'],
    "unit": ["km", "mi", "10mi"],
    "flag": ["true", "false"],
    "filler": ["", "#", "# note: {a: 1}"],
}
TRICKY = {
    "int": ["007", "+1", "-3", "1_0", "0x1F", "0o17", "1:30", "1.5", "", "~", "7" * 5000],
    "distance": ["1e3", ".5", "5.", "1_0.5", ".inf", ".NaN", "-1", "007", "2001-12-14", "1:30.5"],
    "name": [
        "yes", "No", "NULL", "On", "none", "~", "", "é", '"é"', '"a\\tb"', "'q'", "a b",
        "x #c", "!!str 1", "&a 1", "*a", "[1]", "{a: 1}",
    ],
    "unit": ["furlong", "KM", "[km]", "{km: 1}", ""],
    "flag": ["yes", "True", "FALSE", "on", "1", ""],
    "filler": ["  # indented", "# \x07", " ", "# \u00e9", "---", "...", "\t"],
}


@st.composite
def row_texts(draw):
    """A scenario text in the row layout with at most two of its values or
    filler lines tricky, and now and then a section without rows."""
    counts = [draw(st.integers(1, 3)) for _ in range(3)]
    if draw(st.integers(0, 9)) == 0:
        counts[draw(st.integers(0, 2))] = 0
    lines = []  # (format, kinds of its slots)
    if draw(st.booleans()):
        lines.append(("name: {}", ["name"]))
    if draw(st.booleans()):
        lines.append(("reconstructed: {}", ["flag"]))
    lines += [("topology:", []), ("  unit: {}", ["unit"]), ("  nodes:", [])]
    for _ in range(counts[0]):
        named = draw(st.booleans())
        lines.append(("    - {{id: {}, name: {}}}", ["int", "name"]) if named
                     else ("    - {{id: {}}}", ["int"]))
    lines.append(("  links:", []))
    lines += [("    - {{a: {}, b: {}, distance: {}}}", ["int", "int", "distance"])] * counts[1]
    lines.append(("demands:", []))
    for _ in range(counts[2]):
        rated = draw(st.booleans())
        lines.append(("  - {{src: {}, dst: {}, rate: {}}}", ["int"] * 3) if rated
                     else ("  - {{src: {}, dst: {}}}", ["int"] * 2))
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(at, ("{}", ["filler"]))
    slots = sum(len(kinds) for _, kinds in lines)
    tricky = draw(st.sets(st.integers(0, slots - 1), max_size=2))
    slot = count()
    out = []
    for fmt, kinds in lines:
        pools = [(TRICKY if next(slot) in tricky else ROW_VALUES)[kind] for kind in kinds]
        out.append(fmt.format(*(draw(st.sampled_from(pool)) for pool in pools)))
    return "\n".join(out) + "\n"


@settings(max_examples=150, deadline=None, database=None)
@given(text=row_texts())
def test_row_reader_matches_the_composer_on_row_layout_texts(text):
    assert parse_outcome(text) == composed_outcome(text)
