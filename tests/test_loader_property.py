"""The scenario parser's event builder against PyYAML's composer: on random
documents dumped in flow, block and canonical style, and on flow mappings
spelled from plain scalars, anchors, aliases, tags and nested collections."""
import datetime

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
