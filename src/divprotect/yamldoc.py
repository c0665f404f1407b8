"""PyYAML's readers for scenario text outside the row layout.

``topology._parse_yaml`` reads the row layout ``dump_scenario`` writes
with ``topology._read_rows`` and imports this module only for text that
reader declines, so PyYAML loads on the first such file and never for
the bundled fixtures. Two readers live here, each tried when those
before it decline: ``_build_document``, which builds any plain document,
such as a block-style dump, straight from the parser's events, and
PyYAML's composer for the rest, such as anchors, tags, several
documents and YAML errors. ``parse`` runs them and maps PyYAML's errors
to ``ScenarioError``.
"""
from __future__ import annotations

import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.events import (
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

from .topology import ScenarioError

if yaml.__with_libyaml__:
    from yaml.cyaml import CParser

    class _Loader(Composer, CParser, SafeConstructor, Resolver):
        """libyaml scans and parses; PyYAML's Python composer and
        SafeConstructor build the document.

        ``yaml.CSafeLoader`` would compose in C too, and its composer
        recurses once per nesting level on the C stack: a 60 KB document
        of nested brackets crashes the process. The Python composer
        raises RecursionError at the depth the pure loader does.
        """

        def __init__(self, stream):
            CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)

    _LOADER = _Loader
else:  # pragma: no cover - PyYAML built without libyaml
    _LOADER = yaml.SafeLoader


# the scalar tags _build_document constructs itself; any other tag, such
# as the merge key "<<" or the value key "=", goes to the composer
_PLAIN_SCALARS = {
    tag: SafeConstructor.yaml_constructors[tag]
    for tag in (
        "tag:yaml.org,2002:str",
        "tag:yaml.org,2002:int",
        "tag:yaml.org,2002:float",
        "tag:yaml.org,2002:bool",
        "tag:yaml.org,2002:null",
        "tag:yaml.org,2002:timestamp",
    )
}
# deepest collection nesting _build_document builds (a scenario needs 4);
# deeper documents keep the composer's "nests too deeply" verdict
_MAX_DEPTH = 32
_COMPOSE = object()  # _build_document's answer for documents it leaves alone
_NO_KEY = object()


def _plain_scalar(loader, ev):
    """What ``yaml.load`` makes of an untagged scalar event, or ``_COMPOSE``
    when its tag is not in ``_PLAIN_SCALARS`` or its constructor refuses it
    (the composer raises that error in its turn)."""
    tag = loader.resolve(ScalarNode, ev.value, ev.implicit)
    construct = _PLAIN_SCALARS.get(tag)
    if construct is None:
        return _COMPOSE
    try:
        return construct(loader, ScalarNode(tag, ev.value))
    except (ValueError, LookupError, AttributeError):
        return _COMPOSE


def _build_document(text: str):
    """Build the one document of ``text`` straight from the parser's events.

    Covers the plain subset scenario files use: one document of mappings,
    sequences and scalars, nested at most ``_MAX_DEPTH`` deep, with no
    anchor, no tag other than the non-specific "!", scalars of a tag in
    ``_PLAIN_SCALARS`` and only scalars as keys. Each scalar is resolved
    and constructed as ``yaml.load`` would, once per distinct (value,
    plain) pair. Returns ``_COMPOSE`` for any other stream, for which
    ``yaml.load`` with its composer gives the document or the error.
    """
    loader = _LOADER(text)
    try:
        get = loader.get_event
        get()  # StreamStartEvent
        if get().__class__ is not DocumentStartEvent:
            return _COMPOSE
        memo = {}
        stack = []  # open collections, innermost last
        keys = []  # per open mapping its pending key or _NO_KEY, None per list
        while True:
            ev = get()
            cls = ev.__class__
            if cls is ScalarEvent:
                if ev.anchor is not None or (ev.tag is not None and ev.tag != "!"):
                    return _COMPOSE
                # resolution reads only the value and the plain flag
                key = ev.value, ev.implicit[0]
                try:
                    value = memo[key]
                except KeyError:
                    value = memo[key] = _plain_scalar(loader, ev)
                    if value is _COMPOSE:
                        return _COMPOSE
            elif cls is MappingStartEvent or cls is SequenceStartEvent:
                if (
                    ev.anchor is not None
                    or (ev.tag is not None and ev.tag != "!")
                    or len(stack) == _MAX_DEPTH
                    or (keys and keys[-1] is _NO_KEY)  # a collection as a key
                ):
                    return _COMPOSE
                if cls is MappingStartEvent:
                    stack.append({})
                    keys.append(_NO_KEY)
                else:
                    stack.append([])
                    keys.append(None)
                continue
            elif cls is MappingEndEvent or cls is SequenceEndEvent:
                value = stack.pop()
                keys.pop()
            else:  # an alias
                return _COMPOSE
            if not stack:
                break
            top = stack[-1]
            if top.__class__ is list:
                top.append(value)
            elif keys[-1] is _NO_KEY:
                keys[-1] = value
            else:
                top[keys[-1]] = value
                keys[-1] = _NO_KEY
        get()  # DocumentEndEvent
        if get().__class__ is not StreamEndEvent:
            return _COMPOSE  # a second document
        return value
    finally:
        loader.dispose()


def parse(text: str):
    """The one document of ``text``, as ``yaml.safe_load`` reads it, or
    ScenarioError: ``_build_document`` first, the composer when it
    declines."""
    try:
        try:
            doc = _build_document(text)
            return yaml.load(text, Loader=_LOADER) if doc is _COMPOSE else doc
        except (yaml.YAMLError, UnicodeEncodeError):
            # libyaml's messages carry no snippet and it cannot encode a
            # lone surrogate; the pure loader's verdict and text stand
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
