"""PyYAML's reader for scenario text outside the row layouts.

``topology._parse_yaml`` reads the two row layouts, ``dump_scenario``'s
and a block-style ``yaml.safe_dump``, with ``topology._read_rows`` and
imports this module only for text that reader declines, so PyYAML loads
on the first such file and never for the bundled fixtures or the
benchmark's instances. ``parse`` has PyYAML's composer build the
document of such text, which may hold anchors, tags, several documents
or another layout, and maps PyYAML's errors to ``ScenarioError``.
"""
from __future__ import annotations

import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
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


def parse(text: str):
    """The one document of ``text``, as ``yaml.safe_load`` reads it, or
    ScenarioError."""
    try:
        try:
            return yaml.load(text, Loader=_LOADER)
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
