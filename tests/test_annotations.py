import importlib
import inspect
import pkgutil
import typing

import pytest

import divprotect

MODULES = sorted(m.name for m in pkgutil.iter_modules(divprotect.__path__, "divprotect."))


def annotated(module):
    """Every function, method and class the module defines, each
    function unwrapped from ``functools.cache``."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield obj
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if inspect.isfunction(attr) and attr.__module__ == module.__name__:
                    yield attr
        elif callable(obj):
            obj = inspect.unwrap(obj)
            if inspect.isfunction(obj):
                yield obj


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    # annotations are strings under ``from __future__ import annotations``;
    # a name they use that the module does not define fails only here
    module = importlib.import_module(name)
    objs = list(annotated(module))
    assert objs
    for obj in objs:
        typing.get_type_hints(obj)
