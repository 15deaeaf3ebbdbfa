"""Every annotation in the package resolves.

No linter runs on this code, so a name used only in an annotation and
never imported would go unnoticed; ``typing.get_type_hints`` evaluates
each annotation and raises ``NameError`` on such a name.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import saew

MODULES = sorted(f"saew.{m.name}" for m in pkgutil.iter_modules(saew.__path__))


def _annotated_objects(module):
    """Functions and classes defined in ``module``, and their methods."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    objects = list(_annotated_objects(module))
    assert objects
    for obj in objects:
        typing.get_type_hints(obj)
