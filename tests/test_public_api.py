"""The public API: each library module declares its names in ``__all__``,
and the package root re-exports exactly their union."""

import importlib
from collections import Counter

import pytest

import scalinglaws

MODULES = ("errors", "laws", "records", "synthetic", "fitting", "planning", "io")


def module_exports():
    return {name: importlib.import_module(f"scalinglaws.{name}").__all__ for name in MODULES}


@pytest.mark.parametrize("name", MODULES)
def test_module_defines_what_it_exports(name):
    module = importlib.import_module(f"scalinglaws.{name}")
    for public in module.__all__:
        assert public in vars(module), f"{name}.__all__ names undefined {public!r}"
        # defined there, not imported from a sibling
        assert getattr(vars(module)[public], "__module__", module.__name__) == module.__name__


def test_no_name_exported_twice():
    counts = Counter(public for names in module_exports().values() for public in names)
    assert [public for public, n in counts.items() if n > 1] == []


def test_root_exports_the_sorted_union():
    exports = module_exports()
    assert scalinglaws.__all__ == sorted(public for names in exports.values() for public in names)
    for name, names in exports.items():
        module = importlib.import_module(f"scalinglaws.{name}")
        assert all(getattr(scalinglaws, public) is getattr(module, public) for public in names)
