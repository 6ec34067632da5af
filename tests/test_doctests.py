"""The examples in the package's docstrings run as printed.

``pytest --doctest-modules`` would import ``pgroups.__main__``, whose
top-level ``sys.exit(main())`` ends collection, so each module is run through
``doctest.testmod`` here instead.
"""
import doctest
import importlib
import pkgutil

import pytest

import pgroups

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(pgroups.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"pgroups.{name}")
    result = doctest.testmod(module, report=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_the_examples_are_found():
    attempted = sum(
        doctest.testmod(importlib.import_module(f"pgroups.{name}"), report=False).attempted
        for name in MODULES
    )
    assert attempted >= 61
