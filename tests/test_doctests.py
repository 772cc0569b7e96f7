"""Keep the usage examples in the module docstrings honest."""

import doctest
import importlib
import pkgutil

import pytest

import rexcalc

MODULES = ["rexcalc"] + sorted(f"rexcalc.{info.name}" for info in pkgutil.iter_modules(rexcalc.__path__))
# modules whose docstrings must show at least one example
WITH_EXAMPLES = {"rexcalc.polyring", "rexcalc.rexgraph", "rexcalc.symgroup"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, tried = doctest.testmod(importlib.import_module(name))
    assert failures == 0
    assert tried > 0 or name not in WITH_EXAMPLES


def test_every_module_with_examples_exists():
    assert WITH_EXAMPLES <= set(MODULES)
