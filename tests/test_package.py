"""Package-level checks: every exported name resolves in its module."""

import importlib
import pkgutil

import pytest

import triheat

MODULES = [triheat] + [
    importlib.import_module(f"triheat.{info.name}")
    for info in pkgutil.iter_modules(triheat.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
