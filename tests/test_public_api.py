"""The export lists agree with the code: a deleted or renamed name cannot
linger in an ``__all__`` or in the package namespace."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stokin

# __main__ runs the command line on import
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(stokin.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_entries_resolve(name):
    module = importlib.import_module(f"stokin.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_are_public():
    tree = ast.parse(Path(stokin.__file__).read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = importlib.import_module(f"stokin.{node.module}")
        if not hasattr(module, "__all__"):  # e.g. errors: everything is public
            continue
        unlisted += [
            f"{node.module}.{alias.name}"
            for alias in node.names
            if alias.name not in module.__all__
        ]
    assert unlisted == []
