import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pathsystems

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathsystems.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"pathsystems.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_are_listed_in_all():
    # A name the package re-exports from a module with an __all__ must be
    # one that module declares public.
    tree = ast.parse(Path(pathsystems.__file__).read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"pathsystems.{node.module}")
            public = getattr(module, "__all__", None)
            if public is not None:
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert unlisted == []
