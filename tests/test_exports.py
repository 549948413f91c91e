import ast
import importlib
import pkgutil
import sys
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
    # one that module declares public.  A * import must come from a module
    # with an __all__: one without would leak every name it imports.
    tree = ast.parse(Path(pathsystems.__file__).read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"pathsystems.{node.module}")
            public = getattr(module, "__all__", None)
            if [a.name for a in node.names] == ["*"]:
                if public is None:
                    unlisted.append(f"{node.module}.*")
            elif public is not None:
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert unlisted == []


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [*(ROOT / "src" / "pathsystems").glob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def unused_imports(tree):
    """Names the module imports but never reads (no lint tool is a dependency)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


# The package's __init__ imports to re-export, so it is not checked.
@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p != ROOT / "src" / "pathsystems" / "__init__.py"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def foreign_imports(path):
    """Imports of a module that are neither relative nor from the standard library."""
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return foreign


# The package runs on the standard library alone, with no optional import.
@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "pathsystems").glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_runtime_imports_are_standard_library(path):
    assert foreign_imports(path) == []
