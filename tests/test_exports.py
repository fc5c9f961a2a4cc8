import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import illposed

MODULES = ["illposed"] + [f"illposed.{info.name}"
                          for info in pkgutil.iter_modules(illposed.__path__)]
SOURCES = sorted(path.name for path in Path(illposed.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def _exported(module):
    """The module's ``__all__``; the package, which has none, exports every
    public name it imports from its modules."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name, value in vars(module).items()
            if not name.startswith("_") and not inspect.ismodule(value)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from ... import *``, and the benchmark
    # tracer, which wraps the names in __all__, would skip it silently
    module = importlib.import_module(name)
    exported = _exported(module)
    assert exported
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_exports_are_public_in_their_modules():
    for attr in _exported(illposed):
        value = getattr(illposed, attr)
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("illposed."):
            assert attr in importlib.import_module(home).__all__, (attr, home)


@pytest.mark.parametrize("filename", SOURCES)
def test_every_imported_name_is_used(filename):
    # an import that the module neither reads nor exports is a leftover of
    # removed code
    path = Path(illposed.__file__).parent / filename
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"illposed.{path.stem}")
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


def test_every_test_named_in_the_readme_exists():
    # the README names the test that pins each invariant it states; a
    # renamed or deleted test must not leave a dangling name behind
    root = Path(__file__).resolve().parents[1]
    named = set(re.findall(r"\b(test_\w+)(?!\w|\.py)", (root / "README.md").read_text("utf-8")))
    defined = {node.name for path in (root / "tests").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    assert len(named) >= 20, sorted(named)
    assert named <= defined, sorted(named - defined)
