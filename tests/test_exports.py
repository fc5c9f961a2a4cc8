import importlib
import inspect
import pkgutil

import pytest

import illposed

MODULES = ["illposed"] + [f"illposed.{info.name}"
                          for info in pkgutil.iter_modules(illposed.__path__)]


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
