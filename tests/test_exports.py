import importlib
import pkgutil

import pytest

import swmoment

MODULES = sorted(m.name for m in pkgutil.iter_modules(swmoment.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"swmoment.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"swmoment.{name}.__all__ names missing attributes: {missing}"


def test_star_import_of_package():
    namespace = {}
    exec("from swmoment import *", namespace)
    for name in ("build_basis", "Newtonian", "MuI", "source", "run", "to_primitive"):
        assert name in namespace
