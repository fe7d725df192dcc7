import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import swmoment

MODULES = sorted(m.name for m in pkgutil.iter_modules(swmoment.__path__) if m.name != "cli")
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"swmoment.{name}")
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"swmoment.{name}.__all__ names missing attributes: {missing}"


def test_star_import_of_package():
    namespace = {}
    exec("from swmoment import *", namespace)
    for name in ("build_basis", "Newtonian", "MuI", "source_batch", "run", "to_primitive"):
        assert name in namespace


def _loaded_names(path: Path) -> set:
    """Names a file reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    # an API that only tests call is a second copy of what the solver runs
    files = [*(ROOT / "src" / "swmoment").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(_loaded_names(f) for f in files
                         if not f.name.startswith(("test_", "conftest"))))
    exported = {name for module in MODULES
                for name in importlib.import_module(f"swmoment.{module}").__all__}
    uncalled = sorted(exported - used)
    assert not uncalled, f"exported names with no caller in src/swmoment or perfbench: {uncalled}"


def test_version_matches_pyproject():
    # the package and its build metadata give one version number
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M)[1] == swmoment.__version__


def test_pyproject_names_the_distribution_swmoment():
    # an install registers the package under the name it is imported by
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^name = "([^"]+)"$', pyproject, re.M)[1] == "swmoment"
