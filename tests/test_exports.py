"""Every exported name resolves, in the package and in each of its modules, and something outside its own tests uses it."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import acring

MODULES = ["acring"] + [f"acring.{info.name}" for info in pkgutil.iter_modules(acring.__path__)]
ROOT = Path(__file__).resolve().parent.parent
# apply_hamiltonian is the tests' eigenstate oracle: it writes the Hamiltonian
# once more, apart from the descent's residual, so the solver can be checked
# against it; nothing in the package needs it
TEST_ONLY = {"apply_hamiltonian"}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def used_names():
    """Every ast.Name and ast.Attribute in the package, the benchmark, the acceptance tests and the README's python."""
    sources = [path.read_text(encoding="utf-8") for path in (ROOT / "src" / "acring").glob("*.py")]
    sources += [path.read_text(encoding="utf-8") for path in (ROOT / "perfbench").glob("*.py")]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.DOTALL)
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_use_beyond_its_tests():
    used = used_names()
    exported = {n for name in MODULES for n in importlib.import_module(name).__all__}
    assert sorted(exported - used) == sorted(TEST_ONLY)
