"""Package exports.

Claims covered:
    - every name in a module's __all__ resolves to an attribute of the module
    - every name hexnet/__init__.py imports is listed in the __all__ of the
      module it comes from, so deleting a public name fails here, not at
      import time of a user
"""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hexnet

MODULES = sorted(m.name for m in pkgutil.iter_modules(hexnet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hexnet.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_imports_are_exported():
    tree = ast.parse(Path(hexnet.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package root imports only its own modules"
        module = importlib.import_module(f"hexnet.{node.module}")
        names = [alias.name for alias in node.names]
        assert [n for n in names if n not in module.__all__] == [], node.module
        assert all(getattr(hexnet, n) is getattr(module, n) for n in names)
