"""The package's promises: each public name exists, and each third-party
import of its modules is a declared runtime dependency."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import remest

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from remest.<module> import *`, and nothing else would notice
    missing = []
    for info in pkgutil.iter_modules(remest.__path__):
        module = importlib.import_module(f"remest.{info.name}")
        missing += [f"remest.{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    for node in ast.walk(ast.parse(Path(remest.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"remest.{node.module}")
            missing += [f"remest.{alias.name}" for alias in node.names
                        if not hasattr(source, alias.name) or not hasattr(remest, alias.name)]
    assert not missing


def test_runtime_imports_are_the_declared_dependencies():
    # every third-party module that a module of src/remest imports, at its
    # top or inside a function, is in [project] dependencies; scipy is a
    # test dependency only
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    imported = set()
    for path in (ROOT / "src" / "remest").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"remest"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower() for dep in project["dependencies"]}
    assert "scipy" not in imported | declared
    assert third_party <= declared, third_party - declared
