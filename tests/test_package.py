"""The package's public names: each one a module or the package promises exists."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import remest


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


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy.special alone takes about 270 ms to import, and a fresh
    # `import remest.cli` is every command's start-up cost
    src = str(Path(remest.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, remest, remest.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]", done.stdout
