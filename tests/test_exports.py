import ast
import importlib
import pkgutil
from pathlib import Path

import nls_lab

MODULES = ["nls_lab"] + [f"nls_lab.{m.name}" for m in pkgutil.iter_modules(nls_lab.__path__)]


def test_every_all_entry_resolves():
    """Each name in nls_lab.__all__ and in every module's __all__ exists,
    so `from ... import *` cannot fail on a stale entry."""
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_unused_imports():
    """Every name a module of nls_lab imports is used in it or listed in
    its __all__."""
    unused = []
    for name in MODULES:
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        unused += [
            f"{name}: {alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        ]
    assert unused == []
