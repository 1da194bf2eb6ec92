import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import nls_lab
from nls_lab import cli, config

MODULES = ["nls_lab"] + [f"nls_lab.{m.name}" for m in pkgutil.iter_modules(nls_lab.__path__)]


def test_every_all_entry_resolves():
    """Each name in nls_lab.__all__ and in every module's __all__ exists,
    so `from ... import *` cannot fail on a stale entry."""
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_public_definition_is_exported():
    """Every public top-level function and class of a library module (all
    but cli, the command-line runner) is in its __all__."""
    unlisted = []
    for name in MODULES:
        if name == "nls_lab.cli":
            continue
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text())
        exported = set(getattr(module, "__all__", ()))
        unlisted += [
            f"{name}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in exported
        ]
    assert unlisted == []


def test_no_unused_imports():
    """Every name a module of nls_lab or a test file imports is used in
    it or listed in its __all__."""
    sources = []
    for name in MODULES:
        module = importlib.import_module(name)
        sources.append((name, Path(module.__file__), set(getattr(module, "__all__", ()))))
    sources += [(path.name, path, set()) for path in sorted(Path(__file__).parent.glob("*.py"))]
    unused = []
    for name, path, exported in sources:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
        unused += [
            f"{name}: {alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name.split(".")[0]) not in used
        ]
    assert unused == []


def test_handlers_read_only_keys_of_their_subcommand():
    """Every key literal a cli handler passes to cfg.get or cfg.kwargs,
    itself or through a cli helper it hands cfg, and every key of a
    mapping such as _CONTROLS that it unpacks into cfg.kwargs, is in the
    subcommand's config._KEYS row: cfg.kwargs skips a key the config
    cannot set without a word."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def keys(name, seen):
        found = set()
        for node in ast.walk(functions[name]):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "cfg":
                if f.attr == "get":
                    found.add(ast.literal_eval(node.args[0]))
                elif f.attr == "kwargs":
                    for kw in node.keywords:
                        if kw.arg is None:  # **mapping, a module-level dict of cli such as _CONTROLS
                            found |= set(getattr(cli, kw.value.id).values())
                        else:
                            found.add(ast.literal_eval(kw.value))
            elif isinstance(f, ast.Name) and f.id in functions and f.id not in seen:
                if any(isinstance(a, ast.Name) and a.id == "cfg" for a in node.args):
                    seen.add(f.id)
                    found |= keys(f.id, seen)
        return found

    read = {sub: keys(handler.__name__, {handler.__name__}) for sub, handler in cli._HANDLERS.items()}
    # The helpers and the unpacked _CONTROLS are followed.
    assert {"rho", "max_iters", "seed", "snapshot_taus", "A", "tau_max"} <= set().union(*read.values())
    stray = []
    for sub, ks in read.items():
        required, optional = config._KEYS[sub]
        stray += [f"{sub}: {k}" for k in sorted(ks - {*required, *optional})]
    assert stray == []


def test_numpy_floor_has_vecdot():
    """The flow calls np.vecdot, new in numpy 2.0, so pyproject.toml must
    not admit an older numpy."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    floors = [re.fullmatch(r"numpy\s*>=\s*([\d.]+)", dep) for dep in project["dependencies"]]
    (floor,) = [m.group(1) for m in floors if m]
    assert tuple(int(x) for x in floor.split(".")[:2]) >= (2, 0)
