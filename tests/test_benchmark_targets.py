"""The benchmark's tracer (perfbench/tracing.py) wraps nls_lab functions
by name; every name it lists must exist, or traced benchmark runs fail."""

import importlib
import importlib.util
from pathlib import Path


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    for modname, attr, clsname, span, _ in _tracing().TARGETS:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname, None)
        assert callable(getattr(owner, attr, None)), f"{span}: {modname} {clsname or ''} {attr} is missing"
