"""The benchmark (perfbench/) drives nls_lab by name: its tracer
(tracing.py) wraps functions that must exist, and its workloads
(workloads.py) run configs that every subcommand must still accept, or
benchmark runs fail."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from nls_lab.config import parse_config


def _perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    for modname, attr, clsname, span, _ in _perfbench("tracing").TARGETS:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname, None)
        assert callable(getattr(owner, attr, None)), f"{span}: {modname} {clsname or ''} {attr} is missing"


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_configs_parse(seed, tiny):
    workloads = _perfbench("workloads")
    for w in workloads.WORKLOADS.values():
        values = w.config(seed, tiny)
        cfg = parse_config(workloads.config_text(values), w.subcommand)
        assert set(cfg.values) == set(values), w.name
        assert cfg.grid().n >= 8
