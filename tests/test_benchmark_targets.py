"""The benchmark (perfbench/) drives nls_lab by name: its tracer
(tracing.py) wraps functions that must exist, its runner (run.py) passes
`--workers 1` to every subcommand, its set-up probe (setup_probe.py)
calls backend.backend_name(), and its workloads (workloads.py) run
configs that every subcommand must still accept, and whose outputs must
pass the workloads' own checks, or benchmark runs fail."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from nls_lab import backend, cli
from nls_lab.config import SUBCOMMANDS, parse_config


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


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_runner_arguments_parse(subcommand, tmp_path):
    """run.py's `--workers 1` parses on every subcommand: a missing config
    file is the config error the run reports, not an argument error."""
    argv = [subcommand, "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o"), "--workers", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG


def test_setup_probe_names_resolve():
    assert isinstance(backend.backend_name(), str)


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_configs_parse(seed, tiny):
    workloads = _perfbench("workloads")
    for w in workloads.WORKLOADS.values():
        values = w.config(seed, tiny)
        cfg = parse_config(workloads.config_text(values), w.subcommand)
        assert set(cfg.values) == set(values), w.name
        assert cfg.grid().n >= 8


@pytest.mark.parametrize("name", ["threshold_single", "named_set", "scatter_conformal"])
def test_tiny_workload_passes_its_output_checks(name, tmp_path):
    """Each workload's tiny config runs through the CLI, and its artifacts
    pass the manifest check and the workload's own output check."""
    workloads = _perfbench("workloads")
    w = workloads.WORKLOADS[name]
    values = w.config(1, True)
    path = tmp_path / "run.cfg"
    path.write_text(workloads.config_text(values))
    prefix = tmp_path / name
    assert cli.main([w.subcommand, "--config", str(path), "--out", str(prefix)]) == cli.EXIT_OK
    problems, _ = workloads.verify_manifest(prefix)
    assert problems == []
    assert w.check(prefix, values) == []
