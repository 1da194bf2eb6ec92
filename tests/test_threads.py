"""Importing nls_lab pins numpy's OpenBLAS pool to one thread, and a run's
manifest records the setting and the threads that ran.  Each check runs a
fresh interpreter: this one imported numpy before nls_lab, so its pool is
already started."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(args, blas_threads, cwd):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("preset, expect", [(None, "1"), ("3", "3")])
def test_import_pins_openblas_unless_preset(preset, expect, tmp_path):
    code = "import os, nls_lab; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(["-c", code], preset, tmp_path).strip() == expect


def test_threshold_manifest_records_the_threads_that_ran(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "d = 1\nq = 4\np = 4.5\ncoeffs.alpha = 0.5\ncoeffs.beta = 0.2\n"
        "coeffs.gamma = 0.18181818181818182\nbracket_tol = 0.2\n"
    )
    out = tmp_path / "t"
    _python(["-m", "nls_lab.cli", "threshold", "--config", str(cfg), "--out", str(out)], None, tmp_path)
    man = json.loads((tmp_path / "t.manifest.json").read_text())
    assert man["numpy_version"] == np.__version__
    assert man["openblas_num_threads"] == "1"
    if sys.platform.startswith("linux"):
        assert man["native_threads"] == 1
