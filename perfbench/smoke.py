"""Fast smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run it from the root of a checkout.  It runs every workload at its tiny
size with and without tracing and asserts that each run passes its checks
and emits exactly the metrics of BENCHMARK.json, with their units.  It
asserts that a sample with one corrupted artifact byte is counted as
failed, and that a directory holding only the benchmark's files makes
the benchmark exit nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(args, cwd):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


def check_metrics(root, spec):
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name, wl in WORKLOADS.items():
        for trace in (0, 1):
            proc = bench(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"], root)
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == RESULT_KEYS, f"{name}: result keys {sorted(result)}"
            assert result["correct"] and result["failed"] == 0, f"{name} trace={trace}:\n{proc.stdout}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want[trace], f"{name} trace={trace}: metrics differ from BENCHMARK.json"
            printed = {ln.split()[0] for ln in lines[:-1] if ln.strip()}
            assert "failed_frac" in printed, f"{name}: failed_frac not printed"
            if wl.read_brackets is not None:
                assert "rho0_rel_err" in printed, f"{name}: rho0_rel_err not printed"
            print(f"ok  {name:<18s} trace={trace}  {len(got)} metrics")


def corrupt_one_byte(prefix):
    manifest = json.loads(Path(str(prefix) + ".manifest.json").read_text())
    target = Path(prefix).parent / sorted(manifest["checksums"])[0]
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))


def check_corruption(root):
    res = run.measure(WORKLOADS["threshold_single"], 1, 0, 0, root, tiny=True, tamper=corrupt_one_byte)
    assert res.failed == len(res.samples) == 1, "a corrupted artifact was not counted as failed"
    assert any("checksum mismatch" in p for p in res.samples[0].problems), res.samples[0].problems
    print("ok  corrupted artifact counted: failed_frac", res.failed / len(res.samples))


def check_bare_directory(root):
    (root / ".perfbench-work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=root / ".perfbench-work"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "threshold_single", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
        print("ok  bare directory: exit", proc.returncode)
    finally:
        shutil.rmtree(bare)


def main():
    root = Path.cwd()
    run.check_checkout(root)
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_bare_directory(root)
    check_corruption(root)
    check_metrics(root, spec)
    print("smoke check passed")


if __name__ == "__main__":
    main()
