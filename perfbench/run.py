"""Benchmark of the nls-lab threshold and evolution engines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  NAME is one of the workloads in
perfbench/workloads.py, or `all` to run each in turn.  Each sample is one
`nls-lab` subcommand in a fresh process, with `--workers 1`,
NLS_LAB_WORKERS=1 and NLS_LAB_BACKEND=numpy; the program sees only the
config generated from the seed.  Samples repeat while the next one is
expected to finish within S seconds (at least one is always taken).
Every sample's outputs are checked; a sample fails on a nonzero exit, a
missing manifest, a checksum mismatch, a failed workload check, or
artifacts that differ from the first sample of the run (same seed).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced samples and reports the per-layer metrics from the traced
ones (see perfbench/tracing.py) plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  The lines before it print every metric with its unit, the
run's failure fraction, rho0_rel_err on threshold workloads, and the
environment fingerprint.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, config_text, verify_manifest  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


@dataclass
class Sample:
    traced: bool
    run: ChildRun
    problems: list
    checksums: dict = None
    rows: list = None
    layers: dict = None


@dataclass
class Result:
    workload: str
    seed: int
    samples: list
    setup_s: list
    backend: str
    rho0_rel_err: float = None

    @property
    def failed(self):
        return sum(1 for s in self.samples if s.problems)

    def untraced(self, attr):
        return [getattr(s.run, attr) for s in self.samples if not s.traced]

    def end_to_end(self):
        return {
            "wall_s": statistics.median(self.untraced("wall_s")),
            "cpu_s": statistics.median(self.untraced("cpu_s")),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(self.untraced("rss_mb")),
        }

    def per_layer(self):
        traced = [s for s in self.samples if s.traced]
        layers = [s.layers for s in traced if s.layers is not None] or [dict.fromkeys(dict(PER_LAYER), 0.0)]
        out = {name: statistics.fmean(lay[name] for lay in layers) for name, _ in PER_LAYER[:-1]}
        wall = statistics.median(self.untraced("wall_s"))
        out["trace.overhead_frac"] = statistics.median(s.run.wall_s for s in traced) / wall - 1.0
        return out


def run_child(argv, env, cwd, log_path):
    """Run argv to completion through perfbench/launch.py; wall time,
    user+system CPU and peak RSS of that process alone."""
    launcher = [sys.executable, str(HERE / "launch.py"), str(log_path), str(CHILD_TIMEOUT_S), *argv]
    proc = subprocess.Popen(launcher, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SetupError(f"launcher failed with exit code {proc.returncode}")
    return ChildRun(**json.loads(out))


def tail(path, lines=3):
    return " | ".join(Path(path).read_text(errors="replace").strip().splitlines()[-lines:])


def wall_tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def check_checkout(root):
    if not (root / "src" / "nls_lab" / "cli.py").is_file():
        raise SetupError(f"no nls-lab sources under {root / 'src'}; run from the root of a checkout")
    if not (root / "tests" / "oracles.py").is_file():
        raise SetupError(f"no reference oracles at {root / 'tests' / 'oracles.py'}")


def child_env(root):
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    env["NLS_LAB_WORKERS"] = "1"
    env["NLS_LAB_BACKEND"] = "numpy"
    return env


def build(root):
    """Byte-compile the sources, so that no sample pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        check=True, stdout=subprocess.DEVNULL, cwd=root,
    )


def fingerprint(backend):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft": "numpy.fft (pocketfft)",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend,
        "NLS_LAB_WORKERS": "1",
        "NLS_LAB_BACKEND": "numpy",
    }


def rho0_rel_err(rows, cfg):
    """Worst |rho0_est - rho0_continuum| / rho0_continuum over the rows,
    against the d=1 soliton-quadrature oracle in tests/oracles.py."""
    from oracles import continuum_threshold

    worst = 0.0
    for _, (alpha, beta, gamma), lo, hi in rows:
        ref = continuum_threshold(cfg["q"], cfg["p"], alpha, beta, gamma)
        worst = max(worst, abs(0.5 * (lo + hi) - ref) / ref)
    return worst


def measure(wl, seed, seconds, trace, root, tiny=False, tamper=None):
    """Run one workload for `seconds`; `tamper(prefix)`, a test hook, may
    alter a sample's artifacts before they are checked."""
    cfg = wl.config(seed, tiny)
    env = child_env(root)
    workroot = root / ".perfbench-work"
    workroot.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=wl.name + "-", dir=workroot))
    try:
        cfg_path = work / "run.cfg"
        cfg_path.write_text(config_text(cfg))

        probe = [sys.executable, str(HERE / "setup_probe.py"), wl.subcommand, str(cfg_path)]

        def setup_probe():
            r = run_child(probe, env, root, work / "setup.log")
            if r.exit_code != 0:
                raise SetupError(f"set-up probe failed: {tail(work / 'setup.log')}")
            return r.wall_s

        setup_probe()  # warm the file cache
        backend = (work / "setup.log").read_text().strip()

        # Set-up probes are spread over the run, one before each round of
        # samples, so that they see the same machine as the samples.
        setup = []
        samples = []
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            setup.append(setup_probe())
            for traced in (False, True) if trace else (False,):
                samples.append(run_sample(wl, cfg, cfg_path, work, len(samples), traced, env, root, tamper))
            first = samples[0].checksums
            for s in samples[-2 if trace else -1:]:
                if first is not None and s.checksums is not None and s.checksums != first:
                    s.problems.append("artifacts differ from the first run with this seed")
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_probe())

        result = Result(wl.name, seed, samples, setup, backend)
        rows = next((s.rows for s in samples if s.rows), None)
        if wl.read_brackets is not None and rows:
            result.rho0_rel_err = rho0_rel_err(rows, cfg)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_sample(wl, cfg, cfg_path, work, k, traced, env, root, tamper):
    out = work / f"s{k}"
    prefix = out / "run"
    cli_args = [wl.subcommand, "--config", str(cfg_path), "--out", str(prefix), "--workers", "1"]
    spans = work / f"s{k}.spans.npz"
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), f"{wl.name}-{k}", *cli_args]
    else:
        argv = [sys.executable, "-m", "nls_lab.cli", *cli_args]
    log = work / f"s{k}.log"
    run = run_child(argv, env, root, log)
    sample = Sample(traced, run, [])
    try:
        if traced and spans.exists():
            sample.layers = layer_metrics(spans)
        if run.exit_code != 0:
            sample.problems.append(f"exit code {run.exit_code}: {tail(log)}")
            return sample
        if tamper is not None:
            tamper(prefix)
        problems, checksums = verify_manifest(prefix)
        sample.problems += problems
        if problems or checksums is None:
            return sample
        sample.checksums = checksums
        try:
            sample.problems += wl.check(prefix, cfg)
            if wl.read_brackets is not None:
                sample.rows = wl.read_brackets(prefix, cfg)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            sample.problems.append(f"unreadable output: {exc!r}")
        return sample
    finally:
        shutil.rmtree(out, ignore_errors=True)
        spans.unlink(missing_ok=True)


def report(result, trace, env_fp):
    """Print the human-readable block; return the run's metrics."""
    n = len(result.samples)
    print(f"== {result.workload}  seed={result.seed}  samples={n}  trace={trace}")
    print("fingerprint " + json.dumps(env_fp, sort_keys=True))
    for s in result.samples:
        for p in s.problems:
            print(f"FAILED {'traced ' if s.traced else ''}sample: {p}")
    if trace:
        metrics = result.per_layer()
        units = dict(PER_LAYER)
    else:
        metrics = result.end_to_end()
        units = dict(END_TO_END)
    for name, value in metrics.items():
        extra = ""
        if name == "wall_s":
            walls = result.untraced("wall_s")
            t = wall_tail(walls)
            extra = f"median of {len(walls)} runs; " + (
                f"p{t[0]:.1f} {t[1]:.6g} s" if t else "no tail percentile (fewer than 11 runs)"
            )
        elif name == "setup_s":
            extra = f"median of {len(result.setup_s)} fresh processes"
        elif name.endswith(("bytes_computed", "ops_per_call", "bytes_per_call")):
            extra = "computed from array sizes"
        print(f"{name:<42s} {value:<14.6g} {units[name]:<12s} {extra}")
    print(f"{'failed_frac':<42s} {result.failed / n:<14.6g} {'ratio':<12s} {result.failed} of {n} runs failed")
    if result.rho0_rel_err is not None:
        print(f"{'rho0_rel_err':<42s} {result.rho0_rel_err:<14.6g} {'ratio':<12s} worst triple vs soliton quadrature")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke check")
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        check_checkout(root)
        sys.path[:0] = [str(root / "src"), str(root / "tests")]
        build(root)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [
            measure(WORKLOADS[n], args.seed, args.seconds, args.trace, root, args.tiny) for n in names
        ]
    except (SetupError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for res in results:
        m = report(res, args.trace, fingerprint(res.backend))
        metrics.update(m if len(results) == 1 else {f"{res.workload}.{k}": v for k, v in m.items()})
    attempted = sum(len(r.samples) for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
