"""The benchmark's three workloads: pinned nls-lab configs made from a seed,
and the output checks that decide whether one run of a workload failed.

Shared model: d=1, q=4, p=4.5.

* threshold_single -- `threshold` on the energy triple (1/2, 1/5, 1/5.5) at
  a 0.5% bracket.  One triple and one Lambda: it runs the flow kernel and
  the bisection and bypasses everything that works across triples.  The
  seed sets the seed-width jitter (config key `seed`).
* named_set -- `named-thresholds` at a 1% bracket with A_grid = 0.775, 1.0
  and eps_grid = 0.4, 0.1: seven triples, of which rho_star and
  rho1(A=1.0) are the same triple, so one Lambda repeats.  It runs the
  cross-triple mechanisms (batching, a rho0(Lambda) cache, warm starts).
  It is seed-independent: `cmd_named_thresholds` drops the `seed` key and
  never passes an rng, so the config carries no seed.
* scatter_conformal -- `scatter` at n=4096, L=256, rho=0.3 (width 2 +-5%
  from the seed), tau to 0.999 with c_adapt=0.002 and a record every
  step: ~3450 steps and as many records, then the scattering probe.  dt
  changes every step, and diagnostics cost about as much as steps.  It
  also runs everything a fixed-dt `evolve` run would time: the Strang
  step kernel (4 FFTs a step), nonlinear_phase and the breakdown.

There is no fixed-dt `evolve` workload.  On a shared 2-vCPU host the
speed of a run drifts by about 10% over minutes, so a median is steady
only over long runs (run_seconds in BENCHMARK.json), and twenty runs of
each workload must fit in under an hour.  That leaves room for three
workloads; scatter_conformal covers every layer a fixed-dt run would.

The tiny variants exist for the smoke check (perfbench/smoke.py) only.
"""

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

SHARED = {"d": 1, "q": 4, "p": 4.5}


def _width(seed):
    """Profile width 2, perturbed by up to +-5% from the seed."""
    return 2.0 * (1.0 + 0.05 * random.Random(seed).uniform(-1.0, 1.0))


def _threshold_config(seed, tiny):
    return {
        **SHARED,
        "coeffs.alpha": 0.5,
        "coeffs.beta": 0.2,
        "coeffs.gamma": 1 / 5.5,
        "bracket_tol": 0.2 if tiny else 0.005,
        "seed": seed % 2**32,  # numpy rejects negative seeds
    }


def _named_config(seed, tiny):
    # Tiny keeps the 1% bracket: rho_SW and rho_E lie within 1% of each
    # other, so a coarser bracket cannot order them.
    return {
        **SHARED,
        "bracket_tol": 0.01,
        "A_grid": "1.0" if tiny else "0.775, 1.0",
        "eps_grid": "0.4" if tiny else "0.4, 0.1",
    }


def _scatter_config(seed, tiny):
    return {
        **SHARED,
        "n": 512 if tiny else 4096,
        "L": 64 if tiny else 256,
        "profile": "gaussian",
        "width": _width(seed),
        "rho": 0.3,
        "tau_max": 0.999,
        "c_adapt": 0.01 if tiny else 0.002,
        "cadence": 10 if tiny else 1,
    }


# ------------------------------------------------------------ output checks


def verify_manifest(prefix):
    """Problems with the manifest, and its checksums (None if unusable)."""
    path = Path(str(prefix) + ".manifest.json")
    if not path.exists():
        return ["manifest missing"], None
    checksums = json.loads(path.read_text())["checksums"]
    problems = []
    for name, digest in sorted(checksums.items()):
        f = path.parent / name
        if not f.exists():
            problems.append(f"{name}: listed in the manifest but missing")
        elif hashlib.sha256(f.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: checksum mismatch")
    return problems, checksums


def _bracket_problems(label, lo, hi, tol):
    out = []
    if not lo < hi:
        out.append(f"{label}: rho_lo {lo!r} is not below rho_hi {hi!r}")
    if hi - lo > tol * 0.5 * (lo + hi):
        out.append(f"{label}: bracket width {hi - lo!r} exceeds {tol} x midpoint")
    return out


def read_threshold(prefix, cfg):
    """[(label, (alpha, beta, gamma), rho_lo, rho_hi)] from threshold.json."""
    doc = json.loads(Path(str(prefix) + ".threshold.json").read_text())
    c = doc["coeffs"]
    return [("threshold", (c["alpha"], c["beta"], c["gamma"]), doc["rho_lo"], doc["rho_hi"])]


def read_named(prefix, cfg):
    """[(label, (alpha, beta, gamma), rho_lo, rho_hi)] from named.csv."""
    from nls_lab import ground_state as gs
    from nls_lab.functionals import ModelParams

    params = ModelParams(d=cfg["d"], q=cfg["q"], p=cfg["p"], regime="scattering")
    triples = {
        "rho_E": lambda a: gs.triple_energy(params),
        "rho_SW": lambda a: gs.triple_standing_wave(params),
        "rho_star": lambda a: gs.triple_star(params),
        "rho1": lambda a: gs.triple_rho1(params, a),
        "rho2": lambda a: gs.triple_rho2(params, a),
    }
    out = []
    with open(str(prefix) + ".named.csv", newline="") as f:
        for row in csv.DictReader(f):
            a = float(row["parameter"]) if row["parameter"] else None
            t = triples[row["name"]](a)
            label = row["name"] + (f"({a:g})" if a is not None else "")
            out.append((label, (t.alpha, t.beta, t.gamma), float(row["rho_lo"]), float(row["rho_hi"])))
    return out


def _check_threshold(prefix, cfg):
    problems = []
    for label, _, lo, hi in read_threshold(prefix, cfg):
        problems += _bracket_problems(label, lo, hi, cfg["bracket_tol"])
    return problems


def _check_named(prefix, cfg):
    rows = read_named(prefix, cfg)
    problems = []
    for label, _, lo, hi in rows:
        problems += _bracket_problems(label, lo, hi, cfg["bracket_tol"])
    est = {label: 0.5 * (lo + hi) for label, _, lo, hi in rows}
    bracket = {label: (lo, hi) for label, _, lo, hi in rows}
    # Criterion 10 of the acceptance suite, on the estimates: at a 1%
    # bracket rho_SW and rho_E may share an endpoint.
    if not est["rho_star"] < est["rho_SW"] < est["rho_E"]:
        problems.append("named order rho_star < rho_SW < rho_E violated")
    rho1 = [est[k] for k in sorted((k for k in est if k.startswith("rho1(")), key=lambda k: float(k[5:-1]))]
    if not all(x < y for x, y in zip(rho1, rho1[1:])):
        problems.append("rho1(A) not increasing in A")
    eps = sorted((k for k in est if k.startswith("rho2(")), key=lambda k: float(k[5:-1]))
    rho2 = [est[k] for k in eps]
    if not all(x > y for x, y in zip(rho2, rho2[1:])):
        problems.append("rho2(eps) not increasing as eps decreases")
    gaps = [est["rho_E"] - v for v in rho2]
    if not (all(g > 0 for g in gaps) and all(x < y for x, y in zip(gaps, gaps[1:]))):
        problems.append("rho2(eps) not approaching rho_E from below")
    if bracket["rho_star"] != bracket.get("rho1(1)"):
        problems.append("rho_star and rho1(1.0) are the same triple but their brackets differ")
    return problems


def _check_scatter(prefix, cfg):
    doc = json.loads(Path(str(prefix) + ".scatter.json").read_text())
    problems = []
    if doc["verdict"] != "scattering_consistent":
        problems.append(f"scatter verdict {doc['verdict']!r}, expected 'scattering_consistent'")
    if doc["sound"] is not True:
        problems.append("scatter run is not sound")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str
    config: object  # (seed, tiny) -> {key: value}
    check: object  # (prefix, config) -> [problem]
    read_brackets: object = None  # threshold workloads: (prefix, config) -> rows


def config_text(cfg):
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in cfg.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "threshold_single", "threshold",
            "one triple and one Lambda, seed sets the seed-width jitter: flow kernel and bisection; bypasses every cross-triple mechanism",
            _threshold_config, _check_threshold, read_threshold,
        ),
        Workload(
            "named_set", "named-thresholds",
            "seven triples, one repeated Lambda: cross-triple batching, caching and warm starts; seed-independent, the CLI drops the seed key",
            _named_config, _check_named, read_named,
        ),
        Workload(
            "scatter_conformal", "scatter",
            "~3450 adaptive-dt steps with a record each, then the scattering probe: the step kernel, and records that cost as much as steps; dt changes every step",
            _scatter_config, _check_scatter,
        ),
    )
}
