"""Command-line runner: config parsing, dispatch, sweep orchestration,
and deterministic persistence with a trailing manifest.

Every artifact goes under the --out prefix; the manifest (JSON, with
per-output sha256 checksums) is written last, so its presence certifies
a completed run.  Identical config and seed give byte-identical result
artifacts (fixed reduction orders, fixed float formatting).
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, conformal, ground_state, spectral
from .config import SCATTER_SNAPSHOT_TAUS, SUBCOMMANDS, ConfigError, parse_config
from .evolution import EvolutionError, EvolveControls, EvolutionState, StrangStepper, evolve, evolve_monitor
from .functionals import ModelParams, energy_coeffs
from .grid import AnalyticProfile, eval_profile, field_to_bytes
from .ground_state import BracketingError, FlowOptions

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_BRACKETING = 3
EXIT_EVOLUTION = 4
EXIT_VERIFY = 6


def _fmt(x):
    return f"{x:.17g}"


def _native_threads():
    """Native threads of this process, or None where /proc is absent."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


class Emitter:
    """Writes artifacts under a prefix and records their checksums."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.checksums = {}
        parent = os.path.dirname(prefix)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def write(self, suffix, data):
        path = self.prefix + suffix
        payload = data.encode() if isinstance(data, str) else data
        with open(path, "wb") as f:
            f.write(payload)
        self.checksums[os.path.basename(path)] = hashlib.sha256(payload).hexdigest()
        return path

    def json(self, suffix, doc):
        """Write doc as a JSON artifact: sorted keys, indent 2."""
        return self.write(suffix, json.dumps(doc, sort_keys=True, indent=2))

    def manifest(self, cfg, started, sound_flags):
        doc = {
            "artifact_version": __version__,
            "subcommand": cfg.subcommand,
            "config": {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(cfg.values.items())},
            "started": started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "checksums": self.checksums,
            "sound": sound_flags,
            "numpy_version": np.__version__,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "native_threads": _native_threads(),
        }
        # json serializes doc before write adds the manifest's own
        # checksum, so the manifest lists every artifact but itself.
        return self.json(".manifest.json", doc)


def _flow_options(cfg):
    return FlowOptions(**cfg.kwargs(max_iters="max_iters", dt="flow_dt", residual_tol="residual_tol"))


def _rng(cfg):
    seed = cfg.get("seed")
    return None if seed is None else np.random.default_rng(seed)


def _threshold_json(params, coeffs, result):
    return {
        "params": {"d": params.d, "q": params.q, "p": params.p, "regime": params.regime},
        "coeffs": {"alpha": coeffs.alpha, "beta": coeffs.beta, "gamma": coeffs.gamma},
        "lambda": ground_state.lambda_reduction(coeffs, params),
        "rho_lo": result.rho_lo,
        "rho_hi": result.rho_hi,
        "rho0_est": result.rho0_est,
        "tol_neg_rule": ground_state.TOL_NEG_RULE,
        "probes": [
            {
                "rho": pr.rho,
                "verdict": pr.verdict,
                "sound": pr.sound,
                "energies": [r.energy for r in pr.results],
                "classes": [r.classification for r in pr.results],
            }
            for pr in result.probes
        ],
    }


def cmd_threshold(cfg, emit):
    params = cfg.model_params()
    coeffs = cfg.coeffs()
    res = ground_state.threshold_mass(
        params, coeffs, opts=_flow_options(cfg), rng=_rng(cfg), **cfg.kwargs(bracket_tol="bracket_tol")
    )
    emit.json(".threshold.json", _threshold_json(params, coeffs, res))
    return {"threshold": all(p.sound for p in res.probes)}


def cmd_named_thresholds(cfg, emit):
    params = cfg.model_params()
    named = ground_state.named_thresholds(
        params,
        opts=_flow_options(cfg),
        **cfg.kwargs(bracket_tol="bracket_tol", A_grid="A_grid", eps_grid="eps_grid"),
    )
    rows = [(name, "", getattr(named, name)) for name in ("rho_E", "rho_SW", "rho_star")]
    rows += [(name, _fmt(x), res) for name in ("rho1", "rho2") for x, res in getattr(named, name).items()]
    lines = ["name,parameter,rho_lo,rho_hi,rho0_est"]
    lines += [f"{name},{x},{_fmt(r.rho_lo)},{_fmt(r.rho_hi)},{_fmt(r.rho0_est)}" for name, x, r in rows]
    emit.write(".named.csv", "\n".join(lines) + "\n")
    return {"named_thresholds": True}


def cmd_groundstate(cfg, emit):
    params = cfg.model_params()
    coeffs = cfg.coeffs() or energy_coeffs(params)
    res = ground_state.minimize_on_sphere(
        params, coeffs, cfg.get("rho"), _flow_options(cfg), cfg.grid()
    )
    emit.write(".groundstate.field", field_to_bytes(res.field))
    keys = ("energy", "residual", "iterations", "classification", "width_ratio", "sound")
    emit.json(".groundstate.json", {"rho": cfg.get("rho")} | {k: getattr(res, k) for k in keys})
    return {"groundstate": res.sound}


# EvolveControls argument -> config key, for evolve and scatter.
_CONTROLS = dict(dt_base="dt_base", c_adapt="c_adapt", cadence="cadence", snapshot_clocks="snapshot_taus")


def _initial_state(cfg, model):
    field = eval_profile(cfg.grid(), cfg.profile())
    field = spectral.normalize(field, cfg.get("rho"))
    return EvolutionState(field=field, clock=0.0, model=model, params=cfg.model_params())


def cmd_evolve(cfg, emit):
    model = cfg.get("model")
    state = _initial_state(cfg, model)
    end = cfg.get("t_max") if model == "physical" else cfg.get("tau_max")
    controls = EvolveControls(**cfg.kwargs(**_CONTROLS, A="A"))
    traj = evolve(state, end, controls)
    emit.write(".diagnostics.csv", traj.to_csv())
    if cfg.get("snapshots", False):
        for clock, f in traj.snapshots():
            emit.write(f".snap-{_fmt(clock)}.field", field_to_bytes(f))
    return {"evolve": traj.sound}


def cmd_scatter(cfg, emit):
    state = _initial_state(cfg, "conformal")
    # Unlike evolve, scatter defaults to a record every 10th step and
    # probes at SCATTER_SNAPSHOT_TAUS, unless the config sets cadence or
    # snapshot_taus; it writes no diagnostics, so its records keep only
    # what the probe reads (evolve_monitor).
    kw = {"cadence": 10, "snapshot_clocks": SCATTER_SNAPSHOT_TAUS} | cfg.kwargs(**_CONTROLS)
    controls = EvolveControls(**kw)
    run = evolve_monitor(state, cfg.get("tau_max", max(controls.snapshot_clocks)), controls)
    report = conformal.scattering_probe(run)
    doc = {k: getattr(report, k) for k in ("finest_residual", "tol", "verdict")}
    emit.json(".scatter.json", doc | {"taus": list(report.taus), "sound": run.sound})
    lines = ["," + ",".join(_fmt(t) for t in report.taus)]
    for i, t in enumerate(report.taus):
        lines.append(_fmt(t) + "," + ",".join(_fmt(r) for r in report.residuals[i]))
    emit.write(".residuals.csv", "\n".join(lines) + "\n")
    if report.psi_plus is not None:
        emit.write(".psi-plus.field", field_to_bytes(report.psi_plus))
    return {"scatter": run.sound}


def cmd_verify(cfg, emit):
    """Identity and conservation suite on default desk parameters."""
    grid = cfg.grid()
    params = cfg.model_params()
    psi0 = eval_profile(grid, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    checks = []

    state = EvolutionState(psi0, 0.0, "physical", params)
    traj = evolve(state, 1.0, EvolveControls(dt_base=5e-3, cadence=20))
    m = traj.series("mass")
    checks.append(("mass_conservation", float(np.max(np.abs(m - m[0])) / m[0]) < 1e-10))
    e = traj.series("energy")
    checks.append(("energy_drift_small", float(np.max(np.abs(e - e[0]))) < 1e-4))

    stepper = StrangStepper(grid, params, "physical")
    values = psi0.values.copy()
    stepper.step(values, 0.0, 1e-2)
    stepper.step(values, 1e-2, -1e-2)
    rev_err = float(np.max(np.abs(values - psi0.values)))
    checks.append(("time_reversal", rev_err < 1e-10))

    rep = conformal.verify_norm_identities(psi0, 0.0)
    checks.append(("norm_identities_t0", rep.max_residual() < 1e-12))

    u = conformal.free_propagate(psi0, 0.7)
    back = conformal.free_propagate(u, -0.7)
    checks.append(("free_unitarity", float(np.max(np.abs(back.values - psi0.values))) < 1e-13))

    lines = []
    for name, ok in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
        print(lines[-1])
    emit.write(".verify.txt", "\n".join(lines) + "\n")
    if not all(ok for _, ok in checks):
        raise VerifyFailure("verification suite reported failures")
    return {"verify": True}


class VerifyFailure(RuntimeError):
    pass


def cmd_sweep(cfg, emit):
    """Closed-form ordering sweep over an admissible (q, p) grid."""
    d = cfg.get("d")
    nq_pts = cfg.get("sweep.q_count", 10)
    np_pts = cfg.get("sweep.p_count", 10)
    lo, hi = 1 + 2 / d, 1 + 4 / d
    qs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.1 * (hi - lo), nq_pts)
    rows = []
    for q in qs:
        for p in np.linspace(q + 0.05 * (hi - q), hi - 0.02 * (hi - lo), np_pts):
            params = ModelParams(d=d, q=float(q), p=float(p), regime="scattering")
            rep = ground_state.ordering_check(params)
            m1, m2 = rep.margins
            rows.append((q, p, rep.lambda_star, rep.lambda_sw, rep.lambda_E, m1, m2))

    lines = ["q,p,lambda_star,lambda_sw,lambda_E,margin1,margin2"]
    lines += [",".join(_fmt(v) for v in r) for r in rows]
    emit.write(".sweep.csv", "\n".join(lines) + "\n")
    return {"sweep": all(r[5] > 0 and r[6] > 0 for r in rows)}


_HANDLERS = {
    "threshold": cmd_threshold,
    "named-thresholds": cmd_named_thresholds,
    "groundstate": cmd_groundstate,
    "evolve": cmd_evolve,
    "scatter": cmd_scatter,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


# The exit code of each failure; the first matching entry wins, so each
# typed error precedes the ValueError or RuntimeError it subclasses.
_EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    (BracketingError, EXIT_BRACKETING),
    (EvolutionError, EXIT_EVOLUTION),
    (VerifyFailure, EXIT_VERIFY),
    (ValueError, EXIT_OTHER),
    (RuntimeError, EXIT_OTHER),
    (OSError, EXIT_OTHER),
)


def _setup(args):
    """The run's config and Emitter.  A config file that cannot be read,
    or an output prefix whose directory cannot be made, is a ConfigError."""
    try:
        with open(args.config) as f:
            cfg = parse_config(f.read(), args.subcommand)
        return cfg, Emitter(args.out or cfg.get("out_prefix") or "nls-lab-run")
    except OSError as exc:
        raise ConfigError([str(exc)]) from exc


def main(argv=None):
    parser = argparse.ArgumentParser(prog="nls-lab", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        # Serial only; the flag stays so that `--workers 1` still parses.
        sp.add_argument("--workers", type=int, choices=(1,), default=1)
    args = parser.parse_args(argv)

    try:
        cfg, emit = _setup(args)
        started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        sound = _HANDLERS[args.subcommand](cfg, emit)
        emit.manifest(cfg, started, sound)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
