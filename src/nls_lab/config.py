"""Flat key=value run configuration with an exhaustive validator.

The format is deliberately flat (dotted namespaces, no nesting) so the
validator can be exhaustive and every error message carries the exact
offending key.  Validation collects ALL violations, not just the first.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .functionals import CoeffTriple, ModelParams
from .grid import AnalyticProfile, Grid

__all__ = ["ConfigError", "RunConfig", "parse_config", "SUBCOMMANDS", "SCATTER_SNAPSHOT_TAUS"]

# Probe clocks of `scatter` when the config sets no snapshot_taus.
SCATTER_SNAPSHOT_TAUS = (0.9, 0.95, 0.99, 0.995, 0.999)


class ConfigError(ValueError):
    """Carries every violation found, one message per offending key."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


def _parse_bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_floats(s):
    return tuple(float(x) for x in s.split(",") if x.strip())


# key -> (converter, description)
_SCHEMA = {
    "model": (str, "physical or conformal"),
    "d": (int, "spatial dimension"),
    "n": (int, "grid points per axis"),
    "L": (float, "box length"),
    "q": (float, "defocusing exponent"),
    "p": (float, "focusing exponent"),
    "profile": (str, "gaussian or sech"),
    "width": (float, "profile width"),
    "chirp": (float, "quadratic phase coefficient"),
    "center": (_parse_floats, "profile center offset"),
    "rho": (float, "target L2 norm"),
    "A_list": (_parse_floats, "decay exponents to record"),
    "dt_base": (float, "base time step"),
    "c_adapt": (float, "adaptive step coefficient"),
    "cadence": (int, "record every N steps"),
    "t_max": (float, "physical end time"),
    "tau_max": (float, "conformal end time"),
    "snapshot_taus": (_parse_floats, "snapshot clocks"),
    "snapshots": (_parse_bool, "write binary field snapshots"),
    "coeffs.alpha": (float, "kinetic weight"),
    "coeffs.beta": (float, "defocusing weight"),
    "coeffs.gamma": (float, "focusing weight"),
    "bracket_tol": (float, "relative bisection tolerance"),
    "A_grid": (_parse_floats, "A grid for rho1"),
    "eps_grid": (_parse_floats, "epsilon grid for rho2"),
    "max_iters": (int, "flow iteration budget"),
    "flow_dt": (float, "flow step"),
    "residual_tol": (float, "flow residual tolerance"),
    "seed": (int, "RNG seed for seed-profile jitter"),
    "out_prefix": (str, "output path prefix"),
    "sweep.q_count": (int, "sweep grid size in q"),
    "sweep.p_count": (int, "sweep grid size in p"),
}

_COEFFS = ("coeffs.alpha", "coeffs.beta", "coeffs.gamma")
_FLOW = ("max_iters", "flow_dt", "residual_tol")
_EVOLUTION = ("width", "chirp", "center", "dt_base", "c_adapt", "cadence", "snapshot_taus")

# subcommand -> (required keys, optional keys): the keys its handler in
# cli.py reads.  out_prefix is accepted everywhere; any other key is an error.
_KEYS = {
    "threshold": (("d", "q", "p", *_COEFFS), ("bracket_tol", "seed", *_FLOW)),
    "named-thresholds": (("d", "q", "p"), ("bracket_tol", "A_grid", "eps_grid", *_FLOW)),
    "groundstate": (("d", "q", "p", "rho"), ("n", "L", *_COEFFS, *_FLOW)),
    "evolve": (
        ("model", "d", "n", "L", "q", "p", "profile", "rho"),
        (*_EVOLUTION, "A_list", "snapshots", "t_max", "tau_max"),
    ),
    "scatter": (("d", "n", "L", "q", "p", "profile", "rho"), (*_EVOLUTION, "tau_max")),
    "verify": ((), ("d", "q", "p", "n", "L")),
    "sweep": (("d",), ("sweep.q_count", "sweep.p_count")),
}
# An evolve's model decides its clock key, and only a conformal one reads c_adapt.
_EVOLVE_MODELS = {"physical": ("t_max", {"tau_max", "c_adapt"}), "conformal": ("tau_max", {"t_max"})}

SUBCOMMANDS = tuple(_KEYS)


def _regime(subcommand):
    return "scattering" if subcommand in ("scatter", "named-thresholds") else "variational"


@dataclass
class RunConfig:
    subcommand: str
    values: dict = dc_field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def kwargs(self, **keys):
        """{argument: value of key} for each argument=key whose key this
        config sets, so an unset key leaves the callee's default."""
        return {arg: self.values[key] for arg, key in keys.items() if key in self.values}

    def model_params(self):
        return ModelParams(
            d=self.get("d", 1), q=self.get("q", 4.0), p=self.get("p", 4.5), regime=_regime(self.subcommand)
        )

    def grid(self):
        return Grid(d=self.get("d", 1), n=self.get("n", 512), L=self.get("L", 64.0))

    def coeffs(self):
        """The coeffs.* triple, which parse_config admits only whole, or None."""
        if "coeffs.alpha" not in self.values:
            return None
        return CoeffTriple(*(self.values[k] for k in _COEFFS))

    def profile(self):
        return AnalyticProfile(
            kind=self.get("profile"),
            width=self.get("width", 2.0),
            chirp=self.get("chirp", 0.0),
            center=self.get("center", (0.0,)),
        )


def parse_config(text, subcommand):
    """Parse and validate; raises ConfigError listing every violation."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    errors = []
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            errors.append(f"{key}: unknown key")
            continue
        conv, desc = _SCHEMA[key]
        try:
            values[key] = conv(val)
        except (ValueError, TypeError):
            errors.append(f"{key}: cannot parse {val!r} as {desc}")

    required, optional = _KEYS[subcommand]
    reader = subcommand
    # The key of the run's end clock, for an evolution.
    end = "tau_max" if subcommand == "scatter" else None
    if subcommand == "evolve" and values.get("model") in _EVOLVE_MODELS:
        reader = f"a {values['model']}-model evolve"
        end, unread = _EVOLVE_MODELS[values["model"]]
        required, optional = (*required, end), set(optional) - unread
    for key in required:
        if key not in values:
            errors.append(f"{key}: required for {reader}")
    read = {*required, *optional, "out_prefix"}
    errors += [f"{key}: not read by {reader}" for key in values if key not in read]
    values = {k: v for k, v in values.items() if k in read}
    # The coeffs triple is all or none.
    given = " and ".join(k for k in _COEFFS if k in values)
    if given:
        errors += [f"{k}: required with {given}" for k in _COEFFS if k not in values and k not in required]

    def check(key, ok, msg):
        if key in values and not ok(values[key]):
            errors.append(f"{key}: {msg} (got {values[key]})")

    check("model", lambda v: v in ("physical", "conformal"), "must be physical or conformal")
    check("d", lambda v: v in (1, 2, 3), "must be 1, 2 or 3")
    check("n", lambda v: v >= 8 and (v & (v - 1)) == 0, "must be a power of two >= 8")
    check("L", lambda v: v > 0, "must be positive")
    check("profile", lambda v: v in ("gaussian", "sech"), "must be gaussian or sech")
    check("width", lambda v: v > 0, "must be positive")
    check("rho", lambda v: v > 0, "must be positive")
    check("dt_base", lambda v: v > 0, "must be positive")
    check("c_adapt", lambda v: v > 0, "must be positive")
    check("cadence", lambda v: v >= 1, "must be >= 1")
    check("t_max", lambda v: v > 0, "must be positive")
    check("tau_max", lambda v: 0 < v < 1, "must lie in (0, 1)")
    check("bracket_tol", lambda v: 0 < v < 1, "must lie in (0, 1)")
    check("max_iters", lambda v: v >= 1, "must be >= 1")
    check("flow_dt", lambda v: v > 0, "must be positive")
    check("residual_tol", lambda v: v > 0, "must be positive")
    check("coeffs.alpha", lambda v: v > 0, "must be positive")
    check("coeffs.beta", lambda v: v > 0, "must be positive")
    check("coeffs.gamma", lambda v: v > 0, "must be positive")
    check("sweep.q_count", lambda v: v >= 2, "must be >= 2")
    check("sweep.p_count", lambda v: v >= 2, "must be >= 2")

    d = values["d"] if values.get("d") in (1, 2, 3) else 1  # a bad d is reported above
    check("center", lambda v: len(v) in (1, d), f"must have 1 or d = {d} components")
    q = values.get("q")
    p = values.get("p")
    hi = 1 + 4 / d
    regime = _regime(subcommand)
    lo = 1 + 2 / d if regime == "scattering" else 1.0
    if q is not None and not lo < q < hi:
        errors.append(f"q: {regime} regime requires {lo} < q < {hi} strictly (got {q})")
    if q is not None and p is not None and not q < p < hi:
        errors.append(f"p: requires q < p < {hi} (got {p})")

    if subcommand == "scatter":
        # The scattering probe compares the snapshots of two clocks or more.
        check(
            "snapshot_taus",
            lambda v: len(set(v)) >= 2 and all(0 < t < 1 for t in v),
            "the scattering probe needs two distinct clocks in (0, 1)",
        )
    if end in values:
        # An evolution starts at clock 0 and records no clock past its end.
        taus = values.get("snapshot_taus", SCATTER_SNAPSHOT_TAUS if subcommand == "scatter" else ())
        outside = [t for t in taus if not 0 <= t <= values[end]]
        if outside:
            kind = "entries" if "snapshot_taus" in values else "default entries"
            errors.append(f"snapshot_taus: {kind} {outside} lie outside [0, {end} = {values[end]}]")
    for a in values.get("A_list", ()):
        if not 0 < a <= 1:
            errors.append(f"A_list: decay exponents must lie in (0, 1] (got {a})")

    if errors:
        raise ConfigError(sorted(errors))
    return RunConfig(subcommand=subcommand, values=values)
