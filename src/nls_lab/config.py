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

SUBCOMMANDS = (
    "threshold",
    "named-thresholds",
    "groundstate",
    "evolve",
    "scatter",
    "verify",
    "sweep",
)

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
    "amplitude": (float, "profile amplitude"),
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
    "free_flow": (_parse_bool, "drop the nonlinearity (test hook)"),
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

_REQUIRED = {
    "threshold": ("d", "q", "p", "coeffs.alpha", "coeffs.beta", "coeffs.gamma"),
    "named-thresholds": ("d", "q", "p"),
    "groundstate": ("d", "q", "p", "rho"),
    "evolve": ("model", "d", "n", "L", "q", "p", "profile", "rho"),
    "scatter": ("d", "n", "L", "q", "p", "profile", "rho"),
    "verify": (),
    "sweep": ("d",),
}


@dataclass
class RunConfig:
    subcommand: str
    values: dict = dc_field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def model_params(self):
        regime = "scattering" if self.subcommand in ("scatter", "named-thresholds") else "variational"
        return ModelParams(
            d=self.get("d", 1), q=self.get("q", 4.0), p=self.get("p", 4.5), regime=regime
        )

    def grid(self):
        return Grid(d=self.get("d", 1), n=self.get("n", 512), L=self.get("L", 64.0))

    def coeffs(self):
        if "coeffs.alpha" not in self.values:
            return None
        return CoeffTriple(
            self.values["coeffs.alpha"],
            self.values["coeffs.beta"],
            self.values["coeffs.gamma"],
        )

    def profile(self):
        center = self.get("center", (0.0,))
        return AnalyticProfile(
            kind=self.get("profile", "gaussian"),
            amplitude=self.get("amplitude", 1.0),
            width=self.get("width", 2.0),
            chirp=self.get("chirp", 0.0),
            center=center,
        )


def _scattering_needed(subcommand):
    return subcommand in ("scatter", "named-thresholds")


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

    for key in _REQUIRED[subcommand]:
        if key not in values:
            errors.append(f"{key}: required for {subcommand}")

    def check(key, ok, msg):
        if key in values and not ok(values[key]):
            errors.append(f"{key}: {msg} (got {values[key]})")

    check("model", lambda v: v in ("physical", "conformal"), "must be physical or conformal")
    check("d", lambda v: v in (1, 2, 3), "must be 1, 2 or 3")
    check("n", lambda v: v >= 8 and (v & (v - 1)) == 0, "must be a power of two >= 8")
    check("L", lambda v: v > 0, "must be positive")
    check("profile", lambda v: v in ("gaussian", "sech"), "must be gaussian or sech")
    check("amplitude", lambda v: v > 0, "must be positive")
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

    d = values.get("d", 1)
    q = values.get("q")
    p = values.get("p")
    hi = 1 + 4 / d
    lo = 1 + 2 / d if _scattering_needed(subcommand) else 1.0
    if q is not None and not lo < q < hi:
        kind = "scattering" if _scattering_needed(subcommand) else "variational"
        errors.append(f"q: {kind} regime requires {lo} < q < {hi} strictly (got {q})")
    if q is not None and p is not None and not q < p < hi:
        errors.append(f"p: requires q < p < {hi} (got {p})")

    model = values.get("model")
    if subcommand == "evolve" and model == "physical" and "t_max" not in values:
        errors.append("t_max: required for a physical-model evolve")
    if subcommand == "evolve" and model == "conformal" and "tau_max" not in values:
        errors.append("tau_max: required for a conformal-model evolve")
    if subcommand == "scatter" and "tau_max" in values:
        taus = values.get("snapshot_taus", SCATTER_SNAPSHOT_TAUS)
        late = [t for t in taus if t > values["tau_max"]]
        if late:
            kind = "entries" if "snapshot_taus" in values else "default entries"
            errors.append(f"snapshot_taus: {kind} {late} lie beyond tau_max = {values['tau_max']}")
    for a in values.get("A_list", ()):
        if not 0 < a <= 1:
            errors.append(f"A_list: decay exponents must lie in (0, 1] (got {a})")

    if errors:
        raise ConfigError(sorted(errors))
    return RunConfig(subcommand=subcommand, values=values)
