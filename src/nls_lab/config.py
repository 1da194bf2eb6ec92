"""Flat key=value run configuration with an exhaustive validator.

The format is deliberately flat (dotted namespaces, no nesting) so the
validator can be exhaustive and every error message carries the exact
offending key.  Validation collects ALL violations, not just the first.
"""

from dataclasses import dataclass, field as dc_field

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


_POSITIVE = (lambda v: v > 0, "must be positive")
_UNIT = (lambda v: 0 < v < 1, "must lie in (0, 1)")


def _at_least(m):
    return lambda v: v >= m, f"must be >= {m}"


def _among(*choices):
    *head, last = map(str, choices)
    return lambda v: v in choices, f"must be {', '.join(head)} or {last}"


# key -> (converter, description, rule): rule is None or (test, message)
# for the key's value on its own; parse_config checks the rules that
# span keys.
_SCHEMA = {
    "model": (str, "physical or conformal", _among("physical", "conformal")),
    "d": (int, "spatial dimension", _among(1, 2, 3)),
    "n": (
        int, "grid points per axis", (lambda v: v >= 8 and (v & (v - 1)) == 0, "must be a power of two >= 8")
    ),
    "L": (float, "box length", _POSITIVE),
    "q": (float, "defocusing exponent", None),
    "p": (float, "focusing exponent", None),
    "profile": (str, "gaussian or sech", _among("gaussian", "sech")),
    "width": (float, "profile width", _POSITIVE),
    "chirp": (float, "quadratic phase coefficient", None),
    "center": (_parse_floats, "profile center offset", None),
    "rho": (float, "target L2 norm", _POSITIVE),
    "A": (float, "decay exponent to record", (lambda v: 0 < v <= 1, "must lie in (0, 1]")),
    "dt_base": (float, "base time step", _POSITIVE),
    "c_adapt": (float, "adaptive step coefficient", _POSITIVE),
    "cadence": (int, "record every N steps", _at_least(1)),
    "t_max": (float, "physical end time", _POSITIVE),
    "tau_max": (float, "conformal end time", _UNIT),
    "snapshot_taus": (_parse_floats, "snapshot clocks", None),
    "snapshots": (_parse_bool, "write binary field snapshots", None),
    "coeffs.alpha": (float, "kinetic weight", _POSITIVE),
    "coeffs.beta": (float, "defocusing weight", _POSITIVE),
    "coeffs.gamma": (float, "focusing weight", _POSITIVE),
    "bracket_tol": (float, "relative bisection tolerance", _UNIT),
    "A_grid": (_parse_floats, "A grid for rho1", None),
    "eps_grid": (
        _parse_floats, "epsilon grid for rho2", (lambda v: all(0 < e < 1 for e in v), "entries must lie in (0, 1)")
    ),
    "max_iters": (int, "flow iteration budget", _at_least(1)),
    "flow_dt": (float, "starting flow step", _POSITIVE),
    "residual_tol": (float, "flow residual tolerance", _POSITIVE),
    "seed": (int, "RNG seed for seed-profile jitter", _at_least(0)),
    "out_prefix": (str, "output path prefix", None),
    "sweep.q_count": (int, "sweep grid size in q", _at_least(2)),
    "sweep.p_count": (int, "sweep grid size in p", _at_least(2)),
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
        (*_EVOLUTION, "A", "snapshots", "t_max", "tau_max"),
    ),
    "scatter": (("d", "n", "L", "q", "p", "profile", "rho"), (*_EVOLUTION, "tau_max")),
    "verify": ((), ("d", "q", "p", "n", "L")),
    "sweep": (("d",), ("sweep.q_count", "sweep.p_count")),
}
# An evolve's model decides its clock key, and only a conformal one reads
# c_adapt and the decay exponent A of its E_A and R_A.
_EVOLVE_MODELS = {"physical": ("t_max", {"tau_max", "c_adapt", "A"}), "conformal": ("tau_max", {"t_max"})}

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
    # key -> the line that set it: a key may be set once.
    line_of = {}
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
        if key in line_of:
            errors.append(f"{key}: set on line {line_of[key]} and again on line {lineno}")
            continue
        line_of[key] = lineno
        conv, desc, _ = _SCHEMA[key]
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

    for key in values:
        if _SCHEMA[key][2] is not None:
            check(key, *_SCHEMA[key][2])

    d = values["d"] if values.get("d") in (1, 2, 3) else 1  # a bad d is reported above
    check("center", lambda v: len(v) in (1, d), f"must have 1 or d = {d} components")
    q = values.get("q")
    p = values.get("p")
    hi = 1 + 4 / d
    regime = _regime(subcommand)
    lo = 1 + 2 / d if regime == "scattering" else 1.0
    if q is not None and not lo < q < hi:
        errors.append(f"q: {regime} regime requires {lo} < q < {hi} strictly (got {q})")
    elif q is not None:
        # rho1(A) is defined for decay exponents A in (delta(q), 1].
        dq = (4 - d * (q - 1)) / 2
        check("A_grid", lambda v: all(dq < a <= 1 for a in v), f"entries must lie in (delta(q) = {dq:g}, 1]")
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

    if errors:
        raise ConfigError(sorted(errors))
    return RunConfig(subcommand=subcommand, values=values)
