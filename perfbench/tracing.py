"""Spans around the public functions of each nls-lab layer, recorded from
outside the library, and the per-layer metrics computed from them.

`install` replaces each traced function with a wrapper that records a
span (name, start, end, parent, run id) and, for some layers, a note
taken from the arguments or the result (bytes written, dt, iterations).
It also rebinds every `from ... import` copy of the function inside
nls_lab, such as `ground_state.breakdown` and `evolution.breakdown`.
Spans are kept in memory and written with `Tracer.dump` when the traced
command ends; one dump holds one run, so the run id is stored once per
dump.  `layer_metrics` reads the dump.
"""

import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np

# Arithmetic operations per element and the least bytes moved per element,
# read off the numpy kernels in nls_lab.backend (complex128 input):
#   flow_kick:       |v|, two powers, 2 mul + 2 add/sub, one scaling  -> 8 ops;
#                    v read and written in place                       -> 32 B
#   nonlinear_phase: |v|, two powers, 2 mul + 1 sub, phase mul, exp,
#                    one complex mul                                   -> 9 ops; 32 B
#   power_sums:      |v|^2 (3), sqrt, two powers, three sums           -> 9 ops;
#                    v read once                                       -> 16 B
KERNEL_COST = {"flow_kick": (8, 32), "nonlinear_phase": (9, 32), "power_sums": (9, 16)}


class Tracer:
    """In-memory span store for one run of one command."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack()
        # A worker thread's outermost span is caused by whatever the main
        # thread is blocked in (the executor fan-out in cli.py).
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def note(self, name, values):
        for key, value in values.items():
            self.notes.setdefault(f"{name}.{key}", []).append(value)

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.note(name, note(args, kwargs, out))
            return out

        return traced

    def dump(self, path):
        arrays = {
            "run_id": np.array(self.run_id),
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }
        for key, values in self.notes.items():
            arrays["note:" + key] = np.array(values)
        with open(path, "wb") as f:
            np.savez(f, **arrays)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _lambda_note(args, kwargs, out):
    from nls_lab.ground_state import lambda_reduction

    params = _arg(args, kwargs, 0, "params")
    coeffs = _arg(args, kwargs, 1, "coeffs")
    return {"lambda": lambda_reduction(coeffs, params)}


def _payload_bytes(args, kwargs, out):
    data = _arg(args, kwargs, 2, "data")
    return {"bytes": len(data.encode() if isinstance(data, str) else data)}


def _size(pos, name):
    return lambda args, kwargs, out: {"elements": np.size(_arg(args, kwargs, pos, name))}


# (module, attribute, class or None, span name, note)
TARGETS = (
    ("nls_lab.ground_state", "threshold_mass", None, "ground_state.threshold_mass", _lambda_note),
    ("nls_lab.ground_state", "named_thresholds", None, "ground_state.named_thresholds", None),
    ("nls_lab.ground_state", "probe", None, "ground_state.probe",
     lambda a, k, out: {"verdict": out.verdict}),
    ("nls_lab.ground_state", "minimize_on_sphere", None, "ground_state.minimize_on_sphere",
     lambda a, k, out: {"iterations": out.iterations, "classification": out.classification}),
    ("nls_lab.functionals", "breakdown", None, "functionals.breakdown", None),
    ("nls_lab.backend", "flow_kick", None, "backend.flow_kick", _size(0, "values")),
    ("nls_lab.backend", "nonlinear_phase", None, "backend.nonlinear_phase", _size(0, "values")),
    ("nls_lab.backend", "power_sums", None, "backend.power_sums", _size(0, "values")),
    ("numpy.fft", "fftn", None, "fft", _size(0, "a")),
    ("numpy.fft", "ifftn", None, "fft", _size(0, "a")),
    ("nls_lab.spectral", "truncation_fraction", None, "spectral.truncation_fraction", None),
    ("nls_lab.spectral", "gradient_sq_norm", None, "spectral.gradient_sq_norm", None),
    ("nls_lab.spectral", "momentum", None, "spectral.momentum", None),
    ("nls_lab.grid", "__post_init__", "Field", "grid.Field", None),
    ("nls_lab.grid", "field_to_bytes", None, "grid.field_to_bytes",
     lambda a, k, out: {"bytes": len(out)}),
    ("nls_lab.evolution", "step", "StrangStepper", "evolution.StrangStepper.step",
     lambda a, k, out: {"dt": _arg(a, k, 3, "dt")}),
    ("nls_lab.evolution", "evolve", None, "evolution.evolve",
     lambda a, k, out: {"records": len(out.records)}),
    ("nls_lab.conformal", "scattering_probe", None, "conformal.scattering_probe", None),
    ("nls_lab.conformal", "free_propagate", None, "conformal.free_propagate", None),
    ("nls_lab.cli", "write", "Emitter", "cli.Emitter.write", _payload_bytes),
    ("nls_lab.config", "parse_config", None, "config.parse_config", None),
)


def install(tracer):
    """Wrap every target and rebind its copies inside nls_lab."""
    import nls_lab.cli  # noqa: F401  (imports every layer)

    for modname, attr, clsname, span, note in TARGETS:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, note)
        setattr(owner, attr, wrapped)
        if clsname is not None:
            continue
        for name, mod in list(sys.modules.items()):
            if name.startswith("nls_lab"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


# ------------------------------------------------------------------ metrics

# (name, unit); a ratio whose base is zero on a workload reads 0.
PER_LAYER = (
    ("ground_state.threshold_mass.calls", "count"),
    ("ground_state.threshold_mass.self_s", "s"),
    ("ground_state.probe.calls", "count"),
    ("ground_state.minimize_on_sphere.calls", "count"),
    ("ground_state.minimize_on_sphere.iters", "count"),
    ("ground_state.us_per_flow_iter", "us"),
    ("ground_state.unresolved_probe_frac", "ratio"),
    ("ground_state.budget_exhausted_frac", "ratio"),
    ("ground_state.repeat_lambda_frac", "ratio"),
    ("functionals.breakdown.calls", "count"),
    ("functionals.breakdown.self_s", "s"),
    ("backend.flow_kick.calls", "count"),
    ("backend.flow_kick.self_s", "s"),
    ("backend.flow_kick.ops_per_call", "op"),
    ("backend.flow_kick.bytes_per_call", "B"),
    ("backend.nonlinear_phase.calls", "count"),
    ("backend.nonlinear_phase.self_s", "s"),
    ("backend.nonlinear_phase.ops_per_call", "op"),
    ("backend.nonlinear_phase.bytes_per_call", "B"),
    ("backend.power_sums.calls", "count"),
    ("backend.power_sums.self_s", "s"),
    ("backend.power_sums.ops_per_call", "op"),
    ("backend.power_sums.bytes_per_call", "B"),
    ("fft.calls", "count"),
    ("fft.self_s", "s"),
    ("fft.per_flow_iter", "count/iter"),
    ("fft.per_step", "count/step"),
    ("fft.per_record", "count/record"),
    ("fft.bytes_computed", "B"),
    ("spectral.truncation_fraction.calls", "count"),
    ("spectral.truncation_fraction.self_s", "s"),
    ("spectral.gradient_sq_norm.calls", "count"),
    ("spectral.gradient_sq_norm.self_s", "s"),
    ("spectral.momentum.calls", "count"),
    ("spectral.momentum.self_s", "s"),
    ("grid.Field.constructions", "count"),
    ("grid.Field.self_s", "s"),
    ("grid.field_to_bytes.calls", "count"),
    ("grid.field_to_bytes.bytes", "B"),
    ("evolution.StrangStepper.step.calls", "count"),
    ("evolution.StrangStepper.step.self_s", "s"),
    ("evolution.us_per_step", "us"),
    ("evolution.records", "count"),
    ("evolution.record_s", "s"),
    ("evolution.distinct_dt_frac", "ratio"),
    ("conformal.scattering_probe.self_s", "s"),
    ("conformal.free_propagate.calls", "count"),
    ("cli.Emitter.write.calls", "count"),
    ("cli.Emitter.write.bytes", "B"),
    ("cli.Emitter.write.self_s", "s"),
    ("config.parse_config.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(path):
    """Per-layer metrics of one traced command, from its span dump.

    Self time is a span's duration minus its children's durations; the
    children of one span never overlap because every workload runs with
    one worker.  `trace.overhead_frac` needs the untraced run and is left
    to the caller.
    """
    with np.load(path) as z:
        names = list(z["names"])
        nid, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        notes = {k[5:]: z[k] for k in z.files if k.startswith("note:")}
    n = len(names)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_t = dur - child
    calls = np.bincount(nid, minlength=n)
    self_s = np.bincount(nid, weights=self_t, minlength=n)
    total_s = np.bincount(nid, weights=dur, minlength=n)
    idx = {name: i for i, name in enumerate(names)}

    def c(name):
        return int(calls[idx[name]]) if name in idx else 0

    def s(name):
        return float(self_s[idx[name]]) if name in idx else 0.0

    def t(name):
        return float(total_s[idx[name]]) if name in idx else 0.0

    def note(key):
        return notes.get(key, np.array([]))

    # Attribute each FFT to its nearest enclosing flow, step or evolve span.
    markers = ["ground_state.minimize_on_sphere", "evolution.StrangStepper.step", "evolution.evolve"]
    marker_of = np.full(n, -1)
    for m, name in enumerate(markers):
        if name in idx:
            marker_of[idx[name]] = m
    fft_spans = np.flatnonzero(nid == idx["fft"]) if "fft" in idx else np.array([], dtype=int)
    owner = np.full(fft_spans.size, -1)
    cur = parent[fft_spans].astype(np.int64)
    while True:
        live = (owner < 0) & (cur >= 0)
        if not live.any():
            break
        m = np.full(cur.size, -1)
        m[live] = marker_of[nid[cur[live]]]
        hit = live & (m >= 0)
        owner[hit] = m[hit]
        step_up = live & ~hit
        cur[step_up] = parent[cur[step_up]]
    fft_in = [int((owner == m).sum()) for m in range(len(markers))]

    iters = int(note("ground_state.minimize_on_sphere.iterations").sum())
    classes = note("ground_state.minimize_on_sphere.classification")
    verdicts = note("ground_state.probe.verdict")
    lambdas = note("ground_state.threshold_mass.lambda")
    dts = note("evolution.StrangStepper.step.dt")
    records = int(note("evolution.evolve.records").sum())
    steps = c("evolution.StrangStepper.step")
    step_idx = np.flatnonzero(nid == idx["evolution.StrangStepper.step"]) if steps else []
    evolve_idx = np.flatnonzero(nid == idx["evolution.evolve"]) if "evolution.evolve" in idx else []
    steps_in_evolve = float(dur[step_idx][np.isin(parent[step_idx], evolve_idx)].sum()) if steps else 0.0

    out = {
        "ground_state.threshold_mass.calls": c("ground_state.threshold_mass"),
        "ground_state.threshold_mass.self_s": s("ground_state.threshold_mass"),
        "ground_state.probe.calls": c("ground_state.probe"),
        "ground_state.minimize_on_sphere.calls": c("ground_state.minimize_on_sphere"),
        "ground_state.minimize_on_sphere.iters": iters,
        "ground_state.us_per_flow_iter": 1e6 * _ratio(t("ground_state.minimize_on_sphere"), iters),
        "ground_state.unresolved_probe_frac": _ratio((verdicts == "unresolved").sum(), verdicts.size),
        "ground_state.budget_exhausted_frac": _ratio((classes == "budget_exhausted").sum(), classes.size),
        "ground_state.repeat_lambda_frac": _ratio(lambdas.size - np.unique(lambdas).size, lambdas.size),
        "functionals.breakdown.calls": c("functionals.breakdown"),
        "functionals.breakdown.self_s": s("functionals.breakdown"),
    }
    for kernel, (ops, nbytes) in KERNEL_COST.items():
        name = "backend." + kernel
        elements = note(name + ".elements")
        out[name + ".calls"] = c(name)
        out[name + ".self_s"] = s(name)
        out[name + ".ops_per_call"] = ops * _ratio(elements.sum(), elements.size)
        out[name + ".bytes_per_call"] = nbytes * _ratio(elements.sum(), elements.size)
    out.update({
        "fft.calls": c("fft"),
        "fft.self_s": s("fft"),
        "fft.per_flow_iter": _ratio(fft_in[0], iters),
        "fft.per_step": _ratio(fft_in[1], steps),
        "fft.per_record": _ratio(fft_in[2], records),
        # complex128 in and out: 32 bytes per element, from array sizes
        "fft.bytes_computed": 32 * int(note("fft.elements").sum()),
        "spectral.truncation_fraction.calls": c("spectral.truncation_fraction"),
        "spectral.truncation_fraction.self_s": s("spectral.truncation_fraction"),
        "spectral.gradient_sq_norm.calls": c("spectral.gradient_sq_norm"),
        "spectral.gradient_sq_norm.self_s": s("spectral.gradient_sq_norm"),
        "spectral.momentum.calls": c("spectral.momentum"),
        "spectral.momentum.self_s": s("spectral.momentum"),
        "grid.Field.constructions": c("grid.Field"),
        "grid.Field.self_s": s("grid.Field"),
        "grid.field_to_bytes.calls": c("grid.field_to_bytes"),
        "grid.field_to_bytes.bytes": int(note("grid.field_to_bytes.bytes").sum()),
        "evolution.StrangStepper.step.calls": steps,
        "evolution.StrangStepper.step.self_s": s("evolution.StrangStepper.step"),
        "evolution.us_per_step": 1e6 * _ratio(t("evolution.StrangStepper.step"), steps),
        "evolution.records": records,
        "evolution.record_s": t("evolution.evolve") - steps_in_evolve,
        "evolution.distinct_dt_frac": _ratio(np.unique(dts).size, dts.size),
        "conformal.scattering_probe.self_s": s("conformal.scattering_probe"),
        "conformal.free_propagate.calls": c("conformal.free_propagate"),
        "cli.Emitter.write.calls": c("cli.Emitter.write"),
        "cli.Emitter.write.bytes": int(note("cli.Emitter.write.bytes").sum()),
        "cli.Emitter.write.self_s": s("cli.Emitter.write"),
        "config.parse_config.self_s": s("config.parse_config"),
    })
    return out
