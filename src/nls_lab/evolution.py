"""Strang split-step integration of the physical equation and of its
pseudo-conformal image with time-dependent coefficients.

Physical model:   i d_t psi + Lap psi = |psi|^{q-1} psi - |psi|^{p-1} psi.
Conformal model:  i d_tau phi + Lap phi =
    (1-tau)^{-delta(q)} |phi|^{q-1} phi - (1-tau)^{-delta(p)} |phi|^{p-1} phi.

The free group is U(t) = e^{i t Lap}, Fourier symbol e^{-i |k|^2 t}; the
nonlinear substep therefore rotates the phase by minus the integrated
coefficients.  Both substeps preserve |values| pointwise or spectrally,
so the mass is conserved to roundoff.

A Strang step runs in nonlinear-linear-nonlinear order, and the loop
carries physical values from step to step.  Two consecutive half
rotations act on the same |values|, so they merge into one, and a step
takes 2 transforms, those of its linear substep.  The |values|^2 that
rotation reads also serves the truncation monitor and the mass, so a
monitor record takes no transform.  A record that reads the phase (a
snapshot, or evolve's kinetic term and momentum) applies the open half
rotation to a copy; evolve then takes 1 forward transform of it, and K
and P come from that spectrum by Parseval.

The Strang loop is written once (_strang_records) and read twice:
evolve builds full diagnostic records, and evolve_monitor keeps only
what the scattering probe reads (each record's truncation monitor, the
first record's mass and the snapshots).
"""

import csv
import io
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import backend, spectral
from .functionals import (
    EnergyBreakdown,
    correction_energy_terms,
    energy_coeffs,
    modified_energy_terms,
)
from .grid import Field

__all__ = [
    "EvolutionState",
    "DiagRecord",
    "Trajectory",
    "EvolveControls",
    "EvolutionError",
    "nonlinear_phase_weights",
    "StrangStepper",
    "evolve",
    "MonitorRun",
    "evolve_monitor",
    "EnvelopeReport",
    "decay_envelopes",
    "aqp_condition_rhs",
    "aqp_condition_holds",
]


class EvolutionError(RuntimeError):
    """Step failure; from evolve, carries the trajectory up to the last
    healthy record (None from evolve_monitor)."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class EvolutionState:
    field: Field
    clock: float
    model: str
    params: object

    def __post_init__(self):
        if self.model not in ("physical", "conformal"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "conformal" and not 0 <= self.clock < 1:
            raise ValueError(f"conformal clock must lie in [0, 1), got {self.clock}")
        if self.model == "physical" and self.clock < 0:
            raise ValueError(f"physical clock must be nonnegative, got {self.clock}")


def nonlinear_phase_weights(model, clock, dt, params):
    """Exact integrals of the nonlinear coefficients over [clock, clock+dt].

    Physical model: both coefficients are 1, so (dt, dt).  Conformal model:
    W_r = [(1-tau)^{1-delta(r)} - (1-tau-dt)^{1-delta(r)}] / (1-delta(r)).
    """
    if model == "physical":
        return dt, dt
    if clock + dt >= 1:
        raise ValueError(f"conformal step leaves [0, 1): tau={clock}, dt={dt}")
    out = []
    s0 = 1.0 - clock
    s1 = 1.0 - clock - dt
    for delta in (params.delta_q, params.delta_p):
        if not 0 < delta < 1:
            raise ValueError(f"conformal weights need delta in (0, 1), got {delta}")
        e = 1.0 - delta
        out.append((s0**e - s1**e) / e)
    return tuple(out)


def _abs2(values):
    return values.real**2 + values.imag**2


class StrangStepper:
    """Symmetric splitting in nonlinear-linear-nonlinear order: exact
    half nonlinear phase with substep-integrated coefficients, exact
    linear step, exact half nonlinear phase.

    Its pieces act in place on physical values.  rotate is the nonlinear
    flow, a pointwise phase that leaves |v| unchanged, so it takes the
    |v|^2 its caller holds; free is the linear flow, the free group of
    conformal.free_propagate, at 2 transforms, with its multiplier built
    once per dt.  A step of -dt from clock + dt undoes a step of dt from
    clock: the linear phase and the integrated weights both change sign.
    """

    def __init__(self, grid, params, model):
        self.grid = grid
        self.params = params
        self.model = model
        self._qm1 = params.q - 1.0
        self._pm1 = params.p - 1.0
        self._k_sq_half = grid.wavenumbers[: grid.n // 2 + 1] ** 2
        self._dt = None
        self._mult = None

    def _symbol(self, dt):
        """exp(-i |k|^2 dt).  The symbol is even in k and separable over
        axes, so cos and sin are taken on the n/2 + 1 wavenumbers k >= 0
        of one axis (the Nyquist one is its own mirror image), mirrored
        to the negative ones and multiplied out over the axes."""
        if dt != self._dt:
            h = self.grid.n // 2
            angle = self._k_sq_half * dt
            axis = np.empty(self.grid.n, dtype=np.complex128)
            np.cos(angle, out=axis.real[: h + 1])
            np.sin(-angle, out=axis.imag[: h + 1])
            axis[h + 1 :] = axis[h - 1 : 0 : -1]
            symbol = axis
            for _ in range(self.grid.d - 1):
                symbol = np.multiply.outer(symbol, axis)
            self._mult = symbol
            self._dt = dt
        return self._mult

    def rotate(self, values, a2, clock, dt):
        """The nonlinear flow of values, in place, from clock to clock +
        dt; a2 is |values|^2."""
        wq, wp = nonlinear_phase_weights(self.model, clock, dt, self.params)
        backend.nonlinear_phase(values.reshape(-1), a2.reshape(-1), self._qm1, self._pm1, wq, wp)

    def free(self, values, dt):
        """The linear flow of values, in place, over dt."""
        np.fft.fftn(values, out=values)
        values *= self._symbol(dt)
        np.fft.ifftn(values, out=values)

    def step(self, values, clock, dt):
        """Advance values in place from clock to clock + dt (backward
        when dt < 0)."""
        h = 0.5 * dt
        self.rotate(values, _abs2(values), clock, h)
        self.free(values, dt)
        self.rotate(values, _abs2(values), clock + h, h)


@dataclass
class DiagRecord:
    clock: float
    mass: float
    momentum: np.ndarray
    kinetic: float
    nq: float
    np: float
    energy: float
    e_mod: float | None
    r_mod: float | None
    sound: bool
    snapshot: Field | None = None


@dataclass
class EvolveControls:
    """Step and record controls of evolve.  A conformal step is
    min(dt_base, c_adapt * (1 - tau)), so c_adapt = inf gives fixed
    dt_base steps; a physical step is dt_base.  A is the decay exponent
    whose E_A and R_A each record of a conformal run carries, or None
    for neither; it must be nonnegative, and a physical run takes None.
    A record is sound while its truncation fraction is below
    spectral.RESOLVED_FRACTION, which is not a control."""

    dt_base: float = 1e-2
    c_adapt: float = 0.01
    cadence: int = 1
    A: float | None = None
    snapshot_clocks: tuple = ()

    def __post_init__(self):
        if self.dt_base <= 0 or self.c_adapt <= 0 or self.cadence < 1:
            raise ValueError("need dt_base > 0, c_adapt > 0, cadence >= 1")
        if self.A is not None and self.A < 0:
            raise ValueError(f"the decay exponent A must be nonnegative, got {self.A}")


@dataclass
class Trajectory:
    model: str
    params: object
    A: float | None
    records: list = dc_field(default_factory=list)

    @property
    def unsound_from(self):
        for i, r in enumerate(self.records):
            if not r.sound:
                return i
        return None

    @property
    def sound(self):
        return self.unsound_from is None

    def clocks(self):
        return np.array([r.clock for r in self.records])

    def series(self, attr):
        return np.array([getattr(r, attr) for r in self.records])

    def snapshots(self):
        return [(r.clock, r.snapshot) for r in self.records if r.snapshot is not None]

    def to_csv(self):
        """Diagnostics CSV: fixed column order tau, mass, K, nq, np, E,
        E_A, R_A (E_A and R_A blank when A is None), with a metadata
        header."""
        p = self.params
        buf = io.StringIO()
        buf.write(f"# model={self.model} d={p.d} q={p.q!r} p={p.p!r} A={self.A!r}\n")
        buf.write("# coeffs=(1/2, 1/(q+1), 1/(p+1)) \n")
        buf.write(f"# momentum_convention={spectral.MOMENTUM_CONVENTION}\n")
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["tau", "mass", "K", "nq", "np", "E", "E_A", "R_A"])
        for r in self.records:
            row = (r.clock, r.mass, r.kinetic, r.nq, r.np, r.energy, r.e_mod, r.r_mod)
            w.writerow(["" if v is None else f"{v:.17g}" for v in row])
        return buf.getvalue()


def _record(grid, params, clock, values, a2, total, A, snapshot):
    """Diagnostics at clock of the state values, whose |v|^2 is a2 and
    total its sum; the loop has checked total finite.  K and P come from
    the one forward transform of values by Parseval.  E_A and R_A are
    taken at tau = clock, so A is None unless the run is conformal.  A
    Field of the values is built only for a snapshot."""
    kinetic, *momentum = spectral.parseval_sums(np.fft.fftn(values), grid, (grid.k_sq, *grid.k_mesh))
    # One |v|^2 serves the power integrals of the breakdown and the
    # truncation monitor.
    _, sq, sp = backend.abs2_power_sums(a2.ravel(), params.q + 1.0, params.p + 1.0)
    mass, nq, npw = (float(s) * grid.cell_volume for s in (total, sq, sp))
    c = energy_coeffs(params)
    b = EnergyBreakdown(
        kinetic=kinetic, nq=nq, np=npw, mass=mass,
        total=c.alpha * kinetic + c.beta * nq - c.gamma * npw,
    )
    return DiagRecord(
        clock=clock,
        mass=mass,
        momentum=np.array(momentum),
        kinetic=kinetic,
        nq=nq,
        np=npw,
        energy=b.total,
        e_mod=None if A is None else modified_energy_terms(clock, b, A, params),
        r_mod=None if A is None else correction_energy_terms(clock, b, A, params),
        sound=spectral.outside_fraction(a2, grid, total) < spectral.RESOLVED_FRACTION,
        snapshot=Field(grid, values) if snapshot else None,
    )


def _strang_records(state, end_clock, controls):
    """The Strang loop of evolve and evolve_monitor: yields (clock, a2,
    total, exact, snapshot) at each record, the start, every cadence-th
    step and each stop (a snapshot clock or end_clock).

    The loop carries physical values with the last step's trailing half
    rotation left open.  The rotation leaves |v| unchanged, so that half
    and the next step's leading half act on the same |v| and merge into
    one rotation, over the coefficients from one step's midpoint to the
    next's: a step takes the 2 transforms of its linear flow.  a2 is
    |v|^2 at clock and total its sum, which the run checks finite at
    every step (a non-finite sample makes it non-finite) and raises
    EvolutionError otherwise, with no trajectory.  exact() returns the
    state at clock as a new array: the open rotation applied to a copy,
    with no transform, so the trajectory never depends on which steps
    record.  exact reads the loop's current values, so a reader calls it
    before the loop resumes.  snapshot tells whether the clock is one of
    controls.snapshot_clocks.
    """
    if end_clock <= state.clock:
        raise ValueError("end_clock must exceed the current clock")
    if state.model == "conformal" and end_clock >= 1:
        raise ValueError("conformal end_clock must stay below 1")

    stops = sorted(set(float(c) for c in controls.snapshot_clocks if state.clock < c <= end_clock))
    if not stops or stops[-1] < end_clock:
        stops.append(end_clock)
    snapshot_set = set(float(c) for c in controls.snapshot_clocks)

    stepper = StrangStepper(state.field.grid, state.params, state.model)
    values = state.field.values.copy()
    a2 = _abs2(values)
    # The values carry the nonlinear phase up to the clock since.
    clock = since = state.clock

    def exact():
        out = values.copy()
        if since != clock:  # at the start no rotation is open
            stepper.rotate(out, a2, since, clock - since)
        return out

    yield clock, a2, float(a2.sum()), exact, clock in snapshot_set

    steps = 0
    for stop in stops:
        while clock < stop - 1e-13:
            dt = controls.dt_base
            if state.model == "conformal":
                dt = min(dt, controls.c_adapt * (1.0 - clock))
            dt = min(dt, stop - clock)
            mid = clock + 0.5 * dt
            stepper.rotate(values, a2, since, mid - since)
            stepper.free(values, dt)
            clock, since = clock + dt, mid
            steps += 1
            a2 = _abs2(values)
            total = float(a2.sum())
            if not np.isfinite(total):
                raise EvolutionError(f"non-finite field at clock {clock}")
            at_stop = clock >= stop - 1e-13
            if steps % controls.cadence == 0 or at_stop:
                if at_stop:
                    clock = stop
                yield clock, a2, total, exact, at_stop and stop in snapshot_set


def evolve(state, end_clock, controls):
    """Repeated Strang steps with cadence diagnostics.

    Conformal runs shrink dt like c_adapt * (1 - tau) so the coefficient
    blowup stays resolved; records land exactly on snapshot_clocks and on
    end_clock.  A truncation-monitor trip marks the trajectory unsound
    from that record onward (records keep accumulating).

    The input state is validated once, at its construction.  A record
    takes the state at its clock (the loop's exact()) and one forward
    transform of it, and a Field of it only for a snapshot.  A non-finite
    field raises EvolutionError with the records so far.  E_A and R_A are
    conformal diagnostics: a physical state with controls.A set raises
    ValueError.
    """
    if state.model == "physical" and controls.A is not None:
        raise ValueError("the decay exponent A is read by a conformal evolve only")
    grid, params, A = state.field.grid, state.params, controls.A
    traj = Trajectory(model=state.model, params=params, A=A)
    try:
        for clock, a2, total, exact, snapshot in _strang_records(state, end_clock, controls):
            traj.records.append(_record(grid, params, clock, exact(), a2, total, A, snapshot))
    except EvolutionError as exc:
        exc.trajectory = traj
        raise
    return traj


@dataclass
class MonitorRun:
    """What the scattering probe reads of a run: the mass of its first
    record, the index of the first record whose truncation monitor
    tripped (None while all are sound, as Trajectory.unsound_from), and
    the (clock, Field) snapshots."""

    mass: float
    unsound_from: int | None
    snapshots: list

    @property
    def sound(self):
        return self.unsound_from is None


def evolve_monitor(state, end_clock, controls):
    """evolve's steps and records, of which it keeps only the truncation
    monitor of each, the mass of the first and the snapshots: the same
    values, bit for bit, as evolve's trajectory, without the energy
    breakdown.  The monitor and the mass read the loop's |v|^2, so only
    a snapshot pays for the state at its clock, and no record takes a
    transform.  controls.A is not read.  A non-finite field raises
    EvolutionError."""
    grid = state.field.grid
    mass, unsound_from, snapshots = None, None, []
    for i, (clock, a2, total, exact, snapshot) in enumerate(_strang_records(state, end_clock, controls)):
        if snapshot:
            snapshots.append((clock, Field(grid, exact())))
        if unsound_from is None:
            if mass is None:
                mass = total * grid.cell_volume
            if not spectral.outside_fraction(a2, grid, total) < spectral.RESOLVED_FRACTION:
                unsound_from = i
    return MonitorRun(mass=mass, unsound_from=unsound_from, snapshots=snapshots)


@dataclass
class EnvelopeReport:
    """Decay products (1-tau)^A K, (1-tau)^{A-dq} nq, (1-tau)^{A-dp} np
    per record, with running suprema and ratios to the initial values."""

    A: float
    clocks: np.ndarray
    kinetic_product: np.ndarray
    nq_product: np.ndarray
    np_product: np.ndarray
    sup_ratios: tuple

    @property
    def max_ratio(self):
        return max(self.sup_ratios)


def decay_envelopes(trajectory, A):
    if trajectory.model != "conformal":
        raise ValueError("decay envelopes are defined for conformal trajectories")
    p = trajectory.params
    tau = trajectory.clocks()
    s = 1.0 - tau
    kin = s**A * trajectory.series("kinetic")
    nq = s ** (A - p.delta_q) * trajectory.series("nq")
    npw = s ** (A - p.delta_p) * trajectory.series("np")
    ratios = tuple(float(np.max(v) / v[0]) if v[0] > 0 else float("inf") for v in (kin, nq, npw))
    return EnvelopeReport(
        A=A, clocks=tau, kinetic_product=kin, nq_product=nq, np_product=npw, sup_ratios=ratios
    )


def aqp_condition_rhs(q, d):
    """Right side of the admissibility bound on A for the Cauchy-tail
    argument; exceeds 1 exactly in the short-range regime q > 1 + 2/d."""
    return (1 - q) / 2 * (2 - d * (q - 1) / 2) + (q + 1) / 2


def aqp_condition_holds(A, q, d):
    return A < aqp_condition_rhs(q, d)
