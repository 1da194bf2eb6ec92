"""Constrained minimization on mass spheres, the threshold-mass
bisection, the named thresholds, and the closed-form Lambda layer.

The central object is the dichotomy of the constrained infimum
I = inf { alpha K + beta nq - gamma np : ||u||_2 = rho }: it is 0 (not
attained) below a threshold mass rho_0 and strictly negative above it.
The negativity oracle is a normalized gradient flow; rho_0 is bracketed
by bisection on the oracle's verdict.
"""

import warnings
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import backend, spectral
from .functionals import CoeffTriple, energy_coeffs
from .grid import AnalyticProfile, Field, Grid, eval_profile

__all__ = [
    "FlowOptions",
    "MinimizeResult",
    "minimize_on_sphere",
    "ProbeResult",
    "probe",
    "BracketingError",
    "ThresholdResult",
    "threshold_mass",
    "lambda_reduction",
    "triple_energy",
    "triple_standing_wave",
    "triple_star",
    "triple_rho1",
    "triple_rho2",
    "NamedThresholds",
    "named_thresholds",
    "f_of_A",
    "F_of_x",
    "OrderingReport",
    "ordering_check",
    "pure_focusing_exponent",
    "threshold_exponent",
    "default_grid",
]

DEFAULT_BRACKET = (0.05, 5.0)
# A probe's seed widths, and the zero-branch stopping tests of a flow (see FlowOptions).
SEED_WIDTHS = (1.0, 3.0, 8.0)
# The undecided probes a bisection plans ahead (_bisect): it bounds the
# rows in flight, and so the memory.
SPECULATIVE_PROBES = 12
SPREAD_FACTOR = 4.0
STALL_WINDOW = 60
STALL_FACTOR = 0.999
# The largest kick dt * _kick_scale a flow's step may grow to (FlowOptions).
KICK_TOL = 0.1
# A flow's negativity tolerance tol_neg at mass rho^2, as .threshold.json
# records it; _Flow._start_row evaluates this very expression.
TOL_NEG_RULE = "1e-6 * rho**2"
_TOL_NEG = compile(TOL_NEG_RULE, "TOL_NEG_RULE", "eval")


def default_grid(d):
    """The minimization default: n=512, L=64 in d dimensions.

    minimize_on_sphere uses it in params.d dimensions when no grid is
    given, except a polished minimization, which scales this box to its
    seed's dilation minimizer (_dilation_fit); probe, threshold_mass and
    named_thresholds always use it.
    """
    return Grid(d=d, n=512, L=64.0)


@dataclass(frozen=True)
class FlowOptions:
    """Normalized-gradient-flow controls.

    Semi-implicit splitting: explicit pointwise kick for the nonlinear
    part of the energy gradient, exact spectral decay e^{-2 alpha dt k^2}
    for the -2 alpha Lap part, then renormalization to mass rho^2.  The
    kick is a real factor and the decay is real and even in k, so a real
    seed stays real: the flow steps real fields, with one real FFT pair
    per step, and takes real seeds only.  dt is the starting step, cut
    to 3/_kick_scale at the seed's peak amplitude.  The step halves
    whenever the energy increases.  At a 10-iteration checkpoint after
    10 steps none of which was rejected it doubles, if the doubled step
    stays within max(dt_start, KICK_TOL / _kick_scale) at the state's
    peak amplitude: so a spreading seed, whose peak falls, speeds up.
    The flow stops once the
    absolute residual ||E'(u) - mu u||_2 falls below residual_tol, or on
    a zero-branch signature at near-zero energy: the rms width has grown
    SPREAD_FACTOR-fold (capped at L/5), or the last STALL_WINDOW accepted
    steps took less than 1 - STALL_FACTOR of the energy's total drop.
    These, KICK_TOL, and the Gaussian seed widths SEED_WIDTHS of a probe,
    are module constants, not options.  The options, like the triple,
    hold for a whole flow batch (_Flow); each row owns its mass, seed,
    step and stopping tests.

    polish=True continues past certified negativity toward the actual
    minimizer with a Sobolev-preconditioned projected gradient
    (_Flow._polish), which works on real rows and half-spectra and takes
    its energies from the flow's formula (_Flow._energy), and whose
    stopping rule is relative: ||E'(u) - mu u||_2 <= residual_tol
    * |mu| rho, or a line search whose predicted decrease has fallen
    below the rounding floor of the energy, whichever comes first; the
    iterations of both phases count against max_iters.  Without a grid, a
    polished minimization runs on default_grid(params.d) scaled to the
    width of its Gaussian seed's dilation minimizer, from the closed-form
    integrals of a Gaussian (_dilation_fit), so the box follows the
    minimizer's scale; the result's sound flag reports a minimizer that
    box still does not resolve.
    """

    max_iters: int = 3000
    dt: float = 0.05
    residual_tol: float = 1e-8
    polish: bool = False

    def __post_init__(self):
        if self.max_iters < 1 or self.dt <= 0 or self.residual_tol <= 0:
            raise ValueError("need max_iters >= 1, dt > 0, residual_tol > 0")


@dataclass
class MinimizeResult:
    """Outcome of one flow run.

    classification is 'converged_negative' (energy certified below
    -tol_neg; the flow is monotone, so this holds whatever the residual
    does afterwards), 'spread_to_zero_energy' (energy pinned near 0 with
    the spreading signature), or 'budget_exhausted' for any other stop:
    the max_iters budget, and also, with iterations below max_iters, the
    stall test, the dt floor, or a residual below residual_tol at an
    energy outside [-tol_neg, tol_neg].  _decision reads a budget_exhausted
    seed at nonnegative energy that has doubled its width as the zero
    branch.  residual is the absolute ||E'(u) - mu u||_2 of the returned
    state.  A negative result is sound when its mass stays off the box
    edge; a polished one must also keep its spectrum off the grid edge
    and have met the polish stopping rule.
    """

    field: Field
    energy: float
    residual: float
    iterations: int
    classification: str
    tol_neg: float
    initial_energy: float
    width_ratio: float
    sound: bool


def _rfft(v, grid, inverse=False):
    """Real FFT over the grid axes of every row of v, a (rows, grid.size)
    array of flattened real fields, as a (rows, half size) array of
    flattened half-spectra (rfftn layout: the last axis keeps modes
    0..n/2); inverse=True maps half-spectra back to real fields."""
    shape = grid.shape
    axes = tuple(range(1, grid.d + 1))
    # An explicit s (the grid shape, so nothing is cropped or padded)
    # spares numpy's per-call shape lookup.
    if inverse:
        half = shape[:-1] + (grid.n // 2 + 1,)
        out = np.fft.irfftn(v.reshape((len(v),) + half), s=shape, axes=axes)
    else:
        out = np.fft.rfftn(v.reshape((len(v),) + shape), s=shape, axes=axes)
    return out.reshape(len(v), -1)


def _half_spectrum(grid):
    """|k|^2 on the rfftn half-spectrum of grid, flattened; the Parseval
    weight of each of its modes: 2 for modes 1..n/2-1 of the last axis,
    which stand for themselves and their conjugates, and 1 for its zero
    and Nyquist modes, so h^d/N sum(weight |hat|^2) is the L2 norm squared
    of the real field whose half-spectrum is hat; and the kinetic weight
    h^d/N weight |k|^2, so sum(kinetic |hat|^2) is its ||grad u||_2^2."""
    n = grid.n
    k_sq = grid.k_sq[..., : n // 2 + 1].reshape(-1)
    weight = np.full(n // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    weight = np.broadcast_to(weight, grid.shape[:-1] + weight.shape).reshape(-1)
    return k_sq, weight, weight * k_sq * (grid.cell_volume / grid.size)


def _powers(v, params):
    """|v|^{q-1} and |v|^{p-1}, pointwise: with v^2 they give the
    integrands |v|^{q+1} and |v|^{p+1}, and with v the pointwise part of
    the energy gradient."""
    a = np.abs(v)
    return a ** (params.q - 1.0), a ** (params.p - 1.0)


def _dilation_fit(params, coeffs, rho, seed):
    """Box and seed sized to the seed's own dilation curve.

    Under the mass-preserving dilation u -> s^{-d/2} u(x/s) the energy is
    E(s) = alpha K / s^2 + beta nq s^{-d(q-1)/2} - gamma np s^{-d(p-1)/2}.
    The seed must be a Gaussian (ValueError otherwise), whose raw
    integrals at width w and mass rho^2 are closed-form: K = d rho^2 /
    (2 w^2) and ||u||_r^r = rho^r (pi w^2)^{-dr/4} (2 pi w^2 / r)^{d/2}.
    When E(s) has a negative minimum at s* = 1/lam, found on a grid of
    1e-3 decades in lam, the seed is dilated to it, as lam^{d/2} u(lam x):
    amplitude times lam^{d/2}, width and center over lam (a chirp needs no
    scaling, since the flow takes real seeds only).  The box then spans
    default_grid(d).L dilated seed widths at the default n, as the default
    box spans a unit-width seed; otherwise default_grid(params.d) and the
    seed are kept.
    """
    if seed.kind != "gaussian":
        raise ValueError(f"the dilation fit needs a Gaussian seed, got {seed.kind!r}")
    base = default_grid(params.d)
    d, w2 = base.d, seed.width**2
    r = (params.q + 1, params.p + 1)
    nq, npw = (rho**e * (np.pi * w2) ** (-d * e / 4) * (2 * np.pi * w2 / e) ** (d / 2) for e in r)
    lam = np.logspace(-6.0, 30.0, 36001)  # lam = 1/s, 1e-3 decade steps
    curve = (
        coeffs.alpha * (d * rho**2 / (2 * w2)) * lam**2
        + coeffs.beta * nq * lam ** (d * (params.q - 1) / 2)
        - coeffs.gamma * npw * lam ** (d * (params.p - 1) / 2)
    )
    i = int(np.argmin(curve))
    if curve[i] >= 0 or i in (0, lam.size - 1):
        return base, seed
    lam = float(lam[i])
    scaled = replace(
        seed, amplitude=lam ** (d / 2) * seed.amplitude, width=seed.width / lam,
        center=tuple(c / lam for c in seed.center),
    )
    return Grid(d=d, n=base.n, L=base.L * scaled.width), scaled


def minimize_on_sphere(params, coeffs, rho, opts=None, grid=None, seed=None):
    """Flow a seed down the constrained energy landscape at mass rho^2.

    Runs the normalized gradient flow (one row of _flow_rows) until it
    certifies negative energy or lands on the zero-infimum signature
    (FlowOptions).  With opts.polish a certified run goes on with
    _Flow._polish to the actual minimizer; with grid=None it then runs on
    the box _dilation_fit sizes to the seed, which must be a Gaussian, and
    on default_grid(params.d) in every other case.
    """
    if opts is None:
        opts = FlowOptions()
    if seed is None:
        seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=3.0)
    if grid is None:
        if opts.polish:
            grid, seed = _dilation_fit(params, coeffs, rho, seed)
        else:
            grid = default_grid(params.d)
    return _flow_rows(params, grid, coeffs, [rho], [seed], opts)[0]


class _Rows:
    """Flow state of the rows still running: every attribute is an array
    with one entry per row."""

    def __init__(self, **arrays):
        vars(self).update(arrays)

    def take(self, keep):
        return _Rows(**{name: a[keep] for name, a in vars(self).items()})

    def join(self, other):
        return _Rows(**{name: np.concatenate((a, vars(other)[name])) for name, a in vars(self).items()})


def _flow_rows(params, grid, coeffs, rhos, seeds, opts):
    """Run one normalized gradient flow per row: a _Flow batch of the
    triple coeffs with every row admitted at the start, keyed by its
    index, and none later.

    Row i flows seeds[i], an AnalyticProfile sampled on grid, at mass
    rhos[i]^2; params, grid, coeffs and opts are shared.  Returns one
    MinimizeResult per row, in order, each bit for bit the result of that
    row run alone.
    """
    flow = _Flow(params, grid, coeffs, opts)
    for i, row in enumerate(zip(rhos, seeds)):
        flow.admit(i, *row)
    results = dict(flow.run())
    return [results[i] for i in range(len(seeds))]


class _Flow:
    """A batch of normalized gradient flows of one triple, one per row,
    that admits rows while it runs and drops rows on request.

    admit() queues a row under a key; run() steps the batch until no row
    runs and none is queued, and yields (key, MinimizeResult) for each
    row in the iteration it stops.  A queued row, also one admitted while
    the caller holds a yielded result, joins at the batch's next
    10-iteration boundary, or at once when no row runs, so all rows share
    one checkpoint cadence and one _checkpoint call every 10 iterations
    serves them all.  drop() removes rows, queued or running, before
    they yield a result.  params, grid, the triple coeffs and opts are
    the batch's; each row owns its mass, seed, iteration count (its
    checkpoints, its max_iters budget and the iterations _finish
    reports), dt, from which its kick weights follow, energy history,
    truncation monitor, accept/reject, step growth and stopping tests
    (FlowOptions), and is computed with the same floating-point
    operations as when it runs alone, so its result does not depend on
    the other rows, on when it joined or on which rows were dropped.

    The state is a (rows, grid.size) float64 array; a seed must sample
    real (_start_row).  Every energy, a start row's, a flow trial's and a
    polish trial's (_polish), is _energy of real rows: its kinetic term
    by Parseval from a half-spectrum (_half_spectrum), its power sums from
    the powers |v|^{q-1} and |v|^{p-1} (as pow . v^2).  A start row takes
    one rfftn.  An iteration makes one rfftn and one irfftn over the grid
    axes and two pow calls, and takes each per-row sum in one np.vecdot
    pass; the trial's kinetic term comes from its decayed half-spectrum,
    scaled by the renormalization factor.  An accepted row carries its
    powers into its next kick; a rejected row keeps its own.  The
    every-10-iterations residual (_checkpoint) reuses that spectrum and
    those powers: one inverse FFT and no pow.  The only complex FFT is
    _finish's spectral-tail check of a polished result.
    """

    def __init__(self, params, grid, coeffs, opts):
        self.params, self.grid, self.coeffs, self.opts = params, grid, coeffs, opts
        self.k_sq, self.weight, self.kinetic_weight = _half_spectrum(grid)
        # The mass outside the core box, as a weight on v^2.
        self.outside = (~grid.core_mask).reshape(-1) * grid.cell_volume
        self.queue = []
        # The running rows (None when none runs), the batch's iteration
        # count, and the (key, result) of stopped rows not yet yielded.
        self.rows, self.it, self.stopped = None, 0, []

    def admit(self, key, rho, seed):
        """Queue a row flowing seed at mass rho^2; run() yields key with
        its MinimizeResult when it stops."""
        self.queue.append((key, self._start_row(rho, seed)))

    def drop(self, keys):
        """Remove the rows under keys, queued, running, or stopped and not
        yet yielded: run() yields none of them.  A running row leaves the
        batch before its next iteration."""
        keys = set(keys)
        self.queue = [row for row in self.queue if row[0] not in keys]
        self.stopped = [row for row in self.stopped if row[0] not in keys]
        if self.rows is not None:
            for j, key in enumerate(self.rows.key):
                if key in keys:
                    self.rows.dropped[j] = True

    def _keep(self, keep):
        """Keep the given running rows; an emptied batch restarts at iteration 0."""
        self.rows = self.rows.take(keep)
        if not self.rows.key.size:
            self.rows, self.it = None, 0

    def _join(self):
        """Add the queued rows to the batch, joining at its current iteration."""
        starts = [start for _, start in self.queue]
        new = _Rows(**{name: np.array([r[name] for _, r in starts], dtype=float) for name in starts[0][1]})
        new.vals = np.stack([vals for vals, _ in starts])
        rows = len(starts)
        new.key = np.fromiter((key for key, _ in self.queue), dtype=object, count=rows)
        self.queue = []
        new.dropped = np.zeros(rows, dtype=bool)
        new.joined = np.full(rows, self.it)
        new.residual = np.full(rows, np.inf)
        new.worst = np.zeros(rows)
        new.certified = np.zeros(rows, dtype=bool)
        # No step was rejected since the row's last checkpoint.
        new.clean = np.ones(rows, dtype=bool)
        # A ring of each row's last STALL_WINDOW + 1 accepted energies, the
        # one of its m-th accepted step in column m % (STALL_WINDOW + 1);
        # count[i] accepted energies, the start's included, have been seen.
        new.history = np.empty((rows, STALL_WINDOW + 1))
        new.history[:, 0] = new.energy
        new.count = np.ones(rows, dtype=int)
        new.decay = _decay(new.dt, self.coeffs, self.k_sq)
        self.rows = new if self.rows is None else self.rows.join(new)

    def run(self):
        """Step the batch until no row runs and none is queued, yielding
        (key, MinimizeResult) for each row as it stops."""
        params, grid, coeffs, opts = self.params, self.grid, self.coeffs, self.opts
        vol = grid.cell_volume
        while True:
            while self.stopped:
                yield self.stopped.pop(0)
            if self.rows is not None and self.rows.dropped.any():
                self._keep(~self.rows.dropped)
            if self.queue and (self.rows is None or self.it % 10 == 0):
                self._join()
            s = self.rows
            if s is None:
                return
            self.it = it = self.it + 1
            # Explicit nonlinear kick on the energy gradient's pointwise part.
            aq = (s.dt * (params.q + 1) * coeffs.beta)[:, None]
            ap = (s.dt * (params.p + 1) * coeffs.gamma)[:, None]
            trial = backend.flow_kick(s.vals, aq, ap, s.pq, s.pp)
            # Exact decay for the -2 alpha Lap part.
            hat = _rfft(trial, grid)
            hat *= s.decay
            trial = _rfft(hat, grid, inverse=True)
            # Renormalize to the sphere.
            m = np.vecdot(trial, trial) * vol
            if not 0 < m.min() < np.inf:
                raise RuntimeError(f"flow left the sphere at iteration {it}")
            scale = s.rho / np.sqrt(m)
            trial *= scale[:, None]

            # The trial's energy, its kinetic term from the decayed
            # spectrum, and its mass fraction outside the core box (its
            # mass is rho^2).
            pq, pp = _powers(trial, params)
            v2 = trial * trial
            energy = self._energy(hat, scale, v2, pq, pp)[0]
            truncation = np.vecdot(v2, self.outside) / s.rho**2

            # A step that raises the energy is undone and retried at half dt.
            reject = energy > s.energy + 1e-12 * np.maximum(1.0, np.abs(s.energy))
            accept = ~reject
            # The flow is monotone, so negativity is certified for good.
            s.certified = accept & (energy < -s.tol_neg)
            stop = s.certified.copy()
            if reject.any():
                s.clean &= accept
                s.dt[reject] *= 0.5
                stop = stop | (reject & (s.dt < 1e-18 * s.dt_start))
                s.decay[reject] = _decay(s.dt[reject], coeffs, self.k_sq)
                # Rejected rows keep their state; 0 leaves their monitor as it was.
                trial[reject] = s.vals[reject]
                pq[reject] = s.pq[reject]
                pp[reject] = s.pp[reject]
                energy[reject] = s.energy[reject]
                truncation[reject] = 0.0
            s.vals, s.pq, s.pp = trial, pq, pp
            s.energy = energy
            # A rejected row's energy lands where its next accepted one will.
            s.history[np.arange(s.key.size), s.count % (STALL_WINDOW + 1)] = energy
            s.count += accept
            s.worst = np.maximum(s.worst, truncation)
            # Rows join at multiples of 10, so a row's own iteration count
            # is one exactly when the batch's is.
            last = s.joined == it - opts.max_iters
            if it % 10 == 0 or last.any():
                c = np.flatnonzero(accept & ~s.certified & (last | (it % 10 == 0)))
                if c.size:
                    stop[c] = self._checkpoint(s, c, hat[c] * scale[c, None])
                stop |= last
            if it % 10 == 0:
                self._grow(s, ~stop)
            if stop.any():
                done = s.take(stop & ~s.dropped)
                self._keep(~stop)
                self.stopped = [
                    (key, self._finish(it - int(done.joined[j]), done, j))
                    for j, key in enumerate(done.key)
                ]

    def _start_row(self, rho, seed):
        """The starting state of one row: the seed profile sampled on the
        batch's grid at mass rho^2, as a flattened real array, and its
        powers (_powers), energy (_energy, from one rfftn), step and the
        scales of its stopping tests.  The flow keeps a real state real,
        and steps real rows only: a seed whose samples are not real (a
        chirp) raises ValueError."""
        params, grid, coeffs = self.params, self.grid, self.coeffs
        if rho <= 0:
            raise ValueError(f"mass-sphere radius must be positive, got {rho}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = spectral.normalize(eval_profile(grid, seed), rho)
        if np.any(field.values.imag):
            raise ValueError(f"the flow needs a real seed; {seed.kind} seed has complex samples")
        vals = field.values.real.reshape(1, -1)
        tol_neg = eval(_TOL_NEG, {"rho": rho})
        width0 = float(_rms_width(vals * vals, grid)[0])
        # The box caps the rms width near L/sqrt(12), so the 4x growth target
        # saturates at a box fraction for wide seeds.
        spread_target = min(SPREAD_FACTOR * width0, grid.L / 5)
        # On the zero branch the flow diffuses toward the box-filling state,
        # whose energy is a small positive kinetic scale, not below tol_neg;
        # accept energies up to that scale as the zero-infimum signature.
        tol_spread = max(10 * tol_neg, rho**2 / spread_target**2)
        pq, pp = _powers(vals, params)
        energy = float(self._energy(_rfft(vals, grid), 1.0, vals * vals, pq, pp)[0][0])
        # Explicit-kick stability: dt * (nonlinear gradient scale) must stay
        # below order one; deep wells (huge amplitudes) need tiny steps.
        kick_scale = _kick_scale(params, coeffs, float(np.abs(vals).max()))
        dt = min(self.opts.dt, 3.0 / kick_scale) if kick_scale > 0 else self.opts.dt
        return vals[0], dict(
            pq=pq[0],
            pp=pp[0],
            rho=rho,
            dt=dt,
            dt_start=dt,
            energy=energy,
            energy0=energy,
            tol_neg=tol_neg,
            tol_spread=tol_spread,
            spread_target=spread_target,
            width0=width0,
        )

    def _energy(self, hat, scale, v2, pq, pp):
        """The energy alpha K + beta nq - gamma np of every row, and the sum
        alpha K + beta nq + gamma np of its terms' magnitudes: K by
        Parseval from hat, the rows' half-spectra, times scale^2 (each
        row's renormalization factor, or 1), and nq, np from v2 = v^2 and
        the rows' powers pq, pp (_powers).  The flow, its start rows and
        the polish all take their energies here: one formula, from real
        rows and half-spectra."""
        coeffs, vol = self.coeffs, self.grid.cell_volume
        k = coeffs.alpha * (np.vecdot(hat, self.kinetic_weight * hat).real * scale**2)
        q = coeffs.beta * (np.vecdot(pq, v2) * vol)
        p = coeffs.gamma * (np.vecdot(pp, v2) * vol)
        return k + q - p, k + q + p

    def _energy_gradient(self, v, hat, pq, pp):
        """E'(u) = -2 alpha Lap u + (q+1) beta |u|^{q-1} u
        - (p+1) gamma |u|^{p-1} u for every row of v, a (rows, grid.size)
        real array, given its half-spectrum hat and its powers pq, pp
        (_powers): one inverse FFT and no pow."""
        params, coeffs = self.params, self.coeffs
        lin = _rfft(2.0 * coeffs.alpha * self.k_sq * hat, self.grid, inverse=True)
        return lin + ((params.q + 1) * coeffs.beta * pq - (params.p + 1) * coeffs.gamma * pp) * v

    def _residual(self, v, hat, pq, pp):
        """|| E'(u) - mu u ||_2 for every row of v, given its half-spectrum
        hat and its powers pq, pp, with the projected multiplier mu =
        <E'(u), u> / ||u||_2^2: the constrained stationarity defect."""
        g = self._energy_gradient(v, hat, pq, pp)
        mu = (g * v).sum(-1) / (v * v).sum(-1)
        r = g - mu[:, None] * v
        return np.sqrt((r * r).sum(-1) * self.grid.cell_volume)

    def _grow(self, s, rows):
        """At a checkpoint, double the dt of the given rows of s that
        rejected no step since the last one, where the doubled step stays
        within max(dt_start, KICK_TOL / _kick_scale) at the row's peak
        amplitude (FlowOptions); every row starts a clean window."""
        grow = np.flatnonzero(rows & s.clean)
        s.clean[:] = True
        amp = np.abs(s.vals[grow]).max(-1, initial=0.0)
        with np.errstate(divide="ignore"):
            kick = _kick_scale(self.params, self.coeffs, amp)
            grow = grow[2.0 * s.dt[grow] <= np.maximum(s.dt_start[grow], KICK_TOL / kick)]
        s.dt[grow] *= 2.0
        s.decay[grow] = _decay(s.dt[grow], self.coeffs, self.k_sq)

    def _checkpoint(self, s, c, hat):
        """The every-10-iterations tests of rows c of s, just accepted, whose
        half-spectra are hat: store their residuals, from that spectrum and
        the rows' carried powers, and return which rows stop, on the
        residual, the spreading signature or a stall."""
        grid = self.grid
        vals = s.vals[c]
        s.residual[c] = self._residual(vals, hat, s.pq[c], s.pp[c])
        energy = s.energy[c]
        spread = _spreading(s, c, energy, _rms_width(vals * vals, grid))
        recent_drop = s.history[c, np.maximum(s.count[c] - STALL_WINDOW, 0) % (STALL_WINDOW + 1)] - energy
        scale = np.maximum(np.abs(s.energy0[c] - energy), s.tol_neg[c])
        stall = (
            (s.count[c] > STALL_WINDOW)
            & (np.abs(energy) < s.tol_spread[c])
            & (recent_drop < (1 - STALL_FACTOR) * scale)
        )
        return (s.residual[c] < self.opts.residual_tol) | spread | stall

    def _finish(self, it, rows, j):
        """The MinimizeResult of row j of rows, stopped after it
        iterations: _polish if asked, then the residual, classification and
        soundness.  A row that stopped uncertified without the spreading
        signature, also on the stall test before its budget ran out, is
        'budget_exhausted'."""
        grid, opts = self.grid, self.opts
        rho = float(rows.rho[j])
        vals = rows.vals[j]
        energy = float(rows.energy[j])
        residual = float(rows.residual[j])
        certified = bool(rows.certified[j])
        tol_neg = float(rows.tol_neg[j])
        polished = certified and opts.polish
        if polished:
            vals, energy, polish_iters, stopped = self._polish(rho, vals, opts.max_iters - it)
            it += polish_iters
        final = Field(grid, vals.reshape(grid.shape))
        if certified or not np.isfinite(residual):
            v = vals[None]
            residual = float(self._residual(v, _rfft(v, grid), *_powers(v, self.params))[0])
        width = float(_rms_width((vals * vals)[None], grid)[0])
        width0 = rows.width0[j]
        width_ratio = float(width / width0) if width0 > 0 else np.inf

        sound = True
        if certified:
            classification = "converged_negative"
            # A compact minimizer must keep the boundary shell quiet; a
            # spreading run populates it by construction, so the monitor
            # gates only the negative classification.
            sound = bool(rows.worst[j] < spectral.RESOLVED_FRACTION)
            if polished:
                # A sub-grid spike is a stationary point of the discrete
                # problem too; only a quiet spectral edge tells it apart.
                sound = (
                    sound
                    and stopped
                    and spectral.truncation_fraction(final) < spectral.RESOLVED_FRACTION
                    and spectral.spectral_tail_fraction(final) < spectral.RESOLVED_FRACTION
                )
        elif _spreading(rows, j, energy, width):
            classification = "spread_to_zero_energy"
        elif abs(energy) <= tol_neg and residual < opts.residual_tol:
            classification = "spread_to_zero_energy"
        else:
            classification = "budget_exhausted"

        return MinimizeResult(
            field=final,
            energy=energy,
            residual=residual,
            iterations=it,
            classification=classification,
            tol_neg=tol_neg,
            initial_energy=float(rows.energy0[j]),
            width_ratio=width_ratio,
            sound=sound,
        )

    def _polish(self, rho, vals, budget):
        """Sobolev-preconditioned projected gradient on the mass sphere
        (Antoine, Levitt & Tang, J. Comput. Phys. 343, 2017).

        The direction is d = P^{-1}(E'(u) - nu u) with P = |mu| + 2 alpha
        |k|^2 and nu chosen so that <d, u> = 0; d vanishes exactly where
        E'(u) = mu u.  The step u <- rho (u - tau d) / ||u - tau d||_2 takes
        tau from a backtracking Armijo search seeded by a quadratic model, so
        the energy falls monotonically and a certified negativity holds.

        Stops when ||E'(u) - mu u||_2 <= residual_tol |mu| rho, or when
        the decrease the line search predicts, tau <E'(u), d>, is below the
        rounding floor of the energy (64 eps times the sum of the term
        magnitudes, _energy), where no trial can be told apart from the
        current state.  vals is a flattened real field at mass rho^2, and
        the polish stays real: it works on real rows and half-spectra, as
        the flow does, and takes every energy from _energy.  It carries the
        state's half-spectrum and powers; a trial's spectrum is (u_hat - tau
        d_hat) times the renormalization factor, so a trial takes no
        transform, and an iteration makes one rfftn (of the gradient) and
        two irfftn (the gradient and the direction).  Returns (values,
        energy, iterations, stopped), stopped being False when the budget
        ran out first.
        """
        params, grid, coeffs, k_sq = self.params, self.grid, self.coeffs, self.k_sq
        vol = grid.cell_volume

        def dot(a, b):
            """<a, b> summed over all modes, from half-spectra a and b."""
            return float((self.weight * (a.real * b.real + a.imag * b.imag)).sum())

        def on_sphere(v, hat):
            """(energy, (v, hat, pq, pp, term magnitudes)) of the state v
            whose half-spectrum is hat."""
            pq, pp = _powers(v, params)
            energy, size = self._energy(hat, 1.0, v * v, pq, pp)
            return float(energy[0]), (v, hat, pq, pp, float(size[0]))

        def step(tau):
            """The state u - tau d renormalized to the sphere (on_sphere)."""
            trial = u - tau * direction
            scale = rho / np.sqrt((trial * trial).sum() * vol)
            return on_sphere(trial * scale, (u_hat - tau * d_hat) * scale)

        energy, state = on_sphere(vals[None], _rfft(vals[None], grid))
        tau = 1.0
        for it in range(budget):
            u, u_hat, pq, pp, size = state
            grad = self._energy_gradient(u, u_hat, pq, pp)
            mu = float((grad * u).sum()) * vol / rho**2
            r = grad - mu * u
            if np.sqrt((r * r).sum() * vol) <= self.opts.residual_tol * abs(mu) * rho:
                return u[0], energy, it, True
            # Precondition and project in Fourier space (Parseval).
            g_hat = _rfft(grad, grid)
            inv_p = 1.0 / (abs(mu) + 2.0 * coeffs.alpha * k_sq)
            nu = dot(u_hat, inv_p * g_hat) / dot(u_hat, inv_p * u_hat)
            d_hat = inv_p * (g_hat - nu * u_hat)
            direction = _rfft(d_hat, grid, inverse=True)
            slope = dot(g_hat, d_hat) * vol / grid.size
            floor = 64 * np.finfo(float).eps * size

            while True:
                if tau * slope <= floor:
                    return u[0], energy, it, True
                e_trial, trial = step(tau)
                # Minimizer of the quadratic through E(0), E'(0) and E(tau).
                curv = e_trial - energy + tau * slope
                if curv > 0 and 0.1 < 0.5 * tau * slope / curv < 10.0:
                    tau_q = 0.5 * tau**2 * slope / curv
                    e_q, trial_q = step(tau_q)
                    if e_q < e_trial:
                        e_trial, trial, tau = e_q, trial_q, tau_q
                if e_trial <= energy - 1e-4 * tau * slope:
                    break
                tau *= 0.5
            energy, state = e_trial, trial
        return state[0][0], energy, budget, False


def _kick_scale(params, coeffs, amp):
    """(q+1) beta amp^{q-1} + (p+1) gamma amp^{p-1}: the scale of the
    energy gradient's pointwise part at amplitude amp, which a flow step
    dt multiplies in the kick."""
    return (
        (params.q + 1) * coeffs.beta * amp ** (params.q - 1.0)
        + (params.p + 1) * coeffs.gamma * amp ** (params.p - 1.0)
    )


def _decay(dt, coeffs, k_sq):
    """The spectral decay factor e^{-2 alpha dt k^2} of rows stepping dt,
    an array with one entry per row, as a (rows, k_sq.size) array."""
    return np.exp((-2.0 * coeffs.alpha * dt)[:, None] * k_sq)


def _spreading(rows, i, energy, width):
    """The zero-branch spreading signature of rows i of rows at the given
    energy and rms width: -tol_neg < energy < tol_spread and width >=
    spread_target, row by row."""
    return (-rows.tol_neg[i] < energy) & (energy < rows.tol_spread[i]) & (width >= rows.spread_target[i])


def _rms_width(a2, grid):
    """The rms width sqrt(|| |x| u ||_2^2 / ||u||_2^2) of every row, from
    |u|^2 as a (rows, size) array, with box-centered |x|."""
    vol = grid.cell_volume
    return np.sqrt((grid.x_sq.reshape(-1) * a2).sum(-1) * vol) / np.sqrt(a2.sum(-1) * vol)


@dataclass
class ProbeResult:
    """Multi-seed negativity verdict at one mass.

    verdict 'negative' if ANY seed certifies E < -tol_neg (the flow can
    miss the global infimum, so one success suffices); 'zero' when every
    seed lands on the zero-infimum signature; 'unresolved' otherwise
    (_decision).
    """

    rho: float
    results: list
    verdict: str
    sound: bool

    @property
    def best(self):
        return min(self.results, key=lambda r: r.energy)


def _decision(results):
    """A probe's verdict from its seeds' results so far, None for a seed
    still flowing: 'negative' at its first certified seed, None while a
    seed still flows, else 'zero' when every seed is on the zero branch
    and 'unresolved' otherwise (ProbeResult)."""
    if any(r is not None and r.classification == "converged_negative" for r in results):
        return "negative"
    if None in results:
        return None
    # Stalled flows pinned at nonnegative energy while spreading behave
    # as the zero branch.
    if all(
        r.classification == "spread_to_zero_energy"
        or (r.classification == "budget_exhausted" and r.energy > -r.tol_neg and r.width_ratio >= 2)
        for r in results
    ):
        return "zero"
    return "unresolved"


def _verdict(rho, results):
    """The ProbeResult at mass rho of its seeds' MinimizeResults."""
    return ProbeResult(
        rho=rho, results=results, verdict=_decision(results), sound=all(r.sound for r in results)
    )


def _seeds(rng):
    """The seeds of one probe: a Gaussian of each width in SEED_WIDTHS,
    jittered by rng in seed order if given."""
    widths = SEED_WIDTHS if rng is None else [w * float(rng.uniform(0.95, 1.05)) for w in SEED_WIDTHS]
    return [AnalyticProfile(kind="gaussian", amplitude=1.0, width=w) for w in widths]


def probe(params, coeffs, rho):
    """Flow a Gaussian seed of each width in SEED_WIDTHS at mass rho^2,
    as rows of one _flow_rows batch with the default FlowOptions on
    default_grid(params.d), and classify the probe (ProbeResult)."""
    n = len(SEED_WIDTHS)
    results = _flow_rows(params, default_grid(params.d), coeffs, [rho] * n, _seeds(None), FlowOptions())
    return _verdict(rho, results)


class BracketingError(RuntimeError):
    """Both bracket endpoints classify the same way; carries the probes."""

    def __init__(self, message, probes):
        super().__init__(message)
        self.probes = probes


@dataclass
class ThresholdResult:
    rho_lo: float
    rho_hi: float
    probes: list

    @property
    def rho0_est(self):
        return 0.5 * (self.rho_lo + self.rho_hi)

    @property
    def bracket_width(self):
        return self.rho_hi - self.rho_lo


def _bisection(bracket_tol, verdicts):
    """The step of threshold_mass's bisection after the verdicts of its
    probes so far, in order: the mass of its next probe, or its final
    (rho_lo, rho_hi).  Raises BracketingError, with no probes attached,
    when the verdicts leave the threshold unbracketed.

    The lower end starts at DEFAULT_BRACKET[0] and halves, up to 7 times,
    until it probes 'zero'; the upper end then starts at
    DEFAULT_BRACKET[1] and doubles, up to 7 times, until it probes
    'negative'.  Each midpoint then moves the upper end if it probes
    'negative' and the lower end otherwise, until the bracket is below
    bracket_tol times its midpoint."""
    pending = iter(verdicts)
    lo, hi = DEFAULT_BRACKET
    for expand in range(8):
        v_lo = next(pending, None)
        if v_lo is None:
            return lo
        if v_lo == "zero" or expand == 7:
            break
        lo /= 2
    for expand in range(8):
        v_hi = next(pending, None)
        if v_hi is None:
            return hi
        if v_hi == "negative" or expand == 7:
            break
        hi *= 2
    if v_lo != "zero" or v_hi != "negative":
        raise BracketingError(
            f"could not bracket the threshold in [{lo}, {hi}]: "
            f"lo verdict {v_lo}, hi verdict {v_hi}",
            probes=[],
        )
    for verdict in pending:
        mid = 0.5 * (lo + hi)
        if verdict == "negative":
            hi = mid
        else:
            lo = mid
    if hi - lo > bracket_tol * 0.5 * (lo + hi):
        return 0.5 * (lo + hi)
    return lo, hi


def _bisect(params, bracket_tol, opts, rng):
    """Run the _bisection of the energy triple in one _Flow batch on the
    default box in params.d dimensions, whose rows are the probes' seeds
    keyed (k, j): seed j of probe k.

    A probe's verdict is _decision of its seeds' results: known at its
    first certified seed, or else at its last seed.  The path is the run
    of probes, from the first, whose verdicts are known.  After every
    verdict, on the path or off it, replan walks past the path with
    _bisection: a probe flowing at the mass asked for gives its verdict
    once it has one, any other step is one undecided probe, and the walk
    goes on past it as after 'zero', up to SPECULATIVE_PROBES undecided
    probes.  A flowing probe the walk does not hold at its mass is
    dropped, and a planned probe not yet flowing joins the flow at its
    next 10-iteration boundary.  Probe k always flows the k-th
    _seeds(rng) draw, and a row's result does not depend on when it
    joined, so every path probe is what probing one mass at a time gives;
    its seeds flow on to their own stop, so its ProbeResult is complete.
    A BracketingError met on the path empties the walk, and is raised
    with the path's probe log once the path probes have stopped.
    Returns the ThresholdResult whose probes are the path probes."""
    if not 0 < bracket_tol < 1:
        raise ValueError(f"bracket_tol must lie in (0, 1), got {bracket_tol}")
    if opts is None:
        opts = FlowOptions()
    coeffs = energy_coeffs(params)
    flow = _Flow(params, default_grid(params.d), coeffs, opts)
    seeds = range(len(SEED_WIDTHS))
    verdicts = []
    # draws[k] is the k-th _seeds draw, for probe k.
    draws = []
    # k -> (rho, seed results) of probe k, on the path or planned past it.
    probes = {}
    failure = None

    def replan():
        """Move the path past its decided steps, plan the walk past it up
        to SPECULATIVE_PROBES undecided steps, and keep, drop and admit
        probes to match."""
        nonlocal failure
        v = list(verdicts)
        plan = {}
        undecided = 0
        while True:
            try:
                rho = _bisection(bracket_tol, v)
            except BracketingError as err:
                if not plan:
                    failure = err
                break
            if isinstance(rho, tuple):
                break
            k = len(v)
            flowing, results = probes.get(k, (None, None))
            verdict = _decision(results) if flowing == rho else None
            if verdict and not plan:
                verdicts.append(verdict)
            else:
                if not verdict:
                    if undecided == SPECULATIVE_PROBES:
                        break
                    undecided += 1
                plan[k] = rho
            v.append(verdict or "zero")
        stale = [k for k, (rho, _) in probes.items() if k >= len(verdicts) and plan.get(k) != rho]
        flow.drop((k, j) for k in stale for j in seeds)
        for k in stale:
            del probes[k]
        for k, rho in plan.items():
            if k not in probes:
                while len(draws) <= k:
                    draws.append(_seeds(rng))
                probes[k] = rho, [None] * len(seeds)
                for j, seed in enumerate(draws[k]):
                    flow.admit((k, j), rho, seed)

    replan()
    for (k, j), result in flow.run():
        results = probes[k][1]
        known = _decision(results) is not None
        results[j] = result
        if not known and _decision(results) is not None:
            replan()
    log = [_verdict(*probes[k]) for k in range(len(verdicts))]
    if failure:
        failure.probes = log
        raise failure
    return ThresholdResult(*_bisection(bracket_tol, verdicts), log)


def _law_factor(params, coeffs):
    """(Lambda / Lambda_E)^(-kappa) (threshold_exponent): the threshold of
    coeffs over the energy triple's.  Raises ValueError unless beta > 0."""
    ratio = lambda_reduction(coeffs, params) / lambda_reduction(energy_coeffs(params), params)
    return ratio ** -threshold_exponent(params)


def threshold_mass(params, coeffs, bracket_tol=0.02, opts=None, rng=None):
    """Bisect the zero/negative dichotomy of the constrained infimum.

    The threshold depends on the triple only through Lambda
    (lambda_reduction), and rho_0(Lambda) = rho_0(Lambda_E)
    (Lambda / Lambda_E)^(-kappa) (threshold_exponent).  So one problem is
    bisected, the energy triple's, which the default box (in params.d
    dimensions), seed widths and flow dt are sized for, and its bracket
    is scaled by that factor, exactly 1 for the energy triple.  The probe
    log is the energy triple's: its masses and energies.

    Starts from the bracket [0.05, 5.0], auto-expanding geometrically up
    to two decades on each side until the lower end probes 'zero' and the
    upper end 'negative'; stops when the bracket width drops below
    bracket_tol times the midpoint.  Inside the bracket a 'negative'
    probe moves the upper end and any other verdict, 'unresolved'
    included, moves the lower end.  A probe's soundness does not steer
    the bisection: it is recorded per probe in the result (the CLI's
    .threshold.json) and in the manifest's sound flag.  The bisection
    runs its probes as rows of one flow, planned up to SPECULATIVE_PROBES
    ahead (_bisect).
    """
    f = _law_factor(params, coeffs)
    th = _bisect(params, bracket_tol, opts, rng)
    return ThresholdResult(f * th.rho_lo, f * th.rho_hi, th.probes)


def lambda_reduction(coeffs, params):
    """Lambda = gamma / (alpha^{1 - dp/dq} beta^{dp/dq}); degree-0
    homogeneous reduction of the threshold to the (1, 1, Lambda) triple."""
    if coeffs.beta <= 0:
        raise ValueError("Lambda reduction needs strictly positive coefficients")
    r = params.delta_p / params.delta_q
    return coeffs.gamma / (coeffs.alpha ** (1 - r) * coeffs.beta**r)


# ------------------------------------------------- named coefficient triples


def triple_energy(params):
    """The physical-energy triple (1/2, 1/(q+1), 1/(p+1))."""
    return energy_coeffs(params)


def triple_standing_wave(params):
    d, q, p = params.d, params.q, params.p
    return CoeffTriple(1.0, d * (q - 1) / (2 * (q + 1)), d * (p - 1) / (2 * (p + 1)))


def triple_rho1(params, A):
    """Triple whose threshold bounds the correction-term sign for the
    decay exponent A: (A/2, (A-dq)(A-dp)^{-dq/dp}/(q+1), 1/(p+1))."""
    dq, dp = params.delta_q, params.delta_p
    if not dq < A <= 1:
        raise ValueError(f"A must lie in (delta(q), 1], got {A}")
    beta = (A - dq) * (A - dp) ** (-dq / dp) / (params.q + 1)
    return CoeffTriple(A / 2, beta, 1.0 / (params.p + 1))


def triple_star(params):
    """The A -> 1 endpoint of triple_rho1: the scattering threshold."""
    return triple_rho1(params, 1.0)


def triple_rho2(params, epsilon):
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return CoeffTriple(
        0.5, 1.0 / (params.q + 1), (1 + epsilon) / ((1 - epsilon) * (params.p + 1))
    )


@dataclass
class NamedThresholds:
    rho_E: ThresholdResult
    rho_SW: ThresholdResult
    rho_star: ThresholdResult
    rho1: dict = dc_field(default_factory=dict)
    rho2: dict = dc_field(default_factory=dict)


def named_thresholds(params, bracket_tol=0.005, A_grid=None, eps_grid=None, opts=None):
    """Every named threshold from one bisection of the energy triple
    (_bisect), scaled for each entry as threshold_mass scales it; entries
    of one Lambda (rho_star and rho1[1.0]) share one ThresholdResult.
    The rho1/rho* entries require the scattering regime."""
    if params.regime != "scattering":
        raise ValueError("named thresholds are defined in the scattering regime")
    dq = params.delta_q
    if A_grid is None:
        A_grid = tuple(round(a, 6) for a in np.linspace(dq + 0.1 * (1 - dq), 1.0, 5))
    if eps_grid is None:
        eps_grid = (0.4, 0.2, 0.1, 0.05, 0.025)
    A_grid = sorted(set(A_grid))
    eps_grid = sorted(set(eps_grid))
    triples = [triple_energy(params), triple_standing_wave(params), triple_star(params)]
    triples += [triple_rho1(params, a) for a in A_grid]
    triples += [triple_rho2(params, e) for e in eps_grid]
    energy = _bisect(params, bracket_tol, opts, None)
    by_factor = {}
    th = []
    for c in triples:
        f = _law_factor(params, c)
        if f not in by_factor:
            by_factor[f] = ThresholdResult(f * energy.rho_lo, f * energy.rho_hi, energy.probes)
        th.append(by_factor[f])
    return NamedThresholds(
        rho_E=th[0],
        rho_SW=th[1],
        rho_star=th[2],
        rho1=dict(zip(A_grid, th[3:])),
        rho2=dict(zip(eps_grid, th[3 + len(A_grid):])),
    )


def f_of_A(A, params):
    """f(A) = (1 - dp/A)(1 - dq/A)^{-dp/dq}; decreasing on (dq, 1]."""
    dq, dp = params.delta_q, params.delta_p
    if A <= dq:
        raise ValueError(f"f(A) needs A > delta(q) = {dq}, got {A}")
    return (1 - dp / A) * (1 - dq / A) ** (-dp / dq)


def F_of_x(x, params):
    """F(x) = (1 - dq/x)^{-dp/dq}(1 - dp/x); decreasing to 1 on [1, inf)."""
    if x < 1:
        raise ValueError(f"F(x) is defined for x >= 1, got {x}")
    dq, dp = params.delta_q, params.delta_p
    return (1 - dq / x) ** (-dp / dq) * (1 - dp / x)


@dataclass
class OrderingReport:
    """Closed-form Lambda values for the star / standing-wave / energy
    triples; decreasing Lambdas mean increasing thresholds, so
    lambda_star > lambda_sw > lambda_E certifies
    rho_star < rho_SW < rho_E."""

    lambda_star: float
    lambda_sw: float
    lambda_E: float

    @property
    def margins(self):
        return (self.lambda_star - self.lambda_sw, self.lambda_sw - self.lambda_E)

    @property
    def ordered(self):
        return self.lambda_star > self.lambda_sw > self.lambda_E


def ordering_check(params):
    if params.regime != "scattering":
        raise ValueError("the ordering is stated in the scattering regime")
    return OrderingReport(
        lambda_star=lambda_reduction(triple_star(params), params),
        lambda_sw=lambda_reduction(triple_standing_wave(params), params),
        lambda_E=lambda_reduction(triple_energy(params), params),
    )


def pure_focusing_exponent(params):
    """Exponent in J_{rho^2} = rho^e J_1 for the pure-focusing infimum;
    e = (4(p+1) - 2d(p-1)) / (4 + d - dp)."""
    d, p = params.d, params.p
    return (4 * (p + 1) - 2 * d * (p - 1)) / (4 + d - d * p)


def threshold_exponent(params):
    """kappa in the threshold law rho_0(Lambda) = rho_0(Lambda_E)
    (Lambda / Lambda_E)^(-kappa): u(x) = a v(bx) with b^2 = a^(q-1) and
    a^(q-p) = Lambda maps the (1, 1, 1) problem onto the (1, 1, Lambda)
    one, so kappa = delta_q / (2(p - q)) = (4 - d(q-1)) / (4(p - q))."""
    return params.delta_q / (2 * (params.p - params.q))
