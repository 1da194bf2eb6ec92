import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nls_lab import backend, spectral
from nls_lab import ground_state as gs
from nls_lab.functionals import CoeffTriple, ModelParams, breakdown, pohozaev_terms
from nls_lab.grid import AnalyticProfile, Grid, ResolutionWarning, eval_profile
from oracles import _soliton_integrals, continuum_threshold


def _quiet_eval(grid, profile):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        return eval_profile(grid, profile)


# ------------------------------------------------------------- dilation


@pytest.mark.parametrize(
    "d, q, p, rho", [(1, 4.0, 4.5, 5.0), (1, 4.0, 4.5, 2.6), (2, 2.0, 2.5, 10.0)]
)
def test_dilation_fit_scales_the_integrals_by_the_dilation_law(d, q, p, rho):
    """Where the seed's dilation curve has a negative minimum, the dilated
    seed lam^{d/2} u(lam x), sampled on the returned box at mass rho^2,
    keeps the mass and scales K by lam^2 and the q and p integrals by
    lam^{d(q-1)/2} and lam^{d(p-1)/2}, against the seed on the default
    box; and lam is the curve's minimizer, where the Pohozaev functional,
    the curve's scaling derivative, vanishes."""
    params = ModelParams(d=d, q=q, p=p)
    coeffs = gs.triple_energy(params)
    seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=3.0)
    grid, scaled = gs._dilation_fit(params, coeffs, rho, seed)
    lam = seed.width / scaled.width
    assert lam != 1.0
    assert (grid.n, grid.L) == (512, 64.0 * scaled.width)
    b0 = breakdown(spectral.normalize(_quiet_eval(gs.default_grid(d), seed), rho), params)
    b = breakdown(spectral.normalize(_quiet_eval(grid, scaled), rho), params)
    assert b.mass == pytest.approx(rho**2, rel=1e-12)
    assert b.kinetic == pytest.approx(b0.kinetic * lam**2, rel=1e-12)
    assert b.nq == pytest.approx(b0.nq * lam ** (d * (q - 1) / 2), rel=1e-12)
    assert b.np == pytest.approx(b0.np * lam ** (d * (p - 1) / 2), rel=1e-12)
    # The fit takes lam on a grid of 1e-3 decades, so it sits within half
    # a step of the minimizer; a 0.1% wider or narrower seed reads >= 3e-4.
    g = pohozaev_terms(b, params, coeffs)
    scale = (
        2 * coeffs.alpha * b.kinetic
        + d * (q - 1) / 2 * coeffs.beta * b.nq
        + d * (p - 1) / 2 * coeffs.gamma * b.np
    )
    assert abs(g) < 2e-4 * scale


def test_dilation_fit_keeps_the_default_box_without_a_negative_minimum(params):
    seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=3.0)
    grid, kept = gs._dilation_fit(params, gs.triple_energy(params), 1.0, seed)
    assert grid == gs.default_grid(1)
    assert kept is seed


# ----------------------------------------------------------------- flow


def test_flow_options_validation():
    with pytest.raises(ValueError):
        gs.FlowOptions(max_iters=0)
    with pytest.raises(ValueError):
        gs.FlowOptions(dt=-1.0)


def test_minimize_decreases_energy(params):
    res = gs.minimize_on_sphere(
        params, gs.triple_energy(params), 1.0, gs.FlowOptions(max_iters=200)
    )
    assert res.energy <= res.initial_energy
    with pytest.raises(ValueError):
        gs.minimize_on_sphere(params, gs.triple_energy(params), -1.0)


def test_minimize_without_grid_runs_in_params_dimension():
    """With no grid the default box has the model's dimension."""
    p2 = ModelParams(d=2, q=2.0, p=2.5)
    res = gs.minimize_on_sphere(p2, gs.triple_energy(p2), 1.0, gs.FlowOptions(max_iters=1))
    assert res.field.grid.d == 2
    assert res.iterations == 1


_ROW_GRID = Grid(d=1, n=64, L=16.0)


def _row_key(r):
    return (
        r.energy, r.residual, r.iterations, r.classification, r.tol_neg,
        r.initial_energy, r.width_ratio, r.sound, r.field.values.tobytes(),
    )


_ROWS = st.lists(st.tuples(st.floats(0.3, 4.0), st.floats(0.6, 3.0)), min_size=1, max_size=5)
# The batch's gamma, one per example: a batch flows one triple (0.5, 0.2, gamma).
_GAMMA = st.floats(0.1, 0.4)


def _assert_rows_match_alone(params, grid, gamma, rows, max_iters, dt, shuffle):
    """Rows (rho, seed width) of the triple (0.5, 0.2, gamma) flowed as
    one batch, in shuffled order, give bit for bit what each gives run
    alone, and a second run of the batch gives the same results."""
    opts = gs.FlowOptions(max_iters=max_iters, dt=dt)
    coeffs = CoeffTriple(0.5, 0.2, gamma)
    rhos = [rho for rho, _ in rows]
    seeds = [AnalyticProfile(kind="gaussian", amplitude=1.0, width=w) for _, w in rows]
    alone = [
        _row_key(gs._flow_rows(params, grid, coeffs, [rho], [seed], opts)[0])
        for rho, seed in zip(rhos, seeds)
    ]
    order = list(range(len(rows)))
    shuffle.shuffle(order)

    def batch():
        res = gs._flow_rows(
            params, grid, coeffs, [rhos[i] for i in order], [seeds[i] for i in order], opts
        )
        return [_row_key(r) for r in res]

    first = batch()
    assert first == [alone[i] for i in order]
    assert batch() == first


@settings(max_examples=25, deadline=None)
@given(
    gamma=_GAMMA,
    rows=_ROWS,
    max_iters=st.integers(1, 25),
    dt=st.sampled_from([0.05, 0.5]),
    shuffle=st.randoms(use_true_random=False),
)
def test_flow_rows_match_each_row_run_alone(params, gamma, rows, max_iters, dt, shuffle):
    """Every row of a batch, in any order and beside any other rows (mixed
    rho and seed width), gives bit for bit the result of that row run
    alone; a second run of the batch gives the same results."""
    _assert_rows_match_alone(params, _ROW_GRID, gamma, rows, max_iters, dt, shuffle)


@settings(max_examples=10, deadline=None)
@given(
    gamma=_GAMMA,
    rows=_ROWS,
    max_iters=st.integers(1, 25),
    dt=st.sampled_from([0.05, 0.5]),
    shuffle=st.randoms(use_true_random=False),
)
def test_flow_rows_match_each_row_run_alone_2d(gamma, rows, max_iters, dt, shuffle):
    """The same in d=2 on a 16x16 grid, where each row's real FFT runs
    over two grid axes of the batch."""
    params = ModelParams(d=2, q=2.0, p=2.5)
    _assert_rows_match_alone(params, Grid(d=2, n=16, L=16.0), gamma, rows, max_iters, dt, shuffle)


def _assert_rows_join_mid_flight(params, grid, gamma, rows, queued_at, dropped_at, max_iters, dt):
    """Rows (rho, seed width) flowed through one _Flow of the triple
    (0.5, 0.2, gamma), row i queued at the queued_at[i]-th flow
    iteration, give bit for bit what each gives run alone.  A row queued
    while the batch runs joins it at its next 10-iteration boundary, as
    other rows leave; one queued when the batch has emptied starts it
    again.  Row i is dropped at the first flow iteration or yield from
    the dropped_at[i]-th flow iteration on (never if None), unless it was
    yielded before: queued, running, or stopped and not yet yielded.  A
    dropped row is never yielded."""
    opts = gs.FlowOptions(max_iters=max_iters, dt=dt)
    coeffs = CoeffTriple(0.5, 0.2, gamma)
    rhos = [rho for rho, _ in rows]
    seeds = [AnalyticProfile(kind="gaussian", amplitude=1.0, width=w) for _, w in rows]
    alone = [
        _row_key(gs._flow_rows(params, grid, coeffs, [rho], [seed], opts)[0])
        for rho, seed in zip(rhos, seeds)
    ]
    flow = gs._Flow(params, grid, coeffs, opts)
    results = {}
    dropped = set()
    later = sorted(range(len(rows)), key=queued_at.__getitem__)
    kick = backend.flow_kick
    iterations = 0

    def admit(i):
        flow.admit(i, rhos[i], seeds[i])

    def drop_due():
        due = {
            i for i, at in enumerate(dropped_at)
            if at is not None and at <= iterations and i not in later and i not in results
        }
        flow.drop(due - dropped)
        dropped.update(due)

    def queue_then_kick(*args):
        nonlocal iterations
        iterations += 1
        while later and queued_at[later[0]] <= iterations:
            admit(later.pop(0))
        drop_due()
        return kick(*args)

    with mock.patch.object(backend, "flow_kick", queue_then_kick):
        while later:
            admit(later.pop(0))
            for key, result in flow.run():
                assert key not in dropped
                results[key] = result
                drop_due()
    kept = [i for i in range(len(rows)) if i not in dropped]
    assert sorted(results) == kept
    assert [_row_key(results[i]) for i in kept] == [alone[i] for i in kept]


def _drop_times(data, queued_at):
    """For each row, None or a flow iteration at or after it is queued."""
    return [data.draw(st.none() | st.integers(at, at + 12)) for at in queued_at]


@settings(max_examples=25, deadline=None)
@given(
    gamma=_GAMMA,
    rows=_ROWS,
    max_iters=st.integers(1, 45),
    dt=st.sampled_from([0.05, 0.5]),
    data=st.data(),
)
def test_rows_joining_mid_flight_match_each_row_run_alone(params, gamma, rows, max_iters, dt, data):
    """Rows that join a running batch at 10-iteration boundaries, while
    other rows leave it or are dropped from it, give bit for bit the
    result of that row run alone: each keeps its own iteration count,
    checkpoints and budget."""
    queued_at = [data.draw(st.integers(0, 50)) for _ in rows]
    dropped_at = _drop_times(data, queued_at)
    _assert_rows_join_mid_flight(params, _ROW_GRID, gamma, rows, queued_at, dropped_at, max_iters, dt)


@settings(max_examples=10, deadline=None)
@given(
    gamma=_GAMMA,
    rows=_ROWS,
    max_iters=st.integers(1, 45),
    dt=st.sampled_from([0.05, 0.5]),
    data=st.data(),
)
def test_rows_joining_mid_flight_match_each_row_run_alone_2d(gamma, rows, max_iters, dt, data):
    """The same in d=2 on a 16x16 grid."""
    params = ModelParams(d=2, q=2.0, p=2.5)
    queued_at = [data.draw(st.integers(0, 50)) for _ in rows]
    dropped_at = _drop_times(data, queued_at)
    _assert_rows_join_mid_flight(
        params, Grid(d=2, n=16, L=16.0), gamma, rows, queued_at, dropped_at, max_iters, dt
    )


def test_drop_removes_a_stopped_row_not_yet_yielded(params):
    """Rows that stop in the same iteration are yielded one at a time; one
    dropped while the caller holds another's result is never yielded."""
    flow = gs._Flow(params, _ROW_GRID, CoeffTriple(0.5, 0.2, 0.2), gs.FlowOptions(max_iters=5))
    seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.0)
    for key in "abc":
        flow.admit(key, 1.0, seed)
    yielded = []
    for key, result in flow.run():
        yielded.append((key, result.iterations))
        flow.drop(["c"])
    assert yielded == [("a", 5), ("b", 5)]


_D1 = (ModelParams(d=1, q=4.0, p=4.5), Grid(d=1, n=512, L=64.0), 2.6)
_D2 = (ModelParams(d=2, q=2.0, p=2.5), Grid(d=2, n=64, L=16.0), 6.0)


@pytest.mark.parametrize(
    "case, width, iters",
    [(_D1, 3.0, k) for k in (1, 7, 40)]
    + [(_D2, 3.0, k) for k in (1, 7, 40)]
    + [(_D2, 0.25, k) for k in (1, 7)],
)
def test_flow_energy_is_breakdown_total(case, width, iters):
    """The energy the flow reports, whose kinetic term it reads off the
    decayed half-spectrum by Parseval, is the breakdown total of the
    field it returns, after steps it accepted: the half-spectrum weights
    count each mode once.  In d=2 the zero modes of the last axis carry
    kinetic energy; the narrow seed puts mass on its Nyquist modes too."""
    params, grid, rho = case
    coeffs = gs.triple_energy(params)
    seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=width)
    res = gs.minimize_on_sphere(params, coeffs, rho, gs.FlowOptions(max_iters=iters), grid, seed)
    assert res.iterations == iters
    assert res.energy < res.initial_energy
    assert res.energy == pytest.approx(breakdown(res.field, params, coeffs).total, rel=1e-12, abs=0)


def _count_transforms(monkeypatch):
    """Count numpy's rfftn, irfftn, fftn and ifftn calls from now on."""
    counts = dict.fromkeys(("rfftn", "irfftn", "fftn", "ifftn"), 0)
    for name in counts:
        transform = getattr(np.fft, name)

        def counted(*args, _name=name, _transform=transform, **kwargs):
            counts[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def test_flow_fft_budget(params, monkeypatch):
    """A flow iteration makes one rfftn and one irfftn, and a checkpoint
    (every 10 iterations, and at the last) one more irfftn; the start
    energy takes one more rfftn, and no complex FFT runs."""
    counts = _count_transforms(monkeypatch)
    res = gs.minimize_on_sphere(params, gs.triple_energy(params), 2.6, gs.FlowOptions(max_iters=25))
    assert res.classification == "budget_exhausted"
    assert counts == {"rfftn": 26, "irfftn": 28, "fftn": 0, "ifftn": 0}


def test_polished_run_makes_one_complex_fft(params, monkeypatch):
    """A polished minimization takes every energy from half-spectra: its
    one complex FFT is _finish's spectral-tail check of the result.  A
    polish trial takes no transform, a polish iteration one rfftn and
    two irfftn, and the result's residual is the polish's own, so the real
    transforms stay at this run's 64 and 122 (its flow and polish together
    run 61 iterations)."""
    counts = _count_transforms(monkeypatch)
    opts = gs.FlowOptions(max_iters=6000, polish=True, residual_tol=1e-10)
    res = gs.minimize_on_sphere(params, gs.triple_energy(params), 2.6, opts)
    assert res.classification == "converged_negative" and res.sound
    assert res.iterations == 61
    assert counts == {"rfftn": 64, "irfftn": 122, "fftn": 1, "ifftn": 0}


def test_tol_neg_rule_is_the_flows_tolerance(params):
    """.threshold.json records TOL_NEG_RULE as the flow's tol_neg: the
    expression, evaluated at rho, is the tol_neg a flow at that mass uses."""
    opts = gs.FlowOptions(max_iters=1)
    for rho in (0.3, 1.0, 2.6):
        res = gs.minimize_on_sphere(params, gs.triple_energy(params), rho, opts)
        assert res.tol_neg == eval(gs.TOL_NEG_RULE, {"rho": rho})


def test_flow_rejects_complex_seed(params):
    """The flow steps real rows; a chirped seed is not real."""
    seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=3.0, chirp=0.3)
    with pytest.raises(ValueError, match="real seed"):
        gs.minimize_on_sphere(params, gs.triple_energy(params), 1.0, seed=seed)


def test_flow_stops_on_the_residual_at_positive_energy():
    """A flow stops once its residual falls below residual_tol, before its
    budget: at d=1, q=3.5, p=4.5 and rho=2.14 the width-8 seed settles on
    a stationary state of positive energy, at iteration 260 of 3,000.
    That state is neither certified nor spreading, so it is
    'budget_exhausted' (MinimizeResult); it has more than doubled its
    width at nonnegative energy, so the probe reads it as the zero
    branch."""
    params = ModelParams(d=1, q=3.5, p=4.5)
    seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=8.0)
    res = gs.minimize_on_sphere(params, gs.triple_energy(params), 2.14, seed=seed)
    assert res.iterations == 260 < gs.FlowOptions().max_iters
    assert res.residual < gs.FlowOptions().residual_tol
    assert res.residual == pytest.approx(3.217e-9, rel=1e-3)
    assert res.energy == pytest.approx(0.029421, rel=1e-4)
    assert res.energy > res.tol_neg
    assert res.classification == "budget_exhausted"
    assert res.width_ratio == pytest.approx(3.266, rel=1e-4)
    assert gs._decision([res]) == "zero"


def test_dilation_fit_needs_a_gaussian_seed(params):
    """The fit reads the closed-form integrals of a Gaussian."""
    seed = AnalyticProfile(kind="sech", amplitude=1.0, width=3.0)
    with pytest.raises(ValueError, match="Gaussian"):
        gs._dilation_fit(params, gs.triple_energy(params), 2.6, seed)


def test_a_wide_seed_at_low_mass_spreads_in_few_iterations(params):
    """A wide seed at low mass spreads by nearly linear heat steps whose
    kick is tiny, so its step doubles at each clean checkpoint: a width-8
    seed at rho=0.05 lands on the spreading signature within 200
    iterations (about 2,300 at a fixed step)."""
    seed = AnalyticProfile(kind="gaussian", amplitude=1.0, width=8.0)
    res = gs.minimize_on_sphere(params, gs.triple_energy(params), 0.05, seed=seed)
    assert res.classification == "spread_to_zero_energy"
    assert res.iterations <= 200


def test_flow_step_grows_only_after_clean_windows_and_within_the_kick_limit(params, monkeypatch):
    """Every change of a row's dt after its start is a halving on a
    rejected step or a doubling at a 10-iteration checkpoint.  A doubling
    follows a window of 10 iterations with no rejected step, and keeps dt
    within max(dt_start, KICK_TOL / _kick_scale) at the row's peak
    amplitude.  At dt=0.5 and rho=2.6 the narrow seed both halves and
    grows."""
    kicks = []
    kick = backend.flow_kick
    decay = gs._decay
    coeffs = gs.triple_energy(params)
    flow = gs._Flow(params, gs.default_grid(1), coeffs, gs.FlowOptions(dt=0.5))
    for key, seed in enumerate(gs._seeds(None)):
        flow.admit(key, 2.6, seed)
    # key -> the row's dt at its last _decay call, its starting dt before.
    dts = {key: start["dt"] for key, (_, start) in flow.queue}
    halved = {}  # key -> the flow iteration of its last halving
    events = []

    def counted(*args):
        kicks.append(1)
        return kick(*args)

    def checked(dt, c, k_sq):
        """The rows this call takes the decay of are the rows whose dt
        changed since their last call; the first call is the rows joining."""
        it = len(kicks)
        s = flow.rows
        if s is None:
            assert sorted(dt) == sorted(dts.values())
            return decay(dt, c, k_sq)
        changed = np.flatnonzero([dt_j != dts[key] for key, dt_j in zip(s.key, s.dt)])
        assert sorted(s.dt[changed]) == sorted(dt)
        for j in changed:
            key, dt_j = s.key[j], s.dt[j]
            if dt_j == 0.5 * dts[key]:
                events.append("halve")
                halved[key] = it
            else:
                events.append("grow")
                assert dt_j == 2.0 * dts[key]
                assert it % 10 == 0 and halved.get(key, -1) <= it - 10
                amp = np.abs(s.vals[j]).max()
                assert dt_j <= max(s.dt_start[j], gs.KICK_TOL / gs._kick_scale(params, c, amp))
            dts[key] = dt_j
        return decay(dt, c, k_sq)

    monkeypatch.setattr(backend, "flow_kick", counted)
    monkeypatch.setattr(gs, "_decay", checked)
    list(flow.run())
    assert {"halve", "grow"} <= set(events)


def test_energy_triple_bracket_and_verdicts_at_half_a_percent(params):
    """The step growth keeps the bisection's bracket and verdicts: the
    dyadic bracket and the verdict sequence of the fixed-step flow."""
    th = gs.threshold_mass(params, gs.triple_energy(params), bracket_tol=0.005, rng=np.random.default_rng(1))
    assert (th.rho_lo, th.rho_hi) == (2.5056640625, 2.51533203125)
    assert [p.verdict for p in th.probes] == (
        ["zero", "negative", "negative"] + ["zero"] * 6 + ["unresolved", "negative"]
    )


def test_polished_minimizer_matches_soliton_quadrature(params):
    """At twice the threshold mass the polished minimizer is the soliton
    of the independent quadrature, not just any dilation-stationary
    state: same mass, same energy to rel 1e-6."""
    coeffs = gs.triple_energy(params)
    rho = 2 * 2.5056640625
    res = gs.minimize_on_sphere(
        params, coeffs, rho,
        gs.FlowOptions(max_iters=6000, polish=True, residual_tol=1e-10),
        None, AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.0),
    )
    abg = (params.q, params.p, coeffs.alpha, coeffs.beta, coeffs.gamma)
    peak = brentq(lambda a: _soliton_integrals(a, *abg)[0] - rho**2, 10.0, 1e5, xtol=1e-9)
    assert res.classification == "converged_negative"
    assert res.sound
    assert res.energy == pytest.approx(_soliton_integrals(peak, *abg)[1], rel=1e-6)


def test_probe_small_mass_is_zero_branch(params):
    pr = gs.probe(params, gs.triple_energy(params), 0.5)
    assert pr.verdict == "zero"
    assert all(r.energy > -r.tol_neg for r in pr.results)


def test_probe_large_mass_is_negative_branch(params, threshold_energy):
    pr = gs.probe(params, gs.triple_energy(params), 2 * threshold_energy.rho0_est)
    assert pr.verdict == "negative"
    assert pr.best.energy < 0


def test_threshold_bracket_and_probe_log(threshold_energy):
    th = threshold_energy
    assert th.rho_lo < th.rho_hi
    assert th.bracket_width <= 0.02 * th.rho0_est
    assert th.rho_lo <= th.rho0_est <= th.rho_hi
    verdicts = {p.verdict for p in th.probes}
    assert verdicts == {"zero", "negative"}


def test_probe_matches_the_bisections_own_probes(params, threshold_energy):
    """probe, which runs its seeds through _flow_rows, gives the first and
    the last probe of a threshold_mass bisection, whose seeds are keyed
    rows of one shared flow, the same verdict and the same seed results."""
    for pr in (threshold_energy.probes[0], threshold_energy.probes[-1]):
        alone = gs.probe(params, gs.triple_energy(params), pr.rho)
        assert (alone.verdict, alone.sound) == (pr.verdict, pr.sound)
        assert [_row_key(r) for r in alone.results] == [_row_key(r) for r in pr.results]


def test_speculative_successors_are_invisible_and_pay(params, monkeypatch):
    """A bisection plans past every decided probe, speculating 'zero' for
    each undecided one.  Its first and last probes are still what
    _flow_rows gives the k-th _seeds draw at their masses, and on this
    config its flow iterations (one flow_kick each) end with its last
    path seed: they are the most, over path seeds, of the flow iteration
    the seed joined at plus its own iterations.  A path probe may wait on
    an earlier probe's verdict, but no flow runs on past the path."""
    kicks = []
    joined = {}
    kick = backend.flow_kick
    join = gs._Flow._join

    def counted(*args):
        kicks.append(1)
        return kick(*args)

    def recorded(flow):
        joined.update((key, len(kicks)) for key, _ in flow.queue)
        return join(flow)

    monkeypatch.setattr(backend, "flow_kick", counted)
    monkeypatch.setattr(gs._Flow, "_join", recorded)
    coeffs = gs.triple_energy(params)
    th = gs.threshold_mass(params, coeffs, bracket_tol=0.02, rng=np.random.default_rng(3))
    bisection_kicks = len(kicks)
    rng = np.random.default_rng(3)
    draws = [gs._seeds(rng) for _ in th.probes]
    for k in (0, len(th.probes) - 1):
        pr = th.probes[k]
        n = len(draws[k])
        alone = gs._flow_rows(params, gs.default_grid(1), coeffs, [pr.rho] * n, draws[k], gs.FlowOptions())
        assert gs._verdict(pr.rho, alone).verdict == pr.verdict
        assert [_row_key(r) for r in alone] == [_row_key(r) for r in pr.results]

    assert {pr.verdict for pr in th.probes} == {"zero", "negative"}
    assert bisection_kicks == max(
        joined[k, j] + r.iterations for k, pr in enumerate(th.probes) for j, r in enumerate(pr.results)
    )


def _seed_result(classification, energy=0.0, width_ratio=4.0):
    return gs.MinimizeResult(
        field=None, energy=energy, residual=0.0, iterations=1, classification=classification,
        tol_neg=1e-6, initial_energy=0.0, width_ratio=width_ratio, sound=True,
    )


_NEGATIVE = _seed_result("converged_negative", energy=-1.0)
_SPREAD = _seed_result("spread_to_zero_energy")


@pytest.mark.parametrize(
    "results, decision",
    [
        ([None, _NEGATIVE, None], "negative"),
        ([_SPREAD, None, _NEGATIVE], "negative"),
        ([None] * 3, None),
        ([_SPREAD, None, _SPREAD], None),
        ([_seed_result("budget_exhausted", width_ratio=1.5), _SPREAD, None], None),
        ([_SPREAD, _NEGATIVE, _SPREAD], "negative"),
        ([_SPREAD] * 3, "zero"),
        ([_SPREAD, _seed_result("budget_exhausted", energy=1e-3, width_ratio=2.0), _SPREAD], "zero"),
        ([_SPREAD, _seed_result("budget_exhausted", width_ratio=1.5), _SPREAD], "unresolved"),
        ([_SPREAD, _seed_result("budget_exhausted", energy=-1e-5), _SPREAD], "unresolved"),
    ],
)
def test_decision_on_partial_seed_results(results, decision):
    """A probe is negative at its first certified seed, undecided while
    another seed still flows, and once complete what _verdict says."""
    assert gs._decision(results) == decision
    if None not in results:
        assert gs._verdict(1.0, results).verdict == decision


def _assert_path_masses(th, bracket_tol):
    """Path probe k of th sits at _bisection(verdicts[:k]), and the
    verdicts end at th's bracket."""
    verdicts = [p.verdict for p in th.probes]
    asked = [gs._bisection(bracket_tol, verdicts[:k]) for k in range(len(verdicts))]
    assert [p.rho for p in th.probes] == asked
    assert gs._bisection(bracket_tol, verdicts) == (th.rho_lo, th.rho_hi)


@pytest.mark.parametrize("make_rng", [random.Random, np.random.default_rng], ids=["random.Random", "numpy"])
def test_threshold_mass_takes_any_source_of_uniform_draws(params, make_rng):
    """rng is any object with uniform(a, b), such as the stdlib's
    random.Random, which the CLI passes, or a numpy Generator: the path
    probes sit where the bisection asks, and probe k flows the k-th
    _seeds draw, each width within 5% of its SEED_WIDTHS entry."""
    coeffs = gs.triple_energy(params)
    th = gs.threshold_mass(params, coeffs, bracket_tol=0.1, rng=make_rng(7))
    _assert_path_masses(th, 0.1)
    rng = make_rng(7)
    draws = [gs._seeds(rng) for _ in th.probes]
    for seeds in draws:
        assert all(0.95 * w <= s.width <= 1.05 * w for s, w in zip(seeds, gs.SEED_WIDTHS, strict=True))
    first = th.probes[0]
    alone = gs._flow_rows(params, gs.default_grid(1), coeffs, [first.rho] * 3, draws[0], gs.FlowOptions())
    assert [_row_key(r) for r in alone] == [_row_key(r) for r in first.results]


def test_path_probes_sit_where_the_bisection_asks(params, sparams, named):
    """A probe speculated on an assumption that a later verdict breaks is
    never read into a path: the paths of threshold_mass and of
    named_thresholds' one bisection, rho_E's, probe the masses _bisection
    asks for after the verdicts before them.  Every other named entry
    takes that bracket times f = (Lambda / Lambda_E)^(-kappa), and its
    probe log."""
    th = gs.threshold_mass(params, gs.triple_energy(params), bracket_tol=0.02, rng=np.random.default_rng(3))
    _assert_path_masses(th, 0.02)
    _assert_path_masses(named.rho_E, 0.005)
    entries = [(named.rho_SW, gs.triple_standing_wave(sparams)), (named.rho_star, gs.triple_star(sparams))]
    entries += [(th, gs.triple_rho1(sparams, a)) for a, th in named.rho1.items()]
    entries += [(th, gs.triple_rho2(sparams, e)) for e, th in named.rho2.items()]
    lam_E = gs.lambda_reduction(gs.triple_energy(sparams), sparams)
    kappa = gs.threshold_exponent(sparams)
    for th, coeffs in entries:
        f = (gs.lambda_reduction(coeffs, sparams) / lam_E) ** -kappa
        assert (th.rho_lo, th.rho_hi) == (f * named.rho_E.rho_lo, f * named.rho_E.rho_hi)
        assert th.probes is named.rho_E.probes


def test_bisection_drops_only_probes_off_its_path_and_caps_speculation(params, monkeypatch):
    """Every probe the bisection drops lies past its path when it is
    dropped: past the decided probes at the masses the path takes.  No
    probe is admitted again at a mass it was dropped at.  The undecided
    probes in flight never exceed SPECULATIVE_PROBES; a cap of 3 is
    reached, and leaves the bracket and the probe log as they are."""
    admit, drop, run = gs._Flow.admit, gs._Flow.drop, gs._Flow.run
    runs = []
    for cap in (gs.SPECULATIVE_PROBES, 3):
        flowing = {}  # k -> (rho, seed results) of each probe in flight
        dropped = []  # (k, {m: rho of each decided probe}) at each drop
        gone = set()  # (k, rho) of each dropped probe
        most = []

        def undecided():
            return sum(gs._decision(results) is None for _, results in flowing.values())

        def admitted(self, key, rho, seed):
            assert (key[0], rho) not in gone
            flowing.setdefault(key[0], (rho, [None] * len(gs.SEED_WIDTHS)))
            admit(self, key, rho, seed)
            most.append(undecided())

        def dropping(self, keys):
            keys = list(keys)
            decided = {probe: rho for probe, (rho, results) in flowing.items() if gs._decision(results)}
            for probe in dict.fromkeys(k for k, _ in keys):
                gone.add((probe, flowing.pop(probe)[0]))
                dropped.append((probe, decided))
            drop(self, keys)

        def running(self):
            for key, result in run(self):
                flowing[key[0]][1][key[1]] = result
                most.append(undecided())
                yield key, result

        monkeypatch.setattr(gs, "SPECULATIVE_PROBES", cap)
        monkeypatch.setattr(gs._Flow, "admit", admitted)
        monkeypatch.setattr(gs._Flow, "drop", dropping)
        monkeypatch.setattr(gs._Flow, "run", running)
        th = gs.threshold_mass(params, gs.triple_energy(params), bracket_tol=0.1)
        assert dropped
        for k, decided in dropped:
            path = 0
            while path < len(th.probes) and decided.get(path) == th.probes[path].rho:
                path += 1
            assert k >= path
        assert max(most) <= cap
        runs.append(((th.rho_lo, th.rho_hi), [(p.rho, p.verdict, [r.energy for r in p.results]) for p in th.probes]))
    assert max(most) == 3
    assert runs[0] == runs[1]


def test_threshold_against_continuum_quadrature(params, threshold_energy):
    """The continuum threshold (independent soliton quadrature) lower
    bounds the flow estimate; the flow's seed landscape adds a barrier of
    at most ~10%."""
    rho_cont = continuum_threshold(params.q, params.p, 0.5, 0.2, 1 / 5.5)
    assert rho_cont == pytest.approx(2.3407, rel=1e-3)
    assert threshold_energy.rho0_est > rho_cont - threshold_energy.bracket_width
    assert threshold_energy.rho0_est < 1.15 * rho_cont


def test_threshold_rejects_degenerate_inputs(params):
    with pytest.raises(ValueError):
        gs.threshold_mass(params, CoeffTriple.pure_focusing(0.5, 0.2))


@pytest.mark.parametrize("bracket_tol", [0.0, -0.1, 1.0])
def test_bisection_rejects_bracket_tol_outside_unit_interval(params, sparams, bracket_tol, monkeypatch):
    """A negative bracket_tol would bisect forever and 0 until the bracket
    collapses; either raises before any flow runs."""
    monkeypatch.setattr(gs, "_Flow", None)
    with pytest.raises(ValueError, match="bracket_tol"):
        gs.threshold_mass(params, gs.triple_energy(params), bracket_tol=bracket_tol)
    with pytest.raises(ValueError, match="bracket_tol"):
        gs.named_thresholds(sparams, bracket_tol=bracket_tol)


def test_threshold_monotone_in_gamma(params, threshold_energy):
    """A stronger focusing weight lowers the threshold."""
    stronger = CoeffTriple(0.5, 0.2, 1.6 / 5.5)
    th = gs.threshold_mass(params, stronger, bracket_tol=0.02)
    assert th.rho0_est < threshold_energy.rho_lo


def test_threshold_homogeneity_and_reduction(params, threshold_energy):
    """Degree-0 homogeneity and the (1, 1, Lambda) reduction: a scaled
    triple and the (1, 1, Lambda) triple reduce to the energy triple's
    problem (to rounding in its gamma), so both identities hold."""
    coeffs = gs.triple_energy(params)
    lam = gs.lambda_reduction(coeffs, params)
    th_scaled = gs.threshold_mass(params, coeffs.scaled(2.0), bracket_tol=0.02)
    th_red = gs.threshold_mass(params, CoeffTriple(1.0, 1.0, lam), bracket_tol=0.02)
    assert th_scaled.rho0_est == pytest.approx(threshold_energy.rho0_est, rel=1e-12)
    assert th_red.rho0_est == pytest.approx(threshold_energy.rho0_est, rel=1e-12)


def test_continuum_threshold_depends_only_on_lambda(params):
    """Independent quadrature check of the reduction identity."""
    a, b, g = 0.5, 0.2, 1 / 5.5
    lam = gs.lambda_reduction(CoeffTriple(a, b, g), params)
    r1 = continuum_threshold(params.q, params.p, a, b, g)
    r2 = continuum_threshold(params.q, params.p, 1.0, 1.0, lam)
    assert r1 == pytest.approx(r2, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(3.05, 4.85),
    gap=st.floats(0.0, 1.0),
    lams=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
)
def test_threshold_law_against_the_quadrature(q, gap, lams):
    """A referee of the law threshold_mass scales by, which calls none of
    its code: for admissible (q, p) in d=1, the quadrature's thresholds of
    the (1, 1, Lambda) triples at two Lambda obey
    rho_0(Lambda_1) / rho_0(Lambda_2) = (Lambda_1 / Lambda_2)^(-kappa),
    kappa = (4 - (q-1)) / (4(p - q)).  p - q >= 0.1 keeps the zero
    crossing within the quadrature's amplitude search."""
    p = q + 0.1 + gap * (4.95 - q - 0.1)
    ModelParams(d=1, q=q, p=p, regime="scattering")
    kappa = (4 - (q - 1)) / (4 * (p - q))
    lam1, lam2 = lams
    ratio = continuum_threshold(q, p, 1.0, 1.0, lam1) / continuum_threshold(q, p, 1.0, 1.0, lam2)
    assert ratio == pytest.approx((lam1 / lam2) ** -kappa, rel=1e-6)


def test_threshold_law_at_each_named_lambda(sparams, named):
    """The same referee at each default named triple: its quadrature
    threshold is the energy triple's times (Lambda / Lambda_E)^(-kappa),
    kappa = 1/2 here."""
    q, p = sparams.q, sparams.p
    kappa = (4 - (q - 1)) / (4 * (p - q))
    energy = gs.triple_energy(sparams)
    rho_E = continuum_threshold(q, p, energy.alpha, energy.beta, energy.gamma)
    triples = [gs.triple_standing_wave(sparams), gs.triple_star(sparams)]
    triples += [gs.triple_rho1(sparams, a) for a in named.rho1]
    triples += [gs.triple_rho2(sparams, e) for e in named.rho2]
    for c in triples:
        ratio = gs.lambda_reduction(c, sparams) / gs.lambda_reduction(energy, sparams)
        rho = continuum_threshold(q, p, c.alpha, c.beta, c.gamma)
        assert rho == pytest.approx(rho_E * ratio**-kappa, rel=1e-6)


# ------------------------------------------------------ closed-form layer


def test_lambda_reduction_values(params):
    c = CoeffTriple(1.0, 1.0, 2.0)
    assert gs.lambda_reduction(c, params) == pytest.approx(2.0)
    # r = delta_p / delta_q = 0.5
    c2 = CoeffTriple(4.0, 1.0, 2.0)
    assert gs.lambda_reduction(c2, params) == pytest.approx(2.0 / (4.0**0.5))
    with pytest.raises(ValueError):
        gs.lambda_reduction(CoeffTriple.pure_focusing(1.0, 1.0), params)


def test_named_triples(params, sparams):
    t = gs.triple_energy(params)
    assert (t.alpha, t.beta, t.gamma) == (0.5, 1 / 5, 1 / 5.5)
    sw = gs.triple_standing_wave(params)
    assert sw.alpha == 1.0
    assert sw.beta == pytest.approx(1 * 3 / (2 * 5))
    assert sw.gamma == pytest.approx(1 * 3.5 / (2 * 5.5))
    star = gs.triple_star(sparams)
    r1 = gs.triple_rho1(sparams, 1.0)
    assert star == r1
    # beta(A) = (A - dq)(A - dp)^{-dq/dp} / (q + 1) at A = 0.75
    b = gs.triple_rho1(sparams, 0.75).beta
    assert b == pytest.approx((0.75 - 0.5) * (0.75 - 0.25) ** -2.0 / 5.0)
    with pytest.raises(ValueError):
        gs.triple_rho1(sparams, 0.5)
    with pytest.raises(ValueError):
        gs.triple_rho1(sparams, 1.2)
    r2 = gs.triple_rho2(params, 0.1)
    assert r2.gamma == pytest.approx(1.1 / (0.9 * 5.5))
    with pytest.raises(ValueError):
        gs.triple_rho2(params, 0.0)


def test_f_and_F_values(sparams):
    assert gs.f_of_A(1.0, sparams) == pytest.approx(0.75 / np.sqrt(0.5))
    assert gs.f_of_A(0.75, sparams) == pytest.approx((2 / 3) * np.sqrt(3))
    assert gs.F_of_x(2.0, sparams) == pytest.approx(0.875 / np.sqrt(0.75))
    with pytest.raises(ValueError):
        gs.f_of_A(0.5, sparams)
    with pytest.raises(ValueError):
        gs.F_of_x(0.9, sparams)


def test_f_decreasing_F_decreasing_to_one(sparams):
    a_grid = np.linspace(0.51, 1.0, 50)
    f_vals = [gs.f_of_A(a, sparams) for a in a_grid]
    assert all(x > y for x, y in zip(f_vals, f_vals[1:]))
    x_grid = np.linspace(1.0, 50.0, 50)
    F_vals = [gs.F_of_x(x, sparams) for x in x_grid]
    assert all(x > y for x, y in zip(F_vals, F_vals[1:]))
    assert all(v > 1 for v in F_vals[:-1])
    assert gs.F_of_x(1e8, sparams) == pytest.approx(1.0, rel=1e-6)


def test_ordering_check(sparams, params):
    rep = gs.ordering_check(sparams)
    assert rep.ordered
    m1, m2 = rep.margins
    assert m1 > 0 and m2 > 0
    with pytest.raises(ValueError):
        gs.ordering_check(params)


def test_pure_focusing_exponent():
    assert gs.pure_focusing_exponent(ModelParams(d=1, q=2.0, p=3.0)) == pytest.approx(6.0)
    assert gs.pure_focusing_exponent(ModelParams(d=1, q=4.0, p=4.5)) == pytest.approx(30.0)


@pytest.mark.parametrize("d, q, p, kappa", [(1, 4.0, 4.5, 0.5), (1, 3.0, 4.0, 0.5), (2, 2.0, 2.5, 1.0), (3, 1.5, 2.0, 1.25)])
def test_threshold_exponent(d, q, p, kappa):
    """kappa = (4 - d(q-1)) / (4(p - q))."""
    assert gs.threshold_exponent(ModelParams(d=d, q=q, p=p)) == pytest.approx(kappa)


def test_named_thresholds_bisect_each_lambda_once(named):
    """rho_star and rho1(1.0) are the same triple, so one bisection."""
    assert named.rho_star is named.rho1[1.0]


def test_named_thresholds_match_threshold_mass(sparams):
    """named_thresholds' one bisection, scaled by the threshold law, gives
    every named entry the bracket and the probe log (masses, verdicts,
    seed energies) of its own threshold_mass run."""
    named = gs.named_thresholds(sparams, bracket_tol=0.1, A_grid=(1.0,), eps_grid=(0.4,))
    entries = (
        (named.rho_E, gs.triple_energy(sparams)),
        (named.rho_SW, gs.triple_standing_wave(sparams)),
        (named.rho_star, gs.triple_star(sparams)),
        (named.rho2[0.4], gs.triple_rho2(sparams, 0.4)),
    )
    for th, coeffs in entries:
        alone = gs.threshold_mass(sparams, coeffs, bracket_tol=0.1)
        assert (th.rho_lo, th.rho_hi) == (alone.rho_lo, alone.rho_hi)
        assert [(p.rho, p.verdict, [r.energy for r in p.results]) for p in th.probes] == [
            (p.rho, p.verdict, [r.energy for r in p.results]) for p in alone.probes
        ]


def test_named_thresholds_cost_one_bisection(sparams, monkeypatch):
    """named_thresholds runs the energy triple's bisection and nothing
    else: as many flow iterations (one flow_kick each) as threshold_mass
    on the energy triple at the same bracket_tol."""
    kicks = []
    kick = backend.flow_kick

    def counted(*args):
        kicks.append(1)
        return kick(*args)

    monkeypatch.setattr(backend, "flow_kick", counted)
    gs.named_thresholds(sparams, bracket_tol=0.1, A_grid=(1.0,), eps_grid=(0.4,))
    named_kicks = len(kicks)
    gs.threshold_mass(sparams, gs.triple_energy(sparams), bracket_tol=0.1)
    assert named_kicks == len(kicks) - named_kicks > 0


def test_bracketing_error_carries_complete_probe_log(sparams):
    """A bisection that cannot bracket (one flow iteration per seed
    leaves the low end unresolved) raises once the probes in flight have
    stopped, so every ProbeResult it carries is complete.  It carries the
    probes on the bisection's path only, each at the mass _bisection asks
    for after the verdicts before it, and no zero-side successor."""
    with pytest.raises(gs.BracketingError) as err:
        gs.named_thresholds(
            sparams, bracket_tol=0.1, A_grid=(1.0,), eps_grid=(0.4,), opts=gs.FlowOptions(max_iters=1)
        )
    probes = err.value.probes
    assert probes
    assert all(len(p.results) == len(gs.SEED_WIDTHS) and p.verdict for p in probes)
    verdicts = [p.verdict for p in probes]
    assert [p.rho for p in probes] == [gs._bisection(0.1, verdicts[:k]) for k in range(len(probes))]
    with pytest.raises(gs.BracketingError):
        gs._bisection(0.1, verdicts)


def test_named_thresholds_need_scattering_regime(params):
    with pytest.raises(ValueError):
        gs.named_thresholds(params)
