import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nls_lab import backend, conformal, spectral
from nls_lab.evolution import (
    EvolutionError,
    EvolutionState,
    EvolveControls,
    StrangStepper,
    aqp_condition_holds,
    aqp_condition_rhs,
    decay_envelopes,
    evolve,
    evolve_monitor,
    nonlinear_phase_weights,
)
from nls_lab.functionals import ModelParams, breakdown
from nls_lab.grid import AnalyticProfile, Grid, eval_profile


@pytest.fixture
def psi0(grid512):
    return eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))


def test_state_validation(psi0, params):
    with pytest.raises(ValueError):
        EvolutionState(psi0, 0.5, "weird", params)
    with pytest.raises(ValueError):
        EvolutionState(psi0, 1.0, "conformal", params)
    with pytest.raises(ValueError):
        EvolutionState(psi0, -0.1, "physical", params)


def test_physical_evolve_takes_no_decay_exponent(psi0, params):
    """E_A and R_A are taken along the conformal clock, so a physical
    run has no decay exponent to record."""
    st0 = EvolutionState(psi0, 0.0, "physical", params)
    with pytest.raises(ValueError, match="conformal"):
        evolve(st0, 0.1, EvolveControls(A=0.75))


def test_decay_exponent_must_be_nonnegative():
    """E_A needs A >= 0; the controls that carry A into evolve check it."""
    with pytest.raises(ValueError, match="nonnegative"):
        EvolveControls(A=-0.1)
    assert EvolveControls(A=0.0).A == 0.0


def test_physical_weights_are_dt(params):
    assert nonlinear_phase_weights("physical", 3.0, 0.02, params) == (0.02, 0.02)


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(0.0, 0.9), dt=st.floats(1e-4, 0.05))
def test_conformal_weights_match_quadrature(tau, dt, params):
    if tau + dt >= 1:
        return
    wq, wp = nonlinear_phase_weights("conformal", tau, dt, params)
    oq = quad(lambda s: (1 - s) ** -params.delta_q, tau, tau + dt)[0]
    op = quad(lambda s: (1 - s) ** -params.delta_p, tau, tau + dt)[0]
    assert wq == pytest.approx(oq, rel=1e-10)
    assert wp == pytest.approx(op, rel=1e-10)


def test_conformal_weights_guard(params):
    with pytest.raises(ValueError):
        nonlinear_phase_weights("conformal", 0.99, 0.02, params)


def test_mass_and_momentum_conservation(psi0, params):
    k0 = psi0.grid.wavenumbers[8]
    moving = psi0.with_values(psi0.values * np.exp(1j * k0 * psi0.grid.axis))
    st0 = EvolutionState(moving, 0.0, "physical", params)
    traj = evolve(st0, 2.0, EvolveControls(dt_base=1e-2, cadence=20))
    m = traj.series("mass")
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-12
    mom = np.array([r.momentum[0] for r in traj.records])
    assert np.max(np.abs(mom - mom[0])) < 1e-10


def _round_trip_error(psi0, params, model, clock, dt=1e-2, steps=20):
    """Max deviation from psi0 after steps of dt from clock, then as many
    of -dt back to clock."""
    stepper = StrangStepper(psi0.grid, params, model)
    values = psi0.values.copy()
    for step in (dt, -dt):
        for _ in range(steps):
            stepper.step(values, clock, step)
            clock += step
    return np.max(np.abs(values - psi0.values))


def test_time_reversal(psi0, params):
    assert _round_trip_error(psi0, params, "physical", 0.0) < 1e-10


@pytest.mark.parametrize(
    "grid, params",
    [(Grid(2, 32, 16.0), ModelParams(d=2, q=2.0, p=2.5)), (Grid(3, 8, 8.0), ModelParams(d=3, q=1.5, p=2.0))],
)
def test_linear_step_is_the_multi_axis_symbol(grid, params):
    """The linear multiplier, built on one axis and multiplied out over
    d axes, is exp(-i |k|^2 dt) on the whole d-dimensional grid, also
    for a step that changes dt and for a backward one."""
    stepper = StrangStepper(grid, params, "physical")
    for dt in (1e-2, 0.37, -0.05):
        assert np.max(np.abs(stepper._symbol(dt) - np.exp(-1j * dt * grid.k_sq))) < 1e-14


def _d2_datum():
    """A d=2 Gaussian of width 1.5 at mass 4 on a 64^2 box of side 16."""
    grid = Grid(2, 64, 16.0)
    field = eval_profile(grid, AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.5))
    return spectral.normalize(field, 2.0), ModelParams(d=2, q=2.0, p=2.5)


def test_d2_physical_evolve_conserves_mass():
    psi, params = _d2_datum()
    traj = evolve(EvolutionState(psi, 0.0, "physical", params), 0.2, EvolveControls(dt_base=1e-2, cadence=5))
    m = traj.series("mass")
    assert len(m) == 5
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-12


def test_d2_time_reversal():
    """In d=2 too, steps of dt then as many of -dt restore the field."""
    psi, params = _d2_datum()
    assert _round_trip_error(psi, params, "physical", 0.0) < 1e-10


def test_conformal_time_reversal(psi0, params):
    # The conformal weights vary with the clock, unlike the physical (dt, dt).
    assert _round_trip_error(psi0, params, "conformal", 0.3) < 1e-10


def test_records_match_their_snapshot_fields(psi0, params):
    # Records read K and P off the transform of their state; recompute
    # them, and the rest of the breakdown, from each snapshot field.
    k0 = psi0.grid.wavenumbers[5]
    moving = psi0.with_values(psi0.values * np.exp(1j * k0 * psi0.grid.axis))
    st0 = EvolutionState(moving, 0.0, "conformal", params)
    taus = (0.0, 0.3, 0.6, 0.9)
    traj = evolve(st0, 0.9, EvolveControls(dt_base=1e-2, c_adapt=0.02, cadence=3,
                                           snapshot_clocks=taus))
    snap_records = [r for r in traj.records if r.snapshot is not None]
    assert [r.clock for r in snap_records] == list(taus)
    for r in snap_records:
        b = breakdown(r.snapshot, params)
        for got, want in ((r.kinetic, b.kinetic), (r.nq, b.nq), (r.np, b.np),
                          (r.energy, b.total), (r.mass, b.mass)):
            assert got == pytest.approx(want, rel=1e-12)
        mom = spectral.momentum(r.snapshot)
        assert abs(mom[0]) > 0.1
        assert r.momentum == pytest.approx(mom, rel=1e-12)


def test_record_cadence_does_not_change_the_trajectory(psi0, params):
    st0 = EvolutionState(psi0, 0.0, "conformal", params)
    taus = (0.4, 0.8)

    def snaps(cadence):
        ctl = EvolveControls(dt_base=1e-2, c_adapt=0.02, cadence=cadence, snapshot_clocks=taus)
        return [f.values for _, f in evolve(st0, 0.8, ctl).snapshots()]

    for a, b in zip(snaps(1), snaps(7), strict=True):
        assert np.array_equal(a, b)


def test_fft_budget(psi0, params, monkeypatch):
    # 2 transforms a step, those of its linear flow; a record of evolve
    # takes 1 forward transform of its state, a record of evolve_monitor
    # none, not even for a snapshot.  No call is batched.
    counts = {"fft": 0, "calls": 0, "step": 0}
    for name in ("fftn", "ifftn"):
        transform = getattr(np.fft, name)

        def counted(a, *args, _transform=transform, **kwargs):
            counts["fft"] += np.size(a) // psi0.grid.size
            counts["calls"] += 1
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    free = StrangStepper.free

    def counted_free(*args, **kwargs):
        counts["step"] += 1
        return free(*args, **kwargs)

    monkeypatch.setattr(StrangStepper, "free", counted_free)
    st0 = EvolutionState(psi0, 0.0, "physical", params)
    for cadence, records in ((1, 21), (7, 4)):
        counts.update(fft=0, calls=0, step=0)
        traj = evolve(st0, 0.2, EvolveControls(dt_base=1e-2, cadence=cadence))
        assert counts["step"] == 20
        assert len(traj.records) == records
        assert counts["fft"] == 2 * counts["step"] + records
        assert counts["calls"] == counts["fft"]
        counts.update(fft=0, calls=0, step=0)
        run = evolve_monitor(st0, 0.2, EvolveControls(dt_base=1e-2, cadence=cadence,
                                                      snapshot_clocks=(0.1, 0.2)))
        assert counts["step"] == 20 and len(run.snapshots) == 2
        assert counts["fft"] == counts["calls"] == 2 * counts["step"]


def test_blowup_raises_with_the_records_before_it(params):
    grid = Grid(d=1, n=256, L=64.0)
    psi = spectral.normalize(
        eval_profile(grid, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0)), 1e90
    )
    st0 = EvolutionState(psi, 0.0, "physical", params)
    with np.errstate(all="ignore"), pytest.raises(EvolutionError) as exc:
        evolve(st0, 1.0, EvolveControls(dt_base=1e-2, cadence=1))
    assert "non-finite field at clock 0.01" in str(exc.value)
    assert [r.clock for r in exc.value.trajectory.records] == [0.0]
    with np.errstate(all="ignore"), pytest.raises(EvolutionError, match="non-finite field at clock 0.01"):
        evolve_monitor(st0, 1.0, EvolveControls(dt_base=1e-2, cadence=1))


@pytest.mark.parametrize("model, end", [("physical", 1.0), ("conformal", 0.5)])
def test_strang_is_second_order(psi0, params, model, end):
    """Also with the conformal model's time-dependent coefficients, whose
    rotations merge over the span from one step's midpoint to the next."""
    st0 = EvolutionState(psi0, 0.0, model, params)

    def final(dt):
        traj = evolve(st0, end, EvolveControls(dt_base=dt, c_adapt=np.inf, cadence=10**6))
        return traj.records[-1]

    ref = final(1e-3)

    def err(rec):
        return abs(rec.energy - ref.energy)

    ratio = err(final(2e-2)) / err(final(1e-2))
    assert 3.0 < ratio < 5.0


def test_free_flow_matches_free_propagate(psi0, params):
    st0 = EvolutionState(psi0, 0.0, "physical", params)
    # A no-op nonlinear phase leaves each step the free group.
    with mock.patch.object(backend, "nonlinear_phase", lambda *args: None):
        traj = evolve(st0, 0.5, EvolveControls(dt_base=1e-2, cadence=10**6, snapshot_clocks=(0.5,)))
    _, snap = traj.snapshots()[0]
    expect = conformal.free_propagate(psi0, 0.5)
    assert np.max(np.abs(snap.values - expect.values)) < 1e-11


def test_snapshots_land_exactly(psi0, params):
    st0 = EvolutionState(psi0, 0.0, "conformal", params)
    taus = (0.3, 0.55, 0.9)
    traj = evolve(
        st0, 0.9, EvolveControls(dt_base=1e-2, c_adapt=0.02, cadence=7, snapshot_clocks=taus)
    )
    got = [t for t, _ in traj.snapshots()]
    assert got == list(taus)
    assert traj.records[-1].clock == pytest.approx(0.9)


def test_truncation_monitor_flags_spreading(psi0, params):
    st0 = EvolutionState(psi0, 0.0, "physical", params)
    with mock.patch.object(backend, "nonlinear_phase", lambda *args: None):
        traj = evolve(st0, 60.0, EvolveControls(dt_base=5e-2, cadence=50))
    assert not traj.sound
    assert traj.unsound_from is not None
    assert all(r.sound for r in traj.records[: traj.unsound_from])


@pytest.mark.parametrize("spreading", [False, True])
def test_monitor_reads_what_evolve_records(psi0, params, spreading):
    """evolve_monitor runs evolve's loop and keeps of its records the
    soundness, the first mass and the snapshots, bit for bit, without
    the energy breakdown's power sums or Parseval sums."""
    if spreading:
        # test_truncation_monitor_flags_spreading's free run, with snapshots.
        st0 = EvolutionState(psi0, 0.0, "physical", params)
        end, ctl = 60.0, EvolveControls(dt_base=5e-2, cadence=50, snapshot_clocks=(0.0, 20.0, 60.0))
        phase = mock.patch.object(backend, "nonlinear_phase", lambda *args: None)
    else:
        st0 = EvolutionState(psi0, 0.0, "conformal", params)
        end = 0.9
        ctl = EvolveControls(dt_base=1e-2, c_adapt=0.02, cadence=3, snapshot_clocks=(0.3, 0.6, 0.9))
        phase = contextlib.nullcontext()
    with phase:
        traj = evolve(st0, end, ctl)
        with mock.patch.object(backend, "abs2_power_sums", side_effect=backend.abs2_power_sums) as sums, \
                mock.patch.object(spectral, "parseval_sums", side_effect=spectral.parseval_sums) as parseval:
            run = evolve_monitor(st0, end, ctl)
    assert sums.call_count == 0 and parseval.call_count == 0
    assert run.sound == traj.sound and run.sound is not spreading
    assert run.unsound_from == traj.unsound_from
    assert run.mass == traj.records[0].mass
    want = traj.snapshots()
    assert [c for c, _ in run.snapshots] == [c for c, _ in want] and len(want) == 3
    for (_, got), (_, f) in zip(run.snapshots, want, strict=True):
        assert np.array_equal(got.values, f.values)


def test_csv_layout(psi0, params):
    st0 = EvolutionState(psi0, 0.0, "conformal", params)
    traj = evolve(st0, 0.5, EvolveControls(dt_base=1e-2, cadence=20, A=0.75))
    text = traj.to_csv()
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert meta == [
        "# model=conformal d=1 q=4.0 p=4.5 A=0.75",
        "# coeffs=(1/2, 1/(q+1), 1/(p+1)) ",
        "# momentum_convention=Im<conj(psi), grad psi>",
    ]
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "tau,mass,K,nq,np,E,E_A,R_A"
    first = [l for l in lines if not l.startswith("#")][1].split(",")
    assert len(first) == 8
    assert float(first[0]) == 0.0


def test_evolve_argument_guards(psi0, params):
    st0 = EvolutionState(psi0, 0.5, "physical", params)
    with pytest.raises(ValueError):
        evolve(st0, 0.5, EvolveControls())
    stc = EvolutionState(psi0, 0.0, "conformal", params)
    with pytest.raises(ValueError):
        evolve(stc, 1.0, EvolveControls())
    with pytest.raises(ValueError):
        EvolveControls(dt_base=0.0)


def test_decay_envelopes_requires_conformal(psi0, params):
    st0 = EvolutionState(psi0, 0.0, "physical", params)
    traj = evolve(st0, 0.1, EvolveControls(dt_base=1e-2, cadence=5))
    with pytest.raises(ValueError):
        decay_envelopes(traj, 0.75)


def test_aqp_condition():
    # exceeds 1 exactly in the short-range regime q > 1 + 2/d
    assert aqp_condition_rhs(4.0, 1) == pytest.approx(1.75)
    for d in (1, 2, 3):
        for q in np.linspace(1.05, 1 + 4 / d - 0.05, 25):
            assert (aqp_condition_rhs(q, d) > 1) == (q > 1 + 2 / d)
    assert aqp_condition_holds(1.0, 4.0, 1)
    assert not aqp_condition_holds(2.0, 4.0, 1)
