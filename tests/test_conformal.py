from unittest import mock

import numpy as np
import pytest

from nls_lab import backend, conformal, spectral
from nls_lab.evolution import EvolutionState, EvolveControls, MonitorRun, evolve_monitor
from nls_lab.grid import AnalyticProfile, eval_profile
from oracles import free_gaussian


@pytest.fixture
def psi0(grid512):
    return eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))


def test_time_maps():
    assert conformal.time_map(0.0) == 0.0
    assert conformal.time_map(1.0) == 0.5
    for t in (0.0, 0.3, 2.0, 50.0):
        assert conformal.inverse_time_map(conformal.time_map(t)) == pytest.approx(t, rel=1e-12)
    with pytest.raises(ValueError):
        conformal.time_map(-0.1)
    with pytest.raises(ValueError):
        conformal.inverse_time_map(1.0)


def test_transform_at_t_zero_is_chirp(psi0):
    phi, tau = conformal.to_conformal(psi0, 0.0)
    assert tau == 0.0
    expect = conformal.chirp(psi0, -0.25)
    assert np.max(np.abs(phi.values - expect.values)) < 1e-12


def test_transform_roundtrip(psi0):
    phi, tau = conformal.to_conformal(psi0, 1.5)
    back, t = conformal.from_conformal(phi, tau)
    assert t == pytest.approx(1.5, rel=1e-12)
    assert np.max(np.abs(back.values - psi0.values)) < 1e-12


def test_j_norm_chirp_cancellation(psi0):
    """J(1)(e^{i|x|^2/4} u) = i e^{i|x|^2/4} grad u, so the J norm of the
    chirped state is the plain gradient norm of u."""
    chirped = conformal.chirp(psi0, 0.25)
    jn = conformal.j_norm(chirped, 0.0)
    assert jn == pytest.approx(np.sqrt(spectral.gradient_sq_norm(psi0)), rel=1e-10)


def test_j_norm_real_field_closed_form(psi0):
    """For real u the cross term vanishes:
    ||J(1+t) u||^2 = ||x u||^2 / 4 + (1+t)^2 ||grad u||^2."""
    for t in (0.0, 2.0):
        jn = conformal.j_norm(psi0, t)
        expect = np.sqrt(
            spectral.weighted_l2(psi0) ** 2 / 4
            + (1 + t) ** 2 * spectral.gradient_sq_norm(psi0)
        )
        assert jn == pytest.approx(expect, rel=1e-10)


def test_norm_identities_on_free_flow(psi0):
    for t in (0.0, 0.5, 3.0):
        psi_t = conformal.free_propagate(psi0, t) if t else psi0
        rep = conformal.verify_norm_identities(psi_t, t)
        assert rep.max_residual() < 1e-12


def test_free_propagate_against_closed_form(grid512, psi0):
    t = 0.7
    out = conformal.free_propagate(psi0, t)
    expect = free_gaussian(t, grid512.axis, 2.0)
    assert np.max(np.abs(out.values - expect)) < 1e-12
    # unitarity
    assert spectral.mass(out) == pytest.approx(spectral.mass(psi0), rel=1e-13)


def test_free_propagate_group_property(psi0):
    a = conformal.free_propagate(conformal.free_propagate(psi0, 0.4), 0.6)
    b = conformal.free_propagate(psi0, 1.0)
    assert np.max(np.abs(a.values - b.values)) < 1e-13


def _small_mass_run(grid, params, rho=0.3):
    phi0 = spectral.normalize(
        eval_profile(grid, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0)), rho
    )
    state = EvolutionState(phi0, 0.0, "conformal", params)
    controls = EvolveControls(
        dt_base=1e-2,
        c_adapt=1e-2,
        cadence=10,
        snapshot_clocks=(0.9, 0.95, 0.99, 0.995, 0.999),
    )
    return evolve_monitor(state, 0.999, controls)


def test_scattering_probe_small_mass(grid512, sparams):
    run = _small_mass_run(grid512, sparams)
    rep = conformal.scattering_probe(run)
    assert rep.verdict == "scattering_consistent"
    assert rep.finest_residual < rep.tol
    assert rep.psi_plus is not None
    assert rep.residuals.shape == (5, 5)
    assert np.allclose(rep.residuals, rep.residuals.T)


def test_scattering_probe_free_flow_is_exact(grid512, sparams):
    # A no-op nonlinear phase leaves each step the free group.
    with mock.patch.object(backend, "nonlinear_phase", lambda *args: None):
        run = _small_mass_run(grid512, sparams)
    rep = conformal.scattering_probe(run)
    assert rep.verdict == "scattering_consistent"
    assert rep.residuals.max() < 1e-12


def test_scattering_probe_needs_snapshots(grid512, sparams):
    phi0 = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    state = EvolutionState(phi0, 0.0, "conformal", sparams)
    run = evolve_monitor(state, 0.5, EvolveControls(dt_base=1e-2, cadence=10))
    with pytest.raises(ValueError):
        conformal.scattering_probe(run)


def _synthetic_run(psi0, amplitudes, taus=(0.9, 0.95, 0.99)):
    """A sound MonitorRun whose snapshot at taus[i] is the free evolution
    of amplitudes[i] * psi0, so that U(-tau) maps it back to exactly
    amplitudes[i] * psi0: its residual to the finest snapshot is
    |amplitudes[i] - amplitudes[-1]| ||psi0||_2, and the probe's tol is
    1e-3 ||psi0||_2."""
    snapshots = [
        (t, conformal.free_propagate(psi0.with_values(a * psi0.values), t)) for t, a in zip(taus, amplitudes)
    ]
    return MonitorRun(mass=spectral.mass(psi0), unsound_from=None, snapshots=snapshots)


@pytest.mark.parametrize(
    "amplitudes",
    [
        (1.0, 2.0, 3.0),  # the finest residual is 1000 tol
        (1.003, 1.0, 1.005),  # 5 tol, but the residuals grow toward the finest pair
    ],
)
def test_scattering_probe_flags_a_violation(psi0, amplitudes):
    rep = conformal.scattering_probe(_synthetic_run(psi0, amplitudes))
    assert rep.verdict == "violated"
    assert rep.psi_plus is None


def test_scattering_probe_sound_but_inconclusive(psi0):
    """Residuals that fall toward the finest pair but end between tol and
    10 tol on a sound run leave the limit uncertified."""
    rep = conformal.scattering_probe(_synthetic_run(psi0, (1.0, 1.008, 1.013)))
    assert rep.tol < rep.finest_residual < 10 * rep.tol
    assert rep.finest_residual == pytest.approx(5 * rep.tol, rel=1e-9)
    assert rep.verdict == "inconclusive"
    assert rep.psi_plus is None


def test_scattering_probe_consistent_on_a_synthetic_run(psi0):
    rep = conformal.scattering_probe(_synthetic_run(psi0, (1.0, 1.0, 1.0)))
    assert rep.verdict == "scattering_consistent"
    assert rep.finest_residual < 1e-12


@pytest.mark.parametrize("taus", [(0.9, 0.9, 0.99), (0.95, 0.9, 0.99)])
def test_scattering_probe_needs_increasing_taus(psi0, taus):
    with pytest.raises(ValueError, match="increasing tau"):
        conformal.scattering_probe(_synthetic_run(psi0, (1.0, 1.0, 1.0), taus))
