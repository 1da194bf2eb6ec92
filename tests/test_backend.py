"""The nonlinear rotation's window: backend.nonlinear_phase rotates only
the flat index range where the angle can move a bit of float64."""

from unittest import mock

import numpy as np
import pytest

from nls_lab import backend
from nls_lab.evolution import StrangStepper
from nls_lab.functionals import ModelParams
from nls_lab.grid import AnalyticProfile, Grid, eval_profile
from oracles import full_rotation

QM1, PM1 = 3.0, 3.5  # q = 4, p = 4.5


def window(a2, wq, wp):
    """(lo, hi) of the points whose a2 exceeds the least a2 at which a
    term |w| a2^(e/2) of the angle reaches 2^-55."""
    a2_min = min((2.0**-55 / abs(w)) ** (2.0 / e) for w, e in ((wq, QM1), (wp, PM1)) if w != 0)
    hot = np.flatnonzero(a2 > a2_min)
    return hot[0], hot[-1] + 1


def rotated(values, wq, wp, kernel=backend.nonlinear_phase):
    out = values.copy()
    kernel(out, np.abs(values) ** 2, QM1, PM1, wq, wp)
    return out


def bump_with_tail(x, centers=(0.0,)):
    """Unit Gaussian bumps with a chirp, on a tail that falls to 1e-30."""
    v = sum(np.exp(-((x - c) ** 2) / 8.0) for c in centers) * np.exp(0.3j * x)
    return v + 1e-30 * np.exp(1j * x)


@pytest.fixture
def x():
    return np.linspace(-128.0, 128.0, 4096, endpoint=False)


@pytest.mark.parametrize("wq, wp", [(1e-3, 1.1e-3), (-2e-3, -2e-3), (0.5, 0.7), (0.0, 1e-3)])
def test_window_matches_the_full_rotation(x, wq, wp):
    v = bump_with_tail(x)
    lo, hi = window(np.abs(v) ** 2, wq, wp)
    assert 0 < lo and hi < x.size and hi - lo < x.size // 4
    got, ref = rotated(v, wq, wp), rotated(v, wq, wp, full_rotation)
    assert np.array_equal(got[lo:hi].view(float), ref[lo:hi].view(float))
    outside = np.r_[0:lo, hi : x.size]
    assert np.array_equal(got[outside], v[outside])
    assert np.all(np.abs(got[outside] - ref[outside]) <= 2.0**-53 * np.abs(v[outside]))


@pytest.mark.parametrize("amplitude, wq, wp", [(1.0, 0.0, 0.0), (1e-12, 1e-3, 1.1e-3)])
def test_nothing_to_rotate_leaves_values_untouched(x, amplitude, wq, wp):
    v = amplitude * bump_with_tail(x)
    assert np.array_equal(rotated(v, wq, wp), v)


def test_far_bumps_are_both_rotated(x):
    v = bump_with_tail(x, centers=(-90.0, 90.0))
    lo, hi = window(np.abs(v) ** 2, 1e-3, 1.1e-3)
    got, ref = rotated(v, 1e-3, 1.1e-3), rotated(v, 1e-3, 1.1e-3, full_rotation)
    for c in (-90.0, 90.0):
        peak = np.argmin(np.abs(x - c))
        assert lo < peak < hi and got[peak] != v[peak]
    assert np.array_equal(got[lo:hi].view(float), ref[lo:hi].view(float))


def test_nan_sample_stays_nan(x):
    """A NaN fails the window test; left as it is, it keeps the field's
    |v|^2 sum non-finite for the loop's check."""
    v = bump_with_tail(x)
    v[10] = np.nan
    got = rotated(v, 1e-3, 1.1e-3)
    assert np.isnan(got[10]) and not np.isfinite(np.sum(np.abs(got) ** 2))


def test_d2_step_matches_the_full_rotation():
    """The window is a range of the flat index, so it holds a d=2 field's
    support: the rotation leaves the far rows as they are, and a step
    matches one with the rotation over the whole array."""
    grid = Grid(d=2, n=128, L=64.0)
    psi = eval_profile(grid, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0)).values
    stepper = StrangStepper(grid, ModelParams(d=2, q=2.5, p=2.9), "physical")
    turned = psi.copy()
    stepper.rotate(turned, np.abs(psi) ** 2, 0.0, 1e-2)
    assert np.array_equal(turned[[0, -1]], psi[[0, -1]]) and turned[60, 64] != psi[60, 64]
    got, ref = psi.copy(), psi.copy()
    stepper.step(got, 0.0, 1e-2)
    with mock.patch.object(backend, "nonlinear_phase", full_rotation):
        stepper.step(ref, 0.0, 1e-2)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_backward_step_undoes_forward_step():
    """A backward step's weights are negative; its window is the same, by
    |w|, so the step returns the start to rounding."""
    grid = Grid(d=1, n=4096, L=256.0)
    v = bump_with_tail(grid.axis)
    stepper = StrangStepper(grid, ModelParams(d=1, q=4.0, p=4.5, regime="scattering"), "conformal")
    values = v.copy()
    stepper.step(values, 0.5, 1e-3)
    assert not np.allclose(values, v, rtol=0, atol=1e-8)
    stepper.step(values, 0.501, -1e-3)
    assert np.max(np.abs(values - v)) < 1e-13
