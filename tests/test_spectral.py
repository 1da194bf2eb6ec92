import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nls_lab import backend, spectral
from nls_lab.ground_state import _rms_width
from nls_lab.grid import AnalyticProfile, Grid, eval_profile


@pytest.fixture
def gauss(grid512):
    return eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.0))


def test_gaussian_moment_oracles(gauss):
    # int exp(-x^2) = sqrt(pi); int x^2 exp(-x^2) = sqrt(pi)/2;
    # int (x exp(-x^2/2))^2 = sqrt(pi)/2.
    assert spectral.mass(gauss) == pytest.approx(np.sqrt(np.pi), rel=1e-12)
    assert spectral.weighted_l2(gauss) ** 2 == pytest.approx(np.sqrt(np.pi) / 2, rel=1e-12)
    assert spectral.gradient_sq_norm(gauss) == pytest.approx(np.sqrt(np.pi) / 2, rel=1e-10)


def test_lp_norm_oracle(gauss):
    # int exp(-r x^2 / 2) = sqrt(2 pi / r)
    for r in (2.0, 3.0, 4.0):
        expect = (2 * np.pi / r) ** (1 / (2 * r))
        assert spectral.lp_norm(gauss, r) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        spectral.lp_norm(gauss, 0.5)


def test_power_integrals_match_lp(gauss):
    m, nq, npw = spectral.power_integrals(gauss, 4.0, 4.5)
    assert m == pytest.approx(spectral.mass(gauss), rel=1e-13)
    assert nq == pytest.approx(spectral.lp_norm(gauss, 5.0) ** 5, rel=1e-13)
    assert npw == pytest.approx(spectral.lp_norm(gauss, 5.5) ** 5.5, rel=1e-13)


def test_row_kernels_match_rows_one_at_a_time(grid512):
    """flow_kick and power_sums on a real (rows, size) array with per-row
    weights give each row exactly what a call on that row alone gives."""
    rows = np.stack([
        eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=a, width=w)).values.real
        for a, w in ((1.0, 1.0), (0.7, 2.5), (1.9, 4.0))
    ])
    pq, pp = np.abs(rows) ** 3.0, np.abs(rows) ** 3.5
    aq = np.array([0.01, 0.2, 0.05])
    ap = np.array([0.03, 0.1, 0.3])
    kicked = backend.flow_kick(rows, aq[:, None], ap[:, None], pq, pp)
    sums = backend.power_sums(kicked, 5.0, 5.5)
    for i in range(len(rows)):
        alone = backend.flow_kick(rows[i], aq[i], ap[i], pq[i], pp[i])
        assert np.array_equal(kicked[i], alone)
        assert [float(s[i]) for s in sums] == [float(s) for s in backend.power_sums(alone, 5.0, 5.5)]


def test_sobolev_norm_endpoints(gauss):
    assert spectral.sobolev_norm(gauss, 0.0) == pytest.approx(
        spectral.l2_norm(gauss), rel=1e-12
    )
    # || (1 + k^2)^{1/2} u_hat ||^2 = ||u||^2 + ||grad u||^2
    h1 = spectral.sobolev_norm(gauss, 1.0) ** 2
    assert h1 == pytest.approx(
        spectral.mass(gauss) + spectral.gradient_sq_norm(gauss), rel=1e-12
    )
    with pytest.raises(ValueError):
        spectral.sobolev_norm(gauss, 5.0)


def test_momentum_of_modulated_profile(grid512, gauss):
    k0 = grid512.wavenumbers[12]
    mod = gauss.with_values(gauss.values * np.exp(1j * k0 * grid512.axis))
    p = spectral.momentum(mod)
    assert p[0] == pytest.approx(k0 * spectral.mass(mod), rel=1e-12)
    assert spectral.momentum(gauss)[0] == pytest.approx(0.0, abs=1e-13)


def test_normalize_and_rms_width(grid512):
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=0.3, width=2.0))
    g = spectral.normalize(f, 1.7)
    assert spectral.l2_norm(g) == pytest.approx(1.7, rel=1e-13)
    # rms width of exp(-x^2 / 2w^2) is w / sqrt(2)
    a2 = np.abs(g.values.reshape(1, -1)) ** 2
    assert _rms_width(a2, grid512)[0] == pytest.approx(2.0 / np.sqrt(2), rel=1e-10)
    with pytest.raises(ValueError):
        spectral.normalize(f.with_values(np.zeros_like(f.values)), 1.0)


def test_truncation_fraction(grid512):
    centered = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    assert spectral.truncation_fraction(centered) < 1e-15
    shifted = eval_profile(
        grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0, center=(20.0,))
    )
    assert spectral.truncation_fraction(shifted) > 0.9


def test_spectral_gradient_oracle(grid512):
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    g = spectral.spectral_gradient(f, 0)
    expect = -grid512.axis / 4.0 * f.values
    assert np.max(np.abs(g - expect)) < 1e-12


def test_eval_at_scale_matches_dilated_gaussian(grid512):
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    for s in (0.5, 1.3):
        out = spectral.eval_at_scale(f, s)
        inside = np.abs(s * grid512.axis) <= grid512.L / 2
        expect = np.exp(-((s * grid512.axis) ** 2) / 8.0) * inside
        assert np.max(np.abs(out.values - expect)) < 1e-10


def test_eval_at_scale_matches_dilated_gaussian_in_2d():
    """The interpolant is contracted axis by axis: in d=2 it matches the
    dilated Gaussian on the whole grid, and zero where a point leaves the
    box on either axis."""
    grid = Grid(d=2, n=64, L=32.0)
    f = eval_profile(grid, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    for s in (0.5, 1.3):
        out = spectral.eval_at_scale(f, s)
        x = s * grid.axis
        inside = np.abs(x) <= grid.L / 2
        expect = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 8.0) * np.multiply.outer(inside, inside)
        assert np.max(np.abs(out.values - expect)) < 1e-10


def test_eval_at_scale_roundtrip(grid512):
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=3.0))
    s = 0.8
    back = spectral.eval_at_scale(spectral.eval_at_scale(f, s), 1.0 / s)
    assert np.max(np.abs(back.values - f.values)) < 1e-9


def test_eval_at_scale_aliasing_guard():
    g = Grid(d=1, n=64, L=16.0)
    narrow = eval_profile(g, AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.0))
    with pytest.raises(spectral.AliasingError):
        spectral.eval_at_scale(narrow, 40.0)
    with pytest.raises(ValueError):
        spectral.eval_at_scale(narrow, -1.0)


def test_eval_at_scale_transforms_once(grid512, monkeypatch):
    """A dilation past scale 1 takes one fftn: the aliasing guard reads
    its bandwidth off the spectrum the interpolant is built from."""
    f = eval_profile(grid512, AnalyticProfile(kind="gaussian", amplitude=1.0, width=2.0))
    calls = []
    fftn = np.fft.fftn

    def counted(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    spectral.eval_at_scale(f, 1.3)
    assert len(calls) == 1


@settings(max_examples=30, deadline=None)
@given(
    amp=st.floats(0.1, 3.0),
    width=st.floats(1.0, 4.0),
    rho=st.floats(0.1, 5.0),
)
def test_normalize_property(amp, width, rho):
    g = Grid(d=1, n=128, L=32.0)
    f = eval_profile(g, AnalyticProfile(kind="gaussian", amplitude=amp, width=width))
    out = spectral.normalize(f, rho)
    assert spectral.l2_norm(out) == pytest.approx(rho, rel=1e-12)
