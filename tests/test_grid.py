import struct

import numpy as np
import pytest

from nls_lab.grid import (
    AnalyticProfile,
    Field,
    Grid,
    ResolutionWarning,
    eval_profile,
    field_from_bytes,
    field_to_bytes,
)


def test_grid_geometry():
    g = Grid(d=1, n=16, L=8.0)
    assert g.h == 0.5
    assert g.cell_volume == 0.5
    assert g.axis[0] == -4.0
    assert g.axis[-1] == pytest.approx(4.0 - 0.5)
    assert g.wavenumbers[1] == pytest.approx(2 * np.pi / 8.0)
    assert g.shape == (16,)
    assert g.size == 16


def test_grid_2d_meshes():
    g = Grid(d=2, n=8, L=4.0)
    assert g.k_sq.shape == (8, 8)
    assert g.x_sq[0, 0] == pytest.approx(2 * 2.0**2)
    assert g.cell_volume == pytest.approx(0.25)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=4, n=16, L=8.0),
        dict(d=1, n=12, L=8.0),
        dict(d=1, n=4, L=8.0),
        dict(d=1, n=16, L=0.0),
    ],
)
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        Grid(**kwargs)


def test_field_rejects_shape_and_nan():
    g = Grid(d=1, n=16, L=8.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros(8))
    bad = np.zeros(16, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


def test_gaussian_profile_values():
    g = Grid(d=1, n=64, L=16.0)
    prof = AnalyticProfile(kind="gaussian", amplitude=2.0, width=1.0)
    f = eval_profile(g, prof)
    i0 = np.argmin(np.abs(g.axis))
    assert f.values[i0] == pytest.approx(2.0)
    x = g.axis[i0 + 4]
    assert f.values[i0 + 4] == pytest.approx(2.0 * np.exp(-(x**2) / 2))


def test_sech_profile_and_chirp():
    g = Grid(d=1, n=64, L=16.0)
    prof = AnalyticProfile(kind="sech", amplitude=1.0, width=1.0, chirp=0.3)
    f = eval_profile(g, prof)
    i = np.argmin(np.abs(g.axis - 1.0))
    x = g.axis[i]
    expect = np.exp(1j * 0.3 * x**2) / np.cosh(x)
    assert f.values[i] == pytest.approx(expect)


def test_profile_center_offset():
    g = Grid(d=1, n=64, L=16.0)
    prof = AnalyticProfile(kind="gaussian", amplitude=1.0, width=1.0, center=(1.5,))
    f = eval_profile(g, prof)
    i = np.argmax(np.abs(f.values))
    assert g.axis[i] == pytest.approx(1.5)


def test_resolution_warning_fires():
    g = Grid(d=1, n=64, L=16.0)
    with pytest.warns(ResolutionWarning):
        eval_profile(g, AnalyticProfile(kind="gaussian", amplitude=1.0, width=0.1))
    with pytest.warns(ResolutionWarning):
        eval_profile(g, AnalyticProfile(kind="gaussian", amplitude=1.0, width=8.0))


def test_profile_validation():
    with pytest.raises(ValueError):
        AnalyticProfile(kind="box")
    with pytest.raises(ValueError):
        AnalyticProfile(kind="gaussian", amplitude=-1.0)
    with pytest.raises(ValueError):
        AnalyticProfile(kind="ground-state-snapshot")


def test_binary_roundtrip_and_header_layout():
    g = Grid(d=1, n=32, L=8.0)
    rng = np.random.default_rng(0)
    f = Field(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    blob = field_to_bytes(f)
    d, n, L = struct.unpack_from("<qqd", blob)
    assert (d, n, L) == (1, 32, 8.0)
    assert len(blob) == 24 + 2 * 8 * 32
    back = field_from_bytes(blob)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    # interleaving: first payload float64 pair is re/im of the first sample
    re0, im0 = struct.unpack_from("<dd", blob, 24)
    assert re0 == f.values[0].real and im0 == f.values[0].imag


def test_binary_bytes_are_header_then_interleaved_float64():
    """The payload is the samples in C order, each as a little-endian
    float64 re/im pair; the field read back is writable."""
    g = Grid(d=2, n=8, L=6.0)
    rng = np.random.default_rng(1)
    f = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    pairs = [x for v in f.values.ravel().tolist() for x in (v.real, v.imag)]
    assert field_to_bytes(f) == struct.pack("<qqd", 2, 8, 6.0) + struct.pack(f"<{len(pairs)}d", *pairs)
    back = field_from_bytes(field_to_bytes(f))
    assert np.array_equal(back.values, f.values)
    back.values[0, 0] = 0.0


def test_binary_payload_mismatch():
    g = Grid(d=1, n=32, L=8.0)
    blob = field_to_bytes(Field(g, np.ones(32, dtype=complex)))
    with pytest.raises(ValueError):
        field_from_bytes(blob[:-8])


def test_cached_masks_match_their_definitions():
    """The core-box and half-Nyquist masks are built once per grid and
    select the points truncation_fraction and spectral_tail_fraction
    count as inside."""
    g = Grid(d=2, n=16, L=8.0)
    x, y = np.meshgrid(g.axis, g.axis, indexing="ij")
    kx, ky = np.meshgrid(g.wavenumbers, g.wavenumbers, indexing="ij")
    half = np.pi * g.n / (2 * g.L)
    assert np.array_equal(g.core_mask, (np.abs(x) <= 2.0) & (np.abs(y) <= 2.0))
    assert np.array_equal(g.half_nyquist_mask, (np.abs(kx) <= half) & (np.abs(ky) <= half))
    assert g.core_mask is g.core_mask
    assert g.half_nyquist_mask is g.half_nyquist_mask
