"""Fourier-multiplier calculus and the norms used throughout.

All integrals are rectangle-rule sums h^d * sum(...), which is spectrally
accurate for smooth periodic data.  Norm conventions:

    lp_norm(u, r)      = (sum |u|^r h^d)^(1/r)
    gradient_sq_norm   = ||grad u||_2^2 via the |k|^2 multiplier
    parseval_sums      = h^d/N sum w |u_hat|^2 for Fourier weights w, from
                         a spectrum the caller already holds
    sobolev_norm(u, s) = ||(1 + |k|^2)^(s/2) u_hat||_2 (discrete Plancherel)
    weighted_l2        = || |x| u ||_2 with box-centered coordinates
    momentum           = Im int conj(u) grad u dx, one component per axis
"""

import numpy as np

from . import backend

__all__ = [
    "MOMENTUM_CONVENTION",
    "RESOLVED_FRACTION",
    "lp_norm",
    "mass",
    "l2_norm",
    "gradient_sq_norm",
    "parseval_sums",
    "weighted_l2",
    "sobolev_norm",
    "momentum",
    "power_integrals",
    "normalize",
    "truncation_fraction",
    "outside_fraction",
    "spectral_tail_fraction",
    "spectral_gradient",
    "eval_at_scale",
    "AliasingError",
]

# Conjugate placement: P = Im int conj(psi) grad psi dx.  A modulated
# profile g(x) e^{i k0 x} then carries momentum +k0 * mass.  Recorded in
# output metadata so the opposite convention is recoverable by a sign flip.
MOMENTUM_CONVENTION = "Im<conj(psi), grad psi>"


class AliasingError(ValueError):
    """Dilation would push spectral content past the grid Nyquist limit."""


def lp_norm(field, r):
    if r < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {r}")
    s = float((np.abs(field.values.ravel()) ** float(r)).sum())
    return (s * field.grid.cell_volume) ** (1.0 / r)


def mass(field):
    """||u||_2^2."""
    a2 = field.values.real**2 + field.values.imag**2
    return float(a2.sum()) * field.grid.cell_volume


def l2_norm(field):
    return np.sqrt(mass(field))


def power_integrals(field, q, p):
    """(||u||_2^2, ||u||_{q+1}^{q+1}, ||u||_{p+1}^{p+1}) in one pass."""
    s2, sq, sp = backend.power_sums(field.values.ravel(), q + 1.0, p + 1.0)
    vol = field.grid.cell_volume
    return float(s2) * vol, float(sq) * vol, float(sp) * vol


def parseval_sums(hat, grid, weights):
    """[h^d/N * sum(w |hat|^2) for w in weights]: by Parseval, the
    integrals int conj(u) w(-i grad) u dx of the field u whose fftn is
    hat, all from one |hat|^2 and no transform."""
    a2 = hat.real**2 + hat.imag**2
    return [float((w * a2).sum()) * grid.cell_volume / grid.size for w in weights]


def gradient_sq_norm(field):
    g = field.grid
    return parseval_sums(np.fft.fftn(field.values), g, (g.k_sq,))[0]


def sobolev_norm(field, s):
    if not -4 <= s <= 4:
        raise ValueError(f"Sobolev order restricted to [-4, 4], got {s}")
    g = field.grid
    w = (1.0 + g.k_sq) ** s
    return np.sqrt(parseval_sums(np.fft.fftn(field.values), g, (w,))[0])


def weighted_l2(field):
    g = field.grid
    a2 = field.values.real**2 + field.values.imag**2
    return np.sqrt(float((g.x_sq * a2).sum()) * g.cell_volume)


def momentum(field):
    g = field.grid
    return np.array(parseval_sums(np.fft.fftn(field.values), g, g.k_mesh))


def normalize(field, rho):
    """Rescale amplitude so that ||u||_2 = rho."""
    cur = l2_norm(field)
    if cur == 0:
        raise ValueError("cannot normalize the zero field")
    return field.with_values(field.values * (rho / cur))


# A state counts as resolved while its truncation fraction (mass outside
# the core box) and, where it is checked, its spectral tail fraction stay
# below this bound.
RESOLVED_FRACTION = 1e-6


def truncation_fraction(field):
    """Mass fraction outside the core box [-L/4, L/4]^d."""
    return outside_fraction(field.values.real**2 + field.values.imag**2, field.grid)


def outside_fraction(a2, grid, total=None):
    """truncation_fraction of the field whose |u|^2 is a2, a grid-shaped
    array; total, if given, is the sum of a2."""
    if total is None:
        total = float(a2.sum())
    if total == 0:
        return 0.0
    return float(a2[grid.outside_mask].sum()) / total


def spectral_tail_fraction(field):
    """Spectral mass fraction beyond half the Nyquist wavenumber on any
    axis: the Fourier-side twin of truncation_fraction."""
    hat = np.fft.fftn(field.values)
    a2 = hat.real**2 + hat.imag**2
    total = float(a2.sum())
    if total == 0:
        return 0.0
    return float(a2[~field.grid.half_nyquist_mask].sum()) / total


def spectral_gradient(field, axis):
    g = field.grid
    hat = np.fft.fftn(field.values)
    hat *= 1j * g.k_mesh[axis]
    return np.fft.ifftn(hat)


def _bandwidth(hat, g):
    """Smallest |k| radius containing all but a 1e-12 fraction of the
    spectral mass of the field whose fftn on grid g is hat."""
    a2 = (hat.real**2 + hat.imag**2).ravel()
    k = np.sqrt(g.k_sq).ravel()
    order = np.argsort(k)
    cum = np.cumsum(a2[order])
    total = cum[-1]
    if total == 0:
        return 0.0
    idx = np.searchsorted(cum, (1.0 - 1e-12) * total)
    idx = min(idx, k.size - 1)
    return float(k[order][idx])


def eval_at_scale(field, scale):
    """Evaluate the trig interpolant of u at the points scale * x_grid.

    Points that fall outside the box map to zero (the truncation monitor
    guarantees the field is negligible there).  For scale > 1 the result
    carries frequency content scale times higher than the input; an
    aliasing guard rejects scales that would push it past Nyquist.
    """
    g = field.grid
    if scale <= 0:
        raise ValueError("scale must be positive")
    spectrum = np.fft.fftn(field.values)
    if scale > 1:
        k_need = _bandwidth(spectrum, g) * scale
        k_max = np.pi * g.n / g.L
        if k_need > k_max:
            raise AliasingError(
                f"dilation factor {scale} needs bandwidth {k_need:.3g} > Nyquist {k_max:.3g}"
            )
    hat = spectrum / g.size
    pts = scale * g.axis
    # Separable non-uniform evaluation: same scaled axis on every dimension.
    # The +L/2 shift aligns the fft phase origin with the box-centered axis.
    m = np.exp(1j * np.outer(pts + g.L / 2, g.wavenumbers))
    out = hat
    for _ in range(g.d):
        # Contract the leading wavenumber axis and rotate it to the back.
        out = np.tensordot(m, out, axes=([1], [0]))
        out = np.moveaxis(out, 0, -1)
    mask1 = np.abs(pts) <= g.L / 2
    keep = mask1
    for _ in range(g.d - 1):
        keep = np.multiply.outer(keep, mask1)
    return field.with_values(out * keep)
