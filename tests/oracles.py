"""Independent oracles used by the test suite only.

Nothing here imports the package's numerics beyond plain data types, so
agreement between these values and the library is genuine evidence, not
a tautology.
"""

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq


def free_gaussian(t, x, width):
    """Closed-form free evolution of exp(-x^2 / (2 w^2)) under e^{i t Lap}."""
    w2 = width**2
    return width * (w2 + 2j * t) ** (-0.5) * np.exp(-(x**2) / (2 * (w2 + 2j * t)))


def full_rotation(values, a2, qm1, pm1, wq, wp):
    """backend.nonlinear_phase over the whole array, with no window: the
    reference its window must match."""
    angle = wp * a2 ** (0.5 * pm1) - wq * a2 ** (0.5 * qm1)
    factor = np.empty(values.shape, complex)
    np.cos(angle, out=factor.real)
    np.sin(angle, out=factor.imag)
    values *= factor


def _soliton_integrals(a, q, p, alpha, beta, gamma):
    """(mass^2, energy) of the 1D soliton with peak amplitude a, by
    quadrature on the first integral of the standing-wave ODE,
    alpha u'^2 = V(u) = omega u^2 / 2 + beta u^(q+1) - gamma u^(p+1), with
    omega chosen so that V(a) = 0.

    The substitution u = a - t^2 takes out the inverse-sqrt singularity
    of dx = sqrt(alpha / V) du at the peak.  V = t^2 u^2 c(t) with
    c = (gamma a^(p-1) g(p-1) - beta a^(q-1) g(q-1)) / a and
    g(s) = (1 - (u/a)^s) / (t^2 / a), which tends to s at t = 0 and is
    formed without cancellation.  So dx = 2 sqrt(alpha) dt / (u sqrt(c)),
    both integrands are smooth on [0, sqrt(a)], and quad meets a relative
    tolerance of 1e-12 (the energy near zero: its rounding floor)."""

    def parts(t):
        x = t * t / a
        u = a - t * t

        def g(s):
            return -np.expm1(s * np.log1p(-x)) / x

        return u, (gamma * a ** (p - 1) * g(p - 1) - beta * a ** (q - 1) * g(q - 1)) / a

    def mass_den(t):
        u, c = parts(t)
        return u / np.sqrt(c)

    def energy_den(t):
        # alpha u'^2 = V, so the energy density is V + beta u^(q+1) - gamma u^(p+1).
        u, c = parts(t)
        return (t * t * u * c + beta * u**q - gamma * u**p) / np.sqrt(c)

    scale = 4 * np.sqrt(alpha)
    m2 = scale * quad(mass_den, 0, np.sqrt(a), epsabs=0, epsrel=1e-12, limit=200)[0]
    with warnings.catch_warnings():
        # Near its zero crossing the energy is a difference of terms far
        # larger than itself: quad stops at their rounding floor and says so.
        warnings.simplefilter("ignore", IntegrationWarning)
        en = scale * quad(energy_den, 0, np.sqrt(a), epsabs=0, epsrel=1e-12, limit=200)[0]
    return m2, en


def continuum_threshold(q, p, alpha, beta, gamma, a_hi_factor=50.0):
    """Continuum threshold mass rho_0: the soliton-branch amplitude where
    the energy crosses zero, evaluated by quadrature.  Valid for d = 1."""
    a_min = (beta / gamma) ** (1.0 / (p - q))

    def energy_of(a):
        return _soliton_integrals(a, q, p, alpha, beta, gamma)[1]

    lo = a_min * 1.01
    hi = a_min * a_hi_factor
    while energy_of(hi) > 0:
        hi *= 2
        if hi > a_min * 1e6:
            raise RuntimeError("no energy zero crossing found on the soliton branch")
    a_star = brentq(energy_of, lo, hi, xtol=1e-12)
    m2, _ = _soliton_integrals(a_star, q, p, alpha, beta, gamma)
    return np.sqrt(m2)
