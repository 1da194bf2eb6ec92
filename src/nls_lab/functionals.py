"""Scalar functionals: generalized energy, Pohozaev, modified energy and
its correction term, the epsilon-split energy, and the standing-wave
multiplier algebra.

Every functional is a weighted recombination of one EnergyBreakdown
(raw integrals K, nq, np, M), so no two functionals can drift apart by
re-integration.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral

__all__ = [
    "ModelParams",
    "CoeffTriple",
    "EnergyBreakdown",
    "breakdown",
    "energy_coeffs",
    "pohozaev_terms",
    "modified_energy_terms",
    "correction_energy_terms",
    "split_energy_star_terms",
    "StandingWaveMultiplier",
    "standing_wave_multiplier",
    "gn_quotient",
]


@dataclass(frozen=True)
class ModelParams:
    """Dimension, nonlinearity exponents, and the admissible regime.

    variational: 1 < q < p < 1 + 4/d.
    scattering:  1 + 2/d < q < p < 1 + 4/d (short-range regime).
    """

    d: int
    q: float
    p: float
    regime: str = "variational"

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.regime not in ("variational", "scattering"):
            raise ValueError(f"unknown regime {self.regime!r}")
        lo = 1 + 2 / self.d if self.regime == "scattering" else 1.0
        hi = 1 + 4 / self.d
        if not (lo < self.q < self.p < hi):
            raise ValueError(
                f"{self.regime} regime needs {lo} < q < p < {hi}, got q={self.q}, p={self.p}"
            )

    @property
    def delta_q(self):
        return (4 - self.d * (self.q - 1)) / 2

    @property
    def delta_p(self):
        return (4 - self.d * (self.p - 1)) / 2


@dataclass(frozen=True)
class CoeffTriple:
    """Weights (alpha, beta, gamma) of kinetic, defocusing, focusing terms.

    beta == 0 is tolerated only for the internal pure-focusing scaling
    oracle; the threshold theory requires all three strictly positive.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0 and self.beta >= 0):
            raise ValueError(f"need alpha, gamma > 0 and beta >= 0, got {self}")

    @classmethod
    def pure_focusing(cls, alpha, gamma):
        return cls(alpha=alpha, beta=0.0, gamma=gamma)

    def scaled(self, c):
        return CoeffTriple(c * self.alpha, c * self.beta, c * self.gamma)


def energy_coeffs(params):
    """The physical energy weights (1/2, 1/(q+1), 1/(p+1))."""
    return CoeffTriple(0.5, 1.0 / (params.q + 1), 1.0 / (params.p + 1))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Raw integrals K = ||grad u||^2, nq = ||u||_{q+1}^{q+1},
    np = ||u||_{p+1}^{p+1}, M = ||u||_2^2, plus the weighted total."""

    kinetic: float
    nq: float
    np: float
    mass: float
    total: float

    def __post_init__(self):
        if min(self.kinetic, self.nq, self.np, self.mass) < 0:
            raise ValueError("raw integrals must be nonnegative")


def breakdown(field, params, coeffs=None):
    """Compute the raw integrals of a complex field once, K by one
    complex FFT (spectral.gradient_sq_norm); total uses coeffs (default:
    the physical energy weights).  An evolution record, which shares
    the Strang loop's |u|^2 with the truncation monitor and the phase
    rotation, builds its EnergyBreakdown itself (evolution._record).  The threshold
    engine does not call it: its flow, start rows and polish take every
    energy from real rows and their half-spectra (ground_state._Flow)."""
    if coeffs is None:
        coeffs = energy_coeffs(params)
    m, nq, npw = spectral.power_integrals(field, params.q, params.p)
    k = spectral.gradient_sq_norm(field)
    total = coeffs.alpha * k + coeffs.beta * nq - coeffs.gamma * npw
    return EnergyBreakdown(kinetic=k, nq=nq, np=npw, mass=m, total=total)


def pohozaev_terms(b, params, coeffs):
    """G = 2 alpha K + (d(q-1)/2) beta nq - (d(p-1)/2) gamma np."""
    d, q, p = params.d, params.q, params.p
    return (
        2 * coeffs.alpha * b.kinetic
        + (d * (q - 1) / 2) * coeffs.beta * b.nq
        - (d * (p - 1) / 2) * coeffs.gamma * b.np
    )


def _check_tau(tau):
    if not 0 <= tau < 1:
        raise ValueError(f"conformal time must lie in [0, 1), got {tau}")


def modified_energy_terms(tau, b, A, params):
    _check_tau(tau)
    dq, dp = params.delta_q, params.delta_p
    s = 1.0 - tau
    return (
        s**A / 2 * b.kinetic
        + s ** (A - dq) / (params.q + 1) * b.nq
        - s ** (A - dp) / (params.p + 1) * b.np
    )


def correction_energy_terms(tau, b, A, params):
    """R_A(tau, u) from a breakdown: the exact -d/dtau of E_A along the
    conformal flow."""
    _check_tau(tau)
    dq, dp = params.delta_q, params.delta_p
    s = 1.0 - tau
    return (
        A / 2 * s ** (A - 1) * b.kinetic
        + (A - dq) / (params.q + 1) * s ** (A - dq - 1) * b.nq
        - (A - dp) / (params.p + 1) * s ** (A - dp - 1) * b.np
    )


def split_energy_star_terms(tau, b, A, params, epsilon):
    """E_A^star from a breakdown: E_A minus epsilon times the
    all-positive-weights part, so that
    E_A = epsilon * (K-term + q-term + p-term) + E_A^star exactly."""
    _check_tau(tau)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    dq, dp = params.delta_q, params.delta_p
    s = 1.0 - tau
    return (
        (1 - epsilon) * s**A / 2 * b.kinetic
        + (1 - epsilon) * s ** (A - dq) / (params.q + 1) * b.nq
        - (1 + epsilon) * s ** (A - dp) / (params.p + 1) * b.np
    )


class StandingWaveMultiplier(NamedTuple):
    omega: float
    positive_if_E_nonpositive: bool


def standing_wave_multiplier(b, params):
    """Lagrange multiplier from the standing-wave linear system:
    -(2/d) K + 2 E + omega M = 0, so omega = (2K/d - 2E) / M."""
    if b.mass <= 0:
        raise ValueError("standing-wave multiplier needs M > 0")
    omega = (2 * b.kinetic / params.d - 2 * b.total) / b.mass
    return StandingWaveMultiplier(omega=omega, positive_if_E_nonpositive=b.total <= 0)


def gn_quotient(field, params):
    """Scale-invariant quotient
    ||u||_{p+1}^{p+1} / (||grad u||^{d(p-1)/2} ||u||_2^{p+1-d(p-1)/2})."""
    b = breakdown(field, params)
    if b.mass == 0 or b.kinetic == 0:
        raise ValueError("quotient needs a nonzero, nonconstant field")
    theta = params.d * (params.p - 1) / 2
    grad = np.sqrt(b.kinetic)
    l2 = np.sqrt(b.mass)
    return b.np / (grad**theta * l2 ** (params.p + 1 - theta))
