"""Pseudo-conformal change of variables, the J operator, the four norm
identities, free back-propagation, and the L2-scattering detector.

The transform compresses t in [0, inf) to tau = t/(1+t) in [0, 1):

    phi(tau, xi) = (1+t)^{d/2} psi(t, (1+t) xi) exp(-i (1+t) |xi|^2 / 4).

At t = 0 this is the pure chirp phi_0 = exp(-i |x|^2 / 4) psi_0.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .grid import Field

__all__ = [
    "time_map",
    "inverse_time_map",
    "to_conformal",
    "from_conformal",
    "chirp",
    "j_norm",
    "NormIdentityReport",
    "verify_norm_identities",
    "free_propagate",
    "ScatterReport",
    "scattering_probe",
]


def time_map(t):
    if t < 0:
        raise ValueError("physical time must be nonnegative")
    return t / (1.0 + t)


def inverse_time_map(tau):
    if not 0 <= tau < 1:
        raise ValueError(f"conformal time must lie in [0, 1), got {tau}")
    return tau / (1.0 - tau)


def chirp(field, coefficient):
    """Multiply by exp(i * coefficient * |x|^2)."""
    return field.with_values(field.values * np.exp(1j * coefficient * field.grid.x_sq))


def to_conformal(psi, t):
    """(psi, t) -> (phi, tau).  The spatial dilation uses spectrally exact
    trig interpolation; points landing outside the box are zeroed (the
    truncation monitor guarantees they are negligible)."""
    s = 1.0 + t
    tau = time_map(t)
    resampled = spectral.eval_at_scale(psi, s)
    phi = resampled.with_values(
        s ** (psi.grid.d / 2) * resampled.values * np.exp(-0.25j * s * psi.grid.x_sq)
    )
    return phi, tau


def from_conformal(phi, tau):
    """(phi, tau) -> (psi, t); inverse of to_conformal."""
    t = inverse_time_map(tau)
    s = 1.0 + t
    resampled = spectral.eval_at_scale(phi, 1.0 / s)
    psi = resampled.with_values(
        s ** (-phi.grid.d / 2) * resampled.values * np.exp(0.25j * phi.grid.x_sq / s)
    )
    return psi, t


def j_norm(psi, t):
    """|| J(1+t) psi ||_2 with J(1+t) = x/2 + i (1+t) grad, summed over
    the d vector components."""
    g = psi.grid
    total = 0.0
    for axis in range(g.d):
        x = g.x_mesh[axis]
        comp = 0.5 * x * psi.values + 1j * (1.0 + t) * spectral.spectral_gradient(psi, axis)
        total += float((comp.real**2 + comp.imag**2).sum()) * g.cell_volume
    return np.sqrt(total)


@dataclass
class NormIdentityReport:
    """Relative residuals of the four transform identities."""

    l2: float
    lr: float
    variance: float
    gradient: float

    def max_residual(self):
        return max(self.l2, self.lr, self.variance, self.gradient)


def verify_norm_identities(psi, t):
    """Check, for phi = to_conformal(psi, t), at relative precision and
    with r = 4:
      ||phi||_2 = ||psi||_2
      ||phi||_r^r = (1+t)^{-d + dr/2} ||psi||_r^r
      || |xi| phi ||_2 = (1+t)^{-1} || |x| psi ||_2
      ||grad phi||_2 = ||J(1+t) psi||_2
    """
    phi, _ = to_conformal(psi, t)
    r = 4.0
    s = 1.0 + t
    d = psi.grid.d

    l2_phi = spectral.l2_norm(phi)
    l2_psi = spectral.l2_norm(psi)
    res_l2 = abs(l2_phi - l2_psi) / l2_psi

    lr_phi = spectral.lp_norm(phi, r) ** r
    lr_psi = spectral.lp_norm(psi, r) ** r
    res_lr = abs(lr_phi - s ** (-d + d * r / 2) * lr_psi) / lr_phi

    var_phi = spectral.weighted_l2(phi)
    var_psi = spectral.weighted_l2(psi)
    res_var = abs(var_phi - var_psi / s) / var_phi

    grad_phi = np.sqrt(spectral.gradient_sq_norm(phi))
    jn = j_norm(psi, t)
    res_grad = abs(grad_phi - jn) / jn

    return NormIdentityReport(l2=res_l2, lr=res_lr, variance=res_var, gradient=res_grad)


def free_propagate(field, t):
    """U(t) = e^{i t Lap}, the multiplier exp(-i |k|^2 t) applied in
    Fourier space; any sign of t (U(-tau) back-propagates)."""
    hat = np.fft.fftn(field.values)
    hat *= np.exp(-1j * field.grid.k_sq * t)
    return field.with_values(np.fft.ifftn(hat))


@dataclass
class ScatterReport:
    """Cauchy diagnostics of U(-tau) phi(tau) along a conformal run.

    verdict: 'scattering_consistent' when consecutive residuals decrease
    toward the finest pair and the finest one is below tol, 1e-3 times
    the initial ||phi||_2; 'violated' when the finest residual is large
    or residuals grow; otherwise 'inconclusive' (numerics cannot certify
    the limit).
    """

    taus: np.ndarray
    residuals: np.ndarray
    finest_residual: float
    tol: float
    verdict: str
    psi_plus: Field | None


def scattering_probe(run):
    """ScatterReport of run, an evolution.MonitorRun: its snapshots, the
    mass of its first record and its soundness."""
    snaps = run.snapshots
    if len(snaps) < 2:
        raise ValueError("scattering probe needs at least two snapshots")
    taus = np.array([t for t, _ in snaps])
    if not np.all(np.diff(taus) > 0):
        raise ValueError("snapshots must be at increasing tau")

    tol = 1e-3 * np.sqrt(run.mass)

    back = [free_propagate(f, -t) for t, f in snaps]
    m = len(back)
    residuals = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            diff = back[i].values - back[j].values
            r = np.sqrt(float((diff.real**2 + diff.imag**2).sum()) * back[i].grid.cell_volume)
            residuals[i, j] = residuals[j, i] = r

    # Residual of each probe against the finest one; the probe spacing is
    # non-uniform, so consecutive pairs are not the right Cauchy sequence.
    to_finest = residuals[: m - 1, m - 1]
    finest = float(to_finest[-1])
    decreasing = bool(np.all(np.diff(to_finest) <= 1e-12))

    if not run.sound:
        verdict = "inconclusive"
    elif decreasing and finest < tol:
        verdict = "scattering_consistent"
    elif finest > 10 * tol or (to_finest.size > 1 and to_finest[-1] > to_finest[0]):
        verdict = "violated"
    else:
        verdict = "inconclusive"

    psi_plus = chirp(back[-1], 0.25) if verdict == "scattering_consistent" else None
    return ScatterReport(
        taus=taus,
        residuals=residuals,
        finest_residual=finest,
        tol=tol,
        verdict=verdict,
        psi_plus=psi_plus,
    )
