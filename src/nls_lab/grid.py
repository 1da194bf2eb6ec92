"""Periodic-box discretization, complex fields, and analytic seed profiles."""

import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "AnalyticProfile",
    "ResolutionWarning",
    "eval_envelope",
    "eval_profile",
    "field_to_bytes",
    "field_from_bytes",
]


class ResolutionWarning(UserWarning):
    """Profile width is poorly resolved or poorly contained by the grid."""


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box [-L/2, L/2)^d with n points per axis.

    Coordinates are x_j = -L/2 + j*L/n; wavenumbers have spacing 2*pi/L.
    """

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not self.L > 0:
            raise ValueError(f"box length must be positive, got {self.L}")

    @property
    def h(self):
        return self.L / self.n

    @property
    def cell_volume(self):
        return self.h**self.d

    @property
    def shape(self):
        return (self.n,) * self.d

    @property
    def size(self):
        return self.n**self.d

    @cached_property
    def axis(self):
        """1D coordinate array, shared by all axes."""
        return -self.L / 2 + np.arange(self.n) * self.h

    @cached_property
    def wavenumbers(self):
        """1D wavenumber array in fft ordering."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def x_mesh(self):
        """List of d broadcastable coordinate arrays."""
        return list(np.meshgrid(*([self.axis] * self.d), indexing="ij", sparse=True))

    @cached_property
    def k_mesh(self):
        return list(np.meshgrid(*([self.wavenumbers] * self.d), indexing="ij", sparse=True))

    @cached_property
    def k_sq(self):
        out = np.zeros(self.shape)
        for k in self.k_mesh:
            out = out + k**2
        return out

    @cached_property
    def x_sq(self):
        """|x|^2 on the grid, box-centered."""
        out = np.zeros(self.shape)
        for x in self.x_mesh:
            out = out + x**2
        return out

    @cached_property
    def core_mask(self):
        """True inside the core box [-L/4, L/4]^d."""
        inside = np.ones(self.shape, dtype=bool)
        for x in self.x_mesh:
            inside = inside & (np.abs(x) <= self.L / 4)
        return inside

    @cached_property
    def outside_mask(self):
        """~core_mask: True outside the core box."""
        return ~self.core_mask

    @cached_property
    def half_nyquist_mask(self):
        """True where every wavenumber component is at most half the
        Nyquist wavenumber, pi n / (2 L)."""
        inside = np.ones(self.shape, dtype=bool)
        for k in self.k_mesh:
            inside = inside & (np.abs(k) <= np.pi * self.n / (2 * self.L))
        return inside


@dataclass
class Field:
    """Complex state on a Grid. Treated as immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("field contains NaN or Inf")
        self.values = values

    def with_values(self, values):
        return Field(self.grid, values)


@dataclass(frozen=True)
class AnalyticProfile:
    """Closed-form seed profile: amplitude * envelope(r) * exp(i c r^2).

    kind is 'gaussian' (envelope exp(-r^2 / 2 w^2)) or 'sech' (envelope
    sech(r / w)).  r is the distance from the center offset.
    """

    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    chirp: float = 0.0
    center: tuple = (0.0,)

    def __post_init__(self):
        if self.kind not in ("gaussian", "sech"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if not self.width > 0:
            raise ValueError("width must be positive")
        if np.isscalar(self.center):
            object.__setattr__(self, "center", (float(self.center),))


def eval_envelope(grid, profile):
    """The real envelope amplitude * envelope(r) of a closed-form profile
    sampled on a grid, and r^2 there: eval_profile's samples without the
    chirp factor and without its resolution check."""
    center = profile.center
    if len(center) == 1 and grid.d > 1:
        center = center * grid.d
    if len(center) != grid.d:
        raise ValueError(f"center offset has {len(center)} components, grid is {grid.d}D")

    r_sq = np.zeros(grid.shape)
    for x, c in zip(grid.x_mesh, center):
        r_sq = r_sq + (x - c) ** 2
    if profile.kind == "gaussian":
        env = profile.amplitude * np.exp(-r_sq / (2 * profile.width**2))
    else:
        env = profile.amplitude / np.cosh(np.sqrt(r_sq) / profile.width)
    return env, r_sq


def eval_profile(grid, profile):
    """Sample a closed-form profile on a grid: its envelope (eval_envelope)
    times the chirp factor exp(i c r^2).

    Emits a ResolutionWarning when the width is under-resolved (w < 4h)
    or poorly contained (w > L/8); the field is still returned.
    """
    w = profile.width
    if w < 4 * grid.h or w > grid.L / 8:
        warnings.warn(
            f"profile width {w} vs grid h={grid.h}, L={grid.L}: want 4h <= w <= L/8",
            ResolutionWarning,
            stacklevel=2,
        )
    env, r_sq = eval_envelope(grid, profile)
    vals = env.astype(np.complex128)
    if profile.chirp != 0.0:
        vals = vals * np.exp(1j * profile.chirp * r_sq)
    return Field(grid, vals)


# ------------------------------------------------------------ snapshots
#
# Binary layout: header of three little-endian 64-bit values (d, n as
# signed integers; L as a float), then interleaved re/im float64 pairs.

_HEADER = struct.Struct("<qqd")


def field_to_bytes(field):
    g = field.grid
    return _HEADER.pack(g.d, g.n, g.L) + field.values.astype("<c16").tobytes()


def field_from_bytes(data):
    d, n, L = _HEADER.unpack_from(data)
    grid = Grid(d=d, n=n, L=L)
    if len(data) - _HEADER.size != 16 * grid.size:
        raise ValueError("payload size does not match header")
    vals = np.frombuffer(data, dtype="<c16", offset=_HEADER.size).astype(complex).reshape(grid.shape)
    return Field(grid, vals)
