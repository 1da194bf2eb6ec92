"""Pointwise numpy kernels for the hot inner loops: the nonlinear phase
rotation of the Strang step, the gradient-flow kick, and the power sums
behind the energy integrals.  The power sums work on the last axis of a
complex array, so one call serves one flattened field or a (rows, size)
batch of them.  The kick works on the flow's real (rows, size) state,
with the powers |v|^{q-1} and |v|^{p-1} the flow carries from its
accepted state, so it takes no pow of its own.

FFTs are not handled here; they stay with numpy.fft.
"""

import numpy as np

__all__ = ["backend_name", "nonlinear_phase", "flow_kick", "power_sums"]


def backend_name():
    """Name of the kernel implementation; there is one, 'numpy'."""
    return "numpy"


def nonlinear_phase(values, qm1, pm1, wq, wp):
    """In place: v *= exp(-i (wq |v|^qm1 - wp |v|^pm1)). Expects a 1D view."""
    a = np.abs(values)
    values *= np.exp(-1j * (wq * a**qm1 - wp * a**pm1))


def flow_kick(values, aq, ap, pq, pp):
    """v * (1 - aq pq + ap pp), as a new array.

    values is a real array, one field per row along its last axis; pq
    and pp are |v|^{q-1} and |v|^{p-1}, precomputed, of the same shape;
    aq and ap are scalars or arrays that broadcast against it, such as
    one (rows, 1) column of per-row weights.
    """
    return values * (1.0 - aq * pq + ap * pp)


def power_sums(values, e1, e2):
    """(sum |v|^2, sum |v|^e1, sum |v|^e2) over the last axis of values:
    three numbers for a 1D array, three per-row arrays for (rows, size)."""
    a2 = values.real**2 + values.imag**2
    a = np.sqrt(a2)
    return a2.sum(-1), (a**e1).sum(-1), (a**e2).sum(-1)
