"""Pointwise numpy kernels for the hot inner loops: the nonlinear phase
rotation of the Strang step, the gradient-flow kick, and the power sums
behind the energy integrals.  The rotation works on one flat index range
of the field, the window outside which its angle is below 2^-54 rad and
cannot move a bit of float64, so a localized field pays for its support
only.  The power sums work on the last axis of a complex array, so one
call serves one flattened field or a (rows, size) batch of them.  The
kick works on the flow's real (rows, size) state, with the powers
|v|^{q-1} and |v|^{p-1} the flow carries from its accepted state, so it
takes no pow of its own.

FFTs are not handled here; they stay with numpy.fft.
"""

import numpy as np

__all__ = ["backend_name", "nonlinear_phase", "flow_kick", "power_sums", "abs2_power_sums"]


def backend_name():
    """Name of the kernel implementation; there is one, 'numpy'."""
    return "numpy"


# Each term of the nonlinear angle is at most this outside the rotation's
# window, so the angle is at most 2^-54 rad there: cos rounds to 1.0, and
# the exact rotation moves v by less than an ulp of |v|.  It is tied to
# float64, not a tolerance.
TERM_FLOOR = 2.0**-55


def _a2_floor(w, e):
    """The a2 at which |w| a2^(e/2) reaches TERM_FLOOR: inf for a zero
    weight, or when it lies beyond float range."""
    try:
        return (TERM_FLOOR / abs(float(w))) ** (2.0 / e)
    except (ZeroDivisionError, OverflowError):
        return np.inf


def nonlinear_phase(values, a2, qm1, pm1, wq, wp):
    """In place: v *= exp(-i (wq |v|^qm1 - wp |v|^pm1)), a2 being |v|^2.

    values and a2 are flat views of a field of any d (the caller's
    reshape(-1)); the rotation acts on one window of that flat index.
    Both terms of the angle wp |v|^pm1 - wq |v|^qm1 grow with a2, so
    below a2_min, the least a2 at which one term reaches TERM_FLOOR
    (2^-55; a zero weight has no term), the angle is at most 2^-54 rad.
    The window runs from the first to the last point with a2 > a2_min,
    and the rotation is taken on that slice only: every point in it is
    rotated exactly as a whole-array pass would, bit for bit, and every
    point outside it is left as it is, within 2^-53 |v| of its exact
    rotation.  Zero weights, or a field with no point above a2_min,
    leave values as they are.  A NaN sample fails the test, so it stays
    NaN.  The angle's largest magnitude over the field is its largest
    over the window, or at most 2^-54: a cap on the angle can read the
    window alone.

    The rotation leaves |v| unchanged, so the Strang loop forms |v|^2
    once for its truncation monitor and every rotation of the same
    values.  The factor is built as cos + i sin of the angle: the
    complex exp evaluates the same cos and sin, and this skips its
    complex argument, at about 0.75x its cost."""
    hot = a2 > min(_a2_floor(wq, qm1), _a2_floor(wp, pm1))
    lo = hot.argmax()
    if not hot[lo]:
        return
    hi = hot.size - hot[::-1].argmax()
    values, a2 = values[lo:hi], a2[lo:hi]
    angle = wp * a2 ** (0.5 * pm1) - wq * a2 ** (0.5 * qm1)
    factor = np.empty(values.shape, complex)
    np.cos(angle, out=factor.real)
    np.sin(angle, out=factor.imag)
    values *= factor


def flow_kick(values, aq, ap, pq, pp):
    """v * (1 - aq pq + ap pp), as a new array.

    values is a real array, one field per row along its last axis; pq
    and pp are |v|^{q-1} and |v|^{p-1}, precomputed, of the same shape;
    aq and ap are scalars or arrays that broadcast against it, such as
    the flow's (rows, 1) columns dt (q+1) beta and dt (p+1) gamma, whose
    per-row weights come from each row's dt.
    """
    return values * (1.0 - aq * pq + ap * pp)


def power_sums(values, e1, e2):
    """(sum |v|^2, sum |v|^e1, sum |v|^e2) over the last axis of values:
    three numbers for a 1D array, three per-row arrays for (rows, size)."""
    return abs2_power_sums(values.real**2 + values.imag**2, e1, e2)


def abs2_power_sums(a2, e1, e2):
    """power_sums of the values whose |v|^2 is a2."""
    a = np.sqrt(a2)
    return a2.sum(-1), (a**e1).sum(-1), (a**e2).sum(-1)
