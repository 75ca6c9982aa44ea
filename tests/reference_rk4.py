"""The Runge-Kutta integrator as it stood before it held two floats.

``isocurv.verify._rk4`` integrates the pair (f, f') of a second-order
scalar equation as two floats and yields each node as it reaches it.
This module keeps the earlier integrator verbatim, frozen: a state of
any dimension as a tuple, every node returned in one list.  The tests
compare ``ode_crosscheck`` through both bit for bit.  Do not change an
expression here to follow a change in the package.
"""

from collections.abc import Sequence


def rk4(deriv, t0: float, y0: Sequence[float], t1: float, steps: int):
    """Classic fixed-step fourth-order Runge-Kutta over [t0, t1] in steps >= 1 steps."""
    h = (t1 - t0) / steps
    t = t0
    y = tuple(float(v) for v in y0)
    out = [(t, y)]
    for i in range(steps):
        k1 = deriv(t, y)
        y2 = tuple(v + 0.5 * h * k for v, k in zip(y, k1))
        k2 = deriv(t + 0.5 * h, y2)
        y3 = tuple(v + 0.5 * h * k for v, k in zip(y, k2))
        k3 = deriv(t + 0.5 * h, y3)
        y4 = tuple(v + h * k for v, k in zip(y, k3))
        k4 = deriv(t + h, y4)
        y = tuple(
            v + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        t = t0 + (i + 1) * h
        out.append((t, y))
    return out
