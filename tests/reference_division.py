"""Jet division as it stood before a division built one jet.

``isocurv.jets`` divides a by b in one jet: it keeps the components of
the reciprocal jet of b in locals and applies the product rule to them.
This module keeps the earlier two-step form verbatim, frozen, as the
reference the tests compare every division form with bit for bit: the
reciprocal jet of b is built as ``compose(r, -r*r, 2*r*r*r, b)`` would
build it, and then multiplied into a by the jet-jet product rule.  Do
not change a formula here to follow a change in the package.

A plain number operand is the constant jet ``Jet2(float(c))``, and the
result is a Jet1 when either operand is one, read through the other
operand's x slots, as in the package.
"""

from isocurv.jets import MIN_DIVISOR, Jet1, Jet2


def _as_jet(x):
    if isinstance(x, (Jet1, Jet2)):
        return x
    return Jet2(float(x))


def reciprocal(b):
    """The jet of 1/b, of b's kind."""
    if abs(b.v) < MIN_DIVISOR:
        raise ZeroDivisionError(
            f"jet division by {b.v!r}: |denominator| < {MIN_DIVISOR:g}"
        )
    r = 1.0 / b.v
    d1, d2 = -r * r, 2.0 * r * r * r
    if b.__class__ is Jet2:
        return Jet2(
            r,
            d1 * b.dx,
            d1 * b.dy,
            d2 * b.dx * b.dx + d1 * b.dxx,
            d2 * b.dx * b.dy + d1 * b.dxy,
            d2 * b.dy * b.dy + d1 * b.dyy,
        )
    return Jet1(r, d1 * b.dx, d2 * b.dx * b.dx + d1 * b.dxx)


def product(a, b):
    """The jet-jet product rule, on the x slots alone if either is a Jet1."""
    if a.__class__ is Jet2 and b.__class__ is Jet2:
        return Jet2(
            a.v * b.v,
            a.dx * b.v + a.v * b.dx,
            a.dy * b.v + a.v * b.dy,
            a.dxx * b.v + 2.0 * a.dx * b.dx + a.v * b.dxx,
            a.dxy * b.v + a.dx * b.dy + a.dy * b.dx + a.v * b.dxy,
            a.dyy * b.v + 2.0 * a.dy * b.dy + a.v * b.dyy,
        )
    return Jet1(
        a.v * b.v,
        a.dx * b.v + a.v * b.dx,
        a.dxx * b.v + 2.0 * a.dx * b.dx + a.v * b.dxx,
    )


def divide(a, b):
    """a / b as ``a * reciprocal(b)``; either may be a plain number."""
    a, b = _as_jet(a), _as_jet(b)
    return product(a, reciprocal(b))
