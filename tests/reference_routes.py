"""The per-point afs routes as they stood before the line kernels replaced them.

``isocurv.factorable`` states each closed form once, in its line
kernels ``afs1_line`` and ``afs2_line``; ``afs1_curvatures`` and
``afs2_curvatures`` run those kernels on one-point rows.  This module
keeps the earlier per-point routes verbatim, frozen, as the reference
the tests compare the kernels with bit for bit: an included point must
carry the same K, H and w, and an excluded one the same text.  Do not
change a formula here to follow a change in the package.  The one
deliberate edit since: each square is one product, x * x, which is
correctly rounded, where it was float ``** 2``, libm's pow, which is
not always; every other product keeps its order.

The reference differs from the package in what it gives for a point it
cannot evaluate: it raises ``AdmissibilityError`` for a regularity
below the floor, and it returns a non-finite K or H as computed, a
square that overflows included.
"""

from isocurv.factorable import TYPE1, TYPE2, AffineFactorable
from isocurv.geometry import ADMISSIBILITY_EPS, AdmissibilityError, CurvaturePair
from isocurv.jets import Jet2


def afs1_curvatures(
    s: AffineFactorable, p: tuple[float, float], j1: Jet2, j2: Jet2
) -> CurvaturePair:
    """Closed-form curvatures of a type-1 surface at p = (x, y).

    ``j1`` and ``j2`` are the jets of f1 and f2 at the shifted arguments
    of p, as :meth:`AffineFactorable.profile_jets` evaluates them.  The
    pair's ``w`` is the height f1 * f2 from the profile values at hand:
    the same float as the value of the :func:`as_chart` height jet,
    whose value part is built from value parts alone.
    """
    if s.kind != TYPE1:
        raise ValueError(f"afs1_curvatures needs a {TYPE1} surface, got {s.kind}")
    f1, d1, dd1 = j1.v, j1.dx, j1.dxx
    f2, d2, dd2 = j2.v, j2.dx, j2.dxx
    a = s.shear
    d12 = d1 * d2
    K = f1 * f2 * dd1 * dd2 - d12 * d12
    H = 0.5 * ((1.0 + a * a) * f1 * dd2 + 2.0 * a * d1 * d2 + dd1 * f2)
    return CurvaturePair(K, H, f1 * f2)


def afs2_curvatures(
    s: AffineFactorable, p: tuple[float, float], j1: Jet2, j2: Jet2
) -> CurvaturePair:
    """Closed-form curvatures of a type-2 surface at p = (y, z).

    Requires the regularity value to stay at or above ADMISSIBILITY_EPS
    in magnitude; the denominators keep their signs (reg^3 is signed, so H
    matches the signed graph formula of the x = w(y, z) chart).
    ``j1``, ``j2`` and ``w`` are as for :func:`afs1_curvatures`; p only
    names the point in the error text.
    """
    if s.kind != TYPE2:
        raise ValueError(f"afs2_curvatures needs a {TYPE2} surface, got {s.kind}")
    f1, d1, dd1 = j1.v, j1.dx, j1.dxx
    f2, d2, dd2 = j2.v, j2.dx, j2.dxx
    a = s.shear
    reg = a * d1 * f2 + f1 * d2
    if abs(reg) < ADMISSIBILITY_EPS:
        raise AdmissibilityError(_irregular(reg, p))
    reg2 = reg * reg
    d12, d1f2, f1d2 = d1 * d2, d1 * f2, f1 * d2
    num_k = f1 * f2 * dd1 * dd2 - d12 * d12
    num_2h = (
        d1f2 * d1f2 * f1 * dd2
        - 2.0 * (d12 * d12) * f1 * f2
        + f1d2 * f1d2 * f2 * dd1
        + f1 * dd2
        + 2.0 * a * d1 * d2
        + a * a * dd1 * f2
    )
    K = num_k / (reg2 * reg2)
    H = num_2h / (2.0 * reg2 * reg)
    return CurvaturePair(K, H, f1 * f2)


def _irregular(reg: float, p: tuple[float, float]) -> str:
    """The exclusion text of a type-2 point whose regularity is below the floor."""
    return (
        f"type-2 regularity |a*f1'*f2 + f1*f2'| = {abs(reg):.3g} "
        f"< {ADMISSIBILITY_EPS:g} at {p!r}"
    )


def curvatures(s: AffineFactorable, p: tuple[float, float]) -> CurvaturePair:
    """The reference route of s's kind at p, on the jets s evaluates there."""
    route = afs1_curvatures if s.kind == TYPE1 else afs2_curvatures
    return route(s, p, *s.profile_jets(p))
