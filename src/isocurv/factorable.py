"""Affine factorable surfaces: a height that is a product of two profiles.

Two kinds of graph surfaces are built from single-variable profiles
f1, f2 and a shear constant a:

* type-1:  z = f1(x) * f2(y + a*x)     over the (x, y) plane
* type-2:  x = f1(y + a*z) * f2(z)     over the (y, z) plane

With a = 0 these reduce to plain factorable (product) surfaces.  Type-1
graphs are admissible everywhere; a type-2 graph is admissible exactly
where its height moves with z, measured by :func:`regularity`:

    reg(y, z) = a * f1'(y + a*z) * f2(z) + f1(y + a*z) * f2'(z)

which is w_z for the height w(y, z) = f1(y + a*z) * f2(z).

Direct differentiation of the graph heights gives closed curvature
formulas in the shifted profile arguments:

* type-1:  K  = f1*f2*f1''*f2'' - (f1'*f2')^2          (no a anywhere)
           2H = (1 + a^2)*f1*f2'' + 2a*f1'*f2' + f1''*f2
* type-2:  K  = (f1*f2*f1''*f2'' - (f1'*f2')^2) / reg^4
           2H = ((f1'*f2)^2*f1*f2'' - 2*(f1'*f2')^2*f1*f2
                 + (f1*f2')^2*f2*f1'' + f1*f2''
                 + 2a*f1'*f2' + a^2*f1''*f2) / reg^3

These specialized routes are deliberately kept separate from the
generic chart formulas in :mod:`isocurv.geometry` so the two can be
cross-checked numerically (see ``isocurv.verify.cross_validate``).
"""

from __future__ import annotations

import math

from . import jets
from .jets import Jet2
from .geometry import (
    ADMISSIBILITY_EPS,
    AdmissibilityError,
    CurvaturePair,
    Record,
    Rect,
    SurfaceChart,
    X_OVER_YZ,
    Z_OVER_XY,
)
from .rng import SplitMix64

__all__ = [
    "TYPE1",
    "TYPE2",
    "AffineFactorable",
    "afs1_curvatures",
    "afs2_curvatures",
    "regularity",
    "as_chart",
    "random_profile",
    "random_instance",
    "is_planar",
]

TYPE1 = "type-1"
TYPE2 = "type-2"

#: A twice-differentiable function of one variable in jet arithmetic.
Profile = "Callable[[Jet2], Jet2]"


class AffineFactorable(Record):
    """A type-1 or type-2 product surface.

    ``shear`` is the constant a of the affine substitution; a = 0 gives
    the plain factorable case.  ``domain`` is the chart rectangle:
    (x, y) ranges for type-1, (y, z) ranges for type-2.

    The profiles must be pure functions of their argument: the same
    float in, the same jet (or the same exception) out, with no hidden
    state.  Grid sampling and cross-validation evaluate each profile
    once per distinct argument and reuse the jet, which is only the
    same computation when that holds.
    """

    __slots__ = __match_args__ = ("kind", "factor1", "factor2", "shear", "domain", "label")

    def __init__(
        self,
        kind: str,
        factor1: Profile,
        factor2: Profile,
        shear: float,
        domain: Rect,
        label: str = "",
    ) -> None:
        if kind not in (TYPE1, TYPE2):
            raise ValueError(f"unknown surface kind {kind!r}")
        super().__init__(kind, factor1, factor2, shear, domain, label)

    def profile_arguments(self, p: tuple[float, float]) -> tuple[float, float]:
        """The shifted arguments (u1, u2) fed to the profiles at chart point p."""
        if self.kind == TYPE1:
            return (p[0], p[1] + self.shear * p[0])
        return (p[0] + self.shear * p[1], p[1])

    def curvatures(self, p: tuple[float, float], *, memo: dict | None = None) -> CurvaturePair:
        if self.kind == TYPE1:
            return afs1_curvatures(self, p, memo=memo)
        return afs2_curvatures(self, p, memo=memo)


def _profile_jets(s: AffineFactorable, p: tuple[float, float], memo: dict | None):
    """The jets of both profiles at their shifted arguments for point p.

    With a ``memo`` (a dict the caller owns), each profile is evaluated
    once per distinct argument and the jet is reused after that.  The
    key is (profile, u), and (profile, u, sign) for a zero u, because
    0.0 == -0.0 as dict keys while a profile may tell them apart.  An
    evaluation that raises stores nothing, so it raises again, with the
    same text, the next time that argument comes up.

    A memo from :func:`grid_memo` also holds, under the profile itself,
    how many more jets that profile may store before its first repeat.
    The first repeat removes the count, and the profile is stored
    without bound from then on; a count that runs out stops the profile
    being stored.  A plain dict has no counts and stores everything.
    """
    # The arguments of profile_arguments, inline: this runs at every point.
    x, y = p
    if s.kind == TYPE1:
        u1, u2 = x, y + s.shear * x
    else:
        u1, u2 = x + s.shear * y, y
    f1, f2 = s.factor1, s.factor2
    if memo is None:
        return jets.eval_profile(f1, u1), jets.eval_profile(f2, u2)
    k1 = (f1, u1) if u1 else (f1, u1, math.copysign(1.0, u1))
    j1 = memo.get(k1)
    if j1 is None:
        j1 = _store(memo, k1, f1, u1)
    elif memo.get(f1):
        del memo[f1]
    k2 = (f2, u2) if u2 else (f2, u2, math.copysign(1.0, u2))
    j2 = memo.get(k2)
    if j2 is None:
        j2 = _store(memo, k2, f2, u2)
    elif memo.get(f2):
        del memo[f2]
    return j1, j2


def _store(memo: dict, key: tuple, f: Profile, u: float) -> Jet2:
    """Evaluate f at u and store the jet, unless f has used up its count."""
    j = jets.eval_profile(f, u)
    left = memo.get(f)
    if left is None:
        memo[key] = j
    elif left:
        memo[f] = left - 1
        memo[key] = j
    return j


def grid_memo(s: AffineFactorable, n: int) -> dict:
    """A profile memo for sampling s on an n x n grid, in row-major order.

    A grid coordinate takes n values, so a profile of one repeats its
    first argument by the start of the second grid row.  A sheared
    argument (y + a*x for type 1) can take a new value at every one of
    the n^2 points, where storing its jets saves nothing.  So each
    profile may store 2n jets, two grid rows' worth, before its first
    repeat; one that has not repeated by then stops being stored, and
    the memo holds O(n) jets rather than O(n^2).
    """
    return {s.factor1: 2 * n, s.factor2: 2 * n}


def afs1_curvatures(
    s: AffineFactorable, p: tuple[float, float], *, memo: dict | None = None
) -> CurvaturePair:
    """Closed-form curvatures of a type-1 surface at p = (x, y).

    The pair's ``w`` is the height f1 * f2 from the profile values at
    hand: the same float as the value of the :func:`as_chart` height
    jet, whose value part is built from value parts alone.  ``memo`` is
    an optional caller-owned dict of profile jets (see
    :func:`_profile_jets`); the result is the same with or without it.
    """
    if s.kind != TYPE1:
        raise ValueError(f"afs1_curvatures needs a {TYPE1} surface, got {s.kind}")
    j1, j2 = _profile_jets(s, p, memo)
    f1, d1, dd1 = j1.v, j1.dx, j1.dxx
    f2, d2, dd2 = j2.v, j2.dx, j2.dxx
    a = s.shear
    K = f1 * f2 * dd1 * dd2 - (d1 * d2) ** 2
    H = 0.5 * ((1.0 + a * a) * f1 * dd2 + 2.0 * a * d1 * d2 + dd1 * f2)
    return CurvaturePair(K, H, f1 * f2)


def afs2_curvatures(
    s: AffineFactorable, p: tuple[float, float], *, memo: dict | None = None
) -> CurvaturePair:
    """Closed-form curvatures of a type-2 surface at p = (y, z).

    Requires the regularity value to stay at or above ADMISSIBILITY_EPS
    in magnitude; the denominators keep their signs (reg^3 is signed, so H
    matches the signed graph formula of the x = w(y, z) chart).
    ``w`` and ``memo`` are as for :func:`afs1_curvatures`.
    """
    if s.kind != TYPE2:
        raise ValueError(f"afs2_curvatures needs a {TYPE2} surface, got {s.kind}")
    j1, j2 = _profile_jets(s, p, memo)
    f1, d1, dd1 = j1.v, j1.dx, j1.dxx
    f2, d2, dd2 = j2.v, j2.dx, j2.dxx
    a = s.shear
    reg = a * d1 * f2 + f1 * d2
    if abs(reg) < ADMISSIBILITY_EPS:
        raise AdmissibilityError(
            f"type-2 regularity |a*f1'*f2 + f1*f2'| = {abs(reg):.3g} "
            f"< {ADMISSIBILITY_EPS:g} at {p!r}"
        )
    reg2 = reg * reg
    num_k = f1 * f2 * dd1 * dd2 - (d1 * d2) ** 2
    num_2h = (
        (d1 * f2) ** 2 * f1 * dd2
        - 2.0 * (d1 * d2) ** 2 * f1 * f2
        + (f1 * d2) ** 2 * f2 * dd1
        + f1 * dd2
        + 2.0 * a * d1 * d2
        + a * a * dd1 * f2
    )
    K = num_k / (reg2 * reg2)
    H = num_2h / (2.0 * reg2 * reg)
    return CurvaturePair(K, H, f1 * f2)


def regularity(
    s: AffineFactorable, p: tuple[float, float], *, memo: dict | None = None
) -> float:
    """The type-2 admissibility value a*f1'*f2 + f1*f2' at p = (y, z).

    Type-1 graphs are admissible everywhere, so asking for their
    regularity value is a usage error.  Passing the ``memo`` that a
    following :func:`afs2_curvatures` call gets lets both share one
    evaluation of the profiles.
    """
    if s.kind != TYPE2:
        raise ValueError("regularity is a type-2 notion; type-1 graphs are always admissible")
    j1, j2 = _profile_jets(s, p, memo)
    return s.shear * j1.dx * j2.v + j1.v * j2.dx


def as_chart(s: AffineFactorable) -> SurfaceChart:
    """The same surface as a generic graph chart.

    The height composes the profiles with the affine substitution in
    jet arithmetic, so the chart route recomputes everything from
    scratch; agreement with the specialized formulas is a checkable
    property, not a construction.
    """
    if s.kind == TYPE1:

        def height(x: Jet2, y: Jet2) -> Jet2:
            return s.factor1(x) * s.factor2(y + s.shear * x)

        return SurfaceChart(Z_OVER_XY, height, s.domain)

    def height(y: Jet2, z: Jet2) -> Jet2:
        return s.factor1(y + s.shear * z) * s.factor2(z)

    return SurfaceChart(X_OVER_YZ, height, s.domain)


def random_profile(rng: SplitMix64) -> tuple[Profile, str]:
    """Draw one profile from the fixed test-generator family.

    The family: polynomials of degree 1 to 3 with slope coefficients in
    [-1, 1] and constant term in [1.5, 2.5]; exp(c*t); sin(c*t) or
    cos(c*t) plus a constant in [1.5, 2.5]; all with c in [0.5, 1.5].
    The shifts keep typical factor values away from zero so random
    type-2 instances stay regular on most of their domain.
    """
    kind = rng.choice(("poly", "exp", "sin", "cos"))
    if kind == "poly":
        degree = rng.choice((1, 2, 3))
        coeffs = [rng.uniform(1.5, 2.5)]
        coeffs += [rng.uniform(-1.0, 1.0) for _ in range(degree)]

        def poly(t: Jet2, _c=tuple(coeffs)) -> Jet2:
            acc = jets.const(_c[-1])
            for c in reversed(_c[:-1]):
                acc = acc * t + c
            return acc

        body = ",".join(f"{c:.3f}" for c in coeffs)
        return poly, f"poly({body})"
    c = rng.uniform(0.5, 1.5)
    if kind == "exp":
        return (lambda t, _c=c: jets.exp(_c * t)), f"exp({c:.3f}*t)"
    shift = rng.uniform(1.5, 2.5)
    trig = jets.sin if kind == "sin" else jets.cos
    return (
        lambda t, _c=c, _s=shift, _f=trig: _f(_c * t) + _s,
        f"{kind}({c:.3f}*t)+{shift:.3f}",
    )


def random_instance(rng: SplitMix64, kind: str) -> AffineFactorable:
    """Draw a random surface of the given kind from the test generator.

    The shear is sign * uniform[0.2, 2], so |a| stays bounded away from
    both 0 and the domain-stretching extremes.
    """
    f1, lab1 = random_profile(rng)
    f2, lab2 = random_profile(rng)
    a = rng.sign() * rng.uniform(0.2, 2.0)
    if kind == TYPE1:
        domain = Rect((-0.6, 0.6), (-0.6, 0.6))
    elif kind == TYPE2:
        domain = Rect((-0.5, 0.5), (-0.5, 0.5))
    else:
        raise ValueError(f"unknown surface kind {kind!r}")
    label = f"{kind} a={a:.6g} f1={lab1} f2={lab2}"
    return AffineFactorable(kind, f1, f2, a, domain, label)


def _argument_range(s: AffineFactorable, which: int) -> tuple[float, float]:
    (u0, u1), (v0, v1) = s.domain.u, s.domain.v
    a = s.shear
    if s.kind == TYPE1:
        if which == 1:
            return (u0, u1)
        lo, hi = min(a * u0, a * u1), max(a * u0, a * u1)
        return (v0 + lo, v1 + hi)
    if which == 2:
        return (v0, v1)
    lo, hi = min(a * v0, a * v1), max(a * v0, a * v1)
    return (u0 + lo, u1 + hi)


def is_planar(s: AffineFactorable) -> bool:
    """True when both profiles look affine over their induced argument ranges.

    "Affine" means |f''| <= 1e-12 at 5 equispaced arguments of each range.

    Every plane in either ansatz has two affine factors, so this test
    never misses a plane.  It can reject a curved product of two affine
    profiles as well; callers use it only to discard draws, where
    over-rejection is harmless.
    """
    for which, profile in ((1, s.factor1), (2, s.factor2)):
        lo, hi = _argument_range(s, which)
        for i in range(5):
            t = lo + (hi - lo) * i / 4
            if abs(jets.eval_profile(profile, t).dxx) > 1e-12:
                return False
    return True
