"""Exact metamorphic property: power-of-two similarities scale K and H bit for bit.

The similarity (x, y, z) -> (l*x, l*y, n*z) of the simply isotropic
space, z its isotropic direction, maps a surface to one whose K is
(n^2/l^4)*K and whose H is (n/l^2)*H at the image point.  With l = 2^k
and n = 2^m, every scaling is exact in float64 while the values stay
in the normal range, so the line kernels that ``sample_grid`` runs must
reproduce the scaled K and H bit for bit: no tolerance at all.  The
image of a product surface is a product of the same kind:

* type 1, z = f1(x)*f2(y + a*x): g1(t) = n*f1(t/l), g2(t) = f2(t/l),
  the same a, and the domain times l;
* type 2, x = f1(y + a*z)*f2(z): g1(t) = l*f1(t/l), g2(t) = f2(t/n),
  a' = a*l/n, and the domain (l*u, n*v).

k != m keeps the degrees of the terms apart, so a term of the wrong
degree in a kernel breaks the relation.  A point is skipped where one
run includes it and the other does not (a value crossed a fixed floor)
or where a compared value is subnormal; skips are counted and must be
few.  So must the points set apart because a kernel's float ``** 2``
rounded a scaled square differently (see :func:`_pow_rounds_apart`).

Reflections are exact too, since negation is.  Mirroring a product's
chart in one coordinate, with the shear negated, gives a product of the
same kind whose profile on that side takes -t (:func:`_mirror`).  Its K
and H at the mirrored point equal the original's bit for bit, except
that mirroring z, the isotropic direction, flips the sign of type 2's H.
These are compared through the per-point routes, since a mirrored
rectangle's grid coordinates are not exact negations of the original's.
"""

import math
import struct
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isocurv.catalog import build_family, family_ids
from isocurv.factorable import _EVAL_ERRORS, TYPE1, TYPE2, AffineFactorable, random_instance
from isocurv.geometry import Rect
from isocurv.rng import SplitMix64
from isocurv.verify import sample_grid

PRODUCTS = [
    s for s in (build_family(fid) for fid in family_ids()) if isinstance(s, AffineFactorable)
]
exponents = st.integers(-6, 6)


def _image(s: AffineFactorable, k: int, m: int) -> AffineFactorable:
    """The product surface that the similarity with l = 2^k, n = 2^m maps s to."""
    lam, nu = math.ldexp(1.0, k), math.ldexp(1.0, m)
    f1, f2 = s.factor1, s.factor2
    (u0, u1), (v0, v1) = s.domain.u, s.domain.v
    # Multiplying by a power of two is exact, and a jet times a float
    # scales each slot; so t * (1/l) is the jet of t/l.
    if s.kind == TYPE1:

        def g1(t):
            return nu * f1(t * (1.0 / lam))

        def g2(t):
            return f2(t * (1.0 / lam))

        return AffineFactorable(
            TYPE1, g1, g2, s.shear, Rect((lam * u0, lam * u1), (lam * v0, lam * v1))
        )

    def g1(t):
        return lam * f1(t * (1.0 / lam))

    def g2(t):
        return f2(t * (1.0 / nu))

    return AffineFactorable(
        TYPE2, g1, g2, s.shear * (lam / nu), Rect((lam * u0, lam * u1), (nu * v0, nu * v1))
    )


def _by_index(run) -> dict:
    """(point, K, H) of each included point, keyed by its row-major grid index."""
    us, vs = run.domain.coordinates(run.n)
    excluded = {p for p, _ in run.excluded}
    grid = ((u, v) for u in us for v in vs)
    included = ((i, p) for i, p in enumerate(grid) if p not in excluded)
    return {i: (p, K, H) for (i, p), K, H in zip(included, run.K, run.H)}


def _normal(x: float) -> bool:
    return x == 0.0 or sys.float_info.min <= abs(x) <= sys.float_info.max


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _pow_rounds_apart(s: AffineFactorable, p: tuple[float, float]) -> bool:
    """Does a square that s's kernel takes with ``** 2`` at p differ from x * x?

    Float ``** 2`` is libm's pow, which is not always correctly
    rounded: pow(x, 2) can be the neighbour of x * x, and for 2^j * x it
    need not be the same neighbour.  So a scaled point can differ in its
    last bits where the relation itself holds.  Such points are counted
    apart; a mismatch anywhere else fails.
    """
    j1, j2 = s.profile_jets(p)
    squared = [j1.dx * j2.dx]
    if s.kind == TYPE2:
        squared += [j1.dx * j2.v, j1.v * j2.dx]
    return any(x**2 != x * x for x in squared)


def _compare(s: AffineFactorable, k: int, m: int, n: int) -> dict:
    """Counts of compared, skipped and pow-rounded points for s and its image.

    A compared point whose K or H differs from the scaled value in any
    bit fails, unless :func:`_pow_rounds_apart` holds in either run.
    """
    t = _image(s, k, m)
    base, image = _by_index(sample_grid(s, n=n)), _by_index(sample_grid(t, n=n))
    k_scale, h_scale = math.ldexp(1.0, 2 * m - 4 * k), math.ldexp(1.0, m - 2 * k)
    counts = {"compared": 0, "skipped": len(base.keys() ^ image.keys()), "pow": 0}
    for i in sorted(base.keys() & image.keys()):
        (p, K, H), (q, K2, H2) = base[i], image[i]
        want = (K * k_scale, H * h_scale)
        if not all(map(_normal, (K, H, K2, H2, *want))):
            counts["skipped"] += 1
        elif (_bits(K2), _bits(H2)) == (_bits(want[0]), _bits(want[1])):
            counts["compared"] += 1
        else:
            assert _pow_rounds_apart(s, p) or _pow_rounds_apart(t, q), (
                f"{s.label} at {p!r}, k={k} m={m}: K {K!r} -> {K2!r} (want {want[0]!r}), "
                f"H {H!r} -> {H2!r} (want {want[1]!r})"
            )
            counts["pow"] += 1
    return counts


def _require_few(counts: dict) -> None:
    """At most 1 point in 20 skipped, and at most 1 in 10 set apart by pow's rounding.

    On random 7^2 instances pow's rounding sets apart about 1 point in
    5,000, and at most 2 in one instance.
    """
    assert 20 * counts["skipped"] <= counts["compared"], counts
    assert 10 * counts["pow"] <= counts["compared"], counts


@settings(max_examples=10, deadline=None)
@given(k=exponents, m=exponents)
def test_every_product_family_scales_exactly(k, m):
    assume(k != m)
    assert len(PRODUCTS) == 29
    counts = {"compared": 0, "skipped": 0, "pow": 0}
    for s in PRODUCTS:
        for key, value in _compare(s, k, m, 9).items():
            counts[key] += value
    # No family skips a point or rounds a square apart for any k and m in [-6, 6].
    assert counts["skipped"] == counts["pow"] == 0, counts


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1), kind=st.sampled_from((TYPE1, TYPE2)), k=exponents, m=exponents
)
def test_random_instances_scale_exactly(seed, kind, k, m):
    assume(k != m)
    _require_few(_compare(random_instance(SplitMix64(seed), kind), k, m, 7))


def _mirror(s: AffineFactorable, axis: int) -> AffineFactorable:
    """s mirrored in its chart's coordinate ``axis`` (0 or 1), with the shear negated.

    Type 1, z = f1(x)*f2(y + a*x): mirroring x gives f1(-t), mirroring y
    f2(-t).  Type 2, x = f1(y + a*z)*f2(z): mirroring y gives f1(-t),
    mirroring z f2(-t).  The shifted arguments at the mirrored point are
    the originals, negated on the mirrored side, with no rounding.
    """
    f1, f2 = s.factor1, s.factor2
    (u0, u1), (v0, v1) = s.domain.u, s.domain.v
    if axis == 0:
        return AffineFactorable(
            s.kind, lambda t: f1(-t), f2, -s.shear, Rect((-u1, -u0), (v0, v1))
        )
    return AffineFactorable(s.kind, f1, lambda t: f2(-t), -s.shear, Rect((u0, u1), (-v1, -v0)))


def _per_point(s: AffineFactorable, p: tuple[float, float]):
    """(K, H) of s's per-point route at p, or the class of the error that excludes p."""
    try:
        c = s.curvatures(p)
    except _EVAL_ERRORS as err:
        return type(err)
    return c.K, c.H


def _same(x: float, y: float) -> bool:
    return _bits(x) == _bits(y) or (math.isnan(x) and math.isnan(y))


def _compare_mirrors(s: AffineFactorable, n: int) -> dict:
    """Counts of compared and skipped points for s and both of its mirrors on an n^2 grid.

    A point that s excludes is skipped, and each mirror must exclude it
    with the same error class.  Elsewhere K and H must match in every bit.
    """
    counts = {"compared": 0, "skipped": 0}
    for axis in (0, 1):
        t = _mirror(s, axis)
        h_sign = -1.0 if s.kind == TYPE2 and axis == 1 else 1.0
        for p in s.domain.grid(n):
            q = (-p[0], p[1]) if axis == 0 else (p[0], -p[1])
            base, got = _per_point(s, p), _per_point(t, q)
            if isinstance(base, type):
                assert got is base, f"{s.label} at {p!r}, axis {axis}: {base} -> {got}"
                counts["skipped"] += 1
                continue
            want = (base[0], h_sign * base[1])
            assert not isinstance(got, type) and all(map(_same, got, want)), (
                f"{s.label} at {p!r}, axis {axis}: got {got!r}, want {want!r}"
            )
            counts["compared"] += 1
    return counts


def test_every_product_family_mirrors_exactly():
    for s in PRODUCTS:
        assert _compare_mirrors(s, 9) == {"compared": 162, "skipped": 0}, s.label


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_random_instances_mirror_exactly(seed):
    for kind in (TYPE1, TYPE2):
        counts = _compare_mirrors(random_instance(SplitMix64(seed), kind), 7)
        assert 20 * counts["skipped"] <= counts["compared"], counts
