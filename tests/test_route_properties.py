"""Property tests: the afs column routes against their frozen reference.

``afs1_curvatures`` and ``afs2_curvatures`` run the line kernels on a
column of points; ``reference_routes`` holds the per-point formulas
they replaced.  On random 3-jets and shears, edge floats included, a
point the reference evaluates to finite K and H must carry the same
bits of K, H and w; where the reference raises, the route gives the
same text (``AffineFactorable.curvatures`` raises it as
``AdmissibilityError``); and where the reference's K or H is not
finite, a square that overflows included, the route gives a NaN pair.
A column must give each of its points what the reference gives it
alone.  Both square by one product, x * x, which is correctly rounded,
where libm's ``pow`` behind float ``** 2`` is not always.
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocurv.catalog import build_family, family_ids
from isocurv.factorable import (
    TYPE1,
    TYPE2,
    AffineFactorable,
    afs1_curvatures,
    afs2_curvatures,
    random_instance,
)
from isocurv.geometry import AdmissibilityError, Rect
from isocurv.jets import Jet1, Jet2
from isocurv.rng import SplitMix64

import reference_routes

EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 1e200, 1.0)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-4.0, 4.0), st.floats())
# A profile's 3-jet at a scalar: value, first and second derivative.
jets_ = st.builds(lambda v, dx, dxx: Jet2(v, dx, 0.0, dxx), floats, floats, floats)

ROUTES = {
    TYPE1: (afs1_curvatures, reference_routes.afs1_curvatures),
    TYPE2: (afs2_curvatures, reference_routes.afs2_curvatures),
}


def _bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _at(route, s, p, j1, j2):
    """The column route at the one point p, read as ``AffineFactorable.curvatures`` reads it."""
    (pair,) = route(s, [p], [j1], [j2])
    if pair.__class__ is str:
        raise AdmissibilityError(pair)
    return pair


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
@settings(max_examples=300, deadline=None)
@given(j1=jets_, j2=jets_, a=floats, p=st.tuples(floats, floats))
# (f1'*f2')^2 overflows; the regularity is below the floor; f1 is NaN.
@example(j1=Jet2(1.0, 1e200, 0.0, 1.0), j2=Jet2(1.0, 1.0, 0.0, 1.0), a=1.0, p=(0.5, 0.5))
@example(j1=Jet2(1.0, 0.0, 0.0, 1.0), j2=Jet2(1.0, 0.0, 0.0, 1.0), a=1.0, p=(0.5, 0.5))
@example(j1=Jet2(math.nan, 1.0, 0.0, 1.0), j2=Jet2(1.0, 1.0, 0.0, 1.0), a=1.0, p=(0.5, 0.5))
def test_one_point_route_matches_the_reference(kind, j1, j2, a, p):
    s = AffineFactorable(kind, None, None, a, Rect((0.0, 1.0), (0.0, 1.0)))
    route, reference = ROUTES[kind]
    try:
        want = reference(s, p, j1, j2)
    except AdmissibilityError as err:
        with pytest.raises(AdmissibilityError) as info:
            _at(route, s, p, j1, j2)
        assert str(info.value) == str(err)
        return
    got = _at(route, s, p, j1, j2)
    if math.isfinite(want.K) and math.isfinite(want.H):
        assert _bits(got.K, got.H, got.w) == _bits(want.K, want.H, want.w)
    else:
        assert all(map(math.isnan, (got.K, got.H, got.w))), got


def _reference_outcome(s, p, j1, j2):
    """What the reference gives one point: K, H and w bits, a text, or "NaN pair"."""
    if j1.__class__ is str or j2.__class__ is str:
        return j1 if j1.__class__ is str else j2
    try:
        want = ROUTES[s.kind][1](s, p, j1, j2)
    except AdmissibilityError as err:
        return str(err)
    if math.isfinite(want.K) and math.isfinite(want.H):
        return _bits(want.K, want.H, want.w)
    return "NaN pair"


def _route_outcome(entry):
    if entry.__class__ is str:
        return entry
    if all(map(math.isnan, (entry.K, entry.H, entry.w))):
        return "NaN pair"
    return _bits(entry.K, entry.H, entry.w)


# Points the column holds besides its random ones, each with f1's and
# f2's jets there: a profile's exclusion, a square that overflows, a
# type-2 regularity of 0 (type 1 has none, and gets a pair) and a K of inf.
ODD_POINTS = (
    ((0.25, -0.25), "log evaluated at -1.0: requires t > 0", Jet1(1.0, 1.0, 1.0)),
    ((0.5, 0.5), Jet1(1.0, 1e200, 1.0), Jet1(1.0, 1.0, 1.0)),
    ((-0.5, 0.125), Jet1(1.0, 0.0, 1.0), Jet1(1.0, 0.0, 1.0)),
    ((0.125, 0.375), Jet1(1.0, 0.0, math.inf), Jet1(1.0, 1.0, 1.0)),
)


def _surfaces():
    for seed in (11, 12, 13):
        for kind in (TYPE1, TYPE2):
            yield f"random {kind} seed {seed}", lambda seed=seed, kind=kind: random_instance(
                SplitMix64(seed), kind)
    for fid in family_ids():
        if fid != "FS2.K.integral":
            yield fid, lambda fid=fid: build_family(fid)


SURFACES = dict(_surfaces())


@pytest.mark.parametrize("name", SURFACES)
def test_a_column_gives_each_point_the_reference_bits_and_text(name):
    s = SURFACES[name]()
    assert isinstance(s, AffineFactorable), name
    rng = SplitMix64(7)
    (u_lo, u_hi), (v_lo, v_hi) = s.domain.u, s.domain.v
    points = [(rng.uniform(u_lo, u_hi), rng.uniform(v_lo, v_hi)) for _ in range(24)]
    j1s, j2s = s.profile_columns(points)
    # Mix the odd points in among the random ones, each followed by the
    # point before it again, with the same jets: a kernel that keeps f1's
    # floats across points, as along a grid row, must read them again
    # where f1's jet changes.
    for k, (p, j1, j2) in enumerate(ODD_POINTS):
        at = 3 + 6 * k
        points[at:at] = [p, points[at - 1]]
        j1s[at:at] = [j1, j1s[at - 1]]
        j2s[at:at] = [j2, j2s[at - 1]]
    want = [_reference_outcome(s, p, j1, j2) for p, j1, j2 in zip(points, j1s, j2s)]
    got = ROUTES[s.kind][0](s, points, j1s, j2s)
    assert [_route_outcome(entry) for entry in got] == want
    text, overflow, irregular, infinite = (want[3 + 6 * k] for k in range(len(ODD_POINTS)))
    assert text == ODD_POINTS[0][1]
    # An overflowing square is inf, so the point is never included.
    assert overflow == "NaN pair"
    if s.kind == TYPE2:
        assert irregular.startswith("type-2 regularity |a*f1'*f2 + f1*f2'| = 0 < "), irregular
    else:
        assert irregular.__class__ is bytes
    assert infinite == "NaN pair"


def _pow_apart(rng: SplitMix64, n: int) -> list[float]:
    """The first n seeded draws x in [-10, 10] whose float ``x ** 2`` is not ``x * x``."""
    found = []
    while len(found) < n:
        x = rng.uniform(-10.0, 10.0)
        if x**2 != x * x:
            found.append(x)
    return found


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_the_kernels_square_by_one_correctly_rounded_product(kind):
    # libm's pow, behind float ** 2, rounds about 1 square in 1,300 of
    # these draws away from x * x; x * x is the square correctly rounded.
    s = AffineFactorable(kind, None, None, 0.5, Rect((0.0, 1.0), (0.0, 1.0)))
    route, reference = ROUTES[kind]
    p = (0.25, 0.75)
    xs = _pow_apart(SplitMix64(44), 8)
    for x, y in zip(xs[0::2], xs[1::2]):
        for x_ in (x, y):
            assert x_ * x_ == float(Fraction(x_) ** 2) != x_**2, x_
        # f1'*f2' and f1'*f2 are x, f1*f2' is y: type 2 squares all three.
        j1, j2 = Jet1(y, x, 0.75), Jet1(1.0, 1.0, -1.25)
        want, got = reference(s, p, j1, j2), _at(route, s, p, j1, j2)
        assert _bits(got.K, got.H, got.w) == _bits(want.K, want.H, want.w), (x, y)
        # With f1'' = f2'' = 0, type 1's K is the negated square itself.
        flat = _at(route, s, p, Jet1(y, x, 0.0), Jet1(1.0, 1.0, 0.0))
        if kind == TYPE1:
            assert flat.K == -(x * x) != -(x**2), x
        else:
            reg = 0.5 * x * 1.0 + y * 1.0
            assert flat.K == (y * 1.0 * 0.0 * 0.0 - x * x) / (reg * reg * (reg * reg)), x
