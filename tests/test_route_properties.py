"""Property tests: the one-point afs routes against their frozen reference.

``afs1_curvatures`` and ``afs2_curvatures`` run the line kernels on a
one-point row; ``reference_routes`` holds the per-point formulas they
replaced.  On random 3-jets and shears, edge floats included, a point
the reference evaluates to finite K and H must carry the same bits of
K, H and w; where the reference raises, the route raises
``AdmissibilityError`` with the same text; and where the reference's K
or H is not finite, the route gives a NaN pair.
"""

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocurv.factorable import TYPE1, TYPE2, AffineFactorable, afs1_curvatures, afs2_curvatures
from isocurv.geometry import AdmissibilityError, Rect
from isocurv.jets import Jet2

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
    except (AdmissibilityError, OverflowError, ZeroDivisionError) as err:
        with pytest.raises(AdmissibilityError) as info:
            route(s, p, j1, j2)
        assert str(info.value) == str(err)
        return
    got = route(s, p, j1, j2)
    if math.isfinite(want.K) and math.isfinite(want.H):
        assert _bits(got.K, got.H, got.w) == _bits(want.K, want.H, want.w)
    else:
        assert all(map(math.isnan, (got.K, got.H, got.w))), got
