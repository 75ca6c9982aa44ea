"""Unit tests for curvature evaluation and isotropic motions.

Every expected curvature value is worked out by hand from the defining
formulas before being frozen here.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isocurv import geometry, jets
from isocurv.catalog import build_family
from isocurv.factorable import as_chart
from isocurv.geometry import (
    AdmissibilityError,
    CurvaturePair,
    Motion,
    ParametricSurface,
    Rect,
    SurfaceChart,
    X_OVER_YZ,
    Z_OVER_XY,
    apply_motion,
    as_parametric,
    monge_x_curvatures,
    monge_z_curvatures,
    parametric_curvatures,
)
from isocurv.verify import unit_relative_difference

UNIT = Rect((0.0, 1.0), (0.0, 1.0))


def _one_point(kernel, height, p):
    # A chart kernel at the one point p, through the one-point adapter
    # of SurfaceChart.curvatures: its pair, or AdmissibilityError.
    return geometry._only_pair(geometry._pairs(kernel, height, (p,)))

#: The surfaces of acceptance criterion 06, as parametric patches.
MOTION_PATCHES = {
    fid: as_parametric(as_chart(build_family(fid)))
    for fid in (
        "AFS1.K.saddle", "FS1.min.exp-trig", "AFS1.cmc.parabolic", "FS2.min.tan", "AFS2.cmc.sqrt"
    )
}


# height fields over the (x, y) plane ----------------------------------


def test_paraboloid_curvatures():
    # w = (x^2 + y^2)/2: w_xx = w_yy = 1, w_xy = 0, so K = 1 and H = 1.
    pair = _one_point(monge_z_curvatures, lambda x, y: (x * x + y * y) * 0.5, (0.3, -0.8))
    assert (pair.K, pair.H) == (1.0, 1.0), f"paraboloid gave {(pair.K, pair.H)}"


def test_plane_curvatures():
    pair = _one_point(monge_z_curvatures, lambda x, y: 3.0 * x + 2.0 * y, (5.0, -7.0))
    assert (pair.K, pair.H) == (0.0, 0.0), f"plane gave {(pair.K, pair.H)}"


def test_saddle_curvatures():
    # w = x*y: K = -w_xy^2 = -1, H = 0 everywhere.
    pair = _one_point(monge_z_curvatures, lambda x, y: x * y, (2.0, 9.0))
    assert (pair.K, pair.H) == (-1.0, 0.0), f"saddle gave {(pair.K, pair.H)}"


# height fields over the (y, z) plane ----------------------------------


def test_sideways_parabola_curvatures():
    # x = z^2 at (y, z) = (0, 1): w_z = 2, w_zz = 2,
    # K = 0 and H = 2 / (2 * 2^3) = 0.125.
    pair = _one_point(monge_x_curvatures, lambda y, z: z * z, (0.0, 1.0))
    assert (pair.K, pair.H) == (0.0, 0.125), f"x = z^2 gave {(pair.K, pair.H)}"


def test_sideways_plane_curvatures():
    pair = _one_point(monge_x_curvatures, lambda y, z: y + z, (0.4, 0.6))
    assert (pair.K, pair.H) == (0.0, 0.0), f"x = y + z gave {(pair.K, pair.H)}"


def test_sideways_ratio_curvatures():
    # x = z/y at (1, 1): w_y = -1, w_z = 1, w_yy = 2, w_yz = -1, w_zz = 0.
    # K = (0 - 1)/1 = -1; H = (2 - 2 + 0)/2 = 0.
    pair = _one_point(monge_x_curvatures, lambda y, z: z / y, (1.0, 1.0))
    assert (pair.K, pair.H) == (-1.0, 0.0), f"x = z/y gave {(pair.K, pair.H)}"


def test_sideways_chart_needs_nonzero_slope():
    with pytest.raises(AdmissibilityError):
        _one_point(monge_x_curvatures, lambda y, z: y * 1.0, (0.5, 0.5))


# parametric patches ----------------------------------------------------


def test_parametric_paraboloid():
    r = ParametricSurface(
        x=lambda u, v: u,
        y=lambda u, v: v,
        z=lambda u, v: (u * u + v * v) * 0.5,
        domain=UNIT,
    )
    pair = r.curvatures((0.2, 0.7))
    assert abs(pair.K - 1.0) <= 1e-15 and abs(pair.H - 1.0) <= 1e-15, (
        f"parametric paraboloid gave {(pair.K, pair.H)}"
    )


def test_parametric_rotated_saddle():
    # The saddle z = x*y parametrized in axes rotated by pi/4:
    # x = (u - v)/sqrt(2), y = (u + v)/sqrt(2), z = (u^2 - v^2)/2.
    # Curvatures are motion invariants, so K = -1 and H = 0 still.
    s = 1.0 / math.sqrt(2.0)
    r = ParametricSurface(
        x=lambda u, v: s * (u - v),
        y=lambda u, v: s * (u + v),
        z=lambda u, v: (u * u - v * v) * 0.5,
        domain=UNIT,
    )
    pair = r.curvatures((1.0, 1.0))
    assert abs(pair.K + 1.0) <= 1e-15 and abs(pair.H) <= 1e-15, (
        f"rotated saddle gave {(pair.K, pair.H)}"
    )


def test_parametric_degenerate_projection():
    # The (x, y) projection collapses to a line: not an admissible patch.
    r = ParametricSurface(
        x=lambda u, v: u + v,
        y=lambda u, v: 2.0 * (u + v),
        z=lambda u, v: u * v,
        domain=UNIT,
    )
    with pytest.raises(AdmissibilityError):
        r.curvatures((0.5, 0.5))


def test_chart_and_parametric_routes_agree():
    charts = [
        SurfaceChart(Z_OVER_XY, lambda x, y: jets.exp(0.4 * x) * jets.sin(y + 0.3), UNIT),
        SurfaceChart(Z_OVER_XY, lambda x, y: x * x * y - y * y, UNIT),
        # slope in z stays positive on this window, matching the
        # orientation the parametrization by (y, z) induces
        SurfaceChart(
            X_OVER_YZ,
            lambda y, z: z * z * (1.0 + 0.2 * y),
            Rect((0.0, 1.0), (0.5, 1.5)),
        ),
    ]
    for chart in charts:
        r = as_parametric(chart)
        for p in chart.domain.shrunk(0.2).grid(4):
            direct = chart.curvatures(p)
            indirect = r.curvatures(p)
            assert abs(direct.K - indirect.K) <= 1e-12 * (1.0 + abs(direct.K)), (
                f"K mismatch at {p}: {direct.K} vs {indirect.K}"
            )
            assert abs(direct.H - indirect.H) <= 1e-12 * (1.0 + abs(direct.H)), (
                f"H mismatch at {p}: {direct.H} vs {indirect.H}"
            )


# motions ---------------------------------------------------------------


def test_motion_rotates_the_plane():
    got = apply_motion(Motion(angle=math.pi / 2.0), (1.0, 0.0, 0.0))
    want = (0.0, 1.0, 0.0)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15, f"rotation gave {got}"


def test_motion_shears_the_height():
    got = apply_motion(Motion(shear_x=1.0), (1.0, 2.0, 3.0))
    assert got == (1.0, 2.0, 4.0), f"shear gave {got}"


def test_motion_preserves_isotropic_distance():
    # The isotropic distance of two points is the planar distance of
    # their (x, y) projections.
    m = Motion(angle=0.9, tx=1.0, ty=-2.0, tz=5.0, shear_x=0.7, shear_y=-0.3)
    pts = [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (-0.5, 0.25, -4.0)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            ma, mb = apply_motion(m, a), apply_motion(m, b)
            before = math.hypot(a[0] - b[0], a[1] - b[1])
            after = math.hypot(ma[0] - mb[0], ma[1] - mb[1])
            assert abs(before - after) <= 1e-12, (
                f"distance {before} became {after} under {m.describe()}"
            )


def test_motion_preserves_curvatures_of_saddle():
    m = Motion(angle=math.pi / 3.0, tx=1.0, ty=-2.0, tz=5.0, shear_x=0.7, shear_y=-0.3)
    base = as_parametric(SurfaceChart(Z_OVER_XY, lambda x, y: x * y, UNIT))
    for p in UNIT.grid(5):
        r = base.jets(p)
        before = parametric_curvatures(r, p)
        after = parametric_curvatures(apply_motion(m, r), p)
        assert abs(before.K - after.K) <= 1e-9, f"K drifted at {p}: {before} {after}"
        assert abs(before.H - after.H) <= 1e-9, f"H drifted at {p}: {before} {after}"


def test_pure_translation_is_exact():
    m = Motion(tx=3.0, ty=-1.0, tz=2.0)
    base = as_parametric(
        SurfaceChart(Z_OVER_XY, lambda x, y: (x * x + y * y) * 0.5, UNIT)
    )
    for p in ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)):
        r = base.jets(p)
        before = parametric_curvatures(r, p)
        after = parametric_curvatures(apply_motion(m, r), p)
        assert (before.K, before.H) == (after.K, after.H), (
            f"translation changed curvature at {p}"
        )


motions = st.builds(
    Motion,
    angle=st.floats(0.0, 2.0 * math.pi),
    tx=st.floats(-2.0, 2.0),
    ty=st.floats(-2.0, 2.0),
    tz=st.floats(-2.0, 2.0),
    shear_x=st.floats(-1.0, 1.0),
    shear_y=st.floats(-1.0, 1.0),
)


@given(
    fid=st.sampled_from(sorted(MOTION_PATCHES)),
    m=motions,
    s=st.floats(0.0, 1.0),
    t=st.floats(0.0, 1.0),
)
def test_random_motions_preserve_curvatures(fid, m, s, t):
    base = MOTION_PATCHES[fid]
    inner = base.domain.shrunk(0.1)
    p = (inner.u[0] + s * (inner.u[1] - inner.u[0]), inner.v[0] + t * (inner.v[1] - inner.v[0]))
    r = base.jets(p)
    before = parametric_curvatures(r, p)
    after = parametric_curvatures(apply_motion(m, r), p)
    for name in ("K", "H"):
        a, b = getattr(before, name), getattr(after, name)
        assert unit_relative_difference(a, b) <= 1e-9, (
            f"{fid}: {name} {a!r} became {b!r} at {p} under {m.describe()}"
        )


# structural behavior ---------------------------------------------------


def test_height_scaling_laws():
    # Replacing w by c*w scales K by c^2 and H by c: both curvature
    # formulas are built from second derivatives of the height alone.
    def w(x, y):
        return jets.exp(0.3 * x) * jets.cos(0.5 * y) + x * y

    for c in (2.0, -3.0, 0.25):
        def scaled(x, y, c=c):
            return c * w(x, y)

        base = _one_point(monge_z_curvatures, w, (0.4, 0.7))
        big = _one_point(monge_z_curvatures, scaled, (0.4, 0.7))
        assert abs(big.K - c * c * base.K) <= 1e-12 * (1.0 + abs(big.K)), (
            f"K scaling broke for c={c}: {big.K} vs {c * c * base.K}"
        )
        assert abs(big.H - c * base.H) <= 1e-12 * (1.0 + abs(big.H)), (
            f"H scaling broke for c={c}: {big.H} vs {c * base.H}"
        )


def test_rect_grid_layout():
    r = Rect((0.0, 1.0), (10.0, 12.0))
    pts = r.grid(3)
    assert len(pts) == 9, f"3x3 grid has {len(pts)} points"
    assert pts[0] == (0.0, 10.0) and pts[-1] == (1.0, 12.0)
    # row-major: the second coordinate varies fastest
    assert pts[1] == (0.0, 11.0) and pts[3] == (0.5, 10.0), f"grid order: {pts[:4]}"
    assert r.center() == (0.5, 11.0)


def test_rect_contains_and_shrunk():
    r = Rect((0.0, 1.0), (0.0, 2.0))
    assert r.contains((0.5, 1.0))
    assert not r.contains((1.1, 1.0))
    assert not r.contains((0.999, 1.0), margin=0.01)
    inner = r.shrunk(0.25)
    assert inner.u == (0.25, 0.75) and inner.v == (0.5, 1.5), f"shrunk gave {inner}"
    assert r.as_json() == [[0.0, 1.0], [0.0, 2.0]]


def test_rect_grid_needs_two_points_per_side():
    with pytest.raises(ValueError):
        Rect((0.0, 1.0), (0.0, 1.0)).grid(1)


def test_rect_grid_refuses_a_step_that_is_not_finite():
    # A span wider than the largest float has an infinite step, and the
    # grid it gave left the rectangle: v = [nan, inf, inf, inf, inf].
    for rect in (
        Rect((0.0, 1e308), (-1e308, 1e308)),
        Rect((0.0, math.inf), (0.0, 1.0)),
        Rect((0.0, 1.0), (-math.inf, 0.0)),
        Rect((math.nan, 1.0), (0.0, 1.0)),
    ):
        with pytest.raises(ValueError, match="has a non-finite step"):
            rect.coordinates(5)
    # Finite spans keep lo + i*d, bit for bit.
    us, vs = Rect((0.0, 1e308), (-1e308, 0.0)).coordinates(5)
    assert us == [0.0, 2.5e307, 5e307, 7.5e307, 1e308]
    assert vs == [-1e308 + j * 2.5e307 for j in range(5)]


def test_chart_point3d_orientations():
    # point3d places the height that the chart's curvature route returns.
    over_xy = SurfaceChart(Z_OVER_XY, lambda x, y: x * y, UNIT)
    w = over_xy.curvatures((2.0, 3.0)).w
    assert w == 6.0
    assert over_xy.point3d((2.0, 3.0), w) == (2.0, 3.0, 6.0)
    assert over_xy.axes() == ("x", "y")
    over_yz = SurfaceChart(X_OVER_YZ, lambda y, z: y + z, UNIT)
    w = over_yz.curvatures((2.0, 3.0)).w
    assert w == 5.0
    assert over_yz.point3d((2.0, 3.0), w) == (5.0, 2.0, 3.0)
    assert over_yz.axes() == ("y", "z")


def test_point3d_evaluates_nothing():
    def height(x, y):
        raise AssertionError("point3d evaluated the height")

    chart = SurfaceChart(X_OVER_YZ, height, UNIT)
    assert chart.point3d((2.0, 3.0), -0.0) == (-0.0, 2.0, 3.0)


def test_as_parametric_puts_its_coordinates_in_point3d_order():
    for orientation in (Z_OVER_XY, X_OVER_YZ):
        chart = SurfaceChart(orientation, lambda P, Q: P * Q + 2.0 * P, UNIT)
        patch = as_parametric(chart)
        assert patch.domain == chart.domain
        height_slot = patch.z if orientation == Z_OVER_XY else patch.x
        assert height_slot is chart.height
        p = (0.25, 0.75)
        values = tuple(j.v for j in patch.jets(p))
        assert values == chart.point3d(p, chart.curvatures(p).w)


def test_curvature_pairs_compare_without_the_height():
    pair = _one_point(monge_z_curvatures, lambda x, y: x * y + 1.0, (2.0, 3.0))
    assert (pair.K, pair.H, pair.w) == (-1.0, 0.0, 7.0)
    assert pair == CurvaturePair(-1.0, 0.0) == CurvaturePair(-1.0, 0.0, 8.0)
    r = as_parametric(SurfaceChart(Z_OVER_XY, lambda x, y: x * y + 1.0, UNIT))
    assert r.curvatures((2.0, 3.0)).w is None


def test_curvature_pair_value_semantics():
    pair = CurvaturePair(-1.0, 0.0, 7.0)
    assert (pair.K, pair.H, pair.w) == (-1.0, 0.0, 7.0)
    assert CurvaturePair(K=-1.0, H=0.0, w=7.0) == pair
    assert CurvaturePair(-1.0, H=0.0).w is None
    assert CurvaturePair(-1.0, 0.0).w is None
    # Equality and hashing see K and H only; w takes no part.
    assert pair == CurvaturePair(-1.0, 0.0) == CurvaturePair(-1.0, 0.0, None)
    assert hash(pair) == hash(CurvaturePair(-1.0, 0.0, 8.0)) == hash((-1.0, 0.0))
    assert len({pair, CurvaturePair(-1.0, 0.0), CurvaturePair(-1.0, 0.5, 7.0)}) == 2
    assert pair != CurvaturePair(-1.0, 0.5, 7.0)
    assert pair != CurvaturePair(-2.0, 0.0, 7.0)
    assert pair != (-1.0, 0.0, 7.0)
    assert pair.__eq__((-1.0, 0.0)) is NotImplemented
    assert repr(pair) == "CurvaturePair(K=-1.0, H=0.0, w=7.0)"
    assert repr(CurvaturePair(0.5, -0.0)) == "CurvaturePair(K=0.5, H=-0.0, w=None)"
    assert CurvaturePair.__match_args__ == ("K", "H", "w")
    match pair:
        case CurvaturePair(K, H, w):
            assert (K, H, w) == (-1.0, 0.0, 7.0)
        case _:
            pytest.fail("CurvaturePair did not match positionally")
