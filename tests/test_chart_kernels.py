"""The chart's line kernels against their frozen per-point reference.

``monge_z_curvatures`` and ``monge_x_curvatures`` evaluate the height
once, on a Jet2 column over all their points, or point by point where
the column raises, and then apply the graph formula at each point.
``reference_charts`` holds the per-point routes they replaced.  Each
point must get what the reference gives it alone: the bits of K, H and
w, the text of the error the reference raises, or, where the
reference's K or H is not finite, a NaN pair.  Grid sampling runs the
same kernels one grid row at a time, and cross-validation runs them
once per surface, on the points that the specialized route kept.
"""

import math
import struct

import pytest

from isocurv import jets
from isocurv.catalog import build_family
from isocurv.factorable import TYPE1, TYPE2, AffineFactorable, as_chart, random_instance
from isocurv.geometry import (
    _EVAL_ERRORS,
    X_OVER_YZ,
    Z_OVER_XY,
    AdmissibilityError,
    Rect,
    SurfaceChart,
    _pairs,
)
from isocurv.jets import BranchDomainError
from isocurv.rng import SplitMix64
from isocurv.verify import cross_validate, sample_grid

import reference_charts

BOX = Rect((-1.0, 1.0), (-1.0, 1.0))
HALF_PI = math.pi / 2
NAN_PAIR = "NaN pair"


def _reference(chart, p):
    """The frozen route at p: packed K, H and w, an error's text, or NAN_PAIR."""
    route = (reference_charts.monge_z_curvatures, reference_charts.monge_x_curvatures)[
        chart.orientation == X_OVER_YZ]
    try:
        pair = route(chart.height, p)
    except _EVAL_ERRORS as err:
        return str(err)
    if math.isfinite(pair.K) and math.isfinite(pair.H):
        return struct.pack("<3d", pair.K, pair.H, pair.w)
    return NAN_PAIR


def _outcome(entry):
    if entry.__class__ is str:
        return entry
    if all(map(math.isnan, (entry.K, entry.H, entry.w))):
        return NAN_PAIR
    return struct.pack("<3d", entry.K, entry.H, entry.w)


def _takes_a_column(chart, points) -> bool:
    try:
        jets.eval_field_column(chart.height, [p[0] for p in points], [p[1] for p in points])
    except Exception:
        return False
    return True


def _assert_kernel_matches_reference(chart, points) -> list:
    """Compare the kernel's entries at points with the reference's; return the outcomes."""
    want = [_reference(chart, p) for p in points]
    got = [_outcome(e) for e in _pairs(chart.route, chart.height, points)]
    assert got == want
    return got


def _random_points(domain, count, seed):
    rng = SplitMix64(seed)
    (u_lo, u_hi), (v_lo, v_hi) = domain.u, domain.v
    return [(rng.uniform(u_lo, u_hi), rng.uniform(v_lo, v_hi)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_random_charts_take_a_column_with_each_points_reference_bits(kind, seed):
    chart = as_chart(random_instance(SplitMix64(seed), kind))
    points = _random_points(chart.domain, 60, seed) + [(0.0, -0.0), (-0.0, 0.0)]
    assert _takes_a_column(chart, points)
    got = _assert_kernel_matches_reference(chart, points)
    assert any(g.__class__ is bytes for g in got)


def test_the_integral_chart_is_evaluated_point_by_point_with_the_reference_bits():
    # Its height reads its argument's value, which a column does not have.
    chart = build_family("FS2.K.integral")
    points = chart.domain.grid(9)
    assert not _takes_a_column(chart, points)
    got = _assert_kernel_matches_reference(chart, points)
    assert all(g.__class__ is bytes for g in got)


@pytest.mark.parametrize("orientation", [Z_OVER_XY, X_OVER_YZ])
def test_a_tan_pole_excludes_its_points_with_the_reference_text(orientation):
    # tan takes no column, so the height is evaluated point by point.
    height = (lambda x, y: jets.tan(x) * y + x * x) if orientation == Z_OVER_XY else (
        lambda y, z: jets.tan(z) + y * y)
    chart = SurfaceChart(orientation, height, BOX)
    pole = HALF_PI
    first = [(pole, 0.5), (0.25, 0.5), (0.5, -0.75)]
    points = first if orientation == Z_OVER_XY else [(v, u) for u, v in first]
    points += [(0.125, 0.25), (pole, pole), (-0.0, 0.0)]
    assert not _takes_a_column(chart, points)
    got = _assert_kernel_matches_reference(chart, points)
    assert got[0].startswith("tan evaluated at 1.5707963267948966")
    assert got[1].__class__ is bytes


def test_a_slope_below_the_floor_excludes_its_point_with_the_admissibility_text():
    # w_z = y: below ADMISSIBILITY_EPS at y = 0.0, -0.0 and 5e-9; the
    # column takes the height, and the text names each point.
    chart = SurfaceChart(X_OVER_YZ, lambda y, z: y * z + y * y, BOX)
    points = [(0.5, 0.25), (0.0, 0.5), (-0.0, -0.5), (5e-9, 0.75), (-0.5, 0.125)]
    assert _takes_a_column(chart, points)
    got = _assert_kernel_matches_reference(chart, points)
    assert got[3] == "isotropic tangent plane: |w_z| = 5e-09 < 1e-08 at (5e-09, 0.75)"
    assert [g.__class__ for g in got] == [bytes, str, str, str, bytes]


def test_an_overflowing_K_gives_a_nan_pair_and_an_overflowing_height_its_text():
    # K = 2*e^x*e^y overflows at (600, 300) while each exp is finite; at
    # (800, 0) exp itself overflows, so the column raises and every point
    # is evaluated alone.
    chart = SurfaceChart(Z_OVER_XY, lambda x, y: 2.0 * jets.exp(x) + jets.exp(y), BOX)
    finite = [(0.5, 0.25), (600.0, 300.0), (-0.25, 0.75)]
    assert _takes_a_column(chart, finite)
    assert _assert_kernel_matches_reference(chart, finite)[1] == NAN_PAIR
    got = _assert_kernel_matches_reference(chart, finite + [(800.0, 0.0)])
    assert got[1] == NAN_PAIR and got[3] == "math range error"


@pytest.mark.parametrize("orientation", [Z_OVER_XY, X_OVER_YZ])
def test_subnormal_second_derivatives_keep_the_reference_grouping(orientation):
    # w_11 = w_22 = 5e-324, the least subnormal: 0.5 * (w_11 + w_22) is
    # 5e-324, where 0.5 * w_11 + 0.5 * w_22 rounds each half to 0.0.
    chart = SurfaceChart(
        orientation, lambda u, v: (u * u * 0.5 + v * v * 0.5) * 5e-324 + v, BOX
    )
    points = [(0.5, 0.25), (-0.75, 0.5)]
    assert _takes_a_column(chart, points)
    got = _assert_kernel_matches_reference(chart, points)
    if orientation == Z_OVER_XY:
        assert got[0] == struct.pack("<3d", 0.0, 5e-324, 0.25)


@pytest.mark.parametrize("surface", [
    lambda: build_family("FS2.K.integral"),
    lambda: as_chart(random_instance(SplitMix64(4), TYPE1)),
    lambda: as_chart(random_instance(SplitMix64(4), TYPE2)),
    lambda: SurfaceChart(
        X_OVER_YZ, lambda y, z: y + jets.tan(z), Rect((-0.5, 0.5), (-HALF_PI, HALF_PI))
    ),
], ids=["integral", "random type-1", "random type-2", "tan pole"])
def test_grid_rows_give_each_point_the_reference_outcome(surface):
    # The tan pole chart's first and last grid lines sit on a pole.
    chart = surface()
    n = 9
    run = sample_grid(chart, n=n)
    assert len(run.excluded) == (2 * n if chart.domain.v[1] == HALF_PI else 0)
    included = iter(zip(run.K, run.H, run.heights))
    texts = dict(run.excluded)
    for p in chart.domain.grid(n):
        want = _reference(chart, p)
        got = texts.get(p)
        if got is None:
            got = struct.pack("<3d", *next(included))
        elif got == "non-finite curvature value":
            got = NAN_PAIR
        assert got == want, p
    assert next(included, None) is None


def _guarded(t):
    # f(t) = t*t + 1 for t >= 0.  A negative argument is a branch error
    # for the profile jets, which the specialized route excludes, and a
    # ValueError, which no walk excludes, for the chart's Jet2s.
    column = t.__class__ in (jets.Col1, jets.Col2)
    values = t.vs if column else [t.v]
    if any(v < 0.0 for v in values):
        if t.__class__ in (jets.Jet1, jets.Col1):
            raise BranchDomainError("guarded", min(values), "a non-negative argument")
        raise ValueError("the chart saw a point that the specialized route excluded")
    return t * t + 1.0


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_cross_validate_never_evaluates_the_chart_at_an_excluded_point(kind):
    surface = AffineFactorable(kind, _guarded, lambda t: t * t + 2.0, 0.0, BOX)
    with pytest.raises(ValueError, match="the chart saw"):
        as_chart(surface).curvatures((-0.5, 0.5))
    report = cross_validate(surface, n_points=60, seed=3)
    assert report.passed and report.excluded_points and report.grid >= 4
    for (u, _), text in report.excluded_points:
        assert u < 0.0 and text.startswith("guarded evaluated at"), text


def test_a_chart_at_one_point_raises_admissibility_error_with_the_points_text():
    # SurfaceChart.curvatures passes one point to its kernel; any
    # exclusion, a branch error of the height included, is raised as an
    # AdmissibilityError with the text the reference's error has.
    chart = SurfaceChart(Z_OVER_XY, lambda x, y: jets.log(x) * y, BOX)
    with pytest.raises(BranchDomainError) as want:
        reference_charts.monge_z_curvatures(chart.height, (-0.5, 0.5))
    with pytest.raises(AdmissibilityError) as got:
        chart.curvatures((-0.5, 0.5))
    assert str(got.value) == str(want.value)
