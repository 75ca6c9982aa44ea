"""The patch's line kernel against its frozen per-point reference.

``parametric_curvatures`` reads a patch's coordinate jets over a column
of points, as ``ParametricSurface.coordinates`` evaluates them: a Jet2
column of each coordinate, or each point's jets or error text where a
coordinate's column raises.  ``reference_patches`` holds the per-point
route it replaced.  Each point must get what the reference gives it
alone: the bits of K and H, the text of the error the reference raises,
or, where the reference's K or H is not finite, a NaN pair.  The motion
check runs the kernel twice, on the base and the moved coordinates, and
grid sampling runs it once per grid row.
"""

import math
import struct

import pytest

from isocurv import jets, verify
from isocurv.catalog import build_family
from isocurv.factorable import TYPE1, TYPE2, as_chart, random_instance
from isocurv.geometry import (
    _EVAL_ERRORS,
    NON_FINITE,
    Motion,
    ParametricSurface,
    Rect,
    SurfaceChart,
    Z_OVER_XY,
    _pairs,
    apply_motion,
    as_parametric,
    parametric_curvatures,
)
from isocurv.rng import SplitMix64
from isocurv.verify import motion_invariance_check, sample_grid

import reference_patches

BOX = Rect((-1.0, 1.0), (-1.0, 1.0))
NAN_PAIR = "NaN pair"
MOTION = Motion(angle=0.7, tx=0.25, ty=-0.5, tz=1.5, shear_x=0.3, shear_y=-0.6)


def _reference(patch, p):
    """The frozen route at p: packed K and H, an error's text, or NAN_PAIR."""
    try:
        pair = reference_patches.parametric_curvatures(reference_patches.patch_jets(patch, p), p)
    except _EVAL_ERRORS as err:
        return str(err)
    if math.isfinite(pair.K) and math.isfinite(pair.H):
        return struct.pack("<2d", pair.K, pair.H)
    return NAN_PAIR


def _outcome(entry):
    if entry.__class__ is str:
        return entry
    assert entry.w is None or math.isnan(entry.w)
    if math.isnan(entry.K) and math.isnan(entry.H):
        return NAN_PAIR
    return struct.pack("<2d", entry.K, entry.H)


def _coordinates(patch, points):
    return patch.coordinates([p[0] for p in points], [p[1] for p in points])


def _assert_kernel_matches_reference(patch, points, columns: bool) -> list:
    """Compare the kernel's entries at points with the reference's; return the outcomes.

    ``columns`` says whether the coordinates take the column path (a
    tuple of three Jet2 columns) or the point fallback (a list).
    """
    r = _coordinates(patch, points)
    assert (r.__class__ is tuple) is columns
    want = [_reference(patch, p) for p in points]
    got = [_outcome(e) for e in _pairs(parametric_curvatures, r, points)]
    assert got == want
    return got


def _random_points(domain, count, seed):
    rng = SplitMix64(seed)
    (u_lo, u_hi), (v_lo, v_hi) = domain.u, domain.v
    return [(rng.uniform(u_lo, u_hi), rng.uniform(v_lo, v_hi)) for _ in range(count)]


def _patch(fid):
    surface = build_family(fid)
    return as_parametric(surface if isinstance(surface, SurfaceChart) else as_chart(surface))


@pytest.mark.parametrize("seed", range(1, 9))
@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_random_patches_take_columns_with_each_points_reference_bits(kind, seed):
    patch = as_parametric(as_chart(random_instance(SplitMix64(seed), kind)))
    points = _random_points(patch.domain, 60, seed) + [(0.0, -0.0), (-0.0, 0.0)]
    got = _assert_kernel_matches_reference(patch, points, columns=True)
    assert any(g.__class__ is bytes for g in got)


@pytest.mark.parametrize("fid", ["FS2.K.integral", "FS2.min.tan"])
def test_a_height_without_a_column_is_evaluated_point_by_point(fid):
    # FS2.K.integral's height reads its argument's value and FS2.min.tan's
    # profile takes tan: neither takes a column.
    patch = _patch(fid)
    got = _assert_kernel_matches_reference(patch, patch.domain.grid(9), columns=False)
    assert all(g.__class__ is bytes for g in got)


def test_a_degenerate_projection_excludes_its_point_with_a_text_that_names_it():
    # x_u*y_v - x_v*y_u = u: below ADMISSIBILITY_EPS at u = 0.0, -0.0 and 5e-9.
    patch = ParametricSurface(lambda u, v: u, lambda u, v: u * v, lambda u, v: u * u + v, BOX)
    points = [(0.5, 0.25), (0.0, 0.5), (-0.0, -0.5), (5e-9, 0.75), (-0.5, 0.125)]
    got = _assert_kernel_matches_reference(patch, points, columns=True)
    assert got[3] == (
        "planar projection degenerates: |x_u*y_v - x_v*y_u| = 5e-09 < 1e-08 at (5e-09, 0.75)"
    )
    assert [g.__class__ for g in got] == [bytes, str, str, str, bytes]


def test_a_det_g_that_rounds_to_zero_past_the_floor_keeps_the_division_text():
    # |x_u*y_v - x_v*y_u| is 1.0012e-8, above the floor, but g11*g22 -
    # g12^2 cancels to 0.0 where it should be about 1e-16: the division
    # by sqrt(det g) raises, and the point keeps that error's text.
    patch = ParametricSurface(
        lambda u, v: 1000.0 * u + 1000.0 * v, lambda u, v: 1000.0 * u + 1000.00000000001 * v,
        lambda u, v: u * v, BOX,
    )
    got = _assert_kernel_matches_reference(patch, [(0.5, 0.25), (-0.5, 0.0)], columns=True)
    with pytest.raises(ZeroDivisionError) as err:
        1.0 / 0.0
    assert got == [str(err.value)] * 2


@pytest.mark.parametrize("columns", [True, False], ids=["column", "point by point"])
def test_a_nan_height_gives_a_nan_pair(columns):
    # The column carries the constant NaN; reading x.v takes the fallback.
    if columns:
        height = lambda x, y: x * y * math.nan + x
    else:
        height = lambda x, y: x * y * (math.nan if x.v > 0.5 else 1.0)
    patch = as_parametric(SurfaceChart(Z_OVER_XY, height, BOX))
    points = [(0.25, 0.5), (0.75, -0.5), (-0.25, 0.125)]
    got = _assert_kernel_matches_reference(patch, points, columns=columns)
    assert got[1] == NAN_PAIR
    assert (got[0] == NAN_PAIR) is columns
    # The one-point adapter gives the NaN pair too, where it once gave K and H as computed.
    pair = patch.curvatures((0.75, -0.5))
    assert all(map(math.isnan, (pair.K, pair.H, pair.w)))


def test_the_one_point_adapter_raises_the_admissibility_text():
    patch = ParametricSurface(lambda u, v: u, lambda u, v: u * v, lambda u, v: v, BOX)
    with pytest.raises(Exception, match=r"planar projection degenerates: .* at \(0.0, 0.5\)"):
        patch.curvatures((0.0, 0.5))
    assert patch.curvatures((0.5, 0.25)).w is None


# the motion check and grid sampling -------------------------------------


def _reference_motion(patch, motion, n):
    """Each grid point's deviation or exclusion text, as the per-point check computed them.

    A K or H that is not finite on either side gives NaN.
    """
    deviations, excluded = [], []
    for p in patch.domain.grid(n):
        try:
            r = reference_patches.patch_jets(patch, p)
            before = reference_patches.parametric_curvatures(r, p)
            after = reference_patches.parametric_curvatures(apply_motion(motion, r), p)
        except _EVAL_ERRORS as err:
            excluded.append((p, str(err)))
            continue
        if all(map(math.isfinite, (before.K, before.H, after.K, after.H))):
            deviations.append(max(abs(before.K - after.K), abs(before.H - after.H)))
        else:
            deviations.append(math.nan)
    return deviations, excluded


def _reduced(monkeypatch, check):
    """The deviations and exclusions that ``check()`` hands to ``verify._reduce``."""
    seen = []
    reduce = verify._reduce

    def spy(values, *args, **report):
        seen.append((list(values), list(report["excluded_points"])))
        return reduce(values, *args, **report)

    monkeypatch.setattr(verify, "_reduce", spy)
    try:
        check()
    except ValueError as err:
        assert "non-finite sample" in str(err)
    (got,) = seen
    return got


@pytest.mark.parametrize("surface", [
    lambda: as_parametric(as_chart(random_instance(SplitMix64(11), TYPE1))),
    lambda: as_parametric(as_chart(random_instance(SplitMix64(11), TYPE2))),
    lambda: _patch("FS2.K.integral"),
    lambda: _patch("FS2.min.tan"),
    lambda: ParametricSurface(lambda u, v: u, lambda u, v: u * v, lambda u, v: u * u + v, BOX),
    lambda: as_parametric(SurfaceChart(
        Z_OVER_XY, lambda x, y: x * y * (math.nan if x.v > 0.5 else 1.0), BOX)),
], ids=["random type-1", "random type-2", "integral", "tan", "degenerate", "nan"])
def test_a_motion_check_gives_each_point_the_reference_deviation(surface, monkeypatch):
    patch = surface()
    got = _reduced(monkeypatch, lambda: motion_invariance_check(patch, MOTION, n=9))
    want = _reference_motion(patch, MOTION, 9)
    assert repr(got) == repr(want)


class _Counted:
    """``parametric_curvatures`` with a count of its calls and of the points it was given."""

    def __init__(self, monkeypatch):
        self.calls = self.points = 0
        monkeypatch.setattr(verify, "parametric_curvatures", self)

    def __call__(self, r, us, vs, columns):
        self.calls += 1
        self.points += len(us)
        return parametric_curvatures(r, us, vs, columns)


@pytest.mark.parametrize("fid", [None, "FS2.K.integral"], ids=["columns", "point by point"])
def test_a_motion_check_calls_the_kernel_twice(fid, monkeypatch):
    patch = as_parametric(as_chart(random_instance(SplitMix64(2), TYPE2))) if fid is None else (
        _patch(fid))
    kernel = _Counted(monkeypatch)
    motion_invariance_check(patch, MOTION, n=11)
    assert (kernel.calls, kernel.points) == (2, 2 * 11 * 11)


@pytest.mark.parametrize("fid", [None, "FS2.K.integral"], ids=["columns", "point by point"])
def test_a_patch_grid_calls_the_kernel_once_per_row_with_the_reference_outcomes(fid, monkeypatch):
    patch = as_parametric(as_chart(random_instance(SplitMix64(6), TYPE1))) if fid is None else (
        _patch(fid))
    n = 9
    kernel = _Counted(monkeypatch)
    run = sample_grid(patch, n=n)
    assert (kernel.calls, kernel.points) == (n, n * n)
    assert run.heights is None
    included = iter(zip(run.K, run.H))
    texts = dict(run.excluded)
    for p in patch.domain.grid(n):
        got = texts.get(p)
        if got is None:
            got = struct.pack("<2d", *next(included))
        elif got == NON_FINITE:
            got = NAN_PAIR
        assert got == _reference(patch, p), p
    assert next(included, None) is None


def test_a_patch_grid_excludes_degenerate_and_non_finite_points_with_their_texts():
    # y = u*v degenerates on u = 0, the middle grid line; z turns NaN on
    # the two lines u = 0.75 and u = 1.0.
    patch = ParametricSurface(
        lambda u, v: u, lambda u, v: u * v,
        lambda u, v: u * (math.nan if u.v > 0.5 else 1.0) + v * v, BOX,
    )
    n = 9
    run = sample_grid(patch, n=n)
    texts = [text for _, text in run.excluded]
    assert texts.count(NON_FINITE) == 2 * n
    assert sum(t.startswith("planar projection degenerates") for t in texts) == n
    assert len(run.K) == n * n - 3 * n
    assert all(_reference(patch, p) == text or text == NON_FINITE for p, text in run.excluded)


def test_the_column_path_gives_the_bits_of_the_point_path():
    # The same patch twice: once with coordinates that take a column, once
    # with a z that reads its value and so goes point by point.
    def z(u, v):
        return jets.exp(u) * jets.sin(v) + u * v

    def z_by_value(u, v):
        u.v  # a column has no value: AttributeError
        return z(u, v)

    fast = ParametricSurface(lambda u, v: u + 0.5 * v, lambda u, v: v - 0.25 * u, z, BOX)
    slow = fast.replace(z=z_by_value)
    points = BOX.grid(7)
    assert _coordinates(fast, points).__class__ is tuple
    assert _coordinates(slow, points).__class__ is list
    for r in (_coordinates(fast, points), _coordinates(slow, points)):
        for moved in (r, apply_motion(MOTION, r)):
            got = [_outcome(e) for e in _pairs(parametric_curvatures, moved, points)]
            assert all(g.__class__ is bytes for g in got)
    fast_moved = _pairs(parametric_curvatures, apply_motion(MOTION, _coordinates(fast, points)),
                        points)
    slow_moved = _pairs(parametric_curvatures, apply_motion(MOTION, _coordinates(slow, points)),
                        points)
    assert [_outcome(e) for e in fast_moved] == [_outcome(e) for e in slow_moved]


def test_apply_motion_moves_the_point_by_point_coordinates_and_keeps_their_texts():
    # sqrt leaves its branch where u + v < 0, and takes no column: the
    # coordinates come point by point, each point's jets or its text.
    patch = ParametricSurface(
        lambda u, v: u, lambda u, v: v, lambda u, v: jets.sqrt(u + v + 0.25), BOX)
    points = BOX.grid(5)
    r = _coordinates(patch, points)
    assert r.__class__ is list
    texts = [e for e in r if e.__class__ is str]
    assert texts and len(texts) < len(r)
    moved = apply_motion(MOTION, r)
    assert moved.__class__ is list and len(moved) == len(r)
    for e, got in zip(r, moved):
        if e.__class__ is str:
            assert got is e
        else:
            assert got == apply_motion(MOTION, e)
