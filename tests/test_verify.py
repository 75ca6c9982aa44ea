"""Unit tests for the verification layer: grids, reports, and cross-checks."""

import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isocurv import jets, verify
from isocurv.catalog import ParameterError, build_family, family_ids
from isocurv.factorable import (
    _BLOCK,
    _profile_jet,
    NON_FINITE,
    TYPE1,
    TYPE2,
    AffineFactorable,
    as_chart,
    grid_lines,
    is_planar,
    random_instance,
    regularity,
)
from isocurv.geometry import (
    AdmissibilityError,
    Motion,
    ParametricSurface,
    Rect,
    SurfaceChart,
    X_OVER_YZ,
    Z_OVER_XY,
    as_parametric,
)
from isocurv.jets import BranchDomainError
from isocurv.rng import SplitMix64
from isocurv.verify import (
    check_constancy,
    cross_validate,
    draw_nonplanar_type2,
    finite_difference_check,
    motion_invariance_check,
    ode_crosscheck,
    probe_instances,
    probe_nonexistence,
    sample_grid,
    unit_relative_difference,
    VerificationReport,
)

import reference_rk4
import reference_routes

UNIT = Rect((0.0, 1.0), (0.0, 1.0))


# constancy over plain values -------------------------------------------


def test_constancy_statistics_from_raw_values():
    report = check_constancy([1.0, 1.1, 1.0, 1.1], tol=1e-3)
    assert report.mean == 1.05, f"mean {report.mean}"
    assert abs(report.max_abs_deviation - 0.05) <= 1e-15, (
        f"deviation {report.max_abs_deviation}"
    )
    assert not report.passed, "a 0.05 spread cannot pass at tol 1e-3"


def test_the_mean_sums_left_to_right_on_every_interpreter():
    # 0.0 + 1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 1.0
    # and the mean 0.25.  From Python 3.12 on, the built-in sum compensates
    # and gives 2.0, a mean of 0.5, which moved pinned reports.
    assert check_constancy([1e16, 1.0, -1e16, 1.0]).mean == 0.25


def test_constancy_against_explicit_target():
    report = check_constancy([2.0, 2.0, 2.0, 2.0], target=2.0, tol=1e-12)
    assert report.passed and report.max_abs_deviation == 0.0


def test_constancy_needs_enough_samples():
    with pytest.raises(ValueError):
        check_constancy([1.0, 1.1], tol=1e-3)


def test_constancy_refuses_a_non_finite_sample():
    # max() drops a NaN that is not first, so this once passed with deviation 0.
    with pytest.raises(ValueError, match=r"index 2: nan"):
        check_constancy([1.0, 1.0, float("nan"), 1.0, 1.0], target=1.0)
    with pytest.raises(ValueError, match=r"index 4: -inf"):
        check_constancy([1.0, 1.0, 1.0, 1.0, float("-inf")])


def test_an_overflowing_sum_of_finite_samples_is_a_report_not_an_error():
    # Finiteness is read from the sum, and this one overflows with every
    # sample finite: the report says so with an infinite mean, and fails.
    report = check_constancy([1e308, 1e308, -1e308, -1e308])
    assert report.mean == math.inf and not report.passed
    assert report.max_abs_deviation == math.inf


def test_a_non_finite_sample_after_an_overflowed_sum_names_its_own_index():
    # The partial sum is already +inf at index 1; the -inf at index 3 is
    # the sample that is not finite, and NaN after it is its own index too.
    with pytest.raises(ValueError, match=r"index 3: -inf"):
        check_constancy([1e308, 1e308, 1.0, -math.inf])
    with pytest.raises(ValueError, match=r"index 4: nan"):
        check_constancy([1e308, 1e308, 1.0, 1.0, math.nan], target=1.0)


# Zeros of both signs, the smallest subnormal and normal, and the largest magnitudes.
EDGE_SAMPLES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1e308, -1e308
)
samples = st.one_of(st.sampled_from(EDGE_SAMPLES), st.floats(allow_nan=False, allow_infinity=False))


@given(
    values=st.lists(samples, min_size=4, max_size=12),
    center=st.one_of(st.none(), samples),
)
# All -0.0 about 0.0: the extremes give -0.0 where abs gives 0.0.
@example(values=[-0.0] * 4, center=0.0)
# The built-in sum of these, compensated from Python 3.12 on, is 1 ulp off
# the left-to-right sum that the mean documents.
@example(
    values=[2.3256309805954603e-125, 2.3256309805954603e-125, 7.083473774826914e-139,
            2.3256309805954603e-125],
    center=None,
)
def test_max_deviation_from_the_extremes_is_the_max_of_every_deviation(values, center):
    # The deviation comes from max(values) and min(values); it must be the
    # float that the max of every |v - center| gives, sign of zero included.
    report = check_constancy(values, target=center, tol=0.0)
    c = verify._sum_left_to_right(values) / len(values) if center is None else center
    want = max(abs(v - c) for v in values)
    assert report.max_abs_deviation.hex() == want.hex(), (values, center)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
def test_constancy_refuses_a_target_that_is_not_a_finite_number(bad):
    # A NaN or infinite target gave a failing report that could not be
    # serialized, and True passed as the target 1 and printed true.  The
    # target is refused before any sample is read: one sample is too few.
    for values in ([1.0] * 4, [1.0]):
        with pytest.raises(ValueError) as info:
            check_constancy(values, target=bad)
        assert str(info.value) == f"constancy check target must be a finite number, got {bad!r}"


def test_reports_never_serialize_nan():
    report = check_constancy([1.0, 1.0, 1.0, 1.0]).replace(target=float("nan"))
    with pytest.raises(ValueError):
        report.to_json()
    probe = probe_instances("afs2-minimal", draw_nonplanar_type2(1, seed=1), n=5)
    probe = probe.replace(min_stat=float("nan"))
    with pytest.raises(ValueError):
        probe.to_json()


def test_unit_relative_difference():
    assert unit_relative_difference(1.0, 1.0) == 0.0
    # near zero it behaves absolutely ...
    d_small = unit_relative_difference(0.0, 1e-12)
    assert abs(d_small - 1e-12) <= 1e-20, f"got {d_small}"
    # ... and for large values relatively
    d_large = unit_relative_difference(1e6, 1e6 + 1.0)
    assert abs(d_large - 1.0 / (1e6 + 2.0)) <= 1e-18, f"got {d_large}"


# grid sampling ----------------------------------------------------------


def test_sample_grid_covers_the_domain():
    chart = SurfaceChart(Z_OVER_XY, lambda x, y: x * y, UNIT)
    run = sample_grid(chart, n=5, subject="saddle")
    assert run.points == tuple(UNIT.grid(5)) and not run.excluded
    assert run.values("K") == [-1.0] * 25
    assert run.values("H") == [0.0] * 25
    assert tuple(run.heights) == tuple(x * y for x, y in run.points)


@pytest.mark.parametrize("n", [2.5, 3.0, True], ids=["fraction", "float", "bool"])
def test_grids_refuse_a_size_that_is_not_an_integer(n):
    # 2.5 and 3.0 once raised TypeError from range(), and True read
    # "grid needs n >= 2".
    surface = build_family("FS2.min.ratio")
    checks = [
        lambda: sample_grid(surface, n=n),
        lambda: sample_grid(as_chart(surface), n=n),
        lambda: probe_instances("afs2-minimal", [surface], n=n),
        lambda: motion_invariance_check(surface, Motion(0.3, 0.1, 0.2, 0.4, 0.5, 0.6), n=n),
    ]
    for check in checks:
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == f"grid needs an integer n, got {n!r}"


def test_sample_grid_records_exclusions_with_reasons():
    # The z slope vanishes along z = 0, so the middle grid line of this
    # sideways chart is inadmissible and must be excluded, not crash.
    chart = SurfaceChart(X_OVER_YZ, lambda y, z: z * z, Rect((0.0, 1.0), (-0.5, 0.5)))
    run = sample_grid(chart, n=5, subject="fold")
    assert len(run.excluded) == 5, f"{len(run.excluded)} exclusions"
    assert len(run.points) == len(run.K) == len(run.H) == len(run.heights) == 20
    for point, reason in run.excluded:
        assert point[1] == 0.0 and reason, f"unexpected exclusion {point}: {reason}"


def test_sample_grid_excludes_a_non_finite_curvature_on_a_chart():
    # The height turns NaN for x > 0.5 without raising, so K and H do too.
    chart = SurfaceChart(Z_OVER_XY, lambda x, y: x * y * (math.nan if x.v > 0.5 else 1.0), UNIT)
    run = sample_grid(chart, n=5)
    ys = UNIT.coordinates(5)[1]
    assert run.excluded == tuple(((x, y), NON_FINITE) for x in (0.75, 1.0) for y in ys)
    assert run.values("K") == [-1.0] * 15
    with pytest.raises(ValueError, match="^unknown quantity 'X'$"):
        run.values("X")


def _stored_points(run):
    """The points column as sample_grid once stored it: the grid less the excluded points."""
    excluded = {p for p, _ in run.excluded}
    return tuple(p for p in run.domain.grid(run.n) if p not in excluded)


def test_grid_points_are_rebuilt_from_the_grid_and_the_exclusions():
    fold = SurfaceChart(X_OVER_YZ, lambda y, z: z * z, Rect((0.0, 1.0), (-0.5, 0.5)))
    ratio = build_family("FS2.min.ratio")
    # The refusal domain of the ratio export puts grid nodes on y = 0.
    runs = [sample_grid(fold, n=5), sample_grid(ratio, Rect((-0.5, 0.5), (0.5, 1.5)), n=5)]
    assert all(run.excluded for run in runs)
    runs += [sample_grid(build_family(fid)) for fid in family_ids()]
    assert len(runs) == 32
    for run in runs:
        points = run.points
        assert points == _stored_points(run), run.subject
        assert len(points) == len(run.K) == len(run.H) == len(run.heights), run.subject
        assert len(points) + len(run.excluded) == run.n * run.n, run.subject


def test_grid_columns_are_arrays_and_a_patch_has_no_heights():
    chart = SurfaceChart(Z_OVER_XY, lambda x, y: x * y, UNIT)
    patch = ParametricSurface(lambda u, v: u, lambda u, v: v, lambda u, v: u * v, UNIT)
    graph, param = sample_grid(chart, n=5), sample_grid(patch, n=5)
    assert param.heights is None and graph.heights.typecode == "d"
    assert param.K == graph.K and param.H == graph.H and param.points == graph.points
    assert all(column.typecode == "d" for column in (graph.K, graph.H, param.K, param.H))
    with pytest.raises(TypeError, match="unhashable"):
        hash(graph)


@pytest.mark.parametrize("fid", ["AFS1.K.saddle", "FS2.K.integral"])
def test_sample_grid_holds_its_columns_packed(fid):
    # K, H and the heights are packed 8-byte floats and no included point
    # is stored, so sample_grid peaks at about 25-35 B per grid point
    # here.  A tuple of boxed floats per column peaked at about 125 B, a
    # stored (u, v) per point at about 95 B, and both at about 190 B.
    # The family is built outside the traced call: its quadrature table
    # is not grid memory.
    surface = build_family(fid)
    n = 101
    tracemalloc.start()
    try:
        run = sample_grid(surface, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(run.K) == n * n
    assert peak <= 64 * n * n, f"{fid}: sample_grid peaked at {peak / (n * n):.1f} B per point"


def test_sample_grid_excludes_an_infinite_trig_argument():
    # Every grid coordinate is finite, but the sheared argument y + a*x
    # = y - x of AFS1.min.osc overflows to +inf at every point (f1 =
    # exp(x) is 0 there); cos there is an exclusion with its reason,
    # not an abort.
    surface = build_family("AFS1.min.osc", a=-1.0)
    rect = Rect((-1e308, -5e307), (1.5e308, 1.7e308))
    run = sample_grid(surface, domain=rect, n=5)
    assert len(run.excluded) == 25 and not run.points
    reasons = {reason for _, reason in run.excluded}
    assert "cos evaluated at inf: requires a finite argument" in reasons, reasons
    with pytest.raises(ValueError, match="needs at least 4 included samples"):
        check_constancy(run, target=0.0, quantity="H")


# the row and column walk of sample_grid ---------------------------------


def _plain_grid(surface, n):
    """sample_grid without its walk by grid lines: one reference route call per point."""
    samples, excluded = [], []
    for p in surface.domain.grid(n):
        try:
            pair = reference_routes.curvatures(surface, p)
        except (AdmissibilityError, BranchDomainError, ZeroDivisionError, OverflowError) as err:
            excluded.append((p, str(err)))
            continue
        if not (math.isfinite(pair.K) and math.isfinite(pair.H)):
            excluded.append((p, "non-finite curvature value"))
            continue
        samples.append((p, pair.K, pair.H, pair.w))
    return samples, excluded


def _grid_bits(samples, excluded):
    pack = struct.Struct("<5d").pack
    return (
        [pack(p[0], p[1], K, H, w) for p, K, H, w in samples],
        [(struct.pack("<2d", *p), reason) for p, reason in excluded],
    )


def _assert_walk_matches_point_loop(surface, n, what) -> int:
    """Compare sample_grid with the plain loop; return the exclusion count."""
    run = sample_grid(surface, n=n)
    got = _grid_bits(zip(run.points, run.K, run.H, run.heights), run.excluded)
    want = _grid_bits(*_plain_grid(surface, n))
    assert got == want, f"{what}: sample_grid differs from the per-point loop"
    return len(run.excluded)


def _route_grid(surface, n):
    """Each grid point's ``surface.curvatures`` in grid order: packed bits or an exclusion text."""
    out = []
    for p in surface.domain.grid(n):
        try:
            pair = surface.curvatures(p)
        except (AdmissibilityError, BranchDomainError, ZeroDivisionError, OverflowError) as err:
            out.append((p, str(err)))
            continue
        if not (math.isfinite(pair.K) and math.isfinite(pair.H)):
            out.append((p, "non-finite curvature value"))
        elif pair.w is None:
            out.append((p, struct.pack("<2d", pair.K, pair.H)))
        else:
            out.append((p, struct.pack("<3d", pair.K, pair.H, pair.w)))
    return out


def _sampled_grid(run):
    """sample_grid's run in the layout of :func:`_route_grid`."""
    excluded = dict(run.excluded)
    included = iter(range(len(run.K)))
    out = []
    for p in run.domain.grid(run.n):
        if p in excluded:
            out.append((p, excluded[p]))
            continue
        i = next(included)
        values = (run.K[i], run.H[i]) + (() if run.heights is None else (run.heights[i],))
        out.append((p, struct.pack(f"<{len(values)}d", *values)))
    return out


def test_sample_grid_is_the_route_of_each_point_on_charts_and_patches():
    ratio = SurfaceChart(X_OVER_YZ, lambda y, z: z / y, Rect((-0.5, 0.5), (0.5, 1.5)))
    fold = SurfaceChart(X_OVER_YZ, lambda y, z: z * z, Rect((0.0, 1.0), (-0.5, 0.5)))
    bump = SurfaceChart(Z_OVER_XY, lambda x, y: jets.exp(x) * jets.sin(y) / (1.0 + x * x), UNIT)
    # The planar Jacobian of (u*v, v) is v, so the v = 0 line degenerates.
    sheet = ParametricSurface(
        lambda u, v: u * v,
        lambda u, v: v,
        lambda u, v: u * u / (2.0 - v),
        Rect((0.5, 1.5), (-0.5, 0.5)),
    )
    cases = [
        (ratio, 5), (fold, 5), (bump, 9), (sheet, 5),
        (build_family("FS2.K.integral"), 9),
        (as_chart(build_family("AFS1.min.osc")), 9),
        (as_parametric(fold), 5),
    ]
    for surface, n in cases:
        run = sample_grid(surface, n=n)
        assert _sampled_grid(run) == _route_grid(surface, n), run.subject
    # One grid line of each of these three is excluded, and nothing else.
    for surface, text in (
        (ratio, "jet division by 0.0: |denominator| < 1e-300"),
        (fold, "isotropic tangent plane: |w_z| = 0 < 1e-08 at (0.0, 0.0)"),
        (sheet, "planar projection degenerates"),
    ):
        excluded = sample_grid(surface, n=5).excluded
        assert len(excluded) == 5 and excluded[0][1].startswith(text), excluded[:1]


def test_sample_grid_is_bit_exact_on_every_product_family():
    surfaces = {fid: build_family(fid) for fid in family_ids()}
    products = {f: s for f, s in surfaces.items() if isinstance(s, AffineFactorable)}
    assert len(products) == 29
    for fid, surface in products.items():
        _assert_walk_matches_point_loop(surface, 41, fid)


def test_sample_grid_is_bit_exact_on_random_instances():
    excluded = 0
    for seed in range(40):
        for kind in (TYPE1, TYPE2):
            inst = random_instance(SplitMix64(seed), kind)
            excluded += _assert_walk_matches_point_loop(inst, 15, f"seed {seed} {kind}")
    assert excluded > 0, "no draw exercised an exclusion"


def test_sample_grid_stays_bounded_under_a_generic_shear():
    # y + a*x takes a new value at nearly every point for this a, so a
    # memo that kept each jet would hold n^2 of them: about 2.3x the
    # plain loop's peak at this n.
    surface = build_family("AFS1.K.saddle", a=0.7317)
    n = 61
    peaks = []
    for sample in (lambda: _plain_grid(surface, n), lambda: sample_grid(surface, n=n)):
        tracemalloc.start()
        try:
            result = sample()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del result
    plain, memo = peaks
    assert memo <= 1.25 * plain, f"sample_grid peaked at {memo} B, the plain loop at {plain} B"
    _assert_walk_matches_point_loop(surface, n, "AFS1.K.saddle a=0.7317")


@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_sample_grid_excludes_an_overflowing_square_as_the_route_does(kind, a):
    # f = 1 + 1e-100*sin(1e200*t^2) stays near 1 while f' = 2e100*t*cos(...)
    # reaches 1e100: f1'*f2' is finite and its square overflows, but the
    # other squares of the routes, (f1'*f2)^2 and (f1*f2')^2, do not.
    # Float ** raises OverflowError there, where x * x would give inf and
    # a "non-finite" exclusion instead, so the line kernels must square
    # as the per-point routes do.
    def steep(t):
        return 1e-100 * jets.sin(1e200 * t * t) + 1.0

    surface = AffineFactorable(kind, steep, steep, a, Rect((-1.0, 1.0), (-1.0, 1.0)))
    run = sample_grid(surface, n=5)
    reasons = {reason.partition(" = ")[0] for _, reason in run.excluded}
    assert "(34, 'Numerical result out of range')" in reasons, reasons
    assert "non-finite curvature value" in reasons, reasons
    if kind == TYPE2:
        assert "type-2 regularity |a*f1'*f2 + f1*f2'|" in reasons, reasons
    _assert_walk_matches_point_loop(surface, 5, f"{kind} a={a}")


OVERFLOW = "(34, 'Numerical result out of range')"


def _steep(t):
    # The profile of the test above: f1'*f2' is finite and its square overflows.
    return 1e-100 * jets.sin(1e200 * t * t) + 1.0


@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_curvatures_raise_an_overflowing_square_as_an_admissibility_error(kind, a):
    # The reference route lets the OverflowError of float ** through; the
    # package's route is the line kernel on one point, which records the
    # error's text, and raises it as an AdmissibilityError.
    surface = AffineFactorable(kind, _steep, _steep, a, Rect((-1.0, 1.0), (-1.0, 1.0)))
    overflowing = [p for p, reason in sample_grid(surface, n=5).excluded if reason == OVERFLOW]
    assert overflowing
    for p in overflowing:
        with pytest.raises(OverflowError):
            reference_routes.curvatures(surface, p)
        with pytest.raises(AdmissibilityError) as info:
            surface.curvatures(p)
        assert str(info.value) == OVERFLOW


def _same_bits(got: tuple, want: list) -> bool:
    pack = struct.Struct(f"<{len(want)}d").pack
    return len(got) == len(want) and pack(*got) == pack(*want)


def test_grid_heights_are_the_chart_heights_on_every_family():
    # sample_grid keeps the height each route computed, and grid exports
    # place it: on every family it must be the very float that the
    # chart's height jet carries at that point.
    for fid in family_ids():
        surface = build_family(fid)
        chart = as_chart(surface) if isinstance(surface, AffineFactorable) else surface
        run = sample_grid(surface)
        want = [jets.eval_field(chart.height, *p).v for p in run.points]
        assert run.points and _same_bits(run.heights, want), f"{fid}: heights differ"


def _counting(profile, counter, slot):
    # Counts evaluated arguments: a column, of Jet1s or Jet2s, counts its length.
    def counted(t):
        counter[slot] += len(t.vs) if t.__class__ in (jets.Col1, jets.Col2) else 1
        return profile(t)

    return counted


#: The catalog's plain product families: a = 0, so no argument is sheared.
_UNSHEARED_PRODUCTS = [
    fid
    for fid in family_ids()
    if isinstance(surface := build_family(fid), AffineFactorable) and surface.shear == 0.0
]


@pytest.mark.parametrize("fid", _UNSHEARED_PRODUCTS)
def test_sample_grid_evaluates_each_profile_once_per_argument(fid):
    # One Jet1 per grid argument: a walk that tried a column first would
    # evaluate a tan, sqrt or power profile twice over.
    surface = build_family(fid)
    assert surface.shear == 0.0
    calls = [0, 0]
    counted = surface.replace(
        factor1=_counting(surface.factor1, calls, 0),
        factor2=_counting(surface.factor2, calls, 1),
    )
    run = sample_grid(counted, n=41)
    assert len(run.points) + len(run.excluded) == 41 * 41
    assert calls == [41, 41], f"profile evaluations {calls} on a 41x41 grid"
    assert run == sample_grid(surface, n=41)


def test_sample_grid_under_a_unit_shear_evaluates_no_more_than_the_memo_did():
    # y + x repeats along the diagonals of this square grid, so its jets
    # are kept once one repeats: 41 evaluations of f1 and 126 of
    # f2(y + x), the count of the per-point memo the grid walk replaced.
    surface = build_family("AFS1.K.saddle")
    assert surface.shear == 1.0
    calls = [0, 0]
    counted = surface.replace(
        factor1=_counting(surface.factor1, calls, 0),
        factor2=_counting(surface.factor2, calls, 1),
    )
    run = sample_grid(counted, n=41)
    assert calls[0] == 41 and sum(calls) <= 167, f"profile evaluations {calls} on a 41x41 grid"
    assert run == sample_grid(surface, n=41)


def _log_text(t: float) -> str:
    with pytest.raises(BranchDomainError) as info:
        jets.eval_profile(jets.log, t)
    return str(info.value)


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_sample_grid_evaluates_a_raising_argument_once_per_grid_line(kind):
    # log raises on each grid line whose coordinate is negative, for f1
    # and for f2: 3 of the 9 rows and 3 of the 9 columns, and no grid
    # line sits at 1.0, where log is 0.  Where both raise, the exclusion
    # names f1's argument, as the per-point route does.
    calls = [0, 0]
    surface = AffineFactorable(
        kind,
        _counting(jets.log, calls, 0),
        _counting(jets.log, calls, 1),
        0.0,
        Rect((-1.0, 2.0), (-1.0, 2.0)),
    )
    n = 9
    run = sample_grid(surface, n=n)
    assert calls == [n, n], f"profile evaluations {calls} on a {n}x{n} grid"
    assert len(run.excluded) == n * n - 6 * 6
    for p, reason in run.excluded:
        u1, u2 = surface.profile_arguments(p)
        assert reason == _log_text(u1 if u1 < 0.0 else u2), f"{p}: {reason}"
    assert _assert_walk_matches_point_loop(surface, n, kind) == len(run.excluded)


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_a_raising_profile_costs_one_point_pass_in_a_grid_walk(kind):
    # sqrt raises on the grid lines whose coordinate is negative.  A grid
    # walk without a shear evaluates no column, so each profile costs one
    # evaluation per grid argument, n in all, and gives the per-point texts.
    n = 11
    calls = [0, 0]
    surface = AffineFactorable(
        kind,
        _counting(jets.sqrt, calls, 0),
        _counting(jets.sqrt, calls, 1),
        0.0,
        Rect((-1.0, 2.0), (-1.0, 2.0)),
    )
    run = sample_grid(surface, n=n)
    assert calls == [n, n], f"profile evaluations {calls} on a {n}x{n} grid"
    assert run.excluded and run.points
    assert _assert_walk_matches_point_loop(surface, n, kind) == len(run.excluded)


class _GivenColumns:
    """A domain stand-in whose grid columns are given as they are, finite or not."""

    def __init__(self, us, vs):
        self.us, self.vs = us, vs

    def coordinates(self, n):
        return self.us, self.vs

    def grid(self, n):
        return [(u, v) for u in self.us for v in self.vs]


def test_sample_grid_keeps_a_non_finite_shear_product():
    # 0 * inf is nan, so with a = 0 the sheared argument y + a*x is nan,
    # not y, on a grid line whose x is infinite or nan.  A profile that
    # refuses a non-finite argument must be refused there, as it is on
    # the per-point route, and not evaluated at y.  Rect.coordinates
    # refuses such a grid (its step over 0..inf is inf), so the walk is
    # handed the columns that it once gave: nan, then inf.
    def finite_only(t):
        if not math.isfinite(t.v):
            raise BranchDomainError("finite_only", t.v, "a finite argument")
        return t * t + 1.0

    line = [math.nan] + [math.inf] * 4
    finite = UNIT.coordinates(5)[0]
    for kind, f1, f2, domain in (
        (TYPE1, lambda t: 1.0, finite_only, _GivenColumns(line, finite)),
        (TYPE2, finite_only, lambda t: t, _GivenColumns(finite, line)),
    ):
        surface = AffineFactorable(kind, f1, f2, 0.0, domain)
        with pytest.raises(ValueError, match="non-finite step"):
            sample_grid(surface, domain=Rect((0.0, math.inf), (0.0, math.inf)), n=5)
        run = sample_grid(surface, n=5)
        assert any("finite_only" in reason for _, reason in run.excluded), run.excluded
        # Every point is excluded here, so the walk and the per-point
        # loop agree when their exclusions do.
        samples, excluded = _plain_grid(surface, 5)
        assert not samples and not run.K
        assert _grid_bits([], run.excluded) == _grid_bits([], excluded), kind


def _signed(seen):
    # t + sign(t): tells -0.0 from 0.0, and records the sign of each zero.
    def profile(t):
        if t.v == 0.0:
            seen.add(math.copysign(1.0, t.v))
        return t + math.copysign(1.0, t.v)

    return profile


@pytest.mark.parametrize("a", [0.0, -0.0, 0.5])
@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_sample_grid_keeps_signed_zeros_apart(kind, a):
    # A reversed interval from -0.0 starts at -0.0 + 0 * d = -0.0.  On
    # that grid line y + a*x is -0.0 where a*x is -0.0 and 0.0 where a*x
    # is 0.0, so a walk that evaluated the sheared profile at y alone,
    # or keyed its jets by a float that merges the zeros, would flip H
    # on half of the line.  A forward interval from -0.0 starts at 0.0.
    seen = set()
    for domain in (Rect((-1.0, 1.0), (-0.0, -1.0)), Rect((-0.0, 1.0), (-0.0, 1.0))):
        if kind == TYPE2:
            domain = Rect(domain.v, domain.u)
        f1, f2 = _signed(seen), _signed(seen)
        surface = AffineFactorable(kind, f1, f2, a, domain)
        _assert_walk_matches_point_loop(surface, 5, f"{kind} a={a!r} over {domain}")
    if a == 0.0:
        assert seen == {1.0, -1.0}, f"zeros seen: {seen}"


def _tally(profile, tally):
    # Counts [columns, their arguments, single points] of the Jet1 evaluations.
    def counted(t):
        if t.__class__ is jets.Col1:
            tally[0] += 1
            tally[1] += len(t.vs)
        else:
            tally[2] += 1
        return profile(t)

    return counted


def _tallied(kind, sheared, fixed, a, domain):
    """A surface whose sheared profile is ``sheared``, with a tally of each profile's evaluations."""
    tallies = [0, 0, 0], [0, 0, 0]
    f1, f2 = (fixed, sheared) if kind == TYPE1 else (sheared, fixed)
    surface = AffineFactorable(kind, f1, f2, a, domain)
    counted = surface.replace(factor1=_tally(f1, tallies[0]), factor2=_tally(f2, tallies[1]))
    return surface, counted, tallies[::-1] if kind == TYPE1 else tallies


def _blocks(n: int) -> int:
    """The column blocks of whole grid lines, about _BLOCK arguments each, over n lines."""
    per_block = max(1, _BLOCK // n)
    return -(-n // per_block)


#: Profiles of the random generator's kinds, which a column carries.
_COLUMN_PROFILES = {
    "exp": lambda t: jets.exp(0.8 * t),
    "sin": lambda t: jets.sin(1.1 * t) + 2.0,
    "poly": lambda t: (0.3 * t - 0.5) * t + 2.0,
}


@pytest.mark.parametrize("n", [2, 11, 37, 41])
@pytest.mark.parametrize("a", [0.37, -1.3])
@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
@pytest.mark.parametrize("name", sorted(_COLUMN_PROFILES))
def test_a_generic_shear_evaluates_each_argument_once_in_column_blocks(name, kind, a, n):
    # No sheared argument of the first two grid lines repeats under
    # these shears, so the grid lines go through columns of whole lines,
    # about _BLOCK arguments each; at n = 37 and 41 a block ends
    # mid-grid.  Each sheared argument is evaluated once, on a column,
    # and the unsheared profile once per grid line, as a Jet1.
    fixed = _COLUMN_PROFILES["exp" if name == "sin" else "sin"]
    square = Rect((-0.5, 0.5), (-0.5, 0.5))
    surface, counted, (sheared, unsheared) = _tallied(
        kind, _COLUMN_PROFILES[name], fixed, a, square
    )
    run = sample_grid(counted, n=n)
    assert sheared == [_blocks(n), n * n, 0], f"sheared evaluations {sheared}"
    assert unsheared == [0, 0, n], f"unsheared evaluations {unsheared}"
    assert run == sample_grid(surface, n=n)
    _assert_walk_matches_point_loop(surface, n, f"{name} {kind} a={a} n={n}")


@pytest.mark.parametrize("a", [0.37, -1.3])
@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
@pytest.mark.parametrize(
    "profile",
    [jets.log, jets.sqrt, lambda t: jets.exp(800.0 * t)],
    ids=["log", "sqrt", "exp-overflow"],
)
def test_a_block_that_raises_is_evaluated_point_by_point(profile, kind, a):
    # log and sqrt raise where a sheared argument is negative, and on any
    # column; exp(800*t) takes a column, and overflows where t > 0.89.
    # Each raises on part of the grid, so a block that raises costs one
    # failed column, and its arguments then get their own Jet1 or text.
    n = 37
    domain = Rect((-1.0, 2.0), (-1.0, 2.0))
    surface, counted, (sheared, _) = _tallied(kind, profile, jets.exp, a, domain)
    run = sample_grid(counted, n=n)
    assert sheared[:2] == [_blocks(n), n * n] and 0 < sheared[2] <= n * n, sheared
    assert run.excluded and run.points
    assert run == sample_grid(surface, n=n)
    _assert_walk_matches_point_loop(surface, n, f"{kind} a={a}")


@pytest.mark.parametrize("a", [0.37, -1.3])
@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_a_column_block_keeps_a_signed_zero(kind, a):
    # A reversed interval from -0.0 starts at -0.0, so the first sheared
    # argument is -0.0 + a*(-0.0): -0.0 for a > 0 and 0.0 for a < 0.
    # sin keeps that sign in its value, and with it in the height.
    zeros = []

    def sine(t):
        if t.__class__ is jets.Col1:
            zeros.extend(math.copysign(1.0, v) for v in t.vs if v == 0.0)
        return jets.sin(t)

    n = 11
    domain = Rect((-0.0, -1.0), (-0.0, -1.0))
    surface, counted, (sheared, _) = _tallied(kind, sine, jets.exp, a, domain)
    run = sample_grid(counted, n=n)
    assert sheared == [_blocks(n), n * n, 0], sheared
    assert zeros == [-math.copysign(1.0, a)], zeros
    assert run == sample_grid(surface, n=n)
    _assert_walk_matches_point_loop(surface, n, f"{kind} a={a}")


def test_a_generic_shear_walks_a_401_grid_in_bounded_memory():
    # Blocks of about _BLOCK arguments keep the walk at O(n + _BLOCK)
    # jets: about 0.45 MB here, where a column over the whole grid would
    # hold 401^2 arguments, more than 10 MB.
    n = 401
    surface = build_family("AFS2.flat.exp", a=0.37)
    tally = [0, 0, 0]
    counted = surface.replace(factor1=_tally(surface.factor1, tally))
    us, vs = surface.domain.coordinates(n)
    tracemalloc.start()
    try:
        rows = sum(1 for _ in grid_lines(counted, us, vs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == n and tally == [_blocks(n), n * n, 0], tally
    assert peak < 2_000_000, f"a {n}x{n} grid walk peaked at {peak} B"


def test_cross_validate_evaluates_type2_profiles_once_per_point():
    # reg = e^u * (a*(z + 2) + 1) >= 1.75 * e^u on this square: no
    # point is skipped, so each one runs the specialized route and the
    # chart, which calls the profiles itself.
    calls = [0, 0]
    inst = AffineFactorable(
        TYPE2,
        _counting(jets.exp, calls, 0),
        _counting(lambda t: t + 2.0, calls, 1),
        0.5,
        Rect((-0.5, 0.5), (-0.5, 0.5)),
    )
    report = cross_validate(inst, n_points=20, seed=3)
    assert report.grid == 20 and not report.excluded_points
    assert calls == [40, 40], f"profile evaluations {calls} for 20 points"


def _counting_jet1s(profile, counter, slot):
    # As _counting, but leaves out the chart route's Jet2s and Jet2 columns.
    def counted(t):
        if t.__class__ is not jets.Jet2 and t.__class__ is not jets.Col2:
            counter[slot] += len(t.vs) if t.__class__ is jets.Col1 else 1
        return profile(t)

    return counted


def _profile_jets_point_by_point(instance, points):
    # profile_columns with one evaluation per point and profile.
    args = [instance.profile_arguments(p) for p in points]
    return (
        [_profile_jet(instance.factor1, u1) for u1, _ in args],
        [_profile_jet(instance.factor2, u2) for _, u2 in args],
    )


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_cross_validate_evaluates_each_profile_once_as_a_column(kind, monkeypatch):
    # A random instance's profiles take a column: one pass over the n
    # points each.  sqrt takes none, so a sqrt x sqrt instance costs a
    # column pass that raises and a point pass, 2n, and its report is
    # the one that point-by-point profile jets give.
    n = 40
    calls = [0, 0]
    drawn = random_instance(SplitMix64(11), kind)
    counted = drawn.replace(
        factor1=_counting_jet1s(drawn.factor1, calls, 0),
        factor2=_counting_jet1s(drawn.factor2, calls, 1),
    )
    report = cross_validate(counted, n_points=n, seed=5)
    assert calls == [n, n], f"profile evaluations {calls} for {n} points"
    assert report == cross_validate(drawn, n_points=n, seed=5)

    calls = [0, 0]
    surface = AffineFactorable(
        kind,
        _counting_jet1s(jets.sqrt, calls, 0),
        _counting_jet1s(jets.sqrt, calls, 1),
        0.0,
        Rect((-1.0, 2.0), (-1.0, 2.0)),
    )
    report = cross_validate(surface, n_points=n, seed=5)
    assert calls == [2 * n, 2 * n], f"profile evaluations {calls} for {n} points"
    assert report.excluded_points and report.grid
    monkeypatch.setattr(AffineFactorable, "profile_columns", _profile_jets_point_by_point)
    assert report.to_json() == cross_validate(surface, n_points=n, seed=5).to_json()


# report formatting ------------------------------------------------------


def test_report_json_key_order_and_determinism():
    chart = SurfaceChart(Z_OVER_XY, lambda x, y: x * y, UNIT)

    def make():
        run = sample_grid(chart, n=5, subject="saddle")
        return check_constancy(run, target=-1.0, tol=1e-9, quantity="K", notes="demo")

    a, b = make().to_json(), make().to_json()
    assert a == b, "same inputs must serialize to identical bytes"
    keys = list(json.loads(a).keys())
    assert keys == [
        "subject",
        "domain",
        "grid",
        "quantity",
        "target",
        "max_abs_deviation",
        "mean",
        "tolerance",
        "pass",
        "excluded_points",
        "notes",
    ], f"key order: {keys}"
    payload = json.loads(a)
    assert payload["subject"] == "saddle"
    assert payload["domain"] == [[0.0, 1.0], [0.0, 1.0]]
    assert payload["grid"] == 5 and payload["pass"] is True


# The report shapes the pinned digest files do not reach, as whole texts.

PLAIN_SEQUENCE_JSON = """{
  "subject": "value sequence",
  "domain": null,
  "grid": 4,
  "quantity": "K",
  "target": null,
  "max_abs_deviation": 0.25,
  "mean": 1.25,
  "tolerance": 0.25,
  "pass": true,
  "excluded_points": [],
  "notes": ""
}"""

SIGNED_ZERO_JSON = """{
  "subject": "edge",
  "domain": [
    [
      -0.0,
      1.0
    ],
    [
      0.0,
      2.0
    ]
  ],
  "grid": 3,
  "quantity": "H",
  "target": 0.0,
  "max_abs_deviation": 0.0,
  "mean": 0.0,
  "tolerance": 1e-09,
  "pass": true,
  "excluded_points": [
    [
      [
        -0.0,
        0.5
      ],
      "zero point"
    ],
    [
      [
        1.0,
        -0.0
      ],
      "other"
    ]
  ],
  "notes": "n"
}"""

DEGENERATE_PROBE_JSON = """{
  "kind": "afs2-minimal",
  "count": 1,
  "seed": -1,
  "grid": 3,
  "floor": 0.0001,
  "counterexamples": 0,
  "min_stat": -1.0,
  "instances": [
    {
      "label": "nowhere",
      "stat": -1.0,
      "flat": false,
      "degenerate": true,
      "bad": false
    }
  ]
}"""


def test_a_report_over_a_plain_sequence_serializes_without_domain_or_target():
    report = check_constancy([1.0, 1.5, 1.0, 1.5], tol=0.25)
    assert report.to_json() == PLAIN_SEQUENCE_JSON


def test_a_report_keeps_negative_zero_coordinates():
    report = VerificationReport(
        "edge", Rect((-0.0, 1.0), (0.0, 2.0)), 3, "H", 0.0, 0.0, 0.0, 1e-9, True,
        (((-0.0, 0.5), "zero point"), ((1.0, -0.0), "other")), "n",
    )
    assert report.to_json() == SIGNED_ZERO_JSON


def test_a_probe_report_serializes_a_degenerate_instance():
    # log(t - 10) raises on the whole unit square: no point is included.
    nowhere = AffineFactorable(
        TYPE2, lambda t: jets.log(t - 10.0), lambda t: t, 0.5, UNIT, "nowhere"
    )
    report = probe_instances("afs2-minimal", [nowhere], n=3)
    assert report.to_json() == DEGENERATE_PROBE_JSON
    assert report.instances[0].to_dict() == {
        "label": "nowhere", "stat": -1.0, "flat": False, "degenerate": True, "bad": False
    }


# cross-validation -------------------------------------------------------


def test_cross_validate_type2_smoke():
    inst = random_instance(SplitMix64(3), TYPE2)
    report = cross_validate(inst, n_points=100, seed=4)
    assert report.passed, f"routes disagree by {report.max_abs_deviation}"
    assert report.max_abs_deviation <= 1e-10
    assert report.quantity == "discrepancy"


def test_cross_validate_is_deterministic():
    inst = random_instance(SplitMix64(3), TYPE2)
    a = cross_validate(inst, n_points=50, seed=9).to_json()
    b = cross_validate(inst, n_points=50, seed=9).to_json()
    assert a == b


def test_cross_validate_skips_low_regularity_points():
    # x = (y + z) * 1: regularity is the constant a*1*1 + 0 = a; with a
    # tiny a every draw is filtered and the check must refuse to report.
    flatliner = AffineFactorable(
        TYPE2, lambda t: t, lambda t: jets.const(1.0), 1e-6, UNIT
    )
    with pytest.raises(ValueError):
        cross_validate(flatliner, n_points=20, seed=1)


def test_cross_validate_refuses_a_non_finite_discrepancy():
    # Both routes yield NaN curvatures wherever y > 0.5; max() dropped
    # them, so this once passed on the finite half of the draws.
    poisoned = AffineFactorable(
        TYPE1, lambda t: t, lambda t: t * t * (math.nan if t.v > 0.5 else 1.0), 0.0, UNIT
    )
    with pytest.raises(ValueError, match=r"cross-validation got a non-finite sample .*: nan"):
        cross_validate(poisoned, n_points=40, seed=2)


@pytest.mark.parametrize("convert", [lambda chart: chart, as_parametric], ids=["chart", "patch"])
def test_cross_validate_refuses_a_surface_without_factored_form(monkeypatch, convert):
    # A chart or a patch once reached instance.kind and raised
    # AttributeError.  It is refused before any point is drawn.
    surface = convert(build_family("FS2.K.integral"))

    def fail(seed):
        raise AssertionError("a point was drawn before the surface was checked")

    monkeypatch.setattr(verify, "SplitMix64", fail)
    with pytest.raises(ValueError) as info:
        cross_validate(surface)
    name = type(surface).__name__
    assert str(info.value) == f"a {name} has no factored form to cross-validate"


def _cross_validate_point_by_point(instance, n_points, seed):
    """The deviations and exclusions of cross_validate's loop as it ran one point at a time.

    Per point: a profile's text, the regularity skip, the reference
    route (a non-finite K or H read as NaN), then the chart route.
    """
    chart = as_chart(instance)
    rng = SplitMix64(seed)
    (u_lo, u_hi), (v_lo, v_hi) = instance.domain.u, instance.domain.v
    points = [(rng.uniform(u_lo, u_hi), rng.uniform(v_lo, v_hi)) for _ in range(n_points)]
    route = (reference_routes.afs1_curvatures, reference_routes.afs2_curvatures)[
        instance.kind == TYPE2]
    deviations, excluded = [], []
    for p in points:
        u1, u2 = instance.profile_arguments(p)
        j1, j2 = _profile_jet(instance.factor1, u1), _profile_jet(instance.factor2, u2)
        if j1.__class__ is str or j2.__class__ is str:
            excluded.append((p, j1 if j1.__class__ is str else j2))
            continue
        try:
            if instance.kind == TYPE2 and abs(regularity(instance, j1, j2)) < 1e-3:
                excluded.append((p, "regularity magnitude below 0.001"))
                continue
            special = route(instance, p, j1, j2)
            generic = chart.curvatures(p)
        except (AdmissibilityError, BranchDomainError, ZeroDivisionError, OverflowError) as err:
            excluded.append((p, str(err)))
            continue
        K, H = special.K, special.H
        if not (math.isfinite(K) and math.isfinite(H)):
            K = H = math.nan
        deviations.append(max(
            unit_relative_difference(K, generic.K), unit_relative_difference(H, generic.H)))
    return deviations, excluded


def _fails_in_a_chart_below(limit):
    # t / 100, but a chart's Jet2 argument below ``limit`` raises.
    def profile(t):
        if t.__class__ is jets.Jet2 and t.v < limit:
            raise BranchDomainError("chart-only", t.v, f"an argument of at least {limit}")
        return 0.01 * t

    return profile


def _mixed(kind):
    # Each outcome on one square, each on a share of the draws: a
    # profile text (log below -0.8; type 2's f1 also leaves exp's range
    # past 1.08), the regularity skip (type 2), an overflowing square
    # (exp(4000*t) past 0.9), a NaN K (f1 between 0.5 and 0.7) and a
    # chart error (f2 below -0.8).
    def f1(t):
        nan = math.nan if 0.5 < t.v < 0.7 else 1.0
        return jets.log(t + 0.8) * nan + jets.exp(4000.0 * (t - 0.9))

    if kind == TYPE1:
        return AffineFactorable(TYPE1, f1, _fails_in_a_chart_below(-0.8), 0.5,
                                Rect((-1.0, 1.0), (-1.0, 1.0)))
    return AffineFactorable(TYPE2, f1, _fails_in_a_chart_below(-0.8), 0.5,
                            Rect((-1.0, 1.0), (-1.0, 1.0)))


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_cross_validate_gives_each_point_its_point_by_point_outcome(kind, monkeypatch):
    instance = _mixed(kind)
    want_deviations, want_excluded = _cross_validate_point_by_point(instance, 400, 8)
    seen = {}
    reduce = verify._reduce

    def recorded(values, center, check, unit, **report):
        seen.update(values=values, excluded=report["excluded_points"])
        return reduce(values, center, check, unit, **report)

    monkeypatch.setattr(verify, "_reduce", recorded)
    with pytest.raises(ValueError, match="non-finite sample"):
        cross_validate(instance, n_points=400, seed=8)
    assert seen["excluded"] == tuple(want_excluded)
    assert [d.hex() for d in seen["values"]] == [d.hex() for d in want_deviations]
    reasons = {text.split(" ")[0] for _, text in want_excluded}
    type2 = {"regularity", "math"} if kind == TYPE2 else set()
    assert reasons == {"log", "(34,", "chart-only"} | type2
    assert "nan" in {d.hex() for d in want_deviations}


@pytest.mark.parametrize("n_points", [1.5, True, 100.0], ids=["fraction", "bool", "float"])
def test_cross_validate_refuses_a_point_count_that_is_not_an_integer(monkeypatch, n_points):
    # 1.5 once raised TypeError from range(), and True drew one point.
    def fail(seed):
        raise AssertionError("a point was drawn before the point count was checked")

    monkeypatch.setattr(verify, "SplitMix64", fail)
    with pytest.raises(ValueError) as info:
        cross_validate(build_family("AFS1.min.osc"), n_points=n_points)
    assert str(info.value) == f"n_points must be an integer, got {n_points!r}"


def test_cross_validate_excludes_points_whose_profile_raises():
    # log leaves its branch where x <= 0, about half of the draws here.
    logarithmic = AffineFactorable(
        TYPE1, lambda t: jets.log(t), lambda t: t * t + 1.0, 0.0, Rect((-1.0, 1.0), UNIT.v)
    )
    report = cross_validate(logarithmic, n_points=40, seed=3)
    assert report.passed and 0 < len(report.excluded_points) < 40
    assert report.grid == 40 - len(report.excluded_points)
    for (x, _), reason in report.excluded_points:
        assert x <= 0.0 and reason == f"log evaluated at {x!r}: requires a positive argument"


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_checks_refuse_a_tolerance_or_floor_that_is_negative_or_not_finite(bad):
    # A negative or NaN tolerance fails every deviation and an infinite
    # one passes any; a negative floor flags no probe instance, so the
    # true minimal FS2.min.ratio, a counterexample at the default floor,
    # counted as none at floor -1.
    ratio = build_family("FS2.min.ratio")
    assert probe_instances("afs2-minimal", [ratio]).counterexamples == 1
    checks = {
        "constancy check tolerance": lambda: check_constancy([1.0] * 4, tol=bad),
        "cross-validation tolerance": lambda: cross_validate(ratio, n_points=8, tol=bad),
        "motion invariance check tolerance": lambda: motion_invariance_check(
            ratio, Motion(0.3, 0.1, 0.2, 0.4, 0.5, 0.6), n=3, tol=bad
        ),
        "probe floor": lambda: probe_instances("afs2-minimal", [ratio], floor=bad),
    }
    for what, check in checks.items():
        with pytest.raises(ValueError) as info:
            check()
        assert str(info.value) == f"{what} must be finite and at least 0, got {bad!r}"


def test_a_bad_tolerance_is_refused_before_any_point_is_evaluated():
    # The tolerance decides the verdict alone, so checking it after the
    # points only wastes their work: 1,002,001 of them at --grid 1001.
    calls = []

    def counting(t):
        calls.append(t.v)
        return t * t + 2.0

    s = AffineFactorable(TYPE2, counting, counting, 0.5, UNIT)
    checks = [
        lambda: cross_validate(s, n_points=8, tol=math.nan),
        lambda: motion_invariance_check(s, Motion(0.3, 0.1, 0.2, 0.4, 0.5, 0.6), n=3, tol=-1.0),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="tolerance must be finite and at least 0"):
            check()
    assert calls == []


# motion invariance ------------------------------------------------------


def test_motion_invariance_on_a_class_member():
    surface = build_family("AFS1.K.saddle")
    motion = Motion(angle=1.1, tx=0.4, ty=-0.8, tz=2.0, shear_x=0.3, shear_y=-0.9)
    report = motion_invariance_check(surface, motion, n=5, tol=1e-9)
    assert report.passed, f"curvature drifted by {report.max_abs_deviation}"
    assert "angle=" in report.notes


def test_motion_invariance_refuses_a_non_finite_drift():
    # NaN heights for x > 0.5 once gave passed=True, deviation 0.0, mean nan.
    chart = SurfaceChart(Z_OVER_XY, lambda x, y: x * y * (math.nan if x.v > 0.5 else 1.0), UNIT)
    motion = Motion(0.3, 0.1, 0.2, 0.4, 0.5, 0.6)
    with pytest.raises(ValueError, match=r"motion invariance check got a non-finite sample"):
        motion_invariance_check(chart, motion, n=11)


def test_motion_check_excludes_heights_past_the_integral_profile():
    # z_end = 2.67 at the default parameters; the inversion's ValueError
    # escaped the check.
    surface = build_family("FS2.K.integral")
    motion = Motion(0.3, 0.1, 0.2, 0.4, 0.5, 0.6)
    report = motion_invariance_check(surface, motion, domain=Rect((0.5, 1.5), (0.1, 3.0)), n=5)
    assert report.passed, f"curvature drifted by {report.max_abs_deviation}"
    text = "f2 evaluated at 3.0: requires a height parameter inside the tabulated range"
    assert report.excluded_points == tuple(((y, 3.0), text) for y in (0.5, 0.75, 1.0, 1.25, 1.5))


@pytest.mark.parametrize("kind", [TYPE1, TYPE2])
def test_motion_check_evaluates_the_height_once_per_point(kind):
    # A moved copy of the patch re-evaluated the base height inside each
    # moved coordinate: 2 height evaluations per point for type 1 and 4
    # for type 2, whose x coordinate is the height.
    surface = random_instance(SplitMix64(5), kind)
    calls = [0]
    counted = surface.replace(factor1=_counting(surface.factor1, calls, 0))
    motion = Motion(0.3, 0.1, 0.2, 0.4, 0.5, 0.6)
    report = motion_invariance_check(counted, motion, n=11)
    assert not report.excluded_points
    assert calls[0] == 11 * 11, f"{calls[0] / 121} height evaluations per point"
    assert report == motion_invariance_check(surface, motion, n=11)


def _seeded_motion(rng: SplitMix64) -> Motion:
    return Motion(
        angle=rng.uniform(0.0, 2.0 * math.pi),
        tx=rng.uniform(-2.0, 2.0),
        ty=rng.uniform(-2.0, 2.0),
        tz=rng.uniform(-2.0, 2.0),
        shear_x=rng.uniform(-1.0, 1.0),
        shear_y=rng.uniform(-1.0, 1.0),
    )


def _motion_report_text(surface, motion: Motion) -> str:
    try:
        return motion_invariance_check(surface, motion, n=11).to_json()
    except ValueError as err:
        return f"refused: {err}"


def _motion_cases():
    motions = [_seeded_motion(SplitMix64(606 + k)) for k in range(3)]
    for fid in family_ids():
        surface = build_family(fid)
        for k, motion in enumerate(motions):
            yield f"{fid}:m{k}", surface, motion
    for kind in (TYPE1, TYPE2):
        rng = SplitMix64(707)
        for i in range(20):
            yield f"{kind}:r{i:02d}", random_instance(rng, kind), _seeded_motion(rng)
    # Two refusals: a patch whose projection degenerates everywhere, and
    # a height that turns NaN for x > 0.5.
    flat = ParametricSurface(lambda u, v: u, lambda u, v: u, lambda u, v: v, UNIT)
    poisoned = SurfaceChart(Z_OVER_XY, lambda x, y: x * y * (math.nan if x.v > 0.5 else 1.0), UNIT)
    yield "refused:degenerate", flat, motions[0]
    yield "refused:non-finite", poisoned, motions[0]


def test_motion_reports_are_pinned():
    # tests/data/motion_sha256.txt holds the sha256 of each motion report
    # (or of its refusal text) at n = 11, recorded while the check still
    # evaluated a moved copy of the patch: moving the base jets instead
    # must not change a byte.
    table = (Path(__file__).parent / "data" / "motion_sha256.txt").read_text(encoding="utf-8")
    pinned = dict(line.split() for line in table.splitlines())
    got = {
        key: hashlib.sha256(_motion_report_text(surface, motion).encode()).hexdigest()
        for key, surface, motion in _motion_cases()
    }
    assert len(got) == 132 and got.keys() == pinned.keys()
    changed = [key for key in got if got[key] != pinned[key]]
    assert not changed, f"motion reports changed: {changed}"


# finite differences -----------------------------------------------------


def test_fd_check_on_polynomial_height():
    dev = finite_difference_check(lambda x, y: x * x + y * y, (0.3, 0.4))
    assert dev <= 1e-7, f"quadratic FD deviation {dev}"


def test_fd_check_on_transcendental_height():
    dev = finite_difference_check(
        lambda x, y: jets.exp(x) * jets.sin(y), (0.3, 0.7)
    )
    assert dev <= 1e-5, f"exp*sin FD deviation {dev}"


def test_fd_check_on_plane_is_tight():
    # Linear heights have no truncation error; what is left is stencil
    # rounding, around machine epsilon divided by h^2.
    dev = finite_difference_check(lambda x, y: 2.0 * x - 3.0 * y + 1.0, (0.1, 0.2))
    assert dev <= 1e-7, f"plane FD deviation {dev}"


def test_fd_check_respects_domain_margin():
    with pytest.raises(ValueError):
        finite_difference_check(
            lambda x, y: x * y, (0.99999, 0.5), h=1e-4, domain=UNIT
        )


def test_fd_check_refuses_a_nan_at_one_stencil_point():
    # Only the east stencil points see the NaN; the gap once read finite.
    nan = float("nan")
    with pytest.raises(ValueError, match="not finite"):
        finite_difference_check(lambda x, y: x * (nan if x.v > 1.00005 else 1.0), (1.0, 1.0))


@pytest.mark.parametrize("domain", [None, UNIT], ids=["no-domain", "unit-square"])
@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
def test_fd_check_refuses_a_bad_step_before_any_evaluation(h, domain):
    # With h < 0 the margin 2h is negative, so the domain guard alone
    # would let (1e-4, 0.5) through and log would meet x = 0.0; h = 0.0
    # would evaluate the whole stencil and then divide by zero.
    calls = []

    def field(x, y):
        calls.append((x.v, y.v))
        return jets.log(x) * y

    with pytest.raises(ValueError, match=r"step h must be finite and > 0"):
        finite_difference_check(field, (1e-4, 0.5), h=h, domain=domain)
    assert calls == []


@pytest.mark.parametrize("h", [1e-160, 1e-200, 1e-300])
def test_fd_check_refuses_a_step_whose_square_underflows(h):
    # h*h is subnormal at 1e-160, where the gap read a meaningless 0.5,
    # and 0.0 below, where the stencil was divided by zero.
    calls = []

    def field(x, y):
        calls.append((x.v, y.v))
        return x * y

    with pytest.raises(ValueError, match=r"^finite-difference step h must have a normal square, got "):
        finite_difference_check(field, (0.5, 0.5), h=h)
    assert calls == []


# ODE cross-checks -------------------------------------------------------


def test_ode_crosscheck_converges_at_fourth_order():
    for ode in ("afs1-minimal", "afs2-cmc"):
        coarse = ode_crosscheck(ode, steps=10)
        fine = ode_crosscheck(ode, steps=1000)
        assert fine <= 1e-6, f"{ode}: fine error {fine}"
        assert coarse / fine >= 1e6, (
            f"{ode}: error only fell from {coarse} to {fine}"
        )


@pytest.mark.parametrize(
    "ode, params",
    [
        # At H0 = 1, H0 and 1/H0 agree: a rate of 2/H0*c1^2 read 0.146 here.
        ("afs2-cmc", {"H0": 2.0}),
        # At a = 1 the shear drops out of 2*a*c1: without it this read 0.64.
        ("afs1-minimal", {"a": -0.5, "c1": 2.0}),
    ],
)
def test_ode_crosscheck_holds_away_from_unit_parameters(ode, params):
    assert ode_crosscheck(ode, params, steps=1000) <= 1e-6


def test_ode_crosscheck_rejects_unknown_ids_and_params():
    with pytest.raises(ValueError):
        ode_crosscheck("afs9-unknown")
    with pytest.raises(ValueError):
        ode_crosscheck("afs1-minimal", params={"c9": 1.0})


@pytest.mark.parametrize(
    "ode, params, message",
    [
        ("afs2-cmc", {"c1": "abc"}, "afs2-cmc: parameter 'c1' must be a real number, got 'abc'"),
        ("afs2-cmc", {"c1": math.inf}, "afs2-cmc: parameter 'c1' must be finite, got inf"),
        ("afs1-minimal", {"a": math.nan}, "afs1-minimal: parameter 'a' must be finite, got nan"),
        (
            "afs1-minimal",
            {"c9": 1.0},
            "afs1-minimal: unknown parameter 'c9' (expected: c1, a, c2, c3)",
        ),
        (
            "afs1-minimal",
            {"c1": True},
            "afs1-minimal: parameter 'c1' must be a real number, got True",
        ),
    ],
    ids=["not-a-number", "infinite", "nan", "unknown", "bool"],
)
def test_ode_crosscheck_refuses_a_bad_parameter_before_any_evaluation(
    monkeypatch, ode, params, message
):
    # The ODE's parameters follow a family's rule.  A value that is not a
    # finite real number once reached the integration, or float() raised
    # a text that did not name the parameter.
    def fail(*args):
        raise AssertionError("a profile was built before the parameters were checked")

    monkeypatch.setattr("isocurv.verify.cmc_slope_profile", fail)
    monkeypatch.setattr("isocurv.verify.minimal_oscillation_profile", fail)
    with pytest.raises(ParameterError) as info:
        ode_crosscheck(ode, params)
    assert str(info.value) == message


#: Each ODE refusal that comes before the integration, with its text.
ODE_REFUSALS = [
    ("afs1-minimal", {"c1": 0.0}, None, 1000, "afs1-minimal needs c1 != 0 and a != 0"),
    ("afs1-minimal", {"a": 0.0}, None, 1000, "afs1-minimal needs c1 != 0 and a != 0"),
    ("afs2-cmc", {"H0": 0.0}, None, 1000, "afs2-cmc needs H0 != 0 and c1 != 0"),
    ("afs2-cmc", {"c1": 0.0}, None, 1000, "afs2-cmc needs H0 != 0 and c1 != 0"),
    ("afs1-minimal", None, (1.0, 0.0), 1000, "ode range must satisfy hi > lo"),
    ("afs2-cmc", None, None, 0, "steps must be at least 1"),
]


@pytest.mark.parametrize(
    "ode, params, trange, steps, message",
    ODE_REFUSALS,
    ids=["afs1-c1-zero", "afs1-a-zero", "afs2-H0-zero", "afs2-c1-zero", "reversed", "no-steps"],
)
def test_ode_crosscheck_refuses_a_degenerate_setup(ode, params, trange, steps, message):
    with pytest.raises(ValueError) as info:
        ode_crosscheck(ode, params, trange, steps)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("ode", ["afs1-minimal", "afs2-cmc"])
def test_ode_crosscheck_refuses_no_steps_before_building_the_closed_form(monkeypatch, ode):
    # The step count is checked with the range, before the closed form
    # is built and evaluated at the range start.
    def fail(*args):
        raise AssertionError("a profile was built before the step count was checked")

    monkeypatch.setattr("isocurv.verify.cmc_slope_profile", fail)
    monkeypatch.setattr("isocurv.verify.minimal_oscillation_profile", fail)
    with pytest.raises(ValueError, match=r"^steps must be at least 1$"):
        ode_crosscheck(ode, steps=0)


@pytest.mark.parametrize("ode", ["afs1-minimal", "afs2-cmc"])
@pytest.mark.parametrize("steps", [1.5, math.nan, True], ids=["fraction", "nan", "bool"])
def test_ode_crosscheck_refuses_a_step_count_that_is_not_an_integer(monkeypatch, ode, steps):
    # 1.5 and nan once built the closed form and then failed in range();
    # True integrated one step.
    def fail(*args):
        raise AssertionError("a profile was built before the step count was checked")

    monkeypatch.setattr("isocurv.verify.cmc_slope_profile", fail)
    monkeypatch.setattr("isocurv.verify.minimal_oscillation_profile", fail)
    with pytest.raises(ValueError) as info:
        ode_crosscheck(ode, steps=steps)
    assert str(info.value) == f"steps must be an integer, got {steps!r}"


def test_ode_crosscheck_guards_the_radicand():
    # H0 = c1 = c2 = 1 keeps the slope finite only while 1 - 4t > 0.
    with pytest.raises(ValueError):
        ode_crosscheck("afs2-cmc", trange=(0.0, 1.0))


def test_ode_crosscheck_refuses_a_non_finite_gap():
    # c1^2 overflows, the integration turns to NaN, and max() once
    # reported a gap of 0.
    with pytest.raises(ValueError, match="not finite"):
        ode_crosscheck("afs1-minimal", params={"c1": 1e200})


def _frozen_rk4(deriv, t0, y0, t1, steps):
    """``reference_rk4.rk4`` behind ``verify._rk4``'s interface: (t, f) per node."""
    return [(t, y[0]) for t, y in reference_rk4.rk4(lambda t, y: deriv(t, *y), t0, y0, t1, steps)]


def _ode_outcome(ode, params, trange, steps):
    """``ode_crosscheck``'s error as ``float.hex``, or its ValueError's text."""
    try:
        return ode_crosscheck(ode, params, trange, steps).hex()
    except ValueError as err:
        return f"ValueError: {err}"


def _random_ode_setup(rng, ode):
    """Random parameters and a range, its bounds negative or not, that pass
    ``ode_crosscheck``'s set-up checks: no vanishing divisor, a positive radicand."""
    t0 = rng.uniform(-3.0, 1.0)
    trange = (t0, t0 + rng.uniform(0.05, 3.0))
    c1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
    if ode == "afs1-minimal":
        params = {"c1": c1, "a": rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)}
    else:
        H0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 2.0)
        q = 4.0 * H0 * c1 * c1
        params = {"H0": H0, "c1": c1, "c2": max(q * t for t in trange) + rng.uniform(0.01, 2.0)}
    return {**params, "c3": rng.uniform(-2.0, 2.0)}, trange


@pytest.mark.parametrize("ode", ["afs1-minimal", "afs2-cmc"])
@pytest.mark.parametrize("steps", [1, 2, 7, 50, 1000])
def test_ode_crosscheck_matches_the_frozen_integrator(monkeypatch, ode, steps):
    # The two-float integrator must give the generic one's floats: the
    # same expressions in the same order, on random parameters and
    # ranges, the default ones first.
    rng = SplitMix64(steps)
    setups = [(None, None)] + [_random_ode_setup(rng, ode) for _ in range(6)]
    got = [_ode_outcome(ode, params, trange, steps) for params, trange in setups]
    monkeypatch.setattr(verify, "_rk4", _frozen_rk4)
    want = [_ode_outcome(ode, params, trange, steps) for params, trange in setups]
    assert got == want, setups


def test_rk4_keeps_no_node():
    # The integrator yields each node and keeps none, so its peak does not
    # grow with the step count.  A list of the nodes peaked at 3.97 MB.
    tracemalloc.start()
    try:
        for _ in verify._rk4(lambda t, *state: (0.0, 0.0), 0.0, (1.0, 0.0), 1.0, 20_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, f"_rk4 peaked at {peak} B over 20,000 steps"


# nonexistence probes ----------------------------------------------------


def test_drawn_instances_are_never_planar():
    for inst in draw_nonplanar_type2(20, seed=5):
        assert not is_planar(inst), f"planar draw slipped through: {inst.label}"


def test_draw_nonplanar_type2_gives_up_after_50_draws_per_instance(monkeypatch):
    drawn = []

    def counting(rng, kind):
        drawn.append(random_instance(rng, kind))
        return drawn[-1]

    monkeypatch.setattr(verify, "is_planar", lambda s: True)
    monkeypatch.setattr(verify, "random_instance", counting)
    with pytest.raises(RuntimeError, match="^too many planar draws; generator looks degenerate$"):
        draw_nonplanar_type2(3, seed=1)
    assert len(drawn) == 150


def test_probe_smoke_finds_no_counterexamples():
    for kind in ("afs2-minimal", "afs2-constant-K"):
        report = probe_nonexistence(kind, count=10, seed=6)
        assert report.counterexamples == 0, f"{kind}: {report.counterexamples}"
        assert report.count == 10 and len(report.instances) == 10
        assert report.min_stat > report.floor


def test_probe_refuses_to_probe_nothing():
    # With no instance the report said 0 counterexamples: a vacuous pass.
    with pytest.raises(ValueError, match="at least 1 instance"):
        probe_instances("afs2-minimal", [])
    for count in (0, -5):
        with pytest.raises(ValueError, match="at least 1 instance"):
            probe_nonexistence("afs2-constant-K", count=count, seed=1)


@pytest.mark.parametrize(
    "kind, floor, message",
    [
        ("afs2-minimal", -1.0, "probe floor must be finite and at least 0, got -1.0"),
        ("afs2-constant-K", math.nan, "probe floor must be finite and at least 0, got nan"),
        ("afs2-umbilic", 1e-4, "unknown probe kind 'afs2-umbilic' (known: "),
    ],    ids=["negative-floor", "nan-floor", "unknown-kind"],
)
def test_probe_refuses_a_bad_kind_or_floor_before_drawing(monkeypatch, kind, floor, message):
    # The floor was checked only after all `count` instances were drawn.
    def fail(count, seed):
        raise AssertionError("instances were drawn before the probe was checked")

    monkeypatch.setattr("isocurv.verify.draw_nonplanar_type2", fail)
    with pytest.raises(ValueError) as info:
        probe_nonexistence(kind, count=10_000, seed=1, floor=floor)
    assert str(info.value).startswith(message)


def test_probe_rejects_unknown_kind():
    with pytest.raises(ValueError):
        probe_nonexistence("afs2-umbilic", count=5, seed=1)
    ratio = build_family("FS2.min.ratio")
    with pytest.raises(ValueError, match=r"^unknown probe kind 'afs2-umbilic' \(known: "):
        probe_instances("afs2-umbilic", [ratio])


def test_probe_report_serialization():
    a = probe_nonexistence("afs2-minimal", count=5, seed=8).to_json()
    b = probe_nonexistence("afs2-minimal", count=5, seed=8).to_json()
    assert a == b, "probe reports must be reproducible byte for byte"
    payload = json.loads(a)
    assert list(payload.keys()) == [
        "kind",
        "count",
        "seed",
        "grid",
        "floor",
        "counterexamples",
        "min_stat",
        "instances",
    ], f"probe keys: {list(payload.keys())}"
    assert payload["seed"] == 8


def test_probe_detectors_trip_on_known_positives():
    # Positive controls: the probes draw only sheared instances, but the
    # detectors themselves must fire when handed a surface that realizes
    # the probed property, at the default floor and grid.  The unsheared
    # ratio surface has K = -1 and H = 0 exactly, so it trips both.
    ratio = build_family("FS2.min.ratio")
    # z = (2x + 1)(3(y + x/2) - 1/2): z_xy = 6 and z_yy = 0, so K = -36.
    square = Rect((-1.0, 1.0), (-1.0, 1.0))
    linear = AffineFactorable(TYPE1, lambda t: 2.0 * t + 1.0, lambda t: 3.0 * t - 0.5, 0.5, square)
    controls = [
        ("afs2-minimal", ratio),
        ("afs2-minimal", build_family("FS2.min.tan")),
        ("afs2-constant-K", ratio),
        ("afs2-constant-K", build_family("FS2.K.hyperbolic")),
        ("afs2-constant-K", linear),
    ]
    for kind, surface in controls:
        report = probe_instances(kind, [surface])
        inst = report.instances[0]
        assert inst.bad and not inst.flat, f"{kind} control: {inst.to_dict()}"
        assert report.counterexamples == 1, f"{kind} control: {inst.to_dict()}"


def test_probe_detector_passes_a_known_negative():
    # Negative control: AFS2.cmc.sqrt has H = 1, far above the floor.
    report = probe_instances("afs2-minimal", [build_family("AFS2.cmc.sqrt")])
    inst = report.instances[0]
    assert inst.stat == pytest.approx(1.0) and not inst.bad, f"negative control: {inst.to_dict()}"
    assert report.counterexamples == 0


def test_probe_instances_classifies_flat_draws():
    # A sheared instance with K identically zero is recorded as flat by
    # the constant-K probe, not counted as a counterexample: the probed
    # claim concerns nonzero constants.
    flat = build_family("AFS2.flat.exp")
    inst = probe_instances("afs2-constant-K", [flat]).instances[0]
    assert inst.flat and not inst.bad, f"classification: {inst.to_dict()}"
