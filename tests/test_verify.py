"""Unit tests for the verification layer: grids, reports, and cross-checks."""

import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import pytest

from isocurv import jets
from isocurv.catalog import build_family, family_ids
from isocurv.factorable import (
    TYPE1,
    TYPE2,
    AffineFactorable,
    as_chart,
    is_planar,
    random_instance,
)
from isocurv.geometry import (
    AdmissibilityError,
    Motion,
    ParametricSurface,
    Rect,
    SurfaceChart,
    X_OVER_YZ,
    Z_OVER_XY,
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
)

UNIT = Rect((0.0, 1.0), (0.0, 1.0))


# constancy over plain values -------------------------------------------


def test_constancy_statistics_from_raw_values():
    report = check_constancy([1.0, 1.1, 1.0, 1.1], tol=1e-3)
    assert report.mean == 1.05, f"mean {report.mean}"
    assert abs(report.max_abs_deviation - 0.05) <= 1e-15, (
        f"deviation {report.max_abs_deviation}"
    )
    assert not report.passed, "a 0.05 spread cannot pass at tol 1e-3"


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


def test_reports_never_serialize_nan():
    report = check_constancy([1.0, 1.0, 1.0, 1.0], target=float("nan"))
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
    assert run.heights == tuple(x * y for x, y in run.points)


def test_sample_grid_records_exclusions_with_reasons():
    # The z slope vanishes along z = 0, so the middle grid line of this
    # sideways chart is inadmissible and must be excluded, not crash.
    chart = SurfaceChart(X_OVER_YZ, lambda y, z: z * z, Rect((0.0, 1.0), (-0.5, 0.5)))
    run = sample_grid(chart, n=5, subject="fold")
    assert len(run.excluded) == 5, f"{len(run.excluded)} exclusions"
    assert len(run.points) == len(run.K) == len(run.H) == len(run.heights) == 20
    for point, reason in run.excluded:
        assert point[1] == 0.0 and reason, f"unexpected exclusion {point}: {reason}"


# the row and column walk of sample_grid ---------------------------------


def _plain_grid(surface, n):
    """sample_grid without its walk by grid lines: one surface.curvatures per point."""
    samples, excluded = [], []
    for p in surface.domain.grid(n):
        try:
            pair = surface.curvatures(p)
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


def _assert_memo_changes_nothing(surface, n, what) -> int:
    """Compare sample_grid with the plain loop; return the exclusion count."""
    run = sample_grid(surface, n=n)
    got = _grid_bits(zip(run.points, run.K, run.H, run.heights), run.excluded)
    want = _grid_bits(*_plain_grid(surface, n))
    assert got == want, f"{what}: sample_grid differs from the per-point loop"
    return len(run.excluded)


def test_sample_grid_memo_is_bit_exact_on_every_product_family():
    surfaces = {fid: build_family(fid) for fid in family_ids()}
    products = {f: s for f, s in surfaces.items() if isinstance(s, AffineFactorable)}
    assert len(products) == 29
    for fid, surface in products.items():
        _assert_memo_changes_nothing(surface, 41, fid)


def test_sample_grid_memo_is_bit_exact_on_random_instances():
    excluded = 0
    for seed in range(40):
        for kind in (TYPE1, TYPE2):
            inst = random_instance(SplitMix64(seed), kind)
            excluded += _assert_memo_changes_nothing(inst, 15, f"seed {seed} {kind}")
    assert excluded > 0, "no draw exercised an exclusion"


def test_sample_grid_memo_stays_bounded_under_a_generic_shear():
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
    _assert_memo_changes_nothing(surface, n, "AFS1.K.saddle a=0.7317")


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
    def counted(t):
        counter[slot] += 1
        return profile(t)

    return counted


@pytest.mark.parametrize("fid", ["FS1.K.saddle", "FS2.K.hyperbolic"])
def test_sample_grid_evaluates_each_profile_once_per_argument(fid):
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
    assert _assert_memo_changes_nothing(surface, n, kind) == len(run.excluded)


def test_sample_grid_keeps_a_non_finite_shear_product():
    # 0 * inf is nan, so with a = 0 the sheared argument y + a*x is nan,
    # not y, on a grid line whose x is infinite or nan.  A profile that
    # refuses a non-finite argument must be refused there, as it is on
    # the per-point route, and not evaluated at y.
    def finite_only(t):
        if not math.isfinite(t.v):
            raise BranchDomainError("finite_only", t.v, "a finite argument")
        return t * t + 1.0

    for surface in (
        AffineFactorable(TYPE1, lambda t: 1.0, finite_only, 0.0, Rect((0.0, math.inf), UNIT.v)),
        AffineFactorable(TYPE2, finite_only, lambda t: t, 0.0, Rect(UNIT.u, (0.0, math.inf))),
    ):
        run = sample_grid(surface, n=5)
        assert any("finite_only" in reason for _, reason in run.excluded), run.excluded
        _assert_memo_changes_nothing(surface, 5, surface.kind)


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
        _assert_memo_changes_nothing(surface, 5, f"{kind} a={a!r} over {domain}")
    if a == 0.0:
        assert seen == {1.0, -1.0}, f"zeros seen: {seen}"


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


# ODE cross-checks -------------------------------------------------------


def test_ode_crosscheck_converges_at_fourth_order():
    for ode in ("afs1-minimal", "afs2-cmc"):
        coarse = ode_crosscheck(ode, steps=10)
        fine = ode_crosscheck(ode, steps=1000)
        assert fine <= 1e-6, f"{ode}: fine error {fine}"
        assert coarse / fine >= 1e6, (
            f"{ode}: error only fell from {coarse} to {fine}"
        )


def test_ode_crosscheck_rejects_unknown_ids_and_params():
    with pytest.raises(ValueError):
        ode_crosscheck("afs9-unknown")
    with pytest.raises(ValueError):
        ode_crosscheck("afs1-minimal", params={"c9": 1.0})


def test_ode_crosscheck_guards_the_radicand():
    # H0 = c1 = c2 = 1 keeps the slope finite only while 1 - 4t > 0.
    with pytest.raises(ValueError):
        ode_crosscheck("afs2-cmc", trange=(0.0, 1.0))


def test_ode_crosscheck_refuses_a_non_finite_gap():
    # c1^2 overflows, the integration turns to NaN, and max() once
    # reported a gap of 0.
    with pytest.raises(ValueError, match="not finite"):
        ode_crosscheck("afs1-minimal", params={"c1": 1e200})


# nonexistence probes ----------------------------------------------------


def test_drawn_instances_are_never_planar():
    for inst in draw_nonplanar_type2(20, seed=5):
        assert not is_planar(inst), f"planar draw slipped through: {inst.label}"


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


def test_probe_rejects_unknown_kind():
    with pytest.raises(ValueError):
        probe_nonexistence("afs2-umbilic", count=5, seed=1)


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
    # Positive control: the probes draw only sheared instances, but the
    # detectors themselves must fire when handed a surface that realizes
    # the probed property.  The unsheared ratio surface has K = -1 and
    # H = 0 exactly, so it trips both detectors.
    ratio = build_family("FS2.min.ratio")
    const_k = probe_instances("afs2-constant-K", [ratio]).instances[0]
    assert const_k.bad and not const_k.flat, f"constant-K control: {const_k.to_dict()}"
    minimal = probe_instances("afs2-minimal", [ratio]).instances[0]
    assert minimal.bad, f"minimal control: {minimal.to_dict()}"


def test_probe_instances_classifies_flat_draws():
    # A sheared instance with K identically zero is recorded as flat by
    # the constant-K probe, not counted as a counterexample: the probed
    # claim concerns nonzero constants.
    flat = build_family("AFS2.flat.exp")
    inst = probe_instances("afs2-constant-K", [flat]).instances[0]
    assert inst.flat and not inst.bad, f"classification: {inst.to_dict()}"
