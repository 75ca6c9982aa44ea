"""Grid sampling, constancy checks, cross-validation, and probe searches.

The checks in this module never trust a single evaluation route.
Constancy is measured over whole grids; the specialized product-surface
formulas are compared against the generic chart route on random points;
jets are compared against central finite differences; the closed-form
profiles are compared against a Runge-Kutta integration of their
defining equations; and the nonexistence claims for type-2 surfaces
(no nonplanar minimal ones, no nonflat constant-K ones) are probed
with randomized counterexample searches.

Every report serializes to JSON with a fixed key order, json's bytes
written without json for a report's own values (see ``_dumps``), so
repeated runs with the same seeds are byte-identical.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from collections.abc import Callable, Sequence
from itertools import accumulate

from . import jets
from .jets import Jet2
from .geometry import (
    _EVAL_ERRORS,
    NON_FINITE,
    Motion,
    Record,
    Rect,
    SurfaceChart,
    _move_row,
    _pairs,
    apply_motion,
    as_parametric,
    fields,
    parametric_curvatures,
    sample_rows,
)
from .factorable import (
    TYPE2,
    AffineFactorable,
    as_chart,
    is_planar,
    random_instance,
    regularity,
    sample_lines,
)
from .catalog import _merged_params, cmc_slope_profile, minimal_oscillation_profile
from .rng import SplitMix64

__all__ = [
    "DEFAULT_TOL",
    "PROBE_FLOOR",
    "GridRun",
    "VerificationReport",
    "sample_grid",
    "check_constancy",
    "unit_relative_difference",
    "cross_validate",
    "motion_invariance_check",
    "finite_difference_check",
    "ode_crosscheck",
    "ProbeInstance",
    "ProbeReport",
    "OdeReport",
    "draw_nonplanar_type2",
    "probe_instances",
    "probe_nonexistence",
]

DEFAULT_TOL = 1e-9
#: Magnitudes below this count as "numerically zero" in probe searches.
PROBE_FLOOR = 1e-4
#: Cross-validation skips type-2 points with regularity magnitude below this.
_CROSS_REG_FLOOR = 1e-3


class GridRun(Record):
    """Curvatures sampled over a grid, with per-point exclusions.

    ``K``, ``H`` and ``heights`` are parallel ``array('d')`` columns
    over the included points in grid order: ``K[i]``, ``H[i]`` and
    ``heights[i]`` belong to ``points[i]``.  ``heights`` holds the graph
    height each route computed on its way to K and H; it is None for a
    parametric patch, which has no graph height.  ``excluded`` lists the
    ``(point, reason)`` pairs left out, in grid order.

    The included points are not stored: :attr:`points` rebuilds them
    from ``domain.coordinates(n)`` and ``excluded``.  The arrays make a
    run from :func:`sample_grid` unhashable.
    """

    def __init__(
        self,
        subject: str,
        domain: Rect,
        n: int,
        K: Sequence[float],
        H: Sequence[float],
        heights: Sequence[float] | None,
        excluded: tuple[tuple[tuple[float, float], str], ...],
    ) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The included grid points in grid order: the grid less ``excluded``.

        Both walk the grid in the same order, so each excluded point is
        the next one that matches.  The coordinates are finite (see
        :meth:`Rect.coordinates`), so a point matches itself.
        """
        us, vs = self.domain.coordinates(self.n)
        skip = (p for p, _ in self.excluded)
        pending = next(skip, None)
        points = []
        for u in us:
            for v in vs:
                p = (u, v)
                if p == pending:
                    pending = next(skip, None)
                else:
                    points.append(p)
        return tuple(points)

    def values(self, quantity: str) -> list[float]:
        if quantity not in ("K", "H"):
            raise ValueError(f"unknown quantity {quantity!r}")
        return list(getattr(self, quantity))


class _Report(Record):
    """A record that serializes to JSON: its fields in order, ``passed`` as ``"pass"``."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "pass" if name == "passed" else name: _json_value(getattr(self, name))
            for name in self.__slots__
        }

    def to_json(self) -> str:
        return _dumps(self.to_dict())


def _json_value(value):
    """A Rect as its ``as_json()``, a report as an object, a tuple as a list."""
    if isinstance(value, Rect):
        return value.as_json()
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``: :func:`_write`'s text if
    ``value`` holds only finite floats, ints, bools, None, lists, dicts and strings
    of printable ASCII without ``"`` or ``\\``, each of exactly its type, else json's."""
    try:
        return _write(value, "\n")
    except TypeError:
        import json

        return json.dumps(value, indent=2, allow_nan=False)


def _plain(text) -> bool:
    return type(text) is str and text.isascii() and text.isprintable() and not (
        '"' in text or "\\" in text)


def _write(value, newline: str) -> str:
    """``value``'s JSON, its lines indented after ``newline``; TypeError if json must write it."""
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if _plain(value):
        return f'"{value}"'
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    if kind is list:
        items = [inner + _write(item, inner) for item in value]
    elif kind is dict and all(map(_plain, value)):
        items = [f'{inner}"{key}": {_write(item, inner)}' for key, item in value.items()]
    else:
        raise TypeError
    ends = "[]" if kind is list else "{}"
    return f"{ends[0]}{','.join(items)}{newline}{ends[1]}" if items else ends


class VerificationReport(_Report):
    def __init__(
        self,
        subject: str,
        domain: Rect | None,
        grid: int,
        quantity: str,
        target: float | None,
        max_abs_deviation: float,
        mean: float,
        tolerance: float,
        passed: bool,
        excluded_points: tuple[tuple[tuple[float, float], str], ...] = (),
        notes: str = "",
    ) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)


def sample_grid(surface, domain: Rect | None = None, n: int = 21, subject: str = "") -> GridRun:
    """Evaluate K and H on an n x n grid, collecting exclusions.

    Points where evaluation raises an admissibility or branch-domain
    error (or overflows, or yields a non-finite value) are excluded
    with a reason instead of aborting the run.

    An :class:`AffineFactorable` is walked by grid lines, as its type-2
    build check is: ``isocurv.factorable.sample_lines`` runs the line
    kernel of its kind per grid row, so its profiles must be pure.  A
    :class:`SurfaceChart` runs its kernel (``SurfaceChart.route``) per
    grid row too, in its own row loop (``isocurv.geometry.sample_rows``),
    evaluating its height once per row, so its height must be pure as
    well.  A patch is evaluated point by point, by its own route.  Each
    walk moves a whole grid row into the run (``isocurv.geometry._move_row``).

    K, H and the heights go to ``array('d')`` columns, 8 bytes a value,
    and an included point is not stored (see :class:`GridRun`), so a
    run holds about 24 bytes per grid point besides its exclusions.
    """
    if domain is None:
        domain = surface.domain
    if not subject:
        subject = getattr(surface, "label", "") or type(surface).__name__
    # array is an extension module that takes about 0.5 ms to load, so it
    # loads with the first grid sampled, not with the package.
    from array import array

    us, vs = domain.coordinates(n)
    graph = isinstance(surface, (AffineFactorable, SurfaceChart))
    columns = (array("d"), array("d"), array("d") if graph else None, [])
    if isinstance(surface, AffineFactorable):
        sample_lines(surface, us, vs, columns)
    elif graph:
        sample_rows(surface.route, surface.height, us, vs, columns)
    else:
        _sample_points(surface, us, vs, columns)
    ks, hs, heights, excluded = columns
    return GridRun(subject, domain, n, ks, hs, heights, tuple(excluded))


def _sample_points(surface, us: Sequence[float], vs: Sequence[float], columns) -> None:
    """sample_grid's columns for a patch, point by point, a grid row's K and H at a time.

    A patch has no graph height: the third column stays None.
    """
    curvatures = surface.curvatures
    isfinite = math.isfinite
    for u in us:
        row = row_k, row_h, _, row_x = [], [], None, []
        for i, v in enumerate(vs):
            try:
                pair = curvatures((u, v))
            except _EVAL_ERRORS as err:
                row_x.append((i, str(err)))
                continue
            K, H = pair.K, pair.H
            if isfinite(K) and isfinite(H):
                row_k.append(K)
                row_h.append(H)
            else:
                row_x.append((i, NON_FINITE))
        _move_row(columns, row, u, vs)


def check_constancy(
    samples: GridRun | Sequence[float],
    target: float | None = None,
    tol: float = DEFAULT_TOL,
    quantity: str = "K",
    subject: str | None = None,
    notes: str = "",
) -> VerificationReport:
    """Is the sampled quantity constant (optionally: equal to a target)?

    Without a target the deviation is measured against the sample mean.
    Sums run left to right over the grid order, one rounding per
    addition on every interpreter, so the report is deterministic.
    Fewer than 4 included samples is an error: a claim of constancy over
    a grid needs more than a corner's worth of data.
    So is a non-finite sample (``max`` would silently skip a NaN), and so
    are a tolerance that is negative or not finite and a target that is
    not a finite int or float (a bool is no number here), which are
    checked first: a NaN target would give a report that cannot be serialized.
    """
    _require_finite_nonnegative("constancy check tolerance", tol)
    if target is not None and (
        isinstance(target, bool)
        or not isinstance(target, (int, float))
        or not abs(target) <= sys.float_info.max
    ):
        raise ValueError(f"constancy check target must be a finite number, got {target!r}")
    if isinstance(samples, GridRun):
        values = samples.values(quantity)
        domain: Rect | None = samples.domain
        grid = samples.n
        excluded = samples.excluded
        if subject is None:
            subject = samples.subject
    else:
        values = [float(v) for v in samples]
        domain = None
        grid = len(values)
        excluded = ()
        if subject is None:
            subject = "value sequence"
    return _reduce(
        values,
        target,
        "constancy check",
        "included samples",
        subject=subject,
        domain=domain,
        grid=grid,
        quantity=quantity,
        target=target,
        tolerance=tol,
        excluded_points=excluded,
        notes=notes,
    )


def _reduce(
    values: list[float], center: float | None, check: str, unit: str, **report
) -> VerificationReport:
    """A report with the mean of the values and their max |v - center|.

    ``center`` None measures against the mean.  Fewer than 4 values, or
    a non-finite one (``max`` would silently skip a NaN), is an error.
    """
    if len(values) < 4:
        raise ValueError(f"{check} needs at least 4 {unit}, got {len(values)}")
    # No partial sum past an inf or a NaN is finite, so a finite sum proves every value finite.
    total = _sum_left_to_right(values)
    if not math.isfinite(total):
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError(f"{check} got a non-finite sample at index {i}: {v!r}")
    mean = total / len(values)
    max_dev = _max_deviation(values, mean if center is None else center)
    return VerificationReport(
        max_abs_deviation=max_dev, mean=mean, passed=max_dev <= report["tolerance"], **report
    )


def _sum_left_to_right(values: Sequence[float]) -> float:
    """0.0 + v0 + v1 + ..., one rounding per addition: the bits of ``sum`` up to Python 3.11.

    From 3.12 on, ``sum`` of floats compensates its rounding, which moves
    a report's mean in its last digits.  ``accumulate`` runs the additions
    in C, and the deque keeps only the last partial sum.
    """
    return deque(accumulate(values, initial=0.0), maxlen=1)[0]


def _max_deviation(values: Sequence[float], center: float) -> float:
    """max |v - center| over finite values, from their extremes: the same float.

    v - center rounds monotonically in v and center - v is its exact
    negation; + 0.0 turns an all-zero -0.0 into abs's 0.0 and keeps a
    NaN center's NaN.
    """
    return max(max(values) - center, center - min(values)) + 0.0


def _require_finite_nonnegative(what: str, value: float) -> None:
    """Refuse a tolerance or floor that is negative, infinite or NaN."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and at least 0, got {value!r}")


def unit_relative_difference(x: float, y: float) -> float:
    """|x - y| scaled by 1 + the larger magnitude.

    Behaves like a relative difference for large values and like an
    absolute one near zero, so near-zero curvatures do not blow up the
    measure.
    """
    return abs(x - y) / (1.0 + max(abs(x), abs(y)))


def cross_validate(
    instance: AffineFactorable,
    n_points: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> VerificationReport:
    """Specialized product-surface formulas vs the generic chart route.

    Both routes differentiate the same height, assembled differently;
    agreement to near rounding is evidence against algebra slips in
    either.  Type-2 points too close to the regularity zero set are
    skipped (both routes would only amplify rounding there).  A chart
    or a patch has no factored form, and ``n_points`` must be an
    ``int`` (not a bool): either is a ValueError, raised before any
    point is drawn.  Each route runs once, on a column of points: the
    specialized route, :attr:`AffineFactorable.route`, on all of them,
    and the chart's kernel (``SurfaceChart.route``) on the points that
    the specialized route did not exclude, so the chart never sees an
    excluded point.
    """
    _require_finite_nonnegative("cross-validation tolerance", tol)
    if not isinstance(instance, AffineFactorable):
        raise ValueError(f"a {type(instance).__name__} has no factored form to cross-validate")
    if type(n_points) is not int:
        raise ValueError(f"n_points must be an integer, got {n_points!r}")
    chart = as_chart(instance)
    rng = SplitMix64(seed)
    (u_lo, u_hi), (v_lo, v_hi) = instance.domain.u, instance.domain.v
    points = [(rng.uniform(u_lo, u_hi), rng.uniform(v_lo, v_hi)) for _ in range(n_points)]
    # One evaluation of each profile, as a column over all the points,
    # serves the regularity skip and the specialized route; the chart
    # never sees it.
    j1s, j2s = instance.profile_columns(points)
    if instance.kind == TYPE2:
        # A point too near the regularity zero set carries the skip's
        # text in place of f1's jet, after any profile's text, and the
        # route hands it back as it does a profile's.
        floor = f"regularity magnitude below {_CROSS_REG_FLOOR:g}"
        j1s = [
            floor
            if j1.__class__ is not str and j2.__class__ is not str
            and abs(regularity(instance, j1, j2)) < _CROSS_REG_FLOOR
            else j1
            for j1, j2 in zip(j1s, j2s)
        ]
    specials = instance.route(instance, points, j1s, j2s)
    kept = [p for p, special in zip(points, specials) if special.__class__ is not str]
    generics = iter(_pairs(chart.route, chart.height, kept))
    deviations = []
    excluded = []
    for p, special in zip(points, specials):
        if special.__class__ is str:
            excluded.append((p, special))
            continue
        generic = next(generics)
        if generic.__class__ is str:
            excluded.append((p, generic))
            continue
        dev = max(
            unit_relative_difference(special.K, generic.K),
            unit_relative_difference(special.H, generic.H),
        )
        deviations.append(dev)
    return _reduce(
        deviations,
        0.0,
        "cross-validation",
        "usable points",
        subject=instance.label or "cross-validation",
        domain=instance.domain,
        grid=len(deviations),
        quantity="discrepancy",
        target=None,
        tolerance=tol,
        excluded_points=tuple(excluded),
        notes=f"specialized route vs generic chart route at {len(deviations)} random points",
    )


def motion_invariance_check(
    surface,
    motion: Motion,
    domain: Rect | None = None,
    n: int = 11,
    tol: float = 1e-9,
    subject: str = "",
) -> VerificationReport:
    """K and H before vs after a rigid motion, at matching parameters.

    A product surface becomes its chart and a chart its patch (see
    :func:`as_parametric`); on that patch each grid point
    evaluates its coordinate jets once: ``before`` comes from those
    jets, ``after`` from their image under :func:`apply_motion`, which
    are the jets of the moved patch at the same (u, v).
    """
    _require_finite_nonnegative("motion invariance check tolerance", tol)
    if isinstance(surface, AffineFactorable):
        subject = subject or surface.label
        surface = as_chart(surface)
    base = as_parametric(surface) if isinstance(surface, SurfaceChart) else surface
    if domain is None:
        domain = base.domain
    deviations = []
    excluded = []
    for p in domain.grid(n):
        try:
            r = base.jets(p)
            before = parametric_curvatures(r, p)
            after = parametric_curvatures(apply_motion(motion, r), p)
        except _EVAL_ERRORS as err:
            excluded.append((p, str(err)))
            continue
        deviations.append(max(abs(before.K - after.K), abs(before.H - after.H)))
    return _reduce(
        deviations,
        0.0,
        "motion invariance check",
        "usable points",
        subject=subject or "motion invariance",
        domain=domain,
        grid=n,
        quantity="discrepancy",
        target=None,
        tolerance=tol,
        excluded_points=tuple(excluded),
        notes=motion.describe(),
    )


def finite_difference_check(
    field: Callable[[Jet2, Jet2], Jet2],
    point: tuple[float, float],
    h: float = 1e-4,
    domain: Rect | None = None,
) -> float:
    """Largest scaled gap between jet derivatives and central differences.

    Returns max over the five derivative components of
    |jet - fd| / (1 + |jet|).  When a domain is given, the point must
    sit at least 2h inside it so the stencil stays evaluable.  A step h
    that is not finite and > 0 or whose square underflows, or a
    non-finite gap, raises ValueError; h is checked before evaluating.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"finite-difference step h must be finite and > 0, got {h!r}")
    if h * h < sys.float_info.min:
        raise ValueError(f"finite-difference step h must have a normal square, got {h!r}")
    if domain is not None and not domain.contains(point, margin=2.0 * h):
        raise ValueError(
            f"finite-difference stencil at {point!r} leaves the domain "
            f"(needs a margin of 2h = {2.0 * h:g})"
        )
    x, y = point
    jet = jets.eval_field(field, x, y)

    def value(px: float, py: float) -> float:
        return jets.eval_field(field, px, py).v

    f0 = jet.v
    fe = value(x + h, y)
    fw = value(x - h, y)
    fn_ = value(x, y + h)
    fs = value(x, y - h)
    fne = value(x + h, y + h)
    fnw = value(x - h, y + h)
    fse = value(x + h, y - h)
    fsw = value(x - h, y - h)
    fd = {
        "dx": (fe - fw) / (2.0 * h),
        "dy": (fn_ - fs) / (2.0 * h),
        "dxx": (fe - 2.0 * f0 + fw) / (h * h),
        "dyy": (fn_ - 2.0 * f0 + fs) / (h * h),
        "dxy": (fne - fse - fnw + fsw) / (4.0 * h * h),
    }
    worst = 0.0
    for name, approx in fd.items():
        exact = getattr(jet, name)
        gap = abs(exact - approx) / (1.0 + abs(exact))
        if not math.isfinite(gap):
            raise ValueError(
                f"finite-difference gap in {name} at {point!r} is not finite: {gap!r}"
            )
        worst = max(worst, gap)
    return worst


# ---------------------------------------------------------------------------
# ODE cross-checks


def _rk4(deriv, t0: float, y0: Sequence[float], t1: float, steps: int):
    """Classic fixed-step fourth-order Runge-Kutta over [t0, t1] in steps >= 1 steps.

    The state is the pair (f, f') from ``y0``, held as two floats, and
    ``deriv(t, f, df)`` returns (f', f'').  Yields ``(t, f)`` at each
    node as it is reached, t0 first, and keeps none.
    """
    h = (t1 - t0) / steps
    t = t0
    f, df = float(y0[0]), float(y0[1])
    yield t, f
    for i in range(steps):
        a1, b1 = deriv(t, f, df)
        a2, b2 = deriv(t + 0.5 * h, f + 0.5 * h * a1, df + 0.5 * h * b1)
        a3, b3 = deriv(t + 0.5 * h, f + 0.5 * h * a2, df + 0.5 * h * b2)
        a4, b4 = deriv(t + h, f + h * a3, df + h * b3)
        f = f + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        df = df + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        t = t0 + (i + 1) * h
        yield t, f


_ODE_DEFAULTS = {
    "afs1-minimal": ({"c1": 1.0, "a": 1.0, "c2": 1.0, "c3": 0.0}, (0.0, 1.0)),
    "afs2-cmc": ({"H0": 1.0, "c1": 1.0, "c2": 1.0, "c3": 0.0}, (-1.0, 0.0)),
}


def ode_crosscheck(
    ode: str,
    params: dict | None = None,
    trange: tuple[float, float] | None = None,
    steps: int = 1000,
) -> float:
    """Max pointwise |numeric - closed form| for a profile's defining ODE.

    ``afs1-minimal``: the damped oscillation behind the minimal sheared
    exponential family, (1+a^2)*f'' + 2*a*c1*f' + c1^2*f = 0.
    ``afs2-cmc``: the slope equation f'' = 2*H0*c1^2*(f')^3 behind the
    constant-H family with a constant first factor.  Initial conditions
    come from the closed form at the range start, and each node is
    compared as :func:`_rk4` yields it.  ``params`` follow a family's
    rule (``catalog._merged_params``): an unknown name, or a value that
    is not a finite real number, is a ParameterError naming the ODE and
    the parameter, raised before any evaluation.  A non-finite gap
    raises ValueError instead of being skipped, and so does an
    arithmetic error on the way, naming the ODE.
    """
    if ode not in _ODE_DEFAULTS:
        known = ", ".join(sorted(_ODE_DEFAULTS))
        raise ValueError(f"unknown ode {ode!r} (known: {known})")
    defaults, default_range = _ODE_DEFAULTS[ode]
    merged = _merged_params(ode, defaults, params or {})
    t0, t1 = trange if trange is not None else default_range
    if not t1 > t0:
        raise ValueError("ode range must satisfy hi > lo")
    if type(steps) is not int:
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError("steps must be at least 1")

    if ode == "afs1-minimal":
        c1, a = merged["c1"], merged["a"]
        if c1 == 0.0 or a == 0.0:
            raise ValueError("afs1-minimal needs c1 != 0 and a != 0")
        closed = minimal_oscillation_profile(c1, a, merged["c2"], merged["c3"])
        denom = 1.0 + a * a

        def deriv(t, f, df):
            return df, -(2.0 * a * c1 * df + c1 * c1 * f) / denom

    else:
        H0, c1, c2 = merged["H0"], merged["c1"], merged["c2"]
        if H0 == 0.0 or c1 == 0.0:
            raise ValueError("afs2-cmc needs H0 != 0 and c1 != 0")
        q = 4.0 * H0 * c1 * c1
        # The radicand c2 - q*t is linear in t, so checking the range
        # ends bounds it over the whole integration window.
        if c2 - q * t0 <= 1e-6 or c2 - q * t1 <= 1e-6:
            raise ValueError("afs2-cmc radicand c2 - 4*H0*c1^2*t must stay positive")
        closed = cmc_slope_profile(H0, c1, c2, merged["c3"])
        rate = 2.0 * H0 * c1 * c1

        def deriv(t, f, df):
            return df, rate * df ** 3

    try:
        start = jets.eval_profile(closed, t0)
        worst = 0.0
        for t, f in _rk4(deriv, t0, (start.v, start.dx), t1, steps):
            exact = jets.eval_profile(closed, t).v
            gap = abs(f - exact)
            if not math.isfinite(gap):
                raise ValueError(f"{ode} gap at t = {t!r} is not finite: {gap!r}")
            worst = max(worst, gap)
    except _EVAL_ERRORS as err:
        raise ValueError(f"{ode}: evaluation failed: {err}") from None
    return worst


# ---------------------------------------------------------------------------
# randomized nonexistence probes


class ProbeInstance(_Report):
    def __init__(self, label: str, stat: float, flat: bool, degenerate: bool, bad: bool) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)


class ProbeReport(_Report):
    def __init__(
        self,
        kind: str,
        count: int,
        seed: int,
        grid: int,
        floor: float,
        counterexamples: int,
        min_stat: float,
        instances: tuple[ProbeInstance, ...],
    ) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)


class OdeReport(_Report):
    """An ``ode_crosscheck`` error against its tolerance, as ``isocurv ode-check`` prints it."""

    def __init__(
        self, ode: str, steps: int, max_error: float, tolerance: float, passed: bool
    ) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)


_PROBE_KINDS = ("afs2-minimal", "afs2-constant-K")


def _require_probe(kind: str, floor: float) -> None:
    """Refuse an unknown probe kind or a floor that is negative or not finite."""
    if kind not in _PROBE_KINDS:
        raise ValueError(f"unknown probe kind {kind!r} (known: {', '.join(_PROBE_KINDS)})")
    _require_finite_nonnegative("probe floor", floor)


def draw_nonplanar_type2(count: int, seed: int) -> list[AffineFactorable]:
    """Random type-2 instances with the planar draws rejected.

    Planes are genuine minimal (and flat) type-2 surfaces, so leaving
    them in would hand the probes spurious counterexamples.
    """
    rng = SplitMix64(seed)
    out: list[AffineFactorable] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * max(count, 1):
            raise RuntimeError("too many planar draws; generator looks degenerate")
        candidate = random_instance(rng, TYPE2)
        if not is_planar(candidate):
            out.append(candidate)
    return out


def probe_instances(
    kind: str,
    instances: Sequence[AffineFactorable],
    n: int = 11,
    floor: float = PROBE_FLOOR,
) -> ProbeReport:
    """Probe given instances for violations of a nonexistence claim.

    ``afs2-minimal``: an instance is a counterexample when |H| stays at
    or below the floor over its whole sampled grid.  ``afs2-constant-K``:
    a counterexample has K spread at or below the floor while max |K|
    sits above it (numerically flat instances are allowed; flat type-2
    surfaces exist and are not covered by the claim).  No instance at
    all is an error: it would report no counterexamples having probed
    nothing, and so is a floor that is negative or not finite.
    """
    _require_probe(kind, floor)
    if not instances:
        raise ValueError("a probe needs at least 1 instance, got none")
    results = []
    for s in instances:
        run = sample_grid(s, n=n)
        if len(run.K) < 4:
            results.append(ProbeInstance(s.label, -1.0, False, True, False))
            continue
        if kind == "afs2-minimal":
            stat, flat = _max_deviation(run.H, 0.0), False
        else:
            stat, flat = max(run.K) - min(run.K), _max_deviation(run.K, 0.0) <= floor
        results.append(ProbeInstance(s.label, stat, flat, False, not flat and stat <= floor))
    usable = [r.stat for r in results if not (r.degenerate or r.flat)]
    return ProbeReport(
        kind=kind,
        count=len(instances),
        seed=-1,
        grid=n,
        floor=floor,
        counterexamples=sum(1 for r in results if r.bad),
        min_stat=min(usable, default=-1.0),
        instances=tuple(results),
    )


def probe_nonexistence(
    kind: str,
    count: int = 100,
    seed: int = 42,
    n: int = 11,
    floor: float = PROBE_FLOOR,
) -> ProbeReport:
    """Randomized search for counterexamples to a type-2 nonexistence claim.

    A bad kind or floor is refused before any instance is drawn.
    """
    _require_probe(kind, floor)
    instances = draw_nonplanar_type2(count, seed)
    report = probe_instances(kind, instances, n=n, floor=floor)
    return report.replace(seed=seed)
