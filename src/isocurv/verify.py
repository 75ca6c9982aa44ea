"""Grid sampling, constancy checks, cross-validation, and probe searches.

The checks in this module never trust a single evaluation route.
Constancy is measured over whole grids; the specialized product-surface
formulas are compared against the generic chart route on random points;
jets are compared against central finite differences; the closed-form
profiles are compared against a Runge-Kutta integration of their
defining equations; and the nonexistence claims for type-2 surfaces
(no nonplanar minimal ones, no nonflat constant-K ones) are probed
with randomized counterexample searches.

Every report serializes to JSON with a fixed key order so repeated
runs with the same seeds are byte-identical.
"""

from __future__ import annotations

import json
import math

from . import jets
from .jets import BranchDomainError, Jet2
from .geometry import (
    AdmissibilityError,
    Motion,
    Record,
    Rect,
    SurfaceChart,
    Z_OVER_XY,
    apply_motion,
    as_parametric,
    monge_x_curvatures,
    monge_z_curvatures,
    parametric_curvatures,
)
from .factorable import (
    TYPE1,
    TYPE2,
    AffineFactorable,
    afs1_curvatures,
    afs2_curvatures,
    as_chart,
    is_planar,
    random_instance,
    regularity,
)
from .catalog import cmc_slope_profile, minimal_oscillation_profile
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
    "draw_nonplanar_type2",
    "probe_instances",
    "probe_nonexistence",
]

DEFAULT_TOL = 1e-9
#: Magnitudes below this count as "numerically zero" in probe searches.
PROBE_FLOOR = 1e-4
#: Cross-validation skips type-2 points with regularity magnitude below this.
_CROSS_REG_FLOOR = 1e-3

_EVAL_ERRORS = (AdmissibilityError, BranchDomainError, ZeroDivisionError, OverflowError)


class GridRun(Record):
    """Curvatures sampled over a grid, with per-point exclusions.

    The included points and their values are parallel columns in grid
    order: ``K[i]``, ``H[i]`` and ``heights[i]`` belong to ``points[i]``.
    ``heights`` holds the graph height each route computed on its way
    to K and H (None for a parametric patch).
    """

    __slots__ = __match_args__ = ("subject", "domain", "n", "points", "K", "H", "heights", "excluded")

    def __init__(
        self,
        subject: str,
        domain: Rect,
        n: int,
        points: tuple[tuple[float, float], ...],
        K: tuple[float, ...],
        H: tuple[float, ...],
        heights: tuple[float | None, ...],
        excluded: tuple[tuple[tuple[float, float], str], ...],
    ) -> None:
        super().__init__(subject, domain, n, points, K, H, heights, excluded)

    def values(self, quantity: str) -> list[float]:
        if quantity == "K":
            return list(self.K)
        if quantity == "H":
            return list(self.H)
        raise ValueError(f"unknown quantity {quantity!r}")


class VerificationReport(Record):
    __slots__ = __match_args__ = (
        "subject",
        "domain",
        "grid",
        "quantity",
        "target",
        "max_abs_deviation",
        "mean",
        "tolerance",
        "passed",
        "excluded_points",
        "notes",
    )

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
        super().__init__(
            subject, domain, grid, quantity, target, max_abs_deviation, mean, tolerance,
            passed, excluded_points, notes,
        )

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "domain": self.domain.as_json() if self.domain is not None else None,
            "grid": self.grid,
            "quantity": self.quantity,
            "target": self.target,
            "max_abs_deviation": self.max_abs_deviation,
            "mean": self.mean,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "excluded_points": [
                [[p[0], p[1]], reason] for p, reason in self.excluded_points
            ],
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def sample_grid(surface, domain: Rect | None = None, n: int = 21, subject: str = "") -> GridRun:
    """Evaluate K and H on an n x n grid, collecting exclusions.

    Points where evaluation raises an admissibility or branch-domain
    error (or overflows, or yields a non-finite value) are excluded
    with a reason instead of aborting the run.

    An :class:`AffineFactorable` is walked by grid rows and columns
    (see :func:`_sample_product`): a profile that depends on a single
    grid coordinate is evaluated once per grid line and its jet reused
    along the line, so the profiles must be pure functions of their
    argument.  Any other surface is evaluated point by point.
    """
    if domain is None:
        domain = surface.domain
    if not subject:
        subject = getattr(surface, "label", "") or type(surface).__name__
    if isinstance(surface, AffineFactorable):
        return GridRun(subject, domain, n, *_sample_product(surface, domain, n))
    curvatures = _grid_route(surface)
    points, ks, hs, heights = [], [], [], []
    excluded = []
    for p in domain.grid(n):
        try:
            pair = curvatures(p)
        except _EVAL_ERRORS as err:
            excluded.append((p, str(err)))
            continue
        K, H = pair.K, pair.H
        if not (math.isfinite(K) and math.isfinite(H)):
            excluded.append((p, "non-finite curvature value"))
            continue
        points.append(p)
        ks.append(K)
        hs.append(H)
        heights.append(pair.w)
    return GridRun(
        subject, domain, n, tuple(points), tuple(ks), tuple(hs), tuple(heights), tuple(excluded)
    )


def _grid_route(surface):
    """The curvature route sample_grid calls at each point of a grid.

    It is the function that ``surface.curvatures`` would dispatch to,
    in a closure over its first argument, so the dispatch happens once
    per grid instead of at each point.
    """
    if isinstance(surface, SurfaceChart):
        route = monge_z_curvatures if surface.orientation == Z_OVER_XY else monge_x_curvatures
        height = surface.height

        def curvatures(p):
            return route(height, p)

        return curvatures
    return surface.curvatures


def _sample_product(s: AffineFactorable, domain: Rect, n: int):
    """sample_grid's columns for a product surface, walked row by row.

    f1(x) of type 1 depends on the row coordinate and f2(z) of type 2 on
    the column coordinate, so their jets are evaluated once per grid
    line.  So are the other profile's, where its argument y + a*x (type
    1) or y + a*z (type 2) is a grid coordinate bit for bit (see
    :func:`_shear_is_inert`); otherwise a :class:`_ShearedJets` looks
    them up by argument.  A profile that raises leaves its exclusion
    text in place of the jet; where both raise, f1's text goes first,
    as in :meth:`AffineFactorable.curvatures`.
    """
    us, vs = domain.coordinates(n)
    a = s.shear
    if s.kind == TYPE1:
        route = afs1_curvatures
        f1_rows = [_profile_jet(s.factor1, u) for u in us]
        if _shear_is_inert(a, us, vs):
            f2_columns = [_profile_jet(s.factor2, v) for v in vs]
            rows = (([j1] * n, f2_columns) for j1 in f1_rows)
        else:
            sheared = _ShearedJets(s.factor2)
            rows = (
                ([j1] * n, sheared.line([v + a * u for v in vs])) for u, j1 in zip(us, f1_rows)
            )
    else:
        route = afs2_curvatures
        f2_columns = [_profile_jet(s.factor2, v) for v in vs]
        if _shear_is_inert(a, vs, us):
            rows = (([_profile_jet(s.factor1, u)] * n, f2_columns) for u in us)
        else:
            sheared = _ShearedJets(s.factor1)
            rows = ((sheared.line([u + a * v for v in vs]), f2_columns) for u in us)
    points, ks, hs, heights = [], [], [], []
    excluded = []
    for u, (j1s, j2s) in zip(us, rows):
        for v, j1, j2 in zip(vs, j1s, j2s):
            p = (u, v)
            if j1.__class__ is str or j2.__class__ is str:
                excluded.append((p, j1 if j1.__class__ is str else j2))
                continue
            try:
                pair = route(s, p, j1, j2)
            except _EVAL_ERRORS as err:
                excluded.append((p, str(err)))
                continue
            K, H = pair.K, pair.H
            if not (math.isfinite(K) and math.isfinite(H)):
                excluded.append((p, "non-finite curvature value"))
                continue
            points.append(p)
            ks.append(K)
            hs.append(H)
            heights.append(pair.w)
    return tuple(points), tuple(ks), tuple(hs), tuple(heights), tuple(excluded)


def _profile_jet(profile, t: float) -> Jet2 | str:
    """The jet of a profile at t, or the exclusion text of the error it raises.

    The text, not the exception: an exception object re-raised at each
    point that uses it would grow its traceback at every raise.
    """
    try:
        return jets.eval_profile(profile, t)
    except _EVAL_ERRORS as err:
        return str(err)


def _shear_is_inert(a: float, ts: list[float], cs: list[float]) -> bool:
    """Is c + a*t the float c itself for every t in ts and c in cs?

    With a = 0 and a finite t, a*t is a zero of either sign, and adding
    it changes no c but -0.0: -0.0 + 0.0 is 0.0.  So a profile that
    takes c + a*t can be evaluated at the values c, once each, exactly
    when this holds.
    """
    return (
        a == 0.0
        and all(map(math.isfinite, ts))
        and not any(math.copysign(1.0, c) < 0.0 for c in cs if c == 0.0)
    )


class _ShearedJets(dict):
    """A sheared profile's jets (or exclusion texts) by argument, for one grid walk.

    A sheared argument such as y + a*x can take a new value at every one
    of the n^2 points, where storing its jets saves nothing; with a = 1
    on a square grid it repeats along diagonals.  So the jets of the
    first two grid lines are stored, and if no argument has come up
    twice by then, storing stops: the dict holds O(n) jets rather than
    O(n^2).  Otherwise every jet is stored.  The key is u, or (sign of
    u,) for a zero u, because 0.0 == -0.0 as dict keys while a profile
    may tell them apart.
    """

    __slots__ = ("profile", "lines", "keep")

    def __init__(self, profile) -> None:
        super().__init__()
        self.profile = profile
        self.lines = 0
        self.keep = True

    def __missing__(self, key):
        u = key if key.__class__ is float else math.copysign(0.0, key[0])
        j = _profile_jet(self.profile, u)
        if self.keep:
            self[key] = j
        return j

    def line(self, args: list[float]) -> list[Jet2 | str]:
        """The jets at the arguments of one grid line."""
        out = [self[u if u else (math.copysign(1.0, u),)] for u in args]
        self.lines += 1
        if self.lines == 2 and len(self) == 2 * len(args):
            self.keep = False
        return out


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
    Sums run left to right over the grid order, so the report is
    deterministic.  Fewer than 4 included samples is an error: a claim
    of constancy over a grid needs more than a corner's worth of data.
    So is a non-finite sample: ``max`` would silently skip a NaN.
    """
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
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"{check} got a non-finite sample at index {i}: {v!r}")
    mean = sum(values) / len(values)
    if center is None:
        center = mean
    max_dev = max([abs(v - center) for v in values])
    return VerificationReport(
        max_abs_deviation=max_dev, mean=mean, passed=max_dev <= report["tolerance"], **report
    )


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
    skipped (both routes would only amplify rounding there).
    """
    chart = as_chart(instance)
    type2 = instance.kind == TYPE2
    route = afs2_curvatures if type2 else afs1_curvatures
    rng = SplitMix64(seed)
    (u_lo, u_hi), (v_lo, v_hi) = instance.domain.u, instance.domain.v
    deviations = []
    excluded = []
    for _ in range(n_points):
        p = (rng.uniform(u_lo, u_hi), rng.uniform(v_lo, v_hi))
        try:
            # One evaluation of the profiles serves the regularity skip
            # and the specialized route; the chart never sees it.
            j1, j2 = instance.profile_jets(p)
            if type2 and abs(regularity(instance, j1, j2)) < _CROSS_REG_FLOOR:
                excluded.append((p, f"regularity magnitude below {_CROSS_REG_FLOOR:g}"))
                continue
            special = route(instance, p, j1, j2)
            generic = chart.curvatures(p)
        except _EVAL_ERRORS as err:
            excluded.append((p, str(err)))
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

    The surface is taken as a parametric patch, and each grid point
    evaluates its coordinate jets once: ``before`` comes from those
    jets, ``after`` from their image under :func:`apply_motion`, which
    are the jets of the moved patch at the same (u, v).
    """
    if isinstance(surface, AffineFactorable):
        base = as_parametric(as_chart(surface))
        subject = subject or surface.label
    elif isinstance(surface, SurfaceChart):
        base = as_parametric(surface)
    else:
        base = surface
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
    sit at least 2h inside it so the stencil stays evaluable.  A
    non-finite gap raises ValueError instead of being skipped.
    """
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
    """Classic fixed-step fourth-order Runge-Kutta over [t0, t1]."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    h = (t1 - t0) / steps
    t = t0
    y = tuple(float(v) for v in y0)
    out = [(t, y)]
    for i in range(steps):
        k1 = deriv(t, y)
        y2 = tuple(v + 0.5 * h * k for v, k in zip(y, k1))
        k2 = deriv(t + 0.5 * h, y2)
        y3 = tuple(v + 0.5 * h * k for v, k in zip(y, k2))
        k3 = deriv(t + 0.5 * h, y3)
        y4 = tuple(v + h * k for v, k in zip(y, k3))
        k4 = deriv(t + h, y4)
        y = tuple(
            v + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
        t = t0 + (i + 1) * h
        out.append((t, y))
    return out


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
    come from the closed form at the range start.  A non-finite gap
    raises ValueError instead of being skipped.
    """
    if ode not in _ODE_DEFAULTS:
        known = ", ".join(sorted(_ODE_DEFAULTS))
        raise ValueError(f"unknown ode {ode!r} (known: {known})")
    defaults, default_range = _ODE_DEFAULTS[ode]
    merged = dict(defaults)
    for name, value in (params or {}).items():
        if name not in merged:
            expected = ", ".join(merged)
            raise ValueError(f"unknown ode parameter {name!r} (expected: {expected})")
        merged[name] = float(value)
    t0, t1 = trange if trange is not None else default_range
    if not t1 > t0:
        raise ValueError("ode range must satisfy hi > lo")

    if ode == "afs1-minimal":
        c1, a = merged["c1"], merged["a"]
        if c1 == 0.0 or a == 0.0:
            raise ValueError("afs1-minimal needs c1 != 0 and a != 0")
        closed = minimal_oscillation_profile(c1, a, merged["c2"], merged["c3"])
        denom = 1.0 + a * a

        def deriv(t, y):
            return (y[1], -(2.0 * a * c1 * y[1] + c1 * c1 * y[0]) / denom)

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

        def deriv(t, y):
            return (y[1], rate * y[1] ** 3)

    start = jets.eval_profile(closed, t0)
    path = _rk4(deriv, t0, (start.v, start.dx), t1, steps)
    worst = 0.0
    for t, y in path:
        exact = jets.eval_profile(closed, t).v
        gap = abs(y[0] - exact)
        if not math.isfinite(gap):
            raise ValueError(f"{ode} gap at t = {t!r} is not finite: {gap!r}")
        worst = max(worst, gap)
    return worst


# ---------------------------------------------------------------------------
# randomized nonexistence probes


class ProbeInstance(Record):
    __slots__ = __match_args__ = ("label", "stat", "flat", "degenerate", "bad")

    def __init__(self, label: str, stat: float, flat: bool, degenerate: bool, bad: bool) -> None:
        super().__init__(label, stat, flat, degenerate, bad)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "stat": self.stat,
            "flat": self.flat,
            "degenerate": self.degenerate,
            "bad": self.bad,
        }


class ProbeReport(Record):
    __slots__ = __match_args__ = (
        "kind", "count", "seed", "grid", "floor", "counterexamples", "min_stat", "instances"
    )

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
        super().__init__(kind, count, seed, grid, floor, counterexamples, min_stat, instances)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "seed": self.seed,
            "grid": self.grid,
            "floor": self.floor,
            "counterexamples": self.counterexamples,
            "min_stat": self.min_stat,
            "instances": [inst.to_dict() for inst in self.instances],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


_PROBE_KINDS = ("afs2-minimal", "afs2-constant-K")


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
    nothing.
    """
    if kind not in _PROBE_KINDS:
        raise ValueError(f"unknown probe kind {kind!r} (known: {', '.join(_PROBE_KINDS)})")
    if not instances:
        raise ValueError("a probe needs at least 1 instance, got none")
    results = []
    for s in instances:
        run = sample_grid(s, n=n)
        if len(run.points) < 4:
            results.append(ProbeInstance(s.label, -1.0, False, True, False))
            continue
        if kind == "afs2-minimal":
            stat = max(abs(v) for v in run.values("H"))
            results.append(ProbeInstance(s.label, stat, False, False, stat <= floor))
        else:
            ks = run.values("K")
            max_abs = max(abs(v) for v in ks)
            spread = max(ks) - min(ks)
            if max_abs <= floor:
                results.append(ProbeInstance(s.label, spread, True, False, False))
            else:
                results.append(ProbeInstance(s.label, spread, False, False, spread <= floor))
    usable = [r.stat for r in results if not (r.degenerate or r.flat)]
    min_stat = min(usable) if usable else -1.0
    return ProbeReport(
        kind=kind,
        count=len(instances),
        seed=-1,
        grid=n,
        floor=floor,
        counterexamples=sum(1 for r in results if r.bad),
        min_stat=min_stat,
        instances=tuple(results),
    )


def probe_nonexistence(
    kind: str,
    count: int = 100,
    seed: int = 42,
    n: int = 11,
    floor: float = PROBE_FLOOR,
) -> ProbeReport:
    """Randomized search for counterexamples to a type-2 nonexistence claim."""
    if kind not in _PROBE_KINDS:
        raise ValueError(f"unknown probe kind {kind!r} (known: {', '.join(_PROBE_KINDS)})")
    instances = draw_nonplanar_type2(count, seed)
    report = probe_instances(kind, instances, n=n, floor=floor)
    return report.replace(seed=seed)
