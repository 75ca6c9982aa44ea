"""Affine factorable surfaces: a height that is a product of two profiles.

Two kinds of graph surfaces are built from single-variable profiles
f1, f2 and a shear constant a:

* type-1:  z = f1(x) * f2(y + a*x)     over the (x, y) plane
* type-2:  x = f1(y + a*z) * f2(z)     over the (y, z) plane

With a = 0 these reduce to plain factorable (product) surfaces.  Type-1
graphs are admissible everywhere; a type-2 graph is admissible exactly
where its height moves with z, measured by :func:`regularity`:

    reg(y, z) = a * f1'(y + a*z) * f2(z) + f1(y + a*z) * f2'(z)

which is w_z for the height w(y, z) = f1(y + a*z) * f2(z).

Direct differentiation of the graph heights gives closed curvature
formulas in the shifted profile arguments:

* type-1:  K  = f1*f2*f1''*f2'' - (f1'*f2')^2          (no a anywhere)
           2H = (1 + a^2)*f1*f2'' + 2a*f1'*f2' + f1''*f2
* type-2:  K  = (f1*f2*f1''*f2'' - (f1'*f2')^2) / reg^4
           2H = ((f1'*f2)^2*f1*f2'' - 2*(f1'*f2')^2*f1*f2
                 + (f1*f2')^2*f2*f1'' + f1*f2''
                 + 2a*f1'*f2' + a^2*f1''*f2) / reg^3

Each formula is written once, in a kernel: :func:`afs1_line` and
:func:`afs2_line` apply it at a column of points, given each profile's
jets there, and fill lists of K, H and the height, or exclude a point,
by its index, with a text.  A grid row is the case where f1's jet is
shared by every point.  :func:`grid_lines` is the one walk of a
product grid: it yields each row's profile jets to grid sampling,
whose :func:`sample_lines` runs the kernel of the surface's kind per
row and moves the row into the run (``isocurv.geometry._move_row``),
and to the type-2 build check in ``isocurv.catalog``, which runs
:func:`regularity`.  A grid walk evaluates each unsheared argument as a
Jet1, once per grid line, and a sheared one either from a memo, where
the arguments repeat, or on columns of whole grid lines, about
:data:`_BLOCK` arguments each (:func:`_sheared_lines`);
cross-validation evaluates a profile on one column over all its random
points (:meth:`AffineFactorable.profile_columns`).  The
route of a kind, :attr:`AffineFactorable.route`, is
:func:`afs1_curvatures` or :func:`afs2_curvatures`: its kernel on a
column of points, with one entry per point, a pair or its exclusion
text; a non-finite K or H gives a NaN pair.  Cross-validation runs it
once per surface, and :meth:`AffineFactorable.curvatures` on a
one-point column, raising :class:`AdmissibilityError` with an
exclusion's text, through the adapter that charts share
(``isocurv.geometry._pairs``).  The tests compare the kernels bit for
bit with the frozen point-by-point formulas in ``tests/reference_routes.py``.

These specialized routes are deliberately kept separate from the
generic chart formulas in :mod:`isocurv.geometry`, whose kernels take
columns of points too but see no profile jet, so the two can be
cross-checked numerically (see ``isocurv.verify.cross_validate``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, islice

from . import jets
from .jets import Jet1, Jet2
from .geometry import (
    _EVAL_ERRORS,
    ADMISSIBILITY_EPS,
    NON_FINITE,
    Columns,
    CurvaturePair,
    Record,
    Rect,
    SurfaceChart,
    X_OVER_YZ,
    Z_OVER_XY,
    _exclude,
    _move_row,
    _only_pair,
    _pairs,
    fields,
)
from .rng import SplitMix64

__all__ = [
    "TYPE1",
    "TYPE2",
    "NON_FINITE",
    "AffineFactorable",
    "afs1_curvatures",
    "afs1_line",
    "afs2_curvatures",
    "afs2_line",
    "grid_lines",
    "profile_column",
    "sample_lines",
    "regularity",
    "as_chart",
    "random_profile",
    "random_instance",
    "is_planar",
]

TYPE1 = "type-1"
TYPE2 = "type-2"

#: A twice-differentiable function of one variable in jet arithmetic:
#: :func:`isocurv.jets.eval_profile` calls it on a Jet1, a chart on a Jet2.
Profile = "Callable[[Jet1 | Jet2], Jet1 | Jet2]"


class AffineFactorable(Record):
    """A type-1 or type-2 product surface.

    ``shear`` is the constant a of the affine substitution; a = 0 gives
    the plain factorable case.  ``domain`` is the chart rectangle:
    (x, y) ranges for type-1, (y, z) ranges for type-2.

    The profiles must be pure functions of their argument: the same
    float in, the same jet (or the same exception) out, with no hidden
    state.  A grid walk (:func:`grid_lines`) reuses a profile's jet, or
    its exclusion text, along a grid line, and cross-validation hands
    one evaluation to both the regularity test and the curvature route;
    that is only the same computation when the profiles are pure.
    """

    def __init__(
        self,
        kind: str,
        factor1: Profile,
        factor2: Profile,
        shear: float,
        domain: Rect,
        label: str = "",
    ) -> None:
        if kind not in (TYPE1, TYPE2):
            raise ValueError(f"unknown surface kind {kind!r}")
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)

    def profile_arguments(self, p: tuple[float, float]) -> tuple[float, float]:
        """The shifted arguments (u1, u2) fed to the profiles at chart point p."""
        if self.kind == TYPE1:
            return (p[0], p[1] + self.shear * p[0])
        return (p[0] + self.shear * p[1], p[1])

    def profile_jets(self, p: tuple[float, float]) -> tuple[Jet1, Jet1]:
        """The jets of f1 and f2 at their shifted arguments for chart point p."""
        u1, u2 = self.profile_arguments(p)
        return jets.eval_profile(self.factor1, u1), jets.eval_profile(self.factor2, u2)

    def profile_columns(self, points: Sequence[tuple[float, float]]) -> tuple[list, list]:
        """f1's and f2's jets at the shifted arguments of each point, one column each.

        The arguments are :meth:`profile_arguments`' floats.  Where a
        profile raises, its list holds the exclusion text instead
        (:func:`profile_column`).  Cross-validation, with its many
        random points, is the one caller: a grid walk takes a line's
        jets from :func:`grid_lines`.
        """
        a = self.shear
        if self.kind == TYPE1:
            u1s, u2s = [x for x, _ in points], [y + a * x for x, y in points]
        else:
            u1s, u2s = [y + a * z for y, z in points], [z for _, z in points]
        return profile_column(self.factor1, u1s), profile_column(self.factor2, u2s)

    @property
    def route(self) -> Callable[..., list]:
        """This kind's closed-form route: :func:`afs1_curvatures` or :func:`afs2_curvatures`."""
        return afs1_curvatures if self.kind == TYPE1 else afs2_curvatures

    def curvatures(self, p: tuple[float, float]) -> CurvaturePair:
        """The route at the one point p: its pair, or :class:`AdmissibilityError` with its text."""
        j1, j2 = self.profile_jets(p)
        return _only_pair(self.route(self, (p,), (j1,), (j2,)))


def afs1_curvatures(
    s: AffineFactorable, points: Sequence[tuple[float, float]], j1s: Sequence, j2s: Sequence
) -> list[CurvaturePair | str]:
    """Closed-form curvatures of a type-1 surface at each point (x, y) of a column.

    ``j1s`` and ``j2s`` are the jets of f1 and f2 at the shifted
    arguments of each point, as :meth:`AffineFactorable.profile_columns`
    evaluates them, or a profile's exclusion text.  Each point gets the
    entry of :func:`afs1_line` there (see :func:`_pairs`); a pair's
    ``w``, the height f1 * f2, is the value of the :func:`as_chart` height jet.
    """
    if s.kind != TYPE1:
        raise ValueError(f"afs1_curvatures needs a {TYPE1} surface, got {s.kind}")
    return _pairs(afs1_line, s.shear, points, j1s, j2s)


def afs1_line(
    a: float,
    us: Sequence[float],
    vs: Sequence[float],
    j1s: Sequence[Jet1 | str],
    j2s: Sequence[Jet1 | str],
    columns: Columns,
) -> None:
    """The type-1 formulas at the points (x, y) = (us[i], vs[i]), into ``columns``.

    ``j1s`` are f1's jets at x and ``j2s`` f2's jets at y + a*x; either
    may be the exclusion text of the error its profile raised, and f1's
    text goes first.  Each point is either included, with K, H and the
    height w = f1*f2 appended to the lists in ``columns``, which start
    empty, or excluded as an ``(i, text)`` pair: its profile's text,
    or :data:`NON_FINITE`, which is also what a square that overflows
    gives.  A square is one product, x * x, correctly rounded; every
    other product runs left to right.  A grid row is the case where
    every point shares f1's jet: its floats and the factors
    (1 + a^2)*f1 and 2a*f1', which the left-to-right products form
    first, are computed again only where the jet changes.  No type-1
    text names a point, so ``us`` and ``vs`` go unread.
    """
    ks, hs, heights, _ = columns
    aa1, a2 = 1.0 + a * a, 2.0 * a
    isfinite = math.isfinite
    j1 = text1 = None
    for jet, j2 in zip(j1s, j2s):
        if jet is not j1:
            j1 = jet
            text1 = jet if jet.__class__ is str else None
            if text1 is None:
                f1, d1, dd1 = jet.v, jet.dx, jet.dxx
                c_dd2, c_d2 = aa1 * f1, a2 * d1
        if text1 is not None or j2.__class__ is str:
            _exclude(columns, j2 if text1 is None else text1)
            continue
        f2, d2, dd2 = j2.v, j2.dx, j2.dxx
        w = f1 * f2
        d12 = d1 * d2
        K = w * dd1 * dd2 - d12 * d12
        H = 0.5 * (c_dd2 * dd2 + c_d2 * d2 + dd1 * f2)
        if isfinite(K) and isfinite(H):
            ks.append(K)
            hs.append(H)
            heights.append(w)
        else:
            _exclude(columns, NON_FINITE)


def afs2_curvatures(
    s: AffineFactorable, points: Sequence[tuple[float, float]], j1s: Sequence, j2s: Sequence
) -> list[CurvaturePair | str]:
    """Closed-form curvatures of a type-2 surface at each point (y, z) of a column.

    As :func:`afs1_curvatures`, with :func:`afs2_line`: a point whose
    regularity is below ADMISSIBILITY_EPS in magnitude gets the
    :func:`regularity` text, which names the point.
    """
    if s.kind != TYPE2:
        raise ValueError(f"afs2_curvatures needs a {TYPE2} surface, got {s.kind}")
    return _pairs(afs2_line, s.shear, points, j1s, j2s)


def afs2_line(
    a: float,
    us: Sequence[float],
    vs: Sequence[float],
    j1s: Sequence[Jet1 | str],
    j2s: Sequence[Jet1 | str],
    columns: Columns,
) -> None:
    """The type-2 formulas at the points (y, z) = (us[i], vs[i]), into ``columns``.

    ``j1s`` are f1's jets at y + a*z and ``j2s`` f2's jets at z;
    exclusions and ``columns`` are as for :func:`afs1_line`, with the
    :func:`regularity` text, which names the point, where |reg| <
    ADMISSIBILITY_EPS.  The denominators keep their signs: reg^3 is
    signed, so H matches the signed graph formula of the x = w(y, z)
    chart.  Only 2a and a^2, which the products form first, are
    hoisted, and (f1'*f2')^2 is squared once for both numerators.
    Float ``*`` and ``/`` raise nothing here: |reg| >= ADMISSIBILITY_EPS
    keeps reg^4 above 1e-32, so no denominator rounds to 0.
    """
    ks, hs, heights, _ = columns
    a2, aa = 2.0 * a, a * a
    isfinite = math.isfinite
    for j1, j2 in zip(j1s, j2s):
        if j1.__class__ is str or j2.__class__ is str:
            _exclude(columns, j1 if j1.__class__ is str else j2)
            continue
        f1, d1, dd1 = j1.v, j1.dx, j1.dxx
        f2, d2, dd2 = j2.v, j2.dx, j2.dxx
        f1d2 = f1 * d2
        reg = a * d1 * f2 + f1d2
        if abs(reg) < ADMISSIBILITY_EPS:
            i = len(ks) + len(columns[3])  # the point at hand, as _exclude counts
            _exclude(columns, _irregular(reg, (us[i], vs[i])))
            continue
        reg2 = reg * reg
        w = f1 * f2
        d12, d1f2 = d1 * d2, d1 * f2
        sq12 = d12 * d12
        K = (w * dd1 * dd2 - sq12) / (reg2 * reg2)
        H = (
            d1f2 * d1f2 * f1 * dd2
            - 2.0 * sq12 * f1 * f2
            + f1d2 * f1d2 * f2 * dd1
            + f1 * dd2
            + a2 * d1 * d2
            + aa * dd1 * f2
        ) / (2.0 * reg2 * reg)
        if isfinite(K) and isfinite(H):
            ks.append(K)
            hs.append(H)
            heights.append(w)
        else:
            _exclude(columns, NON_FINITE)


def sample_lines(
    s: AffineFactorable, us: Sequence[float], vs: Sequence[float], columns: tuple
) -> None:
    """Grid sampling's columns over us x vs: each :func:`grid_lines` row through s's kernel.

    Each row runs ``line(a, [u] * n, vs, j1s, j2s, row)``, and
    ``isocurv.geometry._move_row`` moves it into ``columns``, the run's.
    """
    line = afs1_line if s.kind == TYPE1 else afs2_line
    for u, j1s, j2s in grid_lines(s, us, vs):
        row = [], [], [], []
        line(s.shear, [u] * len(vs), vs, j1s, j2s, row)
        _move_row(columns, row, u, vs)


def grid_lines(s: AffineFactorable, us: Sequence[float], vs: Sequence[float]) -> Iterator[tuple]:
    """Each row u of the grid us x vs with its profile jets, as the line kernels take them.

    Yields ``(u, j1s, j2s)``, a jet per point of the row: for type 1,
    f1's one jet at x = u for every point and f2's at y + a*x for each
    y in ``vs``; for type 2, f1's at u + a*z and f2's at z for each z in
    ``vs``.  A profile that raises leaves its exclusion text in place of
    the jet.  f1(x) of type 1 and f2(z) of type 2 are evaluated once per
    grid line, one :func:`_profile_jet` per argument, and so is the
    shifted profile where the shear changes no argument
    (:func:`_shear_is_inert`); otherwise :func:`_sheared_lines` gives
    its jets, line by line, from a memo or from bounded column blocks.
    """
    a, n = s.shear, len(vs)
    if s.kind == TYPE1:
        if _shear_is_inert(a, us, vs):
            j2s = [_profile_jet(s.factor2, v) for v in vs]
            for u in us:
                yield u, [_profile_jet(s.factor1, u)] * n, j2s
        else:
            sheared = _sheared_lines(s.factor2, ([v + a * u for v in vs] for u in us), n)
            for u, j2s in zip(us, sheared):
                yield u, [_profile_jet(s.factor1, u)] * n, j2s
        return
    j2s = [_profile_jet(s.factor2, v) for v in vs]
    if _shear_is_inert(a, vs, us):
        for u in us:
            yield u, [_profile_jet(s.factor1, u)] * n, j2s
    else:
        sheared = _sheared_lines(s.factor1, ([u + a * v for v in vs] for u in us), n)
        for u, j1s in zip(us, sheared):
            yield u, j1s, j2s


#: About how many arguments one column block of :func:`_sheared_lines` holds.
_BLOCK = 1024


def _sheared_lines(profile, lines: Iterator[list[float]], n: int) -> Iterator[list]:
    """A sheared profile's jets (or exclusion texts) at each grid line's n arguments, in order.

    The first two lines choose, before anything is evaluated.  If an
    argument repeats among them, keyed as :class:`_ShearedJets` keys it,
    as with a = 1 on a square grid, the memo serves every line.  If none
    does, as with a random shear, no argument is likely to come up again,
    and the lines go through :func:`profile_column` in blocks of whole
    lines, about :data:`_BLOCK` arguments each: the memory stays O(n +
    _BLOCK), where a column over the whole grid would take O(n^2).  Each
    argument gets the bits or the text of its own evaluation either way.
    """
    head = list(islice(lines, 2))
    lines = chain(head, lines)
    copysign = math.copysign
    keys = [u if u else (copysign(1.0, u),) for args in head for u in args]
    if len(set(keys)) < len(keys):
        memo = _ShearedJets(profile)
        for args in lines:
            yield memo.line(args)
        return
    per_block = max(1, _BLOCK // max(1, n))
    while block := list(islice(lines, per_block)):
        column = profile_column(profile, [u for args in block for u in args])
        for i in range(len(block)):
            yield column[i * n : (i + 1) * n]


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


def profile_column(profile, ts: Sequence[float]) -> list[Jet1 | str]:
    """The jet of a profile at each t in ts, or the exclusion text of the error it raises there.

    One evaluation on a column of arguments (:func:`isocurv.jets.eval_column`)
    gives each argument the bits of its own evaluation.  A column that
    raises is evaluated point by point: a profile that the column cannot
    carry (one that takes tan, sqrt or power, or reads its argument's
    value, say) and one that raises at some argument, where each argument
    then gets the bits or the text of its own evaluation.
    """
    try:
        return jets.eval_column(profile, ts).jet1s()
    except Exception:
        # Not lost: the point-by-point run raises whatever is not an exclusion.
        return [_profile_jet(profile, t) for t in ts]


def _profile_jet(profile, t: float) -> Jet1 | str:
    """The jet of a profile at t, or the exclusion text of the error it raises.

    The text, not the exception: an exception object re-raised at each
    point that uses it would grow its traceback at every raise.
    """
    try:
        return jets.eval_profile(profile, t)
    except _EVAL_ERRORS as err:
        return str(err)


class _ShearedJets(dict):
    """A sheared profile's jets (or exclusion texts) by argument, for one grid walk.

    :func:`_sheared_lines` uses it where the arguments repeat, as they do
    along the diagonals of a square grid with a = 1, and it stores every
    jet.  The key is u, or (sign of u,) for a zero u, because 0.0 ==
    -0.0 as dict keys while a profile may tell them apart.  Each missing
    argument is evaluated as it is looked up.
    """

    __slots__ = ("profile",)

    def __init__(self, profile) -> None:
        super().__init__()
        self.profile = profile

    def __missing__(self, key):
        j = self[key] = _profile_jet(
            self.profile, key if key.__class__ is float else math.copysign(0.0, key[0])
        )
        return j

    def line(self, args: list[float]) -> list[Jet1 | str]:
        """The jets at the arguments of one grid line."""
        copysign = math.copysign
        return [self[u if u else (copysign(1.0, u),)] for u in args]


def _irregular(reg: float, p: tuple[float, float]) -> str:
    """The exclusion text of a type-2 point whose regularity is below the floor."""
    return (
        f"type-2 regularity |a*f1'*f2 + f1*f2'| = {abs(reg):.3g} "
        f"< {ADMISSIBILITY_EPS:g} at {p!r}"
    )


def regularity(s: AffineFactorable, j1: Jet1, j2: Jet1) -> float:
    """The type-2 admissibility value a*f1'*f2 + f1*f2' from the profile jets.

    ``j1`` and ``j2`` are one point's entries of :func:`afs2_curvatures`'
    columns, so a caller that goes on to the curvatures evaluates the
    profiles once.  Type-1
    graphs are admissible everywhere, so asking for their regularity
    value is a usage error.
    """
    if s.kind != TYPE2:
        raise ValueError("regularity is a type-2 notion; type-1 graphs are always admissible")
    return s.shear * j1.dx * j2.v + j1.v * j2.dx


def as_chart(s: AffineFactorable) -> SurfaceChart:
    """The same surface as a generic graph chart.

    The height composes the profiles with the affine substitution in
    jet arithmetic, so the chart route recomputes everything from
    scratch; agreement with the specialized formulas is a checkable
    property, not a construction.
    """
    if s.kind == TYPE1:

        def height(x: Jet2, y: Jet2) -> Jet2:
            return s.factor1(x) * s.factor2(y + s.shear * x)

        return SurfaceChart(Z_OVER_XY, height, s.domain)

    def height(y: Jet2, z: Jet2) -> Jet2:
        return s.factor1(y + s.shear * z) * s.factor2(z)

    return SurfaceChart(X_OVER_YZ, height, s.domain)


def random_profile(rng: SplitMix64) -> tuple[Profile, str]:
    """Draw one profile from the fixed test-generator family.

    The family: polynomials of degree 1 to 3 with slope coefficients in
    [-1, 1] and constant term in [1.5, 2.5]; exp(c*t); sin(c*t) or
    cos(c*t) plus a constant in [1.5, 2.5]; all with c in [0.5, 1.5].
    The shifts keep typical factor values away from zero so random
    type-2 instances stay regular on most of their domain.
    """
    kind = rng.choice(("poly", "exp", "sin", "cos"))
    if kind == "poly":
        degree = rng.choice((1, 2, 3))
        coeffs = [rng.uniform(1.5, 2.5)]
        coeffs += [rng.uniform(-1.0, 1.0) for _ in range(degree)]

        def poly(t, _c=tuple(coeffs)):
            # A float start: the first step c_n * t is t's scalar fast path.
            acc = _c[-1]
            for c in reversed(_c[:-1]):
                acc = acc * t + c
            return acc

        body = ",".join(f"{c:.3f}" for c in coeffs)
        return poly, f"poly({body})"
    c = rng.uniform(0.5, 1.5)
    if kind == "exp":
        return (lambda t, _c=c: jets.exp(_c * t)), f"exp({c:.3f}*t)"
    shift = rng.uniform(1.5, 2.5)
    trig = jets.sin if kind == "sin" else jets.cos
    return (
        lambda t, _c=c, _s=shift, _f=trig: _f(_c * t) + _s,
        f"{kind}({c:.3f}*t)+{shift:.3f}",
    )


def random_instance(rng: SplitMix64, kind: str) -> AffineFactorable:
    """Draw a random surface of the given kind from the test generator.

    The shear is sign * uniform[0.2, 2], so |a| stays bounded away from
    both 0 and the domain-stretching extremes.  An unknown kind is
    refused before anything is drawn from ``rng``.
    """
    if kind == TYPE1:
        domain = Rect((-0.6, 0.6), (-0.6, 0.6))
    elif kind == TYPE2:
        domain = Rect((-0.5, 0.5), (-0.5, 0.5))
    else:
        raise ValueError(f"unknown surface kind {kind!r}")
    f1, lab1 = random_profile(rng)
    f2, lab2 = random_profile(rng)
    a = rng.sign() * rng.uniform(0.2, 2.0)
    label = f"{kind} a={a:.6g} f1={lab1} f2={lab2}"
    return AffineFactorable(kind, f1, f2, a, domain, label)


def is_planar(s: AffineFactorable) -> bool:
    """True when both profiles look affine over their induced argument ranges.

    "Affine" means |f''| <= 1e-12 at 5 equispaced arguments of each
    range.  The shifted arguments are affine in the chart point, so each
    range runs between its values at the domain's corners.

    Every plane in either ansatz has two affine factors, so this test
    never misses a plane.  It can reject a curved product of two affine
    profiles as well; callers use it only to discard draws, where
    over-rejection is harmless.
    """
    corners = [s.profile_arguments((u, v)) for u in s.domain.u for v in s.domain.v]
    for k, profile in enumerate((s.factor1, s.factor2)):
        lo, hi = min(c[k] for c in corners), max(c[k] for c in corners)
        for i in range(5):
            t = lo + (hi - lo) * i / 4
            if abs(jets.eval_profile(profile, t).dxx) > 1e-12:
                return False
    return True
