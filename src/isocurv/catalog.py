"""Registry of product-surface families with constant-curvature claims.

Each family couples a concrete construction (profiles, shear, default
domain) with the curvature behavior it is supposed to have: identically
flat (K = 0), minimal (H = 0), constant Gaussian curvature K0, or
constant mean curvature H0; ``_CLAIM_MEANING`` states, once, which
curvature each claim constrains and which parameter holds its constant.
``build_family`` instantiates a family, ``expected_profile`` builds it
the same way and reports both the claimed constant and the constant
obtained by direct differentiation at the domain center, and
``isocurv.verify`` checks constancy over whole grids.

A few registered variants carry ``as_printed = True``: they reproduce a
circulating closed form verbatim even though direct differentiation
disagrees with the attached claim.  Their ids end in ``.printed`` when
a corrected sibling exists.  Verification flags them instead of
silently passing; the registry notes say what the discrepancy is.
Those with ``has_derived_constant = False`` are built like any other
family, and their profile reports no derived constant.

Naming scheme for ids: ``<ansatz>.<behavior>.<shape>``.  The ansatz
is AFS1/AFS2 (sheared product, a != 0) or FS1/FS2 (plain product,
a = 0); 1 is the z-graph (TYPE1) and 2 the x-graph (TYPE2) ansatz.
The behavior is the claim: ``flat`` (CLAIM_FLAT), ``min``
(CLAIM_MINIMAL), ``K`` (CLAIM_CONST_K) or ``cmc`` (CLAIM_CONST_H).
``FamilySpec.kind`` and ``FamilySpec.claim`` are read from the id, and
nothing else states them.

To add a family, add one ``_register(FamilySpec(...))`` row to the
registry below: its id, the defaults in ``params``, ``factors`` and
``domain`` as functions of the merged parameters that return the
profile pair (f1, f2) and the default chart rectangle (the unit square
when omitted), and ``constraints`` as ``(text, predicate)`` pairs
checked in order.
``FamilySpec.builder`` runs every product family and adds two rules of
its own: a family whose parameters include the shear ``a`` requires
a != 0 before any constraint, and a type-2 surface is rejected when its
regularity comes within ``_REG_FLOOR`` of zero on the default domain or
cannot be evaluated there, walking a 9 x 9 grid with the walk of grid
sampling, ``isocurv.factorable.grid_lines``.  A build whose arithmetic
fails, whose default domain is not finite in its bounds and widths, or
whose derived constant is not finite, is a ParameterError.
A plain family that is a sheared one at a = 0 is registered from that
twin, an AFS row registered before it, by ``_plain(twin, formula,
**changes)``: its id is the twin's without the leading A, and it keeps
the twin's parameters in order without ``a`` (so a twin's ``factors``
and ``domain`` read ``p.get("a", 0.0)``) and every other field but
those in ``changes``, in practice ``notes`` and ``constraints``.
FS2.K.integral, whose profile inverts a closed-form integral, builds
through ``build_integral_family`` instead.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable

from . import jets
from .jets import BranchDomainError, Jet1, Jet2
from .geometry import AdmissibilityError, Record, Rect, SurfaceChart, X_OVER_YZ, fields
from .factorable import (
    TYPE1,
    TYPE2,
    _EVAL_ERRORS,
    NON_FINITE,
    AffineFactorable,
    Profile,
    grid_lines,
    regularity,
)

__all__ = [
    "CLAIM_FLAT",
    "CLAIM_MINIMAL",
    "CLAIM_CONST_K",
    "CLAIM_CONST_H",
    "ARBITRARY_PROFILES",
    "CurvatureProfile",
    "FamilySpec",
    "UnknownFamilyError",
    "ParameterError",
    "minimal_oscillation_profile",
    "cmc_slope_profile",
    "build_integral_family",
    "family_ids",
    "get_family",
    "build_family",
    "build_with_profile",
    "expected_profile",
    "quantity_for_claim",
]

CLAIM_FLAT = "flat"
CLAIM_MINIMAL = "minimal"
CLAIM_CONST_K = "K-const"
CLAIM_CONST_H = "H-const"

#: Floor on the regularity magnitude over a type-2 default domain.
_REG_FLOOR = 1e-3
#: Floor on the integral profile's radicand over the profile range.
_RADICAND_FLOOR = 1e-6


class UnknownFamilyError(KeyError):
    """Raised for a family id that is not in the registry; its text is the bare message."""

    __str__ = Exception.__str__


class ParameterError(ValueError):
    """Raised for unknown parameter names or violated parameter constraints."""


#: Stand-ins for the "arbitrary profile" slot of the scaling families.
ARBITRARY_PROFILES: dict[str, Profile] = {
    "quadratic": lambda t: 1.0 + t * t,
    "exp": lambda t: jets.exp(t),
    "sin": lambda t: jets.sin(t),
}


class CurvatureProfile(Record):
    """A family's claim next to what direct differentiation yields.

    ``derived_value`` is None when the construction does not produce a
    constant at all (the broken ``.printed`` variants).
    """

    def __init__(self, claim: str, claimed_value: float, derived_value: float | None) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)


#: What the first part of a family id, its ansatz, says of the surface's kind.
_ANSATZ_KIND = {"AFS1": TYPE1, "FS1": TYPE1, "AFS2": TYPE2, "FS2": TYPE2}
#: What the second part of a family id, its behavior, says the family claims.
_BEHAVIOR_CLAIM = {
    "flat": CLAIM_FLAT, "min": CLAIM_MINIMAL, "K": CLAIM_CONST_K, "cmc": CLAIM_CONST_H
}
#: What each claim means: the curvature it constrains, and the parameter
#: that holds its claimed constant (None for a claimed 0).
_CLAIM_MEANING = {
    CLAIM_FLAT: ("K", None),
    CLAIM_MINIMAL: ("H", None),
    CLAIM_CONST_K: ("K", "K0"),
    CLAIM_CONST_H: ("H", "H0"),
}


class FamilySpec(Record):
    """A registered family as data; the module docstring describes its fields.

    ``kind`` and ``claim`` are read from the id's first two parts, its
    ansatz and behavior, so they are not fields.  A string id that does
    not start with a known ansatz and behavior is a ValueError naming
    it.  The repr leaves out ``factors``, ``domain`` and ``constraints``.
    """

    def __init__(
        self,
        id: str,
        formula: str,
        params: dict,
        factors: Callable[[dict], tuple[Profile, Profile]] | None,
        domain: Callable[[dict], Rect] = lambda p: _UNIT,
        constraints: tuple[tuple[str, Callable[[dict], bool]], ...] = (),
        as_printed: bool = False,
        has_derived_constant: bool = True,
        notes: str = "",
    ) -> None:
        if isinstance(id, str):
            ansatz, _, rest = id.partition(".")
            if ansatz not in _ANSATZ_KIND or rest.partition(".")[0] not in _BEHAVIOR_CLAIM:
                raise ValueError(f"unknown ansatz or behavior in family id {id!r}")
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)
    _hidden = ("factors", "domain", "constraints")

    @property
    def kind(self) -> str:
        """TYPE1 or TYPE2, as the id's ansatz states it."""
        return _ANSATZ_KIND[self.id.partition(".")[0]]

    @property
    def claim(self) -> str:
        """The curvature claim, as the id's behavior states it."""
        return _BEHAVIOR_CLAIM[self.id.split(".", 2)[1]]

    def builder(self, p: dict) -> AffineFactorable:
        """The surface for merged parameters ``p``.

        A family with a shear parameter requires a != 0 first, then each
        constraint in order.  The default domain must have finite bounds
        and widths, which parameters near the float range can overflow.
        A type-2 surface must also keep its regularity away from zero on
        that domain, and evaluate there without an error.
        """
        if "a" in self.params:
            _require(p["a"] != 0.0, self.id, "a != 0")
        for text, holds in self.constraints:
            _require(holds(p), self.id, text)
        f1, f2 = self.factors(p)
        d = self.domain(p)
        if not all(map(math.isfinite, (*d.u, *d.v, d.u[1] - d.u[0], d.v[1] - d.v[0]))):
            raise ParameterError(
                f"{self.id}: constraint violated: default domain bounds and widths "
                f"must be finite, got {d.u!r} x {d.v!r}"
            )
        s = AffineFactorable(self.kind, f1, f2, p.get("a", 0.0), d, self.id)
        if s.kind == TYPE2:
            _check_regularity(s)
        return s


def quantity_for_claim(claim: str) -> str:
    """Which curvature a claim constrains: 'K' or 'H'."""
    if claim not in _CLAIM_MEANING:
        raise ValueError(f"unknown claim {claim!r}")
    return _CLAIM_MEANING[claim][0]


def _require(ok: bool, family_id: str, constraint: str) -> None:
    if not ok:
        raise ParameterError(f"{family_id}: constraint violated: {constraint}")


def _normalized_sign(value, family_id: str) -> float:
    if isinstance(value, str):
        value = {"+": 1.0, "+1": 1.0, "1": 1.0, "-": -1.0, "-1": -1.0}.get(value.strip(), 0.0)
    v = float(value)
    _require(v in (1.0, -1.0), family_id, "sign must be +1 or -1")
    return v


# ---------------------------------------------------------------------------
# profile constructors


def _const_profile(c: float) -> Profile:
    """The constant c as a jet of its argument's kind.

    A Jet1 under ``eval_profile``, which then converts nothing, and
    ``Jet2(c)`` otherwise; the Jet1 carries the bits of ``Jet2(c)``'s
    x slots, (c, 0.0, 0.0).
    """
    return lambda t, _c=float(c): Jet1(_c) if t.__class__ is Jet1 else Jet2(_c)


def _linear_profile(slope: float, intercept: float = 0.0) -> Profile:
    return lambda t, _m=float(slope), _b=float(intercept): _m * t + _b


def _scaled_power_profile(scale: float, exponent: float) -> Profile:
    return lambda t, _s=float(scale), _p=float(exponent): _s * jets.power(t, _p)


def _scaled_exp_profile(scale: float, rate: float) -> Profile:
    return lambda t, _s=float(scale), _r=float(rate): _s * jets.exp(_r * t)


def _quadratic_monomial(scale: float) -> Profile:
    return lambda t, _s=float(scale): _s * t * t


def minimal_oscillation_profile(
    c1: float,
    a: float,
    amp_cos: float = 1.0,
    amp_sin: float = 0.0,
    printed_form: bool = False,
) -> Profile:
    """Second factor that makes z = exp(c1*x) * f2(y + a*x) minimal.

    The minimality condition reduces to the linear oscillator

        (1 + a^2) * f2'' + 2*a*c1 * f2' + c1^2 * f2 = 0

    whose solutions decay at rate a*c1/(1+a^2) while oscillating at
    frequency c1/(1+a^2).  ``printed_form = True`` drops the decay
    factor; that variant circulates in closed-form tables but does not
    solve the oscillator, so the resulting surface is not minimal.
    """
    _require(c1 != 0.0, "minimal_oscillation_profile", "c1 != 0")
    _require(a != 0.0, "minimal_oscillation_profile", "a != 0")
    rate = a * c1 / (1.0 + a * a)
    freq = c1 / (1.0 + a * a)

    if printed_form:

        def printed(t: Jet2) -> Jet2:
            return amp_cos * jets.cos(freq * t) + amp_sin * jets.sin(freq * t)

        return printed

    def damped(t: Jet2) -> Jet2:
        osc = amp_cos * jets.cos(freq * t) + amp_sin * jets.sin(freq * t)
        return jets.exp(-rate * t) * osc

    return damped


def cmc_slope_profile(H0: float, c1: float, c2: float = 1.0, c3: float = 0.0) -> Profile:
    """Profile f2 with f2''/(f2')^3 = 2*H0*c1^2, so x = c1*f2(z) has H = H0.

    Closed form: f2(t) = (-2/q) * sqrt(c2 - q*t) + c3 with q = 4*H0*c1^2,
    valid where the radicand is positive.
    """
    _require(H0 != 0.0, "cmc_slope_profile", "H0 != 0")
    _require(c1 != 0.0, "cmc_slope_profile", "c1 != 0")
    q = 4.0 * H0 * c1 * c1

    def profile(t: Jet2) -> Jet2:
        return (-2.0 / q) * jets.sqrt(c2 - q * t) + c3

    return profile


# ---------------------------------------------------------------------------
# integral-profile family


def _antiderivative(c2: float, d: float) -> Callable[[float], float]:
    """An F with F'(s) = sqrt(c2/s - d), wherever c2/s - d > 0.

    F(s) = sqrt(s*(c2 - d*s)) + c2/sqrt(|d|) * g(sqrt(|d/c2|*s)), with g
    = asin for d > 0 (where c2 > 0), asinh for c2 > 0 > d and acosh for
    c2 < 0 and d < 0.  For c2 = 0, F is the line sqrt(-d)*s, and for a d
    that underflows to 0, 2*sqrt(c2*s).
    """
    if c2 == 0.0:
        return lambda s, _r=math.sqrt(-d): _r * s
    if d == 0.0:
        return lambda s: 2.0 * math.sqrt(c2 * s)
    g = math.asin if d > 0.0 else math.asinh if c2 > 0.0 else math.acosh
    w, q = c2 / math.sqrt(abs(d)), abs(d / c2)
    return lambda s: math.sqrt(s) * math.sqrt(c2 - d * s) + w * g(math.sqrt(q * s))


class _MonotoneTable:
    """z(t) = F(t) - F(lo) at 1025 evenly spaced nodes of [lo, hi], inverted pointwise.

    ``antiderivative`` is F and ``slope`` is F' > 0.  A table whose z
    values are not finite or not strictly increasing raises
    :class:`ParameterError`.  ``invert`` brackets z0 between two nodes,
    starts at their secant and takes at most 64 Newton steps, where a
    step that would leave the bracket bisects it.  It stops at a zero
    residual, at a step that does not move t, or at a bracket with no
    float inside, so equal inputs give identical floats.  ``invert`` is
    pure: it remembers nothing, and a z0 outside the table raises
    :class:`BranchDomainError`, which a grid walk excludes.
    """

    def __init__(self, antiderivative, slope, lo: float, hi: float) -> None:
        self.antiderivative, self.slope = antiderivative, slope
        self.f_lo = f_lo = antiderivative(lo)
        self.nodes = [lo + (hi - lo) * i / 1024 for i in range(1024)] + [hi]
        self.zs = zs = [antiderivative(t) - f_lo for t in self.nodes]
        if not all(map(math.isfinite, zs)):
            raise ParameterError("integral table is not finite")
        if not all(a < b for a, b in zip(zs, zs[1:])):
            raise ParameterError("integral table is not strictly increasing")

    @property
    def z_end(self) -> float:
        return self.zs[-1]

    def invert(self, z0: float) -> float:
        """The t with z(t) = z0, for z0 inside the tabulated range."""
        zs, nodes = self.zs, self.nodes
        if not (-1e-9 <= z0 <= zs[-1] + 1e-9):
            raise BranchDomainError("f2", z0, "a height parameter inside the tabulated range")
        zc = min(max(z0, 0.0), zs[-1])
        i = min(bisect.bisect_right(zs, zc), len(zs) - 1)
        a, b = nodes[i - 1], nodes[i]
        t = a + (zc - zs[i - 1]) / (zs[i] - zs[i - 1]) * (b - a)
        F, f_lo, slope = self.antiderivative, self.f_lo, self.slope
        for _ in range(64):
            r = F(t) - f_lo - zc
            if r == 0.0:
                break
            a, b = (t, b) if r < 0.0 else (a, t)
            step = t - r / slope(t)
            if step != t and not a < step < b:
                step = 0.5 * (a + b)
            if step == a or step == b:
                break
            t = step
        return t


def build_integral_family(
    K0: float, c1: float, c2: float, f2_range: tuple[float, float] = (0.5, 2.5)
) -> SurfaceChart:
    """The x-graph w(y, z) = c1 * f2(z) / y with f2 fixed by its integral.

    f2 is defined implicitly by z = integral of sqrt(c2/f2 - K0/c1^2)
    from f2_lo, an elementary integral (``_antiderivative``), which forces
    K = K0/c1^4 identically: at the located profile value t the
    derivatives of f2 are known in closed form, and the Gaussian
    curvature of the chart collapses to (c2/t - radicand(t)) / c1^4.
    The heights and the domain carry only the rounding of the closed
    form and of its inversion, whose Newton slope is the integrand.

    The height remembers the jet of its numerator c1 * f2(z), keyed by
    the z seed's six components, since a grid repeats each z down a
    whole column.  It is cleared once it holds one entry per table node,
    more than the 1001 columns of the largest grid.  It is exact: equal keys
    differ at most in the sign of a zero slot, which gives the same t
    and which the scalar multiply by c1 turns into +0.0.  An equal key
    only ever receives one value, so concurrent callers need no lock.
    """
    fid = "FS2.K.integral"
    _require(K0 != 0.0, fid, "K0 != 0")
    _require(c1 != 0.0, fid, "c1 != 0")
    f2_lo, f2_hi = float(f2_range[0]), float(f2_range[1])
    _require(f2_lo > 0.0, fid, "f2_lo > 0")
    _require(f2_hi > f2_lo, fid, "f2_hi > f2_lo")
    drop = K0 / (c1 * c1)

    def radicand(t: float) -> float:
        return c2 / t - drop

    # The radicand is monotone in t (its derivative is -c2/t^2), so the
    # endpoint checks bound it over the whole range.
    ends = (radicand(f2_lo), radicand(f2_hi))
    _require(
        ends[0] >= _RADICAND_FLOOR and ends[1] >= _RADICAND_FLOOR,
        fid,
        f"radicand c2/t - K0/c1^2 must stay >= {_RADICAND_FLOOR:g} on the profile range",
    )
    finite = "radicand c2/t - K0/c1^2 must be finite on the profile range"
    _require(all(map(math.isfinite, ends)), fid, finite)

    try:
        F = _antiderivative(c2, drop)
        table = _MonotoneTable(F, lambda t: math.sqrt(radicand(t)), f2_lo, f2_hi)
    except ParameterError as err:
        raise ParameterError(f"{fid}: {err}") from None

    numerators: dict[tuple[float, ...], Jet2] = {}

    def height(yj: Jet2, zj: Jet2) -> Jet2:
        key = (zj.v, zj.dx, zj.dy, zj.dxx, zj.dxy, zj.dyy)
        num = numerators.get(key)
        if num is None:
            t = table.invert(zj.v)
            r = radicand(t)
            d1 = 1.0 / math.sqrt(r)
            d2 = c2 / (2.0 * t * t * r * r)
            num = c1 * jets.compose(t, d1, d2, zj)
            if len(numerators) >= len(table.nodes):
                numerators.clear()
            numerators[key] = num
        return num / yj

    span = table.z_end
    pad = 0.01 * span
    domain = Rect((0.5, 1.5), (pad, span - pad))
    return SurfaceChart(X_OVER_YZ, height, domain)


# ---------------------------------------------------------------------------
# factors, domains and constraints of the registered families

_UNIT = Rect((0.0, 1.0), (0.0, 1.0))
_BOX = Rect((0.5, 1.5), (0.5, 1.5))


def _positive_box(kind: str, a: float) -> Rect:
    """A [0.5, 1.5]-style box keeping both shifted arguments positive.

    The coordinate that feeds the affine substitution is pushed up by
    1.5*|a| when a < 0, so the shifted argument still starts at 0.5.
    """
    s = max(0.0, -a) * 1.5
    if kind == TYPE1:
        return Rect((0.5, 1.5), (0.5 + s, 1.5 + s))
    return Rect((0.5 + s, 1.5 + s), (0.5, 1.5))


def _regularity_grid(s: AffineFactorable) -> list[float]:
    """The regularity values on the 9 x 9 grid of the default domain, row-major.

    Walked by :func:`grid_lines`, as grid sampling walks it.  A profile
    that raises is a :class:`ParameterError`; f2's columns are checked
    before f1's rows, the order in which they are evaluated.
    """
    values = []
    for _, j1s, j2s in grid_lines(s, *s.domain.coordinates(9)):
        for j in (*j2s, *j1s):
            if j.__class__ is str:
                raise ParameterError(f"{s.label}: evaluation failed on the default domain: {j}")
        values += [regularity(s, j1, j2) for j1, j2 in zip(j1s, j2s)]
    return values


def _check_regularity(s: AffineFactorable) -> None:
    """Reject parameter choices whose default domain crosses regularity zero (9 x 9 grid)."""
    values = _regularity_grid(s)
    # min() keeps a NaN only when it comes first; report one wherever it sits.
    low = math.nan if any(map(math.isnan, values)) else min(abs(v) for v in values)
    same_sign = all(v > 0.0 for v in values) or all(v < 0.0 for v in values)
    if not same_sign or low < _REG_FLOOR:
        raise ParameterError(
            f"{s.label}: constraint violated: regularity must stay >= {_REG_FLOOR:g} "
            f"in magnitude on the default domain (observed minimum {low:.3g})"
        )


def _scale_domain(p: dict) -> Rect:
    """Default domain of AFS2.flat.scale, whose arbitrary profile is sheared."""
    if p["fn"] == "quadratic":
        # 1 + t^2 has zero slope at t = 0, so keep the profile argument
        # away from the origin where the graph needs a nonzero slope.
        return _positive_box(TYPE2, p["a"])
    if p["fn"] == "exp":
        return _UNIT
    # sin: keep |argument| < pi/2 so the slope cos stays away from zero.
    h = 0.25 / max(1.0, abs(p["a"]))
    return Rect((-h, h), (-h, h))


#: Default z-ranges of FS2.flat.scale, whose arbitrary profile takes z alone.
_FS2_SCALE_Z = {"quadratic": (0.5, 1.5), "exp": (0.0, 1.0), "sin": (-0.25, 0.25)}


def _f1const_domain(p: dict) -> Rect:
    # Anchor the z-range where the radicand c2 - q*z runs from 1 up to
    # 1 + |q|, so the slope profile is smooth on the whole default box.
    q = 4.0 * p["H0"] * p["c1"] * p["c1"]
    z_anchor = (p["c2"] - 1.0) / q
    if q > 0.0:
        return Rect((0.0, 1.0), (z_anchor - 1.0, z_anchor))
    return Rect((0.0, 1.0), (z_anchor, z_anchor + 1.0))


def _cylinder_factors(p: dict) -> tuple[Profile, Profile]:
    """The constant c1 next to an arbitrary profile named by ``fn``."""
    return _const_profile(p["c1"]), ARBITRARY_PROFILES[p["fn"]]


def _exp_factors(p: dict) -> tuple[Profile, Profile]:
    return _scaled_exp_profile(p["c1"], p["c2"]), _scaled_exp_profile(1.0, p["c3"])


def _pow_factors(p: dict) -> tuple[Profile, Profile]:
    """Powers whose exponents sum to 1, the flatness balance."""
    e1 = 1.0 / (1.0 - p["c2"])
    e2 = p["c2"] / (p["c2"] - 1.0)
    return _scaled_power_profile(p["c1"], e1), _scaled_power_profile(1.0, e2)


def _saddle_factors(p: dict) -> tuple[Profile, Profile]:
    return _linear_profile(math.sqrt(abs(p["K0"]))), _linear_profile(1.0)


def _osc_factors(p: dict, printed: bool = False) -> tuple[Profile, Profile]:
    f2 = minimal_oscillation_profile(p["c1"], p["a"], p["c2"], p["c3"], printed_form=printed)
    return _scaled_exp_profile(1.0, p["c1"]), f2


def _exp_trig_factors(p: dict) -> tuple[Profile, Profile]:
    def hyperbolic(t: Jet2, _c1=p["c1"], _c2=p["c2"], _c3=p["c3"]) -> Jet2:
        return _c1 * jets.exp(_c2 * t) + _c3 * jets.exp(-_c2 * t)

    def oscillation(t: Jet2, _c2=p["c2"], _c4=p["c4"], _c5=p["c5"]) -> Jet2:
        return _c4 * jets.cos(_c2 * t) + _c5 * jets.sin(_c2 * t)

    return hyperbolic, oscillation


def _nonzero(name: str, why: str = "") -> tuple[str, Callable[[dict], bool]]:
    return (f"{name} != 0{why}", lambda p: p[name] != 0.0)


_KNOWN_FN = (
    f"fn must be one of {', '.join(map(repr, ARBITRARY_PROFILES))}",
    lambda p: p["fn"] in ARBITRARY_PROFILES,
)
_C2_NOT_ONE = ("c2 != 1", lambda p: p["c2"] != 1.0)
_NEEDS_Z = " (the height would not depend on z)"


class _IntegralFamilySpec(FamilySpec):
    def builder(self, p: dict) -> SurfaceChart:
        return build_integral_family(p["K0"], p["c1"], p["c2"], (p["f2_lo"], p["f2_hi"]))


# ---------------------------------------------------------------------------
# the registry

REGISTRY: dict[str, FamilySpec] = {}


def _register(spec: FamilySpec) -> None:
    REGISTRY[spec.id] = spec


def _plain(twin: str, formula: str, **changes) -> FamilySpec:
    """The registered sheared family ``twin`` at a = 0, with the fields in ``changes``.

    Its id is the twin's without the leading A: AFS1.flat.exp gives FS1.flat.exp.
    """
    spec = REGISTRY[twin]
    params = {name: value for name, value in spec.params.items() if name != "a"}
    return spec.replace(id=twin[1:], formula=formula, params=params, **changes)


_register(FamilySpec(
    id="AFS1.flat.scale",
    formula="z = c1*f2(y + a*x)",
    params={"c1": 1.0, "a": 1.0, "fn": "quadratic"},
    factors=_cylinder_factors,
    constraints=(_nonzero("c1"), _KNOWN_FN),
    notes="a constant first factor kills both flatness terms, any profile works",
))
_register(FamilySpec(
    id="AFS1.flat.exp",
    formula="z = c1*exp(c2*x + c3*(y + a*x))",
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "a": 1.0},
    factors=_exp_factors,
    constraints=(_nonzero("c1"),),
    notes="exponential factors satisfy the flatness balance identically",
))
_register(FamilySpec(
    id="AFS1.flat.pow",
    formula="z = c1*x^(1/(1-c2))*(y + a*x)^(c2/(c2-1))",
    params={"c1": 1.0, "c2": 2.0, "a": 1.0},
    factors=_pow_factors,
    domain=lambda p: _positive_box(TYPE1, p.get("a", 0.0)),
    constraints=(_nonzero("c1"), _C2_NOT_ONE),
    notes="the two exponents sum to 1, which is exactly the flatness balance",
))
_register(FamilySpec(
    id="AFS1.K.saddle",
    formula="z = sqrt(|K0|)*x*(y + a*x)",
    params={"K0": -1.0, "a": 1.0},
    factors=_saddle_factors,
    constraints=(_nonzero("K0"),),
    notes="the attained constant is -|K0|; a positive prescribed K0 is not realized",
))
_register(FamilySpec(
    id="AFS1.min.plane",
    formula="z = c1*(c2*(y + a*x) + c3)",
    params={"c1": 1.0, "c2": 1.0, "c3": 0.0, "a": 1.0},
    factors=lambda p: (_const_profile(p["c1"]), _linear_profile(p["c2"], p["c3"])),
    notes="a graph plane, the trivial minimal case",
))
_register(FamilySpec(
    id="AFS1.min.osc",
    formula="z = exp(c1*x)*exp(-a*c1*u/(1+a^2))*(c2*cos(c1*u/(1+a^2)) + c3*sin(c1*u/(1+a^2))), u = y + a*x",
    params={"c1": 1.0, "a": 1.0, "c2": 1.0, "c3": 0.0},
    factors=_osc_factors,
    constraints=(_nonzero("c1"),),
    notes="second factor solves (1+a^2)*f2'' + 2*a*c1*f2' + c1^2*f2 = 0, decay rate included",
))
_register(FamilySpec(
    id="AFS1.min.osc.printed",
    formula="z = exp(c1*x)*(c2*cos(c1*u/(1+a^2)) + c3*sin(c1*u/(1+a^2))), u = y + a*x",
    params={"c1": 1.0, "a": 1.0, "c2": 1.0, "c3": 0.0},
    factors=lambda p: _osc_factors(p, printed=True),
    constraints=(_nonzero("c1"),),
    as_printed=True,
    has_derived_constant=False,
    notes="circulating form without the decay factor; it does not solve the "
    "minimality equation, so H is not constant (kept for comparison)",
))
_register(FamilySpec(
    id="AFS1.cmc.parabolic",
    formula="z = H0/(1+a^2)*(y + a*x)^2",
    params={"H0": 1.0, "a": 1.0},
    factors=lambda p: (
        _const_profile(1.0), _quadratic_monomial(p["H0"] / (1.0 + p["a"] * p["a"]))
    ),
    constraints=(_nonzero("H0"),),
    notes="a parabolic cylinder over the sheared direction",
))
_register(FamilySpec(
    id="AFS1.cmc.shear",
    formula="z = H0/a*x*(y + a*x)",
    params={"H0": 1.0, "a": 1.0},
    factors=lambda p: (_linear_profile(p["H0"] / p["a"]), _linear_profile(1.0)),
    constraints=(_nonzero("H0"),),
    notes="the cross term alone carries the mean curvature when a != 0",
))
_register(FamilySpec(
    id="AFS2.flat.scale",
    formula="x = c1*f1(y + a*z)",
    params={"c1": 1.0, "a": 1.0, "fn": "quadratic"},
    factors=lambda p: (ARBITRARY_PROFILES[p["fn"]], _const_profile(p["c1"])),
    domain=_scale_domain,
    constraints=(_nonzero("c1"), _KNOWN_FN),
    notes="a constant second factor; needs a nonzero profile slope for admissibility",
))
_register(FamilySpec(
    id="AFS2.flat.exp",
    formula="x = c1*exp(c2*(y + a*z) + c3*z)",
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "a": 1.0},
    factors=_exp_factors,
    constraints=(
        _nonzero("c1"),
        (
            "a*c2 + c3 != 0 (the graph is admissible nowhere otherwise)",
            lambda p: p["a"] * p["c2"] + p["c3"] != 0.0,
        ),
    ),
    notes="admissible exactly when a*c2 + c3 != 0",
))
_register(FamilySpec(
    id="AFS2.flat.pow",
    formula="x = c1*(y + a*z)^(1/(1-c2))*z^(c2/(c2-1))",
    params={"c1": 1.0, "c2": 2.0, "a": 1.0},
    factors=_pow_factors,
    domain=lambda p: _positive_box(TYPE2, p.get("a", 0.0)),
    constraints=(_nonzero("c1"), _C2_NOT_ONE),
    notes="exponents sum to 1; the default domain must stay clear of the "
    "regularity zero line, which the builder checks",
))
_register(FamilySpec(
    id="AFS2.cmc.sqrt",
    formula="x = c1/sqrt(|H0|)*sqrt(y + a*z)",
    params={"H0": 1.0, "c1": 1.0, "a": 1.0},
    factors=lambda p: (
        _scaled_power_profile(p["c1"] / math.sqrt(abs(p["H0"])), 0.5), _const_profile(1.0)
    ),
    domain=lambda p: _positive_box(TYPE2, p["a"]),
    constraints=(_nonzero("H0"), _nonzero("c1")),
    as_printed=True,
    notes="direct differentiation gives the constant -|H0|/(a*c1^2), not the "
    "prescribed H0; verification targets the derived constant and flags the difference",
))
_register(FamilySpec(
    id="AFS2.cmc.f1const",
    formula="x = c1*f2(z) with f2'' = 2*H0*c1^2*(f2')^3",
    params={"H0": 1.0, "c1": 1.0, "c2": 1.0, "c3": 0.0, "a": 1.0},
    factors=lambda p: (
        _const_profile(p["c1"]), cmc_slope_profile(p["H0"], p["c1"], p["c2"], p["c3"])
    ),
    domain=_f1const_domain,
    constraints=(_nonzero("H0"), _nonzero("c1")),
    notes="constant first factor; the slope equation integrates to a square root "
    "profile and meets H0 exactly",
))
_register(_plain(
    "AFS1.flat.scale", "z = c1*f2(y)",
    notes="cylinder over an arbitrary profile",
))
_register(_plain(
    "AFS1.flat.exp", "z = c1*exp(c2*x + c3*y)",
    notes="plain product of exponentials",
))
_register(_plain(
    "AFS1.flat.pow", "z = c1*x^(1/(1-c2))*y^(c2/(c2-1))",
    notes="power product with exponents summing to 1",
))
_register(FamilySpec(
    id="FS1.min.xy",
    formula="z = c1*x*y",
    params={"c1": 1.0},
    factors=lambda p: (_linear_profile(p["c1"]), _linear_profile(1.0)),
    constraints=(_nonzero("c1"),),
    notes="the basic saddle; both pure second derivatives vanish",
))
_register(FamilySpec(
    id="FS1.min.exp-trig",
    formula="z = (c1*exp(c2*x) + c3*exp(-c2*x))*(c4*cos(c2*y) + c5*sin(c2*y))",
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0, "c5": 0.0},
    factors=_exp_trig_factors,
    constraints=(_nonzero("c2"),),
    notes="f1'' = c2^2*f1 against f2'' = -c2^2*f2 cancels the mean curvature exactly",
))
_register(_plain("AFS1.K.saddle", "z = sqrt(|K0|)*x*y"))
_register(FamilySpec(
    id="FS1.cmc.parab",
    formula="z = H0/c1*y^2",
    params={"H0": 1.0, "c1": 1.0},
    factors=lambda p: (_const_profile(1.0), _quadratic_monomial(p["H0"] / p["c1"])),
    constraints=(_nonzero("H0"), _nonzero("c1")),
    notes="the attained constant is H0/c1; with c1 = 1 it equals the prescribed H0",
))
_register(FamilySpec(
    id="FS2.flat.scale",
    formula="x = c1*f2(z)",
    params={"c1": 1.0, "fn": "quadratic"},
    factors=_cylinder_factors,
    domain=lambda p: Rect((0.0, 1.0), _FS2_SCALE_Z[p["fn"]]),
    constraints=(_nonzero("c1"), _KNOWN_FN),
    notes="with a = 0 the arbitrary factor must depend on z, else the graph "
    "is admissible nowhere",
))
_register(_plain(
    "AFS2.flat.exp", "x = c1*exp(c2*y + c3*z)",
    constraints=(_nonzero("c1"), _nonzero("c3", _NEEDS_Z)),
    notes="admissible exactly when c3 != 0",
))
_register(_plain(
    "AFS2.flat.pow", "x = c1*y^(1/(1-c2))*z^(c2/(c2-1))",
    constraints=(_nonzero("c1"), _C2_NOT_ONE, _nonzero("c2", _NEEDS_Z)),
    notes="power product on the x-graph side; c2 = 0 would drop the z dependence",
))
_register(FamilySpec(
    id="FS2.min.tan",
    formula="x = y*tan(c1*z)",
    params={"c1": 1.0},
    factors=lambda p: (_linear_profile(1.0), lambda t, _c=p["c1"]: jets.tan(_c * t)),
    domain=lambda p: Rect((0.5, 1.5), (-1.2 / abs(p["c1"]), 1.2 / abs(p["c1"]))),
    constraints=(_nonzero("c1"),),
    notes="the helicoidal-style minimal x-graph; default domain keeps |c1*z| <= 1.2",
))
_register(FamilySpec(
    id="FS2.min.ratio",
    formula="x = c1*z/y",
    params={"c1": 1.0},
    factors=lambda p: (_scaled_power_profile(p["c1"], -1.0), _linear_profile(1.0)),
    domain=lambda p: _BOX,
    constraints=(_nonzero("c1"),),
    notes="z over y is the minimal orientation of the ratio surface; it also has "
    "constant Gaussian curvature -1/c1^2",
))
_register(FamilySpec(
    id="FS2.min.ratio.printed",
    formula="x = c1*y/z",
    params={"c1": 1.0},
    factors=lambda p: (_linear_profile(p["c1"]), _scaled_power_profile(1.0, -1.0)),
    domain=lambda p: _BOX,
    constraints=(_nonzero("c1"),),
    as_printed=True,
    has_derived_constant=False,
    notes="circulating transposed form; direct differentiation gives "
    "H = -z^3/(c1^2*y^2) != 0, so the minimality claim fails (kept for comparison)",
))
_register(FamilySpec(
    id="FS2.K.hyperbolic",
    formula="x = sign*z/(sqrt(|K0|)*y)",
    params={"K0": -1.0, "sign": 1.0},
    factors=lambda p: (
        _scaled_power_profile(p["sign"] / math.sqrt(abs(p["K0"])), -1.0), _linear_profile(1.0)
    ),
    domain=lambda p: _BOX,
    constraints=(_nonzero("K0"),),
    notes="the attained constant is -|K0| for either sign; a positive prescribed "
    "K0 is not realized",
))
_register(_IntegralFamilySpec(
    id="FS2.K.integral",
    formula="x = c1*f2(z)/y, z = integral of sqrt(c2/f2 - K0/c1^2) df2",
    params={"K0": -1.0, "c1": 1.0, "c2": 1.0, "f2_lo": 0.5, "f2_hi": 2.5},
    factors=None,
    notes="profile from a closed-form integral; the attained constant is K0/c1^4, equal to "
    "the prescribed K0 when c1 = 1",
))
_register(FamilySpec(
    id="FS2.cmc.sqrt",
    formula="x = sign*sqrt(-z/H0)",
    params={"H0": 1.0, "sign": 1.0},
    factors=lambda p: (
        _const_profile(p["sign"]), lambda t, _h=p["H0"]: jets.sqrt((-1.0 / _h) * t)
    ),
    domain=lambda p: Rect((0.0, 1.0), (-1.5, -0.5) if p["H0"] > 0 else (0.5, 1.5)),
    constraints=(_nonzero("H0"),),
    notes="meets the prescribed H0 exactly for either sign; the default domain "
    "sits on the side where -z/H0 > 0",
))


# ---------------------------------------------------------------------------
# public access


def family_ids() -> list[str]:
    """All registered ids in registration order."""
    return list(REGISTRY)


def get_family(family_id: str) -> FamilySpec:
    try:
        return REGISTRY[family_id]
    except KeyError:
        raise UnknownFamilyError(f"unknown family id {family_id!r}") from None


def _merged_params(owner: str, defaults: dict, overrides: dict) -> dict:
    """``defaults`` with ``overrides`` applied, each checked before any evaluation.

    The rule for a family's parameters and for an ODE check's
    (``verify.ode_crosscheck``): a name must be one of the defaults, and
    a value a finite real number, except the profile name ``fn`` and the
    ``sign``.  A ParameterError names ``owner`` and the parameter.
    """
    merged = dict(defaults)
    for name, value in overrides.items():
        if name not in merged:
            expected = ", ".join(merged)
            raise ParameterError(f"{owner}: unknown parameter {name!r} (expected: {expected})")
        if name == "fn":
            if not isinstance(value, str):
                raise ParameterError(f"{owner}: parameter 'fn' must be a profile name")
            merged[name] = value
        elif name == "sign":
            merged[name] = _normalized_sign(value, owner)
        else:
            try:
                merged[name] = float(value)
            except (TypeError, ValueError):
                raise ParameterError(
                    f"{owner}: parameter {name!r} must be a real number, got {value!r}"
                ) from None
            if not math.isfinite(merged[name]):
                raise ParameterError(
                    f"{owner}: parameter {name!r} must be finite, got {merged[name]!r}"
                )
    return merged


def build_family(family_id: str, **params):
    """Instantiate a registered family with overrides applied.

    Returns an ``AffineFactorable`` for the product families and a
    ``SurfaceChart`` for FS2.K.integral.  Identical inputs rebuild the
    identical surface, including that family's integral table.
    """
    spec = get_family(family_id)
    return _build(spec, _merged_params(spec.id, spec.params, params))


def _build(spec: FamilySpec, merged: dict):
    """``spec.builder(merged)``, with an arithmetic error as a ParameterError naming the family."""
    try:
        return spec.builder(merged)
    except _EVAL_ERRORS as err:
        raise ParameterError(f"{spec.id}: evaluation failed while building: {err}") from None


def build_with_profile(family_id: str, **params) -> tuple[object, CurvatureProfile]:
    """``build_family`` and ``expected_profile`` together, from a single build."""
    spec = get_family(family_id)
    merged = _merged_params(spec.id, spec.params, params)
    surface = _build(spec, merged)
    claim = spec.claim
    quantity, name = _CLAIM_MEANING[claim]
    claimed = 0.0 if name is None else merged[name]
    if not spec.has_derived_constant:
        return surface, CurvatureProfile(claim, claimed, None)
    center = surface.domain.center()
    try:
        derived = getattr(surface.curvatures(center), quantity)
        if not math.isfinite(derived):
            raise AdmissibilityError(NON_FINITE)
    except _EVAL_ERRORS as err:
        raise ParameterError(
            f"{spec.id}: evaluation failed at the domain center {center!r}: {err}"
        ) from None
    return surface, CurvatureProfile(claim, claimed, derived)


def expected_profile(family_id: str, **params) -> CurvatureProfile:
    """Claimed constant next to the directly derived one.

    The derived value is the claim quantity evaluated by forward-mode
    differentiation at the center of the default domain; constancy over
    grids is the verifier's job, not this function's.  The family is
    built first, as ``build_family`` builds it, so every parameter set
    the builder refuses is refused here with the same ParameterError,
    also for a family without a derived constant.
    """
    return build_with_profile(family_id, **params)[1]
