"""Registry of product-surface families with constant-curvature claims.

Each family couples a concrete construction (profiles, shear, default
domain) with the curvature behavior it is supposed to have: identically
flat (K = 0), minimal (H = 0), constant Gaussian curvature K0, or
constant mean curvature H0.  ``build_family`` instantiates a family,
``expected_profile`` reports both the claimed constant and the constant
obtained by direct differentiation at the domain center, and
``isocurv.verify`` checks constancy over whole grids.

A few registered variants carry ``as_printed = True``: they reproduce a
circulating closed form verbatim even though direct differentiation
disagrees with the attached claim.  Their ids end in ``.printed`` when
a corrected sibling exists.  Verification flags them instead of
silently passing; the registry notes say what the discrepancy is.

Naming scheme for ids: ``<ansatz>.<behavior>.<shape>`` where the ansatz
is AFS1/AFS2 (sheared product, a != 0) or FS1/FS2 (plain product,
a = 0), and 1/2 distinguishes the z-graph from the x-graph ansatz.

To add a family, add one ``_register(FamilySpec(...))`` row to the
registry below: the defaults in ``params``, ``kind`` (TYPE1 or TYPE2),
``factors`` and ``domain`` as functions of the merged parameters that
return the profile pair (f1, f2) and the default chart rectangle (the
unit square when omitted), and ``constraints`` as ``(text, predicate)``
pairs checked in order.
``FamilySpec.builder`` runs every product family and adds two rules of
its own: a family whose parameters include the shear ``a`` requires
a != 0 before any constraint, and a type-2 surface is rejected when its
regularity comes within ``_REG_FLOOR`` of zero on the default domain.
A plain family is the sheared one without ``a``, so FS and AFS twins
share their factor constructors.  FS2.K.integral, whose profile comes
from quadrature, builds through ``build_integral_family`` instead.
"""

from __future__ import annotations

import bisect
import math

from . import jets
from .jets import Jet2
from .geometry import Record, Rect, SurfaceChart, X_OVER_YZ
from .factorable import TYPE1, TYPE2, AffineFactorable, Profile, regularity

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
#: Floor on the quadrature radicand over the profile range.
_RADICAND_FLOOR = 1e-6


class UnknownFamilyError(KeyError):
    """Raised for a family id that is not in the registry."""


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

    __slots__ = __match_args__ = ("claim", "claimed_value", "derived_value")

    def __init__(self, claim: str, claimed_value: float, derived_value: float | None) -> None:
        super().__init__(claim, claimed_value, derived_value)


class FamilySpec(Record):
    """A registered family as data; the module docstring describes its fields.

    The repr leaves out ``factors``, ``domain`` and ``constraints``.
    """

    __slots__ = __match_args__ = (
        "id",
        "formula",
        "claim",
        "params",
        "kind",
        "factors",
        "domain",
        "constraints",
        "as_printed",
        "has_derived_constant",
        "notes",
    )
    _hidden = ("factors", "domain", "constraints")

    def __init__(
        self,
        id: str,
        formula: str,
        claim: str,
        params: dict,
        kind: str,
        factors: Callable[[dict], tuple[Profile, Profile]] | None,
        domain: Callable[[dict], Rect] = lambda p: _UNIT,
        constraints: tuple[tuple[str, Callable[[dict], bool]], ...] = (),
        as_printed: bool = False,
        has_derived_constant: bool = True,
        notes: str = "",
    ) -> None:
        super().__init__(
            id, formula, claim, params, kind, factors, domain, constraints,
            as_printed, has_derived_constant, notes,
        )

    def builder(self, p: dict) -> AffineFactorable:
        """The surface for merged parameters ``p``.

        A family with a shear parameter requires a != 0 first, then each
        constraint in order; a type-2 surface must also keep its
        regularity away from zero on the default domain.
        """
        if "a" in self.params:
            _require(p["a"] != 0.0, self.id, "a != 0")
        for text, holds in self.constraints:
            _require(holds(p), self.id, text)
        f1, f2 = self.factors(p)
        s = AffineFactorable(self.kind, f1, f2, p.get("a", 0.0), self.domain(p), self.id)
        if self.kind == TYPE2:
            _check_regularity(s, self.id)
        return s


def quantity_for_claim(claim: str) -> str:
    """Which curvature a claim constrains: 'K' or 'H'."""
    if claim in (CLAIM_FLAT, CLAIM_CONST_K):
        return "K"
    if claim in (CLAIM_MINIMAL, CLAIM_CONST_H):
        return "H"
    raise ValueError(f"unknown claim {claim!r}")


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
    return lambda t, _c=float(c): jets.const(_c)


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
# quadrature-backed family


class _MonotoneTable:
    """Cumulative Simpson table z(t) = integral of a positive integrand.

    Built once per family instance with interval doubling until the
    shared-node drift falls under ``tol``; inverted pointwise by
    bracketing in the table and 64 fixed bisection steps, so repeated
    builds with identical inputs give bitwise-identical results.

    Each table remembers its inversions, keyed by the ``z0`` passed in:
    a grid repeats each height parameter along a whole grid line, so all
    but the first inversion of each are lookups.  ``z0`` only enters comparisons
    with floats, so equal keys get identical results, and a hit returns
    exactly the float bisection would.  The memo holds at most
    ``len(self.nodes)`` entries and is cleared when full.  Concurrent
    callers need no lock: each key only ever receives the one value that
    deterministic bisection computes, so a racing write or clear loses
    at most a lookup, never a result.  Out-of-range values raise and are
    never stored.
    """

    def __init__(self, integrand, lo: float, hi: float, tol: float = 1e-10, n0: int = 2048):
        self.integrand = integrand
        self.lo = float(lo)
        self.hi = float(hi)
        n = n0
        nodes, zs = self._build(n)
        while True:
            nodes2, zs2 = self._build(2 * n)
            drift = max(abs(zs2[2 * i] - zs[i]) for i in range(len(zs)))
            nodes, zs = nodes2, zs2
            if drift < tol:
                break
            n *= 2
            if n > (1 << 20):
                raise RuntimeError("quadrature refinement did not converge")
        self.nodes = nodes
        self.zs = zs
        self._inverted: dict[float, float] = {}

    def _build(self, n: int):
        lo, hi, s = self.lo, self.hi, self.integrand
        nodes = [lo + (hi - lo) * i / n for i in range(n + 1)]
        zs = [0.0]
        for i in range(n):
            a, b = nodes[i], nodes[i + 1]
            step = (b - a) / 6.0 * (s(a) + 4.0 * s(0.5 * (a + b)) + s(b))
            if step <= 0.0:
                raise RuntimeError("quadrature table is not strictly increasing")
            zs.append(zs[-1] + step)
        return nodes, zs

    @property
    def z_end(self) -> float:
        return self.zs[-1]

    def invert(self, z0: float) -> float:
        """The t with z(t) = z0, for z0 inside the tabulated range."""
        memo = self._inverted
        t = memo.get(z0)
        if t is not None:
            return t
        zs, nodes, s = self.zs, self.nodes, self.integrand
        if not (zs[0] - 1e-9 <= z0 <= zs[-1] + 1e-9):
            raise ValueError(f"height parameter {z0!r} is outside the tabulated range")
        zc = min(max(z0, zs[0]), zs[-1])
        i = min(max(bisect.bisect_right(zs, zc) - 1, 0), len(nodes) - 2)
        t_i = nodes[i]
        s_i = s(t_i)
        base = zs[i]
        a, b = t_i, nodes[i + 1]
        for _ in range(64):
            m = 0.5 * (a + b)
            zm = base + (m - t_i) / 6.0 * (s_i + 4.0 * s(0.5 * (t_i + m)) + s(m))
            if zm < zc:
                a = m
            else:
                b = m
        t = 0.5 * (a + b)
        if len(memo) >= len(nodes):
            memo.clear()
        memo[z0] = t
        return t


def build_integral_family(
    K0: float, c1: float, c2: float, f2_range: tuple[float, float] = (0.5, 2.5)
) -> SurfaceChart:
    """The x-graph w(y, z) = c1 * f2(z) / y with f2 fixed by quadrature.

    f2 is defined implicitly by z = integral of sqrt(c2/f2 - K0/c1^2)
    over the profile range, which forces K = K0/c1^4 identically: at
    the located profile value t the derivatives of f2 are known in
    closed form, and the Gaussian curvature of the chart collapses to
    (c2/t - radicand(t)) / c1^4.  The prescribed constant is therefore
    met exactly up to rounding, independent of quadrature accuracy.
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
    # endpoint check bounds it over the whole range.
    _require(
        radicand(f2_lo) >= _RADICAND_FLOOR and radicand(f2_hi) >= _RADICAND_FLOOR,
        fid,
        f"radicand c2/t - K0/c1^2 must stay >= {_RADICAND_FLOOR:g} on the profile range",
    )

    table = _MonotoneTable(lambda t: math.sqrt(radicand(t)), f2_lo, f2_hi)

    def slope_profile(zj: Jet2) -> Jet2:
        t = table.invert(zj.v)
        r = radicand(t)
        d1 = 1.0 / math.sqrt(r)
        d2 = c2 / (2.0 * t * t * r * r)
        return jets.compose(t, d1, d2, zj)

    def height(yj: Jet2, zj: Jet2) -> Jet2:
        return c1 * slope_profile(zj) / yj

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


def _check_regularity(s: AffineFactorable, family_id: str) -> None:
    """Reject parameter choices whose default domain crosses regularity zero (9 x 9 grid)."""
    values = [regularity(s, *s.profile_jets(p)) for p in s.domain.grid(9)]
    low = min(abs(v) for v in values)
    same_sign = all(v > 0.0 for v in values) or all(v < 0.0 for v in values)
    if not same_sign or low < _REG_FLOOR:
        raise ParameterError(
            f"{family_id}: constraint violated: regularity must stay >= {_REG_FLOOR:g} "
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


def _nonzero(name: str) -> tuple[str, Callable[[dict], bool]]:
    return (f"{name} != 0", lambda p: p[name] != 0.0)


_KNOWN_FN = (
    "fn must be one of 'quadratic', 'exp', 'sin'",
    lambda p: p["fn"] in ARBITRARY_PROFILES,
)
_C2_NOT_ONE = ("c2 != 1", lambda p: p["c2"] != 1.0)


class _IntegralFamilySpec(FamilySpec):
    def builder(self, p: dict) -> SurfaceChart:
        return build_integral_family(p["K0"], p["c1"], p["c2"], (p["f2_lo"], p["f2_hi"]))


# ---------------------------------------------------------------------------
# the registry

REGISTRY: dict[str, FamilySpec] = {}


def _register(spec: FamilySpec) -> None:
    REGISTRY[spec.id] = spec


_register(FamilySpec(
    id="AFS1.flat.scale",
    formula="z = c1*f2(y + a*x)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "a": 1.0, "fn": "quadratic"},
    kind=TYPE1,
    factors=_cylinder_factors,
    constraints=(_nonzero("c1"), _KNOWN_FN),
    notes="a constant first factor kills both flatness terms, any profile works",
))
_register(FamilySpec(
    id="AFS1.flat.exp",
    formula="z = c1*exp(c2*x + c3*(y + a*x))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "a": 1.0},
    kind=TYPE1,
    factors=_exp_factors,
    constraints=(_nonzero("c1"),),
    notes="exponential factors satisfy the flatness balance identically",
))
_register(FamilySpec(
    id="AFS1.flat.pow",
    formula="z = c1*x^(1/(1-c2))*(y + a*x)^(c2/(c2-1))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 2.0, "a": 1.0},
    kind=TYPE1,
    factors=_pow_factors,
    domain=lambda p: _positive_box(TYPE1, p["a"]),
    constraints=(_nonzero("c1"), _C2_NOT_ONE),
    notes="the two exponents sum to 1, which is exactly the flatness balance",
))
_register(FamilySpec(
    id="AFS1.K.saddle",
    formula="z = sqrt(|K0|)*x*(y + a*x)",
    claim=CLAIM_CONST_K,
    params={"K0": -1.0, "a": 1.0},
    kind=TYPE1,
    factors=_saddle_factors,
    constraints=(_nonzero("K0"),),
    notes="the attained constant is -|K0|; a positive prescribed K0 is not realized",
))
_register(FamilySpec(
    id="AFS1.min.plane",
    formula="z = c1*(c2*(y + a*x) + c3)",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0, "c2": 1.0, "c3": 0.0, "a": 1.0},
    kind=TYPE1,
    factors=lambda p: (_const_profile(p["c1"]), _linear_profile(p["c2"], p["c3"])),
    notes="a graph plane, the trivial minimal case",
))
_register(FamilySpec(
    id="AFS1.min.osc",
    formula="z = exp(c1*x)*exp(-a*c1*u/(1+a^2))*(c2*cos(c1*u/(1+a^2)) + c3*sin(c1*u/(1+a^2))), u = y + a*x",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0, "a": 1.0, "c2": 1.0, "c3": 0.0},
    kind=TYPE1,
    factors=_osc_factors,
    constraints=(_nonzero("c1"),),
    notes="second factor solves (1+a^2)*f2'' + 2*a*c1*f2' + c1^2*f2 = 0, decay rate included",
))
_register(FamilySpec(
    id="AFS1.min.osc.printed",
    formula="z = exp(c1*x)*(c2*cos(c1*u/(1+a^2)) + c3*sin(c1*u/(1+a^2))), u = y + a*x",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0, "a": 1.0, "c2": 1.0, "c3": 0.0},
    kind=TYPE1,
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
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "a": 1.0},
    kind=TYPE1,
    factors=lambda p: (
        _const_profile(1.0), _quadratic_monomial(p["H0"] / (1.0 + p["a"] * p["a"]))
    ),
    constraints=(_nonzero("H0"),),
    notes="a parabolic cylinder over the sheared direction",
))
_register(FamilySpec(
    id="AFS1.cmc.shear",
    formula="z = H0/a*x*(y + a*x)",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "a": 1.0},
    kind=TYPE1,
    factors=lambda p: (_linear_profile(p["H0"] / p["a"]), _linear_profile(1.0)),
    constraints=(_nonzero("H0"),),
    notes="the cross term alone carries the mean curvature when a != 0",
))
_register(FamilySpec(
    id="AFS2.flat.scale",
    formula="x = c1*f1(y + a*z)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "a": 1.0, "fn": "quadratic"},
    kind=TYPE2,
    factors=lambda p: (ARBITRARY_PROFILES[p["fn"]], _const_profile(p["c1"])),
    domain=_scale_domain,
    constraints=(_nonzero("c1"), _KNOWN_FN),
    notes="a constant second factor; needs a nonzero profile slope for admissibility",
))
_register(FamilySpec(
    id="AFS2.flat.exp",
    formula="x = c1*exp(c2*(y + a*z) + c3*z)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "a": 1.0},
    kind=TYPE2,
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
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 2.0, "a": 1.0},
    kind=TYPE2,
    factors=_pow_factors,
    domain=lambda p: _positive_box(TYPE2, p["a"]),
    constraints=(_nonzero("c1"), _C2_NOT_ONE),
    notes="exponents sum to 1; the default domain must stay clear of the "
    "regularity zero line, which the builder checks",
))
_register(FamilySpec(
    id="AFS2.cmc.sqrt",
    formula="x = c1/sqrt(|H0|)*sqrt(y + a*z)",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "c1": 1.0, "a": 1.0},
    kind=TYPE2,
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
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "c1": 1.0, "c2": 1.0, "c3": 0.0, "a": 1.0},
    kind=TYPE2,
    factors=lambda p: (
        _const_profile(p["c1"]), cmc_slope_profile(p["H0"], p["c1"], p["c2"], p["c3"])
    ),
    domain=_f1const_domain,
    constraints=(_nonzero("H0"), _nonzero("c1")),
    notes="constant first factor; the slope equation integrates to a square root "
    "profile and meets H0 exactly",
))
_register(FamilySpec(
    id="FS1.flat.scale",
    formula="z = c1*f2(y)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "fn": "quadratic"},
    kind=TYPE1,
    factors=_cylinder_factors,
    constraints=(_nonzero("c1"), _KNOWN_FN),
    notes="cylinder over an arbitrary profile",
))
_register(FamilySpec(
    id="FS1.flat.exp",
    formula="z = c1*exp(c2*x + c3*y)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0},
    kind=TYPE1,
    factors=_exp_factors,
    constraints=(_nonzero("c1"),),
    notes="plain product of exponentials",
))
_register(FamilySpec(
    id="FS1.flat.pow",
    formula="z = c1*x^(1/(1-c2))*y^(c2/(c2-1))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 2.0},
    kind=TYPE1,
    factors=_pow_factors,
    domain=lambda p: _BOX,
    constraints=(_nonzero("c1"), _C2_NOT_ONE),
    notes="power product with exponents summing to 1",
))
_register(FamilySpec(
    id="FS1.min.xy",
    formula="z = c1*x*y",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0},
    kind=TYPE1,
    factors=lambda p: (_linear_profile(p["c1"]), _linear_profile(1.0)),
    constraints=(_nonzero("c1"),),
    notes="the basic saddle; both pure second derivatives vanish",
))
_register(FamilySpec(
    id="FS1.min.exp-trig",
    formula="z = (c1*exp(c2*x) + c3*exp(-c2*x))*(c4*cos(c2*y) + c5*sin(c2*y))",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0, "c5": 0.0},
    kind=TYPE1,
    factors=_exp_trig_factors,
    constraints=(_nonzero("c2"),),
    notes="f1'' = c2^2*f1 against f2'' = -c2^2*f2 cancels the mean curvature exactly",
))
_register(FamilySpec(
    id="FS1.K.saddle",
    formula="z = sqrt(|K0|)*x*y",
    claim=CLAIM_CONST_K,
    params={"K0": -1.0},
    kind=TYPE1,
    factors=_saddle_factors,
    constraints=(_nonzero("K0"),),
    notes="the attained constant is -|K0|; a positive prescribed K0 is not realized",
))
_register(FamilySpec(
    id="FS1.cmc.parab",
    formula="z = H0/c1*y^2",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "c1": 1.0},
    kind=TYPE1,
    factors=lambda p: (_const_profile(1.0), _quadratic_monomial(p["H0"] / p["c1"])),
    constraints=(_nonzero("H0"), _nonzero("c1")),
    notes="the attained constant is H0/c1; with c1 = 1 it equals the prescribed H0",
))
_register(FamilySpec(
    id="FS2.flat.scale",
    formula="x = c1*f2(z)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "fn": "quadratic"},
    kind=TYPE2,
    factors=_cylinder_factors,
    domain=lambda p: Rect((0.0, 1.0), _FS2_SCALE_Z[p["fn"]]),
    constraints=(_nonzero("c1"), _KNOWN_FN),
    notes="with a = 0 the arbitrary factor must depend on z, else the graph "
    "is admissible nowhere",
))
_register(FamilySpec(
    id="FS2.flat.exp",
    formula="x = c1*exp(c2*y + c3*z)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0},
    kind=TYPE2,
    factors=_exp_factors,
    constraints=(
        _nonzero("c1"),
        ("c3 != 0 (the height would not depend on z)", lambda p: p["c3"] != 0.0),
    ),
    notes="admissible exactly when c3 != 0",
))
_register(FamilySpec(
    id="FS2.flat.pow",
    formula="x = c1*y^(1/(1-c2))*z^(c2/(c2-1))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 2.0},
    kind=TYPE2,
    factors=_pow_factors,
    domain=lambda p: _BOX,
    constraints=(
        _nonzero("c1"),
        _C2_NOT_ONE,
        ("c2 != 0 (the height would not depend on z)", lambda p: p["c2"] != 0.0),
    ),
    notes="power product on the x-graph side; c2 = 0 would drop the z dependence",
))
_register(FamilySpec(
    id="FS2.min.tan",
    formula="x = y*tan(c1*z)",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0},
    kind=TYPE2,
    factors=lambda p: (_linear_profile(1.0), lambda t, _c=p["c1"]: jets.tan(_c * t)),
    domain=lambda p: Rect((0.5, 1.5), (-1.2 / abs(p["c1"]), 1.2 / abs(p["c1"]))),
    constraints=(_nonzero("c1"),),
    notes="the helicoidal-style minimal x-graph; default domain keeps |c1*z| <= 1.2",
))
_register(FamilySpec(
    id="FS2.min.ratio",
    formula="x = c1*z/y",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0},
    kind=TYPE2,
    factors=lambda p: (_scaled_power_profile(p["c1"], -1.0), _linear_profile(1.0)),
    domain=lambda p: _BOX,
    constraints=(_nonzero("c1"),),
    notes="z over y is the minimal orientation of the ratio surface; it also has "
    "constant Gaussian curvature -1/c1^2",
))
_register(FamilySpec(
    id="FS2.min.ratio.printed",
    formula="x = c1*y/z",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0},
    kind=TYPE2,
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
    claim=CLAIM_CONST_K,
    params={"K0": -1.0, "sign": 1.0},
    kind=TYPE2,
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
    claim=CLAIM_CONST_K,
    params={"K0": -1.0, "c1": 1.0, "c2": 1.0, "f2_lo": 0.5, "f2_hi": 2.5},
    kind=TYPE2,
    factors=None,
    notes="quadrature-backed profile; the attained constant is K0/c1^4, equal to "
    "the prescribed K0 when c1 = 1",
))
_register(FamilySpec(
    id="FS2.cmc.sqrt",
    formula="x = sign*sqrt(-z/H0)",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "sign": 1.0},
    kind=TYPE2,
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


def _merged_params(spec: FamilySpec, overrides: dict) -> dict:
    merged = dict(spec.params)
    for name, value in overrides.items():
        if name not in merged:
            expected = ", ".join(merged)
            raise ParameterError(
                f"{spec.id}: unknown parameter {name!r} (expected: {expected})"
            )
        if name == "fn":
            if not isinstance(value, str):
                raise ParameterError(f"{spec.id}: parameter 'fn' must be a profile name")
            merged[name] = value
        elif name == "sign":
            merged[name] = _normalized_sign(value, spec.id)
        else:
            try:
                merged[name] = float(value)
            except (TypeError, ValueError):
                raise ParameterError(
                    f"{spec.id}: parameter {name!r} must be a real number, got {value!r}"
                ) from None
            if not math.isfinite(merged[name]):
                raise ParameterError(
                    f"{spec.id}: parameter {name!r} must be finite, got {merged[name]!r}"
                )
    return merged


def build_family(family_id: str, **params):
    """Instantiate a registered family with overrides applied.

    Returns an ``AffineFactorable`` for the product families and a
    ``SurfaceChart`` for the quadrature-backed one.  Identical inputs
    rebuild the identical surface, including the quadrature table.
    """
    spec = get_family(family_id)
    return spec.builder(_merged_params(spec, params))


def _profile(spec: FamilySpec, merged: dict, surface) -> CurvatureProfile:
    if spec.claim == CLAIM_CONST_K:
        claimed = merged["K0"]
    elif spec.claim == CLAIM_CONST_H:
        claimed = merged["H0"]
    else:
        claimed = 0.0
    if not spec.has_derived_constant:
        return CurvatureProfile(spec.claim, claimed, None)
    pair = surface.curvatures(surface.domain.center())
    return CurvatureProfile(spec.claim, claimed, getattr(pair, quantity_for_claim(spec.claim)))


def build_with_profile(family_id: str, **params) -> tuple[object, CurvatureProfile]:
    """``build_family`` and ``expected_profile`` together, from a single build."""
    spec = get_family(family_id)
    merged = _merged_params(spec, params)
    surface = spec.builder(merged)
    return surface, _profile(spec, merged, surface)


def expected_profile(family_id: str, **params) -> CurvatureProfile:
    """Claimed constant next to the directly derived one.

    The derived value is the claim quantity evaluated by forward-mode
    differentiation at the center of the default domain; constancy over
    grids is the verifier's job, not this function's.  A family without
    a derived constant is not built.
    """
    spec = get_family(family_id)
    merged = _merged_params(spec, params)
    surface = spec.builder(merged) if spec.has_derived_constant else None
    return _profile(spec, merged, surface)
