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
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

from . import jets
from .jets import Jet2
from .geometry import Rect, SurfaceChart, X_OVER_YZ
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


@dataclass(frozen=True)
class CurvatureProfile:
    """A family's claim next to what direct differentiation yields.

    ``derived_value`` is None when the construction does not produce a
    constant at all (the broken ``.printed`` variants).
    """

    claim: str
    claimed_value: float
    derived_value: float | None


@dataclass(frozen=True)
class FamilySpec:
    id: str
    formula: str
    claim: str
    params: dict
    builder: Callable[[dict], object] = field(repr=False)
    as_printed: bool = False
    has_derived_constant: bool = True
    notes: str = ""


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
        text = value.strip()
        if text in ("+", "+1", "1"):
            return 1.0
        if text in ("-", "-1"):
            return -1.0
        raise ParameterError(f"{family_id}: constraint violated: sign must be +1 or -1")
    v = float(value)
    if v not in (1.0, -1.0):
        raise ParameterError(f"{family_id}: constraint violated: sign must be +1 or -1")
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
    if c1 == 0.0:
        raise ParameterError("minimal_oscillation_profile: constraint violated: c1 != 0")
    if a == 0.0:
        raise ParameterError("minimal_oscillation_profile: constraint violated: a != 0")
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
    if H0 == 0.0:
        raise ParameterError("cmc_slope_profile: constraint violated: H0 != 0")
    if c1 == 0.0:
        raise ParameterError("cmc_slope_profile: constraint violated: c1 != 0")
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
# family builders

_UNIT = Rect((0.0, 1.0), (0.0, 1.0))


def _positive_box(kind: str, a: float) -> Rect:
    """A [0.5, 1.5]-style box keeping both shifted arguments positive.

    The coordinate that feeds the affine substitution is pushed up by
    1.5*|a| when a < 0, so the shifted argument still starts at 0.5.
    """
    s = max(0.0, -a) * 1.5
    if kind == TYPE1:
        return Rect((0.5, 1.5), (0.5 + s, 1.5 + s))
    return Rect((0.5 + s, 1.5 + s), (0.5, 1.5))


def _check_regularity(s: AffineFactorable, family_id: str, n: int = 9) -> AffineFactorable:
    """Reject parameter choices whose default domain crosses regularity zero."""
    values = [regularity(s, p) for p in s.domain.grid(n)]
    low = min(abs(v) for v in values)
    same_sign = all(v > 0.0 for v in values) or all(v < 0.0 for v in values)
    if not same_sign or low < _REG_FLOOR:
        raise ParameterError(
            f"{family_id}: constraint violated: regularity must stay >= {_REG_FLOOR:g} "
            f"in magnitude on the default domain (observed minimum {low:.3g})"
        )
    return s


def _scale_domain(fn: str, kind: str, a: float) -> Rect:
    """Default domain for the arbitrary-profile scaling families."""
    if fn == "quadratic":
        # 1 + t^2 has zero slope at t = 0, so keep the profile argument
        # away from the origin where the graph needs a nonzero slope.
        return _positive_box(kind, a)
    if fn == "exp":
        return Rect((0.0, 1.0), (0.0, 1.0))
    # sin: keep |argument| < pi/2 so the slope cos stays away from zero.
    h = 0.25 / max(1.0, abs(a))
    return Rect((-h, h), (-h, h))


def _build_afs1_flat_scale(p: dict) -> AffineFactorable:
    fid = "AFS1.flat.scale"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["fn"] in ARBITRARY_PROFILES, fid, "fn must be one of 'quadratic', 'exp', 'sin'")
    return AffineFactorable(
        TYPE1, _const_profile(p["c1"]), ARBITRARY_PROFILES[p["fn"]], p["a"], _UNIT, fid
    )


def _build_afs1_flat_exp(p: dict) -> AffineFactorable:
    fid = "AFS1.flat.exp"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    return AffineFactorable(
        TYPE1,
        _scaled_exp_profile(p["c1"], p["c2"]),
        _scaled_exp_profile(1.0, p["c3"]),
        p["a"],
        _UNIT,
        fid,
    )


def _build_afs1_flat_pow(p: dict) -> AffineFactorable:
    fid = "AFS1.flat.pow"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["c2"] != 1.0, fid, "c2 != 1")
    e1 = 1.0 / (1.0 - p["c2"])
    e2 = p["c2"] / (p["c2"] - 1.0)
    return AffineFactorable(
        TYPE1,
        _scaled_power_profile(p["c1"], e1),
        _scaled_power_profile(1.0, e2),
        p["a"],
        _positive_box(TYPE1, p["a"]),
        fid,
    )


def _build_afs1_k_saddle(p: dict) -> AffineFactorable:
    fid = "AFS1.K.saddle"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["K0"] != 0.0, fid, "K0 != 0")
    return AffineFactorable(
        TYPE1,
        _linear_profile(math.sqrt(abs(p["K0"]))),
        _linear_profile(1.0),
        p["a"],
        _UNIT,
        fid,
    )


def _build_afs1_min_plane(p: dict) -> AffineFactorable:
    fid = "AFS1.min.plane"
    _require(p["a"] != 0.0, fid, "a != 0")
    return AffineFactorable(
        TYPE1,
        _const_profile(p["c1"]),
        _linear_profile(p["c2"], p["c3"]),
        p["a"],
        _UNIT,
        fid,
    )


def _build_afs1_min_osc(p: dict, printed: bool) -> AffineFactorable:
    fid = "AFS1.min.osc.printed" if printed else "AFS1.min.osc"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    return AffineFactorable(
        TYPE1,
        _scaled_exp_profile(1.0, p["c1"]),
        minimal_oscillation_profile(p["c1"], p["a"], p["c2"], p["c3"], printed_form=printed),
        p["a"],
        _UNIT,
        fid,
    )


def _build_afs1_cmc_parabolic(p: dict) -> AffineFactorable:
    fid = "AFS1.cmc.parabolic"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["H0"] != 0.0, fid, "H0 != 0")
    scale = p["H0"] / (1.0 + p["a"] * p["a"])
    return AffineFactorable(
        TYPE1, _const_profile(1.0), _quadratic_monomial(scale), p["a"], _UNIT, fid
    )


def _build_afs1_cmc_shear(p: dict) -> AffineFactorable:
    fid = "AFS1.cmc.shear"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["H0"] != 0.0, fid, "H0 != 0")
    return AffineFactorable(
        TYPE1,
        _linear_profile(p["H0"] / p["a"]),
        _linear_profile(1.0),
        p["a"],
        _UNIT,
        fid,
    )


def _build_afs2_flat_scale(p: dict) -> AffineFactorable:
    fid = "AFS2.flat.scale"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["fn"] in ARBITRARY_PROFILES, fid, "fn must be one of 'quadratic', 'exp', 'sin'")
    s = AffineFactorable(
        TYPE2,
        ARBITRARY_PROFILES[p["fn"]],
        _const_profile(p["c1"]),
        p["a"],
        _scale_domain(p["fn"], TYPE2, p["a"]),
        fid,
    )
    return _check_regularity(s, fid)


def _build_afs2_flat_exp(p: dict) -> AffineFactorable:
    fid = "AFS2.flat.exp"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(
        p["a"] * p["c2"] + p["c3"] != 0.0,
        fid,
        "a*c2 + c3 != 0 (the graph is admissible nowhere otherwise)",
    )
    s = AffineFactorable(
        TYPE2,
        _scaled_exp_profile(p["c1"], p["c2"]),
        _scaled_exp_profile(1.0, p["c3"]),
        p["a"],
        Rect((0.0, 1.0), (0.0, 1.0)),
        fid,
    )
    return _check_regularity(s, fid)


def _build_afs2_flat_pow(p: dict) -> AffineFactorable:
    fid = "AFS2.flat.pow"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["c2"] != 1.0, fid, "c2 != 1")
    e1 = 1.0 / (1.0 - p["c2"])
    e2 = p["c2"] / (p["c2"] - 1.0)
    s = AffineFactorable(
        TYPE2,
        _scaled_power_profile(p["c1"], e1),
        _scaled_power_profile(1.0, e2),
        p["a"],
        _positive_box(TYPE2, p["a"]),
        fid,
    )
    return _check_regularity(s, fid)


def _build_afs2_cmc_sqrt(p: dict) -> AffineFactorable:
    fid = "AFS2.cmc.sqrt"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["H0"] != 0.0, fid, "H0 != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    scale = p["c1"] / math.sqrt(abs(p["H0"]))
    s = AffineFactorable(
        TYPE2,
        _scaled_power_profile(scale, 0.5),
        _const_profile(1.0),
        p["a"],
        _positive_box(TYPE2, p["a"]),
        fid,
    )
    return _check_regularity(s, fid)


def _build_afs2_cmc_f1const(p: dict) -> AffineFactorable:
    fid = "AFS2.cmc.f1const"
    _require(p["a"] != 0.0, fid, "a != 0")
    _require(p["H0"] != 0.0, fid, "H0 != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    q = 4.0 * p["H0"] * p["c1"] * p["c1"]
    # Anchor the z-range where the radicand c2 - q*z runs from 1 up to
    # 1 + |q|, so the slope profile is smooth on the whole default box.
    z_anchor = (p["c2"] - 1.0) / q
    if q > 0.0:
        zdom = (z_anchor - 1.0, z_anchor)
    else:
        zdom = (z_anchor, z_anchor + 1.0)
    s = AffineFactorable(
        TYPE2,
        _const_profile(p["c1"]),
        cmc_slope_profile(p["H0"], p["c1"], p["c2"], p["c3"]),
        p["a"],
        Rect((0.0, 1.0), zdom),
        fid,
    )
    return _check_regularity(s, fid)


def _build_fs1_flat_scale(p: dict) -> AffineFactorable:
    fid = "FS1.flat.scale"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["fn"] in ARBITRARY_PROFILES, fid, "fn must be one of 'quadratic', 'exp', 'sin'")
    return AffineFactorable(
        TYPE1, _const_profile(p["c1"]), ARBITRARY_PROFILES[p["fn"]], 0.0, _UNIT, fid
    )


def _build_fs1_flat_exp(p: dict) -> AffineFactorable:
    fid = "FS1.flat.exp"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    return AffineFactorable(
        TYPE1,
        _scaled_exp_profile(p["c1"], p["c2"]),
        _scaled_exp_profile(1.0, p["c3"]),
        0.0,
        _UNIT,
        fid,
    )


def _build_fs1_flat_pow(p: dict) -> AffineFactorable:
    fid = "FS1.flat.pow"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["c2"] != 1.0, fid, "c2 != 1")
    e1 = 1.0 / (1.0 - p["c2"])
    e2 = p["c2"] / (p["c2"] - 1.0)
    return AffineFactorable(
        TYPE1,
        _scaled_power_profile(p["c1"], e1),
        _scaled_power_profile(1.0, e2),
        0.0,
        Rect((0.5, 1.5), (0.5, 1.5)),
        fid,
    )


def _build_fs1_min_xy(p: dict) -> AffineFactorable:
    fid = "FS1.min.xy"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    return AffineFactorable(
        TYPE1, _linear_profile(p["c1"]), _linear_profile(1.0), 0.0, _UNIT, fid
    )


def _build_fs1_min_exp_trig(p: dict) -> AffineFactorable:
    fid = "FS1.min.exp-trig"
    _require(p["c2"] != 0.0, fid, "c2 != 0")

    def hyperbolic(t: Jet2, _c1=p["c1"], _c2=p["c2"], _c3=p["c3"]) -> Jet2:
        return _c1 * jets.exp(_c2 * t) + _c3 * jets.exp(-_c2 * t)

    def oscillation(t: Jet2, _c2=p["c2"], _c4=p["c4"], _c5=p["c5"]) -> Jet2:
        return _c4 * jets.cos(_c2 * t) + _c5 * jets.sin(_c2 * t)

    return AffineFactorable(TYPE1, hyperbolic, oscillation, 0.0, _UNIT, fid)


def _build_fs1_k_saddle(p: dict) -> AffineFactorable:
    fid = "FS1.K.saddle"
    _require(p["K0"] != 0.0, fid, "K0 != 0")
    return AffineFactorable(
        TYPE1,
        _linear_profile(math.sqrt(abs(p["K0"]))),
        _linear_profile(1.0),
        0.0,
        _UNIT,
        fid,
    )


def _build_fs1_cmc_parab(p: dict) -> AffineFactorable:
    fid = "FS1.cmc.parab"
    _require(p["H0"] != 0.0, fid, "H0 != 0")
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    return AffineFactorable(
        TYPE1,
        _const_profile(1.0),
        _quadratic_monomial(p["H0"] / p["c1"]),
        0.0,
        _UNIT,
        fid,
    )


def _build_fs2_flat_scale(p: dict) -> AffineFactorable:
    fid = "FS2.flat.scale"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["fn"] in ARBITRARY_PROFILES, fid, "fn must be one of 'quadratic', 'exp', 'sin'")
    if p["fn"] == "quadratic":
        domain = Rect((0.0, 1.0), (0.5, 1.5))
    elif p["fn"] == "exp":
        domain = Rect((0.0, 1.0), (0.0, 1.0))
    else:
        domain = Rect((0.0, 1.0), (-0.25, 0.25))
    s = AffineFactorable(
        TYPE2, _const_profile(p["c1"]), ARBITRARY_PROFILES[p["fn"]], 0.0, domain, fid
    )
    return _check_regularity(s, fid)


def _build_fs2_flat_exp(p: dict) -> AffineFactorable:
    fid = "FS2.flat.exp"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["c3"] != 0.0, fid, "c3 != 0 (the height would not depend on z)")
    s = AffineFactorable(
        TYPE2,
        _scaled_exp_profile(p["c1"], p["c2"]),
        _scaled_exp_profile(1.0, p["c3"]),
        0.0,
        Rect((0.0, 1.0), (0.0, 1.0)),
        fid,
    )
    return _check_regularity(s, fid)


def _build_fs2_flat_pow(p: dict) -> AffineFactorable:
    fid = "FS2.flat.pow"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    _require(p["c2"] != 1.0, fid, "c2 != 1")
    _require(p["c2"] != 0.0, fid, "c2 != 0 (the height would not depend on z)")
    e1 = 1.0 / (1.0 - p["c2"])
    e2 = p["c2"] / (p["c2"] - 1.0)
    s = AffineFactorable(
        TYPE2,
        _scaled_power_profile(p["c1"], e1),
        _scaled_power_profile(1.0, e2),
        0.0,
        Rect((0.5, 1.5), (0.5, 1.5)),
        fid,
    )
    return _check_regularity(s, fid)


def _build_fs2_min_tan(p: dict) -> AffineFactorable:
    fid = "FS2.min.tan"
    _require(p["c1"] != 0.0, fid, "c1 != 0")

    def tangent(t: Jet2, _c=p["c1"]) -> Jet2:
        return jets.tan(_c * t)

    half = 1.2 / abs(p["c1"])
    s = AffineFactorable(
        TYPE2,
        _linear_profile(1.0),
        tangent,
        0.0,
        Rect((0.5, 1.5), (-half, half)),
        fid,
    )
    return _check_regularity(s, fid)


def _build_fs2_min_ratio(p: dict) -> AffineFactorable:
    fid = "FS2.min.ratio"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    s = AffineFactorable(
        TYPE2,
        _scaled_power_profile(p["c1"], -1.0),
        _linear_profile(1.0),
        0.0,
        Rect((0.5, 1.5), (0.5, 1.5)),
        fid,
    )
    return _check_regularity(s, fid)


def _build_fs2_min_ratio_printed(p: dict) -> AffineFactorable:
    fid = "FS2.min.ratio.printed"
    _require(p["c1"] != 0.0, fid, "c1 != 0")
    s = AffineFactorable(
        TYPE2,
        _linear_profile(p["c1"]),
        _scaled_power_profile(1.0, -1.0),
        0.0,
        Rect((0.5, 1.5), (0.5, 1.5)),
        fid,
    )
    return _check_regularity(s, fid)


def _build_fs2_k_hyperbolic(p: dict) -> AffineFactorable:
    fid = "FS2.K.hyperbolic"
    _require(p["K0"] != 0.0, fid, "K0 != 0")
    sign = _normalized_sign(p["sign"], fid)
    scale = sign / math.sqrt(abs(p["K0"]))
    s = AffineFactorable(
        TYPE2,
        _scaled_power_profile(scale, -1.0),
        _linear_profile(1.0),
        0.0,
        Rect((0.5, 1.5), (0.5, 1.5)),
        fid,
    )
    return _check_regularity(s, fid)


def _build_fs2_k_integral(p: dict) -> SurfaceChart:
    return build_integral_family(p["K0"], p["c1"], p["c2"], (p["f2_lo"], p["f2_hi"]))


def _build_fs2_cmc_sqrt(p: dict) -> AffineFactorable:
    fid = "FS2.cmc.sqrt"
    _require(p["H0"] != 0.0, fid, "H0 != 0")
    sign = _normalized_sign(p["sign"], fid)

    def sqrt_profile(t: Jet2, _h=p["H0"]) -> Jet2:
        return jets.sqrt((-1.0 / _h) * t)

    zdom = (-1.5, -0.5) if p["H0"] > 0 else (0.5, 1.5)
    s = AffineFactorable(
        TYPE2,
        _const_profile(sign),
        sqrt_profile,
        0.0,
        Rect((0.0, 1.0), zdom),
        fid,
    )
    return _check_regularity(s, fid)


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
    builder=_build_afs1_flat_scale,
    notes="a constant first factor kills both flatness terms, any profile works",
))
_register(FamilySpec(
    id="AFS1.flat.exp",
    formula="z = c1*exp(c2*x + c3*(y + a*x))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "a": 1.0},
    builder=_build_afs1_flat_exp,
    notes="exponential factors satisfy the flatness balance identically",
))
_register(FamilySpec(
    id="AFS1.flat.pow",
    formula="z = c1*x^(1/(1-c2))*(y + a*x)^(c2/(c2-1))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 2.0, "a": 1.0},
    builder=_build_afs1_flat_pow,
    notes="the two exponents sum to 1, which is exactly the flatness balance",
))
_register(FamilySpec(
    id="AFS1.K.saddle",
    formula="z = sqrt(|K0|)*x*(y + a*x)",
    claim=CLAIM_CONST_K,
    params={"K0": -1.0, "a": 1.0},
    builder=_build_afs1_k_saddle,
    notes="the attained constant is -|K0|; a positive prescribed K0 is not realized",
))
_register(FamilySpec(
    id="AFS1.min.plane",
    formula="z = c1*(c2*(y + a*x) + c3)",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0, "c2": 1.0, "c3": 0.0, "a": 1.0},
    builder=_build_afs1_min_plane,
    notes="a graph plane, the trivial minimal case",
))
_register(FamilySpec(
    id="AFS1.min.osc",
    formula="z = exp(c1*x)*exp(-a*c1*u/(1+a^2))*(c2*cos(c1*u/(1+a^2)) + c3*sin(c1*u/(1+a^2))), u = y + a*x",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0, "a": 1.0, "c2": 1.0, "c3": 0.0},
    builder=lambda p: _build_afs1_min_osc(p, printed=False),
    notes="second factor solves (1+a^2)*f2'' + 2*a*c1*f2' + c1^2*f2 = 0, decay rate included",
))
_register(FamilySpec(
    id="AFS1.min.osc.printed",
    formula="z = exp(c1*x)*(c2*cos(c1*u/(1+a^2)) + c3*sin(c1*u/(1+a^2))), u = y + a*x",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0, "a": 1.0, "c2": 1.0, "c3": 0.0},
    builder=lambda p: _build_afs1_min_osc(p, printed=True),
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
    builder=_build_afs1_cmc_parabolic,
    notes="a parabolic cylinder over the sheared direction",
))
_register(FamilySpec(
    id="AFS1.cmc.shear",
    formula="z = H0/a*x*(y + a*x)",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "a": 1.0},
    builder=_build_afs1_cmc_shear,
    notes="the cross term alone carries the mean curvature when a != 0",
))
_register(FamilySpec(
    id="AFS2.flat.scale",
    formula="x = c1*f1(y + a*z)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "a": 1.0, "fn": "quadratic"},
    builder=_build_afs2_flat_scale,
    notes="a constant second factor; needs a nonzero profile slope for admissibility",
))
_register(FamilySpec(
    id="AFS2.flat.exp",
    formula="x = c1*exp(c2*(y + a*z) + c3*z)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "a": 1.0},
    builder=_build_afs2_flat_exp,
    notes="admissible exactly when a*c2 + c3 != 0",
))
_register(FamilySpec(
    id="AFS2.flat.pow",
    formula="x = c1*(y + a*z)^(1/(1-c2))*z^(c2/(c2-1))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 2.0, "a": 1.0},
    builder=_build_afs2_flat_pow,
    notes="exponents sum to 1; the default domain must stay clear of the "
    "regularity zero line, which the builder checks",
))
_register(FamilySpec(
    id="AFS2.cmc.sqrt",
    formula="x = c1/sqrt(|H0|)*sqrt(y + a*z)",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "c1": 1.0, "a": 1.0},
    builder=_build_afs2_cmc_sqrt,
    as_printed=True,
    notes="direct differentiation gives the constant -|H0|/(a*c1^2), not the "
    "prescribed H0; verification targets the derived constant and flags the difference",
))
_register(FamilySpec(
    id="AFS2.cmc.f1const",
    formula="x = c1*f2(z) with f2'' = 2*H0*c1^2*(f2')^3",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "c1": 1.0, "c2": 1.0, "c3": 0.0, "a": 1.0},
    builder=_build_afs2_cmc_f1const,
    notes="constant first factor; the slope equation integrates to a square root "
    "profile and meets H0 exactly",
))
_register(FamilySpec(
    id="FS1.flat.scale",
    formula="z = c1*f2(y)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "fn": "quadratic"},
    builder=_build_fs1_flat_scale,
    notes="cylinder over an arbitrary profile",
))
_register(FamilySpec(
    id="FS1.flat.exp",
    formula="z = c1*exp(c2*x + c3*y)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0},
    builder=_build_fs1_flat_exp,
    notes="plain product of exponentials",
))
_register(FamilySpec(
    id="FS1.flat.pow",
    formula="z = c1*x^(1/(1-c2))*y^(c2/(c2-1))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 2.0},
    builder=_build_fs1_flat_pow,
    notes="power product with exponents summing to 1",
))
_register(FamilySpec(
    id="FS1.min.xy",
    formula="z = c1*x*y",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0},
    builder=_build_fs1_min_xy,
    notes="the basic saddle; both pure second derivatives vanish",
))
_register(FamilySpec(
    id="FS1.min.exp-trig",
    formula="z = (c1*exp(c2*x) + c3*exp(-c2*x))*(c4*cos(c2*y) + c5*sin(c2*y))",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0, "c5": 0.0},
    builder=_build_fs1_min_exp_trig,
    notes="f1'' = c2^2*f1 against f2'' = -c2^2*f2 cancels the mean curvature exactly",
))
_register(FamilySpec(
    id="FS1.K.saddle",
    formula="z = sqrt(|K0|)*x*y",
    claim=CLAIM_CONST_K,
    params={"K0": -1.0},
    builder=_build_fs1_k_saddle,
    notes="the attained constant is -|K0|; a positive prescribed K0 is not realized",
))
_register(FamilySpec(
    id="FS1.cmc.parab",
    formula="z = H0/c1*y^2",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "c1": 1.0},
    builder=_build_fs1_cmc_parab,
    notes="the attained constant is H0/c1; with c1 = 1 it equals the prescribed H0",
))
_register(FamilySpec(
    id="FS2.flat.scale",
    formula="x = c1*f2(z)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "fn": "quadratic"},
    builder=_build_fs2_flat_scale,
    notes="with a = 0 the arbitrary factor must depend on z, else the graph "
    "is admissible nowhere",
))
_register(FamilySpec(
    id="FS2.flat.exp",
    formula="x = c1*exp(c2*y + c3*z)",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 1.0, "c3": 1.0},
    builder=_build_fs2_flat_exp,
    notes="admissible exactly when c3 != 0",
))
_register(FamilySpec(
    id="FS2.flat.pow",
    formula="x = c1*y^(1/(1-c2))*z^(c2/(c2-1))",
    claim=CLAIM_FLAT,
    params={"c1": 1.0, "c2": 2.0},
    builder=_build_fs2_flat_pow,
    notes="power product on the x-graph side; c2 = 0 would drop the z dependence",
))
_register(FamilySpec(
    id="FS2.min.tan",
    formula="x = y*tan(c1*z)",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0},
    builder=_build_fs2_min_tan,
    notes="the helicoidal-style minimal x-graph; default domain keeps |c1*z| <= 1.2",
))
_register(FamilySpec(
    id="FS2.min.ratio",
    formula="x = c1*z/y",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0},
    builder=_build_fs2_min_ratio,
    notes="z over y is the minimal orientation of the ratio surface; it also has "
    "constant Gaussian curvature -1/c1^2",
))
_register(FamilySpec(
    id="FS2.min.ratio.printed",
    formula="x = c1*y/z",
    claim=CLAIM_MINIMAL,
    params={"c1": 1.0},
    builder=_build_fs2_min_ratio_printed,
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
    builder=_build_fs2_k_hyperbolic,
    notes="the attained constant is -|K0| for either sign; a positive prescribed "
    "K0 is not realized",
))
_register(FamilySpec(
    id="FS2.K.integral",
    formula="x = c1*f2(z)/y, z = integral of sqrt(c2/f2 - K0/c1^2) df2",
    claim=CLAIM_CONST_K,
    params={"K0": -1.0, "c1": 1.0, "c2": 1.0, "f2_lo": 0.5, "f2_hi": 2.5},
    builder=_build_fs2_k_integral,
    notes="quadrature-backed profile; the attained constant is K0/c1^4, equal to "
    "the prescribed K0 when c1 = 1",
))
_register(FamilySpec(
    id="FS2.cmc.sqrt",
    formula="x = sign*sqrt(-z/H0)",
    claim=CLAIM_CONST_H,
    params={"H0": 1.0, "sign": 1.0},
    builder=_build_fs2_cmc_sqrt,
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
    return merged


def build_family(family_id: str, **params):
    """Instantiate a registered family with overrides applied.

    Returns an ``AffineFactorable`` for the product families and a
    ``SurfaceChart`` for the quadrature-backed one.  Identical inputs
    rebuild the identical surface, including the quadrature table.
    """
    spec = get_family(family_id)
    return spec.builder(_merged_params(spec, params))


def expected_profile(family_id: str, **params) -> CurvatureProfile:
    """Claimed constant next to the directly derived one.

    The derived value is the claim quantity evaluated by forward-mode
    differentiation at the center of the default domain; constancy over
    grids is the verifier's job, not this function's.
    """
    spec = get_family(family_id)
    merged = _merged_params(spec, params)
    if spec.claim == CLAIM_CONST_K:
        claimed = merged["K0"]
    elif spec.claim == CLAIM_CONST_H:
        claimed = merged["H0"]
    else:
        claimed = 0.0
    if not spec.has_derived_constant:
        return CurvatureProfile(spec.claim, claimed, None)
    surface = spec.builder(merged)
    pair = surface.curvatures(surface.domain.center())
    quantity = quantity_for_claim(spec.claim)
    derived = pair.K if quantity == "K" else pair.H
    return CurvatureProfile(spec.claim, claimed, derived)
