"""Unit tests for the product-form surface ansatz and its curvature routes."""

import struct

import pytest

from isocurv import jets
from isocurv.factorable import (
    TYPE1,
    TYPE2,
    AffineFactorable,
    afs1_curvatures,
    afs2_curvatures,
    as_chart,
    is_planar,
    random_instance,
    random_profile,
    regularity,
)
from isocurv.geometry import AdmissibilityError, Rect
from isocurv.jets import BranchDomainError
from isocurv.rng import SplitMix64

UNIT = Rect((0.0, 1.0), (0.0, 1.0))


def _type1(f1, f2, a, domain=UNIT, label=""):
    return AffineFactorable(TYPE1, f1, f2, a, domain, label)


def _type2(f1, f2, a, domain=UNIT, label=""):
    return AffineFactorable(TYPE2, f1, f2, a, domain, label)


# hand-computed spot values ---------------------------------------------


def test_exponential_product_values():
    # z = exp(x) * exp(y + x), a = 1, at the origin: every profile value
    # and derivative equals 1, so K = 1 - 1 = 0 and 2H = 2 + 2 + 1 = 5.
    s = _type1(jets.exp, jets.exp, 1.0)
    pair = s.curvatures((0.0, 0.0))
    assert (pair.K, pair.H) == (0.0, 2.5), f"exp*exp gave {(pair.K, pair.H)}"


def test_sheared_coordinate_product_values():
    # z = x * (y + x), a = 1: K = -(1*1)^2 = -1 and 2H = 2*1*1*1 = 2
    # at every point.
    s = _type1(lambda t: t, lambda t: t, 1.0)
    for p in ((0.0, 0.0), (0.7, 0.2), (1.0, 1.0)):
        pair = s.curvatures(p)
        assert (pair.K, pair.H) == (-1.0, 1.0), f"x*(y+x) gave {(pair.K, pair.H)} at {p}"


def test_constant_times_square_values():
    # z = (1/2) * (y + x)^2, a = 1: f1'' = 0 kills K, and
    # 2H = (1 + 1) * (1/2) * 2 = 2, so H = 1 at every point.
    s = _type1(lambda t: jets.const(0.5), lambda t: t * t, 1.0)
    pair = s.curvatures((0.3, -0.1))
    assert (pair.K, pair.H) == (0.0, 1.0), f"const*square gave {(pair.K, pair.H)}"


def test_sideways_root_product_values():
    # x = sqrt(y + z) * 1, a = 1, at (y, z) = (3, 1): the shifted argument
    # is 4; direct differentiation of w = sqrt(y + z) gives K = 0, H = -1.
    s = _type2(jets.sqrt, lambda t: jets.const(1.0), 1.0, Rect((2.5, 3.5), (0.5, 1.5)))
    pair = s.curvatures((3.0, 1.0))
    assert pair.K == 0.0, f"K = {pair.K}"
    assert abs(pair.H + 1.0) <= 1e-15, f"H = {pair.H}"


def test_plane_product_values():
    # z = (2x + 1) * 1.5 is a plane: both curvatures vanish.
    s = _type1(lambda t: 2.0 * t + 1.0, lambda t: jets.const(1.5), 0.5)
    pair = s.curvatures((0.4, 0.9))
    assert (pair.K, pair.H) == (0.0, 0.0), f"plane gave {(pair.K, pair.H)}"


def test_constant_slope_profile_product_values():
    # x = 1 * f2(z) with f2'(z) = (1 - 4z)^(-1/2): the slope condition
    # that makes H identically 1.  At (y, z) = (0, -1) this gives (0, 1).
    from isocurv.catalog import cmc_slope_profile

    f2 = cmc_slope_profile(1.0, 1.0, c2=1.0, c3=0.0)
    s = _type2(lambda t: jets.const(1.0), f2, 1.0, Rect((-0.5, 0.5), (-1.5, -0.5)))
    pair = s.curvatures((0.0, -1.0))
    assert abs(pair.K) <= 1e-15 and abs(pair.H - 1.0) <= 1e-12, (
        f"constant-slope product gave {(pair.K, pair.H)}"
    )


# structure and guards ---------------------------------------------------


def test_profile_arguments_shift():
    s = _type1(lambda t: t, lambda t: t, 2.0)
    assert s.profile_arguments((0.5, 1.0)) == (0.5, 2.0)
    t = _type2(lambda t: t, lambda t: t, 2.0)
    assert t.profile_arguments((1.0, 0.25)) == (1.5, 0.25)


def test_profile_jets_are_the_profiles_at_the_shifted_arguments():
    s = _type2(jets.exp, lambda t: 1.0 + t * t, 0.7, Rect((0.0, 1.0), (0.5, 1.5)))
    p = (0.25, 0.75)
    u1, u2 = s.profile_arguments(p)
    j1, j2 = s.profile_jets(p)
    assert j1.components() == jets.eval_profile(s.factor1, u1).components()
    assert j2.components() == jets.eval_profile(s.factor2, u2).components()
    assert s.curvatures(p) == afs2_curvatures(s, p, j1, j2)


def test_kind_validation():
    with pytest.raises(ValueError):
        AffineFactorable("type-3", lambda t: t, lambda t: t, 0.0, UNIT)


def test_specialized_route_rejects_wrong_kind():
    s1 = _type1(lambda t: t, lambda t: t, 1.0)
    s2 = _type2(lambda t: t, lambda t: jets.const(1.0), 1.0)
    p = (0.5, 0.5)
    with pytest.raises(ValueError):
        afs2_curvatures(s1, p, *s1.profile_jets(p))
    with pytest.raises(ValueError):
        afs1_curvatures(s2, p, *s2.profile_jets(p))


def test_regularity_is_a_type2_notion():
    s1 = _type1(lambda t: t, lambda t: t, 1.0)
    with pytest.raises(ValueError):
        regularity(s1, *s1.profile_jets((0.5, 0.5)))


def test_regularity_matches_height_slope():
    # reg = w_z for the sideways height w(y, z) = f1(y + a*z) * f2(z).
    s = _type2(jets.exp, lambda t: 1.0 + t * t, 0.7, Rect((0.0, 1.0), (0.5, 1.5)))
    chart = as_chart(s)
    for p in ((0.2, 0.8), (0.9, 1.2)):
        reg = regularity(s, *s.profile_jets(p))
        j = jets.eval_field(chart.height, p[0], p[1])
        assert abs(reg - j.dy) <= 1e-14 * (1.0 + abs(reg)), (
            f"regularity {reg} != slope {j.dy} at {p}"
        )


# the height each route returns -------------------------------------------


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _chart_height(s, p) -> float:
    return jets.eval_field(as_chart(s).height, *p).v


def test_route_height_is_the_chart_height_on_random_instances():
    for seed in range(40):
        for kind in (TYPE1, TYPE2):
            s = random_instance(SplitMix64(seed), kind)
            for p in s.domain.grid(7):
                try:
                    w = s.curvatures(p).w
                except AdmissibilityError:
                    continue
                assert _bits(w) == _bits(_chart_height(s, p)), f"seed {seed} {kind} at {p}"


def test_route_height_keeps_a_negative_zero():
    # f1 vanishes at u1 = 0 and f2 is negative there, so w = 0.0 * -1.5
    # = -0.0 at every point of that grid line, on both routes.
    def line(t):
        return t

    for s, p in (
        (_type1(line, lambda t: t - 2.0, 0.5), (0.0, 0.5)),
        (_type1(lambda t: -t - 1.5, line, 0.0), (0.0, 0.0)),
        (_type2(line, lambda t: jets.exp(t) - 2.5, 1.0), (-0.5, 0.5)),
    ):
        w = s.curvatures(p).w
        assert _bits(w) == _bits(-0.0) == _bits(_chart_height(s, p)), f"{s.kind} at {p}: {w!r}"


def test_degenerate_regularity_raises():
    # x = 1 * 1: the height never moves with z.
    s = _type2(lambda t: jets.const(1.0), lambda t: jets.const(1.0), 1.0)
    with pytest.raises(AdmissibilityError):
        s.curvatures((0.5, 0.5))


def test_type1_gaussian_curvature_ignores_the_shear():
    # K depends on the profiles only through the shifted arguments: for
    # points mapped to the same (u1, u2) the value of a cannot matter.
    f1 = lambda t: jets.exp(0.5 * t)
    f2 = lambda t: 1.0 + t + 0.25 * t * t
    u1, u2 = 0.4, 0.8
    values = []
    for a in (0.0, 0.5, -1.3):
        s = _type1(f1, f2, a, Rect((-5.0, 5.0), (-5.0, 5.0)))
        values.append(s.curvatures((u1, u2 - a * u1)).K)
    spread = max(values) - min(values)
    assert spread <= 1e-12 * (1.0 + abs(values[0])), f"K spread over shears: {values}"


def test_chart_route_agrees_with_specialized_route():
    cases = [
        _type1(jets.exp, lambda t: jets.sin(t) + 2.0, -0.8),
        _type1(lambda t: 1.0 + t * t, jets.exp, 1.4),
        _type2(lambda t: jets.exp(0.6 * t), lambda t: 2.0 + t, 0.5,
               Rect((0.0, 1.0), (0.0, 1.0))),
        _type2(lambda t: 2.0 + jets.sin(t), lambda t: jets.exp(0.4 * t), -0.3,
               Rect((0.0, 1.0), (0.0, 1.0))),
    ]
    for s in cases:
        chart = as_chart(s)
        for p in s.domain.grid(4):
            fast = s.curvatures(p)
            slow = chart.curvatures(p)
            assert abs(fast.K - slow.K) <= 1e-12 * (1.0 + abs(slow.K)), (
                f"K routes disagree at {p}: {fast.K} vs {slow.K}"
            )
            assert abs(fast.H - slow.H) <= 1e-12 * (1.0 + abs(slow.H)), (
                f"H routes disagree at {p}: {fast.H} vs {slow.H}"
            )


def test_as_chart_orientation():
    s1 = _type1(lambda t: t, lambda t: t, 1.0)
    assert as_chart(s1).axes() == ("x", "y")
    s2 = _type2(lambda t: t, lambda t: jets.const(1.0), 1.0)
    assert as_chart(s2).axes() == ("y", "z")


# randomized instance generation ----------------------------------------


def test_random_profile_is_deterministic():
    p1, lab1 = random_profile(SplitMix64(5))
    p2, lab2 = random_profile(SplitMix64(5))
    assert lab1 == lab2, f"labels diverged: {lab1} vs {lab2}"
    for t in (-0.4, 0.0, 0.9):
        a, b = jets.eval_profile(p1, t), jets.eval_profile(p2, t)
        assert a.components() == b.components(), f"profiles diverged at {t}"


def test_random_instance_shapes():
    for kind in (TYPE1, TYPE2):
        s = random_instance(SplitMix64(11), kind)
        assert s.kind == kind
        assert s.label.startswith(kind), f"label {s.label!r} misses the kind"
        pair = s.curvatures(s.domain.center())
        assert abs(pair.K) < 1e6 and abs(pair.H) < 1e6, f"wild curvature {pair}"


def test_is_planar_classification():
    plane = _type1(lambda t: 2.0 * t + 1.0, lambda t: jets.const(1.5), 0.5)
    assert is_planar(plane), "an affine times a constant is a plane"
    curved = _type1(jets.exp, lambda t: t, 1.0)
    assert not is_planar(curved), "exp factor should not look affine"
