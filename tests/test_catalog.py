"""Unit tests for the registered surface families and their builders."""

import math
import time

import pytest

from isocurv import catalog, jets
from isocurv.catalog import (
    ParameterError,
    UnknownFamilyError,
    _MonotoneTable,
    build_family,
    build_integral_family,
    build_with_profile,
    cmc_slope_profile,
    expected_profile,
    family_ids,
    get_family,
    minimal_oscillation_profile,
    quantity_for_claim,
)
from isocurv.factorable import TYPE2, AffineFactorable, as_chart, regularity
from isocurv.geometry import Rect
from isocurv.jets import BranchDomainError
from isocurv.rng import SplitMix64
from isocurv.verify import check_constancy, sample_grid


def test_census():
    ids = family_ids()
    assert len(ids) == 30, f"registry holds {len(ids)} families"
    assert len(set(ids)) == len(ids), "duplicate family ids"
    by_claim = {}
    for fid in ids:
        by_claim.setdefault(get_family(fid).claim, []).append(fid)
    counts = {claim: len(v) for claim, v in sorted(by_claim.items())}
    assert counts == {"H-const": 6, "K-const": 4, "flat": 12, "minimal": 8}, (
        f"claim census: {counts}"
    )


#: Every family's (id, kind, claim), in registration order.
KINDS_AND_CLAIMS = [
    ("AFS1.flat.scale", "type-1", "flat"),
    ("AFS1.flat.exp", "type-1", "flat"),
    ("AFS1.flat.pow", "type-1", "flat"),
    ("AFS1.K.saddle", "type-1", "K-const"),
    ("AFS1.min.plane", "type-1", "minimal"),
    ("AFS1.min.osc", "type-1", "minimal"),
    ("AFS1.min.osc.printed", "type-1", "minimal"),
    ("AFS1.cmc.parabolic", "type-1", "H-const"),
    ("AFS1.cmc.shear", "type-1", "H-const"),
    ("AFS2.flat.scale", "type-2", "flat"),
    ("AFS2.flat.exp", "type-2", "flat"),
    ("AFS2.flat.pow", "type-2", "flat"),
    ("AFS2.cmc.sqrt", "type-2", "H-const"),
    ("AFS2.cmc.f1const", "type-2", "H-const"),
    ("FS1.flat.scale", "type-1", "flat"),
    ("FS1.flat.exp", "type-1", "flat"),
    ("FS1.flat.pow", "type-1", "flat"),
    ("FS1.min.xy", "type-1", "minimal"),
    ("FS1.min.exp-trig", "type-1", "minimal"),
    ("FS1.K.saddle", "type-1", "K-const"),
    ("FS1.cmc.parab", "type-1", "H-const"),
    ("FS2.flat.scale", "type-2", "flat"),
    ("FS2.flat.exp", "type-2", "flat"),
    ("FS2.flat.pow", "type-2", "flat"),
    ("FS2.min.tan", "type-2", "minimal"),
    ("FS2.min.ratio", "type-2", "minimal"),
    ("FS2.min.ratio.printed", "type-2", "minimal"),
    ("FS2.K.hyperbolic", "type-2", "K-const"),
    ("FS2.K.integral", "type-2", "K-const"),
    ("FS2.cmc.sqrt", "type-2", "H-const"),
]


def test_each_family_has_the_kind_and_claim_its_id_names():
    got = [(fid, get_family(fid).kind, get_family(fid).claim) for fid in family_ids()]
    assert got == KINDS_AND_CLAIMS


@pytest.mark.parametrize("fid", ["X.test", "FS1", "FS3.flat.x", "FS1.cmcx.x", "fs1.flat.x", ""])
def test_an_id_without_a_known_ansatz_and_behavior_is_refused(fid):
    with pytest.raises(ValueError) as err:
        catalog.FamilySpec(fid, "z = x*y", {}, None)
    assert str(err.value) == f"unknown ansatz or behavior in family id {fid!r}"


def test_unknown_family_raises():
    with pytest.raises(UnknownFamilyError):
        get_family("FS9.does.not.exist")
    with pytest.raises(UnknownFamilyError):
        build_family("FS9.does.not.exist")


def test_an_unknown_family_error_is_a_key_error_with_the_bare_message():
    with pytest.raises(KeyError) as err:
        get_family("nope")
    assert isinstance(err.value, UnknownFamilyError)
    assert str(err.value) == "unknown family id 'nope'"


def test_unknown_parameter_raises():
    with pytest.raises(ParameterError) as err:
        build_family("FS1.min.xy", c9=1.0)
    assert "unknown parameter" in str(err.value), f"message: {err.value}"


def test_non_numeric_parameter_raises():
    with pytest.raises(ParameterError):
        build_family("FS1.min.xy", c1="fast")


def test_constraint_violations_name_the_constraint():
    cases = [
        ("AFS1.flat.pow", {"c2": 1.0}, "c2 != 1"),
        ("AFS2.flat.exp", {"a": 1.0, "c2": 1.0, "c3": -1.0}, "a*c2 + c3 != 0"),
        ("FS2.flat.exp", {"c3": 0.0}, "c3 != 0"),
        ("FS2.flat.pow", {"c2": 0.0}, "c2 != 0"),
        ("AFS1.K.saddle", {"K0": 0.0}, "K0 != 0"),
    ]
    for fid, params, fragment in cases:
        with pytest.raises(ParameterError) as err:
            build_family(fid, **params)
        assert fragment in str(err.value), (
            f"{fid}: constraint text {fragment!r} missing from {err.value}"
        )


_SHEAR_FAMILIES = (
    "AFS1.flat.scale",
    "AFS1.flat.exp",
    "AFS1.flat.pow",
    "AFS1.K.saddle",
    "AFS1.min.plane",
    "AFS1.min.osc",
    "AFS1.min.osc.printed",
    "AFS1.cmc.parabolic",
    "AFS1.cmc.shear",
    "AFS2.flat.scale",
    "AFS2.flat.exp",
    "AFS2.flat.pow",
    "AFS2.cmc.sqrt",
    "AFS2.cmc.f1const",
)
_FN_TEXT = "constraint violated: fn must be one of 'quadratic', 'exp', 'sin'"
_Z_TEXT = "(the height would not depend on z)"

#: Exact ParameterError texts: the family id, ": ", then the text given here.
_PARAMETER_ERRORS = [
    (fid, {"a": 0.0}, "constraint violated: a != 0") for fid in _SHEAR_FAMILIES
] + [
    ("AFS1.flat.scale", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("AFS1.flat.scale", {"fn": "cubic"}, _FN_TEXT),
    ("AFS1.flat.exp", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("AFS1.flat.pow", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("AFS1.flat.pow", {"c2": 1.0}, "constraint violated: c2 != 1"),
    ("AFS1.K.saddle", {"K0": 0.0}, "constraint violated: K0 != 0"),
    ("AFS1.min.osc", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("AFS1.min.osc.printed", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("AFS1.cmc.parabolic", {"H0": 0.0}, "constraint violated: H0 != 0"),
    ("AFS1.cmc.shear", {"H0": 0.0}, "constraint violated: H0 != 0"),
    ("AFS2.flat.scale", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("AFS2.flat.scale", {"fn": "cubic"}, _FN_TEXT),
    ("AFS2.flat.exp", {"c1": 0.0}, "constraint violated: c1 != 0"),
    (
        "AFS2.flat.exp",
        {"c2": 1.0, "c3": -1.0},
        "constraint violated: a*c2 + c3 != 0 (the graph is admissible nowhere otherwise)",
    ),
    ("AFS2.flat.pow", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("AFS2.flat.pow", {"c2": 1.0}, "constraint violated: c2 != 1"),
    ("AFS2.cmc.sqrt", {"H0": 0.0}, "constraint violated: H0 != 0"),
    ("AFS2.cmc.sqrt", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("AFS2.cmc.f1const", {"H0": 0.0}, "constraint violated: H0 != 0"),
    ("AFS2.cmc.f1const", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS1.flat.scale", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS1.flat.scale", {"fn": "cubic"}, _FN_TEXT),
    ("FS1.flat.exp", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS1.flat.pow", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS1.flat.pow", {"c2": 1.0}, "constraint violated: c2 != 1"),
    ("FS1.min.xy", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS1.min.exp-trig", {"c2": 0.0}, "constraint violated: c2 != 0"),
    ("FS1.K.saddle", {"K0": 0.0}, "constraint violated: K0 != 0"),
    ("FS1.cmc.parab", {"H0": 0.0}, "constraint violated: H0 != 0"),
    ("FS1.cmc.parab", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS2.flat.scale", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS2.flat.scale", {"fn": "cubic"}, _FN_TEXT),
    ("FS2.flat.exp", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS2.flat.exp", {"c3": 0.0}, f"constraint violated: c3 != 0 {_Z_TEXT}"),
    ("FS2.flat.pow", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS2.flat.pow", {"c2": 1.0}, "constraint violated: c2 != 1"),
    ("FS2.flat.pow", {"c2": 0.0}, f"constraint violated: c2 != 0 {_Z_TEXT}"),
    ("FS2.min.tan", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS2.min.ratio", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS2.min.ratio.printed", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS2.K.hyperbolic", {"K0": 0.0}, "constraint violated: K0 != 0"),
    ("FS2.K.hyperbolic", {"sign": "up"}, "constraint violated: sign must be +1 or -1"),
    ("FS2.K.integral", {"K0": 0.0}, "constraint violated: K0 != 0"),
    ("FS2.K.integral", {"c1": 0.0}, "constraint violated: c1 != 0"),
    ("FS2.K.integral", {"f2_lo": 0.0}, "constraint violated: f2_lo > 0"),
    ("FS2.K.integral", {"f2_hi": 0.5}, "constraint violated: f2_hi > f2_lo"),
    (
        "FS2.K.integral",
        {"K0": 1.0, "c2": 0.0},
        "constraint violated: radicand c2/t - K0/c1^2 must stay >= 1e-06 on the profile range",
    ),
    ("FS2.cmc.sqrt", {"H0": 0.0}, "constraint violated: H0 != 0"),
    ("FS2.cmc.sqrt", {"sign": "up"}, "constraint violated: sign must be +1 or -1"),
    (
        "AFS2.flat.pow",
        {"c2": 0.5, "a": 0.8},
        "constraint violated: regularity must stay >= 0.001 in magnitude on the default "
        "domain (observed minimum 4.44e-16)",
    ),
    ("FS1.min.xy", {"c9": 1.0}, "unknown parameter 'c9' (expected: c1)"),
    ("FS1.flat.scale", {"fn": 3.0}, "parameter 'fn' must be a profile name"),
    # A bool is a flag, not a number; None and a list are no sign.
    ("FS1.min.xy", {"c1": None}, "parameter 'c1' must be a real number, got None"),
    ("FS1.min.xy", {"c1": True}, "parameter 'c1' must be a real number, got True"),
    ("FS2.K.hyperbolic", {"sign": None}, "constraint violated: sign must be +1 or -1"),
    ("FS2.K.hyperbolic", {"sign": [1]}, "constraint violated: sign must be +1 or -1"),
    ("FS2.K.hyperbolic", {"sign": True}, "constraint violated: sign must be +1 or -1"),
]


@pytest.mark.parametrize("fid, params, text", _PARAMETER_ERRORS)
def test_parameter_error_texts_are_exact(fid, params, text):
    # expected_profile builds first, also a family without a derived
    # constant (the .printed rows), so it refuses with the same text.
    for entry in (build_family, expected_profile):
        with pytest.raises(ParameterError) as err:
            entry(fid, **params)
        assert str(err.value) == f"{fid}: {text}", entry.__name__


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_raises(value):
    with pytest.raises(ParameterError) as err:
        build_family("FS1.min.xy", c1=value)
    assert str(err.value) == f"FS1.min.xy: parameter 'c1' must be finite, got {value!r}"


def test_unknown_profile_name_raises():
    with pytest.raises(ParameterError):
        build_family("FS1.flat.scale", fn="cubic")


def test_every_family_meets_its_claim_at_default_parameters():
    for fid in family_ids():
        spec = get_family(fid)
        profile = expected_profile(fid)
        quantity = quantity_for_claim(spec.claim)
        run = sample_grid(build_family(fid), n=9, subject=fid)
        assert not run.excluded, f"{fid}: excluded points {run.excluded[:2]}"
        if spec.as_printed:
            continue  # retained discrepancies are covered below
        target = profile.derived_value
        report = check_constancy(run, target=target, tol=1e-9, quantity=quantity)
        assert report.passed, (
            f"{fid}: {quantity} deviates by {report.max_abs_deviation} from {target}"
        )


def test_as_printed_families_deviate_from_their_claims():
    # These registry entries keep a stated form whose claim does not
    # survive direct differentiation; they must fail, not pass quietly.
    for fid in ("AFS1.min.osc.printed", "FS2.min.ratio.printed"):
        spec = get_family(fid)
        assert spec.as_printed and not spec.has_derived_constant
        run = sample_grid(build_family(fid), n=21, subject=fid)
        report = check_constancy(run, target=0.0, tol=1e-9, quantity="H")
        assert report.max_abs_deviation > 0.01, (
            f"{fid}: expected a visible deviation, got {report.max_abs_deviation}"
        )
    sqrt_spec = get_family("AFS2.cmc.sqrt")
    assert sqrt_spec.as_printed
    sqrt_profile = expected_profile("AFS2.cmc.sqrt")
    assert sqrt_profile.claimed_value == 1.0
    assert sqrt_profile.derived_value is not None
    assert abs(sqrt_profile.derived_value + 1.0) <= 1e-12, (
        f"direct differentiation gives H = {sqrt_profile.derived_value}"
    )


def test_expected_profile_values():
    saddle = expected_profile("AFS1.K.saddle")
    assert (saddle.claimed_value, saddle.derived_value) == (-1.0, -1.0)
    # the saddle constant tracks K0 through the builder
    deep = expected_profile("AFS1.K.saddle", K0=-4.0)
    assert deep.claimed_value == -4.0 and abs(deep.derived_value + 4.0) <= 1e-12
    # the parabolic profile family attains H0/c1, not H0
    parab = expected_profile("FS1.cmc.parab", H0=1.0, c1=2.0)
    assert abs(parab.derived_value - 0.5) <= 1e-12, f"derived {parab.derived_value}"
    # the quadrature family attains K0/c1^4
    integral = expected_profile("FS2.K.integral", K0=-1.0, c1=math.sqrt(2.0))
    assert abs(integral.derived_value + 0.25) <= 1e-9, f"derived {integral.derived_value}"


def test_quantity_for_claim():
    assert quantity_for_claim("flat") == "K"
    assert quantity_for_claim("K-const") == "K"
    assert quantity_for_claim("minimal") == "H"
    assert quantity_for_claim("H-const") == "H"
    with pytest.raises(ValueError):
        quantity_for_claim("umbilic")


def test_sign_parameter_accepts_strings():
    # A bare + or - is +1 or -1, and any other text is what float() reads.
    for texts in (("+1", "-1"), ("+", "-"), ("1e0", " -1.0 ")):
        plus, minus = (as_chart(build_family("FS2.K.hyperbolic", sign=t)) for t in texts)
        p = (1.0, 1.0)
        wp = jets.eval_field(plus.height, *p).v
        wm = jets.eval_field(minus.height, *p).v
        assert abs(wp + wm) <= 1e-15, f"sign branches {wp} and {wm} are not mirrored"
    with pytest.raises(ParameterError):
        build_family("FS2.K.hyperbolic", sign="up")


def test_oscillation_profile_initial_conditions():
    # c1 = a = c2 = 1, c3 = 0: f2(t) = exp(-t/2) * cos(t/2), so
    # f2(0) = 1 and f2'(0) = -1/2.
    f2 = minimal_oscillation_profile(1.0, 1.0, amp_cos=1.0, amp_sin=0.0)
    j = jets.eval_profile(f2, 0.0)
    assert j.v == 1.0 and abs(j.dx + 0.5) <= 1e-15, f"ICs: {j.v}, {j.dx}"
    with pytest.raises(ParameterError):
        minimal_oscillation_profile(0.0, 1.0)
    with pytest.raises(ParameterError):
        minimal_oscillation_profile(1.0, 0.0)


def test_oscillation_profile_solves_its_equation():
    # (1 + a^2) f2'' + 2 a c1 f2' + c1^2 f2 = 0 along the profile.
    c1, a = 1.3, -0.6
    f2 = minimal_oscillation_profile(c1, a, amp_cos=0.7, amp_sin=1.2)
    for t in (-1.0, 0.0, 0.4, 2.0):
        j = jets.eval_profile(f2, t)
        residual = (1.0 + a * a) * j.dxx + 2.0 * a * c1 * j.dx + c1 * c1 * j.v
        assert abs(residual) <= 1e-12, f"ODE residual {residual} at t={t}"


def test_cmc_slope_profile_slope_law():
    # The defining property: f2'' = 2 H0 c1^2 (f2')^3.
    H0, c1 = 0.8, 1.1
    f2 = cmc_slope_profile(H0, c1, c2=2.0, c3=0.5)
    for t in (-0.2, 0.0, 0.3):
        j = jets.eval_profile(f2, t)
        residual = j.dxx - 2.0 * H0 * c1 * c1 * j.dx ** 3
        assert abs(residual) <= 1e-12, f"slope law residual {residual} at t={t}"


def test_integral_family_reduces_to_closed_form_when_c2_vanishes():
    # With c2 = 0 the integrand is the constant sigma = sqrt(-K0)/c1,
    # so the table inverts to f2 = f2_lo + z/sigma and the height is
    # w = c1 * (f2_lo + z/sigma) / y.
    for K0 in (-1.0, -4.0):
        chart = build_integral_family(K0=K0, c1=1.0, c2=0.0)
        sigma = math.sqrt(-K0)
        worst_h = 0.0
        for p in chart.domain.grid(7):
            y, z = p
            w = jets.eval_field(chart.height, y, z).v
            closed = (0.5 + z / sigma) / y
            worst_h = max(worst_h, abs(w - closed))
            pair = chart.curvatures(p)
            assert abs(pair.K - K0) <= 1e-9, f"K0={K0}: K = {pair.K} at {p}"
        assert worst_h <= 1e-9, f"K0={K0}: height drifts from closed form by {worst_h}"


def test_integral_family_rejects_negative_radicand():
    with pytest.raises(ParameterError):
        build_integral_family(K0=1.0, c1=1.0, c2=0.0)


def test_integral_family_requires_positive_profile_range():
    with pytest.raises(ParameterError):
        build_integral_family(K0=-1.0, c1=1.0, c2=1.0, f2_range=(-0.5, 2.0))


def _radicand_slope(c2, d):
    return lambda t: math.sqrt(c2 / t - d)


#: (c2, K0, c1, f2_lo, f2_hi) in each sign case of the closed-form integral.
_INTEGRAL_CASES = {
    "asin": (1.5, 0.2, 1.3, 1e-3, 2.0),
    "asinh": (1.0, -1.0, 1.0, 0.5, 2.5),
    "asinh-near-0": (1.0, -1.0, 1.0, 1e-3, 2.0),
    "acosh": (-1.0, -2.0, 1.0, 1.0, 3.0),
    "linear": (0.0, -1.0, 1.0, 1e-3, 2.0),
    "d-underflow": (1.0, 1e-300, 1e100, 0.5, 2.5),
}


def _integral_table(name, slope=None):
    c2, K0, c1, lo, hi = _INTEGRAL_CASES[name]
    d = K0 / (c1 * c1)
    return _MonotoneTable(catalog._antiderivative(c2, d), slope or _radicand_slope(c2, d), lo, hi)


def _simpson_integral(c2, d, lo, t, n=2048):
    """z(t) by composite Simpson in u = sqrt(s), where dz = 2*sqrt(c2 - d*u^2) du is smooth."""
    a, b = math.sqrt(lo), math.sqrt(t)
    h = (b - a) / n
    g = [2.0 * math.sqrt(c2 - d * (a + k * h) ** 2) for k in range(n + 1)]
    return h / 3.0 * (g[0] + g[-1] + 4.0 * sum(g[1:-1:2]) + 2.0 * sum(g[2:-1:2]))


@pytest.mark.parametrize("name", sorted(_INTEGRAL_CASES))
def test_integral_table_equals_an_independent_quadrature(name):
    # The table holds F(t) - F(lo) for the closed form F of its sign
    # case; Simpson's rule after the substitution s = u^2 has no
    # singular integrand at s = 0 and converges to rounding.
    c2, K0, c1, lo, hi = _INTEGRAL_CASES[name]
    table = _integral_table(name)
    assert table.nodes[0] == lo and table.nodes[-1] == hi and len(table.nodes) == 1025
    worst = 0.0
    for t, z in list(zip(table.nodes, table.zs))[1::64] + [(hi, table.z_end)]:
        worst = max(worst, abs(z - _simpson_integral(c2, K0 / (c1 * c1), lo, t)))
    assert worst <= 1e-14 * table.z_end, f"{name}: max |z - Simpson| = {worst:.3e}"


@pytest.mark.parametrize("name", sorted(_INTEGRAL_CASES))
def test_table_inversion_round_trips_to_a_few_ulp(name):
    table = _integral_table(name)
    F, f_lo, z_end = table.antiderivative, table.f_lo, table.z_end
    rng = SplitMix64(9301)
    targets = [rng.uniform(0.0, z_end) for _ in range(10_000)] + table.zs + [0.0, z_end]
    worst = 0.0
    for z0 in targets:
        t = table.invert(z0)
        assert table.nodes[0] <= t <= table.nodes[-1], f"{name}: invert({z0!r}) = {t!r}"
        worst = max(worst, abs(F(t) - f_lo - z0))
    assert worst <= 4 * math.ulp(z_end), f"{name}: round trip off by {worst / math.ulp(z_end)} ulp"


class _CountedTables:
    """Counts, from here on, the inversions and Newton slope calls of every integral table."""

    def __init__(self, monkeypatch):
        self.inverts = self.slopes = 0
        init, invert = _MonotoneTable.__init__, _MonotoneTable.invert

        def counted_init(table, antiderivative, slope, lo, hi):
            def counted_slope(t):
                self.slopes += 1
                return slope(t)

            init(table, antiderivative, counted_slope, lo, hi)

        def counted_invert(table, z0):
            self.inverts += 1
            return invert(table, z0)

        monkeypatch.setattr(_MonotoneTable, "__init__", counted_init)
        monkeypatch.setattr(_MonotoneTable, "invert", counted_invert)


def _integral_chart(name):
    c2, K0, c1, lo, hi = _INTEGRAL_CASES[name]
    return build_integral_family(K0=K0, c1=c1, c2=c2, f2_range=(lo, hi))


def _hex(j):
    return tuple(map(float.hex, j.components()))


def test_table_inversion_is_remembered_and_bit_identical(monkeypatch):
    # The height remembers c1*f2(z) per z seed: a repeated z, under any
    # y, neither inverts the table nor calls its Newton slope.
    counts = _CountedTables(monkeypatch)
    chart = _integral_chart("asinh")
    lo, hi = chart.domain.v
    z0 = lo + 0.37 * (hi - lo)
    got = [jets.eval_field(chart.height, 0.7, z0)]
    assert counts.inverts == 1 and counts.slopes > 0
    counts.inverts = counts.slopes = 0
    got += [jets.eval_field(chart.height, y, z0) for y in (0.7, 1.3)]
    assert (counts.inverts, counts.slopes) == (0, 0), "a repeated z seed was inverted again"
    for y, j in zip((0.7, 0.7, 1.3), got):
        fresh = jets.eval_field(_integral_chart("asinh").height, y, z0)
        assert _hex(j) == _hex(fresh), f"at y={y}: {j!r} != fresh {fresh!r}"


def test_table_memo_is_bounded_by_its_nodes(monkeypatch):
    # The memo holds one numerator per table node, more than the 1001
    # columns of the largest grid, and is cleared when full.  The fresh
    # chart sees each z once, so each of its values is computed anew.
    bound = len(_integral_table("asin").nodes)
    assert bound >= 1001
    counts = _CountedTables(monkeypatch)
    chart, fresh = _integral_chart("asin"), _integral_chart("asin")
    lo, hi = chart.domain.v
    zs = [lo + (hi - lo) * k / bound for k in range(bound + 1)]
    want = [_hex(jets.eval_field(fresh.height, 1.1, z)) for z in zs]

    def inversions(k):
        before = counts.inverts
        got = _hex(jets.eval_field(chart.height, 1.1, zs[k]))
        assert got == want[k], f"at z={zs[k]!r}: {got} != fresh {want[k]}"
        return counts.inverts - before

    assert [inversions(k) for k in range(bound)] == [1] * bound
    assert inversions(0) == 0, "the memo dropped an entry before it was full"
    assert inversions(bound) == 1
    assert inversions(0) == 1, "the memo outgrew its bound"


def test_table_rejects_out_of_range_without_storing(monkeypatch):
    counts = _CountedTables(monkeypatch)
    chart = _integral_chart("linear")
    for z0 in (-1.0, 2.0 * chart.domain.v[1], float("nan")):
        counts.inverts = 0
        for _ in range(2):
            with pytest.raises(BranchDomainError):
                jets.eval_field(chart.height, 1.0, z0)
        assert counts.inverts == 2, f"z={z0!r} was stored: {counts.inverts} inversions"


def test_integral_grid_inverts_each_column_once(monkeypatch):
    # Each of the 201 z values comes back on all 201 grid rows.
    counts = _CountedTables(monkeypatch)
    surface = build_family("FS2.K.integral")
    counts.inverts = 0
    run = sample_grid(surface, n=201)
    assert not run.excluded
    assert counts.inverts == 201, f"{counts.inverts} inversions"


def test_integral_height_memo_is_exact_under_signed_zeros():
    # Equal keys differ at most in the sign of a zero slot.  A seed with
    # -0.0 slots, asked after its +0.0 twin, gets the twin's numerator:
    # it must have the bits a fresh build gives the -0.0 seed itself.
    # Seeds share their z values, so a key without the derivative slots
    # would hand one seed another's numerator; each mask has its own
    # fresh build, which sees each z once.
    rng = SplitMix64(2604)
    chart = _integral_chart("asinh")
    lo, hi = chart.domain.v
    zs = [rng.uniform(lo, hi) for _ in range(3)]
    y = jets.coord1(0.9)
    for mask in range(64):
        fresh = _integral_chart("asinh")
        for z in zs:
            slots = [z] + [rng.uniform(-2.0, 2.0) for _ in range(5)]
            zeroed = [bool(mask >> i & 1) for i in range(6)]
            plus = jets.Jet2(*(0.0 if zero else s for zero, s in zip(zeroed, slots)))
            minus = jets.Jet2(*(-0.0 if zero else s for zero, s in zip(zeroed, slots)))
            chart.height(y, plus)
            got, want = chart.height(y, minus), fresh.height(y, minus)
            assert _hex(got) == _hex(want), f"mask {mask:06b}: {got!r} != fresh {want!r}"


def test_table_that_does_not_increase_is_a_parameter_error():
    with pytest.raises(ParameterError, match="^integral table is not strictly increasing$"):
        _MonotoneTable(lambda t: -t, lambda t: 1.0, 0.0, 1.0)
    # Nodes 1/1024 apart near 1e15, where floats are 0.125 apart.
    with pytest.raises(ParameterError) as err:
        build_family("FS2.K.integral", f2_lo=1e15, f2_hi=1e15 + 1.0)
    assert str(err.value) == "FS2.K.integral: integral table is not strictly increasing"


def test_table_that_is_not_finite_is_a_parameter_error():
    with pytest.raises(ParameterError, match="^integral table is not finite$"):
        _MonotoneTable(lambda t: 1e308 * t, lambda t: 1e308, 0.5, 2.5)
    # (f2_hi - f2_lo) * i overflows at the third node.
    with pytest.raises(ParameterError) as err:
        build_family("FS2.K.integral", f2_hi=1e308)
    assert str(err.value) == "FS2.K.integral: integral table is not finite"


def test_integral_family_builds_fast_near_its_singular_end():
    # sqrt(c2/t + 1/9) is singular at t = 0; the closed form does not care.
    start = time.perf_counter()
    surface = build_family("FS2.K.integral", c1=3.0, f2_lo=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"build took {elapsed:.3f} s"
    report = check_constancy(sample_grid(surface, n=41), target=-1.0 / 81.0, tol=1e-9)
    assert report.passed and not report.excluded_points, report.to_json()


@pytest.mark.parametrize(
    "fid, params, text",
    [
        (
            "AFS2.flat.exp",
            {"c1": 1e-9, "c2": 50.0, "c3": -0.001, "a": 50.0},
            "evaluation failed on the default domain: math range error",
        ),
        (
            "AFS1.flat.exp",
            {"c2": 2000.0},
            "evaluation failed at the domain center (0.5, 0.5): math range error",
        ),
    ],
)
def test_evaluation_errors_while_building_are_parameter_errors(fid, params, text):
    # The type-2 regularity check and the center point of the derived
    # constant evaluate the surface; an overflow there refuses the
    # parameters and names the family.
    with pytest.raises(ParameterError) as err:
        build_with_profile(fid, **params)
    assert str(err.value) == f"{fid}: {text}"


_NOT_FINITE = (
    "constraint violated: default domain bounds and widths must be finite, got {} x {}"
)


@pytest.mark.parametrize(
    "fid, params, u, v",
    [
        # The shift 1.5*|a| of the positive box overflows to inf.
        ("AFS1.flat.pow", {"a": -1.2e308}, (0.5, 1.5), (math.inf, math.inf)),
        ("AFS2.cmc.sqrt", {"a": -1.2e308}, (math.inf, math.inf), (0.5, 1.5)),
        # 1.2/|c1| overflows; at c1 = 1e-308 the bounds are finite and
        # the width is not.
        ("FS2.min.tan", {"c1": 1e-320}, (0.5, 1.5), (-math.inf, math.inf)),
        (
            "FS2.min.tan", {"c1": 1e-308},
            (0.5, 1.5), (-1.2000000000000001e308, 1.2000000000000001e308),
        ),
    ],
    ids=["AFS1-bounds", "AFS2-bounds", "tan-bounds", "tan-width"],
)
def test_a_default_domain_that_is_not_finite_is_a_parameter_error(fid, params, u, v):
    # Type 1 once built a surface over v = (inf, inf), and type 2 raised
    # a bare ValueError from its regularity walk.
    with pytest.raises(ParameterError) as err:
        build_family(fid, **params)
    assert str(err.value) == f"{fid}: " + _NOT_FINITE.format(u, v)


_TYPE2_PRODUCTS = [
    fid for fid in family_ids() if get_family(fid).kind == TYPE2 and fid != "FS2.K.integral"
]


@pytest.mark.parametrize("fid", _TYPE2_PRODUCTS)
def test_regularity_check_walks_grid_lines(fid, monkeypatch):
    # The build-time check evaluates f2 once per grid column, f1 once
    # per grid row where a = 0 and once per distinct argument y + a*z
    # otherwise (17 on the 9 x 9 default grid, where a = 1 repeats them
    # along diagonals), and gets the per-point values bit for bit.
    surface = build_family(fid)
    want = [regularity(surface, *surface.profile_jets(p)) for p in surface.domain.grid(9)]
    got = catalog._regularity_grid(surface)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    # Counts evaluated arguments: a column counts its length.
    calls = []
    point, column = jets.eval_profile, jets.eval_column
    monkeypatch.setattr(jets, "eval_profile", lambda f, t: calls.append(t) or point(f, t))
    monkeypatch.setattr(jets, "eval_column", lambda f, ts: calls.extend(ts) or column(f, ts))
    build_with_profile(fid)
    center = 2 if get_family(fid).has_derived_constant else 0
    assert len(calls) == (18 if surface.shear == 0.0 else 26) + center


@pytest.mark.parametrize("a", [0.0, -1.0])
def test_regularity_check_reports_f2_before_f1(a):
    # f1 fails at every point and f2 from the grid column z = 0.5 on.
    # Grid sampling gives each point f1's text, but the build check
    # evaluates f2's columns first and reports f2's first failure.
    f1 = lambda t: jets.log(t - 10.0)
    f2 = lambda t: jets.sqrt(0.5 - t)
    s = AffineFactorable(TYPE2, f1, f2, a, Rect((0.0, 1.0), (0.0, 1.0)), "X")
    with pytest.raises(ParameterError) as err:
        catalog._regularity_grid(s)
    with pytest.raises(BranchDomainError) as first:
        jets.eval_profile(f2, 0.5)
    assert str(err.value) == f"X: evaluation failed on the default domain: {first.value}"
    s = s.replace(factor2=lambda t: 1.0 + t)
    with pytest.raises(ParameterError) as err:
        catalog._regularity_grid(s)
    with pytest.raises(BranchDomainError) as first:
        jets.eval_profile(f1, 0.0)
    assert str(err.value) == f"X: evaluation failed on the default domain: {first.value}"


def test_regularity_check_reports_a_nan_wherever_it_sits():
    # f2 is NaN from the grid column z = 1.125 on, so the first values
    # of the 9 x 9 grid are finite and min() alone would skip the NaN.
    f2 = lambda t: t * (math.nan if t.v > 1.0 else 1.0)
    s = AffineFactorable(TYPE2, lambda t: t, f2, 0.0, Rect((0.5, 1.5), (0.5, 1.5)), "X")
    values = catalog._regularity_grid(s)
    assert not math.isnan(values[0]) and any(map(math.isnan, values))
    with pytest.raises(ParameterError) as err:
        catalog._check_regularity(s)
    assert str(err.value) == (
        "X: constraint violated: regularity must stay >= 0.001 in magnitude on the "
        "default domain (observed minimum nan)"
    )


@pytest.mark.parametrize("entry", [build_family, build_with_profile, expected_profile])
def test_every_build_refuses_an_arithmetic_error_by_family(entry):
    # c1 != 0 holds, but 4*H0*c1*c1 underflows to 0 and the default
    # domain divides by it.
    with pytest.raises(ParameterError) as err:
        entry("AFS2.cmc.f1const", c1=1e-200)
    assert str(err.value) == (
        "AFS2.cmc.f1const: evaluation failed while building: float division by zero"
    )


def test_builds_are_deterministic():
    a = build_family("FS2.K.integral")
    b = build_family("FS2.K.integral")
    for p in a.domain.grid(5):
        ja = jets.eval_field(a.height, p[0], p[1])
        jb = jets.eval_field(b.height, p[0], p[1])
        assert ja.components() == jb.components(), f"rebuild differs at {p}"


def test_type2_builders_reject_vanishing_regularity():
    # A shear that drives a*f1'*f2 + f1*f2' through zero on the default
    # window must be rejected at build time, not fail point by point.
    with pytest.raises(ParameterError) as err:
        build_family("AFS2.flat.pow", c2=0.5, a=0.8)
    assert "regularity" in str(err.value), f"message: {err.value}"


def test_factorable_families_expose_their_structure():
    s = build_family("AFS1.K.saddle")
    assert isinstance(s, AffineFactorable)
    chart = as_chart(s)
    assert chart.axes() == ("x", "y")
    t = build_family("AFS2.cmc.sqrt")
    assert isinstance(t, AffineFactorable)
    assert as_chart(t).axes() == ("y", "z")
