"""Unit tests for second-order jet arithmetic.

Expected derivative values are worked out by hand and frozen, or checked
against a test-local central finite-difference oracle that shares no code
with the jet implementation.
"""

import math

import pytest

from isocurv import jets
from isocurv.jets import BranchDomainError, Jet1, Jet2
from isocurv.rng import SplitMix64


def test_division_field_hand_values():
    # w(x, y) = x / y at (1, 2):
    # w = 1/2, w_x = 1/y = 1/2, w_y = -x/y^2 = -1/4,
    # w_xx = 0, w_xy = -1/y^2 = -1/4, w_yy = 2x/y^3 = 1/4.
    got = jets.eval_field(lambda x, y: x / y, 1.0, 2.0).components()
    want = (0.5, 0.5, -0.25, 0.0, -0.25, 0.25)
    assert got == want, f"jet of x/y at (1,2) is {got}, expected {want}"


def test_sqrt_profile_hand_values():
    # f(t) = sqrt(t) at t = 4: f = 2, f' = 1/4, f'' = -1/32.
    got = jets.eval_profile(jets.sqrt, 4.0)
    want = Jet1(2.0, 0.25, -0.03125)
    assert got.__class__ is Jet1, f"eval_profile returned a {type(got).__name__}"
    got, want = got.components(), want.components()
    assert got == want, f"jet of sqrt at 4 is {got}, expected {want}"


def test_exp_field_hand_values():
    # exp(x) seeded in the first coordinate at 0: all x-derivatives are 1.
    got = jets.eval_field(lambda x, y: jets.exp(x), 0.0, 5.0).components()
    want = (1.0, 1.0, 0.0, 1.0, 0.0, 0.0)
    assert got == want, f"jet of exp(x) at x=0 is {got}, expected {want}"


def test_product_rule_hand_values():
    # w = x * y at (3, 5): w_x = y, w_y = x, w_xy = 1, pure seconds vanish.
    got = jets.eval_field(lambda x, y: x * y, 3.0, 5.0).components()
    want = (15.0, 5.0, 3.0, 0.0, 1.0, 0.0)
    assert got == want, f"jet of x*y at (3,5) is {got}, expected {want}"


def test_log_negative_raises():
    with pytest.raises(BranchDomainError):
        jets.log(jets.const(-1.0))


def test_sqrt_negative_raises():
    with pytest.raises(BranchDomainError):
        jets.sqrt(jets.const(-2.0))


def test_tan_pole_raises():
    with pytest.raises(BranchDomainError):
        jets.tan(jets.const(math.pi / 2.0))


@pytest.mark.parametrize("fn", ["sin", "cos", "tan"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_trig_at_an_infinite_argument_is_a_branch_error(fn, value):
    # math.sin and math.cos raise a bare ValueError at +-inf; the jets
    # name the function and the argument instead.
    with pytest.raises(BranchDomainError) as err:
        getattr(jets, fn)(jets.coord1(value))
    assert str(err.value) == f"{fn} evaluated at {value!r}: requires a finite argument"


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        jets.eval_field(lambda x, y: x / y, 1.0, 0.0)


def _bits(j):
    """Each component with its sign, so that 0.0 and -0.0 differ."""
    return [(c, math.copysign(1.0, c)) for c in j.components()]


@pytest.mark.parametrize("value", [-0.0, 0.0, 1.5, -2.25, 3, 1e-300, -7.0e12])
def test_coordinate_seeds_equal_the_keyword_jets(value):
    # coord1 and coord2 pass their components by position; the jets are
    # the keyword-built ones, components and zero signs included.
    assert _bits(jets.coord1(value)) == _bits(Jet2(float(value), dx=1.0))
    assert _bits(jets.coord2(value)) == _bits(Jet2(float(value), dy=1.0))
    assert jets.coord1(value).v.__class__ is float and jets.coord2(value).v.__class__ is float


def test_evaluation_coerces_a_plain_number_result():
    assert jets.eval_field(lambda x, y: 2, 0.0, 0.0) == Jet2(2.0)
    got = jets.eval_profile(lambda t: -0.0, 1.0)
    assert got.__class__ is Jet1 and _bits(got) == _bits(Jet1(-0.0))
    with pytest.raises(TypeError):
        jets.eval_profile(lambda t: "x", 1.0)


def test_power_edge_cases():
    a = jets.coord1(2.0)
    assert jets.power(a, 0).components() == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert jets.power(a, 1).components() == a.components()
    # integer exponent on a negative base is fine
    cube = jets.power(jets.coord1(-2.0), 3)
    assert cube.v == -8.0 and cube.dx == 12.0, f"(-2)^3 jet: {cube.components()}"
    with pytest.raises(BranchDomainError):
        jets.power(jets.coord1(-2.0), 0.5)
    with pytest.raises(BranchDomainError):
        jets.power(jets.coord1(0.0), -1)


def test_operator_coercion_with_plain_numbers():
    x = jets.coord1(3.0)
    left = (1.0 + x) * 2.0 - 0.5
    right = 2.0 * x + 1.5
    assert left.components() == right.components(), (
        f"coerced arithmetic mismatch: {left.components()} != {right.components()}"
    )


def test_bool_is_not_a_real_number():
    x = jets.coord1(1.0)
    with pytest.raises(TypeError):
        jets.exp(True)
    with pytest.raises(TypeError):
        Jet2(1.0) * True
    with pytest.raises(TypeError):
        False + x
    with pytest.raises(TypeError):
        x ** True
    with pytest.raises(TypeError):
        jets.eval_field(lambda a, b: True, 0.0, 0.0)


#: Each elementary function, called on a plain number.
ELEMENTARY = {
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "sqrt": jets.sqrt,
    "power": lambda a: jets.power(a, 2.5),
}


@pytest.mark.parametrize("name", list(ELEMENTARY))
def test_elementary_functions_take_an_int_as_its_float(name):
    fn = ELEMENTARY[name]
    got, want = fn(2), fn(2.0)
    assert got.__class__ is want.__class__ is Jet2
    assert got.components() == want.components()


@pytest.mark.parametrize("name", list(ELEMENTARY))
def test_elementary_functions_refuse_a_string_by_name(name):
    with pytest.raises(TypeError) as err:
        ELEMENTARY[name]("2")
    assert str(err.value) == f"{name} expects a jet or a real number, got str"


class _Float(float):
    """A float subclass, which misses the scalar fast path's class check."""


def _bits(jet) -> list[str]:
    return [v.hex() for v in jet.components()]


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_jet1_takes_a_float_subclass_as_its_float(op):
    t = Jet1(1.5, -0.75, 2.25)
    apply = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }[op]
    for c in (2.5, -0.5, 3.0):
        for left, right, plain_left, plain_right in ((t, _Float(c), t, c), (_Float(c), t, c, t)):
            got, want = apply(left, right), apply(plain_left, plain_right)
            assert got.__class__ is want.__class__ is Jet1, (op, c)
            assert _bits(got) == _bits(want), (op, c, left, right)
    with pytest.raises(TypeError):
        apply(t, "2")
    with pytest.raises(TypeError):
        apply("2", t)


def test_jet_equality_hash_and_repr():
    a = Jet2(1.0, 2.0, dyy=-0.0)
    assert a == Jet2(1.0, 2.0, 0.0, 0.0, 0.0, -0.0)
    assert a != Jet2(1.0, 2.0, dxy=3.0)
    assert a != a.components(), "a jet never equals a plain tuple"
    assert hash(a) == hash((1.0, 2.0, 0.0, 0.0, 0.0, -0.0))
    table = {a: "first", Jet2(5.0): "second"}
    assert table[Jet2(1.0, 2.0)] == "first" and table[jets.const(5.0)] == "second"
    assert repr(a) == "Jet2(v=1.0, dx=2.0, dy=0.0, dxx=0.0, dxy=0.0, dyy=-0.0)"
    assert repr(Jet2(1, 2.5, float("nan"), float("inf"), -1e-300, 3)) == (
        "Jet2(v=1, dx=2.5, dy=nan, dxx=inf, dxy=-1e-300, dyy=3)"
    )
    b = Jet1(1.0, 2.0, -0.0)
    assert b == jets.eval_profile(lambda t: 2.0 * t - 1.0, 1.0) and b != Jet1(1.0, 2.0, 3.0)
    assert b != a and a != b, "a Jet1 never equals a Jet2"
    assert hash(b) == hash((1.0, 2.0, -0.0))
    assert repr(b) == "Jet1(v=1.0, dx=2.0, dxx=-0.0)"


def _random_jet(rng: SplitMix64) -> Jet2:
    return Jet2(*(rng.uniform(-2.0, 2.0) for _ in range(6)))


def test_multiplication_commutes_and_associates():
    rng = SplitMix64(2024)
    for trial in range(50):
        a, b, c = _random_jet(rng), _random_jet(rng), _random_jet(rng)
        ab, ba = a * b, b * a
        for u, v in zip(ab.components(), ba.components()):
            assert abs(u - v) <= 1e-14, f"trial {trial}: commutativity off by {abs(u - v)}"
        lhs, rhs = (a * b) * c, a * (b * c)
        for u, v in zip(lhs.components(), rhs.components()):
            assert abs(u - v) <= 1e-14 * (1.0 + abs(u)), (
                f"trial {trial}: associativity off by {abs(u - v)}"
            )


def test_exp_log_roundtrip():
    rng = SplitMix64(7)
    for trial in range(50):
        a = Jet2(rng.uniform(0.2, 3.0), *(rng.uniform(-1.0, 1.0) for _ in range(5)))
        back = jets.exp(jets.log(a))
        for u, v in zip(back.components(), a.components()):
            assert abs(u - v) <= 1e-12 * (1.0 + abs(v)), (
                f"trial {trial}: exp(log(a)) off by {abs(u - v)}"
            )


def _fd_oracle(f, x: float, y: float, h: float = 1e-4):
    """Central finite differences for the five partials of f at (x, y)."""
    fxp, fxm = f(x + h, y), f(x - h, y)
    fyp, fym = f(x, y + h), f(x, y - h)
    f0 = f(x, y)
    dx = (fxp - fxm) / (2.0 * h)
    dy = (fyp - fym) / (2.0 * h)
    dxx = (fxp - 2.0 * f0 + fxm) / (h * h)
    dyy = (fyp - 2.0 * f0 + fym) / (h * h)
    dxy = (
        f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)
    ) / (4.0 * h * h)
    return dx, dy, dxx, dxy, dyy


def test_composite_field_against_finite_differences():
    def field(x, y):
        return jets.exp(0.3 * x) * jets.sin(y) + x * x / (1.0 + y * y)

    def plain(x, y):
        return math.exp(0.3 * x) * math.sin(y) + x * x / (1.0 + y * y)

    points = [(0.4, 0.9), (-1.1, 0.3), (0.0, -0.7), (1.5, 1.2)]
    for x, y in points:
        jet = jets.eval_field(field, x, y)
        oracle = _fd_oracle(plain, x, y)
        got = (jet.dx, jet.dy, jet.dxx, jet.dxy, jet.dyy)
        for name, u, v in zip(("dx", "dy", "dxx", "dxy", "dyy"), got, oracle):
            assert abs(u - v) <= 1e-5 * (1.0 + abs(u)), (
                f"{name} at ({x},{y}): jet {u} vs finite difference {v}"
            )


def test_trig_second_derivatives_close_the_circle():
    # sin'' = -sin and cos'' = -cos, checked through the jet components.
    for t in (-1.3, 0.0, 0.6, 2.9):
        s = jets.eval_profile(jets.sin, t)
        c = jets.eval_profile(jets.cos, t)
        assert abs(s.dxx + s.v) <= 1e-15, f"sin'' + sin = {s.dxx + s.v} at {t}"
        assert abs(c.dxx + c.v) <= 1e-15, f"cos'' + cos = {c.dxx + c.v} at {t}"
        assert abs(s.v * s.v + c.v * c.v - 1.0) <= 1e-15


def test_is_finite_flags_bad_components():
    assert Jet2(1.0, 2.0, 3.0).is_finite()
    assert not Jet2(float("nan")).is_finite()
    assert not Jet2(1.0, dyy=float("inf")).is_finite()
    assert Jet1(1.0, 2.0, 3.0).is_finite()
    assert not Jet1(1.0, dxx=float("-inf")).is_finite()


def test_splitmix64_reference_stream():
    # Reference outputs for seed 0 from the published splitmix64 test vector.
    rng = SplitMix64(0)
    got = [rng.next_u64() for _ in range(3)]
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert got == want, f"splitmix64 seed-0 stream {got} != {want}"


def test_splitmix64_uniform_and_determinism():
    a, b = SplitMix64(123), SplitMix64(123)
    seq_a = [a.uniform(-1.0, 1.0) for _ in range(100)]
    seq_b = [b.uniform(-1.0, 1.0) for _ in range(100)]
    assert seq_a == seq_b, "same seed must reproduce the same stream"
    assert all(-1.0 <= v < 1.0 for v in seq_a), "uniform draws left the range"
    signs = {SplitMix64(9).sign() for _ in range(1)} | {
        SplitMix64(s).sign() for s in range(8)
    }
    assert signs <= {-1.0, 1.0}, f"sign() produced {signs}"
