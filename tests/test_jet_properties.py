"""Property tests: the scalar fast paths of Jet2 are bit-exact, and Jet1 is
Jet2 restricted to its x slots.

A jet mixed with a plain float or int takes a path that builds no
constant jet.  Each such result must carry the same bits as the jet-jet
rule applied to ``Jet2(float(c))``.  Every Jet1 operation, a Jet2
operand mixed in or not, must carry the bits of the Jet2 operation's
(v, dx, dxx), or raise what it raises.  NaN payloads and signed zeros
count, so results are compared as packed doubles, not with ``==``.
Every division form must carry the bits of multiplying by the reciprocal
jet, as ``reference_division`` keeps that two-step route.
"""

import math
import operator
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isocurv import jets
from isocurv.jets import Jet1, Jet2

import reference_division

EDGE_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.0,
)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
scalars = st.one_of(floats, st.integers(-1000, 1000), st.integers(-(2**60), 2**60))
jets_ = st.builds(Jet2, floats, floats, floats, floats, floats, floats)


jets1 = st.builds(Jet1, floats, floats, floats)


def bits(j: Jet2) -> bytes:
    return struct.pack("<6d", *j.components())


def x_bits(j) -> bytes:
    return struct.pack("<3d", j.v, j.dx, j.dxx)


WARM_J2 = Jet2(1.5, 0.5, -0.5, 0.25, 2.0, -1.0)
WARM_J1 = Jet1(0.75, -1.0, 2.0)
#: Every operand pairing of the two jet kinds and a number, but two numbers.
WARM_PAIRS = tuple(
    (a, b) for a in (WARM_J2, WARM_J1, 2.5) for b in (WARM_J2, WARM_J1, 2.5)
    if not (a == 2.5 and b == 2.5)
)


def _warm(fn, *operands):
    """Run fn on finite operands until the interpreter has specialized its float sites.

    CPython's generic float operations keep the second operand's NaN where
    its specialized ones keep the first's, so where two NaNs meet, the
    bits depend on whether a bytecode site has run often enough to be
    specialized, and the same site can give two answers a call apart.
    Every route a test compares runs warm, so that each of its sites
    takes its float-only path.
    """
    for _ in range(16):
        for args in operands:
            fn(*args)


# Each scalar expression next to the jet-jet expression it stands for.
CASES = {
    "t + c": (lambda t, c: t + c, lambda t, k: t + k),
    "c + t": (lambda t, c: c + t, lambda t, k: t + k),
    "t - c": (lambda t, c: t - c, lambda t, k: t - k),
    "c - t": (lambda t, c: c - t, lambda t, k: k - t),
    "t * c": (lambda t, c: t * c, lambda t, k: t * k),
    "c * t": (lambda t, c: c * t, lambda t, k: t * k),
}


@pytest.mark.parametrize("case", sorted(CASES))
@given(t=jets_, c=scalars)
def test_scalar_fast_path_matches_the_jet_rule(case, t, c):
    fast, rule = CASES[case]
    _warm(fast, (WARM_J2, 2.5))
    _warm(rule, (WARM_J2, WARM_J2))
    got, want = fast(t, c), rule(t, Jet2(float(c)))
    assert bits(got) == bits(want), f"{case} with c={c!r}, t={t!r}: {got!r} != {want!r}"


@given(t=jets_, c=scalars)
def test_scalar_products_commute_bit_for_bit(t, c):
    _warm(operator.mul, (WARM_J2, 2.5))
    assert bits(c * t) == bits(t * c)


@given(t=jets_)
def test_bool_operands_raise(t):
    # test_jets covers t * True, False + t and exp(True).
    for op in (
        lambda: True * t,
        lambda: t + True,
        lambda: t - True,
        lambda: False - t,
        lambda: t / True,
        lambda: True / t,
    ):
        with pytest.raises(TypeError):
            op()


def _outcome(fn, *args):
    """The result's class and x-slot bits, or the error's class and text."""
    try:
        r = fn(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return r.__class__, x_bits(r)


def _reference(fn, *args):
    """The outcome of the Jet2 operation, a Jet2 result read as a Jet1."""
    kind, value = _outcome(fn, *args)
    return (Jet1 if kind is Jet2 else kind), value


def _lift(j: Jet1, y: Jet2):
    """A Jet2 with j's x slots; its y slots come from y."""
    return Jet2(j.v, j.dx, y.dy, j.dxx, y.dxy, y.dyy)


BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


# One hypothesis test per table, not one per entry: drawing the examples
# costs more than checking them, and a failure names its entry.
@given(a=jets1, b=jets1, c=scalars, ya=jets_, yb=jets_)
def test_jet1_arithmetic_is_the_x_slots_of_jet2(a, b, c, ya, yb):
    A, B = _lift(a, ya), _lift(b, yb)
    for fn in BINARY.values():
        _warm(fn, *WARM_PAIRS)
    for op, fn in BINARY.items():
        for args, ref in (
            ((a, b), (A, B)),
            ((a, c), (A, c)),
            ((c, a), (c, A)),
            ((ya, b), (ya, B)),
            ((a, yb), (A, yb)),
        ):
            got, want = _outcome(fn, *args), _reference(fn, *ref)
            assert got == want, f"{args!r} {op}: {got!r} != {want!r}"


UNARY = {
    "neg": lambda t: -t,
    "exp": jets.exp,
    "log": jets.log,
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "sqrt": jets.sqrt,
    **{f"power {p}": (lambda t, _p=p: jets.power(t, _p)) for p in (0, 1, 2, 3, -1, 0.5, -2.5)},
    "** 2": lambda t: t ** 2,
}


@given(a=jets1, y=jets_)
def test_jet1_functions_are_the_x_slots_of_jet2(a, y):
    A = _lift(a, y)
    for fn in UNARY.values():
        _warm(fn, (WARM_J1,), (WARM_J2,))
    for name, fn in UNARY.items():
        got, want = _outcome(fn, a), _reference(fn, A)
        assert got == want, f"{name}({a!r}): {got!r} != {want!r}"


def _division(fn, a, b):
    """The result's class and packed doubles, or the error's class and text."""
    try:
        r = fn(a, b)
    except ArithmeticError as err:
        return type(err), str(err)
    return r.__class__, struct.pack(f"<{len(r.components())}d", *r.components())


NAN, NEG_NAN = math.nan, -math.nan


# Every division form: a jet of either kind or a plain number over a jet
# of either kind or a plain number, one operand at least a jet.  In the
# first example 1 - 2**53 + 2**53 is 1 where 1 + 2**53 - 2**53 is 0, so
# the order of the mixed partial's sum decides the bits; the second puts
# NaNs of opposite signs in every slot that meets another, so the
# operand order of each product does.
@example(
    a2=Jet2(0.0, 2.0**53, 1.0, 1.0, 1.0, 1.0),
    b2=Jet2(1.0, -(2.0**53), 1.0, 0.0, 0.0, 0.0),
    a1=Jet1(1.0, 2.0**53, 1.0),
    b1=Jet1(1.0, -1.0, 0.0),
    c=3.0,
)
@example(
    a2=Jet2(NEG_NAN, NAN, NEG_NAN, NAN, NEG_NAN, NAN),
    b2=Jet2(NAN, NEG_NAN, NAN, NEG_NAN, NAN, NEG_NAN),
    a1=Jet1(NAN, NEG_NAN, NAN),
    b1=Jet1(NEG_NAN, NAN, NEG_NAN),
    c=NEG_NAN,
)
@given(a2=jets_, b2=jets_, a1=jets1, b1=jets1, c=scalars)
def test_every_division_form_is_the_product_with_the_reciprocal_jet(a2, b2, a1, b1, c):
    _warm(operator.truediv, *WARM_PAIRS)
    _warm(reference_division.divide, *WARM_PAIRS)
    for a, b in (
        (a2, b2), (a2, c), (c, b2),
        (a1, b1), (a1, b2), (a2, b1), (a1, c), (c, b1),
    ):
        got = _division(operator.truediv, a, b)
        want = _division(reference_division.divide, a, b)
        assert got == want, f"{a!r} / {b!r}: {got!r} != {want!r}"
