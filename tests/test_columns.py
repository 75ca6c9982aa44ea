"""Property tests: a profile evaluated on a column of arguments gives each
argument the bits of its own per-point evaluation, exclusion texts included.

``jets.eval_column`` runs a profile once on a :class:`Col1`, all or nothing:
it either raises, or element i of the result carries the (v, dx, dxx) that
``jets.eval_profile`` gives at ts[i], and it must raise where that raises at
any argument.  ``profile_column`` then gives each argument its own jet or
error text.  The profiles are draws of the random test generator, every
factor of the catalog's product families, and profiles that mix numbers,
Jet1s and Jet2s into each operation on both sides.  A two-variable field on
a Jet2 column (``jets.eval_field_column``) must likewise give each point the
six slots of ``jets.eval_field`` there, or raise: the fields are the charts of
random instances, which cross-validation evaluates, and fields that mix
numbers and Jet2s on both sides.  Results are compared as
packed doubles, so signed zeros count.  Every route runs warm first:
CPython's generic and specialized float operations keep different NaN
operands (see ``test_jet_properties._warm``).
"""

import math
import operator
import struct

import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from isocurv import jets
from isocurv.catalog import build_family, family_ids
from isocurv.factorable import (
    _EVAL_ERRORS,
    TYPE1,
    TYPE2,
    AffineFactorable,
    as_chart,
    profile_column,
    random_instance,
    random_profile,
)
from isocurv.geometry import Rect
from isocurv.jets import BranchDomainError, Jet1, Jet2
from isocurv.rng import SplitMix64

#: Where an operation raises or overflows: the branch of log, sqrt and
#: power at 0 and below, a tan pole, exp overflow, divisors below
#: MIN_DIVISOR, power overflow, the pole of t / (t - 1), infinities, NaN
#: and both zeros.
EDGES = (
    0.0, -0.0, -1.0, math.pi / 2, 800.0, -800.0, 1e-301, -1e-301, 5e-324, 1e-200,
    1.0, math.inf, -math.inf, math.nan, 0.5, 2.0,
)
#: The arguments of the example that must hold every edge at once.
ALL_EDGES = list(EDGES)
#: Edges where tan and power(t, 2.5) reach their per-point branch tests,
#: and the math module raises at no element: the finite ones and the
#: non-negative ones.
FINITE_EDGES = [t for t in EDGES if math.isfinite(t)]
NON_NEGATIVE_EDGES = [t for t in EDGES if t >= 0.0]

J1 = Jet1(0.75, -0.5, 1.25)
J2 = Jet2(1.5, 0.25, -0.5, 0.125, 2.0, -1.0)

#: Profiles that put a number, a Jet1 and a Jet2 on each side of each
#: operation, and that reach every elementary function's branch.  ``/``,
#: negation, ``**``, log, tan, sqrt and power take no column, so their
#: profiles raise TypeError on one and are evaluated point by point.
MIXED = {
    "1 / t": lambda t: 1.0 / t,
    "t / (t - 1)": lambda t: t / (t - 1.0),
    "J2 / t": lambda t: J2 / t,
    "t / J1": lambda t: t / J1 + J2,
    "c - t": lambda t: 2.0 - t,
    "t - J2": lambda t: t - J2,
    "J1 - t": lambda t: J1 - t,
    "J1 * t + J2": lambda t: J1 * t + J2,
    "t * J2 + J1": lambda t: t * J2 + J1,
    "J2 + t * 3": lambda t: J2 + t * 3,
    "-t * t / 3": lambda t: -t * t / 3.0,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "tan": jets.tan,
    "exp(t * t)": lambda t: jets.exp(t * t),
    "sin * cos": lambda t: jets.sin(t) * jets.cos(t),
    "log + sqrt(-t)": lambda t: jets.log(t) + jets.sqrt(-t),
    "constant number": lambda t: 2.0,
    "constant Jet2": lambda t: jets.const(-3.0),
    **{f"t ** {p}": (lambda t, _p=p: t ** _p) for p in (0, 1, 2, 3, -1, -3, 0.5, -2.5)},
    **{
        f"power(t, {p})": (lambda t, _p=p: jets.power(t, _p))
        for p in (0, 1, 2, 3, -1, -3, 0.5, 2.5, -2.5)
    },
}

CATALOG = {
    f"{fid} f{k}": f
    for fid in family_ids()
    if isinstance(surface := build_family(fid), AffineFactorable)
    for k, f in ((1, surface.factor1), (2, surface.factor2))
}

profiles = st.one_of(
    st.sampled_from(sorted(MIXED)).map(lambda k: (k, MIXED[k])),
    st.sampled_from(sorted(CATALOG)).map(lambda k: (k, CATALOG[k])),
    st.integers(0, 2**64 - 1).map(lambda s: ("random", random_profile(SplitMix64(s))[0])),
)


def arguments(min_size: int):
    """Lists of min_size to 24 arguments, edges mixed in."""
    return st.lists(
        st.one_of(st.sampled_from(EDGES), st.floats(-4.0, 4.0), st.floats()),
        min_size=min_size,
        max_size=24,
    )


def _outcome(j) -> bytes | str:
    return j if j.__class__ is str else struct.pack("<3d", j.v, j.dx, j.dxx)


def _per_point(profile, t: float) -> bytes | str:
    try:
        return _outcome(jets.eval_profile(profile, t))
    except _EVAL_ERRORS as err:
        return str(err)


def _warm(profile) -> None:
    """Run both routes on finite arguments until the interpreter has specialized them."""
    warm = [0.25 + 0.01 * i for i in range(20)]
    for _ in range(16):
        profile_column(profile, warm)
        for t in warm[:2]:
            _per_point(profile, t)


@seed(20240617)
@example(drawn=("log + sqrt(-t)", MIXED["log + sqrt(-t)"]), ts=ALL_EDGES)
@example(drawn=("t / (t - 1)", MIXED["t / (t - 1)"]), ts=ALL_EDGES)
@example(drawn=("t ** -3", MIXED["t ** -3"]), ts=ALL_EDGES)
@example(drawn=("tan", MIXED["tan"]), ts=ALL_EDGES)
@example(drawn=("exp(t * t)", MIXED["exp(t * t)"]), ts=ALL_EDGES)
@example(drawn=("power(t, -3)", MIXED["power(t, -3)"]), ts=ALL_EDGES)
@example(drawn=("power(t, 2.5)", MIXED["power(t, 2.5)"]), ts=ALL_EDGES)
@given(drawn=profiles, ts=arguments(10))
def test_a_column_carries_each_arguments_own_jet_and_text(drawn, ts):
    name, profile = drawn
    _warm(profile)
    want = [_per_point(profile, t) for t in ts]
    assert [_outcome(j) for j in profile_column(profile, ts)] == want, f"{name} at {ts!r}"


@seed(20240617)
@example(drawn=("log + sqrt(-t)", MIXED["log + sqrt(-t)"]), ts=ALL_EDGES)
@example(drawn=("t / (t - 1)", MIXED["t / (t - 1)"]), ts=ALL_EDGES)
@example(drawn=("t ** -3", MIXED["t ** -3"]), ts=ALL_EDGES)
@example(drawn=("tan", MIXED["tan"]), ts=ALL_EDGES)
@example(drawn=("exp(t * t)", MIXED["exp(t * t)"]), ts=ALL_EDGES)
@example(drawn=("power(t, -3)", MIXED["power(t, -3)"]), ts=ALL_EDGES)
@example(drawn=("power(t, 2.5)", MIXED["power(t, 2.5)"]), ts=ALL_EDGES)
@example(drawn=("tan", MIXED["tan"]), ts=FINITE_EDGES)
@example(drawn=("power(t, 2.5)", MIXED["power(t, 2.5)"]), ts=NON_NEGATIVE_EDGES)
@given(drawn=profiles, ts=arguments(1))
def test_a_column_is_every_arguments_own_jet_or_raises(drawn, ts):
    name, profile = drawn
    _warm(profile)
    want = [_per_point(profile, t) for t in ts]
    try:
        column = jets.eval_column(profile, ts)
    except Exception:
        return
    assert not any(w.__class__ is str for w in want), f"{name} at {ts!r}: no raise"
    assert [_outcome(j) for j in column.jet1s()] == want, f"{name} at {ts!r}"


def test_every_edge_argument_is_excluded_with_its_own_text():
    # The edges reach each way an argument can fail, each with the text of
    # its own evaluation, and NaN raises nowhere: log(nan) and 1 / nan
    # are NaN jets, not exclusions.
    texts = {}
    for name in ("log", "sqrt", "tan", "exp(t * t)", "1 / t", "t ** -3", "t / (t - 1)"):
        got = profile_column(MIXED[name], ALL_EDGES)
        texts[name] = {repr(t): j for t, j in zip(ALL_EDGES, got) if j.__class__ is str}
        assert "nan" not in texts[name], name
    assert texts["log"]["-1.0"] == "log evaluated at -1.0: requires a positive argument"
    assert texts["sqrt"]["-0.0"] == "sqrt evaluated at -0.0: requires a positive argument"
    assert texts["tan"]["1.5707963267948966"].startswith("tan evaluated at 1.57079")
    assert texts["tan"]["inf"] == "tan evaluated at inf: requires a finite argument"
    assert texts["exp(t * t)"]["800.0"] == "math range error"
    assert texts["1 / t"]["1e-301"] == "jet division by 1e-301: |denominator| < 1e-300"
    assert texts["t ** -3"]["0.0"] == (
        "power evaluated at 0.0: requires a nonzero base for negative exponent"
    )
    assert texts["t ** -3"]["1e-200"] == "math range error"
    assert texts["t / (t - 1)"]["1.0"] == "jet division by 0.0: |denominator| < 1e-300"


@pytest.mark.parametrize("name", ["tan", "sqrt", "power(t, 2.5)", "power(t, -3)"])
def test_tan_sqrt_and_power_take_no_column(name):
    # They raise TypeError on a column, before any domain test, so
    # profile_column evaluates them point by point, with each argument's
    # own bits and branch or pole text.
    with pytest.raises(TypeError, match=r"expects a jet or a real number, got Col1"):
        jets.eval_column(MIXED[name], FINITE_EDGES)
    got = [_outcome(j) for j in profile_column(MIXED[name], FINITE_EDGES)]
    assert got == [_per_point(MIXED[name], t) for t in FINITE_EDGES]
    assert any(g.__class__ is str for g in got) and any(g.__class__ is bytes for g in got)


def test_the_benchmark_profiles_take_the_column_path():
    # An operation that the column lost would not fail a result: the
    # profile would be evaluated point by point.  Cross-validation of the
    # random instances is the only column traffic of any workload; over
    # the 41x41 grid of each of 200 seeded draws, neither profile may
    # raise on a column.
    draws = SplitMix64(2024)
    for kind in (TYPE1, TYPE2):
        for i in range(100):
            surface = random_instance(draws, kind)
            u1s, u2s = zip(*map(surface.profile_arguments, surface.domain.grid(41)))
            for k, (f, ts) in enumerate(((surface.factor1, u1s), (surface.factor2, u2s)), 1):
                column = jets.eval_column(f, ts)
                assert len(column.vs) == 41 * 41, f"random {kind} {i} f{k}"


def _reads_value(t):
    if t.v < 0.0:
        raise BranchDomainError("reads_value", t.v, "a non-negative argument")
    return jets.sqrt(t + 1.0)


def test_a_profile_that_reads_its_value_is_evaluated_point_by_point():
    # A column has no v, so the profile raises AttributeError: the column
    # is evaluated point by point instead, with each argument's own text.
    ts = [0.5, -1.0, 2.0, -0.0, 0.0, -3.0] * 2
    with pytest.raises(AttributeError):
        jets.eval_column(_reads_value, ts)
    got = [_outcome(j) for j in profile_column(_reads_value, ts)]
    assert got == [_per_point(_reads_value, t) for t in ts]
    assert got[1] == "reads_value evaluated at -1.0: requires a non-negative argument"
    assert got[3].__class__ is bytes and got[5].__class__ is str


def test_an_error_that_names_no_argument_propagates_point_by_point():
    # TypeError is no exclusion: the point-by-point run raises it, as the
    # per-point route does.
    def returns_text(t):
        return "not a jet"

    with pytest.raises(TypeError, match="profile must return a jet or a real number"):
        jets.eval_column(returns_text, [0.5] * 10)
    with pytest.raises(TypeError, match="profile must return a jet or a real number"):
        profile_column(returns_text, [0.5] * 10)


# Jet2 columns -----------------------------------------------------------
#
# jets.eval_field_column evaluates a two-variable field once on a pair of
# Col2 seeds, all or nothing, as eval_column does a profile: element i
# must carry the six slots that jets.eval_field gives at point i.

#: Fields that put a number and a Jet2 on each side of each column
#: operation, and reach exp, sin and cos, and through them compose.
FIELDS = {
    "x * y": lambda x, y: x * y,
    "x + y * y": lambda x, y: x + y * y,
    "x - y": lambda x, y: x - y,
    "c - x * y": lambda x, y: 2.0 - x * y,
    "x * y - c": lambda x, y: x * y - 3,
    "J2 - x": lambda x, y: J2 - x,
    "y - J2": lambda x, y: y - J2,
    "J2 * x + y * J2": lambda x, y: J2 * x + y * J2,
    "J2 + x * 3": lambda x, y: J2 + x * 3,
    "-2 * y + x": lambda x, y: -2 * y + x,
    "0.5 + x * y * x": lambda x, y: 0.5 + x * y * x,
    "exp(x * y)": lambda x, y: jets.exp(x * y),
    "sin(x) * cos(y)": lambda x, y: jets.sin(x) * jets.cos(y),
    "cos(x * y) + exp(y) * x": lambda x, y: jets.cos(x * y) + jets.exp(y) * x,
    "constant number": lambda x, y: 2.0,
    "constant Jet2": lambda x, y: jets.const(-3.0),
    "y": lambda x, y: y,
    # y's slope overflows at a small y while the value stays finite, so
    # each zero term of the last scalar product (dy * 0.0) counts.
    "y * 1e308 * 10 * 0.5": lambda x, y: y * 1e308 * 10.0 * 0.5,
}
#: Fields that a Jet2 column cannot carry: a caller evaluates them point
#: by point.  A Jet1 mixed into a field makes a Jet1, which a field may
#: not return either.
NO_COLUMN = {
    "x / y": lambda x, y: x / y,
    "c / y": lambda x, y: 1.0 / y,
    "-x": lambda x, y: -x,
    "x ** 2": lambda x, y: x ** 2,
    "tan(x)": lambda x, y: jets.tan(x),
    "log(y)": lambda x, y: jets.log(y),
    "sqrt(x) * y": lambda x, y: jets.sqrt(x) * y,
    "power(x, 3)": lambda x, y: jets.power(x, 3),
    "reads a value": lambda x, y: x * y.v,
    "mixes a Jet1": lambda x, y: x * J1 + y,
    "x + True": lambda x, y: x + True,
}


def _random_chart(key: int):
    kind = (TYPE1, TYPE2)[key % 2]
    return as_chart(random_instance(SplitMix64(key), kind)).height


fields = st.one_of(
    st.sampled_from(sorted(FIELDS)).map(lambda k: (k, FIELDS[k])),
    st.integers(0, 2**64 - 1).map(lambda key: (f"random chart {key}", _random_chart(key))),
)
coordinates = st.one_of(st.sampled_from(EDGES), st.floats(-4.0, 4.0), st.floats())
points = st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=24)
EDGE_POINTS = [(x, y) for x in (0.0, -0.0, math.inf, -math.inf, math.nan, 800.0, 0.5)
               for y in (0.0, -0.0, math.inf, math.nan, -800.0, 5e-324, 2.0)]


def _field_outcome(field, x: float, y: float) -> bytes | str:
    try:
        j = jets.eval_field(field, x, y)
    except _EVAL_ERRORS as err:
        return str(err)
    return struct.pack("<6d", j.v, j.dx, j.dy, j.dxx, j.dxy, j.dyy)


def _column_outcomes(column: jets.Col2) -> list[bytes]:
    pack = struct.Struct("<6d").pack
    return list(map(pack, column.vs, column.dxs, column.dys, column.dxxs, column.dxys, column.dyys))


def _warm_field(field) -> None:
    """Run both routes on finite points until the interpreter has specialized them."""
    xs, ys = [0.25 + 0.01 * i for i in range(20)], [0.5 - 0.01 * i for i in range(20)]
    for _ in range(16):
        jets.eval_field_column(field, xs, ys)
        for x, y in zip(xs[:2], ys[:2]):
            jets.eval_field(field, x, y)


@seed(20240617)
@example(drawn=("exp(x * y)", FIELDS["exp(x * y)"]), pts=[(0.5, 2.0), (800.0, 2.0)])
@example(drawn=("sin(x) * cos(y)", FIELDS["sin(x) * cos(y)"]), pts=[(math.inf, 0.0), (0.5, 2.0)])
@example(drawn=("J2 * x + y * J2", FIELDS["J2 * x + y * J2"]), pts=EDGE_POINTS)
@example(drawn=("c - x * y", FIELDS["c - x * y"]), pts=EDGE_POINTS)
@example(drawn=("-2 * y + x", FIELDS["-2 * y + x"]), pts=EDGE_POINTS)
@example(drawn=("y * 1e308 * 10 * 0.5", FIELDS["y * 1e308 * 10 * 0.5"]), pts=EDGE_POINTS)
@example(drawn=("random chart 7", _random_chart(7)), pts=EDGE_POINTS)
@example(drawn=("random chart 8", _random_chart(8)), pts=EDGE_POINTS)
@given(drawn=fields, pts=points)
def test_a_field_column_is_every_points_own_jet2_or_raises(drawn, pts):
    name, field = drawn
    _warm_field(field)
    want = [_field_outcome(field, x, y) for x, y in pts]
    try:
        column = jets.eval_field_column(field, [x for x, _ in pts], [y for _, y in pts])
    except Exception:
        assert any(w.__class__ is str for w in want), f"{name} at {pts!r}: raised"
        return
    assert column.__class__ is jets.Col2
    assert _column_outcomes(column) == want, f"{name} at {pts!r}"


@pytest.mark.parametrize("seed_", range(20))
def test_random_chart_heights_take_a_column_with_each_points_bits(seed_):
    # The charts that cross-validation evaluates, over their own domains
    # and on both zeros.
    height = _random_chart(seed_)
    _warm_field(height)
    grid = Rect((-0.6, 0.6), (-0.6, 0.6)).grid(9) + [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)]
    column = jets.eval_field_column(height, [x for x, _ in grid], [y for _, y in grid])
    assert _column_outcomes(column) == [_field_outcome(height, x, y) for x, y in grid]


@pytest.mark.parametrize("name", sorted(NO_COLUMN))
def test_a_field_column_refuses_what_it_cannot_carry(name):
    with pytest.raises((TypeError, AttributeError)):
        jets.eval_field_column(NO_COLUMN[name], [0.5, 1.5], [2.0, 0.25])


def test_columns_of_the_two_kinds_do_not_mix():
    col1 = jets.eval_column(lambda t: t, [0.5, 1.5])
    col2 = jets.eval_field_column(lambda x, y: x, [0.5, 1.5], [2.0, 0.25])
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((col1, col2), (col2, col1), (col2, J1), (J1, col2)):
            with pytest.raises(TypeError):
                op(left, right)
    with pytest.raises(AttributeError):
        col2.v
