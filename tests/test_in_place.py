"""Jets and curvature pairs built in place, without their ``__init__``.

The package's jet arithmetic and curvature routes allocate with
``object.__new__`` and store each slot themselves.  These tests keep the
hot paths off the constructors and check that every value so built is
whole: all slots set, and equal to the value its constructor builds
from the same components, down to repr, hash, copies and pickles.
"""

import copy
import math
import operator
import pickle

import pytest

from isocurv import jets
from isocurv.catalog import build_family
from isocurv.factorable import TYPE1, TYPE2, as_chart, random_instance
from isocurv.geometry import (
    X_OVER_YZ,
    Z_OVER_XY,
    CurvaturePair,
    Motion,
    Rect,
    SurfaceChart,
    as_parametric,
)
from isocurv.jets import Jet1, Jet2
from isocurv.rng import SplitMix64
from isocurv.verify import cross_validate, motion_invariance_check, sample_grid


@pytest.fixture
def entries(monkeypatch):
    """Entries into each value class's ``__init__``, by class name, from now on."""
    counts = dict.fromkeys(("Jet2", "Jet1", "CurvaturePair"), 0)

    def counted(cls):
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)

    for cls in (Jet2, Jet1, CurvaturePair):
        counted(cls)
    return counts


def test_hot_paths_enter_no_constructor(entries):
    # Everything is built before the counts are read; only the runs count.
    instances = [random_instance(SplitMix64(seed), kind) for seed, kind in ((3, TYPE1), (4, TYPE2))]
    integral = build_family("FS2.K.integral")
    osc = build_family("AFS1.min.osc")
    motion = Motion(angle=0.7, tx=0.5, ty=-1.0, tz=2.0, shear_x=0.3, shear_y=-0.4)
    entries.update(dict.fromkeys(entries, 0))

    runs = {
        "cross_validate type-1": lambda: cross_validate(instances[0], seed=5),
        "cross_validate type-2": lambda: cross_validate(instances[1], seed=6),
        "sample_grid FS2.K.integral": lambda: sample_grid(integral, n=21),
        "motion_invariance_check": lambda: motion_invariance_check(osc, motion),
        "sample_grid AFS1.min.osc": lambda: sample_grid(osc),
    }
    for name, run in runs.items():
        result = run()
        assert getattr(result, "passed", True), f"{name}: {result}"
        assert entries == dict.fromkeys(entries, 0), f"{name} entered a constructor: {entries}"


def _whole_and_equal(value):
    """Fail unless ``value`` has every slot and equals its constructor's copy."""
    built = type(value)(*value._values())  # _values raises AttributeError on an unset slot
    assert built == value and repr(built) == repr(value) and hash(built) == hash(value)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and repr(twin) == repr(value), twin


J2 = Jet2(1.5, 0.25, -0.5, 0.125, 2.0, -1.0)
J2B = Jet2(-0.75, 1.0, 0.5, -0.25, 0.375, 1.5)
J1 = Jet1(0.75, -0.5, 1.25)
J1B = Jet1(2.0, 0.5, -0.125)
BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
OPERANDS = [
    (J2, J2B), (J2, J1), (J1, J2), (J1, J1B),
    (J2, 3.0), (3.0, J2), (J2, -2), (-2, J2),
    (J1, 3.0), (3.0, J1), (J1, -2), (-2, J1),
]
UNARY = [
    operator.neg, jets.exp, jets.log, jets.sin, jets.cos, jets.tan, jets.sqrt,
    lambda a: jets.power(a, 2.5), lambda a: jets.power(a, 3), lambda a: jets.power(a, 0),
    lambda a: jets.compose(0.5, -1.0, 2.0, a),
]


@pytest.mark.parametrize("op", BINARY, ids=lambda op: op.__name__)
@pytest.mark.parametrize("left, right", OPERANDS)
def test_binary_results_are_whole_and_equal(op, left, right):
    result = op(left, right)
    assert result.__class__ is (Jet2 if Jet1 not in (type(left), type(right)) else Jet1)
    _whole_and_equal(result)


@pytest.mark.parametrize("fn", UNARY)
@pytest.mark.parametrize("jet", [J2, J1, J1B])
def test_unary_results_are_whole_and_equal(fn, jet):
    result = fn(jet)
    assert result.__class__ is jet.__class__
    _whole_and_equal(result)


@pytest.mark.parametrize(
    "make",
    [
        lambda: jets.eval_field(lambda x, y: x * y - x / y, 1.5, 2),
        lambda: jets.eval_field(lambda x, y: x, -0.5, 3.0),
        lambda: jets.eval_field(lambda x, y: y, -0.5, 3.0),
        lambda: jets.eval_field(lambda x, y: 2.0, 0.0, 0.0),
        lambda: jets.eval_profile(lambda t: t * t - 1.0 / t, 1.5),
        lambda: jets.eval_profile(lambda t: t, 2),
        lambda: jets.eval_profile(lambda t: jets.const(4.0), 2.0),
    ],
)
def test_seeded_results_are_whole_and_equal(make):
    _whole_and_equal(make())


def test_every_route_pair_is_whole_with_its_height():
    box = Rect((0.5, 1.5), (0.5, 1.5))
    z_chart = SurfaceChart(Z_OVER_XY, lambda x, y: x * x * y, box)
    x_chart = SurfaceChart(X_OVER_YZ, lambda y, z: y + z * z * z, box)
    p = (1.25, 0.75)
    for chart, height in ((z_chart, 1.25 * 1.25 * 0.75), (x_chart, 1.25 + 0.75**3)):
        pair = chart.curvatures(p)
        assert pair.w == height, (chart.orientation, pair)
        _whole_and_equal(pair)
        patch = as_parametric(chart).curvatures(p)
        assert patch.w is None, patch
        _whole_and_equal(patch)
    surface = build_family("AFS1.min.osc")
    p = tuple(sum(axis) / 2 for axis in (surface.domain.u, surface.domain.v))
    pair = surface.curvatures(p)
    assert math.isclose(pair.w, as_chart(surface).curvatures(p).w, rel_tol=1e-12), pair
    _whole_and_equal(pair)
