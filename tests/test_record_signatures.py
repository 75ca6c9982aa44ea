"""The constructor signature of each record class, pinned as text.

A record names its fields in its ``__init__`` parameters, and its
``__slots__`` and ``__match_args__`` are those names in the same order.
The signatures below are what callers see: parameter names, order,
annotations and defaults.
"""

import inspect
import re

import pytest

from isocurv.catalog import CurvatureProfile, FamilySpec
from isocurv.factorable import AffineFactorable
from isocurv.geometry import Motion, ParametricSurface, Rect, SurfaceChart
from isocurv.verify import GridRun, OdeReport, ProbeInstance, ProbeReport, VerificationReport

SIGNATURES = {
    Rect: "(u: 'tuple[float, float]', v: 'tuple[float, float]') -> 'None'",
    Motion: (
        "(angle: 'float' = 0.0, tx: 'float' = 0.0, ty: 'float' = 0.0, tz: 'float' = 0.0, "
        "shear_x: 'float' = 0.0, shear_y: 'float' = 0.0) -> 'None'"
    ),
    SurfaceChart: "(orientation: 'str', height: 'Field', domain: 'Rect') -> 'None'",
    ParametricSurface: "(x: 'Field', y: 'Field', z: 'Field', domain: 'Rect') -> 'None'",
    AffineFactorable: (
        "(kind: 'str', factor1: 'Profile', factor2: 'Profile', shear: 'float', "
        "domain: 'Rect', label: 'str' = '') -> 'None'"
    ),
    CurvatureProfile: (
        "(claim: 'str', claimed_value: 'float', derived_value: 'float | None') -> 'None'"
    ),
    FamilySpec: (
        "(id: 'str', formula: 'str', params: 'dict', "
        "factors: 'Callable[[dict], tuple[Profile, Profile]] | None', "
        "domain: 'Callable[[dict], Rect]' = <function FamilySpec.<lambda> at ADDRESS>, "
        "constraints: 'tuple[tuple[str, Callable[[dict], bool]], ...]' = (), "
        "as_printed: 'bool' = False, has_derived_constant: 'bool' = True, "
        "notes: 'str' = '') -> 'None'"
    ),
    GridRun: (
        "(subject: 'str', domain: 'Rect', n: 'int', K: 'Sequence[float]', "
        "H: 'Sequence[float]', heights: 'Sequence[float] | None', "
        "excluded: 'tuple[tuple[tuple[float, float], str], ...]') -> 'None'"
    ),
    VerificationReport: (
        "(subject: 'str', domain: 'Rect | None', grid: 'int', quantity: 'str', "
        "target: 'float | None', max_abs_deviation: 'float', mean: 'float', "
        "tolerance: 'float', passed: 'bool', "
        "excluded_points: 'tuple[tuple[tuple[float, float], str], ...]' = (), "
        "notes: 'str' = '') -> 'None'"
    ),
    ProbeInstance: (
        "(label: 'str', stat: 'float', flat: 'bool', degenerate: 'bool', bad: 'bool') -> 'None'"
    ),
    ProbeReport: (
        "(kind: 'str', count: 'int', seed: 'int', grid: 'int', floor: 'float', "
        "counterexamples: 'int', min_stat: 'float', "
        "instances: 'tuple[ProbeInstance, ...]') -> 'None'"
    ),
    OdeReport: (
        "(ode: 'str', steps: 'int', max_error: 'float', tolerance: 'float', "
        "passed: 'bool') -> 'None'"
    ),
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=[cls.__name__ for cls in SIGNATURES])
def test_signature_is_pinned(cls):
    # A function default prints with its memory address, which varies by run.
    text = re.sub(r" at 0x[0-9a-f]+>", " at ADDRESS>", str(inspect.signature(cls)))
    assert text == SIGNATURES[cls]


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=[cls.__name__ for cls in SIGNATURES])
def test_fields_are_the_constructor_parameters(cls):
    names = tuple(inspect.signature(cls).parameters)
    assert cls.__slots__ == cls.__match_args__ == names
