"""Value semantics of the package's immutable value classes.

Each class is pinned by its fields: repr text, match arguments,
equality and hashing by the field tuple, construction, validation text,
immutability, copying and pickling.  They are plain ``__slots__``
classes, so importing the package generates no code.
"""

import copy
import importlib
import inspect
import pickle
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from isocurv import catalog
from isocurv.catalog import CurvatureProfile, FamilySpec
from isocurv.factorable import TYPE1, TYPE2, AffineFactorable
from isocurv.geometry import Motion, ParametricSurface, Rect, SurfaceChart, X_OVER_YZ, Z_OVER_XY
from isocurv.verify import GridRun, ProbeInstance, ProbeReport, VerificationReport

BOX = Rect((0.0, 1.0), (0.5, 1.5))
BOX_REPR = "Rect(u=(0.0, 1.0), v=(0.5, 1.5))"


def height(x, y):
    return x * y


def first(u, v):
    return u


def second(u, v):
    return v


def square(t):
    return t * t


def cube(t):
    return t * t * t


def factors(p):
    return square, cube


def domain(p):
    return BOX


def not_two(p):
    return p["a"] != 2.0


PROBE = ProbeInstance("draw 3", 0.5, False, False, True)

#: (class, fields in declaration order, repr text).  The repr of a
#: function field is whatever the function's own repr is.
CASES = [
    (Rect, {"u": (0.0, 1.0), "v": (0.5, 1.5)}, BOX_REPR),
    (
        Motion,
        {"angle": 0.25, "tx": 1.0, "ty": -2.0, "tz": 0.5, "shear_x": 0.125, "shear_y": -0.75},
        "Motion(angle=0.25, tx=1.0, ty=-2.0, tz=0.5, shear_x=0.125, shear_y=-0.75)",
    ),
    (
        SurfaceChart,
        {"orientation": X_OVER_YZ, "height": height, "domain": BOX},
        f"SurfaceChart(orientation='x-over-yz', height={height!r}, domain={BOX_REPR})",
    ),
    (
        ParametricSurface,
        {"x": first, "y": second, "z": height, "domain": BOX},
        f"ParametricSurface(x={first!r}, y={second!r}, z={height!r}, domain={BOX_REPR})",
    ),
    (
        AffineFactorable,
        {"kind": TYPE2, "factor1": square, "factor2": cube, "shear": 0.5, "domain": BOX,
         "label": "sample"},
        f"AffineFactorable(kind='type-2', factor1={square!r}, factor2={cube!r}, shear=0.5, "
        f"domain={BOX_REPR}, label='sample')",
    ),
    (
        GridRun,
        {"subject": "s", "domain": BOX, "n": 2, "K": (1.0,),
         "H": (0.5,), "heights": (2.0,), "excluded": (((1.0, 1.5), "branch"),)},
        f"GridRun(subject='s', domain={BOX_REPR}, n=2, K=(1.0,), "
        "H=(0.5,), heights=(2.0,), excluded=(((1.0, 1.5), 'branch'),))",
    ),
    (
        VerificationReport,
        {"subject": "s", "domain": BOX, "grid": 2, "quantity": "K", "target": -1.0,
         "max_abs_deviation": 1e-12, "mean": -1.0, "tolerance": 1e-9, "passed": True,
         "excluded_points": (((1.0, 1.5), "branch"),), "notes": "n"},
        f"VerificationReport(subject='s', domain={BOX_REPR}, grid=2, quantity='K', "
        "target=-1.0, max_abs_deviation=1e-12, mean=-1.0, tolerance=1e-09, passed=True, "
        "excluded_points=(((1.0, 1.5), 'branch'),), notes='n')",
    ),
    (
        ProbeInstance,
        {"label": "draw 3", "stat": 0.5, "flat": False, "degenerate": False, "bad": True},
        "ProbeInstance(label='draw 3', stat=0.5, flat=False, degenerate=False, bad=True)",
    ),
    (
        ProbeReport,
        {"kind": "afs2-minimal", "count": 1, "seed": 7, "grid": 11, "floor": 1e-4,
         "counterexamples": 1, "min_stat": 0.5, "instances": (PROBE,)},
        "ProbeReport(kind='afs2-minimal', count=1, seed=7, grid=11, floor=0.0001, "
        "counterexamples=1, min_stat=0.5, instances=(ProbeInstance(label='draw 3', stat=0.5, "
        "flat=False, degenerate=False, bad=True),))",
    ),
    (
        CurvatureProfile,
        {"claim": "K-const", "claimed_value": -1.0, "derived_value": None},
        "CurvatureProfile(claim='K-const', claimed_value=-1.0, derived_value=None)",
    ),
    (
        FamilySpec,
        {"id": "FS1.flat.test", "formula": "z = x*y", "params": {"a": 1.0},
         "factors": factors, "domain": domain,
         "constraints": (("a != 2", not_two),), "as_printed": True,
         "has_derived_constant": False, "notes": "n"},
        "FamilySpec(id='FS1.flat.test', formula='z = x*y', params={'a': 1.0}, "
        "as_printed=True, has_derived_constant=False, notes='n')",
    ),
]

#: Classes none of whose fields hold a function, so pickle can round-trip them.
PICKLABLE = {Rect, Motion, GridRun, VerificationReport, ProbeInstance, ProbeReport, CurvatureProfile}

ids = [case[0].__name__ for case in CASES]


def _other(value):
    """A value unequal to ``value`` that validation still accepts."""
    for a, b in ((X_OVER_YZ, Z_OVER_XY), (TYPE1, TYPE2)):
        if value == a:
            return b
        if value == b:
            return a
    return object()


@pytest.mark.parametrize("cls, fields, text", CASES, ids=ids)
def test_repr_and_match_args(cls, fields, text):
    assert repr(cls(**fields)) == text
    assert cls.__match_args__ == tuple(fields)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=ids)
def test_construction_positional_and_by_keyword(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls, fields, text", CASES, ids=ids)
def test_equality_is_by_class_and_fields(cls, fields, text):
    obj = cls(**fields)
    values = tuple(fields.values())
    assert obj == cls(**fields)
    assert not obj != cls(**fields)
    assert obj != values
    assert obj != list(values)
    sub = type("Sub", (cls,), {})
    assert sub(**fields) != obj and obj != sub(**fields)
    for name, value in fields.items():
        assert cls(**{**fields, name: _other(value)}) != obj, name


@pytest.mark.parametrize("cls, fields, text", CASES, ids=ids)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, text):
    obj = cls(**fields)
    values = tuple(fields.values())
    if cls is FamilySpec:
        # params is a dict.
        with pytest.raises(TypeError):
            hash(obj)
        with pytest.raises(TypeError):
            hash(values)
        return
    assert hash(obj) == hash(values)
    assert hash(obj) == hash(cls(*values))
    assert len({obj, cls(**fields)}) == 1


@pytest.mark.parametrize("cls, fields, text", CASES, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text):
    obj = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, _other(value))
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert obj == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=ids)
def test_copy_deepcopy_and_pickle(cls, fields, text):
    obj = cls(**fields)
    for twin in (copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls
        assert twin == obj
        assert repr(twin) == text
    if cls not in PICKLABLE:
        return
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(obj, protocol))
        assert type(twin) is cls
        assert twin == obj
        assert repr(twin) == text


def test_defaults():
    assert Motion() == Motion(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert repr(Motion(1.0, shear_y=2.0)) == (
        "Motion(angle=1.0, tx=0.0, ty=0.0, tz=0.0, shear_x=0.0, shear_y=2.0)"
    )
    assert AffineFactorable(TYPE1, square, cube, 0.0, BOX).label == ""
    report = VerificationReport("s", None, 2, "H", None, 0.0, 0.0, 1e-9, True)
    assert (report.excluded_points, report.notes) == ((), "")
    spec = FamilySpec("FS1.flat.test", "z = x*y", {}, factors)
    assert spec.domain({}) == Rect((0.0, 1.0), (0.0, 1.0))
    assert (spec.constraints, spec.as_printed, spec.has_derived_constant, spec.notes) == (
        (), False, True, ""
    )
    assert spec == FamilySpec("FS1.flat.test", "z = x*y", {}, factors=factors)


def test_validation_text():
    with pytest.raises(ValueError) as err:
        SurfaceChart("sideways", height, BOX)
    assert str(err.value) == "unknown chart orientation 'sideways'"
    with pytest.raises(ValueError) as err:
        AffineFactorable("type-3", square, cube, 0.0, BOX)
    assert str(err.value) == "unknown surface kind 'type-3'"


def test_positional_match():
    match Rect((0.0, 1.0), (0.5, 1.5)):
        case Rect(u, v):
            assert (u, v) == ((0.0, 1.0), (0.5, 1.5))
        case _:
            pytest.fail("Rect did not match positionally")


def test_replace_makes_a_validated_copy():
    surface = AffineFactorable(TYPE2, square, cube, 0.5, BOX, "sample")
    moved = surface.replace(shear=-1.0, label="moved")
    assert moved == AffineFactorable(TYPE2, square, cube, -1.0, BOX, "moved")
    assert surface.shear == 0.5
    assert Motion().replace() == Motion()
    with pytest.raises(ValueError, match="unknown surface kind 'type-3'"):
        surface.replace(kind="type-3")
    with pytest.raises(TypeError):
        surface.replace(height=height)


def test_import_loads_no_code_generators():
    # -S: site can import further modules through .pth files.
    src = str(Path(catalog.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import isocurv.cli; "
        "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, f"stderr: {proc.stderr}"
    assert proc.stdout == "[]\n"


def test_every_annotation_resolves():
    # The annotations are strings that load nothing at import; the names
    # they use must still resolve, for type checkers and for readers.
    checked = 0
    for name in ("jets", "geometry", "factorable", "catalog", "verify", "cli", "rng"):
        mod = importlib.import_module(f"isocurv.{name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                functions = [obj]
            elif inspect.isclass(obj):
                functions = [f for f in vars(obj).values() if inspect.isfunction(f)]
            else:
                continue
            for fn in functions:
                typing.get_type_hints(fn)
                checked += 1
    assert checked > 100, f"only {checked} functions checked"
