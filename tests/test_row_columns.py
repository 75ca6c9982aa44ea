"""Grid walks move each sampled row into the value columns at once.

``sample_grid`` keeps K, H and the heights in ``array('d')`` columns.
Its walks put a grid row's values in lists first, and move each list
into its column with one ``fromlist`` call, which costs less than an
``append`` per point.  These tests run every walk with an array whose
``append`` raises, so a walk that appends point by point fails, and
require each run to equal the run with the plain array, bit for bit.
"""

import array

import pytest

from isocurv.catalog import build_family
from isocurv.factorable import TYPE1, AffineFactorable, as_chart
from isocurv.geometry import ParametricSurface, Rect, as_parametric
from isocurv.verify import sample_grid


class _NoAppend(array.array):
    """An ``array`` that refuses a per-point ``append``."""

    def append(self, value):
        raise AssertionError(f"a grid walk appended {value!r} to a column")


def _pole() -> AffineFactorable:
    # f2 = 1/t with a = 0: the point y = 0 in the middle of every row of
    # an odd grid over -1..1 is excluded, and its row goes on after it.
    return AffineFactorable(
        TYPE1, lambda t: t * t + 1.0, lambda t: 1.0 / t, 0.0, Rect((-1.0, 1.0), (-1.0, 1.0))
    )


SURFACES = {
    "type-1 a=0 FS1.min.exp-trig": lambda: build_family("FS1.min.exp-trig"),
    "type-1 a=1 AFS1.min.osc": lambda: build_family("AFS1.min.osc"),
    "type-2 a=0 FS2.min.ratio": lambda: build_family("FS2.min.ratio"),
    "type-2 a=1 AFS2.cmc.sqrt": lambda: build_family("AFS2.cmc.sqrt"),
    "chart FS2.K.integral": lambda: build_family("FS2.K.integral"),
    "patch AFS1.min.osc": lambda: as_parametric(as_chart(build_family("AFS1.min.osc"))),
    "type-1 with a pole mid-row": _pole,
    "chart with a pole mid-row": lambda: as_chart(_pole()),
}


@pytest.mark.parametrize("name", SURFACES)
def test_grid_walks_move_whole_rows_into_the_columns(monkeypatch, name):
    surface = SURFACES[name]()
    n = 9
    plain = sample_grid(surface, n=n)
    monkeypatch.setattr(array, "array", _NoAppend)
    packed = sample_grid(surface, n=n)
    assert type(packed.K) is _NoAppend, "the patched array did not reach the columns"
    assert packed.excluded == plain.excluded
    for column in ("K", "H", "heights"):
        got, want = getattr(packed, column), getattr(plain, column)
        if want is None:
            assert got is None and isinstance(surface, ParametricSurface), column
        else:
            assert got.typecode == want.typecode == "d", column
            assert got.tobytes() == want.tobytes(), column
    if "pole" in name:
        us = surface.domain.coordinates(n)[0]
        assert [p for p, _ in plain.excluded] == [(u, 0.0) for u in us]
        assert len(plain.K) == n * (n - 1)
    else:
        assert not plain.excluded and len(plain.K) == n * n
