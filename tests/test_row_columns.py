"""Grid walks move each sampled row into the value columns at once.

``sample_grid`` keeps K, H and the heights in ``array('d')`` columns.
Its walks put a grid row's values in lists first, and move each list
into its column as the bytes of its packed native doubles, which costs
less than a ``fromlist`` or an ``append`` per point.  These tests run
every walk with an array whose ``append`` raises, so a walk that appends
point by point fails, and require each run to equal the run with the
plain array, bit for bit.  They also require every column to hold the
bits that the per-point route gives at the run's points, on grids whose
rows have many lengths, an empty row included.
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


#: Grids whose rows are cut short by exclusions, empty rows included.
CUT_GRIDS = {
    # 1,645 of 1,681 points are excluded: rows of 0 or 6 points.
    "FS1.flat.pow c2=3 41": lambda: (
        build_family("FS1.flat.pow", c2=3.0), Rect((-3.0, 0.52), (-3.0, 0.52)), 41),
    # Every row beyond x = 0 overflows and is empty.
    "AFS1.min.osc x:0..1e308": lambda: (
        build_family("AFS1.min.osc"), Rect((0.0, 1e308), (0.0, 1.0)), 21),
    # The sheared sqrt's branch cuts each row at its own place: 33 lengths from 0 to 40.
    "AFS2.cmc.sqrt y:-1..1,z:-1..1 41": lambda: (
        build_family("AFS2.cmc.sqrt"), Rect((-1.0, 1.0), (-1.0, 1.0)), 41),
}


#: Every surface above on its default 9 x 9 grid, and the cut grids.
GRIDS = {name: lambda make=make: (make(), None, 9) for name, make in SURFACES.items()} | CUT_GRIDS


@pytest.mark.parametrize("name", GRIDS)
def test_packed_rows_carry_the_bits_of_the_per_point_route(name):
    surface, domain, n = GRIDS[name]()
    run = sample_grid(surface, domain, n)
    pairs = [surface.curvatures(p) for p in run.points]
    assert run.K.tobytes() == array.array("d", [q.K for q in pairs]).tobytes()
    assert run.H.tobytes() == array.array("d", [q.H for q in pairs]).tobytes()
    if run.heights is None:
        assert isinstance(surface, ParametricSurface)
    else:
        assert run.heights.tobytes() == array.array("d", [q.w for q in pairs]).tobytes()
    if name in CUT_GRIDS:
        us, vs = run.domain.coordinates(n)
        lengths = {sum(p[0] == u for p in run.points) for u in us}
        assert 0 in lengths and len(lengths) > 1, lengths
