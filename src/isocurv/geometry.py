"""Surfaces and curvature in the simply isotropic 3-space.

The ambient space is R^3 with the degenerate metric ds^2 = dx^2 + dy^2:
distances ignore the z-direction, and the z-axis direction (0, 0, 1)
plays the role of the unit normal for every admissible surface.  The
motion group consists of rotations/translations of the (x, y) plane
combined with shears that tilt z by a linear function of (x, y); see
:class:`Motion`.

A surface is admissible when its tangent planes are nowhere isotropic,
which for a parametric patch means the projection to the (x, y) plane is
an immersion: x_u * y_v - x_v * y_u != 0.  Graphs z = w(x, y) are always
admissible; graphs x = w(y, z) need w_z != 0.

Curvature conventions (isotropic curvature K and isotropic mean
curvature H):

* graph z = w(x, y):    K = w_xx*w_yy - w_xy^2,  H = (w_xx + w_yy)/2
* graph x = w(y, z):    K = (w_yy*w_zz - w_yz^2) / w_z^4
                        H = (w_z^2*w_yy - 2*w_y*w_z*w_yz + (1 + w_y^2)*w_zz)
                            / (2*w_z^3)
* parametric patch:     K = det h / det g,
                        H = (g11*h22 - 2*g12*h12 + g22*h11) / (2*det g)
  with g the first fundamental form of the planar projection and
  h_ij = det(r_ij, r_u, r_v) / sqrt(det g).

The x = w(y, z) mean curvature keeps the signed w_z^3 denominator
exactly as written above; no orientation normalization is applied, so
for w_z < 0 it differs in sign from the parametric formula (whose
sqrt(det g) is positive).

Each graph formula is written once, in a chart's line kernel,
:func:`monge_z_curvatures` or :func:`monge_x_curvatures`, which takes a
column of points as the afs kernels of ``isocurv.factorable`` do.  It
evaluates the height once, on a Jet2 column over all the points, and
again point by point where the column raises, so a chart's height must
be pure.  :func:`sample_rows` runs it per grid row, and
:func:`_pairs` turns its lists into one entry per point.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence

from . import jets
from .jets import BranchDomainError, Jet2, Value, _new

__all__ = [
    "ADMISSIBILITY_EPS",
    "NON_FINITE",
    "AdmissibilityError",
    "CurvaturePair",
    "Record",
    "fields",
    "Rect",
    "Motion",
    "SurfaceChart",
    "ParametricSurface",
    "Z_OVER_XY",
    "X_OVER_YZ",
    "apply_motion",
    "as_parametric",
    "monge_z_curvatures",
    "monge_x_curvatures",
    "parametric_curvatures",
    "sample_rows",
]

#: Admissibility floor: |w_z| (or the planar Jacobian) below this is an error.
ADMISSIBILITY_EPS = 1e-8

Z_OVER_XY = "z-over-xy"
X_OVER_YZ = "x-over-yz"

#: The exclusion text of a point whose K or H is not finite.
NON_FINITE = "non-finite curvature value"
#: The columns a line kernel fills, each a list that starts empty: the
#: included points' K, H and heights, and each excluded point's index and
#: text.  :func:`_move_row` moves a grid row's lists into a run's
#: columns, in the layout of ``isocurv.verify.GridRun``, and :func:`_pairs`
#: a route's into one entry per point.
Columns = "tuple[list[float], list[float], list[float], list]"


class AdmissibilityError(ValueError):
    """The tangent plane is (numerically) isotropic at the requested point."""


#: The errors that evaluating a surface at a point may raise: a grid walk
#: excludes the point, and a family build refuses its parameters.
_EVAL_ERRORS = (AdmissibilityError, BranchDomainError, ZeroDivisionError, OverflowError)


class CurvaturePair(Value):
    """Isotropic curvature K and isotropic mean curvature H at one point.

    ``w`` is the graph height at the point, which a graph route has in
    hand once it has K and H (None from the parametric route, which has
    no graph height).  It takes no part in equality or hashing: two
    routes agree when their curvatures do.  The repr shows all three.

    A :class:`~isocurv.jets.Value` rather than a :class:`Record`, as
    :class:`~isocurv.jets.Jet2` is: every route builds one per point,
    in place as jets are, and enters no ``__init__``; that is there for
    callers, with equal pairs.  Pairs are immutable by convention.
    """

    __slots__ = ("K", "H", "w")
    __match_args__ = __slots__

    def __init__(self, K: float, H: float, w: float | None = None) -> None:
        self.K = K
        self.H = H
        self.w = w

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.K, self.H) == (other.K, other.H)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.K, self.H))


def fields(init: Callable) -> tuple[str, ...]:
    """The parameter names of a record's ``__init__`` after ``self``: its fields."""
    code = init.__code__
    return code.co_varnames[1 : code.co_argcount]


class Record(Value):
    """Base of the package's immutable value classes.

    A subclass names its fields once, as the parameters of its
    ``__init__``, whose body validates them where needed and then calls
    ``self._set(locals())``.  Below it, ``__slots__ = __match_args__ =
    fields(__init__)`` turns those parameter names into the slots, in
    order.  Repr, equality and hashing come from the fields through
    :class:`~isocurv.jets.Value`.  Assigning or deleting an attribute
    raises :class:`AttributeError`; :meth:`replace` makes a changed copy.

    This is the behaviour of a frozen dataclass, written out once:
    a dataclass compiles its methods anew at every import.
    """

    __slots__ = ()

    def _set(self, values: dict) -> None:
        """Store each field from ``values``, the constructor's ``locals()``."""
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def replace(self, **changes):
        """A copy with the given fields changed; ``__init__`` validates it."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return self.__class__(**values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copying and pickling rebuild through __init__: the default
        # protocol would restore the slots by assignment, which raises.
        return (self.__class__, self._values())


class Rect(Record):
    """Closed axis-aligned rectangle of chart/parameter values.

    ``u`` is the first coordinate interval, ``v`` the second; for a
    z = w(x, y) chart these are the x- and y-ranges, for an x = w(y, z)
    chart the y- and z-ranges.
    """

    def __init__(self, u: tuple[float, float], v: tuple[float, float]) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u[0] + self.u[1]), 0.5 * (self.v[0] + self.v[1]))

    def coordinates(self, n: int) -> tuple[list[float], list[float]]:
        """The n equispaced values of each coordinate: the u and v columns of :meth:`grid`.

        A bound or a step that is not finite is a ValueError: a range
        wider than the largest float has an infinite step, and its grid
        would leave the rectangle (the step times 0 is NaN).  An ``n``
        that is not an ``int``, a bool included, is a ValueError too.
        """
        if type(n) is not int:
            raise ValueError(f"grid needs an integer n, got {n!r}")
        if n < 2:
            raise ValueError("grid needs n >= 2")
        columns = []
        for lo, hi in (self.u, self.v):
            d = (hi - lo) / (n - 1)
            if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(d)):
                raise ValueError(f"grid over {lo!r}..{hi!r} has a non-finite step: {d!r}")
            columns.append([lo + i * d for i in range(n)])
        return columns[0], columns[1]

    def grid(self, n: int) -> list[tuple[float, float]]:
        """n x n equispaced points, row-major (first coordinate slowest)."""
        us, vs = self.coordinates(n)
        return [(u, v) for u in us for v in vs]

    def contains(self, p: tuple[float, float], margin: float = 0.0) -> bool:
        return (
            self.u[0] + margin <= p[0] <= self.u[1] - margin
            and self.v[0] + margin <= p[1] <= self.v[1] - margin
        )

    def shrunk(self, fraction: float = 0.1) -> "Rect":
        """The concentric rectangle with each side shortened by 2*fraction."""
        su = fraction * (self.u[1] - self.u[0])
        sv = fraction * (self.v[1] - self.v[0])
        return Rect((self.u[0] + su, self.u[1] - su), (self.v[0] + sv, self.v[1] - sv))

    def as_json(self) -> list[list[float]]:
        return [[self.u[0], self.u[1]], [self.v[0], self.v[1]]]


class Motion(Record):
    """An isotropic motion.

    (x, y) undergoes a Euclidean rotation by ``angle`` plus translation
    (tx, ty); the height transforms by z -> tz + shear_x*x + shear_y*y + z.
    These maps preserve the isotropic metric and both curvatures.
    """

    def __init__(
        self,
        angle: float = 0.0,
        tx: float = 0.0,
        ty: float = 0.0,
        tz: float = 0.0,
        shear_x: float = 0.0,
        shear_y: float = 0.0,
    ) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)

    def describe(self) -> str:
        return (
            f"angle={self.angle:.6g} t=({self.tx:.6g},{self.ty:.6g},{self.tz:.6g}) "
            f"shear=({self.shear_x:.6g},{self.shear_y:.6g})"
        )


def apply_motion(m: Motion, p: tuple) -> tuple:
    """Apply an isotropic motion to a point (x, y, z).

    ``p`` may hold floats or jets: the motion is affine, so applied to a
    patch's coordinate jets (:meth:`ParametricSurface.jets`) it gives
    the exact jets of the moved patch.
    """
    x, y, z = p
    ct, st = math.cos(m.angle), math.sin(m.angle)
    return (
        m.tx + x * ct - y * st,
        m.ty + x * st + y * ct,
        m.tz + m.shear_x * x + m.shear_y * y + z,
    )


#: A function of two jets returning a jet.  Written as a string, as
#: annotations are; ``typing.get_type_hints`` resolves it against the
#: ``collections.abc`` Callable, so no module needs ``typing`` at run time.
Field = "Callable[[Jet2, Jet2], Jet2]"


class SurfaceChart(Record):
    """A graph surface: height field over two coordinates.

    ``orientation`` is ``"z-over-xy"`` (height z over (x, y)) or
    ``"x-over-yz"`` (height x over (y, z)).  The height must be pure, the
    same float in, the same jet or the same exception out: its kernel
    may call it on a column of points and then at each point again.
    """

    def __init__(self, orientation: str, height: Field, domain: Rect) -> None:
        if orientation not in (Z_OVER_XY, X_OVER_YZ):
            raise ValueError(f"unknown chart orientation {orientation!r}")
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)

    def axes(self) -> tuple[str, str]:
        return ("x", "y") if self.orientation == Z_OVER_XY else ("y", "z")

    @property
    def route(self) -> Callable[..., None]:
        """This orientation's kernel: :func:`monge_z_curvatures` or :func:`monge_x_curvatures`."""
        return monge_z_curvatures if self.orientation == Z_OVER_XY else monge_x_curvatures

    def curvatures(self, p: tuple[float, float]) -> CurvaturePair:
        """The route at the one point p: its pair, or :class:`AdmissibilityError` with its text."""
        return _only_pair(_pairs(self.route, self.height, (p,)))

    def point3d(self, p: tuple[float, float], w: float) -> tuple[float, float, float]:
        """The ambient (x, y, z) point at height w over chart coordinates p.

        ``w`` is the height at p as a curvature route returns it
        (``CurvaturePair.w``); nothing is evaluated here.  This is the
        order, and it only permutes its arguments, so it takes any
        values in their places: :func:`as_parametric` passes fields, and
        ``isocurv grid`` a grid row's (line format, column) pairs.
        """
        if self.orientation == Z_OVER_XY:
            return (p[0], p[1], w)
        return (w, p[0], p[1])


class ParametricSurface(Record):
    """An admissible parametric patch r(u, v) = (x, y, z)(u, v)."""

    def __init__(self, x: Field, y: Field, z: Field, domain: Rect) -> None:
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)

    def jets(self, p: tuple[float, float]) -> tuple[Jet2, Jet2, Jet2]:
        """The coordinate jets (x, y, z) of the patch at parameters p = (u, v)."""
        u, v = p
        return (
            jets.eval_field(self.x, u, v),
            jets.eval_field(self.y, u, v),
            jets.eval_field(self.z, u, v),
        )

    def curvatures(self, p: tuple[float, float]) -> CurvaturePair:
        return parametric_curvatures(self.jets(p), p)


def monge_z_curvatures(
    height: Field, us: Sequence[float], vs: Sequence[float], columns: Columns
) -> None:
    """The z = w(x, y) formulas at the points (x, y) = (us[i], vs[i]), into ``columns``.

    A chart's line kernel, as ``afs1_line`` is a product's: the height is
    evaluated once for all the points (:func:`_height_slots`), and each
    point is included, with K, H and w appended to the lists in
    ``columns``, or excluded as ``(i, text)``: its height's error text,
    or :data:`NON_FINITE`.
    """
    ks, hs, heights, _ = columns
    isfinite = math.isfinite
    for j in _height_slots(height, us, vs):
        if j.__class__ is str:
            _exclude(columns, j)
            continue
        w, _, _, wxx, wxy, wyy = j
        K = wxx * wyy - wxy * wxy
        H = 0.5 * (wxx + wyy)
        if isfinite(K) and isfinite(H):
            ks.append(K)
            hs.append(H)
            heights.append(w)
        else:
            _exclude(columns, NON_FINITE)


def monge_x_curvatures(
    height: Field, us: Sequence[float], vs: Sequence[float], columns: Columns
) -> None:
    """The x = w(y, z) formulas at the points (y, z) = (us[i], vs[i]), into ``columns``.

    As :func:`monge_z_curvatures`; a point where |w_z| < ADMISSIBILITY_EPS
    is excluded with the admissibility text, which names the point.
    """
    ks, hs, heights, _ = columns
    isfinite = math.isfinite
    for j in _height_slots(height, us, vs):
        if j.__class__ is str:
            _exclude(columns, j)
            continue
        w, wy, wz, wyy, wyz, wzz = j
        if abs(wz) < ADMISSIBILITY_EPS:
            i = len(ks) + len(columns[3])  # the point at hand, as _exclude counts
            _exclude(
                columns,
                f"isotropic tangent plane: |w_z| = {abs(wz):.3g} < {ADMISSIBILITY_EPS:g} "
                f"at {(us[i], vs[i])!r}",
            )
            continue
        wz2 = wz * wz
        K = (wyy * wzz - wyz * wyz) / (wz2 * wz2)
        H = (wz2 * wyy - 2.0 * wy * wz * wyz + (1.0 + wy * wy) * wzz) / (2.0 * wz2 * wz)
        if isfinite(K) and isfinite(H):
            ks.append(K)
            hs.append(H)
            heights.append(w)
        else:
            _exclude(columns, NON_FINITE)


def _height_slots(height: Field, us: Sequence[float], vs: Sequence[float]) -> Iterable:
    """The height's six slots (w, w_1, w_2, w_11, w_12, w_22) at each point, or its error's text.

    One Jet2 column over all the points (:func:`isocurv.jets.eval_field_column`)
    gives each point the bits of its own :func:`isocurv.jets.eval_field`.
    Where the column raises (a height that divides, reads a value or takes
    tan, say, or raises at some point), each point is evaluated alone, so
    the height is called twice and must be pure.
    """
    try:
        c = jets.eval_field_column(height, us, vs)
    except Exception:
        # Not lost: the point-by-point run raises whatever is not an exclusion.
        pass
    else:
        return zip(c.vs, c.dxs, c.dys, c.dxxs, c.dxys, c.dyys)
    slots = []
    for u, v in zip(us, vs):
        try:
            j = jets.eval_field(height, u, v)
            slots.append((j.v, j.dx, j.dy, j.dxx, j.dxy, j.dyy))
        except _EVAL_ERRORS as err:
            slots.append(str(err))
    return slots


def _exclude(columns: Columns, text: str) -> None:
    """Exclude a kernel's point at hand as ``(i, text)``, i its index in the kernel's call.

    A kernel's ``columns`` start empty and each point goes to one of
    them, so the points recorded so far count to the point at hand.
    """
    ks, _, _, excluded = columns
    excluded.append((len(ks) + len(excluded), text))


def _pairs(line, head, points: Sequence[tuple[float, float]], *tail) -> list[CurvaturePair | str]:
    """A line kernel's columns at ``points``, one entry per point in order.

    The kernel runs once, as ``line(head, us, vs, *tail, columns)``; the
    head is a chart's height or an afs kernel's shear.  An included point
    gets its :class:`CurvaturePair`, an excluded one its text, except a
    non-finite K or H: that gives a NaN pair, which a check refuses.
    """
    columns = ks, hs, heights, excluded = [], [], [], []
    line(head, [p[0] for p in points], [p[1] for p in points], *tail, columns)
    texts = dict(excluded)
    included = zip(ks, hs, heights)
    entries = []
    for i in range(len(points)):
        text = texts.get(i)
        if text is None:
            entry = _new(CurvaturePair)
            entry.K, entry.H, entry.w = next(included)
        elif text == NON_FINITE:
            entry = CurvaturePair(math.nan, math.nan, math.nan)
        else:
            entry = text
        entries.append(entry)
    return entries


def _only_pair(entries: list) -> CurvaturePair:
    """The entry of a one-point column: its pair, or :class:`AdmissibilityError` with its text."""
    (pair,) = entries
    if pair.__class__ is str:
        raise AdmissibilityError(pair)
    return pair


def sample_rows(line, height, us: Sequence[float], vs: Sequence[float], columns: tuple) -> None:
    """A chart's grid: ``line(height, [u] * n, vs, row)`` per grid row u, moved into ``columns``."""
    for u in us:
        row = [], [], [], []
        line(height, [u] * len(vs), vs, row)
        _move_row(columns, row, u, vs)


#: ``struct.Struct(f"{m}d").pack`` for each row length m that :func:`_move_row` has met.
_PACKERS: dict = {}


def _move_row(columns: tuple, row: tuple, u: float, vs: Sequence[float]) -> None:
    """Move grid row u's lists into a run's columns, the one transfer of every grid walk.

    A value list goes in as its packed native doubles, every bit kept, for
    less than a ``fromlist``, which converts point by point; an exclusion's
    index i becomes its point (u, vs[i]).  A patch's heights column is None.
    """
    ks, hs, heights, excluded = columns
    row_k, row_h, row_w, row_x = row
    pack = _PACKERS.get(len(row_k))
    if pack is None:
        import struct  # 0.8 ms to load without site, so it loads with the first row

        pack = _PACKERS[len(row_k)] = struct.Struct(f"{len(row_k)}d").pack
    ks.frombytes(pack(*row_k))
    hs.frombytes(pack(*row_h))
    if heights is not None:
        heights.frombytes(pack(*row_w))
    if row_x:
        excluded += [((u, vs[i]), text) for i, text in row_x]


def _det3(r0, r1, r2) -> float:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def parametric_curvatures(r: tuple[Jet2, Jet2, Jet2], p: tuple[float, float]) -> CurvaturePair:
    """Curvatures of a patch from its coordinate jets r = (x, y, z) at p.

    ``r`` is what :meth:`ParametricSurface.jets` returns at parameters
    p = (u, v), or its image under :func:`apply_motion`; ``p`` only
    names the point in the error text.  The first fundamental form comes
    from the planar (x, y) projection only; the second form divides the
    mixed determinants det(r_ij, r_u, r_v) by sqrt(det g).  Requires
    |x_u*y_v - x_v*y_u| >= ADMISSIBILITY_EPS.
    """
    jx, jy, jz = r

    jac = jx.dx * jy.dy - jx.dy * jy.dx
    if abs(jac) < ADMISSIBILITY_EPS:
        raise AdmissibilityError(
            f"planar projection degenerates: |x_u*y_v - x_v*y_u| = "
            f"{abs(jac):.3g} < {ADMISSIBILITY_EPS:g} at {p!r}"
        )

    g11 = jx.dx * jx.dx + jy.dx * jy.dx
    g12 = jx.dx * jx.dy + jy.dx * jy.dy
    g22 = jx.dy * jx.dy + jy.dy * jy.dy
    det_g = g11 * g22 - g12 * g12
    sq = math.sqrt(det_g)

    ru = (jx.dx, jy.dx, jz.dx)
    rv = (jx.dy, jy.dy, jz.dy)
    h11 = _det3((jx.dxx, jy.dxx, jz.dxx), ru, rv) / sq
    h12 = _det3((jx.dxy, jy.dxy, jz.dxy), ru, rv) / sq
    h22 = _det3((jx.dyy, jy.dyy, jz.dyy), ru, rv) / sq

    K = (h11 * h22 - h12 * h12) / det_g
    H = (g11 * h22 - 2.0 * g12 * h12 + g22 * h11) / (2.0 * det_g)
    pair = _new(CurvaturePair)
    pair.K = K
    pair.H = H
    pair.w = None
    return pair


def as_parametric(chart: SurfaceChart) -> ParametricSurface:
    """The obvious parametrization of a graph surface by its chart plane, in point3d's order."""
    u, v = (lambda u, v: u), (lambda u, v: v)
    return ParametricSurface(*chart.point3d((u, v), chart.height), domain=chart.domain)
