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
"""

from __future__ import annotations

import math
from collections.abc import Callable

from . import jets
from .jets import Jet2, Value

__all__ = [
    "ADMISSIBILITY_EPS",
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
]

#: Admissibility floor: |w_z| (or the planar Jacobian) below this is an error.
ADMISSIBILITY_EPS = 1e-8

Z_OVER_XY = "z-over-xy"
X_OVER_YZ = "x-over-yz"


class AdmissibilityError(ValueError):
    """The tangent plane is (numerically) isotropic at the requested point."""


class CurvaturePair(Value):
    """Isotropic curvature K and isotropic mean curvature H at one point.

    ``w`` is the graph height at the point, which a graph route has in
    hand once it has K and H (None from the parametric route, which has
    no graph height).  It takes no part in equality or hashing: two
    routes agree when their curvatures do.  The repr shows all three.

    A :class:`~isocurv.jets.Value` rather than a :class:`Record`, as
    :class:`~isocurv.jets.Jet2` is: every route builds one per point,
    and a record's construction costs more.  Pairs are immutable by
    convention; no code assigns a field after construction.
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
        would leave the rectangle (the step times 0 is NaN).
        """
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
    ``"x-over-yz"`` (height x over (y, z)).
    """

    def __init__(self, orientation: str, height: Field, domain: Rect) -> None:
        if orientation not in (Z_OVER_XY, X_OVER_YZ):
            raise ValueError(f"unknown chart orientation {orientation!r}")
        self._set(locals())

    __slots__ = __match_args__ = fields(__init__)

    def axes(self) -> tuple[str, str]:
        return ("x", "y") if self.orientation == Z_OVER_XY else ("y", "z")

    @property
    def route(self) -> Callable[..., CurvaturePair]:
        """This orientation's route: :func:`monge_z_curvatures` or :func:`monge_x_curvatures`."""
        return monge_z_curvatures if self.orientation == Z_OVER_XY else monge_x_curvatures

    def curvatures(self, p: tuple[float, float]) -> CurvaturePair:
        return self.route(self.height, p)

    def point3d(self, p: tuple[float, float], w: float) -> tuple[float, float, float]:
        """The ambient (x, y, z) point at height w over chart coordinates p.

        ``w`` is the height at p as a curvature route returns it
        (``CurvaturePair.w``); nothing is evaluated here.  This is the
        one place that puts chart coordinates and height in (x, y, z)
        order, and it only permutes its arguments, so it takes any
        values in their places: :func:`as_parametric` passes fields,
        ``isocurv grid`` a row's coordinate text, column texts and heights.
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


def monge_z_curvatures(height: Field, p: tuple[float, float]) -> CurvaturePair:
    """Curvatures of z = w(x, y) at p = (x, y), with the height w(p)."""
    j = jets.eval_field(height, p[0], p[1])
    K = j.dxx * j.dyy - j.dxy * j.dxy
    H = 0.5 * (j.dxx + j.dyy)
    return CurvaturePair(K, H, j.v)


def monge_x_curvatures(height: Field, p: tuple[float, float]) -> CurvaturePair:
    """Curvatures of x = w(y, z) at p = (y, z), with w(p).

    Requires |w_z| >= ADMISSIBILITY_EPS.
    """
    j = jets.eval_field(height, p[0], p[1])
    wy, wz = j.dx, j.dy
    if abs(wz) < ADMISSIBILITY_EPS:
        raise AdmissibilityError(
            f"isotropic tangent plane: |w_z| = {abs(wz):.3g} < {ADMISSIBILITY_EPS:g} at {p!r}"
        )
    wyy, wyz, wzz = j.dxx, j.dxy, j.dyy
    wz2 = wz * wz
    K = (wyy * wzz - wyz * wyz) / (wz2 * wz2)
    H = (wz2 * wyy - 2.0 * wy * wz * wyz + (1.0 + wy * wy) * wzz) / (2.0 * wz2 * wz)
    return CurvaturePair(K, H, j.v)


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
    return CurvaturePair(K, H)


def as_parametric(chart: SurfaceChart) -> ParametricSurface:
    """The obvious parametrization of a graph surface by its chart plane, in point3d's order."""
    u, v = (lambda u, v: u), (lambda u, v: v)
    return ParametricSurface(*chart.point3d((u, v), chart.height), domain=chart.domain)
