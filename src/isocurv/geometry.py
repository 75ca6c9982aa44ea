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

from . import jets
from .jets import Jet2

__all__ = [
    "ADMISSIBILITY_EPS",
    "AdmissibilityError",
    "CurvaturePair",
    "Record",
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


class CurvaturePair:
    """Isotropic curvature K and isotropic mean curvature H at one point.

    ``w`` is the graph height at the point, which a graph route has in
    hand once it has K and H (None from the parametric route, which has
    no graph height).  It takes no part in equality: two routes agree
    when their curvatures do.

    A plain ``__slots__`` class rather than a :class:`Record`, as
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

    def __repr__(self) -> str:
        return f"CurvaturePair(K={self.K!r}, H={self.H!r}, w={self.w!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.K, self.H) == (other.K, other.H)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.K, self.H))


class Record:
    """Base of the package's immutable value classes.

    A subclass lists its fields once, as ``__slots__ = __match_args__ =
    (...)``, and its ``__init__`` passes their values, in that order, to
    ``Record.__init__``.  Records compare equal to records of the same
    class whose fields compare equal, hash as the tuple of their fields
    and print as ``Name(field=value!r, ...)``, leaving out the fields
    named in ``_hidden``.  Assigning or deleting an attribute raises
    :class:`AttributeError`; :meth:`replace` makes a changed copy.

    This is the behaviour of a frozen dataclass, written out once:
    a dataclass compiles its methods anew at every import.
    """

    __slots__ = ()
    #: Fields that the repr leaves out.
    _hidden: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def replace(self, **changes):
        """A copy with the given fields changed; ``__init__`` validates it."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return self.__class__(**fields)

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

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

    __slots__ = __match_args__ = ("u", "v")

    def __init__(self, u: tuple[float, float], v: tuple[float, float]) -> None:
        super().__init__(u, v)

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u[0] + self.u[1]), 0.5 * (self.v[0] + self.v[1]))

    def coordinates(self, n: int) -> tuple[list[float], list[float]]:
        """The n equispaced values of each coordinate: the u and v columns of :meth:`grid`."""
        if n < 2:
            raise ValueError("grid needs n >= 2")
        (u0, u1), (v0, v1) = self.u, self.v
        du = (u1 - u0) / (n - 1)
        dv = (v1 - v0) / (n - 1)
        return [u0 + i * du for i in range(n)], [v0 + j * dv for j in range(n)]

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

    __slots__ = __match_args__ = ("angle", "tx", "ty", "tz", "shear_x", "shear_y")

    def __init__(
        self,
        angle: float = 0.0,
        tx: float = 0.0,
        ty: float = 0.0,
        tz: float = 0.0,
        shear_x: float = 0.0,
        shear_y: float = 0.0,
    ) -> None:
        super().__init__(angle, tx, ty, tz, shear_x, shear_y)

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
#: annotations are, so that no module needs ``typing`` at run time.
Field = "Callable[[Jet2, Jet2], Jet2]"


class SurfaceChart(Record):
    """A graph surface: height field over two coordinates.

    ``orientation`` is ``"z-over-xy"`` (height z over (x, y)) or
    ``"x-over-yz"`` (height x over (y, z)).
    """

    __slots__ = __match_args__ = ("orientation", "height", "domain")

    def __init__(self, orientation: str, height: Field, domain: Rect) -> None:
        if orientation not in (Z_OVER_XY, X_OVER_YZ):
            raise ValueError(f"unknown chart orientation {orientation!r}")
        super().__init__(orientation, height, domain)

    def axes(self) -> tuple[str, str]:
        return ("x", "y") if self.orientation == Z_OVER_XY else ("y", "z")

    def curvatures(self, p: tuple[float, float]) -> CurvaturePair:
        if self.orientation == Z_OVER_XY:
            return monge_z_curvatures(self.height, p)
        return monge_x_curvatures(self.height, p)

    def point3d(self, p: tuple[float, float], w: float) -> tuple[float, float, float]:
        """The ambient (x, y, z) point at height w over chart coordinates p.

        ``w`` is the height at p as a curvature route returns it
        (``CurvaturePair.w``); nothing is evaluated here.
        """
        if self.orientation == Z_OVER_XY:
            return (p[0], p[1], w)
        return (w, p[0], p[1])


class ParametricSurface(Record):
    """An admissible parametric patch r(u, v) = (x, y, z)(u, v)."""

    __slots__ = __match_args__ = ("x", "y", "z", "domain")

    def __init__(self, x: Field, y: Field, z: Field, domain: Rect) -> None:
        super().__init__(x, y, z, domain)

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
    """The obvious parametrization of a graph surface by its chart plane."""
    if chart.orientation == Z_OVER_XY:
        return ParametricSurface(
            x=lambda u, v: u, y=lambda u, v: v, z=chart.height, domain=chart.domain
        )
    return ParametricSurface(
        x=chart.height, y=lambda u, v: u, z=lambda u, v: v, domain=chart.domain
    )
