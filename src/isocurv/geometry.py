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
from dataclasses import dataclass
from typing import Callable

from . import jets
from .jets import Jet2

__all__ = [
    "ADMISSIBILITY_EPS",
    "AdmissibilityError",
    "CurvaturePair",
    "Rect",
    "Motion",
    "SurfaceChart",
    "ParametricSurface",
    "Z_OVER_XY",
    "X_OVER_YZ",
    "apply_motion",
    "moved_surface",
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

    A plain ``__slots__`` class rather than a frozen dataclass, as
    :class:`~isocurv.jets.Jet2` is: every route builds one per point.
    Pairs are immutable by convention; no code assigns a field after
    construction.
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


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle of chart/parameter values.

    ``u`` is the first coordinate interval, ``v`` the second; for a
    z = w(x, y) chart these are the x- and y-ranges, for an x = w(y, z)
    chart the y- and z-ranges.
    """

    u: tuple[float, float]
    v: tuple[float, float]

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u[0] + self.u[1]), 0.5 * (self.v[0] + self.v[1]))

    def grid(self, n: int) -> list[tuple[float, float]]:
        """n x n equispaced points, row-major (first coordinate slowest)."""
        if n < 2:
            raise ValueError("grid needs n >= 2")
        du = (self.u[1] - self.u[0]) / (n - 1)
        dv = (self.v[1] - self.v[0]) / (n - 1)
        return [
            (self.u[0] + i * du, self.v[0] + j * dv)
            for i in range(n)
            for j in range(n)
        ]

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


@dataclass(frozen=True)
class Motion:
    """An isotropic motion.

    (x, y) undergoes a Euclidean rotation by ``angle`` plus translation
    (tx, ty); the height transforms by z -> tz + shear_x*x + shear_y*y + z.
    These maps preserve the isotropic metric and both curvatures.
    """

    angle: float = 0.0
    tx: float = 0.0
    ty: float = 0.0
    tz: float = 0.0
    shear_x: float = 0.0
    shear_y: float = 0.0

    def apply(self, p: tuple[float, float, float]) -> tuple[float, float, float]:
        return apply_motion(self, p)

    def describe(self) -> str:
        return (
            f"angle={self.angle:.6g} t=({self.tx:.6g},{self.ty:.6g},{self.tz:.6g}) "
            f"shear=({self.shear_x:.6g},{self.shear_y:.6g})"
        )


def apply_motion(m: Motion, p: tuple[float, float, float]) -> tuple[float, float, float]:
    """Apply an isotropic motion to a point (x, y, z)."""
    x, y, z = p
    ct, st = math.cos(m.angle), math.sin(m.angle)
    return (
        m.tx + x * ct - y * st,
        m.ty + x * st + y * ct,
        m.tz + m.shear_x * x + m.shear_y * y + z,
    )


Field = Callable[[Jet2, Jet2], Jet2]


@dataclass(frozen=True)
class SurfaceChart:
    """A graph surface: height field over two coordinates.

    ``orientation`` is ``"z-over-xy"`` (height z over (x, y)) or
    ``"x-over-yz"`` (height x over (y, z)).
    """

    orientation: str
    height: Field
    domain: Rect

    def __post_init__(self):
        if self.orientation not in (Z_OVER_XY, X_OVER_YZ):
            raise ValueError(f"unknown chart orientation {self.orientation!r}")

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


@dataclass(frozen=True)
class ParametricSurface:
    """An admissible parametric patch r(u, v) = (x, y, z)(u, v)."""

    x: Field
    y: Field
    z: Field
    domain: Rect

    def curvatures(self, p: tuple[float, float]) -> CurvaturePair:
        return parametric_curvatures(self, p)


def monge_z_curvatures(height: Field, p: tuple[float, float]) -> CurvaturePair:
    """Curvatures of z = w(x, y) at p = (x, y), with the height w(p)."""
    j = jets.eval_field(height, p[0], p[1])
    K = j.dxx * j.dyy - j.dxy * j.dxy
    H = 0.5 * (j.dxx + j.dyy)
    return CurvaturePair(K, H, j.v)


def monge_x_curvatures(
    height: Field, p: tuple[float, float], eps: float = ADMISSIBILITY_EPS
) -> CurvaturePair:
    """Curvatures of x = w(y, z) at p = (y, z), with w(p); requires |w_z| >= eps."""
    j = jets.eval_field(height, p[0], p[1])
    wy, wz = j.dx, j.dy
    if abs(wz) < eps:
        raise AdmissibilityError(
            f"isotropic tangent plane: |w_z| = {abs(wz):.3g} < {eps:g} at {p!r}"
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


def parametric_curvatures(
    r: ParametricSurface, p: tuple[float, float], eps: float = ADMISSIBILITY_EPS
) -> CurvaturePair:
    """Curvatures of a parametric patch at parameters p = (u, v).

    The first fundamental form comes from the planar (x, y) projection
    only; the second form divides the mixed determinants det(r_ij, r_u,
    r_v) by sqrt(det g).
    """
    u, v = p
    jx = jets.eval_field(r.x, u, v)
    jy = jets.eval_field(r.y, u, v)
    jz = jets.eval_field(r.z, u, v)

    jac = jx.dx * jy.dy - jx.dy * jy.dx
    if abs(jac) < eps:
        raise AdmissibilityError(
            f"planar projection degenerates: |x_u*y_v - x_v*y_u| = "
            f"{abs(jac):.3g} < {eps:g} at {p!r}"
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


def moved_surface(m: Motion, r: ParametricSurface) -> ParametricSurface:
    """The image of a parametric patch under an isotropic motion.

    The motion is affine, so composing it coordinate-wise in jet
    arithmetic is exact.
    """
    ct, st = math.cos(m.angle), math.sin(m.angle)

    def x(u: Jet2, v: Jet2):
        return m.tx + ct * r.x(u, v) - st * r.y(u, v)

    def y(u: Jet2, v: Jet2):
        return m.ty + st * r.x(u, v) + ct * r.y(u, v)

    def z(u: Jet2, v: Jet2):
        return m.tz + m.shear_x * r.x(u, v) + m.shear_y * r.y(u, v) + r.z(u, v)

    return ParametricSurface(x, y, z, r.domain)
