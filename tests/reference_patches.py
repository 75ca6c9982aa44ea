"""The per-point patch route as it stood before the patch's line kernel replaced it.

``isocurv.geometry`` states the patch formula once, in the line kernel
``parametric_curvatures``, which reads the patch's coordinate jets over
a column of points.  This module keeps the earlier per-point route
verbatim, frozen, as the reference the tests compare the kernel with
bit for bit: an included point must carry the same K and H, and an
excluded one the same text.  Do not change a formula here to follow a
change in the package.

The reference differs from the package in what it gives for a point it
cannot evaluate: it raises the coordinates' own error, or
``AdmissibilityError`` where the planar projection degenerates, and it
returns a non-finite K or H as computed.
"""

import math

from isocurv import jets
from isocurv.geometry import ADMISSIBILITY_EPS, AdmissibilityError, CurvaturePair


def patch_jets(patch, p: tuple[float, float]) -> tuple:
    """The coordinate jets (x, y, z) of the patch at parameters p = (u, v)."""
    u, v = p
    return (
        jets.eval_field(patch.x, u, v),
        jets.eval_field(patch.y, u, v),
        jets.eval_field(patch.z, u, v),
    )


def _det3(r0, r1, r2) -> float:
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def parametric_curvatures(r: tuple, p: tuple[float, float]) -> CurvaturePair:
    """Curvatures of a patch from its coordinate jets r = (x, y, z) at p.

    ``p`` only names the point in the error text.  Requires
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
