"""The per-point chart routes as they stood before the chart's line kernels replaced them.

``isocurv.geometry`` states each graph formula once, in the chart's
line kernels ``monge_z_curvatures`` and ``monge_x_curvatures``, which
evaluate the height once over a column of points.  This module keeps
the earlier per-point routes verbatim, frozen, as the reference the
tests compare the kernels with bit for bit: an included point must
carry the same K, H and w, and an excluded one the same text.  Do not
change a formula here to follow a change in the package.

The reference differs from the package in what it gives for a point it
cannot evaluate: it raises the height's own error, or
``AdmissibilityError`` where |w_z| is below the floor, and it returns a
non-finite K or H as computed.
"""

from isocurv import jets
from isocurv.geometry import ADMISSIBILITY_EPS, AdmissibilityError, CurvaturePair


def monge_z_curvatures(height, p: tuple[float, float]) -> CurvaturePair:
    """Curvatures of z = w(x, y) at p = (x, y), with the height w(p)."""
    j = jets.eval_field(height, p[0], p[1])
    K = j.dxx * j.dyy - j.dxy * j.dxy
    H = 0.5 * (j.dxx + j.dyy)
    return CurvaturePair(K, H, j.v)


def monge_x_curvatures(height, p: tuple[float, float]) -> CurvaturePair:
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
