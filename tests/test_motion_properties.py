"""Exact metamorphic property: an isotropic motion with angle 0 moves no bit of K or H.

``Motion(angle=0.0, tx, ty, tz, shear_x, shear_y)`` maps (x, y, z) to
(x + tx, y + ty, z + tz + shear_x*x + shear_y*y).  On a type-1 product,
a graph z over (x, y), ``motion_invariance_check`` takes the patch
(x, y, z(x, y)) and its image through the parametric route.  x and y
have zero second derivatives and, at angle 0, the same first derivatives
after the move (x*1.0 - y*0.0 is x), so the first fundamental form is
the identity on both sides.  Each second derivative of the moved z is
z's own plus exact zeros, and the rounded value and first derivatives
of the moved z never enter K or H.  So the check must report a
deviation of exactly 0.0 for any translation and any shear, not only
for powers of two.

A type-2 product is a graph x over (y, z), and its height feeds the
moved z, so a shear rounds there (catalog rows reach 2.8e-14).  A
translation alone adds a constant to each coordinate's value and leaves
every derivative as it was, so it moves no bit on either kind.  Turns
through ``Motion.angle`` are not exact: ``math.cos(math.pi / 2)`` is
6.1e-17, not 0.
"""

import pytest

from isocurv.catalog import build_family, family_ids
from isocurv.factorable import TYPE1, TYPE2, AffineFactorable, random_instance
from isocurv.geometry import Motion
from isocurv.rng import SplitMix64
from isocurv.verify import motion_invariance_check

TYPE1_ROWS = [
    s for s in map(build_family, family_ids())
    if isinstance(s, AffineFactorable) and s.kind == TYPE1
]
N = 11


def _motion(rng: SplitMix64, shear: bool) -> Motion:
    """Angle 0, translations from [-3, 3] and, if ``shear``, shears from [-2, 2]."""
    tx, ty, tz = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    if not shear:
        return Motion(0.0, tx, ty, tz)
    return Motion(0.0, tx, ty, tz, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def _require_exact(surface, motion: Motion) -> None:
    report = motion_invariance_check(surface, motion, n=N)
    # Exclusions are points where the surface itself cannot be
    # evaluated; the relation must hold on nearly all of the grid.
    assert len(report.excluded_points) <= N * N // 10, report.excluded_points[:3]
    assert report.max_abs_deviation == 0.0, (surface.label, motion.describe())


def test_type1_rows_are_invariant_exactly():
    assert len(TYPE1_ROWS) == 16
    rng = SplitMix64(1701)
    for s in TYPE1_ROWS:
        _require_exact(s, _motion(rng, shear=True))


@pytest.mark.parametrize(
    "kind, shear, seed", [(TYPE1, True, 1702), (TYPE2, False, 1703)], ids=["type1", "type2"]
)
def test_random_instances_are_invariant_exactly(kind, shear, seed):
    rng = SplitMix64(seed)
    for _ in range(50):
        _require_exact(random_instance(rng, kind), _motion(rng, shear))
