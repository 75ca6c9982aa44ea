"""Property tests: the scalar fast paths of Jet2 are bit-exact.

A jet mixed with a plain float or int takes a path that builds no
constant jet.  Each such result must carry the same bits as the jet-jet
rule applied to ``Jet2(float(c))``.  NaN payloads and signed zeros
count, so results are compared as packed doubles, not with ``==``.
"""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isocurv.jets import Jet2

EDGE_FLOATS = (
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, -1.0,
)
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
scalars = st.one_of(floats, st.integers(-1000, 1000), st.integers(-(2**60), 2**60))
jets_ = st.builds(Jet2, floats, floats, floats, floats, floats, floats)


def bits(j: Jet2) -> bytes:
    return struct.pack("<6d", *j.components())


# Each scalar expression next to the jet-jet expression it stands for.
CASES = {
    "t + c": (lambda t, c: t + c, lambda t, k: t + k),
    "c + t": (lambda t, c: c + t, lambda t, k: t + k),
    "t - c": (lambda t, c: t - c, lambda t, k: t - k),
    "c - t": (lambda t, c: c - t, lambda t, k: k - t),
    "t * c": (lambda t, c: t * c, lambda t, k: t * k),
    "c * t": (lambda t, c: c * t, lambda t, k: t * k),
}


@pytest.mark.parametrize("case", sorted(CASES))
@given(t=jets_, c=scalars)
def test_scalar_fast_path_matches_the_jet_rule(case, t, c):
    fast, rule = CASES[case]
    got, want = fast(t, c), rule(t, Jet2(float(c)))
    assert bits(got) == bits(want), f"{case} with c={c!r}, t={t!r}: {got!r} != {want!r}"


@given(t=jets_, c=scalars)
def test_scalar_products_commute_bit_for_bit(t, c):
    assert bits(c * t) == bits(t * c)


@given(t=jets_)
def test_bool_operands_raise(t):
    # test_jets covers t * True, False + t and exp(True).
    for op in (
        lambda: True * t,
        lambda: t + True,
        lambda: t - True,
        lambda: False - t,
        lambda: t / True,
        lambda: True / t,
    ):
        with pytest.raises(TypeError):
            op()
