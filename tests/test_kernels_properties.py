"""Property tests of the overlap core for squeezing up to r = 40.

The examples are derandomized (a fixed seed per test, no example
database), so every run draws the same 300 pairs of states.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from srsqueeze import kernels

_EPS = np.finfo(float).eps
_STATE = st.tuples(st.floats(0.0, 40.0), st.floats(-math.pi, math.pi),
                   st.complex_numbers(max_magnitude=5.0)).map(
    lambda t: (cmath.rect(t[0], t[1]), t[2]))
_SEEDED = settings(max_examples=300, deadline=None, derandomize=True,
                   database=None)


@_SEEDED
@given(a=_STATE, b=_STATE)
def test_overlap_core_properties(a, b):
    """Hermitian symmetry, |K| <= 1 and K(a, a) = 1 for r <= 40."""
    k = kernels.squeezed_overlap(*a, *b).value
    assert k == kernels.squeezed_overlap(*b, *a).value.conjugate()
    assert abs(k) <= 1.0 + 4 * _EPS
    assert kernels.squeezed_overlap(*a, *a).value == 1.0


@_SEEDED
@given(a=_STATE, b=_STATE)
def test_overlap_values_match_scalar_path(a, b):
    want = kernels.squeezed_overlap(*a, *b).value
    got = complex(kernels.overlap_values(a[0], [a[1]], b[0], [b[1]])[0])
    assert abs(got - want) <= 2 * math.ulp(abs(want))
