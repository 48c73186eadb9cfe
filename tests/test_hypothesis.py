"""Property-based checks, run with Hypothesis under a derandomized profile.

Each property searches generated inputs and shrinks any counterexample;
``derandomize=True`` keeps every run of the suite on the same examples.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from distbench.metrics import kernels  # noqa: E402

settings.register_profile("distbench", derandomize=True, max_examples=200, deadline=None,
                          database=None)
settings.load_profile("distbench")

# every float64, so signed zeros, subnormals, overflow, infinities and NaN all occur
feature_major_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 140), st.integers(1, 3), st.integers(1, 3)),
    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@given(feature_major_arrays)
def test_feature_sum_is_numpy_sum_of_the_transpose(a):
    natural = np.ascontiguousarray(np.moveaxis(a, 0, -1))
    with np.errstate(all="ignore"):
        want = np.sum(natural, axis=-1).view(np.int64)
        for feature_sum in (kernels._fsum, kernels._replayed_sum):
            assert np.array_equal(feature_sum(a).view(np.int64), want), feature_sum.__name__
