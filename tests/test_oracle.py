"""Both Wilcoxon tests against scipy.stats, an implementation written apart
from this package and from ``tests/_reference.py``.

One input is excluded, where the two differ by definition: paired
samples whose differences are all zero. distbench gives p = 1.0 there,
and scipy NaN, since its "wilcox" zero method drops every pair.

Tolerances are absolute. They cover the largest differences seen over
150,000 random pools of 1 to 14 values a side, half with ties at one
decimal and half spread over [-1000, 1000]: 3.33e-16 for rank-sum and
2.78e-16 for signed-rank, a few units in the last place of p. The two
compute z in different orders and take the normal tail with
``math.erfc`` and scipy's normal survival function.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from distbench import wilcoxon_rank_sum, wilcoxon_signed_rank

_oracle = settings(max_examples=300, derandomize=True, deadline=None, database=None)

# one-decimal values tie often; spread ones almost never
_values = st.sampled_from((st.integers(-20, 20).map(lambda v: v / 10),
                           st.floats(-1e3, 1e3)))


@st.composite
def _two_samples(draw):
    sample = st.lists(draw(_values), min_size=1, max_size=14)
    return draw(sample), draw(sample)


@_oracle
@given(_two_samples())
def test_rank_sum_equals_scipy_mannwhitneyu(samples):
    a, b = samples
    # scipy's exact null counts untied ranks only, as distbench's does
    method = "exact" if len(set(a + b)) == len(a + b) <= 20 else "asymptotic"
    want = stats.mannwhitneyu(a, b, use_continuity=True, alternative="two-sided",
                              method=method).pvalue
    assert wilcoxon_rank_sum(a, b) == pytest.approx(want, rel=0.0, abs=3.4e-16)


@_oracle
@given(_two_samples())
def test_signed_rank_equals_scipy_wilcoxon(samples):
    a, b = samples
    a, b = a[:len(b)], b[:len(a)]
    assume(a != b)   # excluded: all-zero differences
    # "approx" is the normal approximation's name in every scipy that has
    # ``method``; later releases also call it "asymptotic"
    want = stats.wilcoxon(a, b, zero_method="wilcox", correction=True,
                          alternative="two-sided", method="approx").pvalue
    assert wilcoxon_signed_rank(a, b) == pytest.approx(want, rel=0.0, abs=2.8e-16)
