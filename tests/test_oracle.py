"""Both Wilcoxon tests and nine distance measures against scipy, an
implementation written apart from this package and from ``tests/_reference.py``.

Wilcoxon: one input is excluded, where the two differ by definition:
paired samples whose differences are all zero. distbench gives p = 1.0
there, and scipy NaN, since its "wilcox" zero method drops every pair.

Tolerances are absolute. They cover the largest differences seen over
150,000 random pools of 1 to 14 values a side, half with ties at one
decimal and half spread over [-1000, 1000]: 3.33e-16 for rank-sum and
2.78e-16 for signed-rank, a few units in the last place of p. The two
compute z in different orders and take the normal tail with
``math.erfc`` and scipy's normal survival function.

Measures: MD, CD, ED, SED, SD, CanD, HamD, CosD and PeaD on pairs of
positive vectors of 1 to 19 features. Positive features exclude the
inputs where the two differ by definition: a zero vector (CosD) or a
zero denominator term (SD, CanD), where distbench divides by EPSILON and
scipy gives NaN or drops the term. PeaD also excludes a constant vector,
n = 1 included: its variance is zero, so distbench maps r to 0 and scipy
gives NaN. These inputs are excluded before scipy is called, whose
zero division would warn. The bounds cover the largest differences seen
over 600,000 random pairs (a third on the integer grid 1 to 4, a third
uniform and a third log-uniform on [1e-3, 1e3]) and 20,000 examples of
the strategy below per measure: none for MD, CD, SD, CanD and HamD,
4.33e-16 and 6.22e-16 relative for ED and SED, and 7.77e-16 and
6.66e-16 absolute for CosD and PeaD.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats
from scipy.spatial import distance

from distbench import evaluate, wilcoxon_rank_sum, wilcoxon_signed_rank

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


# scipy's form of each measure and its bound, relative then absolute: the sums
# of MD, SD and CanD are numpy's pairwise ones, as distbench's are, so they are
# exact, as is HamD, whose mismatch mean times n is the count for every n <= 19;
# ED and SED sum by ``np.dot``; CosD and PeaD need an absolute bound,
# since a relative one fails where the distance is near zero
_MEASURES = {
    "MD": (distance.cityblock, 0.0, 0.0),
    "CD": (distance.chebyshev, 0.0, 0.0),
    "ED": (distance.euclidean, 4.4e-16, 0.0),
    "SED": (distance.sqeuclidean, 6.3e-16, 0.0),
    "SD": (distance.braycurtis, 0.0, 0.0),
    "CanD": (distance.canberra, 0.0, 0.0),
    "HamD": (lambda x, y: distance.hamming(x, y) * len(x), 0.0, 0.0),
    "CosD": (distance.cosine, 0.0, 7.8e-16),
    "PeaD": (distance.correlation, 0.0, 6.7e-16),
}

# a grid of small integers, where components often tie, or spread values
_features = st.sampled_from((st.integers(1, 4).map(float), st.floats(1e-3, 1e3)))


@st.composite
def _positive_pairs(draw):
    n = draw(st.integers(1, 19))
    vector = st.lists(draw(_features), min_size=n, max_size=n)
    return draw(vector), draw(vector)


@pytest.mark.parametrize("metric", list(_MEASURES))
@_oracle
@given(pair=_positive_pairs())
def test_measure_equals_scipy(metric, pair):
    x, y = pair
    if metric == "PeaD":
        assume(len(set(x)) > 1 and len(set(y)) > 1)   # excluded: a constant vector
    oracle, rel, abs_ = _MEASURES[metric]
    assert evaluate(metric, x, y) == pytest.approx(oracle(x, y), rel=rel, abs=abs_)
