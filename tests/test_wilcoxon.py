"""Rank-sum test against the brute-force enumeration oracle."""

import numpy as np
import pytest

from distbench import wilcoxon_rank_sum, wilcoxon_signed_rank
from distbench.errors import LengthMismatchError, NonNumericError
from distbench.evaluation import _normal_pvalue

from _reference import exact_rank_sum_pvalue


def test_identical_samples_give_one():
    a = [0.8, 0.7, 0.9, 0.6]
    assert wilcoxon_rank_sum(a, list(a)) == 1.0


def test_degenerate_constant_pool_gives_one():
    assert wilcoxon_rank_sum([1.0, 1.0], [1.0, 1.0, 1.0]) == 1.0


def test_fully_separated_small_samples():
    a = [1, 2, 3, 4, 5]
    b = [6, 7, 8, 9, 10]
    oracle = exact_rank_sum_pvalue(a, b)
    assert oracle == pytest.approx(2.0 / 252.0, abs=1e-12)
    # an untied pool of 10 enumerates the same null distribution
    assert wilcoxon_rank_sum(a, b) == pytest.approx(oracle, abs=1e-12)
    # the normal approximation (rank sum 15, so U = 0, no ties) stays within the documented 0.03
    approx_p = _normal_pvalue(0.0, 5 * 5 / 2.0, 1.0 * 5 * 5 * 11 / 12.0)
    assert approx_p == pytest.approx(0.01219, abs=1e-4)
    assert abs(approx_p - oracle) <= 0.03


def test_interleaved_small_samples():
    a = [1, 3, 5]
    b = [2, 4, 6]
    oracle = exact_rank_sum_pvalue(a, b)
    assert oracle == pytest.approx(0.7, abs=1e-12)
    p = wilcoxon_rank_sum(a, b)
    assert p == pytest.approx(oracle, abs=1e-12)
    assert p > 0.5


def test_symmetry_under_argument_swap():
    # pools of up to 20 untied values are enumerated; longer pools and
    # pools rounded to one decimal (so tied) take the normal approximation
    rng = np.random.default_rng(30)
    for _ in range(20):
        for high, decimals in ((11, 15), (20, 15), (12, 1)):
            a = rng.normal(size=int(rng.integers(2, high))).round(decimals).tolist()
            b = rng.normal(size=int(rng.integers(2, high))).round(decimals).tolist()
            assert wilcoxon_rank_sum(a, b) == wilcoxon_rank_sum(b, a)


def test_default_matches_oracle_for_all_small_size_pairs():
    rng = np.random.default_rng(31)
    for n1 in range(1, 12):
        for n2 in range(1, 13 - n1):
            for _ in range(3):
                a = rng.normal(size=n1).tolist()
                b = rng.normal(size=n2).tolist()
                got = wilcoxon_rank_sum(a, b)
                want = exact_rank_sum_pvalue(a, b)
                assert got == pytest.approx(want, abs=1e-9), (n1, n2)


def test_exact_method_enumerates_every_arrangement():
    # every way of splitting ranks 1..6 into two triples, by brute force
    from itertools import combinations
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    for picks in combinations(range(6), 3):
        a = [values[i] for i in picks]
        b = [values[i] for i in range(6) if i not in picks]
        got = wilcoxon_rank_sum(a, b)   # untied, so enumerated
        want = exact_rank_sum_pvalue(a, b)
        assert got == pytest.approx(want, abs=1e-12), picks


def test_asymptotic_handles_ties():
    # the ties select the normal approximation: rank sum 8, so U = 2, and
    # tie sum (27 - 3) + (8 - 2) in the variance of U
    p = wilcoxon_rank_sum([1.0, 1.0, 2.0], [1.0, 3.0, 3.0])
    assert p == _normal_pvalue(2.0, 3 * 3 / 2.0, (1.0 - 30 / 210) * 3 * 3 * 7 / 12.0)
    assert 0.0 <= p <= 1.0


def test_large_separated_samples_are_significant():
    a = [0.80 + 0.001 * i for i in range(28)]
    b = [v - 0.05 for v in a]
    p = wilcoxon_rank_sum(a, b)
    assert p < 1e-8


def test_large_similar_samples_are_not_significant():
    rng = np.random.default_rng(32)
    base = rng.normal(size=28)
    a = (base + rng.normal(scale=1e-3, size=28)).tolist()
    b = (base + rng.normal(scale=1e-3, size=28)).tolist()
    assert wilcoxon_rank_sum(a, b) > 0.05


def test_empty_sample_rejected():
    with pytest.raises(LengthMismatchError):
        wilcoxon_rank_sum([], [1.0])


def test_signed_rank_identical_pairs():
    a = [0.5, 0.6, 0.7]
    assert wilcoxon_signed_rank(a, list(a)) == 1.0


def test_signed_rank_one_sided_shift_detected():
    a = [float(i) + 0.5 for i in range(20)]
    b = [float(i) for i in range(20)]
    assert wilcoxon_signed_rank(a, b) < 0.01


def test_signed_rank_balanced_differences():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 1.0, 4.0, 3.0]
    assert wilcoxon_signed_rank(a, b) > 0.5


def test_signed_rank_length_mismatch():
    with pytest.raises(LengthMismatchError):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])


# no order ranks NaN: both tests refuse it, naming the sample, in any position
@pytest.mark.parametrize("test", [wilcoxon_rank_sum, wilcoxon_signed_rank])
@pytest.mark.parametrize("a, b, named", [
    ([np.nan, np.nan, 1.0], [2.0, np.nan, 3.0], "sample_a"),
    ([1.0, np.nan, np.nan], [np.nan, 2.0, 3.0], "sample_a"),
    ([1.0, 2.0], [3.0, np.nan], "sample_b"),
])
def test_a_sample_holding_nan_is_refused(test, a, b, named):
    with pytest.raises(NonNumericError, match=f"{named} holds NaN"):
        test(a, b)
