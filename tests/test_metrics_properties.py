"""Property checks for the metric kernels: axioms, identities, guards."""

import warnings

import numpy as np
import pytest

import _reference as ref
from distbench import describe, evaluate, list_metrics, pairwise
from distbench.metrics import kernels, registry
from distbench.metrics.kernels import PairTerms

N_PAIRS = 1000
DIM = 6

# Measures whose flags are false somewhere on the declared domain but that
# these positive random inputs still check, so no check is lost: each is
# non-negative on non-negative inputs, and negative on some negative ones
NONNEG_ON_NONNEG_INPUTS = ("SD", "SoD", "KD", "NCSD", "PCSD", "SquD", "PSCSD", "ASCSD",
                           "VWHD", "VSDF2", "VSDF3", "MSCD", "MiSCSD", "MotD")
# and each gives d(x, x) = 0 for x neither zero nor (for the Pearson measures) constant
ZERO_SELF_ON_VARYING_INPUTS = ("CosD", "DicD", "PeaD", "CorD", "SPeaD")


def _pairs(seed, n=N_PAIRS, dim=DIM, low=0.0, high=10.0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(low, high, size=(n, dim)),
            rng.uniform(low, high, size=(n, dim)))


def _batch(abbrev, x, y):
    return np.asarray(describe(abbrev).func(PairTerms(x, y)), dtype=np.float64)


@pytest.mark.parametrize("abbrev", list_metrics())
def test_symmetry(abbrev):
    desc = describe(abbrev)
    if not desc.symmetric:
        return
    x, y = _pairs(seed=11)
    forward = _batch(abbrev, x, y)
    backward = _batch(abbrev, y, x)
    assert np.array_equal(forward, backward), abbrev


@pytest.mark.parametrize("abbrev", list_metrics())
def test_asymmetric_metrics_actually_differ(abbrev):
    desc = describe(abbrev)
    if desc.symmetric:
        return
    x, y = _pairs(seed=12, n=50, low=0.5)
    assert not np.allclose(_batch(abbrev, x, y), _batch(abbrev, y, x)), abbrev


@pytest.mark.parametrize("abbrev", list_metrics())
def test_zero_self(abbrev):
    desc = describe(abbrev)
    if not (desc.zero_self or abbrev in ZERO_SELF_ON_VARYING_INPUTS):
        return
    x, _ = _pairs(seed=13)
    assert np.all(np.abs(_batch(abbrev, x, x)) <= 1e-12), abbrev


@pytest.mark.parametrize("abbrev", list_metrics())
def test_nonneg_output(abbrev):
    desc = describe(abbrev)
    if not (desc.nonneg_output or abbrev in NONNEG_ON_NONNEG_INPUTS):
        return
    x, y = _pairs(seed=14)
    assert np.all(_batch(abbrev, x, y) >= 0.0), abbrev


@pytest.mark.parametrize("abbrev", NONNEG_ON_NONNEG_INPUTS)
def test_negative_on_some_negative_inputs(abbrev):
    assert not describe(abbrev).nonneg_output
    x, y = _pairs(seed=21, n=200, low=-2.0, high=2.0)
    assert np.min(_batch(abbrev, x, y)) < 0.0, abbrev


@pytest.mark.parametrize("abbrev", ZERO_SELF_ON_VARYING_INPUTS)
def test_not_zero_on_the_zero_vector_against_itself(abbrev):
    assert not describe(abbrev).zero_self
    assert evaluate(abbrev, [0.0, 0.0], [0.0, 0.0]) in (0.5, 1.0)
    if abbrev in ("PeaD", "CorD", "SPeaD"):   # zero variance maps to r = 0
        assert evaluate(abbrev, [1.0, 1.0], [1.0, 1.0]) in (0.5, 1.0)


@pytest.mark.parametrize("abbrev", list_metrics())
def test_finiteness_on_awkward_inputs(abbrev):
    desc = describe(abbrev)
    rng = np.random.default_rng(15)
    base = rng.uniform(0.0, 1e6, size=(64, DIM))
    awkward = [
        np.zeros(DIM),
        np.ones(DIM),
        np.full(DIM, 1e-9),
        np.full(DIM, 1e6),
        np.r_[np.zeros(DIM // 2), np.ones(DIM - DIM // 2)],
    ]
    vectors = np.vstack([base] + [v[None, :] for v in awkward])
    if not desc.requires_nonneg_inputs:
        vectors = np.vstack([vectors, -base[:8], rng.normal(0, 100, size=(16, DIM))])
    for x in vectors[:20]:
        values = _batch(abbrev, x, vectors)
        assert np.all(np.isfinite(values)), abbrev


TRIANGLE_METRICS = ("MD", "ED", "CD", "HasD", "MatD")


@pytest.mark.parametrize("abbrev", TRIANGLE_METRICS)
def test_triangle_inequality(abbrev):
    rng = np.random.default_rng(16)
    n = 10_000
    x = rng.uniform(0.0, 10.0, size=(n, DIM))
    y = rng.uniform(0.0, 10.0, size=(n, DIM))
    z = rng.uniform(0.0, 10.0, size=(n, DIM))
    d_xz = _batch(abbrev, x, z)
    d_xy = _batch(abbrev, x, y)
    d_yz = _batch(abbrev, y, z)
    assert np.all(d_xz <= d_xy + d_yz + 1e-9), abbrev


def test_factor_identities():
    x, y = _pairs(seed=17, n=200)
    n = DIM
    checks = [
        (_batch("PSCSD", x, y), 2.0 * _batch("SquD", x, y)),
        (_batch("TopD", x, y), 2.0 * _batch("JSD", x, y)),
        (_batch("MatD", x, y), np.sqrt(_batch("SCD", x, y))),
        (_batch("HeD", x, y), np.sqrt(2.0) * _batch("MatD", x, y)),
        (_batch("MCD", x, y), _batch("MD", x, y) / n),
        (_batch("NID", x, y), _batch("MD", x, y) / 2.0),
        (_batch("AD", x, y), _batch("ED", x, y) / np.sqrt(n)),
    ]
    for got, want in checks:
        assert np.all(np.abs(got - want) <= 1e-12)


def test_pearson_family_identities():
    x, y = _pairs(seed=18, n=200)
    pead = _batch("PeaD", x, y)
    assert np.array_equal(_batch("CorD", x, y), pead / 2.0)
    assert np.array_equal(_batch("SPeaD", x, y), 1.0 - (1.0 - pead) ** 2)


def test_max_min_symmetric_chi2():
    x, y = _pairs(seed=19, n=300)
    mscd = _batch("MSCD", x, y)
    miscsd = _batch("MiSCSD", x, y)
    assert np.array_equal(mscd, np.maximum(_batch("NCSD", x, y), _batch("PCSD", x, y)))
    assert np.array_equal(miscsd, np.minimum(_batch("NCSD", x, y), _batch("PCSD", x, y)))
    assert np.all(mscd >= miscsd)


def test_hassanat_bound():
    # each dimension contributes [0, 1], and below 1 at these magnitudes
    rng = np.random.default_rng(20)
    for scale in (1.0, 1e3, 1e9):
        x = rng.uniform(-scale, scale, size=(500, DIM))
        y = rng.uniform(-scale, scale, size=(500, DIM))
        values = _batch("HasD", x, y)
        assert np.all(values >= 0.0)
        assert np.all(values < DIM)
    per_dim = kernels.hassanat(PairTerms(np.array([0.0]), np.array([1e12])))
    assert 0.0 <= per_dim < 1.0


def test_hassanat_term_rounds_to_one_without_a_warning():
    # the exact term is below 1 but rounds to 1.0; at +-1e308 the shifted
    # maximum overflows to inf, which gives that same 1.0
    assert kernels.hassanat(PairTerms(np.array([0.0]), np.array([1e20]))) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate("HasD", [-1e308], [1e308]) == 1.0
        rows = np.array([[1e308, 0.0], [-1e308, 0.0]])
        assert pairwise("HasD", np.array([-1e308, 0.0]), rows).tolist() == [1.0, 0.0]


def test_hassanat_is_zero_for_equal_values_far_below_zero():
    # 1 + min rounds to min below about -2**53, so the shift goes onto min first
    for low in (-1e15, -1e16, -1e20, -1e300):
        assert evaluate("HasD", [low, 1.0], [low, 1.0]) == 0.0, low
    rows = np.array([[-1e20, 1.0], [0.0, 1.0]])
    assert pairwise("HasD", np.array([-1e20, 1.0]), rows)[0] == 0.0


def _hassanat_sign_cases():
    """(7, 5) queries and (9, 5) rows: where the negatives are, and the extremes."""
    rng = np.random.default_rng(26)
    queries = rng.choice([0.0, -0.0, 0.5, 1.0, 3.0, 1e20], size=(7, 5))
    rows = rng.choice([0.0, 0.5, 2.0, 1e-300, 7.0], size=(9, 5))
    only_some = np.zeros((7, 1), dtype=bool)
    only_some[[1, 4]] = True                 # blocks of one query mix both kinds
    deep = [-1e300, -2.0 ** 60, -(2.0 ** 53) - 2.0]
    far_q, far_r = queries.copy(), rows.copy()
    far_q[:, :2] = rng.choice(deep, size=(7, 2))
    far_r[:, :2] = rng.choice(deep, size=(9, 2))
    far_q[0] = far_r[3]                      # an equal pair: distance 0
    huge = [1e308, -1e308, 0.0, 1.0]
    return {
        "neither": (queries, rows),
        "queries only": (np.where(only_some, -1.5 - queries, queries), rows),
        "rows only": (queries, np.where(rows > 1.0, -rows, rows)),
        "equal values below -2**53": (far_q, far_r),
        "+-1e308": (rng.choice(huge, size=(7, 5)), rng.choice(huge, size=(9, 5))),
    }


HASSANAT_SIGN_CASES = _hassanat_sign_cases()


@pytest.mark.parametrize("case", HASSANAT_SIGN_CASES, ids=HASSANAT_SIGN_CASES.keys())
def test_hassanat_sign_rule_equals_its_reference_bit_for_bit(case, monkeypatch):
    # HasD shifts by |min| only where min is negative, and reads the pair's
    # min and max only when the queries or the rows hold a negative
    queries, rows = HASSANAT_SIGN_CASES[case]
    want = ref.hassanat_ref(queries[:, None, :], rows)
    for budget in (registry.BLOCK_ELEMENTS, 1):   # default blocks, one query per block
        monkeypatch.setattr(registry, "BLOCK_ELEMENTS", budget)
        got = pairwise("HasD", queries, rows)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), budget
    for i, query in enumerate(queries):
        for j, row in enumerate(rows):
            got = np.float64(evaluate("HasD", query, row))
            assert got.view(np.int64) == ref.hassanat_ref(query, row).view(np.int64), (i, j)


def test_pearson_degenerate_vectors():
    flat = np.full(DIM, 3.3)
    wavy = np.arange(DIM, dtype=float)
    assert evaluate("PeaD", flat, wavy) == 1.0
    assert evaluate("CorD", flat, wavy) == 0.5
    assert evaluate("SPeaD", flat, wavy) == 1.0


def test_meehl_single_dimension_is_zero():
    assert evaluate("MeeD", [4.0], [9.0]) == 0.0


def test_mean_censored_euclidean_zero_pairs():
    # all-zero vectors: the censored count is 0 and the distance is 0
    z = np.zeros(4)
    assert evaluate("MCED", z, z) == 0.0
    # zeros only lower the denominator
    got = evaluate("MCED", [0.0, 0.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    assert got == pytest.approx(np.sqrt(25.0 / 2.0), abs=1e-12)


def test_hamming_counts_exact_mismatches():
    assert evaluate("HamD", [1.0, 2.0, 3.0], [1.0, 2.5, 3.0]) == 1.0
    assert evaluate("HamD", [1.0, 2.0], [1.0 + 1e-12, 2.0]) == 1.0


def test_guard_zero_denominator_with_zero_numerator():
    # equal vectors containing zeros: every offending term has a zero
    # numerator and must vanish
    x = np.array([0.0, 2.0, 0.0])
    for abbrev in ("CanD", "VWHD", "VSDF1", "SquD", "CSSD", "KD", "SD", "WIAD"):
        assert evaluate(abbrev, x, x) == 0.0, abbrev


def test_guard_epsilon_substitution_is_finite_and_large():
    value = evaluate("VWHD", [0.0, 1.0], [2.0, 1.0])  # 2/min(0,2) -> 2/eps
    assert np.isfinite(value)
    assert value > 1e11


def test_guard_log_epsilon_substitution():
    value = evaluate("JefD", [0.0, 1.0], [2.0, 1.0])
    assert np.isfinite(value)
    assert evaluate("BD", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(-np.log(1e-12))
