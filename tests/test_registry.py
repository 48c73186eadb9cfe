"""Registry contents, descriptor flags and lookup errors."""

import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from distbench import Cell, Family, KnnModel, describe, evaluate, list_metrics, pairwise, similarity
from distbench.errors import (
    DimensionMismatchError,
    DomainViolationError,
    UnknownMetricError,
)
from distbench.metrics import MetricDescriptor, kernels

EXPECTED_ABBREVS = (
    "MD", "CD", "ED", "LD", "CanD", "SD", "SoD", "KD", "MCD", "NID",
    "JacD", "CosD", "DicD", "ChoD", "BD", "SCD", "MatD", "HeD", "SED",
    "ClaD", "NCSD", "PCSD", "SquD", "PSCSD", "DivD", "ASCSD", "AD",
    "MCED", "SCSD", "KLD", "JefD", "KDD", "TopD", "JSD", "JDD", "VWHD",
    "VSDF1", "VSDF2", "VSDF3", "MSCD", "MiSCSD", "AvgD", "KJD", "TanD",
    "PeaD", "CorD", "SPeaD", "HamD", "HauD", "CSSD", "WIAD", "MeeD",
    "MotD", "HasD",
)

FAMILY_SIZES = {
    Family.MINKOWSKI: 3,
    Family.L1: 7,
    Family.INNER_PRODUCT: 4,
    Family.SQUARED_CHORD: 4,
    Family.SQUARED_L2: 11,
    Family.SHANNON_ENTROPY: 6,
    Family.VICISSITUDE: 6,
    Family.OTHER: 13,
}


def test_registry_has_exactly_the_54_measures():
    assert set(list_metrics()) == set(EXPECTED_ABBREVS)
    assert len(list_metrics()) == 54


def test_family_sizes():
    for family, size in FAMILY_SIZES.items():
        assert len(list_metrics(family)) == size, family
    assert sum(FAMILY_SIZES.values()) == 54


def test_describe_examples():
    hasd = describe("HasD")
    assert hasd.family is Family.OTHER
    assert hasd.full_metric
    kld = describe("KLD")
    assert not kld.symmetric
    assert kld.family is Family.SHANNON_ENTROPY
    ncsd = describe("NCSD")
    assert not ncsd.symmetric


def test_unknown_metric():
    with pytest.raises(UnknownMetricError):
        describe("XYZ")


def test_one_guard_rule_and_no_guard_parameter_anywhere():
    # one guard rule for every metric: EPSILON replaces a zero denominator,
    # and no descriptor, model or entry point takes another
    from distbench.metrics import EPSILON
    assert EPSILON == 1e-12
    assert evaluate("VWHD", [0.0, 1.0], [2.0, 1.0]) == 2.0 / EPSILON
    assert pairwise("VWHD", [0.0, 1.0], [[2.0, 1.0]]).tolist() == [2.0 / EPSILON]
    for abbrev in list_metrics():
        assert not hasattr(describe(abbrev), "guard"), abbrev
    assert "guard" not in {f.name for f in dataclasses.fields(KnnModel)}
    for func in (evaluate, similarity, pairwise, KnnModel.from_dataset):
        assert "guard" not in inspect.signature(func).parameters, func.__name__


def test_every_descriptor_survives_pickle():
    # a registered descriptor pickles by its abbreviation and unpickles as the
    # registry's own; any other pickles by value, its kernel by import path, so
    # a copy sent to another process scores the same bits
    for abbrev in list_metrics():
        desc = describe(abbrev)
        assert pickle.loads(pickle.dumps(desc)) is desc, abbrev
    rng = np.random.default_rng(23)
    rows = rng.choice(np.array([0.0, 0.5, 1.0, 2.0]), size=(9, 5))
    queries = rng.choice(np.array([0.0, 0.5, 1.0, 2.0]), size=(4, 5))
    rows[2] = 0.0                                # zero sums, minima and rows
    queries[0, :3] = 0.0
    custom = MetricDescriptor("CanX", "Canberra, unregistered", Family.L1, kernels.canberra)
    copy = pickle.loads(pickle.dumps(custom))
    assert copy == custom and copy is not custom
    want = pairwise("CanD", queries, rows)
    assert np.array_equal(pairwise(copy, queries, rows).view(np.int64), want.view(np.int64))


def test_full_metric_implies_other_flags():
    for abbrev in list_metrics():
        desc = describe(abbrev)
        if desc.full_metric:
            assert desc.symmetric and desc.zero_self and desc.nonneg_output, abbrev


def test_nonneg_input_flags():
    required = {a for a in list_metrics() if describe(a).requires_nonneg_inputs}
    assert {"BD", "SCD", "MatD", "HeD"} <= required  # sqrt of raw values
    assert {"KLD", "JefD", "KDD", "TopD", "JSD", "JDD"} <= required  # logs
    assert "HasD" not in required  # has an explicit negative-value branch
    assert "ED" not in required


def test_domain_violation_on_negative_inputs():
    with pytest.raises(DomainViolationError):
        evaluate("SCD", [1.0, -2.0], [1.0, 1.0])
    with pytest.raises(DomainViolationError):
        evaluate("KLD", [1.0, 2.0], [-1.0, 1.0])
    assert evaluate("HasD", [-1.0, 2.0], [1.0, 1.0]) >= 0.0
    # pairwise refuses the inputs even with no query to score
    with pytest.raises(DomainViolationError, match="SCD requires non-negative inputs"):
        pairwise("SCD", np.empty((0, 2)), [[1.0, -2.0]])


def test_evaluate_refuses_an_overflowed_distance_as_pairwise_does():
    # EPSILON replaces only exact zeros: 1 / 5e-324 overflows to inf
    x, y = [5e-324, 1.0], [1.0, 1.0]
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DomainViolationError, match="VWHD produced a non-finite distance"):
            evaluate("VWHD", x, y)
        with pytest.raises(DomainViolationError, match="VWHD produced a non-finite distance"):
            similarity("VWHD", x, y)
        with pytest.raises(DomainViolationError, match="VWHD produced a non-finite distance"):
            pairwise("VWHD", x, [y])


def test_evaluate_refuses_a_non_finite_hausdorff_input():
    for x in ([np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(DomainViolationError, match="HauD produced a non-finite distance"):
            evaluate("HauD", x, [1.0, 1.0])
        with pytest.raises(DomainViolationError, match="HauD produced a non-finite distance"):
            evaluate("HauD", [1.0, 1.0], x)


def test_every_log_measure_refuses_a_nan_input():
    # a zero coefficient times a NaN log is NaN: KLD and KDD refuse NaN as
    # the other log measures do
    for abbrev in ("KLD", "KDD", "JefD", "TopD", "JSD", "JDD", "TanD"):
        with pytest.raises(DomainViolationError, match=f"{abbrev} produced a non-finite"):
            evaluate(abbrev, [0.0, 1.0], [np.nan, 1.0])
        with pytest.raises(DomainViolationError, match=f"{abbrev} produced a non-finite"):
            pairwise(abbrev, [0.0, 1.0], [[2.0, 1.0], [np.nan, 1.0]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate("ED", [1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        pairwise("ED", [1.0, 2.0], [[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("abbrev", EXPECTED_ABBREVS)
def test_zero_features_are_refused_alike_by_every_metric(abbrev):
    # no metric has a distance between vectors of no features, so every
    # entry point refuses them the same way instead of failing per kernel
    with pytest.raises(DimensionMismatchError, match=r"n >= 1, got \(2, 0\) and \(4, 0\)"):
        pairwise(abbrev, np.zeros((2, 0)), np.ones((4, 0)))
    with pytest.raises(DimensionMismatchError, match=r"n >= 1, got \(0,\) and \(4, 0\)"):
        pairwise(abbrev, np.zeros(0), np.ones((4, 0)))
    with pytest.raises(DimensionMismatchError, match=r"n >= 1, got \(2, 0\) and \(4, 0\)"):
        Cell(np.zeros((2, 0)), np.ones((4, 0)), (abbrev,))
    with pytest.raises(DimensionMismatchError, match=r"n >= 1 features, got \(0,\) and \(0,\)"):
        evaluate(abbrev, [], [])


def test_similarity_is_one_minus_distance():
    x, y = [5.1, 3.5, 1.4, 0.3], [5.4, 3.4, 1.7, 0.2]
    assert similarity("CosD", x, y) == 1.0 - evaluate("CosD", x, y)
    assert similarity("MotD", x, x) == 0.5


def test_pairwise_matches_evaluate():
    rng = np.random.default_rng(3)
    rows = rng.uniform(0.0, 5.0, size=(8, 6))
    q = rng.uniform(0.0, 5.0, size=6)
    for abbrev in list_metrics():
        got = pairwise(abbrev, q, rows)
        want = [evaluate(abbrev, q, row) for row in rows]
        assert got == pytest.approx(want, abs=1e-12), abbrev
