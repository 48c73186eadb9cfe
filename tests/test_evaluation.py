"""Confusion matrices, macro scores and rank tables."""

import numpy as np
import pytest

from distbench import (
    ConfusionMatrix,
    accuracy,
    confusion,
    macro_precision,
    macro_recall,
    rank_distances,
    score,
)
from distbench.errors import ClassOutOfRangeError, LengthMismatchError

from _reference import confusion_counts_ref, macro_ref, macro_scores_ref


def test_confusion_counts():
    cm = confusion([0, 0, 1], [0, 1, 1], 2)
    assert cm.counts.tolist() == [[1, 1], [0, 1]]


def test_confusion_perfect_predictions_are_diagonal():
    cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert np.array_equal(cm.counts, np.diag([1, 2, 1]))
    assert accuracy(cm) == 1.0
    assert macro_precision(cm) == 1.0
    assert macro_recall(cm) == 1.0


def test_confusion_zero_diagonal():
    cm = confusion([0, 1], [1, 0], 2)
    assert np.trace(cm.counts) == 0
    assert accuracy(cm) == 0.0


def test_confusion_errors():
    with pytest.raises(LengthMismatchError):
        confusion([0, 1], [0], 2)
    with pytest.raises(LengthMismatchError):
        confusion([], [], 2)
    with pytest.raises(ClassOutOfRangeError):
        confusion([0, 2], [0, 1], 2)
    with pytest.raises(ClassOutOfRangeError):
        confusion([0, 1], [0, -1], 2)


def test_scores_equal_the_full_array_forms_bit_for_bit():
    rng = np.random.default_rng(3000)
    for _ in range(3000):
        n_classes = int(rng.integers(1, 7))
        size = int(rng.integers(1, 40))
        actual = rng.integers(0, n_classes, size=size)
        predicted = rng.integers(0, n_classes, size=size)
        counts = confusion_counts_ref(actual, predicted, n_classes)
        cm = confusion(actual, predicted, n_classes)
        assert cm.counts.dtype == np.int64 and np.array_equal(cm.counts, counts)
        tp = np.diag(counts)
        want = (macro_ref(tp, counts.sum(axis=0)), macro_ref(tp, counts.sum(axis=1)))
        got = (macro_precision(cm), macro_recall(cm))
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


def test_accuracy_example():
    cm = ConfusionMatrix(np.array([[1, 1], [0, 1]]))
    assert accuracy(cm) == pytest.approx(2.0 / 3.0)


def test_macro_scores_hand_example():
    cm = ConfusionMatrix(np.array([[1, 1], [0, 1]]))
    assert macro_precision(cm) == pytest.approx(0.75)
    assert macro_recall(cm) == pytest.approx(0.75)


def test_macro_zero_over_zero_contributes_zero():
    # class 2 never occurs and is never predicted; its precision term is 0
    actual = [0, 0, 1, 1]
    predicted = [0, 1, 1, 1]
    cm = confusion(actual, predicted, 3)
    ref_precision, ref_recall = macro_scores_ref(actual, predicted, 3)
    assert macro_precision(cm) == pytest.approx(ref_precision)
    assert macro_recall(cm) == pytest.approx(ref_recall)
    assert macro_precision(cm) < 1.0  # the empty class drags the average down


def test_macro_matches_reference_on_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n_classes = int(rng.integers(2, 6))
        size = int(rng.integers(1, 40))
        actual = rng.integers(0, n_classes, size=size).tolist()
        predicted = rng.integers(0, n_classes, size=size).tolist()
        cm = confusion(actual, predicted, n_classes)
        ref_p, ref_r = macro_scores_ref(actual, predicted, n_classes)
        assert macro_precision(cm) == pytest.approx(ref_p, abs=1e-12)
        assert macro_recall(cm) == pytest.approx(ref_r, abs=1e-12)


def test_tp_fp_fn_tn_partition_total():
    rng = np.random.default_rng(22)
    actual = rng.integers(0, 4, size=200)
    predicted = rng.integers(0, 4, size=200)
    cm = confusion(actual, predicted, 4)
    total = cm.total
    sums = (cm.true_positives() + cm.false_positives()
            + cm.false_negatives() + cm.true_negatives())
    assert np.all(sums == total)


def test_scores_within_unit_interval():
    rng = np.random.default_rng(23)
    for _ in range(30):
        counts = rng.integers(0, 20, size=(3, 3))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(counts)
        triple = score(cm)
        for v in (triple.accuracy, triple.precision, triple.recall):
            assert 0.0 <= v <= 1.0


def test_binary_macro_is_mean_of_per_class():
    cm = confusion([0, 0, 0, 1, 1], [0, 1, 0, 1, 0], 2)
    tp = cm.true_positives()
    per_class_precision = [tp[0] / 3, tp[1] / 2]
    assert macro_precision(cm) == pytest.approx(np.mean(per_class_precision))


def test_rank_table_descending_with_distinct_means():
    table = rank_distances({"HasD": [0.8394], "LD": [0.8316]})
    assert [(row.rank, row.metric) for row in table] == [(1, "HasD"), (2, "LD")]


def test_rank_table_shared_rank_skips_next():
    table = rank_distances({"A": [0.9], "B": [0.9], "C": [0.5]})
    assert [(row.rank, row.metric) for row in table] == [(1, "A"), (1, "B"), (3, "C")]


def test_rank_table_single_metric():
    table = rank_distances({"ED": [0.7, 0.8]})
    assert [(row.rank, row.metric) for row in table] == [(1, "ED")]
    assert table[0].mean == pytest.approx(0.75)


def test_rank_table_tie_tolerance():
    table = rank_distances({"A": [0.5 + 5e-10], "B": [0.5]})
    assert table[0].rank == table[1].rank == 1


def test_rank_table_empty_scores_rejected():
    with pytest.raises(LengthMismatchError):
        rank_distances({"A": []})
