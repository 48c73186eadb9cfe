"""Brute-force KNN: the worked toy example, ties and invariances."""

import numpy as np
import pytest

from distbench import Dataset, KnnModel, classify, classify_batch, neighbors
from distbench.errors import DimensionMismatchError, TooSmallError
from distbench.metrics import registry

from conftest import make_blobs

TOY_FEATURES = np.array([[5.0, 4.0, 3.0],
                         [1.0, 2.0, 2.0],
                         [1.0, 2.0, 3.0]])
TOY_LABELS = np.array([0, 1, 1])   # original classes 1, 2, 2
QUERY = np.array([4.0, 4.0, 2.0])


def _toy_model(k=1, metric="ED"):
    return KnnModel(TOY_FEATURES, TOY_LABELS, metric=_desc(metric), k=k)


def _desc(abbrev):
    from distbench import describe
    return describe(abbrev)


def test_toy_distances_and_rank():
    model = _toy_model(k=3)
    near = neighbors(model, QUERY)
    assert [nb.index for nb in near] == [0, 1, 2]
    distances = [nb.distance for nb in near]
    assert distances == pytest.approx([1.4, 3.6, 3.7], abs=0.05)
    assert distances == sorted(distances)


def test_toy_classification_k1_and_k3():
    assert classify(_toy_model(k=1), QUERY) == 0   # class "1"
    assert classify(_toy_model(k=3), QUERY) == 1   # class "2" wins 2:1


def test_query_equal_to_training_vector():
    model = _toy_model(k=1)
    near = neighbors(model, TOY_FEATURES[1])
    assert near[0].index == 1
    assert near[0].distance == 0.0


def test_k_equals_training_size_returns_all_sorted():
    model = _toy_model(k=3)
    near = neighbors(model, QUERY)
    assert sorted(nb.index for nb in near) == [0, 1, 2]
    distances = [nb.distance for nb in near]
    assert distances == sorted(distances)


def test_classify_k1_equals_first_neighbor():
    rng = np.random.default_rng(0)
    feats = rng.uniform(0, 10, size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    model = KnnModel(feats, labels, metric=_desc("MD"), k=1)
    for q in rng.uniform(0, 10, size=(20, 4)):
        assert classify(model, q) == labels[neighbors(model, q)[0].index]


def test_distance_ties_break_by_ascending_index():
    feats = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
    labels = np.array([2, 1, 0])
    model = KnnModel(feats, labels, metric=_desc("ED"), k=3)
    near = neighbors(model, np.zeros(2))
    assert [nb.index for nb in near] == [0, 1, 2]   # all at distance 1
    assert classify(KnnModel(feats, labels, metric=_desc("ED"), k=1), np.zeros(2)) == 2


def test_vote_ties_break_by_nearest_class():
    feats = np.array([[1.0, 0.0], [2.0, 0.0], [-1.5, 0.0], [-2.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    model = KnnModel(feats, labels, metric=_desc("ED"), k=4)
    # 2 votes each; nearest neighbor (index 0, class 0) settles it
    assert classify(model, np.zeros(2)) == 0


def test_prediction_class_always_from_training_set():
    ds = make_blobs("any", 60, 4, (0.5, 0.3, 0.2), spread=2.0, seed=3)
    model = KnnModel.from_dataset(ds, "HasD", k=5)
    rng = np.random.default_rng(4)
    queries = rng.uniform(0, 10, size=(40, 4))
    preds = classify_batch(model, queries)
    assert set(np.unique(preds)) <= set(np.unique(ds.labels))


def test_monotone_equivalent_metrics_predict_identically():
    ds = make_blobs("mono", 90, 5, (0.4, 0.6), spread=2.5, seed=5)
    train_feats, train_labels = ds.features[:60], ds.labels[:60]
    queries = ds.features[60:]
    for group in (("MD", "MCD", "NID"), ("ED", "SED", "AD"), ("SCD", "MatD", "HeD")):
        predictions = []
        for abbrev in group:
            model = KnnModel(train_feats, train_labels, metric=_desc(abbrev), k=1)
            predictions.append(classify_batch(model, queries))
        for other in predictions[1:]:
            assert np.array_equal(predictions[0], other), group


def test_training_order_permutation_without_ties():
    rng = np.random.default_rng(6)
    feats = rng.uniform(0, 10, size=(50, 3))
    labels = rng.integers(0, 2, size=50)
    perm = rng.permutation(50)
    queries = rng.uniform(0, 10, size=(25, 3))
    base = classify_batch(KnnModel(feats, labels, metric=_desc("ED"), k=1), queries)
    shuffled = classify_batch(
        KnnModel(feats[perm], labels[perm], metric=_desc("ED"), k=1), queries)
    assert np.array_equal(base, shuffled)   # continuous data: no exact ties


def test_model_validation():
    with pytest.raises(TooSmallError):
        KnnModel(TOY_FEATURES, TOY_LABELS, metric=_desc("ED"), k=0)
    with pytest.raises(TooSmallError, match=r"k=4 outside \[1, 3\]"):
        KnnModel(TOY_FEATURES, TOY_LABELS, metric=_desc("ED"), k=4)


def test_dimension_mismatch():
    model = _toy_model()
    with pytest.raises(DimensionMismatchError):
        classify(model, np.array([1.0, 2.0]))


def test_from_dataset():
    ds = Dataset.from_arrays("d", TOY_FEATURES, TOY_LABELS, ["1", "2"])
    model = KnnModel.from_dataset(ds, "ED", k=1)
    assert classify(model, QUERY) == 0


def test_distance_evaluation_count(monkeypatch):
    # every (query, training row) pair is scored exactly once, also when the
    # engine splits the 34 queries into blocks of 5
    monkeypatch.setattr(registry, "BLOCK_ELEMENTS", 5 * 66 * 4)
    calls = []
    desc = _desc("ED")

    def count(x, y):
        calls.append(int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(y))[:-1])))

    counting = type(desc)(
        abbrev="ED*", name="counting", family=desc.family,
        func=lambda t: (count(t.x, t.y), desc.func(t))[1],
        full_metric=True)
    feats = np.random.default_rng(7).uniform(0, 1, size=(66, 4))
    labels = np.zeros(66, dtype=np.int64)
    model = KnnModel(feats, labels, metric=counting, k=1)
    queries = np.random.default_rng(8).uniform(0, 1, size=(34, 4))
    classify_batch(model, queries)
    assert sum(calls) == 66 * 34
