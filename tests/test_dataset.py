"""CSV ingestion, the CSV round trip and seeded splitting."""

import numpy as np
import pytest

from distbench import Dataset, SplitPlan, load_csv, round_half_up, split
from distbench.errors import (
    ConfigError,
    EmptyDatasetError,
    InconsistentArityError,
    MissingValueError,
    NonNumericError,
    TooSmallError,
)

TOY_ROWS = "5,4,3,1\n1,2,2,2\n1,2,3,2\n4,4,2,1\n"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_toy_rows(tmp_path):
    ds = load_csv(_write(tmp_path, TOY_ROWS))
    assert ds.n_features == 3
    assert len(ds) == 4
    assert ds.class_labels == ("1", "2")           # ids 0 and 1
    assert list(ds.labels) == [0, 1, 1, 0]
    assert ds.name == "data"                       # the file stem
    assert ds.features.min(axis=0).tolist() == [1.0, 2.0, 2.0]
    assert ds.features.max(axis=0).tolist() == [5.0, 4.0, 3.0]


def test_load_single_row(tmp_path):
    ds = load_csv(_write(tmp_path, "0,0,0,A\n"))
    assert ds.features.min(axis=0).tolist() == [0.0, 0.0, 0.0]
    assert ds.features.max(axis=0).tolist() == [0.0, 0.0, 0.0]
    assert ds.class_labels == ("A",)


def test_header_autodetection(tmp_path):
    with_header = load_csv(_write(tmp_path, "sepal,petal,label\n1,2,A\n3,4,B\n"))
    assert len(with_header) == 2
    assert with_header.n_features == 2
    without = load_csv(_write(tmp_path, "1,2,A\n3,4,B\n", name="plain.csv"))
    assert len(without) == 2


def test_numeric_class_labels_do_not_trigger_header(tmp_path):
    ds = load_csv(_write(tmp_path, "1,2,3\n4,5,6\n"))
    assert len(ds) == 2


def test_non_numeric_feature_cell(tmp_path):
    with pytest.raises(NonNumericError):
        load_csv(_write(tmp_path, "1,2,A\nabc,4,B\n"))


def test_nan_and_inf_cells_rejected(tmp_path):
    # non-finite cells parse as floats, so they are data errors rather
    # than header evidence, even on the first line
    with pytest.raises(NonNumericError):
        load_csv(_write(tmp_path, "1,nan,A\n"))
    with pytest.raises(NonNumericError):
        load_csv(_write(tmp_path, "inf,2,A\n"))
    with pytest.raises(NonNumericError):
        load_csv(_write(tmp_path, "1,2,A\n1,-inf,B\n"))


def test_missing_value(tmp_path):
    with pytest.raises(MissingValueError):
        load_csv(_write(tmp_path, "1,,A\n2,3,B\n"))
    with pytest.raises(MissingValueError):
        load_csv(_write(tmp_path, "1,2,\n"))


def test_empty_and_header_only_files(tmp_path):
    with pytest.raises(EmptyDatasetError):
        load_csv(_write(tmp_path, ""))
    with pytest.raises(EmptyDatasetError):
        load_csv(_write(tmp_path, "alpha,beta,label\n"))


def test_inconsistent_arity(tmp_path):
    with pytest.raises(InconsistentArityError):
        load_csv(_write(tmp_path, "1,2,A\n1,2,3,B\n"))


@pytest.mark.parametrize("fourth, error, message", (
    ("1,,B", MissingValueError, "empty cell in column 2"),
    ("1,2,3,B", InconsistentArityError, "4 columns, expected 3"),
    ("1,x,B", NonNumericError, "cell 'x' in column 2 is not numeric"),
    ("1,2,", MissingValueError, "empty class cell"),
))
def test_load_errors_name_the_file_line(tmp_path, fourth, error, message):
    # a header, a row, a blank line: the bad row is line 4 of the file
    path = _write(tmp_path, f"a,b,label\n1,2,A\n\n{fourth}\n")
    with pytest.raises(error) as info:
        load_csv(path)
    assert str(info.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("text, error, message", (
    ("1,2,a\n1,x,b\n\n1,2\n", NonNumericError, "2: cell 'x' in column 2 is not numeric"),
    ("1,2,a\n1,2,\n1,2,3,b\n", MissingValueError, "2: empty class cell"),
    ("1\n1,2,a\n", EmptyDatasetError, "1: no feature columns"),
), ids=("cell-before-short-row", "class-before-long-row", "one-column-before-three"))
def test_load_errors_name_the_first_fault_in_the_file(tmp_path, text, error, message):
    # each line is checked as it is read, so a later fault cannot hide an earlier one
    path = _write(tmp_path, text)
    with pytest.raises(error) as info:
        load_csv(path)
    assert str(info.value) == f"{path}:{message}"


@pytest.mark.parametrize("data, message", (
    # a form feed ends a line for str.splitlines, not for open(newline="")
    (b"1,2,a\x0c\n1,2,a\n1,x,a\n", "cell 'x' in column 2 is not numeric"),
    (b"1,2,a\r1,2,a\r1,2,\xe9\r", "byte 0xe9 is not UTF-8"),
), ids=("form-feed", "carriage-return"))
def test_errors_count_only_cr_and_lf_as_line_ends(tmp_path, data, message):
    path = tmp_path / "lines.csv"
    path.write_bytes(data)
    with pytest.raises((NonNumericError, ConfigError)) as info:
        load_csv(path)
    assert str(info.value) == f"{path}:3: {message}"


def test_a_break_only_splitlines_sees_does_not_split_a_row(tmp_path):
    ds = load_csv(_write(tmp_path, "1,2\x0c,a\n1,3,b\n"))
    assert ds.features.tolist() == [[1.0, 2.0], [1.0, 3.0]]
    assert ds.class_labels == ("a", "b")


def _same(a, b):
    return (a.name, a.features.tolist(), a.labels.tolist(), a.class_labels) == (
        b.name, b.features.tolist(), b.labels.tolist(), b.class_labels)


@pytest.mark.parametrize("text", (TOY_ROWS, "a,b,c,label\n" + TOY_ROWS))
def test_a_byte_order_mark_is_not_read_as_a_cell(tmp_path, text):
    # spreadsheet exports start with one: "\ufeff5" would be header evidence,
    # and the first example would be dropped as a header
    (tmp_path / "marked").mkdir()
    plain = load_csv(_write(tmp_path, text))
    marked = load_csv(_write(tmp_path / "marked", "\ufeff" + text))
    assert len(marked) == 4
    assert _same(marked, plain)


@pytest.mark.parametrize("mark", (b"", b"\xef\xbb\xbf"))
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, mark):
    path = tmp_path / "latin.csv"
    path.write_bytes(mark + b"a,b,label\n1,2,A\n\n1,2,caf\xe9\n")
    with pytest.raises(ConfigError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}:4: byte 0xe9 is not UTF-8"


def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(5)
    lines = []
    for _ in range(20):
        cells = [repr(float(v)) for v in rng.normal(size=4)]
        cells.append(rng.choice(["red", "Iris setosa", 'say "hi"', "x\ty"]))
        lines.append(",".join(cells))
    ds = load_csv(_write(tmp_path, "\n".join(lines) + "\n"))
    out = tmp_path / "round.csv"
    ds.to_csv(out)
    back = load_csv(out)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_labels == ds.class_labels


@pytest.mark.parametrize("label", (
    "a,b", "a\nb", "a\r\nb", "a\rb", "a\n", "", " a", "a ", "\ta",
))
def test_to_csv_refuses_a_label_that_would_not_read_back(tmp_path, label):
    ds = Dataset.from_arrays("d", [[1.0, 2.0], [3.0, 4.0]], [0, 1], ["ok", label])
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match="would not read back"):
        ds.to_csv(out)
    assert not out.exists()


@pytest.mark.parametrize("label", ("a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b"))
def test_to_csv_writes_a_label_with_a_break_only_splitlines_sees(tmp_path, label):
    # only a carriage return or a line feed ends a line, so the label reads back
    ds = Dataset.from_arrays("d", [[1.0, 2.0], [3.0, 4.0]], [0, 1], ["ok", label])
    out = tmp_path / "d.csv"
    ds.to_csv(out)
    assert _same(load_csv(out), ds)


def test_to_csv_refuses_a_class_label_no_row_uses(tmp_path):
    # load_csv learns the labels from the rows, so "c" would not come back
    ds = Dataset.from_arrays("d", [[1.0], [2.0], [3.0]], [1, 0, 1], ["a", "b", "c"])
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match="no row of dataset 'd' has the class label 'c'"):
        ds.to_csv(out)
    assert not out.exists()


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_from_arrays_rejects_non_finite_features(bad):
    with pytest.raises(NonNumericError):
        Dataset.from_arrays("d", [[bad, 1.0]], [0], ["a"])


def test_from_arrays_rejects_zero_rows():
    with pytest.raises(EmptyDatasetError, match="dataset 'd' has no examples"):
        Dataset.from_arrays("d", np.empty((0, 2)), np.empty(0, dtype=np.int64), ["a"])


def test_datasets_are_immutable():
    ds = Dataset.from_arrays("im", [[1.0, 2.0]] * 3, [0, 0, 1], ["a", "b"])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0


def test_round_half_up():
    assert round_half_up(34.0) == 34
    assert round_half_up(16.5) == 17
    assert round_half_up(16.49) == 16
    assert round_half_up(0.34 * 100) == 34
    assert round_half_up(0.34 * 50) == 17


def _random_dataset(m, n=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_arrays("rnd", rng.normal(size=(m, n)),
                               rng.integers(0, 2, size=m), ["p", "q"])


def test_split_sizes():
    ds = _random_dataset(100)
    train, test = split(ds, SplitPlan(test_fraction=0.34, seed=1), 0)
    assert len(test) == 34
    assert len(train) == 66


def test_split_partition_covers_everything():
    ds = _random_dataset(53)
    plan = SplitPlan(seed=2, repetitions=5)
    for rep in range(plan.repetitions):
        train, test = split(ds, plan, rep)
        combined = np.vstack([train.features, test.features])
        assert len(combined) == len(ds)
        # every original row appears exactly once across the two views
        original = ds.features[np.lexsort(ds.features.T)]
        recombined = combined[np.lexsort(combined.T)]
        assert np.array_equal(original, recombined)


def test_split_determinism():
    ds = _random_dataset(80)
    plan = SplitPlan(seed=3)
    first_train, first_test = split(ds, plan, 4)
    second_train, second_test = split(ds, plan, 4)
    assert np.array_equal(first_train.features, second_train.features)
    assert np.array_equal(first_test.features, second_test.features)


def test_splits_differ_across_seeds():
    ds = _random_dataset(100)
    partitions = set()
    for seed in range(5):
        _, test = split(ds, SplitPlan(seed=seed), 0)
        partitions.add(test.features.tobytes())
    assert len(partitions) >= 2


def test_splits_differ_across_repetitions():
    ds = _random_dataset(100)
    plan = SplitPlan(seed=0, repetitions=10)
    partitions = {split(ds, plan, rep)[1].features.tobytes() for rep in range(10)}
    assert len(partitions) >= 2


def test_split_views_keep_the_parent_class_alphabet():
    ds = _random_dataset(40)
    train, test = split(ds, SplitPlan(seed=9), 0)
    assert train.class_labels == ds.class_labels
    assert test.class_labels == ds.class_labels


def test_split_too_small():
    ds = _random_dataset(2)
    with pytest.raises(TooSmallError):
        split(ds, SplitPlan(test_fraction=0.1), 0)
    with pytest.raises(TooSmallError):
        split(ds, SplitPlan(test_fraction=0.9), 0)


def test_split_bad_repetition():
    ds = _random_dataset(10)
    with pytest.raises(ValueError):
        split(ds, SplitPlan(repetitions=3), 3)


def test_split_plan_validation():
    with pytest.raises(ValueError):
        SplitPlan(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitPlan(repetitions=0)
