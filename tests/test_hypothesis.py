"""Property-based checks, run with Hypothesis under a derandomized profile.

Each property searches generated inputs and shrinks any counterexample;
``derandomize=True`` keeps every run of the suite on the same examples.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from distbench import (Cell, Dataset, KnnModel, NoiseSpec, RunRecord,  # noqa: E402
                       ScoreTriple, classify, classify_batch, describe, evaluate, inject,
                       list_metrics, load_csv, neighbors, pairwise, parse_config,
                       read_records_csv, round_half_up, wilcoxon_rank_sum,
                       wilcoxon_signed_rank, write_records_csv)
from distbench.bench import per_dataset_means  # noqa: E402
from distbench.errors import ConfigError, DistbenchError, DomainViolationError  # noqa: E402
from distbench.metrics import kernels, registry  # noqa: E402
from distbench.reports import (CSV_HEADER, level_stats_csv,  # noqa: E402
                               rank_tables_markdown, summary_markdown)

import _reference as ref  # noqa: E402
from _reference import (exact_rank_sum_pvalue, nearest_ref,  # noqa: E402
                        normal_rank_sum_pvalue_ref, signed_rank_pvalue_ref, tie_sum_ref,
                        vote_ref)
from test_engine import _bits, _outcome, _reference  # noqa: E402
from test_guards import _run  # noqa: E402

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


# The guards leave a zero term's sign to its product; a sum of zeros of
# either sign must still be +0.0 on every path, or the sign would show.
@given(hnp.arrays(np.float64,
                  st.tuples(st.integers(0, 140), st.integers(1, 3), st.integers(1, 3)),
                  elements=st.sampled_from([0.0, -0.0])))
def test_every_feature_sum_of_signed_zeros_is_positive_zero(a):
    for feature_sum in (kernels._replayed_sum, kernels._numpy_sum):
        assert not feature_sum(a).view(np.int64).any(), feature_sum.__name__
    # a single pair's terms are 1-d, which np.sum itself sums
    for pair in a.reshape(len(a), a.shape[1] * a.shape[2]).T:
        assert kernels._replayed_sum(pair).view(np.int64) == 0


@st.composite
def guard_cases(draw):
    """(b, n) queries and (m, n) rows from a pool of signed zeros, subnormals,
    ties and magnitudes near overflow; about half the draws add negatives."""
    pool = [0.0, -0.0, 5e-324, 1e-310, 1.0, 2.5, 3.0, 1e300, 1.7e308]
    if draw(st.booleans()):
        pool += [-5e-324, -1.5, -1e300]
    n = draw(st.integers(1, 6))
    return tuple(draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), n),
                                 elements=st.sampled_from(pool))) for _ in range(2))


@settings(max_examples=100)
@given(guard_cases())
def test_every_metric_equals_its_guard_references_bit_for_bit(case):
    x, y = case
    # each metric sees only inputs its domain admits, as from pairwise: TanD
    # of 1 against -1 is 0 * ln(NaN), where the reference gives 0
    non_negative = (x >= 0.0).all() and (y >= 0.0).all()
    metrics = [describe(abbrev) for abbrev in list_metrics()
               if non_negative or not describe(abbrev).requires_nonneg_inputs]
    got = [_run(desc, x, y) for desc in metrics]
    originals = {"JefD": ref.jeffreys_ref, "HasD": ref.hassanat_ref}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_div", ref.div_ref)
        patch.setattr(registry, "_div", ref.div_ref)
        patch.setattr(kernels, "_guarded", ref.guarded_ref)   # the shared denominators
        patch.setattr(kernels, "_xlog", ref.xlog_ref)
        for desc, (bits, caught) in zip(metrics, got):
            if desc.abbrev in originals:
                original = originals[desc.abbrev]
                desc = dataclasses.replace(desc, func=lambda t: original(t.x, t.y))
            want_bits, want_caught = _run(desc, x, y)
            assert np.array_equal(bits, want_bits), desc.abbrev
            assert set(caught) <= set(want_caught), (desc.abbrev, caught, want_caught)


# signed zeros, subnormals, exact ties, and magnitudes whose sums and
# differences overflow, mixed with ordinary values
engine_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, 1.0, 2.0, -1.0,
                     1e300, -1e300, 1.7e308, -1.7e308]),
    st.floats(-1e3, 1e3),
)


@st.composite
def engine_inputs(draw):
    """A (t, n) query matrix and an (m, n) training matrix."""
    t, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    queries = draw(hnp.arrays(np.float64, (t, n), elements=engine_values))
    rows = draw(hnp.arrays(np.float64, (m, n), elements=engine_values))
    if draw(st.booleans()):
        queries[0] = rows[-1]                 # a query equal to a training row
    if draw(st.booleans()):                   # inside every domain; -0.0 stays
        queries, rows = (np.where(a < 0.0, -a, a) for a in (queries, rows))
    return queries, rows


def _agrees(compute, want, in_domain):
    """``compute()`` gives the bits of ``want``, or refuses a domain or non-finite value."""
    if in_domain and np.isfinite(want).all():
        assert np.array_equal(_bits(compute()), _bits(want))
    else:
        with pytest.raises(DomainViolationError):
            compute()


@settings(max_examples=60)
@given(engine_inputs(), st.data())
def test_engine_equals_the_per_query_kernel_loop(inputs, data):
    # pairwise without a cell, and every block of a cell of all metrics,
    # under the default block budget and under blocks of two queries (a
    # metric the cell refused on one block it refuses on every later one);
    # on sampled (query, row) pairs, evaluate gives the bits of pairwise,
    # or both raise the same error
    queries, rows = inputs
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(queries) - 1),
                                         st.integers(0, len(rows) - 1)),
                               min_size=1, max_size=3, unique=True))
    metrics = [describe(abbrev) for abbrev in list_metrics()]
    negative = bool((queries < 0.0).any() or (rows < 0.0).any())
    in_domain = {desc.abbrev: not (desc.requires_nonneg_inputs and negative) for desc in metrics}
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        want = {desc.abbrev: _reference(desc, queries, rows) for desc in metrics}
        for budget in (registry.BLOCK_ELEMENTS, 2 * rows.size):
            patch.setattr(registry, "BLOCK_ELEMENTS", budget)
            for desc in metrics:
                _agrees(lambda: pairwise(desc, queries, rows), want[desc.abbrev],
                        in_domain[desc.abbrev])
            cell = Cell(queries, rows, metrics)
            start = 0
            for block in cell.blocks():
                at = slice(start, start + len(block))
                start += len(block)
                for desc in metrics:
                    _agrees(lambda: pairwise(desc, block, rows, cell), want[desc.abbrev][at],
                            in_domain[desc.abbrev] and desc.abbrev not in cell.skips)
            assert start == len(queries)
        for i, j in pairs:
            for desc in metrics:
                got = _outcome(lambda: evaluate(desc, queries[i], rows[j]))
                one_row = _outcome(lambda: pairwise(desc, queries[i], rows[j:j + 1]))
                assert isinstance(got, tuple) == isinstance(one_row, tuple), (desc.abbrev, i, j)
                if isinstance(got, tuple):
                    assert got == one_row and got[0] is DomainViolationError, desc.abbrev
                else:
                    assert np.array_equal(got, one_row), (desc.abbrev, i, j)


# zero, small halves, and magnitudes from 1e-3 to 1e3 of either sign, where
# no square, product or quotient in a kernel under- or overflows
flag_values = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, -2.5]),
                        st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def flag_vectors(draw):
    """A (t, n) set of vectors, with zero and constant vectors drawn often."""
    n = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("zero", "constant", "any")))
        if kind == "any":
            vectors.append(draw(hnp.arrays(np.float64, n, elements=flag_values)))
        else:
            vectors.append(np.full(n, 0.0 if kind == "zero" else draw(flag_values)))
    return np.array(vectors)


@settings(max_examples=100)
@given(flag_vectors())
def test_registry_flags_hold_on_domain_inputs(vectors):
    # every ordered pair of the set, each vector against itself included,
    # with the absolute values for a metric of non-negative inputs; d(x, x)
    # and the lower bound allow 1e-12 of rounding, as the zero-self checks do
    # (CosD reads -2.2e-16 on some parallel pairs)
    for abbrev in list_metrics():
        desc = describe(abbrev)
        inputs = np.abs(vectors) if desc.requires_nonneg_inputs else vectors
        d = pairwise(desc, inputs, inputs)
        if desc.symmetric:
            assert np.array_equal(d, d.T), abbrev
        if desc.zero_self:
            assert np.all(np.abs(np.diag(d)) <= 1e-12), abbrev
        if desc.nonneg_output:
            assert np.all(d >= -1e-12), abbrev


# names of any text but lone surrogates (which UTF-8 cannot encode), with the
# characters a CSV must quote or refuse drawn often
record_names = st.text(st.one_of(st.sampled_from(',"\r\n\0 \t'),
                                 st.characters(blacklist_categories=("Cs",))), max_size=8)


@settings(max_examples=60)
@given(st.lists(st.tuples(record_names, record_names, st.integers(0, 9),
                          st.floats(0.0, 1.0)), max_size=4))
def test_records_csv_reads_back_every_name_or_writes_nothing(rows):
    records = [RunRecord(dataset, metric, 0.5, rep, ScoreTriple(score, 1.0 - score, score / 3))
               for dataset, metric, rep, score in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out" / "records.csv"
        try:
            write_records_csv(records, path)
        except ConfigError:
            keys = {(rec.dataset, rec.metric, rec.repetition) for rec in records}
            assert len(keys) < len(records) or any(
                char in rec.dataset + rec.metric for rec in records for char in "\r\0")
            assert not path.parent.exists()
            return
        key = lambda r: (r.dataset, r.metric, r.noise_level, r.repetition)  # noqa: E731
        assert read_records_csv(path) == sorted(records, key=key)


# per reader: its first line, its i-th good line and its kinds of bad line, each
# as fields, the field separator, and the last field a splitlines-only character may end
LINE_READERS = {
    load_csv: (["1", "2", "a"], lambda i: ["1", "2", "a"],
               (["1", "?", "a"], ["1", "?"], ["1", "2", "?", "a"]), ",", 2),
    parse_config: (["datasets", "a.csv"], lambda i: [f"# note {i}"],
                   (["?", "2"], ["k", "?"], ["?"], ["datasets", "?"]), " = ", 1),
    read_records_csv: (CSV_HEADER.split(","),
                       lambda i: ["t", "ED", "0.0", str(i), "1.0", "1.0", "1.0"],
                       (["t", "ED", "0.0", "?", "1.0", "1.0", "1.0"], ["t", "ED", "?"]),
                       ",", 1),
}
# str.splitlines ends a line at each of these; a file line holds them as text
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def line_files(draw):
    """A reader and a file for it: mixed line ends, splitlines-only characters
    inside lines, blank lines, and a bad line marked by "?", which a second
    bad line of any kind may follow."""
    reader = draw(st.sampled_from(list(LINE_READERS)))
    first, good, bad_lines, sep, last_field = LINE_READERS[reader]
    bad = st.sampled_from(bad_lines)
    rows = [good(i) for i in range(draw(st.integers(0, 5)))] + [draw(bad)]
    rows = draw(st.permutations(rows + [[""]] * draw(st.integers(0, 3))))
    if draw(st.booleans()):
        after = next(i for i, fields in enumerate(rows) if "?" in fields) + 1
        rows.insert(draw(st.integers(after, len(rows))), draw(bad))
    text = sep.join(first)
    for fields in rows:
        fields = list(fields)
        if draw(st.booleans()):
            # at a field's end, where a reader strips it or reads it as a name
            j = draw(st.integers(0, min(len(fields) - 1, last_field)))
            fields[j] += draw(st.sampled_from(SPLITLINES_ONLY))
        text += draw(st.sampled_from(("\n", "\r\n", "\r"))) + sep.join(fields)
    return reader, text + draw(st.sampled_from(("", "\n", "\r\n", "\r")))


@settings(max_examples=150)
@given(line_files())
def test_every_reader_names_the_line_open_puts_its_error_on(case):
    # with two bad lines, the first is named
    reader, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, newline="", encoding="utf-8") as file:
            want = next(i for i, line in enumerate(file.readlines(), 1) if "?" in line)
        with pytest.raises(DistbenchError) as info:
            reader(path)
        assert str(info.value).startswith(f"{path}:{want}: ")
        path.write_bytes(text.encode("utf-8").replace(b"?", b"\xe9"))
        with pytest.raises(ConfigError) as info:
            reader(path)
        assert str(info.value) == f"{path}:{want}: byte 0xe9 is not UTF-8"


@st.composite
def noise_cases(draw):
    """A dataset, a noise level in (0, 1) and a seed.

    Features are half-steps, often repeated, so constant attributes occur,
    and an attribute that is not constant spans at least 0.5: a
    uniform draw then meets the old value with probability about 2**-52.
    """
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    features = draw(hnp.arrays(np.float64, (m, n),
                               elements=st.integers(-6, 6).map(lambda v: v / 2)))
    labels = draw(hnp.arrays(np.int64, m, elements=st.integers(0, 2)))
    level = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return (Dataset.from_arrays("generated", features, labels, ("a", "b", "c")), level,
            draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=100)
@given(noise_cases())
def test_noise_corrupts_only_the_chosen_rows_within_the_attribute_bounds(case):
    ds, level, seed = case
    out = inject(ds, NoiseSpec(level, seed))
    chosen = round_half_up(level * len(ds))
    differs = np.any(out.features.view(np.int64) != ds.features.view(np.int64), axis=1)
    low, high = ds.features.min(axis=0), ds.features.max(axis=0)
    # every other row and every label keep their bits
    assert differs.sum() <= chosen
    if np.all(low < high):
        assert differs.sum() == chosen
    assert np.array_equal(out.labels, ds.labels) and out.class_labels == ds.class_labels
    assert np.all((low <= out.features) & (out.features <= high))
    again = inject(ds, NoiseSpec(level, seed))
    assert np.array_equal(again.features.view(np.int64), out.features.view(np.int64))


@st.composite
def untied_samples(draw):
    """Two non-empty samples whose pooled values are distinct, at most 12 in all."""
    pooled = draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=12, unique=True))
    cut = draw(st.integers(1, len(pooled) - 1))
    return pooled[:cut], pooled[cut:]


@settings(max_examples=100)
@given(untied_samples())
def test_rank_sum_equals_the_enumeration_oracle_on_untied_pools(samples):
    a, b = samples
    assert wilcoxon_rank_sum(a, b) == pytest.approx(exact_rank_sum_pvalue(a, b), abs=1e-9)


# half-steps, so ties and zero differences are common; pools of up to 50
# take the normal approximation where they are tied or longer than 20
tied_values = st.integers(-8, 8).map(lambda v: v / 2)


@settings(max_examples=100)
@given(st.lists(tied_values, min_size=1, max_size=25),
       st.lists(tied_values, min_size=1, max_size=25))
def test_rank_sum_is_the_same_with_the_samples_swapped(a, b):
    assert wilcoxon_rank_sum(a, b) == wilcoxon_rank_sum(b, a)


@settings(max_examples=100)
@given(st.lists(st.tuples(tied_values, tied_values), min_size=1, max_size=25))
def test_signed_rank_is_the_same_with_the_samples_swapped(pairs):
    a, b = zip(*pairs)
    assert wilcoxon_signed_rank(a, b) == wilcoxon_signed_rank(b, a)


# signed zeros as well, which tie with 0.0 and drop out as zero differences
@settings(max_examples=200)
@given(st.lists(st.one_of(tied_values, st.just(-0.0)), min_size=1, max_size=25),
       st.lists(st.one_of(tied_values, st.just(-0.0)), min_size=1, max_size=25))
def test_normal_paths_match_the_midrank_and_counter_references(a, b):
    m = min(len(a), len(b))
    assert wilcoxon_signed_rank(a[:m], b[:m]) == signed_rank_pvalue_ref(a[:m], b[:m])
    if tie_sum_ref(a + b) or len(a) + len(b) > 20:   # the pools the normal path takes
        assert wilcoxon_rank_sum(a, b) == normal_rank_sum_pvalue_ref(a, b)


@st.composite
def untied_differences(draw):
    """Paired samples whose differences are non-zero and distinct in magnitude."""
    magnitudes = draw(st.lists(st.integers(1, 200), min_size=1, max_size=20, unique=True))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(magnitudes),
                          max_size=len(magnitudes)))
    b = draw(st.lists(st.integers(-100, 100), min_size=len(magnitudes),
                      max_size=len(magnitudes)))
    # integers, so every difference a - b is exact
    return [float(y + s * d) for y, s, d in zip(b, signs, magnitudes)], [float(y) for y in b]


@settings(max_examples=100)
@given(untied_differences())
def test_signed_rank_p_follows_from_a_brute_force_statistic(samples):
    a, b = samples
    d = [x - y for x, y in zip(a, b)]
    n = len(d)
    # W+ counts the pairs i <= j whose mean difference is positive (Walsh averages)
    w_plus = sum(1 for i in range(n) for j in range(i, n) if d[i] + d[j] > 0)
    z = (abs(w_plus - n * (n + 1) / 4) - 0.5) / math.sqrt(n * (n + 1) * (2 * n + 1) / 24)
    want = min(1.0, math.erfc(z / math.sqrt(2.0)))
    assert wilcoxon_signed_rank(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)


@st.composite
def tied_knn_cases(draw):
    """A model and its queries on a grid of three values, so ties in distance
    and in the vote are common, with any k."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    grid = st.integers(0, 2).map(float)
    feats = draw(hnp.arrays(np.float64, (m, n), elements=grid))
    queries = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), n), elements=grid))
    labels = draw(hnp.arrays(np.int64, m, elements=st.integers(0, 3)))
    metric = draw(st.sampled_from(("ED", "MD", "HasD", "CD")))
    return KnnModel(feats, labels, describe(metric), draw(st.integers(1, m))), queries


@settings(max_examples=200)
@given(tied_knn_cases())
def test_knn_agrees_with_the_scalar_neighbour_and_vote_rule(case):
    model, queries = case
    dist = pairwise(model.metric, queries, model.features)
    want = [vote_ref(model.labels, row, model.k) for row in dist]
    assert classify_batch(model, queries).tolist() == want
    for query, row, label in zip(queries, dist, want):
        assert classify(model, query) == label
        assert [(nb.index, nb.distance) for nb in neighbors(model, query)] == [
            (int(i), float(row[i])) for i in nearest_ref(row, model.k)]


# a score as a fraction of test examples, or any score in [0, 1]
table_scores = st.one_of(st.integers(0, 60).map(lambda c: c / 60), st.floats(0.0, 1.0))


@st.composite
def cell_repetitions(draw):
    """(scores, the same scores with each cell's repetitions permuted),
    where a cell is a (dataset, metric, noise level)."""
    datasets = ("a", "b", "c")[:draw(st.integers(1, 3))]
    reps = st.lists(table_scores, min_size=2, max_size=6)
    scores = {(ds, metric, level): draw(reps)
              for ds in datasets for metric in ("ED", "MD") for level in (0.0, 0.5)}
    return scores, {cell: draw(st.permutations(values)) for cell, values in scores.items()}


def _tables(scores):
    records = [RunRecord(ds, metric, level, rep, ScoreTriple(v, 1.0 - v, v / 3))
               for (ds, metric, level), values in scores.items()
               for rep, v in enumerate(values)]
    return (summary_markdown(records), rank_tables_markdown(records), level_stats_csv(records),
            [per_dataset_means(records, level) for level in (0.0, 0.5)])


@settings(max_examples=100)
@given(cell_repetitions())
def test_permuting_each_cells_repetitions_leaves_every_table_unchanged(case):
    scores, permuted = case
    assert _tables(scores) == _tables(permuted)
