"""The bench command line: happy paths and exit codes."""

import csv
import os
import subprocess
import sys

import pytest

from distbench import RunRecord, ScoreTriple
from distbench.cli import main
from distbench.reports import CSV_HEADER, read_records_csv, write_records_csv

from conftest import make_blobs, write_config, write_dataset_csv


@pytest.fixture
def workspace(tmp_path):
    paths = []
    for i, name in enumerate(("one", "two")):
        ds = make_blobs(name, 24, 3, (0.6, 0.4), spread=1.0, seed=i)
        paths.append(write_dataset_csv(ds, tmp_path / f"{name}.csv"))
    cfg = write_config(tmp_path / "bench.cfg", paths,
                       metrics="ED,MD,HasD", repetitions=2, master_seed=5)
    return tmp_path, cfg


def test_clean_subcommand(workspace, capsys):
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 0
    records_path = out / "records.csv"
    assert records_path.exists()
    assert records_path.read_text().splitlines()[0] == CSV_HEADER
    assert (out / "summary.md").exists()
    stdout = capsys.readouterr().out
    assert "| Metric | Accuracy | Recall | Precision |" in stdout


def test_clean_is_byte_deterministic(workspace):
    tmp_path, cfg = workspace
    main(["clean", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["clean", "--config", str(cfg), "--out", str(tmp_path / "b")])
    first = (tmp_path / "a" / "records.csv").read_bytes()
    second = (tmp_path / "b" / "records.csv").read_bytes()
    assert first == second


def test_non_finite_cell_is_skipped_and_the_run_goes_on(tmp_path, capsys):
    # ED's squares of differences near 2e200 overflow; MD's sums stay finite
    rows = ["1e200,1e200,a", "-1e200,-1e200,b", "1e200,-1e200,a",
            "-1e200,1e200,b", "1e200,1e200,a", "-1e200,-1e200,b"]
    data = tmp_path / "huge.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path / "bench.cfg", [data], metrics="ED,MD", repetitions=2)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_records_csv(out / "records.csv")
    assert [(r.metric, r.repetition) for r in records] == [("MD", 0), ("MD", 1)]
    err = capsys.readouterr().err
    assert "skipped dataset=huge metric=ED: ED produced a non-finite distance" in err


def test_noise_subcommand_with_explicit_metrics(tmp_path, capsys):
    ds = make_blobs("noisy", 30, 3, (0.7, 0.3), spread=0.8, seed=3)
    csv_path = write_dataset_csv(ds, tmp_path / "noisy.csv")
    cfg = write_config(tmp_path / "bench.cfg", [csv_path],
                       repetitions=2, noise_levels="0.2,0.4")
    out = tmp_path / "out"
    assert main(["noise", "--config", str(cfg), "--metrics", "ED,HasD",
                 "--out", str(out)]) == 0
    records = read_records_csv(out / "noise_records.csv")
    assert {r.noise_level for r in records} == {0.2, 0.4}
    assert {r.metric for r in records} == {"ED", "HasD"}
    assert (out / "rank_tables.md").exists()
    assert (out / "level_stats.csv").read_text().splitlines()[0] == \
        "level,metric,kind,mean,stddev"
    assert "Ranking by accuracy" in capsys.readouterr().out
    # no clean phase ran, so none of its files is written
    assert not (out / "records.csv").exists()
    assert not (out / "summary.md").exists()


def test_noise_subcommand_derives_top_metrics(tmp_path):
    ds = make_blobs("top", 24, 3, (0.6, 0.4), spread=0.8, seed=4)
    csv_path = write_dataset_csv(ds, tmp_path / "top.csv")
    cfg = write_config(tmp_path / "bench.cfg", [csv_path],
                       metrics="ED,MD,CD", repetitions=2, noise_levels="0.3", top_n=2)
    clean_out = tmp_path / "clean"
    assert main(["clean", "--config", str(cfg), "--out", str(clean_out)]) == 0
    out = tmp_path / "out"
    assert main(["noise", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_records_csv(out / "noise_records.csv")
    assert len({r.metric for r in records}) >= 2
    # the clean phase that picked the metrics writes what `bench clean` writes
    for name in ("records.csv", "summary.md"):
        assert (out / name).read_bytes() == (clean_out / name).read_bytes(), name


def test_noise_subcommand_published_top(tmp_path):
    ds = make_blobs("pub", 24, 3, (0.6, 0.4), spread=0.8, seed=5)
    csv_path = write_dataset_csv(ds, tmp_path / "pub.csv")
    cfg = write_config(tmp_path / "bench.cfg", [csv_path],
                       repetitions=1, noise_levels="0.5")
    out = tmp_path / "out"
    assert main(["noise", "--config", str(cfg), "--published-top",
                 "--out", str(out)]) == 0
    records = read_records_csv(out / "noise_records.csv")
    assert "HasD" in {r.metric for r in records}
    assert len({r.metric for r in records}) == 13


@pytest.mark.parametrize("line, message", (
    ("k = 0", "k must be positive"),
    ("workers = 0", "workers must be positive"),
    ("test_fraction = 1.5", "test_fraction must be in (0, 1)"),
    ("metrics = ED, NOPE", "unknown metric 'NOPE'"),
    ("metrics = ED, ED", "metric listed more than once: ED"),
    ("noise_levels = 0.3, 0.30", "noise level listed more than once: 0.3"),
    ("datasets = tiny.csv, tiny.csv", "dataset listed more than once: tiny.csv"),
), ids=("k", "workers", "test_fraction", "unknown-metric", "repeated-metric",
        "repeated-noise-level", "repeated-dataset"))
def test_a_config_value_its_field_refuses_names_its_line(tmp_path, capsys, line, message):
    # the value on line 2 is refused as it is read, before the end of the file
    # is checked; the comment on line 1 still counts as a line
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"# first line\n{line}\n", encoding="utf-8")
    assert main(["clean", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"


def test_a_repeated_noise_level_exits_nonzero(tmp_path, capsys):
    ds = make_blobs("tiny", 24, 3, (0.6, 0.4), spread=0.8, seed=4)
    csv_path = write_dataset_csv(ds, tmp_path / "tiny.csv")
    cfg = write_config(tmp_path / "bench.cfg", [csv_path], noise_levels="0.3, 0.30")
    out = tmp_path / "out"
    assert main(["noise", "--config", str(cfg), "--metrics", "ED", "--out", str(out)]) == 1
    assert "noise level listed more than once: 0.3" in capsys.readouterr().err
    assert not (out / "noise_records.csv").exists()


def test_two_files_under_one_dataset_name_exit_nonzero(tmp_path, capsys):
    paths = []
    for i, folder in enumerate(("a", "b")):
        (tmp_path / folder).mkdir()
        ds = make_blobs("iris", 24, 3, (0.6, 0.4), spread=1.0, seed=i)
        paths.append(write_dataset_csv(ds, tmp_path / folder / "iris.csv"))
    cfg = write_config(tmp_path / "bench.cfg", paths, metrics="ED,MD", repetitions=2)
    out = tmp_path / "out"
    assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"datasets {paths[0]} and {paths[1]} both load under the name 'iris'" in err
    assert not (out / "records.csv").exists()


def test_a_quoted_dataset_path_may_hold_a_comma(tmp_path):
    (tmp_path / "a,b").mkdir()
    quoted = write_dataset_csv(make_blobs("iris", 24, 3, (0.6, 0.4), spread=1.0, seed=3),
                               tmp_path / "a,b" / "iris.csv")
    plain = write_dataset_csv(make_blobs("wine", 24, 3, (0.6, 0.4), spread=1.0, seed=4),
                              tmp_path / "wine.csv")
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f'datasets = "{quoted}", {plain}\nmetrics = ED, MD\nrepetitions = 2\n',
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_records_csv(out / "records.csv")
    assert sorted({r.dataset for r in records}) == ["iris", "wine"]


def _phase_and_report(tmp_path, cfg, phase):
    """Run a phase, then `report --format markdown` on its records file;
    returns the records file and each side's table files by name."""
    out, markdown = tmp_path / phase / "out", tmp_path / phase / "markdown"
    if phase == "clean":
        argv, records = ["clean"], out / "records.csv"
    else:
        argv, records = ["noise", "--metrics", "ED,HasD"], out / "noise_records.csv"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--records", str(records), "--format", "markdown",
                 "--out", str(markdown)]) == 0
    return (records, {p.name: p.read_bytes() for p in out.iterdir() if p != records},
            {p.name: p.read_bytes() for p in markdown.iterdir()})


def test_report_rewrites_noise_tables_of_datasets_listed_out_of_name_order(tmp_path):
    paths = []
    for i, name in enumerate(("one", "two", "three", "four")):
        ds = make_blobs(name, 24, 3, (0.6, 0.4), spread=2.5, seed=i)
        paths.append(write_dataset_csv(ds, tmp_path / f"{name}.csv"))
    cfg = write_config(tmp_path / "bench.cfg", paths, repetitions=2, master_seed=5)
    _records, phase_tables, report_tables = _phase_and_report(tmp_path, cfg, "noise")
    assert report_tables == phase_tables


def test_compare_subcommand(workspace, capsys):
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    main(["clean", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    rc = main(["compare", "--records", str(out / "records.csv"),
               "--reference", "HasD"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "HasD vs the other metrics" in stdout
    assert "| ED |" in stdout or "| MD |" in stdout
    rc = main(["compare", "--records", str(out / "records.csv"),
               "--reference", "HasD", "--signed-rank"])
    assert rc == 0


# (accuracy, recall) in sixteenths per (level, metric, dataset) and repetition;
# precision is 0.5 throughout. HasD and ED tie at level 0.5. At level 0 HasD
# beats MD on every dataset in accuracy, but not in recall.
_TABLE_SCORES = {
    (0.0, "HasD", "a"): ((14, 10), (14, 10)), (0.0, "HasD", "b"): ((12, 4), (12, 4)),
    (0.0, "ED", "a"): ((14, 10), (12, 4)), (0.0, "ED", "b"): ((12, 4), (12, 4)),
    (0.0, "MD", "a"): ((8, 8), (8, 8)), (0.0, "MD", "b"): ((6, 1), (6, 1)),
    (0.5, "HasD", "a"): ((10, 14), (10, 14)), (0.5, "HasD", "b"): ((8, 8), (8, 8)),
    (0.5, "ED", "a"): ((8, 8), (8, 8)), (0.5, "ED", "b"): ((10, 14), (10, 14)),
    (0.5, "MD", "a"): ((4, 12), (4, 12)), (0.5, "MD", "b"): ((4, 12), (4, 12))}


def _rank_table(level, kind, rows):
    lines = [f"### Noise level {level}", "",
             f"| Rank | Metric | Mean {kind} |", "| --- | --- | --- |"]
    return "\n".join(lines + [f"| {row} |" for row in rows]) + "\n\n"


_EXPECTED_TABLES = {
    "summary.md": (
        "# Mean scores per metric (noise level 0)\n"
        "\n"
        "| Metric | Accuracy | Recall | Precision |\n"
        "| --- | --- | --- | --- |\n"
        "| HasD | 0.8125 | 0.4375 | 0.5000 |\n"
        "| ED | 0.7812 | 0.3438 | 0.5000 |\n"
        "| MD | 0.4375 | 0.2812 | 0.5000 |\n"),
    "rank_tables.md": (
        "# Metric rankings per noise level\n\n## Ranking by accuracy\n\n"
        + _rank_table(0, "accuracy", ("1 | HasD | 0.8125", "2 | ED | 0.7812", "3 | MD | 0.4375"))
        + _rank_table(0.5, "accuracy", ("1 | ED | 0.5625", "1 | HasD | 0.5625", "3 | MD | 0.2500"))
        + "## Ranking by recall\n\n"
        + _rank_table(0, "recall", ("1 | HasD | 0.4375", "2 | ED | 0.3438", "3 | MD | 0.2812"))
        + _rank_table(0.5, "recall", ("1 | MD | 0.7500", "2 | ED | 0.6875", "2 | HasD | 0.6875"))
        + "## Ranking by precision\n\n"
        + "".join(_rank_table(level, "precision", ("1 | ED | 0.5000", "1 | HasD | 0.5000",
                                                   "1 | MD | 0.5000")) for level in (0, 0.5))),
}


@pytest.mark.parametrize("test, p_values", (("rank-sum", "**0.3333** | 0.6667"),
                                            ("signed-rank", "**0.3458** | 0.3711")))
def test_every_table_keeps_its_text(tmp_path, capsys, test, p_values):
    records = [RunRecord(ds, metric, level, rep, ScoreTriple(acc / 16, 0.5, recall / 16))
               for (level, metric, ds), reps in _TABLE_SCORES.items()
               for rep, (acc, recall) in enumerate(reps)]
    path = write_records_csv(records, tmp_path / "records.csv")
    assert main(["report", "--records", str(path), "--format", "markdown",
                 "--out", str(tmp_path / "md")]) == 0
    for name, text in _EXPECTED_TABLES.items():
        assert (tmp_path / "md" / name).read_text(encoding="utf-8") == text, name
    capsys.readouterr()
    signed = ["--signed-rank"] if test == "signed-rank" else []
    assert main(["compare", "--records", str(path), "--alpha", "0.35", *signed]) == 0
    assert capsys.readouterr().out == (
        "# Wilcoxon p-values: HasD vs the other metrics (two-sided, significance 0.35)\n"
        "\n"
        "| Metric | Accuracy | Recall | Precision |\n"
        "| --- | --- | --- | --- |\n"
        "| ED | 1.0000 | 1.0000 | 1.0000 |\n"
        f"| MD | {p_values} | 1.0000 |\n")


@pytest.mark.parametrize("alpha", ("2", "0", "nan"))
def test_an_alpha_outside_the_unit_interval_exits_nonzero(workspace, capsys, alpha):
    tmp_path, cfg = workspace
    main(["clean", "--config", str(cfg), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert main(["compare", "--records", str(tmp_path / "out" / "records.csv"),
                 "--reference", "HasD", "--alpha", alpha]) == 1
    assert capsys.readouterr().err == f"error: alpha {float(alpha)} outside (0, 1)\n"


@pytest.mark.parametrize("listed", [",", "", " , "])
def test_an_empty_metric_list_exits_nonzero(workspace, capsys, listed):
    tmp_path, cfg = workspace
    out = tmp_path / "noise"
    assert main(["noise", "--config", str(cfg), "--metrics", listed, "--out", str(out)]) == 1
    assert "error: no metrics" in capsys.readouterr().err
    assert not out.exists()
    main(["clean", "--config", str(cfg), "--out", str(tmp_path / "clean")])
    capsys.readouterr()
    assert main(["compare", "--records", str(tmp_path / "clean" / "records.csv"),
                 "--reference", "HasD", "--metrics", listed]) == 1
    captured = capsys.readouterr()
    assert "error: no metrics" in captured.err and not captured.out


def test_metric_lists_on_the_command_line_parse_as_config_lists(workspace, capsys):
    # '"ED", MD' is a CSV row, as the same value is in a config file
    tmp_path, cfg = workspace
    out = tmp_path / "noise"
    assert main(["noise", "--config", str(cfg), "--metrics", '"ED", MD', "--out", str(out)]) == 0
    records = read_records_csv(out / "noise_records.csv")
    assert {r.metric for r in records} == {"ED", "MD"}
    capsys.readouterr()
    assert main(["compare", "--records", str(out / "noise_records.csv"), "--reference", "ED",
                 "--noise-level", "0.1", "--metrics", '"MD"']) == 0
    assert "| MD |" in capsys.readouterr().out


def test_an_unknown_metric_is_named_without_extra_quotes(workspace, capsys):
    tmp_path, cfg = workspace
    main(["clean", "--config", str(cfg), "--out", str(tmp_path / "clean")])
    capsys.readouterr()
    assert main(["compare", "--records", str(tmp_path / "clean" / "records.csv"),
                 "--reference", "NOPE"]) == 1
    assert capsys.readouterr().err == "error: unknown metric 'NOPE'\n"


def test_compare_with_only_the_reference_recorded_exits_nonzero(tmp_path, capsys):
    ds = make_blobs("one", 24, 3, (0.6, 0.4), spread=1.0, seed=0)
    cfg = write_config(tmp_path / "bench.cfg", [write_dataset_csv(ds, tmp_path / "one.csv")],
                       metrics="ED", repetitions=2)
    assert main(["clean", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    assert main(["compare", "--records", str(tmp_path / "one" / "records.csv"),
                 "--reference", "ED"]) == 1
    captured = capsys.readouterr()
    assert "error: no metrics to compare with the reference 'ED'" in captured.err
    assert not captured.out


def test_report_subcommand_round_trips(workspace):
    # markdown rewrites each table file a phase wrote, csv its records file
    tmp_path, cfg = workspace
    for phase, tables in (("clean", {"summary.md"}),
                          ("noise", {"rank_tables.md", "level_stats.csv"})):
        records, phase_tables, report_tables = _phase_and_report(tmp_path, cfg, phase)
        assert set(phase_tables) == tables
        assert report_tables == phase_tables, phase
        rewritten = tmp_path / phase / "csv"
        assert main(["report", "--records", str(records), "--format", "csv",
                     "--out", str(rewritten)]) == 0
        assert [p.name for p in rewritten.iterdir()] == ["records.csv"]
        assert (rewritten / "records.csv").read_bytes() == records.read_bytes()


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["clean", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 1
    # as a missing dataset or records file does
    assert capsys.readouterr().err.startswith("io error: [Errno 2] No such file")


@pytest.mark.parametrize("bad", ("dataset", "config", "records"))
def test_a_byte_that_is_not_utf8_exits_nonzero(workspace, capsys, bad):
    tmp_path, cfg = workspace
    records = tmp_path / "out" / "records.csv"
    assert main(["clean", "--config", str(cfg), "--out", str(records.parent)]) == 0
    capsys.readouterr()
    path = {"dataset": tmp_path / "one.csv", "config": cfg, "records": records}[bad]
    path.write_bytes(path.read_bytes() + b"\xe9\n")
    line = len(path.read_bytes().splitlines())
    if bad == "records":
        argv = ["compare", "--records", str(records), "--reference", "HasD"]
    else:
        argv = ["clean", "--config", str(cfg), "--out", str(tmp_path / "again")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: byte 0xe9 is not UTF-8\n"


def test_unknown_metric_in_config_exits_nonzero(tmp_path, capsys):
    ds = make_blobs("bad", 20, 2, (0.5, 0.5), spread=0.5, seed=6)
    csv_path = write_dataset_csv(ds, tmp_path / "bad.csv")
    cfg = write_config(tmp_path / "bench.cfg", [csv_path], metrics="ED,WAT")
    assert main(["clean", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_a_k_above_the_training_side_exits_nonzero(tmp_path, capsys):
    # 8 rows at test_fraction 0.34 leave 5 training rows for k = 9
    rows = [f"{i},{i % 3},{'ab'[i % 2]}" for i in range(8)]
    data = tmp_path / "small.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path / "bench.cfg", [data], metrics="ED", k=9, test_fraction=0.34)
    out = tmp_path / "out"
    assert main(["clean", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: k=9 outside [1, 5]" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


def test_missing_dataset_file_exits_nonzero(tmp_path):
    cfg = write_config(tmp_path / "bench.cfg", [tmp_path / "ghost.csv"])
    assert main(["clean", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_bad_records_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "weird.csv"
    bad.write_text("definitely,not,records\n", encoding="utf-8")
    assert main(["compare", "--records", str(bad), "--reference", "HasD"]) == 1
    # a file the csv reader refuses, here for a field over its size limit
    bad.write_text(CSV_HEADER + "\n" + "x" * (csv.field_size_limit() + 1) + ",ED,0.0,0,1,1,1\n",
                   encoding="utf-8")
    assert main(["report", "--records", str(bad), "--format", "csv",
                 "--out", str(tmp_path / "o")]) == 1
    assert "is not a readable records CSV: field larger than field limit" in capsys.readouterr().err


def test_a_repeated_record_exits_nonzero(tmp_path, capsys):
    # one record twice, so no table may average the two
    bad = tmp_path / "twice.csv"
    bad.write_text(CSV_HEADER + "\nt,ED,0.0,0,0.0,0.0,0.0\nt,ED,0.0,0,1.0,1.0,1.0\n",
                   encoding="utf-8")
    assert main(["report", "--records", str(bad), "--format", "markdown",
                 "--out", str(tmp_path / "o")]) == 1
    assert f"{bad}:3: a second record of ('t', 'ED', 0.0, 0)" in capsys.readouterr().err
    assert not (tmp_path / "o" / "summary.md").exists()


def test_module_entry_point(workspace):
    tmp_path, cfg = workspace
    out = tmp_path / "module-out"
    proc = subprocess.run(
        [sys.executable, "-m", "distbench", "clean", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "records.csv").exists()
    assert "cell dataset=" in proc.stderr   # progress goes to stderr
    proc = subprocess.run([sys.executable, "-m", "distbench", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: "), proc.stderr


# a bench run that first prints the SIMD dispatch targets its numpy enabled,
# read where numpy 2 (numpy._core) or numpy 1.x (numpy.core) keeps them
_DISPATCH_REPORTING_BENCH = """
import sys
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
print(" ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)))
from distbench.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_records_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # the ten metrics that call log, log1p or power change distance bits when
    # numpy leaves its SIMD kernels; ED's arithmetic is correctly rounded anyway
    ds = make_blobs("blobs", 60, 6, (0.5, 0.5), spread=1.5, seed=11)
    cfg = write_config(tmp_path / "bench.cfg", [write_dataset_csv(ds, tmp_path / "blobs.csv")],
                       metrics="BD,JDD,JSD,JefD,KDD,KJD,KLD,LD,TanD,TopD,ED", repetitions=2)
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}

    def run(out, **extra_env):
        proc = subprocess.run(
            [sys.executable, "-c", _DISPATCH_REPORTING_BENCH, "clean", "--config", str(cfg),
             "--out", str(tmp_path / out)],
            env=dict(env, **extra_env), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[0].split(), (tmp_path / out / "records.csv").read_bytes()

    targets, dispatched = run("dispatched")
    left, baseline = run("baseline", NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    note = ("disabled the dispatch targets " + " ".join(targets) if targets else
            "this host enables no dispatch target above its baseline, so both runs were alike")
    assert left == [], f"{note}; still enabled: {left}"
    assert dispatched == baseline, note
