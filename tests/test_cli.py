"""The bench command line: happy paths and exit codes."""

import subprocess
import sys

import pytest

from distbench.cli import main
from distbench.reports import CSV_HEADER, read_records_csv

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


def test_noise_subcommand_derives_top_metrics(tmp_path):
    ds = make_blobs("top", 24, 3, (0.6, 0.4), spread=0.8, seed=4)
    csv_path = write_dataset_csv(ds, tmp_path / "top.csv")
    cfg = write_config(tmp_path / "bench.cfg", [csv_path],
                       metrics="ED,MD,CD", repetitions=2, noise_levels="0.3")
    out = tmp_path / "out"
    assert main(["noise", "--config", str(cfg), "--top", "2", "--out", str(out)]) == 0
    records = read_records_csv(out / "noise_records.csv")
    assert len({r.metric for r in records}) >= 2


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


def test_report_subcommand_round_trips(workspace):
    tmp_path, cfg = workspace
    out = tmp_path / "out"
    main(["clean", "--config", str(cfg), "--out", str(out)])
    report_out = tmp_path / "report"
    rc = main(["report", "--records", str(out / "records.csv"),
               "--format", "csv", "--out", str(report_out)])
    assert rc == 0
    assert (report_out / "records.csv").read_bytes() == \
        (out / "records.csv").read_bytes()
    rc = main(["report", "--records", str(out / "records.csv"),
               "--format", "markdown", "--out", str(report_out)])
    assert rc == 0
    assert (report_out / "summary.md").exists()


def test_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["clean", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_metric_in_config_exits_nonzero(tmp_path, capsys):
    ds = make_blobs("bad", 20, 2, (0.5, 0.5), spread=0.5, seed=6)
    csv_path = write_dataset_csv(ds, tmp_path / "bad.csv")
    cfg = write_config(tmp_path / "bench.cfg", [csv_path], metrics="ED,WAT")
    assert main(["clean", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_missing_dataset_file_exits_nonzero(tmp_path):
    cfg = write_config(tmp_path / "bench.cfg", [tmp_path / "ghost.csv"])
    assert main(["clean", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_bad_records_file_exits_nonzero(tmp_path):
    bad = tmp_path / "weird.csv"
    bad.write_text("definitely,not,records\n", encoding="utf-8")
    assert main(["compare", "--records", str(bad), "--reference", "HasD"]) == 1


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
