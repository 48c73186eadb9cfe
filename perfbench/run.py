"""distbench benchmark: drives the real ``bench`` CLI in-process on seeded inputs.

    python3 perfbench/run.py --workload clean_sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root. Inputs are generated from ``--seed`` into
``.perfbench_work/``; the program sees only those files. With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced pass plus the kernel microbenchmark. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs  # first: puts the checkout's src/ on sys.path, or exits without it

import distbench.cli

import check
from layers import layer_metrics, tail_percentile
from microbench import kernel_metrics
from spans import Tracer, nesting_problems

WORKLOADS = ("clean_sweep", "noise_sweep", "records_analysis")
SETUP_REPEATS = 15
REFERENCE = "HasD"
UNCOVERED_WARN = 0.1  # share of a traced pass outside every traced layer function
# (compare options, table rows expected): one row per metric other than the
# reference, so 12 where only the 13 published top metrics have records, else 53
NOISE_COMPARES = ((["--noise-level", "0.5"], 12),
                  (["--noise-level", "0.5", "--signed-rank"], 12))
ANALYSIS_COMPARES = ((["--noise-level", "0.0"], 53), (["--noise-level", "0.5"], 12),
                     (["--signed-rank"], 53))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="distbench benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Setup:
    """Times input generation in a fresh interpreter: import, generate, write.

    The first set-up runs before any pass. The rest run between passes, as
    many as keep the count in step with the share of the run's time gone,
    so the samples span the whole run. Every set-up must write the same
    files.
    """

    def __init__(self, workload: str, seed: int, input_dir: Path):
        self.cmd = [sys.executable, str(Path(inputs.__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--out", str(input_dir)]
        self.input_dir = input_dir
        self.times: list[float] = []
        self.digests: set[str] = set()

    def run(self) -> None:
        started = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True)
        self.times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"input generation failed with exit code {proc.returncode}")
        self.digests.add(check.digest_files(self.input_dir))

    def catch_up(self, share_done: float) -> None:
        due = 1 + math.ceil(min(share_done, 1.0) * (SETUP_REPEATS - 1))
        while len(self.times) < due:
            self.run()


def follow_ups(records, out: Path, compares) -> list[list]:
    """Re-emit a records file as CSV, then compare against the reference metric."""
    compare = ["compare", "--records", records, "--reference", REFERENCE]
    return ([["report", "--records", records, "--format", "csv", "--out", out / "report"]]
            + [compare + options for options, _rows in compares])


def commands(workload: str, input_dir: Path, out: Path) -> list[list]:
    """The CLI commands of one pass."""
    if workload == "clean_sweep":
        return [["clean", "--config", input_dir / "bench.cfg", "--out", out]]
    if workload == "noise_sweep":
        return ([["noise", "--config", input_dir / "bench.cfg", "--published-top", "--out", out]]
                + follow_ups(out / "noise_records.csv", out, NOISE_COMPARES))
    records = input_dir / "records.csv"
    return follow_ups(records, out, ANALYSIS_COMPARES) + [
        ["report", "--records", records, "--format", "markdown", "--out", out / "markdown"]]


def run_commands(cli_main, argvs) -> list[tuple]:
    """Each command's (exit code or exception text, stdout, stderr)."""
    results = []
    for argv in argvs:
        argv = [str(arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except (Exception, SystemExit) as exc:
                code = f"{type(exc).__name__}: {exc}"
        results.append((code, out.getvalue(), err.getvalue()))
    return results


class Workload:
    """One workload's inputs, passes and output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed = name, seed
        self.input_dir = work / name / "inputs"
        self.out = work / name / "out"
        self.digests = work / "digests"
        self.argvs = commands(name, self.input_dir, self.out)
        self.expected = inputs.EXPECTED_RECORDS[name]
        # records rows produced per pass; analysis: read, by every command
        self.rows_per_pass = self.expected * (
            len(self.argvs) if name == "records_analysis" else 1)
        self.first_digest = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.bytes_written: list[int] = []

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        gc.collect()

    def verify(self, results) -> None:
        """Check one pass's outputs and count its failed commands."""
        bad = [[] if code == 0 else [f"exit {code}: {err.strip()[-300:]}"]
               for code, _out, err in results]
        if self.name == "records_analysis":
            self.check_follow_ups(results, bad, 0, self.input_dir / "records.csv",
                                  ANALYSIS_COMPARES)
            for name in ("summary.md", "rank_tables.md"):
                if not (self.out / "markdown" / name).exists():
                    bad[-1].append(f"report --format markdown wrote no {name}")
        else:
            path = self.out / ("records.csv" if self.name == "clean_sweep"
                               else "noise_records.csv")
            if path.exists():
                cells = {}
                bad[0] += check.check_records(path, self.expected, cells)
                if self.first_digest is None:  # recompute sampled cells once per run
                    rng = inputs.rng_for(self.seed, "check")
                    bad[0] += check.check_cells(self.name, self.seed, self.input_dir, cells, rng)
            else:
                bad[0].append(f"no records file written to {self.out}")
            if self.name == "noise_sweep":
                self.check_follow_ups(results, bad, 1, path, NOISE_COMPARES)
        self.bytes_written.append(sum(p.stat().st_size for p in self.out.rglob("*")
                                      if p.is_file()))
        digest = check.digest_files(self.out) + "".join(
            hashlib.sha256(out.encode()).hexdigest() for _c, out, _e in results)
        if self.first_digest is None:
            self.first_digest = digest
            bad[0] += check.check_stored_digest(self.digests, f"{self.name}-{self.seed}", digest)
        elif digest != self.first_digest:
            bad[0].append("outputs differ from the first pass")
        self.attempted += len(results)
        self.failed += sum(1 for b in bad if b)
        self.problems += [p for b in bad for p in b]


    def check_follow_ups(self, results, bad, start: int, records: Path, compares) -> None:
        reemitted = self.out / "report" / "records.csv"
        if not (reemitted.exists() and records.exists()
                and reemitted.read_bytes() == records.read_bytes()):
            bad[start].append("report --format csv did not re-emit the records byte for byte")
        else:
            bad[start] += check.check_records(reemitted, self.expected)
        for i, (_options, rows) in enumerate(compares, start=start + 1):
            if results[i][0] == 0:
                bad[i] += check.check_compare(results[i][1], rows)


def measure(wl: Workload, setup: Setup, seconds: float, traced: bool):
    """Timed passes for about ``seconds``; alternates tracing if asked.

    A pass starts while the run would end nearer ``seconds`` with it than
    without it, judged by the length of the step before (pass, checks and
    set-ups between passes).
    """
    untraced = []  # seconds
    traced_passes = []  # (seconds, first span index, span count, bytes written)
    tracer = Tracer() if traced else None
    started = time.perf_counter()
    step = 0.0
    while (not untraced or (traced and not traced_passes)
           or time.perf_counter() - started + step / 2 < seconds):
        step_started = time.perf_counter()
        wl.prepare()
        if traced and len(traced_passes) < len(untraced):
            first = len(tracer.spans)
            tracer.install()
            root = tracer.wrap("harness.pass", run_commands)
            try:
                results = root(tracer.wrap("cli.main", distbench.cli.main), wl.argvs)
            finally:
                tracer.uninstall()
            wl.verify(results)
            span = tracer.spans[first]
            traced_passes.append((span[2] - span[1], first, len(tracer.spans) - first,
                                  wl.bytes_written[-1]))
        else:
            t0 = time.perf_counter()
            results = run_commands(distbench.cli.main, wl.argvs)
            untraced.append(time.perf_counter() - t0)
            wl.verify(results)
        setup.catch_up((time.perf_counter() - started) / seconds)
        step = time.perf_counter() - step_started
    setup.catch_up(1.0)
    if len(setup.digests) != 1:
        wl.problems.append("set-up wrote different inputs for the same seed")
    return untraced, traced_passes, tracer


def end_to_end(wl: Workload, passes: list[float], setup: Setup) -> dict:
    wall = statistics.mean(passes)  # total seconds over passes; see README
    return {
        "wall_s": (wall, "s"),
        "records_per_s": (wl.rows_per_pass / wall, "1/s"),
        "setup_s": (min(setup.times), "s"),  # fastest set-up; see README
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(wl: Workload, untraced, traced_passes, tracer, work: Path) -> dict:
    ordered = sorted(traced_passes)
    pass_s, first, count, written = ordered[(len(ordered) - 1) // 2]  # the (lower) median
    spans = tracer.spans[:first + count]
    metrics = layer_metrics(spans, first)
    for _pass_s, start, span_count, _written in traced_passes:
        wl.problems += nesting_problems(tracer.spans, start, start + span_count)
    # time inside the pass that no wrapped program function covers
    uncovered = metrics["harness.self_s"][0] + metrics["cli.self_s"][0]
    if uncovered > UNCOVERED_WARN * pass_s:
        print(f"warning: {uncovered / pass_s:.1%} of the traced pass lies outside every "
              "traced layer function; trace targets may be missing", file=sys.stderr)
    metrics["reports.bytes_written"] = (written, "B")
    untraced_s = statistics.mean(untraced)
    metrics.update({
        "trace.pass_s": (pass_s, "s"),
        "trace.untraced_pass_s": (untraced_s, "s"),
        "trace.overhead_s": (statistics.mean(p[0] for p in traced_passes) - untraced_s, "s"),
        "trace.spans": (count, "count"),
    })
    metrics.update(kernel_metrics(inputs.rng_for(wl.seed, "kernel")))
    batches = sum(1 for span in spans[first:] if span[0] == "knn.classify_batch")
    if batches:
        print(f"knn.classify_batch.ms_tail is the p{tail_percentile(batches):g} "
              f"of {batches} calls", file=sys.stderr)
    if tracer.missing:
        print("trace targets not found: " + ", ".join(sorted(tracer.missing)), file=sys.stderr)
    tracer.write(work / wl.name / "spans.csv")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    work = Path.cwd() / ".perfbench_work"
    setup = Setup(args.workload, args.seed, work / args.workload / "inputs")
    setup.run()

    os.environ.pop("BENCH_WORKERS", None)  # every workload runs with workers=1
    wl = Workload(args.workload, args.seed, work)
    untraced, traced_passes, tracer = measure(wl, setup, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(wl, untraced, traced_passes, tracer, work)
    else:
        metrics = end_to_end(wl, untraced, setup)

    for problem in wl.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: error_rate {wl.failed}/{wl.attempted} = "
          f"{wl.failed / wl.attempted:.4f}; pass seconds untraced "
          f"{[round(t, 3) for t in untraced]}, traced "
          f"{[round(p[0], 3) for p in traced_passes]}; setup {[round(t, 3) for t in setup.times]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not wl.problems and wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
