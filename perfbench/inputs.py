"""Seeded inputs for the benchmark workloads.

Every file a workload reads is generated here from ``--seed``; the same
seed always gives byte-identical files. Run as a script it writes one
workload's inputs into a directory, which is how ``run.py`` times set-up
in a fresh interpreter (import, generation and writing included):

    python3 perfbench/inputs.py --workload clean_sweep --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import sys
import zlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "distbench").is_dir():  # never fall back to an installed copy
    raise SystemExit(f"no distbench sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from distbench import PUBLISHED_TOP, Dataset, list_metrics  # noqa: E402

# (name, examples, features, class priors): UCI-shaped sets
CLEAN_SETS = (
    ("iris", 150, 4, (1, 1, 1)),
    ("wine", 178, 13, (59, 71, 48)),
    ("letters", 1000, 16, (1,) * 10),
    ("sonar", 200, 60, (97, 103)),
)
NOISE_SETS = (
    ("iris", 150, 4, (1, 1, 1)),
    ("wine", 178, 13, (59, 71, 48)),
    ("glass", 214, 9, (70, 76, 17, 13, 9, 29)),
    ("heart", 270, 13, (150, 120)),
)
REPETITIONS = 3
NOISE_LEVELS = tuple(round(0.1 * i, 1) for i in range(1, 10))

# records_analysis: a paper-scale records.csv
ANALYSIS_DATASETS = 28
ANALYSIS_REPS = 10

CSV_HEADER = "dataset,metric,noise_level,repetition,accuracy,precision,recall"

# Rows each workload's records file must hold: 4 sets x 3 reps x 54 metrics;
# 4 sets x 9 levels x 3 reps x 13 metrics; 28 x 10 x (54 + 13 x 9).
EXPECTED_RECORDS = {"clean_sweep": 648, "noise_sweep": 1404, "records_analysis": 47_880}


def rng_for(seed: int, *parts) -> np.random.Generator:
    """A generator for one use of the run's seed, told apart by ``parts``."""
    return np.random.default_rng([seed % 2**64, *(zlib.crc32(str(p).encode()) for p in parts)])


def make_blobs(name, n_examples, n_features, priors, rng, spread=2.0,
               box=10.0, min_separation=4.0) -> Dataset:
    """Non-negative class blobs, shuffled; per-class counts follow the priors."""
    priors = np.asarray(priors, dtype=float) / sum(priors)
    counts = np.floor(priors * n_examples).astype(int)
    counts[0] += n_examples - counts.sum()
    centers = []
    for _ in range(5000):
        if len(centers) == len(priors):
            break
        candidate = rng.uniform(0.2 * box, 0.8 * box, size=n_features)
        if all(np.linalg.norm(candidate - c) >= min_separation for c in centers):
            centers.append(candidate)
    while len(centers) < len(priors):  # low dimension may run out of room
        centers.append(rng.uniform(0.2 * box, 0.8 * box, size=n_features))
    features = np.vstack([c + rng.normal(0.0, spread, size=(k, n_features))
                          for c, k in zip(centers, counts)])
    labels = np.repeat(np.arange(len(priors)), counts)
    order = rng.permutation(n_examples)
    return Dataset.from_arrays(name, np.clip(features, 0.0, None)[order], labels[order],
                               [f"c{i}" for i in range(len(priors))])


def write_sweep_inputs(workload: str, seed: int, out: Path) -> None:
    """Dataset CSVs plus the bench config."""
    paths = []
    for name, m, n, priors in CLEAN_SETS if workload == "clean_sweep" else NOISE_SETS:
        ds = make_blobs(name, m, n, priors, rng_for(seed, workload, name))
        path = out / f"{name}.csv"
        ds.to_csv(path)
        paths.append(path.resolve())
    lines = [
        "datasets = " + ", ".join(str(p) for p in paths),
        "metrics = all",
        "k = 1",
        "test_fraction = 0.34",
        f"repetitions = {REPETITIONS}",
        f"master_seed = {seed}",
        "workers = 1",
    ]
    (out / "bench.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")


def records_rows(seed: int) -> list[str]:
    """Paper-scale records as CSV lines, in the order the program sorts them.

    Scores are correct/total fractions over a per-dataset test-set size,
    so equal scores (ties) occur as they do in real runs.
    """
    rng = rng_for(seed, "records_analysis")
    metrics = sorted(list_metrics())
    quality = dict(zip(metrics, rng.uniform(0.55, 0.97, size=len(metrics))))
    cells = [(d, metric, level) for d in range(ANALYSIS_DATASETS) for metric in metrics
             for level in (0.0,) + (NOISE_LEVELS if metric in PUBLISHED_TOP else ())]
    totals = rng.integers(40, 700, size=ANALYSIS_DATASETS)
    ease = rng.uniform(0.8, 1.05, size=ANALYSIS_DATASETS)
    p = np.array([quality[m] * ease[d] * (1.0 - 0.5 * level) for d, m, level in cells])
    p = np.clip(p[:, None, None] * [0.98, 0.99, 1.0], 0.02, 0.999)  # precision, recall, accuracy
    n = totals[[d for d, _m, _l in cells]]
    correct = rng.binomial(n[:, None, None], p, size=(len(cells), ANALYSIS_REPS, 3))
    fractions = [[repr(k / int(t)) for k in range(t + 1)] for t in totals]
    rows = [CSV_HEADER]
    for (d, metric, level), counts in zip(cells, correct.tolist()):
        prefix = f"uci{d + 1:02d},{metric},{level!r},"
        text = fractions[d]
        rows.extend(f"{prefix}{rep},{text[a]},{text[pr]},{text[rc]}"
                    for rep, (pr, rc, a) in enumerate(counts))
    return rows


def write_inputs(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "records_analysis":
        (out / "records.csv").write_text("\n".join(records_rows(seed)) + "\n",
                                         encoding="utf-8")
    else:
        write_sweep_inputs(workload, seed, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
