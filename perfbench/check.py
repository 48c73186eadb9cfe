"""Correctness checks on what each pass wrote, run outside the timed region.

- The records file has the expected row count and every score is in [0, 1].
- ``bench report --format csv`` re-emits a records file byte for byte, and
  compare tables have the expected rows with p-values in [0, 1].
- The digest of every output is the same for every pass, and for every run
  at the same seed in this checkout (stored under the work directory).
- A sample of sweep cells is recomputed through the single-pair
  ``evaluate`` path (split, argmin with the lowest index winning,
  confusion, score) and must match the records bit for bit.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from distbench import (PUBLISHED_TOP, NoiseSpec, SplitPlan, confusion, describe, evaluate,
                       inject, list_metrics, load_csv, score, split)
from distbench.bench import _noise_seed, _split_seed

import inputs

# Each cell's metric is fixed or drawn from a list; the letters cell (1000x16)
# is held to cheap kernels so the single-pair recompute stays near two seconds.
LETTERS_METRICS = ("ED", "MD", "SED", "CosD")


def digest_files(root: Path) -> str:
    """sha256 over the relative names and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_records(path: Path, expected_rows: int, cells: dict | None = None) -> list[str]:
    """Problems found in a records CSV; fills ``cells`` with its scores by cell if given."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != inputs.CSV_HEADER:
        return [f"{path.name}: bad header"]
    problems = []
    keys = set()
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            problems.append(f"{path.name}: malformed row {line!r}")
            continue
        if not all(0.0 <= float(v) <= 1.0 for v in fields[4:]):
            problems.append(f"{path.name}: score outside [0, 1] in {line!r}")
        key = (fields[0], fields[1], float(fields[2]), int(fields[3]))
        keys.add(key)
        if cells is not None:
            cells[key] = tuple(fields[4:])
    if len(lines) - 1 != expected_rows or len(keys) != expected_rows:
        problems.append(f"{path.name}: {len(lines) - 1} rows ({len(keys)} distinct), "
                        f"expected {expected_rows}")
    return problems


def check_compare(text: str, expected_rows: int) -> list[str]:
    rows = [line for line in text.splitlines()
            if line.startswith("| ") and not line.startswith(("| Metric", "| ---"))]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"compare: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        for cell in row.strip("| ").split(" | ")[1:]:
            if not 0.0 <= float(cell.strip("*")) <= 1.0:
                problems.append(f"compare: p-value outside [0, 1] in {row!r}")
    return problems


def check_stored_digest(store: Path, key: str, digest: str) -> list[str]:
    """Compare with the digest stored by an earlier run at the same seed."""
    path = store / key
    if path.exists():
        if path.read_text(encoding="utf-8") != digest:
            return [f"outputs differ from an earlier run at the same seed ({key})"]
        return []
    store.mkdir(parents=True, exist_ok=True)
    path.write_text(digest, encoding="utf-8")
    return []


def sample_cells(workload: str, rng) -> list[tuple[str, str, float, int]]:
    """(dataset, metric, level, repetition) cells to recompute."""
    reps = inputs.REPETITIONS
    if workload == "clean_sweep":
        small = ("iris", "wine", "sonar")
        others = [m for m in list_metrics() if m != "HauD"]
        return [
            ("wine", "HauD", 0.0, int(rng.integers(reps))),
            ("letters", str(rng.choice(LETTERS_METRICS)), 0.0, int(rng.integers(reps))),
        ] + [(str(rng.choice(small)), str(rng.choice(others)), 0.0, int(rng.integers(reps)))
             for _ in range(2)]
    names = [spec[0] for spec in inputs.NOISE_SETS]
    return [(str(rng.choice(names)), str(rng.choice(PUBLISHED_TOP)),
             float(rng.choice(inputs.NOISE_LEVELS)), int(rng.integers(reps)))
            for _ in range(4)]


def recompute_cell(csv_path: Path, metric: str, level: float, rep: int,
                   master_seed: int) -> tuple[str, str, str]:
    """One cell's (accuracy, precision, recall) as the records CSV writes them."""
    ds = load_csv(csv_path)
    # the program's own per-task seeds: this recompute checks the kernels, not seeding
    if level > 0.0:
        ds = inject(ds, NoiseSpec(level, _noise_seed(master_seed, ds.name, level)))
    plan = SplitPlan(0.34, inputs.REPETITIONS, _split_seed(master_seed, ds.name, level))
    train, test = split(ds, plan, rep)
    desc = describe(metric)
    predicted = []
    for query in test.features:
        dist = [evaluate(desc, query, row) for row in train.features]
        predicted.append(int(train.labels[min(range(len(dist)), key=dist.__getitem__)]))
    triple = score(confusion(test.labels, predicted, ds.n_classes))
    return repr(triple.accuracy), repr(triple.precision), repr(triple.recall)


def check_cells(workload: str, seed: int, input_dir: Path, cells: dict, rng) -> list[str]:
    problems = []
    for dataset, metric, level, rep in sample_cells(workload, rng):
        expected = recompute_cell(input_dir / f"{dataset}.csv", metric, level, rep, seed)
        got = cells.get((dataset, metric, level, rep))
        if got != expected:
            problems.append(f"cell {dataset}/{metric}/{level}/{rep}: records {got}, "
                            f"single-pair recompute {expected}")
    return problems
