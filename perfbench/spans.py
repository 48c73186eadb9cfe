"""Span tracing from outside the program.

The tracer replaces the public functions each caller looks up (for
example ``distbench.bench.classify_batch`` and ``distbench.knn.pairwise``)
with wrappers that record a span: name, start, end and parent. Spans stay
in memory until the run ends. Nothing inside ``src/`` is edited; a target
that a later version of the program no longer has is skipped and listed
in ``Tracer.missing``.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path

import numpy as np


def _pairwise_tag(args, kwargs, result):
    return (args[0], args[2].shape)  # metric, training matrix shape


def _queries_tag(args, kwargs, result):
    return len(args[1])


def _rows_tag(args, kwargs, result):
    return len(result)


def _corrupted_tag(args, kwargs, result):
    return int(np.count_nonzero(np.any(args[0].features != result.features, axis=1)))


# (owner the caller looks the name up in, attribute, span name, tag function)
TARGETS = (
    ("distbench.cli", "parse_config", "bench.parse_config", None),
    ("distbench.cli", "run_clean_phase", "bench.run_clean_phase", None),
    ("distbench.cli", "run_noise_phase", "bench.run_noise_phase", None),
    ("distbench.cli", "compare_to_reference", "bench.compare_to_reference", None),
    ("distbench.cli", "read_records_csv", "reports.read_records_csv", None),
    ("distbench.cli", "write_records_csv", "reports.write_records_csv", None),
    ("distbench.cli", "summary_markdown", "reports.summary_markdown", None),
    ("distbench.cli", "rank_tables_markdown", "reports.rank_tables_markdown", None),
    ("distbench.cli", "emit_report", "reports.emit_report", None),
    ("distbench.bench", "load_csv", "dataset.load_csv", _rows_tag),
    ("distbench.bench", "split", "dataset.split", None),
    ("distbench.bench", "inject", "noise.inject", _corrupted_tag),
    ("distbench.bench", "classify_batch", "knn.classify_batch", _queries_tag),
    ("distbench.bench", "confusion", "evaluation.confusion", None),
    ("distbench.bench", "score", "evaluation.score", None),
    ("distbench.bench", "rank_distances", "evaluation.rank_distances", None),
    ("distbench.bench", "wilcoxon_rank_sum", "evaluation.wilcoxon", None),
    ("distbench.bench", "wilcoxon_signed_rank", "evaluation.wilcoxon", None),
    ("distbench.bench", "per_dataset_means", "bench.per_dataset_means", None),
    ("distbench.bench", "summarize", "bench.summarize", None),
    ("distbench.reports", "per_dataset_means", "bench.per_dataset_means", None),
    ("distbench.reports", "summarize", "bench.summarize", None),
    ("distbench.reports", "rank_distances", "evaluation.rank_distances", None),
    ("distbench.reports", "write_records_csv", "reports.write_records_csv", None),
    ("distbench.reports", "summary_markdown", "reports.summary_markdown", None),
    ("distbench.reports", "rank_tables_markdown", "reports.rank_tables_markdown", None),
    ("distbench.knn", "pairwise", "metrics.pairwise", _pairwise_tag),
    ("distbench.knn:KnnModel", "from_dataset", "knn.from_dataset", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records nested spans as ``[name, start, end, parent, tag]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, func, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tag is not None:
                try:
                    rec[4] = tag(args, kwargs, result)
                except (IndexError, AttributeError, TypeError):
                    pass  # a changed call signature loses the tag, not the run
            return result

        return traced

    def install(self) -> None:
        for owner_path, attr, name, tag in TARGETS:
            owner = _owner(owner_path)
            if attr not in vars(owner):
                self.missing.add(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, vars(owner)[attr]))
            traced = self.wrap(name, getattr(owner, attr), tag)
            setattr(owner, attr, staticmethod(traced) if isinstance(owner, type) else traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as CSV lines: index, parent, name, start, end, tag."""
        lines = ["index,parent,name,start_s,end_s,tag"]
        for i, (name, start, end, parent, tag) in enumerate(self.spans):
            if isinstance(tag, tuple):
                tag = f"{getattr(tag[0], 'abbrev', tag[0])} {tag[1][0]}x{tag[1][1]}"
            lines.append(f"{i},{parent},{name},{start!r},{end!r},{'' if tag is None else tag}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def self_times(spans: list[list], first: int) -> list[float]:
    """Self time of each span from index ``first`` on: duration minus children."""
    child = [0.0] * (len(spans) - first)
    for name, start, end, parent, _tag in spans[first:]:
        if parent >= first:
            child[parent - first] += end - start
    return [end - start - child[i]
            for i, (_n, start, end, _p, _t) in enumerate(spans[first:])]


def nesting_problems(spans: list[list], first: int, stop: int) -> list[str]:
    """Spans ``spans[first:stop]`` of one pass that break its call tree.

    The pass's root is spans[first]. Every later span must name an earlier
    span of the pass as its parent, lie inside the parent's time range, and
    start after the sibling before it ended. A wrapper that loses its place
    on the stack, or a clock read out of order, shows here.
    """
    problems = []
    last_child_end: dict[int, float] = {}
    for i in range(first, stop):
        name, start, end, parent, _tag = spans[i]
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if i == first:
            if parent >= first:
                problems.append(f"root span {i} ({name}) has a parent in the pass")
            continue
        if not first <= parent < i:
            problems.append(f"span {i} ({name}) has parent {parent} outside the pass")
            continue
        _pname, pstart, pend, _pp, _pt = spans[parent]
        if start < pstart or end > pend:
            problems.append(f"span {i} ({name}) lies outside its parent {parent}")
        if start < last_child_end.get(parent, pstart):
            problems.append(f"span {i} ({name}) overlaps the sibling before it")
        last_child_end[parent] = end
        if len(problems) >= 5:
            break
    return problems
