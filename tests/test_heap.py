"""The allocator policy: the bench process keeps its freed heap."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from distbench import cli, heap

from conftest import make_blobs, write_config, write_dataset_csv

# 92 queries against 180 rows of 13 features: blocks of 14 queries, so
# each kernel temporary is 14 * 180 * 13 doubles, about 256 KiB.
FAULT_LOOP = textwrap.dedent("""
    import resource
    import numpy as np
    from distbench import keep_freed_heap, pairwise

    if not keep_freed_heap():
        print("unavailable")
        raise SystemExit
    rng = np.random.default_rng(0)
    queries, rows = rng.uniform(0.0, 1.0, (92, 13)), rng.uniform(0.0, 1.0, (180, 13))
    metrics = ("CanD", "HasD", "TopD", "ClaD", "WIAD")
    for metric in metrics:
        pairwise(metric, queries, rows)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        for metric in metrics:
            pairwise(metric, queries, rows)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


def test_pairwise_calls_stop_faulting_under_the_policy():
    pytest.importorskip("resource")
    # a fresh interpreter, so no earlier test has moved the allocator's thresholds
    src = str(Path(heap.__file__).resolve().parents[1])   # the package under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", FAULT_LOOP], env=env,
                          capture_output=True, text=True, check=True)
    if proc.stdout.strip() == "unavailable":
        pytest.skip("the C library has no usable mallopt")
    assert int(proc.stdout) < 1000   # 100 calls; without the policy, about 150,000


def test_cli_and_worker_pool_apply_the_policy(tmp_path, monkeypatch, inline_pools):
    calls = []
    # the CLI's policy runs before any pool is built
    monkeypatch.setattr(cli, "keep_freed_heap", lambda: calls.append(len(inline_pools)))
    ds = make_blobs("pol", 20, 3, (0.5, 0.5), spread=0.8, seed=8)
    cfg = write_config(tmp_path / "bench.cfg", [write_dataset_csv(ds, tmp_path / "pol.csv")],
                       metrics="ED", repetitions=2, workers=2)
    assert cli.main(["clean", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == [0]
    assert inline_pools == [(2, heap.keep_freed_heap)]
