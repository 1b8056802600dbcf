"""The benchmark's contract with the package, checked through bench/child.py.

The benchmark imports the package from ``src/`` and reads its results from
the last line a child prints.  A child that errors, or a traced run that
lacks a declared per-layer metric (say, because a cache it reads is gone),
makes the benchmark's output unusable; these tests catch both.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _declared_layers() -> set:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # computed by run_bench.py from a traced and an untraced run, not by a child
    return {metric["name"] for metric in declared} - {"trace_overhead_ratio"}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["dam_24h", "thermostats", "corpus_explore"])
def test_child_result(workload, traced):
    job = _workloads().JOBS[workload](ROOT, 1)
    job.update(workload=workload, src=str(ROOT / "src"), trace=traced, setup_only=False, sample_seed=1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["errors"] == []
    if traced:
        assert _declared_layers() <= result["layers"].keys()
