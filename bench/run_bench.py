"""hytccp benchmark: one workload, cold processes, closed loop.

    python3 bench/run_bench.py --workload dam_24h --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every timed operation runs in a fresh
interpreter (bench/child.py), one at a time; the next starts when the last
has ended.  With ``--trace 0`` the result carries the end-to-end metrics of
untraced operations; with ``--trace 1`` traced and untraced operations
alternate and the result carries the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it repeat the metrics
for people.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

MIN_OPS = 3  # untraced operations per run, and traced ones with --trace 1
RUN_LIMIT_S = 110  # no operation starts later than this, whatever MIN_OPS says
# extra set-up-only processes, for a steadier setup_s: until there are
# SETUP_SAMPLES samples or SETUP_BUDGET_S is spent, but at least MIN_OPS
SETUP_SAMPLES = 30
SETUP_BUDGET_S = 4.0
CHILD_TIMEOUT_S = 50
OUT_DIR = ".bench_out"
# Seconds the reference work in child.py takes on a quiet host (2-vCPU
# virtual machine, CPython 3.11). Every time is multiplied by
# REF_NOMINAL_S / (reference time measured next to it), so it reads as
# seconds on that host. A shared host can run everything up to twice as slow
# for minutes at a time; the reference slows with it.
REF_NOMINAL_S = 0.0185

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "states_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(root: Path, job: dict, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=str(hash_seed))
    # the warm-up child caches bytecode, as an installed package has it, so
    # set-up never includes compiling the package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"operation exceeded {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"child printed no result:\n{proc.stdout}\n{proc.stderr}")
    # set-up: interpreter start to parsed model, without reading the job
    result["setup_s"] = result["t_parsed"] - started - result["read_s"]
    return result


def speed(result: dict) -> float:
    """Factor that scales one child's times to the nominal host speed."""
    return REF_NOMINAL_S / statistics.mean(result["ref_s"])


def quantile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def item_latencies_ms(ops: list) -> list:
    """Each item's median latency over the operations, in scaled milliseconds.

    Every operation of a run processes the same items (periods or programs)
    in the same order, so the median over operations takes the host's
    short stalls out of each item before the percentiles are read.
    """
    scaled = [[x * 1e3 * speed(op) for x in op["items_s"]] for op in ops]
    return [statistics.median(item) for item in zip(*scaled)]


def end_to_end(ops: list, setups: list) -> dict:
    per_op = {
        "wall_s": [op["wall_s"] * speed(op) for op in ops],
        "states_per_s": [op["states"] / (op["wall_s"] * speed(op)) for op in ops],
        "peak_rss_mb": [op["rss_mb"] for op in ops],
        # scaled by the reference measured right after parsing only
        "setup_s": [r["setup_s"] * REF_NOMINAL_S / r["ref_s"][0] for r in setups],
    }
    out = {name: statistics.median(values) for name, values in per_op.items()}
    items = item_latencies_ms(ops)
    out["item_p50_ms"] = quantile(items, 50)
    out["item_p99_ms"] = quantile(items, 99)
    return {name: out[name] for name in END_TO_END_UNITS}


def per_layer(traced: list, untraced: list) -> dict:
    def value(op, name):
        return op["layers"][name] * (speed(op) if name.endswith(".s") else 1)

    names = sorted(set().union(*(op["layers"] for op in traced)))
    out = {name: statistics.median(value(op, name) for op in traced if name in op["layers"]) for name in names}
    out["trace_overhead_ratio"] = statistics.median(op["wall_s"] * speed(op) for op in traced) / statistics.median(
        op["wall_s"] * speed(op) for op in untraced
    )
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".nodes_per_step"):
        return "nodes"
    return "ratio"


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    root = Path.cwd()
    if not (root / "src" / "hytccp" / "__init__.py").is_file():
        raise BenchError(f"no hytccp package under {root / 'src'}; run from the repository root")
    try:
        job = workloads.JOBS[workload](root, seed)
    except OSError as exc:
        raise BenchError(f"cannot read the workload's inputs: {exc}")
    job.update(workload=workload, src=str(root / "src"))
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    def op(traced: bool, index: int, setup_only: bool = False) -> dict:
        extra = {"trace": traced, "setup_only": setup_only, "sample_seed": seed * 1000 + index}
        if traced:
            extra["spans_path"] = str(out_dir / f"spans-{workload}-seed{seed}.jsonl")
        # the string-hash seed changes set iteration order, and with it the
        # engine's speed; every run walks the same sequence of hash seeds
        result = spawn(root, dict(job, **extra), hash_seed=index + 1)
        if not setup_only and "wall_s" in result:
            kind = "traced" if traced else "untraced"
            print(
                f"  {kind} operation {index}: wall_s={result['wall_s']:.4f} reference_ms={result['ref_s'][0] * 1e3:.2f}",
                file=sys.stderr,
            )
        return result

    op(False, 0, setup_only=True)  # untimed warm-up
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= MIN_OPS and (not trace or len(traced) >= MIN_OPS)
        if (elapsed >= seconds and enough) or elapsed >= RUN_LIMIT_S:
            break
        if trace and len(traced) < len(untraced):
            # a traced operation repeats the hash seed of the untraced one before it
            traced.append(op(True, len(traced)))
        else:
            untraced.append(op(False, len(untraced)))

    ops = untraced + traced
    # repetitions of one seed must agree exactly: a digest that differs from
    # the most common one fails its operation
    common = Counter(r.get("digest") for r in ops).most_common(1)[0][0]
    failed = 0
    for r in ops:
        if r.get("digest") != common:
            r["errors"].append("output differs from the other repetitions")
        if r["errors"]:
            failed += 1
            print(f"failed operation: {'; '.join(r['errors'][:3])}", file=sys.stderr)
    good = [r for r in untraced if not r["errors"]]
    good_traced = [r for r in traced if not r["errors"]]
    if not good or (trace and not good_traced):
        raise BenchError("every operation failed; nothing to measure")

    if trace:
        metrics = {name: (value, layer_unit(name)) for name, value in per_layer(good_traced, good).items()}
    else:
        setups = list(good)
        spent = time.perf_counter()
        for i in range(SETUP_SAMPLES - len(setups)):
            if i >= MIN_OPS and time.perf_counter() - spent > SETUP_BUDGET_S:
                break
            extra = op(False, i, setup_only=True)
            setups += [extra] if "setup_s" in extra else []
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end(good, setups).items()}

    print(f"{workload} seed={seed} operations={len(ops)} failed={failed} failed_ratio={failed / len(ops):.4f}")
    print(
        f"  host speed: reference work {statistics.median(x for r in ops for x in r['ref_s']) * 1e3:.2f} ms"
        f" (nominal {REF_NOMINAL_S * 1e3:.1f} ms); unscaled wall_s {statistics.median(r['wall_s'] for r in good):.4f} s"
    )
    if job["kind"] == "run" and not trace:
        wall = metrics["wall_s"][0]
        print(f"  host_s_per_sim_hour {wall * 3600 / job['max_time']:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
