"""Acceptance suite: one test per release criterion, one verdict line each.

Criteria:
  1. dam timer exactness (exact rational clocks, < 1 s)
  2. store monotonicity over >= 1000 random programs
  3. engine/oracle reachable-set equality over >= 500 random programs (< 60 s)
  4. continuous-step shape invariants on every trace
  5. no continuous step while a discrete step is enabled
  6. flow solver accuracy against an RK4 reference
  7. dam safety and controller-branch coverage over 20 seeds
  8. byte-identical traces for identical options
"""
import json
import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hytccp.constraints import conj, reset_fresh_counter
from hytccp.flows import solve_flow
from hytccp.oracle import oracle_reachable, oracle_successors
from hytccp.parser import parse_program
from hytccp.semantics import (
    Configuration,
    compute_delay,
    continuous_step,
    discrete_successors,
    start_configuration,
)
from hytccp.simulator import RunOptions, explore, run
from hytccp.syntax import Flow

from generators import crossing_time, random_program


def verdict(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n} ({label}): {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {n} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def dam():
    with open("models/dam.hyt") as fh:
        text = fh.read()
    return parse_program(text)


def dam_trace(dam, seed, max_time, policy="first"):
    return run(dam, RunOptions(max_time=Fraction(max_time), seed=seed, policy=policy, divergence_budget=500))


def timer_resets(trace):
    """Clocks of the discrete events that reset the supplier's timer T."""
    return [Fraction(ev["t"]) for ev in trace.events if ev["kind"] == "discrete" and any(c[0] == "T" for c in ev["changes"])]


def test_criterion_1_dam_timer_exactness(dam):
    start = time.perf_counter()
    trace = dam_trace(dam, seed=0, max_time=14400)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    for seed in (0, 1, 7, 42, 20260823):
        trace = dam_trace(dam, seed, 14400)
        resets = timer_resets(trace)
        # the initial change plus one exact firing per period
        ok = ok and resets == [Fraction(0), Fraction(3600), Fraction(7200), Fraction(10800), Fraction(14400)]
        ok = ok and Fraction(trace.terminal["t"]) == Fraction(14400)
    verdict(1, "dam timer exactness", ok, f"seed-0 run {elapsed * 1000:.0f} ms")


def test_criterion_2_store_monotonicity():
    programs = violations = 0
    for seed in range(1000):
        prog = random_program(seed)
        programs += 1
        reset_fresh_counter()
        cfg = start_configuration(prog)
        for _ in range(25):
            successors = discrete_successors(cfg, prog)
            if not successors:
                result = compute_delay(cfg, prog, Fraction(1000))
                if result.kind != "delay":
                    break
                cfg = continuous_step(cfg, result.outcome.tau)
                continue
            for nxt, _ in successors:
                # stores are compared exactly: entails would read their generated names as placeholders
                if conj(nxt.discrete, cfg.discrete) != nxt.discrete:
                    violations += 1
            cfg = successors[0][0]
    verdict(2, "store monotonicity", programs >= 1000 and violations == 0, f"{programs} programs, {violations} violations")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    programs = 520
    for seed in range(programs):
        prog = random_program(seed)
        report = explore(prog, 5)
        reset_fresh_counter()
        reference = oracle_reachable(Configuration(prog.initial), prog, 5)
        if report.states != reference:
            mismatches += 1
    elapsed = time.perf_counter() - start
    verdict(3, "oracle equivalence", mismatches == 0 and elapsed < 60, f"{programs} programs in {elapsed:.1f} s, {mismatches} mismatches")


def _parse_flow(text):
    a, b = text[: -len("*x")].split("+", 1)
    return Flow(Fraction(a), Fraction(b))


def _check_continuous_events(trace):
    """R2/R3 shape: shared tau, flows unchanged, values follow the closed form."""
    for ev in trace.events:
        if ev["kind"] != "continuous":
            continue
        if ev["told"] != []:
            return False
        if set(ev["vars_before"]) != set(ev["vars"]):
            return False
        for name in ev["vars_before"]:
            flow = _parse_flow(ev["vars_before"][name]["flow"])
            if ev["vars"][name]["flow"] != ev["vars_before"][name]["flow"]:
                return False
            expected = solve_flow(Fraction(ev["vars_before"][name]["v"]), flow, Fraction(ev["tau"]))
            if Fraction(ev["vars"][name]["v"]) != expected:
                return False
    return True


def test_criterion_4_continuous_step_shape(dam):
    traces = [dam_trace(dam, seed, 14400) for seed in (0, 3)]
    for seed in range(150):
        traces.append(run(random_program(seed), RunOptions(max_time=Fraction(30), divergence_budget=100)))
    ok = all(_check_continuous_events(t) for t in traces)
    checked = sum(1 for t in traces for ev in t.events if ev["kind"] == "continuous")
    verdict(4, "continuous step shape", ok and checked > 0, f"{checked} continuous events over {len(traces)} traces")


def test_criterion_5_no_time_passes_while_discrete_enabled():
    checks = violations = 0
    for seed in range(200):
        prog = random_program(seed)
        reset_fresh_counter()
        cfg = start_configuration(prog)
        for _ in range(30):
            successors = discrete_successors(cfg, prog)
            if successors:
                cfg = successors[0][0]
                continue
            result = compute_delay(cfg, prog, Fraction(100))
            if result.kind != "delay":
                break
            # the engine is about to let time pass: the independent rule
            # implementation must agree that no discrete step is derivable
            checks += 1
            if oracle_successors(cfg, prog):
                violations += 1
            cfg = continuous_step(cfg, result.outcome.tau)
    verdict(5, "discrete priority over time", checks > 0 and violations == 0, f"{checks} continuous steps audited, {violations} violations")


def rk4(v0, f, t, step=1e-4):
    a, b = float(f.a), float(f.b)
    x = float(v0)
    n = max(int(round(t / step)), 1)
    h = t / n
    for _ in range(n):
        k1 = a + b * x
        k2 = a + b * (x + h / 2 * k1)
        k3 = a + b * (x + h / 2 * k2)
        k4 = a + b * (x + h * k3)
        x += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_criterion_6_flow_solver_accuracy():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        b = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        a = Fraction(rng.randint(-5, 5))
        v0 = Fraction(rng.randint(-10, 10))
        t = rng.uniform(0.05, 1.5)
        got = solve_flow(v0, Flow(a, b), t)
        want = rk4(v0, Flow(a, b), t)
        ok = ok and math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-9)
    # linear flows: bit-exact rationals
    for _ in range(50):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        v0 = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        t = Fraction(rng.randint(0, 99), rng.randint(1, 9))
        got = solve_flow(v0, Flow(a, Fraction(0)), t)
        ok = ok and isinstance(got, Fraction) and got == v0 + a * t
    # exponential crossings against the analytic logarithm
    from hytccp.constraints import LinCmp

    for _ in range(60):
        b = Fraction(rng.choice([1, 2, 3]))
        v0 = Fraction(rng.randint(1, 10))
        target = float(v0) * 2.5
        analytic = math.log(target / float(v0)) / float(b)
        got = crossing_time(v0, Flow(Fraction(0), b), LinCmp("X", ">=", Fraction(target)))
        ok = ok and got is not None and math.isclose(got, analytic, rel_tol=1e-9)
    verdict(6, "flow solver accuracy", ok, "100 affine flows vs RK4, 50 exact linear, 60 crossings")


GATE_HEAD = re.compile(r"=\[(close|half|open)\|")


def test_criterion_7_dam_safety_and_branch_coverage(dam):
    seeds = [11288] + list(range(19))  # 20 distinct seeds; 11288 drives the volume to the top threshold
    assert len(set(seeds)) == 20
    configs = set()
    safe = True
    for seed in seeds:
        trace = dam_trace(dam, seed, max_time=25200)
        for ev in trace.events:
            if ev["kind"] == "continuous":
                for snap in (ev["vars_before"], ev["vars"]):
                    if Fraction(snap["Vol"]["v"]) > 1000:
                        safe = False
            elif ev["kind"] == "discrete":
                heads = GATE_HEAD.findall(" ".join(ev["told"]))
                if len(heads) == 2:
                    configs.add(tuple(sorted(heads)))
    expected = {("close", "close"), ("half", "half"), ("half", "open"), ("open", "open")}
    verdict(7, "dam safety and branch coverage", safe and configs == expected, f"20 seeds, gate configs {sorted(configs)}")


def test_criterion_8_byte_identical_traces(dam, tmp_path):
    options = RunOptions(max_time=Fraction(14400), seed=9, policy="random")
    ok = run(dam, options).to_jsonl() == run(dam, options).to_jsonl()
    # and across processes, independent of hash randomization
    script = (
        "import sys; from fractions import Fraction;"
        "from hytccp.parser import parse_program; from hytccp.simulator import run, RunOptions;"
        "text = open('models/dam.hyt').read();"
        "t = run(parse_program(text), RunOptions(max_time=Fraction(14400), seed=9, policy='random'));"
        "open(sys.argv[1], 'w').write(t.to_jsonl())"
    )
    payloads = []
    for i, hashseed in enumerate(("0", "12345")):
        out = tmp_path / f"trace{i}.jsonl"
        subprocess.run(
            [sys.executable, "-c", script, str(out)],
            check=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hashseed, "PYTHONPATH": "src"},
        )
        payloads.append(out.read_bytes())
    ok = ok and payloads[0] == payloads[1] and len(payloads[0]) > 0
    verdict(8, "byte-identical traces", ok, f"{len(payloads[0])} bytes per trace")
