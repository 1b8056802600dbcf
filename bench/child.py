"""One benchmark operation, run in a fresh interpreter.

Reads a job (JSON) on stdin, imports ``hytccp`` from the checkout's ``src``,
parses the job's sources, performs one timed operation, checks its output
untimed, and prints one JSON result line.  A fresh process per operation
matters: ``constraints`` keeps process-wide ``lru_cache``s, and a warm second
run of the same model in one process is several times faster than the cold
run every command-line user pays for.

Exit status is non-zero only when the operation could not be attempted at
all (missing package, unparsable input); a failed operation is reported in
the result.
"""
import gc
import itertools
import json
import os
import re
import resource
import sys
import time

clock = time.perf_counter


class PeriodProbe:
    """Host time per simulated period of one ``run``.

    Wraps ``simulator.continuous_step`` (one call per continuous step) and
    stamps the host clock when simulated time first reaches each multiple of
    the period.  Period k covers the work at instants in [k*P, (k+1)*P); the
    last one also holds the steps at the horizon itself.
    """

    def __init__(self, simulator, period: int):
        self.simulator = simulator
        self.original = simulator.continuous_step
        self.period = period
        self.stamps = []
        self.next_boundary = period
        simulator.continuous_step = self._step

    def _step(self, cfg, tau):
        nxt = self.original(cfg, tau)
        while nxt.clock >= self.next_boundary:
            self.stamps.append(clock())
            self.next_boundary += self.period
        return nxt

    def periods(self, start: float, end: float, count: int) -> list:
        bounds = [start] + self.stamps[: count - 1] + [end]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def remove(self) -> None:
        self.simulator.continuous_step = self.original


def reference_s() -> float:
    """Median seconds of a fixed piece of pure-Python work that does not use hytccp.

    Measured next to each operation, it tracks how fast the host runs the
    interpreter at that moment; run_bench.py scales times by it.
    """
    from fractions import Fraction

    def walk(n):
        return (n,) if n == 0 else (walk(n - 1), n)

    samples = []
    gc.disable()  # the operation's heap must not slow the reference down
    for _ in range(5):
        start = clock()
        acc = Fraction(0)
        table = {}
        for i in range(1500):
            items = frozenset((f"v{j}", j % 7) for j in range(12))
            table[items] = table.get(items, 0) + 1
            acc += Fraction(i % 13 + 1, i % 11 + 2)
            text = " ".join(sorted(f"{k}={v}" for k, v in items))
            walk(12)
            table[text] = [x for x in items if isinstance(x[1], int) and x[1] > 2]
        samples.append(clock() - start)
    gc.enable()
    return sorted(samples)[2]


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_run(hytccp, program, job):
    from fractions import Fraction

    from hytccp import simulator

    options = hytccp.RunOptions(max_time=Fraction(job["max_time"]), seed=job["run_seed"])
    probe = PeriodProbe(simulator, job["period"])
    start = clock()
    trace = hytccp.run(program, options)
    text = trace.to_jsonl()
    end = clock()
    probe.remove()
    periods = probe.periods(start, end, job["max_time"] // job["period"])
    return {
        "wall_s": end - start,
        "items_s": periods,
        "states": len(trace.events),
        "rss_mb": rss_mb(),
    }, text


def check_run(workload, text):
    import hashlib

    import workloads

    events = [json.loads(line) for line in text.splitlines()[1:]]
    return workloads.RUN_CHECKS[workload](events), hashlib.sha256(text.encode("utf-8")).hexdigest()


def time_explore(hytccp, programs, job):
    counts = []
    items = []
    start = clock()
    for program in programs:
        t0 = clock()
        report = hytccp.explore(program, depth=job["depth"], time_samples=job["time_samples"])
        items.append(clock() - t0)
        counts.append(len(report.states))
    end = clock()
    return {
        "wall_s": end - start,
        "items_s": items,
        "states": sum(counts),
        "rss_mb": rss_mb(),
    }, counts


# the names canonical_key gives generated (hidden) variables: c1, c2, ...
GENERATED_NAME = re.compile(r"\bc\d+\b")


def _renamed(key, mapping):
    """A state key with its generated names mapped, each store as a sorted conjunct tuple."""

    def rename(text):
        return GENERATED_NAME.sub(lambda m: mapping.get(m.group(), m.group()), text)

    def conjuncts(text):
        return tuple(sorted(rename(part) for part in text.split(" /\\ ")))

    agent, effective, store, cont, clock = key
    return rename(agent), tuple(conjuncts(e) for e in effective), conjuncts(store), cont, clock


def _alpha_equivalent(a, b, max_names=8):
    """Whether two state keys differ only in the names of generated variables."""
    names_a = sorted(set(GENERATED_NAME.findall(repr(a))))
    names_b = sorted(set(GENERATED_NAME.findall(repr(b))))
    if len(names_a) != len(names_b) or len(names_a) > max_names:
        return False
    target = _renamed(b, {})
    return any(_renamed(a, dict(zip(names_a, perm))) == target for perm in itertools.permutations(names_b))


def same_states(engine, reference):
    """Equal reachable sets, up to the names of generated variables.

    canonical_key numbers generated variables in an order that can depend on
    the path that reached a state, so the engine (breadth-first) and the
    oracle can key one state differently.  States present on one side only
    must pair off one-to-one with equivalent states on the other side.
    """
    if engine == reference:
        return True
    only_engine, only_reference = list(engine - reference), list(reference - engine)
    if len(only_engine) != len(only_reference):
        return False
    for key in only_engine:
        match = next((other for other in only_reference if _alpha_equivalent(key, other)), None)
        if match is None:
            return False
        only_reference.remove(match)
    return True


def check_explore(hytccp, programs, counts, job):
    """Engine against the naive oracle on a seeded sample of the corpus."""
    import hashlib
    import random
    from fractions import Fraction

    from hytccp.constraints import reset_fresh_counter
    from hytccp.oracle import OracleSizeError, oracle_reachable
    from hytccp.semantics import Configuration, compute_delay

    samples = job["time_samples"]
    errors = []
    order = list(range(len(programs)))
    random.Random(job["sample_seed"]).shuffle(order)
    compared = 0
    for index in order:
        if compared == job["oracle_sample"]:
            break
        program = programs[index]

        def taus_for(cfg):
            # the same witnesses explore() takes: the earliest-event delay
            # and `samples` evenly spaced durations inside it
            result = compute_delay(cfg, program, Fraction(10**6))
            if result.kind != "delay":
                return []
            tau = result.outcome.tau
            return sorted({tau * Fraction(i, samples + 1) for i in range(1, samples + 2)})

        engine = hytccp.explore(program, depth=job["depth"], time_samples=samples).states
        reset_fresh_counter()
        try:
            reference = oracle_reachable(Configuration(program.initial), program, job["depth"], taus_for)
        except OracleSizeError:
            continue  # beyond what the oracle is meant for; draw another program
        compared += 1
        if not same_states(engine, reference):
            errors.append(f"program {index}: engine reaches {len(engine)} states, oracle {len(reference)}")
    if compared < job["oracle_sample"]:
        errors.append(f"only {compared} programs small enough for the oracle")
    digest = hashlib.sha256(json.dumps(counts).encode("utf-8")).hexdigest()
    return errors, digest


def main() -> int:
    t_read = clock()
    job = json.load(sys.stdin)
    read_s = clock() - t_read
    import hytccp

    if not hytccp.__file__.startswith(job["src"]):
        print(f"imported hytccp from {hytccp.__file__}, not from {job['src']}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    programs = [hytccp.parse_program(source) for source in job["sources"]]
    result = {"t_parsed": clock(), "read_s": read_s, "ref_s": [reference_s()]}
    if job["setup_only"]:
        print(json.dumps(result))
        return 0

    errors = []
    try:
        if job["kind"] == "run":
            timing, text = time_run(hytccp, programs[0], job)
        else:
            timing, counts = time_explore(hytccp, programs, job)
        result.update(timing)
        result["ref_s"].append(reference_s())
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics(timing["wall_s"], timing["items_s"] if job["kind"] == "run" else [])
            if job.get("spans_path"):
                tracer.write_spans(job["spans_path"])
        if job["kind"] == "run":
            errors, result["digest"] = check_run(job["workload"], text)
        else:
            errors, result["digest"] = check_explore(hytccp, programs, counts, job)
    except Exception as exc:  # any exception fails the operation, not the benchmark
        errors.append(f"{type(exc).__name__}: {exc}")
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # skip tearing down the heap a long run leaves behind; the result is out
    os._exit(status)
