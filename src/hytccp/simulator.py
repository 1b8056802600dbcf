"""Scheduling loop, trace recording and bounded exhaustive exploration.

One run alternates: discrete steps to quiescence (policy-resolved, bounded by
the divergence budget per time point), then an earliest-event delay, then one
continuous step.  Traces are fully reproducible from the options (including
the seed).
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import pairwise
from typing import List, Optional, Set, Tuple

from .constraints import (
    FALSE,
    FRESH_NAME,
    LinCmp,
    Record,
    reset_fresh_counter,
)
from .flows import ContinuousStore, value_json
from .semantics import (
    Configuration,
    compute_delay,
    continuous_step,
    discrete_successors,
    start_configuration,
)
from .syntax import (
    KEEP,
    Program,
    Stop,
    builtin_random,
    pretty,
)

DEFAULT_DIVERGENCE_BUDGET = 10000
# the horizon of every continuous step explore takes
EXPLORE_HORIZON = Fraction(10**6)
# the most states explore keeps; a search that meets more reports itself incomplete
STATE_CAP = 100_000


class RunOptions(Record):
    __slots__ = ("max_time", "max_discrete_steps", "horizon", "policy", "seed", "divergence_budget")

    def __init__(
        self,
        max_time: Fraction = Fraction(3600),
        max_discrete_steps: int = 1_000_000,
        horizon: Optional[Fraction] = None,  # max single continuous step; None = the remaining max_time
        policy: str = "first",  # "first" | "random"
        seed: int = 0,
        divergence_budget: int = DEFAULT_DIVERGENCE_BUDGET,
    ):
        self.max_time = max_time
        self.max_discrete_steps = max_discrete_steps
        self.horizon = horizon
        self.policy = policy
        self.seed = seed
        self.divergence_budget = divergence_budget

    def to_json(self) -> dict:
        """The options as the trace header prints them: a Fraction as ``value_json``, None as null."""
        return {name: value_json(v) if isinstance(v, Fraction) else v for name, v in zip(self._fields, self._values())}


def vars_json(store: ContinuousStore) -> dict:
    return {name: {"v": value, "flow": flow} for name, value, flow in store.texts()}


class Trace:
    """A run's header fields and its ``events``: each the JSON object of one line of ``to_jsonl``,
    discrete, continuous or, last, terminal."""

    __slots__ = ("program_hash", "options", "events")

    def __init__(self, program_hash: str, options: RunOptions):
        self.program_hash = program_hash
        self.options = options
        self.events: List[dict] = []

    @property
    def terminal(self) -> Optional[dict]:
        if self.events and self.events[-1]["kind"] == "terminal":
            return self.events[-1]
        return None

    def to_jsonl(self) -> str:
        header = {"kind": "header", "program": self.program_hash, "options": self.options.to_json(), "seed": self.options.seed}
        lines = [json.dumps(ev, sort_keys=True) for ev in (header, *self.events)]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """Each continuous step's values after it, at the time of the next event (a trace ends with its terminal)."""
        lines = ["t,var,value,flow_a,flow_b"]
        for ev, nxt in pairwise(self.events):
            if ev["kind"] == "continuous":
                for name, info in sorted(ev["vars"].items()):
                    a, b = info["flow"].split("+", 1)
                    b = b[: -len("*x")]
                    lines.append(f"{nxt['t']},{name},{info['v']},{a},{b}")
        return "\n".join(lines) + "\n"


def program_hash(program: Program) -> str:
    return hashlib.sha256(program.source.encode("utf-8")).hexdigest()


def _describe_changes(changes) -> List[List[str]]:
    out = []
    for x, v, f in changes:
        vs = "_" if v is KEEP else value_json(v) if not isinstance(v, str) else v
        fs = "_" if f is KEEP else str(f)
        out.append([x, str(vs), fs])
    return out


def _told_strings(told: frozenset) -> List[str]:
    if told is FALSE:
        return ["false"]
    return sorted(str(a) for a in told)


def _ended(trace: Trace, cause: str, clock: Fraction) -> Trace:
    """``trace`` with its terminal event appended."""
    trace.events.append({"t": value_json(clock), "kind": "terminal", "tau": None, "cause": cause, "told": []})
    return trace


def run(program: Program, options: RunOptions) -> Trace:
    """Execute a program to quiescence / max-time and record the full trace."""
    reset_fresh_counter()
    rng = random.Random(options.seed)
    draw = lambda lo, hi: builtin_random(lo, hi, rng)
    trace = Trace(program_hash(program), options)
    cfg = start_configuration(program)
    steps_total = 0
    steps_at_instant = 0
    # max_time in the clock's domain (LinCmp.bound_for): a float clock meets its
    # float when that is exact, so no step converts between floats and rationals
    end = LinCmp("clock", ">=", options.max_time)

    while True:
        successors = discrete_successors(cfg, program, draw)
        if successors:
            if steps_at_instant >= options.divergence_budget:
                return _ended(trace, "instant_divergence", cfg.clock)
            if steps_total >= options.max_discrete_steps:
                return _ended(trace, "max_steps", cfg.clock)
            if options.policy == "random" and len(successors) > 1:
                pick = rng.randrange(len(successors))
            else:
                pick = 0
            cfg, outcome = successors[pick]
            steps_total += 1
            steps_at_instant += 1
            choices = [{"site": "/".join(c.site), "picked": c.picked, "alternatives": c.alternatives} for c in outcome.choices]
            if len(successors) > 1:
                choices.insert(0, {"site": "scheduler", "picked": pick, "alternatives": len(successors)})
            trace.events.append({
                "t": value_json(cfg.clock), "kind": "discrete", "tau": None, "cause": None,
                "told": _told_strings(outcome.told), "changes": _describe_changes(outcome.changes), "choices": choices,
            })
            continue

        # discretely quiescent
        max_time = end.bound_for(cfg.clock)
        if cfg.clock >= max_time:
            return _ended(trace, "all_stop" if isinstance(cfg.agent, Stop) else "max_time", cfg.clock)
        remaining = max_time - cfg.clock
        horizon = remaining if options.horizon is None else min(options.horizon, remaining)
        result = compute_delay(cfg, program, horizon)
        if result.kind != "delay":
            return _ended(trace, result.kind, cfg.clock)
        tau = result.outcome.tau
        if tau >= remaining:
            tau = remaining  # a float tau that reaches the end lands on it exactly
        nxt = continuous_step(cfg, tau)
        trace.events.append({
            "t": value_json(cfg.clock), "kind": "continuous", "tau": value_json(tau), "cause": result.outcome.cause.value,
            "told": [], "vars": vars_json(nxt.continuous), "vars_before": vars_json(cfg.continuous),
        })
        cfg = nxt
        steps_at_instant = 0


# ---------------------------------------------------------------------------
# canonical configurations (renumbering of generated variables)


def canonical_key(cfg: Configuration) -> Tuple:
    """Hashable key identifying configurations up to generated-variable renaming.

    The agent and then the store are printed (each agent node's text, each
    store's and each continuous store's entries are printed once and kept),
    each constraint's atoms in the order of their text with generated names
    masked; generated names are then numbered c1, c2, ... in order of first
    occurrence.  Atoms whose masked texts are equal are still ordered by
    their numbers.
    """
    numbers: dict = {}
    number = lambda m: numbers.setdefault(m.group(), f"c{len(numbers) + 1}")
    agent = FRESH_NAME.sub(number, pretty(cfg.agent))
    store = FRESH_NAME.sub(number, str(cfg.discrete))
    return (agent, (), store, cfg.continuous.texts(), value_json(cfg.clock))


# ---------------------------------------------------------------------------
# bounded exhaustive exploration


class ReachabilityReport:
    __slots__ = ("states", "depth", "complete")

    def __init__(self, states: Set[Tuple], depth: int, complete: bool):
        self.states = states
        self.depth = depth
        self.complete = complete

    def to_json(self) -> dict:
        return {
            "kind": "reachability",
            "depth": self.depth,
            "complete": self.complete,
            "state_count": len(self.states),
            "states": sorted(repr(s) for s in self.states),
        }


def explore(program: Program, depth: int, time_samples: int = 0) -> ReachabilityReport:
    """Breadth-first reachable set up to ``depth`` combined steps, at most ``STATE_CAP`` states.

    The search starts from the initial agent with its scopes opened.
    Continuous steps use the earliest-event delay, up to ``EXPLORE_HORIZON``,
    plus ``time_samples`` extra durations sampled inside (0, tau).
    """
    reset_fresh_counter()
    cfg0 = start_configuration(program)
    seen = {canonical_key(cfg0)}
    frontier = [cfg0]
    complete = True
    for _ in range(depth):
        nxt: List[Configuration] = []
        for cfg in frontier:
            for succ in _explore_successors(cfg, program, time_samples):
                key = canonical_key(succ)
                if key not in seen:
                    if len(seen) >= STATE_CAP:
                        complete = False
                        continue
                    seen.add(key)
                    nxt.append(succ)
        frontier = nxt
        if not frontier:
            break
    return ReachabilityReport(seen, depth, complete)


def _explore_successors(cfg: Configuration, program: Program, time_samples: int) -> List[Configuration]:
    succs = [c for c, _ in discrete_successors(cfg, program)]
    if succs:
        return succs
    result = compute_delay(cfg, program, EXPLORE_HORIZON)
    if result.kind != "delay":
        return []
    tau = result.outcome.tau
    taus = [tau]
    for i in range(1, time_samples + 1):
        taus.append(tau * Fraction(i, time_samples + 1))
    return [continuous_step(cfg, t) for t in sorted(set(taus)) if t > 0]
