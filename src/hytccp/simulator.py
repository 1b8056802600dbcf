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
from typing import List, Optional, Set, Tuple, Union

from .constraints import (
    FALSE,
    FRESH_NAME,
    LinCmp,
    Record,
    reset_fresh_counter,
)
from .flows import ContinuousStore, value_json
from .semantics import (
    ChoiceRecord,
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
        return {
            "max_time": value_json(self.max_time),
            "max_discrete_steps": self.max_discrete_steps,
            "horizon": value_json(self.horizon) if self.horizon is not None else None,
            "policy": self.policy,
            "seed": self.seed,
            "divergence_budget": self.divergence_budget,
        }


def vars_json(store: ContinuousStore) -> dict:
    return {name: {"v": value, "flow": flow} for name, value, flow in store.texts()}


class DiscreteEvent(Record):
    __slots__ = ("clock", "told", "changes", "choices")

    def __init__(
        self, clock: Fraction, told: Tuple[str, ...], changes: Tuple[Tuple[str, str, str], ...], choices: Tuple[ChoiceRecord, ...]
    ):
        self.clock = clock
        self.told = told
        self.changes = changes
        self.choices = choices

    def to_json(self) -> dict:
        return {
            "t": value_json(self.clock),
            "kind": "discrete",
            "tau": None,
            "cause": None,
            "told": list(self.told),
            "changes": [list(c) for c in self.changes],
            "choices": [
                {"site": "/".join(c.site), "picked": c.picked, "alternatives": c.alternatives}
                for c in self.choices
            ],
        }


class ContinuousEvent(Record):
    __slots__ = ("clock_start", "tau", "cause", "before", "after")

    def __init__(self, clock_start: Fraction, tau: Fraction, cause: str, before: dict, after: dict):
        self.clock_start = clock_start
        self.tau = tau
        self.cause = cause
        self.before = before
        self.after = after

    def to_json(self) -> dict:
        return {
            "t": value_json(self.clock_start),
            "kind": "continuous",
            "tau": value_json(self.tau),
            "cause": self.cause,
            "told": [],
            "vars": self.after,
            "vars_before": self.before,
        }


class TerminalEvent(Record):
    __slots__ = ("kind", "clock")

    def __init__(self, kind: str, clock: Fraction):
        self.kind = kind  # all_stop | suspended | timelock | instant_divergence | max_time | max_steps
        self.clock = clock

    def to_json(self) -> dict:
        return {"t": value_json(self.clock), "kind": "terminal", "tau": None, "cause": self.kind, "told": []}


TraceEvent = Union[DiscreteEvent, ContinuousEvent, TerminalEvent]


class Trace:
    __slots__ = ("program_hash", "options", "events")

    def __init__(self, program_hash: str, options: RunOptions):
        self.program_hash = program_hash
        self.options = options
        self.events: List[TraceEvent] = []

    @property
    def terminal(self) -> Optional[TerminalEvent]:
        if self.events and isinstance(self.events[-1], TerminalEvent):
            return self.events[-1]
        return None

    def header_json(self) -> dict:
        return {
            "kind": "header",
            "program": self.program_hash,
            "options": self.options.to_json(),
            "seed": self.options.seed,
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header_json(), sort_keys=True)]
        lines += [json.dumps(ev.to_json(), sort_keys=True) for ev in self.events]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["t,var,value,flow_a,flow_b"]
        for ev in self.events:
            if isinstance(ev, ContinuousEvent):
                for name, info in sorted(ev.after.items()):
                    a, b = info["flow"].split("+", 1)
                    b = b[: -len("*x")]
                    t = value_json(ev.clock_start + ev.tau)
                    lines.append(f"{t},{name},{info['v']},{a},{b}")
        return "\n".join(lines) + "\n"


def program_hash(program: Program) -> str:
    return hashlib.sha256(program.source.encode("utf-8")).hexdigest()


def _describe_changes(changes) -> Tuple[Tuple[str, str, str], ...]:
    out = []
    for x, v, f in changes:
        vs = "_" if v is KEEP else value_json(v) if not isinstance(v, str) else v
        fs = "_" if f is KEEP else str(f)
        out.append((x, str(vs), fs))
    return tuple(out)


def _told_strings(told: frozenset) -> Tuple[str, ...]:
    if told is FALSE:
        return ("false",)
    return tuple(sorted(str(a) for a in told))


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
                trace.events.append(TerminalEvent("instant_divergence", cfg.clock))
                return trace
            if steps_total >= options.max_discrete_steps:
                trace.events.append(TerminalEvent("max_steps", cfg.clock))
                return trace
            if options.policy == "random" and len(successors) > 1:
                pick = rng.randrange(len(successors))
            else:
                pick = 0
            cfg, outcome = successors[pick]
            steps_total += 1
            steps_at_instant += 1
            choices = outcome.choices
            if len(successors) > 1:
                choices = (ChoiceRecord(("scheduler",), pick, len(successors)),) + choices
            trace.events.append(
                DiscreteEvent(cfg.clock, _told_strings(outcome.told), _describe_changes(outcome.changes), choices)
            )
            continue

        # discretely quiescent
        max_time = end.bound_for(cfg.clock)
        if cfg.clock >= max_time:
            kind = "all_stop" if isinstance(cfg.agent, Stop) else "max_time"
            trace.events.append(TerminalEvent(kind, cfg.clock))
            return trace
        remaining = max_time - cfg.clock
        horizon = remaining if options.horizon is None else min(options.horizon, remaining)
        result = compute_delay(cfg, program, horizon)
        if result.kind != "delay":
            trace.events.append(TerminalEvent(result.kind, cfg.clock))
            return trace
        tau = result.outcome.tau
        if tau >= remaining:
            tau = remaining  # a float tau that reaches the end lands on it exactly
        before = vars_json(cfg.continuous)
        nxt = continuous_step(cfg, tau)
        trace.events.append(ContinuousEvent(cfg.clock, tau, result.outcome.cause.value, before, vars_json(nxt.continuous)))
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
