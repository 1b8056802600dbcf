"""Naive reference implementation of the transition rules, for testing only.

Successors are computed by direct structural recursion threading whole
configurations, with no increment bookkeeping and no optimization.  The
simulator's engine must agree with this module on every small program.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .constraints import conj
from .flows import ContinuousStore, Entry, UNBOUNDED, atoms_truth_interval, apply_change, evolve
from .semantics import (
    Configuration,
    compute_delay,
    eval_change_value,
    eval_flow,
    guard_holds,
    no_draw,
    open_scopes,
    read_guard,
    resolve_random_terms,
)
from .simulator import EXPLORE_HORIZON, canonical_key
from .syntax import (
    Agent,
    Call,
    Change,
    Choice,
    KEEP,
    Now,
    Parallel,
    Program,
    STOP,
    Stop,
    Tell,
    nodes,
    par,
)


# the most agent nodes a configuration the oracle steps may hold
SIZE_CAP = 200


class OracleSizeError(Exception):
    """Configuration exceeds the size cap the oracle is meant for."""


def _step(
    agent: Agent,
    store,
    cont: ContinuousStore,
    entries: Dict[str, Entry],
    program: Program,
) -> List[tuple]:
    """All single discrete transitions of one agent, each (agent, store, continuous
    store); guards read ``entries``, the step-start map."""
    if isinstance(agent, Stop):
        return []
    if isinstance(agent, Tell):
        return [(STOP, conj(store, resolve_random_terms(agent.constraint, no_draw)), cont)]
    if isinstance(agent, Change):
        value = eval_change_value(agent.value, store)
        flow = agent.flow if agent.flow is KEEP else eval_flow(agent.var, agent.flow, store)
        return [(STOP, store, apply_change(cont, agent.var, value, flow))]
    if isinstance(agent, Choice):
        results = []
        for branch in agent.ask_branches:
            if guard_holds(branch.guard, store, entries):
                results.append((branch.body, store, cont))
        return results
    if isinstance(agent, Now):
        chosen = agent.then if guard_holds(agent.guard, store, entries) else agent.orelse
        return _step(chosen, store, cont, entries, program) or [(chosen, store, cont)]
    if isinstance(agent, Parallel):
        lefts = _step(agent.left, store, cont, entries, program)
        results = []
        if lefts:
            for la, ld, lc in lefts:
                rights = _step(agent.right, store, lc, entries, program)
                if rights:
                    for ra, rd, rc in rights:
                        results.append((par(la, ra), conj(ld, rd), rc))
                else:
                    results.append((par(la, agent.right), ld, lc))
            return results
        rights = _step(agent.right, store, cont, entries, program)
        return [(par(agent.left, ra), rd, rc) for ra, rd, rc in rights]
    if isinstance(agent, Call):
        results = []
        for decl in program.lookup(agent.name, len(agent.args)):
            mapping = {p: a for p, a in zip(decl.params, agent.args) if p != a}
            results.append((open_scopes(decl.body, program.continuous, mapping), store, cont))
        return results
    raise TypeError(f"not an agent: {agent!r}")


def oracle_successors(cfg: Configuration, program: Program) -> List[Configuration]:
    """All one-step discrete successors, computed naively from the rules."""
    if sum(1 for _ in nodes(cfg.agent)) > SIZE_CAP:
        raise OracleSizeError(f"agent size exceeds the oracle cap ({SIZE_CAP})")
    steps = _step(cfg.agent, cfg.discrete, cfg.continuous, cfg.continuous.entries, program)
    return [Configuration(a, d, c, cfg.clock) for a, d, c in steps]


def _can_advance(agent: Agent, store, cont: ContinuousStore, tau) -> bool:
    """Whether one component admits a continuous transition of duration tau."""
    if isinstance(agent, Stop):
        return True  # structural idling
    if isinstance(agent, Parallel):
        return _can_advance(agent.left, store, cont, tau) and _can_advance(agent.right, store, cont, tau)
    if isinstance(agent, Choice):
        if not agent.cont_branches:
            return True  # suspended pure-ask choice idles
        for inv in agent.cont_branches:
            cmp_atoms = read_guard(inv, store, cont.entries)
            if cmp_atoms is None:
                continue
            iv = atoms_truth_interval(tuple(cmp_atoms), cont.entries)
            if iv.empty or iv.start > 0 or (iv.start == 0 and iv.start_open):
                continue
            if iv.end is UNBOUNDED or iv.end >= tau:
                return True
        return False
    return False  # now/call/tell/change always have a discrete step: time is blocked


def oracle_continuous(cfg: Configuration, program: Program, tau) -> Optional[Configuration]:
    """The continuous transition of duration tau, if derivable."""
    if tau <= 0:
        return None
    if _can_advance(cfg.agent, cfg.discrete, cfg.continuous, tau):
        return Configuration(cfg.agent, cfg.discrete, evolve(cfg.continuous, tau), cfg.clock + tau)
    return None


def oracle_reachable(cfg0: Configuration, program: Program, depth: int, taus_for=None) -> Set[Tuple]:
    """Reachable canonical states up to ``depth`` steps, discrete before continuous.

    The scopes of ``cfg0`` are opened first, as ``explore`` opens them.  Its
    continuous store must be empty: a bound name that holds a continuous
    value already would be renamed.  ``taus_for`` maps a configuration to the
    candidate continuous durations; by default the engine's earliest-event
    delay supplies the witness.
    """
    if taus_for is None:

        def taus_for(cfg):
            result = compute_delay(cfg, program, EXPLORE_HORIZON)
            return [result.outcome.tau] if result.kind == "delay" else []

    if cfg0.continuous.entries:
        raise ValueError("a run starts from an empty continuous store")
    cfg0 = Configuration(open_scopes(cfg0.agent, program.continuous, {}), cfg0.discrete, cfg0.continuous, cfg0.clock)
    seen = {canonical_key(cfg0)}
    frontier = [cfg0]
    for _ in range(depth):
        nxt = []
        for cfg in frontier:
            succs = oracle_successors(cfg, program)
            if not succs:
                for tau in taus_for(cfg):
                    adv = oracle_continuous(cfg, program, tau)
                    if adv is not None:
                        succs.append(adv)
            for succ in succs:
                key = canonical_key(succ)
                if key not in seen:
                    seen.add(key)
                    nxt.append(succ)
        frontier = nxt
        if not frontier:
            break
    return seen
