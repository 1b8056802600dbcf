"""Bounded random program generator shared by property and acceptance tests.

Programs are built directly as ASTs with a seeded generator.  The shape is
bounded on purpose: at most 3-way parallel composition inside the body, at
most 4 branches per choice, at most 3 continuous variables.  Every continuous
variable is initialized by a change agent in the very first step; the rest of
the program is gated behind ask(Go = go) so no guard can read a continuous
variable before it exists.

``recursive_program`` is a second family, written as source text: recursive
stream pipelines shaped like ``models/dam.hyt``, the regime the first family
never reaches (process calls, scopes nesting one deeper per element, growing
streams).

``free_vars`` and ``crossing_time`` are readings of the engine's public
functions that several test modules check against.
"""
from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from hytccp.constraints import (
    Atom,
    Cons,
    LinCmp,
    TermEq,
    WILDCARD,
    constraint_vars,
)
from hytccp.flows import truth_interval
from hytccp.parser import parse_program
from hytccp.syntax import (
    AskBranch,
    Change,
    Choice,
    Hide,
    LinExpr,
    KEEP,
    Now,
    Parallel,
    Program,
    STOP,
    Tell,
    uses,
)

DISCRETE_VARS = ["X", "Y", "Z", "W"]
CONT_VARS = ["Cx", "Cy", "Cz"]
ATOM_NAMES = ["a", "b", "c"]


def _term(rng: random.Random, wildcard_ok: bool):
    r = rng.random()
    if r < 0.40:
        return Atom(rng.choice(ATOM_NAMES))
    if r < 0.70:
        tail = WILDCARD if wildcard_ok and rng.random() < 0.5 else rng.choice(DISCRETE_VARS)
        return Cons(Atom(rng.choice(ATOM_NAMES)), tail)
    if r < 0.85:
        return Fraction(rng.randint(0, 5))
    return rng.choice(DISCRETE_VARS)


def random_constraint(rng: random.Random, cont_vars, wildcard_ok: bool):
    """A guard (``wildcard_ok``) or a tell as the parser keeps one: its atoms as written.

    A tell takes two distinct left-hand variables; a guard's second may
    repeat its first.  Both draws take from ``rng`` what ``rng.sample`` would.
    """
    if wildcard_ok:
        lhs = [DISCRETE_VARS[rng.randrange(len(DISCRETE_VARS))], DISCRETE_VARS[rng.randrange(len(DISCRETE_VARS) - 1)]]
    else:
        lhs = rng.sample(DISCRETE_VARS, 2)
    atoms = []
    for i in range(rng.randint(1, 2)):
        if cont_vars and rng.random() < 0.35:
            var = rng.choice(cont_vars)
            op = rng.choice(["<", "<=", ">", ">=", "="])
            bound = Fraction(rng.randint(0, 8))
            # equations on continuous variables are written as term equations,
            # matching what the parser produces for `V = 7`
            atoms.append(TermEq(var, bound) if op == "=" else LinCmp(var, op, bound))
        else:
            atoms.append(TermEq(lhs[i], _term(rng, wildcard_ok)))
    return frozenset(atoms)


def _flow(rng: random.Random) -> LinExpr:
    # constant slope in [-2, 2] \ {0}: exact linear trajectories
    return LinExpr(((Fraction(rng.choice([-2, -1, 1, 2])), None),))


def random_agent(rng: random.Random, depth: int, cont_vars):
    if depth <= 0:
        if rng.random() < 0.5:
            return STOP
        return Tell(random_constraint(rng, [], wildcard_ok=False))
    r = rng.random()
    if r < 0.12:
        return STOP
    if r < 0.32:
        return Tell(random_constraint(rng, [], wildcard_ok=False))
    if r < 0.52:
        agent = random_agent(rng, depth - 1, cont_vars)
        for _ in range(rng.randint(1, 2)):
            agent = Parallel(agent, random_agent(rng, depth - 1, cont_vars))
        return agent
    if r < 0.74:
        branches = tuple(
            AskBranch(random_constraint(rng, cont_vars, wildcard_ok=True), random_agent(rng, depth - 1, cont_vars))
            for _ in range(rng.randint(1, 4))
        )
        invariants = ()
        if rng.random() < 0.5:
            if cont_vars and rng.random() < 0.7:
                invariants = (
                    frozenset({LinCmp(rng.choice(cont_vars), rng.choice(["<=", "<"]), Fraction(rng.randint(1, 10)))}),
                )
            else:
                invariants = (frozenset(),)
        return Choice(branches, invariants)
    if r < 0.84:
        return Now(
            random_constraint(rng, cont_vars, wildcard_ok=True),
            random_agent(rng, depth - 1, cont_vars),
            random_agent(rng, depth - 1, cont_vars),
        )
    if r < 0.94 and cont_vars:
        var = rng.choice(cont_vars)
        value = KEEP if rng.random() < 0.5 else Fraction(rng.randint(0, 5))
        return Change(var, value, _flow(rng))
    return Hide((rng.choice(DISCRETE_VARS),), random_agent(rng, depth - 1, cont_vars))


def random_program(seed: int, max_depth: int = 3) -> Program:
    """One bounded random program; the same seed always yields the same AST."""
    rng = random.Random(seed)
    cont_vars = CONT_VARS[: rng.randint(0, 3)]
    body = random_agent(rng, rng.randint(1, max_depth), cont_vars)
    go = frozenset({TermEq("Go", Atom("go"))})
    agent = Tell(go)
    for var in cont_vars:
        agent = Parallel(agent, Change(var, Fraction(rng.randint(0, 5)), _flow(rng)))
    agent = Parallel(agent, Choice((AskBranch(go, body),), ()))
    return Program({}, (), agent, source=f"generated-{seed}")


def recursive_program(seed: int) -> Program:
    """One seeded stream pipeline shaped like the dam's supplier, controller and gates.

    A timed producer appends one atom per period to the stream S; an optional
    relay copies each element to the stream Out; one or two consumers take
    the elements.  Each process recurses inside an ``exists``, tells
    ``S = [V|S1]`` and waits on ``ask(S = [_|_])`` or on a pattern.
    """
    rng = random.Random(seed)
    period = rng.randint(1, 3)
    produce = " + ".join(
        f"ask(T = {period}) -> (tell(S = [{v}|S1]) || change(T, 0, der(T) = 1) || producer(T, S1))"
        for v in rng.sample(ATOM_NAMES, rng.randint(1, 2))
    )
    lines = [f"producer(T, S) :- exists S1 (ask~(T =< {period}) + {produce})."]
    if rng.random() < 0.5:
        lines.append("consumer(S) :- exists H, S1 (ask(S = [_|_]) -> (tell(S = [H|S1]) || consumer(S1))).")
    else:
        take = " + ".join(f"ask(S = [{v}|_]) -> (tell(S = [{v}|S1]) || consumer(S1))" for v in ATOM_NAMES)
        lines.append(f"consumer(S) :- exists S1 ({take}).")
    names, parts, stream = ["T", "S"], ["change(T, 0, der(T) = 1)", "producer(T, S)"], "S"
    if rng.random() < 0.5:
        lines.append(
            "relay(In, Out) :- exists V, In1, Out1 (ask(In = [V|_]) ->"
            " (tell(In = [V|In1]) || tell(Out = [V|Out1]) || relay(In1, Out1)))."
        )
        names.append("Out")
        parts.append("relay(S, Out)")
        stream = "Out"
    parts += [f"consumer({stream})"] * rng.randint(1, 2)
    lines.append(f"init :- exists {', '.join(names)} ({' || '.join(parts)}).")
    text = "\n".join(lines)
    return parse_program(text)


def bench_workloads():
    """The benchmark's generators, ``bench/workloads.py``, loaded as a module of their own."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def thermostat_source(seed: int) -> str:
    """The benchmark's thermostats model, ``bench/workloads.thermostat_source(seed)``."""
    return bench_workloads().thermostat_source(seed)


def free_vars(agent) -> set:
    """The free names of ``agent``, read off ``syntax.uses``."""
    return set().union(*({item} if isinstance(item, str) else constraint_vars(item) for item, _ in uses(agent)))


def crossing_time(v0, f, cmp):
    """Earliest t >= 0 at which the truth value of ``cmp`` changes along (v0, f), or None."""
    iv = truth_interval(v0, f, cmp)
    return iv.end if cmp.holds(v0) else iv.start  # None for an unbounded end or an empty interval
