"""Transition engine over configurations <agent, discrete store, continuous store>.

Discrete steps are instantaneous and implement tell, choice, now, parallel
(maximal parallelism), process call and the continuous reset agent.
Continuous steps advance every continuous variable by one shared duration
and leave the agent and the discrete store untouched.  Time may pass only
when no discrete step is enabled anywhere.  Hiding is renaming to generated
names: ``open_scopes``, one walk, opens every scope of the starting agent
(``start_configuration``) and, as it renames parameters, of each unfolded
call body, so the step rules never meet a scope.  A body that opens no scope
draws no generated name, so a call reuses the instance an earlier call with
the same arguments built (``Declaration._instances``), unless an argument is
a generated name.  Agents the engine makes obey ``A || stop == A``
(``syntax.par``), so stopped components do not pile up as a run goes on.  A
step's increment is the atoms of its tells as written, renamed, draws
substituted, in one frozenset (FALSE if a tell is false): only ``conj``
solves them, into the store.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .constraints import (
    FALSE,
    TRUE,
    Cons,
    RandomTerm,
    Term,
    TermEq,
    LinCmp,
    ModelError,
    Record,
    bound_number,
    conj,
    entails,
    fresh_var,
    is_fresh_name,
    map_term,
    term_vars,
)
from .flows import (
    ContinuousStore,
    DelayOutcome,
    EMPTY_STORE,
    Entry,
    apply_change,
    evolve,
    max_delay,
)
from .syntax import (
    Agent,
    Call,
    Change,
    Choice,
    Flow,
    Hide,
    KEEP,
    LinExpr,
    Now,
    Parallel,
    Program,
    STOP,
    Stop,
    Tell,
    children,
    continuous_names,
    par,
    rebuild,
)

DrawFn = Callable[[Fraction, Fraction], Fraction]


def no_draw(lo: Fraction, hi: Fraction) -> Fraction:
    raise ModelError("random() needs a seeded generator; explore does not draw random values")


NOTHING = frozenset()  # the increment of a step that tells nothing


class Configuration(Record):
    """An agent, its discrete store (built with ``conj(TRUE, ...)``, or FALSE), continuous store and clock.

    The store is never a tell: ``TRUE`` is only the empty store."""

    __slots__ = ("agent", "discrete", "continuous", "clock")

    def __init__(
        self, agent: Agent, discrete=TRUE, continuous: ContinuousStore = EMPTY_STORE, clock: Fraction = Fraction(0)
    ):
        self.agent = agent
        self.discrete = discrete
        self.continuous = continuous
        self.clock = clock


class ChoiceRecord(Record):
    __slots__ = ("site", "picked", "alternatives")

    def __init__(self, site: Tuple[str, ...], picked: int, alternatives: int):
        self.site = site  # path into the agent tree
        self.picked = picked
        self.alternatives = alternatives


class Outcome(Record):
    """One possible discrete step of a sub-agent, as increments: ``told`` is a
    frozenset of atoms as written (``NOTHING`` for a step that tells nothing),
    or FALSE."""

    __slots__ = ("agent", "told", "changes", "choices")

    def __init__(
        self, agent: Agent, told: frozenset, changes: Tuple[tuple, ...], choices: Tuple[ChoiceRecord, ...] = ()
    ):
        self.agent = agent
        self.told = told
        self.changes = changes  # (var, value|KEEP, Flow|KEEP)
        self.choices = choices


# ---------------------------------------------------------------------------
# evaluation of change arguments


def _lookup_number(name: str, store) -> Fraction:
    value = bound_number(store, name)
    if value is None:
        raise ModelError(f"variable {name} is not bound to a number")
    return value


def eval_flow(x: str, expr: LinExpr, store) -> Flow:
    """The flow ``d(x)/dt = expr``, its other variables read from ``store``."""
    a = Fraction(0)
    b = Fraction(0)
    for coef, var in expr.terms:
        if var is None:
            a += coef
        elif var == x:
            b += coef
        else:
            a += coef * _lookup_number(var, store)
    return Flow(a, b)


def eval_change_value(value, store):
    if value is KEEP:
        return KEEP
    if isinstance(value, str):
        return _lookup_number(value, store)
    return value


def _draws(t: Term) -> bool:
    """Whether ``t`` holds a random(lo,hi) placeholder, in a list cell too."""
    while isinstance(t, Cons):
        if _draws(t.head):
            return True
        t = t.tail
    return isinstance(t, RandomTerm)


def resolve_random_terms(c: frozenset, draw: DrawFn) -> frozenset:
    """A tell's atoms with each random(lo,hi) placeholder replaced by a drawn value, not solved,
    or the tell itself if it draws nothing.  Values are drawn in the order of the drawing
    atoms' text, not of their hashes, so a seed draws the same values in every process."""
    drawing = [a for a in c if isinstance(a, TermEq) and _draws(a.term)]
    if not drawing:
        return c

    def leaf(t: Term) -> Term:
        return draw(t.lo, t.hi) if isinstance(t, RandomTerm) else t

    drawn = {a: TermEq(a.var, map_term(a.term, leaf)) for a in sorted(drawing, key=str)}
    return frozenset(drawn.get(a, a) for a in c)


# ---------------------------------------------------------------------------
# the discrete step relation


def open_scopes(agent: Agent, continuous, mapping: dict) -> Agent:
    """``agent`` with its free names renamed per ``mapping`` and each scope opened.

    One walk instantiates a call body (``mapping`` takes parameters to
    arguments) or opens the starting agent.  Each scope ``exists x (A)``
    becomes ``A[x'/x]``, x' fresh (``exists x' (A) == A``), once its bound
    names drop out of ``mapping``.  A continuous x (set by ``change`` in A or
    passed to a position in ``continuous``) is global and keeps its name,
    unless a value of ``mapping`` spells it: keeping it would capture that value.
    """
    if isinstance(agent, Hide):
        mapping = {k: v for k, v in mapping.items() if k not in agent.vars}
        kept = continuous_names(agent.body, continuous).difference(mapping.values())
        mapping.update((x, fresh_var(x)) for x in agent.vars if x not in kept)
        return open_scopes(agent.body, continuous, mapping)
    return rebuild(agent, tuple(open_scopes(kid, continuous, mapping) for kid in children(agent)), mapping)


def start_configuration(program: Program) -> Configuration:
    """The configuration a run or an exploration starts from: the program's
    initial agent with every scope opened, in empty stores."""
    return Configuration(open_scopes(program.initial, program.continuous, {}))


def guard_fault(atom: TermEq, name: str) -> str:
    """The model error of a guard ``atom`` that equates continuous ``name`` with a non-number."""
    return f"a guard equates continuous variable {name} with a non-number: {atom}"


def read_guard(guard: frozenset, store, entries: Dict[str, Entry]) -> Optional[List[LinCmp]]:
    """The guard's comparisons on names with a value in ``entries``, in text order under every
    hash seed, or None when ``store`` does not entail its other atoms.  A numeric equation on such
    a name is an ``=`` comparison, and any other equation that names one is a model error."""
    if not entries:  # no name has a value: the guard is entailed as itself
        return [] if entails(store, guard) else None
    names = entries.keys()
    disc, cont = [], []
    for atom in guard:
        if atom.var in names and isinstance(atom, LinCmp):
            cont.append(atom)
        elif atom.var in names and isinstance(atom.term, Fraction):
            cont.append(LinCmp(atom.var, "=", atom.term))
        elif isinstance(atom, LinCmp) or names.isdisjoint((atom.var, *term_vars(atom.term))):
            disc.append(atom)
        else:
            raise ModelError(guard_fault(atom, next(n for n in (atom.var, *term_vars(atom.term)) if n in names)))
    if len(cont) > 1:
        cont.sort(key=str)
    # a guard with no comparison is entailed as itself, which keeps its hash
    return cont if entails(store, frozenset(disc) if cont else guard) else None


def guard_holds(guard: frozenset, store, entries: Dict[str, Entry]) -> bool:
    """Whether ``store`` and ``entries`` entail the guard."""
    cont = read_guard(guard, store, entries)
    return cont is not None and all(a.holds(entries[a.var].value) for a in cont)


def step_agent(
    agent: Agent,
    store,
    entries: Dict[str, Entry],
    program: Program,
    draw: DrawFn = no_draw,
    path: Tuple[str, ...] = (),
) -> List[Outcome]:
    if isinstance(agent, Stop):
        return []

    if isinstance(agent, Tell):
        told = resolve_random_terms(agent.constraint, draw)
        return [Outcome(STOP, told, ())]

    if isinstance(agent, Change):
        value = eval_change_value(agent.value, store)
        flow = agent.flow if agent.flow is KEEP else eval_flow(agent.var, agent.flow, store)
        return [Outcome(STOP, NOTHING, ((agent.var, value, flow),))]

    if isinstance(agent, Choice):
        outs: List[Outcome] = []
        total = len(agent.ask_branches)
        for i, branch in enumerate(agent.ask_branches):
            if guard_holds(branch.guard, store, entries):
                outs.append(Outcome(branch.body, NOTHING, (), (ChoiceRecord(path, i, total),)))
        return outs

    if isinstance(agent, Now):
        cond = guard_holds(agent.guard, store, entries)
        chosen = agent.then if cond else agent.orelse
        side = "then" if cond else "else"
        return step_agent(chosen, store, entries, program, draw, path + (side,)) or [Outcome(chosen, NOTHING, ())]

    if isinstance(agent, Parallel):
        left = step_agent(agent.left, store, entries, program, draw, path + ("L",))
        right = step_agent(agent.right, store, entries, program, draw, path + ("R",))
        if left and right:
            return [
                Outcome(
                    par(a.agent, b.agent),
                    # both increments' atoms, unsolved; false if either side is
                    FALSE if a.told is FALSE or b.told is FALSE else a.told | b.told,
                    a.changes + b.changes,
                    a.choices + b.choices,
                )
                for a in left
                for b in right
            ]
        if left:
            return [Outcome(par(o.agent, agent.right), o.told, o.changes, o.choices) for o in left]
        if right:
            return [Outcome(par(agent.left, o.agent), o.told, o.changes, o.choices) for o in right]
        return []

    if isinstance(agent, Call):
        # a body that opens no scope is built once per argument tuple and kept on its
        # declaration; arguments that hold a generated name keep nothing, since such
        # names are new at each turn of a recursion and the table would grow with time
        decls = program.lookup(agent.name, len(agent.args))
        outs = []
        for i, decl in enumerate(decls):
            instances = decl._instances
            body = None if instances is None else instances.get(agent.args)
            if body is None:
                mapping = {p: a for p, a in zip(decl.params, agent.args) if p != a}
                body = open_scopes(decl.body, program.continuous, mapping)
                if instances is not None and not any(map(is_fresh_name, agent.args)):
                    instances[agent.args] = body
            record = (ChoiceRecord(path + ("call:" + agent.name,), i, len(decls)),) if len(decls) > 1 else ()
            outs.append(Outcome(body, NOTHING, (), record))
        return outs

    raise TypeError(f"not an agent: {agent!r}")


def discrete_successors(
    cfg: Configuration, program: Program, draw: DrawFn = no_draw
) -> List[Tuple[Configuration, Outcome]]:
    """All configurations reachable in one discrete step, with their increments."""
    outcomes = step_agent(cfg.agent, cfg.discrete, cfg.continuous.entries, program, draw)
    result = []
    for o in outcomes:
        store = conj(cfg.discrete, o.told)
        cont = cfg.continuous
        for x, v, f in o.changes:
            cont = apply_change(cont, x, v, f)
        result.append((Configuration(o.agent, store, cont, cfg.clock), o))
    return result


def continuous_step(cfg: Configuration, tau) -> Configuration:
    """Advance time: values evolve, agent / discrete store / flows unchanged."""
    if tau <= 0:
        raise ValueError("continuous step duration must be positive")
    return Configuration(cfg.agent, cfg.discrete, evolve(cfg.continuous, tau), cfg.clock + tau)


# ---------------------------------------------------------------------------
# waiting-state analysis (what to watch while time passes)


def analyze_waiting(
    agent: Agent,
    store,
    entries: Dict[str, Entry],
) -> Optional[Tuple[list, list]]:
    """What time waits for in a quiescent agent: ``(components, watches)``, or None.

    Must only be called when ``agent`` has no discrete successor, so its
    active positions are stop and suspended choices, and no ask guard holds
    now.  ``components`` holds one entry per ask~ component: the continuous
    comparisons (``read_guard``) of its invariants whose rest the store
    entails.  ``watches`` holds those of the ask guards; a purely discrete
    guard is left out, as time passing cannot enable it.  None means a
    component that can neither step nor let time pass.
    """
    components: List[List[List[LinCmp]]] = []
    watches: List[Tuple[LinCmp, ...]] = []
    todo = [agent]
    while todo:
        node = todo.pop()
        if isinstance(node, Parallel):
            todo.append(node.right)
            todo.append(node.left)
        elif isinstance(node, Choice):
            for branch in node.ask_branches:
                cont = read_guard(branch.guard, store, entries)
                if cont:
                    watches.append(tuple(cont))
            if node.cont_branches:
                reads = [read_guard(inv, store, entries) for inv in node.cont_branches]
                components.append([cont for cont in reads if cont is not None])  # None: it cannot hold
        elif not isinstance(node, Stop):
            return None  # a call to a process with no declaration
    return components, watches


class DelayResult(Record):
    __slots__ = ("outcome", "kind")

    def __init__(self, outcome: Optional[DelayOutcome], kind: str):
        self.outcome = outcome
        self.kind = kind  # "delay" | "all_stop" | "suspended" | "timelock"


def compute_delay(cfg: Configuration, program: Program, horizon) -> DelayResult:
    """Global delay decision for a discretely quiescent configuration.

    A stopped agent is ``STOP`` (``syntax.par``).  With no ask~ component
    nothing drives time: watched guards can never fire (timelock), and
    without them the agent waits on the discrete store (suspended).
    Otherwise ``flows.max_delay`` picks the delay; ``horizon`` is a number
    that always bounds it (a run's remaining time, capped by its
    ``horizon`` option, or ``simulator.EXPLORE_HORIZON``).
    """
    if isinstance(cfg.agent, Stop):
        return DelayResult(None, "all_stop")
    waiting = analyze_waiting(cfg.agent, cfg.discrete, cfg.continuous.entries)
    if waiting is None:
        return DelayResult(None, "timelock")
    components, watches = waiting
    if not components:
        return DelayResult(None, "timelock" if watches else "suspended")
    outcome = max_delay(components, watches, cfg.continuous, horizon)
    return DelayResult(outcome, "timelock" if outcome is None else "delay")
