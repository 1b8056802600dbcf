"""Abstract syntax for Hy-tccp agents, declarations and programs.

The agent grammar covers stop, tell, parallel composition, hiding, guarded
choice (ask branches plus ask~ invariants), now/then/else, process calls and
the continuous-variable reset agent ``change``.  Like the terms, AST nodes
are slotted, compared by field, and immutable by convention: no code assigns
a field after construction.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Tuple, Union

from .constraints import (
    FALSE,
    OP_TEXT,
    Term,
    TermEq,
    LinCmp,
    Num,
    Var,
    Record,
    atom_text_order,
    constraint_vars,
    format_rational,
    map_term,
)


class Keep(Record):
    """Marker for the ``_`` argument of change: leave that component untouched."""

    __slots__ = ()


KEEP = Keep()


class Flow(Record):
    """Affine dynamics dx/dt = a + b*x.

    Whether the rate is constant (b = 0), the floats an exponential flow is
    solved in, and the flow's text are computed on first use and kept on the
    object, as is the last level crossing solved on it (``flows._hit_time``);
    they take no part in equality, hashing or printing.
    """

    __slots__ = ("a", "b", "__dict__")

    def __init__(self, a: Fraction, b: Fraction):
        self.a = a
        self.b = b

    @cached_property
    def constant_rate(self) -> bool:
        return self.b == 0

    @cached_property
    def float_a(self) -> float:
        return float(self.a)

    @cached_property
    def float_b(self) -> float:
        return float(self.b)

    @cached_property
    def shift(self) -> float:
        """a/b in floats, the offset that makes x + a/b a pure exponential (b != 0)."""
        return self.float_a / self.float_b

    @cached_property
    def text(self) -> str:
        return f"{format_rational(self.a)}+{format_rational(self.b)}*x"

    def __str__(self) -> str:
        return self.text


class LinExpr(Record):
    """Linear expression over discrete variables plus the flowing variable itself.

    ``terms`` are (coefficient, variable-or-None) pairs summed together; the
    entry keyed on the flowing variable contributes the ODE's linear part.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Tuple[Fraction, Optional[str]], ...]):
        self.terms = terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (coef, var) in enumerate(self.terms):
            sign = "-" if coef < 0 else "+"
            mag = abs(coef)
            if var is None:
                body = format_rational(mag)
            elif mag == 1:
                body = var
            else:
                body = f"{format_rational(mag)}*{var}"
            parts.append(body if i == 0 and sign == "+" else f"{sign} {body}" if i else f"-{body}")
        return " ".join(parts)

    def rename(self, mapping: dict) -> "LinExpr":
        return LinExpr(tuple((c, mapping.get(v, v) if v is not None else None) for c, v in self.terms))


# --- agents


class _Node(Record):
    """An agent node.  Its text (``pretty``) is printed once and kept in the slot
    ``_text``; like ``Flow``'s floats it takes no part in equality, hash or repr."""

    __slots__ = ("_text",)


class Stop(_Node):
    __slots__ = ()


class Tell(_Node):
    __slots__ = ("constraint",)

    def __init__(self, constraint: frozenset):
        self.constraint = constraint


class Parallel(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: "Agent", right: "Agent"):
        self.left = left
        self.right = right


class Hide(_Node):
    """Scope agent ``exists vars (body)``.

    A scope has no store of its own.  Before the first step, and at each
    process call in the same walk that renames the parameters, the engine
    renames its bound names to generated ones and puts the renamed body in
    its place (``semantics.open_scopes``).  So scope nodes exist only in
    parser output and declaration bodies, never in a running agent, and
    never bind a generated name.
    """

    __slots__ = ("vars", "body")

    def __init__(self, vars: Tuple[str, ...], body: "Agent"):
        self.vars = vars
        self.body = body


class AskBranch(Record):
    __slots__ = ("guard", "body")

    def __init__(self, guard: frozenset, body: "Agent"):
        self.guard = guard
        self.body = body


class Choice(_Node):
    __slots__ = ("ask_branches", "cont_branches")

    def __init__(self, ask_branches: Tuple[AskBranch, ...], cont_branches: Tuple[frozenset, ...] = ()):
        self.ask_branches = ask_branches
        self.cont_branches = cont_branches  # ask~ invariants


class Now(_Node):
    __slots__ = ("guard", "then", "orelse")

    def __init__(self, guard: frozenset, then: "Agent", orelse: "Agent"):
        self.guard = guard
        self.then = then
        self.orelse = orelse


class Call(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[str, ...]):
        self.name = name
        self.args = args


class Change(_Node):
    __slots__ = ("var", "value", "flow")

    def __init__(self, var: str, value: Union[Fraction, str, Keep], flow: Union[LinExpr, Keep]):
        self.var = var
        self.value = value  # rational, discrete variable, or KEEP
        self.flow = flow  # d(var)/dt, unevaluated, or KEEP


Agent = Union[Stop, Tell, Parallel, Hide, Choice, Now, Call, Change]

STOP = Stop()


def par(left: Agent, right: Agent) -> Agent:
    """``left || right`` with the structural law ``A || stop == A`` applied."""
    if isinstance(right, Stop):
        return left
    if isinstance(left, Stop):
        return right
    return Parallel(left, right)


class Declaration(Record):
    """A process declaration ``name(params) :- body``.

    A body that opens no scope draws no generated name when a call unfolds
    it, so its instance for given arguments is always the same agent.
    ``_instances`` keeps those instances, keyed by argument tuple
    (``semantics.step_agent``), and is None for a body that opens a scope;
    like ``_Node._text`` it takes no part in equality, hash or repr.
    """

    __slots__ = ("name", "params", "body", "_instances")

    def __init__(self, name: str, params: Tuple[str, ...], body: Agent):
        self.name = name
        self.params = params
        self.body = body
        self._instances = None if any(isinstance(node, Hide) for node in nodes(body)) else {}


class Program(Record):
    __slots__ = ("constants", "declarations", "initial", "source", "__dict__")

    def __init__(self, constants: dict, declarations: Tuple[Declaration, ...], initial: Agent, source: str = ""):
        self.constants = constants
        self.declarations = declarations
        self.initial = initial
        self.source = source  # the text parse_program read

    def lookup(self, name: str, arity: int) -> Tuple[Declaration, ...]:
        return tuple(d for d in self.declarations if d.name == name and len(d.params) == arity)

    @cached_property
    def continuous(self) -> frozenset:
        """The continuous parameter positions ``(name, arity, index)``.

        A position is continuous if its declaration's body changes the
        parameter or passes it to a continuous position.  Keyed by position:
        a parameter name another declaration changes stays discrete.
        """
        closed = position_fixpoint(self.declarations, uses)
        return frozenset(position for position, roles in closed.items() if SET in roles or KEPT in roles)


def position_fixpoint(declarations, roles) -> dict:
    """Each parameter position ``(name, arity, index)`` with its parameter's roles:
    those ``roles(body)`` pairs it with, as ``uses`` does, and, to the least
    fixpoint, those of each position it is passed to."""
    own = [
        ((d.name, len(d.params), d.params.index(name)), role)
        for d in declarations
        for name, role in roles(d.body)
        if name in d.params
    ]
    closed: dict = {}
    while True:
        found: dict = {}
        for position, role in own:
            found.setdefault(position, set()).update(closed.get(role, ()) if isinstance(role, tuple) else (role,))
        if found == closed:
            return closed
        closed = found


def continuous_names(agent: Agent, positions) -> set:
    """The free names ``agent`` changes or passes to a position in ``positions``."""
    return {name for name, role in uses(agent) if role is SET or role is KEPT or role in positions}


# --- traversal: the one place that knows which fields of each form are
# sub-agents, names and constraints

# The role of a name in ``uses``: SET by change(X, value, flow), KEPT by a
# change(X, _, flow) or change(X, value, _), READ by a change value or flow,
# INVARIANT in an ask~ atom comparing it with a number, in a TELL or a GUARD
# (ask, now or ask~), or passed to a call position (name, arity, index).
SET, KEPT, READ, INVARIANT, TELL, GUARD = "set", "kept", "read", "invariant", "tell", "guard"


def uses(agent: Agent) -> list:
    """Each use of a free name of ``agent``, in pre-order (atoms in set order): ``(name, role)``.

    A tell or a guard is one use, ``(constraint, TELL or GUARD)``, whose reader
    reads its names; only under a scope that binds some of them is each free
    one a use of its own, ``(name, TELL or GUARD)``.
    """
    out = []
    stack = [(agent, frozenset())]  # a sub-agent and the names scopes above it bind
    while stack:
        node, bound = stack.pop()
        own = []
        if isinstance(node, Parallel):
            stack += ((node.right, bound), (node.left, bound))
        elif isinstance(node, Hide):
            stack.append((node.body, bound.union(node.vars)))
        elif isinstance(node, Change):
            own.append((node.var, KEPT if node.value is KEEP or node.flow is KEEP else SET))
            if isinstance(node.value, str):
                own.append((node.value, READ))
            if node.flow is not KEEP:
                own += [(x, READ) for _, x in node.flow.terms if x is not None and x != node.var]
        elif isinstance(node, Call):
            own = [(x, (node.name, len(node.args), i)) for i, x in enumerate(node.args)]
        elif isinstance(node, Tell):
            own.append((node.constraint, TELL))
        elif isinstance(node, Choice):
            stack += [(b.body, bound) for b in reversed(node.ask_branches)]
            own = [(c, GUARD) for c in (*(b.guard for b in node.ask_branches), *node.cont_branches)]
            reads = (a.var for c in node.cont_branches for a in c if isinstance(a, LinCmp) or isinstance(a.term, Num))
            own += [(x, INVARIANT) for x in reads]
        elif isinstance(node, Now):
            stack += ((node.orelse, bound), (node.then, bound))
            own.append((node.guard, GUARD))
        for item, role in own:
            if not bound or isinstance(item, str) and item not in bound:
                out.append((item, role))
            elif not isinstance(item, str):
                names = constraint_vars(item)
                out += [(item, role)] if bound.isdisjoint(names) else [(x, role) for x in sorted(names - bound)]
    return out


def children(agent: Agent) -> Tuple[Agent, ...]:
    """The sub-agents of ``agent``, left to right."""
    if isinstance(agent, Parallel):
        return (agent.left, agent.right)
    if isinstance(agent, Hide):
        return (agent.body,)
    if isinstance(agent, Choice):
        return tuple(b.body for b in agent.ask_branches)
    if isinstance(agent, Now):
        return (agent.then, agent.orelse)
    return ()


def nodes(agent: Agent) -> Iterator[Agent]:
    """``agent`` and every sub-agent below it, in pre-order."""
    stack = [agent]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def rebuild(agent: Agent, kids: Sequence[Agent], mapping: dict) -> Agent:
    """The same node over sub-agents ``kids``, with its own names renamed per ``mapping``.

    Not for a scope: ``open_scopes``, the one walk that meets scopes,
    replaces each by its renamed body instead.  A parallel node is rebuilt
    with ``par``.
    """
    name = lambda n: mapping.get(n, n)
    if isinstance(agent, Tell):
        return Tell(rename_atoms(agent.constraint, mapping))
    if isinstance(agent, Parallel):
        return par(*kids)
    if isinstance(agent, Choice):
        return Choice(
            tuple(AskBranch(rename_atoms(b.guard, mapping), kid) for b, kid in zip(agent.ask_branches, kids)),
            tuple(rename_atoms(inv, mapping) for inv in agent.cont_branches),
        )
    if isinstance(agent, Now):
        return Now(rename_atoms(agent.guard, mapping), *kids)
    if isinstance(agent, Call):
        return Call(agent.name, tuple(map(name, agent.args)))
    if isinstance(agent, Change):
        value = name(agent.value) if isinstance(agent.value, str) else agent.value
        flow = agent.flow if agent.flow is KEEP else agent.flow.rename(mapping)
        return Change(name(agent.var), value, flow)
    return agent


def rename_atoms(c: frozenset, mapping: dict) -> frozenset:
    """``c``, a tell or a guard, renamed atom by atom, not solved.

    Tells and guards are renamed this way: each is the frozenset of its atoms
    as written, whether parsed or renamed at a call, or FALSE, which no
    renaming changes.  ``conj`` alone solves a tell, and ``entails`` alone
    says what a guard means.
    """
    if c is FALSE or not mapping:
        return c

    def leaf(t: Term) -> Term:
        return Var(mapping.get(t.name, t.name)) if isinstance(t, Var) else t

    atoms = []
    for a in c:
        if isinstance(a, TermEq):
            atoms.append(TermEq(mapping.get(a.var, a.var), map_term(a.term, leaf)))
        else:
            atoms.append(LinCmp(mapping.get(a.var, a.var), a.op, a.bound))
    return frozenset(atoms)


# --- pretty printer (inverse of the parser on parsed ASTs)


def _pp_constraint(c: frozenset) -> str:
    if c is FALSE:
        return "false"
    if not c:
        return "true"
    return " /\\ ".join(sorted(map(_pp_atom, c), key=atom_text_order))


def _pp_atom(a) -> str:
    if isinstance(a, TermEq):
        return f"{a.var} = {a.term}"
    return f"{a.var} {OP_TEXT[a.op]} {format_rational(a.bound)}"


def pretty(agent: Agent) -> str:
    """The text of ``agent``, which the parser reads back as ``agent``.  A node's text is
    printed once and kept on the node, so a print prints only nodes no earlier one met."""
    new, stack = [], [agent]  # the nodes not printed yet, each before its sub-agents
    while stack:
        node = stack.pop()
        if not hasattr(node, "_text"):
            new.append(node)
            stack += children(node)
    for node in reversed(new):  # sub-agents first, so no print recurses
        node._text = _pretty(node)
    return agent._text


def _pretty(agent: Agent) -> str:
    if isinstance(agent, Stop):
        return "stop"
    if isinstance(agent, Tell):
        return f"tell({_pp_constraint(agent.constraint)})"
    if isinstance(agent, Parallel):
        # '||' parses left-associatively: a right-nested parallel needs parens
        return f"{_pp_operand(agent.left, (Choice, Now))} || {_pp_operand(agent.right)}"
    if isinstance(agent, Hide):
        return f"exists {', '.join(agent.vars)} ({agent.body._text})"
    if isinstance(agent, Choice):
        parts = [f"ask({_pp_constraint(b.guard)}) -> {_pp_operand(b.body)}" for b in agent.ask_branches]
        parts += [f"ask~({_pp_constraint(inv)})" for inv in agent.cont_branches]
        return " + ".join(parts)
    if isinstance(agent, Now):
        return f"now {_pp_constraint(agent.guard)} then {_pp_operand(agent.then)} else {_pp_operand(agent.orelse)}"
    if isinstance(agent, Call):
        return f"{agent.name}({', '.join(agent.args)})" if agent.args else agent.name
    if isinstance(agent, Change):
        val = agent.value if isinstance(agent.value, str) else "_" if agent.value is KEEP else format_rational(agent.value)
        flow = "_" if agent.flow is KEEP else f"der({agent.var}) = {agent.flow}"
        return f"change({agent.var}, {val}, {flow})"


def _pp_operand(agent: Agent, bracketed: tuple = (Parallel, Choice, Now)) -> str:
    # by default, the forms bracketed as a branch body or as the right operand of '||'
    return f"({agent._text})" if isinstance(agent, bracketed) else agent._text


# --- builtins


def builtin_random(lo: Fraction, hi: Fraction, rng: random.Random) -> Fraction:
    """Uniform integer draw from [lo, hi] using the program-wide seeded generator.

    Quantized to integers (``random.Random.randint`` on the integer points of
    the interval) so traces are reproducible and discrete stores stay exact.
    The parser checks that the interval holds an integer.
    """
    low = math.ceil(lo)
    high = math.floor(hi)
    return Fraction(rng.randint(low, high))
