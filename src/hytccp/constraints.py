"""Cylindric constraint system over Herbrand terms and single-variable comparisons.

One concrete instantiation: term equations (atoms, numbers, open-ended
streams) and comparisons of a single variable against a rational constant.
A tell or a guard is the frozenset of its atoms as written, or FALSE.  A
store, made by ``conj``, keeps each bound name's term as unified, which may
mention other bound names (triangular bindings, followed on read).  A store
is its bindings: it hashes its bound names, compares with another store link
by link, and prints each bound name's final term off the links.  ``TRUE`` is
the empty store.  ``FALSE`` is one value, the inconsistent store and the tell
or guard ``false``: it has no atom, and only it has ``consistent`` false.
Conjunction and entailment are the lattice operations; inconsistency is a
value (FALSE), never an exception.  Hiding lives in the engine: a scope's
bound names become generated ones, which its body tells in the one shared
store and which ``entails`` matches as placeholders.

The package has no constraint class, and no ``.atoms``: a store is no tell,
iterating one gives its atoms, and ``constraint_vars`` reads the names of
either.

A variable in a term is its name, a ``str``, and a number its ``Fraction``.
Terms and atomic constraints are immutable; four classes of them cache their
hash at construction (see ``Record``), as stores grow monotonically and the
same atoms are re-examined on every step.  Every walk over a term loops over
its list cells, so no list's length nor store's binding depth reaches the
Python stack.
"""
from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union


class Record:
    """A value compared, hashed and printed by its fields: the names in its class's
    ``__slots__`` that do not start with ``_`` (a slot that does keeps a value computed
    from the fields).  Two records are equal when their classes are the same and their
    fields are equal, so records of two classes with equal fields are never equal.
    Four hot classes keep their own ``==`` and hash, for speed: ``Atom``, ``Cons``,
    ``TermEq`` and ``LinCmp`` read a hash cached at construction."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# terms


class Atom(Record):
    __slots__ = ("symbol", "_hash")

    def __init__(self, symbol: str):
        self.symbol = symbol
        self._hash = hash(("Atom", symbol))

    def __eq__(self, other) -> bool:
        return isinstance(other, Atom) and self.symbol == other.symbol

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.symbol


class Cons(Record):
    __slots__ = ("head", "tail", "_hash")

    def __init__(self, head: "Term", tail: "Term"):
        self.head = head
        self.tail = tail
        self._hash = hash(("Cons", hash(head), hash(tail)))

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, Cons) and self._hash == other._hash and _same(self, other, {}, {})

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return _text(self, {})


class Wildcard(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "_"


class RandomTerm(Record):
    """Placeholder for a uniform integer draw; resolved when the tell executes."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo = lo
        self.hi = hi

    def __str__(self) -> str:
        return f"random({self.lo}, {self.hi})"


Term = Union[str, Atom, Fraction, Cons, Wildcard, RandomTerm]

NIL = Atom("[]")

WILDCARD = Wildcard()


def term_vars(t: Term) -> list:
    """The variable names of a term, left to right, repeats included."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Cons):
            stack.append(node.tail)
            stack.append(node.head)
    return out


def map_term(t: Term, leaf) -> Term:
    """``t`` rebuilt cell by cell, each part that is no list cell mapped by ``leaf``, heads left to right."""
    heads = []
    while isinstance(t, Cons):
        heads.append(map_term(t.head, leaf))
        t = t.tail
    t = leaf(t)
    for head in reversed(heads):
        t = Cons(head, t)
    return t


# ---------------------------------------------------------------------------
# fresh names (used by hiding: semantics.open_scopes renames bound names to them)

_fresh_counter = itertools.count(1)


def fresh_var(base: str = "v") -> str:
    base = base.split("#", 1)[0]
    return f"{base}#{next(_fresh_counter)}"


def is_fresh_name(name: str) -> bool:
    return "#" in name


def as_written(text: str) -> str:
    """``text`` with each generated name spelled as the model wrote it: ``X`` for ``X#2``."""
    return re.sub(r"#\d+", "", text)


# a generated name inside printed text
FRESH_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*#\d+")


def atom_text_order(text: str) -> tuple:
    """Sort key of a printed atom: its text with generated names masked, then its text.

    Printed constraints list their atoms in this order, so the order does not
    depend on which numbers the generated names got.
    """
    return (FRESH_NAME.sub("#", text) if "#" in text else text, text)


def reset_fresh_counter() -> None:
    """Restart fresh-name numbering; call at the start of a run for stable traces."""
    global _fresh_counter
    _fresh_counter = itertools.count(1)


# ---------------------------------------------------------------------------
# atomic constraints

# comparison operator -> its spelling in .hyt source, and its test
OP_TEXT = {"=": "=", "!=": "!=", "<": "<", "<=": "=<", ">": ">", ">=": ">="}
OP_TEST = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class TermEq(Record):
    """Equation: a variable equals a term."""

    __slots__ = ("var", "term", "_hash")

    def __init__(self, var: str, term: Term):
        self.var = var
        self.term = term
        self._hash = hash((var, term))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TermEq)
            and self._hash == other._hash
            and self.var == other.var
            and self.term == other.term
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.var}={self.term}"


class LinCmp(Record):
    """Comparison of one variable against a rational constant.

    A float value (an exponential flow's) is compared against the bound's
    float when that float equals the bound, and against the bound itself
    otherwise, so every comparison is exact.  The float is kept in ``_float``
    on first use; it takes no part in equality, hashing or printing.
    """

    __slots__ = ("var", "op", "bound", "_hash", "_float")

    def __init__(self, var: str, op: str, bound: Fraction):
        self.var = var
        self.op = op
        self.bound = bound
        self._hash = hash(("LinCmp", var, op, bound))

    def bound_for(self, value):
        """The bound in the domain of ``value``: its float when ``value`` is a
        float and the float equals the bound, else the bound itself."""
        if type(value) is not float:
            return self.bound
        try:
            exact = self._float
        except AttributeError:
            exact = self._float = _exact_float(self.bound)
        return self.bound if exact is None else exact

    def holds(self, value) -> bool:
        """Whether ``value op bound``, exactly."""
        return compare(value, self.op, self.bound_for(value))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinCmp)
            and self.var == other.var
            and self.op == other.op
            and self.bound == other.bound
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.var}{OP_TEXT[self.op]}{self.bound}"


AtomicConstraint = Union[TermEq, LinCmp]


def _exact_float(bound) -> Optional[float]:
    """``float(bound)`` when it equals the rational ``bound``, else None."""
    try:
        f = float(bound)
    except OverflowError:
        return None
    return f if f.as_integer_ratio() == (bound.numerator, bound.denominator) else None


def compare(value, op: str, bound) -> bool:
    return OP_TEST[op](value, bound)


# ---------------------------------------------------------------------------
# constraints


class _False:
    """The inconsistent store, which is also the tell or guard ``false``: it has
    no atom, and equals only itself."""

    __slots__ = ()
    consistent = False

    def __iter__(self):
        return iter(())

    def __repr__(self) -> str:
        return "FALSE"

    def __str__(self) -> str:
        return "false"


class _Store:
    """A consistent store as triangular bindings (Aït-Kaci, *Warren's Abstract
    Machine: A Tutorial Reconstruction*, 1991).

    ``_b`` maps each bound name to its term as unified, which may mention other
    bound names; ``conj`` adds bindings and never rebuilds one, and readers
    follow chains with ``_walk``.  ``_cmps`` holds the comparisons, each on an
    unbound name.  ``_sum`` is the sum of the hashes of the bound names, and
    ``_free`` the set of unbound names the store mentions.  Two stores are equal
    when they bind the same names to the same final terms and hold the same
    comparisons.  A store has two forms, its links and ``_str``, their text
    with each bound name's final term, kept once printed.  Iterating a store
    gives the links as equations plus the comparisons: the same constraint,
    unsolved, for ``conj`` of two stores; the engine never does.
    """

    __slots__ = ("_b", "_cmps", "_free", "_sum", "_str", "_hash")
    consistent = True

    def __init__(self, b: dict, cmps: frozenset, free: frozenset, total: int):
        self._b = b
        self._cmps = cmps
        self._free = free
        self._sum = total
        self._str: Optional[str] = None
        self._hash = hash((total + sum(map(hash, cmps)), True))

    def __iter__(self):
        return iter(frozenset([*map(TermEq, self._b, self._b.values()), *self._cmps]))

    def __eq__(self, other) -> bool:
        # binding by binding, through both link maps
        if self is other:
            return True
        if not isinstance(other, _Store):
            return NotImplemented
        b, ob = self._b, other._b
        return (
            self._hash == other._hash
            and self._cmps == other._cmps
            and b.keys() == ob.keys()
            and all(_same(t, ob[v], b, ob) for v, t in b.items())
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<store {self}>"

    def __str__(self) -> str:
        # each bound name with its final term, read off the links once and kept
        if self._str is None:
            b = self._b
            texts = [*(f"{v}={_text(t, b)}" for v, t in b.items()), *map(str, self._cmps)]
            self._str = " /\\ ".join(sorted(texts, key=atom_text_order)) or "true"
        return self._str


TRUE = _Store({}, frozenset(), frozenset(), 0)  # the empty store
FALSE = _False()


def atom_vars(a: AtomicConstraint) -> tuple:
    """The names an atom mentions: its variable, then its term's, repeats included."""
    return (a.var, *term_vars(a.term)) if isinstance(a, TermEq) else (a.var,)


def constraint_vars(c) -> set:
    """The names the atoms of ``c`` mention: a tell, a guard, or a store read as its atoms."""
    return {name for a in c for name in atom_vars(a)}


class ModelError(Exception):
    """A fault of the model itself, met by ``run`` or ``check``: one ``error:`` line, exit 1."""


# ---------------------------------------------------------------------------
# unification over triangular bindings


def _walk(t: Term, subst: dict) -> Term:
    while isinstance(t, str) and t in subst:
        t = subst[t]
    return t


def _text(t: Term, subst: dict) -> str:
    """The text of ``t`` with every name bound in ``subst`` replaced by its term."""
    out = []
    # terms, and the punctuation between them as text: no name is "[", ", ", "]" or "|…]",
    # so walking punctuation finds no binding
    todo = [t]
    while todo:
        t = _walk(todo.pop(), subst)
        if isinstance(t, Cons):
            parts = ["["]
            while isinstance(t, Cons):
                parts += (t.head, ", ")
                t = _walk(t.tail, subst)
            parts[-1] = "]" if t == NIL else f"|{t}]"
            todo += reversed(parts)
        else:
            out.append(str(t))
    return "".join(out)


def _occurs(name: str, t: Term, subst: dict) -> bool:
    todo = [t]
    while todo:
        t = _walk(todo.pop(), subst)
        if t == name:
            return True
        if isinstance(t, Cons):
            todo += (t.tail, t.head)
    return False


def _same(a: Term, b: Term, sa: dict, sb: dict) -> bool:
    """Whether ``a`` and ``b`` are one term once every name bound in ``sa`` is
    replaced in ``a``, and every name bound in ``sb`` in ``b``.

    A list met in both is skipped: with one map it is one term, and when two
    stores are compared (``_Store.__eq__``) each bound name in it is compared
    on its own.
    """
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        a, b = _walk(a, sa), _walk(b, sb)
        if isinstance(a, Cons) and isinstance(b, Cons):
            if a is not b:
                todo += ((a.tail, b.tail), (a.head, b.head))
        elif a != b:
            return False
    return True


def _unify(a: Term, b: Term, subst: dict) -> bool:
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        a, b = _walk(a, subst), _walk(b, subst)
        if isinstance(a, Wildcard) or isinstance(b, Wildcard):
            raise ValueError("wildcard is only legal inside ask/now guards")
        if isinstance(b, str) and not isinstance(a, str):
            a, b = b, a
        if isinstance(a, str) and isinstance(b, str):
            # deterministic orientation: the lexicographically smaller name is kept
            if a < b:
                subst[b] = a
            elif a > b:
                subst[a] = b
        elif isinstance(a, str):
            if _occurs(a, b, subst):
                return False
            subst[a] = b
        elif isinstance(a, Cons) and isinstance(b, Cons):
            todo += ((a.tail, b.tail), (a.head, b.head))
        elif not (isinstance(a, (Atom, Fraction)) and a == b):
            return False
    return True


def _resolve_cmp(c: LinCmp, subst: dict, solved: set) -> bool:
    """Normalize one comparison against the substitution; False means FALSE."""
    rep = _walk(c.var, subst)
    if isinstance(rep, Fraction):
        # satisfied ground comparisons carry no information and are dropped
        return compare(rep, c.op, c.bound)
    if isinstance(rep, str):
        solved.add(c if rep == c.var else LinCmp(rep, c.op, c.bound))
        return True
    return False  # comparing a non-numeric term against a number


# ---------------------------------------------------------------------------
# operations


def conj(c, d):
    """The store ``c`` (or FALSE) extended by ``d``, the one place atoms are solved.

    ``d`` is a tell (a frozenset of atoms, or FALSE) or a store, read as its
    atoms.  ``c``, like the store of ``entails`` and ``bound_number``, is
    built with ``conj(TRUE, ...)``.
    """
    if c is FALSE or d is FALSE:
        return FALSE
    if d is c or not d:
        return c
    return _conj_solved(c, d)


@lru_cache(maxsize=16384)
def _conj_solved(c: _Store, d) -> Union[_Store, _False]:
    """The store ``c`` extended by the atoms of ``d``."""
    return _merge(c, d)


def _merge(c: _Store, atoms: Iterable[AtomicConstraint]) -> Union[_Store, _False]:
    """The store ``c`` extended by ``atoms`` (or FALSE); ``c`` itself if they bind nothing new.

    Only the told atoms are unified, into a copy of ``c``'s bindings; no old
    binding is rebuilt.
    """
    subst = dict(c._b)
    told_cmps = []
    for a in atoms:
        if isinstance(a, TermEq):
            if not _unify(a.var, a.term, subst):
                return FALSE
        elif isinstance(a, LinCmp):
            told_cmps.append(a)
        else:
            raise TypeError(f"not an atomic constraint: {a!r}")
    cmps: set = set()
    for cmp_ in itertools.chain(c._cmps, told_cmps):
        if not _resolve_cmp(cmp_, subst, cmps):
            return FALSE
    new = list(itertools.islice(subst, len(c._b), None))  # unification only adds bindings
    if not new and cmps == c._cmps:
        return c
    mentioned = [v for name in new for v in term_vars(subst[name])] + [cmp_.var for cmp_ in cmps]
    free = c._free.difference(new).union(v for v in mentioned if v not in subst)
    total = c._sum + sum(map(hash, new))
    return _Store(subst, c._cmps if cmps == c._cmps else frozenset(cmps), free, total)


def bound_number(store, name: str) -> Optional[Fraction]:
    """The number the store (or FALSE) binds ``name`` to, or None."""
    term = _walk(name, store._b) if store.consistent else None
    return term if isinstance(term, Fraction) else None


@lru_cache(maxsize=65536)
def entails(store, guard) -> bool:
    """Sound, incomplete entailment check of ``guard``, its atoms as written (or FALSE), by ``store`` (or FALSE).

    A placeholder, a generated name the store does not mention, takes its
    value only from the store, at its first match; any other name reads its
    store value.  An equation is checked once its left name has a value, or,
    for ``v = W``, once ``W`` has one; one that nothing reaches fails unless
    it equates two placeholders.  So atom order and spelling do not change
    the answer.  Wildcards match anything.  Comparisons come last; one over a
    variable the store does not ground is entailed only by the identical store
    atom.  Stores are not guards: compare two stores with ``conj(c, d) == c``.
    """
    if not store.consistent:
        return True
    if guard is FALSE:
        return False
    sigma = store._b
    theta: dict = {}

    def value(name: str) -> Term:
        # no ``or`` here: a placeholder's value may be Fraction(0), which is falsy
        return _walk(theta.get(name, name), sigma)

    def unreached(name: str) -> bool:
        return name not in theta and is_fresh_name(name) and name not in sigma and name not in store._free

    def match(sv: Term, gt: Term) -> bool:
        todo = [(sv, gt)]
        while todo:
            sv, gt = todo.pop()
            if isinstance(gt, str):
                if unreached(gt):
                    theta[gt] = sv
                elif not _same(value(gt), sv, sigma, sigma):
                    return False
            elif not isinstance(gt, Wildcard):
                sv = _walk(sv, sigma)
                if isinstance(gt, Cons) and isinstance(sv, Cons):
                    todo += ((sv.tail, gt.tail), (sv.head, gt.head))
                elif sv != gt:
                    return False
        return True

    def reached(a: TermEq) -> bool:
        if isinstance(a.term, str):
            return not unreached(a.var) or not unreached(a.term)
        # a generated name the store leaves unbound waits; if mentioned, only ``_`` matches it
        return a.var in theta or a.var in sigma or not is_fresh_name(a.var)

    todo = {a for a in guard if isinstance(a, TermEq)}
    while (atom := next(filter(reached, todo), None)) is not None:
        todo.remove(atom)
        var, term = (atom.term, atom.var) if unreached(atom.var) else (atom.var, atom.term)
        if not match(value(var), term):
            return False
    # of what nothing reached, placeholder = placeholder holds, and so does a mentioned name = _
    if not all(isinstance(a.term, str) or (isinstance(a.term, Wildcard) and not unreached(a.var)) for a in todo):
        return False
    for atom in (a for a in guard if isinstance(a, LinCmp)):
        rep = value(atom.var)
        if isinstance(rep, Fraction):
            if not compare(rep, atom.op, atom.bound):
                return False
        elif not isinstance(rep, str) or LinCmp(rep, atom.op, atom.bound) not in store._cmps:
            return False
    return True

