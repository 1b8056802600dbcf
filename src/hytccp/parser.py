"""Concrete syntax for .hyt files.

Layout: optional ``const NAME = value;`` section, then process declarations
``name(Params) :- Agent.``, then an optional bare initial agent (defaults to
a declared ``init``).  ``%`` starts a line comment.  Variables are capitalized
identifiers, atoms are lowercase, ``_`` is the wildcard/KEEP marker.

One pass over the tokens builds the AST: constant expressions fold as they
are read, and each process call is checked against the declarations once
the whole program is read.  Every ``ParseError`` carries the ``line:col`` of
the token it is about.  A token is its text: ``tokenize`` is one ``findall``,
and only an error re-scans the text for its offset.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .constraints import (
    FALSE,
    OP_TEXT,
    TermEq,
    LinCmp,
    Term,
    Var,
    Atom,
    Num,
    Cons,
    NIL,
    WILDCARD,
    RandomTerm,
)
from .syntax import (
    Agent,
    AskBranch,
    Call,
    Change,
    Choice,
    Declaration,
    Hide,
    KEEP,
    LinExpr,
    Now,
    Parallel,
    Program,
    STOP,
    Tell,
)

# source spelling -> comparison operator; '=' parses as a term equation
_CMP_OPS = {text: op for op, text in OP_TEXT.items() if op != "="}

KEYWORDS = {"stop", "tell", "ask", "now", "then", "else", "exists", "change", "der", "const", "true", "false", "random"}

# number | identifier | operator | comment; whitespace separates tokens, and
# ``\S`` takes any other character, which no rule allows (group 1 when scanning)
_TOKENS = r"[0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|/\\|\|\||->|:-|=<|>=|!=|[()\[\]|,;+\-*/=<>.~]|%[^\n]*"
_TOKEN_RE = re.compile(_TOKENS + r"|\S")
_SCAN_RE = re.compile(_TOKENS + r"|(\S)")
# a token's kind is read from its first character; the eof token "" has none
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE = Fraction(1)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    @classmethod
    def at(cls, text: str, offset: int, message: str) -> "ParseError":
        """The error about ``text[offset]``, located by line and column."""
        return cls(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> List[str]:
    """The tokens of ``text``, comments dropped, ending in the eof token ``""``.

    A character no rule allows is a token of its own; ``Parser.error``
    reports it.
    """
    tokens = _TOKEN_RE.findall(text)
    if "%" in text:
        tokens = [tok for tok in tokens if tok[0] != "%"]
    tokens.append("")
    return tokens


def _number(text: str) -> Fraction:
    return Fraction(text) if "." in text else Fraction(int(text))


def _is_variable(name: str) -> bool:
    return name[0].isupper() or (name[0] == "_" and name != "_")


class Parser:
    """Recursive descent over the token list.

    Only the eof token is empty, and no rule consumes it, so ``peek`` never
    runs past the end of the list.  No rule consumes a character no rule
    allows either, so every input holding one ends in ``error``.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.constants: dict = {}
        self.calls: List[Tuple[str, int, int]] = []  # (name, arity, token index) of each process call

    # -- token helpers

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def accept(self, text: str) -> bool:
        """Consume the next token if it reads ``text``."""
        if self.tokens[self.pos] != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str) -> str:
        tok = self.peek()
        if tok != text:
            self.error(f"expected {text!r}, found {tok!r}" if tok else f"expected {text!r}, found end of input")
        return self.next()

    def error(self, message: str, index: Optional[int] = None):
        """Raise ``message`` at token ``index`` (the next token by default),
        or at the first character no rule allows, if the text holds one."""
        index = self.pos if index is None else index
        offset = len(self.text)  # the eof token's
        matches = (m for m in _SCAN_RE.finditer(self.text) if m.group()[0] != "%")
        for i, m in enumerate(matches):
            if m.group(1):
                raise ParseError.at(self.text, m.start(), f"unexpected character {m.group()!r}")
            if i == index:
                offset = m.start()
        raise ParseError.at(self.text, offset, message)

    # -- program

    def parse_program(self) -> Program:
        while self.at("const"):
            self.parse_const()
        decls: List[Declaration] = []
        initial: Optional[Agent] = None
        while self.peek():
            if (decl := self.parse_declaration()) is not None:
                decls.append(decl)
            else:
                initial = self.parse_agent()
                self.accept(".")
                if self.peek():
                    self.error("trailing input after the initial agent")
        declared = {(d.name, len(d.params)) for d in decls}
        if initial is None:
            if ("init", 0) not in declared:
                self.error("program has no initial agent and no init/0 declaration")
            initial = Call("init", ())
        for name, arity, index in self.calls:
            if (name, arity) not in declared:
                self.error(f"call to undeclared process {name}/{arity}", index)
        return Program(dict(self.constants), tuple(decls), initial, self.text)

    def parse_const(self) -> None:
        self.expect("const")
        name = self.ident("constant name")
        if name in self.constants:
            self.error(f"constant {name} defined twice")
        self.expect("=")
        value = self.const_expr()
        self.expect(";")
        self.constants[name] = value

    def ident(self, what: str) -> str:
        if self.peek()[:1] not in _IDENT_START:
            self.error(f"expected {what}")
        return self.next()

    def parse_declaration(self) -> Optional[Declaration]:
        """``name(Params) :- Agent.``, or None, with nothing read, if no ``:-`` follows the head."""
        start = self.pos
        tok = self.peek()
        if tok[:1] not in _IDENT_START or tok in KEYWORDS or _is_variable(tok):
            return None
        name = self.next()
        params = self.parenthesized_names()
        if not self.at(":-"):
            self.pos = start
            return None
        if len(set(params)) != len(params):
            self.error(f"duplicate parameter in declaration of {name}")
        self.expect(":-")
        body = self.parse_agent()
        self.expect(".")
        return Declaration(name, params, body)

    def variable_name(self) -> str:
        tok = self.peek()
        if tok[:1] not in _IDENT_START or not _is_variable(tok):
            self.error("expected a variable (capitalized identifier)")
        if tok in self.constants:
            self.error(f"{tok} is a constant, not a variable")
        return self.next()

    def variable_names(self) -> Tuple[str, ...]:
        names = [self.variable_name()]
        while self.accept(","):
            names.append(self.variable_name())
        return tuple(names)

    def parenthesized_names(self) -> Tuple[str, ...]:
        """``(X, Y, ...)`` if the next token opens one, else no names."""
        if not self.accept("("):
            return ()
        names = self.variable_names()
        self.expect(")")
        return names

    # -- agents

    def parse_agent(self) -> Agent:
        agent = self.parse_choice()
        while self.accept("||"):
            agent = Parallel(agent, self.parse_choice())
        return agent

    def parse_choice(self) -> Agent:
        if not self.at("ask"):
            unit = self.parse_unit()
            if self.at("+"):
                self.error("only ask/ask~ branches can be joined with '+'")
            return unit
        asks: List[AskBranch] = []
        invs: List[frozenset] = []
        while True:
            self.expect("ask")
            if self.accept("~"):
                self.expect("(")
                invs.append(self.parse_constraint())
                self.expect(")")
            else:
                self.expect("(")
                guard = self.parse_constraint()
                self.expect(")")
                self.expect("->")
                asks.append(AskBranch(guard, self.parse_unit()))
            if not self.accept("+"):
                return Choice(tuple(asks), tuple(invs))
            if not self.at("ask"):
                self.error("expected an ask/ask~ branch after '+'")

    def parse_unit(self) -> Agent:
        if self.accept("("):
            agent = self.parse_agent()
            self.expect(")")
            return agent
        if self.accept("stop"):
            return STOP
        if self.accept("tell"):
            self.expect("(")
            c = self.parse_constraint(guard=False)
            self.expect(")")
            return Tell(c)
        if self.at("change"):
            return self.parse_change()
        if self.accept("exists"):
            names = self.variable_names()
            self.expect("(")
            body = self.parse_agent()
            self.expect(")")
            return Hide(names, body)
        if self.accept("now"):
            guard = self.parse_constraint()
            self.expect("then")
            then = self.parse_unit()
            self.expect("else")
            orelse = self.parse_unit()
            return Now(guard, then, orelse)
        tok = self.peek()
        if tok[:1] in _IDENT_START and not _is_variable(tok) and tok not in KEYWORDS:
            start = self.pos
            self.pos += 1
            args = self.parenthesized_names()
            self.calls.append((tok, len(args), start))
            return Call(tok, args)
        self.error(f"expected an agent, found {tok!r}")

    def parse_change(self) -> Agent:
        self.expect("change")
        self.expect("(")
        var = self.variable_name()
        self.expect(",")
        value = KEEP if self.accept("_") else self.change_value()
        self.expect(",")
        if self.accept("_"):
            flow = KEEP
        else:
            self.expect("der")
            self.expect("(")
            dvar = self.variable_name()
            self.expect(")")
            if dvar != var:
                self.error(f"der({dvar}) does not match changed variable {var}")
            self.expect("=")
            flow = self.parse_linexpr()
        self.expect(")")
        return Change(var, value, flow)

    def change_value(self):
        """A ``change`` value: a rational constant or a single variable name."""
        expr = self.parse_linexpr()
        value = _constant(expr)
        if value is not None:
            return value
        if len(expr.terms) == 1 and expr.terms[0][0] == 1:
            return expr.terms[0][1]
        self.error("change value must be a rational constant or a single variable")

    # -- constraints

    def parse_constraint(self, guard: bool = True) -> frozenset:
        """A constraint, the frozenset of its atoms as written, or FALSE: a guard, or a tell (``guard=False``).

        Only a guard may hold wildcards, and only a tell may draw ``random()``.
        """
        atoms = []
        falsy = False
        while True:
            if self.accept("false"):
                falsy = True
            elif not self.accept("true"):
                atoms.append(self.parse_atomic(guard))
            if not self.accept("/\\"):
                break
        return FALSE if falsy else frozenset(atoms)

    def parse_atomic(self, guard: bool):
        var = self.variable_name()
        tok = self.peek()
        if tok == "=":
            self.pos += 1
            return TermEq(var, self.parse_term(guard))
        if tok in _CMP_OPS:
            self.pos += 1
            return LinCmp(var, _CMP_OPS[tok], self.const_expr())
        self.error("expected a comparison operator")

    def parse_term(self, guard: bool) -> Term:
        tok = self.peek()
        start = self.pos
        if tok == "_" and not guard:
            self.error("wildcard '_' is only allowed inside ask/now guards")
        if tok == "random" and guard:
            self.error("random() is only allowed inside tell")
        if self.accept("_"):
            return WILDCARD
        if tok == "[":
            return self.parse_list(guard)
        if self.accept("random"):
            self.expect("(")
            lo = self.const_expr()
            self.expect(",")
            hi = self.const_expr()
            self.expect(")")
            if lo > hi:
                self.error(f"random bounds out of order: {lo} > {hi}", start)
            if math.ceil(lo) > math.floor(hi):
                self.error(f"no integer in random range [{lo}, {hi}]", start)
            return RandomTerm(lo, hi)
        if tok[:1] in _DIGITS or tok == "-":
            return Num(self.parse_number())
        if tok[:1] in _IDENT_START:
            self.pos += 1
            if tok in self.constants:
                return Num(self.constants[tok])
            if _is_variable(tok):
                return Var(tok)
            return Atom(tok)
        self.error(f"expected a term, found {tok!r}")

    def parse_list(self, guard: bool) -> Term:
        self.expect("[")
        if self.accept("]"):
            return NIL
        items = [self.parse_term(guard)]
        while self.accept(","):
            items.append(self.parse_term(guard))
        tail: Term = NIL
        if self.accept("|"):
            tail = self.parse_term(guard)
        self.expect("]")
        for item in reversed(items):
            tail = Cons(item, tail)
        return tail

    def parse_number(self) -> Fraction:
        negative = False
        while self.accept("-"):
            negative = not negative
        tok = self.peek()
        if tok[:1] not in _DIGITS:
            self.error("expected a number")
        self.pos += 1
        value = _number(tok)
        if self.at("/") and self.peek(1)[:1] in _DIGITS:
            self.pos += 1
            denom = _number(self.next())
            if denom == 0:
                self.error("division by zero")
            value /= denom
        return -value if negative else value

    # -- linear / constant expressions

    def const_expr(self) -> Fraction:
        expr = self.parse_linexpr()
        value = _constant(expr)
        if value is None:
            self.error(f"expected a constant expression, found variable {expr.terms[0][1]}")
        return value

    def parse_linexpr(self) -> LinExpr:
        """A sum of terms, folded: variables in first-occurrence order, then the constant.

        A variable whose coefficients cancel is dropped; the constant is kept
        if the input had one and it is non-zero or nothing else is left.
        """
        sums: dict = {}  # variable (None: the constant) -> summed coefficient
        negative = False
        while True:
            coef, var = self.parse_linterm(negative)
            sums[var] = sums[var] + coef if var in sums else coef
            if not (self.at("+") or self.at("-")):
                break
            negative = self.next() == "-"
        const = sums.pop(None, None)
        folded = [(coef, var) for var, coef in sums.items() if coef != 0]
        if const is not None and (const != 0 or not folded):
            folded.append((const, None))
        return LinExpr(tuple(folded))

    def parse_linterm(self, negative: bool = False) -> Tuple[Fraction, Optional[str]]:
        """A product of factors, negated if ``negative`` (the sign read before it)."""
        while self.accept("-"):
            negative = not negative
        coef = _ONE
        var: Optional[str] = None
        divide = False
        while True:
            tok = self.peek()
            factor: Optional[Fraction] = None
            if tok[:1] in _DIGITS:
                factor = self.parse_number()
            elif self.accept("("):
                factor = _constant(self.parse_linexpr())
                self.expect(")")
                if factor is None:
                    self.error("nested expressions must be constant")
            elif tok[:1] in _IDENT_START and tok in self.constants:
                factor = self.constants[self.next()]
            elif tok[:1] in _IDENT_START and _is_variable(tok):
                if divide:
                    self.error("cannot divide by a variable")
                if var is not None:
                    self.error("flow expressions must be linear (no variable products)")
                var = self.next()
            else:
                self.error("expected a number, constant or variable")
            if factor is not None:
                if divide and factor == 0:
                    self.error("division by zero")
                # a coefficient of one takes the factor as it is
                coef = coef / factor if divide else factor if coef is _ONE else coef * factor
            if self.accept("*"):
                divide = False
            elif self.accept("/"):
                divide = True
            else:
                break
        return (-coef if negative else coef), var


def _constant(expr: LinExpr) -> Optional[Fraction]:
    """The value of a folded expression that reads no variable, else None."""
    if not expr.terms:
        return Fraction(0)
    coef, var = expr.terms[0]  # a variable, if there is one, comes first
    return coef if var is None else None


def _nested(parser: Parser, rule):
    """``rule(parser)``.  The parser recurses once per nesting level, so text
    nested deeper than Python's recursion limit is an error at the token reached."""
    try:
        return rule(parser)
    except RecursionError:
        pass
    parser.error("nesting too deep")


def parse_program(text: str) -> Program:
    return _nested(Parser(text), Parser.parse_program)


def _parse_whole(text: str, rule, what: str):
    """``rule`` applied to all of ``text``."""
    parser = Parser(text)
    result = _nested(parser, rule)
    if parser.peek():
        parser.error(f"trailing input after {what}")
    return result


def parse_agent(text: str) -> Agent:
    return _parse_whole(text, Parser.parse_agent, "agent")


def parse_constraint(text: str) -> frozenset:
    return _parse_whole(text, Parser.parse_constraint, "constraint")
