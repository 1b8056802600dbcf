"""Concrete syntax for .hyt files.

Layout: optional ``const NAME = value;`` section, then process declarations
``name(Params) :- Agent.``, then an optional bare initial agent (defaults to
a declared ``init``).  ``%`` starts a line comment.  Variables are capitalized
identifiers, atoms are lowercase, ``_`` is the wildcard/KEEP marker.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .constraints import (
    Constraint,
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
    solve,
)
from .syntax import (
    Agent,
    AskBranch,
    Call,
    Change,
    Choice,
    Declaration,
    FlowSpec,
    Hide,
    KEEP,
    LinExpr,
    Now,
    Parallel,
    Program,
    STOP,
    Tell,
    nodes,
)

# source spelling -> comparison operator; '=' parses as a term equation
_CMP_OPS = {text: op for op, text in OP_TEXT.items() if op != "="}

KEYWORDS = {"stop", "tell", "ask", "now", "then", "else", "exists", "change", "der", "const", "true", "false", "random"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>/\\|\|\||->|:-|=<|>=|!=|[()\[\]|,;+\-*/=<>.~])
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # "number" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def _is_variable(name: str) -> bool:
    return name[0].isupper() or (name[0] == "_" and name != "_")


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.constants: dict = {}

    # -- token helpers

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.error(f"expected {text!r}, found {tok.text!r}" if tok.kind != "eof" else f"expected {text!r}, found end of input")
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- program

    def parse_program(self, source: str = "") -> Program:
        while self.at("const"):
            self.parse_const()
        decls: List[Declaration] = []
        initial: Optional[Agent] = None
        while self.peek().kind != "eof":
            if self.looks_like_declaration():
                decls.append(self.parse_declaration())
            else:
                initial = self.parse_agent()
                if self.at("."):
                    self.next()
                if self.peek().kind != "eof":
                    self.error("trailing input after the initial agent")
        if initial is None:
            inits = [d for d in decls if d.name == "init" and not d.params]
            if not inits:
                tok = self.peek()
                raise ParseError("program has no initial agent and no init/0 declaration", tok.line, tok.col)
            initial = Call("init", ())
        program = Program(dict(self.constants), tuple(decls), initial, source)
        self.check_arities(program)
        return program

    def looks_like_declaration(self) -> bool:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS or _is_variable(tok.text):
            return False
        i = 1
        if self.peek(i).text == "(":
            depth = 1
            i += 1
            while depth and self.peek(i).kind != "eof":
                if self.peek(i).text == "(":
                    depth += 1
                elif self.peek(i).text == ")":
                    depth -= 1
                i += 1
        return self.peek(i).text == ":-"

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
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected {what}")
        return self.next().text

    def parse_declaration(self) -> Declaration:
        name = self.ident("process name")
        params: Tuple[str, ...] = ()
        if self.at("("):
            self.next()
            names = [self.variable_name()]
            while self.at(","):
                self.next()
                names.append(self.variable_name())
            self.expect(")")
            params = tuple(names)
        if len(set(params)) != len(params):
            self.error(f"duplicate parameter in declaration of {name}")
        self.expect(":-")
        body = self.parse_agent()
        self.expect(".")
        return Declaration(name, params, body)

    def variable_name(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or not _is_variable(tok.text):
            self.error("expected a variable (capitalized identifier)")
        if tok.text in self.constants:
            self.error(f"{tok.text} is a constant, not a variable")
        return self.next().text

    # -- agents

    def parse_agent(self) -> Agent:
        agent = self.parse_choice()
        while self.at("||"):
            self.next()
            agent = Parallel(agent, self.parse_choice())
        return agent

    def parse_choice(self) -> Agent:
        if not self.at("ask"):
            unit = self.parse_unit()
            if self.at("+"):
                self.error("only ask/ask~ branches can be joined with '+'")
            return unit
        asks: List[AskBranch] = []
        invs: List[Constraint] = []
        while True:
            self.expect("ask")
            if self.at("~"):
                self.next()
                self.expect("(")
                invs.append(self.parse_constraint())
                self.expect(")")
            else:
                self.expect("(")
                guard = self.parse_constraint()
                self.expect(")")
                self.expect("->")
                asks.append(AskBranch(guard, self.parse_unit()))
            if self.at("+"):
                self.next()
                if not self.at("ask"):
                    self.error("expected an ask/ask~ branch after '+'")
            else:
                break
        return Choice(tuple(asks), tuple(invs))

    def parse_unit(self) -> Agent:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            agent = self.parse_agent()
            self.expect(")")
            return agent
        if tok.text == "stop":
            self.next()
            return STOP
        if tok.text == "tell":
            self.next()
            self.expect("(")
            c = self.parse_constraint(allow_wildcard=False)
            self.expect(")")
            return Tell(c)
        if tok.text == "change":
            return self.parse_change()
        if tok.text == "exists":
            self.next()
            names = [self.variable_name()]
            while self.at(","):
                self.next()
                names.append(self.variable_name())
            self.expect("(")
            body = self.parse_agent()
            self.expect(")")
            return Hide(tuple(names), body)
        if tok.text == "now":
            self.next()
            guard = self.parse_constraint()
            self.expect("then")
            then = self.parse_unit()
            self.expect("else")
            orelse = self.parse_unit()
            return Now(guard, then, orelse)
        if tok.kind == "ident" and not _is_variable(tok.text) and tok.text not in KEYWORDS:
            name = self.next().text
            args: Tuple[str, ...] = ()
            if self.at("("):
                self.next()
                names = [self.variable_name()]
                while self.at(","):
                    self.next()
                    names.append(self.variable_name())
                self.expect(")")
                args = tuple(names)
            return Call(name, args)
        self.error(f"expected an agent, found {tok.text!r}")

    def parse_change(self) -> Agent:
        self.expect("change")
        self.expect("(")
        var = self.variable_name()
        self.expect(",")
        if self.at("_"):
            self.next()
            value = KEEP
        else:
            expr = self.parse_linexpr()
            value = self.expr_to_value(expr)
        self.expect(",")
        if self.at("_"):
            self.next()
            flow = KEEP
        else:
            self.expect("der")
            self.expect("(")
            dvar = self.variable_name()
            self.expect(")")
            if dvar != var:
                self.error(f"der({dvar}) does not match changed variable {var}")
            self.expect("=")
            flow = FlowSpec(var, self.parse_linexpr())
        self.expect(")")
        return Change(var, value, flow)

    def expr_to_value(self, expr: LinExpr):
        const = Fraction(0)
        var = None
        for coef, v in expr.terms:
            if v is None:
                const += coef
            elif var is None and coef == 1 and const == 0:
                var = v
            else:
                self.error("change value must be a rational constant or a single variable")
        if var is not None:
            if any(v is None and c != 0 for c, v in expr.terms):
                self.error("change value must be a rational constant or a single variable")
            return var
        return const

    # -- constraints

    def parse_constraint(self, allow_wildcard: bool = True) -> Constraint:
        atoms = []
        falsy = False
        while True:
            if self.at("true"):
                self.next()
            elif self.at("false"):
                self.next()
                falsy = True
            else:
                atoms.append(self.parse_atomic(allow_wildcard))
            if self.at("/\\"):
                self.next()
            else:
                break
        if falsy:
            return FALSE
        return solve(atoms)

    def parse_atomic(self, allow_wildcard: bool):
        var = self.variable_name()
        tok = self.peek()
        if tok.text == "=" and tok.kind == "op":
            self.next()
            term = self.parse_term(allow_wildcard)
            return TermEq(var, term)
        if tok.text in _CMP_OPS:
            self.next()
            return LinCmp(var, _CMP_OPS[tok.text], self.const_expr())
        self.error("expected a comparison operator")

    def parse_term(self, allow_wildcard: bool) -> Term:
        tok = self.peek()
        if tok.text == "_":
            self.next()
            if not allow_wildcard:
                self.error("wildcard '_' is only allowed inside ask/now guards")
            return WILDCARD
        if tok.text == "[":
            return self.parse_list(allow_wildcard)
        if tok.text == "random":
            self.next()
            self.expect("(")
            lo = self.const_expr()
            self.expect(",")
            hi = self.const_expr()
            self.expect(")")
            if lo > hi:
                self.error(f"random bounds out of order: {lo} > {hi}")
            return RandomTerm(lo, hi)
        if tok.kind == "number" or tok.text == "-":
            value = self.parse_number()
            return Num(value)
        if tok.kind == "ident":
            name = self.next().text
            if name in self.constants:
                return Num(self.constants[name])
            if _is_variable(name):
                return Var(name)
            return Atom(name)
        self.error(f"expected a term, found {tok.text!r}")

    def parse_list(self, allow_wildcard: bool) -> Term:
        self.expect("[")
        if self.at("]"):
            self.next()
            return NIL
        items = [self.parse_term(allow_wildcard)]
        while self.at(","):
            self.next()
            items.append(self.parse_term(allow_wildcard))
        tail: Term = NIL
        if self.at("|"):
            self.next()
            tail = self.parse_term(allow_wildcard)
        self.expect("]")
        for item in reversed(items):
            tail = Cons(item, tail)
        return tail

    def parse_number(self) -> Fraction:
        sign = Fraction(1)
        while self.at("-"):
            self.next()
            sign = -sign
        tok = self.peek()
        if tok.kind != "number":
            self.error("expected a number")
        self.next()
        value = Fraction(tok.text)
        if self.at("/") and self.peek(1).kind == "number":
            self.next()
            denom = Fraction(self.next().text)
            if denom == 0:
                self.error("division by zero")
            value /= denom
        return sign * value

    # -- linear / constant expressions

    def const_expr(self) -> Fraction:
        expr = self.parse_linexpr()
        value = Fraction(0)
        for coef, var in expr.terms:
            if var is not None:
                self.error(f"expected a constant expression, found variable {var}")
            value += coef
        return value

    def parse_linexpr(self) -> LinExpr:
        terms = list(self.parse_linterm())
        while self.peek().text in ("+", "-"):
            negate = self.next().text == "-"
            for coef, var in self.parse_linterm():
                terms.append((-coef if negate else coef, var))
        # fold constant terms, keep variable terms in first-occurrence order
        folded: List[Tuple[Fraction, Optional[str]]] = []
        const = Fraction(0)
        seen_const = False
        by_var: dict = {}
        order: List[str] = []
        for coef, var in terms:
            if var is None:
                const += coef
                seen_const = True
            else:
                if var not in by_var:
                    by_var[var] = Fraction(0)
                    order.append(var)
                by_var[var] += coef
        for var in order:
            if by_var[var] != 0:
                folded.append((by_var[var], var))
        if seen_const and (const != 0 or not folded):
            folded.insert(0, (const, None)) if not folded else folded.append((const, None))
        if not folded and not seen_const:
            folded = []
        return LinExpr(tuple(folded))

    def parse_linterm(self) -> List[Tuple[Fraction, Optional[str]]]:
        sign = Fraction(1)
        while self.at("-"):
            self.next()
            sign = -sign
        coef = Fraction(1)
        var: Optional[str] = None
        has_number = False
        divide = False
        while True:
            tok = self.peek()
            factor: Optional[Fraction] = None
            if tok.kind == "number":
                factor = self.parse_number()
            elif tok.text == "(":
                self.next()
                inner = self.parse_linexpr()
                self.expect(")")
                factor = Fraction(0)
                for c, v in inner.terms:
                    if v is not None:
                        self.error("nested expressions must be constant")
                    factor += c
            elif tok.kind == "ident" and tok.text in self.constants:
                factor = self.constants[self.next().text]
            elif tok.kind == "ident" and _is_variable(tok.text):
                if divide:
                    self.error("cannot divide by a variable")
                if var is not None:
                    self.error("flow expressions must be linear (no variable products)")
                var = self.next().text
            else:
                self.error("expected a number, constant or variable")
            if factor is not None:
                if divide and factor == 0:
                    self.error("division by zero")
                coef = coef / factor if divide else coef * factor
                has_number = True
            if self.at("*"):
                self.next()
                divide = False
                continue
            if self.at("/"):
                self.next()
                divide = True
                continue
            break
        if var is None and not has_number:
            self.error("empty expression")
        return [(sign * coef, var)]

    # -- static checks

    def check_arities(self, program: Program) -> None:
        for root in (*(decl.body for decl in program.declarations), program.initial):
            for agent in nodes(root):
                if isinstance(agent, Call) and not program.lookup(agent.name, len(agent.args)):
                    raise ParseError(f"call to undeclared process {agent.name}/{len(agent.args)}", 0, 0)


def parse_program(text: str, source: str = "") -> Program:
    return Parser(text).parse_program(source)


def parse_agent(text: str, constants: Optional[dict] = None) -> Agent:
    parser = Parser(text)
    if constants:
        parser.constants.update(constants)
    agent = parser.parse_agent()
    if parser.peek().kind != "eof":
        parser.error("trailing input after agent")
    return agent


def parse_constraint(text: str, constants: Optional[dict] = None) -> Constraint:
    parser = Parser(text)
    if constants:
        parser.constants.update(constants)
    c = parser.parse_constraint()
    if parser.peek().kind != "eof":
        parser.error("trailing input after constraint")
    return c
