"""Concrete syntax: tokenizer, parser, pretty-printer round trips."""
import hashlib
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hytccp.constraints import FALSE, TRUE, Atom, Cons, LinCmp, NIL, Num, RandomTerm, TermEq, Var, WILDCARD, conj
from hytccp.parser import KEYWORDS, ParseError, parse_agent, parse_constraint, parse_program
from hytccp.syntax import (
    Call,
    Change,
    Choice,
    Hide,
    KEEP,
    LinExpr,
    Now,
    Parallel,
    STOP,
    Stop,
    Tell,
    pretty,
)

from generators import free_vars, random_agent


# --- terms and constraints


def test_parse_list_sugar():
    got = parse_constraint("X = [a, b|T]")
    assert got == {TermEq("X", Cons(Atom("a"), Cons(Atom("b"), Var("T"))))}
    assert parse_constraint("X = []") == {TermEq("X", NIL)}


def test_parse_numbers_and_rationals():
    assert parse_constraint("X = 3/4") == {TermEq("X", Num(Fraction(3, 4)))}
    assert parse_constraint("X = -2") == {TermEq("X", Num(Fraction(-2)))}


def test_parse_comparisons():
    got = parse_constraint("T =< 3600 /\\ V > 1/2")
    assert LinCmp("T", "<=", Fraction(3600)) in got
    assert LinCmp("V", ">", Fraction(1, 2)) in got


def test_parse_true_false():
    assert parse_constraint("true") == frozenset()
    assert parse_constraint("false") is FALSE


def test_wildcard_only_in_guards():
    parse_agent("ask(X = [_|_]) -> stop")
    with pytest.raises(ParseError):
        parse_agent("tell(X = [_|_])")


def test_guards_keep_their_atoms_as_written():
    text = "A = Z /\\ A = [a|_] /\\ N < 3"
    written = frozenset({TermEq("A", Var("Z")), TermEq("A", Cons(Atom("a"), WILDCARD)), LinCmp("N", "<", Fraction(3))})
    choice = parse_agent(f"ask({text}) -> stop + ask~({text})")
    now = parse_agent(f"now {text} then stop else stop")
    for guard in (choice.ask_branches[0].guard, choice.cont_branches[0], now.guard):
        assert guard == written
    # a tell keeps its atoms as written too, and conj solves them
    stream = Cons(Atom("a"), Var("T"))
    tell = parse_agent("tell(A = Z /\\ A = [a|T])").constraint
    assert tell == frozenset({TermEq("A", Var("Z")), TermEq("A", stream)})
    assert str(conj(TRUE, tell)) == "A=[a|T] /\\ Z=[a|T]"


def test_random_term_bounds_checked():
    assert parse_agent("tell(X = random(0, 350))").constraint == {TermEq("X", RandomTerm(Fraction(0), Fraction(350)))}
    with pytest.raises(ParseError):
        parse_agent("tell(X = random(5, 1))")


# --- agents


def test_parse_agent_shapes():
    agent = parse_agent("tell(X = a) || stop || now Y = b then stop else tell(Z = c)")
    assert isinstance(agent, Parallel)
    assert isinstance(agent.left, Parallel)
    assert isinstance(agent.right, Now)


def test_parse_choice_with_invariants():
    agent = parse_agent("ask~(T =< 60) + ask(T = 60) -> stop")
    assert isinstance(agent, Choice)
    assert len(agent.ask_branches) == 1
    assert len(agent.cont_branches) == 1


def test_parse_exists_and_change():
    agent = parse_agent("exists X, Y (change(V, 0, der(V) = 2) || tell(X = [a|Y]))")
    assert isinstance(agent, Hide)
    assert agent.vars == ("X", "Y")
    change = agent.body.left
    assert isinstance(change, Change)
    assert change.value == Fraction(0)
    assert isinstance(change.flow, LinExpr)


def test_parse_change_keep_markers():
    agent = parse_agent("change(V, _, _)")
    assert agent.value is KEEP and agent.flow is KEEP


def test_parse_flow_expression_with_division():
    agent = parse_agent("change(V, _, der(V) = N*(1/3600) - 200*(1/3600))")
    terms = dict((v, c) for c, v in agent.flow.terms)
    assert terms["N"] == Fraction(1, 3600)
    assert terms[None] == Fraction(-200, 3600)


def test_parse_flow_rejects_nonlinear():
    with pytest.raises(ParseError):
        parse_agent("change(V, 0, der(V) = N*M)")
    with pytest.raises(ParseError):
        parse_agent("change(V, 0, der(V) = 1/N)")


def test_parse_errors_have_positions():
    cases = [
        (parse_agent, "tell(X = )", 1, 10, "expected a term, found ')'"),
        (parse_program, "% header\ninit :- stop #.\n", 2, 14, "unexpected character '#'"),
        (parse_program, "p :- stop.\ninit :- p.\nstop stop\n", 3, 6, "trailing input after the initial agent"),
        (parse_program, "p :- stop.\n\nq :- p.\n", 4, 1, "program has no initial agent and no init/0 declaration"),
        # wildcard terms on one variable are a guard like any other: the error lies past it
        (parse_program, "init :- ask(X = [a|_] /\\ X = [_|b]) -> tell(Y = [a|_]).", 1, 52, "wildcard '_' is only allowed inside ask/now guards"),
        (parse_program, "init :- now X = [a|_] /\\ X = [a|_] then stop else .", 1, 51, "expected an agent, found '.'"),
        (parse_program, "const 1 = 2;", 1, 7, "expected constant name"),
        (parse_program, "p(X, X) :- stop.  init :- p(A, B).", 1, 9, "duplicate parameter in declaration of p"),
        (parse_agent, "tell(x = 1)", 1, 6, "expected a variable (capitalized identifier)"),
        (parse_program, "const A = 1;  init :- tell(A = 1).", 1, 28, "A is a constant, not a variable"),
        (parse_agent, "stop + stop", 1, 6, "only ask/ask~ branches can be joined with '+'"),
        (parse_agent, "ask(X = 1) -> stop + stop", 1, 22, "expected an ask/ask~ branch after '+'"),
        (parse_agent, "change(X, 0, der(Y) = 1)", 1, 21, "der(Y) does not match changed variable X"),
        (parse_agent, "change(X, 2*Y, _)", 1, 14, "change value must be a rational constant or a single variable"),
        (parse_agent, "tell(X)", 1, 7, "expected a comparison operator"),
        (parse_agent, "tell(X = - a)", 1, 12, "expected a number"),
        (parse_agent, "tell(X = 1/0)", 1, 13, "division by zero"),
        (parse_program, "const A = X;  init :- stop.", 1, 12, "expected a constant expression, found variable X"),
        (parse_program, "const A = (X);  init :- stop.", 1, 14, "nested expressions must be constant"),
        (parse_program, "const A = foo;  init :- stop.", 1, 11, "expected a number, constant or variable"),
        (parse_program, "const A = 1/(0);  init :- stop.", 1, 16, "division by zero"),
        (parse_agent, "stop stop", 1, 6, "trailing input after agent"),
        # both random() rules are checked at the random token
        (parse_agent, "tell(X = random(5, 1))", 1, 10, "random bounds out of order: 5 > 1"),
        (parse_agent, "tell(X = random(1/3, 2/3))", 1, 10, "no integer in random range [1/3, 2/3]"),
        (parse_agent, "ask(X = [random(0, 3)]) -> stop", 1, 10, "random() is only allowed inside tell"),
        # located by a re-scan that skips comments as the tokenizer does
        (parse_program, "% p(X) # :\ninit :- tell(X = ).\n", 2, 18, "expected a term, found ')'"),
        (parse_program, "init :- p(X % trailing\n", 2, 1, "expected ')', found end of input"),
        # a character no rule allows is reported wherever it lies, even past the parse's error
        (parse_program, "init : stop.", 1, 6, "unexpected character ':'"),
        (parse_agent, "tell(X ! 1)", 1, 8, "unexpected character '!'"),
        (parse_agent, "tell(X = ) #", 1, 12, "unexpected character '#'"),
        # numbers are ASCII digits, as identifiers are ASCII
        (parse_program, "init :- tell(X = \u0663).", 1, 18, "unexpected character '\u0663'"),
    ]
    for parse, text, line, col, message in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)
        assert str(exc.value) == f"{line}:{col}: {message}"
    # inside a comment, '#', ':' and '!' are no error
    assert parse_program("% # : !\ninit :- stop. % # : !").initial == Call("init", ())


# SHA-256 of the outcome ("ok" or the ParseError's text) of parsing every
# prefix of each model, one line each: 3275 of the prefixes are errors.
PREFIX_ERRORS_DIGEST = "c65c7df0b7cee78046fedd658e35125505e2d0a0d73af9774b835ac994080405"


def test_every_prefix_of_the_models_fails_where_it_did():
    models = Path(__file__).resolve().parent.parent / "models"
    outcomes = []
    for name in ("dam.hyt", "timer.hyt", "stop.hyt"):
        text = (models / name).read_text()
        for i in range(len(text) + 1):
            try:
                parse_program(text[:i])
                outcomes.append("ok")
            except ParseError as exc:
                outcomes.append(str(exc))
    assert len(outcomes) - outcomes.count("ok") == 3275
    assert hashlib.sha256("".join(f"{o}\n" for o in outcomes).encode()).hexdigest() == PREFIX_ERRORS_DIGEST


def nested(levels: int) -> str:
    return "init :- " + "(" * levels + "stop" + ")" * levels + "."


@pytest.mark.parametrize("parse", [parse_program, lambda text: parse_agent(text[len("init :- ") : -1])])
def test_nesting_past_the_recursion_limit_is_a_located_error(parse):
    # the parser recurses three frames per parenthesis; Python's limit allows about 330
    with pytest.raises(ParseError) as info:
        parse(nested(400))
    err = info.value
    assert err.message == "nesting too deep" and err.line == 1
    assert nested(400)[err.col - 1] == "("  # the parenthesis the parser had reached
    assert err.col > len("init :- ") + 100


def test_check_parses_320_levels_and_locates_400(tmp_path):
    # a fresh process, as a user runs it: the test runner's own frames would lower the limit
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    outcomes = []
    for levels in (320, 400):
        path = tmp_path / f"nested{levels}.hyt"
        path.write_text(nested(levels))
        argv = [sys.executable, "-m", "hytccp.cli", "check", str(path)]
        outcomes.append(subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60))
    assert outcomes[0].returncode == 0, outcomes[0].stderr
    assert outcomes[1].returncode == 1
    assert re.fullmatch(rf"error: {re.escape(str(path))}:1:[0-9]+: nesting too deep\n", outcomes[1].stderr)


def test_a_declaration_head_is_read_once():
    # the head is read as a declaration's, then as a call's if no ':-' follows: the same errors
    cases = [
        ("p(X Y) :- stop.", 1, 5, "expected ')', found 'Y'"),
        ("init :- p(X Y).", 1, 13, "expected ')', found 'Y'"),
        ("init :- p(X", 1, 12, "expected ')', found end of input"),
        ("p(a) :- stop.", 1, 3, "expected a variable (capitalized identifier)"),
        ("p(X, X).\np(A, B) :- stop.", 2, 1, "trailing input after the initial agent"),
    ]
    for text, line, col, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)
    prog = parse_program("p(X) :- stop.\np(Y)")
    assert [d.params for d in prog.declarations] == [("X",)] and prog.initial == Call("p", ("Y",))


def test_a_cancelled_expression_folds_to_zero():
    agent = parse_agent("change(X, Y - Y, der(X) = X - X)")
    assert agent == Change("X", Fraction(0), LinExpr(()))
    assert pretty(agent) == "change(X, 0, der(X) = 0)"


def test_pretty_prints_a_false_guard():
    assert pretty(parse_agent("ask(false) -> stop")) == "ask(false) -> stop"


def test_the_grammar_lists_the_parsers_keywords():
    grammar = (Path(__file__).resolve().parent.parent / "docs" / "grammar.ebnf").read_text()
    listed = re.search(r"\(\* keywords[^:]*:(.*?)\*\)", grammar, re.S).group(1).split()
    assert sorted(listed) == sorted(KEYWORDS)


# --- programs


def test_parse_program_constants_and_init():
    prog = parse_program(
        """
        const LIMIT = 10;
        p(X) :- tell(X = LIMIT).
        init :- exists X (p(X)).
        """
    )
    assert prog.constants["LIMIT"] == Fraction(10)
    assert prog.initial == Call("init", ())
    body = prog.lookup("p", 1)[0].body
    assert body.constraint == {TermEq("X", Num(Fraction(10)))}


def test_program_without_initial_agent_needs_init():
    with pytest.raises(ParseError):
        parse_program("p(X) :- stop.")


def test_undeclared_call_rejected():
    with pytest.raises(ParseError):
        parse_program("init :- missing(X).")


def test_undeclared_call_is_located_at_the_call():
    with pytest.raises(ParseError) as exc:
        parse_program("init :- stop ||\n   missing(X).")
    assert str(exc.value) == "2:4: call to undeclared process missing/1"


def test_program_source_is_the_parsed_text():
    text = "init :- stop.\n"
    assert parse_program(text).source == text


def test_duplicate_constant_rejected():
    with pytest.raises(ParseError):
        parse_program("const A = 1; const A = 2; init :- stop.")


def test_comments_ignored():
    prog = parse_program("% header\ninit :- stop. % trailing\n")
    assert prog.lookup("init", 0)


def test_dam_model_parses():
    with open("models/dam.hyt") as fh:
        prog = parse_program(fh.read())
    assert prog.constants["PERIOD"] == Fraction(3600)
    assert {d.name for d in prog.declarations} == {"supplier", "controller", "gate", "init"}


# --- pretty-printer round trip


def test_pretty_round_trip_dam():
    with open("models/dam.hyt") as fh:
        prog = parse_program(fh.read())
    for decl in prog.declarations:
        assert parse_agent(pretty(decl.body)) == decl.body


def test_pretty_round_trip_random_agents():
    for seed in range(300):
        rng = random.Random(seed)
        agent = random_agent(rng, 3, ["Cx", "Cy"])
        assert parse_agent(pretty(agent)) == agent
        assert parse_agent(pretty(agent)) == agent  # the second print reads the kept text


def test_kept_text_is_invisible():
    sources = [
        "tell(X = [a|T]) || (ask(X = [a|_]) -> change(C, 0, der(C) = 1) + ask~(C =< 3)) || p(X)",
        "stop",
        "tell(X = a)",
        "exists X (tell(X = a))",
        "ask(X = a) -> stop + ask~(C =< 3)",
        "now X = a then stop else p",
        "p(X, Y)",
        "change(C, _, der(C) = 2 - C)",
    ]
    kinds = {"Stop", "Tell", "Parallel", "Hide", "Choice", "Now", "Call", "Change"}
    assert {type(parse_agent(source)).__name__ for source in sources} == kinds
    for source in sources:
        printed, fresh = parse_agent(source), Stop() if source == "stop" else parse_agent(source)
        text = pretty(printed)
        assert printed == fresh and fresh == printed
        assert hash(printed) == hash(fresh)
        assert repr(printed) == repr(fresh) and text not in repr(printed)
        assert pretty(fresh) == text


def test_free_vars():
    assert free_vars(Hide(("X",), Tell(parse_constraint("X = Y")))) == {"Y"}
    agent = parse_agent("ask(In = [N|_]) -> tell(Out = [N|R])")
    assert free_vars(agent) == {"In", "N", "Out", "R"}
