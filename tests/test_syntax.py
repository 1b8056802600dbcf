"""Value classes: equality and hashing by field.  Agent traversal: pre-order
nodes, name uses and their roles; the program's continuous parameter positions."""
from fractions import Fraction

import pytest

from hytccp.constraints import TRUE
from hytccp.flows import ContinuousStore, DelayCause, DelayOutcome, Entry, Interval
from hytccp.parser import parse_agent, parse_constraint, parse_program
from hytccp.semantics import ChoiceRecord, Configuration, DelayResult, Outcome
from hytccp.simulator import RunOptions
from hytccp.syntax import (
    GUARD,
    INVARIANT,
    KEEP,
    KEPT,
    READ,
    SET,
    STOP,
    TELL,
    AskBranch,
    Call,
    Change,
    Choice,
    Declaration,
    Flow,
    Hide,
    LinExpr,
    Now,
    Parallel,
    Program,
    Stop,
    Tell,
    continuous_names,
    nodes,
    position_fixpoint,
    uses,
)

# each value class, built from fields made anew on every call
VALUES = {
    "Flow": lambda: Flow(Fraction(1, 2), Fraction(-3)),
    "LinExpr": lambda: LinExpr(((Fraction(2), "X"), (Fraction(1), None))),
    "Stop": lambda: Stop(),
    "Tell": lambda: Tell(parse_constraint("X = [a|T]")),
    "Parallel": lambda: Parallel(Tell(parse_constraint("X = a")), Call("p", ("X",))),
    "Hide": lambda: Hide(("X",), Tell(parse_constraint("X = a"))),
    "AskBranch": lambda: AskBranch(parse_constraint("X = a"), STOP),
    "Choice": lambda: Choice((AskBranch(parse_constraint("X = a"), STOP),), (parse_constraint("C =< 3"),)),
    "Now": lambda: Now(parse_constraint("X = a"), STOP, Call("p", ())),
    "Call": lambda: Call("p", ("X", "Y")),
    "Change": lambda: Change("C", KEEP, LinExpr(((Fraction(1), None),))),
    "Declaration": lambda: Declaration("p", ("X",), Tell(parse_constraint("X = a"))),
    "Program": lambda: Program({"K": Fraction(2)}, (), STOP, "init :- stop."),
    "Entry": lambda: Entry(Fraction(1, 3), Flow(Fraction(1), Fraction(0))),
    "ContinuousStore": lambda: ContinuousStore({"C": Entry(0.5, Flow(Fraction(0), Fraction(-1)))}),
    "Interval": lambda: Interval(Fraction(0), end=Fraction(5), end_open=True),
    "DelayOutcome": lambda: DelayOutcome(Fraction(7), DelayCause.HORIZON),
    "DelayResult": lambda: DelayResult(DelayOutcome(Fraction(7), DelayCause.HORIZON), "delay"),
    "Configuration": lambda: Configuration(Call("p", ()), parse_constraint("X = a"), ContinuousStore({}), Fraction(3)),
    "ChoiceRecord": lambda: ChoiceRecord(("L", "then"), 1, 2),
    "Outcome": lambda: Outcome(STOP, parse_constraint("X = a"), (("C", Fraction(0), KEEP),), (ChoiceRecord((), 0, 2),)),
    "RunOptions": lambda: RunOptions(max_time=Fraction(60), seed=4),
}
# fields of these hold a dict, so they compare but do not hash, as frozen dataclasses did
UNHASHABLE = {"Program"}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_make_equal_values(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and repr(a) == repr(b)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_values_of_two_classes_are_never_equal():
    x = parse_constraint("X = a")
    assert Tell(x) != LinExpr(x) and LinExpr(x) != Tell(x)
    fields = (STOP, x, (), ())
    assert Outcome(*fields) != Configuration(*fields)
    assert Configuration(*fields) != Outcome(*fields)
    assert Change("C", KEEP, KEEP) != Change("C", Fraction(0), KEEP)


def test_defaults_are_fields():
    branches = (AskBranch(parse_constraint("X = a"), STOP),)
    assert Choice(branches) == Choice(branches, ()) and hash(Choice(branches)) == hash(Choice(branches, ()))
    assert Configuration(STOP) == Configuration(STOP, TRUE, ContinuousStore({}), Fraction(0))
    assert RunOptions(seed=0) == RunOptions()



def test_nodes_pre_order():
    assert list(nodes(STOP)) == [STOP]
    agent = parse_agent(
        "tell(X = a) || exists Y (ask(Y = b) -> stop + ask(Y = c) -> (now X = a then stop else p) + ask~(true))"
    )
    kinds = [type(node).__name__ for node in nodes(agent)]
    assert kinds == ["Parallel", "Tell", "Hide", "Choice", "Stop", "Now", "Stop", "Call"]


def test_uses_lists_each_free_name_with_its_role():
    agent = parse_agent(
        "exists K (tell(K = 2) || tell(K = Y) || change(C, K, der(C) = N - C) || p(K, C))"
        " || change(D, _, der(D) = 1) || (ask(X = a) -> stop + ask~(D =< 3 /\\ Z = 1))"
    )
    found = uses(agent)
    assert found[:-2] == [
        ("Y", TELL),  # a tell under a scope that binds some of its names: its free ones alone
        ("C", SET),
        ("N", READ),
        ("C", ("p", 2, 1)),
        ("D", KEPT),
        (parse_constraint("X = a"), GUARD),  # a guard whole
        (parse_constraint("D =< 3 /\\ Z = 1"), GUARD),
    ]
    assert sorted(found[-2:]) == [("D", INVARIANT), ("Z", INVARIANT)]  # in atom order


def test_position_fixpoint_closes_roles_over_calls():
    prog = parse_program("q(S, U) :- ask~(S =< 3) || change(U, _, _).  r(T) :- q(T, T).  init :- exists A (r(A)).")
    assert position_fixpoint(prog.declarations, uses) == {
        ("q", 2, 0): {INVARIANT},
        ("q", 2, 1): {KEPT},
        ("r", 1, 0): {INVARIANT, KEPT},
    }


# --- Program.continuous and continuous_names


def init_body(prog):
    return prog.lookup("init", 0)[0].body


def test_a_name_set_by_change_is_continuous():
    prog = parse_program("clk(T, X) :- change(T, 0, der(T) = 1) || tell(X = a).  init :- change(C, 0, der(C) = 1).")
    assert prog.continuous == {("clk", 2, 0)}
    assert continuous_names(init_body(prog), prog.continuous) == {"C"}


def test_a_name_passed_through_two_calls_to_a_changed_parameter_is_continuous():
    prog = parse_program("a(X) :- b(X).  b(Y) :- change(Y, 0, der(Y) = 1).  init :- exists Z (a(Z)).")
    assert prog.continuous == {("a", 1, 0), ("b", 1, 0)}
    assert continuous_names(init_body(prog).body, prog.continuous) == {"Z"}


def test_a_discrete_name_stays_out():
    prog = parse_program("p(A, B) :- tell(A = B) || change(B, 0, der(B) = 1).  init :- exists X, Y (p(X, Y)).")
    assert prog.continuous == {("p", 2, 1)}
    assert continuous_names(init_body(prog).body, prog.continuous) == {"Y"}


def test_a_parameter_name_reused_by_a_changing_declaration_stays_discrete():
    prog = parse_program(
        "clk(T) :- change(T, 0, der(T) = 1).  p(N, T) :- tell(T = N).  q(T) :- p(T, C) || clk(C)."
        "  init :- exists T (p(T, T))."
    )
    assert prog.continuous == {("clk", 1, 0)}
    assert continuous_names(init_body(prog), prog.continuous) == set()


def test_a_scope_hides_the_names_it_binds():
    prog = parse_program("init :- exists T (change(T, 0, der(T) = 1)) || exists U (tell(U = a)).")
    assert continuous_names(init_body(prog), prog.continuous) == set()


def test_mutually_recursive_declarations_reach_a_fixpoint():
    prog = parse_program(
        "even(X, D) :- odd(X, D).  odd(Y, E) :- even(Y, E) || change(E, 1, der(E) = 1)."
        "  init :- exists U, V (even(U, V))."
    )
    assert prog.continuous == {("even", 2, 1), ("odd", 2, 1)}
    assert continuous_names(init_body(prog).body, prog.continuous) == {"V"}
