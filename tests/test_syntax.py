"""Agent traversal: pre-order nodes, name uses and their roles; the program's
continuous parameter positions."""
from hytccp.parser import parse_agent, parse_constraint, parse_program
from hytccp.syntax import GUARD, INVARIANT, KEPT, READ, SET, STOP, TELL, continuous_names, nodes, position_fixpoint, uses


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
