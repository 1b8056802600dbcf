"""Reference implementation checks: the engine must agree with the naive rules."""
import random
import re
from fractions import Fraction

import pytest

from hytccp.constraints import TRUE, ModelError, conj, reset_fresh_counter
from hytccp.flows import apply_change, EMPTY_STORE
from hytccp.oracle import (
    OracleSizeError,
    oracle_continuous,
    oracle_reachable,
    oracle_successors,
)
from hytccp.parser import parse_agent, parse_constraint, parse_program
from hytccp.semantics import Configuration, discrete_successors, start_configuration
from hytccp.simulator import RunOptions, canonical_key, explore, run
from hytccp.syntax import Flow, Program, STOP

from generators import random_program, recursive_program

EMPTY_PROGRAM = Program({}, (), STOP)


def keys(configs):
    return {canonical_key(c) for c in configs}


def test_stop_has_no_oracle_successor():
    assert oracle_successors(Configuration(STOP), EMPTY_PROGRAM) == []


def test_oracle_matches_engine_on_a_tell():
    cfg = Configuration(parse_agent("tell(X = a)"), conj(TRUE, parse_constraint("Y = b")))
    engine = keys(c for c, _ in discrete_successors(cfg, EMPTY_PROGRAM))
    assert keys(oracle_successors(cfg, EMPTY_PROGRAM)) == engine


def test_oracle_matches_engine_one_step_random_programs():
    for seed in range(400):
        prog = random_program(seed)
        reset_fresh_counter()
        cfg = start_configuration(prog)
        for _ in range(6):
            reset_fresh_counter()
            engine = discrete_successors(cfg, prog)
            reset_fresh_counter()
            oracle = oracle_successors(cfg, prog)
            assert keys(c for c, _ in engine) == keys(oracle), seed
            if not engine:
                break
            cfg = engine[0][0]


def test_oracle_continuous_requires_a_true_invariant():
    store = apply_change(EMPTY_STORE, "T", Fraction(0), Flow(Fraction(1), Fraction(0)))
    cfg = Configuration(parse_agent("ask~(T =< 60)"), TRUE, store)
    assert oracle_continuous(cfg, EMPTY_PROGRAM, Fraction(60)) is not None
    assert oracle_continuous(cfg, EMPTY_PROGRAM, Fraction(61)) is None
    assert oracle_continuous(cfg, EMPTY_PROGRAM, Fraction(0)) is None


def test_oracle_continuous_skips_invariants_that_do_not_hold_now():
    # the first invariant's discrete part is not entailed, the second holds only from T = 5
    store = apply_change(EMPTY_STORE, "T", Fraction(0), Flow(Fraction(1), Fraction(0)))
    cfg = Configuration(parse_agent("ask~(X = a /\\ T =< 60) + ask~(T >= 5) + ask~(T =< 10)"), TRUE, store)
    assert oracle_continuous(cfg, EMPTY_PROGRAM, Fraction(10)) is not None
    assert oracle_continuous(cfg, EMPTY_PROGRAM, Fraction(11)) is None


def test_oracle_rejects_random_as_explore_does():
    prog = parse_program("init :- tell(X = random(0, 3)).")
    cfg = Configuration(parse_agent("tell(X = random(0, 3))"))
    with pytest.raises(ModelError) as engine:
        explore(prog, 2)
    with pytest.raises(ModelError) as oracle:
        oracle_successors(cfg, EMPTY_PROGRAM)
    assert str(oracle.value) == str(engine.value)


def test_oracle_continuous_structural_idling():
    # stop and suspended pure-ask choices let any amount of time pass
    cfg = Configuration(parse_agent("stop || (ask(X = a) -> stop)"))
    adv = oracle_continuous(cfg, EMPTY_PROGRAM, Fraction(5))
    assert adv is not None and adv.clock == 5


def test_oracle_continuous_blocked_by_enabled_work():
    cfg = Configuration(parse_agent("tell(X = a)"))
    assert oracle_continuous(cfg, EMPTY_PROGRAM, Fraction(1)) is None


def test_size_cap():
    agent = parse_agent(" || ".join(["stop"] * 300))
    with pytest.raises(OracleSizeError):
        oracle_successors(Configuration(agent), EMPTY_PROGRAM)


def test_oracle_reachable_starts_from_an_empty_continuous_store():
    # opening the scopes renames bound names, so none may hold a continuous value yet
    store = apply_change(EMPTY_STORE, "T", Fraction(0), Flow(Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="empty continuous store"):
        oracle_reachable(Configuration(parse_agent("exists T (ask~(T =< 1))"), TRUE, store), EMPTY_PROGRAM, 1)


def test_reachable_sets_agree_with_explore():
    for seed in range(80):
        prog = random_program(seed + 10_000)
        report = explore(prog, 5)
        reset_fresh_counter()
        oracle = oracle_reachable(Configuration(prog.initial), prog, 5)
        assert report.states == oracle, seed


def test_open_guard_bound_does_not_carry_time_past_an_expiring_invariant():
    # at t = 6 the invariant C =< 7 expires and the guard C > 7 is not yet
    # true: time cannot pass t = 6
    text = (
        "init :- tell(Go = go) || change(C, 1, der(C) = 1)"
        " || ask(Go = go) -> (ask(C > 7) -> stop + ask~(C =< 7))."
    )
    prog = parse_program(text)
    terminal = run(prog, RunOptions(max_time=Fraction(100))).terminal
    assert (terminal.kind, terminal.clock) == ("timelock", 6)
    report = explore(prog, 6)
    reset_fresh_counter()
    assert oracle_reachable(Configuration(prog.initial), prog, 6) == report.states


def test_guard_renamed_onto_one_argument_engine_and_oracle_agree():
    text = "p(A, B) :- ask(A = [a|_] /\\ B = [a|Y]) -> stop.  init :- tell(X = [a|T]) || p(X, X)."
    prog = parse_program(text)
    report = explore(prog, 5)
    reset_fresh_counter()
    assert oracle_reachable(Configuration(prog.initial), prog, 5) == report.states
    assert report.complete and len(report.states) == 3


def test_recursive_stream_programs_agree_with_explore():
    for seed in range(12):
        prog = recursive_program(seed)
        report = explore(prog, 8)
        reset_fresh_counter()
        assert oracle_reachable(Configuration(prog.initial), prog, 8) == report.states, seed
        # the recursion is reached: some state holds the names of several opened scopes
        assert max(len(set(re.findall(r"\bc\d+\b", key[0] + key[2]))) for key in report.states) >= 5, seed
        # no state holds a scope or a stopped component
        for key in report.states:
            assert "exists" not in key[0] and not re.search(r"\bstop \|\||\|\| stop\b", key[0]), key[0]


@pytest.mark.parametrize(
    "text",
    [
        "init :- tell(Z = 5) || exists A (ask(A = Z) -> tell(Done = yes)).",
        "init :- tell(A = 5) || exists Z (ask(Z = A) -> tell(Done = yes)).",
    ],
)
def test_var_var_guard_engine_and_oracle_agree(text):
    prog = parse_program(text)
    report = explore(prog, 5)
    reset_fresh_counter()
    assert oracle_reachable(Configuration(prog.initial), prog, 5) == report.states
    assert any("Done=yes" in key[2] for key in report.states)
