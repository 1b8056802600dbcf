"""Transition engine: discrete step rules, hiding, continuous steps, delays."""
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hytccp import semantics
from hytccp.constraints import (
    TRUE,
    LinCmp,
    ModelError,
    TermEq,
    conj,
    constraint_vars,
    entails,
    is_fresh_name,
    reset_fresh_counter,
)
from hytccp.flows import DelayCause, EMPTY_STORE, Entry, apply_change
from hytccp.parser import parse_agent, parse_constraint, parse_program
from hytccp.semantics import (
    Configuration,
    compute_delay,
    continuous_step,
    discrete_successors,
    guard_holds,
    open_scopes,
    read_guard,
    start_configuration,
    step_agent,
)
from hytccp.simulator import RunOptions, run
from hytccp.syntax import (
    Call,
    Change,
    Flow,
    Hide,
    LinExpr,
    Program,
    STOP,
    Stop,
    Tell,
    nodes,
    par,
    pretty,
)

from generators import CONT_VARS, DISCRETE_VARS, free_vars, random_agent

EMPTY_PROGRAM = Program({}, (), STOP)

agents = st.builds(
    lambda seed, depth: random_agent(random.Random(seed), depth, CONT_VARS),
    st.integers(0, 10**6),
    st.integers(1, 4),
)


def cfg_of(agent_text, store_text="true", cont=EMPTY_STORE):
    return Configuration(parse_agent(agent_text), conj(TRUE, parse_constraint(store_text)), cont)


def opened(agent_text, store_text="true"):
    """A configuration over ``agent_text`` with its scopes opened, as a run starts."""
    agent = start_configuration(Program({}, (), parse_agent(agent_text))).agent
    return Configuration(agent, conj(TRUE, parse_constraint(store_text)))


def succs(cfg, program=EMPTY_PROGRAM):
    return discrete_successors(cfg, program)


def timer_store(value=0, slope=1):
    return apply_change(EMPTY_STORE, "T", Fraction(value), Flow(Fraction(slope), Fraction(0)))


# --- basic rules


def test_stop_has_no_step():
    assert succs(cfg_of("stop")) == []


def test_tell_adds_to_the_store_and_stops():
    (nxt, outcome), = succs(cfg_of("tell(X = a)", "Y = b"))
    assert nxt.agent is STOP
    assert entails(nxt.discrete, parse_constraint("X = a /\\ Y = b"))
    assert outcome.told == parse_constraint("X = a")


def test_discrete_step_is_instantaneous():
    (nxt, _), = succs(cfg_of("tell(X = a)"))
    assert nxt.clock == 0 and nxt.continuous is EMPTY_STORE


def test_parallel_is_maximal():
    # both effects in one step: the store gains the binding and the flow resets
    cfg = Configuration(
        parse_agent("change(Vol, _, der(Vol) = -5) || tell(G = [open|H])"),
        TRUE,
        apply_change(EMPTY_STORE, "Vol", Fraction(1000), Flow(Fraction(0), Fraction(0))),
    )
    (nxt, _), = succs(cfg)
    assert entails(nxt.discrete, parse_constraint("G = [open|H]"))
    assert nxt.continuous.entries["Vol"].flow == Flow(Fraction(-5), Fraction(0))
    assert nxt.agent == STOP


def test_parallel_one_sided_when_other_suspends():
    (nxt, _), = succs(cfg_of("tell(X = a) || (ask(Y = b) -> stop)"))
    assert entails(nxt.discrete, parse_constraint("X = a"))
    assert not isinstance(nxt.agent, Stop)


def test_choice_takes_exactly_the_entailed_branches():
    cfg = cfg_of("ask(X = a) -> stop + ask(X = b) -> tell(Y = 1)", "X = a")
    (nxt, outcome), = succs(cfg)
    assert nxt.agent is STOP
    assert outcome.choices[0].picked == 0 and outcome.choices[0].alternatives == 2


def test_choice_with_two_enabled_branches_has_two_successors():
    cfg = cfg_of("ask(X = a) -> stop + ask(Y = b) -> tell(Z = 1)", "X = a /\\ Y = b")
    assert len(succs(cfg)) == 2


def test_choice_guard_on_continuous_snapshot():
    cfg = Configuration(parse_agent("ask(T = 60) -> stop"), TRUE, timer_store(60))
    (nxt, _), = succs(cfg)
    assert nxt.agent is STOP
    assert succs(Configuration(cfg.agent, TRUE, timer_store(59))) == []


def test_now_then_else_and_unwrapping():
    (nxt, _), = succs(cfg_of("now X = a then tell(Y = 1) else tell(Y = 2)", "X = a"))
    assert entails(nxt.discrete, parse_constraint("Y = 1"))
    (nxt, _), = succs(cfg_of("now X = a then tell(Y = 1) else tell(Y = 2)"))
    assert entails(nxt.discrete, parse_constraint("Y = 2"))
    # a suspended branch is unwrapped so the now does not re-test its guard
    (nxt, _), = succs(cfg_of("now X = a then stop else (ask(X = a) -> stop)"))
    assert pretty(nxt.agent) == "ask(X = a) -> stop"


def test_call_unfolds_with_parameter_substitution():
    prog = parse_program("p(A) :- tell(A = done). init :- exists V (p(V)).")
    cfg = Configuration(prog.initial)
    (cfg, _), = succs(cfg, prog)  # init -> body
    (cfg, _), = succs(cfg, prog)  # the call p(V#1) unfolds
    (cfg, _), = succs(cfg, prog)  # tell fires
    from hytccp.constraints import Atom, TermEq, is_fresh_name

    (atom,) = cfg.discrete
    assert isinstance(atom, TermEq) and is_fresh_name(atom.var)
    assert atom.term == Atom("done")


MODELS = Path(__file__).resolve().parent.parent / "models"


def unfold(call: Call, program: Program):
    (out,) = step_agent(call, TRUE, {}, program)
    return out.agent


def test_a_scope_free_body_is_built_once_per_argument_tuple():
    prog = parse_program("p(A) :- tell(A = done) || q(A).  q(B) :- stop.  init :- p(X).")
    first = unfold(Call("p", ("X",)), prog)
    assert first == parse_agent("tell(X = done) || q(X)")
    assert unfold(Call("p", ("X",)), prog) is first
    assert unfold(Call("p", ("Y",)), prog) == parse_agent("tell(Y = done) || q(Y)")
    assert prog.lookup("p", 1)[0]._instances.keys() == {("X",), ("Y",)}


def test_one_declaration_serving_two_variables_keeps_both_instances(monkeypatch):
    # models/thermostat.hyt runs rooms A and B on one heat(X)/cool(X) pair: with
    # an instance per argument tuple, no call after the first of each is built
    # again, so a longer run opens no more nodes
    text = (MODELS / "thermostat.hyt").read_text()
    visits = 0

    def counting_open_scopes(agent, continuous, mapping):
        nonlocal visits
        visits += 1
        return open_scopes(agent, continuous, mapping)

    open_scopes = semantics.open_scopes
    monkeypatch.setattr(semantics, "open_scopes", counting_open_scopes)
    counts = []
    for max_time in (300, 600):
        prog = parse_program(text)
        before = visits
        assert run(prog, RunOptions(max_time=Fraction(max_time))).terminal["cause"] == "max_time"
        counts.append(visits - before)
        for name in ("heat", "cool"):
            assert prog.lookup(name, 1)[0]._instances.keys() == {("A",), ("B",)}
    assert counts[0] == counts[1]


def test_a_body_with_a_scope_draws_new_names_at_every_unfolding():
    prog = parse_program("p(A) :- exists Y (tell(A = [a|Y])).  init :- p(X).")
    first, second = unfold(Call("p", ("X",)), prog), unfold(Call("p", ("X",)), prog)
    assert prog.lookup("p", 1)[0]._instances is None
    (one,), (two,) = first.constraint, second.constraint
    assert one.term.tail != two.term.tail and is_fresh_name(one.term.tail) and is_fresh_name(two.term.tail)


def test_a_call_with_a_generated_argument_keeps_no_instance():
    prog = parse_program("p(A) :- tell(A = done).  init :- exists V (p(V)).")
    trace = run(prog, RunOptions(max_time=Fraction(1)))
    assert trace.terminal["cause"] == "all_stop"
    assert prog.lookup("p", 1)[0]._instances == {}  # p(V#1) unfolded, and kept nothing
    # every dam body opens a scope, and its calls pass generated names
    dam = parse_program((MODELS / "dam.hyt").read_text())
    assert run(dam, RunOptions(max_time=Fraction(48 * 3600))).terminal["cause"] == "max_time"
    assert not any(decl._instances for decl in dam.declarations)


@given(agents)
def test_open_scopes_empty_mapping_on_a_scope_free_agent_is_identity(agent):
    scope_free = open_scopes(agent, frozenset(), {})
    assert not any(isinstance(node, Hide) for node in nodes(scope_free))
    assert open_scopes(scope_free, frozenset(), {}) == scope_free


@given(agents, st.data())
def test_open_scopes_renames_free_occurrences_without_capture(agent, data):
    fv = free_vars(agent)
    x = data.draw(st.sampled_from(sorted(fv | {"Absent"})))
    # y is not free in the agent, but may be bound inside it, here also by a
    # scope whose change keeps it: the mapping's value y must rename that
    # binder, or y would name an occurrence x never had
    y = data.draw(st.sampled_from([v for v in DISCRETE_VARS + CONT_VARS + ["New"] if v not in fv]))
    kept = Change(y, Fraction(0), LinExpr(((Fraction(1), None),)))
    body = open_scopes(Hide((y,), par(kept, agent)), frozenset(), {x: y})
    expected = (fv - {x}) | ({y} if x in fv else set())
    assert {n for n in free_vars(body) if not is_fresh_name(n)} == expected


def test_change_value_from_discrete_store():
    cfg = cfg_of("change(T, N, der(T) = 1)", "N = 42")
    cfg.continuous  # T not yet present: plain initialization
    (nxt, _), = succs(cfg)
    assert nxt.continuous.entries["T"].value == 42


def test_change_unbound_value_is_an_error():
    with pytest.raises(ModelError):
        succs(cfg_of("change(T, N, der(T) = 1)"))


def test_only_a_tell_that_draws_is_rebuilt(monkeypatch):
    # the engine builds an equation only where a random() term, in a list cell too, draws
    built = []

    class Counted(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, TermEq)

    class CountedTermEq(metaclass=Counted):
        def __new__(cls, var, term):
            built.append(var)
            return TermEq(var, term)

    monkeypatch.setattr(semantics, "TermEq", CountedTermEq)
    quiet = "p(X) :- tell(X = [a, b|T]) || tell(T = []).  init :- tell(Y = 1) || exists Z (p(Z)) || p(W)."
    assert run(parse_program(quiet), RunOptions(max_time=Fraction(1))).terminal["cause"] == "all_stop"
    assert built == []
    drawing = "init :- tell(X = [random(1, 3)|T]) || tell(Y = a /\\ Z = [b])."
    run(parse_program(drawing), RunOptions(max_time=Fraction(1), seed=1))
    assert built == ["X"]


def test_a_tell_of_a_long_list_runs():
    # whether a tell draws is read along a list's cells in a loop, not a frame per cell
    text = "init :- tell(X = [" + ", ".join(["1"] * 3000) + "])."
    assert run(parse_program(text), RunOptions()).terminal["cause"] == "all_stop"


def test_draws_go_by_the_atoms_text_then_along_each_list():
    # pinned values: the drawing atoms in text order, each list's heads left to right, nested lists in place
    tell = parse_agent(
        "tell(X = [random(1, 1000), random(1, 1000), [random(1, 5), random(6, 9)]|T]"
        " /\\ Y = random(1, 1000) /\\ T = [random(1, 1000)] /\\ Z = [a, b])"
    )
    rng = random.Random(1)
    drawn = semantics.resolve_random_terms(tell.constraint, lambda lo, hi: Fraction(rng.randint(int(lo), int(hi))))
    assert sorted(map(str, drawn)) == ["T=[138]", "X=[583, 868, [1, 8]|T]", "Y=121", "Z=[a, b]"]


def test_a_long_list_draws_in_every_cell():
    n = sys.getrecursionlimit() + 100
    tell = parse_agent("tell(X = [" + ", ".join(["random(1, 3)"] * n) + "])")
    (drawn,) = semantics.resolve_random_terms(tell.constraint, lambda lo, hi: hi)
    assert str(drawn) == "X=[" + ", ".join(["3"] * n) + "]"


# --- hiding


def test_hide_publishes_under_stable_fresh_names():
    reset_fresh_counter()
    cfg = opened("exists X (tell(X = [a|Y]))")
    (nxt, outcome), = succs(cfg)
    published = outcome.told
    assert "X" not in constraint_vars(published)
    # the local fact is published under a generated stand-in for X
    from hytccp.constraints import Atom, Cons, is_fresh_name

    (atom,) = published
    assert is_fresh_name(atom.var)
    assert atom.term == Cons(Atom("a"), "Y")


def test_hide_local_knowledge_visible_inside_only():
    reset_fresh_counter()
    cfg = opened("exists X (tell(X = a) || (ask(X = a) -> tell(Done = yes)))")
    (cfg1, o1), = succs(cfg)
    assert "X" not in constraint_vars(cfg1.discrete)
    (cfg2, _), = succs(cfg1)  # the ask commits to its branch
    (cfg3, _), = succs(cfg2)  # the branch body tells
    assert entails(cfg3.discrete, parse_constraint("Done = yes"))


def test_hide_projection_of_later_bindings():
    # exists X (tell(Y=[X|T]) || tell(X=3)): published store entails Y=[3|T]
    reset_fresh_counter()
    cfg = opened("exists X (tell(Y = [X|T]) || tell(X = 3))")
    (nxt, _), = succs(cfg)
    assert entails(nxt.discrete, parse_constraint("Y = [3|T]"))


def test_hide_alpha_converts_on_outer_clash():
    reset_fresh_counter()
    cfg = opened("exists X (ask(X = a) -> stop + ask(Y = b) -> stop)", "X = a /\\ Y = b")
    results = succs(cfg)
    # the bound X is distinct from the outer X = a, so only the Y branch fires
    assert len(results) == 1
    (_, outcome), = results
    assert outcome.choices[0].picked == 1


def test_hide_publications_are_stable_across_steps():
    reset_fresh_counter()
    cfg = opened(
        "exists X, C (change(C, 0, der(C) = 1) || tell(X = [a|R]) || (ask(X = [a|_]) -> tell(X = [a|R])))"
    )
    # the scope is gone before the first step: its X is generated, the continuous C kept
    assert not any(isinstance(node, Hide) for node in nodes(cfg.agent))
    (nxt, _), = succs(cfg)
    (x,) = constraint_vars(nxt.discrete) - {"R"}
    assert is_fresh_name(x) and x.startswith("X#")
    assert "C" in nxt.continuous.entries
    # the ask commits, then its tell publishes the same local fact again: it adds nothing
    (nxt2, _), = succs(nxt)
    (nxt3, outcome), = succs(nxt2)
    assert outcome.told and nxt3.discrete == nxt2.discrete == nxt.discrete


@pytest.mark.parametrize("init", ["init :- ", ""], ids=["unfolded", "initial_agent"])
def test_unstepped_scope_does_not_read_the_outer_binding_of_its_name(init):
    # the bound X is not the outer X = a: its guard never holds, and time runs
    # to the horizon in one step instead of stopping at C = 5
    text = (
        f"{init}tell(X = a) || change(C, 0, der(C) = 1)"
        " || exists X (ask(X = a /\\ C >= 5) -> stop + ask~(C =< 100))."
    )
    prog = parse_program(text)
    trace = run(prog, RunOptions(max_time=Fraction(20)))
    steps = [ev for ev in trace.events if ev["kind"] == "continuous"]
    assert [(Fraction(ev["tau"]), ev["cause"]) for ev in steps] == [(20, "horizon")]
    assert trace.terminal["cause"] == "max_time"


# --- monotonicity and continuous steps


def test_every_discrete_step_is_monotone_on_dam():
    text = open("models/dam.hyt").read()
    prog = parse_program(text)
    reset_fresh_counter()
    rng = random.Random(3)
    cfg = Configuration(prog.initial)
    draw = lambda lo, hi: Fraction(rng.randint(int(lo), int(hi)))
    from hytccp.semantics import discrete_successors as ds

    for _ in range(40):
        results = ds(cfg, prog, draw)
        if not results:
            res = compute_delay(cfg, prog, Fraction(3600))
            assert res.kind == "delay"
            cfg = continuous_step(cfg, res.outcome.tau)
            continue
        for nxt, _ in results:
            # stores are compared exactly: entails would read their generated names as placeholders
            assert conj(nxt.discrete, cfg.discrete) == nxt.discrete
        cfg = results[0][0]


def test_continuous_step_shape():
    cfg = Configuration(parse_agent("ask~(T =< 60)"), parse_constraint("X = a"), timer_store(0))
    nxt = continuous_step(cfg, Fraction(25))
    assert nxt.agent is cfg.agent
    assert nxt.discrete is cfg.discrete
    assert nxt.continuous.entries["T"].value == 25
    assert nxt.continuous.entries["T"].flow == cfg.continuous.entries["T"].flow
    assert nxt.clock == 25
    with pytest.raises(ValueError):
        continuous_step(cfg, Fraction(0))


def test_shared_tau_across_parallel_invariants():
    agent = parse_agent("ask~(T =< 60) || ask~(true)")
    store = timer_store(0)
    cfg = Configuration(agent, TRUE, store)
    res = compute_delay(cfg, EMPTY_PROGRAM, Fraction(1000))
    assert res.kind == "delay" and res.outcome.tau == 60
    nxt = continuous_step(cfg, res.outcome.tau)
    assert nxt.continuous.entries["T"].value == 60


def test_guard_enabling_delay_is_exact():
    agent = parse_agent("ask~(true) + ask(T = 60) -> stop")
    cfg = Configuration(agent, TRUE, timer_store(0))
    res = compute_delay(cfg, EMPTY_PROGRAM, Fraction(10**6))
    assert res.kind == "delay"
    assert res.outcome.tau == 60 and res.outcome.cause is DelayCause.GUARD_ENABLES
    nxt = continuous_step(cfg, res.outcome.tau)
    # after the delay the guard is entailed in the new snapshot
    assert len(discrete_successors(nxt, EMPTY_PROGRAM)) == 1


def test_delay_kinds():
    assert compute_delay(Configuration(STOP), EMPTY_PROGRAM, Fraction(10)).kind == "all_stop"
    suspended = Configuration(parse_agent("ask(X = a) -> stop"))
    assert compute_delay(suspended, EMPTY_PROGRAM, Fraction(10)).kind == "suspended"
    # a watched continuous guard with no invariant to drive time is a timelock
    locked = Configuration(parse_agent("ask(T = 5) -> stop"), TRUE, timer_store(0))
    assert compute_delay(locked, EMPTY_PROGRAM, Fraction(10)).kind == "timelock"
    expired = Configuration(parse_agent("ask~(T =< 60)"), TRUE, timer_store(100))
    assert compute_delay(expired, EMPTY_PROGRAM, Fraction(10)).kind == "timelock"
    # a component that can neither step nor let time pass
    undeclared = Configuration(Call("missing", ()))
    assert succs(undeclared) == []
    assert compute_delay(undeclared, EMPTY_PROGRAM, Fraction(10)).kind == "timelock"


def test_time_cannot_pass_while_a_discrete_step_is_enabled():
    cfg = cfg_of("tell(X = a) || ask~(true)")
    assert len(succs(cfg)) == 1  # R4: the tell must fire first


def test_a_stopped_agent_is_stop():
    # agents the engine makes obey A || stop == A, so STOP is the one stopped agent
    assert opened("stop || exists X (stop)").agent == STOP
    assert compute_delay(opened("stop || stop"), EMPTY_PROGRAM, Fraction(10)).kind == "all_stop"


def test_guard_holds_compares_continuous_atoms():
    guard = parse_constraint("T =< 10 /\\ V > 2")
    at = lambda value: Entry(Fraction(value), Flow(Fraction(1), Fraction(0)))
    assert guard_holds(guard, TRUE, {"T": at(10), "V": at(3)})
    assert not guard_holds(guard, TRUE, {"T": at(11), "V": at(3)})
    # a name missing from the continuous store's map is a discrete atom, which TRUE does not entail
    assert not guard_holds(guard, TRUE, {"T": at(1)})


def test_read_guard_normalizes_numeric_equations():
    # T has a continuous value: its numeric equation is an = comparison, and the store entails the rest
    guard = parse_constraint("T = 3600 /\\ X = a")
    entries = {"T": Entry(Fraction(0), Flow(Fraction(1), Fraction(0)))}
    assert read_guard(guard, conj(TRUE, parse_constraint("X = a")), entries) == [LinCmp("T", "=", Fraction(3600))]
    assert read_guard(guard, TRUE, entries) is None


def test_read_guard_rejects_non_numeric_continuous_binding():
    entries = {"T": Entry(Fraction(0), Flow(Fraction(1), Fraction(0)))}
    for text in ("T = a", "T = X", "X = T", "X = [a|T]"):
        with pytest.raises(ModelError) as fault:
            read_guard(parse_constraint(text), TRUE, entries)
        assert str(fault.value) == f"a guard equates continuous variable T with a non-number: {text.replace(' ', '')}"
