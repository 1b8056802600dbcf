"""Scheduling loop, trace formats, canonical keys, bounded exploration."""
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hytccp import constraints, flows, simulator, syntax
from hytccp.constraints import FRESH_NAME, atom_text_order, constraint_vars, is_fresh_name, reset_fresh_counter
from hytccp.parser import parse_program
from hytccp.semantics import Configuration, discrete_successors, start_configuration
from hytccp.simulator import (
    RunOptions,
    Trace,
    canonical_key,
    explore,
    run,
)
from hytccp.syntax import Choice, Now, Tell, children, nodes, rebuild, rename_atoms, uses

from generators import random_program, recursive_program


def program(text):
    return parse_program(text)


def load(name):
    with open(f"models/{name}") as fh:
        text = fh.read()
    return parse_program(text)


# --- terminals


def test_stop_terminates_all_stop_at_zero():
    trace = run(program("init :- stop."), RunOptions())
    assert trace.terminal["cause"] == "all_stop" and Fraction(trace.terminal["t"]) == 0


def test_unsatisfiable_ask_suspends_at_zero():
    trace = run(program("init :- ask(X = a) -> stop."), RunOptions())
    assert trace.terminal["cause"] == "suspended" and Fraction(trace.terminal["t"]) == 0


def test_watched_guard_without_invariant_is_a_timelock():
    trace = run(program("init :- change(T, 0, der(T) = 1) || (ask(T = 5) -> stop)."), RunOptions())
    assert trace.terminal["cause"] == "timelock"


def test_instant_divergence_is_detected():
    trace = run(
        program("loop :- tell(X = a) || loop. init :- loop."),
        RunOptions(divergence_budget=50),
    )
    assert trace.terminal["cause"] == "instant_divergence" and Fraction(trace.terminal["t"]) == 0


def test_max_time_reached():
    trace = run(load("timer.hyt"), RunOptions(max_time=Fraction(150)))
    assert trace.terminal["cause"] == "max_time" and Fraction(trace.terminal["t"]) == 150


def test_max_steps_reached():
    # the timer takes two discrete steps per period (the reset, then the recursive call)
    trace = run(load("timer.hyt"), RunOptions(max_discrete_steps=3))
    steps = [ev for ev in trace.events if ev["kind"] == "discrete"]
    assert (len(steps), trace.terminal["cause"], Fraction(trace.terminal["t"])) == (3, "max_steps", 60)


def test_a_trace_without_events_has_no_terminal():
    assert Trace("", RunOptions()).terminal is None


# --- traces


def test_timer_fires_at_exact_periods():
    trace = run(load("timer.hyt"), RunOptions(max_time=Fraction(180)))
    resets = [Fraction(ev["t"]) for ev in trace.events if ev["kind"] == "discrete" and ev["changes"]]
    assert resets == [Fraction(0), Fraction(60), Fraction(120), Fraction(180)]


def test_clock_soundness():
    trace = run(load("timer.hyt"), RunOptions(max_time=Fraction(200)))
    total = sum((Fraction(ev["tau"]) for ev in trace.events if ev["kind"] == "continuous"), Fraction(0))
    assert total == Fraction(trace.terminal["t"])


def test_horizon_caps_single_steps():
    trace = run(load("timer.hyt"), RunOptions(max_time=Fraction(60), horizon=Fraction(25)))
    taus = [Fraction(ev["tau"]) for ev in trace.events if ev["kind"] == "continuous"]
    assert taus == [Fraction(25), Fraction(25), Fraction(10)]
    assert Fraction(trace.terminal["t"]) == 60


def test_jsonl_trace_schema():
    trace = run(load("timer.hyt"), RunOptions(max_time=Fraction(60)))
    lines = trace.to_jsonl().strip().split("\n")
    header = json.loads(lines[0])
    assert header["kind"] == "header" and header["seed"] == 0
    kinds = [json.loads(l)["kind"] for l in lines[1:]]
    assert kinds[-1] == "terminal" and "continuous" in kinds and "discrete" in kinds
    cont = next(json.loads(l) for l in lines[1:] if json.loads(l)["kind"] == "continuous")
    assert cont["tau"] == "60" and cont["vars"]["T"] == {"v": "60", "flow": "1+0*x"}


def test_csv_matches_jsonl_events():
    trace = run(load("timer.hyt"), RunOptions(max_time=Fraction(120)))
    rows = trace.to_csv().strip().split("\n")
    assert rows[0] == "t,var,value,flow_a,flow_b"
    cont_events = [ev for ev in trace.events if ev["kind"] == "continuous"]
    assert len(rows) - 1 == sum(len(ev["vars"]) for ev in cont_events)
    assert rows[1] == "60,T,60,1,0"


def test_scheduler_choice_is_recorded():
    prog = program("init :- ask(X = a) -> tell(Y = 1) + ask(X = a) -> tell(Y = 2) || tell(X = a).")
    trace = run(prog, RunOptions())
    picks = [c for ev in trace.events if ev["kind"] == "discrete" for c in ev["choices"]]
    assert any(c["site"] == "scheduler" and c["alternatives"] == 2 for c in picks)


def test_told_false_is_logged_as_false():
    trace = run(program("init :- tell(false)."), RunOptions())
    assert [ev["told"] for ev in trace.events if ev["kind"] == "discrete"] == [[], ["false"]]


def test_each_policy_takes_its_own_successor():
    # two branches race on one guard: ``first`` takes the first, seed 0 draws the second
    prog = program("init :- tell(Go = go) || (ask(Go = go) -> tell(Y = a) + ask(Go = go) -> tell(Y = b)).")
    for options, told in ((RunOptions(), "Y=a"), (RunOptions(policy="random", seed=0), "Y=b")):
        events = [ev for ev in run(prog, options).events if ev["kind"] == "discrete"]
        assert events[-1]["told"] == [told]


def test_the_walk_model_gives_the_scheduler_a_pick_each_period():
    # both branches of walk are enabled at every multiple of PERIOD: ``first``
    # always heads up, and seeds 1 and 2 draw different picks
    prog = load("walk.hyt")

    def picks(options):
        trace = run(prog, options)
        assert trace.terminal["cause"] == "max_time"
        return [
            c["picked"] for ev in trace.events if ev["kind"] == "discrete" for c in ev["choices"] if c["site"] == "scheduler"
        ]

    first = picks(RunOptions(max_time=Fraction(100)))
    assert first == [0] * 10
    one, two = (picks(RunOptions(max_time=Fraction(100), policy="random", seed=s)) for s in (1, 2))
    assert len(one) == len(two) == 10 and 1 in one and 1 in two and one != two
    assert explore(prog, 8).complete


def test_random_policy_is_seeded():
    prog = program("init :- ask(X = a) -> tell(Y = 1) + ask(X = a) -> tell(Y = 2) || tell(X = a).")
    a = run(prog, RunOptions(policy="random", seed=5)).to_jsonl()
    b = run(prog, RunOptions(policy="random", seed=5)).to_jsonl()
    assert a == b


def test_identical_options_give_identical_traces():
    prog = load("dam.hyt")
    options = RunOptions(max_time=Fraction(7200), seed=3)
    assert run(prog, options).to_jsonl() == run(prog, options).to_jsonl()


# --- canonical keys


def test_canonical_key_identifies_renamed_configurations():
    prog = program("init :- exists X (tell(X = [a|Y])).")
    reset_fresh_counter()
    (c1, _), = __import__("hytccp.semantics", fromlist=["discrete_successors"]).discrete_successors(
        Configuration(prog.initial), prog
    )
    k1 = canonical_key(c1)
    reset_fresh_counter()
    for _ in range(3):  # burn generated names so the numbering differs
        from hytccp.constraints import fresh_var

        fresh_var("Q")
    (c2, _), = __import__("hytccp.semantics", fromlist=["discrete_successors"]).discrete_successors(
        Configuration(prog.initial), prog
    )
    assert canonical_key(c2) == k1


# a running agent has no scope, so ``uses`` reports each tell and guard whole
def constraints_of(cfg):
    return [cfg.discrete] + [item for item, _ in uses(cfg.agent) if not isinstance(item, str)]


def generated_names(cfg):
    names = {n for c in constraints_of(cfg) for n in constraint_vars(c)}
    names |= {item for item, _ in uses(cfg.agent) if isinstance(item, str)}
    return sorted(n for n in names if is_fresh_name(n) and n not in cfg.continuous.entries)


def masked_texts_differ(c):
    texts = map(str, c) if isinstance(c, frozenset) else str(c).split(" /\\ ")  # a tell or guard's atoms, a store's text
    masked = [FRESH_NAME.sub("#", a) for a in texts]
    return len(set(masked)) == len(masked)


@lru_cache(maxsize=None)
def explored_configurations():
    """Configurations ``explore`` keys with two or more generated names.

    Only those where no constraint holds two atoms with equal masked text:
    the key orders such atoms by their generated names' numbers.
    """
    found = []
    record = lambda cfg: found.append(cfg) or canonical_key(cfg)
    with mock.patch.object(simulator, "canonical_key", record):
        for seed in range(300):
            explore(random_program(seed), 5, time_samples=1)
        for seed in range(12):
            explore(recursive_program(seed), 8, time_samples=1)
    return [
        cfg
        for cfg in found
        if len(generated_names(cfg)) >= 2 and all(map(masked_texts_differ, constraints_of(cfg)))
    ]


def renamed(agent, mapping):
    """``agent`` with names renamed, its tells renamed atom by atom like its guards."""
    if isinstance(agent, Tell):
        return Tell(rename_atoms(agent.constraint, mapping))
    return rebuild(agent, tuple(renamed(kid, mapping) for kid in children(agent)), mapping)


class Written(frozenset):
    """A store's links renamed, as written: printed as a store prints, in ``atom_text_order``."""

    def __str__(self):
        return " /\\ ".join(sorted(map(str, self), key=atom_text_order)) or "true"


def test_key_invariance_pool_is_large():
    assert len(explored_configurations()) >= 200


@settings(max_examples=300)
@given(st.data())
def test_canonical_key_ignores_how_generated_names_are_numbered(data):
    pool = explored_configurations()
    cfg = pool[data.draw(st.integers(0, len(pool) - 1))]
    names = generated_names(cfg)
    # new numbers in a new order; the key masks the name before '#' too
    numbers = data.draw(st.lists(st.integers(1, 10**4), min_size=len(names), max_size=len(names), unique=True))
    bases = data.draw(st.lists(st.sampled_from(["A", "Q", "Z"]), min_size=len(names), max_size=len(names)))
    mapping = {name: f"{base}#{n}" for name, base, n in zip(names, bases, numbers)}
    other = Configuration(
        renamed(cfg.agent, mapping), Written(rename_atoms(cfg.discrete, mapping)), cfg.continuous, cfg.clock
    )
    assert canonical_key(other) == canonical_key(cfg)


def own_atoms(node):
    """The atoms of the tell, guards and invariants ``node`` holds itself."""
    if isinstance(node, Tell):
        held = [node.constraint]
    elif isinstance(node, Choice):
        held = [b.guard for b in node.ask_branches] + list(node.cont_branches)
    elif isinstance(node, Now):
        held = [node.guard]
    else:
        held = []
    return [a for c in held for a in c]


def test_explore_prints_each_agent_node_once():
    # a successor shares most of its agent with its parent, and a shared
    # node's text is kept: no atom is printed more often than nodes hold it
    printed = Counter()
    keyed = {}  # every node of every keyed agent, by identity, kept alive

    def count(atom):
        printed[atom] += 1
        return print_atom(atom)

    def key(cfg):
        keyed.update((id(node), node) for node in nodes(cfg.agent))
        return canonical_key(cfg)

    print_atom = syntax._pp_atom
    with mock.patch.object(syntax, "_pp_atom", count), mock.patch.object(simulator, "canonical_key", key):
        for seed in range(12):
            explore(recursive_program(seed), 8, time_samples=1)
    held = Counter(a for node in keyed.values() for a in own_atoms(node))
    assert printed and all(n <= held[atom] for atom, n in printed.items())


def test_a_configuration_keyed_again_formats_only_its_clock(monkeypatch):
    # a continuous store keeps its entries' texts, a flow its own, and a
    # discrete step that changes no continuous variable shares its parent's store
    prog = program("init :- change(C, 1/2, der(C) = 3/4) || change(D, 2, der(D) = 1/3 - D) || (ask(C >= 1/2) -> tell(X = a)).")
    [(call, _)] = discrete_successors(start_configuration(prog), prog)
    [(cfg, _)] = discrete_successors(call, prog)  # the two changes
    [(succ, _)] = discrete_successors(cfg, prog)  # the ask
    assert succ.continuous is cfg.continuous
    formatted = []
    value_json = flows.value_json

    def probe(q):
        formatted.append(q)
        return value_json(q)

    for module in (flows, simulator):
        monkeypatch.setattr(module, "value_json", probe)
    key = canonical_key(cfg)
    assert len(formatted) > 1
    formatted.clear()
    assert canonical_key(cfg) == key and formatted == [cfg.clock]
    formatted.clear()
    assert canonical_key(succ)[3] == key[3] and formatted == [succ.clock]


def test_the_engine_reads_no_stores_atoms(monkeypatch):
    # a store is read through its links; its atoms, one equation per bound
    # name, would cost the whole store each step (8631 names at hour 960 of the dam)
    built = []

    def atoms(store):
        if store._b or store._cmps:
            built.append(str(store))
        return iter_(store)

    iter_ = constraints._Store.__iter__
    constraints._conj_solved.cache_clear()
    constraints.entails.cache_clear()
    monkeypatch.setattr(constraints._Store, "__iter__", atoms)
    thermostat = program(
        "heat(X, L) :- ask~(X =< 22) + ask(X >= 22) -> exists L2 (tell(L = [off|L2]) || change(X, _, der(X) = 0 - X/146) || cool(X, L2)).\n"
        "cool(X, L) :- ask~(X >= 18) + ask(X =< 18) -> exists L2 (tell(L = [on|L2]) || change(X, _, der(X) = 100/146 - X/146) || heat(X, L2)).\n"
        "init :- exists X, L (change(X, 20, der(X) = 100/146 - X/146) || heat(X, L))."
    )
    for prog, seconds in ((load("dam.hyt"), 6 * 3600), (thermostat, 1500)):
        trace = run(prog, RunOptions(max_time=Fraction(seconds)))
        assert sum(len(ev["told"]) for ev in trace.events) >= 4  # the store grows
    for seed in range(4):
        explore(recursive_program(seed), 8, time_samples=1)
    assert built == []


# --- exploration


def test_explore_merges_parallel_tells_in_one_step():
    report = explore(program("init :- tell(X = a) || tell(Y = b)."), depth=1)
    assert len(report.states) == 2  # the initial state and the joint result
    assert report.complete


def test_explore_enumerates_choice_branches():
    report = explore(
        program("init :- ask(X = a) -> tell(Y = 1) + ask(X = a) -> tell(Y = 2) || tell(X = a)."),
        depth=4,
    )
    states = {repr(s) for s in report.states}
    assert any("Y=1" in s for s in states) and any("Y=2" in s for s in states)


def test_explore_takes_continuous_steps():
    report = explore(load("timer.hyt"), depth=4)
    assert any("'60'" in repr(s) or "60" in repr(s) for s in report.states)
    assert report.complete


def test_explore_respects_state_cap(monkeypatch):
    monkeypatch.setattr(simulator, "STATE_CAP", 20)
    prog = program("loop(X) :- exists Y (tell(X = [a|Y]) || loop(Y)). init :- exists X (loop(X)).")
    report = explore(prog, depth=50)
    assert not report.complete
    assert len(report.states) == 20


RUN_DEPTH = 6


def test_every_configuration_a_run_steps_from_is_explored(monkeypatch):
    # run ⊆ explore: a run with explore's horizon takes one of explore's successors
    # at each discrete step or delay, so the configurations it steps from within
    # RUN_DEPTH steps are among the states explore(RUN_DEPTH) keys
    programs = [random_program(seed) for seed in range(400)] + [recursive_program(seed) for seed in range(12)]
    runs = checked = 0
    for seed, prog in enumerate(programs):
        states = explore(prog, RUN_DEPTH, 0).states
        for policy in ("first", "random"):
            stepped = []

            def probe(cfg, *args):
                if len(stepped) <= RUN_DEPTH:
                    stepped.append(cfg)
                return discrete_successors(cfg, *args)

            options = RunOptions(
                max_time=Fraction(10**7), horizon=simulator.EXPLORE_HORIZON, max_discrete_steps=RUN_DEPTH, policy=policy, seed=seed
            )
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "discrete_successors", probe)
                run(prog, options)
            missed = [canonical_key(cfg) for cfg in stepped if canonical_key(cfg) not in states]
            assert not missed, (prog.source, policy, missed)
            runs += 1
            checked += len(stepped)
    assert runs == 824 and checked > 3000


def test_report_json_round_trips():
    report = explore(program("init :- tell(X = a)."), depth=2)
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["state_count"] == len(report.states)
    assert payload["complete"] is True
