"""Command-line driver: subcommands, exit codes, output formats."""
import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest

from generators import random_program, recursive_program
from hytccp import cli
from hytccp.cli import main, static_diagnostics
from hytccp.parser import parse_program
from hytccp.simulator import RunOptions


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_stop_model(tmp_path, capsys):
    out = str(tmp_path / "trace.jsonl")
    assert main(["run", "models/stop.hyt", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert json.loads(lines[-1])["cause"] == "all_stop"
    assert "terminal=all_stop" in capsys.readouterr().err


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.hyt")]) == 1
    assert "missing.hyt" in capsys.readouterr().err


def test_run_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.hyt", "init :- tell(X = ).")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "bad.hyt" in err and "1:" in err


@pytest.mark.parametrize("argv", [["check", "{dir}"], ["run", "models/stop.hyt", "--out", "{dir}"]], ids=["model", "out"])
def test_a_directory_path_is_one_error_line(tmp_path, capsys, argv):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


@pytest.mark.parametrize("command, work", [("run", "run"), ("explore", "explore"), ("parse", "pretty")])
def test_a_bad_out_path_fails_before_the_work(tmp_path, monkeypatch, capsys, command, work):
    def fail(*args, **kwargs):
        raise AssertionError(f"{work} called with an --out that cannot be written")

    monkeypatch.setattr(cli, work, fail)
    assert main([command, "models/dam.hyt", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


@pytest.mark.parametrize(
    "source",
    ["init :- change(C, Y, der(C) = 1).", "init :- tell(X = )."],
    ids=["model_error", "parse_error"],
)
def test_a_command_that_stops_on_an_error_leaves_its_out_file_as_it_was(tmp_path, capsys, source):
    out = tmp_path / "trace.jsonl"
    out.write_bytes(b"an earlier trace\n")
    assert main(["run", write(tmp_path, "model.hyt", source), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"an earlier trace\n"


def test_a_model_that_is_not_utf8_is_located_at_its_first_bad_byte(tmp_path, capsys):
    path = tmp_path / "latin1.hyt"
    path.write_bytes("init :- stop.\n% café\ninit2 :- tell(X = é).\n".encode("latin-1"))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2:6: not UTF-8 text\n"


def test_check_locates_an_undeclared_call(tmp_path, capsys):
    path = write(tmp_path, "call.hyt", "init :- stop ||\n   missing(X).")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == f"error: {path}:2:4: call to undeclared process missing/1\n"


def test_check_locates_wildcard_terms_meeting_in_one_guard(tmp_path, capsys):
    # such a guard parses; the error located is the wildcard in the tell after it
    path = write(tmp_path, "wild.hyt", "init :- ask(X = [a|_] /\\ X = [_|b]) -> tell(Y = [a|_]).")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == f"error: {path}:1:52: wildcard '_' is only allowed inside ask/now guards\n"


def test_run_timelock_exits_2(tmp_path):
    path = write(tmp_path, "lock.hyt", "init :- change(T, 0, der(T) = 1) || (ask(T = 5) -> stop).")
    out = str(tmp_path / "t.jsonl")
    assert main(["run", path, "--out", out]) == 2


def test_run_divergence_budget_env(tmp_path, monkeypatch):
    path = write(tmp_path, "loop.hyt", "loop :- tell(X = a) || loop. init :- loop.")
    monkeypatch.setenv("HYTCCP_DIVERGENCE_BUDGET", "10")
    out = str(tmp_path / "t.jsonl")
    assert main(["run", path, "--out", out]) == 2
    assert json.loads(open(out).read().strip().split("\n")[-1])["cause"] == "instant_divergence"


@pytest.mark.parametrize("argv", [["run", "models/stop.hyt", "--bogus"], ["explore", "models/stop.hyt", "--depth", "x"]])
def test_a_bad_flag_exits_1(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_run_defaults_are_those_of_run_options():
    args = cli.build_arg_parser().parse_args(["run", "models/stop.hyt"])
    defaults = RunOptions()
    assert (args.max_time, args.max_steps, args.horizon, args.policy, args.seed) == (
        defaults.max_time,
        defaults.max_discrete_steps,
        defaults.horizon,
        defaults.policy,
        defaults.seed,
    )


def test_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "--horizon" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-1"])
def test_run_rejects_a_non_positive_horizon(value, capsys):
    assert main(["run", "models/timer.hyt", "--horizon", value]) == 1
    assert f"argument --horizon: not a positive rational: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "models/stop.hyt", "--max-time", "-1"],
        ["run", "models/stop.hyt", "--max-steps", "-1"],
        ["explore", "models/stop.hyt", "--depth", "-1"],
        ["explore", "models/stop.hyt", "--time-samples", "-1"],
    ],
    ids=lambda argv: argv[2],
)
def test_a_negative_bound_is_rejected(argv, capsys):
    assert main(argv) == 1
    assert f"argument {argv[2]}: not a non-negative" in capsys.readouterr().err


def test_run_a_non_integer_divergence_budget_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYTCCP_DIVERGENCE_BUDGET", "ten")
    assert main(["run", "models/stop.hyt", "--out", str(tmp_path / "t.jsonl")]) == 1
    assert capsys.readouterr().err == "error: HYTCCP_DIVERGENCE_BUDGET is not a non-negative integer: 'ten'\n"


def test_run_csv_format(tmp_path):
    out = str(tmp_path / "trace.csv")
    assert main(["run", "models/timer.hyt", "--max-time", "120", "--format", "csv", "--out", out]) == 0
    rows = open(out).read().strip().split("\n")
    assert rows[0] == "t,var,value,flow_a,flow_b"
    assert rows[1].startswith("60,T,")


def test_run_csv_keeps_the_name_of_a_continuous_variable_bound_by_a_scope(tmp_path):
    # the scope's T is continuous: it is passed to tick's T, which a change sets
    text = "tick(T) :- change(T, 0, der(T) = 1) || (ask~(T =< 5) + ask(T = 5) -> stop).  init :- exists T (tick(T))."
    out = str(tmp_path / "trace.csv")
    assert main(["run", write(tmp_path, "tick.hyt", text), "--format", "csv", "--out", out]) == 0
    assert open(out).read().strip().split("\n")[1:] == ["5,T,5,1,0"]


def test_run_renames_a_discrete_scope_name_that_another_declaration_changes(tmp_path):
    # clk's parameter T is continuous, p's bound T is not: each unfolding of p
    # renames its own T, so T = a and T = b never meet in one store
    text = (
        "clk(T) :- change(T, 0, der(T) = 1)."
        "  p(N) :- exists T (tell(T = N) || (ask(N = a) -> exists B (tell(B = b) || p(B))))."
        "  init :- clk(C) || exists A (tell(A = a) || p(A))."
    )
    out = str(tmp_path / "trace.jsonl")
    assert main(["run", write(tmp_path, "clk.hyt", text), "--max-time", "3", "--out", out]) == 0
    events = [json.loads(l) for l in open(out).read().strip().split("\n")[1:]]
    told = [atom for e in events for atom in e.get("told", [])]
    assert [atom.split("=")[0] for atom in told] == ["A#1", "T#2", "B#3", "T#4"]
    assert events[-1]["cause"] == "suspended"


def test_run_renames_a_kept_continuous_scope_name_that_an_argument_spells(tmp_path):
    # the argument T and p's bound continuous T are two variables: the bound
    # one is renamed, so the guard reads the discrete T the tell binds
    text = (
        "p(X) :- exists T (change(T, 0, der(T) = 1) || tell(X = a))."
        "  init :- p(T) || (ask(T = a) -> tell(Done = yes))."
    )
    out = str(tmp_path / "t.jsonl")
    assert main(["run", write(tmp_path, "p.hyt", text), "--out", out]) == 0
    events = [json.loads(line) for line in open(out).read().strip().split("\n")]
    assert events[-1]["cause"] == "all_stop"
    assert any("Done=yes" in ev.get("told", ()) for ev in events)
    assert [change[0] for ev in events for change in ev.get("changes", ())] == ["T#1"]


def test_run_dam_four_periods(tmp_path):
    out = str(tmp_path / "dam.jsonl")
    assert main(["run", "models/dam.hyt", "--seed", "42", "--max-time", "14400", "--out", out]) == 0
    events = [json.loads(l) for l in open(out).read().strip().split("\n")[1:]]
    resets = [e["t"] for e in events if e["kind"] == "discrete" and any(c[0] == "T" for c in e.get("changes", []))]
    assert resets == ["0", "3600", "7200", "10800", "14400"]


def test_explore_subcommand(tmp_path):
    out = str(tmp_path / "reach.json")
    assert main(["explore", "models/stop.hyt", "--depth", "3", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["kind"] == "reachability" and payload["state_count"] >= 1


def test_check_ok(capsys):
    assert main(["check", "models/dam.hyt"]) == 0
    assert "OK" in capsys.readouterr().err


def test_check_flags_uninitialized_continuous_variable(tmp_path, capsys):
    path = write(tmp_path, "bad.hyt", "init :- change(Vol, _, der(Vol) = 1).")
    assert main(["check", path]) == 1
    assert "uninitialized continuous variable Vol" in capsys.readouterr().err


def test_check_flags_unbound_change_value(tmp_path, capsys):
    path = write(tmp_path, "bad.hyt", "init :- change(C, Y, der(C) = 1).")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "unbound change value Y in init" in err


def test_check_accepts_change_values_bound_by_tell_guard_or_parameter(tmp_path):
    path = write(
        tmp_path,
        "ok.hyt",
        "p(N) :- exists M (ask(S = [M|_]) -> change(C, N, der(C) = M))."
        " init :- exists K (tell(K = 2) || tell(S = [1|T]) || p(K)).",
    )
    assert main(["check", path]) == 0


@pytest.mark.parametrize("model", sorted(glob.glob("models/*.hyt")))
def test_check_passes_the_shipped_models(model):
    assert main(["check", model]) == 0


CLOCK_AND_READER = "clk(T) :- change(T, 0, der(T) = 1) || q(T).  q(S) :- ask~(S =< 3) + ask(S = 3) -> stop.  "


@pytest.mark.parametrize(
    "text",
    [
        CLOCK_AND_READER + "init :- clk(C).",
        "heat(X) :- ask~(X =< 22) + ask(X >= 22) -> (change(X, _, der(X) = 0 - X/146) || cool(X)).\n"
        "cool(X) :- ask~(X >= 18) + ask(X =< 18) -> (change(X, _, der(X) = 100/146 - X/146) || heat(X)).\n"
        "init :- exists T (change(T, 20, der(T) = 100/146 - T/146) || heat(T)).",
    ],
    ids=["reader_of_a_clock", "heat_cool"],
)
def test_check_reads_a_parameter_through_each_call(tmp_path, text):
    # a parameter read in ask~ or kept with _ is initialized by the caller's argument
    path = write(tmp_path, "p.hyt", text)
    assert main(["check", path]) == 0
    assert main(["run", path, "--max-time", "100", "--out", str(tmp_path / "t.jsonl")]) == 0


@pytest.mark.parametrize(
    "text, name",
    [
        ("p(X) :- ask~(X =< 3).  init :- exists Y (p(Y)).", "Y"),
        (CLOCK_AND_READER + "init :- clk(C) || exists D (q(D)).", "D"),
    ],
    ids=["unset_argument", "unset_argument_beside_a_clock"],
)
def test_check_flags_an_argument_read_through_a_parameter(tmp_path, capsys, text, name):
    path = write(tmp_path, "p.hyt", text)
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == (
        f"error: uninitialized continuous variable {name}: read or kept before any change({name}, value, flow)\n"
    )
    assert main(["run", path, "--out", str(tmp_path / "t.jsonl")]) == 2  # timelock


@pytest.mark.parametrize(
    "text",
    [
        "init :- change(T, 0, der(T) = 1) || (ask(T = a) -> stop + ask~(T =< 10)).",
        "init :- exists T (change(T, 0, der(T) = 1) || (ask(T = a) -> stop + ask~(T =< 10))).",
    ],
    ids=["free", "bound_and_kept"],
)
def test_check_flags_a_guard_equating_a_continuous_variable_with_a_non_number(tmp_path, capsys, text):
    path = write(tmp_path, "g.hyt", text)
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == "error: a guard equates continuous variable T with a non-number: T=a\n"
    # run meets the fault and words it alike
    assert main(["run", path, "--out", str(tmp_path / "t.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: {path}: a guard equates continuous variable T with a non-number: T=a\n"


def test_check_reads_a_guard_with_the_continuous_names_of_its_own_declaration(tmp_path):
    # clk's T is continuous, p's T is not: p may equate its T with an atom
    text = "clk(T) :- change(T, 0, der(T) = 1).  p(T) :- ask(T = a) -> stop.  init :- exists C, D (clk(C) || p(D))."
    assert main(["check", write(tmp_path, "g.hyt", text)]) == 0


UNINITIALIZED_X = "uninitialized continuous variable X: read or kept before any change(X, value, flow)"

# a guard in q equates its parameter with an atom; clk passes q its continuous T, directly or through r
GUARD_THROUGH_ONE_PARAMETER = (
    "clk(T) :- change(T, 0, der(T) = 1) || q(T) || (ask(T = 9) -> stop + ask~(T =< 9))."
    "  q(S) :- ask(S = a) -> stop.  init :- clk(C)."
)
GUARD_THROUGH_TWO_PARAMETERS = (
    "clk(T) :- change(T, 0, der(T) = 1) || r(T) || (ask(T = 9) -> stop + ask~(T =< 9))."
    "  r(U) :- q(U).  q(S) :- ask(S = a) -> stop.  init :- clk(C)."
)
GUARD_FAULT = "a guard equates continuous variable"
GUARD_FAULT_C = f"{GUARD_FAULT} C with a non-number: C=a"


@pytest.mark.parametrize(
    "text, error, run_exit",
    [
        (GUARD_THROUGH_ONE_PARAMETER, GUARD_FAULT_C, 1),
        (GUARD_THROUGH_TWO_PARAMETERS, GUARD_FAULT_C, 1),
        (
            "init :- exists X (change(X, 0, der(X) = 1)) || exists X (ask~(X =< 3) + ask(X = 3) -> stop).",
            UNINITIALIZED_X,
            2,
        ),
        (
            "p :- exists X (change(X, 0, der(X) = 1)).  q :- exists X (ask~(X =< 3) + ask(X = 3) -> stop)."
            "  init :- p || q.",
            UNINITIALIZED_X,
            2,
        ),
        (
            "init :- exists Y (tell(Y = 2)) || exists Y (change(C, Y, der(C) = 1)).",
            "unbound change value Y in init: no tell or guard mentions it",
            1,
        ),
        (
            "p :- change(X, 0, der(X) = 1).  q :- ask(X = a) -> stop.  init :- p || q.",
            "a guard equates continuous variable X with a non-number: X=a",
            1,
        ),
        ("p(X) :- exists X (ask~(X =< 3)).  init :- change(A, 0, der(A) = 1) || p(A).", UNINITIALIZED_X, 2),
    ],
    ids=[
        "guard_through_a_parameter",
        "guard_through_two_parameters",
        "scopes",
        "scopes_in_two_declarations",
        "bound_value",
        "global_name",
        "shadowed_parameter",
    ],
)
def test_check_reads_scopes_and_parameters_as_run_does(tmp_path, capsys, text, error, run_exit):
    # each scope's names are its own, roles reach an argument through its
    # parameter, and a generated name is spelled as written
    path = write(tmp_path, "p.hyt", text)
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert main(["run", path, "--out", str(tmp_path / "t.jsonl")]) == run_exit
    if error.startswith(GUARD_FAULT):  # run meets the fault and words it alike
        assert capsys.readouterr().err == f"error: {path}: {error}\n"


def test_check_passes_the_generated_programs():
    # no false positive from the program-wide table: every generated program runs
    programs = {f"random_{seed}": random_program(seed) for seed in range(300)}
    programs.update((f"recursive_{seed}", recursive_program(seed)) for seed in range(12))
    issues = {name: static_diagnostics(program) for name, program in programs.items()}
    assert {name: found for name, found in issues.items() if found} == {}


def test_run_guard_renamed_onto_one_argument(tmp_path, capsys):
    # both parameters become X: the guard keeps both atoms, with their
    # wildcard, and the free Y leaves it unentailed
    path = write(tmp_path, "p.hyt", "p(A, B) :- ask(A = [a|_] /\\ B = [a|Y]) -> stop.  init :- tell(X = [a|T]) || p(X, X).")
    out = str(tmp_path / "t.jsonl")
    assert main(["run", path, "--out", out]) == 0
    last = json.loads(open(out).read().strip().split("\n")[-1])
    assert (last["cause"], last["t"]) == ("suspended", "0")
    assert "Traceback" not in capsys.readouterr().err


def test_run_a_placeholder_whose_value_is_zero(tmp_path):
    # the guard's A takes the store's Z, 0, which a number equals however falsy it is
    text = "init :- tell(Z = 0) || exists A (ask(A = Z /\\ A = 0) -> tell(Done = yes))."
    out = str(tmp_path / "t.jsonl")
    assert main(["run", write(tmp_path, "p.hyt", text), "--out", out]) == 0
    events = [json.loads(line) for line in open(out).read().strip().split("\n")]
    assert events[-1]["cause"] == "all_stop"
    assert any("Done=yes" in ev.get("told", ()) for ev in events)


@pytest.mark.parametrize("bound, outer", [("A", "Z"), ("Z", "A")])
def test_run_var_var_guard_on_a_bound_name(tmp_path, bound, outer):
    # alpha-variants: the guard fires however the names are spelled
    text = f"init :- tell({outer} = 5) || exists {bound} (ask({bound} = {outer}) -> tell(Done = yes))."
    out = str(tmp_path / "t.jsonl")
    assert main(["run", write(tmp_path, "p.hyt", text), "--out", out]) == 0
    last = json.loads(open(out).read().strip().split("\n")[-1])
    assert last["cause"] == "all_stop"


@pytest.mark.parametrize("bound, outer", [("A", "Z"), ("Z", "A")])
def test_run_var_var_guard_reads_the_store_value_of_a_bound_name(tmp_path, bound, outer):
    # the inner ask reads a store that binds the scope's name to 5 and the
    # outer one to 6: it must not fire, however the names are spelled
    text = (
        f"init :- tell({outer} = 6) || exists {bound} (tell({bound} = 5)"
        f" || (ask({bound} = 5) -> (ask({bound} = {outer}) -> tell(Done = yes))))."
    )
    out = str(tmp_path / "t.jsonl")
    assert main(["run", write(tmp_path, "p.hyt", text), "--out", out]) == 0
    events = [json.loads(line) for line in open(out).read().strip().split("\n")]
    assert events[-1]["cause"] == "suspended"
    assert not any("Done=yes" in ev.get("told", ()) for ev in events)


@pytest.mark.parametrize(
    "text",
    [
        "init :- tell(Z = [a|T]) || exists A (ask(A = Z /\\ A = [a|_]) -> tell(Done = yes)).",
        "init :- tell(_Z = [a|T]) || exists A (ask(A = _Z /\\ A = [a|_]) -> tell(Done = yes)).",
        "init :- tell(X = [a|b]) || (ask(X = [a|_] /\\ X = [_|b]) -> tell(Done = yes)).",
    ],
    ids=["linked_bound_name", "linked_bound_name_underscore", "wildcards_on_one_variable"],
)
def test_run_guard_as_written_fires(tmp_path, text):
    # the guard keeps its atoms as written: no link is lost, and wildcard
    # terms on one variable are each matched against its store value
    out = str(tmp_path / "t.jsonl")
    assert main(["run", write(tmp_path, "p.hyt", text), "--out", out]) == 0
    events = [json.loads(line) for line in open(out).read().strip().split("\n")]
    assert events[-1]["cause"] == "all_stop"
    assert any("Done=yes" in ev.get("told", ()) for ev in events)


def test_run_placeholder_takes_its_value_only_from_the_store(tmp_path):
    # X is a scope's name: the ask may not choose X = a before the tell says X = b
    text = "init :- exists X (ask(X = a) -> tell(Fired = yes) || tell(X = b))."
    out = str(tmp_path / "t.jsonl")
    assert main(["run", write(tmp_path, "p.hyt", text), "--out", out]) == 0
    events = [json.loads(line) for line in open(out).read().strip().split("\n")]
    assert events[-1]["cause"] == "suspended"
    assert not any("Fired=yes" in ev.get("told", ()) for ev in events)


def test_check_empty_file(tmp_path):
    path = write(tmp_path, "empty.hyt", "")
    assert main(["check", path]) == 1


def test_a_tell_is_kept_as_written_and_told_renamed(tmp_path, capsys):
    # renamed onto one argument, the tell fails the occurs check only in the store
    path = write(tmp_path, "p.hyt", "p(A, B) :- tell(A = Z /\\ Z = [a|B]).  init :- exists X (p(X, X)).")
    assert main(["parse", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "p(A, B) :- tell(A = Z /\\ Z = [a|B])."
    out = str(tmp_path / "t.jsonl")
    assert main(["run", path, "--out", out]) == 0
    events = [json.loads(line) for line in open(out).read().strip().split("\n")]
    assert [ev["told"] for ev in events if ev.get("told")] == [["X#1=Z", "Z=[a|X#1]"]]


def test_parse_output_reparses(tmp_path):
    out = str(tmp_path / "pretty.hyt")
    assert main(["parse", "models/dam.hyt", "--out", out]) == 0
    original = parse_program(open("models/dam.hyt").read())
    reparsed = parse_program(open(out).read())
    assert {d.name for d in reparsed.declarations} == {d.name for d in original.declarations}
    for decl in original.declarations:
        assert reparsed.lookup(decl.name, len(decl.params))[0].body == decl.body


TEN_TO_400 = "1" + "0" * 400


@pytest.mark.parametrize(
    "command, source, message",
    [
        ("explore", None, "random() needs a seeded generator"),
        ("run", "init :- change(C, Y, der(C) = 1).", "variable Y is not bound to a number"),
        (
            "run",
            "init :- exists Y (tell(Y = 2)) || exists Y (change(C, Y, der(C) = 1)).",
            "variable Y is not bound to a number",
        ),
        ("run", "init :- change(C, _, der(C) = 1).", "continuous variable C, which has no value yet"),
        (
            "run",
            "init :- change(Z, 0, der(Z) = 1) || tell(A = 5) || (ask(Z = A) -> stop + ask~(Z =< 10)).",
            "a guard equates continuous variable Z with a non-number: Z=A",
        ),
        (
            "run",
            "init :- change(T, 0, der(T) = 1) || tell(X = 5) || (ask(T = X) -> stop + ask~(T =< 10)).",
            "a guard equates continuous variable T with a non-number: T=X",
        ),
        (
            "run",
            "init :- change(T, 0, der(T) = 1) || (ask(T = a) -> stop + ask~(T =< 10)).",
            "a guard equates continuous variable T with a non-number: T=a",
        ),
        # check words these two alike (test_check_reads_scopes_and_parameters_as_run_does)
        ("run", GUARD_THROUGH_ONE_PARAMETER, GUARD_FAULT_C),
        ("run", GUARD_THROUGH_TWO_PARAMETERS, GUARD_FAULT_C),
        ("run", "init :- tell(X = random(1/3, 2/3)).", "1:18: no integer in random range [1/3, 2/3]"),
        ("check", "init :- tell(X = random(1/3, 2/3)).", "1:18: no integer in random range [1/3, 2/3]"),
        (
            "run",
            "init :- tell(X = 1) || (ask(X = random(0, 3)) -> tell(Y = done)).",
            "1:33: random() is only allowed inside tell",
        ),
        (
            "check",
            "init :- tell(X = 1) || (ask(X = random(0, 3)) -> tell(Y = done)).",
            "1:33: random() is only allowed inside tell",
        ),
        (
            "run",
            "init :- change(X, 1, der(X) = X) || ask~(true).",
            "a value or bound of an exponential flow is beyond the float range",
        ),
        (
            "run",
            f"init :- change(X, 1, der(X) = X) || (ask~(X =< {TEN_TO_400}) + ask(X >= {TEN_TO_400}) -> stop).",
            "a value or bound of an exponential flow is beyond the float range",
        ),
    ],
    ids=[
        "explore_random",
        "unbound_value",
        "unbound_generated_value",
        "keep_uninitialized",
        "guard_Z_A",
        "guard_T_X",
        "guard_T_atom",
        "guard_through_a_parameter",
        "guard_through_two_parameters",
        "random_without_an_integer",
        "random_without_an_integer_check",
        "random_in_a_guard",
        "random_in_a_guard_check",
        "exponential_value_overflow",
        "exponential_bound_overflow",
    ],
)
def test_runtime_model_error_is_reported_not_raised(tmp_path, capsys, command, source, message):
    # one located error line: ``<path>: <message>``, or ``<path>:<line>:<col>: <message>`` for a parse error
    path = "models/dam.hyt" if source is None else write(tmp_path, "model.hyt", source)
    out = [] if command == "check" else ["--out", str(tmp_path / "out")]
    assert main([command, path, *out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}:") and message in err


def test_run_draws_the_same_values_under_every_hash_seed(tmp_path):
    # one tell draws twice: the draws go in the order of the atoms' text
    model = write(tmp_path, "draws.hyt", "init :- tell(X = random(1, 1000) /\\ Y = random(1, 1000)).\n")
    outputs = []
    for hashseed in ("0", "12345"):
        out = tmp_path / f"draws.{hashseed}.jsonl"
        subprocess.run(
            [sys.executable, "-m", "hytccp.cli", "run", model, "--seed", "1", "--out", str(out)],
            check=True,
            capture_output=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hashseed, "PYTHONPATH": "src"},
        )
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1] and '"X=' in outputs[0]


def test_run_keeps_the_values_a_seed_draws_along_list_cells(tmp_path):
    # draws go by the atoms' text, then along each list left to right; the digest is pinned
    model = write(
        tmp_path,
        "draws.hyt",
        "init :- tell(X = [random(1, 1000), random(1, 1000), random(1, 1000)|T] /\\ Y = random(1, 1000))"
        " || tell(T = [random(1, 1000)]).\n",
    )
    out = tmp_path / "draws.jsonl"
    assert main(["run", model, "--seed", "1", "--out", str(out)]) == 0
    trace = out.read_text()
    assert json.loads(trace.splitlines()[2])["told"] == ["T=[783]", "X=[138, 583, 868|T]", "Y=822"]
    assert hashlib.sha256(trace.encode()).hexdigest() == "2cf5e276f2ca038ab1f1a3103d02013f043b7fb58d7cee8c9cf0c0f4f5b429f2"


ONES = ", ".join(["1"] * 3000)
LONG_TERM_MODELS = {
    "drawing_list": f"init :- tell(X = [random(1, 2), {ONES[3:]}]).",
    "two_tells": f"init :- tell(X = [{ONES}]) || tell(X = [{ONES}]).",
    "list_argument": f"p(Y) :- tell(Y = [{ONES}]).  init :- p(Z).",
    "link_chain": "init :- tell(" + " /\\ ".join(f"X{i} = [X{i + 1}]" for i in range(1500)) + ").",
}
SUMMARY = {"run": "terminal=all_stop", "check": "OK (", "explore": "complete=True"}


@pytest.mark.parametrize("command", [["run"], ["check"], ["explore", "--depth", "3"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("name", LONG_TERM_MODELS)
def test_a_model_with_long_terms_runs_checks_and_explores(tmp_path, capsys, name, command):
    # a list's length, or a store's binding depth, does not reach the Python stack
    path = write(tmp_path, f"{name}.hyt", LONG_TERM_MODELS[name] + "\n")
    out = [] if command[0] == "check" else ["--out", str(tmp_path / "out")]
    status = main([command[0], path, *command[1:], *out])
    err = capsys.readouterr().err
    if name == "drawing_list" and command[0] == "explore":
        # explore draws no value: the model's one error line
        assert status == 1 and err == f"error: {path}: random() needs a seeded generator; explore does not draw random values\n"
    else:
        assert status == 0 and err.startswith(f"hytccp {command[0]}: ") and SUMMARY[command[0]] in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["models/timer.hyt"], "hytccp run: 183 events, terminal=max_time, clock=3600"),
        (["models/thermostat.hyt", "--max-time", "600"], "hytccp run: 196 events, terminal=max_time, clock=600.0"),
    ],
    ids=["rational", "float"],
)
def test_run_summary_line(tmp_path, capsys, argv, line):
    assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("command", [["run"], ["check"], ["explore", "--depth", "3"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("components", [400, 500])
def test_a_model_nested_too_deep_for_a_walk_is_one_error_line(tmp_path, capsys, components, command):
    # the walks over an agent recurse once per ||: 500 components pass the parser but not them
    path = write(tmp_path, "deep.hyt", "init :- " + " || ".join(f"tell(X{i} = a)" for i in range(components)) + ".\n")
    out = [] if command[0] == "check" else ["--out", str(tmp_path / "out")]
    status = main([command[0], path, *command[1:], *out])
    err = capsys.readouterr().err
    if components == 500:
        assert (status, err) == (1, f"error: {path}: nesting too deep\n")
    else:
        assert status == 0 and err.startswith(f"hytccp {command[0]}: ")
