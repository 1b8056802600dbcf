"""Command-line driver: parse, check, run and explore .hyt models.

Exit codes: 0 normal termination (all-stop, suspension, max-time/steps),
1 tool, input or runtime model error (missing file, parse error, a bad flag or
HYTCCP_DIVERGENCE_BUDGET, an unbound change value, random() under explore),
2 model pathology (timelock, instantaneous divergence).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from .constraints import Constraint, LinCmp, MissingContinuousVariableError, Num, format_rational, split_guard
from .flows import UninitializedContinuousVariableError
from .parser import ParseError, parse_program
from .semantics import EvaluationError, open_scopes
from .simulator import DEFAULT_DIVERGENCE_BUDGET, RunOptions, explore, run
from .syntax import Call, Change, Choice, FlowSpec, KEEP, Now, Program, continuous_names, nodes, parts, position_fixpoint, pretty


def _number(parse, ok, what: str):
    """An argparse type: the text ``parse``d, if the value passes ``ok``; ``what`` names it in the error."""

    def convert(text: str):
        try:
            if ok(value := parse(text)):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"not {what}: {text!r}")

    return convert


_count = _number(int, lambda n: n >= 0, "a non-negative integer")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hytccp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="path to a .hyt model")
        p.add_argument("--out", help="output path (default: stdout)")

    p_run = sub.add_parser("run", help="simulate one trace")
    add_common(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--policy", choices=["first", "random"], default="first")
    p_run.add_argument("--max-time", type=_number(Fraction, lambda t: t >= 0, "a non-negative rational"), default=Fraction(3600))
    p_run.add_argument("--max-steps", type=_count, default=1_000_000)
    p_run.add_argument("--horizon", type=_number(Fraction, lambda t: t > 0, "a positive rational"), default=None)
    p_run.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")

    p_explore = sub.add_parser("explore", help="bounded exhaustive reachability")
    add_common(p_explore)
    p_explore.add_argument("--depth", type=_count, default=5)
    p_explore.add_argument("--time-samples", type=_count, default=0)

    p_check = sub.add_parser("check", help="parse and run static checks")
    p_check.add_argument("input", help="path to a .hyt model")

    p_parse = sub.add_parser("parse", help="parse and pretty-print the model")
    add_common(p_parse)
    return parser


def _read_model(path: str) -> Program:
    if not os.path.exists(path):
        raise FileNotFoundError(f"model file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_program(text)


def _write(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _unset_reads(agent, positions) -> set:
    """The names ``agent`` reads as continuous values (in an ``ask~`` atom, kept
    by a ``change`` or passed to a position in ``positions``) but never sets
    with a full ``change``."""
    read, full = set(), set()
    for node in nodes(agent):
        if isinstance(node, Change):
            (read if node.value is KEEP or node.flow is KEEP else full).add(node.var)
        elif isinstance(node, Choice):
            read.update(a.var for inv in node.cont_branches for a in inv.atoms if isinstance(a, LinCmp) or isinstance(a.term, Num))
        elif isinstance(node, Call):
            read.update(arg for i, arg in enumerate(node.args) if (node.name, len(node.args), i) in positions)
    return read - full


def static_diagnostics(program: Program) -> List[str]:
    """Continuous-variable sanity: every variable read or kept must be
    initialized (a parameter by each caller's argument), every name a
    ``change`` value or flow reads must be one something binds, and no guard
    may equate a continuous variable with a non-number."""
    # a parameter its declaration reads and never sets: each call's argument is read there
    positions = position_fixpoint(program.declarations, _unset_reads)
    initialized: set = set()
    reads: set = set()
    mentioned: set = set()  # names in a tell or a guard: what can bind a change value
    change_reads = []  # (name, process)
    issues = []
    processes = [(decl.name, decl.params, decl.body) for decl in program.declarations]
    if not isinstance(program.initial, Call):
        processes.append(("the initial agent", (), program.initial))
    for process, params, root in processes:
        # guards are read as they run, scopes opened, so a bound name a change keeps is continuous
        body = open_scopes(root, program.continuous, {})
        continuous = continuous_names(body, program.continuous)
        for agent in (a for a in nodes(body) if isinstance(a, (Choice, Now))):
            for guard in (p for p in parts(agent) if isinstance(p, Constraint)):
                try:
                    split_guard(guard, continuous)
                except MissingContinuousVariableError as exc:
                    issues.append(str(exc))
        reads |= _unset_reads(root, positions) - set(params)
        for agent in nodes(root):
            mentioned.update(*(p.variables() for p in parts(agent) if isinstance(p, Constraint)))
            if isinstance(agent, Change):
                if agent.value is not KEEP and agent.flow is not KEEP:
                    initialized.add(agent.var)
                values = {agent.value} if isinstance(agent.value, str) else set()
                if isinstance(agent.flow, FlowSpec):
                    values |= agent.flow.expr.variables() - {agent.flow.var}
                change_reads += [(x, process) for x in sorted(values - set(params))]
    for var in sorted(reads - initialized):
        issues.append(f"uninitialized continuous variable {var}: read or kept before any change({var}, value, flow)")
    for var, process in change_reads:
        if var not in mentioned:
            issues.append(f"unbound change value {var} in {process}: no tell or guard mentions it")
    return issues


def cmd_run(args) -> int:
    budget = os.environ.get("HYTCCP_DIVERGENCE_BUDGET", str(DEFAULT_DIVERGENCE_BUDGET))
    if not budget.isdigit():
        print(f"error: HYTCCP_DIVERGENCE_BUDGET is not a non-negative integer: {budget!r}", file=sys.stderr)
        return 1
    program = _read_model(args.input)
    options = RunOptions(
        max_time=args.max_time,
        max_discrete_steps=args.max_steps,
        horizon=args.horizon,
        policy=args.policy,
        seed=args.seed,
        divergence_budget=int(budget),
    )
    trace = run(program, options)
    payload = trace.to_jsonl() if args.format == "jsonl" else trace.to_csv()
    _write(payload, args.out)
    terminal = trace.terminal  # run always ends its trace with one
    print(f"hytccp run: {len(trace.events)} events, terminal={terminal.kind}, clock={terminal.clock}", file=sys.stderr)
    return 2 if terminal.kind in ("timelock", "instant_divergence") else 0


def cmd_explore(args) -> int:
    program = _read_model(args.input)
    report = explore(program, args.depth, args.time_samples)
    _write(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n", args.out)
    print(f"hytccp explore: {len(report.states)} states at depth {args.depth}, complete={report.complete}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    program = _read_model(args.input)
    issues = static_diagnostics(program)
    for issue in issues:
        print(f"error: {issue}", file=sys.stderr)
    if issues:
        return 1
    print(f"hytccp check: {args.input} OK ({len(program.declarations)} declarations)", file=sys.stderr)
    return 0


def cmd_parse(args) -> int:
    program = _read_model(args.input)
    lines = []
    for name, value in program.constants.items():
        lines.append(f"const {name} = {format_rational(value)};")
    for decl in program.declarations:
        params = f"({', '.join(decl.params)})" if decl.params else ""
        lines.append(f"{decl.name}{params} :- {pretty(decl.body)}.")
    lines.append(pretty(program.initial))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad flag: an input error, 1 here
        return 1 if exc.code else 0
    handlers = {"run": cmd_run, "explore": cmd_explore, "check": cmd_check, "parse": cmd_parse}
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {args.input}:{exc}", file=sys.stderr)
        return 1
    except (EvaluationError, UninitializedContinuousVariableError, MissingContinuousVariableError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
