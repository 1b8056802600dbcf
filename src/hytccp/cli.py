"""Command-line driver: parse, check, run and explore .hyt models.

``check`` opens scopes as ``run`` does, follows each name's roles
(``syntax.uses``) through parameters, and spells names as the model wrote them.

Exit codes: 0 normal termination (all-stop, suspension, max-time/steps),
1 tool, input or model error (a model or --out path that is missing,
unreadable or a directory, a model that is not UTF-8 text, a parse error,
a bad flag or HYTCCP_DIVERGENCE_BUDGET, a ``ModelError``), 2 model
pathology (timelock, instantaneous divergence).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Iterator, List, Optional

from .constraints import ModelError, Num, TermEq, as_written, atom_vars, constraint_vars, format_rational, fresh_var
from .parser import ParseError, parse_program
from .semantics import guard_fault, open_scopes
from .simulator import DEFAULT_DIVERGENCE_BUDGET, RunOptions, explore, run
from .syntax import GUARD, INVARIANT, KEPT, READ, SET, TELL, Declaration, Program, position_fixpoint, pretty, rename_atoms, uses


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
    defaults = RunOptions()
    p_run.add_argument("--seed", type=int, default=defaults.seed)
    p_run.add_argument("--policy", choices=["first", "random"], default=defaults.policy)
    p_run.add_argument("--max-time", type=_number(Fraction, lambda t: t >= 0, "a non-negative rational"), default=defaults.max_time)
    p_run.add_argument("--max-steps", type=_count, default=defaults.max_discrete_steps)
    p_run.add_argument("--horizon", type=_number(Fraction, lambda t: t > 0, "a positive rational"), default=defaults.horizon)
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
    # a byte that is not UTF-8 reads as a lone surrogate, and is the error's location
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    if bad := re.search("[\udc80-\udcff]", text):
        raise ParseError.at(text, bad.start(), "not UTF-8 text")
    return parse_program(text)


def _write(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _roles(body) -> Iterator[tuple]:
    """The ``uses`` of an opened body, a tell or a guard read as its names.

    A name a guard atom equates with a non-number also has, as a role, the
    ``_guard_fault`` of that atom, which words the error for the name passed in its place.
    """
    for item, role in uses(body):
        if isinstance(item, str):
            yield item, role
            continue
        yield from ((x, role) for x in constraint_vars(item))
        if role is GUARD:
            for atom in item:
                if isinstance(atom, TermEq) and not isinstance(atom.term, Num):
                    yield from ((x, partial(_guard_fault, atom, x)) for x in atom_vars(atom))


def _guard_fault(atom: TermEq, name: str, x: str) -> str:
    """``run``'s error for a guard ``atom`` on continuous ``x``, passed in place of ``name``."""
    return guard_fault(*rename_atoms(frozenset({atom}), {name: x}), x)  # the one atom, renamed


def static_diagnostics(program: Program) -> List[str]:
    """Continuous-variable sanity, read from one program-wide table of each name's roles.

    Declaration bodies (parameters renamed to generated names) and the initial
    agent are opened as ``run`` opens them.  A name has its ``_roles`` and, at
    each call, those of the parameter it is passed to.  A name read in ``ask~``
    or kept must be fully set, a continuous one must not be equated in a guard
    with a non-number, and a ``change`` must read only names a tell or a guard
    mentions.
    """
    opened = []
    for d in program.declarations:
        params = tuple(map(fresh_var, d.params))  # so a scope's kept continuous name is not a parameter
        opened.append(Declaration(d.name, params, open_scopes(d.body, program.continuous, dict(zip(d.params, params)))))
    positions = position_fixpoint(opened, _roles)
    initial = Declaration("the initial agent", (), open_scopes(program.initial, program.continuous, {}))
    table: dict = {}  # name -> its roles, directly and through positions
    reader: dict = {}  # name -> the first process whose change reads it
    for d in (*opened, initial):
        for name, role in _roles(d.body):
            if name not in d.params:
                found = positions.get(role, ()) if isinstance(role, tuple) else (role,)
                table.setdefault(name, set()).update(found)
                if READ in found:
                    reader.setdefault(name, d.name)
    issues = set()
    for x, roles in table.items():
        name = as_written(x)
        if SET in roles or KEPT in roles:
            issues.update(as_written(role(x)) for role in roles if isinstance(role, partial))
        if (INVARIANT in roles or KEPT in roles) and SET not in roles:
            issues.add(f"uninitialized continuous variable {name}: read or kept before any change({name}, value, flow)")
        if READ in roles and TELL not in roles and GUARD not in roles:
            issues.add(f"unbound change value {name} in {reader[x]}: no tell or guard mentions it")
    return sorted(issues)


def cmd_run(args, program: Program) -> int:
    budget = os.environ.get("HYTCCP_DIVERGENCE_BUDGET", str(DEFAULT_DIVERGENCE_BUDGET))
    if not budget.isdigit():
        print(f"error: HYTCCP_DIVERGENCE_BUDGET is not a non-negative integer: {budget!r}", file=sys.stderr)
        return 1
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


def cmd_explore(args, program: Program) -> int:
    report = explore(program, args.depth, args.time_samples)
    _write(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n", args.out)
    print(f"hytccp explore: {len(report.states)} states at depth {args.depth}, complete={report.complete}", file=sys.stderr)
    return 0


def cmd_check(args, program: Program) -> int:
    issues = static_diagnostics(program)
    for issue in issues:
        print(f"error: {issue}", file=sys.stderr)
    if issues:
        return 1
    print(f"hytccp check: {args.input} OK ({len(program.declarations)} declarations)", file=sys.stderr)
    return 0


def cmd_parse(args, program: Program) -> int:
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
        program = _read_model(args.input)
        if vars(args).get("out"):  # a bad --out fails before the work; "a" leaves the file as it was
            open(args.out, "a", encoding="utf-8").close()
        return handlers[args.command](args, program)
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {args.input}:{exc}", file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"error: {args.input}: {as_written(str(exc))}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
