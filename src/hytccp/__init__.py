"""Interpreter and simulator for Hy-tccp: timed concurrent constraint programs
with continuous variables evolving under affine flows."""

from .constraints import (
    TRUE,
    FALSE,
    ModelError,
    TermEq,
    LinCmp,
    Var,
    Atom,
    Num,
    Cons,
    NIL,
    WILDCARD,
    conj,
    entails,
)
from .syntax import (
    Agent,
    AskBranch,
    Call,
    Change,
    Choice,
    Declaration,
    Flow,
    Hide,
    KEEP,
    Now,
    Parallel,
    Program,
    STOP,
    Stop,
    Tell,
    builtin_random,
    pretty,
)
from .parser import ParseError, parse_agent, parse_constraint, parse_program
from .flows import (
    ContinuousStore,
    DelayCause,
    DelayOutcome,
    EMPTY_STORE,
    apply_change,
    evolve,
    max_delay,
    solve_flow,
)
from .semantics import Configuration, continuous_step, discrete_successors, start_configuration
from .simulator import RunOptions, Trace, explore, run

__version__ = "0.1.0"
