"""Seeded inputs and correctness checks for the benchmark workloads.

The generators here are the benchmark's own: they emit `.hyt` source text
from a seed, so the workloads stay fixed when the test-suite generators
change.  The checks are derived from what each model means (timer period,
volume limits, thermostat band, engine/oracle agreement), never from a
stored trace digest.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# dam_24h: models/dam.hyt run to 24 simulated hours

DAM_MODEL = Path("models") / "dam.hyt"
DAM_PERIOD = 3600
DAM_HOURS = 24
DAM_MAX_VOLUME = 1000
# The model's random() draws (the hourly inflows) come from this seed, the
# default of `hytccp run`, whatever the benchmark's seed: the draws alone
# moved wall_s by 15 % between benchmark seeds (405 against 410, the same on
# every repetition), too much for a regression bound to absorb.
DAM_RUN_SEED = 0


def dam_job(root: Path, seed: int) -> dict:
    return {
        "kind": "run",
        "sources": [(root / DAM_MODEL).read_text()],
        "max_time": DAM_PERIOD * DAM_HOURS,
        "run_seed": DAM_RUN_SEED,
        "period": DAM_PERIOD,
    }


def check_dam(events: list) -> list:
    """Timer resets exactly once per period, volume stays in [0, 1000]."""
    errors = []
    horizon = DAM_PERIOD * DAM_HOURS
    resets = []
    for ev in events:
        if ev["kind"] == "discrete":
            for var, value, flow in ev["changes"]:
                if var == "T":
                    if value != "0" or flow != "1+0*x":
                        errors.append(f"timer reset to {value} with flow {flow} at t={ev['t']}")
                    resets.append(ev["t"])
        elif ev["kind"] == "continuous":
            for snapshot in (ev["vars_before"], ev["vars"]):
                vol = Fraction(snapshot["Vol"]["v"])
                if not 0 <= vol <= DAM_MAX_VOLUME:
                    errors.append(f"volume {vol} outside [0, {DAM_MAX_VOLUME}] at t={ev['t']}")
                if Fraction(snapshot["T"]["v"]) > DAM_PERIOD:
                    errors.append(f"timer passed its period at t={ev['t']}")
    expected = [str(k * DAM_PERIOD) for k in range(DAM_HOURS + 1)]
    if resets != expected:
        errors.append(f"timer resets at {resets[:6]}..., expected exactly at k*{DAM_PERIOD}")
    errors += _check_terminal(events, horizon)
    return errors


def _check_terminal(events: list, horizon: int) -> list:
    last = events[-1]
    if last["kind"] != "terminal" or last["cause"] != "max_time" or Fraction(last["t"]) != horizon:
        return [f"terminal event {last}, expected max_time at {horizon}"]
    return []


# ---------------------------------------------------------------------------
# thermostats: independent exponential-flow thermostats, no tell, no exists
# in the recursion; the discrete store stays `true`

THERMO_LO = 18
THERMO_HI = 22
THERMO_HORIZON = 1500
THERMO_PERIOD = 30
# time constants are a fixed multiset dealt out by the seed, so every seed
# gives the same amount of switching work
THERMO_TAUS = (130, 138, 146, 154, 162, 170)
BAND_TOLERANCE = 1e-9


def thermostat_source(seed: int) -> str:
    rng = random.Random(seed)
    taus = list(THERMO_TAUS)
    rng.shuffle(taus)
    lines = [
        "% Generated benchmark model: independent thermostats with exponential flows.",
        f"const LO = {THERMO_LO};",
        f"const HI = {THERMO_HI};",
    ]
    starts = []
    for i, k in enumerate(taus):
        lines.append(f"heat{i}(X) :- ask~(X =< HI) + ask(X >= HI) -> (change(X, _, der(X) = 0 - X/{k}) || cool{i}(X)).")
        lines.append(f"cool{i}(X) :- ask~(X >= LO) + ask(X =< LO) -> (change(X, _, der(X) = 100/{k} - X/{k}) || heat{i}(X)).")
        start = Fraction(rng.randint(THERMO_LO * 100, THERMO_HI * 100), 100)
        starts.append(f"change(X{i}, {start.numerator}/{start.denominator}, der(X{i}) = 100/{k} - X{i}/{k}) || heat{i}(X{i})")
    names = ", ".join(f"X{i}" for i in range(len(taus)))
    lines.append(f"init :- exists {names} (\n    " + "\n || ".join(starts) + "\n).")
    return "\n".join(lines) + "\n"


def thermostats_job(root: Path, seed: int) -> dict:
    return {
        "kind": "run",
        "sources": [thermostat_source(seed)],
        "max_time": THERMO_HORIZON,
        "run_seed": seed,
        "period": THERMO_PERIOD,
    }


def check_thermostats(events: list) -> list:
    """Every temperature stays in [LO, HI]; the run ends at the horizon."""
    errors = []
    for ev in events:
        if ev["kind"] != "continuous":
            continue
        for snapshot in (ev["vars_before"], ev["vars"]):
            for name, entry in snapshot.items():
                v = float(Fraction(entry["v"]))
                if not THERMO_LO - BAND_TOLERANCE <= v <= THERMO_HI + BAND_TOLERANCE:
                    errors.append(f"{name} = {v} outside [{THERMO_LO}, {THERMO_HI}] at t={ev['t']}")
    if not any(ev["kind"] == "discrete" and ev["changes"] for ev in events[1:]):
        errors.append("no thermostat ever switched")
    return errors + _check_terminal(events, THERMO_HORIZON)


# ---------------------------------------------------------------------------
# corpus_explore: bounded random programs, explored exhaustively

CORPUS_SIZE = 1500
CORPUS_SEED = 1  # the program structures every seed shares; see corpus_job
CORPUS_MAX_DEPTH = 5
EXPLORE_DEPTH = 10
EXPLORE_TIME_SAMPLES = 1
ORACLE_SAMPLE = 12

DISCRETE_VARS = ["X", "Y", "Z", "W"]
CONT_VARS = ["Cx", "Cy", "Cz"]
ATOM_NAMES = ["a", "b", "c"]


def _term(rng: random.Random, wildcard_ok: bool) -> str:
    r = rng.random()
    if r < 0.40:
        return rng.choice(ATOM_NAMES)
    if r < 0.70:
        tail = "_" if wildcard_ok and rng.random() < 0.5 else rng.choice(DISCRETE_VARS)
        return f"[{rng.choice(ATOM_NAMES)}|{tail}]"
    if r < 0.85:
        return str(rng.randint(0, 5))
    return rng.choice(DISCRETE_VARS)


# Comparison operators on continuous variables.  `ask` guards get only the
# closed ones: a strict guard that opens at the instant an `ask~` invariant
# expires makes flows.max_delay step past the invariant, a known engine
# defect (bench/README.md, "Known defects") that the oracle check would fail.
# `now` guards are decided at one instant, never waited for, and get all five.
ALL_CMP_OPS = ("<", "=<", ">", ">=", "=")
ASK_CMP_OPS = ("=<", ">=", "=")


def _constraint(rng: random.Random, cont_vars, wildcard_ok: bool, ops=ALL_CMP_OPS) -> str:
    # distinct left-hand variables, so a wildcard is never unified with a term
    lhs = rng.sample(DISCRETE_VARS, 2)
    atoms = []
    for i in range(rng.randint(1, 2)):
        if cont_vars and rng.random() < 0.35:
            op = rng.choice(ops)
            atoms.append(f"{rng.choice(cont_vars)} {op} {rng.randint(0, 8)}")
        else:
            atoms.append(f"{lhs[i]} = {_term(rng, wildcard_ok)}")
    return " /\\ ".join(atoms)


def _change(rng: random.Random, var: str, value: str) -> str:
    # constant slope in [-2, 2] \ {0}: exact linear trajectories
    return f"change({var}, {value}, der({var}) = {rng.choice([-2, -1, 1, 2])})"


def _agent(rng: random.Random, depth: int, cont_vars) -> str:
    if depth <= 0:
        return "stop" if rng.random() < 0.5 else f"tell({_constraint(rng, [], False)})"
    r = rng.random()
    if r < 0.12:
        return "stop"
    if r < 0.32:
        return f"tell({_constraint(rng, [], False)})"
    if r < 0.52:
        parts = [_agent(rng, depth - 1, cont_vars) for _ in range(rng.randint(2, 3))]
        return "(" + " || ".join(parts) + ")"
    if r < 0.74:
        branches = [
            f"ask({_constraint(rng, cont_vars, True, ASK_CMP_OPS)}) -> ({_agent(rng, depth - 1, cont_vars)})"
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.5:
            if cont_vars and rng.random() < 0.7:
                branches.append(f"ask~({rng.choice(cont_vars)} {rng.choice(['=<', '<'])} {rng.randint(1, 10)})")
            else:
                branches.append("ask~(true)")
        return "(" + " + ".join(branches) + ")"
    if r < 0.84:
        guard = _constraint(rng, cont_vars, True)
        return f"(now {guard} then ({_agent(rng, depth - 1, cont_vars)}) else ({_agent(rng, depth - 1, cont_vars)}))"
    if r < 0.94 and cont_vars:
        var = rng.choice(cont_vars)
        return _change(rng, var, "_" if rng.random() < 0.5 else str(rng.randint(0, 5)))
    return f"exists {rng.choice(DISCRETE_VARS)} ({_agent(rng, depth - 1, cont_vars)})"


def corpus_program(rng: random.Random, depth: int, n_cont: int) -> str:
    """One bounded random program of the given depth and continuous variables.

    Every continuous variable is initialised in the first step; the body is
    gated behind ask(Go = go), so no guard reads a continuous variable before
    it exists.
    """
    cont_vars = CONT_VARS[:n_cont]
    body = _agent(rng, depth, cont_vars)
    parts = ["tell(Go = go)"]
    parts += [_change(rng, var, str(rng.randint(0, 5))) for var in cont_vars]
    parts.append(f"ask(Go = go) -> ({body})")
    return " || ".join(parts) + ".\n"


def corpus_job(root: Path, seed: int) -> dict:
    # Every seed explores the same program structures, generated from
    # CORPUS_SEED. Corpora drawn from the run's seed differed in their few
    # heaviest programs, so the seed alone moved item_p99_ms by half and
    # wall_s by a fifth (seed 210 against 208, on every repetition).
    # The run's seed renames the discrete variables, the atoms and the
    # continuous variables (one permutation of each for the whole corpus) and
    # shuffles the programs' order, which changes the inputs but not the work.
    # Depth and continuous-variable count are dealt round-robin.
    base = random.Random(CORPUS_SEED)
    shapes = [(1 + i % CORPUS_MAX_DEPTH, (i // CORPUS_MAX_DEPTH) % (len(CONT_VARS) + 1)) for i in range(CORPUS_SIZE)]
    sources = [corpus_program(base, depth, n_cont) for depth, n_cont in shapes]
    rng = random.Random(seed)
    mapping = {}
    for names in (DISCRETE_VARS, ATOM_NAMES, CONT_VARS):
        mapping.update(zip(names, rng.sample(names, len(names))))
    name = re.compile(r"\b(" + "|".join(mapping) + r")\b")
    rng.shuffle(sources)
    return {
        "kind": "explore",
        "sources": [name.sub(lambda m: mapping[m.group()], source) for source in sources],
        "depth": EXPLORE_DEPTH,
        "time_samples": EXPLORE_TIME_SAMPLES,
        "oracle_sample": ORACLE_SAMPLE,
        "sample_seed": seed,
    }


JOBS = {
    "dam_24h": dam_job,
    "thermostats": thermostats_job,
    "corpus_explore": corpus_job,
}
RUN_CHECKS = {
    "dam_24h": check_dam,
    "thermostats": check_thermostats,
}
