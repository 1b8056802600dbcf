"""Continuous store, one map of names to values and affine flows: evolution, event times.

Constant flows (b = 0, ``Flow.constant_rate``) are solved in exact rational
arithmetic so timer events fire at exact instants; exponential flows (b != 0)
use floating point with a guarded bisection refinement for crossing times.

Comparisons stay exact across the two domains.  A float value meets a
rational bound as a float when the bound's float equals it
(``LinCmp.bound_for``), and as a rational otherwise; a flow's floats are
computed once per ``Flow`` (``float_a``, ``float_b``, ``shift``).
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .constraints import LinCmp, ModelError, Record, compare
from .syntax import Flow, KEEP, Keep

Value = Union[Fraction, float]

UNBOUNDED = None  # infinity marker for delays / interval endpoints

BISECTION_TOL = 1e-12

# the model error an OverflowError in this module becomes where the engine enters it
OUT_OF_RANGE = "a value or bound of an exponential flow is beyond the float range"


def value_json(v: Value) -> Union[str, float]:
    """A value as traces and state keys print it: a rational's text, or a float."""
    return str(v) if isinstance(v, Fraction) else float(v)


class Entry(Record):
    __slots__ = ("value", "flow")

    def __init__(self, value: Value, flow: Flow):
        self.value = value
        self.flow = flow


class ContinuousStore(Record):
    """``entries`` maps each name to its ``Entry``: the store's one form, which steps,
    guards and delays read in place.  The constructor takes that map with its names in
    sorted order, as ``texts`` prints them; ``==`` and the hash ignore the order."""

    __slots__ = ("entries", "_texts")

    def __init__(self, entries: Dict[str, Entry]):
        self.entries = entries

    def __hash__(self) -> int:
        return hash(frozenset(self.entries.items()))

    def texts(self) -> Tuple[Tuple[str, Union[str, float], str], ...]:
        """Each entry as ``(name, value_json(value), flow text)``, built once and kept."""
        try:
            return self._texts
        except AttributeError:
            self._texts = tuple((name, value_json(e.value), e.flow.text) for name, e in self.entries.items())
            return self._texts


EMPTY_STORE = ContinuousStore({})


def apply_change(store: ContinuousStore, x: str, v: Union[Value, Keep], f: Union[Flow, Keep]) -> ContinuousStore:
    """Componentwise update of one variable's (value, flow) entry, in a new store."""
    current = store.entries.get(x)
    if current is None and (v is KEEP or f is KEEP):
        raise ModelError(f"change keeps a component of continuous variable {x}, which has no value yet")
    entries = dict(store.entries)
    entries[x] = Entry(current.value if v is KEEP else v, current.flow if f is KEEP else f)
    # a new name takes its place in name order
    return ContinuousStore(entries if current is not None else dict(sorted(entries.items())))


def solve_flow(v0: Value, f: Flow, t: Value) -> Value:
    """Closed-form solution of dx/dt = a + b*x with x(0) = v0, at time t."""
    if t < 0:
        raise ValueError("negative duration")
    if f.constant_rate:
        return v0 + f.a * t
    return (float(v0) + f.shift) * math.exp(f.float_b * float(t)) - f.shift


def evolve(store: ContinuousStore, t: Value) -> ContinuousStore:
    """Project every entry forward by t; flows are unchanged."""
    if t == 0:
        return store
    try:
        return ContinuousStore(
            {name: Entry(solve_flow(e.value, e.flow, t), e.flow) for name, e in store.entries.items()}
        )
    except OverflowError:
        raise ModelError(OUT_OF_RANGE) from None


# ---------------------------------------------------------------------------
# level hits and truth intervals


def _hit_time(v0: Value, f: Flow, level: Value) -> Optional[Value]:
    """First t >= 0 with x(t) == level, or None.  Exact for b = 0 flows.

    ``level`` is a bound in the domain of ``v0`` (``LinCmp.bound_for``), and the
    trajectory is not constant: ``truth_interval`` answers a constant one itself.
    """
    if v0 == level:
        return Fraction(0) if isinstance(v0, Fraction) else 0.0
    if f.constant_rate:
        t = (Fraction(level) - Fraction(v0)) / f.a if isinstance(v0, Fraction) else (float(level) - v0) / f.float_a
        return t if t >= 0 else None
    # an invariant and a guard often share a level (X =< 22 until X >= 22): the flow
    # keeps its last answer, so one delay solves their crossing once
    last = getattr(f, "last_hit", None)
    if last is None or last[0] != v0 or last[1] != level:
        last = f.last_hit = (v0, level, _exponential_hit(v0, f, float(level)))
    return last[2]


def _exponential_hit(v0: Value, f: Flow, level: float) -> Optional[float]:
    shift = f.shift
    c0 = float(v0) + shift
    if c0 == 0.0:
        return None  # sitting on the equilibrium
    ratio = (level + shift) / c0
    if ratio <= 0.0:
        return None
    t = math.log(ratio) / f.float_b
    if t < -BISECTION_TOL:
        return None
    return _refine_hit(v0, f, level, max(t, 0.0))


def _refine_hit(v0: Value, f: Flow, level: float, t: float) -> float:
    """Bisection polish of an analytic hit time to <= 1e-12 absolute."""
    g = lambda s: solve_flow(float(v0), f, s) - level
    lo, hi = max(t - 1e-6, 0.0), t + 1e-6
    glo, ghi = g(lo), g(hi)
    width = 1e-6
    while glo * ghi > 0 and width < 1.0:
        width *= 4
        lo, hi = max(t - width, 0.0), t + width
        glo, ghi = g(lo), g(hi)
    if glo * ghi > 0:
        return t
    while hi - lo > BISECTION_TOL:
        mid = (lo + hi) / 2
        gmid = g(mid)
        if gmid == 0.0:
            return mid
        if glo * gmid <= 0:
            hi = mid
        else:
            lo, glo = mid, gmid
    return (lo + hi) / 2


def _moving_up(v0: Value, f: Flow) -> int:
    """Sign of the derivative along the (monotone) trajectory at t = 0."""
    d = f.a + f.b * Fraction(v0) if isinstance(v0, Fraction) and isinstance(f.a, Fraction) else f.float_a + f.float_b * float(v0)
    return (d > 0) - (d < 0)


class Interval(Record):
    """Truth interval of a comparison along one trajectory, within [0, inf); empty if ``start`` is None."""

    __slots__ = ("start", "start_open", "end", "end_open")

    def __init__(self, start: Optional[Value], start_open: bool = False, end: Optional[Value] = UNBOUNDED, end_open: bool = False):
        self.start = start
        self.start_open = start_open
        self.end = end
        self.end_open = end_open

    @property
    def empty(self) -> bool:
        return self.start is None


ZERO = Fraction(0)
EMPTY_INTERVAL = Interval(None)
ALWAYS = Interval(ZERO)


def truth_interval(v0: Value, f: Flow, cmp: LinCmp) -> Interval:
    """Where along the trajectory of (v0, f) the comparison holds.

    One-dimensional affine trajectories are monotone, so the truth set within
    [0, inf) is a single interval (possibly a point, possibly empty).
    """
    level = cmp.bound_for(v0)
    now = compare(v0, cmp.op, level)
    direction = _moving_up(v0, f)
    if direction == 0:
        return ALWAYS if now else EMPTY_INTERVAL
    hit = _hit_time(v0, f, level)
    if cmp.op == "=":
        if now:
            return Interval(ZERO, end=ZERO)
        return Interval(hit, end=hit) if hit is not None else EMPTY_INTERVAL
    if cmp.op == "!=":
        if not now:
            return Interval(ZERO, start_open=True)
        if hit is None:
            return ALWAYS
        # true until the hit, and true again right after (monotone: passes once)
        return Interval(ZERO, end=hit, end_open=True) if hit != 0 else Interval(ZERO, start_open=True)
    # order comparisons: the truth set is a half line whose boundary is the hit
    toward = (direction > 0 and cmp.op in (">", ">=")) or (direction < 0 and cmp.op in ("<", "<="))
    closed = cmp.op in ("<=", ">=")
    if now:
        if toward:
            return ALWAYS  # already true and moving deeper into the region
        if hit is None:
            return ALWAYS
        return Interval(ZERO, end=hit, end_open=not closed)
    if not toward:
        return EMPTY_INTERVAL
    if hit is None:
        return EMPTY_INTERVAL
    return Interval(hit, start_open=not closed)


def intersect(a: Interval, b: Interval) -> Interval:
    if a is ALWAYS:
        return b
    if a.empty or b.empty:
        return EMPTY_INTERVAL
    if b.start > a.start or (b.start == a.start and b.start_open):
        start, start_open = b.start, b.start_open
    else:
        start, start_open = a.start, a.start_open
    if a.end is UNBOUNDED:
        end, end_open = b.end, b.end_open
    elif b.end is UNBOUNDED:
        end, end_open = a.end, a.end_open
    elif a.end < b.end or (a.end == b.end and a.end_open):
        end, end_open = a.end, a.end_open
    else:
        end, end_open = b.end, b.end_open
    if end is not UNBOUNDED:
        if start > end or (start == end and (start_open or end_open)):
            return EMPTY_INTERVAL
    return Interval(start, start_open, end, end_open)


def atoms_truth_interval(atoms: Sequence[LinCmp], entries: Dict[str, Entry]) -> Interval:
    """Intersection of the truth intervals of several continuous comparisons.

    ``entries`` is the continuous store's map (``ContinuousStore.entries``),
    which holds every name of ``atoms``: callers split each guard by that map.
    """
    iv = ALWAYS
    for atom in atoms:
        entry = entries[atom.var]
        iv = intersect(iv, truth_interval(entry.value, entry.flow, atom))
        if iv.empty:
            return EMPTY_INTERVAL
    return iv


# ---------------------------------------------------------------------------
# earliest-event delay


class DelayCause(Enum):
    GUARD_ENABLES = "guard"
    INVARIANT_EXPIRES = "invariant"
    HORIZON = "horizon"


# the cause that wins when several bounds fall at the same instant
DELAY_PRIORITY = {DelayCause.GUARD_ENABLES: 0, DelayCause.INVARIANT_EXPIRES: 1, DelayCause.HORIZON: 2}


class DelayOutcome(Record):
    __slots__ = ("tau", "cause")

    def __init__(self, tau: Value, cause: DelayCause):
        self.tau = tau
        self.cause = cause


def max_delay(
    components: Sequence[Sequence[Sequence[LinCmp]]],
    guards: Sequence[Tuple[LinCmp, ...]],
    store: ContinuousStore,
    horizon: Value,
) -> Optional[DelayOutcome]:
    """The earliest-event delay of one quiescent configuration, or None for a timelock.

    ``components`` holds one entry per ask~ component: its invariants, each a
    sequence of continuous comparisons.  ``guards`` are the currently false
    guards worth waiting for.  Time passes up to the first of these bounds:
    the horizon, the earliest instant a guard becomes true, and each
    component's expiry, the latest end over its true invariants (none if one
    never ends).  A component with no true invariant is a timelock.  At one
    instant a closed bound comes first, then the cause with the lower
    ``DELAY_PRIORITY``.  A guard true only strictly after its start lands
    halfway to the nearest later bound or the guard's own end; the horizon
    is always later.  A delay of 0 or less is a timelock.
    """
    try:
        bounds: List[Tuple[Value, bool, DelayCause]] = [(horizon, False, DelayCause.HORIZON)]  # (time, open, cause)
        first_guard = None
        for atoms in guards:
            iv = atoms_truth_interval(atoms, store.entries)
            if iv.empty or (iv.start == 0 and not iv.start_open):
                continue  # never true, or already true: nothing to wait for
            if first_guard is None or (iv.start, iv.start_open) < (first_guard.start, first_guard.start_open):
                first_guard = iv
        if first_guard is not None:
            bounds.append((first_guard.start, first_guard.start_open, DelayCause.GUARD_ENABLES))
        for invariants in components:
            ends = []
            for atoms in invariants:
                iv = atoms_truth_interval(atoms, store.entries)
                if not (iv.empty or iv.start > 0 or iv.start_open):  # true now
                    ends.append(iv.end)
            if not ends:
                return None
            if UNBOUNDED not in ends:
                bounds.append((max(ends), False, DelayCause.INVARIANT_EXPIRES))
        tau, is_open, cause = min(bounds, key=lambda b: (b[0], b[1], DELAY_PRIORITY[b[2]]))
        if is_open:
            ceiling = min(b[0] for b in bounds if b[0] > tau)
            if first_guard.end is not UNBOUNDED and first_guard.end < ceiling:
                ceiling = first_guard.end
            tau = tau + (ceiling - tau) / 2
        return DelayOutcome(tau, cause) if tau > 0 else None
    except OverflowError:
        raise ModelError(OUT_OF_RANGE) from None
