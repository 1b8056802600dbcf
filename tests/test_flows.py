"""Continuous store: closed-form flows, crossing times, earliest-event delays.

The reference integrator here is a plain RK4 with a fixed small step; the
production code never integrates numerically.
"""
import functools
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hytccp import constraints, flows, semantics, simulator
from hytccp.constraints import LinCmp, ModelError
from hytccp.flows import (
    ALWAYS,
    ContinuousStore,
    DELAY_PRIORITY,
    DelayCause,
    EMPTY_INTERVAL,
    EMPTY_STORE,
    Entry,
    Interval,
    UNBOUNDED,
    apply_change,
    atoms_truth_interval,
    evolve,
    intersect,
    max_delay,
    solve_flow,
    truth_interval,
)
from hytccp.parser import parse_program
from hytccp.simulator import RunOptions, run
from hytccp.syntax import Flow, KEEP

from generators import crossing_time, thermostat_source


def rk4(v0: float, f: Flow, t: float, step: float = 1e-4) -> float:
    """Fixed-step RK4 for dx/dt = a + b*x."""
    a, b = float(f.a), float(f.b)
    deriv = lambda x: a + b * x
    x = v0
    n = int(round(t / step))
    h = t / n if n else t
    for _ in range(n):
        k1 = deriv(x)
        k2 = deriv(x + h / 2 * k1)
        k3 = deriv(x + h / 2 * k2)
        k4 = deriv(x + h * k3)
        x += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


# --- solve_flow


def test_linear_flow_is_exact_rational():
    f = Flow(Fraction(1, 3), Fraction(0))
    out = solve_flow(Fraction(1, 2), f, Fraction(9))
    assert isinstance(out, Fraction) and out == Fraction(7, 2)


def test_exponential_flow_known_value():
    # dx/dt = 2x, x(0)=1 -> x(1) = e^2
    out = solve_flow(Fraction(1), Flow(Fraction(0), Fraction(2)), Fraction(1))
    assert math.isclose(out, math.exp(2), rel_tol=1e-9)
    assert math.isclose(out, rk4(1.0, Flow(Fraction(0), Fraction(2)), 1.0), rel_tol=1e-6)


def test_solve_flow_matches_rk4_on_random_affine_flows():
    rng = random.Random(7)
    for _ in range(40):
        f = Flow(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-3, 3)) or Fraction(1))
        v0 = Fraction(rng.randint(-10, 10))
        t = rng.uniform(0.1, 2.0)
        got = solve_flow(v0, f, t)
        want = rk4(float(v0), f, t)
        assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-9)


def test_solve_flow_semigroup():
    f = Flow(Fraction(3), Fraction(-1))
    direct = solve_flow(Fraction(10), f, 1.5)
    stepped = solve_flow(solve_flow(Fraction(10), f, 0.7), f, 0.8)
    assert math.isclose(direct, stepped, rel_tol=1e-12)


def test_flow_floats_take_no_part_in_equality_hashing_or_printing():
    flow, twin = Flow(Fraction(100, 130), Fraction(-1, 130)), Flow(Fraction(100, 130), Fraction(-1, 130))
    before = (flow == twin, twin == flow, hash(flow), str(flow), repr(flow))
    assert solve_flow(20.0, flow, 1.0) == solve_flow(20.0, twin, 1.0)
    assert (flow.float_a, flow.float_b, flow.shift) == (100 / 130, -1 / 130, (100 / 130) / (-1 / 130))
    assert (flow == twin, twin == flow, hash(flow), str(flow), repr(flow)) == before
    assert before[:3] == (True, True, hash(twin))


def test_a_warm_exponential_flow_solves_without_rational_comparisons(monkeypatch):
    # whether the rate is constant is decided once per flow, not once per solve
    flow = Flow(Fraction(100, 150), Fraction(-1, 150))
    solve_flow(19.0, flow, 3.0)
    calls = 0
    fraction_eq = Fraction.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return fraction_eq(self, other)

    monkeypatch.setattr(Fraction, "__eq__", counting_eq)
    solve_flow(19.0, flow, 5.0)
    assert calls == 0


def test_a_bisection_evaluates_each_point_once(monkeypatch):
    # an analytic time 1e-7 off the hit makes _refine_hit bisect: two solves
    # bracket the hit in a window 2e-6 wide, then one per halving down to 1e-12
    flow = Flow(Fraction(100, 150), Fraction(-1, 150))
    t = math.log((22.0 + flow.shift) / (19.0 + flow.shift)) / flow.float_b
    points = []

    def recording_solve_flow(v0, f, s):
        points.append(s)
        return solve_flow(v0, f, s)

    monkeypatch.setattr(flows, "solve_flow", recording_solve_flow)
    hit = flows._refine_hit(19.0, flow, 22.0, t + 1e-7)
    assert abs(hit - t) < 1e-9
    assert len(points) == 2 + 21 and len(set(points)) == len(points)


def test_solve_flow_rejects_negative_duration():
    with pytest.raises(ValueError):
        solve_flow(Fraction(0), Flow(Fraction(1), Fraction(0)), Fraction(-1))


# --- store plumbing


def test_apply_change_and_keep():
    store = apply_change(EMPTY_STORE, "T", Fraction(0), Flow(Fraction(1), Fraction(0)))
    store = apply_change(store, "T", KEEP, Flow(Fraction(2), Fraction(0)))
    entry = store.entries["T"]
    assert entry.value == 0 and entry.flow.a == 2


def test_apply_change_keep_requires_existing_entry():
    with pytest.raises(ModelError):
        apply_change(EMPTY_STORE, "T", KEEP, Flow(Fraction(1), Fraction(0)))


def test_an_exponential_flow_beyond_the_float_range_is_a_model_error():
    store = apply_change(EMPTY_STORE, "X", Fraction(1), Flow(Fraction(0), Fraction(1)))
    with pytest.raises(ModelError, match="beyond the float range"):
        evolve(store, Fraction(3600))
    with pytest.raises(ModelError, match="beyond the float range"):
        max_delay([[[LinCmp("X", "<=", Fraction(10) ** 400)]]], [], store, Fraction(3600))


def test_evolve_moves_every_entry_by_one_shared_duration():
    store = apply_change(EMPTY_STORE, "T", Fraction(0), Flow(Fraction(1), Fraction(0)))
    store = apply_change(store, "V", Fraction(100), Flow(Fraction(-2), Fraction(0)))
    out = evolve(store, Fraction(5))
    assert out.entries["T"].value == 5
    assert out.entries["V"].value == 90
    assert out.entries["T"].flow == store.entries["T"].flow  # flows unchanged


CHANGES = st.lists(
    st.tuples(st.sampled_from("ABCDE"), st.one_of(st.none(), st.integers(-5, 5)), st.integers(-3, 3)), min_size=1, max_size=10
)


@given(CHANGES, st.randoms())
def test_a_store_is_known_by_its_entries_whatever_order_names_arrive_in(changes, rnd):
    # the same changes, each name's in their order, with the names first set in
    # two orders: equal stores, equal hashes, and both printed in name order
    steps = []
    for name, value, rate in changes:
        keep = value is None and any(step[0] == name for step in steps)  # a name's first change sets its value
        steps.append((name, KEEP if keep else Fraction(value or 0), Flow(Fraction(rate), Fraction(0))))
    names = sorted({name for name, _, _ in changes})
    order = rnd.sample(names, len(names))
    grouped = sorted(steps, key=lambda step: order.index(step[0]))  # stable: a name's changes keep their order
    first, second = (functools.reduce(lambda store, step: apply_change(store, *step), seq, EMPTY_STORE) for seq in (steps, grouped))
    assert first == second and hash(first) == hash(second)
    assert first.texts() == second.texts()
    assert [name for name, _, _ in first.texts()] == list(first.entries) == names
    later = evolve(second, Fraction(3))
    assert list(later.entries) == names and later == evolve(first, Fraction(3))


def test_a_store_built_in_another_order_is_equal_and_hashes_equal():
    t, v = Entry(Fraction(1), Flow(Fraction(1), Fraction(0))), Entry(Fraction(2), Flow(Fraction(0), Fraction(0)))
    a, b = ContinuousStore({"T": t, "V": v}), ContinuousStore({"V": v, "T": t})
    assert a == b and hash(a) == hash(b)
    assert a != ContinuousStore({"T": t}) and a != ContinuousStore({"T": v, "V": t})


# --- crossing times and truth intervals


def test_crossing_time_linear_exact():
    f = Flow(Fraction(1), Fraction(0))
    t = crossing_time(Fraction(0), f, LinCmp("T", "=", Fraction(3600)))
    assert isinstance(t, Fraction) and t == 3600


def test_crossing_time_exponential_matches_logarithm():
    # dx/dt = x, x(0)=1 crosses e at t = 1
    f = Flow(Fraction(0), Fraction(1))
    level = Fraction(math.e)
    t = crossing_time(Fraction(1), f, LinCmp("X", ">=", level))
    assert math.isclose(t, math.log(float(level)), rel_tol=1e-9)


def test_crossing_time_random_exponentials_match_logarithm():
    rng = random.Random(11)
    for _ in range(60):
        b = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        a = Fraction(rng.randint(-4, 4))
        v0 = Fraction(rng.randint(1, 10))
        f = Flow(a, b)
        shift = float(a) / float(b)
        equilibrium = -shift
        direction = float(a) + float(b) * float(v0)
        if direction == 0:
            continue
        if b > 0:
            target = float(v0) + math.copysign(abs(float(v0)) * 0.5 + 1.0, direction)
        else:
            # converging flow: only points between v0 and the equilibrium are hit
            target = float(v0) + 0.5 * (equilibrium - float(v0))
        analytic = math.log((target + shift) / (float(v0) + shift)) / float(b)
        op = ">=" if target > float(v0) else "<="
        t = crossing_time(v0, f, LinCmp("X", op, Fraction(target)))
        assert t is not None
        assert math.isclose(t, analytic, rel_tol=1e-9, abs_tol=1e-12)


def test_a_flow_keeps_its_last_crossing_for_its_start_and_level_only():
    # the flow keeps one answer; a new start or a new level must not read it
    f = Flow(Fraction(100, 150), Fraction(-1, 150))
    for v0, level in [(19.0, 22), (19.0, 22), (19.0, 20), (19.5, 20), (Fraction(19), 22), (19.0, 22)]:
        cmp = LinCmp("X", ">=", Fraction(level))
        assert crossing_time(v0, f, cmp) == crossing_time(v0, Flow(f.a, f.b), cmp)
        assert f.last_hit[:2] == (v0, cmp.bound_for(v0))


def test_no_crossing_away_from_level():
    f = Flow(Fraction(-1), Fraction(0))
    assert crossing_time(Fraction(0), f, LinCmp("T", "=", Fraction(10))) is None


def test_truth_interval_shapes():
    up = Flow(Fraction(1), Fraction(0))
    iv = truth_interval(Fraction(0), up, LinCmp("T", "<=", Fraction(10)))
    assert (iv.start, iv.end, iv.end_open) == (0, 10, False)
    iv = truth_interval(Fraction(0), up, LinCmp("T", ">", Fraction(10)))
    assert (iv.start, iv.start_open, iv.end) == (10, True, UNBOUNDED)
    iv = truth_interval(Fraction(0), up, LinCmp("T", "=", Fraction(10)))
    assert (iv.start, iv.end) == (10, 10)
    assert truth_interval(Fraction(0), up, LinCmp("T", "<", Fraction(0))).empty
    # constant trajectory: truth never changes
    still = Flow(Fraction(0), Fraction(0))
    assert truth_interval(Fraction(5), still, LinCmp("T", "<", Fraction(10))) == ALWAYS
    assert truth_interval(Fraction(5), still, LinCmp("T", ">", Fraction(10))).empty


def test_a_level_beyond_the_equilibrium_is_never_hit():
    # dx/dt = 8 - x from 5 rises toward 8 and never reaches 10
    f = Flow(Fraction(8), Fraction(-1))
    assert truth_interval(Fraction(5), f, LinCmp("X", "<=", Fraction(10))) == ALWAYS
    assert truth_interval(Fraction(5), f, LinCmp("X", ">=", Fraction(10))).empty
    assert crossing_time(Fraction(5), f, LinCmp("X", "<=", Fraction(10))) is None


def test_crossing_time_of_a_comparison_true_now_is_where_it_ends():
    assert crossing_time(Fraction(0), Flow(Fraction(1), Fraction(0)), LinCmp("T", "<=", Fraction(10))) == 10


def test_intersect():
    a = Interval(Fraction(0), end=Fraction(10))
    b = Interval(Fraction(4), end=Fraction(20))
    got = intersect(a, b)
    assert (got.start, got.end) == (4, 10)
    assert intersect(ALWAYS, b) is b
    assert intersect(a, Interval(Fraction(10), start_open=True)).empty
    assert not intersect(a, Interval(Fraction(10))).empty


def test_intersect_starts_at_the_later_start_open_on_a_tie():
    closed, opened = Interval(Fraction(0), end=Fraction(9)), Interval(Fraction(0), True, Fraction(9))
    later_closed = Interval(Fraction(4), end=Fraction(9))
    cases = [(closed, opened, (0, True)), (later_closed, opened, (4, False))]
    for a, b, start in cases:
        for got in (intersect(a, b), intersect(b, a)):
            assert (got.start, got.start_open) == start


def _store(**entries):
    store = EMPTY_STORE
    for name, (v, a) in entries.items():
        store = apply_change(store, name, Fraction(v), Flow(Fraction(a), Fraction(0)))
    return store


# --- earliest-event delay


def test_max_delay_guard_beats_invariant_on_tie():
    store = _store(T=(0, 1))
    out = max_delay([[[LinCmp("T", "<=", Fraction(60))]]], [(LinCmp("T", "=", Fraction(60)),)], store, Fraction(100))
    assert out.tau == 60 and out.cause is DelayCause.GUARD_ENABLES


def test_max_delay_invariant_expiry():
    store = _store(T=(0, 1))
    out = max_delay([[[LinCmp("T", "<=", Fraction(60))]]], [], store, Fraction(100))
    assert out.tau == 60 and out.cause is DelayCause.INVARIANT_EXPIRES


def test_max_delay_horizon():
    store = _store(T=(0, 1))
    out = max_delay([[[]]], [], store, Fraction(25))
    assert out.tau == 25 and out.cause is DelayCause.HORIZON


def test_max_delay_timelock_when_no_invariant_holds():
    store = _store(T=(100, 1))
    assert max_delay([[[LinCmp("T", "<=", Fraction(60))]]], [], store, Fraction(100)) is None


def test_max_delay_open_guard_lands_inside_the_interval():
    # guard true on an open interval starting now: step to the midpoint of the
    # open start and the next bound, so the guard is true after the step
    store = _store(V=(1000, -Fraction(1, 9)))
    out = max_delay(
        [[[]]],
        [(LinCmp("V", ">", Fraction(800)), LinCmp("V", "<", Fraction(1000)))],
        store,
        Fraction(3600),
    )
    assert out.cause is DelayCause.GUARD_ENABLES
    assert Fraction(0) < out.tau < Fraction(1800)
    assert 800 < solve_flow(Fraction(1000), Flow(-Fraction(1, 9), Fraction(0)), out.tau) < 1000


def test_max_delay_open_start_witness_takes_the_nearest_ceiling_over_components():
    # T > 10 becomes true strictly after 10; one component's invariant ends
    # at 40, the other's at 20: the nearer one sets the ceiling, 10 + (20 - 10) / 2
    store = _store(T=(0, 1))
    guard = [(LinCmp("T", ">", Fraction(10)),)]
    far, near = [[LinCmp("T", "<=", Fraction(40))]], [[LinCmp("T", "<=", Fraction(20))]]
    for components in ([far, near], [near, far]):
        out = max_delay(components, guard, store, Fraction(100))
        assert (out.tau, out.cause) == (15, DelayCause.GUARD_ENABLES)
    # the guard's own end is a ceiling too: 10 < T < 14 lands at 12; of two
    # guards that open at one instant, the first listed gives the end
    bounded = (LinCmp("T", ">", Fraction(10)), LinCmp("T", "<", Fraction(14)))
    assert max_delay([far, near], [bounded, guard[0]], store, Fraction(100)).tau == 12
    assert max_delay([far, near], [guard[0], bounded], store, Fraction(100)).tau == 15
    # a component with no later bound of its own leaves the ceiling to the
    # others, and the horizon is always one: 10 + (40 - 10) / 2, 10 + (30 - 10) / 2
    out = max_delay([far, [[]]], guard, store, Fraction(100))
    assert (out.tau, out.cause) == (25, DelayCause.GUARD_ENABLES)
    out = max_delay([[[]]], guard, store, Fraction(30))
    assert (out.tau, out.cause) == (20, DelayCause.GUARD_ENABLES)


def test_max_delay_guard_already_true_is_not_watched():
    store = _store(T=(0, 1))
    out = max_delay([[[]]], [(LinCmp("T", ">=", Fraction(0)),)], store, Fraction(10))
    assert out.cause is DelayCause.HORIZON and out.tau == 10


def test_atoms_truth_interval_missing_variable():
    with pytest.raises(KeyError):
        atoms_truth_interval((LinCmp("Nope", "<", Fraction(1)),), EMPTY_STORE.entries)


# --- the all-component max_delay against the per-component fold it replaced


def reference_component_delay(invariants, guards, store, horizon):
    """One ask~ component resolved on its own: max_delay before components were folded in."""
    entries = store.entries
    inv_bound, inv_unbounded, any_true = None, False, False
    for atoms in invariants:
        iv = atoms_truth_interval(tuple(atoms), entries)
        if iv.empty or iv.start > 0 or (iv.start == 0 and iv.start_open):
            continue
        any_true = True
        if iv.end is UNBOUNDED:
            inv_unbounded = True
        elif inv_bound is None or iv.end > inv_bound:
            inv_bound = iv.end
    if not any_true:
        return None
    candidates = []
    for atoms in guards:
        iv = atoms_truth_interval(atoms, entries)
        if not iv.empty and not (iv.start == 0 and not iv.start_open):
            candidates.append((iv.start, iv.start_open, iv.end))
    candidates.sort(key=lambda c: (c[0], c[1]))
    bounds, guard_end = [], UNBOUNDED
    if candidates:
        t, is_open, guard_end = candidates[0]
        bounds.append((t, DelayCause.GUARD_ENABLES, is_open))
    if inv_bound is not None and not inv_unbounded:
        bounds.append((inv_bound, DelayCause.INVARIANT_EXPIRES, False))
    if horizon is not None:
        bounds.append((horizon, DelayCause.HORIZON, False))
    if not bounds:
        return None
    bounds.sort(key=lambda b: (b[0], b[2], DELAY_PRIORITY[b[1]]))
    tau, cause, is_open = bounds[0]
    if is_open:
        later = [b[0] for b in bounds[1:] if b[0] > tau]
        if guard_end is not UNBOUNDED and guard_end > tau:
            later.append(guard_end)
        ceiling = min(later) if later else tau + 1
        tau = tau + (ceiling - tau) / 2
    if tau <= 0:
        return None
    return tau, cause


def reference_delay(components, guards, store, horizon):
    """compute_delay's fold: any timelock (None) wins, then the smallest tau, then DELAY_PRIORITY."""
    best = None
    for invariants in components:
        resolved = reference_component_delay(invariants, guards, store, horizon)
        if resolved is None:
            return None
        tau, cause = resolved
        if best is None or tau < best[0] or (tau == best[0] and DELAY_PRIORITY[cause] < DELAY_PRIORITY[best[1]]):
            best = (tau, cause)
    return best


OPS = ["<", "<=", ">", ">=", "=", "!="]


@st.composite
def delay_problems(draw):
    """A linear store on X and Y, 1-4 components, 0-4 watched guards and a horizon.

    Levels sit a few units from the current values and rates are -1, 0, 1/2
    or 1, so bounds often fall at one instant; invariant levels lie on the
    side that makes most invariants true now.  A horizon of 1000 lies beyond
    every level, so in some draws nothing else bounds time.
    """
    values = {name: Fraction(draw(st.integers(0, 4))) for name in "XY"}
    store = EMPTY_STORE
    for name, v in values.items():
        rate = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(0)]))
        store = apply_change(store, name, v, Flow(rate, Fraction(0)))

    def atoms(invariant):
        out = []
        for _ in range(draw(st.integers(0 if invariant else 1, 2))):
            var, op = draw(st.sampled_from("XXY")), draw(st.sampled_from(OPS))
            # an invariant's level lies on the side that holds now; at 0 it expires now
            offset = draw(st.sampled_from([1, 2, 3, 0]) if invariant else st.integers(-2, 2))
            if invariant and op in (">", ">="):
                offset = -offset
            out.append(LinCmp(var, op, values[var] + offset))
        return tuple(out)

    components = [[atoms(True) for _ in range(draw(st.integers(1, 3)))] for _ in range(draw(st.integers(1, 4)))]
    guards = [atoms(False) for _ in range(draw(st.integers(0, 4)))]
    horizon = draw(st.sampled_from([Fraction(3), Fraction(5), Fraction(1000), Fraction(1)]))
    return components, guards, store, horizon


@settings(max_examples=600)
@given(delay_problems())
def test_max_delay_matches_the_per_component_fold(problem):
    out = max_delay(*problem)
    assert (None if out is None else (out.tau, out.cause)) == reference_delay(*problem)


# --- operation count: one truth interval per invariant and per watched guard


def thermostats(n):
    lines = [
        "heat(X) :- ask~(X =< 22) + ask(X >= 22) -> (change(X, _, der(X) = 0 - X/130) || cool(X)).",
        "cool(X) :- ask~(X >= 18) + ask(X =< 18) -> (change(X, _, der(X) = 100/130 - X/130) || heat(X)).",
    ]
    starts = " || ".join(f"change(X{i}, {180 + 7 * i}/10, der(X{i}) = 100/130 - X{i}/130) || heat(X{i})" for i in range(n))
    names = ", ".join(f"X{i}" for i in range(n))
    return parse_program("\n".join(lines) + f"\ninit :- exists {names} ({starts}).\n")


@pytest.mark.parametrize("n", [2, 6])
def test_truth_intervals_per_delay_are_components_plus_watched_guards(n, monkeypatch):
    # every thermostat is one ask~ component with one invariant atom and one
    # watched guard atom; the per-component fold evaluated n * (1 + n) of them
    count = 0

    def counting_truth_interval(v0, f, cmp):
        nonlocal count
        count += 1
        return truth_interval(v0, f, cmp)

    per_delay = []

    def counting_compute_delay(cfg, program, horizon):
        before = count
        result = compute_delay(cfg, program, horizon)
        per_delay.append(count - before)
        return result

    compute_delay = semantics.compute_delay
    for module in (flows, semantics, simulator):
        if getattr(module, "truth_interval", None) is truth_interval:
            monkeypatch.setattr(module, "truth_interval", counting_truth_interval)
    monkeypatch.setattr(simulator, "compute_delay", counting_compute_delay)
    trace = run(thermostats(n), RunOptions(max_time=Fraction(300)))
    assert trace.terminal.kind == "max_time"
    assert len(per_delay) > n and per_delay == [2 * n] * len(per_delay)


@pytest.mark.parametrize("n", [2, 6])
def test_a_level_shared_by_invariant_and_guard_is_solved_once_per_delay(n, monkeypatch):
    # heat waits on X =< 22 until X >= 22, cool on X >= 18 until X =< 18: each
    # thermostat's one exponential crossing serves its invariant and its guard
    solves = 0

    def counting_refine_hit(*args):
        nonlocal solves
        solves += 1
        return refine_hit(*args)

    per_delay = []

    def counting_compute_delay(cfg, program, horizon):
        before = solves
        result = compute_delay(cfg, program, horizon)
        per_delay.append(solves - before)
        return result

    refine_hit, compute_delay = flows._refine_hit, semantics.compute_delay
    monkeypatch.setattr(flows, "_refine_hit", counting_refine_hit)
    monkeypatch.setattr(simulator, "compute_delay", counting_compute_delay)
    trace = run(thermostats(n), RunOptions(max_time=Fraction(300)))
    assert trace.terminal.kind == "max_time"
    assert len(per_delay) > n and per_delay == [n] * len(per_delay)


def test_exact_float_calls_do_not_grow_with_the_horizon(monkeypatch):
    # a call reuses its body's instance, so each LinCmp keeps its float for the
    # whole run; fresh parses, since a declaration keeps its instances
    calls = 0

    def counting_exact_float(bound):
        nonlocal calls
        calls += 1
        return exact_float(bound)

    exact_float = constraints._exact_float
    monkeypatch.setattr(constraints, "_exact_float", counting_exact_float)
    counts = []
    for max_time in (750, 1500):
        before = calls
        trace = run(parse_program(thermostat_source(1)), RunOptions(max_time=Fraction(max_time), seed=1))
        assert trace.terminal.kind == "max_time"
        counts.append(calls - before)
    assert 0 < counts[0] == counts[1]


def test_exponential_run_compares_floats_without_rational_round_trips(monkeypatch):
    # a float compared against a Fraction goes through Fraction.from_float;
    # bounds 18 and 22 are exact floats, so guards, invariants and truth
    # intervals compare in floats (comparing against the Fractions made about
    # 20 calls per step on this model)
    from_float = Fraction.from_float.__func__
    calls = steps = 0

    def counting_from_float(cls, f):
        nonlocal calls
        calls += 1
        return from_float(cls, f)

    def counting_continuous_step(cfg, tau):
        nonlocal steps
        steps += 1
        return continuous_step(cfg, tau)

    continuous_step = simulator.continuous_step
    monkeypatch.setattr(Fraction, "from_float", classmethod(counting_from_float))
    monkeypatch.setattr(simulator, "continuous_step", counting_continuous_step)
    trace = run(thermostats(2), RunOptions(max_time=Fraction(1500)))
    assert trace.terminal.kind == "max_time"
    assert steps > 100 and calls <= 4 * steps


def test_run_meets_the_horizon_without_rational_round_trips(monkeypatch):
    # the float clock meets max_time in floats (750 and 1500 are exact floats), so the
    # Fraction.from_float calls do not grow with the number of steps
    from_float = Fraction.from_float.__func__
    calls = 0

    def counting_from_float(cls, f):
        nonlocal calls
        calls += 1
        return from_float(cls, f)

    monkeypatch.setattr(Fraction, "from_float", classmethod(counting_from_float))
    counts = []
    for max_time in (750, 1500):
        before = calls
        trace = run(thermostats(2), RunOptions(max_time=Fraction(max_time)))
        assert trace.terminal.kind == "max_time" and trace.terminal.clock == max_time
        counts.append(calls - before)
    assert counts[0] == counts[1]


def test_parallel_steps_that_tell_nothing_solve_nothing():
    # each parallel step joins both sides' increments into a new frozenset;
    # without atoms, conj returns the store itself and never reaches the cache
    def calls():
        info = constraints._conj_solved.cache_info()
        return info.hits + info.misses

    before = calls()
    trace = run(thermostats(2), RunOptions(max_time=Fraction(1500)))
    assert trace.terminal.kind == "max_time"
    assert calls() == before


# explores the first 300 programs of the benchmark's seed-1 corpus and prints
# how many times the flow solver solved one comparison
COUNT_TRUTH_INTERVALS = """
from pathlib import Path
from generators import bench_workloads
from hytccp import flows
from hytccp.parser import parse_program
from hytccp.simulator import explore

calls = 0
solve = flows.truth_interval

def counted(*args):
    global calls
    calls += 1
    return solve(*args)

flows.truth_interval = counted
job = bench_workloads().corpus_job(Path.cwd(), 1)
for source in job["sources"][:300]:
    explore(parse_program(source), job["depth"], job["time_samples"])
print(calls)
"""


def test_the_guard_work_does_not_depend_on_the_hash_seed():
    # a guard's comparisons reach the solver in the order of their text, so its
    # early exits skip the same solves in every process
    counts = [
        subprocess.run(
            [sys.executable, "-c", COUNT_TRUTH_INTERVALS],
            check=True,
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hashseed, "PYTHONPATH": "src:tests"},
        ).stdout
        for hashseed in ("0", "1")
    ]
    assert counts[0] == counts[1] and int(counts[0]) > 0
