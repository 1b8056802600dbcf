"""The dam over long horizons: per-period cost and behaviour must not drift with time."""
from fractions import Fraction

import pytest

from hytccp import constraints, semantics, simulator
from hytccp.parser import parse_program
from hytccp.simulator import ContinuousEvent, DiscreteEvent, RunOptions, run
from hytccp.syntax import Hide, children, nodes

PERIOD = 3600


@pytest.fixture(scope="module")
def dam():
    with open("models/dam.hyt") as fh:
        text = fh.read()
    return parse_program(text)


def per_period(dam, hours, monkeypatch, count):
    """How far ``count()`` moves in each simulated period of one dam run.

    A probe on ``continuous_step`` notes the count at the end of each period;
    period k holds the discrete steps at (k-1)*3600 and the time that follows
    them.  The caller's patches are undone when the run ends.
    """
    marks = {}

    def probe(cfg, tau):
        nxt = continuous_step(cfg, tau)
        if nxt.clock % PERIOD == 0:
            marks[int(nxt.clock) // PERIOD] = count()
        return nxt

    continuous_step = simulator.continuous_step
    monkeypatch.setattr(simulator, "continuous_step", probe)
    start = count()
    run(dam, RunOptions(max_time=Fraction(hours * PERIOD)))
    monkeypatch.undo()
    assert sorted(marks) == list(range(1, hours + 1))
    return [marks[k] - marks.get(k - 1, start) for k in range(1, hours + 1)]


def conj_calls_per_period(dam, hours, monkeypatch):
    """``conj`` calls made in each simulated period of one dam run.

    ``conj`` is replaced in every module that bound the name.
    """
    calls = 0

    def counting_conj(c, d):
        nonlocal calls
        calls += 1
        return constraints.conj(c, d)

    for module in (semantics, simulator):
        if getattr(module, "conj", None) is constraints.conj:
            monkeypatch.setattr(module, "conj", counting_conj)
    return per_period(dam, hours, monkeypatch, lambda: calls)


def test_conj_calls_per_period_do_not_grow_with_the_horizon(dam, monkeypatch):
    # counts, not times: deterministic for a fixed seed
    to_12h = conj_calls_per_period(dam, 12, monkeypatch)
    to_24h = conj_calls_per_period(dam, 24, monkeypatch)
    assert to_24h[:12] == to_12h
    hours_7_12 = sum(to_12h[6:12]) / 6
    hours_13_24 = sum(to_24h[12:24]) / 12
    assert hours_13_24 == hours_7_12, (to_12h, to_24h)


def test_cons_cells_per_period_do_not_grow_with_the_horizon(dam, monkeypatch):
    # a store that rebuilt its streams on each tell would build more cells
    # every period, as the streams grow by one cell a period
    cells = 0
    cons_init = constraints.Cons.__init__

    def counting_init(self, head, tail):
        nonlocal cells
        cells += 1
        cons_init(self, head, tail)

    monkeypatch.setattr(constraints.Cons, "__init__", counting_init)
    to_24h = per_period(dam, 24, monkeypatch, lambda: cells)
    assert len(set(to_24h[6:])) == 1, to_24h


def agent_shape(agent):
    """Node count and nesting depth of an agent."""
    count = depth = 0
    todo = [(agent, 1)]
    while todo:
        node, level = todo.pop()
        count += 1
        depth = max(depth, level)
        todo.extend((kid, level + 1) for kid in children(node))
    return count, depth


def test_dam_48h(dam, monkeypatch):
    shapes = {}
    continuous_step = simulator.continuous_step

    def probe(cfg, tau):
        nxt = continuous_step(cfg, tau)
        if nxt.clock % PERIOD == 0:
            shapes[int(nxt.clock) // PERIOD] = agent_shape(nxt.agent)
            assert not any(isinstance(node, Hide) for node in nodes(nxt.agent)), nxt.clock
        return nxt

    monkeypatch.setattr(simulator, "continuous_step", probe)
    trace = run(dam, RunOptions(max_time=Fraction(48 * PERIOD)))
    assert trace.terminal.kind == "max_time" and trace.terminal.clock == 48 * PERIOD
    resets = [ev.clock for ev in trace.events if isinstance(ev, DiscreteEvent) and any(c[0] == "T" for c in ev.changes)]
    assert resets == [k * PERIOD for k in range(49)]
    steps = [ev for ev in trace.events if isinstance(ev, ContinuousEvent)]
    assert {name for ev in steps for name in ev.after} == {"T", "Vol"}
    for ev in steps:
        for values in (ev.before, ev.after):
            assert 0 <= Fraction(values["Vol"]["v"]) <= 1000, ev
    # nothing grows per period: stopped components are dropped and no scope
    # is left at run time, so the agent and the choice sites of every hour match hour 7
    sites = {}
    for ev in trace.events:
        if isinstance(ev, DiscreteEvent):
            hour = int(ev.clock) // PERIOD
            sites[hour] = max([sites.get(hour, 0)] + [len(c.site) for c in ev.choices])
    assert sorted(shapes) == list(range(1, 49))
    for hour in range(7, 49):
        assert (shapes[hour], sites[hour]) == (shapes[7], sites[7]), hour
