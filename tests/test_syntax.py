"""Agent traversal: pre-order nodes, free variables, capture-avoiding substitution."""
import random

from hypothesis import given, strategies as st

from hytccp.parser import parse_agent
from hytccp.syntax import STOP, free_vars, nodes, substitute

from generators import CONT_VARS, DISCRETE_VARS, random_agent

agents = st.builds(
    lambda seed, depth: random_agent(random.Random(seed), depth, CONT_VARS),
    st.integers(0, 10**6),
    st.integers(1, 4),
)


def test_nodes_pre_order():
    assert list(nodes(STOP)) == [STOP]
    agent = parse_agent(
        "tell(X = a) || exists Y (ask(Y = b) -> stop + ask(Y = c) -> (now X = a then stop else p) + ask~(true))"
    )
    kinds = [type(node).__name__ for node in nodes(agent)]
    assert kinds == ["Parallel", "Tell", "Hide", "Choice", "Stop", "Now", "Stop", "Call"]


@given(agents)
def test_substitute_empty_mapping_is_identity(agent):
    assert substitute(agent, {}) is agent


@given(agents, st.data())
def test_substitute_renames_free_occurrences_without_capture(agent, data):
    fv = free_vars(agent)
    x = data.draw(st.sampled_from(sorted(fv | {"Absent"})))
    # y is not free in the agent, but may be bound inside it: capture avoidance
    # must rename that binder, or y would vanish from the free variables
    y = data.draw(st.sampled_from([v for v in DISCRETE_VARS + ["New"] if v not in fv]))
    expected = (fv - {x}) | ({y} if x in fv else set())
    assert free_vars(substitute(agent, {x: y})) == expected
