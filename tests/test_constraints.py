"""Constraint system: stores, conjunction, entailment."""
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hytccp.constraints import (
    Atom,
    Cons,
    FALSE,
    LinCmp,
    NIL,
    Num,
    RandomTerm,
    TRUE,
    TermEq,
    Var,
    WILDCARD,
    atom_text_order,
    bound_number,
    compare,
    conj,
    constraint_vars,
    entails,
    format_rational,
)
from hytccp.parser import parse_constraint
from hytccp.syntax import rename_atoms


def solve(atoms):
    """The store of a set of atomic constraints (or FALSE)."""
    return conj(TRUE, frozenset(atoms))


def c(text):
    """The store of ``text``: ``parse_constraint`` keeps a guard's atoms as written."""
    return solve(parse_constraint(text))


def scoped(text, *names):
    """A guard whose ``names`` belong to an opened scope: generated, so placeholders."""
    return rename_atoms(c(text), {x: f"{x}#1" for x in names})


# --- stores


def test_solve_substitution_closure():
    got = c("X = [V|R] /\\ V = 5 /\\ R = []")
    assert got == c("X = [5] /\\ V = 5 /\\ R = []")
    assert str(got) == "R=[] /\\ V=5 /\\ X=[5]"


def test_conj_substitutes_through_bindings():
    got = conj(c("X = [V|R]"), c("V = 5 /\\ R = []"))
    assert got == c("X = [5] /\\ V = 5 /\\ R = []")


def test_solve_clash_is_false():
    assert solve([TermEq("X", Atom("a")), TermEq("X", Atom("b"))]) is FALSE
    assert c("X = 1 /\\ X = 2") is FALSE


def test_solve_occurs_check():
    assert solve([TermEq("X", Cons(Atom("a"), Var("X")))]) is FALSE


def test_solve_var_var_orientation_is_deterministic():
    left = solve([TermEq("A", Var("B"))])
    right = solve([TermEq("B", Var("A"))])
    assert left == right == solve([TermEq("B", Var("A"))])


def test_ground_satisfied_comparison_is_dropped():
    got = c("X = 3 /\\ X < 5")
    assert got == c("X = 3")


def test_ground_false_comparison_is_false():
    assert c("X = 7 /\\ X < 5") is FALSE


def test_comparison_on_non_number_is_false():
    assert c("X = a /\\ X < 5") is FALSE


def test_conj_resolves_a_stored_comparison_once_its_name_is_bound():
    store = c("X =< 3")
    assert conj(store, parse_constraint("X = 2")) == c("X = 2")
    assert conj(store, parse_constraint("X = 5")) is FALSE


def test_wildcard_rejected_outside_guard_matching():
    with pytest.raises(ValueError):
        conj(
            solve([TermEq("X", Cons(Atom("a"), WILDCARD))]),
            solve([TermEq("X", Cons(Atom("a"), Var("Y")))]),
        )


# --- conjunction laws


# stream terms whose heads and tails get bound later, so a store's bindings chain
TERMS = [
    Atom("a"), Atom("b"), Num(Fraction(3)), Var("X"), Var("Y"), Var("Z"),
    Cons(Atom("a"), Var("Z")), Cons(Atom("b"), Var("W")), Cons(Var("Y"), NIL),
]
atoms_st = st.lists(
    st.one_of(
        st.builds(TermEq, st.sampled_from("XYZWU"), st.sampled_from(TERMS)),
        st.builds(
            LinCmp,
            st.sampled_from("UV"),
            st.sampled_from(["<", "<=", ">", ">=", "!="]),
            st.integers(0, 4).map(Fraction),
        ),
    ),
    max_size=4,
)
constraints_st = atoms_st.map(solve)


@given(constraints_st, constraints_st)
def test_conj_commutative(a, b):
    assert conj(a, b) == conj(b, a)


@given(constraints_st, constraints_st, constraints_st)
def test_conj_associative(a, b, d):
    assert conj(conj(a, b), d) == conj(a, conj(b, d))


@given(constraints_st)
def test_conj_idempotent_and_units(a):
    assert conj(a, a) == a
    assert conj(a, TRUE) == a
    assert conj(TRUE, a) == a
    assert conj(a, FALSE) is FALSE


@given(constraints_st, atoms_st)
@example(TRUE, [TermEq("X", Var("Y")), TermEq("Y", Atom("a"))])
@example(c("X = 3"), [TermEq("Y", Var("X")), LinCmp("Y", "<", Fraction(2))])
def test_conj_solves_a_tell_as_written(store, atoms):
    # a tell keeps its atoms as written (no _): conj alone solves them
    assert conj(store, frozenset(atoms)) == conj(store, solve(atoms))


def test_a_store_hashes_and_binds_without_its_solved_form():
    # and prints and compares off the links
    store = conj(c("X = [a|Y]"), parse_constraint("Y = [b|Z] /\\ Z = W"))
    assert hash(store) == hash(c("X = [a, b|W] /\\ Y = [b|W] /\\ Z = W"))
    closed = conj(store, parse_constraint("W = []"))
    assert entails(closed, parse_constraint("X = [a|_] /\\ Z = []"))
    assert str(store) == "X=[a, b|W] /\\ Y=[b|W] /\\ Z=W"
    assert str(closed) == "W=[] /\\ X=[a, b] /\\ Y=[b] /\\ Z=[]"
    # the same bindings told in another order, linked otherwise
    other = conj(c("Z = W /\\ Y = [b|W]"), parse_constraint("X = [a, b|Z]"))
    assert other == store and store == other and hash(other) == hash(store)
    # the same names bound to other terms
    assert c("X = a") != c("X = b")
    assert c("X = [a|Y]") != c("X = [a|Z]")
    # a store is not its atoms as written, not even when neither has an atom
    written = parse_constraint("X = [a, b|W] /\\ Y = [b|W] /\\ Z = W")
    assert store != written and written != store
    assert TRUE != parse_constraint("true") and parse_constraint("true") != TRUE


def test_equations_that_differ_in_a_list_tail_hash_apart():
    # an equation hashes its whole term, so guards like these do not collide
    equations = [next(iter(parse_constraint(f"Z = {t}"))) for t in ("[a|X]", "[a|_]", "[a|W]", "[a]", "[a, b]")]
    assert len(set(map(hash, equations))) == 5



def test_random_terms_differing_in_one_bound_are_unequal():
    # compared directly: a Tell holding them would be told apart by its hash first
    draw = RandomTerm(Fraction(1), Fraction(3))
    assert draw == RandomTerm(Fraction(1), Fraction(3))
    assert draw != RandomTerm(Fraction(2), Fraction(3))
    assert draw != RandomTerm(Fraction(1), Fraction(5))

# told one at a time, Z walks to Y, then on to X, then to a list whose head gets bound
CHAIN = [TermEq("Z", Var("Y")), TermEq("Y", Var("X")), TermEq("X", Cons(Var("W"), NIL)), TermEq("W", Atom("a"))]


def substituted(store):
    """A naive reference for a store's text: its atoms with the bindings
    substituted into them until nothing changes."""

    def sub(t, b):
        if isinstance(t, Cons):
            return Cons(sub(t.head, b), sub(t.tail, b))
        return b.get(t.name, t) if isinstance(t, Var) else t

    atoms, step = None, frozenset(store)
    while step != atoms:
        atoms, b = step, {a.var: a.term for a in step if isinstance(a, TermEq)}
        step = frozenset(TermEq(a.var, sub(a.term, b)) if isinstance(a, TermEq) else a for a in atoms)
    return atoms if store.consistent else FALSE


def printed(c):
    """The text of a store, or of atoms as a store prints them: in ``atom_text_order``."""
    if not isinstance(c, frozenset):
        return str(c)
    return " /\\ ".join(sorted(map(str, c), key=atom_text_order)) or "true"


@settings(max_examples=500)
@given(atoms_st.flatmap(lambda atoms: st.tuples(st.just(atoms), st.permutations(atoms), st.lists(st.integers(0, len(atoms)), max_size=3))))
@example((CHAIN, CHAIN, [1, 2, 3]))
def test_equal_stores_hash_and_print_alike(case):
    # stores built from the same atoms in other orders and splits, by tells
    # as written or by conj of stores, are one store; its atoms as written
    # print alike and name the same variables
    atoms, shuffled, cuts = case
    store = solve(atoms)
    bounds = [0, *sorted(cuts), len(shuffled)]
    pieces = [shuffled[i:j] for i, j in zip(bounds, bounds[1:])]
    by_tells, by_stores = TRUE, TRUE
    for piece in pieces:
        by_tells = conj(by_tells, frozenset(piece))
    for piece in reversed(pieces):
        by_stores = conj(solve(piece), by_stores)
    written = substituted(store)
    for other in (by_tells, by_stores):
        assert other == store and store == other and hash(other) == hash(store)
    for other in (by_tells, by_stores, written):
        assert printed(other) == str(store)
        # the names a store mentions, which decide what is a placeholder
        assert constraint_vars(other) == constraint_vars(written)


# --- entailment


def test_entails_reflexive_examples():
    store = c("X = [a|Y] /\\ Y = [b]")
    assert entails(store, store)
    assert entails(store, c("X = [a, b]"))


def test_entails_stream_match_with_local():
    store = c("In = [7|R]")
    assert entails(store, scoped("In = [N|_]", "N"))
    assert not entails(store, c("In = [N|_]"))
    # an unbound placeholder on the left matches no term
    assert not entails(store, scoped("N = 7", "N"))
    assert not entails(store, c("In = [8|_]"))


@pytest.mark.parametrize(
    "atom", [TermEq("Z#1", Var("A")), TermEq("A", Var("Z#1"))], ids=["generated-left", "generated-right"]
)
def test_entails_reads_a_generated_name_the_store_mentions(atom):
    guard = frozenset({atom})
    # a generated name the store does not mention is a placeholder
    assert entails(c("A = 6"), guard)
    # once the store binds it, it is read like any other name
    assert not entails(solve([TermEq("A", Num(Fraction(6))), TermEq("Z#1", Num(Fraction(5)))]), guard)
    assert entails(solve([TermEq("A", Num(Fraction(6))), TermEq("Z#1", Num(Fraction(6)))]), guard)


def test_entails_local_consistency():
    # the same local must match the same value everywhere
    store = c("X = [a|T] /\\ Y = [b|T]")
    assert not entails(store, scoped("X = [N|_] /\\ Y = [N|_]", "N"))
    store2 = c("X = [a|T] /\\ Y = [a|T]")
    assert entails(store2, scoped("X = [N|_] /\\ Y = [N|_]", "N"))


def test_entails_wildcard_matches_anything():
    assert entails(c("X = [a, b, c]"), c("X = [_|_]"))
    assert not entails(TRUE, c("X = [_|_]"))


def test_entails_comparisons():
    assert entails(c("X = 3"), c("X < 5"))
    assert not entails(c("X = 7"), c("X < 5"))
    # unbound comparison only via an identical store atom
    below5 = frozenset({LinCmp("X", "<", Fraction(5))})
    assert entails(solve(below5), below5)
    assert not entails(solve([LinCmp("X", "<", Fraction(4))]), below5)


def test_false_entails_everything():
    assert entails(FALSE, c("X = a"))
    assert not entails(TRUE, FALSE)


@given(constraints_st)
def test_entails_reflexive(a):
    assert entails(a, a)


@given(constraints_st, constraints_st, constraints_st)
def test_entails_transitive(a, b, d):
    big = conj(conj(a, b), d)
    mid = conj(a, b)
    if entails(big, mid) and entails(mid, a):
        assert entails(big, a)


@given(constraints_st, constraints_st)
def test_conj_is_lower_bound(a, b):
    both = conj(a, b)
    assert entails(both, a)
    assert entails(both, b)


# --- guards as written: the answer does not depend on spelling or atom order


def as_written(*atoms):
    """A guard as the parser keeps it: its atoms, not solved."""
    return frozenset(atoms)


RIGID = ["A", "Z", "_Z"]  # "_Z" sorts after "[", "Z" before it, "A" before a generated name
PLACEHOLDERS = ["P#1", "_Q#2"]  # generated names no store below mentions
VALUES = [Atom("a"), Cons(Atom("a"), Var("T")), Cons(Atom("a"), NIL), None]  # None: unbound
PATTERNS = [Atom("a"), Cons(Atom("a"), WILDCARD), Cons(WILDCARD, NIL), *map(Var, RIGID + PLACEHOLDERS)]

# a small space, so that guard atoms often meet the store and each other
stores_st = st.lists(st.sampled_from(VALUES), min_size=len(RIGID), max_size=len(RIGID)).map(
    lambda values: solve([TermEq(name, v) for name, v in zip(RIGID, values) if v is not None])
)
guard_terms_st = st.sampled_from(PATTERNS) | st.sampled_from(RIGID + PLACEHOLDERS).map(lambda n: Cons(Var(n), WILDCARD))
guards_st = st.lists(st.builds(TermEq, st.sampled_from(RIGID + PLACEHOLDERS), guard_terms_st), min_size=1, max_size=3).map(
    lambda atoms: as_written(*atoms)
)
renamings_st = st.tuples(st.permutations(RIGID), st.permutations(PLACEHOLDERS)).map(
    lambda perms: {**dict(zip(RIGID, perms[0])), **dict(zip(PLACEHOLDERS, perms[1]))}
)


@settings(max_examples=1000)
@given(stores_st, guards_st, renamings_st)
@example(
    solve([TermEq("Z", Cons(Atom("a"), Var("T")))]),
    as_written(TermEq("P#1", Var("Z")), TermEq("P#1", Cons(Atom("a"), WILDCARD))),
    {"Z": "_Z", "_Z": "Z"},
)
def test_entails_ignores_spelling_and_atom_order(store, guard, mapping):
    # a bijective renaming keeps a solved store solved and sends placeholders
    # to placeholders; it changes how the names sort and the atoms' hash order
    assert entails(conj(TRUE, rename_atoms(store, mapping)), rename_atoms(guard, mapping)) == entails(store, guard)


def test_entails_placeholder_takes_its_value_only_from_the_store():
    # nothing in the store reaches P#1, so the guard may not choose its value
    assert not entails(TRUE, as_written(TermEq("P#1", Atom("a"))))
    assert not entails(TRUE, as_written(TermEq("P#1", WILDCARD)))
    # placeholder = placeholder holds, and so does a chain reached from the store
    assert entails(TRUE, as_written(TermEq("P#1", Var("Q#2"))))
    chain = as_written(TermEq("P#1", Var("Q#2")), TermEq("Q#2", Var("X")), TermEq("P#1", Atom("a")))
    assert entails(c("X = a"), chain)
    assert not entails(c("X = b"), chain)
    # a generated name the store mentions but leaves unbound is no placeholder: only _ matches it
    mentions = solve([LinCmp("M#1", "<", Fraction(1))])
    assert entails(mentions, as_written(TermEq("M#1", WILDCARD)))
    assert not entails(mentions, as_written(TermEq("M#1", Atom("a"))))
    assert not entails(mentions, as_written(TermEq("M#1", Cons(WILDCARD, WILDCARD))))


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


# --- comparisons of float values against rational bounds

BOUNDS = [Fraction(1, 3), Fraction(1, 10), Fraction(18), Fraction(-5, 4), Fraction(2**60 + 1)]
CMP_OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def values_near(draw, bound):
    """A float on, next to or far from ``bound``, or an infinity."""
    near = float(bound)
    return draw(
        st.sampled_from([near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf), math.inf, -math.inf])
        | st.floats(allow_nan=False)
    )


@settings(max_examples=500)
@given(st.sampled_from(BOUNDS).flatmap(lambda b: st.tuples(st.just(b), values_near(b))), st.sampled_from(CMP_OPS))
def test_float_comparison_agrees_with_exact(bound_value, op):
    bound, value = bound_value
    if math.isinf(value):
        exact = compare(bound + 1 if value > 0 else bound - 1, op, bound)  # an infinity lies beyond every bound
    else:
        exact = compare(Fraction(value), op, bound)
    atom = LinCmp("X", op, bound)
    assert atom.holds(value) == exact  # fills the float memo
    assert atom.holds(value) == exact  # reads it


def test_bound_for_keeps_rational_values_and_inexact_bounds_rational():
    assert LinCmp("X", "<", Fraction(18)).bound_for(17.5) == 18.0
    assert type(LinCmp("X", "<", Fraction(18)).bound_for(Fraction(17))) is Fraction
    assert type(LinCmp("X", "<", Fraction(1, 3)).bound_for(0.25)) is Fraction
    assert type(LinCmp("X", "<", Fraction(2**60 + 1)).bound_for(0.25)) is Fraction
    assert type(LinCmp("X", "<", Fraction(10**400)).bound_for(0.25)) is Fraction


def test_float_memo_takes_no_part_in_equality_hashing_or_printing():
    atom, twin = LinCmp("X", ">=", Fraction(22)), LinCmp("X", ">=", Fraction(22))
    before = (atom == twin, twin == atom, hash(atom), repr(atom), str(atom))
    assert atom.holds(22.5)
    assert atom._float == 22.0
    assert (atom == twin, twin == atom, hash(atom), repr(atom), str(atom)) == before
    assert before[:3] == (True, True, hash(twin))


# ---------------------------------------------------------------------------
# terms longer than the Python stack is deep: every walk loops over list cells

LONG = sys.getrecursionlimit() + 100
ONES = [Num(Fraction(1))] * LONG


def cells(heads, tail=NIL):
    """The list of ``heads`` ending in ``tail``, built cell by cell."""
    for head in reversed(heads):
        tail = Cons(head, tail)
    return tail


def test_long_lists_built_apart_are_equal():
    assert cells(ONES) is not cells(ONES) and cells(ONES) == cells(ONES)
    assert TermEq("X", cells(ONES)) == TermEq("X", cells(ONES))


def test_conj_unifies_two_long_lists():
    store = solve([TermEq("X", cells(ONES)), TermEq("X", cells(ONES[1:] + [Var("Y")]))])
    assert bound_number(store, "Y") == 1
    assert conj(store, frozenset([TermEq("X", cells(ONES))])) is store


def test_entails_matches_a_long_list_guard():
    store = solve([TermEq("X", cells(ONES))])
    assert entails(store, frozenset([TermEq("X", cells([WILDCARD] * (LONG - 1) + [Var("Y#1")]))]))
    assert not entails(store, frozenset([TermEq("X", cells([WILDCARD] * (LONG - 1) + [Num(Fraction(2))]))]))


def test_rename_atoms_renames_every_cell_of_a_long_list():
    told = frozenset([TermEq("X", cells([Var("A")] * LONG, Var("A")))])
    assert rename_atoms(told, {"X": "Y", "A": "B"}) == {TermEq("Y", cells([Var("B")] * LONG, Var("B")))}


def test_a_store_prints_links_nested_deeper_than_the_stack():
    # X0 = [X1], X1 = [X2], ...: X0's final term nests once per link
    store = solve(TermEq(f"X{i}", Cons(Var(f"X{i + 1}"), NIL)) for i in range(LONG))
    assert f"X0={'[' * LONG}X{LONG}{']' * LONG}" in str(store).split(" /\\ ")
