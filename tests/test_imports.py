"""Importing the package and its CLI loads no ``dataclasses``; every name a
package module imports is used in that module, only the
parser, the syntax and ``semantics.open_scopes`` name the scope node ``Hide``,
only ``constraints`` and ``semantics.read_guard`` call ``entails``,
only ``constraints`` names the solved form (``solve``, ``_merge``,
``bindings``), the CLI reads names through ``syntax.uses`` alone,
the package defines three exception classes, one of them ``ModelError``,
which ``cli.main`` catches once, only ``Record``, ``_False`` (of ``FALSE``) and
the store write a ``__repr__``, every function name the package defines is named
by the package, outside its own body, or by the benchmark, and no function calls
itself on a list's tail.

No linter ships with the project, so these are the checks that keep dead
imports and functions only tests call out, scopes out of the engine, every
guard read by the one rule for its continuous atoms, the solved form
private to the store, ``check`` on the one name-use walk, every model
fault on one error path and every list walked in a loop.  ``__init__.py`` is exempt from the
first: its imports are the public API.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hytccp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_the_package_imports_without_dataclasses():
    # the stdlib module and what it pulls in cost more start-up than the package
    # itself; -S keeps site-packages' start-up hooks out of the check
    code = "import sys, hytccp, hytccp.cli; print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        # a quoted annotation such as "Agent" names a type too
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.walk(ast.parse(part.value, mode="eval"))
                    used |= {n.id for n in quoted if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_detector_finds_an_unused_name():
    source = "import os, re\nfrom typing import List, Tuple\nx: List['re.Pattern'] = []\ny = 'Tuple'\n"
    assert unused_imports(source) == ["Tuple", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# modules that may name Hide anywhere; semantics.py may name it in open_scopes
HIDE_MODULES = {"__init__.py", "parser.py", "syntax.py"}


def name_mentions(source: str, name: str, allowed_function: str = "") -> list:
    """Lines that name ``name`` outside the function ``allowed_function``; imports aside."""
    tree = ast.parse(source)
    allowed = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == allowed_function
        for inner in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name)
    )


def test_detector_finds_hide_outside_the_allowed_function():
    source = "from .syntax import Hide\ndef f(a):\n    return Hide\ndef g(a):\n    return syntax.Hide, Hide\n"
    assert name_mentions(source, "Hide", "f") == [5, 5]


def test_only_parser_syntax_and_open_scopes_name_hide():
    mentions = {
        path.name: name_mentions(path.read_text(), "Hide", "open_scopes" if path.name == "semantics.py" else "")
        for path in SRC.glob("*.py")
        if path.name not in HIDE_MODULES
    }
    assert {name: lines for name, lines in mentions.items() if lines} == {}


def test_detector_finds_entails_outside_read_guard():
    source = (
        "from .constraints import entails\ndef read_guard(g):\n    return entails(s, g)\n"
        "def guard_holds(g):\n    return constraints.entails(s, g) and entails(s, g)\n"
    )
    assert name_mentions(source, "entails", "read_guard") == [5, 5]


def test_only_constraints_and_read_guard_call_entails():
    # a guard is read by one rule: its continuous atoms against the continuous store, the rest entailed
    mentions = {
        path.name: name_mentions(path.read_text(), "entails", "read_guard" if path.name == "semantics.py" else "")
        for path in SRC.glob("*.py")
        if path.name not in {"__init__.py", "constraints.py"}
    }
    assert {name: lines for name, lines in mentions.items() if lines} == {}


SOLVED_FORM = {"solve", "_merge", "bindings"}


def mentions(source: str, names: set) -> list:
    """Lines that name one of ``names``, as a name, an attribute or an import."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.ImportFrom) and names.intersection(alias.name for alias in node.names)
    )


def test_detector_finds_the_solved_form():
    source = "from .constraints import (\n    conj,\n    solve,\n)\nx = store.bindings()\ny = _merge\nz = solved\n"
    assert mentions(source, SOLVED_FORM) == [1, 5, 6]


def test_only_constraints_names_the_solved_form():
    found = {path.name: mentions(path.read_text(), SOLVED_FORM) for path in SRC.glob("*.py") if path.name != "constraints.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the agent walkers ``check`` must not use: it reads names through ``syntax.uses``
WALKERS = {"nodes", "parts", "children", "continuous_names"}


def test_detector_finds_a_walker():
    source = "from .syntax import (\n    Program,\n    nodes,\n)\nx = syntax.children(a)\ny = uses(a)\nparts = 1\n"
    assert mentions(source, WALKERS) == [1, 5, 7]


def test_check_reads_names_only_through_uses():
    assert mentions((SRC / "cli.py").read_text(), WALKERS) == []


def unnamed_definitions(sources: dict, others: list) -> list:
    """``(file, name)`` of each function or method that a source in ``sources``
    (file name -> text) defines, dunders aside, and that no source names, as a
    ``Name`` or an ``Attribute``, outside the definition's own body, nor any text
    in ``others`` anywhere.

    It matches names only, so a method and a module function of one name mask
    each other: ``parser.parse_agent`` and ``parser.parse_constraint``, public
    API that only tests call, pass because ``Parser``'s methods of those names
    are called."""
    named_elsewhere = {
        node.id if isinstance(node, ast.Name) else node.attr
        for text in others
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    namings = [  # (name, node) of each naming in the sources
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for file, tree in trees.items():
        for definition in ast.walk(tree):
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = definition.name
            if name.startswith("__") and name.endswith("__") or name in named_elsewhere:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(named == name and id(node) not in inside for named, node in namings):
                found.append((file, name))
    return sorted(found)


def test_detector_finds_a_definition_nothing_names():
    sources = {
        "a.py": "def f():\n    return f()\ndef g():\n    return 1\nclass C:\n    def m(self):\n        pass\n    def __eq__(self, o):\n        pass\n    def h(self):\n        pass\nx = g\n",
        "b.py": "def k():\n    def inner():\n        pass\n    return C().m\n",
    }
    assert unnamed_definitions(sources, ["k()\n", "obj.h\n"]) == [("a.py", "f"), ("b.py", "inner")]


def test_every_definition_is_named_by_the_package_or_the_benchmark():
    # a function only tests call is code the program does not need
    defining = {path.name: path.read_text() for path in MODULES}
    bench = [path.read_text() for path in sorted((SRC.parent.parent / "bench").glob("*.py"))]
    assert unnamed_definitions(defining, [(SRC / "__init__.py").read_text(), *bench]) == []


def exception_classes(source: str) -> list:
    """Names of the classes ``source`` defines on a base named ``Exception`` or ``...Error``,
    or on a class found before them."""
    found: list = []
    for node in ast.walk(ast.parse(source)):
        bases = [base.id for base in getattr(node, "bases", ()) if isinstance(base, ast.Name)]
        if any(base == "Exception" or base.endswith("Error") or base in found for base in bases):
            found.append(node.name)
    return found


def test_detector_finds_an_exception_class():
    source = "class A(KeyError):\n    pass\nclass B(Exception):\n    pass\nclass C(A):\n    pass\nclass D(object, ValueError):\n    pass\nclass E(object):\n    pass\n"
    assert exception_classes(source) == ["A", "B", "C", "D"]


def test_the_package_defines_three_exception_classes():
    found = sorted(name for path in SRC.glob("*.py") for name in exception_classes(path.read_text()))
    assert found == ["ModelError", "OracleSizeError", "ParseError"]


def test_main_handles_model_faults_in_one_except_model_error():
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    handled = [ast.unparse(handler.type) for node in ast.walk(main) if isinstance(node, ast.Try) for handler in node.handlers]
    assert handled == ["SystemExit", "OSError", "ParseError", "ModelError", "RecursionError"]


def repr_classes(source: str) -> list:
    """Names of the classes ``source`` defines that write their own ``__repr__``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__repr__" for item in node.body)
    ]


def test_detector_finds_a_repr():
    source = "class A:\n    def __repr__(self):\n        return 'a'\nclass B(A):\n    def __str__(self):\n        return 'b'\n"
    assert repr_classes(source) == ["A"]


def test_every_value_prints_its_repr_through_record():
    # one repr for every value: its fields, by ``Record``; FALSE prints its name, a store its text
    found = sorted(name for path in SRC.glob("*.py") for name in repr_classes(path.read_text()))
    assert found == ["Record", "_False", "_Store"]


def tail_recursions(source: str) -> list:
    """Names of the functions ``source`` defines, nested ones included, that call
    themselves with an argument reading ``.tail``: one Python frame per list cell."""
    found = []
    for definition in ast.walk(ast.parse(source)):
        if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(definition):
            called = getattr(call, "func", None)
            if (
                isinstance(call, ast.Call)
                and definition.name in (getattr(called, "id", None), getattr(called, "attr", None))
                and any(
                    isinstance(part, ast.Attribute) and part.attr == "tail"
                    for arg in (*call.args, *(k.value for k in call.keywords))
                    for part in ast.walk(arg)
                )
            ):
                found.append(definition.name)
                break
    return sorted(found)


def test_detector_finds_a_call_on_a_tail():
    source = (
        "def length(t):\n    return 1 + length(t.tail) if t else 0\n"
        "def outer(t):\n    def inner(t):\n        return inner(t=t.head.tail)\n    return inner(t)\n"
        "class C:\n    def walk(self, t):\n        return self.walk(t.tail)\n"
        "def heads(t):\n    return heads(t.head)\n"
        "def loop(t):\n    while t:\n        t = t.tail\n    return length(t.tail)\n"
    )
    assert tail_recursions(source) == ["inner", "length", "walk"]


def test_no_function_calls_itself_on_a_tail():
    # a list's length must not reach the Python stack: walk its cells in a loop
    found = {path.name: tail_recursions(path.read_text()) for path in SRC.glob("*.py")}
    assert {name: functions for name, functions in found.items() if functions} == {}
