"""Static checks on the package source.

No linter ships with the test dependencies, so these are small stdlib-only
``ast`` checks:

- every top-level import is used: a name bound by a module-level ``import``
  must be read somewhere in that module (``__init__.py`` is exempt, since
  its imports are re-exports);
- arrays are frozen in one place: ``.setflags(`` is called only inside
  ``pmf.frozen_vector``, the validator every dataclass array field uses;
- no root finder: nothing calls ``roots(`` (``np.roots`` is O(L^3) and took
  21 ms on a 124-long PMF; the zero test is a step-down, and the tests keep
  ``np.roots`` as its reference);
- the full-grid staged functions serve the CLI only: ``eval_charfn``,
  ``empirical_charfn``, ``complex_log``, ``complex_muculants`` and
  ``power_muculants`` are called nowhere in the package outside ``cli.py``
  (they take caller-supplied samples; every internal route runs the
  half-spectrum log kernel in ``transform``);
- the PMF default grid has one home, ``charfn.grid_for_pmf``: no other
  module reads ``DEFAULT_GRID_SIZE``, and ``cli.py`` neither calls
  ``for_width`` nor uses ``support_width`` (it takes the library's default
  grids);
- no ``np.add.at``: its generic unbuffered path is slow, and the one fold,
  ``charfn.fold_indices``, adds one slice per wrap of the support (the
  tests keep ``np.add.at`` as its reference);
- the number format has one home: the text ``.17g`` occurs exactly once in
  the package, so ``io.format_number`` and the batch formatter beside it
  cannot drift apart.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "muculants"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["line 1: c"]
    assert unused_imports("import numpy as np\nx = np.zeros(1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def setflags_callers(source: str) -> list[str]:
    """Name of the function around each ``.setflags(`` call, in source
    order; "<module>" for a call outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "setflags"
            ):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_setflags_callers():
    source = (
        "def f(a):\n    a.setflags(write=False)\n"
        "class C:\n    def g(self):\n        self.x.setflags(write=False)\n"
        "y.setflags(write=False)\n"
    )
    assert setflags_callers(source) == ["f", "g", "<module>"]
    assert setflags_callers("np.zeros(3).flags.writeable\n") == []


def test_only_frozen_vector_freezes_arrays():
    callers = {p.name: setflags_callers(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: c for name, c in callers.items() if c} == {"pmf.py": ["frozen_vector"]}


def roots_calls(source: str) -> list[int]:
    """Line of each call to a function named ``roots``, bare or dotted."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "roots"
    ]


def test_checker_finds_roots_calls():
    assert roots_calls("import numpy as np\nr = np.roots([1, 2])\n") == [2]
    assert roots_calls("from numpy import roots\nroots(p)\n") == [2]
    assert roots_calls("x.roots\nrootsish(p)\n") == []


def test_no_root_finder_in_the_package():
    calls = {p.name: roots_calls(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in calls.items() if lines} == {}


STAGED = ("eval_charfn", "empirical_charfn", "complex_log", "complex_muculants", "power_muculants")


def staged_calls(source: str) -> list[str]:
    """``line: name`` of each call to a full-grid staged function, bare or
    dotted; their definitions are not calls."""
    return [
        f"{node.lineno}: {name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "attr", getattr(node.func, "id", None))) in STAGED
    ]


def test_checker_finds_staged_calls():
    source = (
        "def complex_log(cf):\n    return cf\n"
        "x = complex_log(eval_charfn(f, g))\n"
        "y = charfn.empirical_charfn(s, g)\n"
        "z = power_muculants\n"
    )
    assert sorted(staged_calls(source)) == [
        "3: complex_log",
        "3: eval_charfn",
        "4: empirical_charfn",
    ]
    assert staged_calls("complex_logs(x)\nself.eval_charfn\n") == []


def test_staged_functions_serve_only_the_cli():
    calls = {p.name: staged_calls(p.read_text()) for p in MODULES if p.name != "cli.py"}
    assert {name: c for name, c in calls.items() if c} == {}


def name_uses(source: str, name: str) -> list[int]:
    """Line of each read of ``name``: bare, as an attribute, or imported
    (under any alias).  Assignments and definitions are not reads."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used = node.id == name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used = node.attr == name
        elif isinstance(node, ast.ImportFrom):
            used = any(alias.name == name for alias in node.names)
        else:
            continue
        if used:
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_name_uses():
    source = (
        "from .charfn import DEFAULT_GRID_SIZE as N, support_width\n"
        "DEFAULT_GRID_SIZE = 4096\n"
        "n = charfn.DEFAULT_GRID_SIZE\n"
        "g = FrequencyGrid.for_width(support_width(f), DEFAULT_GRID_SIZE)\n"
    )
    assert name_uses(source, "DEFAULT_GRID_SIZE") == [1, 3, 4]
    assert name_uses(source, "for_width") == [4]
    assert name_uses(source, "support_width") == [1, 4]
    definition = "def for_width(w):\n    return 'for_width'\nx.for_width = 1\n"
    assert name_uses(definition, "for_width") == []


def test_the_pmf_default_grid_has_one_home():
    reads = {p.name: name_uses(p.read_text(), "DEFAULT_GRID_SIZE") for p in PACKAGE.glob("*.py")}
    assert [name for name, lines in reads.items() if lines] == ["charfn.py"]
    cli = (PACKAGE / "cli.py").read_text()
    assert name_uses(cli, "for_width") == []
    assert name_uses(cli, "support_width") == []


def add_at_uses(source: str) -> list[int]:
    """Line of each ``<anything>.add.at`` (``np.add.at``, ``numpy.add.at``)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "at"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "add"
    ]


def test_checker_finds_add_at():
    assert add_at_uses("import numpy as np\nnp.add.at(a, i, b)\n") == [2]
    assert add_at_uses("f = numpy.add.at\n") == [1]
    assert add_at_uses("np.add(a, b)\nx.at(1)\nadd.at\n") == []


def test_no_add_at_in_the_package():
    uses = {p.name: add_at_uses(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_the_number_format_has_one_home():
    counts = {p.name: p.read_text().count(".17g") for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {"io.py": 1}
