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
- one route per shape: the bootstrap's batch of histograms is
  ``inference.replicate_statistics``, which takes exactly ``(counts,
  offset, grid, window)`` and is the only caller of its chunk function,
  ``_chunk_statistics``; a single charfn goes through the staged stages,
  so ``estimate_muculants`` calls ``empirical_charfn`` and ``decompose``
  calls ``eval_charfn``, each then ``complex_log`` and
  ``complex_muculants``;
- one statistic for the test and its replicates: ``poisson_test`` scores
  its sample's histogram with the replicates' batch, so it calls
  ``sample_histogram`` and ``replicate_statistics`` and neither
  ``estimate_muculants`` nor ``poisson_statistic``;
- one transform convention: no module uses ``grid_synthesis`` or
  ``grid_analysis``, the full N-point transforms, which stay public in
  ``charfn.py`` only as references (every route runs on the half
  spectrum, mu in [0, pi]);
- the PMF default grid has one home, ``charfn.grid_for_pmf``: no other
  module reads ``DEFAULT_GRID_SIZE``, and ``cli.py`` neither calls
  ``for_width`` nor uses ``support_width`` (it takes the library's default
  grids);
- no ``np.add.at``: its generic unbuffered path is slow, and the one fold,
  ``charfn.fold_indices``, adds one slice per wrap of the support (the
  tests keep ``np.add.at`` as its reference);
- the number format has one home: the text ``.17g`` occurs exactly once in
  the package, so ``io.format_number`` and the list renderer beside it
  cannot drift apart;
- the bootstrap's batch owns its chunking: ``_CHUNK_POINTS`` and
  ``_workspace`` are read only in ``inference.py``, where
  ``replicate_statistics`` runs its own chunk loop;
- the vanishing floor has one home: ``VANISH_TOL`` and ``EMPIRICAL_FLOOR``
  are assigned only in ``charfn.py``, ``cli.py`` names neither of them nor
  ``require_modulus`` and holds no floor literal (the floor follows the
  provenance of the charfn);
- one resolution rule: every function that puts weights on a
  caller-chosen grid reaches ``require_resolution`` (a grid below four
  points per index of the support lets the phase unwrap skip a wrap):
  ``eval_charfn`` and ``charfn.sample_histogram`` call it,
  ``empirical_charfn`` calls ``sample_histogram``, and
  ``estimate_muculants`` and ``decompose`` call ``empirical_charfn`` and
  ``eval_charfn``;
- the sample histogram has one home: ``np.bincount`` is called only in
  ``charfn.sample_histogram``, and the 100-draw rule with it:
  ``MIN_SAMPLE_SIZE`` is assigned only in ``charfn.py``, and ``cli.py``
  names neither it nor ``require_sample_size``;
- one log arithmetic: ``np.arctan2`` is called only in ``charfn.log_half``,
  and ``transform._cepstrum`` is the only reader of an ``irfft`` of a log
  (the only other ``irfft``, in ``reconstruct_sequence``, inverts a
  charfn); the three coefficient readers, the batch's
  ``_chunk_statistics``, ``complex_muculants`` and ``power_muculants``,
  each call ``_cepstrum``, and ``_chunk_statistics`` and ``complex_log``
  each call ``log_half``;
- one integer rule: ``isinstance`` names ``np.integer`` only in
  ``pmf.integer_argument``, the number rule ``pmf.is_number`` beside it,
  and ``io.format_number``, which picks how to print a number; every other
  integer argument goes through ``integer_argument``.
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


def callers_of(source: str, name: str) -> list[str]:
    """Name of the function around each call to ``name``, bare or dotted,
    in source order; "<module>" for a call outside any function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "attr", getattr(child.func, "id", None)) == name
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
    assert callers_of(source, "setflags") == ["f", "g", "<module>"]
    assert callers_of("np.zeros(3).flags.writeable\n", "setflags") == []
    assert callers_of("def h(x):\n    return bincount(x)\n", "bincount") == ["h"]


def test_only_frozen_vector_freezes_arrays():
    callers = {p.name: callers_of(p.read_text(), "setflags") for p in sorted(PACKAGE.glob("*.py"))}
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


def test_one_route_per_shape():
    # replicate_statistics is the bootstrap's batch of histograms; a single
    # charfn, one PMF or one sample, goes through the staged stages
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = {name: callers_of(source, "_chunk_statistics") for name, source in sources.items()}
    callers = {name: c for name, c in callers.items() if c}
    assert callers == {"inference.py": ["replicate_statistics"]}
    batch = next(
        node
        for node in ast.parse(sources["inference.py"]).body
        if isinstance(node, ast.FunctionDef) and node.name == "replicate_statistics"
    )
    params = batch.args.posonlyargs + batch.args.args + batch.args.kwonlyargs
    assert [a.arg for a in params] == ["counts", "offset", "grid", "window"]
    assert batch.args.vararg is None and batch.args.kwarg is None
    staged = {"complex_log", "complex_muculants"}
    for module, function, synthesis in (
        ("inference.py", "estimate_muculants", "empirical_charfn"),
        ("decompose.py", "decompose", "eval_charfn"),
    ):
        assert staged | {synthesis} <= function_calls(sources[module], function), function


def test_poisson_test_scores_its_sample_as_its_replicates():
    calls = function_calls((PACKAGE / "inference.py").read_text(), "poisson_test")
    assert {"sample_histogram", "replicate_statistics"} <= calls
    assert not calls & {"estimate_muculants", "poisson_statistic"}


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


def test_no_module_runs_the_full_grid_transforms():
    for name in ("grid_synthesis", "grid_analysis"):
        uses = {p.name: name_uses(p.read_text(), name) for p in MODULES}
        assert {module: lines for module, lines in uses.items() if lines} == {}, name
    charfn = ast.parse((PACKAGE / "charfn.py").read_text())
    defined = {node.name for node in charfn.body if isinstance(node, ast.FunctionDef)}
    assert {"grid_synthesis", "grid_analysis"} <= defined  # kept as public references


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


def test_the_log_kernel_owns_its_chunking():
    for name in ("_CHUNK_POINTS", "_workspace"):
        reads = {p.name: name_uses(p.read_text(), name) for p in PACKAGE.glob("*.py")}
        assert [module for module, lines in reads.items() if lines] == ["inference.py"], name


def assigned_lines(source: str, name: str) -> list[int]:
    """Line of each assignment to the bare name ``name``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == name
    )


def test_checker_finds_assignments():
    source = "A = 1\nB: float = 2\nA += 3\nx = A\nc.A = 4\n"
    assert assigned_lines(source, "A") == [1, 3]
    assert assigned_lines(source, "B") == [2]


def test_the_vanishing_floor_has_one_home():
    for name in ("VANISH_TOL", "EMPIRICAL_FLOOR"):
        homes = {p.name: assigned_lines(p.read_text(), name) for p in PACKAGE.glob("*.py")}
        assert [module for module, lines in homes.items() if lines] == ["charfn.py"], name
    cli = (PACKAGE / "cli.py").read_text()
    for name in ("VANISH_TOL", "EMPIRICAL_FLOOR", "require_modulus"):
        assert name_uses(cli, name) == [], name
    numbers = {n.value for n in ast.walk(ast.parse(cli)) if isinstance(n, ast.Constant)}
    assert not numbers & {1e-3, 1e-8}


def function_calls(source: str, function: str) -> set[str]:
    """Names called, bare or dotted, in the body of the top-level function
    ``function``; empty when the source defines no such function."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {
                getattr(call.func, "attr", getattr(call.func, "id", None))
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
    return set()


def test_checker_finds_function_calls():
    source = "def f(g):\n    check(g)\n    return m.fold(g)\ndef h():\n    other()\n"
    assert function_calls(source, "f") == {"check", "fold"}
    assert function_calls(source, "h") == {"other"}
    assert function_calls(source, "check") == set()


# each function that puts weights on a caller-chosen grid, and the rule it
# calls: require_resolution itself, or a route that calls it
SYNTHESES = {
    ("charfn.py", "eval_charfn"): "require_resolution",
    ("charfn.py", "sample_histogram"): "require_resolution",
    ("charfn.py", "empirical_charfn"): "sample_histogram",
    ("inference.py", "estimate_muculants"): "empirical_charfn",
    ("decompose.py", "decompose"): "eval_charfn",
}


def test_every_synthesis_on_a_caller_chosen_grid_requires_resolution():
    for (module, function), rule in SYNTHESES.items():
        assert rule in function_calls((PACKAGE / module).read_text(), function), function


def test_the_sample_histogram_has_one_home():
    callers = {p.name: callers_of(p.read_text(), "bincount") for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: c for name, c in callers.items() if c} == {"charfn.py": ["sample_histogram"]}
    homes = {p.name: assigned_lines(p.read_text(), "MIN_SAMPLE_SIZE") for p in PACKAGE.glob("*.py")}
    assert [module for module, lines in homes.items() if lines] == ["charfn.py"]
    cli = (PACKAGE / "cli.py").read_text()
    for name in ("require_sample_size", "MIN_SAMPLE_SIZE"):
        assert name_uses(cli, name) == [], name


def test_the_log_arithmetic_has_one_home():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    arctan2 = {name: callers_of(source, "arctan2") for name, source in sources.items()}
    assert {name: c for name, c in arctan2.items() if c} == {"charfn.py": ["log_half"]}
    irfft = {name: callers_of(source, "irfft") for name, source in sources.items()}
    assert {name: c for name, c in irfft.items() if c} == {
        "transform.py": ["_cepstrum", "reconstruct_sequence"]
    }
    stages = {
        ("inference.py", "_chunk_statistics"): {"log_half", "_cepstrum"},
        ("transform.py", "complex_muculants"): {"_cepstrum"},
        ("transform.py", "power_muculants"): {"_cepstrum"},
        ("charfn.py", "complex_log"): {"log_half"},
    }
    for (module, function), calls in stages.items():
        assert calls <= function_calls(sources[module], function), function


def isinstance_owners(source: str, name: str) -> list[str]:
    """Name of the function around each ``isinstance`` call whose class
    argument names ``name`` (bare, dotted or in a tuple), in source order."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "isinstance"
                and len(child.args) == 2
            ):
                classes = ast.walk(child.args[1])
                if name in {getattr(n, "attr", getattr(n, "id", None)) for n in classes}:
                    found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_isinstance_owners():
    source = (
        "def f(x):\n    return isinstance(x, (int, np.integer))\n"
        "def g(x):\n    return isinstance(x, np.floating) or isinstance(x, integer)\n"
        "isinstance(y, np.integer)\n"
    )
    assert isinstance_owners(source, "integer") == ["f", "g", "<module>"]
    assert isinstance_owners(source, "floating") == ["g"]
    assert isinstance_owners("np.integer\nissubclass(t, np.integer)\n", "integer") == []


def test_one_integer_rule():
    owners = {p.name: isinstance_owners(p.read_text(), "integer") for p in PACKAGE.glob("*.py")}
    assert {name: o for name, o in owners.items() if o} == {
        "io.py": ["format_number"],
        "pmf.py": ["integer_argument", "is_number"],
    }
