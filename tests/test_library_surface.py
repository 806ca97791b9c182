"""Every library function, class and method has a caller outside the tests.

The scan parses ``src/hho_control/*.py`` and collects each module-level
function or class and each method that is not a dunder.  A name counts as
used when some ``ast.Name`` or ``ast.Attribute`` in the package (outside
``__init__.py``, which only re-exports) or in ``bench/`` spells it.  The
match is by spelling, so it can miss dead code that shares a name with
something live, but it never flags code that runs.  The definitions that
only ``bench/`` calls are named in ``BENCH_ONLY``.  No function imports
from the package: a lazy import is how a cycle between its modules hides.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hho_control"

# kept without a library caller, each for its reason
ALLOWED = {
    "solve_poisson": "the Poisson baseline of acceptance criterion 1",
    "read_mesh": "reads the format that `hho-control mesh` writes",
    "CellBasis": "the tests' per-cell reference basis (ROADMAP item 6); "
                 "its methods are allowed with it",
}

# called from bench/ and from no library code; ``run_experiment`` solves a
# level on the mesh it has checked, so only the benchmark asks ``run_level``
# to build the mesh too.  Once the benchmark reads the library's own records
# (ROADMAP item 2), ROADMAP item 6 can delete the other three.
BENCH_ONLY = {"HhoSpace.local_ops", "ExperimentConfig.build_problem",
              "ConvergenceReport.final_rate", "run_level"}

LIBRARY = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
BENCH = list((ROOT / "bench").glob("*.py"))


def _definitions():
    """``(qualified name, name)`` of every checked definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield f"{node.name}.{item.name}", item.name


def _used_names(files):
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_library_definition_has_a_caller():
    used = _used_names(LIBRARY + BENCH)
    unused = [qualified for qualified, name in _definitions()
              if name not in used and qualified.split(".")[0] not in ALLOWED]
    assert unused == [], f"defined in src/ but used only by tests: {unused}"


def test_allowlist_names_existing_definitions():
    defined = {qualified for qualified, _ in _definitions()}
    assert set(ALLOWED) <= defined


def test_no_function_imports_from_the_package():
    # the lazy third-party imports (sympy, scipy.spatial) stay allowed
    lazy = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy += [f"{path.name}:{imp.lineno}" for imp in ast.walk(node)
                         if isinstance(imp, ast.ImportFrom) and (
                             imp.level > 0
                             or (imp.module or "").startswith("hho_control"))]
    assert lazy == [], f"function-level imports from the package: {lazy}"


def test_bench_only_definitions_are_named():
    in_library, in_bench = _used_names(LIBRARY), _used_names(BENCH)
    bench_only = {qualified for qualified, name in _definitions()
                  if name not in in_library and name in in_bench}
    assert bench_only == BENCH_ONLY
