"""Package-level checks: the command-line entry points, the rule that
library checks raise errors instead of using `assert`, which `python -O`
strips, the names the benchmark's tracer wraps, and that every
definition has a caller."""
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import cwemarket

PACKAGE = Path(cwemarket.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


@pytest.mark.parametrize("module", ["cwemarket", "cwemarket.cli"])
def test_python_dash_m_prints_usage(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", module, "solve", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cwemarket solve")


def test_benchmark_smoke_passes():
    """Every workload builds, runs and passes its checker on a small
    slice, with the package as it is in `src/`."""
    done = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    """`raise AssertionError` counts too: the CLI maps package errors to
    exit codes and would print a traceback for it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc and _raises_assertion_error(node)
    ]
    assert not lines, f"{path.name}: assert on lines {lines}; raise an error instead"


def _tracing_and_program():
    """`bench/tracing.py`, loaded by path, and the package modules it wraps."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {module for module, _, _ in tracing.SPANS} | {"valuations"}
    program = SimpleNamespace(
        **{name: importlib.import_module(f"cwemarket.{name}") for name in names}
    )
    return tracing, program


def test_benchmark_tracer_installs_on_the_package():
    """`bench/tracing.py` wraps functions where each module looks them
    up; a module that stops importing one breaks `--trace 1`."""
    tracing, program = _tracing_and_program()
    before = program.simple.demand_correspondence
    tracer = tracing.Tracer()
    tracer.install(program)
    try:
        auction, seed = cwemarket.generate("gap3")
        tracer.run_op(
            "op", lambda: program.simple.run_simple(auction, seed, Fraction(1, 20))
        )
    finally:
        tracer.uninstall()
    assert program.simple.demand_correspondence is before
    assert tracer.counts["simple.demand_queries"] > 0
    assert tracer.counts["market.subsets_enumerated"] > 0


def _tracer_shims():
    """(module, name) for every name a module imports only for the
    tracer, on a `# noqa: F401` line."""
    shims = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, ast.ImportFrom) and "# noqa: F401" in lines[node.lineno - 1]:
                shims += [(path.stem, alias.asname or alias.name) for alias in node.names]
    return shims


def test_every_tracer_shim_is_wrapped_by_the_tracer():
    """Each shim import exists only so that `bench/tracing.py` can
    replace it.  A shim the tracer no longer replaces is dead code: once
    the tracer wraps these names where they are defined, every shim and
    this test go."""
    tracing, program = _tracing_and_program()
    shims = _tracer_shims()
    assert sorted(shims) == [
        ("poly", "demand_correspondence"),
        ("poly", "is_cwe"),
        ("revenue", "find_violation"),
        ("simple", "is_cwe"),
        ("simple", "merge_bundles"),
        ("verifier", "set_partitions"),
    ]

    def current(shim):
        module, name = shim
        return getattr(getattr(program, module), name)

    before = {shim: current(shim) for shim in shims}
    tracer = tracing.Tracer()
    tracer.install(program)
    try:
        kept = [shim for shim in shims if current(shim) is before[shim]]
    finally:
        tracer.uninstall()
    assert not kept, f"imports the tracer does not replace: {kept}"
    assert all(current(shim) is before[shim] for shim in shims)


def _unused_imports(path):
    """Names a module imports and never uses, except on `# noqa: F401` lines."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    """An import kept only for the benchmark's tracer carries `# noqa: F401`."""
    unused = _unused_imports(path)
    assert not unused, f"{path.name}: unused imports {unused}"


def _names_in(path, strings=False):
    """Every identifier `path` names, and with `strings` its string
    constants too (the tracer wraps functions by name)."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    return named


def test_every_private_definition_is_used():
    """Every single-underscore function, class or method defined in the
    package is named somewhere in it besides its definition, so that a
    helper left behind by a consolidation shows up."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    named = set().union(*(_names_in(path) for path in PACKAGE.glob("*.py")))
    unused = sorted(where for name, where in defined.items() if name not in named)
    assert not unused, f"private definitions never named: {unused}"


def test_every_public_definition_has_a_caller():
    """Every public module-level function or class in the package is
    named somewhere in it besides its definition, or in `bench/*.py`,
    so that code only the tests run shows up.  `__init__.py` exports
    do not count: they are imports and `__all__` strings, not uses."""
    paths = sorted(PACKAGE.glob("*.py"))
    named = set().union(*(_names_in(path) for path in paths))
    named |= set().union(*(_names_in(p, strings=True) for p in (ROOT / "bench").glob("*.py")))
    uncalled = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in paths
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in named
    ]
    assert not uncalled, f"public definitions only the tests call: {uncalled}"
