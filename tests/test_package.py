"""Package-level checks: the command-line entry points and the rule
that library checks raise errors instead of using `assert`, which
`python -O` strips."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwemarket

PACKAGE = Path(cwemarket.__file__).resolve().parent


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}; raise an error instead"
