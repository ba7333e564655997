"""No package module but integrate.py imports ellip1d.integrate.

The theorem-bound check integrates with the error norms' Gauss rule and the
references are Chebyshev antiderivatives, so the adaptive integrator is
public API only; importing the package must not load it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "ellip1d").glob("*.py"))


def imported_names(source: str) -> set[str]:
    """Every module, and module.name, that the source imports, made absolute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "ellip1d" + (f".{module}" if module else "")
            names |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return names


@pytest.mark.parametrize("source", [
    "from .integrate import integral",
    "from . import integrate",
    "import ellip1d.integrate",
    "from ellip1d import integrate",
    "from ellip1d.integrate import AccuracyError",
])
def test_scanner_sees_every_import_form(source):
    assert "ellip1d.integrate" in imported_names(source)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "integrate.py"],
                         ids=lambda p: p.name)
def test_module_does_not_import_integrate(path):
    assert "ellip1d.integrate" not in imported_names(path.read_text(encoding="utf-8"))


def test_package_import_leaves_integrate_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, ellip1d.cli; print(sorted(m for m in sys.modules if m.startswith('ellip1d')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.strip()
    assert "'ellip1d.cli'" in loaded
    assert "ellip1d.integrate" not in loaded
