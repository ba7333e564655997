"""Every function the benchmark tracer wraps must still exist in the package.

perfbench/tracing.py wraps each (module, attribute) of its TARGETS list and
reports a metric built from a target that no longer resolves as absent, so
renaming or deleting a traced function silently drops per-layer metrics from
a traced run. TARGETS is read from the file's source, without importing the
benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_targets() -> list[tuple[str, str, str]]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {TRACING}")


TARGETS = tracer_targets()


def test_targets_listed():
    assert len(TARGETS) > 0


@pytest.mark.parametrize(
    "module,attr", [(module, attr) for module, attr, _ in TARGETS],
    ids=[f"{module}.{attr}" for module, attr, _ in TARGETS],
)
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"ellip1d.{module}")
    for part in attr.split("."):  # "Class.method" resolves on the class
        owner = getattr(owner, part, None)
        assert owner is not None, f"ellip1d.{module}.{attr} no longer exists"
    assert callable(owner)
