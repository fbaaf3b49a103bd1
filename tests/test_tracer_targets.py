"""Every function the benchmark's layer tracer wraps must still exist.

``perfbench/tracer.py`` skips a target the program no longer has, and that
layer then reads 0, so a rename would silently zero a benchmark row.  The
``TARGETS`` literal is read with ``ast`` (the tracer module is not
imported) and each ``(module, attribute)`` pair is resolved in modalkit.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS literal in {TRACER}")


def test_targets_literal_is_not_empty():
    assert len(_targets()) > 0


@pytest.mark.parametrize("module,attr", [pytest.param(m, a, id=f"{m}.{a}") for m, a, _ in _targets()])
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"modalkit.{module}")
    for part in attr.split("."):
        owner = inspect.getattr_static(owner, part, None)
        assert owner is not None, f"modalkit.{module}.{attr} is gone; its benchmark layer would read 0"
    assert callable(owner)
