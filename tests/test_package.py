"""The public surface: every exported name, and every name the benchmark's
tracer wraps, exists."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["quasifree", "quasifree.symplectic", "quasifree.gaussian", "quasifree.semigroup",
           "quasifree.synthesis", "quasifree.fock", "quasifree.ito", "quasifree.fields",
           "quasifree.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _traced():
    """perfbench/tracer.py's TRACED table, read from its source."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(path.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no TRACED table")


def test_every_traced_name_resolves():
    missing = [f"{layer}.{name}" for layer, names in _traced().items() for name in names
               if not hasattr(importlib.import_module(f"quasifree.{layer}"), name)]
    assert missing == []
