"""The public surface: every exported name, and every name the benchmark's
tracer wraps, exists; the value classes that hold arrays compare and hash."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from quasifree import fields, fock, gaussian, semigroup, synthesis

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


SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "quasifree").glob("*.py"))


def _imported_modules(path):
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_cli_knows_a_file_form():
    # one codec: JSON and CSV are read and written by cli alone
    readers = [path.stem for path in SOURCES if _imported_modules(path) & {"json", "csv"}]
    assert readers == ["cli"]
    gone = ("complex_to_pairs", "complex_from_pairs", "dilation_report")
    for name in ("quasifree", "quasifree.symplectic", "quasifree.synthesis"):
        module = importlib.import_module(name)
        assert [n for n in gone if hasattr(module, n)] == [], name
    # one handler writes the DilationSpec for both decompose and dilate
    cli = importlib.import_module("quasifree.cli")
    assert [n for n in ("_cmd_dilate", "_decompose_results") if hasattr(cli, n)] == []


def _attenuation():
    return semigroup.QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2))


#: one instance of each frozen dataclass with an array field
VALUE_OBJECTS = {
    "GaussianState": lambda: gaussian.vacuum(1),
    "QuasifreePair": _attenuation,
    "WeylActionResult": lambda: semigroup.weyl_action(_attenuation(), 0.1, [0.2]),
    "GeneratorCoefficients": lambda: semigroup.generator_action(_attenuation(), [0.2]),
    "LindbladTerm": lambda: synthesis.LindbladTerm.from_coupling([1.0], [0.0]),
    "HamiltonianTerm": lambda: synthesis.HamiltonianTerm(lam=1.0, w=[1.0]),
    "DilationSpec": lambda: synthesis.decompose(-0.5 * np.eye(2), np.eye(2)),
    "KernelModel": lambda: fields.KernelModel(points=(0, 1), K=np.eye(2)),
    "FieldLaw": lambda: fields.FieldLaw(mean=[0.0, 1.0], covariance=np.eye(2)),
    "FockRep": lambda: fock.build(1, 3),
}


@pytest.mark.parametrize("name", sorted(VALUE_OBJECTS))
def test_value_objects_compare_by_identity_and_hash(name):
    a, b = VALUE_OBJECTS[name](), VALUE_OBJECTS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, b, a}) == 2
