"""The public surface: every exported name, and every name the benchmark's
tracer wraps, exists; every verdict is a Check and the default tolerances are
defined once; the value classes that hold arrays compare and hash; scipy.sparse
loads on the first operator assembly only; the suite's BLAS pin reaches numpy."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasifree import cli, fields, fock, gaussian, ito, semigroup, symplectic, synthesis

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


NAN = float("nan")


def _nan_spec():
    nan = np.full((2, 2), NAN)
    return synthesis.DilationSpec(n=1, lindblad_terms=(), hamiltonian_terms=(), K_prime=nan,
                                  K=np.zeros((2, 2)), C=np.zeros((2, 2)))


def _nan_eigvalsh(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: np.full(len(H), NAN))


def _oracle_check(monkeypatch):
    monkeypatch.setattr(fock, "state_moments",
                        lambda rep, rho: (np.full(1, NAN), np.full(1, NAN), np.full((2, 2), NAN)))
    return fock.oracle_compare(gaussian.coherent([0.3]), _attenuation(), 0.1, cutoff=8,
                               steps=50).check


#: every rule that returns a verdict, fed a NaN value: the value itself, or a
#: NaN eigenvalue, residual or moment where the inputs must be finite
VERDICTS = {
    "symplectic.hermitian_check": lambda mp: symplectic.hermitian_check([[NAN]], 1.0),
    "symplectic.psd_verdict": lambda mp: symplectic.psd_verdict([1.0, NAN]),
    "symplectic.psd_check": lambda mp: (_nan_eigvalsh(mp), symplectic.psd_check(np.eye(2)))[1],
    "semigroup.admissible": lambda mp: (_nan_eigvalsh(mp),
                                        semigroup.admissible(-0.5 * np.eye(2), np.eye(2)))[1],
    "gaussian.validate.psd": lambda mp: (_nan_eigvalsh(mp),
                                         gaussian.validate(gaussian.vacuum(1)))[1].psd,
    "gaussian.weyl_modulus": lambda mp: gaussian.weyl_modulus(complex(NAN, 0.0)),
    "synthesis.DilationSpec.reconstructs": lambda mp: _nan_spec().reconstructs(),
    "ito.unitarity_check": lambda mp: ito.unitarity_check(
        ito.ItoDifferential(1, {(0, 0): 1.0, (1, 1): NAN})),
    "ito.poisson_table.check": lambda mp: ito.poisson_table(1, 1, NAN, NAN).check,
    "fock.oracle_compare.check": _oracle_check,
    "fock.leakage_check": lambda mp: fock.leakage_check(fock.build(1, 3), np.full(3, NAN)),
    "fields.mean_band": lambda mp: fields.mean_band(
        fields.FieldLaw(mean=[0.0], covariance=[[1.0]]), np.array([[NAN], [0.0]])),
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_every_verdict_is_a_check_that_a_nan_value_fails(monkeypatch, name):
    check = VERDICTS[name](monkeypatch)
    assert type(check) is symplectic.Check
    assert check.value != check.value and check.passed is False


def _float_literals(path):
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, float)}


def test_the_default_tolerances_are_defined_once():
    # cli reads them off the library's one set, and writes no tolerance of
    # its own: its float literals are the shortest time verify-oracle caps
    # its substeps by and the Poisson table's default intensity
    assert cli.DEFAULT_TOLERANCES == dataclasses.asdict(symplectic.TOLERANCES)
    assert list(cli.DEFAULT_TOLERANCES) == ["psd", "oracle", "unitarity", "rank",
                                            "reconstruction", "symplectic"]
    assert _float_literals(Path(cli.__file__)) == {1e-3, 1.0}
    # ito's tolerance defaults read TOLERANCES.unitarity
    assert 1e-12 not in _float_literals(Path(ito.__file__))


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
    "FockRep": lambda: fock.FockRep(n=1, cutoff=3, dim=3, columns=fock.build(1, 3).columns,
                                    weights=fock.build(1, 3).weights),
}


@pytest.mark.parametrize("name", sorted(VALUE_OBJECTS))
def test_value_objects_compare_by_identity_and_hash(name):
    a, b = VALUE_OBJECTS[name](), VALUE_OBJECTS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, b, a}) == 2


LAZY_SPARSE = """
import sys
import quasifree as qf
K, C = qf.pair_from_coupling([1.0], [0.5])
pair = qf.QuasifreePair(n=1, K=K, C=C)
qf.evolve_state(qf.coherent([0.3 + 0.1j]), pair, 0.5)
spec = qf.decompose(K, C)
print("scipy.sparse" in sys.modules)
qf.fock._lindblad_operators(qf.fock.build(1, 4), spec)
print("scipy.sparse" in sys.modules)
"""


def test_scipy_sparse_loads_on_the_first_operator_assembly_only():
    # a fresh interpreter: the channel ops never load scipy.sparse, and the
    # first Fock operator assembly does
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", LAZY_SPARSE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_the_blas_pin_comes_before_numpy_loads():
    # tests/conftest.py sets the BLAS thread counts, which numpy reads only
    # when it loads; a plugin that imports numpy first would void the pin
    import conftest
    assert conftest.NUMPY_WAS_LOADED is False
