import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasifree import cli, fields, fock, ito
from quasifree.gaussian import coherent
from quasifree.semigroup import QuasifreePair, evolve_state
from quasifree.synthesis import decompose
from quasifree.symplectic import (TOLERANCES, Check, PropagatorOverflowError, decisive,
                                  symplectic_form)

from util import random_admissible_pair, random_unitary, random_valid_state, rng


def attenuation_pair_dict():
    return {"n": 1, "K": [[-0.5, 0.0], [0.0, -0.5]], "C": [[1.0, 0.0], [0.0, 1.0]]}


DEMO_SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "demos" / "scenarios")
                        .glob("*.json"))


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in report")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def run(tmp_path, scenario, name="scenario.json", extra_args=()):
    path = tmp_path / name
    path.write_text(json.dumps(scenario, default=cli._json_default))
    code = cli.main(["--scenario", str(path), "--out", str(tmp_path), *extra_args])
    report_path = tmp_path / scenario.get("report", "report.json")
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report


def test_validate_state_ok(tmp_path):
    scenario = {"command": "validate-state", "state": coherent([1.0])}
    code, report = run(tmp_path, scenario)
    assert code == 0
    assert report["passed"] is True
    assert report["library"]["name"] == "quasifree"
    assert report["tolerances"]["psd"] == 1e-9


def test_validate_state_invalid_exits_2(tmp_path):
    scenario = {"command": "validate-state",
                "state": {"n": 1, "l": [0.0], "m": [0.0],
                          "S": [[0.25, 0.0], [0.0, 0.25]]}}
    code, report = run(tmp_path, scenario)
    assert code == 2
    assert report["passed"] is False
    psd = report["results"]["psd"]
    assert psd["name"] == "psd" and psd["passed"] is False
    assert abs(psd["value"] - 0.5) < 1e-9
    assert report["decided_by"] == psd


def test_evolve_writes_trajectory_csv(tmp_path):
    times = [0.0, 0.25, 0.5, 1.0]
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": coherent([1.0 - 0.3j]),
                "times": times, "csv": "traj.csv"}
    code, report = run(tmp_path, scenario)
    assert code == 0
    with open(tmp_path / "traj.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(times)
    pair = QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2))
    for row, t in zip(rows, times):
        expected = evolve_state(coherent([1.0 - 0.3j]), pair, t)
        assert abs(float(row["m1"]) - expected.m[0]) < 1e-12
        assert abs(float(row["S11"]) - expected.S[0, 0]) < 1e-12
    columns = report["results"]["csv_columns"]
    assert ",".join(columns) == "t,l1,m1,S11,S12,S21,S22"
    # the CSV holds the report's own numbers, in csv.writer's bytes
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for t, step in zip(times, report["results"]["trajectory"]):
        state = step["state"]
        writer.writerow([repr(float(x)) for x in (t, *state["l"], *state["m"],
                                                  *np.ravel(state["S"]))])
    assert (tmp_path / "traj.csv").read_bytes() == buf.getvalue().encode()


def test_evolve_without_times_writes_a_header_only_csv(tmp_path):
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": coherent([1.0]), "times": [], "csv": "traj.csv"}
    code, report = run(tmp_path, scenario)
    assert code == 0 and report["results"]["trajectory"] == []
    assert (tmp_path / "traj.csv").read_bytes() == b"t,l1,m1,S11,S12,S21,S22\r\n"


def test_evolve_long_horizon_report_is_finite(tmp_path):
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": coherent([1.0]), "times": [1.0, 1e4]}
    code, _ = run(tmp_path, scenario)
    assert code == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    assert all(step["psd"]["passed"] for step in report["results"]["trajectory"])


def test_evolve_overflowing_amplifier_exits_2_without_report(tmp_path, capsys):
    scenario = {"command": "evolve",
                "pair": {"n": 1, "K": [[0.5, 0.0], [0.0, 0.5]], "C": [[1.0, 0.0], [0.0, 1.0]]},
                "state": coherent([1.0]), "times": [1.0, 1e4]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run(tmp_path, scenario)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert "t = 10000" in err and "spectral abscissa 0.5" in err


def test_evolve_overflowing_state_exits_2_without_report(tmp_path, capsys):
    # the propagator is finite at t = 690; the evolved covariance 1e10 e^{690} is not
    scenario = {"command": "evolve",
                "pair": {"n": 1, "K": [[0.5, 0.0], [0.0, 0.5]], "C": [[1.0, 0.0], [0.0, 1.0]]},
                "state": {"n": 1, "l": [0.0], "m": [0.0], "S": [[1e10, 0.0], [0.0, 1e10]]},
                "times": [1.0, 690.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run(tmp_path, scenario)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: ")
    assert "t = 690" in err and "spectral abscissa 0.5" in err


def test_an_overflow_inside_a_command_names_the_command_and_exits_2(tmp_path, capsys):
    # S + S^T overflows in the symmetry check of gaussian.validate
    scenario = {"command": "validate-state",
                "state": {"n": 1, "l": [0.0], "m": [0.0], "S": [[1.7e308, 0.0], [0.0, 1.0]]}}
    code, report = run(tmp_path, scenario)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err.startswith("error: validate-state: overflow encountered in add; "
                          "input too large for double precision")


@pytest.mark.parametrize("name, S", [("hermitian", [[1.0, 0.2], [0.0, 1.0]]),
                                     ("psd", [[0.25, 0.0], [0.0, 0.25]])],
                         ids=["hermitian", "psd"])
@pytest.mark.parametrize("command", [{"command": "evolve", "pair": attenuation_pair_dict(),
                                      "times": [1.0]},
                                     {"command": "weyl", "z": [[[0.3, 0.4]]]}],
                         ids=["evolve", "weyl"])
def test_an_invalid_input_state_exits_1_naming_the_failing_check(tmp_path, capsys,
                                                                name, S, command):
    state = {"n": 1, "l": [0.0], "m": [0.0], "S": S}
    code, report = run(tmp_path, {**command, "state": state})
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith(f"error: invalid Gaussian state: {name} "
                                              f"check fails, ")


@pytest.mark.parametrize("command", [{"command": "evolve", "pair": attenuation_pair_dict(),
                                      "times": []},
                                     {"command": "weyl", "z": []}],
                         ids=["evolve", "weyl"])
def test_an_invalid_state_with_nothing_to_evaluate_exits_1_naming_the_failing_check(
        tmp_path, capsys, command):
    state = {"n": 1, "l": [0.0], "m": [0.0], "S": [[0.25, 0.0], [0.0, 0.25]]}
    code, report = run(tmp_path, {**command, "state": state})
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith("error: invalid Gaussian state: psd check fails, ")


def test_evolve_and_weyl_make_one_batched_call_per_scenario(tmp_path, monkeypatch):
    from quasifree import gaussian, semigroup
    calls = []

    def count(module, name, size):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls.append((name, size(*args)))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    count(semigroup, "evolve_states", lambda state, pair, times: len(times))
    count(semigroup, "evolve_state", lambda state, pair, t: 1)
    count(gaussian, "validate", lambda state, tol=None: 1)
    count(gaussian, "validate_many", lambda states, tol=None: len(states))
    count(gaussian, "weyl_transform", lambda state, z, tol=None: len(z))
    state = coherent([0.3 + 0.1j])
    code, _ = run(tmp_path, {"command": "evolve", "pair": attenuation_pair_dict(),
                             "state": state, "times": [0.0, 0.5, 0.25, 2.0], "csv": "e.csv"})
    # the input state is validated alone, and the evolved states in one batch
    assert code == 0
    assert calls == [("evolve_states", 4), ("validate", 1), ("validate_many", 4)]
    calls.clear()
    code, _ = run(tmp_path, {"command": "weyl", "state": state,
                             "z": [[[0.3, 0.4]], [[0.0, 0.0]], [[-1.0, 2.0]]]})
    assert code == 0 and calls == [("weyl_transform", 3), ("validate", 1)]


def test_weyl_command(tmp_path):
    scenario = {"command": "weyl", "state": coherent([0.5]),
                "z": [[[0.0, 0.0]], [[0.3, 0.4]]]}
    code, report = run(tmp_path, scenario)
    assert code == 0
    first = report["results"]["values"][0]["value"]
    assert first == [1.0, 0.0]
    assert all(v["modulus"]["value"] <= 1.0 + 1e-12 and v["modulus"]["passed"]
               for v in report["results"]["values"])


def test_decompose_command(tmp_path):
    scenario = {"command": "decompose", "pair": attenuation_pair_dict()}
    code, report = run(tmp_path, scenario)
    assert code == 0
    assert len(report["results"]["lindblad_terms"]) == 1
    assert report["results"]["residuals"]["k_residual"] < 1e-8


def test_dilate_command(tmp_path):
    scenario = {"command": "dilate", "pair": attenuation_pair_dict()}
    code, report = run(tmp_path, scenario)
    assert code == 0
    assert len(report["results"]["lindblad_terms"]) == 1
    assert report["results"]["hamiltonian_terms"] == []


def _scaled_pair(scale):
    pair = random_admissible_pair(rng(0), 4, couplings=3)
    return {"n": pair.n, "K": scale * pair.K, "C": scale * pair.C}


@pytest.mark.parametrize("command", ["decompose", "dilate"])
def test_reconstruction_verdict_is_relative_to_the_pair_scale(tmp_path, command):
    # at scale 1e6 the symplectic residual is ~1e-10 absolute but ~1e-16
    # relative to 1 + max(|K|, |C|): the library's own rule passes it
    code, report = run(tmp_path, {"command": command, "pair": _scaled_pair(1e6)})
    assert (code, report["passed"]) == (0, True)
    assert report["results"]["residuals"]["symplectic_residual"] > TOLERANCES.symplectic


@pytest.mark.parametrize("command", ["decompose", "dilate"])
def test_scenario_tolerances_reach_the_reconstruction_verdict(tmp_path, capsys, command):
    # the scenario's tolerances reach decompose's own gate, which refuses the
    # spec: exit 2 with no report, the error naming the deciding check
    scenario = {"command": command, "pair": _scaled_pair(1.0),
                "tolerances": {"symplectic": 1e-20}}
    code, report = run(tmp_path, scenario)
    assert (code, report) == (2, None)
    err = capsys.readouterr().err
    assert err.startswith("error: decomposition failed to reconstruct the pair")
    assert "name='symplectic'" in err and "passed=False" in err


def test_decompose_and_dilate_write_the_same_results(tmp_path):
    texts = []
    for command in ("decompose", "dilate"):
        run(tmp_path, {"command": command, "pair": _scaled_pair(1.0)})
        text = (tmp_path / "report.json").read_text()
        texts.append(text[text.index('"results": '):text.index(', "artifacts": ')])
    assert texts[0] == texts[1]


#: a small scenario per command whose results perfbench's qfl_sweep check
#: reads, and the paths it reads there ("*" walks every entry of a list)
_SWEEP_CONTRACT = {
    "evolve": ({"pair": attenuation_pair_dict(), "state": coherent([0.5]),
                "times": [0.0, 0.1]},
               [("trajectory", 0, "state", key) for key in ("l", "m", "S")]),
    "verify-oracle": ({"pair": attenuation_pair_dict(), "state": coherent([0.5]),
                       "times": [0.1], "cutoff": 12, "steps": 100},
                      [("comparisons", "*", key) for key in
                       ("mean_error", "cov_error", "weyl_error")] + [("tolerance",)]),
    "unitarity": ({"H": [[[1.0, 0.0]]]}, [("residual",), ("tolerance",)]),
    "decompose": ({"pair": attenuation_pair_dict()},
                  [("residuals", key) for key in
                   ("k_residual", "c_residual", "symplectic_residual")]),
}


def _walk(value, path):
    if not path:
        return [value]
    head, rest = path[0], path[1:]
    if head == "*":
        assert isinstance(value, list) and value
        return [leaf for item in value for leaf in _walk(item, rest)]
    return _walk(value[head], rest)


@pytest.mark.parametrize("command", sorted(_SWEEP_CONTRACT))
def test_report_keeps_the_keys_the_benchmark_check_reads(tmp_path, command):
    scenario, paths = _SWEEP_CONTRACT[command]
    code, report = run(tmp_path, {"command": command, **scenario})
    assert (code, report["passed"]) == (0, True)
    for path in paths:
        leaves = _walk(report["results"], path)
        assert leaves and all(isinstance(leaf, (int, float, list)) for leaf in leaves), path


#: one scenario per command, each judged by at least one Check
_JUDGED = {
    "validate-state": {"state": coherent([0.5])},
    "evolve": {"pair": attenuation_pair_dict(), "state": coherent([0.5]),
               "times": [0.0, 0.1, 2.0]},
    "weyl": {"state": coherent([0.5]), "z": [[[0.3, 0.4]], [[2.0, 0.0]]]},
    "decompose": {"pair": attenuation_pair_dict()},
    "dilate": {"pair": attenuation_pair_dict()},
    "verify-oracle": {"pair": attenuation_pair_dict(), "state": coherent([0.5]),
                      "times": [0.1, 0.3], "cutoff": 12, "steps": 100},
    "ito-table": {"table": "poisson", "i": 1, "j": 2},
    "unitarity": {"H": [[[1.0, 0.0]]]},
    "sample-field": {"law": {"kind": "gaussian", "mean": [0.0], "covariance": [[1.0]]},
                     "count": 50},
}


def _checks_in(value):
    """Every encoded Check in a decoded report value, depth first."""
    if isinstance(value, dict) and set(value) == {"name", "value", "bound", "passed"}:
        check = Check(value["name"], value["value"], value["bound"])
        assert check.passed is value["passed"]
        return [check]
    children = value.values() if isinstance(value, dict) else value
    return [c for v in children for c in _checks_in(v)] if isinstance(value, (dict, list)) else []


def test_every_command_is_judged_by_a_scenario():
    assert set(_JUDGED) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(_JUDGED))
def test_decided_by_is_the_decisive_check_of_the_results(tmp_path, command):
    code, report = run(tmp_path, {"command": command, **_JUDGED[command]})
    assert list(report)[-2:] == ["passed", "decided_by"]
    checks = _checks_in(report["results"])
    if command in ("decompose", "dilate"):
        # the spec carries its residuals; its rule is DilationSpec.reconstructs
        assert checks == []
        pair = _JUDGED[command]["pair"]
        checks = [decompose(np.array(pair["K"]), np.array(pair["C"])).reconstructs()]
    decided = decisive(checks)
    assert report["decided_by"] == dataclasses.asdict(decided)
    assert (code, report["passed"]) == (0, decided.passed) == (0, True)


@pytest.mark.parametrize("scenario", [
    {"command": "weyl", "state": coherent([0.5]), "z": []},
    {"command": "evolve", "pair": attenuation_pair_dict(), "state": coherent([0.5]), "times": []},
], ids=["weyl", "evolve"])
def test_a_command_that_judges_nothing_passes_decided_by_null(tmp_path, scenario):
    code, report = run(tmp_path, scenario)
    assert (code, report["passed"], report["decided_by"]) == (0, True, None)


def test_verify_oracle_command(tmp_path):
    scenario = {"command": "verify-oracle", "pair": attenuation_pair_dict(),
                "state": coherent([1.0]),
                "times": [0.25], "cutoff": 25, "steps": 500}
    code, report = run(tmp_path, scenario)
    assert code == 0
    comp = report["results"]["comparisons"][0]
    assert comp["mean_error"] < 1e-5
    assert comp["cov_error"] < 1e-5
    assert comp["weyl_error"] < 1e-5


def test_verify_oracle_long_stiff_loss_exits_0(tmp_path):
    # damping at rate 9 over 400 time units at one step per unit: the Krylov
    # exponential takes long substeps, and both sides end in the vacuum
    scenario = {"command": "verify-oracle",
                "pair": {"n": 1, "K": [[-4.5, 0.0], [0.0, -4.5]], "C": [[9.0, 0.0], [0.0, 9.0]]},
                "state": coherent([1.0]),
                "times": [400], "cutoff": 25, "steps": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run(tmp_path, scenario)
    assert code == 0
    comp = report["results"]["comparisons"][0]
    assert max(comp["mean_error"], comp["cov_error"], comp["weyl_error"]) <= 1e-12


def test_verify_oracle_with_overflowing_step_count_exits_1_naming_times_and_steps(tmp_path,
                                                                                    capsys):
    scenario = {"command": "verify-oracle", "pair": attenuation_pair_dict(),
                "state": coherent([0.5]), "times": [0.1, 1e306], "cutoff": 8}
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'steps'" in err and "'times'" in err
    assert "Traceback" not in err


def test_verify_oracle_refuses_an_underflowing_coherent_vector_naming_the_cutoff(tmp_path,
                                                                                capsys):
    # at |alpha| ~ 42 the truncated coherent vector is zero and leaks nothing
    scenario = {"command": "verify-oracle", "pair": attenuation_pair_dict(),
                "state": {"n": 1, "l": [0.0], "m": [60.0], "S": 0.5 * np.eye(2)},
                "times": [0.5], "cutoff": 8}
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "keeps mass 0 of 1 at cutoff 8" in err
    assert "density matrix trace" not in err


def test_sample_field_refuses_a_levy_atom_too_heavy_for_poisson_by_name(tmp_path, capsys):
    scenario = {"command": "sample-field",
                "law": {"kind": "levy", "H": [[[2.0, 0.0]]], "u": [[1e10, 0.0]]},
                "count": 10, "seed": 1}
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: atom at 2 has mass 1e+20")


def test_verify_oracle_dimension_cap(tmp_path):
    for n, cutoff in [(1, 5000), (2, 33)]:
        out = tmp_path / f"n{n}"
        out.mkdir()
        pair = QuasifreePair(n=n, K=-0.5 * np.eye(2 * n), C=np.eye(2 * n))
        scenario = {"command": "verify-oracle", "pair": pair,
                    "state": coherent([1.0] * n),
                    "times": [0.1], "cutoff": cutoff}
        code, report = run(out, scenario)
        assert code == 4
        assert report is None


@pytest.mark.parametrize("table", [{"table": "quadrature", "d": 2},
                                   {"table": "poisson", "i": 1, "j": 2}])
def test_ito_table_tolerance_reaches_the_check(tmp_path, monkeypatch, table):
    seen = []
    kind = "quadrature_table" if table["table"] == "quadrature" else "poisson_table"
    original = getattr(cli.ito, kind)

    def spy(*args, tol):
        seen.append(tol)
        return original(*args, tol=tol)
    monkeypatch.setattr(cli.ito, kind, spy)
    code, report = run(tmp_path, {"command": "ito-table", **table}, extra_args=["--tol", "0.25"])
    assert code == 0 and seen == [0.25] == [report["tolerances"]["unitarity"]]
    code, report = run(tmp_path, {"command": "ito-table", **table})
    assert code == 0 and seen[1:] == [1e-12] == [report["tolerances"]["unitarity"]]


def test_ito_table_command(tmp_path):
    code, report = run(tmp_path, {"command": "ito-table", "table": "quadrature", "d": 2})
    assert code == 0
    assert report["results"]["check"]["name"] == "ito_table"
    assert report["results"]["check"]["passed"] is True
    assert "dB1" in report["results"]["text"]

    code, report = run(tmp_path, {"command": "ito-table", "table": "poisson",
                                  "i": 1, "j": 1, "intensities": [0.5, 0.5]})
    assert code == 0
    assert "dN1" in report["results"]["text"]


def test_unitarity_command(tmp_path):
    gen = rng(91)
    dim, d = 2, 1
    S = random_unitary(gen, dim * d)
    L1 = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    H = gen.normal(size=(dim, dim))
    H = (H + H.T) / 2.0

    def enc(M):
        return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(M, complex)]

    scenario = {"command": "unitarity", "S": enc(S), "L": [enc(L1)], "H": enc(H),
                "X": enc(np.eye(dim))}
    code, report = run(tmp_path, scenario)
    assert code == 0
    check = report["results"]["unitarity"]
    assert check["passed"] is True and check["value"] == report["results"]["residual"]
    flow = report["results"]["flow"]["theta[0][0]"]
    flat = np.array(flow, dtype=float).ravel()
    assert np.abs(flat).max() < 1e-10


def test_unitarity_refuses_a_huge_scattering_matrix_with_exit_1(tmp_path, capsys):
    # an entry of modulus 1e200 is refused by name before S S^dag can overflow
    scenario = {"command": "unitarity", "S": [[[1e200, 0.0]]], "L": [[[[0.0, 0.0]]]],
                "H": [[[0.0, 0.0]]]}
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    assert capsys.readouterr().err == "error: S must be unitary\n"


def test_sample_field_gaussian_csv(tmp_path):
    scenario = {"command": "sample-field",
                "law": {"kind": "gaussian", "mean": [1.0, -1.0],
                        "covariance": [[1.0, 0.0], [0.0, 2.0]]},
                "count": 20000, "seed": 3, "csv": "draws.csv"}
    code, report = run(tmp_path, scenario)
    assert code == 0
    band = report["results"]["mean_band"]
    assert (band["name"], band["bound"], band["passed"]) == ("mean_band", 5.0, True)
    data = np.loadtxt(tmp_path / "draws.csv", delimiter=",", skiprows=1)
    assert data.shape == (20000, 2)
    law = scenario["law"]
    draws = fields.sample(fields.FieldLaw(mean=law["mean"], covariance=law["covariance"]),
                          20000, seed=3)
    np.savetxt(tmp_path / "ref.csv", draws, fmt="%.17g", delimiter=",", header="x1,x2",
               comments="")
    assert (tmp_path / "draws.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_sample_field_levy(tmp_path):
    scenario = {"command": "sample-field",
                "law": {"kind": "levy", "H": [[[1.0, 0.0]]], "u": [[1.0, 0.0]]},
                "count": 20000, "seed": 4}
    code, report = run(tmp_path, scenario)
    assert code == 0
    assert abs(report["results"]["empirical_mean"] - 1.0) < 0.05


def test_sample_field_kernel(tmp_path):
    scenario = {"command": "sample-field",
                "law": {"kind": "kernel",
                        "kernel": {"points": [0, 1], "K": [[1.0, 0.5], [0.5, 1.0]],
                                   "group": [[1, 0]]},
                        "z": [[1.0, 0.0], [1.0, 0.0]]},
                "count": 5000, "seed": 5}
    code, report = run(tmp_path, scenario)
    assert code == 0
    # variance of the combined observable: (1/2) z^T K z = 1.5
    assert abs(report["results"]["law_covariance"][0][0] - 1.5) < 1e-12


def test_malformed_json_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path)]) == 3


def test_missing_scenario_file_exits_3(tmp_path):
    assert cli.main(["--scenario", str(tmp_path / "absent.json")]) == 3


def test_unknown_command_exits_1(tmp_path):
    code, _ = run(tmp_path, {"command": "frobnicate"})
    assert code == 1


def test_non_finite_state_exits_1(tmp_path, capsys):
    scenario = {"command": "validate-state",
                "state": {"n": 1, "l": [0.0], "m": [float("nan")],
                          "S": [[0.5, 0.0], [0.0, 0.5]]}}
    code, report = run(tmp_path, scenario)
    assert code == 1
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=lambda p: p.stem)
def test_demo_scenario_runs_clean(tmp_path, path):
    scenario = json.loads(path.read_text())
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = strict_json((tmp_path / scenario.get("report", "report.json")).read_text())
    assert report["passed"] is True


def test_missing_field_exits_1(tmp_path):
    code, _ = run(tmp_path, {"command": "validate-state"})
    assert code == 1


def test_inadmissible_pair_exits_1(tmp_path):
    scenario = {"command": "decompose",
                "pair": {"n": 1, "K": [[1.0, 0.0], [0.0, 1.0]],
                         "C": [[0.0, 0.0], [0.0, 0.0]]}}
    code, _ = run(tmp_path, scenario)
    assert code == 1


def test_poisson_table_without_intensities_exits_1(tmp_path, capsys):
    code, report = run(tmp_path, {"command": "ito-table", "table": "poisson",
                                  "intensities": []})
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith("error: ")


def test_sample_field_with_non_object_law_exits_1(tmp_path, capsys):
    code, report = run(tmp_path, {"command": "sample-field", "law": "gaussian"})
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key, name", [("report", "../x.json"), ("report", "sub/x.json"),
                                       ("report", ".."), ("csv", "../x.csv"),
                                       ("csv", "{tmp}/x.csv")])
def test_artifact_names_outside_out_dir_exit_1(tmp_path, capsys, key, name):
    out = tmp_path / "out"
    name = name.format(tmp=tmp_path)
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": coherent([0.5]), "times": [0.0, 0.5],
                "csv": "traj.csv", key: name}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario, default=cli._json_default))
    code = cli.main(["--scenario", str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]
    assert list(out.iterdir()) == []


def test_env_variable_fallback(tmp_path, monkeypatch):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "validate-state", "state": coherent([0.0])},
                               default=cli._json_default))
    monkeypatch.setenv("QFL_SCENARIO", str(path))
    monkeypatch.setenv("QFL_OUT", str(tmp_path))
    assert cli.main([]) == 0
    assert (tmp_path / "report.json").exists()


def test_a_flag_does_not_outlive_its_call(tmp_path):
    # main parses with one parser for the process; an earlier --seed must not stick
    scenario = {"command": "sample-field", "law": {"kind": "gaussian", "mean": [0.0],
                                                  "covariance": [[1.0]]},
                "count": 10, "seed": 4}
    code, report = run(tmp_path, scenario, extra_args=["--seed", "7"])
    assert code == 0 and report["seed"] == 7
    code, report = run(tmp_path, scenario)
    assert code == 0 and report["seed"] == 4


def test_tol_flag_overrides_primary_tolerance(tmp_path):
    scenario = {"command": "validate-state", "state": coherent([1.0])}
    code, report = run(tmp_path, scenario, extra_args=["--tol", "1e-6"])
    assert code == 0
    assert report["tolerances"]["psd"] == 1e-6


@pytest.mark.parametrize("how", ["flag", "scenario"])
def test_sample_field_judges_its_covariance_at_the_psd_tolerance(tmp_path, capsys, how):
    law = {"kind": "gaussian", "mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, -1e-6]]}
    scenario = {"command": "sample-field", "law": law, "count": 100}
    assert run(tmp_path, scenario) == (1, None)
    assert capsys.readouterr().err.startswith("error: covariance is not PSD")
    if how == "flag":
        code, report = run(tmp_path, scenario, extra_args=["--tol", "1e-3"])
    else:
        code, report = run(tmp_path, {**scenario, "tolerances": {"psd": 1e-3}})
    assert code == 0 and report["passed"] is True
    assert report["tolerances"]["psd"] == 1e-3


@pytest.mark.parametrize("seed", [25, 27, 31])
def test_sample_field_accepts_a_large_coherent_law(tmp_path, seed):
    # three smearing vectors of |u| ~ 100 with a real Gram matrix of rank 2 in C^2:
    # rounding leaves a Gram eigenvalue just below zero, within the relative bound
    gen = rng(seed)
    phase = np.exp(1j * gen.uniform(0, 2 * np.pi))
    us = [gen.normal(size=2) * 100 / np.sqrt(2) * phase for _ in range(3)]
    law = {"kind": "coherent", "u0": [0.1 + 0.2j, -0.3j], "us": us}
    code, report = run(tmp_path, {"command": "sample-field", "law": law, "count": 200,
                                  "seed": 3})
    assert code == 0 and report["passed"] is True


@pytest.mark.parametrize("flag, value", [("--seed", "abc"), ("--cutoff", "1.5"),
                                         ("--tol", "-1e+300"), ("--tol", "tiny")])
def test_a_malformed_flag_exits_1_with_one_error_line(tmp_path, capsys, flag, value):
    scenario = {"command": "validate-state", "state": coherent([0.0])}
    assert run(tmp_path, scenario, extra_args=[flag, value]) == (1, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument " + flag) and captured.err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qfl")


def _near_boundary_pair(delta):
    """K = -I/2, C = (1 - delta) I: the noise matrix has min eigenvalue
    -delta against the default PSD bound 1e-9 (1 + 2 - delta) ~ 3e-9."""
    return {"n": 1, "K": [[-0.5, 0.0], [0.0, -0.5]],
            "C": [[1.0 - delta, 0.0], [0.0, 1.0 - delta]]}


#: what each gated command needs beside the pair
_GATED = {"evolve": {"state": coherent([0.5]), "times": [0.5]},
          "decompose": {}, "dilate": {},
          "verify-oracle": {"state": coherent([0.5]), "times": [0.5], "cutoff": 12,
                            "steps": 100}}

#: (delta, the scenario's tolerances, exit code): a strict set refuses the
#: pair the defaults pass, and a loose set passes the pair the defaults refuse
#: (the c residual of 5e-8 against 1e-6 times the scale 2 included)
_TOLERANCE_PROBES = {
    "strict-refuses": (1e-10, {"psd": 1e-12}, 1),
    "default-passes": (1e-10, {}, 0),
    "loose-passes": (1e-7, {"psd": 1e-6, "reconstruction": 1e-6, "symplectic": 1e-6}, 0),
    "default-refuses": (1e-7, {}, 1),
}


@pytest.mark.parametrize("probe", sorted(_TOLERANCE_PROBES))
@pytest.mark.parametrize("command", sorted(_GATED))
def test_one_tolerance_set_decides_every_gate(tmp_path, capsys, command, probe):
    # the pair's admission, decompose's PSD and reconstruction gates, the
    # evolved states and the oracle judge by the one set
    delta, tolerances, expected = _TOLERANCE_PROBES[probe]
    scenario = {"command": command, "pair": _near_boundary_pair(delta), **_GATED[command],
                "tolerances": tolerances}
    code, report = run(tmp_path, scenario)
    assert code == expected
    if expected:
        assert report is None
        assert "pair is not admissible" in capsys.readouterr().err
    else:
        assert report["passed"] is True
        assert report["tolerances"] == {**cli.DEFAULT_TOLERANCES, **tolerances}


def test_evolved_state_misses_the_psd_bound_by_the_pairs_margin_over_its_rate(tmp_path):
    # K = -(gamma/2) I, C = (gamma - eps) I is admitted, its noise matrix at
    # -eps inside the PSD bound; the vacuum relaxes to S = (1 - eps/gamma) I/2,
    # whose 2S + iJ has min eigenvalue -eps/gamma = -9.0e-7
    gamma = 1e-3
    eps = 0.9 * TOLERANCES.psd * (1 + 2 * gamma)
    pair = {"n": 1, "K": (-gamma / 2 * np.eye(2)).tolist(),
            "C": ((gamma - eps) * np.eye(2)).tolist()}
    scenario = {"command": "evolve", "pair": pair, "state": coherent([0.0]),
                "times": [1.0, 1e5]}
    code, report = run(tmp_path, scenario)
    assert (code, report["passed"]) == (2, False)
    early, late = report["results"]["trajectory"]
    assert early["psd"]["passed"] is True
    psd = late["psd"]
    assert (psd["name"], psd["passed"]) == ("psd", False)
    assert abs(psd["value"] - eps / gamma) <= 1e-3 * eps / gamma
    assert abs(psd["value"] - 9.0e-7) <= 0.05e-7
    assert psd["bound"] == pytest.approx(3e-9, rel=1e-3)


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    scenario = {"command": "sample-field",
                "law": {"kind": "gaussian", "mean": [0.0], "covariance": [[1.0]]},
                "count": 1000, "seed": 42}
    _, first = run(tmp_path, scenario, name="a.json")
    _, second = run(tmp_path, scenario, name="b.json")
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*", ')


@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=lambda p: p.stem)
def test_demo_scenario_outputs_are_byte_identical_modulo_timestamp(tmp_path, path):
    outputs = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        assert cli.main(["--scenario", str(path), "--out", str(run_dir)]) == 0
        outputs.append({p.name: p.read_bytes() for p in run_dir.iterdir()})
    first, second = outputs
    assert sorted(first) == sorted(second)
    for name, text in first.items():
        if name.endswith(".json"):      # the report: drop its one timestamp
            text, count = _TIMESTAMP.subn(b"", text)
            other, other_count = _TIMESTAMP.subn(b"", second[name])
            assert count == other_count == 1
        else:
            other = second[name]
        assert text == other, name


@dataclasses.dataclass(frozen=True)
class _Inner:
    values: np.ndarray


@dataclasses.dataclass(frozen=True)
class _Outer:
    label: str
    inner: _Inner


def test_json_default_encodes_numpy_complex_and_dataclasses():
    obj = {"z": np.array([1 + 2j, -0.5j]), "c": 3 - 4j, "x": np.float32(0.25),
           "k": np.int64(7), "b": np.bool_(True),
           "d": _Outer("a", _Inner(np.array([[1.0, 2.0], [3.0, 4.0]])))}
    text = json.dumps(obj, default=cli._json_default, allow_nan=False)
    assert "\n" not in text
    assert strict_json(text) == {"z": [[1.0, 2.0], [0.0, -0.5]], "c": [3.0, -4.0],
                                 "x": 0.25, "k": 7, "b": True,
                                 "d": {"label": "a", "inner": {"values": [[1.0, 2.0],
                                                                          [3.0, 4.0]]}}}
    for unencodable in (object(), _Outer):   # a dataclass's own class is no dataclass value
        with pytest.raises(TypeError):
            cli._json_default(unencodable)


def test_complex_pairs_round_trip():
    # the [re, im] codec: written by the report encoder, read by _complex
    z = rng(31).normal(size=(3, 2, 4, 2)) @ np.array([1.0, 1j])
    assert cli._json_default(2 - 0.5j) == [2.0, -0.5]
    for ndim, value in [(0, z[0, 0, 0]), (1, z[0, 0]), (2, z[0]), (3, z)]:
        data = json.loads(json.dumps(value, default=cli._json_default))
        assert np.array_equal(cli._complex(data, "z", ndim), value)


@pytest.mark.parametrize("data, message", [
    (5, "'z' must be [[numbers]], got int"),
    ([1.0, 2.0], "'z' must be [[numbers]], got float"),
    ([[1.0, 2.0], [3.0]], "'z' must have rows of one length"),
    ([[1.0, 2.0, 3.0]], "'z': complex values are encoded as [[re, im], ...]"),
    ([["a", "b"]], "'z' must hold numbers, got str"),
    ([[[1.0, 2.0]]], "'z' must hold numbers, got list"),
    ([{"re": 1.0}], "'z' must be [[numbers]], got dict"),
    ([], "'z': complex values are encoded as [[re, im], ...]"),
], ids=["scalar", "flat", "ragged", "triple", "text", "too-deep", "object", "empty"])
def test_complex_field_refuses_what_is_not_a_vector_of_pairs(data, message):
    with pytest.raises(cli.SchemaError) as caught:
        cli._complex(data, "z")
    assert str(caught.value) == message


@pytest.mark.parametrize("pair, message", [([None, 0.0], "'z' must hold numbers, got null"),
                                           ([0.0, float("nan")], "'z' must hold finite numbers"),
                                           ([float("inf"), 0.0], "'z' must hold finite numbers")],
                         ids=["null", "nan", "inf"])
def test_complex_field_refuses_non_finite_values(pair, message):
    with pytest.raises(cli.SchemaError) as caught:
        cli._complex([[1.0, 0.0], pair], "z")
    assert str(caught.value) == message


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("rows", [1023, 1024, 1025, 5000])
def test_sample_csv_matches_savetxt(tmp_path, rows, cols):
    data = rng(rows + cols).normal(size=(rows, cols)) * 10.0 ** rng(7).integers(-300, 300, cols)
    columns = [f"x{j + 1}" for j in range(cols)]
    np.savetxt(tmp_path / "ref.csv", data, fmt="%.17g", delimiter=",", header=",".join(columns),
               comments="")
    cli._write_csv(tmp_path / "out.csv", columns, data, "%.17g", "\n")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("law", [
    {"kind": "gaussian", "mean": [1e-3, -2e5], "covariance": [[1e-6, 0.0], [0.0, 1e10]]},
    {"kind": "levy", "H": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]],
     "u": [[0.6, 0.0], [0.8, 0.0]]},
    {"kind": "coherent", "u0": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]],
     "us": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0], [-0.4, 0.0]],
            [[0.2, 0.0], [0.0, 0.0], [1.5, 0.0]]]},
], ids=lambda law: law["kind"])
def test_sample_csv_reads_back_bitwise(tmp_path, law):
    scenario = {"command": "sample-field", "law": law, "count": 3000, "seed": 8,
                "csv": "draws.csv"}
    assert run(tmp_path, scenario)[0] == 0
    draws = fields.sample(cli._field_law(scenario), 3000, seed=8)
    back = np.loadtxt(tmp_path / "draws.csv", delimiter=",", skiprows=1, ndmin=2)
    assert _same_bits(back, draws.reshape(3000, -1))


def test_write_csv_reads_back_extreme_values_bitwise(tmp_path):
    gen = rng(44)
    tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
    data = np.concatenate([gen.normal(size=4000) * 1e307, gen.normal(size=4000) * 1e-307,
                           gen.normal(size=4000), [tiny, -tiny, huge, -huge, -0.0, 0.1, 1 / 3]])
    data = data.reshape(-1, 1)
    cli._write_csv(tmp_path / "out.csv", ["x1"], data, "%.17g", "\n")
    back = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1, ndmin=2)
    assert _same_bits(back, data)
    np.savetxt(tmp_path / "ref.csv", data, fmt="%.17g", delimiter=",", header="x1", comments="")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_moment_csv_matches_csv_writer(tmp_path):
    gen = rng(12)
    n = 2
    times = [0, 0.5, 1.25]
    moments = [(gen.normal(size=n), gen.normal(size=n), gen.normal(size=(2 * n, 2 * n)))
               for _ in times]
    moments[1][1][0] = -0.0
    columns = ["t", "l1", "l2", "m1", "m2"] + [f"S{i}{j}" for i in range(1, 5) for j in range(1, 5)]
    rows = np.array([np.concatenate(([t], l, m, S.ravel())) for t, (l, m, S) in zip(times, moments)])
    cli._write_csv(tmp_path / "out.csv", columns, rows, "%r", "\r\n")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for t, (l, m, S) in zip(times, moments):
        writer.writerow([repr(float(x)) for x in (t, *l, *m, *np.ravel(S))])
    assert (tmp_path / "out.csv").read_bytes() == buf.getvalue().encode()


# --- the payload codec: what a report writes, a scenario reads back ----------

def test_evolved_state_reads_back_bit_identical(tmp_path):
    gen = rng(37)
    state, pair = random_valid_state(gen, 2), random_admissible_pair(gen, 2, couplings=2)
    times = [0.0, 0.7, 2.5]
    code, report = run(tmp_path, {"command": "evolve", "pair": pair, "state": state,
                                  "times": times})
    assert code == 0
    for t, step in zip(times, report["results"]["trajectory"]):
        expected = evolve_state(state, pair, t)
        back = cli._payload({"state": step["state"]}, "state")
        assert back.n == 2
        for key in ("l", "m", "S"):
            assert np.array_equal(getattr(back, key), getattr(expected, key))
        out = tmp_path / f"t{t}"
        out.mkdir()
        assert run(out, {"command": "validate-state", "state": step["state"]})[0] == 0


@pytest.mark.parametrize("payload, field", [
    ({"state": {"n": 1, "l": [0.0], "m": [0.0]}}, "state-S"),
    ({"state": {"l": [0.0], "m": [0.0], "S": [[0.5, 0.0], [0.0, 0.5]]}}, "state-n"),
    ({"state": {"n": 1, "m": [0.0], "S": [[0.5, 0.0], [0.0, 0.5]]}}, "state-l"),
    ({"pair": {"n": 1, "K": [[0.0, 0.0], [0.0, 0.0]]}}, "pair-C"),
    ({"pair": {"n": 1, "C": [[0.0, 0.0], [0.0, 0.0]]}}, "pair-K"),
], ids=["state-S", "state-n", "state-l", "pair-C", "pair-K"])
def test_missing_payload_field_exits_1_naming_it(tmp_path, capsys, payload, field):
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": coherent([0.5]), "times": [0.1], **payload}
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    where, key = field.split("-")
    assert capsys.readouterr().err == f"error: {where} is missing required field {key!r}\n"


_KERNELS = {
    "real": ([[1.0, 0.5], [0.5, 1.0]], np.array([[1.0, 0.5], [0.5, 1.0]])),
    "pairs": ([[[1.0, 0.0], [0.0, -0.5]], [[0.0, 0.5], [1.0, 0.0]]],
              np.array([[1.0, -0.5j], [0.5j, 1.0]])),
}


@pytest.mark.parametrize("encoding", sorted(_KERNELS))
def test_kernel_law_reads_both_encodings(tmp_path, encoding):
    raw, K = _KERNELS[encoding]
    z = np.array([1.0, 1.0j])
    scenario = {"command": "sample-field", "count": 100, "seed": 5,
                "law": {"kind": "kernel", "z": z,
                        "kernel": {"points": ["a", "b"], "K": raw, "group": [[0, 1.0]]}}}
    code, report = run(tmp_path, scenario)
    assert code == 0
    assert report["results"]["law_covariance"] == [[0.5 * np.vdot(z, K @ z).real]]
    # the group is read too: a permutation that breaks the kernel is refused
    scenario["law"]["kernel"]["group"] = [[1, 0]]
    code, report = run(tmp_path, scenario, name="broken.json")
    assert code == (0 if encoding == "real" else 1)


@pytest.mark.parametrize("change, args", [
    ({"tolerances": []}, ()),
    ({"tolerances": {"psd": "1e-6"}}, ()),
    ({"tolerances": {"psd": 0}}, ()),
    ({"tolerances": {"psd": float("inf")}}, ()),
    ({"tolerances": {"psd": float("-inf")}}, ()),
    ({"tolerances": {"psd": float("nan")}}, ()),
    ({}, ("--tol", "nan")),
    ({}, ("--tol", "inf")),
], ids=["list", "string", "zero", "Infinity", "-Infinity", "NaN", "tol-nan", "tol-inf"])
def test_bad_tolerances_exit_1_without_report(tmp_path, capsys, change, args):
    scenario = {"command": "validate-state", "state": coherent([1.0]), **change}
    code, report = run(tmp_path, scenario, extra_args=args)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


def test_unknown_tolerance_key_exits_1_naming_it(tmp_path, capsys):
    scenario = {"command": "validate-state", "state": coherent([1.0]),
                "tolerances": {"psd": 1e-6, "pssd": 1e-3}}
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'pssd'" in err
    assert all(key in err for key in cli.DEFAULT_TOLERANCES)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literal_in_scenario_exits_1(tmp_path, capsys, literal):
    # an unused field is echoed into the report, so only strict loading refuses it
    path = tmp_path / "scenario.json"
    path.write_text('{"command": "validate-state", "note": %s, "state": %s}'
                    % (literal, json.dumps(coherent([1.0]), default=cli._json_default)))
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize("law", [
    {"kind": "gaussian", "covariance": [[1.0]]},
    {"kind": "gaussian", "mean": [0.0]},
    {"kind": "coherent", "u0": [[1.0, 0.0]]},
    {"kind": "kernel", "z": [[1.0, 0.0]]},
    {"kind": "levy", "H": [[[1.0, 0.0]]]},
], ids=["mean", "covariance", "us", "kernel", "u"])
def test_law_missing_field_exits_1(tmp_path, capsys, law):
    code, report = run(tmp_path, {"command": "sample-field", "law": law, "count": 10})
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing required field" in err


def test_non_finite_result_exits_2_without_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.HANDLERS, "validate-state",
                        lambda scenario, ctx: ({"value": float("nan")}, [], {}))
    code, report = run(tmp_path, {"command": "validate-state"})
    assert code == 2 and report is None
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


def test_report_is_one_line_of_strict_json(tmp_path):
    scenario = {"command": "weyl", "state": coherent([0.5]),
                "z": [[[0.3, 0.4]]]}
    code, _ = run(tmp_path, scenario)
    assert code == 0
    text = (tmp_path / "report.json").read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert strict_json(text)["results"]["values"][0]["z"] == [[0.3, 0.4]]


@pytest.mark.parametrize("blocker, out", [
    ("out", "out"), ("file", "file/out"), ("out/traj.csv/", "out"), ("out/report.json/", "out"),
], ids=["out-is-file", "out-below-file", "csv-is-dir", "report-is-dir"])
def test_output_errors_exit_1_without_report(tmp_path, capsys, blocker, out):
    if blocker.endswith("/"):
        (tmp_path / blocker).mkdir(parents=True)
    else:
        (tmp_path / blocker).write_text("x")
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": coherent([0.5]), "times": [0.0, 0.5],
                "csv": "traj.csv"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario, default=cli._json_default))
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not any(p.is_file() and (p.name == "report.json" or p.suffix == ".tmp")
                   for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("scenario, field", [
    ({"command": "evolve", "pair": attenuation_pair_dict(),
      "state": coherent([0.5]), "times": 1}, "'times'"),
    ({"command": "verify-oracle", "pair": attenuation_pair_dict(),
      "state": coherent([0.5]), "times": 0.5}, "'times'"),
    ({"command": "weyl", "state": coherent([0.5]), "z": 1}, "'z'"),
    ({"command": "sample-field", "count": 10,
      "law": {"kind": "kernel", "kernel": 1, "z": [[1.0, 0.0]]}}, "kernel"),
    ({"command": "sample-field", "count": 10,
      "law": {"kind": "coherent", "u0": [[1.0, 0.0], [1.0]], "us": [[[1.0, 0.0], [0.0, 0.0]]]}},
     "'u0'"),
    ({"command": "sample-field", "count": 10,
      "law": {"kind": "levy", "H": [[[1.0, 0.0]]], "u": [[1.0, 0.0, 2.0]]}}, "'u'"),
    ({"command": "validate-state",
      "state": {"n": 1, "l": [0.0], "m": [0.0], "S": [[0.5, 0.0], [0.0]]}}, "'S'"),
    ({"command": "sample-field", "count": 10,
      "law": {"kind": "gaussian", "mean": [0.0], "covariance": [1.0]}}, "'covariance'"),
    ({"command": "sample-field", "count": 10,
      "law": {"kind": "kernel", "z": [[1.0, 0.0], [0.0, 0.0]],
              "kernel": {"points": [0, 1], "K": [[1.0, 0.5], [0.5, 1.0]], "group": [[1, 0.5]]}}},
     "'group'"),
], ids=["evolve-times", "oracle-times", "weyl-z", "kernel", "ragged-u0", "triple-u",
        "ragged-S", "flat-covariance", "fractional-group"])
def test_bad_field_error_names_the_field(tmp_path, capsys, scenario, field):
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "not iterable" not in err and "not subscriptable" not in err
    assert "inhomogeneous" not in err


@pytest.mark.parametrize("exc, code", [
    (cli.SchemaError("bad"), 1), (ValueError("bad"), 1), (TypeError("bad"), 1),
    (fock.LeakageError("leaks"), 1), (FileExistsError("exists"), 1),
    (RuntimeError("drift"), 2), (PropagatorOverflowError("overflows"), 2),
    (fock.DimensionCapError("too big"), 4),
    (fields.SampleCapError("too many"), 4),
    (ito.ColourCapError("too many"), 4),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_is_set_by_the_most_derived_listed_class(tmp_path, capsys, monkeypatch,
                                                           exc, code):
    def handler(scenario, ctx):
        raise exc
    monkeypatch.setitem(cli.HANDLERS, "validate-state", handler)
    assert run(tmp_path, {"command": "validate-state"}) == (code, None)
    assert capsys.readouterr().err.startswith("error: ")


def test_undecodable_scenario_exits_3(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot read scenario")


OVERFLOWING = ["1e999", "-1e999", "1" + "0" * 400]


def _sample_gaussian(mean):
    return '{"command": "sample-field", "count": 10, "law": {"kind": "gaussian", ' \
           '"mean": [%s], "covariance": [[1.0]]}}' % mean


def _validate_state(m):
    return '{"command": "validate-state", "state": {"n": 1, "l": [0.0], "m": [%s], ' \
           '"S": [[0.5, 0.0], [0.0, 0.5]]}}' % m


@pytest.mark.parametrize("literal", OVERFLOWING, ids=["1e999", "-1e999", "400-digit-int"])
@pytest.mark.parametrize("template", [_sample_gaussian, _validate_state],
                         ids=["law-mean", "state-m"])
def test_number_beyond_float_range_exits_1(tmp_path, capsys, literal, template):
    path = tmp_path / "scenario.json"
    path.write_text(template(literal))
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: number ") and "not a finite float" in err
    assert len(err) < 200
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize("component, shown", [(None, "null"), ("0.3", "str"), (True, "bool")],
                         ids=["null", "string", "bool"])
def test_non_number_in_a_complex_field_exits_1_naming_it(tmp_path, capsys, component, shown):
    scenario = {"command": "weyl", "state": coherent([0.5]),
                "z": [[[0.3, component]]]}
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    assert capsys.readouterr().err == f"error: 'z' must hold numbers, got {shown}\n"


def test_null_in_law_mean_exits_1_naming_mean(tmp_path, capsys):
    code, report = run(tmp_path, {"command": "sample-field", "count": 10,
                                  "law": {"kind": "gaussian", "mean": [None],
                                          "covariance": [[1.0]]}})
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith("error: 'mean' must hold numbers, got null")


_GAUSSIAN_LAW = {"kind": "gaussian", "mean": [0.0], "covariance": [[1.0]]}


@pytest.mark.parametrize("scenario, field", [
    ({"command": "evolve", "pair": attenuation_pair_dict(),
      "state": coherent([0.5]), "times": [0.1, None]}, "'times'"),
    ({"command": "verify-oracle", "pair": attenuation_pair_dict(),
      "state": coherent([0.5]), "times": ["0.1"]}, "'times'"),
    ({"command": "verify-oracle", "pair": attenuation_pair_dict(),
      "state": coherent([0.5]), "times": [0.1], "steps": None}, "'steps'"),
    ({"command": "ito-table", "table": "quadrature", "d": None}, "'d'"),
    ({"command": "ito-table", "table": "poisson", "i": None}, "'i'"),
    ({"command": "ito-table", "table": "poisson", "i": 1, "j": [1]}, "'j'"),
    ({"command": "ito-table", "table": "poisson", "intensities": [1.0, None, 2.0]},
     "'intensities'"),
    ({"command": "ito-table", "table": "poisson", "i": 1, "j": 2,
      "intensities": [1.0, 5.0, 2.0]}, "'intensities'"),
    ({"command": "ito-table", "table": "poisson", "i": 1, "j": 1,
      "intensities": [1.0, 7.0]}, "'intensities'"),
    ({"command": "sample-field", "law": _GAUSSIAN_LAW, "count": None}, "'count'"),
    ({"command": "sample-field", "law": _GAUSSIAN_LAW, "count": 10, "seed": None}, "'seed'"),
    ({"command": "validate-state", "state": coherent([0.5]),
      "cutoff": True}, "'cutoff'"),
    ({"command": "decompose",
      "pair": {"n": True, "K": [[-0.5, 0.0], [0.0, -0.5]], "C": [[1.0, 0.0], [0.0, 1.0]]}},
     "'n'"),
    ({"command": "decompose",
      "pair": {"n": 1, "K": [[-0.5, None], [0.0, -0.5]], "C": [[1.0, 0.0], [0.0, 1.0]]}},
     "'K'"),
    ({"command": "validate-state",
      "state": {"n": 1, "l": ["0.0"], "m": [0.0], "S": [[0.5, 0.0], [0.0, 0.5]]}}, "'l'"),
    ({"command": "validate-state",
      "state": {"n": 1, "l": [0.0], "m": [True], "S": [[0.5, 0.0], [0.0, 0.5]]}}, "'m'"),
], ids=["times-null", "oracle-times-string", "steps", "d", "i", "j", "intensities",
        "three-intensities", "two-intensities-one-colour", "count", "seed", "cutoff-bool",
        "pair-n-bool", "pair-K-null", "state-l-string", "state-m-bool"])
def test_null_or_non_number_in_a_scalar_field_exits_1_naming_it(tmp_path, capsys,
                                                                scenario, field):
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must hold numbers")
    assert "float()" not in err and "int()" not in err


@pytest.mark.parametrize("scenario, field", [
    ({"command": "sample-field", "law": _GAUSSIAN_LAW, "count": 2.9}, "'count'"),
    ({"command": "sample-field", "law": _GAUSSIAN_LAW, "count": 10, "seed": 1.5}, "'seed'"),
    ({"command": "ito-table", "table": "quadrature", "d": 2.5}, "'d'"),
    ({"command": "verify-oracle", "pair": attenuation_pair_dict(),
      "state": coherent([0.5]), "times": [0.1], "cutoff": 12.5}, "'cutoff'"),
    ({"command": "verify-oracle", "pair": attenuation_pair_dict(),
      "state": coherent([0.5]), "times": [0.1], "steps": 100.5}, "'steps'"),
    ({"command": "validate-state",
      "state": {"n": 1.9, "l": [0.0], "m": [0.0], "S": [[0.5, 0.0], [0.0, 0.5]]}}, "'n'"),
], ids=["count", "seed", "d", "cutoff", "steps", "state-n"])
def test_fraction_in_an_integer_field_exits_1_naming_it(tmp_path, capsys, scenario, field):
    code, report = run(tmp_path, scenario)
    assert code == 1 and report is None
    assert capsys.readouterr().err.startswith(f"error: {field} must hold integers")


def test_integral_float_in_an_integer_field_is_read_as_int(tmp_path):
    code, report = run(tmp_path, {"command": "sample-field", "law": _GAUSSIAN_LAW,
                                  "count": 3.0, "seed": 4.0})
    assert code in (0, 2)
    assert report["results"]["count"] == 3 and report["seed"] == 4
    assert isinstance(report["results"]["count"], int)


@pytest.mark.parametrize("count", [1, 0])
@pytest.mark.parametrize("law", [_GAUSSIAN_LAW, {"kind": "levy", "H": [[[1.0, 0.0]]],
                                                 "u": [[1.0, 0.0]]}], ids=["gaussian", "levy"])
def test_sample_field_with_fewer_than_two_draws_exits_1_naming_count(tmp_path, capsys, law,
                                                                     count):
    # the empirical (co)variance needs two draws
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run(tmp_path, {"command": "sample-field", "law": law, "count": count})
    assert code == 1 and report is None and caught == []
    assert capsys.readouterr().err == f"error: 'count' must be at least 2, got {count}\n"


def test_sample_count_above_the_cap_exits_4(tmp_path, capsys):
    scenario = {"command": "sample-field", "count": 10**15,
                "law": {"kind": "gaussian", "mean": [0.0], "covariance": [[1.0]]}}
    code, report = run(tmp_path, scenario)
    assert code == 4 and report is None
    assert capsys.readouterr().err.startswith("error: ")


def test_quadrature_table_above_the_colour_cap_exits_4(tmp_path, capsys):
    start = time.perf_counter()
    code, report = run(tmp_path, {"command": "ito-table", "table": "quadrature",
                                  "d": ito.COLOUR_CAP + 1})
    assert time.perf_counter() - start < 1.0
    assert code == 4 and report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(ito.COLOUR_CAP) in err


@pytest.mark.parametrize("steps", [0, -5])
def test_verify_oracle_with_fewer_than_one_step_exits_1_naming_steps(tmp_path, capsys, steps):
    scenario = {"command": "verify-oracle", "pair": attenuation_pair_dict(),
                "state": coherent([0.5]), "times": [0.1], "cutoff": 8, "steps": steps}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run(tmp_path, scenario)
    assert code == 1 and report is None and caught == []
    assert capsys.readouterr().err == f"error: 'steps' must be at least 1, got {steps}\n"


@pytest.mark.parametrize("value, cast, expected", [
    (np.int64(7), int, 7), (np.int64(7), float, 7.0), (np.float32(0.25), float, 0.25),
    (np.float64(-1.5), float, -1.5), (np.float64(3.0), int, 3),
], ids=["int64-int", "int64-float", "float32", "float64", "float64-int"])
def test_number_accepts_numpy_scalars(value, cast, expected):
    read = cli._number(value, "x", cast)
    assert read == expected and type(read) is cast


@pytest.mark.parametrize("value, shown", [(True, "bool"), (np.bool_(True), "bool"),
                                          (None, "null"), ("1.0", "str")],
                         ids=["bool", "numpy-bool", "null", "string"])
@pytest.mark.parametrize("cast", [float, int])
def test_number_refuses_what_is_not_a_number(value, shown, cast):
    with pytest.raises(cli.SchemaError) as caught:
        cli._number(value, "x", cast)
    assert str(caught.value) == f"'x' must hold numbers, got {shown}"


# --- fuzz ---------------------------------------------------------------------
# schema-shaped scenarios for every command, with entries anywhere in the float
# range, the scalars of admissible pairs and the times also moderate, scenario
# tolerances and the three override flags

_NUM = st.floats(allow_nan=False, allow_infinity=False)
_SCALAR = st.one_of(st.floats(-2.0, 2.0), _NUM)
_TOL = st.one_of(st.floats(1e-15, 1.0), _NUM)


def _vec(size, num=_NUM):
    return st.lists(num, min_size=size, max_size=size)


def _mat(size):
    return st.lists(_vec(size), min_size=size, max_size=size)


def _cvec(size, num=_NUM):
    return st.lists(_vec(2, num), min_size=size, max_size=size)


def _cmat(size):
    return st.lists(_cvec(size), min_size=size, max_size=size)


def _diagonal(values):
    """The diagonal matrix of |values|."""
    return [[abs(x) if i == j else 0.0 for j in range(len(values))] for i, x in enumerate(values)]


@st.composite
def _state(draw, n):
    """Arbitrary moments, or a coherent state (S = I/2) at moderate means."""
    if draw(st.booleans()):
        return {"n": n, "l": draw(_vec(n)), "m": draw(_vec(n)), "S": draw(_mat(2 * n))}
    return {"n": n, "l": draw(_vec(n, _SCALAR)), "m": draw(_vec(n, _SCALAR)),
            "S": _diagonal([0.5] * (2 * n))}


@st.composite
def _pair(draw, n):
    """Arbitrary (K, C), or the admissible K = -g I + a J, C = c I with c >= 2|g|."""
    if draw(st.booleans()):
        return {"n": n, "K": draw(_mat(2 * n)), "C": draw(_mat(2 * n))}
    g, a, extra = draw(_SCALAR), draw(_SCALAR), draw(_SCALAR)
    J = symplectic_form(n)
    return {"n": n, "K": [[-g * (i == j) + a * J[i, j] for j in range(2 * n)]
                          for i in range(2 * n)],
            "C": _diagonal([min(2 * abs(g) + abs(extra), sys.float_info.max)] * (2 * n))}


@st.composite
def _law(draw):
    """A law of each kind, arbitrary or built to be valid: a diagonal
    covariance, kernel or H, and smearing vectors on one complex line."""
    kind = draw(st.sampled_from(["gaussian", "coherent", "kernel", "levy"]))
    size = draw(st.integers(1, 3))
    if not draw(st.booleans()):
        diagonal = _diagonal(draw(_vec(size, _SCALAR)))
        if kind == "gaussian":
            return {"kind": kind, "mean": draw(_vec(size, _SCALAR)), "covariance": diagonal}
        if kind == "coherent":
            line = draw(_cvec(size, _SCALAR))
            us = [[[c * re, c * im] for re, im in line]
                  for c in draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=3))]
            return {"kind": kind, "u0": draw(_cvec(size, _SCALAR)), "us": us}
        if kind == "kernel":
            kernel = {"points": list(range(size)), "K": diagonal}
            return {"kind": kind, "kernel": kernel, "z": draw(_cvec(size, _SCALAR))}
        H = [[[x, 0.0] for x in row] for row in diagonal]
        return {"kind": kind, "H": H, "u": draw(_cvec(size, _SCALAR))}
    if kind == "gaussian":
        return {"kind": kind, "mean": draw(_vec(size)), "covariance": draw(_mat(size))}
    if kind == "coherent":
        return {"kind": kind, "u0": draw(_cvec(size)), "family": draw(st.sampled_from("pq")),
                "us": draw(st.lists(_cvec(size), min_size=1, max_size=3))}
    if kind == "kernel":
        kernel = {"points": list(range(size)), "K": draw(_mat(size)),
                  "group": draw(st.lists(st.permutations(range(size)), max_size=2))}
        return {"kind": kind, "kernel": kernel, "z": draw(_cvec(size))}
    return {"kind": kind, "H": draw(_cmat(size)), "u": draw(_cvec(size))}


@st.composite
def _scenario(draw):
    command = draw(st.sampled_from(cli.COMMANDS))
    n = draw(st.integers(1, 2))
    times = st.lists(st.one_of(st.floats(0.0, 2.0), _SCALAR), min_size=1, max_size=3)
    scenario = {"command": command, "seed": draw(st.integers(0, 2**32))}
    if command == "validate-state":
        scenario["state"] = draw(_state(n))
    elif command == "evolve":
        scenario.update(pair=draw(_pair(n)), state=draw(_state(n)), times=draw(times),
                        csv=draw(st.sampled_from(["", "traj.csv"])))
    elif command == "weyl":
        scenario.update(state=draw(_state(n)), z=draw(st.lists(_cvec(n), max_size=3)))
    elif command in ("decompose", "dilate"):
        scenario["pair"] = draw(_pair(n))
    elif command == "verify-oracle":
        scenario.update(pair=draw(_pair(n)), state=draw(_state(n)), times=draw(times),
                        steps=draw(st.integers(-1, 50)), cutoff=draw(st.integers(0, 8)))
    elif command == "ito-table":
        scenario.update(table=draw(st.sampled_from(["quadrature", "poisson", "other"])),
                        d=draw(st.integers(-1, 5)), i=draw(st.integers(0, 3)),
                        j=draw(st.integers(0, 3)), intensities=draw(st.lists(_NUM, max_size=2)))
    elif command == "unitarity":
        dim, channels = draw(st.integers(1, 2)), draw(st.integers(0, 2))
        scenario.update(H=draw(_cmat(dim)), L=draw(st.lists(_cmat(dim), min_size=channels,
                                                            max_size=channels)),
                        S=draw(_cmat(dim * channels)))
        if draw(st.booleans()):
            scenario["X"] = draw(_cmat(dim))
    else:
        scenario.update(law=draw(_law()), count=draw(st.integers(0, 50)),
                        csv=draw(st.sampled_from(["", "draws.csv"])))
    keys = st.sampled_from(sorted(cli.DEFAULT_TOLERANCES))
    tolerances = draw(st.one_of(st.none(), st.dictionaries(keys, _TOL, max_size=2)))
    if tolerances is not None:
        scenario["tolerances"] = tolerances
    return scenario


_FLAGS = st.lists(st.one_of(st.tuples(st.just("--tol"), _TOL.map(repr)),
                            st.tuples(st.just("--seed"), st.integers(-1, 2**32).map(str)),
                            st.tuples(st.just("--cutoff"), st.integers(0, 6).map(str))),
                  max_size=2)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(scenario=_scenario(), flags=_FLAGS)
def test_fuzz_every_command_exits_by_the_table_without_warnings(scenario, flags):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "scenario.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh, allow_nan=False)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(["--scenario", path, "--out", out,
                             *[arg for flag in flags for arg in flag]])
        assert code in (0, 1, 2, 3, 4)
        assert [str(w.message) for w in caught] == []
        assert (code in (0, 2)) or err.getvalue().startswith("error: ")
        report = os.path.join(out, "report.json")
        if os.path.exists(report):
            with open(report) as fh:
                strict_json(fh.read())
