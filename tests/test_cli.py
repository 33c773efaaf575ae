import csv
import json
from pathlib import Path

import numpy as np
import pytest

from quasifree import cli
from quasifree.gaussian import coherent, state_to_dict
from quasifree.semigroup import QuasifreePair, evolve_state, pair_to_dict

from util import rng, random_unitary


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
    path.write_text(json.dumps(scenario))
    code = cli.main(["--scenario", str(path), "--out", str(tmp_path), *extra_args])
    report_path = tmp_path / scenario.get("report", "report.json")
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report


def test_validate_state_ok(tmp_path):
    scenario = {"command": "validate-state", "state": state_to_dict(coherent([1.0]))}
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
    assert abs(report["results"]["min_eigenvalue"] - (-0.5)) < 1e-9


def test_evolve_writes_trajectory_csv(tmp_path):
    times = [0.0, 0.25, 0.5, 1.0]
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": state_to_dict(coherent([1.0])),
                "times": times, "csv": "traj.csv"}
    code, report = run(tmp_path, scenario)
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "traj.csv")))
    assert len(rows) == len(times)
    pair = QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2))
    for row, t in zip(rows, times):
        expected = evolve_state(coherent([1.0]), pair, t)
        assert abs(float(row["m1"]) - expected.m[0]) < 1e-12
        assert abs(float(row["S11"]) - expected.S[0, 0]) < 1e-12
    assert report["results"]["csv_columns"][0] == "t"


def test_evolve_long_horizon_report_is_finite(tmp_path):
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": state_to_dict(coherent([1.0])), "times": [1.0, 1e4]}
    code, _ = run(tmp_path, scenario)
    assert code == 0
    report = strict_json((tmp_path / "report.json").read_text())
    assert report["results"]["all_valid"] is True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evolve_overflowing_amplifier_exits_1_without_report(tmp_path, capsys):
    scenario = {"command": "evolve",
                "pair": {"n": 1, "K": [[0.5, 0.0], [0.0, 0.5]], "C": [[1.0, 0.0], [0.0, 1.0]]},
                "state": state_to_dict(coherent([1.0])), "times": [1.0, 3000.0]}
    code, report = run(tmp_path, scenario)
    assert code == 1
    assert report is None
    assert capsys.readouterr().err.startswith("error:")


def test_weyl_command(tmp_path):
    scenario = {"command": "weyl", "state": state_to_dict(coherent([0.5])),
                "z": [[[0.0, 0.0]], [[0.3, 0.4]]]}
    code, report = run(tmp_path, scenario)
    assert code == 0
    first = report["results"]["values"][0]["value"]
    assert first == [1.0, 0.0]
    assert all(v["magnitude"] <= 1.0 + 1e-12 for v in report["results"]["values"])


def test_decompose_command(tmp_path):
    scenario = {"command": "decompose", "pair": attenuation_pair_dict()}
    code, report = run(tmp_path, scenario)
    assert code == 0
    spec = report["results"]["spec"]
    assert len(spec["lindblad"]) == 1
    assert report["results"]["residuals"]["k_residual"] < 1e-8


def test_dilate_command(tmp_path):
    scenario = {"command": "dilate", "pair": attenuation_pair_dict()}
    code, report = run(tmp_path, scenario)
    assert code == 0
    assert report["results"]["report"]["noise_dimension"] == 1


def test_verify_oracle_command(tmp_path):
    scenario = {"command": "verify-oracle", "pair": attenuation_pair_dict(),
                "state": state_to_dict(coherent([1.0])),
                "times": [0.25], "cutoff": 25, "steps": 500}
    code, report = run(tmp_path, scenario)
    assert code == 0
    comp = report["results"]["comparisons"][0]
    assert comp["mean_error"] < 1e-5
    assert comp["cov_error"] < 1e-5
    assert comp["weyl_error"] < 1e-5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_oracle_trace_drift_exits_2_without_report(tmp_path, capsys):
    # one RK4 step per unit time cannot resolve damping at rate 9, so the
    # integrator's trace watchdog refuses
    scenario = {"command": "verify-oracle",
                "pair": {"n": 1, "K": [[-4.5, 0.0], [0.0, -4.5]], "C": [[9.0, 0.0], [0.0, 9.0]]},
                "state": state_to_dict(coherent([1.0])),
                "times": [400], "cutoff": 25, "steps": 1}
    code, report = run(tmp_path, scenario)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trace drift" in err and "Traceback" not in err


def test_verify_oracle_dimension_cap(tmp_path):
    scenario = {"command": "verify-oracle", "pair": attenuation_pair_dict(),
                "state": state_to_dict(coherent([1.0])),
                "times": [0.1], "cutoff": 5000}
    code, _ = run(tmp_path, scenario)
    assert code == 4


def test_ito_table_command(tmp_path):
    code, report = run(tmp_path, {"command": "ito-table", "table": "quadrature", "d": 2})
    assert code == 0
    assert report["results"]["ok"] is True
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
    assert report["results"]["unitary"] is True
    flow = report["results"]["flow"]["theta[0][0]"]
    flat = np.array(flow, dtype=float).ravel()
    assert np.abs(flat).max() < 1e-10


def test_sample_field_gaussian_csv(tmp_path):
    scenario = {"command": "sample-field",
                "law": {"kind": "gaussian", "mean": [1.0, -1.0],
                        "covariance": [[1.0, 0.0], [0.0, 2.0]]},
                "count": 20000, "seed": 3, "csv": "draws.csv"}
    code, report = run(tmp_path, scenario)
    assert code == 0
    assert report["results"]["within_bands"] is True
    data = np.loadtxt(tmp_path / "draws.csv", delimiter=",", skiprows=1)
    assert data.shape == (20000, 2)


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


def test_env_variable_fallback(tmp_path, monkeypatch):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"command": "validate-state",
                                "state": state_to_dict(coherent([0.0]))}))
    monkeypatch.setenv("QFL_SCENARIO", str(path))
    monkeypatch.setenv("QFL_OUT", str(tmp_path))
    assert cli.main([]) == 0
    assert (tmp_path / "report.json").exists()


def test_tol_flag_overrides_primary_tolerance(tmp_path):
    scenario = {"command": "validate-state", "state": state_to_dict(coherent([1.0]))}
    code, report = run(tmp_path, scenario, extra_args=["--tol", "1e-6"])
    assert code == 0
    assert report["tolerances"]["psd"] == 1e-6


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    scenario = {"command": "sample-field",
                "law": {"kind": "gaussian", "mean": [0.0], "covariance": [[1.0]]},
                "count": 1000, "seed": 42}
    _, first = run(tmp_path, scenario, name="a.json")
    _, second = run(tmp_path, scenario, name="b.json")
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second
