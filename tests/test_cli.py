import csv
import dataclasses
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from quasifree import cli, fields, fock
from quasifree.gaussian import coherent
from quasifree.semigroup import QuasifreePair, evolve_state
from quasifree.symplectic import PropagatorOverflowError

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
    assert abs(report["results"]["min_eigenvalue"] - (-0.5)) < 1e-9


def test_evolve_writes_trajectory_csv(tmp_path):
    times = [0.0, 0.25, 0.5, 1.0]
    scenario = {"command": "evolve", "pair": attenuation_pair_dict(),
                "state": coherent([1.0 - 0.3j]),
                "times": times, "csv": "traj.csv"}
    code, report = run(tmp_path, scenario)
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "traj.csv")))
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
    assert report["results"]["all_valid"] is True


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


def test_weyl_command(tmp_path):
    scenario = {"command": "weyl", "state": coherent([0.5]),
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
                "state": coherent([1.0]),
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
                "state": coherent([1.0]),
                "times": [400], "cutoff": 25, "steps": 1}
    code, report = run(tmp_path, scenario)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trace drift" in err and "Traceback" not in err


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
    law = scenario["law"]
    draws = fields.sample(fields.FieldLaw(mean=law["mean"], covariance=law["covariance"]),
                          20000, seed=3)
    np.savetxt(tmp_path / "ref.csv", draws, delimiter=",", header="x1,x2", comments="")
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


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    scenario = {"command": "sample-field",
                "law": {"kind": "gaussian", "mean": [0.0], "covariance": [[1.0]]},
                "count": 1000, "seed": 42}
    _, first = run(tmp_path, scenario, name="a.json")
    _, second = run(tmp_path, scenario, name="b.json")
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


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
    with pytest.raises(TypeError):
        cli._json_default(object())


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("rows", [1023, 1024, 1025, 5000])
def test_sample_csv_matches_savetxt(tmp_path, rows, cols):
    data = rng(rows + cols).normal(size=(rows, cols)) * 10.0 ** rng(7).integers(-300, 300, cols)
    columns = [f"x{j + 1}" for j in range(cols)]
    np.savetxt(tmp_path / "ref.csv", data, delimiter=",", header=",".join(columns), comments="")
    cli._write_csv(tmp_path / "out.csv", columns, data, "%.18e", "\n")
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
                        lambda scenario, ctx: ({"value": float("nan")}, True, {}))
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
], ids=["times-null", "oracle-times-string", "steps", "d", "i", "j", "intensities", "count",
        "seed", "cutoff-bool", "pair-n-bool", "pair-K-null", "state-l-string",
        "state-m-bool"])
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


def test_sample_count_above_the_cap_exits_4(tmp_path, capsys):
    scenario = {"command": "sample-field", "count": 10**15,
                "law": {"kind": "gaussian", "mean": [0.0], "covariance": [[1.0]]}}
    code, report = run(tmp_path, scenario)
    assert code == 4 and report is None
    assert capsys.readouterr().err.startswith("error: ")
