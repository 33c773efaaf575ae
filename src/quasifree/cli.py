"""Batch scenario runner.

Reads a JSON scenario file, dispatches to the library, and writes a JSON
report (plus optional CSV artifacts) into the output directory.  There is no
interactive mode: users are expected to script batch verifications.

Exit codes: 0 success, 1 input/validation failure, 2 numerical-check
failure, 3 malformed JSON, 4 dimension cap exceeded.

Flags: --scenario PATH, --out DIR, --seed N, --cutoff N, --tol X.  Each flag
falls back to the environment variable QFL_<NAME>, then to the scenario
file, then to a built-in default.  Complex scalars are encoded as [re, im]
pairs everywhere in scenario files and reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__, fields, fock, gaussian, ito, semigroup, synthesis

__all__ = ["main", "run_scenario", "SchemaError"]

COMMANDS = ("validate-state", "evolve", "weyl", "decompose", "dilate",
            "verify-oracle", "ito-table", "unitarity", "sample-field")

DEFAULT_TOLERANCES = {
    "psd": 1e-9,
    "oracle": 1e-5,
    "unitarity": 1e-12,
    "rank": 1e-10,
    "reconstruction": 1e-8,
    "symplectic": 1e-10,
}

# which tolerance the --tol flag overrides, per command
PRIMARY_TOL = {
    "validate-state": "psd",
    "evolve": "psd",
    "weyl": "psd",
    "decompose": "rank",
    "dilate": "rank",
    "verify-oracle": "oracle",
    "ito-table": "unitarity",
    "unitarity": "unitarity",
    "sample-field": "psd",
}


class SchemaError(ValueError):
    """Scenario file does not match the expected schema."""


def _require(scenario, key):
    if key not in scenario:
        raise SchemaError(f"scenario is missing required field {key!r}")
    return scenario[key]


def _complex_vector(data):
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SchemaError("complex vectors are encoded as [[re, im], ...]")
    return arr[:, 0] + 1j * arr[:, 1]


def _complex_matrix(data):
    rows = [_complex_vector(row) for row in data]
    return np.asarray(rows)


def _jsonable(obj):
    """Recursively convert to JSON-serializable values (complex -> [re, im])."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_state(scenario):
    data = _require(scenario, "state")
    try:
        return gaussian.state_from_dict(data)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad state payload: {exc}") from exc


def _load_pair(scenario):
    data = _require(scenario, "pair")
    try:
        return semigroup.pair_from_dict(data)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad pair payload: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, passed flag, artifacts dict)


def _cmd_validate_state(scenario, ctx):
    state = _load_state(scenario)
    diag = gaussian.validate(state, tol=ctx["tolerances"]["psd"])
    results = {"is_valid": diag.is_valid,
               "min_eigenvalue": diag.min_eigenvalue,
               "symmetry_defect": diag.symmetry_defect}
    return results, diag.is_valid, {}


def _cmd_evolve(scenario, ctx):
    pair = _load_pair(scenario)
    state = _load_state(scenario)
    times = [float(t) for t in _require(scenario, "times")]
    trajectory = []
    moments = []
    all_valid = True
    for t in times:
        out = semigroup.evolve_state(state, pair, t)
        diag = gaussian.validate(out, tol=ctx["tolerances"]["psd"])
        all_valid = all_valid and diag.is_valid
        trajectory.append({"t": t, "state": gaussian.state_to_dict(out),
                           "is_valid": diag.is_valid,
                           "min_eigenvalue": diag.min_eigenvalue})
        moments.append((out.l, out.m, out.S))
    artifacts = {}
    results = {"trajectory": trajectory, "all_valid": all_valid}
    csv_name = scenario.get("csv")
    if csv_name:
        path = os.path.join(ctx["out"], csv_name)
        results["csv_columns"] = fock.write_moment_csv(path, times, moments)
        artifacts["csv"] = csv_name
    return results, all_valid, artifacts


def _cmd_weyl(scenario, ctx):
    state = _load_state(scenario)
    zs = [_complex_vector(z) for z in _require(scenario, "z")]
    values = []
    passed = True
    for z in zs:
        val = gaussian.weyl_transform(state, z, tol=ctx["tolerances"]["psd"])
        passed = passed and abs(val) <= 1.0 + 1e-12
        values.append({"z": z, "value": val, "magnitude": abs(val)})
    return {"values": values}, passed, {}


def _decompose_results(pair, ctx):
    spec = synthesis.decompose(pair.K, pair.C, rank_tol=ctx["tolerances"]["rank"])
    res = synthesis.reconstruction_residuals(spec)
    passed = (max(res.k_residual, res.c_residual) <= ctx["tolerances"]["reconstruction"]
              and res.symplectic_residual <= ctx["tolerances"]["symplectic"])
    return spec, res, passed


def _cmd_decompose(scenario, ctx):
    pair = _load_pair(scenario)
    spec, res, passed = _decompose_results(pair, ctx)
    results = {"spec": synthesis.spec_to_dict(spec), "residuals": res}
    return results, passed, {}


def _cmd_dilate(scenario, ctx):
    pair = _load_pair(scenario)
    spec, res, passed = _decompose_results(pair, ctx)
    return {"report": synthesis.dilation_report(spec)}, passed, {}


def _cmd_verify_oracle(scenario, ctx):
    pair = _load_pair(scenario)
    state = _load_state(scenario)
    times = [float(t) for t in _require(scenario, "times")]
    cutoff = ctx["cutoff"]
    steps_per_unit = int(scenario.get("steps", 2000))
    tol = ctx["tolerances"]["oracle"]
    reports = []
    passed = True
    for t in times:
        steps = max(1, int(np.ceil(steps_per_unit * max(t, 1e-3))))
        rep = fock.oracle_compare(state, pair, t, cutoff=cutoff, steps=steps,
                                  seed=ctx["seed"])
        reports.append(rep)
        passed = passed and rep.max_error <= tol
    return {"comparisons": reports, "tolerance": tol}, passed, {}


def _cmd_ito_table(scenario, ctx):
    kind = scenario.get("table", "quadrature")
    if kind in ("quadrature", "brownian"):
        d = int(scenario.get("d", 1))
        check = ito.quadrature_table(d)
    elif kind == "poisson":
        i = int(scenario.get("i", 1))
        j = int(scenario.get("j", i))
        lam = scenario.get("intensities", [1.0, 1.0])
        check = ito.poisson_table(i, j, float(lam[0]), float(lam[-1]))
    else:
        raise SchemaError(f"unknown table kind {kind!r}")
    return {"kind": kind, "ok": check.ok, "text": check.text}, check.ok, {}


def _cmd_unitarity(scenario, ctx):
    H = _complex_matrix(_require(scenario, "H"))
    L = [_complex_matrix(m) for m in scenario.get("L", [])]
    if L:
        S = _complex_matrix(_require(scenario, "S"))
    else:
        S = np.zeros((0, 0), dtype=complex)
    coeffs = ito.hp_coefficients(S, L, H)
    residual = ito.unitarity_residual(coeffs)
    tol = ctx["tolerances"]["unitarity"]
    ok = residual <= tol
    results = {"unitary": ok, "residual": residual, "tolerance": tol,
               "noise_channels": coeffs.d, "system_dimension": coeffs.dim}
    if "X" in scenario:
        X = _complex_matrix(scenario["X"])
        theta = ito.flow_generator(S, L, H, X)
        results["flow"] = {f"theta[{a}][{b}]": mat for (a, b), mat in sorted(theta.items())}
    return results, ok, {}


def _field_law(scenario):
    law = _require(scenario, "law")
    kind = law.get("kind")
    if kind == "gaussian":
        return fields.FieldLaw(mean=np.asarray(law["mean"], dtype=float),
                               covariance=np.asarray(law["covariance"], dtype=float))
    if kind == "coherent":
        u0 = _complex_vector(law["u0"])
        us = [_complex_vector(u) for u in law["us"]]
        return fields.coherent_gaussian_field(u0, us, family=law.get("family", "p"))
    if kind == "kernel":
        model = fields.kernel_model_from_dict(law["kernel"])
        z = _complex_vector(law["z"])
        var = fields.vacuum_field_variance(z, model)
        return fields.FieldLaw(mean=np.zeros(1), covariance=np.array([[var]]))
    if kind == "levy":
        H = _complex_matrix(law["H"])
        u = _complex_vector(law["u"])
        return fields.levy_law(H, u)
    raise SchemaError(f"unknown law kind {kind!r}")


def _cmd_sample_field(scenario, ctx):
    law = _field_law(scenario)
    count = int(scenario.get("count", 10000))
    draws = fields.sample(law, count, seed=ctx["seed"])
    artifacts = {}
    csv_name = scenario.get("csv")
    if csv_name:
        path = os.path.join(ctx["out"], csv_name)
        data = draws if draws.ndim == 2 else draws[:, None]
        header = ",".join(f"x{j+1}" for j in range(data.shape[1]))
        np.savetxt(path, data, delimiter=",", header=header, comments="")
        artifacts["csv"] = csv_name
    results = {"count": count}
    if isinstance(law, fields.FieldLaw):
        emp_mean = draws.mean(axis=0)
        emp_cov = np.cov(draws.T, ddof=1).reshape(law.mean.size, law.mean.size)
        sigma = np.sqrt(np.maximum(np.diag(law.covariance), 1e-300) / count)
        band = 5.0 * sigma
        within = bool(np.all(np.abs(emp_mean - law.mean) <= band))
        results.update({"law_mean": law.mean, "law_covariance": law.covariance,
                        "empirical_mean": emp_mean, "empirical_covariance": emp_cov,
                        "mean_band_5sigma": band, "within_bands": within})
        results["csv_columns"] = [f"x{j+1}" for j in range(law.mean.size)]
    else:
        within = (abs(draws.mean() - law.mean) <=
                  5.0 * np.sqrt(max(law.variance, 1e-300) / count))
        results.update({"atoms": list(law.atoms),
                        "law_mean": law.mean, "law_variance": law.variance,
                        "empirical_mean": float(draws.mean()),
                        "empirical_variance": float(draws.var(ddof=1)),
                        "within_bands": bool(within)})
        results["csv_columns"] = ["x1"]
    return results, bool(within), artifacts


HANDLERS = {
    "validate-state": _cmd_validate_state,
    "evolve": _cmd_evolve,
    "weyl": _cmd_weyl,
    "decompose": _cmd_decompose,
    "dilate": _cmd_dilate,
    "verify-oracle": _cmd_verify_oracle,
    "ito-table": _cmd_ito_table,
    "unitarity": _cmd_unitarity,
    "sample-field": _cmd_sample_field,
}


def run_scenario(scenario: dict, out_dir: str, seed=None, cutoff=None, tol=None):
    """Execute one scenario dict; returns (report dict, exit code)."""
    command = _require(scenario, "command")
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}; expected one of {COMMANDS}")
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in scenario.get("tolerances", {}).items():
        if float(value) <= 0:
            raise SchemaError(f"tolerance {key!r} must be positive")
        tolerances[key] = float(value)
    if tol is not None:
        tolerances[PRIMARY_TOL[command]] = float(tol)
    ctx = {
        "out": out_dir,
        "seed": int(seed if seed is not None else scenario.get("seed", 0)),
        "cutoff": int(cutoff if cutoff is not None else scenario.get("cutoff", 30)),
        "tolerances": tolerances,
    }
    results, passed, artifacts = HANDLERS[command](scenario, ctx)
    report = {
        "library": {"name": "quasifree", "version": __version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "inputs": {k: v for k, v in scenario.items() if k != "command"},
        "seed": ctx["seed"],
        "cutoff": ctx["cutoff"],
        "tolerances": tolerances,
        "results": results,
        "artifacts": artifacts,
        "passed": bool(passed),
    }
    return report, 0 if passed else 2


def _env(name, cast, default=None):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise SchemaError(f"environment variable {name} has bad value {raw!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qfl",
        description="Run a quasifree-dynamics scenario file and emit a JSON report.")
    parser.add_argument("--scenario", help="path to the scenario JSON file")
    parser.add_argument("--out", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, help="RNG seed override")
    parser.add_argument("--cutoff", type=int, help="Fock cutoff override")
    parser.add_argument("--tol", type=float, help="primary tolerance override")
    args = parser.parse_args(argv)

    try:
        scenario_path = args.scenario or _env("QFL_SCENARIO", str)
        if not scenario_path:
            print("error: no scenario file given (use --scenario or QFL_SCENARIO)",
                  file=sys.stderr)
            return 1
        out_dir = args.out or _env("QFL_OUT", str) or "."
        seed = args.seed if args.seed is not None else _env("QFL_SEED", int)
        cutoff = args.cutoff if args.cutoff is not None else _env("QFL_CUTOFF", int)
        tol = args.tol if args.tol is not None else _env("QFL_TOL", float)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        with open(scenario_path) as fh:
            scenario = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 3
    if not isinstance(scenario, dict):
        print("error: scenario must be a JSON object", file=sys.stderr)
        return 3

    os.makedirs(out_dir, exist_ok=True)
    try:
        report, code = run_scenario(scenario, out_dir, seed=seed, cutoff=cutoff, tol=tol)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except fock.DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except fock.LeakageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # a numerical check inside the library refused, e.g. oracle trace drift
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report_name = scenario.get("report", "report.json")
    path = os.path.join(out_dir, report_name)
    _atomic_write(path, json.dumps(_jsonable(report), indent=2) + "\n")
    status = "ok" if code == 0 else "FAILED"
    print(f"{report['command']}: {status} (report: {path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
