"""Batch scenario runner, and the package's one codec for files.

Reads a JSON scenario file, dispatches to the library, and writes a JSON
report (plus optional CSV artifacts) into the output directory; the report
and CSV names must be plain file names.  There is no interactive mode:
users are expected to script batch verifications.

The library modules hold only numerics; every file form lives here.
Payloads are decoded by the field readers (_require, _number, _real,
_complex): a state is {"n", "l", "m", "S"}, a pair {"n", "K", "C"}, a kernel
{"points", "K", "group"} with K all numbers or all [re, im] pairs.  Reports
are encoded by one JSON default (_json_default: arrays, dataclasses such as
GaussianState, complex values as [re, im] pairs), and both CSV artifacts,
evolve's moment trajectory and sample-field's draws, by one writer
(_write_csv).

JSON is strict both ways.  A NaN, Infinity or -Infinity literal in a
scenario file, or a number beyond float range such as 1e999, is an input
failure (exit 1); a report is one line of strict
JSON, and a result that is not finite exits 2 with no report written.
Tolerances, from the scenario or the --tol override, must be finite
numbers > 0, and the keys of "tolerances" must be those of
DEFAULT_TOLERANCES.  The scalar fields (times, d, i, j, n, steps, count,
seed, cutoff, intensities) must hold numbers, and the integer ones
integers; the real array fields (l, m, S, K, C, a Gaussian law's mean and
covariance) and the [re, im] components of the complex fields must be nested
lists of numbers, rows of one length.  A null, a bool, a string or a
fraction such as "count": 2.9 or "n": 1.9 is an input failure naming the
field.

Exit codes, one table (EXIT_CODES; the most derived class listed for an
exception decides): 0 success; 1 input or validation failure (SchemaError,
ValueError, TypeError, LeakageError, an OSError while writing output); 2 a
numerical check failed (the scenario's own check, another RuntimeError, a
propagation that overflows (PropagatorOverflowError), a non-finite report);
3 the scenario is unreadable, not JSON or not an object; 4 a size cap
(DimensionCapError, SampleCapError).  An exception prints one "error:" line
and no report.

Flags: --scenario PATH, --out DIR, --seed N, --cutoff N, --tol X.  Each flag
falls back to the environment variable QFL_<NAME>, then to the scenario
file, then to a built-in default.  Complex scalars are encoded as [re, im]
pairs everywhere in scenario files and reports, by the codec of
quasifree.symplectic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import numbers
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__, fields, fock, gaussian, ito, semigroup, synthesis
from .symplectic import (PSD_TOL, RANK_TOL, RECONSTRUCTION_TOL, SYMPLECTIC_TOL, UNITARITY_TOL,
                         PropagatorOverflowError, complex_from_pairs, complex_to_pairs)

__all__ = ["main", "run_scenario", "SchemaError", "EXIT_CODES"]

COMMANDS = ("validate-state", "evolve", "weyl", "decompose", "dilate",
            "verify-oracle", "ito-table", "unitarity", "sample-field")

DEFAULT_TOLERANCES = {
    "psd": PSD_TOL,
    "oracle": 1e-5,
    "unitarity": UNITARITY_TOL,
    "rank": RANK_TOL,
    "reconstruction": RECONSTRUCTION_TOL,
    "symplectic": SYMPLECTIC_TOL,
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

# rows per formatting pass of a CSV: one pass per block keeps the formatted
# text small next to the data
_CSV_BLOCK_ROWS = 1024


class SchemaError(ValueError):
    """Scenario file does not match the expected schema."""


class UnreadableScenario(Exception):
    """Scenario file cannot be read or decoded, is not JSON, or is not a JSON object."""


#: exception class -> exit code; the first class of an exception's MRO found
#: here decides, so a subclass may map elsewhere than its base
EXIT_CODES = {
    ValueError: 1,              # SchemaError among them
    TypeError: 1,
    fock.LeakageError: 1,
    OSError: 1,                 # writing the report or a CSV
    RuntimeError: 2,            # a check inside the library refused
    PropagatorOverflowError: 2,  # growing dynamics overflow by the requested time
    UnreadableScenario: 3,
    fock.DimensionCapError: 4,
    fields.SampleCapError: 4,
}


def _require(scenario, key, where="scenario"):
    if key not in scenario:
        raise SchemaError(f"{where} is missing required field {key!r}")
    return scenario[key]


def _tolerance(key, value):
    """A tolerance is a finite number > 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value <= sys.float_info.max):
        raise SchemaError(f"tolerance {key!r} must be a finite number > 0, got {value!r}")
    return float(value)


def _list(obj, key, where="scenario"):
    value = _require(obj, key, where)
    if not isinstance(value, list):
        raise SchemaError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


def _number(value, key, cast=float):
    """One value of the scalar or list-of-scalar field key, read as cast
    (float or int).  null, a non-number and, for an int field, a number with
    a fractional part are schema errors that name the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        shown = "null" if value is None else type(value).__name__
        raise SchemaError(f"{key!r} must hold numbers, got {shown}")
    if cast is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise SchemaError(f"{key!r} must hold integers, got {value!r}")
    return cast(value)


def _real(data, key, ndim=1):
    """Decode field key, ndim levels of nested lists of numbers, into a float
    array.  A null, a bool, a string, a ragged nesting or a non-finite value
    is a schema error naming the field."""
    def read(value, depth):
        if depth == 0:
            return _number(value, key)
        if not isinstance(value, list):
            shown = "null" if value is None else type(value).__name__
            raise SchemaError(f"{key!r} must be {'[' * ndim}numbers{']' * ndim}, got {shown}")
        return [read(v, depth - 1) for v in value]

    rows = read(data, ndim)
    try:
        arr = np.array(rows, dtype=float)
    except ValueError as exc:
        raise SchemaError(f"{key!r} must have rows of one length") from exc
    if not np.isfinite(arr).all():
        raise SchemaError(f"{key!r} must hold finite numbers")
    return arr


def _complex(data, key, ndim=1):
    """Decode the [re, im] pairs of field key into a rank-ndim complex array;
    the components are read like a real array field, so a null, a bool or a
    string is a schema error naming the field."""
    arr = _real(data, key, ndim + 1)
    try:
        return complex_from_pairs(arr, ndim)
    except ValueError as exc:
        raise SchemaError(f"{key!r}: {exc}") from exc


def _object(obj, key, where="scenario"):
    value = _require(obj, key, where)
    if not isinstance(value, dict):
        raise SchemaError(f"{key} must be a JSON object, got {type(value).__name__}")
    return value


#: payload -> (constructor, rank of each real array field); the constructor
#: takes the integer field "n" and then those arrays
_PAYLOADS = {
    "state": (gaussian.GaussianState, {"l": 1, "m": 1, "S": 2}),
    "pair": (semigroup.QuasifreePair, {"K": 2, "C": 2}),
}


def _payload(scenario, key):
    """The state or pair in the JSON object scenario[key]; an error of its
    constructor is reported as a bad key payload."""
    build, ranks = _PAYLOADS[key]
    data = _object(scenario, key)
    n = _number(_require(data, "n", key), "n", int)
    arrays = [_real(_require(data, name, key), name, ndim) for name, ndim in ranks.items()]
    try:
        return build(n, *arrays)
    except ValueError as exc:
        raise SchemaError(f"bad {key} payload: {exc}") from exc


def _kernel(law):
    """The kernel {"points": [...], "K": [[...]], "group": [[...], ...]}; the
    entries of K are all plain numbers or all [re, im] pairs."""
    data = _object(law, "kernel", "kernel law")
    points = _list(data, "points", "kernel")
    raw = _require(data, "K", "kernel")
    try:
        K = _real(raw, "K", 2)
    except SchemaError:
        K = _complex(raw, "K", 2)
    group = [[_number(i, "group", int) for i in g] for g in data.get("group", [])]
    try:
        return fields.KernelModel(points, K, group)
    except ValueError as exc:
        raise SchemaError(f"bad kernel payload: {exc}") from exc


def _json_default(obj):
    """Encode what the C JSON encoder cannot: arrays, dataclasses, complex, numpy scalars."""
    if isinstance(obj, np.ndarray) and not np.iscomplexobj(obj):
        return obj.tolist()
    if isinstance(obj, (np.ndarray, complex, np.complexfloating)):
        return complex_to_pairs(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"cannot encode {type(obj).__name__} in a report")


def _finite(cast):
    """JSON number hook: cast the literal, refusing NaN, Infinity and anything
    beyond float range (1e999 would read as inf, a 400-digit integer overflow
    later)."""
    def parse(literal):
        value = cast(literal)
        if not abs(value) <= sys.float_info.max:
            shown = literal if len(literal) <= 24 else literal[:20] + "..."
            raise SchemaError(f"number {shown} in scenario file is not a finite float")
        return value
    return parse


def _write_csv(path, columns, rows, fmt, line_end):
    """Write the header and the rows of a 2-D float array, fields formatted
    by fmt and lines ended by line_end, one pass per block of _CSV_BLOCK_ROWS
    rows.  ("%r", "\r\n") gives csv.writer's bytes for repr'd floats,
    ("%.18e", "\n") np.savetxt's with delimiter "," and comments ""."""
    row_fmt = ",".join([fmt] * len(columns)) + line_end
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + line_end)
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


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


def _check_artifact_names(scenario):
    """Refuse report and csv names that could leave the output directory."""
    for key in ("report", "csv"):
        if key not in scenario or (key == "csv" and not scenario[key]):
            continue        # the default report name, or no CSV
        name = scenario[key]
        # a separator also rules out absolute paths
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise SchemaError(f"{key} must be a plain file name, got {name!r}")


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, passed flag, artifacts dict)


def _cmd_validate_state(scenario, ctx):
    state = _payload(scenario, "state")
    diag = gaussian.validate(state, tol=ctx["tolerances"]["psd"])
    results = {"is_valid": diag.is_valid,
               "min_eigenvalue": diag.min_eigenvalue,
               "symmetry_defect": diag.symmetry_defect}
    return results, diag.is_valid, {}


def _cmd_evolve(scenario, ctx):
    pair = _payload(scenario, "pair")
    state = _payload(scenario, "state")
    times = [_number(t, "times") for t in _list(scenario, "times")]
    trajectory = []
    rows = []
    all_valid = True
    for t in times:
        out = semigroup.evolve_state(state, pair, t)
        diag = gaussian.validate(out, tol=ctx["tolerances"]["psd"])
        all_valid = all_valid and diag.is_valid
        trajectory.append({"t": t, "state": out, "is_valid": diag.is_valid,
                           "min_eigenvalue": diag.min_eigenvalue})
        rows.append(np.concatenate(([t], out.l, out.m, out.S.ravel())))
    artifacts = {}
    results = {"trajectory": trajectory, "all_valid": all_valid}
    csv_name = scenario.get("csv")
    if csv_name:
        n = state.n
        columns = (["t"] + [f"l{j + 1}" for j in range(n)] + [f"m{j + 1}" for j in range(n)]
                   + [f"S{i + 1}{j + 1}" for i in range(2 * n) for j in range(2 * n)])
        _write_csv(os.path.join(ctx["out"], csv_name), columns, np.array(rows),
                   "%r", "\r\n")
        results["csv_columns"] = columns
        artifacts["csv"] = csv_name
    return results, all_valid, artifacts


def _cmd_weyl(scenario, ctx):
    state = _payload(scenario, "state")
    zs = [_complex(z, "z") for z in _list(scenario, "z")]
    values = []
    passed = True
    for z in zs:
        val = gaussian.weyl_transform(state, z, tol=ctx["tolerances"]["psd"])
        passed = passed and abs(val) <= 1.0 + 1e-12
        values.append({"z": z, "value": val, "magnitude": abs(val)})
    return {"values": values}, passed, {}


def _decompose_results(pair, ctx):
    spec = synthesis.decompose(pair.K, pair.C, rank_tol=ctx["tolerances"]["rank"])
    res = spec.residuals
    passed = (max(res.k_residual, res.c_residual) <= ctx["tolerances"]["reconstruction"]
              and res.symplectic_residual <= ctx["tolerances"]["symplectic"])
    return spec, res, passed


def _cmd_decompose(scenario, ctx):
    pair = _payload(scenario, "pair")
    spec, res, passed = _decompose_results(pair, ctx)
    results = {"spec": {"n": spec.n,
                        "lindblad": [{"b": t.b, "c": t.c} for t in spec.lindblad_terms],
                        "hamiltonian": [{"lambda": t.lam, "w": t.w}
                                        for t in spec.hamiltonian_terms],
                        "Kprime": spec.K_prime, "K": spec.K, "C": spec.C},
               "residuals": res}
    return results, passed, {}


def _cmd_dilate(scenario, ctx):
    pair = _payload(scenario, "pair")
    spec, res, passed = _decompose_results(pair, ctx)
    return {"report": synthesis.dilation_report(spec)}, passed, {}


def _cmd_verify_oracle(scenario, ctx):
    pair = _payload(scenario, "pair")
    state = _payload(scenario, "state")
    times = [_number(t, "times") for t in _list(scenario, "times")]
    cutoff = ctx["cutoff"]
    steps_per_unit = _number(scenario.get("steps", 2000), "steps", int)
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
    tol = ctx["tolerances"]["unitarity"]
    if kind in ("quadrature", "brownian"):
        d = _number(scenario.get("d", 1), "d", int)
        check = ito.quadrature_table(d, tol=tol)
    elif kind == "poisson":
        i = _number(scenario.get("i", 1), "i", int)
        j = _number(scenario.get("j", i), "j", int)
        lam = scenario.get("intensities", [1.0, 1.0])
        if not isinstance(lam, list) or not lam:
            raise SchemaError("intensities must be a non-empty list of numbers")
        lam = [_number(x, "intensities") for x in lam]
        check = ito.poisson_table(i, j, lam[0], lam[-1], tol=tol)
    else:
        raise SchemaError(f"unknown table kind {kind!r}")
    return {"kind": kind, "ok": check.ok, "text": check.text}, check.ok, {}


def _cmd_unitarity(scenario, ctx):
    H = _complex(_require(scenario, "H"), "H", 2)
    L = [_complex(m, "L", 2) for m in _list(scenario, "L")] if "L" in scenario else []
    if L:
        S = _complex(_require(scenario, "S"), "S", 2)
    else:
        S = np.zeros((0, 0), dtype=complex)
    dU = ito.hp_coefficients(S, L, H)
    residual = ito.unitarity_residual(dU)
    tol = ctx["tolerances"]["unitarity"]
    ok = residual <= tol
    results = {"unitary": ok, "residual": residual, "tolerance": tol,
               "noise_channels": dU.d, "system_dimension": H.shape[0]}
    if "X" in scenario:
        X = _complex(scenario["X"], "X", 2)
        theta = ito.flow_generator(dU, X)
        results["flow"] = {f"theta[{a}][{b}]": mat for (a, b), mat in sorted(theta.items())}
    return results, ok, {}


def _field_law(scenario):
    law = _object(scenario, "law")
    kind = law.get("kind")

    def field(key):
        return _require(law, key, where=f"{kind} law")

    if kind == "gaussian":
        return fields.FieldLaw(mean=_real(field("mean"), "mean"),
                               covariance=_real(field("covariance"), "covariance", 2))
    if kind == "coherent":
        u0 = _complex(field("u0"), "u0")
        us = [_complex(u, "us") for u in _list(law, "us", where=f"{kind} law")]
        return fields.coherent_gaussian_field(u0, us, family=law.get("family", "p"))
    if kind == "kernel":
        model = _kernel(law)
        z = _complex(field("z"), "z")
        var = fields.vacuum_field_variance(z, model)
        return fields.FieldLaw(mean=np.zeros(1), covariance=np.array([[var]]))
    if kind == "levy":
        H = _complex(field("H"), "H", 2)
        u = _complex(field("u"), "u")
        return fields.levy_law(H, u)
    raise SchemaError(f"unknown law kind {kind!r}")


def _cmd_sample_field(scenario, ctx):
    law = _field_law(scenario)
    count = _number(scenario.get("count", 10000), "count", int)
    draws = fields.sample(law, count, seed=ctx["seed"])
    data = draws if draws.ndim == 2 else draws[:, None]
    columns = [f"x{j + 1}" for j in range(data.shape[1])]
    artifacts = {}
    csv_name = scenario.get("csv")
    if csv_name:
        _write_csv(os.path.join(ctx["out"], csv_name), columns, data, "%.18e", "\n")
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
    else:
        within = (abs(draws.mean() - law.mean) <=
                  5.0 * np.sqrt(max(law.variance, 1e-300) / count))
        results.update({"atoms": list(law.atoms),
                        "law_mean": law.mean, "law_variance": law.variance,
                        "empirical_mean": float(draws.mean()),
                        "empirical_variance": float(draws.var(ddof=1)),
                        "within_bands": bool(within)})
    results["csv_columns"] = columns
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
    _check_artifact_names(scenario)
    overrides = scenario.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise SchemaError("tolerances must be a JSON object")
    unknown = [key for key in overrides if key not in DEFAULT_TOLERANCES]
    if unknown:
        raise SchemaError(f"unknown tolerance key {', '.join(map(repr, unknown))}; "
                          f"the keys are {', '.join(DEFAULT_TOLERANCES)}")
    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update((key, _tolerance(key, value)) for key, value in overrides.items())
    if tol is not None:
        tolerances[PRIMARY_TOL[command]] = _tolerance(PRIMARY_TOL[command], tol)
    ctx = {
        "out": out_dir,
        "seed": _number(seed if seed is not None else scenario.get("seed", 0), "seed", int),
        "cutoff": _number(cutoff if cutoff is not None else scenario.get("cutoff", 30),
                          "cutoff", int),
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


def _load_scenario(path):
    try:
        with open(path) as fh:
            scenario = json.load(fh, parse_constant=_finite(float),
                                 parse_float=_finite(float), parse_int=_finite(int))
    except (OSError, UnicodeError, json.JSONDecodeError) as exc:
        raise UnreadableScenario(f"cannot read scenario: {exc}") from exc
    if not isinstance(scenario, dict):
        raise UnreadableScenario("scenario must be a JSON object")
    return scenario


def _run(args) -> int:
    scenario_path = args.scenario or _env("QFL_SCENARIO", str)
    if not scenario_path:
        raise SchemaError("no scenario file given (use --scenario or QFL_SCENARIO)")
    out_dir = args.out or _env("QFL_OUT", str) or "."
    seed = args.seed if args.seed is not None else _env("QFL_SEED", int)
    cutoff = args.cutoff if args.cutoff is not None else _env("QFL_CUTOFF", int)
    tol = args.tol if args.tol is not None else _env("QFL_TOL", float)
    scenario = _load_scenario(scenario_path)
    os.makedirs(out_dir, exist_ok=True)
    report, code = run_scenario(scenario, out_dir, seed=seed, cutoff=cutoff, tol=tol)
    try:
        text = json.dumps(report, default=_json_default, allow_nan=False)
    except ValueError as exc:
        # a NaN or Infinity reached the results: strict JSON has no spelling for it
        raise RuntimeError(f"report is not finite: {exc}") from exc
    path = os.path.join(out_dir, scenario.get("report", "report.json"))
    _atomic_write(path, text + "\n")
    status = "ok" if code == 0 else "FAILED"
    print(f"{report['command']}: {status} (report: {path})")
    return code


# built once; parse_args returns a fresh namespace on every call
_PARSER = argparse.ArgumentParser(
    prog="qfl",
    description="Run a quasifree-dynamics scenario file and emit a JSON report.")
_PARSER.add_argument("--scenario", help="path to the scenario JSON file")
_PARSER.add_argument("--out", help="output directory (default: current)")
_PARSER.add_argument("--seed", type=int, help="RNG seed override")
_PARSER.add_argument("--cutoff", type=int, help="Fock cutoff override")
_PARSER.add_argument("--tol", type=float, help="primary tolerance override")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _run(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
