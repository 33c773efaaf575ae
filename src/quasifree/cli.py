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
GaussianState, DilationSpec or a Check, complex values as [re, im] pairs,
in scenario files too), and both CSV artifacts, evolve's moment trajectory
and sample-field's draws, by one writer (_write_csv).

JSON is strict both ways.  A NaN, Infinity or -Infinity literal in a
scenario file, or a number beyond float range such as 1e999, is an input
failure (exit 1); a report is one line of strict JSON, and a result that is
not finite exits 2 with no report written.  The scenario's "tolerances"
(keys those of DEFAULT_TOLERANCES, the dict form of the library's defaults)
and the --tol override make one symplectic.Tolerances per run, each value a
finite number > 0.  The pair keeps it and every check judges by it; a
command passes when symplectic.decisive of the Checks the library returns
passes, and the report names that Check "decided_by" (null when nothing
was judged, as for weyl with no z).  The scalar fields (times, d, i, j, n,
steps, count, seed, cutoff, intensities) must hold numbers, and the integer
ones integers; the real array fields (l, m, S, K, C, a Gaussian law's mean
and covariance) and the [re, im] components of the complex fields must be
nested lists of numbers, rows of one length.  A null, a bool, a string or a
fraction such as "count": 2.9 or "n": 1.9 is an input failure naming the field.

Exit codes, one table (EXIT_CODES; the most derived class listed for an
exception decides): 0 success; 1 input or validation failure (SchemaError,
ValueError, TypeError, LeakageError, an OSError while writing output); 2 a
numerical check failed (the scenario's own check, another RuntimeError, a
propagation that overflows (PropagatorOverflowError), any other floating-point
error inside a command (FloatingPointError, re-raised naming the command and
an input too large for double precision), a non-finite report);
3 the scenario is unreadable, not JSON or not an object; 4 a size cap
(DimensionCapError, SampleCapError, ColourCapError).  An exception prints
one "error:" line and no report.

Flags: --scenario PATH, --out DIR, --seed N, --cutoff N, --tol X.  Each flag
falls back to the environment variable QFL_<NAME>, then to the scenario
file, then to a built-in default.  A malformed flag or QFL_<NAME> exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__, fields, fock, gaussian, ito, semigroup, synthesis
from .symplectic import TOLERANCES, PropagatorOverflowError, Tolerances, decisive

__all__ = ["main", "run_scenario", "SchemaError", "EXIT_CODES"]

DEFAULT_TOLERANCES = dataclasses.asdict(TOLERANCES)

# which tolerance the --tol flag overrides, per command
PRIMARY_TOL = {"validate-state": "psd", "evolve": "psd", "weyl": "psd", "sample-field": "psd",
               "decompose": "rank", "dilate": "rank", "verify-oracle": "oracle",
               "ito-table": "unitarity", "unitarity": "unitarity"}

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
    FloatingPointError: 2,      # an overflow or invalid operation inside a command
    PropagatorOverflowError: 2,  # growing dynamics overflow by the requested time
    UnreadableScenario: 3,
    fock.DimensionCapError: 4,
    fields.SampleCapError: 4,
    ito.ColourCapError: 4,
}


def _require(scenario, key, where="scenario"):
    if key not in scenario:
        raise SchemaError(f"{where} is missing required field {key!r}")
    return scenario[key]


def _typed(obj, key, kind, where="scenario"):
    """The required field key, refused unless a kind (list or dict) value."""
    value = _require(obj, key, where)
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "a JSON object"
        raise SchemaError(f"{key!r} must be {noun}, got {type(value).__name__}")
    return value


#: the number types a field may hold: what JSON decodes to, and numpy's
#: scalars; concrete tuples, as isinstance against the numbers ABCs costs
#: several times more per decoded number
_REAL_TYPES = (int, float, np.integer, np.floating)
_INTEGRAL_TYPES = (int, np.integer)


def _number(value, key, cast=float):
    """One value of the scalar or list-of-scalar field key, read as cast
    (float or int).  null, a bool (refused before the type check, as bool
    subclasses int), a value of none of _REAL_TYPES and, for an int field, a
    number with a fractional part are schema errors that name the field."""
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        shown = "null" if value is None else type(value).__name__
        raise SchemaError(f"{key!r} must hold numbers, got {shown}")
    if cast is int and not isinstance(value, _INTEGRAL_TYPES) and not float(value).is_integer():
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
    the components are read like a real array field, so a null, a bool, a
    string or a non-finite value is a schema error naming the field."""
    arr = _real(data, key, ndim + 1)
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:     # empty rows, or not pairs
        nested = "[" * ndim + "[re, im], ..." + "], ..." * (ndim - 1) + "]"
        raise SchemaError(f"{key!r}: complex values are encoded as {nested}")
    return arr[..., 0] + 1j * arr[..., 1]


#: payload -> (constructor, rank of each real array field); the constructor
#: takes the integer field "n" and then those arrays
_PAYLOADS = {
    "state": (gaussian.GaussianState, {"l": 1, "m": 1, "S": 2}),
    "pair": (semigroup.QuasifreePair, {"K": 2, "C": 2}),
}


def _payload(scenario, key, *extra):
    """The state or pair in scenario[key], built with extra (a pair's tolerances)."""
    build, ranks = _PAYLOADS[key]
    data = _typed(scenario, key, dict)
    n = _number(_require(data, "n", key), "n", int)
    arrays = [_real(_require(data, name, key), name, ndim) for name, ndim in ranks.items()]
    try:
        return build(n, *arrays, *extra)
    except ValueError as exc:
        raise SchemaError(f"bad {key} payload: {exc}") from exc


def _kernel(law):
    """The kernel {"points": [...], "K": [[...]], "group": [[...], ...]}; the
    entries of K are all plain numbers or all [re, im] pairs."""
    data = _typed(law, "kernel", dict, "kernel law")
    points = _typed(data, "points", list, "kernel")
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


@functools.cache
def _field_names(cls):
    """The field names of a dataclass type in declaration order, read once
    per type; None for any other type, a dataclass's own class among them."""
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


def _json_default(obj):
    """Encode what the C JSON encoder cannot: dataclasses (a report's many
    Checks come first), arrays, complex, numpy scalars."""
    names = _field_names(type(obj))
    if names is not None:
        return {name: getattr(obj, name) for name in names}
    if isinstance(obj, np.ndarray) and not np.iscomplexobj(obj):
        return obj.tolist()
    if isinstance(obj, (np.ndarray, complex, np.complexfloating)):
        z = np.asarray(obj)     # [re, im] pairs, nested like the array
        return np.stack([z.real, z.imag], -1).tolist()
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
    rows.  ("%r", "\r\n") gives csv.writer's bytes for repr'd floats (the
    evolve CSV); ("%.17g", "\n") gives np.savetxt's with that fmt, delimiter
    "," and comments "" (the sample CSV).  Both read back bitwise: 17
    significant digits round-trip any float64, and formatting them is
    cheaper than repr or savetxt's default "%.18e"."""
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
# command handlers: each returns (results, checks, artifacts), the results
# anything _json_default encodes and checks the library Checks that judge them


def _cmd_validate_state(scenario, ctx):
    diag = gaussian.validate(_payload(scenario, "state"), tol=ctx["tolerances"].psd)
    return diag, [diag.symmetry, diag.psd], {}


def _cmd_evolve(scenario, ctx):
    pair = _payload(scenario, "pair", ctx["tolerances"])
    state = _payload(scenario, "state")
    times = [_number(t, "times") for t in _typed(scenario, "times", list)]
    trajectory, rows = [], []
    for t in times:
        out = semigroup.evolve_state(state, pair, t)
        diag = gaussian.validate(out, tol=pair.tolerances.psd)
        trajectory.append({"t": t, "state": out, "symmetry": diag.symmetry, "psd": diag.psd})
        rows.append(np.concatenate(([t], out.l, out.m, out.S.ravel())))
    artifacts = {}
    results = {"trajectory": trajectory}
    csv_name = scenario.get("csv")
    if csv_name:
        n = state.n
        columns = (["t"] + [f"l{j + 1}" for j in range(n)] + [f"m{j + 1}" for j in range(n)]
                   + [f"S{i + 1}{j + 1}" for i in range(2 * n) for j in range(2 * n)])
        _write_csv(os.path.join(ctx["out"], csv_name), columns, np.array(rows),
                   "%r", "\r\n")
        results["csv_columns"] = columns
        artifacts["csv"] = csv_name
    checks = [c for step in trajectory for c in (step["symmetry"], step["psd"])]
    return results, checks, artifacts


def _cmd_weyl(scenario, ctx):
    state = _payload(scenario, "state")
    zs = [_complex(z, "z") for z in _typed(scenario, "z", list)]
    values = []
    for z in zs:
        val = gaussian.weyl_transform(state, z, tol=ctx["tolerances"].psd)
        values.append({"z": z, "value": val, "modulus": gaussian.weyl_modulus(val)})
    return {"values": values}, [v["modulus"] for v in values], {}


def _cmd_decompose(scenario, ctx):
    """decompose and dilate: the DilationSpec, judged at the pair's (the scenario's) tolerances."""
    pair = _payload(scenario, "pair", ctx["tolerances"])
    spec = synthesis.decompose(pair.K, pair.C, pair.tolerances)
    return spec, [spec.reconstructs(pair.tolerances)], {}


def _cmd_verify_oracle(scenario, ctx):
    pair = _payload(scenario, "pair", ctx["tolerances"])
    state = _payload(scenario, "state")
    times = [_number(t, "times") for t in _typed(scenario, "times", list)]
    steps_per_unit = _number(scenario.get("steps", 2000), "steps", int)
    if steps_per_unit < 1:
        raise SchemaError(f"'steps' must be at least 1, got {steps_per_unit}")
    caps = [steps_per_unit * max(t, 1e-3) for t in times]
    if not all(np.isfinite(caps)):
        raise SchemaError(f"'steps' x 'times' overflows: {steps_per_unit} x {max(times):g}")
    reports = [fock.oracle_compare(state, pair, t, cutoff=ctx["cutoff"],
                                   steps=max(1, int(np.ceil(cap))), seed=ctx["seed"])
               for t, cap in zip(times, caps)]
    return ({"comparisons": reports, "tolerance": pair.tolerances.oracle},
            [rep.check for rep in reports], {})


def _cmd_ito_table(scenario, ctx):
    kind = scenario.get("table", "quadrature")
    tol = ctx["tolerances"].unitarity
    if kind in ("quadrature", "brownian"):
        d = _number(scenario.get("d", 1), "d", int)
        table = ito.quadrature_table(d, tol=tol)
    elif kind == "poisson":
        i = _number(scenario.get("i", 1), "i", int)
        j = _number(scenario.get("j", i), "j", int)
        lam = scenario.get("intensities", [1.0, 1.0])
        if not isinstance(lam, list) or not lam:
            raise SchemaError("intensities must be a non-empty list of numbers")
        lam = [_number(x, "intensities") for x in lam]
        table = ito.poisson_table(i, j, lam[0], lam[-1], tol=tol)
    else:
        raise SchemaError(f"unknown table kind {kind!r}")
    return {"kind": kind, "check": table.check, "text": table.text}, [table.check], {}


def _cmd_unitarity(scenario, ctx):
    H = _complex(_require(scenario, "H"), "H", 2)
    L = [_complex(m, "L", 2) for m in _typed(scenario, "L", list)] if "L" in scenario else []
    S = _complex(_require(scenario, "S"), "S", 2) if L else np.zeros((0, 0), dtype=complex)
    dU = ito.hp_coefficients(S, L, H)
    check = ito.unitarity_check(dU, ctx["tolerances"].unitarity)
    results = {"unitarity": check, "residual": check.value, "tolerance": check.bound,
               "noise_channels": dU.d, "system_dimension": H.shape[0]}
    if "X" in scenario:
        X = _complex(scenario["X"], "X", 2)
        theta = ito.flow_generator(dU, X)
        results["flow"] = {f"theta[{a}][{b}]": mat for (a, b), mat in sorted(theta.items())}
    return results, [check], {}


def _field_law(scenario):
    law = _typed(scenario, "law", dict)
    kind = law.get("kind")

    def field(key):
        return _require(law, key, where=f"{kind} law")

    if kind == "gaussian":
        return fields.FieldLaw(mean=_real(field("mean"), "mean"),
                               covariance=_real(field("covariance"), "covariance", 2))
    if kind == "coherent":
        u0 = _complex(field("u0"), "u0")
        us = [_complex(u, "us") for u in _typed(law, "us", list, f"{kind} law")]
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
    if count < 2:       # the empirical (co)variance takes ddof=1
        raise SchemaError(f"'count' must be at least 2, got {count}")
    draws = fields.sample(law, count, seed=ctx["seed"], tol=ctx["tolerances"].psd)
    data = draws if draws.ndim == 2 else draws[:, None]
    columns = [f"x{j + 1}" for j in range(data.shape[1])]
    artifacts = {}
    csv_name = scenario.get("csv")
    if csv_name:
        _write_csv(os.path.join(ctx["out"], csv_name), columns, data, "%.17g", "\n")
        artifacts["csv"] = csv_name
    results = {"count": count}
    if isinstance(law, fields.FieldLaw):
        emp_cov = np.cov(draws.T, ddof=1).reshape(law.mean.size, law.mean.size)
        results.update({"law_mean": law.mean, "law_covariance": law.covariance,
                        "empirical_mean": draws.mean(axis=0), "empirical_covariance": emp_cov})
    else:
        results.update({"atoms": list(law.atoms), "law_mean": law.mean,
                        "law_variance": law.variance, "empirical_mean": float(draws.mean()),
                        "empirical_variance": float(draws.var(ddof=1))})
    results["mean_band"] = band = fields.mean_band(law, draws)
    results["csv_columns"] = columns
    return results, [band], artifacts


HANDLERS = {
    "validate-state": _cmd_validate_state,
    "evolve": _cmd_evolve,
    "weyl": _cmd_weyl,
    "decompose": _cmd_decompose,
    "dilate": _cmd_decompose,
    "verify-oracle": _cmd_verify_oracle,
    "ito-table": _cmd_ito_table,
    "unitarity": _cmd_unitarity,
    "sample-field": _cmd_sample_field,
}

COMMANDS = tuple(HANDLERS)


def run_scenario(scenario: dict, out_dir: str, seed=None, cutoff=None, tol=None):
    """Execute one scenario dict; returns (report dict, exit code)."""
    command = _require(scenario, "command")
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}; expected one of {COMMANDS}")
    _check_artifact_names(scenario)
    overrides = _typed(scenario, "tolerances", dict) if "tolerances" in scenario else {}
    unknown = [key for key in overrides if key not in DEFAULT_TOLERANCES]
    if unknown:
        raise SchemaError(f"unknown tolerance key {', '.join(map(repr, unknown))}; "
                          f"the keys are {', '.join(DEFAULT_TOLERANCES)}")
    if tol is not None:
        overrides = {**overrides, PRIMARY_TOL[command]: tol}
    ctx = {
        "out": out_dir,
        "seed": _number(seed if seed is not None else scenario.get("seed", 0), "seed", int),
        "cutoff": _number(cutoff if cutoff is not None else scenario.get("cutoff", 30),
                          "cutoff", int),
        "tolerances": Tolerances(**overrides),
    }
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            results, checks, artifacts = HANDLERS[command](scenario, ctx)
    except FloatingPointError as exc:
        # numpy's text names an operation, not the command or the cause
        raise FloatingPointError(f"{command}: {exc}; input too large for double "
                                 f"precision") from exc
    decided = decisive(checks)
    report = {
        "library": {"name": "quasifree", "version": __version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "inputs": {k: v for k, v in scenario.items() if k != "command"},
        "seed": ctx["seed"],
        "cutoff": ctx["cutoff"],
        "tolerances": ctx["tolerances"],
        "results": results,
        "artifacts": artifacts,
        "passed": decided is None or decided.passed,
        "decided_by": decided,
    }
    return report, 0 if report["passed"] else 2


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a malformed flag exits 1, not argparse's 2
        raise SchemaError(message)


# built once; parse_args returns a fresh namespace on every call
_PARSER = _Parser(
    prog="qfl",
    description="Run a quasifree-dynamics scenario file and emit a JSON report.")
_PARSER.add_argument("--scenario", help="path to the scenario JSON file")
_PARSER.add_argument("--out", help="output directory (default: current)")
_PARSER.add_argument("--seed", type=int, help="RNG seed override")
_PARSER.add_argument("--cutoff", type=int, help="Fock cutoff override")
_PARSER.add_argument("--tol", type=float, help="primary tolerance override")


def main(argv=None) -> int:
    try:
        return _run(_PARSER.parse_args(argv))
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
