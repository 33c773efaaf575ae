"""Benchmark of quasifree, end to end and per layer.

    python3 perfbench/run.py --workload {channel,oracle,qfl_sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Load model: one process, closed loop, one client; the next op starts when
the previous one has finished.  BLAS is pinned to one thread.  Inputs are
drawn from the seed during set-up, and every op is checked outside the
timed region.

``--trace 0`` times whole cycles of ops until ``--seconds`` of op time and
at least 100 ops have run, and reports the end-to-end metrics.  Times are
scaled to the nominal speed of a fixed reference timed between cycles (see
``reference.py``); the unscaled figures are printed on a ``raw`` line.
``--trace 1`` runs a fixed number of cycles untraced and then the same
cycles with spans around the public functions of every layer, reports the
per-layer metrics and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when any op returned a finite result that fails its check; ops that
raise or return non-finite values are counted in ``failed``.
"""

from __future__ import annotations

import os
import sys
import time

IMPORT_START = time.perf_counter()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import Reference  # noqa: E402
from tracer import SPAN_NAMES, Tracer, has_ancestor, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_OPS = 100              # p90 needs at least ten samples beyond it
SETUP_REPEATS = 3
REFERENCE_EVERY_S = 0.2    # op time between two samples of the reference


@dataclass
class OpRecord:
    kind: str
    seconds: float         # wall time of the op
    outcome: object        # workloads.Outcome
    warnings: int          # RuntimeWarnings the op raised
    speed: float = 1.0     # 1 / slowness of the reference around the op

    @property
    def scaled(self) -> float:
        return self.seconds * self.speed


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_record(seed, workload, trace):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": workload, "seed": seed, "trace": trace,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_op(workload, job, tracer=None) -> OpRecord:
    """Time one op, then check its result outside the timed region."""
    from workloads import failed

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = workload.run(job)
            error = None
        except Exception as exc:  # a raising op is a failed op, never dropped
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
    if error is not None:
        outcome = failed(f"raised {error!r}", wrong=False)
    else:
        try:
            outcome = workload.check(job, result)
        except Exception as exc:
            outcome = failed(f"check raised {exc!r}", wrong=True)
    warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return OpRecord(job.kind, elapsed, outcome, warned)


def measure(workload, jobs, reference, seconds=None, cycles=None, tracer=None):
    """Run whole cycles of ops; returns one record per op.

    With ``cycles`` the count is fixed; otherwise ops run until ``seconds``
    of op time and MIN_OPS ops are reached (at most three times as long).
    The reference is timed before the first op and after every
    REFERENCE_EVERY_S of op time; each op's speed comes from the two
    samples that bracket its block.
    """
    records = []
    samples = [reference.slowness()]
    blocks = []
    block_start = 0
    timed = block_time = 0.0
    while True:
        if tracer is not None:
            tracer.op = len(records)
        record = run_op(workload, jobs[len(records) % len(jobs)], tracer)
        records.append(record)
        timed += record.seconds
        block_time += record.seconds
        if len(records) % workload.cycle:
            continue
        if cycles is not None:
            done = len(records) >= cycles * workload.cycle
        else:
            done = (timed >= seconds and len(records) >= MIN_OPS) or timed >= 3 * seconds
        if done or block_time >= REFERENCE_EVERY_S:
            samples.append(reference.slowness())
            blocks.append((block_start, len(records)))
            block_start, block_time = len(records), 0.0
        if done:
            break
    for b, (lo, hi) in enumerate(blocks):
        speed = 1.0 / math.sqrt(samples[b] * samples[b + 1])
        for record in records[lo:hi]:
            record.speed = speed
    return records


def end_to_end(records, setup_s, scaled=True):
    durations = [r.scaled if scaled else r.seconds for r in records]
    ok = sum(r.outcome.ok for r in records)
    percentiles = statistics.quantiles([1e3 * d for d in durations], n=100,
                                       method="inclusive")
    return {
        "throughput_ops_s": (ok / sum(durations), "ops/s"),
        "latency_p50_ms": (percentiles[49], "ms"),
        "latency_p90_ms": (percentiles[89], "ms"),
        "passed_ops_ratio": (ok / len(records), "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(spans, traced, untraced):
    own = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    for span, t in zip(spans, own):
        calls[span.name] += 1
        busy[span.name] += t
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (busy[name], "s")

    ops = len(traced)
    evolves = calls["semigroup.evolve_state"]
    expm_in_evolve = sum(1 for k, s in enumerate(spans) if s.name == "symplectic.expm"
                         and has_ancestor(spans, k, "semigroup.evolve_state"))
    lindblad = [s.info for s in spans if s.name == "fock.lindblad_evolve"]
    # computed, not counted: (2 + 2 terms) complex products of dim^3 per
    # right-hand side, four right-hand sides per RK4 step
    gflop = sum((2 + 2 * x["terms"]) * 8 * x["dim"] ** 3 * 4 * x["steps"]
                for x in lindblad) / 1e9
    lindblad_s = busy["fock.lindblad_evolve"]
    extras = [r.outcome.extra for r in traced if r.outcome.extra]
    sweeps = max(len(extras), 1)
    metrics.update({
        "symplectic.expm.calls_per_evolve": (expm_in_evolve / evolves if evolves else 0.0,
                                             "calls/evolve"),
        "semigroup.admissible.calls_per_op": (calls["semigroup.admissible"] / ops, "calls/op"),
        "symplectic.psd_check.calls_per_op": (calls["symplectic.psd_check"] / ops, "calls/op"),
        "fock.lindblad_evolve.steps": (sum(x["steps"] for x in lindblad), "count"),
        "fock.lindblad_evolve.gflop": (gflop, "GFLOP-computed"),
        "fock.lindblad_evolve.gflop_s": (gflop / lindblad_s if lindblad_s else 0.0, "GFLOP/s"),
        "cli.report_bytes": (sum(x.get("report_bytes", 0) for x in extras) / sweeps, "B"),
        "cli.csv_bytes": (sum(x.get("csv_bytes", 0) for x in extras) / sweeps, "B"),
        "runtime_warnings": (sum(r.warnings for r in traced), "count"),
        "trace_overhead_ratio": (sum(r.scaled for r in traced)
                                 / sum(r.scaled for r in untraced), "ratio"),
        "worst_error_to_tol": (max((r.outcome.error_ratio for r in traced if r.outcome.ok),
                                   default=0.0), "ratio"),
        "failed_ops_ratio": (sum(not r.outcome.ok for r in traced) / ops, "fraction"),
    })
    return metrics


def write_trace(path, record, spans, traced):
    """Spans as [name, start, end, parent, op, info]; ops as [kind, seconds, ok]."""
    with open(path, "w") as fh:
        json.dump({"record": record,
                   "ops": [[r.kind, r.seconds, r.outcome.ok] for r in traced],
                   "spans": [[s.name, s.start, s.end, s.parent, s.op, s.info] for s in spans]},
                  fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quasifree" / "__init__.py").is_file():
        return _fail(f"no quasifree sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import quasifree
    import workloads

    import_s = time.perf_counter() - IMPORT_START
    if Path(quasifree.__file__).resolve().parent != SRC / "quasifree":
        return _fail(f"imported quasifree from {quasifree.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    record = run_record(args.seed, args.workload, args.trace)
    print(json.dumps({"record": record}), flush=True)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        reference = Reference(workdir, workload.reference_parts)
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            jobs = workload.generate(args.seed, workdir)
            workload.warm_up(jobs)
            setups.append(time.perf_counter() - start)
        if args.trace:
            untraced = measure(workload, jobs, reference, cycles=workload.trace_cycles)
            tracer = Tracer()
            tracer.install(quasifree)
            try:
                traced = measure(workload, jobs, reference, cycles=workload.trace_cycles,
                                 tracer=tracer)
            finally:
                tracer.uninstall()
            records = untraced + traced
            metrics = per_layer(tracer.spans, traced, untraced)
            write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json", record,
                        tracer.spans, traced)
        else:
            traced = records = measure(workload, jobs, reference, seconds=args.seconds)
            setup_s = import_s + statistics.median(setups)
            speed = statistics.median(r.speed for r in records)
            metrics = end_to_end(records, setup_s * speed)
            raw = end_to_end(records, setup_s, scaled=False)
            raw["reference_slowness"] = (1.0 / speed, "ratio")
            print(json.dumps({"raw": {k: v for k, (v, _) in raw.items()}}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reasons = Counter(f"{r.kind} op: {r.outcome.reason}" for r in records if not r.outcome.ok)
    for reason, count in sorted(reasons.items()):
        print(f"perfbench: {count} failed {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(r.outcome.wrong for r in records),
        "attempted": len(traced),
        "failed": sum(not r.outcome.ok for r in traced),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
