"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workloads channel oracle qfl_sweep \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 [--out perfbench/baseline.json]

For every workload and end-to-end metric this prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, and checks it against the
metric's bound in ``BENCHMARK.json``.  One traced run per workload, on the
first seed, adds the per-layer metrics.  With ``--out`` the summary is
written as JSON.  Exits 1 when a spread is above a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    result = lines[-1]
    result["wall_s"] = wall
    result["record"] = lines[0]["record"]
    return result


def summarize(results, bounds):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        summary[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "values": values}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        results = [run_once(workload, seed, seconds) for seed in args.seeds]
        summary = summarize(results, bounds)
        walls = [r["wall_s"] for r in results]
        traced = run_once(workload, args.seeds[0], seconds, trace=1)
        report["workloads"][workload] = {
            "record": results[0]["record"],
            "metrics": summary, "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results], "wall_s": walls,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_wall_s": traced["wall_s"]}
        print(f"{workload}: wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"attempted {[r['attempted'] for r in results]}")
        for name, s in summary.items():
            bound = s["bound"]
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print(f"  {name:18s} median {s['median']:.6g} {s['unit']:9s} "
                  f"IQR/median {s['spread']:.4f} (bound {bound}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
