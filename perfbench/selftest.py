"""Tests of the benchmark itself (not part of the library's test suite).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import quasifree  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _same(a, b):
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class InputGeneration(unittest.TestCase):
    def test_equal_seeds_give_identical_arrays(self):
        for name in ("channel", "oracle"):
            wl = workloads.WORKLOADS[name]
            with self.subTest(workload=name):
                self.assertTrue(_same(wl.generate(7), wl.generate(7)))
                self.assertFalse(_same(wl.generate(7), wl.generate(8)))

    def test_equal_seeds_give_identical_scenario_files(self):
        wl = workloads.WORKLOADS["qfl_sweep"]
        texts = []
        for seed in (7, 7, 8):
            with tempfile.TemporaryDirectory() as tmp:
                job, = wl.generate(seed, tmp)
                texts.append([Path(path).read_text() for path, _ in job.scenarios])
        self.assertEqual(texts[0], texts[1])
        self.assertNotEqual(texts[0], texts[2])

    def test_pool_is_whole_cycles(self):
        for name in ("channel", "oracle"):
            wl = workloads.WORKLOADS[name]
            self.assertEqual(len(wl.generate(1)) % wl.cycle, 0)


class Checker(unittest.TestCase):
    def setUp(self):
        self.channel = workloads.WORKLOADS["channel"]
        self.job = next(j for j in self.channel.generate(3) if j.kind == "n2")
        self.result = self.channel.run(self.job)

    def test_channel_accepts_the_program_result(self):
        outcome = self.channel.check(self.job, self.result)
        self.assertTrue(outcome.ok, outcome.reason)
        self.assertLess(outcome.error_ratio, 1.0)

    def test_channel_rejects_an_entry_of_s_off_by_1e_6(self):
        pair, state, states, probes, spec = self.result
        last = states[-1]
        S = last.S.copy()
        S[0, 0] += 1e-6
        bad = dataclasses.replace(last, S=S)
        outcome = self.channel.check(self.job, (pair, state, states[:-1] + [bad], probes, spec))
        self.assertFalse(outcome.ok)
        self.assertTrue(outcome.wrong)

    def test_channel_counts_non_finite_as_failed_not_wrong(self):
        pair, state, states, probes, spec = self.result
        bad = dataclasses.replace(states[1], S=np.full_like(states[1].S, np.nan))
        outcome = self.channel.check(self.job, (pair, state, [states[0], bad] + states[2:],
                                                probes, spec))
        self.assertFalse(outcome.ok)
        self.assertFalse(outcome.wrong)
        self.assertEqual(outcome.reason, "non-finite S_t")

    def test_oracle_rejects_error_above_tolerance(self):
        oracle = workloads.WORKLOADS["oracle"]
        job = oracle.generate(3)[0]
        report = oracle.run(job)
        self.assertTrue(oracle.check(job, report).ok)
        worse = dataclasses.replace(report, cov_error=2 * workloads.ORACLE_TOL)
        outcome = oracle.check(job, worse)
        self.assertFalse(outcome.ok)
        self.assertTrue(outcome.wrong)

    def test_qfl_rejects_a_report_that_did_not_pass(self):
        sweep = workloads.WORKLOADS["qfl_sweep"]
        with tempfile.TemporaryDirectory() as tmp:
            job, = sweep.generate(3, tmp)
            outcome = sweep.check(job, sweep.run(job))
            self.assertTrue(outcome.ok, outcome.reason)
            self.assertGreater(outcome.extra["report_bytes"], 0)
            self.assertGreater(outcome.extra["csv_bytes"], 0)

            codes, out = sweep.run(job)
            path = os.path.join(out, "weyl.json")
            report = json.loads(Path(path).read_text())
            report["passed"] = False
            Path(path).write_text(json.dumps(report))
            outcome = sweep.check(job, (codes, out))
            self.assertFalse(outcome.ok)
            self.assertIn("did not pass", outcome.reason)
            self.assertFalse(os.path.exists(out))

    def test_qfl_rejects_non_standard_json(self):
        with self.assertRaises(ValueError):
            workloads._strict_json('{"x": NaN}')


class Tracing(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        from quasifree import fock, semigroup, symplectic

        originals = (symplectic.expm, semigroup.expm, fock.expm)
        self.assertIs(originals[0], originals[1])
        tracer = Tracer()
        tracer.install(quasifree)
        try:
            wrapped = (symplectic.expm, semigroup.expm, fock.expm)
            self.assertTrue(all(w is not o for w, o in zip(wrapped, originals)))
            self.assertIsNot(wrapped[0], wrapped[1])
        finally:
            tracer.uninstall()
        self.assertEqual((symplectic.expm, semigroup.expm, fock.expm), originals)

    def test_channel_op_spans_stay_in_the_phase_space_core(self):
        channel = workloads.WORKLOADS["channel"]
        job = next(j for j in channel.generate(3) if j.kind == "n2")
        tracer = Tracer()
        tracer.install(quasifree)
        try:
            tracer.enabled = True
            channel.run(job)
            tracer.enabled = False
            channel.run(job)   # not recorded
        finally:
            tracer.uninstall()
        names = {s.name for s in tracer.spans}
        self.assertIn("semigroup.QuasifreePair", names)
        self.assertIn("symplectic.gram_integral", names)
        self.assertFalse(any(n.startswith(("fock.", "cli.")) for n in names))
        evolves = [k for k, s in enumerate(tracer.spans) if s.name == "semigroup.evolve_state"]
        self.assertEqual(len(evolves), len(job.times))
        children = [s for s in tracer.spans if s.parent == evolves[0]]
        self.assertIn("symplectic.expm", {s.name for s in children})
        self.assertTrue(all(s.end >= s.start for s in tracer.spans))


class Manifest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics run.py prints, within its limits."""

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def _emitted(self, trace):
        import run

        record = run.OpRecord("n2", 0.01, workloads.Outcome(ok=True), 0)
        if trace:
            return run.per_layer([], [record], [record])
        return run.end_to_end([record, record], 1.0)

    def test_metric_names_and_units_match(self):
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            emitted = {name: unit for name, (_, unit) in self._emitted(trace).items()}
            self.assertEqual(declared, emitted, key)

    def test_limits(self):
        import re

        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for w in spec["workloads"]:
            self.assertTrue(name.match(w["name"]) and 0 < len(w["why"]) <= 200, w)
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertTrue(name.match(m["name"]) and unit.match(m["unit"]), m)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        runs = 4 + 22 * len(spec["workloads"])
        self.assertLessEqual(runs * (spec["run_seconds"] * 1.6 + 8), 3420)


class CommandLine(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "channel",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
