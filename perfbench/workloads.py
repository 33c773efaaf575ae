"""The benchmark's workloads: input generation, one op, and the op's check.

Each workload is a fixed cycle of jobs.  ``generate`` draws a pool of whole
cycles from the seed, ``run`` is the timed op, and ``check`` verifies the
op's result outside the timed region.  The library only ever receives the
generated arrays (channel, oracle) or the generated scenario files
(qfl_sweep), and it is always reached through module attributes, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from quasifree import cli, fock, gaussian, semigroup, symplectic, synthesis

#: tolerances of the checks; the CLI's defaults where the CLI has one
PSD_TOL = cli.DEFAULT_TOLERANCES["psd"]
RECONSTRUCTION_TOL = cli.DEFAULT_TOLERANCES["reconstruction"]
SYMPLECTIC_TOL = cli.DEFAULT_TOLERANCES["symplectic"]
ORACLE_TOL = cli.DEFAULT_TOLERANCES["oracle"]
LEAKAGE_TOL = 1e-6
SEMIGROUP_TOL = 1e-9      # relative to 1 + max |S|
DUALITY_TOL = 1e-9        # absolute; Weyl transforms have modulus <= 1
STEADY_TOL = 1e-9         # relative to 1 + max |S_inf|


@dataclass(frozen=True)
class Outcome:
    """Verdict on one op.

    ``wrong`` marks a finite result that fails a check: a silent wrong
    answer.  Ops that raise, exit non-zero or return non-finite values are
    failed but not wrong.
    """

    ok: bool
    error_ratio: float = 0.0   # largest checked error over its tolerance
    reason: str = ""
    wrong: bool = False
    extra: dict = field(default_factory=dict)


def failed(reason: str, wrong: bool) -> Outcome:
    return Outcome(ok=False, error_ratio=math.nan, reason=reason, wrong=wrong)


def passed(ratios, **extra) -> Outcome:
    worst = max(ratios)
    if not worst <= 1.0:
        return failed(f"checked error is {worst:.3g} times its tolerance", wrong=True)
    return Outcome(ok=True, error_ratio=float(worst), extra=extra)


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([stream, seed])))


# ---------------------------------------------------------------------------
# input generation


def unit_complex(g, n):
    z = g.normal(size=n) + 1j * g.normal(size=n)
    return z / np.linalg.norm(z)


def admissible_pair(g, n, couplings, scale, jitter=True):
    """Symplectic drift plus `couplings` rank-one noise channels L = a(u) + a^dag(v).

    The drift's spectral norm and the norms of u and v are `scale`, times a
    uniform factor in [0.3, 1] each with `jitter` (as the test suite draws).
    """
    def norm():
        return scale * g.uniform(0.3, 1.0) if jitter else scale

    sym = g.normal(size=(2 * n, 2 * n))
    K = symplectic.symplectic_form(n) @ (sym + sym.T)
    K *= norm() / np.linalg.norm(K, 2)
    C = np.zeros((2 * n, 2 * n))
    for _ in range(couplings):
        u = unit_complex(g, n) * norm()
        v = unit_complex(g, n) * norm()
        K_uv, C_uv = synthesis.pair_from_coupling(u, v)
        K = K + K_uv
        C = C + C_uv
    return K, C


def valid_state(g, n):
    """Means and a covariance I/2 + PSD bump, which is always a valid state."""
    G = 0.5 * g.normal(size=(2 * n, 2 * n))
    S = 0.5 * np.eye(2 * n) + G @ G.T / (2 * n)
    return g.normal(size=n), g.normal(size=n), S


# ---------------------------------------------------------------------------
# channel: the phase-space core


@dataclass(frozen=True)
class ChannelJob:
    kind: str
    n: int
    K: np.ndarray
    C: np.ndarray
    l: np.ndarray
    m: np.ndarray
    S: np.ndarray
    times: tuple
    probes: tuple        # (index into times, z)


class Channel:
    """One op is one channel study: validate, evolve, probe, decompose."""

    name = "channel"
    sizes = (2, 8, 32)
    cycle = 10             # 3 jobs at each size, then one long-horizon job
    pool_cycles = 5
    trace_cycles = 10
    reference_parts = ("matmul", "interpreter", "lapack", "codec")
    times = tuple(float(t) for t in np.geomspace(0.1, 5.0, 8))
    long_times = (2e3, 1e4)

    def generate(self, seed, workdir=None):
        g = rng(seed, 1)
        jobs = []
        for _ in range(self.pool_cycles):
            for _ in range(3):
                jobs.extend(self._job(g, n) for n in self.sizes)
            jobs.append(self._long_job(g))
        return jobs

    def _job(self, g, n):
        # fixed norms and times keep the cost of one job the same across seeds
        K, C = admissible_pair(g, n, couplings=max(1, n // 4), scale=0.7, jitter=False)
        l, m, S = valid_state(g, n)
        probes = tuple((k, unit_complex(g, n)) for k in (0, 2, 4, 6))
        return ChannelJob(f"n{n}", n, K, C, l, m, S, self.times, probes)

    def _long_job(self, g, n=2):
        """Pure loss at rate >= 1, evolved far past its relaxation time."""
        rate = g.uniform(1.0, 2.0)
        K = -0.5 * rate * np.eye(2 * n)
        C = rate * np.eye(2 * n)
        l, m, S = valid_state(g, n)
        probes = tuple((k % 2, unit_complex(g, n)) for k in range(4))
        return ChannelJob("long", n, K, C, l, m, S, self.long_times, probes)

    def warm_up(self, jobs):
        scipy.linalg.expm(np.eye(2))
        self.run(jobs[0])

    def run(self, job):
        pair = semigroup.QuasifreePair(n=job.n, K=job.K, C=job.C)
        state = gaussian.GaussianState(n=job.n, l=job.l, m=job.m, S=job.S)
        states = [semigroup.evolve_state(state, pair, t) for t in job.times]
        probes = [semigroup.weyl_action(pair, job.times[k], z) for k, z in job.probes]
        spec = synthesis.decompose(pair.K, pair.C)
        return pair, state, states, probes, spec

    def check(self, job, result):
        pair, state, states, probes, spec = result
        for st in states:
            if not (np.isfinite(st.S).all() and np.isfinite(st.l).all()
                    and np.isfinite(st.m).all()):
                return failed("non-finite S_t", wrong=False)
        if not all(np.isfinite(p.z_out).all() and math.isfinite(p.damping_exponent)
                   for p in probes):
            return failed("non-finite Weyl image", wrong=False)
        ratios = []
        for st in states:
            diag = gaussian.validate(st, tol=PSD_TOL)
            if not diag.is_valid:
                return failed(f"evolved state invalid: min eig {diag.min_eigenvalue:.3e}",
                              wrong=True)
            # validate's threshold is tol * (1 + ||2S + iJ||), bounded by this
            ratios.append(max(0.0, -diag.min_eigenvalue)
                          / (PSD_TOL * (2.0 + 2.0 * np.linalg.norm(st.S, 2))))

        # semigroup law: evolving to s and then for t - s gives the state at t
        first, last = states[0], states[-1]
        again = semigroup.evolve_state(first, pair, job.times[-1] - job.times[0])
        gap = max(np.abs(again.l - last.l).max(), np.abs(again.m - last.m).max(),
                  np.abs(again.S - last.S).max())
        ratios.append(gap / (SEMIGROUP_TOL * (1.0 + np.abs(last.S).max())))

        # Weyl duality: Tr(rho_t W(z)) = Tr(rho W(z_out)) exp(-damping)
        for (k, z), image in zip(job.probes, probes):
            lhs = gaussian.weyl_transform(states[k], z)
            rhs = (gaussian.weyl_transform(state, image.z_out)
                   * math.exp(-image.damping_exponent))
            ratios.append(abs(lhs - rhs) / DUALITY_TOL)

        res = synthesis.reconstruction_residuals(spec)
        ratios += [res.k_residual / RECONSTRUCTION_TOL, res.c_residual / RECONSTRUCTION_TOL,
                   res.symplectic_residual / SYMPLECTIC_TOL]

        if job.kind == "long":
            # far past relaxation the state is the steady state K^T B + B K = -C
            B = scipy.linalg.solve_continuous_lyapunov(job.K.T, -job.C)
            S_inf = 0.5 * (B + B.T) / 2.0   # S_inf = B_inf / 2, symmetrized
            scale = STEADY_TOL * (1.0 + np.abs(S_inf).max())
            for st in states:
                ratios.append(np.abs(st.S - S_inf).max() / scale)
                ratios.append(max(np.abs(st.l).max(), np.abs(st.m).max()) / scale)
        return passed(ratios)


# ---------------------------------------------------------------------------
# oracle: the truncated-Fock brute force


@dataclass(frozen=True)
class OracleJob:
    kind: str
    n: int
    K: np.ndarray
    C: np.ndarray
    l: np.ndarray
    m: np.ndarray
    t: float
    cutoff: int
    steps: int
    probe_seed: int


class Oracle:
    """One op is one ``oracle_compare`` from a coherent state."""

    name = "oracle"
    cycle = 4              # three one-mode jobs, then one two-mode job
    pool_cycles = 4
    trace_cycles = 6
    reference_parts = ("matmul",)
    #: n -> (cutoff, amplitude, t, steps, draw scale)
    sizes = {1: (30, 1.0, 0.5, 400, 0.5), 2: (8, 0.3, 0.25, 200, 0.3)}

    def generate(self, seed, workdir=None):
        g = rng(seed, 2)
        return [self._job(g, n) for _ in range(self.pool_cycles) for n in (1, 1, 1, 2)]

    def _job(self, g, n):
        cutoff, amplitude, t, steps, scale = self.sizes[n]
        K, C = admissible_pair(g, n, couplings=n, scale=scale)
        alpha = amplitude * np.exp(2j * np.pi * g.uniform(size=n))
        return OracleJob(f"n{n}", n, K, C, math.sqrt(2) * alpha.imag,
                         math.sqrt(2) * alpha.real, t, cutoff, steps,
                         int(g.integers(2**31)))

    def warm_up(self, jobs):
        scipy.linalg.expm(np.eye(2))
        self.run(jobs[0])

    def run(self, job):
        pair = semigroup.QuasifreePair(n=job.n, K=job.K, C=job.C)
        state = gaussian.GaussianState(n=job.n, l=job.l, m=job.m, S=0.5 * np.eye(2 * job.n))
        return fock.oracle_compare(state, pair, job.t, cutoff=job.cutoff, steps=job.steps,
                                   num_weyl=5, seed=job.probe_seed)

    def check(self, job, report):
        if not (math.isfinite(report.max_error) and math.isfinite(report.leakage)):
            return failed("non-finite oracle error", wrong=False)
        return passed([report.max_error / ORACLE_TOL, report.leakage / LEAKAGE_TOL])


# ---------------------------------------------------------------------------
# qfl_sweep: the command line front end over generated scenario files


def _pairs(z):
    return [[float(v.real), float(v.imag)] for v in np.ravel(z)]


def _rows(M):
    return [_pairs(row) for row in np.asarray(M)]


def _real_rows(M):
    return [[float(v) for v in row] for row in np.asarray(M)]


def _random_unitary(g, dim):
    Q, R = np.linalg.qr(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _hermitian(g, dim, scale=1.0):
    A = g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim))
    return scale * (A + A.conj().T) / 2.0


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@dataclass(frozen=True)
class SweepJob:
    scenarios: tuple     # (path of scenario file, scenario dict)
    workdir: str
    kind: str = "sweep"


class QflSweep:
    """One op is one in-process ``qfl`` run per generated scenario file."""

    name = "qfl_sweep"
    cycle = 1
    trace_cycles = 30
    reference_parts = ("matmul", "interpreter", "lapack", "codec")
    evolve_times = 32
    draws = 5000

    def generate(self, seed, workdir):
        g = rng(seed, 3)
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        n = 4
        K, C = admissible_pair(g, n, couplings=2, scale=0.7)
        pair = {"n": n, "K": _real_rows(K), "C": _real_rows(C)}
        l, m, S = valid_state(g, n)
        state = {"n": n, "l": list(map(float, l)), "m": list(map(float, m)),
                 "S": _real_rows(S)}
        K1, C1 = admissible_pair(g, 1, couplings=1, scale=0.5)
        alpha = 0.5 * np.exp(2j * np.pi * g.uniform())
        coherent1 = {"n": 1, "l": [math.sqrt(2) * alpha.imag], "m": [math.sqrt(2) * alpha.real],
                     "S": [[0.5, 0.0], [0.0, 0.5]]}
        times = [0.0] + sorted(float(t) for t in g.uniform(0.05, 3.0, self.evolve_times - 1))
        dim, d = 6, 2
        phase = np.exp(2j * np.pi * g.uniform())
        scenarios = {
            "validate-state": {"command": "validate-state", "state": state},
            "evolve": {"command": "evolve", "pair": pair, "state": state, "times": times,
                       "csv": "evolve.csv"},
            "weyl": {"command": "weyl", "state": state,
                     "z": [_pairs(unit_complex(g, n) * g.uniform()) for _ in range(16)]},
            "decompose": {"command": "decompose", "pair": pair},
            "dilate": {"command": "dilate", "pair": pair},
            "verify-oracle": {"command": "verify-oracle",
                              "pair": {"n": 1, "K": _real_rows(K1), "C": _real_rows(C1)},
                              "state": coherent1, "times": [0.1], "cutoff": 12, "steps": 1000,
                              "seed": int(g.integers(2**31))},
            "ito-table": {"command": "ito-table", "table": "quadrature", "d": 2},
            "unitarity": {"command": "unitarity", "H": _rows(_hermitian(g, dim)),
                          "L": [_rows(0.5 * _hermitian(g, dim) + 0.5j * _hermitian(g, dim))
                                for _ in range(d)],
                          "S": _rows(_random_unitary(g, d * dim)),
                          "X": _rows(_hermitian(g, dim))},
            "sample-levy": {"command": "sample-field",
                            "law": {"kind": "levy", "H": _rows(_hermitian(g, 4)),
                                    "u": _pairs(unit_complex(g, 4))},
                            "count": self.draws, "seed": int(g.integers(2**31)),
                            "csv": "levy.csv"},
            "sample-coherent": {"command": "sample-field",
                                "law": {"kind": "coherent", "u0": _pairs(unit_complex(g, 3)),
                                        "us": [_pairs(phase * g.normal(size=3))
                                               for _ in range(3)],
                                        "family": "p"},
                                "count": self.draws, "seed": int(g.integers(2**31)),
                                "csv": "coherent.csv"},
        }
        files = []
        for key, scenario in scenarios.items():
            scenario["report"] = f"{key}.json"
            path = os.path.join(inputs, f"{key}.json")
            with open(path, "w") as fh:
                json.dump(scenario, fh)
            files.append((path, scenario))
        return [SweepJob(tuple(files), workdir)]

    def warm_up(self, jobs):
        scipy.linalg.expm(np.eye(2))
        self.check(jobs[0], self.run(jobs[0]))

    def run(self, job):
        out = tempfile.mkdtemp(prefix="sweep-", dir=job.workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["--scenario", path, "--out", out]) for path, _ in job.scenarios]
        return codes, out

    def check(self, job, result):
        codes, out = result
        try:
            return self._check(job, codes, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, job, codes, out):
        if any(code != 0 for code in codes):
            return failed(f"exit codes {codes}", wrong=False)
        ratios = [0.0]
        report_bytes = csv_bytes = 0
        for _, scenario in job.scenarios:
            path = os.path.join(out, scenario["report"])
            with open(path) as fh:
                text = fh.read()
            report_bytes += len(text.encode())
            try:
                report = _strict_json(text)
            except ValueError as exc:
                return failed(f"{scenario['report']}: {exc}", wrong=False)
            if report.get("passed") is not True:
                return failed(f"{scenario['report']} did not pass", wrong=False)
            results = report["results"]
            command = scenario["command"]
            csv_name = scenario.get("csv")
            if csv_name:
                csv_path = os.path.join(out, csv_name)
                csv_bytes += os.path.getsize(csv_path)
                with open(csv_path) as fh:
                    rows = sum(1 for _ in fh) - 1
                expected = len(scenario["times"]) if command == "evolve" else scenario["count"]
                if rows != expected:
                    return failed(f"{csv_name} has {rows} rows, expected {expected}",
                                  wrong=True)
            if command == "evolve":
                start = results["trajectory"][0]["state"]
                gap = max(np.abs(np.subtract(start[k], scenario["state"][k])).max()
                          for k in ("l", "m", "S"))
                ratios.append(gap / SEMIGROUP_TOL)
            elif command == "verify-oracle":
                for comparison in results["comparisons"]:
                    ratios.append(max(comparison["mean_error"], comparison["cov_error"],
                                      comparison["weyl_error"]) / results["tolerance"])
            elif command == "unitarity":
                ratios.append(results["residual"] / results["tolerance"])
            elif command == "decompose":
                res = results["residuals"]
                ratios += [res["k_residual"] / RECONSTRUCTION_TOL,
                           res["c_residual"] / RECONSTRUCTION_TOL,
                           res["symplectic_residual"] / SYMPLECTIC_TOL]
        return passed(ratios, report_bytes=report_bytes, csv_bytes=csv_bytes)


WORKLOADS = {w.name: w for w in (Channel(), Oracle(), QflSweep())}
