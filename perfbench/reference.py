"""Fixed reference work that tracks the host's speed during a run.

On a shared virtual machine the same op can take from a third to twice as
long from one second to the next, and every kind of work slows together,
though not by the same factor.  Between cycles the benchmark times a
reference made of the kinds of work its workload does, and divides each
op's time by the reference's slowness (measured over nominal time), so
reported times are what the op takes when the reference runs at its
nominal speed.  The reference uses only numpy, scipy and the standard
library, never quasifree, so no change to the library moves it.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import scipy.linalg

#: seconds each part takes at the host's nominal speed
NOMINAL_S = {"matmul": 1.0e-3, "interpreter": 0.75e-3, "lapack": 0.6e-3, "codec": 2.5e-3}


class Reference:
    """Times a fixed set of parts, named after the work they stand for."""

    def __init__(self, workdir, parts):
        g = np.random.Generator(np.random.Philox(0))
        self._dense = [(g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))) / (2 * d)
                       for d in (30, 64)]
        self._small = [0.3 * g.normal(size=(d, d)) / math.sqrt(d) for d in (16, 64)]
        H = g.normal(size=(64, 64)) + 1j * g.normal(size=(64, 64))
        self._H = H + H.conj().T
        self._doc = {"rows": g.normal(size=(30, 30)).tolist()}
        self._table = g.normal(size=(100, 3))
        self._path = os.path.join(workdir, "reference.out")
        self._parts = [(getattr(self, f"_{name}"), NOMINAL_S[name]) for name in parts]

    def _matmul(self):
        """Complex products and sums at the oracle's dimensions."""
        for A in self._dense:
            r = A
            for _ in range(6):
                r = A @ r + r @ A.conj().T
                r /= np.abs(r).max()

    def _interpreter(self):
        acc = {}
        for i in range(5000):
            acc[i % 97] = acc.get(i % 97, 0) + i * i

    def _lapack(self):
        """Small exponentials and Hermitian eigenvalues, as the phase-space core does."""
        for M in self._small:
            scipy.linalg.expm(M)
        np.linalg.eigvalsh(self._H)

    def _codec(self):
        """JSON text and a CSV table written to a file, as the command line does."""
        text = json.dumps(self._doc, indent=2)
        json.loads(text)
        with open(self._path, "w") as fh:
            fh.write(text)
        np.savetxt(self._path, self._table, delimiter=",")

    def slowness(self) -> float:
        """Geometric mean over the parts of measured over nominal time."""
        logs = []
        for part, nominal in self._parts:
            start = time.perf_counter()
            part()
            logs.append(math.log((time.perf_counter() - start) / nominal))
        return math.exp(sum(logs) / len(logs))
