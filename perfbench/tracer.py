"""Spans around the public functions of quasifree, recorded from outside.

The tracer replaces each listed function at every place a quasifree module
binds it (``from .symplectic import expm`` gives ``semigroup`` and ``fock``
their own binding), so calls are seen however the library reaches them.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts the original
objects back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

#: layer -> public functions that get a span; QuasifreePair means its
#: ``__post_init__`` validation
TRACED = {
    "symplectic": ("expm", "gram_integral", "psd_check"),
    "gaussian": ("validate", "weyl_transform"),
    "semigroup": ("QuasifreePair", "admissible", "evolve_state", "weyl_action"),
    "synthesis": ("pair_from_coupling", "decompose", "reconstruction_residuals"),
    "fock": ("build", "coherent_density", "hamiltonian_matrix", "lindblad_matrices",
             "lindblad_evolve", "state_moments", "weyl_matrix", "oracle_compare"),
    "ito": ("ito_product", "quadrature_table", "poisson_table", "hp_coefficients",
            "unitarity_residual", "flow_generator"),
    "fields": ("coherent_gaussian_field", "levy_law", "vacuum_field_variance", "sample"),
    "cli": ("main", "run_scenario"),
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)


def _lindblad_info(rep, rho0, spec, t, steps):
    return {"dim": rep.dim, "terms": len(spec.lindblad_terms), "steps": int(steps)}


#: span name -> function of the call's arguments giving extra fields to keep
ARGUMENT_INFO = {"fock.lindblad_evolve": _lindblad_info}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top of an op
    op: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Records one span per call of a traced function while ``enabled``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        info_of = ARGUMENT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            if info_of is not None:
                span.info = info_of(*args, **kwargs)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()

        return traced

    def install(self, package) -> int:
        """Wrap every binding of every traced function; returns the binding count."""
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        for layer, names in TRACED.items():
            home = getattr(package, layer)
            for name in names:
                span_name = f"{layer}.{name}"
                if name == "QuasifreePair":
                    cls = home.QuasifreePair
                    original = cls.__dict__["__post_init__"]
                    self._restore.append((cls, "__post_init__", original))
                    setattr(cls, "__post_init__", self._wrap(span_name, original))
                    continue
                original = getattr(home, name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, self._wrap(span_name, original))
        return len(self._restore)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
