"""Quasifree dynamics of bosonic Gaussian states.

Closed-form phase-space evolution of Gaussian states under quasifree
completely positive semigroups, synthesis of the Lindblad/Hamiltonian data
that dilates them, a truncated Fock-space oracle that verifies everything by
brute force, a quantum Ito table engine for the underlying noise calculus,
and samplers for the classical field statistics of vacuum and coherent
states.
"""

from . import fields, fock, gaussian, ito, semigroup, symplectic, synthesis
from .gaussian import GaussianState, coherent, vacuum, validate, weyl_transform
from .semigroup import (
    QuasifreePair,
    admissible,
    evolve_state,
    generator_action,
    noise_matrix,
    weyl_action,
)
from .synthesis import (
    DilationSpec,
    decompose,
    dilation_report,
    pair_from_coupling,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "fields", "fock", "gaussian", "ito", "semigroup", "symplectic", "synthesis",
    "GaussianState", "coherent", "vacuum", "validate", "weyl_transform",
    "QuasifreePair", "admissible", "evolve_state", "generator_action", "weyl_action",
    "DilationSpec", "decompose", "dilation_report", "noise_matrix", "pair_from_coupling",
]
