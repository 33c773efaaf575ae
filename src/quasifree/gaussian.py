"""Gaussian states of n bosonic modes in mean/covariance coordinates.

A state is parametrized by the momentum means l_j = Tr(p_j rho), the
position means m_j = Tr(q_j rho) and the 2n x 2n covariance matrix S of the
observables (p_1..p_n, -q_1..-q_n), subject to 2S + iJ >= 0.  No density
matrix is ever stored at this layer; the truncated-Fock oracle provides the
matrix-level counterpart.

Normalization conventions, pinned once and verified against the oracle:
q = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)), W(z) = expm(a^dag(z) - a(z)).
Under these, a coherent state of amplitude alpha has m = sqrt(2) Re alpha and
l = sqrt(2) Im alpha (the sign of l for imaginary alpha is the oracle's
verdict, recorded here as the convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symplectic import psd_check, real_embed, symplectic_form

__all__ = [
    "GaussianState",
    "StateDiagnostic",
    "validate",
    "vacuum",
    "coherent",
    "weyl_transform",
    "state_to_dict",
    "state_from_dict",
]

#: relative symmetry tolerance for covariance matrices
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class GaussianState:
    """Immutable value object (n, l, m, S); validity is checked explicitly."""

    n: int
    l: np.ndarray   # momentum means Tr(p_j rho)
    m: np.ndarray   # position means Tr(q_j rho)
    S: np.ndarray   # covariance of (p_1..p_n, -q_1..-q_n)

    def __post_init__(self):
        object.__setattr__(self, "l", np.asarray(self.l, dtype=float).ravel())
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float).ravel())
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))
        if self.n < 1:
            raise ValueError("mode count must be >= 1")
        if self.l.size != self.n or self.m.size != self.n:
            raise ValueError(f"mean vectors must have length {self.n}")
        if self.S.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"covariance must be {2 * self.n} x {2 * self.n}, "
                             f"got {self.S.shape}")
        if not all(np.isfinite(a).all() for a in (self.l, self.m, self.S)):
            raise ValueError("means and covariance must be finite")


@dataclass(frozen=True)
class StateDiagnostic:
    is_valid: bool
    min_eigenvalue: float   # smallest eigenvalue of 2S + iJ
    symmetry_defect: float  # max |S - S^T|


def validate(state: GaussianState, tol: float = 1e-9) -> StateDiagnostic:
    """Check the two state invariants: S symmetric and 2S + iJ >= 0."""
    S = state.S
    defect = float(np.abs(S - S.T).max(initial=0.0))
    symmetric = defect <= SYMMETRY_TOL * (1.0 + np.abs(S).max(initial=0.0))
    J = symplectic_form(state.n)
    Ssym = (S + S.T) / 2.0
    is_psd, min_eig = psd_check(2.0 * Ssym + 1j * J, tol)
    return StateDiagnostic(is_valid=bool(symmetric and is_psd),
                           min_eigenvalue=min_eig,
                           symmetry_defect=defect)


def vacuum(n: int) -> GaussianState:
    """The n-mode vacuum: zero means, covariance I/2."""
    return GaussianState(n=n, l=np.zeros(n), m=np.zeros(n), S=0.5 * np.eye(2 * n))


def coherent(alpha) -> GaussianState:
    """Coherent state of amplitude alpha: vacuum covariance, displaced means."""
    alpha = np.asarray(alpha, dtype=complex).ravel()
    n = alpha.size
    if n < 1:
        raise ValueError("amplitude vector must be nonempty")
    return GaussianState(n=n,
                         l=math.sqrt(2) * alpha.imag,
                         m=math.sqrt(2) * alpha.real,
                         S=0.5 * np.eye(2 * n))


def weyl_transform(state: GaussianState, z, tol: float = 1e-9) -> complex:
    """Expectation of the Weyl operator W(z) in the state.

    Returns exp{-i sqrt(2) (l.x - m.y) - (x, y) S (x, y)^T} with (x, y) the
    real embedding of z.  Invalid states are rejected; the magnitude never
    exceeds 1 for a valid state.
    """
    diag = validate(state, tol)
    if not diag.is_valid:
        raise ValueError(f"invalid Gaussian state: min eig {diag.min_eigenvalue:.3e}, "
                         f"symmetry defect {diag.symmetry_defect:.3e}")
    z = np.asarray(z, dtype=complex).ravel()
    if z.size != state.n:
        raise ValueError(f"expected a length-{state.n} argument, got {z.size}")
    xi = real_embed(z)
    x, y = xi[:state.n], xi[state.n:]
    phase = -1j * math.sqrt(2) * (state.l @ x - state.m @ y)
    return complex(np.exp(phase - xi @ state.S @ xi))


def state_to_dict(state: GaussianState) -> dict:
    """JSON form {"n": int, "l": [...], "m": [...], "S": [[...]]} (row-major S)."""
    return {"n": state.n,
            "l": [float(v) for v in state.l],
            "m": [float(v) for v in state.m],
            "S": [[float(v) for v in row] for row in state.S]}


def state_from_dict(data: dict) -> GaussianState:
    try:
        return GaussianState(n=int(data["n"]), l=data["l"], m=data["m"], S=data["S"])
    except KeyError as exc:
        raise ValueError(f"state JSON is missing field {exc}") from exc
