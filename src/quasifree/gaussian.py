"""Gaussian states of n bosonic modes in mean/covariance coordinates.

A state is parametrized by the momentum means l_j = Tr(p_j rho), the
position means m_j = Tr(q_j rho) and the 2n x 2n covariance matrix S of the
observables (p_1..p_n, -q_1..-q_n), subject to 2S + iJ >= 0.  No density
matrix is ever stored at this layer; the truncated-Fock oracle provides the
matrix-level counterpart.

States are immutable, each fact proven once where the arrays enter: the
constructor keeps read-only copies of l, m and S, refused unless finite by
symplectic's one finiteness rule, and an evolved state
the write-protected arrays that evolution has just proven finite.  So a write
raises or has no effect, and a state caches its verdict: :meth:`diagnostic`
runs :func:`validate` once per tolerance, and the library's own checks (state
evolution, Weyl transforms) go through it.  :func:`validate_many` judges many
states in one pass (one stacked defect, and one stacked ``eigvalsh`` of 2S + iJ
with no Hermitian test, as S + S^T + iJ is Hermitian bit for bit: x + y = y + x
and J^T = -J; an S + S^T past the float range is refused by name, with no
warning), and :func:`weyl_transform` takes one z or a stack of them.

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

from .symplectic import (SYMMETRY_TOL, TOLERANCES, Check, _finite_entries, _finite_input,
                         _hermitian_rule, _i_form, _psd_rule, complex_vector, decisive, read_only)

__all__ = [
    "GaussianState",
    "StateDiagnostic",
    "validate",
    "validate_many",
    "vacuum",
    "coherent",
    "weyl_transform",
    "weyl_modulus",
]

@dataclass(frozen=True, eq=False)
class GaussianState:
    """Immutable value object (n, l, m, S) over read-only copies of its arrays;
    validity is checked explicitly, by :meth:`diagnostic`."""

    n: int
    l: np.ndarray   # momentum means Tr(p_j rho)
    m: np.ndarray   # position means Tr(q_j rho)
    S: np.ndarray   # covariance of (p_1..p_n, -q_1..-q_n)

    def __post_init__(self):
        object.__setattr__(self, "l", read_only(np.ravel(self.l)))
        object.__setattr__(self, "m", read_only(np.ravel(self.m)))
        object.__setattr__(self, "S", read_only(self.S))
        object.__setattr__(self, "_diagnostics", {})
        if self.n < 1:
            raise ValueError("mode count must be >= 1")
        if self.l.size != self.n or self.m.size != self.n:
            raise ValueError(f"mean vectors must have length {self.n}")
        if self.S.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"covariance must be {2 * self.n} x {2 * self.n}, "
                             f"got {self.S.shape}")
        _finite_input("means and covariance", self.l, self.m, self.S)

    @classmethod
    def _proven(cls, n: int, l, m, S) -> GaussianState:
        """The state over arrays evolution has proven finite and write-protected."""
        state = object.__new__(cls)
        state.__dict__.update(n=n, l=l, m=m, S=S, _diagnostics={})
        return state

    def __reduce__(self):
        # copies and pickles are rebuilt by the constructor: read-only arrays
        # and no verdict carried over
        return type(self), (self.n, self.l, self.m, self.S)

    def diagnostic(self, tol: float = TOLERANCES.psd) -> StateDiagnostic:
        """``validate(self, tol)``, computed on the first call for each tol and
        then reused; the arrays are read-only, so the verdict cannot go stale."""
        diag = self._diagnostics.get(tol)
        if diag is None:
            diag = self._diagnostics[tol] = validate(self, tol)
        return diag


@dataclass(frozen=True)
class StateDiagnostic:
    symmetry: Check     # max |S - S^T| at SYMMETRY_TOL
    psd: Check          # -(smallest eigenvalue of 2S + iJ) at the PSD tolerance

    @property
    def is_valid(self) -> bool:
        return self.symmetry.passed and self.psd.passed

    @property
    def min_eigenvalue(self) -> float:
        return -self.psd.value


def validate(state: GaussianState, tol: float = TOLERANCES.psd) -> StateDiagnostic:
    """Check the two state invariants, S symmetric and 2S + iJ >= 0, by the
    rule of :func:`validate_many` on the one covariance."""
    symmetry, symmetry_bound, psd, psd_bound = _rules(state.S, state.n, tol)
    return StateDiagnostic(symmetry=Check("hermitian", float(symmetry), float(symmetry_bound)),
                           psd=Check("psd", float(psd), float(psd_bound)))


def validate_many(states, tol: float = TOLERANCES.psd) -> list[StateDiagnostic]:
    """:func:`validate` of each state, all of one mode count: every symmetry
    verdict from one stacked defect and every PSD verdict from one stacked
    ``eigvalsh``."""
    if not states:
        return []
    rules = _rules(np.array([state.S for state in states]), states[0].n, tol)
    return [StateDiagnostic(symmetry=Check("hermitian", symmetry, symmetry_bound),
                            psd=Check("psd", psd, psd_bound))
            for symmetry, symmetry_bound, psd, psd_bound in zip(*(a.tolist() for a in rules))]


def _rules(S, n: int, tol: float):
    """(symmetry defect, its bound, PSD value, its bound) of the covariance S,
    or of each in a stack S, of n modes, with no Hermitian test of 2S + iJ."""
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")
    with np.errstate(over="ignore"):    # an S + S^T past the float range is refused
        H = S + S.swapaxes(-1, -2) + _i_form(n)
    if not np.isfinite(H).all():
        raise ValueError("covariance too large for double precision: 2S + iJ is not finite")
    return (*_hermitian_rule(S, SYMMETRY_TOL), *_psd_rule(np.linalg.eigvalsh(H), tol))


def _refuse_invalid(state: GaussianState, tol: float) -> None:
    """The one refusal of an invalid state: a ValueError naming the check that
    decides the state's cached diagnostic at tol, when that check fails."""
    diag = state.diagnostic(tol)
    if not diag.is_valid:
        check = decisive([diag.symmetry, diag.psd])
        raise ValueError(f"invalid Gaussian state: {check.name} check fails, "
                         f"{check.value:.3e} > {check.bound:.3e}")


def vacuum(n: int) -> GaussianState:
    """The n-mode vacuum: zero means, covariance I/2."""
    return GaussianState(n=n, l=np.zeros(n), m=np.zeros(n), S=0.5 * np.eye(2 * n))


def coherent(alpha) -> GaussianState:
    """Coherent state of amplitude alpha: vacuum covariance, displaced means."""
    alpha = np.asarray(alpha, dtype=complex).ravel()
    n = alpha.size
    return GaussianState(n=n,
                         l=math.sqrt(2) * alpha.imag,
                         m=math.sqrt(2) * alpha.real,
                         S=0.5 * np.eye(2 * n))


def weyl_transform(state: GaussianState, z, tol: float = TOLERANCES.psd):
    """Expectation of the Weyl operator W(z) in the state.

    Returns exp{-i sqrt(2) (l.x - m.y) - (x, y) S (x, y)^T} with (x, y) the
    real embedding of z: a complex number for one vector z, and an array of
    p values for a p x n stack of vectors, each bitwise its value alone.
    Invalid states are rejected, before z is read, and so is a z with an
    entry that is not finite; the magnitude never exceeds 1 for a valid state.
    """
    _refuse_invalid(state, tol)
    z = np.asarray(z, dtype=complex)
    zs = _finite_entries(z) if z.ndim == 2 else complex_vector(z, state.n)[None]
    if zs.shape[1] != state.n:
        raise ValueError(f"expected a stack of length-{state.n} vectors, got shape {zs.shape}")
    # each dot product and quadratic form as a stack of 1 x k products, so
    # that each row takes the same BLAS calls as a single vector
    xi = np.concatenate([zs.real, zs.imag], axis=1)[:, None, :]
    x, y = xi[..., :state.n], xi[..., state.n:]
    phase = -1j * math.sqrt(2) * (x @ state.l[:, None] - y @ state.m[:, None])
    values = np.exp(phase - xi @ state.S @ xi.swapaxes(1, 2))[:, 0, 0]
    return values if z.ndim == 2 else complex(values[0])


def weyl_modulus(value) -> Check:
    """|Tr(rho W(z))| <= 1 in every state: a Weyl transform's modulus within 1 + 1e-12."""
    return Check("weyl_modulus", abs(value), 1.0 + 1e-12)
