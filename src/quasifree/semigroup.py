"""Quasifree completely positive semigroups on n bosonic modes.

A real matrix pair (K, C) with C symmetric PSD and C + i(K^T J + J K) >= 0
generates a one-parameter semigroup that maps the Weyl operator W(z) to a
damped Weyl operator, and dually maps Gaussian states to Gaussian states:

    means:       (l_t, -m_t) = e^{tK^T} (l, -m)
    covariance:  S_t = e^{tK^T} S e^{tK} + (1/2) B_t,
    B_t = integral_0^t e^{sK^T} C e^{sK} ds.

Both directions are implemented and linked by the duality identity
Tr(rho_t W(z)) = Tr(rho W(z_out)) exp(-damping), which the tests exercise.

Pairs are immutable: the constructor checks admissibility on read-only copies
of K and C, so no later write can slip past the check.  Both directions need
the same (e^{tK}, B_t) at a given t, and each pair memoizes it:
:meth:`QuasifreePair.propagator` calls :func:`quasifree.symplectic.propagator`
once per t, keeps the PROPAGATOR_MEMO most recently used times, and returns
read-only arrays.  Input states are checked through the state's own cached
:meth:`~quasifree.gaussian.GaussianState.diagnostic`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gaussian import GaussianState
from .symplectic import (PSD_TOL, SYMMETRY_TOL, _overflow, hermitian_check, propagator,
                         psd_check, read_only, real_embed, real_extract, symplectic_form)

__all__ = [
    "PROPAGATOR_MEMO",
    "QuasifreePair",
    "WeylActionResult",
    "GeneratorCoefficients",
    "noise_matrix",
    "admissible",
    "weyl_action",
    "evolve_state",
    "generator_action",
]


def noise_matrix(K, C) -> np.ndarray:
    """Hermitian noise matrix D = C + i(K^T J + J K); asymmetric C is rejected."""
    K = np.asarray(K, dtype=float)
    C = np.asarray(C, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] % 2 != 0:
        raise ValueError(f"K must be square of even order, got {K.shape}")
    if C.shape != K.shape:
        raise ValueError(f"C must match K, got {C.shape} vs {K.shape}")
    if not hermitian_check(C, SYMMETRY_TOL)[0]:
        raise ValueError("C must be symmetric")
    J = symplectic_form(K.shape[0] // 2)
    D = C + 1j * (K.T @ J + J @ K)
    return (D + D.conj().T) / 2.0


def admissible(K, C, tol: float = PSD_TOL):
    """Test the generator inequality C + i(K^T J + J K) >= 0.

    Returns (ok, min_eigenvalue) with the smallest eigenvalue of the noise
    matrix.  C >= 0 follows: the imaginary part of the noise matrix is
    antisymmetric, so x^T D x = x^T C x for every real x.
    """
    return psd_check(noise_matrix(K, C), tol)


#: propagators (e^{tK}, B_t) a pair keeps, the least recently used dropped first
PROPAGATOR_MEMO = 32


def _read_only_propagator(K, C, t):
    E, B = propagator(K, C, t)
    E.flags.writeable = False
    B.flags.writeable = False
    return E, B


@dataclass(frozen=True, eq=False)
class QuasifreePair:
    """Admissible generating pair over read-only copies of K and C; the
    inequality is checked on construction, which also sets
    min_noise_eigenvalue.  Compared and hashed by identity."""

    n: int
    K: np.ndarray
    C: np.ndarray
    min_noise_eigenvalue: float = field(init=False)

    def __post_init__(self):
        K = read_only(self.K)
        C = read_only(self.C)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "C", C)
        if K.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"K must be {2 * self.n} x {2 * self.n}, got {K.shape}")
        ok, min_eig = admissible(K, C)
        if not ok:
            raise ValueError(f"pair is not admissible: noise matrix has "
                             f"min eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "min_noise_eigenvalue", min_eig)
        object.__setattr__(self, "_propagators", functools.lru_cache(PROPAGATOR_MEMO)(
            functools.partial(_read_only_propagator, K, C)))

    def __reduce__(self):
        # copies and pickles are rebuilt by the constructor: read-only arrays,
        # the admissibility check and an empty memo of their own
        return type(self), (self.n, self.K, self.C)

    def propagator(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """``symplectic.propagator(K, C, t)`` as read-only arrays, computed once
        per t while t stays among the PROPAGATOR_MEMO most recently used."""
        return self._propagators(float(t))


@dataclass(frozen=True, eq=False)
class WeylActionResult:
    """Damped Weyl image: T_t(W(z)) = W(z_out) exp(-damping_exponent)."""

    z_out: np.ndarray
    damping_exponent: float


def weyl_action(pair: QuasifreePair, t: float, z) -> WeylActionResult:
    """Image of the Weyl operator under the semigroup at time t >= 0."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.size != pair.n:
        raise ValueError(f"expected a length-{pair.n} argument, got {z.size}")
    xi = real_embed(z)
    E, B = pair.propagator(t)
    z_out = real_extract(E @ xi)
    return WeylActionResult(z_out=z_out, damping_exponent=float(0.5 * xi @ B @ xi))


def evolve_state(state: GaussianState, pair: QuasifreePair, t: float) -> GaussianState:
    """Predual action on Gaussian states; preserves validity for all t >= 0.
    A propagator (e^{tK}, B_t) that overflows by time t, or evolved means or
    covariance that do, raise
    :class:`~quasifree.symplectic.PropagatorOverflowError`."""
    if state.n != pair.n:
        raise ValueError(f"state has {state.n} modes but pair has {pair.n}")
    diag = state.diagnostic()
    if not diag.is_valid:
        raise ValueError(f"invalid input state: min eig {diag.min_eigenvalue:.3e}")
    E, B = pair.propagator(t)
    with np.errstate(over="ignore", invalid="ignore"):
        w = E.T @ np.concatenate([state.l, -state.m])
        S_t = E.T @ state.S @ E + 0.5 * B
        S_t = (S_t + S_t.T) / 2.0
    if not (np.isfinite(w).all() and np.isfinite(S_t).all()):
        raise _overflow(pair.K, t)
    return GaussianState(n=state.n, l=w[:state.n], m=-w[state.n:], S=S_t)


@dataclass(frozen=True, eq=False)
class GeneratorCoefficients:
    """Coefficients g, s of L(W(z)) = {a^dag(g) - a(g) + s} W(z)."""

    gain_vector: np.ndarray
    scalar_part: complex


def generator_action(pair: QuasifreePair, z) -> GeneratorCoefficients:
    """Generator of the semigroup evaluated on the Weyl operator W(z).

    g is the complex form of K applied to the real embedding of z; the scalar
    is (1/2){<g|z> - <z|g> - (Rz)^T C (Rz)}.  The imaginary part of the scalar
    is a phase drift, the (nonpositive) real part the damping rate.
    """
    z = np.asarray(z, dtype=complex).ravel()
    if z.size != pair.n:
        raise ValueError(f"expected a length-{pair.n} argument, got {z.size}")
    xi = real_embed(z)
    g = real_extract(pair.K @ xi)
    inner = np.vdot(g, z)  # <g|z>, antilinear in the first slot
    scalar = 0.5 * (inner - np.conj(inner) - xi @ pair.C @ xi)
    return GeneratorCoefficients(gain_vector=g, scalar_part=complex(scalar))

