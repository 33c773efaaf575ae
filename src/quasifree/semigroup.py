"""Quasifree completely positive semigroups on n bosonic modes.

A real matrix pair (K, C) with C symmetric PSD and C + i(K^T J + J K) >= 0
generates a one-parameter semigroup that maps the Weyl operator W(z) to a
damped Weyl operator, and dually maps Gaussian states to Gaussian states:

    means:       (l_t, -m_t) = e^{tK^T} (l, -m)
    covariance:  S_t = e^{tK^T} S e^{tK} + (1/2) B_t,
    B_t = integral_0^t e^{sK^T} C e^{sK} ds.

Both directions are implemented and linked by the duality identity
Tr(rho_t W(z)) = Tr(rho W(z_out)) exp(-damping), which the tests exercise.

Each fact is proven once, where the value enters.  Pairs are immutable: the
constructor checks that K and C are finite and that the pair is admissible,
on read-only copies of K and C, so no later write can slip past the check
and no later layer repeats it.  A pair keeps the tolerance set it was admitted
under, and its input states, its decomposition and the oracle are judged by
it.  Both directions need the same (e^{tK}, B_t) at a given t, and each pair
holds one :class:`~quasifree.symplectic.Propagator`, made before the
admissibility test so that its check of K and C is the pair's only one.
:meth:`QuasifreePair.propagator` reads one time through its bounded memo,
which a channel's Weyl probes hit at the times it has just evolved, and
:func:`evolve_states` one stacked grid that skips it, as nothing reads a
grid's times again; both are bitwise :func:`quasifree.symplectic.propagator`,
the first evaluation prepares it, and an empty grid prepares nothing.  Input
states are checked through their own cached ``diagnostic``, once per grid (its
PSD rule takes 2S + iJ, Hermitian bit for bit, with no Hermitian test); an
evolved state keeps, uncopied, the moments proven finite.  One time enters
one ``np.errstate`` guard over its memo read and tests each result once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import GaussianState, _refuse_invalid
from .symplectic import (TOLERANCES, Check, Propagator, Tolerances, _finite, _finite_prefix,
                         _form_times, _overflow_error, complex_vector, pair_arrays, psd_verdict,
                         read_only, real_embed, real_extract)

__all__ = [
    "QuasifreePair",
    "WeylActionResult",
    "GeneratorCoefficients",
    "noise_matrix",
    "admissible",
    "weyl_action",
    "evolve_state",
    "evolve_states",
    "generator_action",
]


def noise_matrix(K, C) -> np.ndarray:
    """D = C + i(K^T J + J K), exactly Hermitian; K and C pass pair_arrays, K of even order."""
    return _noise_parts(K, C)[3]


def _noise_parts(K, C):
    """(K, C, JK, D): K and C by pair_arrays, K of even order, and J K and D."""
    K, C = pair_arrays(K, C)
    if K.shape[0] % 2 != 0:
        raise ValueError(f"K must be of even order, got {K.shape}")
    return (K, C, *_noise(K, C))


def _noise(K, C):
    """(J K, D) of checked K and C, K of even order."""
    JK = _form_times(K)
    D = C + 1j * (JK - JK.T)  # K^T J + J K, as J^T = -J
    return JK, (D + D.conj().T) / 2.0


def admissible(K, C, tol: float = TOLERANCES.psd) -> Check:
    """Test the generator inequality C + i(K^T J + J K) >= 0 by the PSD rule.
    C >= 0 follows: the imaginary part of the noise matrix is antisymmetric,
    so x^T D x = x^T C x for every real x."""
    return psd_verdict(np.linalg.eigvalsh(noise_matrix(K, C)), tol)


@dataclass(frozen=True, eq=False)
class QuasifreePair:
    """Admissible generating pair over read-only copies of K and C; finiteness
    and the inequality are checked on construction, at tolerances.psd, which
    also sets min_noise_eigenvalue.  Compared and hashed by identity.  Its
    (e^{tK}, B_t) come from its one symplectic.Propagator, which checks K and
    C for the pair and memoizes single times, not grids."""

    n: int
    K: np.ndarray
    C: np.ndarray
    tolerances: Tolerances = TOLERANCES
    min_noise_eigenvalue: float = field(init=False)

    def __post_init__(self):
        K = read_only(self.K)
        C = read_only(self.C)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "C", C)
        if K.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"K must be {2 * self.n} x {2 * self.n}, got {K.shape}")
        propagator = Propagator(K, C)   # pair_arrays: the pair's one check of K and C
        D = _noise(propagator.K, propagator.C)[1]
        check = psd_verdict(np.linalg.eigvalsh(D), self.tolerances.psd)
        if not check.passed:
            raise ValueError(f"pair is not admissible: noise matrix has "
                             f"min eigenvalue {-check.value:.3e}")
        object.__setattr__(self, "min_noise_eigenvalue", -check.value)
        object.__setattr__(self, "_propagator", propagator)

    def __reduce__(self):
        # copies and pickles are rebuilt by the constructor: read-only arrays,
        # the admissibility check and an empty memo of their own
        return type(self), (self.n, self.K, self.C, self.tolerances)

    def propagator(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """``symplectic.propagator(K, C, t)`` by the pair's ``Propagator.at``,
        evaluated once per t while t stays among its PROPAGATOR_MEMO most
        recently used single times."""
        return self._propagator.at(float(t))


@dataclass(frozen=True, eq=False)
class WeylActionResult:
    """Damped Weyl image: T_t(W(z)) = W(z_out) exp(-damping_exponent)."""

    z_out: np.ndarray
    damping_exponent: float


def weyl_action(pair: QuasifreePair, t: float, z) -> WeylActionResult:
    """Image of the Weyl operator under the semigroup at time t >= 0.  A
    propagator that overflows by time t, or an image or damping exponent that
    does, raise :class:`~quasifree.symplectic.PropagatorOverflowError`; one
    single-time guard covers the memo read and both, each tested once."""
    xi = real_embed(complex_vector(z, pair.n))
    with np.errstate(over="ignore", invalid="ignore"):
        E, B = pair._propagator._at(float(t))
        xi_out = E @ xi
        damping = float(0.5 * xi @ B @ xi)
        if not (_finite(xi_out) and math.isfinite(damping)):
            raise _overflow_error(pair.K, t)
    z_out = xi_out[:pair.n] + 1j * xi_out[pair.n:]
    return WeylActionResult(z_out=z_out, damping_exponent=damping)


def evolve_state(state: GaussianState, pair: QuasifreePair, t: float) -> GaussianState:
    """The state at time t, by the rule of :func:`evolve_states` at the one
    time t, in a body of its own: one memo read of t, its two moments
    tested once each under one single-time guard, and no stack of one time."""
    _refuse_input(state, pair)
    with np.errstate(over="ignore", invalid="ignore"):
        E, B = pair._propagator._at(float(t))
        w, S_t = _moments(state, E, B)
        if not (_finite(w) and _finite(S_t)):
            raise _overflow_error(pair.K, t)
    return GaussianState._proven(state.n, w[:state.n], read_only(-w[state.n:]), S_t)


def evolve_states(state: GaussianState, pair: QuasifreePair, times) -> list[GaussianState]:
    """Predual action on Gaussian states at each of times, the input checked
    once, at the pair's PSD tolerance, before any time is read.  The
    propagators come stacked from one ``Propagator.grid``, which skips the
    pair's memo, and every S_t = E^T S E + B/2 from stacked products.
    An admitted pair's noise matrix may reach -eps, eps its PSD bound, so an
    evolved state can miss that bound by about eps / gamma, gamma the decay
    rate.  The first time in the order of times that is not in [0, inf)
    raises ValueError, and the first at which the propagator or the evolved
    moments overflow raises :class:`~quasifree.symplectic.PropagatorOverflowError`;
    of the two, the earlier time is refused."""
    _refuse_input(state, pair)
    times = [float(t) for t in times]
    E, B, error = pair._propagator.grid(times)
    with np.errstate(over="ignore", invalid="ignore"):
        w, S_t = _moments(state, E, B)
    stop = _finite_prefix(times[:len(E)], w, S_t)
    if stop < len(E):
        raise _overflow_error(pair.K, times[stop])
    if error is not None:
        raise error
    n = state.n
    return [GaussianState._proven(n, *lmS) for lmS in zip(w[:, :n], read_only(-w[:, n:]), S_t)]


def _refuse_input(state: GaussianState, pair: QuasifreePair) -> None:
    """Refuse a state of another mode count than the pair's, or an invalid one."""
    if state.n != pair.n:
        raise ValueError(f"state has {state.n} modes but pair has {pair.n}")
    _refuse_invalid(state, pair.tolerances.psd)


def _moments(state: GaussianState, E, B):
    """(w, S_t): the evolved means w = E^T (l, -m) and covariance
    S_t = E^T S E + B/2, symmetrized, for one (E, B) or a stack of them; they
    may overflow, under the caller's guard, and are write-protected views."""
    E_T = E.swapaxes(-1, -2)
    w = E_T @ np.concatenate([state.l, -state.m])
    S_t = E_T @ state.S @ E + 0.5 * B
    S_t = (S_t + S_t.swapaxes(-1, -2)) / 2.0
    w.flags.writeable = S_t.flags.writeable = False
    return w.view(), S_t.view()


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
    z = complex_vector(z, pair.n)
    xi = real_embed(z)
    g = real_extract(pair.K @ xi)
    inner = np.vdot(g, z)  # <g|z>, antilinear in the first slot
    scalar = 0.5 * (inner - np.conj(inner) - xi @ pair.C @ xi)
    return GeneratorCoefficients(gain_vector=g, scalar_part=complex(scalar))

