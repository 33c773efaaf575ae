"""Classical statistics extracted from bosonic fields in distinguished states.

Three constructions are covered, all at finite size:

* Gram factorization of a positive definite kernel over finitely many
  points, together with a permutation group action that leaves the kernel
  invariant (the factor vectors intertwine the action).
* Gaussian field laws of the commuting quadrature families in a coherent
  state: covariance is the Gram matrix of the smearing vectors, means are
  linear functionals of the reference amplitude.
* Compound-Poisson laws of number-like observables in a coherent state:
  the jump measure places mass |<xi_k|u>|^2 at each eigenvalue x_k of the
  generating Hermitian matrix.

Sampling uses an explicitly seeded counter-based generator (Philox) so
every draw is reproducible bit-for-bit; a covariance is judged by the one PSD
rule, symplectic.psd_verdict, so its bound scales with the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symplectic import (SYMMETRY_TOL, TOLERANCES, Check, complex_vector, hermitian_check,
                         hermitian_eigh, psd_verdict)

__all__ = [
    "KernelModel",
    "FieldLaw",
    "LevyLaw",
    "gns_factor",
    "vacuum_field_variance",
    "coherent_gaussian_field",
    "levy_law",
    "sample",
    "mean_band",
    "SampleCapError",
]

#: most values (count x dimension) that one call of sample() may draw
SAMPLE_CAP = 10**7

#: largest Poisson mean numpy's sampler takes, int64 max - 10 sqrt(int64 max)
POISSON_MASS_MAX = float(np.iinfo(np.int64).max) - 10.0 * float(np.iinfo(np.int64).max) ** 0.5


class SampleCapError(ValueError):
    """Requested sample exceeds SAMPLE_CAP values."""


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Positive definite kernel on finitely many points, at least one,
    optionally invariant under a list of permutations (each permutation g
    maps point i to g[i])."""

    points: tuple
    K: np.ndarray
    group: tuple = ()

    def __post_init__(self):
        K = np.asarray(self.K, dtype=complex)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "group", tuple(tuple(g) for g in self.group))
        N = len(self.points)
        if N == 0:
            raise ValueError("kernel needs at least one point")
        if K.shape != (N, N):
            raise ValueError(f"kernel must be {N} x {N}, got {K.shape}")
        if not hermitian_check(K, 1e-12).passed:
            raise ValueError("kernel must be Hermitian")
        _kernel_eigh(K)
        scale = 1.0 + np.abs(K).max(initial=0.0)
        for g in self.group:
            if sorted(g) != list(range(N)):
                raise ValueError(f"not a permutation of 0..{N - 1}: {g}")
            P = np.asarray(g)
            if np.abs(K[np.ix_(P, P)] - K).max() > 1e-12 * scale:
                raise ValueError(f"kernel is not invariant under permutation {g}")


def _kernel_eigh(K):
    """hermitian_eigh of the Hermitian part of a kernel, refused unless its
    eigenvalues pass the PSD rule psd_verdict at the default tolerance."""
    w, V = hermitian_eigh((K + K.conj().T) / 2.0)
    if not psd_verdict(w).passed:
        raise ValueError(f"kernel is not PSD: min eigenvalue {w[-1]:.3e}")
    return w, V


def gns_factor(model: KernelModel) -> np.ndarray:
    """Factor vectors of the kernel: columns lam_j with <lam_i|lam_j> = K_ij.

    Rank-deficient kernels are allowed; the vectors then span a lower
    dimensional subspace.  The kernel must pass the PSD rule that
    KernelModel applies; the small negative eigenvalues it accepts are
    clipped to zero.
    """
    w, V = _kernel_eigh(model.K)
    scale = 1.0 + abs(w[0])
    # zero out negative and machine-noise eigenvalues so rank-deficient kernels
    # factor through a genuinely lower-dimensional span (sqrt would amplify them)
    w = np.where(w > 1e-14 * scale, w, 0.0)
    return np.sqrt(w)[:, None] * V.conj().T


def vacuum_field_variance(z, model: KernelModel) -> float:
    """Vacuum variance (1/2) z^dag K z of the quadrature combination Z.

    Z = sum_j (x_j q(alpha_j) + y_j p(alpha_j)) with z_j = x_j + i y_j; in
    the vacuum Z is centred normal with this variance.
    """
    z = complex_vector(z, len(model.points))
    var = 0.5 * np.vdot(z, model.K @ z)
    if abs(var.imag) > 1e-10 * (1.0 + abs(var.real)):
        raise ValueError("variance came out non-real; kernel is not Hermitian")
    return max(float(var.real), 0.0)


@dataclass(frozen=True, eq=False)
class FieldLaw:
    """Multivariate normal law (mean, covariance) of a commuting field family."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        for name, values in (("mean", mean), ("covariance", cov)):
            if not np.isfinite(values).all():
                raise ValueError(f"law {name} must be finite")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance must be {mean.size} x {mean.size}")
        if not hermitian_check(cov, SYMMETRY_TOL).passed:
            raise ValueError("covariance must be symmetric")


def coherent_gaussian_field(u0, us, family: str = "p") -> FieldLaw:
    """Gaussian law of the field values at smearing vectors us in the coherent
    state of amplitude u0.

    The vectors must have a real Gram matrix (pairwise real inner products),
    otherwise the family does not commute and has no joint classical law.
    family selects the momentum-type observables ("p", mean 2 Im<u0|u>) or the
    position-type ones ("q", mean 2 Re<u0|u>); the covariance is the Gram
    matrix in both cases.
    """
    u0 = np.asarray(u0, dtype=complex).ravel()
    vecs = [complex_vector(u, u0.size) for u in us]
    if not vecs:
        raise ValueError("need at least one smearing vector")
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    if np.abs(gram.imag).max(initial=0.0) > 1e-10 * (1.0 + np.abs(gram).max(initial=0.0)):
        raise ValueError("smearing vectors have complex inner products; the "
                         "field values do not commute")
    if family == "p":
        mean = np.array([2.0 * np.vdot(u0, u).imag for u in vecs])
    elif family == "q":
        mean = np.array([2.0 * np.vdot(u0, u).real for u in vecs])
    else:
        raise ValueError(f"family must be 'p' or 'q', got {family!r}")
    return FieldLaw(mean=mean, covariance=gram.real)


@dataclass(frozen=True)
class LevyLaw:
    """Compound-Poisson law: independent Poisson(mass_k) counts at atoms x_k."""

    atoms: tuple   # ((x_k, mass_k), ...)

    def __post_init__(self):
        atoms = tuple((float(x), float(m)) for x, m in self.atoms)
        for x, m in atoms:
            if m < 0:
                raise ValueError(f"atom mass must be nonnegative, got {m}")
        object.__setattr__(self, "atoms", atoms)

    def characteristic_function(self, t):
        """exp sum_k (e^{i t x_k} - 1) mass_k, vectorized over t."""
        t = np.asarray(t, dtype=float)
        acc = np.zeros(t.shape, dtype=complex)
        for x, m in self.atoms:
            acc += m * (np.exp(1j * t * x) - 1.0)
        return np.exp(acc)

    @property
    def mean(self) -> float:
        return sum(x * m for x, m in self.atoms)

    @property
    def variance(self) -> float:
        return sum(x * x * m for x, m in self.atoms)


def levy_law(H, u, merge_tol: float = 1e-9) -> LevyLaw:
    """Jump law of the conservation observable built from a Hermitian matrix H
    in the coherent state of amplitude u.

    The atoms sit at the eigenvalues of H with masses |<xi_k|u>|^2; close
    eigenvalues are merged and zero-mass atoms dropped.  u = 0 gives the point
    mass at zero (constant characteristic function).
    """
    H = np.asarray(H, dtype=complex)
    if not hermitian_check(H, SYMMETRY_TOL).passed:
        raise ValueError("H must be Hermitian")
    scale = 1.0 + np.abs(H).max(initial=0.0)
    u = complex_vector(u, H.shape[0])
    w, V = hermitian_eigh((H + H.conj().T) / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        masses = np.abs(V.conj().T @ u) ** 2
    if not np.isfinite(masses).all():
        raise ValueError("amplitude u is too large: the atom masses |<xi_k|u>|^2 overflow")
    atoms = []
    for x, m in zip(w, masses):
        if m <= 1e-15:
            continue
        for idx, (x0, m0) in enumerate(atoms):
            if abs(x - x0) <= merge_tol * scale:
                atoms[idx] = (x0, m0 + m)
                break
        else:
            atoms.append((float(x), float(m)))
    return LevyLaw(atoms=tuple(atoms))


def sample(law, count: int, seed: int, tol: float = TOLERANCES.psd) -> np.ndarray:
    """Draw reproducible samples from a FieldLaw or a LevyLaw.

    Gaussian laws are sampled through an eigenvalue square root of the
    covariance.  A covariance that fails the PSD rule psd_verdict at tol,
    min eigenvalue below -tol (1 + max|eigenvalue|), is rejected; the negative
    eigenvalues of one that passes are clipped to zero.  Jump laws are sampled
    as sums x_k * Poisson(mass_k) over independent counts; an atom whose mass
    exceeds POISSON_MASS_MAX is refused by name.  Returns shape (count, dim)
    for fields and (count,) for jump laws.  More than SAMPLE_CAP values in all
    are refused before anything is allocated.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    dim = law.mean.size if isinstance(law, FieldLaw) else 1
    if count * dim > SAMPLE_CAP:
        raise SampleCapError(f"{count} samples of dimension {dim} exceed the cap of "
                             f"{SAMPLE_CAP} values")
    rng = np.random.Generator(np.random.Philox(seed))
    if isinstance(law, FieldLaw):
        w, V = np.linalg.eigh((law.covariance + law.covariance.T) / 2.0)
        if not psd_verdict(w, tol).passed:
            raise ValueError(f"covariance is not PSD: min eigenvalue {w[0]:.3e}")
        root = V * np.sqrt(np.clip(w, 0.0, None))
        normals = rng.standard_normal((count, law.mean.size))
        return law.mean + normals @ root.T
    if isinstance(law, LevyLaw):
        for x, m in law.atoms:
            if m > POISSON_MASS_MAX:
                raise ValueError(f"atom at {x:.6g} has mass {m:.3g}, above {POISSON_MASS_MAX:.3g}, "
                                 f"the largest Poisson mean the sampler takes")
        out = np.zeros(count)
        for x, m in law.atoms:
            if m > 0:
                out += x * rng.poisson(m, size=count)
        return out
    raise TypeError(f"cannot sample from {type(law).__name__}")


def mean_band(law, draws) -> Check:
    """The empirical mean of draws from a FieldLaw or a LevyLaw against the law's
    own: max_i |mean_i - law mean_i| / sqrt(variance_i / count) within 5."""
    draws = np.reshape(draws, (len(draws), -1))
    variance = np.diag(law.covariance) if isinstance(law, FieldLaw) else law.variance
    sigma = np.sqrt(np.maximum(variance, 1e-300) / len(draws))
    return Check("mean_band", float(np.max(np.abs(draws.mean(axis=0) - law.mean) / sigma)), 5.0)
