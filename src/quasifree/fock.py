"""Brute-force truncated Fock-space oracle for n bosonic modes.

Every closed-form phase-space result in this package can be checked against
explicit matrices on the truncated space C^{cutoff} per mode: ladder
operators, Weyl displacement matrices, coherent vectors, and a fixed-step
RK4 integrator for Lindblad master equations.  The representation is exact
below the top occupation level of each mode; the population of the top
level ("leakage") is the trust metric for every oracle result.

The integrator returns the fixed-step RK4 result P(hL)^steps rho0, P the
RK4 step polynomial, but applies it by Krylov projection in chunks: Arnoldi
on Hermitian matrices (real Gram-Schmidt coefficients, at most 30 basis
vectors) and P(hH_k)^s on the small Hessenberg matrix.  A chunk of s steps
is exact when 4s <= k - 1 for k basis vectors; beyond that it is bounded
by the estimate beta h_{k+1,k} |e_k^T P(hH_k)^s e_1| <= 1e-15.  The trace
drift is checked once per chunk, and the basis costs 31 d^2 complex
numbers.  The Lindbladian is applied as two stacked sparse products; see
lindblad_evolve.  scipy.sparse is imported there, so code that never
integrates does not load it.  Weyl matrices are Kronecker products of
single-mode exponentials.

Tensor ordering is mode-major: the first mode is the most significant index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .gaussian import GaussianState, weyl_transform
from .semigroup import QuasifreePair, evolve_state
from .symplectic import PSD_TOL, expm, hermitian_check
from .synthesis import DilationSpec, decompose

__all__ = [
    "FockRep",
    "DimensionCapError",
    "LeakageError",
    "build",
    "annihilator",
    "creator",
    "vacuum_vector",
    "exponential_vector",
    "coherent_vector",
    "coherent_density",
    "weyl_matrix",
    "top_level_population",
    "validate_density",
    "hamiltonian_matrix",
    "lindblad_matrices",
    "lindblad_evolve",
    "state_moments",
    "oracle_compare",
]

#: hard cap on the total Hilbert-space dimension cutoff**n; it bounds the
#: Krylov basis of lindblad_evolve, 31 d^2 complex numbers, to 0.52 GB
DIM_CAP = 1024

#: top-level population above which oracle results are not trusted
LEAKAGE_TRUST = 1e-8

#: Krylov basis cap (as in Expokit), bound on the step-error estimate, and
#: how many basis vectors lie between two tests of that estimate
_KRYLOV_MAX = 30
_KRYLOV_TOL = 1e-15
_KRYLOV_CHECK = 4


class DimensionCapError(ValueError):
    """Requested truncation exceeds the configured dimension cap."""


class LeakageError(RuntimeError):
    """Truncation leakage too large for the requested computation."""


@dataclass(frozen=True, eq=False)
class FockRep:
    """Truncated n-mode Fock representation with explicit operator matrices."""

    n: int
    cutoff: int
    dim: int
    a: tuple          # annihilation matrix per mode
    adag: tuple       # creation matrix per mode
    q: tuple          # (a + a^dag)/sqrt(2) per mode
    p: tuple          # (a - a^dag)/(i sqrt(2)) per mode


def build(n: int, cutoff: int) -> FockRep:
    """Build the truncated representation with cutoff levels per mode; a
    dimension cutoff**n above DIM_CAP is refused before anything is built."""
    if n < 1:
        raise ValueError("need at least one mode")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    dim = cutoff**n
    if dim > DIM_CAP:
        raise DimensionCapError(f"dimension {cutoff}^{n} = {dim} exceeds cap {DIM_CAP}")
    lower = np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)
    eye = np.eye(cutoff, dtype=complex)
    a = [reduce(np.kron, [lower if k == j else eye for k in range(n)]) for j in range(n)]
    adag = [m.conj().T for m in a]
    q = [(x + xd) / math.sqrt(2) for x, xd in zip(a, adag)]
    p = [(x - xd) / (1j * math.sqrt(2)) for x, xd in zip(a, adag)]
    return FockRep(n=n, cutoff=cutoff, dim=dim,
                   a=tuple(a), adag=tuple(adag), q=tuple(q), p=tuple(p))


def annihilator(rep: FockRep, u) -> np.ndarray:
    """Smeared annihilation operator, antilinear in u: sum_j conj(u_j) a_j."""
    u = np.asarray(u, dtype=complex).ravel()
    if u.size != rep.n:
        raise ValueError(f"expected a length-{rep.n} vector, got {u.size}")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for uj, aj in zip(u, rep.a):
        out += np.conj(uj) * aj
    return out


def creator(rep: FockRep, v) -> np.ndarray:
    """Smeared creation operator, linear in v: sum_j v_j a_j^dag."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != rep.n:
        raise ValueError(f"expected a length-{rep.n} vector, got {v.size}")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for vj, adj in zip(v, rep.adag):
        out += vj * adj
    return out


def _mode_occupations(rep: FockRep):
    """Array occ[j, idx] = occupation of mode j at basis index idx."""
    idx = np.arange(rep.dim)
    occ = np.empty((rep.n, rep.dim), dtype=int)
    for j in range(rep.n):
        occ[j] = (idx // rep.cutoff ** (rep.n - 1 - j)) % rep.cutoff
    return occ


def top_level_population(rep: FockRep, state) -> float:
    """Population of the top occupation level of any mode.

    Accepts a state vector or a density matrix; this is the truncation
    leakage metric that bounds the trustworthiness of oracle results.
    """
    state = np.asarray(state)
    occ = _mode_occupations(rep)
    top = (occ == rep.cutoff - 1).any(axis=0)
    if state.ndim == 1:
        return float(np.sum(np.abs(state[top]) ** 2))
    return float(np.real(np.trace(state[np.ix_(top, top)])))


def vacuum_vector(rep: FockRep) -> np.ndarray:
    vec = np.zeros(rep.dim, dtype=complex)
    vec[0] = 1.0
    return vec


def exponential_vector(rep: FockRep, u) -> np.ndarray:
    """Unnormalized exponential vector with components prod_j u_j^k / sqrt(k!)."""
    u = np.asarray(u, dtype=complex).ravel()
    if u.size != rep.n:
        raise ValueError(f"expected a length-{rep.n} vector, got {u.size}")
    vec = None
    for uj in u:
        # components u^k / sqrt(k!) via the stable recurrence c_k = c_{k-1} u / sqrt(k)
        single = np.empty(rep.cutoff, dtype=complex)
        single[0] = 1.0
        for k in range(1, rep.cutoff):
            single[k] = single[k - 1] * uj / math.sqrt(k)
        vec = single if vec is None else np.kron(vec, single)
    return vec


def coherent_vector(rep: FockRep, alpha) -> np.ndarray:
    """Normalized coherent vector; warns when truncation leakage is large."""
    alpha = np.asarray(alpha, dtype=complex).ravel()
    vec = exponential_vector(rep, alpha) * np.exp(-0.5 * np.sum(np.abs(alpha) ** 2))
    leak = top_level_population(rep, vec)
    if leak > LEAKAGE_TRUST:
        warnings.warn(f"coherent vector leaks {leak:.2e} into the top level", stacklevel=2)
    return vec


def coherent_density(rep: FockRep, alpha) -> np.ndarray:
    psi = coherent_vector(rep, alpha)
    return np.outer(psi, psi.conj())


def weyl_matrix(rep: FockRep, z) -> np.ndarray:
    """Displacement matrix expm(a^dag(z) - a(z)).

    The modes act on separate tensor factors, so this is the Kronecker
    product of the single-mode expm(z_j a^dag - conj(z_j) a) on cutoff x
    cutoff matrices.  Unitary up to truncation effects near the top level;
    a warning is issued when the displaced vacuum leaks above the trust
    threshold.
    """
    z = np.asarray(z, dtype=complex).ravel()
    if z.size != rep.n:
        raise ValueError(f"expected a length-{rep.n} vector, got {z.size}")
    lower = np.diag(np.sqrt(np.arange(1, rep.cutoff)), 1)
    W = np.ones((1, 1))
    for zj in z:
        W = np.kron(W, expm(zj * lower.T - np.conj(zj) * lower))
    leak = top_level_population(rep, W[:, 0])
    if leak > LEAKAGE_TRUST:
        warnings.warn(f"Weyl matrix for |z| = {np.linalg.norm(z):.3g} leaks "
                      f"{leak:.2e} into the top level", stacklevel=2)
    return W


def validate_density(rho, tol: float = PSD_TOL) -> None:
    """Raise unless rho is Hermitian, unit trace and PSD within tol."""
    rho = np.asarray(rho)
    if not hermitian_check(rho, tol)[0]:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho):.12g} != 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w[0] < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}")


def hamiltonian_matrix(rep: FockRep, hamiltonian_terms) -> np.ndarray:
    """Quadratic Hamiltonian (1/4) sum_j lam_j (a(w_j) + a^dag(w_j))^2."""
    H = np.zeros((rep.dim, rep.dim), dtype=complex)
    for term in hamiltonian_terms:
        G = annihilator(rep, term.w) + creator(rep, term.w)
        H += 0.25 * term.lam * (G @ G)
    return H


def lindblad_matrices(rep: FockRep, spec: DilationSpec):
    """Coupling operators L_j = a(u_j) + a^dag(v_j) from a dilation spec."""
    return [annihilator(rep, term.u) + creator(rep, term.v) for term in spec.lindblad_terms]


def lindblad_evolve(rep: FockRep, rho0, spec: DilationSpec, t: float, steps: int) -> np.ndarray:
    """Integrate the master equation for the dilation data over [0, t].

    drho/dt = -i[H, rho] + sum_j ( L_j rho L_j^dag - (1/2){L_j^dag L_j, rho} )

    The result is that of fixed-step RK4 with h = t/steps: P(hL)^steps rho0
    with P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, the exact RK4 step of a
    constant linear generator.  It is applied by Krylov projection in chunks.
    From the current rho (symmetrized to (rho0 + rho0^dag)/2 at the start),
    Arnoldi builds at most 30 basis vectors V_k with beta = ||rho||_F.  L
    maps Hermitian matrices to Hermitian matrices and Tr(XY) is real for
    Hermitian X, Y, so the Gram-Schmidt coefficients are taken real and the
    Hessenberg matrix H_k is real.  P(hH_k)^s e_1 gives P(hL)^s rho exactly
    whenever 4s <= k - 1; beyond that a chunk advances by the largest s whose
    estimate beta h_{k+1,k} |e_k^T P(hH_k)^s e_1| stays at most 1e-15.  The
    basis stops growing (tested every 4 vectors) once the estimate covers
    all remaining steps, or when L V_k lies in the span (L = 0, a dark
    state), where the result is exact.  Then rho <- beta V_k P(hH_k)^s e_1 is
    symmetrized and its trace drift checked; raises RuntimeError on drift,
    i.e. on an unstable step size, after the first chunk that shows it.

    L y for Hermitian y is two sparse products: with A = -iH - (1/2) sum_j
    L_j^dag L_j and M = A y it is M + M^dag + sum_j L_j (L_j y)^dag, so
    G = vstack(A, L_1, ..., L_m) @ y and then hstack(L_1, ..., L_m) applied
    to the blockwise conjugate transpose of the rows of G below the first d.
    The operators have at most (2n+1)^2 nonzeros per row; no d^2 x d^2
    superoperator is formed.  Memory is the basis, 31 d^2 complex numbers.
    """
    import scipy.sparse as sparse

    if t < 0:
        raise ValueError("time must be nonnegative")
    if steps < 1:
        raise ValueError("need at least one step")
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density(rho0)
    rho = 0.5 * (rho0 + rho0.conj().T)
    d = rep.dim
    Ls = lindblad_matrices(rep, spec)
    m = len(Ls)
    A = -1j * hamiltonian_matrix(rep, spec.hamiltonian_terms)
    for L in Ls:
        A -= 0.5 * (L.conj().T @ L)
    stacked = sparse.csr_array(np.vstack([A, *Ls]))
    # the empty block keeps the shape (d, 0) when there are no couplings
    side_by_side = sparse.csr_array(np.hstack([np.zeros((d, 0)), *Ls]))
    # B[0] = M^dag and B[j] = (L_j y)^dag, one transposing pass per product
    B = np.empty((m + 1, d, d), dtype=complex)
    jumps = B[1:].reshape(m * d, d)

    def apply(y, out):
        G = stacked @ y
        np.conjugate(G.reshape(m + 1, d, d).transpose(0, 2, 1), out=B)
        np.add(side_by_side @ jumps, G[:d], out=out)
        out += B[0]

    # complex basis vectors and their real views: <X, Y> = Re Tr(X^dag Y)
    V = np.empty((_KRYLOV_MAX + 1, d, d), dtype=complex)
    Vr = V.reshape(_KRYLOV_MAX + 1, d * d).view(float)
    h = t / steps
    done = 0
    while done < steps:
        left = steps - done
        beta = np.linalg.norm(rho)
        V[0] = rho / beta
        H = np.zeros((_KRYLOV_MAX + 1, _KRYLOV_MAX))
        for j in range(_KRYLOV_MAX):
            k = j + 1
            apply(V[j], V[k])
            w = Vr[k]
            scale = np.linalg.norm(w)
            for _ in range(2):      # classical Gram-Schmidt, reorthogonalized once
                c = Vr[:k] @ w
                w -= c @ Vr[:k]
                H[:k, j] += c
            H[k, j] = np.linalg.norm(w)
            if H[k, j] <= np.finfo(float).eps * scale:
                H[k, j] = 0.0       # breakdown: L V_k lies in the span
                break
            w /= H[k, j]
            if 4 * left <= k - 1:
                break
            if (k % _KRYLOV_CHECK == 0 and beta * H[k, j]
                    * abs(_rk4_power(h * H[:k, :k], left)[-1]) <= _KRYLOV_TOL):
                break
        s, power = _rk4_chunk(h * H[:k, :k], beta * H[k, k - 1], left)
        rho = (beta * (power @ Vr[:k])).view(complex).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        done += s
        drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
        if not np.isfinite(drift) or drift > 1e-6:
            raise RuntimeError(f"trace drift {drift:.3e} after {done} steps; "
                               "reduce the step size")
    return rho


def _rk4_step_matrix(X):
    """P(X) = I + X + X^2/2 + X^3/6 + X^4/24 in Horner form."""
    eye = np.eye(len(X))
    P = eye + X / 4
    for c in (3, 2, 1):
        P = eye + (X / c) @ P
    return P


def _rk4_power(X, s):
    """P(X)^s e_1; non-finite when the power overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.matrix_power(_rk4_step_matrix(X), s)[:, 0]


def _rk4_chunk(X, residual, left):
    """Steps s <= left for one chunk of k = len(X) basis vectors, and P(X)^s e_1.

    All left steps when they are exact (4 left <= k - 1, or residual = 0
    after a breakdown) or their estimate residual |e_k^T P(X)^left e_1| is
    at most _KRYLOV_TOL; otherwise the exact steps and then every step up to
    the first that fails the estimate.
    """
    k = len(X)
    u = _rk4_power(X, left)
    if residual == 0 or 4 * left <= k - 1 or residual * abs(u[-1]) <= _KRYLOV_TOL:
        return left, u
    P = _rk4_step_matrix(X)
    u = np.eye(k)[0]
    s = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while s < left:
            nxt = P @ u
            if 4 * (s + 1) > k - 1 and not residual * abs(nxt[-1]) <= _KRYLOV_TOL:
                break
            u, s = nxt, s + 1
    return s, u


def state_moments(rep: FockRep, rho):
    """Means and covariance of the observables (p_1..p_n, -q_1..-q_n).

    Returns (l, m, S) with l_j = Tr(p_j rho), m_j = Tr(q_j rho) and S the
    symmetrized second-moment matrix minus the outer product of the means.
    With Z_j = X_j rho, Tr(X_i X_j rho) is the sum of the elementwise product
    of X_i and Z_j^T, so only the 2n matrix products Z_j are formed.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rep.n
    X = np.stack(list(rep.p) + [-qj for qj in rep.q])
    Z = X @ rho
    means = np.trace(Z, axis1=1, axis2=2).real
    # T[i, j] = Tr(X_i X_j rho)
    T = X.reshape(2 * n, -1) @ Z.transpose(0, 2, 1).reshape(2 * n, -1).T
    S = 0.5 * (T + T.T).real - np.outer(means, means)
    return means[:n], -means[n:], S


@dataclass(frozen=True)
class OracleReport:
    """Discrepancies between the closed-form semigroup and the Fock oracle."""

    t: float
    cutoff: int
    steps: int
    leakage: float
    mean_error: float
    cov_error: float
    weyl_error: float

    @property
    def max_error(self) -> float:
        return max(self.mean_error, self.cov_error, self.weyl_error)


def _coherent_amplitude(state: GaussianState) -> np.ndarray:
    half = 0.5 * np.eye(2 * state.n)
    if np.abs(state.S - half).max(initial=0.0) > 1e-8:
        raise ValueError("oracle comparison supports coherent-family initial states "
                         "(covariance I/2) only; general Gaussian initial data is "
                         "not representable here")
    return (state.m + 1j * state.l) / math.sqrt(2)


def oracle_compare(state: GaussianState, pair: QuasifreePair, t: float,
                   cutoff: int = 30, steps: int = 2000,
                   num_weyl: int = 5, seed: int = 2024) -> OracleReport:
    """Run the closed-form and brute-force pipelines and report discrepancies.

    The initial state must be coherent (covariance I/2) and representable at
    the requested cutoff with leakage below 1e-6, otherwise the comparison is
    refused.  Weyl-transform errors are probed at num_weyl random arguments
    with |z| <= 1 drawn from the given seed.
    """
    alpha = _coherent_amplitude(state)
    rep = build(state.n, cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho0 = coherent_density(rep, alpha)
    leak = top_level_population(rep, rho0)
    if leak > 1e-6:
        raise LeakageError(f"initial state leaks {leak:.2e} > 1e-6 at cutoff {cutoff}; "
                           "increase the cutoff or shrink the state")
    spec = decompose(pair.K, pair.C)
    rho_t = lindblad_evolve(rep, rho0, spec, t, steps)
    leak_t = max(leak, top_level_population(rep, rho_t))

    l_num, m_num, S_num = state_moments(rep, rho_t)
    ref = evolve_state(state, pair, t)
    mean_err = float(max(np.abs(l_num - ref.l).max(initial=0.0),
                         np.abs(m_num - ref.m).max(initial=0.0)))
    cov_err = float(np.abs(S_num - ref.S).max(initial=0.0))

    rng = np.random.Generator(np.random.Philox(seed))
    weyl_err = 0.0
    for _ in range(num_weyl):
        z = rng.normal(size=state.n) + 1j * rng.normal(size=state.n)
        norm = np.linalg.norm(z)
        if norm > 1.0:
            z = z / norm
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            W = weyl_matrix(rep, z)
        numeric = np.sum(rho_t.T * W)
        closed = weyl_transform(ref, z)
        weyl_err = max(weyl_err, abs(numeric - closed))

    return OracleReport(t=t, cutoff=cutoff, steps=steps, leakage=leak_t,
                        mean_error=mean_err, cov_error=cov_err,
                        weyl_error=float(weyl_err))

