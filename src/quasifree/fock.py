"""Brute-force truncated Fock-space oracle for n bosonic modes.

Every closed-form phase-space result in this package can be checked against
explicit matrices on the truncated space C^{cutoff} per mode: ladder
operators, Weyl displacement matrices, coherent vectors, and a fixed-step
RK4 integrator for Lindblad master equations.  The representation is exact
below the top occupation level of each mode; the population of the top
level ("leakage") is the trust metric for every oracle result.

The integrator symmetrizes the initial density matrix, runs each RK4 step
as the Horner form of the step polynomial (exact for a constant linear
generator), and applies the Lindbladian as two stacked sparse products per
stage; see lindblad_evolve.  scipy.sparse is imported there, so code that
never integrates does not load it.

Tensor ordering is mode-major: the first mode is the most significant index.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, weyl_transform
from .semigroup import QuasifreePair, evolve_state
from .symplectic import expm
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
    "write_moment_csv",
]

#: hard cap on the total Hilbert-space dimension cutoff**n
DIM_CAP = 4096

#: top-level population above which oracle results are not trusted
LEAKAGE_TRUST = 1e-8


class DimensionCapError(ValueError):
    """Requested truncation exceeds the configured dimension cap."""


class LeakageError(RuntimeError):
    """Truncation leakage too large for the requested computation."""


@dataclass(frozen=True)
class FockRep:
    """Truncated n-mode Fock representation with explicit operator matrices."""

    n: int
    cutoff: int
    dim: int
    a: tuple          # annihilation matrix per mode
    adag: tuple       # creation matrix per mode
    q: tuple          # (a + a^dag)/sqrt(2) per mode
    p: tuple          # (a - a^dag)/(i sqrt(2)) per mode


def build(n: int, cutoff: int, dim_cap: int = DIM_CAP) -> FockRep:
    """Build the truncated representation with cutoff levels per mode."""
    if n < 1:
        raise ValueError("need at least one mode")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    dim = cutoff**n
    if dim > dim_cap:
        raise DimensionCapError(f"dimension {cutoff}^{n} = {dim} exceeds cap {dim_cap}")
    lower = np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)
    eye = np.eye(cutoff, dtype=complex)
    a = []
    for j in range(n):
        factors = [lower if k == j else eye for k in range(n)]
        mat = factors[0]
        for f in factors[1:]:
            mat = np.kron(mat, f)
        a.append(mat)
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

    Unitary up to truncation effects near the top level; a warning is issued
    when the displaced vacuum leaks above the trust threshold.
    """
    z = np.asarray(z, dtype=complex).ravel()
    W = expm(creator(rep, z) - annihilator(rep, z))
    leak = top_level_population(rep, W[:, 0])
    if leak > LEAKAGE_TRUST:
        warnings.warn(f"Weyl matrix for |z| = {np.linalg.norm(z):.3g} leaks "
                      f"{leak:.2e} into the top level", stacklevel=2)
    return W


def validate_density(rho, tol: float = 1e-9) -> None:
    """Raise unless rho is Hermitian, unit trace and PSD within tol."""
    rho = np.asarray(rho)
    scale = 1.0 + np.abs(rho).max(initial=0.0)
    if np.abs(rho - rho.conj().T).max(initial=0.0) > tol * scale:
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

    drho/dt = +i[H, rho] + sum_j ( L_j rho L_j^dag - (1/2){L_j^dag L_j, rho} )

    The +i[H, rho] sign is pinned by the dissipation-free cross-checks
    against evolve_state (see tests); with the quadratic H synthesized by
    decompose, the standard -i sign would run the symplectic drift backwards.

    Fixed-step RK4 with a trace-drift watchdog; raises on instability.

    The input is symmetrized to (rho0 + rho0^dag)/2 and every iterate y is
    taken as Hermitian, so with A = iH - (1/2) sum_j L_j^dag L_j and M = A y
    the right-hand side is M + M^dag + sum_j L_j (L_j y)^dag.  The generator
    is linear and constant, so one RK4 step is exactly the Horner form
    rho + h L(rho + h/2 L(rho + h/3 L(rho + h/4 L rho))): four stages
    y <- rho + c L(y) with c = h/4, h/3, h/2, h.  Each stage is two sparse
    products, G = vstack(c A, sqrt(c) L_1, ..., sqrt(c) L_m) @ y and then
    hstack(sqrt(c) L_1, ..., sqrt(c) L_m) applied to the blockwise conjugate
    transpose of the rows of G below the first d.  The operators have at most
    (2n+1)^2 nonzeros per row; no d^2 x d^2 superoperator is formed.
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
    A = 1j * hamiltonian_matrix(rep, spec.hamiltonian_terms)
    for L in Ls:
        A -= 0.5 * (L.conj().T @ L)
    stacked = sparse.csr_array(np.vstack([A, *Ls]))
    # the empty block keeps the shape (d, 0) when there are no couplings
    side_by_side = sparse.csr_array(np.hstack([np.zeros((d, 0)), *Ls]))
    nnz_A = stacked.indptr[d]

    h = t / steps
    stages = []
    for c in (h / 4, h / 3, h / 2, h):
        # the A rows carry c, the L_j rows sqrt(c)
        data = math.sqrt(c) * stacked.data
        data[:nnz_A] = c * stacked.data[:nnz_A]
        left = sparse.csr_array((data, stacked.indices, stacked.indptr), shape=stacked.shape)
        stages.append((left, math.sqrt(c) * side_by_side))

    # B[0] = M^dag and B[j] = (sqrt(c) L_j y)^dag, one transposing pass per stage
    B = np.empty((m + 1, d, d), dtype=complex)
    jumps = B[1:].reshape(m * d, d)
    for k in range(steps):
        y = rho
        for left, right in stages:
            G = left @ y
            np.conjugate(G.reshape(m + 1, d, d).transpose(0, 2, 1), out=B)
            y = right @ jumps
            y += rho
            y += G[:d]
            y += B[0]
        rho = y
        if (k + 1) % 100 == 0 or k + 1 == steps:
            drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
            if not np.isfinite(drift) or drift > 1e-6:
                raise RuntimeError(f"trace drift {drift:.3e} after {k + 1} steps; "
                                   "reduce the step size")
    return rho


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


def write_moment_csv(path, times, moments) -> list[str]:
    """Write a moment trajectory as CSV (t, l..., m..., vec(S)...); returns the header."""
    times = list(times)
    moments = list(moments)
    if not moments:
        raise ValueError("empty trajectory")
    n = len(moments[0][0])
    header = (["t"]
              + [f"l{j + 1}" for j in range(n)]
              + [f"m{j + 1}" for j in range(n)]
              + [f"S{i + 1}{j + 1}" for i in range(2 * n) for j in range(2 * n)])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, (l, m, S) in zip(times, moments):
            row = [repr(float(t))]
            row += [repr(float(x)) for x in l]
            row += [repr(float(x)) for x in m]
            row += [repr(float(x)) for x in np.asarray(S).ravel()]
            writer.writerow(row)
    return header
