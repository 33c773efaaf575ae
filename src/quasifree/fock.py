"""Brute-force truncated Fock-space oracle for n bosonic modes.

Every closed-form phase-space result in this package can be checked against
explicit operators on the truncated space C^{cutoff} per mode: ladder
operators, Weyl displacement matrices, coherent vectors, and a Krylov
integrator for Lindblad master equations.  The representation is exact
below the top occupation level of each mode; the population of the top
level ("leakage") is the trust metric for every oracle result, judged as a
Check by leakage_check.  Nothing here warns: a leak is refused or reported.

Every operator the oracle needs is a polynomial of degree at most 2 in the
ladder operators, and each a_j and a_j^dag has at most one nonzero per row.
FockRep therefore holds one column index and one weight per row for each of
the 2n ladder operators, and the (2n)^2 products X_k X_l on first use.  A
representation is built once per truncation (build is memoized) and its
arrays are read-only.  The canonical CSR pattern of each Lindblad operator
is computed once per representation and coupling count, with the entry
every table slot adds into (_Pattern); an operator is then one scatter-add
of its slot values into that pattern, O(n^2 d).  Moments are read by gathers
on the tables; neither depends on the basis order.

The integrator returns e^{tL} rho0 with no time-step error, in substeps of
Krylov projection: Arnoldi on Hermitian matrices (real Gram-Schmidt
coefficients, at most 30 basis vectors) and the exponential of the small
augmented Hessenberg matrix, whose last entry is the error estimate
(Saad 1992; Sidje 1998, Expokit's expv).  A substep pays only for what its
estimate needs (lindblad_evolve); Gram-Schmidt is repeated only when the
first pass cancels most of the vector (Daniel, Gragg, Kaufman and Stewart
1976).  The Lindbladian is two calls of scipy's CSR kernel, csr_matvecs,
the one csr_array @ x runs, on the operators' own arrays, adding into
buffers allocated once per integration in csr_array's summation order;
the indices are checked once per representation (FockRep, _Pattern.of),
not per operator.  scipy.sparse is imported only where operators are
assembled, so code that never assembles one does not load it.

Weyl matrices need no matrix exponential.  The single-mode generator
z a^dag - conj(z) a is -i|z| times the truncated a + a^dag conjugated by the
diagonal phase diag(e^{ik(arg z + pi/2)}); a + a^dag is the real symmetric
tridiagonal Jacobi matrix of the Hermite polynomials, so one eigenbasis per
cutoff (_quadrature_eigenbasis, cached for the module) gives every probe
exactly, and a batch of probes takes one batched product per mode.

Tensor ordering is mode-major: the first mode is the most significant index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce

import numpy as np
import scipy.linalg

from .gaussian import GaussianState, weyl_transform
from .semigroup import QuasifreePair, evolve_state
from .symplectic import TOLERANCES, Check, complex_vector, psd_check
from .synthesis import DilationSpec, decompose

__all__ = [
    "FockRep",
    "DimensionCapError",
    "LeakageError",
    "build",
    "exponential_vector",
    "coherent_vector",
    "coherent_density",
    "weyl_matrix",
    "top_level_population",
    "leakage_check",
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

#: top-level population above which an oracle comparison is refused
LEAKAGE_BOUND = 1e-6

#: Krylov basis cap (as in Expokit), bound on a substep's error estimate,
#: how many basis vectors lie between two tests of that estimate, and the
#: log of the leading term of the estimate above which a test is skipped
_KRYLOV_MAX = 30
_KRYLOV_TOL = 1e-15
_KRYLOV_CHECK = 4
_LOG_TEST_GATE = math.log(10 * _KRYLOV_TOL)


class DimensionCapError(ValueError):
    """Requested truncation exceeds the configured dimension cap."""


class LeakageError(RuntimeError):
    """Truncation leakage too large for the requested computation."""


@dataclass(frozen=True, eq=False)
class FockRep:
    """Truncated n-mode Fock representation held as ladder index tables.

    Each of the 2n operators X = (a_1..a_n, a_1^dag..a_n^dag) has at most
    one nonzero per row: row r of X_k holds weights[k, r] at columns[k, r].
    A row without an entry (a_j at the top level of mode j, a_j^dag at its
    vacuum) has weight 0 and column r.  Derived on first use: the tables of
    the products X_k X_l, the top-level mask, and per coupling count the
    sparsity patterns of the Lindblad operators.  Tables not shaped (2n, dim),
    or with a column outside 0..dim-1 that a gather would wrap, are refused.
    The representation keeps read-only copies of the tables, and every array
    it derives is read-only, so one instance can be shared (see build).
    """

    n: int
    cutoff: int
    dim: int
    columns: np.ndarray   # (2n, dim) column of the entry in each row
    weights: np.ndarray   # (2n, dim) value of that entry, 0 where there is none
    _patterns: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        shape = (2 * self.n, self.dim)
        if np.shape(self.columns) != shape or np.shape(self.weights) != shape:
            raise ValueError(f"ladder tables must have shape {shape}")
        if not ((self.columns >= 0) & (self.columns < self.dim)).all():
            raise ValueError(f"a ladder column lies outside the basis 0..{self.dim - 1}")
        object.__setattr__(self, "columns", _frozen(self.columns))
        object.__setattr__(self, "weights", _frozen(self.weights))

    @cached_property
    def products(self):
        """(columns, weights), each (2n, 2n, dim): row r of X_k X_l holds
        weights[k, l, r] at columns[k, l, r]."""
        cols = self.columns[:, self.columns].swapaxes(0, 1)
        weights = self.weights[:, None] * self.weights[:, self.columns].swapaxes(0, 1)
        return _frozen(cols), _frozen(weights)

    @cached_property
    def top_level(self):
        """Mask of the basis states in which some mode is at its top level,
        the rows where some a_j has no entry."""
        return _frozen((self.weights[:self.n] == 0).any(axis=0))

    def lindblad_patterns(self, m: int):
        """(stacked, side_by_side), the _Pattern of each operator of
        _lindblad_operators for m couplings, computed once per m.

        The slots of stacked are those of A = sum_kl alpha_kl X_k X_l, entry
        (k, l, r) in row r at column products[0][k, l, r], followed by those
        of each L_j = sum_k beta_jk X_k, entry (j, k, r) in row d + jd + r at
        column columns[k, r]; the slots of side_by_side are the (j, k, r) at
        row r and column jd + columns[k, r].  A slot whose table weight is 0
        has no entry."""
        if m not in self._patterns:
            d = self.dim
            rows = np.arange(d)
            block = d * np.arange(m)[:, None, None]
            columns, weights = self.products
            ladder = np.broadcast_to(self.weights != 0, (m, 2 * self.n, d))
            stacked = _Pattern.of(((m + 1) * d, d), (rows, columns, weights != 0),
                                  (d + block + rows, self.columns, ladder))
            side_by_side = _Pattern.of((d, m * d), (rows, block + self.columns, ladder))
            self._patterns[m] = stacked, side_by_side
        return self._patterns[m]


def _frozen(array) -> np.ndarray:
    """A copy of array laid out as array is (the product tables' layout sets
    state_moments' summation order), as a view of a write-protected base."""
    array = np.array(array, order="K")
    array.flags.writeable = False
    return array.view()


@dataclass(frozen=True, eq=False)
class _Pattern:
    """The canonical CSR pattern of an operator assembled from slots: sorted
    column indices and row pointers, and the entry each slot adds into,
    nnz for a slot with no entry.  The arrays are read-only and only read:
    fill builds each operator on its own index arrays."""

    shape: tuple
    indices: np.ndarray   # (nnz,) int32
    indptr: np.ndarray    # (rows + 1,) int32
    positions: np.ndarray  # (slots,) entry of each slot, in 0..nnz

    @classmethod
    def of(cls, shape, *groups):
        """The pattern of the slots of each (rows, columns, present) group,
        three arrays that broadcast together; the slots are numbered group
        after group, each in C order."""
        nrows, ncols = shape
        absent = nrows * ncols      # sorts after every entry
        keys = np.concatenate([np.where(present, rows * ncols + columns, absent).ravel()
                               for rows, columns, present in groups])
        entries, positions = np.unique(keys, return_inverse=True)
        entries = entries[:np.searchsorted(entries, absent)]
        indptr = np.searchsorted(entries, ncols * np.arange(nrows + 1))
        return cls(shape, _frozen((entries % ncols).astype(np.int32)),
                   _frozen(indptr.astype(np.int32)), _frozen(positions.ravel()))

    def fill(self, values):
        """(data, indices, indptr), the canonical CSR arrays of the operator
        whose entries are the sums of the slot values, one per slot in the
        order of positions, with zeros dropped.  One bincount each for the
        real and imaginary parts; no index is checked again, as of proved them."""
        values = np.ravel(values)
        nnz = len(self.indices)
        data = np.empty(nnz, dtype=complex)
        data.real = np.bincount(self.positions, values.real, nnz + 1)[:nnz]
        data.imag = np.bincount(self.positions, values.imag, nnz + 1)[:nnz]
        keep = data != 0
        kept = np.zeros(nnz + 1, dtype=np.int32)
        np.cumsum(keep, out=kept[1:])
        return data[keep], self.indices[keep], kept[self.indptr]


@lru_cache(maxsize=8)
def build(n: int, cutoff: int) -> FockRep:
    """Build the truncated representation with cutoff levels per mode; a
    dimension cutoff**n above DIM_CAP is refused before anything is built.
    The tables take O(n cutoff^n) memory.  Memoized for the 8 most recently
    used (n, cutoff), so the tables, their products and the operator
    patterns are derived once per truncation and shared; all of them are
    read-only.  A representation with tables of its own is built by
    FockRep itself."""
    if n < 1:
        raise ValueError("need at least one mode")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    dim = cutoff**n
    if dim > DIM_CAP:
        raise DimensionCapError(f"dimension {cutoff}^{n} = {dim} exceeds cap {DIM_CAP}")
    rows = np.arange(dim)
    occupations = np.array(np.unravel_index(rows, (cutoff,) * n))
    strides = cutoff ** np.arange(n - 1, -1, -1)
    # a_j maps level k + 1 to k and a_j^dag level k - 1 to k, both with
    # weight sqrt of the larger level, which must lie in 1..cutoff-1
    levels = np.concatenate([occupations + 1, occupations])
    present = (levels >= 1) & (levels < cutoff)
    columns = rows + np.concatenate([strides, -strides])[:, None]
    return FockRep(n=n, cutoff=cutoff, dim=dim, columns=np.where(present, columns, rows),
                   weights=np.where(present, np.sqrt(levels), 0.0))


def _dense(rep: FockRep, coefficients) -> np.ndarray:
    """The d x d matrix sum_k coefficients[k] X_k, or sum_kl coefficients[k, l]
    X_k X_l for a 2n x 2n array of coefficients, filled into the pattern of
    L_1 (side_by_side for one coupling) or of A (stacked for none)."""
    coefficients = np.asarray(coefficients)
    if coefficients.ndim == 2:
        pattern, weights = rep.lindblad_patterns(0)[0], rep.products[1]
    else:
        pattern, weights = rep.lindblad_patterns(1)[1], rep.weights
    import scipy.sparse as sparse
    return sparse.csr_array(pattern.fill(coefficients[..., None] * weights),
                            shape=pattern.shape).toarray()


def top_level_population(rep: FockRep, state) -> float:
    """Population of the top occupation level of any mode.

    Accepts a state vector or a density matrix; this is the truncation
    leakage metric that bounds the trustworthiness of oracle results.
    """
    state = np.asarray(state)
    top = rep.top_level
    if state.ndim == 1:
        return float(np.sum(np.abs(state[top]) ** 2))
    return float(np.real(np.sum(np.diagonal(state)[top])))


def leakage_check(rep: FockRep, state) -> Check:
    """The top-level population of a state vector or density against LEAKAGE_BOUND."""
    return Check("leakage", top_level_population(rep, state), LEAKAGE_BOUND)


def exponential_vector(rep: FockRep, u) -> np.ndarray:
    """Unnormalized exponential vector with components prod_j u_j^k / sqrt(k!)."""
    u = complex_vector(u, rep.n)
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
    """Coherent vector cut at the cutoff and not renormalized: its squared norm is
    1 less the coherent state's weight past the cutoff; leakage_check judges it."""
    return exponential_vector(rep, alpha) * np.exp(-0.5 * np.sum(np.abs(alpha) ** 2))


def coherent_density(rep: FockRep, alpha) -> np.ndarray:
    psi = coherent_vector(rep, alpha)
    return np.outer(psi, psi.conj())


@lru_cache(maxsize=8)
def _quadrature_eigenbasis(cutoff: int):
    """(mu, V) with a + a^dag = V diag(mu) V^T on one mode of cutoff levels:
    the real symmetric tridiagonal matrix with off-diagonals sqrt(1), ...,
    sqrt(cutoff - 1).  Diagonalized once per cutoff and shared by every
    representation, so both arrays are read-only."""
    lower = np.diag(np.sqrt(np.arange(1, cutoff)), 1)
    mu, V = np.linalg.eigh(lower + lower.T)
    mu.flags.writeable = V.flags.writeable = False
    return mu, V


def weyl_matrix(rep: FockRep, z) -> np.ndarray:
    """Displacement matrix expm(a^dag(z) - a(z)), or one per row of z.

    z is one probe of shape (n,) or p probes of shape (p, n), and the
    result a d x d matrix or a (p, d, d) stack.  The modes act on separate
    tensor factors, so each matrix is the Kronecker product of the
    single-mode exponentials of z_j a^dag - conj(z_j) a.  With
    Phi = diag(e^{ik(arg z_j + pi/2)}), k = 0..cutoff-1, that generator is
    -i|z_j| Phi (a + a^dag) conj(Phi), so from the cached single-mode
    eigenbasis a + a^dag = V diag(mu) V^T each factor is
    Phi V diag(e^{-i|z_j| mu}) V^T conj(Phi), exact up to rounding; the
    factors of all probes are one batched product per mode.  Unitary on the
    truncated space; leakage_check of a column W[:, 0], the displaced vacuum,
    tells how far the truncation reaches.
    """
    z = np.asarray(z, dtype=complex)
    probes = z if z.ndim == 2 else complex_vector(z, rep.n)[None]
    if probes.shape[1] != rep.n:
        raise ValueError(f"expected probes of length {rep.n}, got shape {z.shape}")
    mu, V = _quadrature_eigenbasis(rep.cutoff)
    levels = np.arange(rep.cutoff)
    factors = []
    for zj in probes.T:
        PV = np.exp(1j * levels * (np.angle(zj)[:, None] + np.pi / 2))[:, :, None] * V
        PVD = PV * np.exp(-1j * np.abs(zj)[:, None, None] * mu)
        factors.append(PVD @ PV.conj().swapaxes(1, 2))
    W = reduce(_kron, factors)
    return W if z.ndim == 2 else W[0]


def _kron(A, B):
    """np.kron(A, B) over the last two axes, matrix by matrix along the
    leading ones: the broadcast outer product, reshaped."""
    *batch, a0, a1 = A.shape
    b0, b1 = B.shape[-2:]
    return (A[..., :, None, :, None] * B[..., None, :, None, :]).reshape(
        *batch, a0 * b0, a1 * b1)


def validate_density(rho, tol: float = TOLERANCES.psd) -> None:
    """Raise unless rho is Hermitian, unit trace within tol and PSD, judged by
    one psd_check at tol: for a density, a negative eigenvalue within at most
    2 tol passes.  The trace is tested before the PSD verdict refuses.  A
    state vector psi stands for the density psi psi^dag, Hermitian and PSD by
    construction, so only its trace ||psi||^2 is tested, in O(d)."""
    rho = np.asarray(rho)
    if rho.ndim == 1:
        trace = np.vdot(rho, rho).real
        if abs(trace - 1.0) > tol:
            raise ValueError(f"state vector squared norm {trace:.12g} != 1")
        return
    psd = psd_check(rho, tol)
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho):.12g} != 1")
    if not psd.passed:
        raise ValueError(f"density matrix has negative eigenvalue {-psd.value:.3e}")


def _hamiltonian_coefficients(rep: FockRep, hamiltonian_terms) -> np.ndarray:
    """alpha with H = sum_kl alpha_kl X_k X_l: each term (lam/4) G^2 with
    G = a(w) + a^dag(w) = sum_k g_k X_k, g = (conj(w), w), adds (lam/4) g g^T."""
    alpha = np.zeros((2 * rep.n, 2 * rep.n), dtype=complex)
    for term in hamiltonian_terms:
        w = complex_vector(term.w, rep.n)
        g = np.concatenate([np.conj(w), w])
        alpha += 0.25 * term.lam * np.outer(g, g)
    return alpha


def _coupling_coefficients(rep: FockRep, spec: DilationSpec) -> np.ndarray:
    """beta, m x 2n, with L_j = a(u_j) + a^dag(v_j) = sum_k beta_jk X_k."""
    beta = [np.concatenate([np.conj(complex_vector(term.u, rep.n)), complex_vector(term.v, rep.n)])
            for term in spec.lindblad_terms]
    return np.array(beta, dtype=complex).reshape(-1, 2 * rep.n)


def hamiltonian_matrix(rep: FockRep, hamiltonian_terms) -> np.ndarray:
    """Quadratic Hamiltonian (1/4) sum_j lam_j (a(w_j) + a^dag(w_j))^2."""
    return _dense(rep, _hamiltonian_coefficients(rep, hamiltonian_terms))


def lindblad_matrices(rep: FockRep, spec: DilationSpec):
    """Coupling operators L_j = a(u_j) + a^dag(v_j) from a dilation spec."""
    return [_dense(rep, b) for b in _coupling_coefficients(rep, spec)]


def _lindblad_operators(rep: FockRep, spec: DilationSpec):
    """The operators of lindblad_evolve, assembled from the index tables.

    Returns stacked = vstack(A, L_1, ..., L_m), (m+1)d x d, and side_by_side
    = hstack(L_1, ..., L_m), d x md, with A = -iH - (1/2) sum_j L_j^dag L_j,
    each as scipy's CSR kernel csr_matvecs, the one csr_array @ x runs, bound
    to its shape, d columns and its canonical CSR arrays with no stored
    zeros, indptr, indices and data (.args[3:]): op(x, out) adds op @ x into
    out, both flat.  scipy.sparse is imported here, so code that never
    assembles an operator does not load it.  Each L_j = sum_k beta_jk X_k,
    and A = sum_kl alpha_kl X_k X_l with the 2n x 2n alpha from the
    Hamiltonian terms and the couplings.  The sparsity patterns depend only
    on the representation and m, and are computed once
    (FockRep.lindblad_patterns); each call fills them with the slot values
    alpha_kl weights[k, l, r] and beta_jk weights[k, r], summing the slots
    that share an entry.  The cost is O(n^2 d) and no d x d array is formed.
    """
    from scipy.sparse._sparsetools import csr_matvecs

    beta = _coupling_coefficients(rep, spec)
    # A = sum_kl alpha_kl X_k X_l, since L_j^dag = sum_k conj(beta_j)[k -+ n] X_k
    alpha = (-1j * _hamiltonian_coefficients(rep, spec.hamiltonian_terms)
             - 0.5 * np.roll(beta.conj(), rep.n, axis=1).T @ beta)
    stacked, side_by_side = rep.lindblad_patterns(len(beta))
    Lw = (beta[:, :, None] * rep.weights).ravel()    # slot (j, k, r) of L_j
    slots = np.concatenate([(alpha[..., None] * rep.products[1]).ravel(), Lw])
    return (partial(csr_matvecs, *stacked.shape, rep.dim, *stacked.fill(slots)[::-1]),
            partial(csr_matvecs, *side_by_side.shape, rep.dim, *side_by_side.fill(Lw)[::-1]))


def lindblad_evolve(rep: FockRep, rho0, spec: DilationSpec, t: float, steps: int) -> np.ndarray:
    """Integrate the master equation for the dilation data over [0, t].

    drho/dt = -i[H, rho] + sum_j ( L_j rho L_j^dag - (1/2){L_j^dag L_j, rho} )

    rho0 is a density matrix, checked by validate_density and symmetrized
    to (rho0 + rho0^dag)/2, or a state vector psi for the pure state
    psi psi^dag, of which only the trace ||psi||^2 is checked.  The result
    is e^{tL} rho0 with no time-step error, taken in at most steps substeps
    by Krylov projection.  From the current rho, Arnoldi builds at most 30
    basis vectors V_k with beta = ||rho||_F.  L maps Hermitian matrices to
    Hermitian matrices and Tr(XY) is real for Hermitian X, Y, so the
    Gram-Schmidt coefficients are taken real and the Hessenberg matrix H_k
    is real; a second classical Gram-Schmidt pass runs only when the first
    leaves less than 1/sqrt(2) of the vector's norm.  With the augmented
    (k+1) x (k+1) matrix Hbar = [[H_k, 0], [h_{k+1,k} e_k^T, 0]],
    u = beta exp(tau Hbar) e_1 gives the substep e^{tau L} rho ~ V_k u[:k],
    and |u[k]| is Saad's phi_1 estimate of its error, accepted at 1e-15
    when u is finite.

    The estimate is tested every 4 basis vectors, but its exponential is
    taken only once its leading term beta prod_{i<=k} tau h_{i+1,i} / i,
    summed in logs, is at most 10 times the tolerance.  At 30 vectors, or
    when L V_k lies in the span (L = 0, a dark state, where the estimate is
    0), it is tested at once, and while it fails tau shrinks on the same
    basis by 0.9 (1e-15/err)^{1/(k+1)} clipped to [0.05, 0.5].  The first
    substep tries tau = t and each later one the last tau times
    min(2, 0.9 (1e-15/err)^{1/(k+1)}) for the estimate err it passed with,
    capped at the time left.  Then rho <- V_k u[:k] is symmetrized and its
    trace drift checked.  Raises ValueError for a negative or non-finite t,
    before any work, and RuntimeError when more than steps substeps are
    needed, when a substep is too short to change the time left in floating
    point (the time left above 2^53 times the substep), or when the trace
    drifts.

    L y for Hermitian y is M + M^dag + sum_j L_j (L_j y)^dag, M = A y, A =
    -iH - (1/2) sum_j L_j^dag L_j: two calls of scipy's CSR kernel on the
    operators of _lindblad_operators, whose indices are checked once per
    representation, into buffers allocated once per call, in csr_array @'s
    summation order (_lindbladian).  Memory is the basis, 31 d^2 complex
    numbers, and the buffers, 2(m+1) d^2.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if steps < 1:
        raise ValueError("need at least one step")
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density(rho0)
    if rho0.ndim == 1:
        rho = np.outer(rho0, rho0.conj())
    else:
        rho = 0.5 * (rho0 + rho0.conj().T)
    apply = _lindbladian(rep, spec)
    d = rep.dim

    def estimate(tau, k):
        """(beta exp(tau Hbar) e_1, its estimate |u[k]|), inf for a u not finite."""
        with np.errstate(all="ignore"):
            u = beta * scipy.linalg.expm(tau * H[:k + 1, :k + 1])[:, 0]
            return u, float(abs(u[-1])) if np.isfinite(u).all() else math.inf

    # complex basis vectors and their real views: <X, Y> = Re Tr(X^dag Y)
    V = np.empty((_KRYLOV_MAX + 1, d, d), dtype=complex)
    Vr = V.reshape(_KRYLOV_MAX + 1, d * d).view(float)
    left = tau = t
    done = 0
    while left > 0:
        if done == steps:
            raise RuntimeError(f"more than steps = {steps} substeps needed to reach "
                               f"t = {t:.6g}; {left:.6g} is left")
        beta = np.linalg.norm(rho)
        V[0] = rho / beta
        H = np.zeros((_KRYLOV_MAX + 1, _KRYLOV_MAX + 1))
        tau, err = min(left, tau), math.inf
        # log of the leading term of u[k] but for its factor tau^k
        log_lead = math.log(beta)
        for j in range(_KRYLOV_MAX):
            k = j + 1
            apply(V[j], V[k])
            w = Vr[k]
            scale = math.sqrt(w @ w)
            c = Vr[:k] @ w          # classical Gram-Schmidt
            w -= c @ Vr[:k]
            H[:k, j] = c
            h = math.sqrt(w @ w)
            if h < scale / math.sqrt(2):
                c = Vr[:k] @ w      # cancellation: reorthogonalize once
                w -= c @ Vr[:k]
                H[:k, j] += c
                h = math.sqrt(w @ w)
            if h <= math.ulp(1.0) * scale:
                break               # breakdown: L V_k lies in the span, H[k, j] = 0
            H[k, j] = h
            w /= h
            log_lead += math.log(h / k)
            if k % _KRYLOV_CHECK == 0 and log_lead + k * math.log(tau) <= _LOG_TEST_GATE:
                u, err = estimate(tau, k)
                if err <= _KRYLOV_TOL:
                    break
        if err > _KRYLOV_TOL:       # a full basis, or a breakdown
            u, err = estimate(tau, k)
        while err > _KRYLOV_TOL:
            tau *= min(max(_step_factor(err, k), 0.05), 0.5)
            u, err = estimate(tau, k)
        if left - tau == left:
            raise RuntimeError(f"a substep of {tau:.3g} cannot advance the time left, "
                               f"{left:.6g}, in floating point")
        rho = (u[:k] @ Vr[:k]).view(complex).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        left -= tau
        done += 1
        drift = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
        if not np.isfinite(drift) or drift > 1e-6:
            raise RuntimeError(f"trace drift {drift:.3e} after {done} substeps")
        tau *= min(2.0, _step_factor(err, k))
    return rho


def _lindbladian(rep: FockRep, spec: DilationSpec):
    """apply(y, out): L y into out, for C-contiguous d x d y, Hermitian, and
    out.  Zeroed G takes stacked @ y; zeroed out takes side_by_side @ the
    conjugate transposes of G's blocks below the first, then G[:d], then M^dag."""
    stacked, side_by_side = _lindblad_operators(rep, spec)
    d, m = rep.dim, len(spec.lindblad_terms)
    # G = stacked @ y; B[0] = M^dag and B[j] = (L_j y)^dag, one transposing pass
    G = np.empty(((m + 1) * d, d), dtype=complex)
    B = np.empty((m + 1, d, d), dtype=complex)
    jumps = B[1:].ravel()

    def apply(y, out):
        G.fill(0.0)
        stacked(y.ravel(), G.ravel())
        np.conjugate(G.reshape(m + 1, d, d).transpose(0, 2, 1), out=B)
        out.fill(0.0)
        side_by_side(jumps, out.ravel())
        out += G[:d]
        out += B[0]

    return apply


def _step_factor(err: float, k: int) -> float:
    """0.9 (_KRYLOV_TOL / err)^{1/(k+1)}, the factor on a substep whose
    estimate on k basis vectors read err that would bring it to the
    tolerance with a margin: inf for err = 0, 0 for err = inf.  In Python
    floats, so no numpy floating-point mode applies."""
    if err == 0.0:
        return math.inf
    return 0.9 * math.exp((math.log(_KRYLOV_TOL) - math.log(err)) / (k + 1))


def state_moments(rep: FockRep, rho):
    """Means and covariance of the observables (p_1..p_n, -q_1..-q_n).

    Returns (l, m, S) with l_j = Tr(p_j rho), m_j = Tr(q_j rho) and S the
    symmetrized second-moment matrix minus the outer product of the means.
    The observables are Y = Gamma X in the ladder operators X, so
    Tr(Y_i Y_j rho) = (Gamma T Gamma^T)_ij with T_kl = Tr(X_k X_l rho).
    Since row r of X_k X_l has its one entry w at column c, T_kl is
    sum_r w rho[c, r]: one gather of d entries of rho per product.
    """
    rho = np.asarray(rho, dtype=complex)
    n, rows = rep.n, np.arange(rep.dim)
    columns, weights = rep.products
    first = np.sum(rep.weights * rho[rep.columns, rows], axis=-1)
    T = np.sum(weights * rho[columns, rows], axis=-1)
    # p_j = (-i a_j + i a_j^dag)/sqrt(2) and -q_j = -(a_j + a_j^dag)/sqrt(2)
    gamma = _kron(np.array([[-1j, 1j], [-1.0, -1.0]]) / math.sqrt(2), np.eye(n))
    means = (gamma @ first).real
    T = gamma @ T @ gamma.T
    S = 0.5 * (T + T.T).real - np.outer(means, means)
    return means[:n], -means[n:], S


@dataclass(frozen=True)
class OracleReport:
    """Discrepancies between the closed-form semigroup and the Fock oracle;
    check, derived on construction, holds max_error against the tolerance."""

    t: float
    cutoff: int
    steps: int
    leakage: float
    mean_error: float
    cov_error: float
    weyl_error: float
    tolerance: float
    check: Check = field(init=False)

    def __post_init__(self):
        errors = [self.mean_error, self.cov_error, self.weyl_error]
        object.__setattr__(self, "check", Check("oracle", float(np.max(errors)), self.tolerance))

    @property
    def max_error(self) -> float:
        return self.check.value


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
    the requested cutoff: its truncated vector psi0 must leak within
    LEAKAGE_BOUND and keep the mass ||psi0||^2 within TOLERANCES.psd of 1,
    else a LeakageError names the cutoff.  The comparison itself judges by the
    pair's tolerances.  The master equation is integrated from psi0 by
    lindblad_evolve in at most steps substeps.  Weyl-transform errors are
    probed at num_weyl random arguments with |z| <= 1 drawn from the given
    seed in one batch: one stack of Weyl matrices (weyl_matrix), and every
    Tr(rho_t W) read with one einsum.
    """
    alpha = _coherent_amplitude(state)
    rep = build(state.n, cutoff)
    psi0 = coherent_vector(rep, alpha)
    leak = leakage_check(rep, psi0)
    if not leak.passed:
        raise LeakageError(f"initial state leaks {leak.value:.2e} > {leak.bound:g} at cutoff "
                           f"{cutoff}; increase the cutoff or shrink the state")
    kept = np.vdot(psi0, psi0).real
    if abs(kept - 1.0) > TOLERANCES.psd:
        raise LeakageError(f"initial state keeps mass {kept:.12g} of 1 at cutoff {cutoff}, "
                           f"outside {TOLERANCES.psd:g}; increase the cutoff or shrink the state")
    spec = decompose(pair.K, pair.C, pair.tolerances)
    rho_t = lindblad_evolve(rep, psi0, spec, t, steps)
    leak_t = max(leak.value, top_level_population(rep, rho_t))

    l_num, m_num, S_num = state_moments(rep, rho_t)
    ref = evolve_state(state, pair, t)
    mean_err = float(max(np.abs(l_num - ref.l).max(initial=0.0),
                         np.abs(m_num - ref.m).max(initial=0.0)))
    cov_err = float(np.abs(S_num - ref.S).max(initial=0.0))

    # draws in the order of one re and one im vector per probe; each norm as
    # numpy's 1-D norm takes it, which the axis form does not match bit for bit
    draws = np.random.Generator(np.random.Philox(seed)).normal(size=(num_weyl, 2, state.n))
    zs = draws[:, 0] + 1j * draws[:, 1]
    zs /= np.maximum([np.linalg.norm(z) for z in zs], 1.0)[:, None]
    numeric = np.einsum("ba,pab->p", rho_t, weyl_matrix(rep, zs))
    closed = weyl_transform(ref, zs, pair.tolerances.psd)
    weyl_err = np.abs(numeric - closed).max(initial=0.0)

    return OracleReport(t, cutoff, steps, leak_t, mean_err, cov_err, float(weyl_err),
                        pair.tolerances.oracle)

