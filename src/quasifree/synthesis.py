"""Synthesis of Lindblad dilation data for quasifree semigroups.

Forward direction: a coupling (u, v) in C^n x C^n, representing the operator
L = a(u) + a^dag(v), generates an admissible pair (K(u,v), C(u,v)) whose
noise matrix C + i(K^T J + J K) is the rank-one outer product of the stacked
vector (u + conj(v), -i(u - conj(v))).

Inverse direction: decompose() splits any admissible (K, C) into a sum of
rank-one couplings (the Lindblad operators), a quadratic Hamiltonian read off
the symmetric part of JK, and a residual generator K' in sp(2n).  Together
these reproduce the semigroup generator exactly; the tests check this against
the truncated-Fock oracle.  The data is that of the Hudson-Parthasarathy
equation dU = {sum_j (L_j dA_j^dag - L_j^dag dA_j) - (iH + (1/2) sum_j
L_j^dag L_j) dt} U with the standard sign of H, as in quasifree.ito.  It
checks its pair once and sums the couplings' pairs once, for K' and residuals.

K(u,v) is defined by the generator-matching relation (the complex form of K
must send z to (conj(lam(z)) v - lam(z) u)/2 with lam(z) = <u|z> + <z|v>), and
C(u,v) by the quadratic form (Rz)^T C Rz = |lam(z)|^2; pair_from_coupling
writes both in closed form.  The block matrix often quoted for K is exactly
twice the matrix demanded by generator matching and fails the rank-one
noise identity; the halved version is used here and the discrepancy is
covered by an explicit regression test.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .semigroup import _admitted, _noise_parts, noise_matrix
from .symplectic import (TOLERANCES, Check, Tolerances, _form_times, decisive, hermitian_eigh,
                         read_only)

__all__ = [
    "LindbladTerm",
    "HamiltonianTerm",
    "DilationSpec",
    "pair_from_coupling",
    "noise_matrix",
    "decompose",
    "reconstruction_residuals",
]


def pair_from_coupling(u, v):
    """Generating pair (K, C) of the semigroup driven by L = a(u) + a^dag(v).

    With lam(z) = (wr + i wi) . Rz the drift (conj(lam) v - lam u)/2 is
    (wr . Rz)(v - u)/2 - (wi . Rz) i(u + v)/2, so K = [R(v - u) wr^T -
    R(i(u + v)) wi^T] / 2, and |lam|^2 gives C = wr wr^T + wi wi^T.  The pair
    is always admissible, with noise matrix of rank <= 1.

    u and v of shape (n, k) hold k couplings as columns; the result is then
    the sum of their k pairs, from two matrix products over the stacked
    columns.  1-D u and v are one coupling.
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim not in (1, 2):
        raise ValueError(f"u and v must be equal vectors or (n, k) arrays, "
                         f"got shapes {u.shape} and {v.shape}")
    s, d = (u + v).reshape(len(u), -1), (v - u).reshape(len(u), -1)
    # rows: the real embeddings of s and -i d (wr and wi, the rows of Wt), then
    # of d and -i s (R(v - u) and -R(i(u + v)), the rows of Dt)
    Z = np.concatenate([s, -1j * d, d, -1j * s], axis=1).T
    Wt, Dt = np.concatenate([Z.real, Z.imag], axis=1).reshape(2, -1, 2 * len(u))
    return 0.5 * (Dt.T @ Wt), Wt.T @ Wt


@dataclass(frozen=True, eq=False)
class LindbladTerm:
    """One noise channel L = a(u) + a^dag(v).

    b and c are the halves of the scaled noise-matrix eigenvector
    (b, c) = (u + conj(v), -i(u - conj(v))); the coupling vectors follow as
    u = (b + ic)/2 and v = conj(b - ic)/2.  Rescaling (b, c) by a phase only
    changes L by a global phase, so all physical content is phase-invariant.
    """

    b: np.ndarray
    c: np.ndarray
    u: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=complex).ravel()
        c = np.asarray(self.c, dtype=complex).ravel()
        if b.size != c.size:
            raise ValueError(f"length mismatch: {b.size} vs {c.size}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "u", (b + 1j * c) / 2.0)
        object.__setattr__(self, "v", np.conj(b - 1j * c) / 2.0)

    @classmethod
    def from_coupling(cls, u, v) -> "LindbladTerm":
        u = np.asarray(u, dtype=complex).ravel()
        v = np.asarray(v, dtype=complex).ravel()
        return cls(b=u + np.conj(v), c=-1j * (u - np.conj(v)))


@dataclass(frozen=True, eq=False)
class HamiltonianTerm:
    """One quadratic Hamiltonian term (lam/4) (a(w) + a^dag(w))^2; their sum H
    enters with the standard sign, drho/dt = -i[H, rho] + (dissipator)."""

    lam: float
    w: np.ndarray

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("Hamiltonian term must have nonzero strength")
        object.__setattr__(self, "w", np.asarray(self.w, dtype=complex).ravel())


@dataclass(frozen=True, eq=False)
class DilationSpec:
    """Complete dilation data for an admissible pair (K, C).

    The noisy evolution it describes couples the system to one bath channel
    per Lindblad term; with no terms it degenerates to a closed evolution
    generated by the quadratic Hamiltonian alone.  It keeps read-only copies
    of K', K and C, so no write can stale what is computed once, on
    construction: the residuals of its reconstruction identities (from the
    private _coupling_sums decompose() passes, or else from its terms) and
    s = 1 + max(|K|, |C|), judged by one rule, reconstructs(): the K and
    C residuals must be at most tolerances.reconstruction * s and the
    symplectic residual at most tolerances.symplectic * s.
    """

    n: int
    lindblad_terms: tuple
    hamiltonian_terms: tuple
    K_prime: np.ndarray
    K: np.ndarray
    C: np.ndarray
    residuals: ReconstructionResiduals = field(init=False)
    _coupling_sums: InitVar[tuple | None] = None

    def __post_init__(self, _coupling_sums):
        for name in ("K_prime", "K", "C"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        object.__setattr__(self, "residuals", reconstruction_residuals(self, _coupling_sums))
        object.__setattr__(self, "_scale", 1.0 + max(np.abs(self.K).max(initial=0.0),
                                                     np.abs(self.C).max(initial=0.0)))

    @property
    def noise_dimension(self) -> int:
        return len(self.lindblad_terms)

    def reconstructs(self, tolerances: Tolerances = TOLERANCES) -> Check:
        """The reconstruction rule as the Check that decides it: the decisive
        one of the "reconstruction" (K and C) and "symplectic" checks."""
        res, scale = self.residuals, self._scale
        return decisive((Check("reconstruction", float(np.max([res.k_residual, res.c_residual])),
                               tolerances.reconstruction * scale),
                         Check("symplectic", res.symplectic_residual,
                               tolerances.symplectic * scale)))


def _phase_fixed(cols):
    """cols, each column turned by conj(c)/|c| (a sign for real columns) so its
    first component c above 1e-12 times its norm (np.linalg.norm's arithmetic
    without its fixed cost) is real positive; every column is a nonzero
    multiple of a unit eigenvector here, so each has such a c."""
    above = np.abs(cols) > 1e-12 * np.sqrt(np.add.reduce((cols.conj() * cols).real, axis=0))
    lead = cols[above.argmax(axis=0), np.arange(cols.shape[1])]
    return cols * (np.conj(lead) / np.abs(lead))


def decompose(K, C, tolerances: Tolerances = TOLERANCES) -> DilationSpec:
    """Split an admissible pair into Lindblad, Hamiltonian and symplectic data,
    judged by one tolerance set (a pair's own, where there is a pair).

    Steps: check K and C once and form JK once, for both the noise matrix
    D and N = sym(JK); eigendecompose D once, refuse the pair if its
    eigenvalues fail the PSD rule of admissible() at tolerances.psd, and keep
    those above tolerances.rank relative to the largest; scale eigenvectors by
    sqrt(eigenvalue) and read off the couplings; subtract their summed drift,
    one stacked pair_from_coupling call, to expose the residual K' in sp(2n);
    diagonalize N, each eigenpair (nu, x) giving a Hamiltonian term of
    strength lam = -nu.  Both eigendecompositions are read whole-array: one
    mask keeps eigenpairs and one _phase_fixed call fixes the phase of every
    kept column.  Raises RuntimeError for a spec that fails
    DilationSpec.reconstructs() at the same tolerances; its k_residual is 0 by
    construction, as the spec's residuals take the same sums.
    """
    K, C, JK, D = _noise_parts(K, C)
    evals, evecs = hermitian_eigh(D)
    _admitted(evals, tolerances.psd)
    n = K.shape[0] // 2
    # the absolute floor keeps machine-zero matrices from acquiring rank
    floor = 1e-13 * (1.0 + np.abs(D).max(initial=0.0))
    keep = evals > max(tolerances.rank * evals[0], floor)
    stacked = _phase_fixed(evecs[:, keep] * np.sqrt(evals[keep])).T
    terms = [LindbladTerm(b=col[:n], c=col[n:]) for col in stacked]

    sums = _coupling_sum(terms, n)
    K_prime = K - sums[0]

    N = (JK + JK.T) / 2.0
    nvals, nvecs = hermitian_eigh(N)
    nfloor = 1e-13 * (1.0 + np.abs(N).max(initial=0.0))
    keep = np.abs(nvals) > max(tolerances.rank * np.abs(nvals).max(), nfloor)
    # only a real sign flip preserves the quadratic term, so the convention is
    # applied to the real eigenvector, not to w
    rvecs = _phase_fixed(nvecs[:, keep]).T
    ws = rvecs[:, :n] + 1j * rvecs[:, n:]
    hterms = [HamiltonianTerm(lam=-float(lam_h), w=w) for lam_h, w in zip(nvals[keep], ws)]

    spec = DilationSpec(n=n, lindblad_terms=tuple(terms),
                        hamiltonian_terms=tuple(hterms),
                        K_prime=K_prime, K=K, C=C, _coupling_sums=sums)
    check = spec.reconstructs(tolerances)
    if not check.passed:
        raise RuntimeError(f"decomposition failed to reconstruct the pair: {check}")
    return spec


@dataclass(frozen=True)
class ReconstructionResiduals:
    k_residual: float           # max |K - sum K(u_j, v_j) - K'|
    c_residual: float           # max |C - sum C(u_j, v_j)|
    symplectic_residual: float  # max |K'^T J + J K'|


def _coupling_sum(terms, n: int):
    """(sum K(u_j, v_j), sum C(u_j, v_j)) of the terms, one stacked call."""
    return pair_from_coupling(np.reshape([t.u for t in terms], (-1, n)).T,
                              np.reshape([t.v for t in terms], (-1, n)).T)


def reconstruction_residuals(spec: DilationSpec, _sums=None) -> ReconstructionResiduals:
    """Max-norm residuals of the three reconstruction identities, the term
    sums from one stacked pair_from_coupling call or the private _sums given.
    k_residual is 0 by construction for decompose()'s specs; it measures others."""
    K_sum, C_sum = _coupling_sum(spec.lindblad_terms, spec.n) if _sums is None else _sums
    JK = _form_times(spec.K_prime)
    dK = np.abs(spec.K - K_sum - spec.K_prime).max(initial=0.0)
    dC = np.abs(spec.C - C_sum).max(initial=0.0)
    dJ = np.abs(JK - JK.T).max(initial=0.0)
    return ReconstructionResiduals(k_residual=float(dK), c_residual=float(dC),
                                   symplectic_residual=float(dJ))
