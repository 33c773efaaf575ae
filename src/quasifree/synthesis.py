"""Synthesis of Lindblad dilation data for quasifree semigroups.

Forward direction: a coupling (u, v) in C^n x C^n, representing the operator
L = a(u) + a^dag(v), generates an admissible pair (K(u,v), C(u,v)) whose
noise matrix C + i(K^T J + J K) is the rank-one outer product of the stacked
vector (u + conj(v), -i(u - conj(v))).

Inverse direction: decompose() splits any admissible (K, C) into a sum of
rank-one couplings (the Lindblad operators), a quadratic Hamiltonian read off
the symmetric part of JK, and a residual generator K' in sp(2n).  Together
these reproduce the semigroup generator exactly; the tests check this against
the truncated-Fock oracle.

K(u,v) is defined by the generator-matching relation (the complex form of K
must send z to (conj(lam(z)) v - lam(z) u)/2 with lam(z) = <u|z> + <z|v>), and
C(u,v) by the quadratic form (Rz)^T C Rz = |lam(z)|^2.  The closed-form block
matrix often quoted for K is exactly twice the matrix demanded by generator
matching and fails the rank-one noise identity; the halved version is used
here and the discrepancy is covered by an explicit regression test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .semigroup import GeneratorCoefficients, admissible, noise_matrix
from .symplectic import hermitian_eigh, real_embed, real_extract, symplectic_form

__all__ = [
    "LindbladTerm",
    "HamiltonianTerm",
    "DilationSpec",
    "coupling_form",
    "pair_from_coupling",
    "noise_matrix",
    "decompose",
    "reconstruction_residuals",
    "hamiltonian_action",
    "dilation_report",
    "spec_to_dict",
    "spec_from_dict",
]

#: default relative threshold for rank decisions on the noise matrix
RANK_TOL = 1e-10


def coupling_form(u, v, z) -> complex:
    """Scalar form lam(z) = <u|z> + <z|v> attached to the coupling (u, v).

    Real-linear but not complex-linear in z whenever both u and v are nonzero.
    """
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    z = np.asarray(z, dtype=complex).ravel()
    if not (u.size == v.size == z.size):
        raise ValueError(f"length mismatch: {u.size}, {v.size}, {z.size}")
    return complex(np.vdot(u, z) + np.vdot(z, v))


def _drift_image(u, v, z):
    """(conj(lam(z)) v - lam(z) u) / 2: the drift K applies to z in complex form."""
    lam = coupling_form(u, v, z)
    return (np.conj(lam) * v - lam * u) / 2.0


def pair_from_coupling(u, v):
    """Generating pair (K, C) of the semigroup driven by L = a(u) + a^dag(v).

    K is assembled column-by-column from the drift map on the real embedding;
    C is the Gram form of the real and imaginary parts of lam.  The result is
    always admissible, with noise matrix of rank <= 1.
    """
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    if u.size != v.size:
        raise ValueError(f"length mismatch: {u.size} vs {v.size}")
    n = u.size
    K = np.empty((2 * n, 2 * n))
    basis = np.eye(n)
    for k in range(n):
        K[:, k] = real_embed(_drift_image(u, v, basis[k]))
        K[:, n + k] = real_embed(_drift_image(u, v, 1j * basis[k]))
    # lam(z) = (wr + i wi) . (Rz), so |lam|^2 = (wr.Rz)^2 + (wi.Rz)^2
    wr = np.concatenate([u.real + v.real, u.imag + v.imag])
    wi = np.concatenate([v.imag - u.imag, u.real - v.real])
    C = np.outer(wr, wr) + np.outer(wi, wi)
    return K, C


def _fix_phase(vec, tol=1e-12):
    """Rotate a vector so its first nonzero component is real positive."""
    norm = np.linalg.norm(vec)
    for comp in vec:
        if abs(comp) > tol * norm:
            return vec * (np.conj(comp) / abs(comp))
    return vec


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class HamiltonianTerm:
    """One quadratic Hamiltonian term (lam/4) (a(w) + a^dag(w))^2."""

    lam: float
    w: np.ndarray

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("Hamiltonian term must have nonzero strength")
        object.__setattr__(self, "w", np.asarray(self.w, dtype=complex).ravel())


@dataclass(frozen=True)
class DilationSpec:
    """Complete dilation data for an admissible pair (K, C).

    The noisy evolution it describes couples the system to one bath channel
    per Lindblad term; with no terms it degenerates to a closed evolution
    generated by the quadratic Hamiltonian alone.
    """

    n: int
    lindblad_terms: tuple
    hamiltonian_terms: tuple
    K_prime: np.ndarray
    K: np.ndarray
    C: np.ndarray

    @property
    def noise_dimension(self) -> int:
        return len(self.lindblad_terms)


def decompose(K, C, rank_tol: float = RANK_TOL) -> DilationSpec:
    """Split an admissible pair into Lindblad, Hamiltonian and symplectic data.

    Steps: eigendecompose the noise matrix D keeping eigenvalues above
    rank_tol relative to the largest; scale eigenvectors by sqrt(eigenvalue)
    and read off the couplings; subtract their drift contributions to expose
    the residual K' in sp(2n); diagonalize the symmetric part of JK for the
    quadratic Hamiltonian.  Raises on inadmissible input and verifies the
    reconstruction identities before returning.
    """
    if rank_tol <= 0:
        raise ValueError("rank tolerance must be positive")
    K = np.asarray(K, dtype=float)
    C = np.asarray(C, dtype=float)
    ok, min_eig = admissible(K, C)
    if not ok:
        raise ValueError(f"pair is not admissible: noise matrix has "
                         f"min eigenvalue {min_eig:.3e}")
    n = K.shape[0] // 2
    D = noise_matrix(K, C)
    evals, evecs = hermitian_eigh(D)
    terms = []
    # the absolute floor keeps machine-zero matrices from acquiring rank
    floor = 1e-13 * (1.0 + np.abs(D).max(initial=0.0))
    if evals.size and evals[0] > floor:
        cutoff = max(rank_tol * evals[0], floor)
        for lam_d, vec in zip(evals, evecs.T):
            if lam_d <= cutoff:
                break
            stacked = _fix_phase(np.sqrt(lam_d) * vec)
            terms.append(LindbladTerm(b=stacked[:n], c=stacked[n:]))

    K_prime = K.copy()
    for term in terms:
        K_uv, _ = pair_from_coupling(term.u, term.v)
        K_prime = K_prime - K_uv

    J = symplectic_form(n)
    N = (J @ K + (J @ K).T) / 2.0
    nvals, nvecs = hermitian_eigh(N)
    hterms = []
    if nvals.size:
        scale = np.abs(nvals).max()
        nfloor = 1e-13 * (1.0 + np.abs(N).max(initial=0.0))
        for lam_h, vec in zip(nvals, nvecs.T):
            if scale > nfloor and abs(lam_h) > max(rank_tol * scale, nfloor):
                # only a real sign flip preserves the quadratic term, so the
                # convention is applied to the real eigenvector, not to w
                rvec = _fix_phase(np.real(vec)).real
                hterms.append(HamiltonianTerm(lam=float(lam_h),
                                              w=rvec[:n] + 1j * rvec[n:]))

    spec = DilationSpec(n=n, lindblad_terms=tuple(terms),
                        hamiltonian_terms=tuple(hterms),
                        K_prime=K_prime, K=K, C=C)
    res = reconstruction_residuals(spec)
    scale = 1.0 + max(np.abs(K).max(initial=0.0), np.abs(C).max(initial=0.0))
    if max(res.k_residual, res.c_residual) > 1e-8 * scale or \
            res.symplectic_residual > 1e-10 * scale:
        raise RuntimeError(f"decomposition failed to reconstruct the pair: {res}")
    return spec


@dataclass(frozen=True)
class ReconstructionResiduals:
    k_residual: float           # max |K - sum K(u_j, v_j) - K'|
    c_residual: float           # max |C - sum C(u_j, v_j)|
    symplectic_residual: float  # max |K'^T J + J K'|


def reconstruction_residuals(spec: DilationSpec) -> ReconstructionResiduals:
    """Max-norm residuals of the three reconstruction identities."""
    K_sum = np.zeros_like(spec.K)
    C_sum = np.zeros_like(spec.C)
    for term in spec.lindblad_terms:
        K_uv, C_uv = pair_from_coupling(term.u, term.v)
        K_sum += K_uv
        C_sum += C_uv
    J = symplectic_form(spec.n)
    dK = np.abs(spec.K - K_sum - spec.K_prime).max(initial=0.0)
    dC = np.abs(spec.C - C_sum).max(initial=0.0)
    dJ = np.abs(spec.K_prime.T @ J + J @ spec.K_prime).max(initial=0.0)
    return ReconstructionResiduals(k_residual=float(dK), c_residual=float(dC),
                                   symplectic_residual=float(dJ))


def hamiltonian_action(hamiltonian_terms, K_prime, z) -> GeneratorCoefficients:
    """Generator coefficients of -i[H, W(z)] for the synthesized Hamiltonian.

    The commutator acts as {a^dag(g) - a(g) + (1/2)(<g|z> - <z|g>)} W(z) with
    g the complex form of K' applied to z; the scalar is purely imaginary, so
    the unitary part contributes no damping.  The Hamiltonian terms themselves
    enter only through K' = -J N; they are accepted here so callers can keep
    the pieces of a decomposition together.
    """
    K_prime = np.asarray(K_prime, dtype=float)
    z = np.asarray(z, dtype=complex).ravel()
    if K_prime.shape != (2 * z.size, 2 * z.size):
        raise ValueError(f"K' must be {2 * z.size} x {2 * z.size}, got {K_prime.shape}")
    g = real_extract(K_prime @ real_embed(z))
    inner = np.vdot(g, z)
    return GeneratorCoefficients(gain_vector=g,
                                 scalar_part=complex(0.5 * (inner - np.conj(inner))))


def dilation_report(spec: DilationSpec) -> dict:
    """Structured summary of the noisy evolution the spec describes."""
    res = reconstruction_residuals(spec)
    report = {
        "modes": spec.n,
        "noise_dimension": spec.noise_dimension,
        "lindblad_terms": [
            {"b": _complex_list(t.b), "c": _complex_list(t.c),
             "u": _complex_list(t.u), "v": _complex_list(t.v)}
            for t in spec.lindblad_terms
        ],
        "hamiltonian_terms": [
            {"lambda": t.lam, "w": _complex_list(t.w)} for t in spec.hamiltonian_terms
        ],
        "K_prime": [[float(v) for v in row] for row in spec.K_prime],
        "reconstruction": {
            "k_residual": res.k_residual,
            "c_residual": res.c_residual,
            "symplectic_residual": res.symplectic_residual,
        },
        "closed_dynamics": spec.noise_dimension == 0,
    }
    if spec.noise_dimension == 0:
        report["note"] = ("no noise channels: the evolution is a closed one "
                          "generated by the quadratic Hamiltonian alone")
    return report


def _complex_list(vec):
    return [[float(x.real), float(x.imag)] for x in np.asarray(vec, dtype=complex).ravel()]


def _complex_from_list(pairs):
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("complex vectors are encoded as [[re, im], ...]")
    return arr[:, 0] + 1j * arr[:, 1]


def spec_to_dict(spec: DilationSpec) -> dict:
    """JSON form of a dilation spec (complex entries as [re, im] pairs)."""
    return {
        "n": spec.n,
        "lindblad": [{"b": _complex_list(t.b), "c": _complex_list(t.c)}
                     for t in spec.lindblad_terms],
        "hamiltonian": [{"lambda": float(t.lam), "w": _complex_list(t.w)}
                        for t in spec.hamiltonian_terms],
        "Kprime": [[float(v) for v in row] for row in spec.K_prime],
        "K": [[float(v) for v in row] for row in spec.K],
        "C": [[float(v) for v in row] for row in spec.C],
    }


def spec_from_dict(data: dict) -> DilationSpec:
    try:
        n = int(data["n"])
        terms = tuple(LindbladTerm(b=_complex_from_list(t["b"]),
                                   c=_complex_from_list(t["c"]))
                      for t in data["lindblad"])
        hterms = tuple(HamiltonianTerm(lam=float(t["lambda"]),
                                       w=_complex_from_list(t["w"]))
                       for t in data["hamiltonian"])
        return DilationSpec(n=n, lindblad_terms=terms, hamiltonian_terms=hterms,
                            K_prime=np.asarray(data["Kprime"], dtype=float),
                            K=np.asarray(data["K"], dtype=float),
                            C=np.asarray(data["C"], dtype=float))
    except KeyError as exc:
        raise ValueError(f"dilation JSON is missing field {exc}") from exc
