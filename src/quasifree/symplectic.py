"""Phase-space linear algebra for n bosonic modes.

A complex displacement z in C^n is identified with the stacked real vector
(Re z, Im z) in R^2n.  The canonical symplectic form carries the -I block in
the upper-right corner, so that multiplication by i on C^n corresponds to
multiplication by J on R^2n.  :func:`propagator` alone propagates a pair in
time: e^{tK} and B_t from one block exponential, squared up.  Everything here
is dense numpy; the matrices in play are at most a few hundred rows.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "symplectic_form",
    "real_embed",
    "real_extract",
    "psd_check",
    "hermitian_eigh",
    "expm",
    "propagator",
    "gram_integral",
]

#: default relative tolerance for positive-semidefiniteness decisions
PSD_TOL = 1e-9


def symplectic_form(n: int) -> np.ndarray:
    """Canonical 2n x 2n symplectic form [[0, -I_n], [I_n, 0]]."""
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def real_embed(z) -> np.ndarray:
    """Stack a complex vector z into the real vector (Re z, Im z)."""
    z = np.asarray(z, dtype=complex).ravel()
    return np.concatenate([z.real, z.imag])


def real_extract(xi) -> np.ndarray:
    """Inverse of :func:`real_embed`: (x, y) in R^2n back to x + iy in C^n."""
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.size % 2 != 0:
        raise ValueError(f"real embedding must have even length, got {xi.size}")
    n = xi.size // 2
    return xi[:n] + 1j * xi[n:]


def hermitian_eigh(H):
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns (w, V) with columns of V the eigenvectors matching w.  A symmetric
    solver is used throughout so downstream rank cuts are deterministic.
    """
    w, V = np.linalg.eigh(H)
    return w[::-1], V[:, ::-1]


def psd_check(H, tol: float = PSD_TOL):
    """Decide positive semidefiniteness of a Hermitian matrix.

    Returns (is_psd, min_eigenvalue).  The matrix passes when its smallest
    eigenvalue is >= -tol * (1 + ||H||), with ||H|| the spectral norm.  Inputs
    whose Hermitian defect exceeds the same relative tolerance are rejected.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    scale = 1.0 + np.abs(H).max(initial=0.0)
    defect = np.abs(H - H.conj().T).max(initial=0.0)
    if defect > max(tol, 1e-12) * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    w = np.linalg.eigvalsh((H + H.conj().T) / 2.0)
    min_eig = float(w[0])
    norm = float(max(abs(w[0]), abs(w[-1])))
    return min_eig >= -tol * (1.0 + norm), min_eig


def expm(A) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade, via scipy)."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return scipy.linalg.expm(A)


def propagator(K, C, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair (e^{tK}, B_t) with B_t = integral_0^t e^{sK^T} C e^{sK} ds.

    expm(h [[-K^T, C], [0, K]]) holds e^{hK} and e^{-hK^T} B_h (Van Loan 1978),
    taken at h = t / 2^k for the smallest k with ||h block||_1 <= 1 and squared
    up k times; e^{-tK^T} is never formed, so dissipative K stays finite at any
    t.  C must be symmetric; B_t is symmetric, and PSD whenever C is.
    """
    K = np.asarray(K, dtype=float)
    C = np.asarray(C, dtype=float)
    if K.shape != C.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K and C must be equal square matrices, got {K.shape} and {C.shape}")
    if np.abs(C - C.T).max(initial=0.0) > 1e-10 * (1.0 + np.abs(C).max(initial=0.0)):
        raise ValueError("C must be symmetric")
    if not 0.0 <= t < np.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    m = K.shape[0]
    block = np.zeros((2 * m, 2 * m))
    block[:m, :m] = -K.T
    block[:m, m:] = C
    block[m:, m:] = K
    norm = t * np.abs(block).sum(axis=0).max(initial=0.0)
    k = int(np.ceil(np.log2(norm))) if norm > 1.0 else 0
    F = expm((t / 2.0**k) * block)
    E = F[m:, m:]
    B = E.T @ F[:m, m:]
    for _ in range(k):
        B = B + E.T @ B @ E
        E = E @ E
    return E, (B + B.T) / 2.0


def gram_integral(K, C, t: float) -> np.ndarray:
    """Accumulated noise matrix B_t, the second half of :func:`propagator`."""
    return propagator(K, C, t)[1]
