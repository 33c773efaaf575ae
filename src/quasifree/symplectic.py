"""Phase-space linear algebra for n bosonic modes.

A complex displacement z in C^n is identified with the stacked real vector
(Re z, Im z) in R^2n.  The canonical symplectic form carries the -I block in
the upper-right corner, so that multiplication by i on C^n corresponds to
multiplication by J on R^2n.  :func:`propagator` alone propagates a pair in
time: e^{tK} and B_t from one block exponential, squared up.  Everything here
is dense numpy; the matrices in play are at most a few hundred rows.

The package's shared pieces live here too: the default tolerances, the one
Hermitian test (:func:`hermitian_check`), the read-only copies that make
pairs and states immutable (:func:`read_only`), and the one [re, im] codec, in
which :func:`complex_to_pairs` writes a complex scalar or array as [re, im]
pairs nested like it and :func:`complex_from_pairs` reads back a regular
nesting of the expected rank.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "symplectic_form",
    "real_embed",
    "real_extract",
    "read_only",
    "complex_to_pairs",
    "complex_from_pairs",
    "hermitian_check",
    "psd_check",
    "psd_verdict",
    "hermitian_eigh",
    "expm",
    "propagator",
    "gram_integral",
]

#: default relative tolerances of the library's checks
PSD_TOL = 1e-9              # positive semidefiniteness
SYMMETRY_TOL = 1e-10        # Hermitian (symmetric) defect
RANK_TOL = 1e-10            # rank cuts on the noise matrix
RECONSTRUCTION_TOL = 1e-8   # K and C rebuilt from a decomposition
SYMPLECTIC_TOL = 1e-10      # K' of a decomposition staying in sp(2n)
UNITARITY_TOL = 1e-12       # unitarity of a noise equation's coefficients


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


def read_only(a) -> np.ndarray:
    """A float copy of a that cannot be written in place; a later write to a
    itself leaves the copy unchanged."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def complex_to_pairs(z) -> list:
    """A complex scalar or array as [re, im] pairs, nested like the array."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], -1).tolist()


def complex_from_pairs(data, ndim: int = 1) -> np.ndarray:
    """Inverse of :func:`complex_to_pairs` for a rank-ndim complex array."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        arr = None      # ragged, or not numbers
    if arr is None or arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        nested = "[" * ndim + "[re, im], ..." + "], ..." * (ndim - 1) + "]"
        raise ValueError(f"complex values are encoded as {nested}")
    if not np.isfinite(arr).all():
        raise ValueError("complex values must be finite")     # a null reads as NaN
    return arr[..., 0] + 1j * arr[..., 1]


def hermitian_check(A, tol: float):
    """The Hermitian test: max|A - A^dag| <= tol * (1 + max|A|).

    Returns (ok, defect) with the absolute defect max|A - A^dag|.  A NaN
    defect fails; a matrix that is not square is refused.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    defect = float(np.abs(A - A.conj().T).max(initial=0.0))
    return bool(defect <= tol * (1.0 + np.abs(A).max(initial=0.0))), defect


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
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    hermitian, defect = hermitian_check(H, max(tol, 1e-12))
    if not hermitian:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    return psd_verdict(np.linalg.eigvalsh((H + H.conj().T) / 2.0), tol)


def psd_verdict(w, tol: float = PSD_TOL):
    """The PSD rule on the eigenvalues w of a Hermitian matrix, in any order:
    (is_psd, min_eigenvalue) with is_psd = min(w) >= -tol * (1 + max|w|)."""
    w = np.asarray(w, dtype=float)
    min_eig = float(w.min())
    return min_eig >= -tol * (1.0 + float(np.abs(w).max())), min_eig


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
    if not hermitian_check(C, SYMMETRY_TOL)[0]:
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
