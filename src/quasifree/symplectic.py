"""Phase-space linear algebra for n bosonic modes.

A complex displacement z in C^n is identified with the stacked real vector
(Re z, Im z) in R^2n.  The canonical symplectic form carries the -I block in
the upper-right corner, so that multiplication by i on C^n corresponds to
multiplication by J on R^2n.  :func:`propagator` alone propagates a pair in
time: e^{tK} and B_t from one block exponential, squared up.  Everything here
is dense numpy; the matrices in play are at most a few hundred rows.

The block exponential is a scaling-and-squaring Pade [13/13] approximant
(Higham 2005) of M = [[-K^T, C], [0, K]] (Van Loan 1978), scaled to
||hM||_1 <= _THETA_13.  M is block upper triangular with top-left block -K^T,
so every even power is M^2j = [[(K^2j)^T, X_2j], [0, K^2j]] with

    X_2 = C K - K^T C,  X_4 = (K^2)^T X_2 + X_2 K^2,  X_6 = (K^4)^T X_2 + X_4 K^2,

and the approximant follows from 2n x 2n products and one 2n x 2n inverse
(:func:`_pade13_blocks`).  scipy's compiled expm of the assembled 4n x 4n
block is faster on small blocks, where call overhead dominates; the 2n x 2n
kernel wins from order 2n = _BLOCK_KERNEL_MIN_ORDER up, as each of its
products costs an eighth of a 4n x 4n one.  A propagation that overflows
raises :class:`PropagatorOverflowError`.

The package's shared pieces live here too: the default tolerances, the one
Hermitian test (:func:`hermitian_check`), the read-only copies that make
pairs and states immutable (:func:`read_only`), and the one [re, im] codec, in
which :func:`complex_to_pairs` writes a complex scalar or array as [re, im]
pairs nested like it and :func:`complex_from_pairs` reads back a regular
nesting of the expected rank.
"""

from __future__ import annotations

import math

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
    "PropagatorOverflowError",
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


class PropagatorOverflowError(ArithmeticError):
    """e^{tK} or B_t is not finite in double precision: the dynamics grow too
    far by time t.  The message states t and the spectral abscissa of K."""


def _overflow(K, t: float) -> PropagatorOverflowError:
    alpha = float(np.linalg.eigvals(K).real.max())
    return PropagatorOverflowError(f"propagation overflows at t = {t:g}: K has spectral "
                                   f"abscissa {alpha:.6g}")


#: Pade [13/13] coefficients b_j / b_0 (Higham 2005); with b_0 scaled to 1 the
#: approximant at K = 0 is the identity exactly
_PADE13 = [b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1)]
#: the approximant is (V - U)^-1 (V + U), U = M W odd and V even in M, with
#: W = M^6 (inner W) + outer W and V = M^6 (inner V) + outer V; the rows hold
#: inner W, outer W, inner V and outer V in the powers I, M^2, M^4, M^6
_PADE13_TABLE = np.array([[0.0] + _PADE13[9::2], _PADE13[1:9:2],
                          [0.0] + _PADE13[8::2], _PADE13[0:8:2]])
#: largest ||hM||_1 at which the [13/13] approximant's backward error stays
#: within double-precision unit roundoff (Higham 2005)
_THETA_13 = 5.371920351148152
#: order 2n from which _pade13_blocks beats scipy's expm of the 4n x 4n block
_BLOCK_KERNEL_MIN_ORDER = 24


def _pade13_blocks(K, C):
    """(E, B), the bottom-right block of the Pade [13/13] approximant R of
    exp([[-K^T, C], [0, K]]) and E^T times its top-right block, from 2n x 2n
    products and one 2n x 2n inverse.

    Every polynomial p in M^2 is [[p_B^T, p_X], [0, p_B]] with p_B a
    polynomial in K, so U = M W and V follow from their B and X blocks.
    With P = V + U and Q = V - U, Q R = P reads E = Q_B^-1 P_B and
    P_B^T G = P_X - Q_X E for the top-right block G, as the top-left block
    of Q is P_B^T.  P_B and Q_B commute, so E^T P_B^-T = Q_B^-T and
    B = E^T G = Q_B^-T (P_X - Q_X E).
    """
    K2 = K @ K
    K4 = K2 @ K2
    K6 = K4 @ K2
    X2 = C @ K - K.T @ C
    X4 = K2.T @ X2 + X2 @ K2
    X6 = K4.T @ X2 + X4 @ K2
    m = K.shape[0]
    powers = np.array([(np.eye(m), np.zeros((m, m))), (K2, X2), (K4, X4), (K6, X6)])
    inner_W, outer_W, inner_V, outer_V = np.tensordot(_PADE13_TABLE, powers, axes=1)
    W_B = K6 @ inner_W[0] + outer_W[0]
    W_X = K6.T @ inner_W[1] + X6 @ inner_W[0] + outer_W[1]
    V_B = K6 @ inner_V[0] + outer_V[0]
    V_X = K6.T @ inner_V[1] + X6 @ inner_V[0] + outer_V[1]
    U_B = K @ W_B
    U_X = C @ W_B - K.T @ W_X
    Q_B_inv = np.linalg.inv(V_B - U_B)
    E = Q_B_inv @ (V_B + U_B)
    return E, Q_B_inv.T @ (V_X + U_X - (V_X - U_X) @ E)


def propagator(K, C, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair (e^{tK}, B_t) with B_t = integral_0^t e^{sK^T} C e^{sK} ds.

    exp(h [[-K^T, C], [0, K]]) holds e^{hK} and e^{-hK^T} B_h (Van Loan 1978),
    taken at h = t / 2^k for the smallest k with ||h block||_1 <= _THETA_13 and
    squared up k times (B <- B + E^T B E, E <- E E); e^{-tK^T} is never formed,
    so dissipative K stays finite at any t.  The 1-norm of the block is the
    larger of the largest row sum of |K| and the largest column sum of
    |C| + |K|, read off K and C.  Below order 2n = _BLOCK_KERNEL_MIN_ORDER the
    exponential is scipy's expm of the assembled block; from it up, the Pade
    [13/13] approximant in 2n x 2n blocks (:func:`_pade13_blocks`), which costs
    an eighth of the flops per product.  C must be symmetric; B_t is
    symmetric, and PSD whenever C is.  Raises PropagatorOverflowError when
    e^{tK} or B_t is not finite.
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
    abs_K = np.abs(K)
    norm = float(np.maximum(abs_K.sum(axis=1), (np.abs(C) + abs_K).sum(axis=0)).max(initial=0.0))
    if norm == math.inf:
        raise _overflow(K, t)
    # log2 of each factor, as t * norm may exceed the float range
    k = math.ceil(math.log2(t) + math.log2(norm / _THETA_13)) if t * norm > _THETA_13 else 0
    h = math.ldexp(t, -k)
    if m >= _BLOCK_KERNEL_MIN_ORDER:
        E, B = _pade13_blocks(h * K, h * C)
    else:
        block = np.zeros((2 * m, 2 * m))
        block[:m, :m] = -K.T
        block[:m, m:] = C
        block[m:, m:] = K
        F = expm(h * block)
        E = F[m:, m:]
        B = E.T @ F[:m, m:]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            B = B + E.T @ B @ E
            E = E @ E
        B = (B + B.T) / 2.0
    # unsquared, E and B come from the approximant at ||hM||_1 <= theta_13: finite
    if k and not (np.isfinite(E).all() and np.isfinite(B).all()):
        raise _overflow(K, t)
    return E, B


def gram_integral(K, C, t: float) -> np.ndarray:
    """Accumulated noise matrix B_t, the second half of :func:`propagator`."""
    return propagator(K, C, t)[1]
