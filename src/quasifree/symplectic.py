"""Phase-space linear algebra for n bosonic modes.

A complex displacement z in C^n is identified with the stacked real vector
(Re z, Im z) in R^2n.  The canonical symplectic form carries the -I block in
the upper-right corner, so that multiplication by i on C^n corresponds to
multiplication by J on R^2n.  :class:`Propagator` alone propagates a pair in
time: e^{tK} and B_t from one block exponential, squared up.  It checks K
and C once and prepares on its first evaluation (the 1-norm of the block and
its even powers).  :meth:`Propagator.at` takes one time on two matrices and
keeps the PROPAGATOR_MEMO most recently used, as the Weyl probes of a channel
fall at times it has just evolved; :meth:`Propagator.grid` takes one pass
stacked over its times, bitwise each time's pair, and keeps none, as no
caller reads a grid's times again.  A :class:`~quasifree.semigroup.QuasifreePair`
holds one; :func:`propagator` makes one for a single time.  Everything
here is dense numpy; the matrices in play are at most a few hundred rows.

The block exponential is the degree-25 Taylor polynomial T_25 of
M = [[-K^T, C], [0, K]] (Van Loan 1978), scaled and squared (Al-Mohy and
Higham 2009, 2011).  M is block upper triangular, so every even power is
M^2j = [[(K^2j)^T, X_2j], [0, K^2j]], and T_25 follows with no inverse from
2n x 2n products (:func:`_taylor25_blocks`) with the 13 powers (h0 M)^2j,
j = 0..12, prepared once per pair at h0 = _THETA_25 / ||M||_1.  Each
t = 2^k h takes k from h eta <= _THETA_25, with eta (:attr:`Propagator.eta`)
read off the norms of those powers and often far below ||M||_1; r = h / h0
stays at most _MAX_RATIO, so no scaled power can overflow.  A propagation
that overflows raises :class:`PropagatorOverflowError`, naming the first
time of a grid, in its own order, at which it does.  A single time takes one
np.errstate guard per call, in :meth:`Propagator.at` or its semigroup caller,
and one finiteness test per result (:func:`_finite`: its sum, else entrywise).

The package's shared pieces live here too: the one verdict type (:class:`Check`)
and the rule that picks the deciding one (:func:`decisive`), the one tolerance
set (:class:`Tolerances`, defaults in TOLERANCES), the one Hermitian test and
PSD rule (each written once over the last axes of an array, so that one
matrix and a stack of them take the same arithmetic; a state's 2S + iJ,
Hermitian bit for bit, takes the PSD rule alone), the input checks of a
complex vector (:func:`complex_vector`) and of a pair (:func:`pair_arrays`),
and the read-only copies that make pairs and states immutable (:func:`read_only`).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import numbers
import sys

import numpy as np
import scipy.linalg

__all__ = [
    "Check",
    "decisive",
    "Tolerances",
    "TOLERANCES",
    "symplectic_form",
    "real_embed",
    "real_extract",
    "read_only",
    "complex_vector",
    "pair_arrays",
    "hermitian_check",
    "psd_check",
    "psd_verdict",
    "hermitian_eigh",
    "expm",
    "PropagatorOverflowError",
    "PROPAGATOR_MEMO",
    "Propagator",
    "propagator",
    "gram_integral",
]

@dataclasses.dataclass(frozen=True)
class Check:
    """One verdict: value against bound, passed = value <= bound, so a NaN
    value or bound fails; the margin is bound - value."""

    name: str
    value: float
    bound: float
    passed: bool = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.value <= self.bound))


def decisive(checks) -> Check | None:
    """The Check deciding a conjunction: a failing one if any fails, else the one
    nearest its bound (largest value / bound); None for no checks."""
    return max(checks, key=lambda c: (not c.passed, c.value / c.bound), default=None)


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """The one tolerance set, each a finite number > 0, by the keys of a
    scenario's "tolerances"; a pair keeps the set it was admitted under."""

    psd: float = 1e-9               # positive semidefiniteness, relative
    oracle: float = 1e-5            # Fock oracle against the closed form, absolute
    unitarity: float = 1e-12        # unitarity of a noise equation's coefficients
    rank: float = 1e-10             # rank cuts on the noise matrix, relative
    reconstruction: float = 1e-8    # K and C rebuilt from a decomposition, relative
    symplectic: float = 1e-10       # K' of a decomposition staying in sp(2n), relative

    def __post_init__(self):
        for key, value in vars(self).items():
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 < value <= sys.float_info.max):
                raise ValueError(f"tolerance {key!r} must be a finite number > 0, got {value!r}")
            object.__setattr__(self, key, float(value))


#: the default tolerances, and the relative bound of a Hermitian (symmetric)
#: defect, which no scenario key sets
TOLERANCES = Tolerances()
SYMMETRY_TOL = 1e-10


def symplectic_form(n: int) -> np.ndarray:
    """Canonical 2n x 2n symplectic form [[0, -I_n], [I_n, 0]]."""
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


@functools.lru_cache(maxsize=8)
def _i_form(n: int) -> np.ndarray:
    """iJ of n modes, built once per mode count, as a read-only view."""
    return np.broadcast_to(1j * symplectic_form(n), (2 * n, 2 * n))


def _form_times(A) -> np.ndarray:
    """J A for the symplectic form J of A's order, by slicing: the rows
    (-A_lower, A_upper), bitwise the product, as J holds only 0 and +-1."""
    n = len(A) // 2
    return np.concatenate([-A[n:], A[:n]])


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
    """A float copy of a that cannot be written in place nor made writeable
    (a view of a write-protected base); a later write to a leaves it as is."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a.view()


def complex_vector(z, n: int) -> np.ndarray:
    """z as a flat complex vector, refused unless it has length n and finite entries."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.size != n:
        raise ValueError(f"expected a length-{n} vector, got {z.size}")
    return _finite_entries(z)


def _finite_entries(z) -> np.ndarray:
    """z, refused unless every entry is finite."""
    if not np.isfinite(z).all():
        raise ValueError("vector entries must be finite")
    return z


def pair_arrays(K, C) -> tuple[np.ndarray, np.ndarray]:
    """K and C as float arrays: equal square matrices, finite, C symmetric within SYMMETRY_TOL."""
    K = np.asarray(K, dtype=float)
    C = np.asarray(C, dtype=float)
    if K.shape != C.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K and C must be equal square matrices, got {K.shape} and {C.shape}")
    if not (np.isfinite(K).all() and np.isfinite(C).all()):
        raise ValueError("K and C must be finite")
    if not hermitian_check(C, SYMMETRY_TOL).passed:
        raise ValueError("C must be symmetric")
    return K, C


def _square(A) -> np.ndarray:
    """A as an array, refused unless it is a square matrix."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def hermitian_check(A, tol: float) -> Check:
    """The Hermitian test: the absolute defect max|A - A^dag| against the bound
    tol * (1 + max|A|).  A NaN defect fails; a matrix that is not square is
    refused."""
    defect, bound = _hermitian_rule(_square(A), tol)
    return Check("hermitian", float(defect), float(bound))


def _hermitian_rule(A, tol: float):
    """(defect, bound) of :func:`hermitian_check` over the last two axes of A:
    numbers for a matrix, arrays for a stack of them."""
    defect = np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    return defect, tol * (1.0 + np.abs(A).max(axis=(-2, -1), initial=0.0))


def hermitian_eigh(H):
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns (w, V) with columns of V the eigenvectors matching w.  A symmetric
    solver is used throughout so downstream rank cuts are deterministic.
    """
    w, V = np.linalg.eigh(H)
    return w[::-1], V[:, ::-1]


def psd_check(H, tol: float = TOLERANCES.psd) -> Check:
    """Decide positive semidefiniteness of a Hermitian matrix by the rule of
    :func:`psd_verdict` on its eigenvalues.  Inputs whose Hermitian defect
    exceeds the same relative tolerance are rejected."""
    H = _square(H)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    defect, bound = _hermitian_rule(H, max(tol, 1e-12))
    if not defect <= bound:             # a NaN defect fails
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    return Check("psd", *map(float, _psd_rule(np.linalg.eigvalsh((H + H.conj().T) / 2.0), tol)))


def psd_verdict(w, tol: float = TOLERANCES.psd) -> Check:
    """The PSD rule on the eigenvalues w of a Hermitian matrix, in any order:
    the value -min(w) against the bound tol * (1 + max|w|), so the matrix
    passes when min(w) >= -tol * (1 + ||H||)."""
    value, bound = _psd_rule(np.asarray(w, dtype=float).reshape(-1), tol)
    return Check("psd", float(value), float(bound))


def _psd_rule(w, tol: float):
    """(value, bound) of :func:`psd_verdict` over the last axis of w."""
    return -w.min(axis=-1), tol * (1.0 + np.abs(w).max(axis=-1))


def expm(A) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade, via scipy).  The library
    no longer calls it; the tests keep it as a reference."""
    return scipy.linalg.expm(_square(A))


class PropagatorOverflowError(ArithmeticError):
    """e^{tK} or B_t is not finite in double precision: the dynamics grow too
    far by time t.  The message states t and the spectral abscissa of K."""


def _overflow_error(K, t: float) -> PropagatorOverflowError:
    """The refusal of time t, naming the spectral abscissa of K."""
    alpha = float(np.linalg.eigvals(K).real.max())
    return PropagatorOverflowError(f"propagation overflows at t = {t:g}: K has spectral "
                                   f"abscissa {alpha:.6g}")


def _finite(a) -> bool:
    """Whether every entry of the real array a is finite, under the caller's guard
    (the sum may overflow): a finite sum proves it, else np.isfinite decides."""
    return math.isfinite(np.add.reduce(a, axis=None)) or bool(np.isfinite(a).all())


def _finite_prefix(times, *results) -> int:
    """The number of leading times at which every result is finite; each
    result holds one array or number per time along its first axis."""
    if all(np.logical_and.reduce(np.isfinite(a), axis=None) for a in results):
        return len(times)
    finite = np.ones(len(times), dtype=bool)
    for a in results:
        finite &= np.isfinite(a).reshape(len(times), -1).all(axis=1)
    return int(finite.argmin())


#: the times (e^{tK}, B_t) a Propagator keeps, the least recently used dropped first
PROPAGATOR_MEMO = 32

#: the exponents i = 0..25 and Taylor coefficients 1/i! of T_25; the largest
#: h eta at which the backward error of T_25, the series of
#: log(e^{-x} T_25(x)) past x^25, stays within u = 2^-53 (Al-Mohy and
#: Higham); the largest r = h / h0, so that r^25 times a prepared power stays
#: far inside the float range
_EXPONENTS = np.arange(26.0)
_TAYLOR25 = 1.0 / np.array([math.factorial(i) for i in range(26)], dtype=float)
_THETA_25 = 2.4285825244428264
_MAX_RATIO = 2.0 ** 16


def _taylor25_blocks(powers, K0, C0, r):
    """(E, B): the bottom-right block E of the degree-25 Taylor polynomial T
    of exp(hM), M = [[-K^T, C], [0, K]], and B = E^T G with G its top-right
    block, from four 2n x 2n products and no inverse; two matrices for a
    number r, and two stacks, one matrix per ratio, for a sequence.

    powers[j] holds the B and X blocks of M0^2j, M0 = h0 M, j = 0..12;
    K0 = h0 K, C0 = h0 C and r = h / h0.  T = V + M0 W with
    V = sum_j r^2j M0^2j / (2j)! and W = sum_j r^(2j+1) M0^2j / (2j+1)!, all
    from one product of the 2T x 13 coefficient rows with powers, so
    E = V_B + K0 W_B and G = V_X + C0 W_B - K0^T W_X.
    """
    # the 2T x 13 rows (even, odd coefficients per ratio) as the transpose of
    # a C-ordered 13 x 2T table, so that each time's rows reach BLAS in the
    # layout they have for that time alone, as a number's 2 x 13 rows do
    c = ((_TAYLOR25 * r ** _EXPONENTS).reshape(13, 2) if isinstance(r, float) else
         (_TAYLOR25 * np.asarray(r, dtype=float)[:, None] ** _EXPONENTS).reshape(-1, 13, 2)
         .transpose(1, 0, 2).reshape(13, -1)).T
    X = (c @ powers.reshape(13, -1)).reshape(*np.shape(r), 2, 2, *K0.shape)
    V_B, V_X, W_B, W_X = (X[..., i, j, :, :] for i in (0, 1) for j in (0, 1))
    E = V_B + K0 @ W_B
    return E, E.swapaxes(-1, -2) @ (V_X + C0 @ W_B - K0.T @ W_X)


class Propagator:
    """(e^{tK}, B_t) of one pair (K, C), with B_t = integral_0^t
    e^{sK^T} C e^{sK} ds: at one time (:meth:`at`), kept in a bounded memo
    for the callers that read a time again, or stacked over a grid
    (:meth:`grid`), kept nowhere.

    The constructor checks that K and C are equal square finite matrices and
    that C is symmetric.  The first evaluation does the work that does not
    depend on t, once (:meth:`_prepare`): the 1-norm of M = [[-K^T, C], [0, K]]
    and the blocks of the 13 powers (h0 M)^2j, j = 0..12, at
    h0 = _THETA_25 / ||M||_1, from 15 block products in 5 stacked rounds.
    Each time then takes 4 block products and no inverse: one time on two
    matrices (:meth:`_evaluate_one`), a grid stacked (:meth:`_evaluate`).
    """

    def __init__(self, K, C):
        self.K, self.C = pair_arrays(K, C)
        self._memo = {}
        self._powers = None

    def _prepare(self) -> None:
        """The t-independent work, on the first evaluation."""
        K, C = self.K, self.C
        m = K.shape[0]
        abs_K = np.abs(K)
        with np.errstate(over="ignore"):    # an infinite norm refuses every time
            self.norm = float(np.maximum(abs_K.sum(axis=1),
                                         (np.abs(C) + abs_K).sum(axis=0)).max(initial=0.0))
        # h0 M, dividing first: h0 = _THETA_25 / ||M||_1 overflows at a subnormal norm
        norm = self.norm or 1.0  # K = C = 0 at ||M||_1 = 0; at inf, every t is refused
        self._K0 = K0 = K / norm * _THETA_25
        self._C0 = C0 = C / norm * _THETA_25
        powers = np.zeros((13, 2, m, m))
        powers[0, 0] = np.eye(m)
        powers[1] = K0 @ K0, C0 @ K0 - K0.T @ C0
        # powers a+1..a+b from power a and powers 1..b at once, as
        # K^{a+b} = K^a K^b and X_{a+b} = (K^a)^T X_b + X_a K^b
        for a, b in ((1, 1), (2, 2), (4, 4), (8, 4)):
            (K_a, X_a), K_b, X_b = powers[a], powers[1:b + 1, 0], powers[1:b + 1, 1]
            powers[a + 1:a + b + 1, 0] = K_a @ K_b
            powers[a + 1:a + b + 1, 1] = K_a.T @ X_b + X_a @ K_b
        self._powers = powers

    @functools.cached_property
    def eta(self) -> float:
        """Rate the squarings are picked from, ||(hM)^i||_1 <= (h eta)^i for
        i >= 26 (Al-Mohy and Higham 2009, Thm 4.2): with d_i = ||M^i||_1^{1/i}
        off the prepared powers, alpha = min(max(d_6, d_8), max(d_8, d_10))
        bounds the even powers and ||M||_1 alpha^{i-1} the odd ones."""
        P = np.abs(self._powers[3:6])
        norms = np.maximum(P[:, 0].sum(axis=2), (P[:, 0] + P[:, 1]).sum(axis=1)).max(axis=1)
        d6, d8, d10 = norms ** (1.0 / np.array([6, 8, 10])) * (self.norm / _THETA_25)
        alpha = float(min(max(d6, d8), max(d8, d10)))
        eta = alpha * (self.norm / alpha) ** (1.0 / 27.0) if alpha else 0.0
        return max(eta, self.norm / _MAX_RATIO)

    def at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """The read-only (e^{tK}, B_t) at one time, from a memo of the
        PROPAGATOR_MEMO most recently used times, the oldest dropped first; a
        miss takes :meth:`_evaluate_one`.  A time outside [0, inf) raises
        ValueError before any preparation, and one at which e^{tK} or B_t is
        not finite PropagatorOverflowError, all under one single-time guard."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._at(t)

    def _at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`at` under the caller's single-time guard."""
        memo = self._memo
        entry = memo.pop(t, None)
        if entry is None:
            if not 0.0 <= t < math.inf:
                raise ValueError(f"time must be finite and nonnegative, got {t}")
            if self._powers is None:
                self._prepare()
            if not math.isfinite(self.norm):    # at an infinite ||M||_1, every time overflows
                raise _overflow_error(self.K, t)
            E, B = self._evaluate_one(t)
            if not (_finite(E) and _finite(B)):
                raise _overflow_error(self.K, t)
            E.flags.writeable = B.flags.writeable = False
            entry = E.view(), B.view()
        memo[t] = entry
        if len(memo) > PROPAGATOR_MEMO:
            del memo[next(iter(memo))]
        return entry

    def grid(self, times):
        """(E, B, error): the stacked (e^{tK}, B_t) from one :meth:`_evaluate`
        at the times before the first one refused by the rules of :meth:`at`,
        and that refusal (or None).  The memo is neither read nor written, as
        no caller reads a grid's times again; an empty grid prepares nothing."""
        valid = 0
        while valid < len(times) and 0.0 <= times[valid] < math.inf:
            valid += 1
        E = B = np.empty((0, *self.K.shape))
        stop = 0
        if valid:
            if self._powers is None:
                self._prepare()
            if math.isfinite(self.norm):
                E, B = self._evaluate(times[:valid])
                stop = _finite_prefix(times[:valid], E, B)
        error = None
        if stop < valid:
            error = _overflow_error(self.K, times[stop])
        elif valid < len(times):
            error = ValueError(f"time must be finite and nonnegative, got {times[valid]}")
        return E[:stop], B[:stop], error

    def _squarings(self, t) -> int:
        """The squaring count k of t >= 0 under a finite ||M||_1: 0 while t ||M||_1
        <= _THETA_25, else the least k with h eta <= _THETA_25, h = t / 2^k."""
        # log2 of each factor, as t * eta may exceed the float range
        return (0 if t * self.norm <= _THETA_25 else
                max(0, math.ceil(math.log2(t) + math.log2(self.eta / _THETA_25))))

    def _evaluate_one(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(E, B) at one time by the rule of :meth:`_evaluate` on two fresh matrices,
        with no stack, sort, bisection or guard of its own; they may be non-finite."""
        k = self._squarings(t)
        E, B = _taylor25_blocks(self._powers, self._K0, self._C0,
                                math.ldexp(t, -k) * (self.norm / _THETA_25))
        for _ in range(k):
            B += E.T @ B @ E
            E = E @ E
        return E, (B + B.T) / 2.0

    def _evaluate(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """The stacked (E, B) at times in [0, inf) under a finite ||M||_1,
        which may hold non-finite entries; each time's pair is bitwise the
        one it gets alone.

        exp(h M) holds e^{hK} and e^{-hK^T} B_h (Van Loan 1978), taken by
        :func:`_taylor25_blocks` at h = t / 2^k for every time at once and
        squared up k times (:meth:`_squarings`; B <- B + E^T B E,
        E <- E E); e^{-tK^T} is never formed, so dissipative K stays finite
        at any t.  The times are taken in the order of k, so each squaring
        updates, in place, the stacked tail of the times whose k is not yet
        spent.
        """
        norm = self.norm
        ks = [self._squarings(t) for t in ts]
        order = None
        if ks != sorted(ks):
            order = sorted(range(len(ts)), key=ks.__getitem__)
            ts, ks = [ts[i] for i in order], [ks[i] for i in order]
        ratios = [math.ldexp(t, -k) * (norm / _THETA_25) for t, k in zip(ts, ks)]
        with np.errstate(over="ignore", invalid="ignore"):
            E, B = _taylor25_blocks(self._powers, self._K0, self._C0, ratios)
            first, E_k, B_k = 0, E, B       # the tail of times with k > step
            for step in range(ks[-1]):
                if ks[first] <= step:
                    first = bisect.bisect_right(ks, step)
                    E_k, B_k = E[first:], B[first:]
                B_k += E_k.swapaxes(1, 2) @ B_k @ E_k
                E_k[...] = E_k @ E_k
            B = (B + B.swapaxes(1, 2)) / 2.0
        if order is not None:
            inverse = np.argsort(order)
            E, B = E[inverse], B[inverse]
        return E, B


def propagator(K, C, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair (e^{tK}, B_t) with B_t = integral_0^t e^{sK^T} C e^{sK} ds, as
    read-only arrays: :meth:`Propagator.at` of a new Propagator.  B_t is
    symmetric, and PSD whenever C is."""
    return Propagator(K, C).at(t)


def gram_integral(K, C, t: float) -> np.ndarray:
    """Accumulated noise matrix B_t, the second half of :func:`propagator`."""
    return propagator(K, C, t)[1]
