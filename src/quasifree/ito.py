"""Symbolic quantum Ito algebra over the fundamental noise differentials.

A differential is a formal sum of terms  coeff * dL[a, b]  where index 0 is
the time direction and colours 1..d label independent noise channels:

    dL[0, 0] = dt                 time
    dL[0, i]                      annihilation of colour i
    dL[i, 0]                      creation of colour i
    dL[j, i]                      scattering of colour i into colour j

The product of two differentials contracts the superscript of the left
factor against the subscript of the right factor, and the contraction is
zero whenever either index is 0:

    dL[a, b] . dL[g, e] = (b == g != 0) * dL[a, e]

On the coefficient grid this is just a matrix product with the 0 row/column
excluded from the summation.  Coefficients may be scalars or square complex
matrices (system operators), a scalar c beside a matrix meaning c I; no CAS is
involved, only linearity and contraction.

The rule is written once, in ito_product, and the rest is built on it.  A
multiplication table compares each product once with its expected value: the
gap names the entry, and the largest gap is the table's Check.  The unitary
noise equation of Hudson and Parthasarathy is itself a differential,
dU = sum G[a][b] dL[a, b] (times U), returned by hp_coefficients; its
unitarity is read off dU + dU^dag + dU^dag dU and dU + dU^dag + dU dU^dag,
and the structure maps of its Heisenberg flow off d(U^dag X U), expanded by
product_differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symplectic import SYMMETRY_TOL, TOLERANCES, Check, hermitian_check

__all__ = [
    "ItoDifferential",
    "differential",
    "time_differential",
    "annihilation",
    "creation",
    "scattering",
    "quadrature",
    "poisson_process",
    "ito_product",
    "adjoint",
    "product_differential",
    "quadrature_table",
    "COLOUR_CAP",
    "ColourCapError",
    "poisson_table",
    "format_differential",
    "format_table",
    "hp_coefficients",
    "unitarity_residual",
    "unitarity_check",
    "flow_generator",
]


#: most colours d that quadrature_table renders; its (d + 1)^2 products and its text
#: grow as d^2, to ~0.5 s (2-core Xeon, 2 OpenBLAS threads) and 439 kB at the cap
COLOUR_CAP = 256


class ColourCapError(ValueError):
    """Requested table exceeds COLOUR_CAP colours."""


def _is_zero(coeff) -> bool:
    return not np.count_nonzero(coeff) if isinstance(coeff, np.ndarray) else coeff == 0


def _coeff_mul(a, b):
    """Matrix product of two matrix coefficients, else the plain product."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a @ b
    return a * b


def _coeff_add(a, b):
    """Sum of two coefficients; beside a matrix, a scalar c stands for c I, as
    it does in _coeff_mul."""
    if isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        b = b * np.eye(len(a))
    elif isinstance(b, np.ndarray) and not isinstance(a, np.ndarray):
        a = a * np.eye(len(b))
    return a + b


def _coeff_norm(a) -> float:
    """Largest modulus among the entries of a coefficient."""
    return np.abs(a).max() if isinstance(a, np.ndarray) else abs(a)


def _coeff_adjoint(a):
    return a.conj().T if isinstance(a, np.ndarray) else np.conj(a)


class ItoDifferential:
    """Formal sum of noise differentials with scalar or matrix coefficients.

    terms maps an index pair (a, b) to the coefficient of dL[a, b]; absent
    pairs are zero.  Supports +, - and multiplication by a scalar or matrix on
    either side; a scalar c beside a matrix coefficient means c I.  Use
    ito_product for the contraction product.
    """

    __slots__ = ("d", "terms")
    __array_ufunc__ = None      # ndarray * differential defers to __rmul__

    def __init__(self, d: int, terms=None):
        if d < 0:
            raise ValueError("noise dimension must be nonnegative")
        self.d = d
        self.terms = {}
        for key, coeff in (terms or {}).items():
            a, b = key
            if not (0 <= a <= d and 0 <= b <= d):
                raise ValueError(f"index pair {key} out of range for d = {d}")
            if not _is_zero(coeff):
                self.terms[(a, b)] = coeff

    def __add__(self, other):
        if not isinstance(other, ItoDifferential):
            return NotImplemented
        if other.d != self.d:
            raise ValueError(f"noise dimensions differ: {self.d} vs {other.d}")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = _coeff_add(out[key], coeff) if key in out else coeff
        return ItoDifferential(self.d, out)

    def __neg__(self):
        return ItoDifferential(self.d, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ItoDifferential):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        return ItoDifferential(self.d, {k: _coeff_mul(c, scalar)
                                        for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        return ItoDifferential(self.d, {k: _coeff_mul(scalar, c)
                                        for k, c in self.terms.items()})

    def coefficient(self, a: int, b: int):
        return self.terms.get((a, b), 0.0)

    def __repr__(self):
        return f"ItoDifferential(d={self.d}, {format_differential(self)})"


def differential(d: int, a: int, b: int, coeff=1.0) -> ItoDifferential:
    """Single term coeff * dL[a, b]."""
    return ItoDifferential(d, {(a, b): coeff})


def time_differential(d: int) -> ItoDifferential:
    return differential(d, 0, 0)


def annihilation(d: int, i: int) -> ItoDifferential:
    if not 1 <= i <= d:
        raise ValueError(f"colour {i} out of range 1..{d}")
    return differential(d, 0, i)


def creation(d: int, i: int) -> ItoDifferential:
    if not 1 <= i <= d:
        raise ValueError(f"colour {i} out of range 1..{d}")
    return differential(d, i, 0)


def scattering(d: int, i: int, j: int | None = None) -> ItoDifferential:
    """Conservation differential scattering colour i into colour j (default i)."""
    j = i if j is None else j
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"colours ({i}, {j}) out of range 1..{d}")
    return differential(d, j, i)


def quadrature(d: int, i: int) -> ItoDifferential:
    """dQ_i = annihilation + creation of colour i; vacuum Brownian motion."""
    return annihilation(d, i) + creation(d, i)


def poisson_process(d: int, i: int, intensity: float) -> ItoDifferential:
    """dN_i = sqrt(intensity) dQ_i + scattering(i, i) + intensity dt."""
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    root = np.sqrt(intensity)
    return (root * quadrature(d, i)) + scattering(d, i) + (intensity * time_differential(d))


def ito_product(X: ItoDifferential, Y: ItoDifferential) -> ItoDifferential:
    """Contraction product of two differentials (coefficients multiply left-to-right)."""
    if not isinstance(X, ItoDifferential) or not isinstance(Y, ItoDifferential):
        raise TypeError("ito_product expects two ItoDifferentials")
    if X.d != Y.d:
        raise ValueError(f"noise dimensions differ: {X.d} vs {Y.d}")
    out = {}
    for (a, b), E in X.terms.items():
        if b == 0:
            continue
        for (g, e), F in Y.terms.items():
            if g != b:
                continue
            key = (a, e)
            prod = _coeff_mul(E, F)
            out[key] = _coeff_add(out[key], prod) if key in out else prod
    return ItoDifferential(X.d, out)


def adjoint(X: ItoDifferential) -> ItoDifferential:
    """Formal adjoint: swaps creation and annihilation, conjugates coefficients."""
    return ItoDifferential(X.d, {(b, a): _coeff_adjoint(c)
                                 for (a, b), c in X.terms.items()})


def product_differential(X0, dX: ItoDifferential, Y0, dY: ItoDifferential) -> ItoDifferential:
    """d(XY) for adapted processes with constant values X0, Y0 at the left endpoint.

    Expands to X0 dY + (dX) Y0 + dX dY, the Ito-corrected Leibniz rule.
    """
    left = ItoDifferential(dY.d, {k: _coeff_mul(X0, c) for k, c in dY.terms.items()})
    right = ItoDifferential(dX.d, {k: _coeff_mul(c, Y0) for k, c in dX.terms.items()})
    return left + right + ito_product(dX, dY)


def _gap(X: ItoDifferential, Y: ItoDifferential) -> float:
    """Largest coefficient modulus of X - Y, compared pair by pair without
    building X - Y; NaN if any coefficient is."""
    return float(np.max([_coeff_norm(_coeff_add(X.terms.get(key, 0.0), -Y.terms.get(key, 0.0)))
                         for key in X.terms.keys() | Y.terms.keys()], initial=0.0))


def format_differential(X: ItoDifferential) -> str:
    """Render a differential as text, e.g. 'dt + 2.0 dL[0,1]'."""
    if not X.terms:
        return "0"
    parts = []
    for key in sorted(X.terms):
        name = "dt" if key == (0, 0) else f"dL[{key[0]},{key[1]}]"
        coeff = X.terms[key]
        if isinstance(coeff, np.ndarray):
            parts.append(f"<matrix> {name}")
        elif coeff == 1:
            parts.append(name)
        else:
            coeff = complex(coeff)
            if coeff.imag == 0:
                parts.append(f"{coeff.real:g} {name}")
            else:
                parts.append(f"({coeff:g}) {name}")
    return " + ".join(parts)


def format_table(labels, entries) -> str:
    """Text grid with row/column labels; rows are left factors."""
    cells = [[""] + list(labels)]
    for label, row in zip(labels, entries):
        cells.append([label] + list(row))
    widths = [max(len(r[k]) for r in cells) for k in range(len(cells[0]))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append("-" * len(lines[0]))
    return "\n".join(lines)


@dataclass(frozen=True)
class TableCheck:
    check: Check     # the largest coefficient gap to the expected products, against tol
    labels: tuple
    entries: tuple   # tuple of tuples of ItoDifferential
    text: str


def _table_check(labels, basis, expected, tol) -> TableCheck:
    """Multiply every ordered pair of basis differentials and compare each
    product once with expected(a, b) = (name, differential): the entry is
    written by that name when its gap is within tol, else as a formula, and
    the table's Check is the largest gap."""
    entries = tuple(tuple(ito_product(left, right) for right in basis) for left in basis)
    gaps, rendered = [], []
    for a, row in enumerate(entries):
        rendered.append([])
        for b, prod in enumerate(row):
            name, target = expected(a, b)
            gaps.append(_gap(prod, target))
            rendered[a].append(name if gaps[-1] <= tol else format_differential(prod))
    return TableCheck(check=Check("ito_table", float(np.max(gaps)), tol), labels=tuple(labels),
                      entries=entries, text=format_table(labels, rendered))


def quadrature_table(d: int, tol: float = TOLERANCES.unitarity) -> TableCheck:
    """Verify dQ_i dQ_j = delta_ij dt and render the classical Brownian table.

    The grid includes the dt row and column, which vanish identically, so the
    text reproduces the full multiplication table of Brownian differentials.
    More than COLOUR_CAP colours raise ColourCapError before any differential
    is built.
    """
    if d < 1:
        raise ValueError("need at least one colour")
    if d > COLOUR_CAP:
        raise ColourCapError(f"{d} colours exceed the cap of {COLOUR_CAP} for a quadrature table")
    dt, zero = time_differential(d), ItoDifferential(d)
    labels = [f"dB{i}" for i in range(1, d + 1)] + ["dt"]
    basis = [quadrature(d, i) for i in range(1, d + 1)] + [dt]
    return _table_check(labels, basis, lambda a, b: ("dt", dt) if a == b < d else ("0", zero),
                        tol)


def poisson_table(i: int, j: int, intensity_i: float, intensity_j: float,
                  tol: float = TOLERANCES.unitarity) -> TableCheck:
    """Verify dN_i dN_j = delta_ij dN_j and render the Poisson/time table.

    The compound processes N are expanded into fundamental differentials, so
    the check exercises the full contraction rule rather than a lookup.  For
    i = j both intensities are those of the one colour, so they must be equal
    (or both NaN); else ValueError.
    """
    if i == j and intensity_i != intensity_j and not (math.isnan(intensity_i)
                                                      and math.isnan(intensity_j)):
        raise ValueError(f"colour {i} has one intensity, got {intensity_i!r} and "
                         f"{intensity_j!r}")
    d = max(i, j)
    dNi = poisson_process(d, i, intensity_i)
    dNj = poisson_process(d, j, intensity_j)
    dt, zero = time_differential(d), ItoDifferential(d)
    labels = (f"dN{i}", f"dN{j}", "dt") if i != j else (f"dN{i}", "dt")
    basis = [dNi, dNj, dt] if i != j else [dNi, dt]
    # dN_i dN_j = delta_ij dN_j, and every product with dt vanishes
    return _table_check(labels, basis, lambda a, b: (labels[a], basis[a])
                        if a == b < len(basis) - 1 else ("0", zero), tol)


def hp_coefficients(S, L, H) -> ItoDifferential:
    """Noise-equation differential dU = sum G[a][b] dL[a, b] (times U on the
    right) from standard data (S, L, H).

    S is a unitary matrix on system (x) C^d given as a (d*dim) x (d*dim)
    array of dim x dim blocks S[i][j] (colour-major), L a list of d system
    operators and H a Hermitian system operator.  The coefficients are

        G[i][j] = S[i][j] - delta_ij I
        G[i][0] = L_i
        G[0][j] = - sum_k L_k^dag S[k][j]
        G[0][0] = -(iH + (1/2) sum_k L_k^dag L_k)

    which satisfy both unitarity conditions by construction.  H must be
    Hermitian and S unitary, each within SYMMETRY_TOL, and S, L and H finite.
    """
    H = np.asarray(H, dtype=complex)
    if not np.isfinite(H).all():
        raise ValueError("H must be finite")
    if not hermitian_check(H, SYMMETRY_TOL).passed:
        raise ValueError("H must be Hermitian")
    dim = H.shape[0]
    L = [np.asarray(Lk, dtype=complex) for Lk in L]
    d = len(L)
    for Lk in L:
        if Lk.shape != (dim, dim):
            raise ValueError("each coupling operator must match the system dimension")
        if not np.isfinite(Lk).all():
            raise ValueError("each coupling operator must be finite")
    S = np.asarray(S, dtype=complex)
    if d == 0:
        if S.size and S.shape != (0, 0):
            raise ValueError("S must be empty when there are no noise channels")
        Sblk = []
    else:
        if S.shape != (d * dim, d * dim):
            raise ValueError(f"S must be {d * dim} x {d * dim}, got {S.shape}")
        if not np.isfinite(S).all():
            raise ValueError("S must be finite")
        # no unitary matrix has an entry above 1 in modulus: an S with one
        # above 2 is refused before the product S S^dag, which may overflow
        if (np.abs(S).max() > 2.0
                or not np.abs(S @ S.conj().T - np.eye(d * dim)).max() <= SYMMETRY_TOL):
            raise ValueError("S must be unitary")
        Sblk = [[S[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] for b in range(d)]
                for a in range(d)]

    eye = np.eye(dim, dtype=complex)
    G = {(0, 0): -(1j * H + 0.5 * sum((Lk.conj().T @ Lk for Lk in L), np.zeros_like(eye)))}
    for j in range(1, d + 1):
        G[(0, j)] = -sum((L[k].conj().T @ Sblk[k][j - 1] for k in range(d)),
                         np.zeros_like(eye))
    for i in range(1, d + 1):
        G[(i, 0)] = L[i - 1]
        for j in range(1, d + 1):
            G[(i, j)] = Sblk[i - 1][j - 1] - (eye if i == j else 0.0)
    return ItoDifferential(d, G)


def unitarity_residual(dU: ItoDifferential) -> float:
    """Largest coefficient of d(U^dag U) = dU + dU^dag + dU^dag dU and of
    d(U U^dag) = dU + dU^dag + dU dU^dag, both zero for a unitary evolution;
    NaN if any coefficient is."""
    dU_dag = adjoint(dU)
    drift = dU + dU_dag
    squares = (drift + ito_product(dU_dag, dU), drift + ito_product(dU, dU_dag))
    return float(np.max([_gap(dV, ItoDifferential(dU.d)) for dV in squares]))


def unitarity_check(dU: ItoDifferential, tol: float = TOLERANCES.unitarity) -> Check:
    """Whether dU generates a unitary adapted evolution: unitarity_residual against tol."""
    return Check("unitarity", unitarity_residual(dU), tol)


def flow_generator(dU: ItoDifferential, X) -> dict:
    """Structure maps of the Heisenberg flow on a system operator X.

    Returns the map (a, b) -> theta[a][b](X), the coefficient of dL[a, b] in
    d(U^dag X U) = dU^dag X U + U^dag X dU + dU^dag X dU at U = I, for a noise
    equation dU such as hp_coefficients returns; every (a, b) is present, zero
    ones as zero matrices.  So

        theta[a][b](X) = X G[a][b] + G[b][a]^dag X + sum_k G[k][a]^dag X G[k][b],

    and the (0, 0) entry is the familiar completely positive generator
    i[H, X] - (1/2) sum_k (L_k^dag L_k X + X L_k^dag L_k - 2 L_k^dag X L_k).
    """
    X = np.asarray(X, dtype=complex)
    shapes = {c.shape for c in dU.terms.values() if isinstance(c, np.ndarray)}
    if X.ndim != 2 or X.shape[0] != X.shape[1] or shapes - {X.shape}:
        raise ValueError(f"X must be square, of the order of dU's coefficients, got {X.shape}")
    dim = X.shape[0]
    # U^dag X has value X and differential dU^dag X; U starts at the identity
    theta = product_differential(X, adjoint(dU) * X, 1.0, dU)
    return {(a, b): theta.terms.get((a, b), np.zeros((dim, dim), dtype=complex))
            for a in range(dU.d + 1) for b in range(dU.d + 1)}
