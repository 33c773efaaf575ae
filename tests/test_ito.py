import itertools

import numpy as np
import pytest

from quasifree import fock, ito
from quasifree.ito import (
    ItoDifferential,
    adjoint,
    annihilation,
    creation,
    differential,
    flow_generator,
    format_differential,
    hp_coefficients,
    ito_product,
    poisson_process,
    poisson_table,
    product_differential,
    quadrature,
    quadrature_table,
    scattering,
    time_differential,
    unitarity_check,
    unitarity_residual,
)
from quasifree.semigroup import generator_action, QuasifreePair
from quasifree.synthesis import pair_from_coupling

from util import ito_equal, rng, random_unitary


def zero(d):
    return ItoDifferential(d, {})


def fundamentals(d):
    return [differential(d, a, b) for a in range(d + 1) for b in range(d + 1)]


# --- contraction rule -------------------------------------------------------

def test_annihilation_then_creation_gives_time():
    prod = ito_product(annihilation(1, 1), creation(1, 1))
    assert ito_equal(prod, time_differential(1))


def test_creation_then_annihilation_vanishes():
    prod = ito_product(creation(1, 1), annihilation(1, 1))
    assert ito_equal(prod, zero(1))


def test_time_annihilates_everything():
    dt = time_differential(2)
    for f in fundamentals(2):
        assert ito_equal(ito_product(dt, f), zero(2))
        assert ito_equal(ito_product(f, dt), zero(2))


def test_colour_mismatch_vanishes():
    prod = ito_product(annihilation(2, 1), creation(2, 2))
    assert ito_equal(prod, zero(2))


def test_scattering_composes_like_kernels():
    # |e2><e1| . |e1><e2| = |e2><e2|: the left factor's output colour survives
    prod = ito_product(scattering(2, 1, 2), scattering(2, 2, 1))
    assert ito_equal(prod, scattering(2, 2, 2))
    # mismatched inner colours contract to zero
    assert ito_equal(ito_product(scattering(2, 1, 1), scattering(2, 2, 2)), zero(2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_associative_on_fundamentals(d):
    funds = fundamentals(d)
    for X, Y, Z in itertools.product(funds, repeat=3):
        left = ito_product(ito_product(X, Y), Z)
        right = ito_product(X, ito_product(Y, Z))
        assert ito_equal(left, right)


def test_product_bilinear():
    gen = rng(71)
    d = 2
    funds = fundamentals(d)
    for _ in range(20):
        X = sum((complex(gen.normal(), gen.normal()) * f for f in funds), zero(d))
        Y = sum((complex(gen.normal(), gen.normal()) * f for f in funds), zero(d))
        Z = sum((complex(gen.normal(), gen.normal()) * f for f in funds), zero(d))
        c = complex(gen.normal(), gen.normal())
        assert ito_equal(ito_product(X + Y, Z), ito_product(X, Z) + ito_product(Y, Z), 1e-10)
        assert ito_equal(ito_product(X, Y + Z), ito_product(X, Y) + ito_product(X, Z), 1e-10)
        assert ito_equal(ito_product(c * X, Y), c * ito_product(X, Y), 1e-10)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ito_product(annihilation(1, 1), annihilation(2, 1))


def test_adjoint_swaps_ladder_differentials():
    assert ito_equal(adjoint(annihilation(2, 1)), creation(2, 1))
    X = 2.0 * annihilation(2, 1) + (1 + 1j) * time_differential(2)
    assert ito_equal(adjoint(adjoint(X)), X)


def test_product_rule_associativity_with_values():
    # d((XY)Z) and d(X(YZ)) agree for adapted initial values and matrix coefficients
    gen = rng(72)
    d, dim = 2, 2
    def random_diff():
        terms = {}
        for a in range(d + 1):
            for b in range(d + 1):
                terms[(a, b)] = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        return ItoDifferential(d, terms)
    for _ in range(5):
        X0, Y0, Z0 = (gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
                      for _ in range(3))
        dX, dY, dZ = random_diff(), random_diff(), random_diff()
        dXY = product_differential(X0, dX, Y0, dY)
        lhs = product_differential(X0 @ Y0, dXY, Z0, dZ)
        dYZ = product_differential(Y0, dY, Z0, dZ)
        rhs = product_differential(X0, dX, Y0 @ Z0, dYZ)
        assert ito_equal(lhs, rhs, 1e-10)


def test_a_scalar_beside_a_matrix_means_scalar_times_identity():
    eye = np.eye(2)
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    total = differential(1, 0, 0, eye) + differential(1, 0, 0, 1.0)
    assert np.array_equal(total.coefficient(0, 0), 2.0 * eye)
    # sums, products and equality read the scalar the same way
    prod = ito_product(differential(1, 0, 1, M), differential(1, 1, 0, 3.0))
    assert np.array_equal(prod.coefficient(0, 0), 3.0 * M)
    assert ito_equal(differential(1, 0, 0, eye), differential(1, 0, 0, 1.0))
    assert not ito_equal(differential(1, 0, 0, np.ones((2, 2))), differential(1, 0, 0, 1.0))


def test_an_array_multiplies_a_differential_from_either_side():
    gen = rng(81)
    X, G = gen.normal(size=(2, 2)), gen.normal(size=(2, 2))
    dU = differential(1, 0, 1, G) + differential(1, 1, 0, 2.0)
    left, right = X * dU, dU * X
    assert isinstance(left, ItoDifferential) and isinstance(right, ItoDifferential)
    assert np.array_equal(left.coefficient(0, 1), X @ G)
    assert np.array_equal(left.coefficient(1, 0), 2.0 * X)
    assert np.array_equal(right.coefficient(0, 1), G @ X)


# --- classical corollaries --------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadrature_table(d):
    check = quadrature_table(d)
    assert check.check.passed
    # diagonal entries are dt, everything else vanishes
    dt = time_differential(d)
    for i in range(d):
        assert ito_equal(check.entries[i][i], dt)
    for i in range(d + 1):
        for j in range(d + 1):
            if i != j or i == d:
                assert ito_equal(check.entries[i][j], zero(d))


def test_quadrature_table_text_layout():
    text = quadrature_table(2).text
    lines = text.splitlines()
    assert "dB1" in lines[0] and "dt" in lines[0]
    assert lines[2].strip().startswith("dB1")
    assert text.count("dt") >= 3  # header, column label, two diagonal entries


def test_poisson_table_refuses_two_intensities_for_one_colour():
    with pytest.raises(ValueError, match=r"^colour 1 has one intensity, got 1\.0 and 7\.0$"):
        poisson_table(1, 1, 1.0, 7.0)
    with pytest.raises(ValueError, match="^colour 2 has one intensity, got nan and 0.5$"):
        poisson_table(2, 2, float("nan"), 0.5)
    assert poisson_table(1, 2, 1.0, 7.0).check.passed       # two colours, two intensities


def test_poisson_table_same_colour():
    check = poisson_table(1, 1, 0.7, 0.7)
    assert check.check.passed
    dN = poisson_process(1, 1, 0.7)
    assert ito_equal(check.entries[0][0], dN)
    assert ito_equal(check.entries[0][1], zero(1))
    assert ito_equal(check.entries[1][1], zero(1))
    assert "dN1" in check.text


def test_poisson_table_different_colours():
    check = poisson_table(1, 2, 0.5, 1.5)
    assert check.check.passed
    assert ito_equal(check.entries[0][1], zero(2))
    assert ito_equal(check.entries[1][0], zero(2))
    assert ito_equal(check.entries[0][0], poisson_process(2, 1, 0.5))
    assert ito_equal(check.entries[1][1], poisson_process(2, 2, 1.5))


#: the exact text of three tables, kept byte for byte by the one comparison
#: per entry
TABLE_TEXTS = {
    (quadrature_table, (3,)): ("     dB1  dB2  dB3  dt\n"
                               "----------------------\n"
                               "dB1   dt    0    0   0\n"
                               "dB2    0   dt    0   0\n"
                               "dB3    0    0   dt   0\n"
                               " dt    0    0    0   0"),
    (poisson_table, (1, 2, 0.5, 1.5)): ("     dN1  dN2  dt\n"
                                        "-----------------\n"
                                        "dN1  dN1    0   0\n"
                                        "dN2    0  dN2   0\n"
                                        " dt    0    0   0"),
    (poisson_table, (1, 1, 0.5, 0.5)): ("     dN1  dt\n"
                                        "------------\n"
                                        "dN1  dN1   0\n"
                                        " dt    0   0"),
}


@pytest.mark.parametrize("table, args", list(TABLE_TEXTS),
                         ids=["quadrature-3", "poisson-1-2", "poisson-1-1"])
def test_a_table_compares_each_entry_once_and_names_it_by_that_comparison(monkeypatch,
                                                                         table, args):
    calls = []
    gap = ito._gap
    monkeypatch.setattr(ito, "_gap", lambda X, Y: calls.append(1) or gap(X, Y))
    result = table(*args)
    assert len(calls) == len(result.labels) ** 2
    assert result.check.passed
    assert result.text == TABLE_TEXTS[table, args]


def test_a_table_beyond_its_tolerance_fails_and_writes_its_entries_as_formulas():
    # the diagonal products miss dN_i by a rounding gap of 1.1e-16
    result = poisson_table(1, 2, 0.3, 0.7, tol=1e-300)
    assert result.check.passed is False
    assert result.check.value == pytest.approx(1.1102230246251565e-16)
    rows = result.text.splitlines()[2:]
    assert rows[0].split()[:2] == ["dN1", "0.3"] and rows[0].split()[-2:] == ["0", "0"]
    assert "0.3 dt + 0.547723 dL[0,1] + 0.547723 dL[1,0] + dL[1,1]" in rows[0]
    assert rows[1].split()[:2] == ["dN2", "0"] and rows[1].split()[-1] == "0"
    assert "0.7 dt + 0.83666 dL[0,2] + 0.83666 dL[2,0] + dL[2,2]" in rows[1]


@pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)])
def test_a_nan_coefficient_is_unequal_wherever_it_sits(where):
    # the gap is a NaN-propagating max: Python's max keeps a NaN only when it
    # comes first, and the order of the coefficients is that of a set
    X = ItoDifferential(1, {(0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5, where: float("nan")})
    assert not ito_equal(X, zero(1), tol=1.0)
    assert not ito_equal(zero(1), X, tol=1.0)


def test_poisson_process_requires_positive_intensity():
    with pytest.raises(ValueError):
        poisson_process(1, 1, 0.0)


def test_format_differential():
    X = time_differential(1) + 0.5 * annihilation(1, 1)
    s = format_differential(X)
    assert "dt" in s and "0.5" in s
    assert format_differential(zero(1)) == "0"


# --- unitary noise equations ------------------------------------------------

def test_hp_coefficients_schroedinger_case():
    H = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    dU = hp_coefficients(np.zeros((0, 0)), [], H)
    assert dU.d == 0
    assert np.abs(dU.coefficient(0, 0) + 1j * H).max() < 1e-15
    assert unitarity_check(dU, tol=1e-12).passed


def test_hp_coefficients_identity_scattering():
    gen = rng(73)
    dim = 3
    H = gen.normal(size=(dim, dim))
    H = (H + H.T) / 2.0
    L = [np.zeros((dim, dim), dtype=complex)]
    dU = hp_coefficients(np.eye(dim, dtype=complex), L, H)
    assert np.abs(dU.coefficient(0, 0) + 1j * H).max() < 1e-14
    assert np.abs(dU.coefficient(1, 1)).max() < 1e-14
    assert np.abs(dU.coefficient(1, 0)).max() == 0.0
    assert unitarity_check(dU).passed


@pytest.mark.parametrize("d,dim", [(1, 2), (2, 2), (3, 3)])
def test_hp_coefficients_satisfy_unitarity(d, dim):
    gen = rng(100 + d * 10 + dim)
    for _ in range(10):
        S = random_unitary(gen, d * dim)
        L = [gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
             for _ in range(d)]
        H = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        H = (H + H.conj().T) / 2.0
        coeffs = hp_coefficients(S, L, H)
        assert unitarity_residual(coeffs) < 1e-12


def loop_residual(G, d):
    """The isometry conditions summed block by block over a full grid G."""
    worst = 0.0
    for a in range(d + 1):
        for b in range(d + 1):
            first = second = G[a, b] + G[b, a].conj().T
            for i in range(1, d + 1):
                first = first + G[i, a].conj().T @ G[i, b]
                second = second + G[a, i] @ G[b, i].conj().T
            worst = max(worst, np.abs(first).max(), np.abs(second).max())
    return worst


def loop_flow(G, d, X):
    """theta[a][b](X) = X G[a][b] + G[b][a]^dag X + sum_k G[k][a]^dag X G[k][b]."""
    theta = {}
    for a in range(d + 1):
        for b in range(d + 1):
            acc = X @ G[a, b] + G[b, a].conj().T @ X
            for k in range(1, d + 1):
                acc = acc + G[k, a].conj().T @ X @ G[k, b]
            theta[(a, b)] = acc
    return theta


def full_grid(dU, dim):
    return {(a, b): dU.terms.get((a, b), np.zeros((dim, dim), dtype=complex))
            for a in range(dU.d + 1) for b in range(dU.d + 1)}


def agree(x, y, exact):
    """Bitwise at d <= 1, where the sums have one term; else to rounding."""
    if exact:
        return np.array_equal(x, y)
    return np.abs(x - y).max() <= 1e-14 * (1.0 + np.abs(y).max())


@pytest.mark.parametrize("d,dim", [(0, 3), (1, 4), (2, 6), (3, 2)])
def test_residual_and_flow_match_the_block_loops(d, dim):
    gen = rng(200 + 10 * d + dim)
    def cmat():
        return gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    S = random_unitary(gen, d * dim) if d else np.zeros((0, 0))
    L = [cmat() for _ in range(d)]
    H = cmat()
    H = (H + H.conj().T) / 2.0
    X = cmat()
    dU = hp_coefficients(S, L, H)
    G = full_grid(dU, dim)
    assert agree(unitarity_residual(dU), loop_residual(G, d), d <= 1)
    theta = flow_generator(dU, X)
    reference = loop_flow(G, d, X)
    assert list(theta) == list(reference)
    for key, mat in reference.items():
        assert agree(theta[key], mat, d <= 1)
    # a grid that is far from unitary
    rough = ItoDifferential(d, {key: cmat() for key in G})
    assert agree(unitarity_residual(rough), loop_residual(full_grid(rough, dim), d), d <= 1)


def test_unitarity_check_rejects_identity_drift():
    eye = np.eye(2, dtype=complex)
    bad = differential(0, 0, 0, eye)
    assert not unitarity_check(bad).passed


def test_hp_coefficients_rejects_non_unitary_scattering():
    with pytest.raises(ValueError):
        hp_coefficients(2.0 * np.eye(2, dtype=complex), [np.zeros((2, 2))], np.zeros((2, 2)))


@pytest.mark.parametrize("S, L, refusal", [
    (np.full((2, 2), np.nan), [np.eye(2)], "S must be finite"),
    (np.diag([np.inf, 1.0]), [np.eye(2)], "S must be finite"),
    (np.eye(2), [np.full((2, 2), np.nan)], "each coupling operator must be finite"),
    (np.eye(4), [np.eye(2), np.diag([1.0, -np.inf])], "each coupling operator must be finite"),
], ids=["nan-S", "inf-S", "nan-L", "inf-second-L"])
def test_hp_coefficients_refuses_non_finite_scattering_and_couplings_by_name(S, L, refusal):
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        hp_coefficients(S, L, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_hp_coefficients_refuses_a_non_finite_energy_by_name(bad):
    with pytest.raises(ValueError, match="^H must be finite$"):
        hp_coefficients(np.eye(2), [np.eye(2)], np.diag([bad, 0.0]))


def test_hp_coefficients_refuses_a_huge_scattering_as_not_unitary_before_its_product():
    # S S^dag would overflow; no unitary matrix has an entry above 1 in modulus
    with pytest.raises(ValueError, match="^S must be unitary$"):
        hp_coefficients(1e200 * np.eye(2), [np.eye(2)], np.zeros((2, 2)))


def test_hp_coefficients_rejects_non_hermitian_energy():
    with pytest.raises(ValueError):
        hp_coefficients(np.zeros((0, 0)), [], np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- flow generator ---------------------------------------------------------

def test_flow_generator_preserves_identity():
    gen = rng(74)
    d, dim = 2, 3
    for _ in range(10):
        S = random_unitary(gen, d * dim)
        L = [gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
             for _ in range(d)]
        H = gen.normal(size=(dim, dim))
        H = (H + H.T) / 2.0
        theta = flow_generator(hp_coefficients(S, L, H), np.eye(dim, dtype=complex))
        for mat in theta.values():
            assert np.abs(mat).max() < 1e-12


def test_flow_generator_heisenberg_case():
    gen = rng(75)
    dim = 3
    H = gen.normal(size=(dim, dim))
    H = (H + H.T) / 2.0
    X = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    theta = flow_generator(hp_coefficients(np.eye(dim, dtype=complex),
                                           [np.zeros((dim, dim), dtype=complex)], H), X)
    assert len(theta) == 4      # zero maps are present too
    assert np.abs(theta[(0, 0)] - 1j * (H @ X - X @ H)).max() < 1e-13
    for key, mat in theta.items():
        if key != (0, 0):
            assert np.abs(mat).max() < 1e-13


def test_flow_generator_lindblad_form():
    gen = rng(76)
    dim = 3
    L1 = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    H = gen.normal(size=(dim, dim))
    H = (H + H.T) / 2.0
    X = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    theta = flow_generator(hp_coefficients(np.eye(dim, dtype=complex), [L1], H), X)
    Ld = L1.conj().T
    expected = 1j * (H @ X - X @ H) - 0.5 * (Ld @ L1 @ X + X @ Ld @ L1 - 2 * Ld @ X @ L1)
    assert np.abs(theta[(0, 0)] - expected).max() < 1e-12


def test_flow_generator_respects_adjoints():
    gen = rng(77)
    dim = 2
    S = random_unitary(gen, dim)
    L = [gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))]
    H = gen.normal(size=(dim, dim))
    H = (H + H.T) / 2.0
    X = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    dU = hp_coefficients(S, L, H)
    t1 = flow_generator(dU, X.conj().T)[(0, 0)]
    t2 = flow_generator(dU, X)[(0, 0)].conj().T
    assert np.abs(t1 - t2).max() < 1e-12


def test_flow_generator_branch_structure():
    # printed branch formulas for a generic unitary block matrix
    gen = rng(78)
    d, dim = 2, 2
    S = random_unitary(gen, d * dim)
    Sb = [[S[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] for b in range(d)]
          for a in range(d)]
    L = [gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
         for _ in range(d)]
    H = gen.normal(size=(dim, dim))
    H = (H + H.T) / 2.0
    X = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    theta = flow_generator(hp_coefficients(S, L, H), X)
    for i in range(1, d + 1):
        expected = sum(Sb[k][i - 1].conj().T @ (X @ L[k] - L[k] @ X) for k in range(d))
        assert np.abs(theta[(i, 0)] - expected).max() < 1e-12
    for j in range(1, d + 1):
        expected = sum((L[k].conj().T @ X - X @ L[k].conj().T) @ Sb[k][j - 1]
                       for k in range(d))
        assert np.abs(theta[(0, j)] - expected).max() < 1e-12
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            expected = sum(Sb[k][i - 1].conj().T @ X @ Sb[k][j - 1] for k in range(d))
            if i == j:
                expected = expected - X
            assert np.abs(theta[(i, j)] - expected).max() < 1e-12


def test_flow_generator_matches_quasifree_generator():
    # cross-module check: the (0,0) structure map on a Weyl operator agrees
    # with the phase-space generator of the matching pair
    gen = rng(79)
    rep = fock.build(1, 20)
    left = fock.coherent_vector(rep, [0.3 - 0.2j])
    right = fock.coherent_vector(rep, [0.1 + 0.4j])
    from util import random_complex, smeared_ladder
    for _ in range(3):
        u = random_complex(gen, 1, 0.6)
        v = random_complex(gen, 1, 0.5)
        z = random_complex(gen, 1, 0.8)
        L1 = smeared_ladder(rep, u, v)
        W = fock.weyl_matrix(rep, z)
        dU = hp_coefficients(np.eye(rep.dim, dtype=complex), [L1],
                             np.zeros((rep.dim, rep.dim)))
        theta = flow_generator(dU, W)[(0, 0)]
        K, C = pair_from_coupling(u, v)
        coeff = generator_action(QuasifreePair(n=1, K=K, C=C), z)
        gain = smeared_ladder(rep, -coeff.gain_vector, coeff.gain_vector)
        closed = (gain + coeff.scalar_part * np.eye(rep.dim)) @ W
        assert abs(np.vdot(left, (theta - closed) @ right)) < 1e-5
