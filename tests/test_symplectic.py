import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from quasifree import fock, symplectic
from quasifree.fields import FieldLaw, KernelModel, levy_law
from quasifree.gaussian import GaussianState, validate
from quasifree.ito import hp_coefficients
from quasifree.semigroup import noise_matrix
from quasifree.symplectic import (
    PropagatorOverflowError,
    complex_from_pairs,
    complex_to_pairs,
    expm,
    gram_integral,
    hermitian_eigh,
    propagator,
    psd_check,
    psd_verdict,
    real_embed,
    real_extract,
    symplectic_form,
)

from util import random_admissible_pair, rng


def test_symplectic_form_n1():
    J = symplectic_form(1)
    assert np.array_equal(J, [[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_form_squares_to_minus_identity(n):
    J = symplectic_form(n)
    assert np.abs(J @ J + np.eye(2 * n)).max() == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symplectic_form_antisymmetric(n):
    J = symplectic_form(n)
    assert np.abs(J + J.T).max() == 0.0


def test_symplectic_form_rejects_zero_modes():
    with pytest.raises(ValueError):
        symplectic_form(0)


def test_real_embed_example():
    assert np.allclose(real_embed([1 + 2j]), [1.0, 2.0])


def test_real_embed_round_trip():
    gen = rng(11)
    for _ in range(20):
        z = gen.normal(size=4) + 1j * gen.normal(size=4)
        assert np.allclose(real_extract(real_embed(z)), z, atol=0, rtol=0)


def test_real_embed_multiplication_by_i_is_J():
    gen = rng(12)
    for n in (1, 2, 3):
        J = symplectic_form(n)
        for _ in range(10):
            z = gen.normal(size=n) + 1j * gen.normal(size=n)
            assert np.allclose(real_embed(1j * z), J @ real_embed(z), atol=1e-15)


def test_real_extract_rejects_odd_length():
    with pytest.raises(ValueError):
        real_extract([1.0, 2.0, 3.0])


def test_psd_check_boundary_case():
    J = symplectic_form(1)
    ok, mineig = psd_check(np.eye(2) + 1j * J)
    assert ok
    assert abs(mineig) < 1e-12


def test_psd_check_negative_case():
    J = symplectic_form(1)
    ok, mineig = psd_check(np.eye(2) - 2j * J)
    assert not ok
    assert abs(mineig - (-1.0)) < 1e-12


def test_psd_check_zero_matrix():
    ok, mineig = psd_check(np.zeros((3, 3)))
    assert ok and mineig == 0.0


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigh_sorted_descending():
    gen = rng(13)
    A = gen.normal(size=(5, 5))
    w, V = hermitian_eigh(A + A.T)
    assert np.all(np.diff(w) <= 0)
    assert np.abs((A + A.T) @ V - V @ np.diag(w)).max() < 1e-12


def test_expm_zero_is_identity():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=0)


def test_expm_rotation_closed_form():
    theta = 0.83
    J = symplectic_form(1)
    expected = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    assert np.abs(expm(theta * J) - expected).max() < 1e-14


def test_expm_diagonal():
    t = 1.7
    assert np.allclose(expm(-t / 2 * np.eye(2)), np.exp(-t / 2) * np.eye(2), rtol=1e-13)


def test_expm_commuting_factorization():
    gen = rng(14)
    for _ in range(10):
        M = gen.normal(size=(4, 4))
        A = 0.3 * M + 0.1 * M @ M
        B = -0.2 * M + 0.05 * M @ M @ M   # polynomial in M, so [A, B] = 0
        lhs = expm(A + B)
        rhs = expm(A) @ expm(B)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(lhs).max())


def test_gram_integral_zero_drift():
    C = np.array([[2.0, 0.5], [0.5, 1.0]])
    t = 1.3
    assert np.abs(gram_integral(np.zeros((2, 2)), C, t) - t * C).max() < 1e-12


def test_gram_integral_attenuation_closed_form():
    K = -0.5 * np.eye(2)
    C = np.eye(2)
    for t in (0.1, 1.0, 3.0):
        expected = (1 - np.exp(-t)) * np.eye(2)
        assert np.abs(gram_integral(K, C, t) - expected).max() < 1e-12


def test_gram_integral_composition_law():
    gen = rng(15)
    for _ in range(10):
        K = gen.normal(size=(4, 4)) * 0.6
        G = gen.normal(size=(4, 4))
        C = G @ G.T
        s, t = gen.uniform(0.1, 1.5, size=2)
        B_s = gram_integral(K, C, s)
        B_t = gram_integral(K, C, t)
        B_st = gram_integral(K, C, s + t)
        A_s = expm(s * K)
        assert np.abs(B_st - (B_s + A_s.T @ B_t @ A_s)).max() < 1e-10
        # the drift part composes as well
        assert np.abs(expm((s + t) * K) - expm(t * K) @ A_s).max() < 1e-10


def test_gram_integral_symmetric_and_psd():
    gen = rng(16)
    for _ in range(10):
        K = gen.normal(size=(4, 4))
        G = gen.normal(size=(4, 4))
        C = G @ G.T
        B = gram_integral(K, C, 0.7)
        assert np.abs(B - B.T).max() < 1e-12 * (1 + np.abs(B).max())
        ok, _ = psd_check(B + 0j)
        assert ok


def test_gram_integral_rejects_asymmetric_noise():
    with pytest.raises(ValueError):
        gram_integral(np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_gram_integral_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        gram_integral(np.zeros((2, 2)), np.zeros((4, 4)), 1.0)


def _full_block_propagator(K, C, t):
    """Reference: scipy's expm of the whole 4n x 4n block h [[-K^T, C], [0, K]]
    at ||h block||_1 <= 1, squared up as propagator squares."""
    m = K.shape[0]
    block = np.block([[-K.T, C], [np.zeros_like(K), K]])
    norm = t * np.abs(block).sum(axis=0).max()
    k = int(np.ceil(np.log2(norm))) if norm > 1.0 else 0
    F = scipy.linalg.expm((t / 2.0**k) * block)
    E = F[m:, m:]
    B = E.T @ F[:m, m:]
    for _ in range(k):
        B = B + E.T @ B @ E
        E = E @ E
    return E, (B + B.T) / 2.0


def test_kernel_sizes_lie_on_both_sides_of_the_crossover():
    assert 2 * 4 < symplectic._BLOCK_KERNEL_MIN_ORDER <= 2 * 16


@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_propagator_matches_the_full_block_reference(n):
    pair = random_admissible_pair(rng(600 + n), n, couplings=max(1, n // 4))
    for t in (0.0, 1e-6, 0.1, 1.0, 5.0, 20.0):
        E, B = propagator(pair.K, pair.C, t)
        E_ref, B_ref = _full_block_propagator(pair.K, pair.C, t)
        for got, ref in ((E, E_ref), (B, B_ref)):
            assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_zero_drift_above_the_crossover_gives_exactly_the_identity():
    m = symplectic._BLOCK_KERNEL_MIN_ORDER
    G = rng(610).normal(size=(m, m))
    C = G @ G.T
    E, B = propagator(np.zeros((m, m)), C, 3.0)
    assert np.array_equal(E, np.eye(m))
    assert np.abs(B - 3.0 * C).max() <= 1e-14 * np.abs(C).max()


@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_stable_propagation_reaches_the_lyapunov_steady_state(n):
    # shifted to spectral abscissa -0.2, B_t tends to the solution of K^T B + B K = -C
    pair = random_admissible_pair(rng(620 + n), n, couplings=max(1, n // 4))
    K = pair.K - (np.linalg.eigvals(pair.K).real.max() + 0.2) * np.eye(2 * n)
    B_inf = scipy.linalg.solve_continuous_lyapunov(K.T, -pair.C)
    for t in (1e3, 1e4, 1e308):
        E, B = propagator(K, pair.C, t)
        assert np.abs(E).max() <= 1e-50
        assert np.abs(B - B_inf).max() <= 1e-12 * (1.0 + np.abs(B_inf).max())


@pytest.mark.parametrize("m", [2, 64])
@pytest.mark.parametrize("t, shown", [(1e4, "10000"), (1e308, "1e+308")])
def test_growing_dynamics_overflow_by_name_without_warnings(m, t, shown):
    # an amplifier: e^{tK} = e^{t/2} I, finite in double precision up to t ~ 1400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagatorOverflowError,
                           match=re.escape(f"t = {shown}: K has spectral abscissa 0.5")):
            propagator(0.5 * np.eye(m), np.eye(m), t)
    assert issubclass(PropagatorOverflowError, ArithmeticError)


def test_complex_pairs_round_trip():
    z = rng(31).normal(size=(3, 2, 4, 2)) @ np.array([1.0, 1j])
    assert complex_to_pairs(2 - 0.5j) == [2.0, -0.5]
    for ndim, value in [(1, z[0, 0]), (2, z[0]), (3, z)]:
        assert np.array_equal(complex_from_pairs(complex_to_pairs(value), ndim), value)


@pytest.mark.parametrize("data", [5, [1.0, 2.0], [[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0]],
                                  [["a", "b"]], [[[1.0, 2.0]]], [{"re": 1.0}]],
                         ids=["scalar", "flat", "ragged", "triple", "text", "too-deep", "object"])
def test_complex_from_pairs_refuses_what_is_not_a_vector_of_pairs(data):
    with pytest.raises(ValueError, match=r"\[\[re, im\], \.\.\.\]"):
        complex_from_pairs(data)


@pytest.mark.parametrize("pair", [[None, 0.0], [0.0, float("nan")], [float("inf"), 0.0]],
                         ids=["null", "nan", "inf"])
def test_complex_from_pairs_refuses_non_finite_values(pair):
    with pytest.raises(ValueError, match="finite"):
        complex_from_pairs([[1.0, 0.0], pair])


def test_psd_verdict_is_the_rule_of_psd_check():
    gen = rng(32)
    for shift in (-1e-7, -1e-10, 0.0, 1e-3):
        A = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        H = A @ A.conj().T
        H = H - (np.linalg.eigvalsh(H)[0] - shift) * np.eye(4)
        w = np.linalg.eigvalsh(H)
        assert psd_verdict(w[::-1]) == psd_verdict(w) == psd_check(H)
    # the bound is -tol * (1 + max|w|) = -2e-9 here
    assert psd_verdict([1.0, -2.1e-9]) == (False, -2.1e-9)
    assert psd_verdict([1.0, -1.9e-9]) == (True, -1.9e-9)
    assert psd_verdict([1.0, float("nan")])[0] is False


# every site of the shared Hermitian test: (its tolerance, a Hermitian matrix
# it accepts, a call that is true when the site accepts the matrix)
HERMITIAN_SITES = {
    "semigroup.noise_matrix": (1e-10, np.eye(2),
                               lambda A: noise_matrix(np.zeros((2, 2)), A) is not None),
    "symplectic.propagator": (1e-10, np.eye(2),
                              lambda A: propagator(np.zeros((2, 2)), A, 1.0) is not None),
    "symplectic.psd_check": (1e-9, np.eye(2), lambda A: psd_check(A)[0]),
    "gaussian.validate": (1e-10, np.eye(2),
                          lambda A: validate(GaussianState(1, [0.0], [0.0], A)).is_valid),
    "fock.validate_density": (1e-9, 0.5 * np.eye(2),
                              lambda A: fock.validate_density(A) is None),
    "ito.hp_coefficients": (1e-10, np.eye(2),
                            lambda A: hp_coefficients(np.zeros((0, 0)), [], A) is not None),
    "fields.KernelModel": (1e-12, np.eye(2), lambda A: KernelModel((0, 1), A) is not None),
    "fields.FieldLaw": (1e-10, np.eye(2), lambda A: FieldLaw(np.zeros(2), A) is not None),
    "fields.levy_law": (1e-10, np.eye(2), lambda A: levy_law(A, [1.0, 0.0]) is not None),
}


@pytest.mark.parametrize("factor, accepted", [(10.0, False), (0.1, True)], ids=["10x", "0.1x"])
@pytest.mark.parametrize("site", sorted(HERMITIAN_SITES))
def test_hermitian_sites_apply_their_bound(site, factor, accepted):
    tol, base, accepts = HERMITIAN_SITES[site]
    A = base.copy()
    A[0, 1] = factor * tol * (1.0 + np.abs(base).max())    # defect = factor x bound
    try:
        result = bool(accepts(A))
    except ValueError:
        result = False
    assert result == accepted
