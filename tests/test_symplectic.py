import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from quasifree import fock, symplectic
from quasifree.fields import (FieldLaw, KernelModel, coherent_gaussian_field, levy_law,
                              vacuum_field_variance)
from quasifree.gaussian import GaussianState, vacuum, validate, weyl_transform
from quasifree.ito import hp_coefficients
from quasifree.semigroup import QuasifreePair, generator_action, noise_matrix, weyl_action
from quasifree.synthesis import HamiltonianTerm, decompose
from quasifree.symplectic import (
    Check,
    PropagatorOverflowError,
    decisive,
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
    check = psd_check(np.eye(2) + 1j * J)
    assert check.passed
    assert abs(check.value) < 1e-12


def test_psd_check_negative_case():
    J = symplectic_form(1)
    check = psd_check(np.eye(2) - 2j * J)
    assert not check.passed
    assert abs(check.value - 1.0) < 1e-12


def test_psd_check_zero_matrix():
    check = psd_check(np.zeros((3, 3)))
    assert check.passed and check.value == 0.0


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
        assert psd_check(B + 0j).passed


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


@pytest.mark.parametrize("n", [1, 4, 16, 32, 64])
def test_propagator_matches_the_full_block_reference(n):
    pair = random_admissible_pair(rng(600 + n), n, couplings=max(1, n // 4))
    for t in (0.0, 1e-6, 0.1, 1.0, 5.0, 20.0):
        E, B = propagator(pair.K, pair.C, t)
        E_ref, B_ref = _full_block_propagator(pair.K, pair.C, t)
        for got, ref in ((E, E_ref), (B, B_ref)):
            assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("n", [1, 4, 32])
def test_prepared_powers_are_the_even_powers_of_the_scaled_block(n):
    pair = random_admissible_pair(rng(640 + n), n, couplings=max(1, n // 4))
    prepared = symplectic.Propagator(pair.K, pair.C)
    prepared.at(1.0)                        # the first miss prepares
    m = 2 * n
    M = (symplectic._THETA_25 / prepared.norm) * np.block(
        [[-pair.K.T, pair.C], [np.zeros((m, m)), pair.K]])
    powers = prepared._powers.reshape(13, 2, m, m)
    for j in range(13):
        ref = np.linalg.matrix_power(M, 2 * j)
        for got, want in zip(powers[j], (ref[m:, m:], ref[:m, m:])):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 12, 32])
def test_propagation_never_calls_numpy_inv(monkeypatch, n):
    pair = random_admissible_pair(rng(613), n, couplings=3)
    expected = propagator(pair.K, pair.C, 2.0)

    def refuse(a):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    for got, ref in zip(propagator(pair.K, pair.C, 2.0), expected):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("m", [2, 24])
def test_zero_drift_gives_exactly_the_identity(m):
    G = rng(610).normal(size=(m, m))
    C = G @ G.T
    E, B = propagator(np.zeros((m, m)), C, 3.0)
    assert np.array_equal(E, np.eye(m))
    assert np.abs(B - 3.0 * C).max() <= 1e-14 * np.abs(C).max()


# closed forms, with no full-block reference: its e^{-tK^T} block overflows for
# dissipative K at long times


def _assert_close(got, ref, rel):
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize("gamma", [0.5, 2.0])
@pytest.mark.parametrize("sign, times", [(-1.0, (0.1, 1.0, 30.0, 1e3, 1e4)),
                                         (1.0, (0.1, 1.0, 30.0, 300.0))], ids=["loss", "gain"])
def test_pure_loss_and_gain_match_their_closed_form(sign, times, gamma):
    # K = +-(gamma/2) I, C = gamma I: E = e^{+-gamma t/2} I, B = +-(e^{+-gamma t} - 1) I;
    # e^{+-gamma t/2} has relative condition number gamma t/2, which bounds E
    m = 4
    for t in times:
        E, B = propagator(sign * 0.5 * gamma * np.eye(m), gamma * np.eye(m), t)
        _assert_close(E, np.exp(sign * 0.5 * gamma * t) * np.eye(m),
                      1e-13 * max(1.0, 0.5 * gamma * t))
        _assert_close(B, sign * np.expm1(sign * gamma * t) * np.eye(m), 1e-13)


def _decay_moment(k, c, t):
    """integral_0^t s^k e^{-cs} ds = (k! / c^{k+1}) e^{-ct} sum_{i>k} (ct)^i / i!,
    summed term by term: every term is positive, so nothing cancels."""
    x = c * t
    term, total, i = x ** (k + 1) / math.factorial(k + 1), 0.0, k + 1
    while total + term != total:
        total += term
        i += 1
        term *= x / i
    return math.factorial(k) / c ** (k + 1) * math.exp(-x) * total


@pytest.mark.parametrize("b", [30.0, 1e4])
@pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 30.0])
def test_non_normal_jordan_pair_matches_its_closed_form(t, b):
    # K = [[-a, b], [0, -a]], C = 2aI is admissible; ||M||_1 ~ b overstates the
    # growth of the powers of M, which the squarings must not pay for in digits
    a = 1.0
    K = np.array([[-a, b], [0.0, -a]])
    E, B = propagator(K, 2.0 * a * np.eye(2), t)
    # e^{sK} = e^{-as} [[1, bs], [0, 1]]
    _assert_close(E, math.exp(-a * t) * np.array([[1.0, b * t], [0.0, 1.0]]), 1e-13)
    i0, i1, i2 = (_decay_moment(k, 2.0 * a, t) for k in range(3))
    _assert_close(B, 2.0 * a * np.array([[i0, b * i1], [b * i1, i0 + b * b * i2]]), 1e-13)


@pytest.mark.parametrize("m", [2, 24])
@pytest.mark.parametrize("t", [3.0, 1e300])
def test_pure_noise_gives_the_identity_and_linear_noise_without_warnings(t, m):
    # K = 0: M^2 = 0, so eta is ||M||_1 / _MAX_RATIO alone, and r^i times a zero
    # power must not turn into inf * 0
    G = rng(614).normal(size=(m, m))
    C = G @ G.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E, B = propagator(np.zeros((m, m)), C, t)
    assert np.array_equal(E, np.eye(m))
    _assert_close(B, t * C, 1e-14)


@pytest.mark.parametrize("m", [2, 24])
def test_time_zero_gives_exactly_the_identity_and_no_noise(m):
    pair = random_admissible_pair(rng(611), m // 2, couplings=3)
    E, B = propagator(pair.K, pair.C, 0.0)
    assert np.array_equal(E, np.eye(m))
    assert np.array_equal(B, np.zeros((m, m)))


@pytest.mark.parametrize("m", [2, 24])
@pytest.mark.parametrize("t", [5e-324, 1e-300])
def test_vanishing_times_match_the_full_block_reference(t, m):
    pair = random_admissible_pair(rng(612), m // 2, couplings=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E, B = propagator(pair.K, pair.C, t)
        E_ref, B_ref = _full_block_propagator(pair.K, pair.C, t)
    for got, ref in ((E, E_ref), (B, B_ref)):
        assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("m", [2, 24])
@pytest.mark.parametrize("t", [3.0, 1e308])
def test_zero_pair_stays_the_identity(t, m):
    # ||M||_1 = 0: no reference step exists, and none is needed
    E, B = propagator(np.zeros((m, m)), np.zeros((m, m)), t)
    assert np.array_equal(E, np.eye(m))
    assert np.array_equal(B, np.zeros((m, m)))


def test_subnormal_pair_propagates_without_warnings():
    # ||M||_1 = 2e-310: the reference step _THETA_25 / ||M||_1 overflows
    K = -1e-310 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E, B = propagator(K, -2.0 * K, 1.0)
    assert np.array_equal(E, np.eye(2))
    _assert_close(B, -2.0 * K, 1e-10)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(n=st.sampled_from([1, 4, 12, 16, 32]), seed=st.integers(0, 2**16),
       s=st.floats(0.0, 3.0), t=st.floats(0.0, 3.0))
def test_propagator_obeys_the_semigroup_law(n, seed, s, t):
    # E_{s+t} = E_s E_t and B_{s+t} = B_t + E_t^T B_s E_t
    pair = random_admissible_pair(rng(seed), n, couplings=max(1, n // 4))
    E_s, B_s = propagator(pair.K, pair.C, s)
    E_t, B_t = propagator(pair.K, pair.C, t)
    E_st, B_st = propagator(pair.K, pair.C, s + t)
    for got, ref in ((E_s @ E_t, E_st), (B_t + E_t.T @ B_s @ E_t, B_st)):
        assert np.abs(got - ref).max() <= 1e-10 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("m, bad", [(2, np.inf), (24, np.nan)], ids=["inf-2", "nan-24"])
@pytest.mark.parametrize("which", ["K", "C"])
def test_propagator_refuses_non_finite_matrices_by_name(m, bad, which):
    arrays = {"K": -0.5 * np.eye(m), "C": np.eye(m)}
    arrays[which][0, 0] = bad
    with pytest.raises(ValueError, match="K and C must be finite"):
        propagator(arrays["K"], arrays["C"], 1.0)


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


def test_an_overflowing_block_norm_refuses_every_time_without_warnings():
    # ||M||_1 = 2e308 is not a double: the first time is refused, no numpy warning
    K, C = np.full((2, 2), 1e308), np.zeros((2, 2))
    refusal = re.escape("t = 1: K has spectral abscissa inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagatorOverflowError, match=refusal):
            propagator(K, C, 1.0)
        E, B, error = symplectic.Propagator(K, C).grid([1.0, 0.5])
    assert E.shape == B.shape == (0, 2, 2)
    assert isinstance(error, PropagatorOverflowError) and re.search(refusal, str(error))


def test_a_finite_result_whose_entries_sum_past_the_float_range_is_kept_without_warnings():
    # e^{tK} = e^t I = 1.5e308 I is finite, though its entries sum to inf
    t = math.log(1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E, B = propagator(np.eye(2), np.zeros((2, 2)), t)
    with np.errstate(over="ignore"):
        assert np.isinf(E.sum())
    assert abs(E[0, 0] / 1.5e308 - 1.0) < 1e-12 and E[0, 1] == E[1, 0] == 0.0
    assert np.array_equal(B, np.zeros((2, 2)))


_FLIP = np.array([[0.0, -1.0], [-1.0, 0.0]])    # e^{tK} = [[cosh t, -sinh t], [-sinh t, cosh t]]


@pytest.mark.parametrize("K, t", [(np.eye(2), 710.0),   # e^710 I: inf entries
                                  (_FLIP, 800.0),       # +inf and -inf entries, a nan sum
                                  (_FLIP, 1500.0)],     # and B_t = nan from inf - inf
                         ids=["inf", "plus-and-minus-inf", "nan"])
def test_a_result_with_a_non_finite_entry_is_refused_as_before(K, t):
    refusal = f"^propagation overflows at t = {t:g}: K has spectral abscissa 1$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagatorOverflowError, match=refusal):
            propagator(K, np.zeros((2, 2)), t)
        E, B, error = symplectic.Propagator(K, np.zeros((2, 2))).grid([0.5, t])
    assert len(E) == len(B) == 1 and re.search(refusal, str(error))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _loss_pair(n=2, rate=1.5):
    return -0.5 * rate * np.eye(2 * n), rate * np.eye(2 * n)


_CHANNEL_TIMES = list(np.geomspace(0.1, 5.0, 8))
_GRIDS = {
    "zero-repeated-unsorted": (2, [0.0, 0.7, 3.0, 0.7, 0.0, 0.2, 40.0, 0.05]),
    "channel-n1": (1, _CHANNEL_TIMES),
    "channel-n2": (2, _CHANNEL_TIMES),
    "channel-n8": (8, _CHANNEL_TIMES),
    "channel-n32": (32, _CHANNEL_TIMES),
    "long-loss": (None, [2e3, 1e4]),
}


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_a_grid_is_bitwise_at_at_each_time(grid):
    n, times = _GRIDS[grid]
    if n is None:
        K, C = _loss_pair()
    else:
        pair = random_admissible_pair(rng(640 + n), n, couplings=max(1, n // 4))
        K, C = pair.K, pair.C
    prepared = symplectic.Propagator(K, C)
    E, B, error = prepared.grid(times)
    assert error is None and len(E) == len(B) == len(times)
    for t, E_t, B_t in zip(times, E, B):
        E_ref, B_ref = prepared.at(t)
        assert _same_bits(E_t, E_ref) and _same_bits(B_t, B_ref)
    if n is None:   # the long times take 10 and 12 squarings
        shift = math.log2(prepared.eta / symplectic._THETA_25)
        assert [math.ceil(math.log2(t) + shift) for t in times] == [10, 12]


def _grid(K, C, times):
    """The (E, B) of one grid of times by a new Propagator, its refusal raised."""
    E, B, error = symplectic.Propagator(K, C).grid(times)
    if error is not None:
        raise error
    return E, B


def _failure(call):
    """(class, message) of the exception call raises, or None."""
    try:
        call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return None


# the amplifier e^{tK} = e^{t/2} I overflows from t ~ 1420 on
_FAILING_GRIDS = {
    "overflow": [0.5, 1500.0, 2.0],
    "negative": [0.5, -1.0, 2.0],
    "nan": [0.5, float("nan")],
    "inf": [float("inf"), 0.5],
    "overflow-before-negative": [2000.0, -1.0],
    "negative-before-overflow": [0.0, -2.0, 2000.0],
}


@pytest.mark.parametrize("grid", sorted(_FAILING_GRIDS))
def test_a_grid_refuses_its_first_failing_time_as_a_loop_over_it_does(grid):
    times = _FAILING_GRIDS[grid]
    K, C = 0.5 * np.eye(2), np.eye(2)
    loop = _failure(lambda: [propagator(K, C, t) for t in times])
    assert loop is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _failure(lambda: _grid(K, C, times)) == loop


def test_an_empty_grid_gives_empty_stacks():
    E, B, error = symplectic.Propagator(*_loss_pair()).grid([])
    assert E.shape == B.shape == (0, 4, 4) and error is None


def test_a_refused_time_prepares_nothing(monkeypatch):
    prepared = []
    monkeypatch.setattr(symplectic.Propagator, "_prepare", lambda self: prepared.append(self))
    refused = symplectic.Propagator(*_loss_pair())
    for call in (lambda: refused.at(-1.0), lambda: refused.at(float("nan"))):
        with pytest.raises(ValueError, match="^time must be finite and nonnegative, got "):
            call()
    E, B, error = refused.grid([-1.0, 0.5])
    assert len(E) == len(B) == 0 and isinstance(error, ValueError)
    assert prepared == []


def test_psd_verdict_is_the_rule_of_psd_check():
    gen = rng(32)
    for shift in (-1e-7, -1e-10, 0.0, 1e-3):
        A = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
        H = A @ A.conj().T
        H = H - (np.linalg.eigvalsh(H)[0] - shift) * np.eye(4)
        w = np.linalg.eigvalsh(H)
        assert psd_verdict(w[::-1]) == psd_verdict(w) == psd_check(H)
    # the bound is -tol * (1 + max|w|) = -2e-9 here
    assert psd_verdict([1.0, -2.1e-9]) == Check("psd", 2.1e-9, 2e-9)
    assert not psd_verdict([1.0, -2.1e-9]).passed
    assert psd_verdict([1.0, -1.9e-9]).passed
    assert psd_verdict([1.0, -1.9e-9]).value == 1.9e-9
    assert psd_verdict([1.0, float("nan")]).passed is False


def test_decisive_names_a_failing_check_else_the_nearest_bound():
    near, far = Check("near", 0.9, 1.0), Check("far", 1e-3, 10.0)
    fails, nan = Check("fails", 3.0, 2.0), Check("nan", float("nan"), 1e9)
    assert decisive([]) is None
    assert decisive(iter([far])) is far
    # among passing checks the largest value / bound wins, whatever the order
    assert decisive([far, near]) is decisive([near, far]) is near
    assert decisive([near, Check("negative", -5.0, 1.0)]) is near
    # any failing check wins over every passing one, a NaN value among them
    assert decisive([near, fails, far]) is fails
    assert decisive([far, nan, near]) is nan
    assert decisive([near, nan, fails]).passed is False


# every site of the shared Hermitian test: (its tolerance, a Hermitian matrix
# it accepts, a call that is true when the site accepts the matrix)
HERMITIAN_SITES = {
    "semigroup.noise_matrix": (1e-10, np.eye(2),
                               lambda A: noise_matrix(np.zeros((2, 2)), A) is not None),
    "symplectic.propagator": (1e-10, np.eye(2),
                              lambda A: propagator(np.zeros((2, 2)), A, 1.0) is not None),
    "symplectic.psd_check": (1e-9, np.eye(2), lambda A: psd_check(A).passed),
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


# every site of the shared complex-vector check, each expecting 2 entries: a
# call on the vector z
_PAIR_2 = QuasifreePair(2, -0.5 * np.eye(4), np.eye(4))
VECTOR_SITES = {
    "gaussian.weyl_transform": lambda z: weyl_transform(vacuum(2), z),
    "semigroup.weyl_action": lambda z: weyl_action(_PAIR_2, 1.0, z),
    "semigroup.generator_action": lambda z: generator_action(_PAIR_2, z),
    "fields.vacuum_field_variance": lambda z: vacuum_field_variance(z, KernelModel((0, 1),
                                                                                   np.eye(2))),
    "fields.levy_law": lambda z: levy_law(np.eye(2), z),
    "fields.coherent_gaussian_field": lambda z: coherent_gaussian_field([1.0, 0.0], [z]),
    "fock.exponential_vector": lambda z: fock.exponential_vector(fock.build(2, 3), z),
    "fock.weyl_matrix": lambda z: fock.weyl_matrix(fock.build(2, 3), z),
    "fock.hamiltonian_matrix": lambda z: fock.hamiltonian_matrix(fock.build(2, 3),
                                                                 [HamiltonianTerm(1.0, z)]),
    "fock.lindblad_matrices": lambda z: fock.lindblad_matrices(
        fock.build(2, 3), decompose(-0.5 * np.eye(2 * z.size), np.eye(2 * z.size))),
}


@pytest.mark.parametrize("site", sorted(VECTOR_SITES))
def test_vector_sites_refuse_a_wrong_length_with_one_message(site):
    call = VECTOR_SITES[site]
    call(np.array([0.01, 0.02j]))
    with pytest.raises(ValueError, match="^expected a length-2 vector, got 3$"):
        call(np.array([0.01, 0.02j, 0.0]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("site", sorted(set(VECTOR_SITES) - {"fock.lindblad_matrices"}))
def test_vector_sites_refuse_a_non_finite_entry_with_one_message(site, entry):
    # fock.lindblad_matrices reads only the length of its z above
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            VECTOR_SITES[site](np.array([0.01, entry]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("site", ["fock.weyl_matrix", "gaussian.weyl_transform"])
def test_stacked_vector_sites_refuse_a_non_finite_entry_with_one_message(site, entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            VECTOR_SITES[site](np.array([[0.1, 0.3], [0.01, entry]]))
