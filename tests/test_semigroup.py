import numpy as np
import pytest
import scipy.linalg

from quasifree import fock
from quasifree.gaussian import coherent, vacuum, validate, weyl_transform
from quasifree.semigroup import (
    QuasifreePair,
    admissible,
    evolve_state,
    generator_action,
    pair_from_dict,
    pair_to_dict,
    weyl_action,
)
from quasifree.symplectic import expm, gram_integral, real_embed, symplectic_form
from quasifree.synthesis import pair_from_coupling

from util import rng, random_admissible_pair, random_valid_state


def attenuation_pair():
    return QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2))


# --- admissibility ----------------------------------------------------------

def test_admissible_attenuation():
    ok, mineig = admissible(-0.5 * np.eye(2), np.eye(2))
    assert ok
    assert abs(mineig) < 1e-12


def test_admissible_symplectic_drift_without_noise():
    ok, mineig = admissible(symplectic_form(1), np.zeros((2, 2)))
    assert ok
    assert abs(mineig) < 1e-14


def test_inadmissible_pure_contraction():
    ok, mineig = admissible(np.eye(2), np.zeros((2, 2)))
    assert not ok
    assert abs(mineig - (-2.0)) < 1e-12


def test_admissible_rejects_asymmetric_noise():
    with pytest.raises(ValueError):
        admissible(np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pair_construction_rejects_inadmissible():
    with pytest.raises(ValueError):
        QuasifreePair(n=1, K=np.eye(2), C=np.zeros((2, 2)))


def test_pair_caches_noise_eigenvalue():
    pair = attenuation_pair()
    assert abs(pair.min_noise_eigenvalue) < 1e-12


# --- action on Weyl operators -----------------------------------------------

def test_weyl_action_at_time_zero():
    pair = attenuation_pair()
    res = weyl_action(pair, 0.0, [0.3 + 0.4j])
    assert np.allclose(res.z_out, [0.3 + 0.4j])
    assert res.damping_exponent == 0.0


def test_weyl_action_pure_noise():
    pair = QuasifreePair(n=1, K=np.zeros((2, 2)), C=np.eye(2))
    z = 0.7 - 0.2j
    t = 1.4
    res = weyl_action(pair, t, [z])
    assert np.allclose(res.z_out, [z])
    assert abs(res.damping_exponent - 0.5 * t * abs(z) ** 2) < 1e-12


def test_weyl_action_attenuation_closed_form():
    res = weyl_action(attenuation_pair(), np.log(4.0), [1.0])
    assert np.allclose(res.z_out, [0.5])
    assert abs(res.damping_exponent - 0.375) < 1e-12


def test_weyl_action_rejects_negative_time():
    with pytest.raises(ValueError):
        weyl_action(attenuation_pair(), -0.1, [1.0])


def test_damping_exponent_monotone_in_time():
    gen = rng(41)
    for _ in range(5):
        pair = random_admissible_pair(gen, 1)
        z = gen.normal(size=1) + 1j * gen.normal(size=1)
        exponents = [weyl_action(pair, t, z).damping_exponent
                     for t in np.linspace(0.0, 2.0, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(exponents, exponents[1:]))


# --- action on states -------------------------------------------------------

def test_evolve_state_at_time_zero():
    st = coherent([0.7 + 0.1j])
    out = evolve_state(st, attenuation_pair(), 0.0)
    assert np.allclose(out.l, st.l) and np.allclose(out.m, st.m)
    assert np.allclose(out.S, st.S)


def test_evolve_state_attenuation_closed_form():
    st = coherent([1.0])
    for t in (0.3, 1.0, 2.5):
        out = evolve_state(st, attenuation_pair(), t)
        assert abs(out.m[0] - np.sqrt(2) * np.exp(-t / 2)) < 1e-12
        assert abs(out.l[0]) < 1e-12
        # the vacuum covariance is a fixed point of the damping channel
        assert np.abs(out.S - 0.5 * np.eye(2)).max() < 1e-12


def test_evolve_state_rotation_closed_form():
    omega = 1.1
    pair = QuasifreePair(n=1, K=omega * symplectic_form(1), C=np.zeros((2, 2)))
    st = coherent([1.0])
    for t in (0.4, 1.2):
        out = evolve_state(st, pair, t)
        assert np.abs(out.S - 0.5 * np.eye(2)).max() < 1e-12
        expected = expm(omega * t * symplectic_form(1).T) @ np.array([0.0, -np.sqrt(2)])
        assert np.allclose(np.concatenate([out.l, -out.m]), expected, atol=1e-12)


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("t", [2e3, 1e4])
def test_pure_loss_reaches_steady_state_at_long_times(rate, t):
    n = 2
    K = -0.5 * rate * np.eye(2 * n)
    C = rate * np.eye(2 * n)
    pair = QuasifreePair(n=n, K=K, C=C)
    out = evolve_state(random_valid_state(rng(45), n), pair, t)
    assert np.isfinite(out.S).all()
    B_inf = scipy.linalg.solve_continuous_lyapunov(K.T, -C)
    assert np.abs(out.S - B_inf / 2.0).max() < 1e-12
    assert max(np.abs(out.l).max(), np.abs(out.m).max()) <= 1e-12
    assert np.isfinite(weyl_action(pair, t, [0.3 - 0.4j, 1.0]).damping_exponent)


def test_semigroup_composition_law():
    gen = rng(42)
    for _ in range(10):
        pair = random_admissible_pair(gen, 1, couplings=2)
        st = random_valid_state(gen, 1)
        s, t = gen.uniform(0.1, 2.0, size=2)
        one = evolve_state(evolve_state(st, pair, s), pair, t)
        two = evolve_state(st, pair, s + t)
        assert np.abs(one.l - two.l).max() < 1e-9
        assert np.abs(one.m - two.m).max() < 1e-9
        assert np.abs(one.S - two.S).max() < 1e-9


def test_evolution_preserves_validity():
    gen = rng(43)
    for _ in range(10):
        pair = random_admissible_pair(gen, 2)
        st = random_valid_state(gen, 2)
        for t in (0.1, 1.0, 10.0):
            assert validate(evolve_state(st, pair, t)).is_valid


def test_duality_of_state_and_weyl_actions():
    gen = rng(44)
    for _ in range(10):
        pair = random_admissible_pair(gen, 1, couplings=2)
        st = random_valid_state(gen, 1)
        t = gen.uniform(0.0, 2.0)
        z = gen.normal(size=1) + 1j * gen.normal(size=1)
        lhs = weyl_transform(evolve_state(st, pair, t), z)
        act = weyl_action(pair, t, z)
        rhs = weyl_transform(st, act.z_out) * np.exp(-act.damping_exponent)
        assert abs(lhs - rhs) < 1e-9


def test_evolve_state_rejects_invalid_inputs():
    from quasifree.gaussian import GaussianState
    bad = GaussianState(n=1, l=[0.0], m=[0.0], S=0.25 * np.eye(2))
    with pytest.raises(ValueError):
        evolve_state(bad, attenuation_pair(), 1.0)
    with pytest.raises(ValueError):
        evolve_state(vacuum(1), attenuation_pair(), -1.0)


# --- generator --------------------------------------------------------------

def test_generator_action_trivial_pair():
    pair = QuasifreePair(n=1, K=np.zeros((2, 2)), C=np.zeros((2, 2)))
    res = generator_action(pair, [0.5 + 0.5j])
    assert np.abs(res.gain_vector).max() == 0.0
    assert res.scalar_part == 0.0


def test_generator_action_attenuation():
    res = generator_action(attenuation_pair(), [1.0])
    assert np.allclose(res.gain_vector, [-0.5])
    assert abs(res.scalar_part - (-0.5)) < 1e-15


def test_generator_matches_finite_difference_on_fock_oracle():
    # one-sided matrix elements of d/dt T_t(W(z)) at t = 0 against the
    # generator coefficients, evaluated between exponential vectors
    gen = rng(45)
    rep = fock.build(1, 30)
    e_left = fock.exponential_vector(rep, [0.3 - 0.1j])
    e_right = fock.exponential_vector(rep, [0.2 + 0.25j])
    for _ in range(4):
        pair = random_admissible_pair(gen, 1)
        z = 0.6 * (gen.normal(size=1) + 1j * gen.normal(size=1))

        def weyl_element(t):
            act = weyl_action(pair, t, z)
            W = fock.weyl_matrix(rep, act.z_out)
            return np.vdot(e_left, W @ e_right) * np.exp(-act.damping_exponent)

        h = 1e-4
        derivative = (-3 * weyl_element(0.0) + 4 * weyl_element(h)
                      - weyl_element(2 * h)) / (2 * h)

        coeff = generator_action(pair, z)
        gain = fock.creator(rep, coeff.gain_vector) - fock.annihilator(rep, coeff.gain_vector)
        op = (gain + coeff.scalar_part * np.eye(rep.dim)) @ fock.weyl_matrix(rep, z)
        expected = np.vdot(e_left, op @ e_right)
        assert abs(derivative - expected) < 1e-6


def test_generator_damping_rate_is_weyl_action_slope():
    gen = rng(46)
    pair = random_admissible_pair(gen, 1, couplings=2)
    z = gen.normal(size=1) + 1j * gen.normal(size=1)
    xi = real_embed(z)
    slope = 0.5 * xi @ gram_integral(pair.K, pair.C, 1e-6) @ xi / 1e-6
    assert abs(-generator_action(pair, z).scalar_part.real - slope) < 1e-5


# --- serialization ----------------------------------------------------------

def test_pair_json_round_trip():
    pair = attenuation_pair()
    back = pair_from_dict(pair_to_dict(pair))
    assert back.n == 1
    assert np.array_equal(back.K, pair.K)
    assert np.array_equal(back.C, pair.C)


def test_pair_json_missing_field():
    with pytest.raises(ValueError):
        pair_from_dict({"n": 1, "K": [[0.0, 0.0], [0.0, 0.0]]})
