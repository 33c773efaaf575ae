import copy
import gc
import json
import pickle
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

from quasifree import cli, fock, symplectic
from quasifree.gaussian import (GaussianState, coherent, vacuum, validate, validate_many,
                                weyl_transform)
from quasifree import semigroup
from quasifree.semigroup import (
    PROPAGATOR_MEMO,
    QuasifreePair,
    admissible,
    evolve_state,
    evolve_states,
    generator_action,
    weyl_action,
)
from quasifree.symplectic import (Propagator, PropagatorOverflowError, expm, gram_integral,
                                  propagator, psd_verdict, real_embed, symplectic_form)
from quasifree.synthesis import decompose, pair_from_coupling

from util import rng, random_admissible_pair, random_valid_state, smeared_ladder


def attenuation_pair():
    return QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2))


# --- admissibility ----------------------------------------------------------

def test_admissible_attenuation():
    check = admissible(-0.5 * np.eye(2), np.eye(2))
    assert check.passed
    assert abs(check.value) < 1e-12


def test_admissible_symplectic_drift_without_noise():
    check = admissible(symplectic_form(1), np.zeros((2, 2)))
    assert check.passed
    assert abs(check.value) < 1e-14


def test_inadmissible_pure_contraction():
    check = admissible(np.eye(2), np.zeros((2, 2)))
    assert not check.passed
    assert abs(check.value - 2.0) < 1e-12


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


def cp_matrix(pair, t, noise_scale=1.0):
    """B_t + i(J - E_t^T J E_t), with E_t = e^{tK}: 2 S_t + iJ is
    E_t^T (2S + iJ) E_t plus this matrix, so the predual at t maps every
    state to a state, and is completely positive, exactly when it is PSD."""
    E, B = pair.propagator(t)
    J = symplectic_form(pair.n)
    return noise_scale * B + 1j * (J - E.T @ J @ E)


def _cp_pairs():
    """Random admissible pairs at n = 1, 2, 4, 16, then pure loss and an
    amplifier, each with noise rank 1."""
    gen = rng(47)
    pairs = [random_admissible_pair(gen, n, couplings=n) for n in (1, 2, 4, 16) for _ in range(4)]
    return pairs + [QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2)),
                    QuasifreePair(n=1, K=0.5 * np.eye(2), C=np.eye(2))]


def test_the_evolved_pair_is_completely_positive_at_every_time():
    # Heinosaari, Holevo and Wolf 2010: (E_t, B_t) is a Gaussian channel
    for pair in _cp_pairs():
        for t in (0.1, 1.0, 5.0, 20.0):
            check = psd_verdict(np.linalg.eigvalsh(cp_matrix(pair, t)), pair.tolerances.psd)
            assert check.passed, (pair.n, t, check)


def test_pure_loss_with_half_its_noise_is_not_completely_positive():
    # the negative control: (1 - e^{-1})(I/2 + iJ) has min eigenvalue
    # -(1 - e^{-1})/2 at t = 1
    loss = QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2))
    check = psd_verdict(np.linalg.eigvalsh(cp_matrix(loss, 1.0, noise_scale=0.5)))
    assert check.passed is False
    assert check.value == pytest.approx((1 - np.exp(-1)) / 2, rel=1e-12)
    assert psd_verdict(np.linalg.eigvalsh(cp_matrix(loss, 1.0))).passed


@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_duality_of_state_and_weyl_actions(n):
    gen = rng(44)
    for _ in range(10):
        pair = random_admissible_pair(gen, n, couplings=2)
        st = random_valid_state(gen, n)
        t = gen.uniform(0.0, 2.0)
        # |z| ~ 1 at every n, so that neither side is negligibly small
        z = (gen.normal(size=n) + 1j * gen.normal(size=n)) / np.sqrt(n)
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


#: invalid states and the check that refuses each: S not symmetric (defect
#: 0.2), and S = I/4, whose 2S + iJ has min eigenvalue -1/2
INVALID_STATES = {"hermitian": [[1.0, 0.2], [0.0, 1.0]], "psd": 0.25 * np.eye(2)}


@pytest.mark.parametrize("name", sorted(INVALID_STATES))
@pytest.mark.parametrize("use", [lambda st: evolve_state(st, attenuation_pair(), 1.0),
                                 lambda st: weyl_transform(st, [0.3])],
                         ids=["evolve_state", "weyl_transform"])
def test_an_invalid_state_is_refused_naming_the_failing_check(name, use):
    bad = GaussianState(n=1, l=[0.0], m=[0.0], S=INVALID_STATES[name])
    with pytest.raises(ValueError, match=f"^invalid Gaussian state: {name} check fails, "):
        use(bad)


def test_evolved_state_overflow_is_named_without_warnings():
    # e^{tK} = e^{t/2} I and B_t are finite at t = 690, but S_t = 1e10 e^{t} I is not
    pair = QuasifreePair(n=1, K=0.5 * np.eye(2), C=np.eye(2))
    E, B = pair.propagator(690.0)
    assert np.isfinite(E).all() and np.isfinite(B).all()
    loud = GaussianState(n=1, l=[0.0], m=[0.0], S=1e10 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagatorOverflowError,
                           match="t = 690: K has spectral abscissa 0.5"):
            evolve_state(loud, pair, 690.0)


def test_an_evolved_mean_of_minus_inf_beside_finite_entries_is_refused():
    # a squeezer, e^{tK} = diag(e^t, e^-t): at t = 350 the mean e^t l = -inf
    # sits beside a finite entry, while E, B and S_t stay finite
    pair = QuasifreePair(n=1, K=np.diag([1.0, -1.0]), C=np.zeros((2, 2)))
    state = GaussianState(n=1, l=[-1e160], m=[0.0], S=0.5 * np.eye(2))
    assert np.isfinite(evolve_state(state, pair, 340.0).l).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evolve in (evolve_state, lambda *args: evolve_states(*args[:2], [args[2]])):
            with pytest.raises(PropagatorOverflowError,
                               match="^propagation overflows at t = 350: K has spectral "
                                     "abscissa 1$"):
                evolve(state, pair, 350.0)


@pytest.mark.parametrize("z", [1e3, 1e160], ids=["damping", "image"])
def test_weyl_action_overflow_is_named_without_warnings(z):
    # at t = 700, e^{tK} = e^{350} I and B_t ~ e^{700} I are finite; the damping
    # exponent overflows from |z| = 1e3 on, and the image E z as well at 1e160
    pair = QuasifreePair(n=1, K=0.5 * np.eye(2), C=np.eye(2))
    E, B = pair.propagator(700.0)
    assert np.isfinite(E).all() and np.isfinite(B).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagatorOverflowError,
                           match="t = 700: K has spectral abscissa 0.5"):
            weyl_action(pair, 700.0, [z])


def test_one_time_enters_one_error_state_for_its_propagator_moments_and_tests(monkeypatch):
    pair = random_admissible_pair(rng(90), 2, couplings=2)
    state = random_valid_state(rng(91), 2)
    evolve_state(state, pair, 0.1)      # validates the state and prepares the propagator
    entered, errstate = [], np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    evolve_state(state, pair, 0.5)      # a memo miss
    evolve_state(state, pair, 0.5)      # a hit
    weyl_action(pair, 0.5, [0.2, 0.1j])
    weyl_action(pair, 0.9, [0.2, 0.1j])
    assert entered == [{"over": "ignore", "invalid": "ignore"}] * 4


# --- immutability and the propagator memo -----------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["K", "C"])
def test_pair_arrays_refuse_in_place_writes(name):
    pair = attenuation_pair()
    with pytest.raises(ValueError):
        getattr(pair, name)[:] = 5.0
    with pytest.raises(ValueError):
        getattr(pair, name)[0, 1] = 5.0
    assert admissible(pair.K, pair.C).passed


def test_pair_keeps_its_own_copy_of_the_callers_arrays():
    K, C = -0.5 * np.eye(2), np.eye(2)
    pair = QuasifreePair(n=1, K=K, C=C)
    K[:] = 5.0
    C[:] = -1.0
    assert np.array_equal(pair.K, -0.5 * np.eye(2))
    assert np.array_equal(pair.C, np.eye(2))


def test_min_noise_eigenvalue_is_computed_not_passed():
    K, C = -0.5 * np.eye(2), np.eye(2)
    with pytest.raises(TypeError):
        QuasifreePair(n=1, K=K, C=C, min_noise_eigenvalue=123.0)
    assert QuasifreePair(n=1, K=K, C=C).min_noise_eigenvalue == -admissible(K, C).value


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_pair_are_immutable_pairs_with_their_own_memo(clone):
    pair = random_admissible_pair(rng(70), 2)
    E, _ = pair.propagator(0.5)
    twin = clone(pair)
    assert not twin.K.flags.writeable and not twin.C.flags.writeable
    assert same_bits(twin.K, pair.K) and same_bits(twin.C, pair.C)
    assert twin.min_noise_eigenvalue == pair.min_noise_eigenvalue
    E_twin, _ = twin.propagator(0.5)
    assert E_twin is not E and same_bits(E_twin, E)


def test_memoized_propagator_is_read_only_and_bitwise_the_kernel():
    for n in (3, 16):
        pair = random_admissible_pair(rng(71), n, couplings=2)
        for t in (0.0, 0.3, 7.5, 400.0):
            E, B = pair.propagator(t)
            assert not E.flags.writeable and not B.flags.writeable
            E_ref, B_ref = propagator(pair.K, pair.C, t)
            assert same_bits(E, E_ref) and same_bits(B, B_ref)
            with pytest.raises(ValueError):
                E[0, 0] = 1.0
            again = pair.propagator(t)
            assert again[0] is E and again[1] is B


def refuses_writes_down_its_bases(a):
    """a and every array behind it through .base refuse an element write."""
    while isinstance(a, np.ndarray):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
        a = a.base
    return True


@pytest.mark.parametrize("how", ["evolve_state", "evolve_states"])
def test_an_evolved_state_and_every_base_behind_it_refuse_writes(how):
    gen = rng(73)
    pair = random_admissible_pair(gen, 3, couplings=2)
    state = random_valid_state(gen, 3)
    times = [0.0, 0.4, 2.0, 0.4]
    evolved = ([evolve_state(state, pair, t) for t in times] if how == "evolve_state"
               else evolve_states(state, pair, times))
    for t, st in zip(times, evolved):
        assert all(refuses_writes_down_its_bases(getattr(st, k)) for k in "lmS")
        assert all(refuses_writes_down_its_bases(a) for a in pair.propagator(t))
        assert st.l.shape == st.m.shape == (3,) and st.S.shape == (6, 6)
        assert st.diagnostic().is_valid
    # the stacked arrays behind a grid's states stay as they were
    again = evolve_states(state, pair, times)
    for st, twin in zip(evolved, again):
        assert all(same_bits(getattr(st, k), getattr(twin, k)) for k in "lmS")


def test_no_writeable_flag_of_a_state_or_pair_can_be_set_again():
    # write protection holds against a flipped flag, so a state's cached
    # diagnostic cannot go stale: constructed, evolved, copied, and a pair
    # with its propagators at a single-time miss and a hit
    gen = rng(77)
    pair = random_admissible_pair(gen, 2, couplings=2)
    state = random_valid_state(gen, 2)
    states = [state, copy.deepcopy(state), evolve_state(state, pair, 0.4),
              *evolve_states(state, pair, [0.4, 1.5, 2.5])]
    propagators = [pair.propagator(0.9), pair.propagator(0.9), pair.propagator(1.5)]
    arrays = [pair.K, pair.C, *(getattr(st, k) for st in states for k in "lmS"),
              *(a for entry in propagators for a in entry)]
    for a in arrays:
        with pytest.raises(ValueError, match="WRITEABLE"):
            a.flags.writeable = True
        assert not a.flags.writeable
    assert all(st.diagnostic().is_valid for st in states)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_copies_of_an_evolved_state_are_rebuilt_by_the_constructor(monkeypatch, clone):
    gen = rng(74)
    pair = random_admissible_pair(gen, 2, couplings=2)
    st = evolve_states(random_valid_state(gen, 2), pair, [0.5, 1.5])[1]
    built = []
    constructor_checks = GaussianState.__post_init__

    def counted(self):
        built.append(self)
        constructor_checks(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counted)
    twin = clone(st)
    assert built == [twin]
    for k in "lmS":
        a, b = getattr(st, k), getattr(twin, k)
        assert same_bits(a, b) and not np.shares_memory(a, b) and not b.flags.writeable
    assert twin.diagnostic() == st.diagnostic()


def test_a_pairs_first_memo_miss_checks_no_array_again(monkeypatch):
    admitted = random_admissible_pair(rng(75), 2, couplings=2)
    state = random_valid_state(rng(76), 2)
    calls = []
    original = symplectic.pair_arrays

    def counted(K, C):
        calls.append(K.shape)
        return original(K, C)

    for module in (symplectic, semigroup):
        monkeypatch.setattr(module, "pair_arrays", counted)
    pair = QuasifreePair(n=2, K=admitted.K, C=admitted.C)
    assert calls == [(4, 4)]                # constructing a pair checks K and C once
    del calls[:]
    E, B = pair.propagator(0.3)
    evolve_state(state, pair, 0.7)
    evolve_states(state, pair, [0.1, 0.9])
    weyl_action(pair, 1.1, [0.2, 0.3j])
    assert calls == []
    E_ref, B_ref = propagator(pair.K, pair.C, 0.3)     # the public entry checks its input
    assert calls == [(4, 4)]
    assert same_bits(E, E_ref) and same_bits(B, B_ref)


def test_public_entries_keep_their_refusals():
    with pytest.raises(ValueError, match="^means and covariance must be finite$"):
        GaussianState(n=1, l=[np.nan], m=[0.0], S=0.5 * np.eye(2))
    with pytest.raises(ValueError, match="^K and C must be finite$"):
        Propagator(np.array([[np.inf, 0.0], [0.0, -1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="^C must be symmetric$"):
        decompose(-0.5 * np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]]))


def test_evolve_and_weyl_action_repeat_bitwise():
    gen = rng(72)
    pair = random_admissible_pair(gen, 2, couplings=2)
    state = random_valid_state(gen, 2)
    z = gen.normal(size=2) + 1j * gen.normal(size=2)
    for t in (0.4, 2.0):
        first = evolve_state(state, pair, t)
        image = weyl_action(pair, t, z)
        for _ in range(2):
            again = evolve_state(state, pair, t)
            assert all(same_bits(getattr(first, k), getattr(again, k)) for k in "lmS")
            repeat = weyl_action(pair, t, z)
            assert same_bits(image.z_out, repeat.z_out)
            assert same_bits(image.damping_exponent, repeat.damping_exponent)


@pytest.mark.parametrize("n", [1, 4, 16, 32])
def test_evolve_states_is_bitwise_the_loop_of_evolve_state(n):
    gen = rng(80 + n)
    pair = random_admissible_pair(gen, n, couplings=max(1, n // 4))
    state = random_valid_state(gen, n)
    times = [0.0, 2.5, 0.3, 0.3, 7.0, 0.0, 1e-3]
    batch = evolve_states(state, pair, times)
    assert len(batch) == len(times)
    fresh = QuasifreePair(n=n, K=pair.K, C=pair.C)
    for t, out in zip(times, batch):
        one = evolve_state(state, fresh, t)
        assert all(same_bits(getattr(one, k), getattr(out, k)) for k in "lmS")
    diags = validate_many(batch, pair.tolerances.psd)
    assert diags == [validate(out, pair.tolerances.psd) for out in batch]
    assert evolve_states(state, pair, []) == []


def _failure(call):
    """(class, message) of the exception call raises, or None."""
    try:
        call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return None


# K = I/2: e^{tK} and B_t are finite up to t ~ 1420, but the moments of the
# loud state (S = 1e10 I) overflow from t ~ 660 on
_FAILING_GRIDS = {
    "moments": [1.0, 690.0, 2.0],
    "propagator": [1.0, 1500.0],
    "moments-before-propagator": [690.0, 1500.0],
    "propagator-before-moments": [1500.0, 690.0],
    "negative": [1.0, -0.5, 690.0],
    "moments-before-negative": [690.0, -0.5],
    "nan": [float("nan"), 1.0],
}


@pytest.mark.parametrize("grid", sorted(_FAILING_GRIDS))
def test_evolve_states_refuses_the_first_failing_time_as_the_loop_does(grid):
    times = _FAILING_GRIDS[grid]
    loud = GaussianState(n=1, l=[0.0], m=[0.0], S=1e10 * np.eye(2))

    def fresh():
        return QuasifreePair(n=1, K=0.5 * np.eye(2), C=np.eye(2))

    loop = _failure(lambda: [evolve_state(loud, pair, t) for pair in [fresh()] for t in times])
    assert loop is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _failure(lambda: evolve_states(loud, fresh(), times)) == loop


def test_evolve_states_refuses_an_invalid_state_before_any_time():
    bad = GaussianState(n=1, l=[0.0], m=[0.0], S=0.25 * np.eye(2))
    for times in ([], [-1.0], [1.0]):
        with pytest.raises(ValueError, match="^invalid Gaussian state: psd check fails, "):
            evolve_states(bad, attenuation_pair(), times)


@pytest.fixture
def propagator_calls(monkeypatch):
    """The times a Propagator evaluates, one time or a grid at a time."""
    calls = []
    one, many = Propagator._evaluate_one, Propagator._evaluate

    def counted_one(self, t):
        calls.append(t)
        return one(self, t)

    def counted_many(self, ts):
        calls.extend(ts)
        return many(self, ts)

    monkeypatch.setattr(Propagator, "_evaluate_one", counted_one)
    monkeypatch.setattr(Propagator, "_evaluate", counted_many)
    return calls


def test_propagator_memo_is_bounded(propagator_calls):
    calls = propagator_calls
    pair = attenuation_pair()
    times = [0.01 * k for k in range(PROPAGATOR_MEMO + 8)]
    held = [weakref.ref(pair.propagator(t)[1]) for t in times]
    gc.collect()
    assert sum(ref() is not None for ref in held) == PROPAGATOR_MEMO
    assert all(ref() is not None for ref in held[-PROPAGATOR_MEMO:])
    assert len(calls) == len(times)
    pair.propagator(times[-1])          # still held: no new call
    assert len(calls) == len(times)
    pair.propagator(times[0])           # dropped: computed again
    assert len(calls) == len(times) + 1


def test_each_distinct_time_is_propagated_once(propagator_calls):
    pair = attenuation_pair()
    state = coherent([0.3 + 0.2j])
    for t in (0.1, 0.5, 0.1, 0.5):
        evolve_state(state, pair, t)
        weyl_action(pair, t, [0.2])
    assert propagator_calls == [0.1, 0.5]


def test_a_propagator_evaluates_every_call_and_keeps_nothing(propagator_calls):
    P = Propagator(-0.5 * np.eye(2), np.eye(2))
    first, again = P.at(0.5), P.at(0.5)
    assert propagator_calls == [0.5, 0.5]
    for a, b in zip(first, again):
        assert same_bits(a, b) and not np.shares_memory(a, b)
        assert not a.flags.writeable and not b.flags.writeable


def test_a_refused_time_ends_the_grid_with_each_time_evaluated_once(propagator_calls):
    K, C = 0.5 * np.eye(2), np.eye(2)
    E, B, error = Propagator(K, C).grid([0.5, 1500.0, 2.0])
    assert propagator_calls == [0.5, 1500.0, 2.0]
    assert len(E) == len(B) == 1 and all(map(same_bits, (E[0], B[0]), propagator(K, C, 0.5)))
    assert (type(error), str(error)) == _failure(lambda: propagator(K, C, 1500.0))


def test_a_grid_leaves_the_memo_as_it_found_it(propagator_calls):
    gen = rng(73)
    pair = random_admissible_pair(gen, 2, couplings=2)
    state = random_valid_state(gen, 2)
    pair.propagator(0.5)
    held = pair._at.cache_info()
    times = [0.5, 0.1, 0.5, 2.0]
    evolve_states(state, pair, times)
    assert propagator_calls == [0.5, *times]        # one evaluation of every grid time
    assert pair._at.cache_info() == held            # neither read nor written
    del propagator_calls[:]
    for t in times:
        evolve_state(state, pair, t)
        weyl_action(pair, t, [0.2, 0.1j])
    assert propagator_calls == [0.1, 2.0]           # each missing single time once, then hits


def test_an_empty_grid_prepares_nothing(monkeypatch, propagator_calls):
    prepared, prepare = [], Propagator._prepare
    monkeypatch.setattr(Propagator, "_prepare",
                        lambda self: prepared.append(self.K.shape) or prepare(self))
    pair = random_admissible_pair(rng(79), 2, couplings=2)
    assert evolve_states(random_valid_state(rng(80), 2), pair, []) == []
    assert prepared == [] and propagator_calls == []


def test_a_long_grid_is_one_evaluation_held_nowhere(propagator_calls):
    n = 2
    pair, other = (random_admissible_pair(rng(81), n, couplings=2) for _ in range(2))
    state = random_valid_state(rng(82), n)
    times = [0.01 * k for k in range(4 * PROPAGATOR_MEMO)]
    states = evolve_states(state, pair, times)
    assert propagator_calls == times                # one evaluation of every time
    assert pair._at.cache_info().currsize == 0
    assert [s.S.tobytes() for s in states] == [evolve_state(state, other, t).S.tobytes()
                                               for t in times]


def test_a_used_pair_is_freed_by_reference_count_alone():
    # a reference cycle through the memo would keep every pair, its prepared
    # powers and its propagators alive until the cyclic collector ran
    pair = random_admissible_pair(rng(77), 2, couplings=2)
    evolve_states(random_valid_state(rng(78), 2), pair, [0.1, 0.4])
    weyl_action(pair, 0.7, [0.2, 0.1j])
    held = weakref.ref(pair)
    gc.disable()
    try:
        del pair
        assert held() is None
    finally:
        gc.enable()


def test_a_pair_prepares_its_propagator_once_and_only_when_needed(monkeypatch):
    prepared = []

    class Counted(Propagator):
        def _prepare(self):
            prepared.append(self.K.shape)
            super()._prepare()

    monkeypatch.setattr(semigroup, "Propagator", Counted)
    pair = random_admissible_pair(rng(74), 12, couplings=2)
    assert prepared == []                   # constructing a pair prepares nothing
    state = random_valid_state(rng(75), 12)
    for t in (0.1, 0.5, 2.0, 0.1):
        evolve_state(state, pair, t)
        weyl_action(pair, t, np.ones(12))
    assert prepared == [(24, 24)]


@pytest.mark.parametrize("n", [1, 4, 11, 12, 16])
def test_pade_kernel_runs_once_per_memo_miss_and_symplectic_expm_never(monkeypatch, n):
    pair = random_admissible_pair(rng(76), n, couplings=2)
    calls = []
    kernel = symplectic._taylor25_blocks

    def counted(powers, K0, C0, r):
        calls.append(K0.shape)
        return kernel(powers, K0, C0, r)

    def refuse(A):
        raise AssertionError("symplectic.expm called")

    monkeypatch.setattr(symplectic, "_taylor25_blocks", counted)
    monkeypatch.setattr(symplectic, "expm", refuse)
    for t in (0.2, 0.9, 0.2, 3.0, 0.9, 3.0):
        pair.propagator(t)
    assert calls == [(2 * n, 2 * n)] * 3


@pytest.mark.parametrize("which", ["K", "C"])
def test_pair_refuses_non_finite_matrices_by_name(which):
    arrays = {"K": -0.5 * np.eye(2), "C": np.eye(2)}
    arrays[which][0, 1] = np.inf
    with pytest.raises(ValueError, match="K and C must be finite"):
        QuasifreePair(n=1, **arrays)


@pytest.mark.parametrize("check", [semigroup.noise_matrix, admissible, decompose],
                         ids=["noise_matrix", "admissible", "decompose"])
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("which", ["K", "C"])
def test_noise_matrix_refuses_non_finite_matrices_before_any_arithmetic(check, bad, which):
    arrays = {"K": -0.5 * np.eye(4), "C": np.eye(4)}
    arrays[which][1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^K and C must be finite$"):
            check(arrays["K"], arrays["C"])


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
        gain = smeared_ladder(rep, -coeff.gain_vector, coeff.gain_vector)
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
    # the pair through the qfl encoder and back through its payload reader
    pair = attenuation_pair()
    text = json.dumps({"pair": pair}, default=cli._json_default, allow_nan=False)
    back = cli._payload(json.loads(text), "pair")
    assert back.n == 1
    assert np.array_equal(back.K, pair.K)
    assert np.array_equal(back.C, pair.C)
