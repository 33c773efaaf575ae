import copy
import pickle
import warnings

import numpy as np
import pytest

from quasifree import fock, gaussian
from quasifree.gaussian import (
    GaussianState,
    coherent,
    vacuum,
    validate,
    validate_many,
    weyl_transform,
)
from quasifree.semigroup import QuasifreePair, evolve_state
from quasifree.symplectic import (SYMMETRY_TOL, TOLERANCES, Check, expm, psd_check,
                                  symplectic_form)

from util import hermitian_check, rng, random_valid_state


def test_vacuum_fields():
    st = vacuum(1)
    assert np.array_equal(st.l, [0.0]) and np.array_equal(st.m, [0.0])
    assert np.array_equal(st.S, 0.5 * np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vacuum_is_valid_boundary_state(n):
    diag = validate(vacuum(n))
    assert diag.is_valid
    assert abs(diag.min_eigenvalue) < 1e-12


def test_quarter_identity_covariance_is_invalid():
    diag = validate(GaussianState(n=1, l=[0.0], m=[0.0], S=0.25 * np.eye(2)))
    assert not diag.is_valid
    assert abs(diag.min_eigenvalue - (-0.5)) < 1e-12


def test_unit_covariance_is_valid():
    diag = validate(GaussianState(n=1, l=[0.0], m=[0.0], S=np.eye(2)))
    assert diag.is_valid
    assert abs(diag.min_eigenvalue - 1.0) < 1e-12


def test_asymmetric_covariance_flagged():
    S = np.array([[0.5, 0.1], [-0.1, 0.5]])
    diag = validate(GaussianState(n=1, l=[0.0], m=[0.0], S=S))
    assert not diag.is_valid
    assert diag.symmetry.value > 0.1 and not diag.symmetry.passed


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GaussianState(n=2, l=[0.0], m=[0.0, 0.0], S=np.eye(4))


@pytest.mark.parametrize("field", ["l", "m", "S"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_moments_rejected(field, bad):
    data = {"l": [0.0], "m": [0.0], "S": 0.5 * np.eye(2)}
    data[field] = np.full_like(np.asarray(data[field], dtype=float), bad)
    with pytest.raises(ValueError):
        GaussianState(n=1, **data)


def test_coherent_zero_is_vacuum():
    st = coherent([0.0])
    assert np.array_equal(st.l, vacuum(1).l)
    assert np.array_equal(st.m, vacuum(1).m)
    assert np.array_equal(st.S, vacuum(1).S)


def test_coherent_real_amplitude_means():
    st = coherent([1.0])
    assert abs(st.m[0] - np.sqrt(2)) < 1e-15
    assert st.l[0] == 0.0


def test_coherent_imaginary_amplitude_means():
    # sign convention pinned by the Fock oracle below
    st = coherent([1.0j])
    assert abs(st.l[0] - np.sqrt(2)) < 1e-15
    assert st.m[0] == 0.0


def test_coherent_means_match_fock_oracle():
    rep = fock.build(1, 30)
    gen = rng(31)
    for _ in range(5):
        alpha = 0.8 * (gen.normal() + 1j * gen.normal())
        st = coherent([alpha])
        rho = fock.coherent_density(rep, [alpha])
        l, m, S = fock.state_moments(rep, rho)
        assert abs(l[0] - st.l[0]) < 1e-9
        assert abs(m[0] - st.m[0]) < 1e-9
        assert np.abs(S - st.S).max() < 1e-9


def test_weyl_transform_normalization():
    gen = rng(32)
    for _ in range(5):
        st = random_valid_state(gen, 2)
        assert weyl_transform(st, np.zeros(2)) == 1.0


def test_weyl_transform_vacuum_closed_form():
    gen = rng(33)
    st = vacuum(2)
    for _ in range(10):
        z = gen.normal(size=2) + 1j * gen.normal(size=2)
        expected = np.exp(-0.5 * np.linalg.norm(z) ** 2)
        assert abs(weyl_transform(st, z) - expected) < 1e-12


def test_weyl_transform_coherent_matches_oracle():
    rep = fock.build(1, 30)
    gen = rng(34)
    for _ in range(6):
        alpha = 0.7 * (gen.normal() + 1j * gen.normal())
        z = gen.normal() + 1j * gen.normal()
        z /= max(abs(z), 1.0)
        closed = weyl_transform(coherent([alpha]), [z])
        rho = fock.coherent_density(rep, [alpha])
        numeric = np.trace(rho @ fock.weyl_matrix(rep, [z]))
        assert abs(closed - numeric) < 1e-6


def test_weyl_transform_bounded_and_conjugate_symmetric():
    gen = rng(35)
    for _ in range(20):
        st = random_valid_state(gen, 1)
        z = gen.normal(size=1) + 1j * gen.normal(size=1)
        w_plus = weyl_transform(st, z)
        w_minus = weyl_transform(st, -z)
        assert abs(w_plus) <= 1.0 + 1e-12
        assert abs(w_minus - np.conj(w_plus)) < 1e-12


def test_weyl_transform_rejects_invalid_state():
    bad = GaussianState(n=1, l=[0.0], m=[0.0], S=0.25 * np.eye(2))
    with pytest.raises(ValueError):
        weyl_transform(bad, [0.3])


def test_phase_space_rotation_preserves_validity():
    gen = rng(36)
    J = symplectic_form(1)
    for _ in range(20):
        st = random_valid_state(gen, 1)
        O = expm(gen.uniform(-np.pi, np.pi) * J)
        rotated = GaussianState(n=1, l=st.l, m=st.m, S=O.T @ st.S @ O)
        assert validate(rotated).is_valid


# --- immutability and the cached verdict ------------------------------------

@pytest.mark.parametrize("name", ["l", "m", "S"])
def test_state_arrays_refuse_in_place_writes(name):
    st = random_valid_state(rng(38), 2)
    with pytest.raises(ValueError):
        getattr(st, name)[:] = -5.0
    with pytest.raises(ValueError):
        getattr(st, name)[0] = -5.0


def test_state_keeps_its_own_copy_of_the_callers_arrays():
    l, m, S = np.array([0.1]), np.array([0.2]), 0.5 * np.eye(2)
    st = GaussianState(n=1, l=l, m=m, S=S)
    assert st.diagnostic().is_valid
    l[:] = 7.0
    m[:] = 7.0
    S[:] = -1.0
    assert np.array_equal(st.l, [0.1]) and np.array_equal(st.m, [0.2])
    assert np.array_equal(st.S, 0.5 * np.eye(2))
    assert st.diagnostic().is_valid and validate(st).is_valid


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_state_are_immutable_states(clone):
    st = random_valid_state(rng(40), 2)
    st.diagnostic()
    twin = clone(st)
    assert all(not getattr(twin, k).flags.writeable for k in "lmS")
    assert all(np.array_equal(getattr(twin, k), getattr(st, k)) for k in "lmS")
    assert twin.diagnostic() == st.diagnostic()


@pytest.fixture
def validate_calls(monkeypatch):
    """The (state, tol) arguments of every call that reaches validate."""
    calls = []

    def counted(state, tol=TOLERANCES.psd):
        calls.append((state, tol))
        return validate(state, tol)

    monkeypatch.setattr(gaussian, "validate", counted)
    return calls


def test_diagnostic_is_validate_computed_once_per_tolerance(validate_calls):
    st = random_valid_state(rng(39), 2)
    first = st.diagnostic()
    assert st.diagnostic() is first and first == validate(st)
    assert st.diagnostic(1e-6) == validate(st, 1e-6)
    st.diagnostic(1e-6)
    assert validate_calls == [(st, TOLERANCES.psd), (st, 1e-6)]


def test_evolution_and_weyl_transforms_validate_the_input_once(validate_calls):
    pair = QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2))
    st = coherent([0.4 - 0.1j])
    for t in (0.1, 0.2, 0.3):
        evolve_state(st, pair, t)
        weyl_transform(st, [0.3j])
    assert validate_calls == [(st, TOLERANCES.psd)]


# --- batches -------------------------------------------------------------------

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_a_stack_of_weyl_arguments_gives_each_value_bitwise(n):
    gen = rng(300 + n)
    zs = gen.normal(size=(16, n)) + 1j * gen.normal(size=(16, n))
    zs[0], zs[1], zs[2] = 0.0, 1j * zs[1].imag, zs[2].real     # signed zeros
    for st in (random_valid_state(gen, n), vacuum(n)):
        values = weyl_transform(st, zs)
        assert values.shape == (16,) and values.dtype == complex
        for z, value in zip(zs, values):
            single = weyl_transform(st, z)
            assert type(single) is complex and _same_bits(value, single)
    assert weyl_transform(vacuum(n), np.empty((0, n))).shape == (0,)


def test_a_stack_of_weyl_arguments_is_refused_by_its_length_and_state_first():
    with pytest.raises(ValueError, match="^expected a stack of length-2 vectors, got shape"):
        weyl_transform(vacuum(2), np.zeros((3, 1)))
    bad = GaussianState(n=1, l=[0.0], m=[0.0], S=0.25 * np.eye(2))
    with pytest.raises(ValueError, match="^invalid Gaussian state: psd check fails, "):
        weyl_transform(bad, np.empty((0, 1)))


def test_validate_many_is_validate_of_each_state():
    gen = rng(310)
    states = [random_valid_state(gen, 3) for _ in range(4)]
    S = states[0].S.copy()
    S[0, 1] += 1e-3                                                # asymmetric
    states += [GaussianState(n=3, l=np.zeros(3), m=np.zeros(3), S=S),
               GaussianState(n=3, l=np.zeros(3), m=np.zeros(3), S=0.3 * np.eye(6)),  # not PSD
               vacuum(3)]
    for tol in (TOLERANCES.psd, 1e-3):
        diags = validate_many(states, tol)
        assert diags == [validate(st, tol) for st in states]
        assert [d.is_valid for d in diags] == [True] * 4 + [False, False, True]
    assert validate_many([]) == []


def _covariances(gen, n):
    """Random covariances of n modes: valid, not PSD, and not symmetric but
    within SYMMETRY_TOL, which each pass to the PSD rule as they are."""
    valid = random_valid_state(gen, n).S
    G = gen.normal(size=(2 * n, 2 * n))
    skew = gen.normal(size=(2 * n, 2 * n))
    skew -= skew.T
    nudge = 0.4 * SYMMETRY_TOL * (1.0 + np.abs(valid).max()) * skew / np.abs(skew).max()
    return [valid, (G + G.T) / 4.0, valid + nudge]


@pytest.mark.parametrize("n", [1, 4, 16, 64])
def test_two_s_plus_i_j_is_hermitian_exactly_and_validate_keeps_the_checked_rule(n):
    # the PSD rule of validate takes 2S + iJ as it is: S + S^T + iJ is its own
    # conjugate transpose entry for entry, so the Hermitian test of psd_check
    # passes with defect 0 and its symmetrization returns the matrix unchanged
    gen = rng(400 + n)
    J = symplectic_form(n)
    covariances = _covariances(gen, n)
    assert not np.array_equal(covariances[2], covariances[2].T)
    assert hermitian_check(covariances[2], SYMMETRY_TOL).passed
    states = [GaussianState(n=n, l=np.zeros(n), m=np.zeros(n), S=S) for S in covariances]
    for tol in (TOLERANCES.psd, 1e-3):
        expected = []
        for S in covariances:
            H = S + S.T + 1j * J
            assert np.array_equal(H, H.conj().T)
            assert hermitian_check(H, tol).value == 0.0
            symmetry = hermitian_check(S, SYMMETRY_TOL)
            expected.append(gaussian.StateDiagnostic(
                symmetry=Check("hermitian", symmetry.value, symmetry.bound),
                psd=psd_check(H, tol)))
        assert [validate(st, tol) for st in states] == expected
        assert validate_many(states, tol) == expected
    assert [d.is_valid for d in expected] == [True, False, True]


@pytest.mark.parametrize("check", [validate, lambda st: validate_many([vacuum(1), st])],
                         ids=["validate", "validate_many"])
def test_an_overflowing_covariance_is_refused_by_name(check):
    # S + S^T overflows: validate names the cause rather than a Hermitian
    # defect of nan, with no warning of numpy's add
    big = GaussianState(n=1, l=[0.0], m=[0.0], S=np.diag([1.7e308, 1.7e308]))
    refusal = "^covariance too large for double precision: 2S \\+ iJ is not finite$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=refusal):
            check(big)


@pytest.mark.parametrize("tol", [-1.0, float("nan")], ids=["negative", "nan"])
def test_a_negative_or_nan_tolerance_is_refused_by_name(tol):
    for check in (lambda st: validate(st, tol), lambda st: validate_many([st], tol)):
        with pytest.raises(ValueError, match="^tolerance must be nonnegative$"):
            check(vacuum(2))
