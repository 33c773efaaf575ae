import numpy as np
import pytest

from quasifree import fock
from quasifree.gaussian import (
    GaussianState,
    coherent,
    state_from_dict,
    state_to_dict,
    vacuum,
    validate,
    weyl_transform,
)
from quasifree.symplectic import expm, symplectic_form

from util import rng, random_valid_state


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
    assert diag.symmetry_defect > 0.1


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


def test_json_round_trip():
    gen = rng(37)
    st = random_valid_state(gen, 2)
    data = state_to_dict(st)
    back = state_from_dict(data)
    assert back.n == st.n
    assert np.array_equal(back.l, st.l)
    assert np.array_equal(back.m, st.m)
    assert np.array_equal(back.S, st.S)


def test_json_missing_field():
    with pytest.raises(ValueError):
        state_from_dict({"n": 1, "l": [0.0], "m": [0.0]})
