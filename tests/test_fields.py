import tracemalloc
import warnings

import numpy as np
import pytest

from quasifree.fields import (
    POISSON_MASS_MAX,
    SAMPLE_CAP,
    FieldLaw,
    SampleCapError,
    KernelModel,
    LevyLaw,
    coherent_gaussian_field,
    gns_factor,
    levy_law,
    sample,
    vacuum_field_variance,
)

from util import rng


def cyclic_kernel(N):
    """Circulant (hence cyclic-shift invariant) PSD kernel on N points."""
    base = np.array([[np.exp(-min(abs(i - j), N - abs(i - j))) for j in range(N)]
                     for i in range(N)])
    shift = tuple((i + 1) % N for i in range(N))
    return KernelModel(points=tuple(range(N)), K=base, group=(shift,))


# --- kernels and factorization ----------------------------------------------

def test_kernel_model_rejects_non_psd():
    with pytest.raises(ValueError):
        KernelModel(points=(0, 1), K=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_kernel_model_rejects_broken_invariance():
    K = np.diag([1.0, 2.0])
    with pytest.raises(ValueError):
        KernelModel(points=(0, 1), K=K, group=((1, 0),))


def test_kernel_model_refuses_no_points():
    with pytest.raises(ValueError, match="at least one point"):
        KernelModel(points=(), K=np.zeros((0, 0)))


def test_kernel_model_rejects_non_hermitian():
    with pytest.raises(ValueError):
        KernelModel(points=(0, 1), K=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_gns_factor_accepts_every_kernel_the_model_accepts():
    # min eigenvalue -5e-10: inside the PSD rule, clipped to zero by the factor
    K = np.ones((2, 2)) - 5e-10 * np.eye(2)
    F = gns_factor(KernelModel(points=(0, 1), K=K))
    assert np.abs(F.conj().T @ F - K).max() < 1e-9
    with pytest.raises(ValueError, match="not PSD"):
        KernelModel(points=(0, 1), K=np.ones((2, 2)) - 5e-9 * np.eye(2))


def test_gns_factor_identity_kernel():
    model = KernelModel(points=(0, 1, 2), K=np.eye(3))
    F = gns_factor(model)
    gram = F.conj().T @ F
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_gns_factor_rank_one_kernel():
    v = np.array([1.0, 2.0, -1.0j])
    model = KernelModel(points=(0, 1, 2), K=np.outer(v, v.conj()))
    F = gns_factor(model)
    cols = [F[:, j] for j in range(3)]
    # all factor vectors are parallel for a rank-one kernel
    for j in range(1, 3):
        mat = np.stack([cols[0], cols[j]])
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[1] < 1e-10 * max(s[0], 1.0)


def test_gns_factor_gram_identity_random():
    gen = rng(81)
    for _ in range(10):
        N = int(gen.integers(2, 6))
        A = gen.normal(size=(N, N)) + 1j * gen.normal(size=(N, N))
        model = KernelModel(points=tuple(range(N)), K=A @ A.conj().T)
        F = gns_factor(model)
        assert np.abs(F.conj().T @ F - model.K).max() < 1e-10


def test_gns_factor_intertwines_group_action():
    model = cyclic_kernel(5)
    F = gns_factor(model)
    perm = list(model.group[0])
    # property of the factorization: permuted points have the same Gram matrix
    G1 = F.conj().T @ F
    G2 = G1[np.ix_(perm, perm)]
    assert np.abs(G1 - G2).max() < 1e-12


# --- vacuum variance --------------------------------------------------------

def test_vacuum_variance_single_point():
    model = KernelModel(points=("a",), K=np.array([[1.0]]))
    assert abs(vacuum_field_variance([1.0], model) - 0.5) < 1e-15


def test_vacuum_variance_zero_coefficients():
    model = cyclic_kernel(4)
    assert vacuum_field_variance(np.zeros(4), model) == 0.0


def test_vacuum_variance_group_invariant():
    gen = rng(82)
    model = cyclic_kernel(5)
    perm = np.asarray(model.group[0])
    for _ in range(10):
        z = gen.normal(size=5) + 1j * gen.normal(size=5)
        permuted = np.empty_like(z)
        permuted[perm] = z
        assert abs(vacuum_field_variance(z, model)
                   - vacuum_field_variance(permuted, model)) < 1e-12


# --- Gaussian field laws ----------------------------------------------------

def test_coherent_field_vacuum_reference():
    us = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    law = coherent_gaussian_field(np.zeros(2), us)
    assert np.abs(law.mean).max() == 0.0
    assert np.abs(law.covariance - np.eye(2)).max() < 1e-15


def test_coherent_field_momentum_means():
    # mean is 2 Im<u0|u> with the inner product antilinear in u0
    u0 = np.array([0.3 + 0.7j])
    law = coherent_gaussian_field(u0, [np.array([1.0])])
    assert abs(law.mean[0] - (-2 * 0.7)) < 1e-15
    assert abs(law.covariance[0, 0] - 1.0) < 1e-15


def test_coherent_field_position_means():
    u0 = np.array([0.3 + 0.7j])
    law = coherent_gaussian_field(u0, [np.array([1.0])], family="q")
    assert abs(law.mean[0] - 2 * 0.3) < 1e-15


def test_coherent_field_rejects_complex_gram():
    us = [np.array([1.0, 0.0]), np.array([1.0j, 0.0])]
    with pytest.raises(ValueError):
        coherent_gaussian_field(np.zeros(2), us)


def test_coherent_field_general_covariance():
    gen = rng(83)
    # real-span vectors: real linear combinations of a fixed complex basis
    basis = gen.normal(size=(3, 4)) + 1j * gen.normal(size=(3, 4))
    # to keep the Gram real, use real multiples of a single complex vector
    # plus genuinely real vectors
    us = [2.0 * basis[0].real, -0.5 * basis[0].real, basis[1].real]
    law = coherent_gaussian_field(basis[2], us)
    gram = np.array([[float(np.vdot(a, b).real) for b in us] for a in us])
    assert np.abs(law.covariance - gram).max() < 1e-12


# --- jump laws ---------------------------------------------------------------

def test_levy_law_identity_matrix():
    law = levy_law(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert law.atoms == ((1.0, 1.0),)


def test_levy_law_zero_amplitude():
    law = levy_law(np.diag([1.0, 2.0]), np.zeros(2))
    assert law.atoms == ()
    t = np.linspace(-3, 3, 7)
    assert np.abs(law.characteristic_function(t) - 1.0).max() == 0.0


def test_levy_law_two_atoms():
    law = levy_law(np.diag([1.0, -2.0]), np.array([1.0, 1.0]) / np.sqrt(2))
    atoms = dict(law.atoms)
    assert abs(atoms[1.0] - 0.5) < 1e-12
    assert abs(atoms[-2.0] - 0.5) < 1e-12


def test_levy_law_rejects_non_hermitian():
    with pytest.raises(ValueError):
        levy_law(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0]))


def test_levy_law_refuses_overflowing_masses_by_name():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="amplitude u is too large"):
            levy_law(np.array([[1.0]]), np.array([351.0 + 1e300j]))


def test_levy_moments():
    law = LevyLaw(atoms=((2.0, 0.5), (-1.0, 1.5)))
    assert abs(law.mean - (2 * 0.5 - 1 * 1.5)) < 1e-15
    assert abs(law.variance - (4 * 0.5 + 1 * 1.5)) < 1e-15


# --- sampling ----------------------------------------------------------------

def test_sampling_is_reproducible():
    law = FieldLaw(mean=np.zeros(2), covariance=np.eye(2))
    a = sample(law, 5, seed=7)
    b = sample(law, 5, seed=7)
    assert np.array_equal(a, b)
    c = sample(law, 5, seed=8)
    assert not np.array_equal(a, c)


def test_gaussian_sampling_moments():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    law = FieldLaw(mean=np.array([1.0, -2.0]), covariance=cov)
    draws = sample(law, 100_000, seed=11)
    band = 3.0 * np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - law.mean) <= band)
    emp_cov = np.cov(draws.T, ddof=1)
    assert np.linalg.norm(emp_cov - cov) <= 5.0 * np.linalg.norm(cov) / np.sqrt(draws.shape[0])


def test_gaussian_sampling_rank_deficient_covariance():
    v = np.array([1.0, -1.0])
    law = FieldLaw(mean=np.zeros(2), covariance=np.outer(v, v))
    draws = sample(law, 1000, seed=12)
    # samples live on the line spanned by v
    assert np.abs(draws @ np.array([1.0, 1.0])).max() < 1e-10


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_gaussian_sampling_accepts_a_large_rank_deficient_covariance(seed):
    # rank 2 in 4 dimensions at scale 1e6: rounding leaves eigenvalues near
    # -1e-10, inside the relative PSD bound and beyond any absolute 1e-12
    A = rng(seed).normal(size=(4, 2))
    law = FieldLaw(mean=np.zeros(4), covariance=1e6 * A @ A.T)
    draws = sample(law, 1000, seed=seed)
    # the draws lie in the span of A's columns
    outside = np.linalg.qr(A, mode="complete")[0][:, 2:]
    assert np.abs(draws @ outside).max() <= 1e-6 * np.abs(draws).max()


def test_gaussian_sampling_judges_by_the_tolerance_it_is_given():
    law = FieldLaw(mean=np.zeros(2), covariance=np.diag([1.0, -1e-6]))
    with pytest.raises(ValueError, match="covariance is not PSD: min eigenvalue -1.000e-06"):
        sample(law, 10, seed=0)
    draws = sample(law, 1000, seed=0, tol=1e-3)
    assert np.all(draws[:, 1] == 0.0)


def test_gaussian_sampling_rejects_indefinite_covariance():
    law = FieldLaw(mean=np.zeros(2), covariance=np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        sample(law, 10, seed=0)


def test_levy_sampling_moments():
    law = LevyLaw(atoms=((1.0, 1.0),))
    draws = sample(law, 100_000, seed=13)
    assert abs(draws.mean() - 1.0) <= 3.0 / np.sqrt(draws.size)
    assert abs(draws.var() - 1.0) <= 5.0 / np.sqrt(draws.size)


def test_levy_sampling_takes_masses_up_to_the_poisson_limit_and_refuses_heavier_by_name():
    assert sample(LevyLaw(atoms=((1.0, POISSON_MASS_MAX),)), 2, seed=0).min() > 0
    heavy = LevyLaw(atoms=((0.5, 1.0), (-2.0, np.nextafter(POISSON_MASS_MAX, np.inf))))
    with pytest.raises(ValueError, match=r"atom at -2 has mass 9\.22e\+18"):
        sample(heavy, 2, seed=0)


def test_levy_empirical_characteristic_function():
    law = levy_law(np.diag([1.0, -2.0]), np.array([1.0, 1.0]) / np.sqrt(2))
    draws = sample(law, 100_000, seed=14)
    ts = np.linspace(-3.0, 3.0, 25)
    ecf = np.exp(1j * np.outer(ts, draws)).mean(axis=1)
    assert np.abs(ecf - law.characteristic_function(ts)).max() <= 5.0 / np.sqrt(draws.size)


def test_sample_rejects_bad_count():
    with pytest.raises(ValueError):
        sample(FieldLaw(mean=np.zeros(1), covariance=np.eye(1)), 0, seed=0)


@pytest.mark.parametrize("mean, cov", [([np.nan], [[1.0]]), ([0.0], [[np.inf]])],
                         ids=["mean", "covariance"])
def test_field_law_refuses_non_finite_moments(mean, cov):
    name = "mean" if np.isnan(mean).any() else "covariance"
    with pytest.raises(ValueError, match=f"law {name} must be finite"):
        FieldLaw(mean=mean, covariance=cov)


def test_sample_refuses_above_the_cap_before_allocating():
    law = FieldLaw(mean=np.zeros(2), covariance=np.eye(2))
    jump = LevyLaw(atoms=((1.0, 0.5),))
    tracemalloc.start()
    try:
        with pytest.raises(SampleCapError):
            sample(law, SAMPLE_CAP // 2 + 1, seed=1)
        with pytest.raises(SampleCapError):
            sample(jump, SAMPLE_CAP + 1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sample(law, 3, seed=1).shape == (3, 2)
