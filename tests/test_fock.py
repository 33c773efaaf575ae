import json
import warnings

import numpy as np
import pytest

from quasifree import cli, fock
from quasifree.gaussian import coherent, weyl_transform
from quasifree.semigroup import QuasifreePair, evolve_state
from quasifree.symplectic import expm, symplectic_form
from quasifree.synthesis import DilationSpec, decompose, pair_from_coupling

from util import (coo_lindblad_operators, csr_lindbladian, dense_evolution, dense_generator,
                  kron_ladder, lindblad_operators, random_admissible_pair, rng, smeared_ladder)


def attenuation_pair():
    K, C = pair_from_coupling([1.0], [0.0])
    return QuasifreePair(n=1, K=K, C=C)


def empty_spec(n=1):
    return DilationSpec(n=n, lindblad_terms=(), hamiltonian_terms=(),
                        K_prime=np.zeros((2 * n, 2 * n)),
                        K=np.zeros((2 * n, 2 * n)), C=np.zeros((2 * n, 2 * n)))


def vacuum(rep):
    return np.eye(rep.dim, dtype=complex)[0]


# --- representation ---------------------------------------------------------

def table_ladder(rep):
    """The dense a_j and a_j^dag per mode, read off the index tables: row r
    of X_k holds weights[k, r] at columns[k, r]."""
    rows = np.arange(rep.dim)
    X = np.zeros((2 * rep.n, rep.dim, rep.dim))
    for M, col, w in zip(X, rep.columns, rep.weights):
        M[rows, col] = w
    return list(X[:rep.n]), list(X[rep.n:])


def test_single_mode_lowering_matrix():
    a, _ = table_ladder(fock.build(1, 2))
    assert np.array_equal(a[0], [[0.0, 1.0], [0.0, 0.0]])


def test_ccr_truncation_defect():
    a, adag = table_ladder(fock.build(1, 5))
    comm = a[0] @ adag[0] - adag[0] @ a[0]
    assert np.allclose(comm, np.diag([1, 1, 1, 1, -4]), atol=1e-14)


def test_number_operator_diagonal():
    a, adag = table_ladder(fock.build(1, 6))
    N = adag[0] @ a[0]
    assert np.allclose(N, np.diag(np.arange(6)), atol=1e-14)


def test_ccr_exact_below_top_level():
    # the defect of [a, a^dag] = I is confined to the top level of each mode
    rep = fock.build(2, 4)
    a, adag = table_ladder(rep)
    occ = np.unravel_index(np.arange(rep.dim), (rep.cutoff,) * rep.n)
    for j in range(2):
        low = occ[j] < rep.cutoff - 1
        P = np.diag(low.astype(float))
        comm = a[j] @ adag[j] - adag[j] @ a[j]
        assert np.abs((comm - np.eye(rep.dim)) @ P).max() < 1e-14


@pytest.mark.parametrize("n, cutoff", [(1, 2), (1, 12), (2, 5), (3, 3)])
def test_ladder_views_equal_the_kronecker_construction(n, cutoff):
    # the index tables pinned entry by entry, and a row without an entry at column r
    rep = fock.build(n, cutoff)
    a, adag = kron_ladder(n, cutoff)
    for got, ref in zip(sum(table_ladder(rep), []), a + adag):
        assert np.array_equal(got, ref)
    rows = np.arange(rep.dim)
    present = rep.weights != 0
    assert np.array_equal(rep.columns[~present], np.broadcast_to(rows, rep.columns.shape)[~present])


def test_cross_mode_operators_commute():
    a, adag = table_ladder(fock.build(2, 3))
    assert np.abs(a[0] @ adag[1] - adag[1] @ a[0]).max() < 1e-14


def test_quadratures_hermitian():
    a, adag = table_ladder(fock.build(1, 8))
    q = (a[0] + adag[0]) / np.sqrt(2)
    p = (a[0] - adag[0]) / (1j * np.sqrt(2))
    for M in (q, p):
        assert np.abs(M - M.conj().T).max() < 1e-12


def test_dimension_cap():
    with pytest.raises(fock.DimensionCapError):
        fock.build(4, 10)


def test_dimension_cap_bounds_the_krylov_basis():
    # n = 3 at cutoff 10 and n = 2 at cutoff 32 stay within reach
    assert 10**3 <= fock.DIM_CAP and 32**2 <= fock.DIM_CAP
    assert 31 * fock.DIM_CAP**2 * np.dtype(complex).itemsize <= 0.53e9
    with pytest.raises(fock.DimensionCapError):
        fock.build(2, 33)


def test_build_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        fock.build(1, 1)


def test_a_truncation_is_built_once_and_its_tables_are_read_only():
    rep = fock.build(2, 4)
    assert fock.build(2, 4) is rep
    for table in (rep.columns, rep.weights, *rep.products, rep.top_level):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1
        with pytest.raises(ValueError, match="WRITEABLE"):
            table.flags.writeable = True


def test_a_representation_keeps_its_own_copy_of_the_tables():
    rep = fock.build(1, 5)
    columns, weights = rep.columns.copy(), rep.weights.copy()
    own = fock.FockRep(n=1, cutoff=5, dim=5, columns=columns, weights=weights)
    columns[0, 0], weights[0, 0] = 4, 7.0
    assert np.array_equal(own.columns, rep.columns) and np.array_equal(own.weights, rep.weights)


# --- vectors ----------------------------------------------------------------

def test_coherent_vector_vacuum():
    rep = fock.build(1, 10)
    assert np.allclose(fock.coherent_vector(rep, [0.0]), vacuum(rep))


def test_exponential_vector_inner_products():
    rep = fock.build(1, 40)
    gen = rng(21)
    for _ in range(10):
        u = gen.normal() + 1j * gen.normal()
        v = gen.normal() + 1j * gen.normal()
        u, v = 0.9 * u / abs(u), 0.9 * v / abs(v)
        lhs = np.vdot(fock.exponential_vector(rep, [u]), fock.exponential_vector(rep, [v]))
        assert abs(lhs - np.exp(np.conj(u) * v)) < 1e-8


def test_coherent_overlaps():
    rep = fock.build(1, 40)
    gen = rng(22)
    for _ in range(10):
        a = 0.8 * (gen.normal() + 1j * gen.normal()) / np.sqrt(2)
        b = 0.8 * (gen.normal() + 1j * gen.normal()) / np.sqrt(2)
        lhs = np.vdot(fock.coherent_vector(rep, [a]), fock.coherent_vector(rep, [b]))
        rhs = np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
        assert abs(lhs - rhs) < 1e-8


def test_coherent_vector_is_lowering_eigenvector():
    rep = fock.build(1, 30)
    alpha = 0.7 - 0.4j
    psi = fock.coherent_vector(rep, [alpha])
    resid = table_ladder(rep)[0][0] @ psi - alpha * psi
    # the defect lives at the top level only
    assert np.abs(resid[:-1]).max() < 1e-10


def test_multimode_coherent_moments():
    rep = fock.build(2, 12)
    alpha = np.array([0.5, -0.3 + 0.2j])
    rho = fock.coherent_density(rep, alpha)
    l, m, S = fock.state_moments(rep, rho)
    assert np.allclose(m, np.sqrt(2) * alpha.real, atol=1e-9)
    assert np.allclose(l, np.sqrt(2) * alpha.imag, atol=1e-9)
    assert np.abs(S - 0.5 * np.eye(4)).max() < 1e-9


# --- Weyl matrices ----------------------------------------------------------

def test_weyl_matrix_zero_is_identity():
    rep = fock.build(1, 12)
    assert np.allclose(fock.weyl_matrix(rep, [0.0]), np.eye(12), atol=1e-14)


def test_weyl_multiplication_relation():
    # displacements up to |u| + |v| = 2 spread number states far upward, so
    # the 1e-6 contract holds on levels well below the cutoff
    rep = fock.build(1, 40)
    gen = rng(23)
    occ = np.arange(40)
    P_low = np.diag((occ < 8).astype(float))
    for _ in range(5):
        u = gen.normal() + 1j * gen.normal()
        v = gen.normal() + 1j * gen.normal()
        u, v = u / max(abs(u), 1), v / max(abs(v), 1)
        Wu = fock.weyl_matrix(rep, [u])
        Wv = fock.weyl_matrix(rep, [v])
        Wuv = fock.weyl_matrix(rep, [u + v])
        phase = np.exp(-1j * np.imag(np.conj(u) * v))
        assert np.abs((Wu @ Wv - phase * Wuv) @ P_low).max() < 1e-6


def test_weyl_vacuum_expectation():
    rep = fock.build(1, 40)
    gen = rng(24)
    vac = vacuum(rep)
    for _ in range(8):
        z = gen.normal() + 1j * gen.normal()
        z /= max(abs(z), 1.0)
        val = np.vdot(vac, fock.weyl_matrix(rep, [z]) @ vac)
        assert abs(val - np.exp(-0.5 * abs(z) ** 2)) < 1e-8


def test_weyl_unitarity_defect_on_low_levels():
    rep = fock.build(1, 40)
    occ = np.arange(40)
    P_low = np.diag((occ < 20).astype(float))
    W = fock.weyl_matrix(rep, [0.6 + 0.8j])
    assert np.abs((W.conj().T @ W - np.eye(40)) @ P_low).max() < 1e-6


@pytest.mark.parametrize("n, cutoff", [(2, 6), (3, 4), (1, 30), (1, 40), (2, 8)])
def test_weyl_matrix_matches_full_expm(n, cutoff):
    # the per-mode eigenbasis form against the exponential of the full
    # generator; the rounding of both grows with the cutoff
    bound = 1e-14 if cutoff <= 6 else 5e-14
    rep = fock.build(n, cutoff)
    gen = rng(28 + n)
    for _ in range(3):
        z = 0.8 * (gen.normal(size=n) + 1j * gen.normal(size=n)) / np.sqrt(n)
        full = expm(smeared_ladder(rep, -z, z))
        assert np.abs(fock.weyl_matrix(rep, z) - full).max() <= bound


def test_weyl_matrix_is_unitary_on_the_truncated_space():
    # the truncated generator is anti-Hermitian, so its exponential is unitary
    rep = fock.build(1, 30)
    gen = rng(29)
    for _ in range(5):
        W = fock.weyl_matrix(rep, gen.normal(size=1) + 1j * gen.normal(size=1))
        assert np.abs(W.conj().T @ W - np.eye(30)).max() <= 1e-13


def test_quadrature_eigenbasis_is_computed_once_per_cutoff_on_the_first_probe():
    fock._quadrature_eigenbasis.cache_clear()
    reps = [fock.build(1, 9), fock.build(2, 9)]
    assert fock._quadrature_eigenbasis.cache_info().currsize == 0
    for rep in reps:
        fock.weyl_matrix(rep, [0.3j] * rep.n)
    info = fock._quadrature_eigenbasis.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    mu, V = fock._quadrature_eigenbasis(9)
    assert not mu.flags.writeable and not V.flags.writeable


def test_weyl_matrix_leaks_without_warning_and_leakage_check_judges_it():
    # |z| = 2 at cutoff 4: the displaced vacuum W e_0 leaks far above the bound
    rep = fock.build(1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W = fock.weyl_matrix(rep, [2.0])
        batch = fock.weyl_matrix(rep, [[0.0], [2.0], [0.1]])
    leak = fock.leakage_check(rep, W[:, 0])
    assert leak.passed is False and leak.value > 100 * fock.LEAKAGE_BOUND
    assert [fock.leakage_check(rep, Wz[:, 0]).passed for Wz in batch] == [True, False, True]


@pytest.mark.parametrize("n, cutoff", [(1, 12), (2, 5)])
def test_batched_weyl_matrices_equal_the_single_probes(n, cutoff):
    rep = fock.build(n, cutoff)
    gen = rng(27 + n)
    zs = 0.5 * (gen.normal(size=(4, n)) + 1j * gen.normal(size=(4, n)))
    zs[0] = 0.0
    W = fock.weyl_matrix(rep, zs)
    assert W.shape == (4, rep.dim, rep.dim)
    for Wz, z in zip(W, zs):
        assert np.abs(Wz - fock.weyl_matrix(rep, z)).max() <= 1e-15
    assert fock.weyl_matrix(rep, zs[:0]).shape == (0, rep.dim, rep.dim)
    with pytest.raises(ValueError, match=f"probes of length {n}"):
        fock.weyl_matrix(rep, np.zeros((2, n + 1)))


# --- master equation --------------------------------------------------------

def test_lindblad_empty_spec_is_constant():
    rep = fock.build(1, 10)
    rho0 = fock.coherent_density(rep, [0.4])
    rho1 = fock.lindblad_evolve(rep, rho0, empty_spec(), 1.0, 50)
    assert np.abs(rho1 - rho0).max() < 1e-12


def test_lindblad_vacuum_is_dark_state_of_damping():
    rep = fock.build(1, 12)
    spec = decompose(*pair_from_coupling([1.0], [0.0]))
    vac = np.outer(vacuum(rep), vacuum(rep).conj())
    rho1 = fock.lindblad_evolve(rep, vac, spec, 2.0, 200)
    assert np.abs(rho1 - vac).max() < 1e-12


def test_lindblad_preserves_trace_and_hermiticity():
    rep = fock.build(1, 20)
    gen = rng(25)
    u = 0.6 * (gen.normal(size=1) + 1j * gen.normal(size=1))
    v = 0.4 * (gen.normal(size=1) + 1j * gen.normal(size=1))
    spec = decompose(*pair_from_coupling(u, v))
    rho0 = fock.coherent_density(rep, [0.5])
    rho = fock.lindblad_evolve(rep, rho0, spec, 2.0, 1000)
    assert abs(np.trace(rho) - 1.0) < 1e-8
    assert np.abs(rho - rho.conj().T).max() < 1e-8
    fock.validate_density(rho, tol=1e-7)


def test_lindblad_damping_matches_closed_form():
    rep = fock.build(1, 30)
    pair = attenuation_pair()
    spec = decompose(pair.K, pair.C)
    rho0 = fock.coherent_density(rep, [1.0])
    rho1 = fock.lindblad_evolve(rep, rho0, spec, 1.0, 2000)
    l, m, S = fock.state_moments(rep, rho1)
    assert abs(m[0] - np.sqrt(2) * np.exp(-0.5)) < 1e-5
    assert abs(l[0]) < 1e-5
    assert np.abs(S - 0.5 * np.eye(2)).max() < 1e-5


def test_lindblad_rejects_negative_time():
    rep = fock.build(1, 6)
    rho0 = fock.coherent_density(rep, [0.0])
    with pytest.raises(ValueError):
        fock.lindblad_evolve(rep, rho0, empty_spec(), -1.0, 10)


def test_lindblad_non_finite_time_is_refused_before_any_work(monkeypatch):
    rep = fock.build(1, 6)
    rho0 = fock.coherent_density(rep, [0.0])

    def refused(*args):
        raise AssertionError("operators assembled for a non-finite time")
    monkeypatch.setattr(fock, "_lindblad_operators", refused)
    for t in (np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                fock.lindblad_evolve(rep, rho0, empty_spec(), t, 10)


def stiff_loss():
    """Damping at rate 9 from the coherent state of amplitude 1, cutoff 25."""
    rep = fock.build(1, 25)
    spec = decompose(*pair_from_coupling([3.0], [0.0]))
    return rep, spec, fock.coherent_density(rep, [1.0])


def test_lindblad_long_stiff_loss_reaches_the_vacuum():
    rep, spec, rho0 = stiff_loss()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = fock.lindblad_evolve(rep, rho0, spec, 400.0, 100)
    vac = np.outer(vacuum(rep), vacuum(rep).conj())
    assert np.abs(rho - vac).max() <= 1e-12


def test_lindblad_refuses_more_substeps_than_steps():
    rep, spec, rho0 = stiff_loss()
    with pytest.raises(RuntimeError, match="steps = 1 "):
        fock.lindblad_evolve(rep, rho0, spec, 400.0, 1)


def test_lindblad_refuses_a_substep_below_the_resolution_of_t():
    # e^{tL} rho0 is the vacuum, but the first substeps are lost in the
    # rounding of t = 1e50; the step control neither warns nor overflows
    rep, spec, rho0 = stiff_loss()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="cannot advance"):
            fock.lindblad_evolve(rep, rho0, spec, 1e50, 10**60)


def count_expm(monkeypatch):
    """A list that grows by one entry per scipy expm the oracle takes."""
    calls, expm = [], fock.scipy.linalg.expm

    def counted(A):
        calls.append(A.shape)
        return expm(A)
    monkeypatch.setattr(fock.scipy.linalg, "expm", counted)
    return calls


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_a_benchmark_shaped_job_tests_its_estimate_at_most_twice(monkeypatch, seed):
    # one mode at cutoff 30 from |alpha| = 1 over t = 0.5, the pair drawn at
    # scale 0.5: a single substep of 16-28 basis vectors, whose estimate is
    # tested only once its leading term is within 10 times the tolerance
    gen = rng(seed)
    pair = random_admissible_pair(gen, 1, couplings=1, coupling_scale=0.5, symp_scale=0.5)
    rep = fock.build(1, 30)
    psi0 = fock.coherent_vector(rep, np.exp(2j * np.pi * gen.uniform(size=1)))
    calls = count_expm(monkeypatch)
    got = fock.lindblad_evolve(rep, psi0, decompose(pair.K, pair.C), 0.5, 400)
    assert 1 <= len(calls) <= 2
    ref = dense_evolution(rep, np.outer(psi0, psi0.conj()), decompose(pair.K, pair.C), 0.5)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def closed_pair_spec():
    """The one-mode closed generator J diag(1, 0.5), with no coupling."""
    return decompose(symplectic_form(1) @ np.diag([1.0, 0.5]), np.zeros((2, 2)))


def test_closed_dynamics_takes_substeps_from_its_error_estimate(monkeypatch):
    # doubling the last substep and halving on failure took 1,155
    # exponentials; the result is compared in test_long_horizons_*
    rep = fock.build(1, 10)
    calls = count_expm(monkeypatch)
    fock.lindblad_evolve(rep, fock.coherent_density(rep, [0.5]), closed_pair_spec(), 100.0, 10**4)
    assert len(calls) <= 400


@pytest.mark.parametrize("t", [10.0, 100.0])
@pytest.mark.parametrize("kind", ["closed", "pure_loss"])
def test_long_horizons_match_the_dense_exponential(kind, t):
    rep = fock.build(1, 10)
    if kind == "closed":
        spec, rho0 = closed_pair_spec(), fock.coherent_density(rep, [0.5])
    else:
        spec = decompose(*pair_from_coupling([1.0], [0.0]))
        rho0 = fock.coherent_density(rep, [1 / np.sqrt(2)])
    got = fock.lindblad_evolve(rep, rho0, spec, t, 10**4)
    ref = dense_evolution(rep, rho0, spec, t)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_a_state_vector_evolves_as_its_density():
    gen = rng(44)
    pair = random_admissible_pair(gen, 2, couplings=2)
    spec = decompose(pair.K, pair.C)
    rep = fock.build(2, 5)
    psi = gen.normal(size=rep.dim) + 1j * gen.normal(size=rep.dim)
    psi /= np.linalg.norm(psi)
    got = fock.lindblad_evolve(rep, psi, spec, 0.5, 20)
    ref = fock.lindblad_evolve(rep, np.outer(psi, psi.conj()), spec, 0.5, 20)
    assert np.abs(got - ref).max() <= 1e-15
    with pytest.raises(ValueError, match="squared norm"):
        fock.lindblad_evolve(rep, 1.001 * psi, spec, 0.5, 20)


def random_density(gen, dim):
    W = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    rho = W @ W.conj().T
    return rho / np.trace(rho).real


def spec_of_kind(gen, n, kind):
    if kind == "coupled":
        pair = random_admissible_pair(gen, n, couplings=2)
        return decompose(pair.K, pair.C)
    if kind == "closed":
        spec = decompose(random_admissible_pair(gen, n, couplings=0).K, np.zeros((2 * n, 2 * n)))
        assert spec.lindblad_terms == () and spec.hamiltonian_terms != ()
        return spec
    u = gen.normal(size=n) + 1j * gen.normal(size=n)
    v = 0.5 * (gen.normal(size=n) + 1j * gen.normal(size=n))
    spec = decompose(*pair_from_coupling(u, v))
    assert spec.hamiltonian_terms == () and len(spec.lindblad_terms) == 1
    return spec


@pytest.mark.parametrize("kind", ["coupled", "closed", "dissipative"])
@pytest.mark.parametrize("n, cutoff", [(1, 12), (2, 5), (3, 3)])
def test_assembled_operators_equal_the_dense_formula(n, cutoff, kind):
    # vstack(A, L_1..L_m) and hstack(L_1..L_m), A = -iH - (1/2) sum_j L_j^dag L_j,
    # with one entry per column in every row and no stored zeros
    gen = rng(40 + 3 * n)
    spec = spec_of_kind(gen, n, kind)
    rep = fock.build(n, cutoff)
    stacked, side_by_side = lindblad_operators(rep, spec)
    H, Ls = dense_generator(rep, spec)
    A = -1j * H - 0.5 * sum((L.conj().T @ L for L in Ls), np.zeros_like(H))
    for got, ref in [(stacked, np.vstack([A, *Ls])),
                     (side_by_side, np.hstack([np.zeros((rep.dim, 0)), *Ls]))]:
        assert got.shape == ref.shape and got.has_canonical_format and np.all(got.data != 0)
        assert np.abs(got.toarray() - ref).max(initial=0.0) <= 1e-14 * np.abs(ref).max(initial=0.0)


@pytest.mark.parametrize("n, cutoff", [(1, 12), (2, 5), (3, 3)])
def test_cached_patterns_refill_like_a_fresh_coo_assembly(n, cutoff):
    # one representation serves specs of 0, 1 and 2 couplings and a pure
    # loss whose a^dag slots are all zero, in turn and back again; each
    # fill drops its own zeros and leaves the cached patterns as they were
    gen = rng(40 + 3 * n)
    specs = [spec_of_kind(gen, n, kind) for kind in ("closed", "dissipative", "coupled")]
    specs.append(decompose(*pair_from_coupling(np.eye(n)[0], np.zeros(n))))
    rep = fock.build(n, cutoff)
    for spec in specs + specs[::-1]:
        for got, ref in zip(lindblad_operators(rep, spec), coo_lindblad_operators(rep, spec)):
            assert got.shape == ref.shape and np.all(got.data != 0)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.all(np.abs(got.data - ref.data) <= 3.5e-16 * np.abs(ref.data))


@pytest.mark.parametrize("kind", ["coupled", "closed", "dissipative"])
@pytest.mark.parametrize("n, cutoff", [(1, 12), (2, 5), (3, 3)])
def test_the_kernel_lindbladian_is_bitwise_the_csr_array_formula(n, cutoff, kind):
    # two calls of scipy's private CSR kernel into reused buffers round as
    # csr_array @ and the conjugate-transpose pass do; a change in that
    # kernel fails here
    gen = rng(40 + 3 * n)
    spec = spec_of_kind(gen, n, kind)
    rep = fock.build(n, cutoff)
    apply, reference = fock._lindbladian(rep, spec), csr_lindbladian(rep, spec)
    got, want = np.full((2, rep.dim, rep.dim), np.nan, dtype=complex)
    for _ in range(3):
        y = random_density(gen, rep.dim)
        apply(y, got)
        reference(y, want)
        assert got.tobytes() == want.tobytes()


# (n, cutoff, amplitude, t, steps) of the two benchmark job shapes
BENCHMARK_JOBS = [(1, 30, 1.0, 0.5, 400), (2, 8, 0.3, 0.25, 200)]


@pytest.mark.parametrize("n, cutoff, amplitude, t, steps", BENCHMARK_JOBS)
def test_lindblad_evolve_is_bitwise_the_csr_array_path(monkeypatch, n, cutoff, amplitude, t,
                                                       steps):
    gen = rng(90 + n)
    pair = random_admissible_pair(gen, n, couplings=n, coupling_scale=0.5 / n)
    spec = decompose(pair.K, pair.C)
    rep = fock.build(n, cutoff)
    psi0 = fock.coherent_vector(rep, amplitude * np.exp(2j * np.pi * gen.uniform(size=n)))
    got = fock.lindblad_evolve(rep, psi0, spec, t, steps)
    monkeypatch.setattr(fock, "_lindbladian", csr_lindbladian)
    want = fock.lindblad_evolve(rep, psi0, spec, t, steps)
    assert np.isfinite(got).all() and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, cutoff", [(1, 12), (2, 5), (3, 3)])
def test_dense_builders_equal_the_kronecker_reference(n, cutoff):
    # hamiltonian_matrix and lindblad_matrices are no part of the oracle;
    # they stay while perfbench/tracer.py names them
    spec = spec_of_kind(rng(40 + 3 * n), n, "coupled")
    rep = fock.build(n, cutoff)
    H, Ls = dense_generator(rep, spec)
    got = [fock.hamiltonian_matrix(rep, spec.hamiltonian_terms), *fock.lindblad_matrices(rep, spec)]
    assert len(got) == 1 + len(Ls) == 1 + spec.noise_dimension
    for M, ref in zip(got, [H, *Ls]):
        assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()


def shuffled(rep, perm):
    """rep on its basis reordered so that state i is rep's state perm[i]: row
    i of X_k is rep's row perm[i], with its column renamed to match."""
    inverse = np.argsort(perm)
    return fock.FockRep(n=rep.n, cutoff=rep.cutoff, dim=rep.dim,
                        columns=inverse[rep.columns[:, perm]], weights=rep.weights[:, perm])


def conjugated_blocks(M, perm, d):
    """M as a dense array with each d x d block B replaced by P B P^T,
    (P B P^T)[i, j] = B[perm[i], perm[j]]."""
    rows, cols = (d * np.arange(size // d)[:, None] + perm for size in M.shape)
    return M.toarray()[np.ix_(rows.ravel(), cols.ravel())]


@pytest.mark.parametrize("kind", ["coupled", "closed", "dissipative"])
def test_the_oracle_does_not_depend_on_the_order_of_the_basis(kind):
    # the same operators, leakage mask, moments and evolution on a shuffled
    # basis, up to the permutation
    gen = rng(61)
    spec = spec_of_kind(gen, 2, kind)
    rep = fock.build(2, 5)
    perm = gen.permutation(rep.dim)
    shuf = shuffled(rep, perm)
    for got, ref in zip(lindblad_operators(shuf, spec), lindblad_operators(rep, spec)):
        ref = conjugated_blocks(ref, perm, rep.dim)
        assert got.shape == ref.shape and got.has_canonical_format and np.all(got.data != 0)
        assert np.abs(got.toarray() - ref).max(initial=0.0) <= 1e-15 * np.abs(ref).max(initial=0.0)
    assert np.array_equal(shuf.top_level, rep.top_level[perm])
    rho0 = random_density(gen, rep.dim)
    for got, ref in zip(fock.state_moments(shuf, rho0[np.ix_(perm, perm)]),
                        fock.state_moments(rep, rho0)):
        assert np.abs(got - ref).max() <= 1e-13
    got = fock.lindblad_evolve(shuf, rho0[np.ix_(perm, perm)], spec, 0.5, 20)
    ref = fock.lindblad_evolve(rep, rho0, spec, 0.5, 20)
    assert np.abs(got - ref[np.ix_(perm, perm)]).max() <= 1e-13


@pytest.mark.parametrize("column", [7, -3])
def test_a_column_outside_the_basis_is_refused(column):
    # a malformed table raises at construction, before any operator holds an entry outside it
    rep = fock.build(1, 6)
    columns = rep.columns.copy()
    columns[0, 2] = column
    with pytest.raises(ValueError, match="outside the basis"):
        fock.FockRep(n=1, cutoff=6, dim=6, columns=columns, weights=rep.weights)


def test_a_negative_column_cannot_reach_state_moments():
    # a column of -2 would wrap in the gathers and misread the position mean
    rep = fock.build(1, 6)
    rho = fock.coherent_density(rep, [0.3])
    columns = rep.columns.copy()
    columns[0, 2] = -2
    with pytest.raises(ValueError, match="outside the basis"):
        fock.state_moments(fock.FockRep(n=1, cutoff=6, dim=6, columns=columns,
                                        weights=rep.weights), rho)


@pytest.mark.parametrize("shape", [(1, 6), (2, 5), (3, 6)])
def test_tables_of_the_wrong_shape_are_refused(shape):
    rep = fock.build(1, 6)
    with pytest.raises(ValueError, match="ladder tables must have shape"):
        fock.FockRep(n=1, cutoff=6, dim=6, columns=np.zeros(shape, dtype=int),
                     weights=rep.weights)


@pytest.mark.parametrize("n, cutoff", [(1, 12), (2, 5)])
@pytest.mark.parametrize("couplings", [1, 2])
def test_lindblad_evolve_matches_textbook_rk4(n, cutoff, couplings):
    # the *_matches_textbook_rk4* names keep the ids of these cases; each
    # compares with the exact exponential of the dense superoperator
    gen = rng(26 + 10 * n + couplings)
    pair = random_admissible_pair(gen, n, couplings=couplings)
    spec = decompose(pair.K, pair.C)
    rep = fock.build(n, cutoff)
    rho0 = random_density(gen, rep.dim)
    got = fock.lindblad_evolve(rep, rho0, spec, 0.5, 20)
    ref = dense_evolution(rep, rho0, spec, 0.5)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_lindblad_evolve_symmetrizes_nearly_hermitian_input():
    gen = rng(27)
    pair = random_admissible_pair(gen, 2, couplings=2)
    spec = decompose(pair.K, pair.C)
    rep = fock.build(2, 5)
    rho0 = random_density(gen, rep.dim)
    E = gen.normal(size=rho0.shape) + 1j * gen.normal(size=rho0.shape)
    E = E - E.conj().T
    rho0 = rho0 + 1e-11 * E / np.abs(E).max()
    fock.validate_density(rho0)
    got = fock.lindblad_evolve(rep, rho0, spec, 0.5, 20)
    assert np.abs(got - got.conj().T).max() <= 1e-14
    ref = dense_evolution(rep, 0.5 * (rho0 + rho0.conj().T), spec, 0.5)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# each case takes more than one substep
@pytest.mark.parametrize("n, cutoff, t, steps, seed", [(1, 30, 0.5, 400, 31),
                                                       (2, 6, 1.0, 200, 32)])
def test_lindblad_evolve_matches_textbook_rk4_over_several_chunks(n, cutoff, t, steps, seed):
    gen = rng(seed)
    pair = random_admissible_pair(gen, n, couplings=n)
    spec = decompose(pair.K, pair.C)
    rep = fock.build(n, cutoff)
    rho0 = random_density(gen, rep.dim)
    got = fock.lindblad_evolve(rep, rho0, spec, t, steps)
    ref = dense_evolution(rep, rho0, spec, t)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lindblad_evolve_matches_textbook_rk4_for_long_pure_loss():
    rep = fock.build(1, 20)
    spec = decompose(*pair_from_coupling([1.0], [0.0]))
    rho0 = fock.coherent_density(rep, [1.0])
    got = fock.lindblad_evolve(rep, rho0, spec, 5.0, 2000)
    ref = dense_evolution(rep, rho0, spec, 5.0)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# --- moments ----------------------------------------------------------------

def test_vacuum_moments():
    rep = fock.build(1, 10)
    vac = np.outer(vacuum(rep), vacuum(rep).conj())
    l, m, S = fock.state_moments(rep, vac)
    assert np.abs(l).max() < 1e-14 and np.abs(m).max() < 1e-14
    assert np.abs(S - 0.5 * np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("n, cutoff", [(1, 12), (2, 5), (3, 3)])
def test_state_moments_match_the_dense_trace_formula(n, cutoff):
    gen = rng(50 + n)
    rep = fock.build(n, cutoff)
    rho = random_density(gen, rep.dim)
    a, adag = kron_ladder(n, cutoff)
    X = ([(aj - adj) / (1j * np.sqrt(2)) for aj, adj in zip(a, adag)]
         + [-(aj + adj) / np.sqrt(2) for aj, adj in zip(a, adag)])
    means = np.array([np.trace(Xi @ rho) for Xi in X]).real
    T = np.array([[np.trace(Xi @ Xj @ rho) for Xj in X] for Xi in X])
    S = 0.5 * (T + T.T).real - np.outer(means, means)
    l, m, S_got = fock.state_moments(rep, rho)
    assert np.abs(np.concatenate([l, -m]) - means).max() <= 1e-13
    assert np.abs(S_got - S).max() <= 1e-13


@pytest.mark.parametrize("k", [0, 1, 3])
def test_number_state_moments(k):
    rep = fock.build(1, 10)
    vec = np.zeros(rep.dim, dtype=complex)
    vec[k] = 1.0
    l, m, S = fock.state_moments(rep, np.outer(vec, vec.conj()))
    assert np.abs(l).max() < 1e-12 and np.abs(m).max() < 1e-12
    assert np.abs(S - (k + 0.5) * np.eye(2)).max() < 1e-12


# --- end-to-end comparison --------------------------------------------------

def test_oracle_compare_attenuation():
    rep = fock.oracle_compare(coherent([1.0]), attenuation_pair(), 1.0,
                              cutoff=30, steps=2000)
    assert rep.max_error < 1e-5


def test_oracle_compare_zero_time():
    rep = fock.oracle_compare(coherent([1.0]), attenuation_pair(), 0.0,
                              cutoff=25, steps=1)
    assert rep.max_error < 1e-10


def test_oracle_compare_rotation_quarter_period():
    omega = 0.9
    J = symplectic_form(1)
    pair = QuasifreePair(n=1, K=omega * J, C=np.zeros((2, 2)))
    t = np.pi / (2 * omega)
    rep = fock.oracle_compare(coherent([1.0]), pair, t, cutoff=30, steps=3000)
    assert rep.max_error < 1e-5


# quadratic forms on (p_1, p_2, -q_1, -q_2): p_1 p_2 + q_1 q_2 and q_1 q_2 - p_1 p_2
BEAM_SPLITTER = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
TWO_MODE_SQUEEZER = np.kron(np.diag([-1.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("lossy", [False, True], ids=["closed", "lossy"])
@pytest.mark.parametrize("G, rate", [(BEAM_SPLITTER, 1.0), (TWO_MODE_SQUEEZER, 0.3)],
                         ids=["beam_splitter", "two_mode_squeezing"])
def test_oracle_compare_two_mode_couplings(G, rate, lossy):
    K = rate * symplectic_form(2) @ G
    C = np.zeros((4, 4))
    if lossy:
        K_loss, C = pair_from_coupling([0.5, 0.0], [0.0, 0.0])
        K = K + K_loss
    pair = QuasifreePair(n=2, K=K, C=C)
    rep = fock.oracle_compare(coherent([0.3, 0.2j]), pair, 0.5, cutoff=8, steps=200)
    assert rep.max_error < 1e-5


def test_oracle_compare_three_mode_chain():
    # beam splitters between modes 1-2 and 2-3 (g = 0.6), loss |u|^2 = 0.64 on mode 3
    chain = np.zeros((3, 3))
    chain[0, 1] = chain[1, 0] = chain[1, 2] = chain[2, 1] = 1.0
    K_loss, C = pair_from_coupling([0.0, 0.0, 0.8], [0.0, 0.0, 0.0])
    K = 0.6 * symplectic_form(3) @ np.kron(np.eye(2), chain) + K_loss
    pair = QuasifreePair(n=3, K=K, C=C)
    report = fock.oracle_compare(coherent([0.3, 0.2j, 0.0]), pair, 0.5, cutoff=7, steps=100)
    assert report.max_error <= 1e-6
    assert report.leakage <= 1e-8


def reference_weyl_error(state, pair, t, cutoff, steps, num_weyl, seed):
    """oracle_compare's Weyl probes at the same Philox draws, with each probe
    the scipy exponential of the full n-mode generator."""
    rep = fock.build(state.n, cutoff)
    rho0 = fock.coherent_density(rep, (state.m + 1j * state.l) / np.sqrt(2))
    rho_t = fock.lindblad_evolve(rep, rho0, decompose(pair.K, pair.C), t, steps)
    ref = evolve_state(state, pair, t)
    gen = np.random.Generator(np.random.Philox(seed))
    err = 0.0
    for _ in range(num_weyl):
        z = gen.normal(size=state.n) + 1j * gen.normal(size=state.n)
        z = z / max(np.linalg.norm(z), 1.0)
        W = expm(smeared_ladder(rep, -z, z))
        err = max(err, abs(np.sum(rho_t.T * W) - weyl_transform(ref, z)))
    return err


@pytest.mark.parametrize("n, cutoff, steps, amplitude, scale", [(1, 30, 400, 1.0, 0.5),
                                                                (2, 8, 200, 0.3, 0.3)])
def test_oracle_weyl_error_matches_full_expm_probes(n, cutoff, steps, amplitude, scale):
    gen = rng(30 + n)
    pair = random_admissible_pair(gen, n, couplings=n, coupling_scale=scale, symp_scale=scale)
    state = coherent(amplitude * np.exp(2j * np.pi * gen.uniform(size=n)))
    report = fock.oracle_compare(state, pair, 0.5, cutoff=cutoff, steps=steps,
                                 num_weyl=5, seed=77)
    ref = reference_weyl_error(state, pair, 0.5, cutoff, steps, num_weyl=5, seed=77)
    assert abs(report.weyl_error - ref) <= 1e-14


def test_oracle_probes_are_the_draws_of_one_probe_at_a_time(monkeypatch):
    # the batched draw gives the probes of a loop that draws the real and
    # imaginary parts of one probe and scales it by its norm when above 1
    probes, weyl_matrix = [], fock.weyl_matrix

    def recorded(rep, z):
        probes.append(np.array(z))
        return weyl_matrix(rep, z)
    monkeypatch.setattr(fock, "weyl_matrix", recorded)
    fock.oracle_compare(coherent([0.3]), attenuation_pair(), 0.25, cutoff=12, num_weyl=8,
                        seed=77)
    gen = np.random.Generator(np.random.Philox(77))
    ref, norms = [], []
    for _ in range(8):
        z = gen.normal(size=1) + 1j * gen.normal(size=1)
        norms.append(np.linalg.norm(z))
        ref.append(z / norms[-1] if norms[-1] > 1.0 else z)
    assert min(norms) < 1.0 < max(norms)
    assert len(probes) == 1
    assert np.array_equal(probes[0].view(np.uint64), np.array(ref).view(np.uint64))


def test_oracle_truncation_monotonicity():
    errors = []
    for cutoff in (15, 25, 35):
        rep = fock.oracle_compare(coherent([1.0]), attenuation_pair(), 1.0,
                                  cutoff=cutoff, steps=1000)
        errors.append(rep.max_error)
    # decreasing, or already at the integrator floor
    assert errors[1] <= errors[0] + 1e-9
    assert errors[2] <= errors[1] + 1e-9


def test_oracle_refuses_leaky_state():
    with pytest.raises(fock.LeakageError):
        fock.oracle_compare(coherent([3.5]), attenuation_pair(), 0.5,
                            cutoff=12, steps=100)


# alpha = 1 at cutoff 11 leaks 1.0e-7 into the top level but loses 1.0e-8
# past it; at |alpha| ~ 42 the truncated vector underflows to zero
@pytest.mark.parametrize("alpha, cutoff, kept", [(1.0, 11, "0.99999998"),
                                                  (60 / np.sqrt(2), 8, "0 ")])
def test_oracle_refuses_an_initial_state_that_loses_mass_past_the_cutoff(alpha, cutoff, kept):
    with pytest.raises(fock.LeakageError, match=f"keeps mass {kept}.* at cutoff {cutoff}") as err:
        fock.oracle_compare(coherent([alpha]), attenuation_pair(), 0.5, cutoff=cutoff, steps=100)
    assert "density matrix trace" not in str(err.value)


def test_oracle_checks_its_initial_state_through_its_vector(monkeypatch):
    def refused(*args):
        raise AssertionError("a d x d eigenvalue check of the oracle's own initial state")
    monkeypatch.setattr(fock, "psd_check", refused)
    report = fock.oracle_compare(coherent([1.0]), attenuation_pair(), 0.5, cutoff=25, steps=100)
    assert report.check.passed


def test_oracle_reads_each_leakage_once(monkeypatch):
    # one top-level population for psi0 (its refusal) and one for rho_t
    calls, population = [], fock.top_level_population

    def counted(rep, state):
        calls.append(np.ndim(state))
        return population(rep, state)
    monkeypatch.setattr(fock, "top_level_population", counted)
    for t in (0.25, 0.5):
        fock.oracle_compare(coherent([0.5]), attenuation_pair(), t, cutoff=12, steps=100)
    assert calls == [1, 2, 1, 2]


def test_oracle_takes_its_closed_form_weyl_values_in_one_call(monkeypatch):
    calls, transform = [], fock.weyl_transform

    def counted(state, z, tol):
        calls.append(np.shape(z))
        return transform(state, z, tol)
    monkeypatch.setattr(fock, "weyl_transform", counted)
    report = fock.oracle_compare(coherent([0.5]), attenuation_pair(), 0.25, cutoff=12,
                                 steps=100, num_weyl=5)
    assert calls == [(5, 1)] and report.check.passed


def test_oracle_refuses_non_coherent_state():
    from quasifree.gaussian import GaussianState
    squeezed = GaussianState(n=1, l=[0.0], m=[0.0], S=np.diag([1.0, 0.25]))
    with pytest.raises(ValueError):
        fock.oracle_compare(squeezed, attenuation_pair(), 0.5)


def test_write_moment_csv(tmp_path):
    # the trivial semigroup (K = C = 0) keeps the state, so the rows are known
    scenario = {"command": "evolve", "pair": {"n": 1, "K": np.zeros((2, 2)), "C": np.zeros((2, 2))},
                "state": {"n": 1, "l": [1.0], "m": [1.0], "S": np.eye(2)},
                "times": [0.0, 1.0], "csv": "traj.csv"}
    scenario = json.loads(json.dumps(scenario, default=cli._json_default))
    _, code = cli.run_scenario(scenario, str(tmp_path))
    assert code == 0
    lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
    assert lines[0] == "t,l1,m1,S11,S12,S21,S22"
    assert len(lines) == 3
    assert [float(x) for x in lines[2].split(",")] == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("n, cutoff", [(1, 8), (2, 4)])
def test_top_level_population_of_a_density_is_the_trace_of_its_top_block(n, cutoff):
    rep = fock.build(n, cutoff)
    gen = np.random.default_rng(90 + n)
    A = gen.normal(size=(rep.dim, rep.dim)) + 1j * gen.normal(size=(rep.dim, rep.dim))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    top = rep.top_level
    block = float(np.real(np.trace(rho[np.ix_(top, top)])))
    assert fock.top_level_population(rep, rho) == block > 0.0
