import json
import warnings

import numpy as np
import pytest

from quasifree import cli, fock
from quasifree.gaussian import coherent, weyl_transform
from quasifree.semigroup import QuasifreePair, evolve_state
from quasifree.symplectic import expm, symplectic_form
from quasifree.synthesis import DilationSpec, decompose, pair_from_coupling

from util import random_admissible_pair, rng


def attenuation_pair():
    K, C = pair_from_coupling([1.0], [0.0])
    return QuasifreePair(n=1, K=K, C=C)


def empty_spec(n=1):
    return DilationSpec(n=n, lindblad_terms=(), hamiltonian_terms=(),
                        K_prime=np.zeros((2 * n, 2 * n)),
                        K=np.zeros((2 * n, 2 * n)), C=np.zeros((2 * n, 2 * n)))


# --- representation ---------------------------------------------------------

def test_single_mode_lowering_matrix():
    rep = fock.build(1, 2)
    assert np.array_equal(rep.a[0], [[0.0, 1.0], [0.0, 0.0]])


def test_ccr_truncation_defect():
    rep = fock.build(1, 5)
    comm = rep.a[0] @ rep.adag[0] - rep.adag[0] @ rep.a[0]
    assert np.allclose(comm, np.diag([1, 1, 1, 1, -4]), atol=1e-14)


def test_number_operator_diagonal():
    rep = fock.build(1, 6)
    N = rep.adag[0] @ rep.a[0]
    assert np.allclose(N, np.diag(np.arange(6)), atol=1e-14)


def test_ccr_exact_below_top_level():
    # the defect of [a, a^dag] = I is confined to the top level of each mode
    rep = fock.build(2, 4)
    occ = fock._mode_occupations(rep)
    for j in range(2):
        low = occ[j] < rep.cutoff - 1
        P = np.diag(low.astype(float))
        comm = rep.a[j] @ rep.adag[j] - rep.adag[j] @ rep.a[j]
        assert np.abs((comm - np.eye(rep.dim)) @ P).max() < 1e-14


def test_cross_mode_operators_commute():
    rep = fock.build(2, 3)
    assert np.abs(rep.a[0] @ rep.adag[1] - rep.adag[1] @ rep.a[0]).max() < 1e-14


def test_quadratures_hermitian():
    rep = fock.build(1, 8)
    for M in (rep.q[0], rep.p[0]):
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


# --- vectors ----------------------------------------------------------------

def test_coherent_vector_vacuum():
    rep = fock.build(1, 10)
    assert np.allclose(fock.coherent_vector(rep, [0.0]), fock.vacuum_vector(rep))


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
    resid = rep.a[0] @ psi - alpha * psi
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
    vac = fock.vacuum_vector(rep)
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
        full = expm(fock.creator(rep, z) - fock.annihilator(rep, z))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            W = fock.weyl_matrix(rep, z)
        assert np.abs(W - full).max() <= bound


def test_weyl_matrix_is_unitary_on_the_truncated_space():
    # the truncated generator is anti-Hermitian, so its exponential is unitary
    rep = fock.build(1, 30)
    gen = rng(29)
    for _ in range(5):
        z = gen.normal(size=1) + 1j * gen.normal(size=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            W = fock.weyl_matrix(rep, z)
        assert np.abs(W.conj().T @ W - np.eye(30)).max() <= 1e-13


def test_weyl_matrix_warns_on_leakage():
    rep = fock.build(1, 4)
    with pytest.warns(UserWarning):
        fock.weyl_matrix(rep, [2.0])


# --- master equation --------------------------------------------------------

def test_lindblad_empty_spec_is_constant():
    rep = fock.build(1, 10)
    rho0 = fock.coherent_density(rep, [0.4])
    rho1 = fock.lindblad_evolve(rep, rho0, empty_spec(), 1.0, 50)
    assert np.abs(rho1 - rho0).max() < 1e-12


def test_lindblad_vacuum_is_dark_state_of_damping():
    rep = fock.build(1, 12)
    spec = decompose(*pair_from_coupling([1.0], [0.0]))
    vac = np.outer(fock.vacuum_vector(rep), fock.vacuum_vector(rep).conj())
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


def test_lindblad_trace_watchdog_catches_instability():
    # grossly under-resolved RK4 on a stiff generator must refuse, not
    # silently return garbage
    rep = fock.build(1, 25)
    spec = decompose(*pair_from_coupling([3.0], [0.0]))
    rho0 = fock.coherent_density(rep, [1.0])
    with pytest.raises(RuntimeError), np.errstate(all="ignore"):
        fock.lindblad_evolve(rep, rho0, spec, 400.0, 100)


def dense_rk4(rep, rho, spec, t, steps):
    """Textbook RK4 (k1..k4) on the dense master-equation right-hand side."""
    H = fock.hamiltonian_matrix(rep, spec.hamiltonian_terms)
    Ls = fock.lindblad_matrices(rep, spec)

    def rhs(r):
        out = -1j * (H @ r - r @ H)
        for L in Ls:
            LdL = L.conj().T @ L
            out += L @ r @ L.conj().T - 0.5 * (LdL @ r + r @ LdL)
        return out

    h = t / steps
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def random_density(gen, dim):
    W = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    rho = W @ W.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n, cutoff", [(1, 12), (2, 5)])
@pytest.mark.parametrize("couplings", [1, 2])
def test_lindblad_evolve_matches_textbook_rk4(n, cutoff, couplings):
    gen = rng(26 + 10 * n + couplings)
    pair = random_admissible_pair(gen, n, couplings=couplings)
    spec = decompose(pair.K, pair.C)
    rep = fock.build(n, cutoff)
    rho0 = random_density(gen, rep.dim)
    got = fock.lindblad_evolve(rep, rho0, spec, 0.5, 20)
    ref = dense_rk4(rep, rho0, spec, 0.5, 20)
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
    ref = dense_rk4(rep, 0.5 * (rho0 + rho0.conj().T), spec, 0.5, 20)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# each case runs the Krylov propagator over two or three chunks
@pytest.mark.parametrize("n, cutoff, t, steps, seed", [(1, 30, 0.5, 400, 31),
                                                       (2, 6, 1.0, 200, 32)])
def test_lindblad_evolve_matches_textbook_rk4_over_several_chunks(n, cutoff, t, steps, seed):
    gen = rng(seed)
    pair = random_admissible_pair(gen, n, couplings=n)
    spec = decompose(pair.K, pair.C)
    rep = fock.build(n, cutoff)
    rho0 = random_density(gen, rep.dim)
    got = fock.lindblad_evolve(rep, rho0, spec, t, steps)
    ref = dense_rk4(rep, rho0, spec, t, steps)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lindblad_evolve_matches_textbook_rk4_for_long_pure_loss():
    rep = fock.build(1, 20)
    spec = decompose(*pair_from_coupling([1.0], [0.0]))
    rho0 = fock.coherent_density(rep, [1.0])
    got = fock.lindblad_evolve(rep, rho0, spec, 5.0, 2000)
    ref = dense_rk4(rep, rho0, spec, 5.0, 2000)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_chunk_reuses_its_passing_estimate(monkeypatch):
    # one chunk covers all 400 steps and stops on its estimate: every
    # P(hH_k)^s e_1 is an estimate, at k = 4, 8, ..., and the chunk adds none
    rep = fock.build(1, 30)
    spec = decompose(*pair_from_coupling([1.0], [0.0]))
    rho0 = fock.coherent_density(rep, [1.0])
    calls = []
    power = fock._rk4_power

    def counted(X, s):
        calls.append((len(X), s))
        return power(X, s)

    def refused(*args):
        raise AssertionError("the chunk recomputed its estimate")

    monkeypatch.setattr(fock, "_rk4_power", counted)
    monkeypatch.setattr(fock, "_rk4_chunk", refused)
    rho = fock.lindblad_evolve(rep, rho0, spec, 0.5, 400)
    assert calls == [(k, 400) for k in range(4, 4 * len(calls) + 1, 4)]
    assert len(calls) >= 2
    monkeypatch.undo()
    ref = dense_rk4(rep, rho0, spec, 0.5, 400)
    assert np.abs(rho - ref).max() <= 1e-12 * np.abs(ref).max()


# --- moments ----------------------------------------------------------------

def test_vacuum_moments():
    rep = fock.build(1, 10)
    vac = np.outer(fock.vacuum_vector(rep), fock.vacuum_vector(rep).conj())
    l, m, S = fock.state_moments(rep, vac)
    assert np.abs(l).max() < 1e-14 and np.abs(m).max() < 1e-14
    assert np.abs(S - 0.5 * np.eye(2)).max() < 1e-12


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


def reference_weyl_error(state, pair, t, cutoff, steps, num_weyl, seed):
    """oracle_compare's Weyl probes at the same Philox draws, with each probe
    the scipy exponential of the full n-mode generator."""
    rep = fock.build(state.n, cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho0 = fock.coherent_density(rep, (state.m + 1j * state.l) / np.sqrt(2))
    rho_t = fock.lindblad_evolve(rep, rho0, decompose(pair.K, pair.C), t, steps)
    ref = evolve_state(state, pair, t)
    gen = np.random.Generator(np.random.Philox(seed))
    err = 0.0
    for _ in range(num_weyl):
        z = gen.normal(size=state.n) + 1j * gen.normal(size=state.n)
        z = z / max(np.linalg.norm(z), 1.0)
        W = expm(fock.creator(rep, z) - fock.annihilator(rep, z))
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
