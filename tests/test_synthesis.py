import dataclasses
import json

import numpy as np
import pytest

from quasifree import cli, fock, ito, semigroup, symplectic, synthesis
from quasifree.semigroup import QuasifreePair, admissible, generator_action
from quasifree.symplectic import (TOLERANCES, Tolerances, hermitian_eigh, psd_check, real_embed,
                                  symplectic_form)
from quasifree.synthesis import (
    HamiltonianTerm,
    LindbladTerm,
    coupling_form,
    decompose,
    noise_matrix,
    pair_from_coupling,
    reconstruction_residuals,
)

from util import (dense_generator, kron_ladder, rng, random_admissible_pair, random_complex,
                  random_symplectic_generator, smeared_ladder)


def from_pairs(data):
    """A report's [re, im] pairs as a complex array."""
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def dilate_report(pair, out, command="dilate"):
    """The results of qfl dilate (or decompose) on pair, the encoded
    DilationSpec, through the report encoder and back."""
    scenario = json.loads(json.dumps({"command": command, "pair": pair},
                                     default=cli._json_default))
    report, code = cli.run_scenario(scenario, str(out))
    assert code == 0
    return json.loads(json.dumps(report, default=cli._json_default,
                                 allow_nan=False))["results"]


def stacked_vector(u, v):
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return np.concatenate([u + np.conj(v), -1j * (u - np.conj(v))])


def textbook_drift_matrix(u, v):
    """The block form often quoted for the drift of a rank-one coupling.

    Documented regression: this matrix is exactly twice the drift demanded by
    generator matching, and only the halved version satisfies the rank-one
    noise identity.
    """
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    ub, vb = np.conj(u), np.conj(v)
    return np.block([
        [-np.real(np.outer(ub - v, u + vb)), -np.imag(np.outer(ub - v, u - vb))],
        [np.imag(np.outer(ub + v, u + vb)), -np.real(np.outer(ub + v, u - vb))],
    ])


# --- the scalar form --------------------------------------------------------

def test_coupling_form_annihilation_only():
    e1 = np.array([1.0])
    assert coupling_form(e1, [0.0], e1) == 1.0


def test_coupling_form_zero():
    assert coupling_form([0.0], [0.0], [0.7 + 0.3j]) == 0.0


def test_coupling_form_real_linear_not_complex_linear():
    gen = rng(51)
    u, v, z = (random_complex(gen, 2) for _ in range(3))
    lhs = coupling_form(u, v, 1j * z)
    rhs = 1j * np.vdot(u, z) - 1j * np.vdot(z, v)
    assert abs(lhs - rhs) < 1e-12
    # complex linearity fails when both u and v are nonzero
    assert abs(lhs - 1j * coupling_form(u, v, z)) > 1e-6


# --- coupling -> pair -------------------------------------------------------

def test_pair_from_coupling_damping():
    K, C = pair_from_coupling([1.0], [0.0])
    assert np.abs(K + 0.5 * np.eye(2)).max() < 1e-15
    assert np.abs(C - np.eye(2)).max() < 1e-15


def test_pair_from_coupling_amplification():
    K, C = pair_from_coupling([0.0], [1.0])
    assert np.abs(K - 0.5 * np.eye(2)).max() < 1e-15
    assert np.abs(C - np.eye(2)).max() < 1e-15


def test_pair_from_coupling_zero():
    K, C = pair_from_coupling([0.0, 0.0], [0.0, 0.0])
    assert np.abs(K).max() == 0.0 and np.abs(C).max() == 0.0


def test_pair_from_coupling_always_admissible():
    gen = rng(52)
    for n in (1, 2, 3):
        for _ in range(10):
            u, v = random_complex(gen, n), random_complex(gen, n)
            K, C = pair_from_coupling(u, v)
            assert admissible(K, C).passed


def column_by_column_pair(u, v):
    """Reference (K, C) built from coupling_form alone: column k of K is the
    real embedding of the drift (conj(lam) v - lam u)/2 at the k-th real
    basis vector, and C_jk = Re(lam_j conj(lam_k)) is the Gram form of lam."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    n = u.size
    basis = [np.eye(n)[k] for k in range(n)] + [1j * np.eye(n)[k] for k in range(n)]
    lams = np.array([coupling_form(u, v, z) for z in basis])
    K = np.column_stack([real_embed((np.conj(lam) * v - lam * u) / 2.0) for lam in lams])
    C = np.real(np.outer(lams, np.conj(lams)))
    return K, C


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_pair_from_coupling_matches_column_by_column(n):
    gen = rng(70 + n)
    for _ in range(5):
        u, v = random_complex(gen, n), random_complex(gen, n)
        K, C = pair_from_coupling(u, v)
        K_ref, C_ref = column_by_column_pair(u, v)
        assert np.abs(K - K_ref).max() <= 1e-14 * np.abs(K_ref).max()
        assert np.abs(C - C_ref).max() <= 1e-14 * np.abs(C_ref).max()


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_stacked_couplings_give_the_summed_pair(n):
    gen = rng(80 + n)
    for k in (1, 3, 2 * n):
        u = np.column_stack([random_complex(gen, n) for _ in range(k)])
        v = np.column_stack([random_complex(gen, n) for _ in range(k)])
        K, C = pair_from_coupling(u, v)
        pairs = [pair_from_coupling(u[:, j], v[:, j]) for j in range(k)]
        for got, ref in ((K, sum(p[0] for p in pairs)), (C, sum(p[1] for p in pairs))):
            assert got.shape == (2 * n, 2 * n)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("u_shape, v_shape", [((2,), (3,)), ((2, 3), (2, 2)),
                                              ((2, 1), (2,)), ((2, 1, 1), (2, 1, 1))])
def test_stacked_couplings_refuse_mismatched_shapes(u_shape, v_shape):
    with pytest.raises(ValueError, match="u and v must be"):
        pair_from_coupling(np.ones(u_shape), np.ones(v_shape))


def test_textbook_drift_is_twice_the_matched_one():
    gen = rng(53)
    for n in (1, 2):
        for _ in range(10):
            u, v = random_complex(gen, n), random_complex(gen, n)
            K, _ = pair_from_coupling(u, v)
            assert np.abs(textbook_drift_matrix(u, v) - 2.0 * K).max() < 1e-12


def test_textbook_drift_fails_noise_identity():
    u, v = np.array([1.0 + 0j]), np.array([0.0 + 0j])
    _, C = pair_from_coupling(u, v)
    D_bad = noise_matrix(textbook_drift_matrix(u, v), C)
    outer = np.outer(stacked_vector(u, v), stacked_vector(u, v).conj())
    assert np.abs(D_bad - outer).max() > 0.5
    assert not psd_check(D_bad).passed


# --- noise matrix -----------------------------------------------------------

def test_noise_matrix_damping():
    D = noise_matrix(-0.5 * np.eye(2), np.eye(2))
    assert np.abs(D - np.array([[1.0, 1.0j], [-1.0j, 1.0]])).max() < 1e-15


def test_noise_matrix_symplectic_generator_vanishes():
    D = noise_matrix(symplectic_form(1), np.zeros((2, 2)))
    assert np.abs(D).max() < 1e-15


def test_noise_matrix_rank_one_identity():
    gen = rng(54)
    for _ in range(100):
        n = int(gen.integers(1, 3))
        u, v = random_complex(gen, n), random_complex(gen, n)
        K, C = pair_from_coupling(u, v)
        w = stacked_vector(u, v)
        assert np.abs(noise_matrix(K, C) - np.outer(w, w.conj())).max() < 1e-10


# --- decomposition ----------------------------------------------------------

def test_decompose_damping_pair():
    spec = decompose(-0.5 * np.eye(2), np.eye(2))
    assert spec.noise_dimension == 1
    term = spec.lindblad_terms[0]
    # phase convention puts the coupling exactly on the annihilator
    assert np.allclose(term.b, [1.0]) and np.allclose(term.c, [-1.0j])
    assert np.allclose(term.u, [1.0]) and np.allclose(term.v, [0.0])
    assert np.abs(spec.K_prime).max() < 1e-12
    assert len(spec.hamiltonian_terms) == 0


def test_decompose_rotation_pair():
    omega = 0.8
    J = symplectic_form(1)
    spec = decompose(omega * J, np.zeros((2, 2)))
    assert spec.noise_dimension == 0
    assert np.abs(spec.K_prime - omega * J).max() < 1e-14
    assert len(spec.hamiltonian_terms) == 2
    assert all(abs(t.lam - omega) < 1e-12 for t in spec.hamiltonian_terms)
    # e^{tK} turns Weyl arguments by e^{i omega t}, which H = omega (a^dag a + 1/2)
    # does under the standard sign; checked on the truncated Fock space away
    # from the truncation boundary where aa^dag loses its top entry
    rep = fock.build(1, 12)
    H, _ = dense_generator(rep, spec)
    a, adag = kron_ladder(1, 12)
    N = adag[0] @ a[0]
    target = omega * (N + 0.5 * np.eye(12))
    assert np.abs(H[:-1, :-1] - target[:-1, :-1]).max() < 1e-12


def test_decompose_zero_pair():
    spec = decompose(np.zeros((2, 2)), np.zeros((2, 2)))
    assert spec.noise_dimension == 0
    assert len(spec.hamiltonian_terms) == 0
    assert np.abs(spec.K_prime).max() == 0.0


def test_decompose_rejects_inadmissible():
    with pytest.raises(ValueError):
        decompose(np.eye(2), np.zeros((2, 2)))


def test_decompose_rejects_bad_rank_tol():
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 2)), np.zeros((2, 2)), Tolerances(rank=0.0))


def test_reconstruction_identities_random_pairs():
    gen = rng(55)
    for n in (1, 2):
        for _ in range(15):
            pair = random_admissible_pair(gen, n, couplings=int(gen.integers(1, 3)))
            spec = decompose(pair.K, pair.C)
            res = reconstruction_residuals(spec)
            assert res.k_residual < 1e-8
            assert res.c_residual < 1e-8
            assert res.symplectic_residual < 1e-10


def test_residuals_are_computed_once_per_spec(monkeypatch, tmp_path):
    calls = []
    original = synthesis.reconstruction_residuals

    def counted(spec, *sums):
        calls.append(spec)
        return original(spec, *sums)

    monkeypatch.setattr(synthesis, "reconstruction_residuals", counted)
    pair = random_admissible_pair(rng(57), 2, couplings=2)
    report = dilate_report(pair, tmp_path)
    assert len(calls) == 1
    spec = calls[0]
    assert spec.residuals == original(spec)
    assert report["residuals"] == dataclasses.asdict(spec.residuals)


def test_reconstruction_rule_is_relative_to_the_pair_scale():
    pair = random_admissible_pair(rng(0), 4, couplings=3)
    spec = decompose(1e6 * pair.K, 1e6 * pair.C)
    res = spec.residuals
    scale = 1.0 + max(np.abs(spec.K).max(), np.abs(spec.C).max())
    kc = max(res.k_residual, res.c_residual)
    assert res.symplectic_residual > TOLERANCES.symplectic     # an absolute rule refuses it
    assert spec.reconstructs().passed
    assert spec.reconstructs(Tolerances(reconstruction=2 * kc / scale,
                                        symplectic=2 * res.symplectic_residual / scale)).passed
    assert not spec.reconstructs(Tolerances(reconstruction=0.5 * kc / scale)).passed
    assert not spec.reconstructs(
        Tolerances(symplectic=0.5 * res.symplectic_residual / scale)).passed


def test_a_spec_keeps_its_own_read_only_copies_of_the_pair():
    # the residuals are computed once, so a write to the arrays behind them
    # would leave a stale verdict
    K, C = pair_from_coupling([1.0], [0.3])
    spec = decompose(K, C)
    kept = spec.K.copy(), spec.C.copy(), spec.K_prime.copy()
    K[0, 0] = 50.0
    C[1, 1] = 50.0
    assert all(np.array_equal(a, b) for a, b in zip((spec.K, spec.C, spec.K_prime), kept))
    assert reconstruction_residuals(spec) == spec.residuals
    for array in (spec.K, spec.C, spec.K_prime):
        with pytest.raises(ValueError):
            array[0, 0] = 50.0
        with pytest.raises(ValueError):
            array.flags.writeable = True


def test_decompose_forms_each_product_with_j_once(monkeypatch):
    # J K once for the noise matrix and N = sym(JK) both, J K' once for the
    # symplectic residual; the rule's scale is the one the spec computed
    calls = []

    def counted(A):
        calls.append(A)
        return symplectic._form_times(A)

    pair = random_admissible_pair(rng(59), 2, couplings=2)
    for module in (semigroup, synthesis):
        monkeypatch.setattr(module, "_form_times", counted)
    spec = decompose(pair.K, pair.C)
    assert len(calls) == 2
    assert np.array_equal(calls[0], pair.K) and calls[1] is spec.K_prime
    scale = 1.0 + max(np.abs(spec.K).max(), np.abs(spec.C).max())
    check = spec.reconstructs()
    assert check.bound == getattr(TOLERANCES, check.name) * scale


def test_decompose_builds_each_coupling_pair_once(monkeypatch, tmp_path):
    original = synthesis.pair_from_coupling
    for n, couplings in ((2, 2), (8, 16)):
        pair = random_admissible_pair(rng(58), n, couplings=couplings)
        calls = []

        def counted(u, v):
            calls.append((u, v))
            return original(u, v)

        monkeypatch.setattr(synthesis, "pair_from_coupling", counted)
        report = dilate_report(pair, tmp_path)
        assert len(report["lindblad_terms"]) == couplings
        # one stacked call for K' and the residuals both, whatever the term count
        assert len(calls) == 1
        monkeypatch.undo()
        spec = decompose(pair.K, pair.C)
        assert np.array_equal(np.asarray(report["K_prime"]), spec.K_prime)
        assert spec.residuals.k_residual == 0.0
        # K' is K minus each term's drift, up to the rounding of the stacked sum
        K_prime = pair.K.copy()
        for term in spec.lindblad_terms:
            K_prime = K_prime - original(term.u, term.v)[0]
        assert np.abs(spec.K_prime - K_prime).max() <= 1e-14 * (1.0 + np.abs(pair.K).max())


def _fix_phase_reference(vec, tol=1e-12):
    """Rotate a vector so its first nonzero component is real positive."""
    norm = np.linalg.norm(vec)
    for comp in vec:
        if abs(comp) > tol * norm:
            return vec * (np.conj(comp) / abs(comp))
    return vec


def per_vector_terms(K, C):
    """Reference: decompose's term extraction written one eigenvector at a
    time, as (Lindblad terms, Hamiltonian terms, K')."""
    D = noise_matrix(K, C)
    evals, evecs = hermitian_eigh(D)
    n = K.shape[0] // 2
    terms = []
    floor = 1e-13 * (1.0 + np.abs(D).max(initial=0.0))
    if evals[0] > floor:
        cutoff = max(TOLERANCES.rank * evals[0], floor)
        for lam_d, vec in zip(evals, evecs.T):
            if lam_d <= cutoff:
                break
            stacked = _fix_phase_reference(np.sqrt(lam_d) * vec)
            terms.append(LindbladTerm(b=stacked[:n], c=stacked[n:]))
    K_prime = K.copy()
    for term in terms:
        K_prime = K_prime - pair_from_coupling(term.u, term.v)[0]
    J = symplectic_form(n)
    N = (J @ K + (J @ K).T) / 2.0
    nvals, nvecs = hermitian_eigh(N)
    hterms = []
    scale = np.abs(nvals).max()
    nfloor = 1e-13 * (1.0 + np.abs(N).max(initial=0.0))
    for lam_h, vec in zip(nvals, nvecs.T):
        if scale > nfloor and abs(lam_h) > max(TOLERANCES.rank * scale, nfloor):
            rvec = _fix_phase_reference(np.real(vec)).real
            hterms.append(HamiltonianTerm(lam=-float(lam_h), w=rvec[:n] + 1j * rvec[n:]))
    return terms, hterms, K_prime


def assert_terms_equal_the_per_vector_rule(K, C):
    spec = decompose(K, C)
    terms, hterms, K_prime = per_vector_terms(K, C)
    assert len(spec.lindblad_terms) == len(terms)
    for got, ref in zip(spec.lindblad_terms, terms):
        for name in ("b", "c", "u", "v"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert len(spec.hamiltonian_terms) == len(hterms)
    for got, ref in zip(spec.hamiltonian_terms, hterms):
        assert got.lam == ref.lam
        assert np.array_equal(got.w, ref.w)
    assert np.abs(spec.K_prime - K_prime).max() <= 1e-14 * (1.0 + np.abs(K).max())
    return spec


@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_term_extraction_is_bitwise_the_per_vector_rule(n):
    gen = rng(59 + n)
    for couplings in (1, max(1, n // 4), 2 * n):
        pair = random_admissible_pair(gen, n, couplings=couplings)
        spec = assert_terms_equal_the_per_vector_rule(pair.K, pair.C)
        assert spec.noise_dimension == min(couplings, 2 * n)


def loss_and_rotation(rates, freqs):
    """Loss at the given rate on each mode plus the drift -J diag(freqs), whose
    N = sym(JK) is diag(freqs): diagonal, with unit-vector eigenvectors."""
    g = np.tile(np.asarray(rates, dtype=float), 2)
    J = symplectic_form(len(rates))
    return -0.5 * np.diag(g) - J @ np.diag(freqs), np.diag(g)


def test_term_extraction_edge_cases_are_bitwise_the_per_vector_rule():
    # K = C = 0: no terms of either kind
    spec = assert_terms_equal_the_per_vector_rule(np.zeros((4, 4)), np.zeros((4, 4)))
    assert spec.noise_dimension == 0 and spec.hamiltonian_terms == ()
    # a diagonal N, whose eigenvectors have zero leading components, and a
    # noise matrix with one eigenvalue 2g per mode of loss rate g, 2 repeated
    K, C = loss_and_rotation([1.0, 1.0, 0.5], [0.3, -1.1, 0.7, 2.0, -0.4, 0.9])
    spec = assert_terms_equal_the_per_vector_rule(K, C)
    assert (spec.noise_dimension, len(spec.hamiltonian_terms)) == (3, 6)
    # repeated eigenvalues in N as well
    K, C = loss_and_rotation([0.8, 0.8], [0.5, 0.5, -0.5, 0.5])
    spec = assert_terms_equal_the_per_vector_rule(K, C)
    assert (spec.noise_dimension, len(spec.hamiltonian_terms)) == (2, 4)


@pytest.mark.parametrize("side, kept", [(1.0 - 1e-3, 1), (1.0 + 1e-3, 2)],
                         ids=["below", "above"])
def test_rank_cut_edges_are_bitwise_the_per_vector_rule(side, kept):
    # the second loss rate and frequency sit just below or above rank_tol
    # relative to the first
    small = side * TOLERANCES.rank
    K, C = loss_and_rotation([1.0, small], [1.0, small, 1.0, small])
    spec = assert_terms_equal_the_per_vector_rule(K, C)
    assert spec.noise_dimension == kept
    assert len(spec.hamiltonian_terms) == 2 * kept


def test_decompose_noise_rank():
    gen = rng(56)
    # two generic couplings at n = 2 give a rank-2 noise matrix
    u1, v1 = random_complex(gen, 2), random_complex(gen, 2)
    u2, v2 = random_complex(gen, 2), random_complex(gen, 2)
    K = pair_from_coupling(u1, v1)[0] + pair_from_coupling(u2, v2)[0]
    C = pair_from_coupling(u1, v1)[1] + pair_from_coupling(u2, v2)[1]
    spec = decompose(K, C)
    assert spec.noise_dimension == 2


def test_single_coupling_round_trip_up_to_phase():
    gen = rng(57)
    for _ in range(10):
        u, v = random_complex(gen, 1), random_complex(gen, 1)
        K, C = pair_from_coupling(u, v)
        spec = decompose(K, C)
        assert spec.noise_dimension == 1
        term = spec.lindblad_terms[0]
        # generator equality, not vector equality: the coupling is recovered
        # only up to a global phase
        K2, C2 = pair_from_coupling(term.u, term.v)
        assert np.abs(K2 - K).max() < 1e-10
        assert np.abs(C2 - C).max() < 1e-10
        ratios = stacked_vector(term.u, term.v) / stacked_vector(u, v)
        assert np.abs(np.abs(ratios) - 1.0).max() < 1e-8


# --- Hamiltonian action -----------------------------------------------------

def test_hamiltonian_action_empty():
    res = generator_action(QuasifreePair(n=1, K=np.zeros((2, 2)), C=np.zeros((2, 2))),
                           [0.4 + 0.2j])
    assert np.abs(res.gain_vector).max() == 0.0
    assert res.scalar_part == 0.0


def test_hamiltonian_action_scalar_is_imaginary():
    gen = rng(58)
    for _ in range(10):
        Kp = random_symplectic_generator(gen, 2)
        z = random_complex(gen, 2)
        res = generator_action(QuasifreePair(n=2, K=Kp, C=np.zeros((4, 4))), z)
        assert abs(res.scalar_part.real) < 1e-14


def test_hamiltonian_commutator_matches_oracle():
    # matrix elements of the Heisenberg generator i[H, W(z)] between coherent
    # vectors against the synthesized coefficients, at cutoff 40
    gen = rng(60)
    rep = fock.build(1, 40)
    left = fock.coherent_vector(rep, [0.4 + 0.1j])
    right = fock.coherent_vector(rep, [-0.2 + 0.3j])
    for _ in range(5):
        Kp = random_symplectic_generator(gen, 1)
        spec = decompose(Kp, np.zeros((2, 2)))
        H, _ = dense_generator(rep, spec)
        z = 0.7 * (gen.normal(size=1) + 1j * gen.normal(size=1))
        W = fock.weyl_matrix(rep, z)
        commutator = 1j * (H @ W - W @ H)
        coeff = generator_action(QuasifreePair(n=1, K=spec.K_prime, C=np.zeros((2, 2))), z)
        gain = smeared_ladder(rep, -coeff.gain_vector, coeff.gain_vector)
        closed = (gain + coeff.scalar_part * np.eye(rep.dim)) @ W
        lhs = np.vdot(left, commutator @ right)
        rhs = np.vdot(left, closed @ right)
        assert abs(lhs - rhs) < 1e-5


@pytest.mark.parametrize("n, cutoff, seed", [(1, 24, 63), (2, 10, 64)])
def test_dilation_drives_the_hudson_parthasarathy_generator(n, cutoff, seed):
    # the (0, 0) structure map of the noise equation built from decompose's
    # (L, H) is the semigroup generator on W(z), in coherent matrix elements
    gen = rng(seed)
    pair = random_admissible_pair(gen, n, couplings=n)
    spec = decompose(pair.K, pair.C)
    assert spec.noise_dimension >= 1 and spec.hamiltonian_terms
    rep = fock.build(n, cutoff)
    H, Ls = dense_generator(rep, spec)
    dU = ito.hp_coefficients(np.eye(len(Ls) * rep.dim), Ls, H)
    left = fock.coherent_vector(rep, random_complex(gen, n, 0.5))
    right = fock.coherent_vector(rep, random_complex(gen, n, 0.5))
    for _ in range(3):
        z = random_complex(gen, n, 0.5)
        W = fock.weyl_matrix(rep, z)
        assert max(fock.top_level_population(rep, vec)
                   for vec in (left, right, W @ right)) < 1e-8
        flow = ito.flow_generator(dU, W)[(0, 0)]
        coeff = generator_action(pair, z)
        gain = smeared_ladder(rep, -coeff.gain_vector, coeff.gain_vector)
        closed = (gain + coeff.scalar_part * np.eye(rep.dim)) @ W
        assert abs(np.vdot(left, (flow - closed) @ right)) < 1e-9


# --- reports and serialization ----------------------------------------------

def test_dilation_report_attenuation(tmp_path):
    report = dilate_report(QuasifreePair(n=1, K=-0.5 * np.eye(2), C=np.eye(2)), tmp_path)
    assert list(report) == ["n", "lindblad_terms", "hamiltonian_terms", "K_prime", "K", "C",
                            "residuals"]
    assert len(report["hamiltonian_terms"]) == 0
    (term,) = report["lindblad_terms"]
    assert list(term) == ["b", "c", "u", "v"]
    assert np.allclose(from_pairs(term["u"]), [1.0]) and np.allclose(from_pairs(term["v"]), [0.0])


def test_dilation_report_rotation(tmp_path):
    report = dilate_report(QuasifreePair(n=1, K=0.5 * symplectic_form(1), C=np.zeros((2, 2))),
                           tmp_path)
    # closed dynamics: no noise channel, the Hamiltonian alone
    assert report["lindblad_terms"] == []
    assert [list(term) for term in report["hamiltonian_terms"]] == [["lam", "w"]] * 2


def test_dilation_report_zero(tmp_path):
    report = dilate_report(QuasifreePair(n=1, K=np.zeros((2, 2)), C=np.zeros((2, 2))), tmp_path)
    assert report["lindblad_terms"] == []
    assert report["hamiltonian_terms"] == []
    assert report["K_prime"] == [[0.0, 0.0], [0.0, 0.0]]


def test_spec_json_round_trip(tmp_path):
    # the spec as the decompose handler writes it, through the report encoder
    gen = rng(61)
    pair = random_admissible_pair(gen, 2, couplings=2)
    spec = decompose(pair.K, pair.C)
    data = dilate_report(pair, tmp_path, "decompose")
    assert data["n"] == spec.n
    assert len(data["lindblad_terms"]) == spec.noise_dimension
    for term, entry in zip(spec.lindblad_terms, data["lindblad_terms"]):
        back = LindbladTerm(b=from_pairs(entry["b"]), c=from_pairs(entry["c"]))
        assert np.array_equal(back.b, term.b) and np.array_equal(back.c, term.c)
        assert np.abs(back.u - term.u).max() < 1e-15
        assert np.abs(back.v - term.v).max() < 1e-15
        assert np.array_equal(from_pairs(entry["u"]), term.u)
        assert np.array_equal(from_pairs(entry["v"]), term.v)
    assert len(data["hamiltonian_terms"]) == len(spec.hamiltonian_terms)
    for term, entry in zip(spec.hamiltonian_terms, data["hamiltonian_terms"]):
        assert entry["lam"] == term.lam
        assert np.array_equal(from_pairs(entry["w"]), term.w)
    for key, matrix in (("K_prime", spec.K_prime), ("K", spec.K), ("C", spec.C)):
        assert np.array_equal(np.asarray(data[key]), matrix)
    assert np.array_equal(np.asarray(data["K"]), pair.K)
    assert np.array_equal(np.asarray(data["C"]), pair.C)


def test_lindblad_term_coupling_constructor():
    gen = rng(62)
    u, v = random_complex(gen, 2), random_complex(gen, 2)
    term = LindbladTerm.from_coupling(u, v)
    assert np.abs(term.u - u).max() < 1e-15
    assert np.abs(term.v - v).max() < 1e-15


def test_hamiltonian_term_rejects_zero_strength():
    with pytest.raises(ValueError):
        HamiltonianTerm(lam=0.0, w=[1.0])
