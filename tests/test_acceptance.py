"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import itertools
import time

import numpy as np
import pytest

from quasifree import fock
from quasifree.fields import coherent_gaussian_field, levy_law, sample
from quasifree.gaussian import coherent, validate
from quasifree.ito import (
    flow_generator,
    hp_coefficients,
    ito_equal,
    ito_product,
    poisson_process,
    poisson_table,
    quadrature,
    quadrature_table,
    time_differential,
    unitarity_residual,
)
from quasifree.semigroup import QuasifreePair, evolve_state, generator_action
from quasifree.symplectic import expm, gram_integral
from quasifree.synthesis import (
    decompose,
    noise_matrix,
    pair_from_coupling,
    reconstruction_residuals,
)

from util import (
    dense_generator,
    random_admissible_pair,
    random_complex,
    random_unitary,
    random_valid_state,
    rng,
    smeared_ladder,
)


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def attenuation_pair():
    K, C = pair_from_coupling([1.0], [0.0])
    return QuasifreePair(n=1, K=K, C=C)


def test_01_oracle_equivalence_attenuation():
    start = time.monotonic()
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        rep = fock.oracle_compare(coherent([1.0]), attenuation_pair(), t,
                                  cutoff=30, steps=int(2000 * t), num_weyl=5, seed=101)
        worst = max(worst, rep.max_error)
    elapsed = time.monotonic() - start
    report(1, "oracle-equivalence-attenuation",
           worst <= 1e-5 and elapsed <= 30.0,
           f"max error {worst:.2e}, tol 1e-5, {elapsed:.1f}s")


def test_02_oracle_equivalence_random_generators():
    # squeezing and heating give the evolved states geometric (not factorial)
    # number tails, so the draw scales are chosen to keep the t = 1 state
    # representable at the pinned cutoff of 30 with an order of margin
    start = time.monotonic()
    gen = rng(102)
    worst = 0.0
    for _ in range(10):
        pair = random_admissible_pair(gen, 1, couplings=int(gen.integers(1, 3)),
                                      coupling_scale=0.5, symp_scale=0.5)
        for t in (0.25, 0.5, 1.0):
            rep = fock.oracle_compare(coherent([1.0]), pair, t,
                                      cutoff=30, steps=int(2000 * t),
                                      num_weyl=5, seed=103)
            worst = max(worst, rep.max_error)
    elapsed = time.monotonic() - start
    report(2, "oracle-equivalence-random",
           worst <= 1e-4 and elapsed <= 300.0,
           f"max error {worst:.2e}, tol 1e-4, {elapsed:.1f}s")


def test_03_semigroup_law():
    gen = rng(103)
    worst_state = 0.0
    worst_gram = 0.0
    for _ in range(20):
        pair = random_admissible_pair(gen, 1, couplings=int(gen.integers(1, 3)))
        st = random_valid_state(gen, 1)
        for s, t in itertools.product((0.3, 0.7), repeat=2):
            one = evolve_state(evolve_state(st, pair, s), pair, t)
            two = evolve_state(st, pair, s + t)
            worst_state = max(worst_state,
                              np.abs(one.l - two.l).max(),
                              np.abs(one.m - two.m).max(),
                              np.abs(one.S - two.S).max())
            B_s = gram_integral(pair.K, pair.C, s)
            B_t = gram_integral(pair.K, pair.C, t)
            B_st = gram_integral(pair.K, pair.C, s + t)
            A_s = expm(s * pair.K)
            worst_gram = max(worst_gram,
                             np.abs(B_st - (B_s + A_s.T @ B_t @ A_s)).max())
    report(3, "semigroup-law",
           worst_state <= 1e-9 and worst_gram <= 1e-10,
           f"state comp {worst_state:.2e} tol 1e-9, "
           f"gram comp {worst_gram:.2e} tol 1e-10")


def test_04_rank_one_noise_identity():
    gen = rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(1, 4))
        u, v = random_complex(gen, n, 1.0), random_complex(gen, n, 1.0)
        K, C = pair_from_coupling(u, v)
        w = np.concatenate([u + np.conj(v), -1j * (u - np.conj(v))])
        worst = max(worst, np.abs(noise_matrix(K, C) - np.outer(w, w.conj())).max())
    report(4, "rank-one-noise-identity", worst <= 1e-10,
           f"max residual {worst:.2e}, tol 1e-10 "
           "(drift halved relative to the usual printed block form)")


def test_05_decomposition_round_trip():
    gen = rng(105)
    worst_rec = 0.0
    worst_symp = 0.0
    worst_comm = 0.0
    rep40 = fock.build(1, 40)
    left = fock.coherent_vector(rep40, [0.4 - 0.1j])
    right = fock.coherent_vector(rep40, [-0.3 + 0.2j])
    eye = np.eye(rep40.dim)
    for k in range(50):
        n = 1 if k < 25 else 2
        pair = random_admissible_pair(gen, n, couplings=int(gen.integers(1, 3)))
        spec = decompose(pair.K, pair.C)
        res = reconstruction_residuals(spec)
        worst_rec = max(worst_rec, res.k_residual, res.c_residual)
        worst_symp = max(worst_symp, res.symplectic_residual)
        if n == 1:
            H, _ = dense_generator(rep40, spec)
            for _ in range(2):
                z = random_complex(gen, 1, 0.8)
                W = fock.weyl_matrix(rep40, z)
                commutator = 1j * (H @ W - W @ H)
                coeff = generator_action(QuasifreePair(n=1, K=spec.K_prime,
                                                       C=np.zeros((2, 2))), z)
                gain = smeared_ladder(rep40, -coeff.gain_vector, coeff.gain_vector)
                closed = (gain + coeff.scalar_part * eye) @ W
                worst_comm = max(worst_comm,
                                 abs(np.vdot(left, (commutator - closed) @ right)))
    report(5, "decomposition-round-trip",
           worst_rec <= 1e-8 and worst_symp <= 1e-10 and worst_comm <= 1e-5,
           f"reconstruction {worst_rec:.2e} tol 1e-8, "
           f"symplectic {worst_symp:.2e} tol 1e-10, "
           f"commutator {worst_comm:.2e} tol 1e-5")


def test_06_weyl_algebra_on_truncated_fock():
    gen = rng(106)
    rep = fock.build(1, 40)
    occ = np.arange(40)
    P_low = np.diag((occ < 8).astype(float))
    worst_rel = 0.0
    worst_exp = 0.0
    for _ in range(10):
        u = random_complex(gen, 1, 1.0)
        v = random_complex(gen, 1, 1.0)
        Wu = fock.weyl_matrix(rep, u)
        Wv = fock.weyl_matrix(rep, v)
        Wuv = fock.weyl_matrix(rep, u + v)
        phase = np.exp(-1j * np.imag(np.vdot(u, v)))
        worst_rel = max(worst_rel, np.abs((Wu @ Wv - phase * Wuv) @ P_low).max())
        eu = fock.exponential_vector(rep, u)
        ev = fock.exponential_vector(rep, v)
        worst_exp = max(worst_exp, abs(np.vdot(eu, ev) - np.exp(np.vdot(u, v))))
    report(6, "weyl-algebra-truncated-fock",
           worst_rel <= 1e-6 and worst_exp <= 1e-6,
           f"multiplication {worst_rel:.2e}, exponential overlaps {worst_exp:.2e}, "
           "tol 1e-6")


def test_07_ito_engine():
    tables_ok = True
    for d in (1, 2, 3):
        tables_ok = tables_ok and quadrature_table(d).ok
        dt = time_differential(d)
        intensity = {i: 0.5 + 0.25 * i for i in range(1, d + 1)}
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                tables_ok = tables_ok and poisson_table(i, j, intensity[i],
                                                        intensity[j]).ok
                prod = ito_product(quadrature(d, i), quadrature(d, j))
                expected = dt if i == j else ito_product(dt, dt)  # zero for i != j
                tables_ok = tables_ok and ito_equal(prod, expected)
                prodN = ito_product(poisson_process(d, i, intensity[i]),
                                    poisson_process(d, j, intensity[j]))
                expectedN = poisson_process(d, j, intensity[j]) if i == j else expected
                tables_ok = tables_ok and ito_equal(prodN, expectedN)

    gen = rng(107)
    worst_unitarity = 0.0
    worst_identity = 0.0
    for _ in range(100):
        d = int(gen.integers(1, 4))
        dim = int(gen.integers(2, 4))
        S = random_unitary(gen, d * dim)
        L = [gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
             for _ in range(d)]
        H = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        H = (H + H.conj().T) / 2.0
        dU = hp_coefficients(S, L, H)
        worst_unitarity = max(worst_unitarity, unitarity_residual(dU))
        theta00 = flow_generator(dU, np.eye(dim, dtype=complex))[(0, 0)]
        worst_identity = max(worst_identity, np.abs(theta00).max())
    report(7, "ito-engine",
           tables_ok and worst_unitarity <= 1e-12 and worst_identity <= 1e-12,
           f"tables {'ok' if tables_ok else 'BROKEN'}, "
           f"unitarity {worst_unitarity:.2e}, identity {worst_identity:.2e}, "
           "tol 1e-12")


def test_08_cross_module_generator_agreement():
    gen = rng(108)
    rep = fock.build(1, 20)
    left = fock.coherent_vector(rep, [0.3 - 0.2j])
    right = fock.coherent_vector(rep, [0.1 + 0.4j])
    eye = np.eye(rep.dim, dtype=complex)
    zero = np.zeros((rep.dim, rep.dim))
    worst = 0.0
    for _ in range(10):
        u = random_complex(gen, 1, 0.7)
        v = random_complex(gen, 1, 0.7)
        z = random_complex(gen, 1, 0.8)
        L1 = smeared_ladder(rep, u, v)
        W = fock.weyl_matrix(rep, z)
        theta00 = flow_generator(hp_coefficients(eye, [L1], zero), W)[(0, 0)]
        K, C = pair_from_coupling(u, v)
        coeff = generator_action(QuasifreePair(n=1, K=K, C=C), z)
        gain = smeared_ladder(rep, -coeff.gain_vector, coeff.gain_vector)
        closed = (gain + coeff.scalar_part * eye) @ W
        worst = max(worst, abs(np.vdot(left, (theta00 - closed) @ right)))
    report(8, "cross-module-generator-agreement", worst <= 1e-5,
           f"max matrix-element gap {worst:.2e}, tol 1e-5")


def test_09_field_statistics():
    count = 100_000
    gen = rng(109)
    basis = gen.normal(size=(3, 3))
    us = [basis[0], 0.5 * basis[0] + basis[1], basis[2]]
    u0 = gen.normal(size=3) + 1j * gen.normal(size=3)
    law = coherent_gaussian_field(u0, us)
    draws = sample(law, count, seed=110)
    mean_band = 3.0 * np.sqrt(np.diag(law.covariance) / count)
    mean_ok = bool(np.all(np.abs(draws.mean(axis=0) - law.mean) <= mean_band))
    emp_cov = np.cov(draws.T, ddof=1)
    cov_gap = np.linalg.norm(emp_cov - law.covariance)
    cov_ok = cov_gap <= 5.0 * np.linalg.norm(law.covariance) / np.sqrt(count)

    jump = levy_law(np.diag([1.0, -2.0, 0.5]),
                    np.array([1.0, 1.0, 1.0]) / np.sqrt(2.0))
    jump_draws = sample(jump, count, seed=111)
    ts = np.linspace(-3.0, 3.0, 25)
    ecf = np.exp(1j * np.outer(ts, jump_draws)).mean(axis=1)
    ecf_gap = np.abs(ecf - jump.characteristic_function(ts)).max()
    ecf_ok = ecf_gap <= 5.0 / np.sqrt(count)
    report(9, "field-statistics",
           mean_ok and cov_ok and ecf_ok,
           f"mean within 3-sigma: {mean_ok}, cov gap {cov_gap:.3e}, "
           f"ecf gap {ecf_gap:.3e} tol {5.0 / np.sqrt(count):.3e}")


def test_10_validity_preservation():
    gen = rng(120)
    failures = 0
    checks = 0
    for _ in range(100):
        n = int(gen.integers(1, 3))
        pair = random_admissible_pair(gen, n, couplings=int(gen.integers(1, 3)))
        st = random_valid_state(gen, n)
        for t in (0.1, 1.0, 10.0):
            checks += 1
            if not validate(evolve_state(st, pair, t)).is_valid:
                failures += 1
    report(10, "validity-preservation", failures == 0,
           f"{checks - failures}/{checks} evolutions valid")
