"""Synthesizing the noisy evolution behind an arbitrary admissible pair.

Any pair (K, C) with C + i(K^T J + J K) >= 0 can be split into concrete
dynamical ingredients: one coupling operator L_j = a(u_j) + a^dag(v_j) per
positive eigenvalue of the noise matrix, a quadratic Hamiltonian read off
the symmetric part of JK, and a residual generator in sp(2n) that only
rotates/squeezes phase space.  The script decomposes three pairs of
increasing complexity and verifies each synthesis by integrating its master
equation against the closed-form semigroup.
"""

import numpy as np

from quasifree import fock
from quasifree.gaussian import coherent
from quasifree.semigroup import QuasifreePair
from quasifree.symplectic import symplectic_form
from quasifree.synthesis import decompose, pair_from_coupling, reconstruction_residuals


def describe(name, K, C):
    print(f"--- {name} ---")
    spec = decompose(K, C)
    print(f"noise channels r = {spec.noise_dimension}, "
          f"quadratic Hamiltonian terms r' = {len(spec.hamiltonian_terms)}, "
          f"closed dynamics: {spec.noise_dimension == 0}")
    for j, term in enumerate(spec.lindblad_terms):
        print(f"  L_{j + 1}: u = {np.round(term.u, 4)}  v = {np.round(term.v, 4)}")
    for j, term in enumerate(spec.hamiltonian_terms):
        print(f"  H term {j + 1}: strength {term.lam:+.4f}, w = {np.round(term.w, 4)}")
    res = reconstruction_residuals(spec)
    print(f"  reconstruction residuals: K {res.k_residual:.1e}  "
          f"C {res.c_residual:.1e}  symplectic {res.symplectic_residual:.1e}")
    return spec


def main():
    J = symplectic_form(1)

    # pure damping: one Lindblad channel, nothing else
    describe("damping (L = a)", -0.5 * np.eye(2), np.eye(2))

    # pure rotation: no noise at all, only a quadratic Hamiltonian
    print()
    describe("rotation (harmonic drift)", 0.7 * J, np.zeros((2, 2)))

    # a generic mix: two couplings plus a squeezing drift
    print()
    gen = np.random.Generator(np.random.Philox(7))
    K = np.zeros((2, 2))
    C = np.zeros((2, 2))
    for _ in range(2):
        u = 0.5 * (gen.normal(size=1) + 1j * gen.normal(size=1))
        v = 0.3 * (gen.normal(size=1) + 1j * gen.normal(size=1))
        dK, dC = pair_from_coupling(u, v)
        K, C = K + dK, C + dC
    sym = gen.normal(size=(2, 2))
    K = K + 0.4 * J @ (sym + sym.T) / 2.0
    describe("generic mixed generator", K, C)

    # verify the synthesized generator against the closed form
    pair = QuasifreePair(n=1, K=K, C=C)
    print("\nintegrating the synthesized master equation (cutoff 30):")
    for t in (0.5, 1.0):
        rep = fock.oracle_compare(coherent([1.0]), pair, t,
                                  cutoff=30, steps=int(2000 * t))
        print(f"  t = {t:3.1f}:  mean err {rep.mean_error:.2e}   "
              f"cov err {rep.cov_error:.2e}")


if __name__ == "__main__":
    main()
