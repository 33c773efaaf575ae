"""Damped bosonic mode: closed-form phase-space flow vs. brute force.

A single mode coupled to a zero-temperature bath relaxes toward the vacuum.
In phase-space coordinates the whole evolution is two matrices: the drift
K = -I/2 shrinks the means by e^{-t/2}, and the noise C = I refills the
covariance so the vacuum stays a fixed point.  The same channel is then
integrated as a Lindblad master equation on a truncated Fock space and the
two answers are compared moment by moment.
"""

import numpy as np

from quasifree import fock
from quasifree.gaussian import coherent, weyl_transform
from quasifree.semigroup import QuasifreePair, evolve_state, weyl_action
from quasifree.synthesis import pair_from_coupling


def main():
    # the coupling L = a (pure annihilation) generates the damping pair
    K, C = pair_from_coupling([1.0], [0.0])
    pair = QuasifreePair(n=1, K=K, C=C)
    print("drift K:\n", K)
    print("noise C:\n", C)

    state = coherent([1.0])
    print("\ninitial coherent state: l =", state.l, " m =", state.m)

    print("\nclosed-form evolution (means decay like e^{-t/2}, S stays I/2):")
    for t in (0.0, 0.5, 1.0, 2.0):
        out = evolve_state(state, pair, t)
        print(f"  t = {t:4.1f}:  m = {out.m[0]:+.6f}  (expect {np.sqrt(2)*np.exp(-t/2):+.6f})"
              f"   S_11 = {out.S[0, 0]:.6f}")

    print("\naction on a Weyl operator at t = ln 4 (argument shrinks, gets damped):")
    act = weyl_action(pair, np.log(4.0), [1.0])
    print("  z_out =", act.z_out, "  damping exponent =", act.damping_exponent)

    print("\nbrute-force cross-check on a 30-level Fock space "
          "(Krylov exponential, 2000 substeps/unit cap):")
    for t in (0.25, 1.0):
        rep = fock.oracle_compare(state, pair, t, cutoff=30, steps=int(2000 * t))
        print(f"  t = {t:4.2f}:  mean err {rep.mean_error:.2e}   "
              f"cov err {rep.cov_error:.2e}   weyl err {rep.weyl_error:.2e}")

    # duality: evolving the state then probing equals probing the evolved Weyl
    t, z = 0.8, np.array([0.4 - 0.3j])
    lhs = weyl_transform(evolve_state(state, pair, t), z)
    act = weyl_action(pair, t, z)
    rhs = weyl_transform(state, act.z_out) * np.exp(-act.damping_exponent)
    print(f"\nduality check at t = {t}: |lhs - rhs| = {abs(lhs - rhs):.2e}")


if __name__ == "__main__":
    main()
