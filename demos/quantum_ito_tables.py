"""The quantum Ito multiplication table and its classical shadows.

Products of the fundamental noise differentials contract through a single
rule: the left superscript pairs with the right subscript, and any pairing
with the time index vanishes.  Restricted to the self-adjoint combinations
this engine reproduces the classical Brownian and Poisson tables, and for
a full coefficient grid it yields the structure maps of the Heisenberg
flow, whose (0, 0) entry is the familiar completely positive generator.
"""

import numpy as np

from quasifree.ito import (
    annihilation,
    creation,
    flow_generator,
    format_differential,
    hp_coefficients,
    ito_product,
    poisson_table,
    quadrature_table,
    unitarity_residual,
)


def main():
    print("elementary contractions (colour 1):")
    dA, dAdag = annihilation(1, 1), creation(1, 1)
    print("  annihilation . creation =", format_differential(ito_product(dA, dAdag)))
    print("  creation . annihilation =", format_differential(ito_product(dAdag, dA)))

    print("\nBrownian table for two colours (dB_i = annihilation + creation):")
    print(quadrature_table(2).text)

    print("\nPoisson table, intensity 0.8:")
    print(poisson_table(1, 1, 0.8, 0.8).text)

    print("\ncross-colour Poisson products vanish:")
    print(poisson_table(1, 2, 0.8, 1.3).text)

    # a qubit driven by one noise channel
    print("\nunitary noise equation for a qubit (d = 1):")
    gen = np.random.Generator(np.random.Philox(3))
    theta = gen.uniform(0, 2 * np.pi)
    S = np.array([[np.exp(1j * theta)]]) * np.eye(1)
    S = np.kron(S, np.eye(2))           # scattering block on system (x) C^1
    L = [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]   # qubit decay
    H = np.array([[0.5, 0.0], [0.0, -0.5]])
    dU = hp_coefficients(S, L, H)
    print("  unitarity residual of the noise equation dU:",
          f"{unitarity_residual(dU):.2e}")

    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    theta_maps = flow_generator(dU, X)
    print("  theta[0][0](sigma_x) =\n", np.round(theta_maps[(0, 0)], 6))
    print("  theta[a][b](I) all vanish:",
          max(np.abs(m).max() for m in flow_generator(dU, np.eye(2)).values()) < 1e-12)


if __name__ == "__main__":
    main()
