"""Shared random draws for the test suite (all explicitly seeded), a dense
Fock-space reference built from Kronecker products alone, and two reference
forms only the tests call: ito_equal and coupling_form."""

from functools import reduce

import numpy as np

from quasifree.ito import ItoDifferential, _gap
from quasifree.semigroup import QuasifreePair
from quasifree.symplectic import TOLERANCES, symplectic_form
from quasifree.synthesis import pair_from_coupling


def ito_equal(X: ItoDifferential, Y: ItoDifferential, tol: float = TOLERANCES.unitarity) -> bool:
    """Whether X and Y have one dimension and every coefficient of X - Y is
    within tol of 0, by the gap the Ito tables are judged by."""
    return X.d == Y.d and _gap(X, Y) <= tol


def coupling_form(u, v, z) -> complex:
    """Scalar form lam(z) = <u|z> + <z|v> attached to the coupling (u, v),
    the reference pair_from_coupling is tested against.

    Real-linear but not complex-linear in z whenever both u and v are nonzero.
    """
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    z = np.asarray(z, dtype=complex).ravel()
    if not (u.size == v.size == z.size):
        raise ValueError(f"length mismatch: {u.size}, {v.size}, {z.size}")
    return complex(np.vdot(u, z) + np.vdot(z, v))


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_complex(gen, n, scale=1.0):
    vec = gen.normal(size=n) + 1j * gen.normal(size=n)
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec *= scale * gen.uniform(0.3, 1.0) / norm
    return vec


def random_coupling(gen, n, scale=0.7):
    return random_complex(gen, n, scale), random_complex(gen, n, scale)


def random_symplectic_generator(gen, n, scale=1.0):
    """Element of sp(2n): J times a symmetric matrix, spectral norm <= scale."""
    sym = gen.normal(size=(2 * n, 2 * n))
    sym = (sym + sym.T) / 2.0
    K = symplectic_form(n) @ sym
    norm = np.linalg.norm(K, 2)
    if norm > 0:
        K *= scale * gen.uniform(0.3, 1.0) / norm
    return K


def random_admissible_pair(gen, n, couplings=1, coupling_scale=0.7, symp_scale=1.0):
    """Sum of rank-one coupling pairs plus a symplectic residual drift."""
    K = random_symplectic_generator(gen, n, symp_scale)
    C = np.zeros((2 * n, 2 * n))
    for _ in range(couplings):
        u, v = random_coupling(gen, n, coupling_scale)
        K_uv, C_uv = pair_from_coupling(u, v)
        K = K + K_uv
        C = C + C_uv
    return QuasifreePair(n=n, K=K, C=C)


def random_valid_state(gen, n, mean_scale=1.0, extra_scale=0.5):
    """Gaussian state data: covariance I/2 plus a PSD bump is always valid."""
    from quasifree.gaussian import GaussianState

    G = gen.normal(size=(2 * n, 2 * n)) * extra_scale
    S = 0.5 * np.eye(2 * n) + G @ G.T / (2 * n)
    return GaussianState(n=n, l=gen.normal(size=n) * mean_scale,
                         m=gen.normal(size=n) * mean_scale, S=S)


def random_unitary(gen, dim):
    z = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    Q, R = np.linalg.qr(z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def kron_ladder(n, cutoff):
    """Annihilation and creation matrices per mode as Kronecker products."""
    lower = np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)
    eye = np.eye(cutoff, dtype=complex)
    a = [reduce(np.kron, [lower if k == j else eye for k in range(n)]) for j in range(n)]
    return a, [x.conj().T for x in a]


def smeared_ladder(rep, u, v):
    """Dense a(u) + a^dag(v) = sum_j conj(u_j) a_j + v_j a_j^dag on the
    truncated space of rep; a(u) is antilinear in u, so a^dag(z) - a(z) is
    smeared_ladder(rep, -z, z)."""
    a, adag = kron_ladder(rep.n, rep.cutoff)
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    return sum(np.conj(uj) * aj + vj * adj for uj, vj, aj, adj in zip(u, v, a, adag))


def dense_generator(rep, spec):
    """H and the L_j of a dilation spec from Kronecker ladder matrices."""
    H = np.zeros((rep.dim, rep.dim), dtype=complex)
    for term in spec.hamiltonian_terms:
        G = smeared_ladder(rep, term.w, term.w)
        H += 0.25 * term.lam * (G @ G)
    return H, [smeared_ladder(rep, term.u, term.v) for term in spec.lindblad_terms]


def dense_evolution(rep, rho, spec, t):
    """e^{tL} rho for the master equation of a dilation spec, from the dense
    d^2 x d^2 superoperator of dense_generator's H and L_j (row-major vec,
    so A X B is kron(A, B^T)); scipy's expm_multiply applies its exponential."""
    from scipy.sparse.linalg import expm_multiply

    H, Ls = dense_generator(rep, spec)
    eye = np.eye(rep.dim)
    S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for L in Ls:
        LdL = L.conj().T @ L
        S += np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))
    return expm_multiply(t * S, np.ravel(rho)).reshape(rep.dim, rep.dim)


def coo_lindblad_operators(rep, spec):
    """fock._lindblad_operators assembled afresh by scipy: the COO triplets
    of A = sum_kl alpha_kl X_k X_l and of each L_j = sum_k beta_jk X_k in its
    row block of vstack(A, L_1..L_m) and column block of hstack(L_1..L_m),
    converted to CSR, duplicates summed and zeros dropped."""
    import scipy.sparse as sparse

    from quasifree import fock

    d, n = rep.dim, rep.n
    beta = fock._coupling_coefficients(rep, spec)
    m = len(beta)
    alpha = (-1j * fock._hamiltonian_coefficients(rep, spec.hamiltonian_terms)
             - 0.5 * np.roll(beta.conj(), n, axis=1).T @ beta)
    columns, weights = rep.products
    rows = np.arange(d)
    Lw = beta[:, :, None] * rep.weights
    block = d * np.arange(m)[:, None, None]

    def csr(groups, shape):
        groups = [np.broadcast_arrays(*group) for group in groups]
        values, r, c = (np.concatenate([g[i].ravel() for g in groups]) for i in range(3))
        out = sparse.coo_array((values, (r, c)), shape=shape).tocsr()   # duplicates summed
        out.eliminate_zeros()
        return out

    return (csr([(alpha[..., None] * weights, rows, columns),
                 (Lw, d + block + rows, rep.columns)], ((m + 1) * d, d)),
            csr([(Lw, rows, block + rep.columns)], (d, m * d)))


def lindblad_operators(rep, spec):
    """fock._lindblad_operators as scipy csr_arrays over their own arrays,
    so that scipy's format checks and dense conversions apply to them: each
    operator is csr_matvecs bound to (rows, columns, d, indptr, indices, data)."""
    import scipy.sparse as sparse

    from quasifree import fock

    operators = []
    for op in fock._lindblad_operators(rep, spec):
        rows, columns, _, indptr, indices, data = op.args
        operators.append(sparse.csr_array((data, indices, indptr), shape=(rows, columns)))
    return tuple(operators)


def csr_lindbladian(rep, spec):
    """fock._lindbladian by csr_array @ and one conjugate-transpose pass:
    apply(y, out) writes (sum_j L_j (L_j y)^dag + M) + M^dag into out, with
    M = A y the first d rows of G = vstack(A, L_1..L_m) @ y; the reference
    the CSR kernel path must match bit for bit."""
    stacked, side_by_side = lindblad_operators(rep, spec)
    d, m = rep.dim, len(spec.lindblad_terms)
    B = np.empty((m + 1, d, d), dtype=complex)
    jumps = B[1:].reshape(m * d, d)

    def apply(y, out):
        G = stacked @ y
        np.conjugate(G.reshape(m + 1, d, d).transpose(0, 2, 1), out=B)
        np.add(side_by_side @ jumps, G[:d], out=out)
        out += B[0]

    return apply
