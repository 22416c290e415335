"""Jordan chains under the bilinear Theta form, duality, projector
reconstruction and the complex-symmetric triangular factorization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from specthresh.jordan import (build_jordan_chains,
                               complex_symmetric_cholesky, dual_basis,
                               projector_from_chains, theta,
                               verify_jordan_form)
from specthresh.symmetry import ReflectionGroup


def _chains(P1, K0, tau):
    """The chains of a matrix without symmetry: one block, the identity's
    group, on the SVD range basis B of P1 with the matrix B^H (B + K0 B)
    of Id + K0 on it."""
    one = ReflectionGroup({0: np.arange(len(K0))})
    B = oracles.projector_range(P1)
    return build_jordan_chains([(B, B.conj().T @ (B + K0 @ B))], tau, one)


def _theta_symmetric_case(sizes, n=12, seed=11, shift=3.0):
    """Construct (K0, tau, P1, J) with K0 = A - Id where A has the requested
    nilpotent block sizes at eigenvalue 0 and diag(tau) A is symmetric.

    The canonical bilinear form G for a Jordan matrix J (G J = J^T G) is the
    block-diagonal of anti-identity flips; factoring G = Q^T Q and setting
    Y = diag(tau)^{-1/2} Q makes A = Y J Y^{-1} Theta-symmetric for the
    chosen tau."""
    rng = np.random.default_rng(seed)
    m = sum(sizes)
    J = np.zeros((n, n), dtype=complex)
    G = np.eye(n, dtype=complex)
    pos = 0
    for sz in sizes:
        for r in range(sz - 1):
            J[pos + r, pos + r + 1] = 1.0
        F = np.fliplr(np.eye(sz))
        G[pos:pos + sz, pos:pos + sz] = F
        pos += sz
    J[m:, m:] = np.diag(rng.standard_normal(n - m)
                        + 1j * rng.standard_normal(n - m) + shift)
    # symmetric square root of each flip block via its orthogonal eigenbasis
    Q = np.eye(n, dtype=complex)
    pos = 0
    for sz in sizes:
        F = np.fliplr(np.eye(sz))
        lam, P = np.linalg.eigh(F)
        Q[pos:pos + sz, pos:pos + sz] = np.diag(
            np.lib.scimath.sqrt(lam.astype(complex))) @ P.T
        pos += sz
    assert np.allclose(Q.T @ Q, G)
    tau = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Y = np.diag(tau ** -0.5) @ Q
    A = Y @ J @ np.linalg.inv(Y)
    assert np.allclose(np.diag(tau) @ A, (np.diag(tau) @ A).T)
    K0 = A - np.eye(n)
    P1 = Y[:, :m] @ np.linalg.inv(Y)[:m, :]
    return K0, tau, P1


def test_chain_sizes_and_block_pattern_21():
    K0, tau, P1 = _theta_symmetric_case([2, 1])
    jb = _chains(P1, K0, tau)
    assert jb.sizes == [2, 1]
    N = verify_jordan_form(jb, K0, tau)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    assert np.linalg.norm(N - expected) < 1e-10


def test_duality_and_projector_reconstruction_21():
    K0, tau, P1 = _theta_symmetric_case([2, 1])
    jb = _chains(P1, K0, tau)
    U = jb.flat_chain()
    W = jb.flat_dual()
    gram = (U * tau[:, None]).T @ W
    assert np.linalg.norm(gram - np.eye(3)) < 1e-10
    P = projector_from_chains(jb, tau)
    assert np.linalg.norm(P - P1) < 1e-10 * np.linalg.norm(P1)


def test_semisimple_kernel_gives_unit_chains():
    K0, tau, P1 = _theta_symmetric_case([1, 1, 1], seed=4)
    jb = _chains(P1, K0, tau)
    assert jb.sizes == [1, 1, 1]
    N = verify_jordan_form(jb, K0, tau)
    assert np.linalg.norm(N) < 1e-10


def test_single_long_chain():
    K0, tau, P1 = _theta_symmetric_case([3], seed=9)
    jb = _chains(P1, K0, tau)
    assert jb.sizes == [3]
    N = verify_jordan_form(jb, K0, tau)
    expected = np.diag(np.ones(2, dtype=complex), k=1)
    assert np.linalg.norm(N - expected) < 1e-9


def test_non_nilpotent_subspace_is_rejected():
    rng = np.random.default_rng(0)
    n = 8
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K0 = A - np.eye(n)
    P1 = np.eye(n)     # full space: A certainly not nilpotent on it
    tau = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with pytest.raises(ValueError, match="nilpotent"):
        _chains(P1, K0, tau)


def test_dual_basis_pins_top_elements():
    K0, tau, P1 = _theta_symmetric_case([2, 1], seed=13)
    jb = _chains(P1, K0, tau)
    duals = dual_basis(jb, tau)
    for j, chain in enumerate(jb.chains):
        c = jb.constants[j]
        # the last dual in each chain is u_1 / c_j
        assert np.allclose(duals[j][-1], chain[0] / c)


def test_theta_form_is_bilinear():
    rng = np.random.default_rng(3)
    tau = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.isclose(theta(tau, u, v), theta(tau, v, u))
    assert np.isclose(theta(tau, 2j * u, v), 2j * theta(tau, u, v))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_complex_symmetric_cholesky_inverts_gram(seed):
    rng = np.random.default_rng(seed)
    k = 4
    B = rng.standard_normal((k, k)) + 0.3j * rng.standard_normal((k, k))
    L = B @ B.T + 2.0 * np.eye(k)          # complex symmetric, well separated
    Q = complex_symmetric_cholesky(L)
    assert np.linalg.norm(Q @ L @ Q.T - np.eye(k)) < 1e-8
