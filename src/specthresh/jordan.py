"""
Theta-bilinear Jordan-chain machinery on the range of the Riesz projection,
given by its orthonormal Schur basis in each parity sector.

Theta(u, v) = sum_i tau_i u_i v_i with tau = w * V is a symmetric bilinear
(not sesquilinear) form; on E = Ran Pi_1 it is non-degenerate and
Theta-symmetric for Id + K0.  The constructive decomposition below follows
the staircase recursion: find the nilpotency index of (Id+K0)|_E, pick a
chain top maximizing |Theta((Id+K0)^{m-1} u, u)|, split off the chain's span
and recurse on its Theta-orthogonal complement.  It runs once per parity
sector of the model's reflection group (`build_jordan_chains`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla

from .symmetry import ReflectionGroup

__all__ = [
    "JordanBasis",
    "theta", "build_jordan_chains", "dual_basis", "verify_jordan_form",
    "complex_symmetric_cholesky", "projector_from_chains",
]


# ---------------------------------------------------------------------------
# types

def theta(tau: np.ndarray, u: np.ndarray, v: np.ndarray) -> complex:
    return complex(np.sum(tau * u * v))


@dataclass
class JordanBasis:
    k: int
    sizes: List[int]                   # m_1 .. m_k
    chains: List[List[np.ndarray]]     # chains[i][r-1] = u_r^{(i)}
    duals: List[List[np.ndarray]]      # duals[j][r-1] = w_r^{(j)}
    constants: List[complex]           # c_i = Theta(u_1^{(i)}, u_{m_i}^{(i)})
    sectors: List[int]                 # the sector of each chain

    @property
    def m(self) -> int:
        return sum(self.sizes)

    def flat_chain(self) -> np.ndarray:
        """(n, m) matrix of chain vectors, blocks in order, r = 1..m_i."""
        return np.column_stack([u for ch in self.chains for u in ch])

    def flat_dual(self) -> np.ndarray:
        return np.column_stack([w for ch in self.duals for w in ch])


# ---------------------------------------------------------------------------
# construction

def _nilpotency_index(Ac: np.ndarray, tol: float = 1e-8) -> int:
    d = Ac.shape[0]
    X = np.eye(d)
    base = max(1.0, np.linalg.norm(Ac, 2))
    for p in range(1, d + 1):
        X = Ac @ X
        if np.linalg.norm(X, 2) < tol * base ** p:
            return p
    raise ValueError("operator not nilpotent on the candidate subspace")


# a block is Theta-degenerate when its pairing is below this times |Theta|
_DEGENERACY_TOL = 1e-10


def _staircase(A: np.ndarray, Th: np.ndarray, th_scale: float,
               rng: np.random.Generator,
               marker: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """Theta-orthogonal Jordan blocks of the nilpotent A (coordinates of
    (Id + K)|_E) under the complex-symmetric form Th: each an (m, m_i)
    matrix of chain coordinates, r = 1..m_i.  Given the marker functional's
    coordinates, the chain tops come from its kernel while more than one
    direction is left, so the marked direction is split off last."""
    blocks: List[np.ndarray] = []
    C = np.eye(A.shape[0])             # current subspace basis (coords)
    while C.shape[1] > 0:
        d = C.shape[1]
        Ac = np.linalg.pinv(C) @ A @ C
        p = _nilpotency_index(Ac)
        Q = np.linalg.matrix_power(A, p - 1)
        tops = C
        if marker is not None and d > 1:
            tops = C @ sla.null_space((marker @ C)[None, :])
        # candidate chain tops: the top basis + random combinations
        cands = list(tops.T)
        for _ in range(2 * d):
            coeff = (rng.standard_normal(tops.shape[1])
                     + 1j * rng.standard_normal(tops.shape[1]))
            cands.append(tops @ coeff)
        best, best_val = None, -1.0
        for u in cands:
            u = u / np.linalg.norm(u)
            val = abs((Q @ u) @ Th @ u)
            if val > best_val:
                best, best_val = u, val
        if best_val < _DEGENERACY_TOL * th_scale:
            raise ValueError("Theta-degenerate block")
        chain = [np.linalg.matrix_power(A, p - r) @ best for r in range(1, p + 1)]
        blocks.append(np.column_stack(chain))
        # Theta-orthogonal complement of the chain span inside span(C)
        R = np.column_stack(chain).T @ Th          # (p, m)
        Z = sla.null_space(R @ C, rcond=1e-10)
        if Z.shape[1] != d - p:
            raise ValueError("Theta-degenerate block")
        C = C @ Z
    return blocks


def build_jordan_chains(bases: Sequence[Optional[Tuple[np.ndarray,
                                                       np.ndarray]]],
                        tau: np.ndarray, group: ReflectionGroup,
                        marked: bool = False) -> JordanBasis:
    """Constructive Jordan decomposition of (Id + K) restricted to the
    invariant subspace E of its -1 cluster, with Theta-orthogonal blocks,
    one character of `group` at a time.

    K and tau = w V are invariant under the group, so E and the chains
    split by sector: `bases` holds, per sector, None or (B, A) with B an
    orthonormal basis of E in the sector and K_s B = B (A - Id)
    (`RieszProjection.bases`).  In sector coordinates Theta is diagonal:
    tau_s = tau at the representative of each of the sector's orbits (the
    sector basis is real and each of its vectors lives on one orbit, where
    tau is constant), and chains of different sectors are
    Theta-orthogonal.  The staircase runs on A in each sector; chains and
    duals are lifted to the nodes
    (`ReflectionGroup.from_sectors`) and `JordanBasis.sectors` records the
    sector of each chain.  The one-block group of the identity takes a
    matrix without symmetry.  The random candidate chain tops come from one
    fixed seed, so the basis is reproducible.

    `marked`: one direction of E carries the integral marker tau^T u (the
    resonance of a third-kind threshold).  The chain tops are then drawn
    from the marker's kernel while more than one direction is left, so the
    eigen chains are marker-free in any basis B, and the chains come in
    decreasing |tau^T u_1|, resonance first.  Default order: decreasing
    block size.
    """
    rng = np.random.default_rng(7)
    tau_reps = np.asarray(tau)[group.reps]
    sectors = []                       # (s, B, A, Th, tau_s)
    for s, basis in enumerate(bases):
        if basis is None:
            continue
        B, A = basis
        tau_s = tau_reps[group.sector_orbits[s]]
        Th = (B * tau_s[:, None]).T @ B  # coords of Theta (complex symmetric)
        sectors.append((s, B, A, (Th + Th.T) / 2.0, tau_s))
    # Theta is block diagonal by sector: its norm is the largest block's
    th_scale = max([np.linalg.norm(Th, 2) for *_, Th, _ in sectors]
                   + [1e-300])

    found = []                         # (sector, chain coords, c)
    for s, B, A, Th, tau_s in sectors:
        # tau^T x of the lifted x: sum_a sqrt|O_a| tau_s[a] x[a] in the
        # trivial sector (the first); other characters sum to 0 on an orbit
        marker = ((np.sqrt(group.sizes[group.sector_orbits[s]]) * tau_s) @ B
                  if marked and s == 0 else None)
        for blk in _staircase(A, Th, th_scale, rng, marker):
            U = np.column_stack([B @ blk[:, r] for r in range(blk.shape[1])])
            c = theta(tau_s, U[:, 0], U[:, -1])
            if abs(c) <= _DEGENERACY_TOL * th_scale:
                raise ValueError("Theta-degenerate block")
            found.append((s, U, c))

    def lift(s: int, X: np.ndarray) -> List[np.ndarray]:
        Y = [np.zeros((len(c), X.shape[1]), dtype=complex)
             for c in group.sector_orbits]
        Y[s] = X
        return list(group.from_sectors(Y).T)

    chains = [lift(s, U) for s, U, _ in found]
    if marked:
        order = sorted(range(len(found)),
                       key=lambda i: -abs(np.sum(tau * chains[i][0])))
    else:
        order = sorted(range(len(found)), key=lambda i: -len(chains[i]))
    found = [found[i] for i in order]
    # duals sector by sector, against each sector's Gram matrix
    duals: List[List[np.ndarray]] = [[] for _ in found]
    for s, *_, tau_s in sectors:
        mine = [i for i, f in enumerate(found) if f[0] == s]
        part = JordanBasis(k=len(mine), sizes=[found[i][1].shape[1]
                                               for i in mine],
                           chains=[list(found[i][1].T) for i in mine],
                           duals=[], constants=[found[i][2] for i in mine],
                           sectors=[s] * len(mine))
        for i, w in zip(mine, dual_basis(part, tau_s)):
            duals[i] = lift(s, np.column_stack(w))
    return JordanBasis(k=len(found), sizes=[f[1].shape[1] for f in found],
                       chains=[chains[i] for i in order], duals=duals,
                       constants=[f[2] for f in found],
                       sectors=[f[0] for f in found])


def dual_basis(basis: JordanBasis, tau: np.ndarray) -> List[List[np.ndarray]]:
    """Solve the Gram system Theta(u_l^{(i)}, w_r^{(j)}) = delta_ij delta_lr
    and pin w_{m_j}^{(j)} = c_j^{-1} u_1^{(j)}."""
    U = basis.flat_chain()
    G = (U * tau[:, None]).T @ U
    if np.linalg.cond(G) > 1e10:
        raise ValueError("numerically Theta-degenerate")
    alpha = np.linalg.inv(G)
    W = U @ alpha
    duals, col = [], 0
    for j, mj in enumerate(basis.sizes):
        block = [W[:, col + r] for r in range(mj)]
        block[mj - 1] = basis.chains[j][0] / basis.constants[j]
        duals.append(block)
        col += mj
    return duals


def verify_jordan_form(basis: JordanBasis, K0: np.ndarray, tau: np.ndarray
                       ) -> np.ndarray:
    """Matrix of Pi_1 (Id+K0) Pi_1 in the chain basis via the dual pairing;
    equals the block-diagonal nilpotent with ones on each superdiagonal."""
    U = basis.flat_chain()
    W = basis.flat_dual()
    AU = U + K0 @ U
    return (W * tau[:, None]).T @ AU


def projector_from_chains(basis: JordanBasis, tau: np.ndarray) -> np.ndarray:
    """Pi_1 = sum_{j,r} <., J V w_r^{(j)}> u_r^{(j)} rebuilt from the chains."""
    U = basis.flat_chain()
    W = basis.flat_dual()
    return U @ (W * tau[:, None]).T


def complex_symmetric_cholesky(L: np.ndarray) -> np.ndarray:
    """Upper-triangular Q with Q^T Q = L^{-1} (transpose, no conjugation),
    via the unpivoted complex-symmetric Cholesky factorization of L^{-1}."""
    L = np.asarray(L, dtype=complex)
    if L.shape[0] != L.shape[1] or not np.allclose(L, L.T, atol=1e-10 * max(1.0, abs(L).max())):
        raise ValueError("matrix must be complex symmetric")
    M = np.linalg.inv(L)
    n = M.shape[0]
    Lo = np.zeros_like(M)
    scale = abs(M).max()
    for j in range(n):
        s = M[j, j] - np.sum(Lo[j, :j] ** 2)
        piv = np.sqrt(complex(s))
        if abs(piv) < 1e-12 * np.sqrt(scale):
            raise ValueError("pivot breakdown")
        Lo[j, j] = piv
        for i in range(j + 1, n):
            Lo[i, j] = (M[i, j] - np.sum(Lo[i, :j] * Lo[j, :j])) / piv
    return Lo.T.copy()
