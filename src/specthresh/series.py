"""
Laurent/Puiseux matrix series with half-power bookkeeping.

Orders are integers counting powers of the series variable: sqrt(z) for
threshold expansions (so order 2 means z^1) or (z - lambda0) for expansions
at a positive energy.  Coefficients are arrays of one shape: square
matrices (E_-+, whose inverse and determinant series are taken here), or
the flat sector blocks of an operator (the resolvent series of `grushin`;
`ReflectionGroup.expand` gives the n x n matrix of one).  A cap bounds the
retained order so products stay exact up to the cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

__all__ = ["ExpansionSeries", "series_solve"]


@dataclass
class ExpansionSeries:
    variable: str                       # "sqrt_z" | "z_minus_lambda0"
    coeffs: Dict[int, np.ndarray]
    cap: int                            # highest retained order

    # --- bookkeeping ------------------------------------------------------
    def __post_init__(self):
        self.coeffs = {j: np.asarray(c, dtype=complex)
                       for j, c in self.coeffs.items() if j <= self.cap}

    @property
    def shape(self):
        return next(iter(self.coeffs.values())).shape

    def coeff(self, j: int) -> np.ndarray:
        if j in self.coeffs:
            return self.coeffs[j]
        return np.zeros(self.shape, dtype=complex)

    def _check(self, other: "ExpansionSeries"):
        if self.variable != other.variable:
            raise ValueError("series variable mismatch")

    # --- arithmetic -------------------------------------------------------
    def __add__(self, other: "ExpansionSeries") -> "ExpansionSeries":
        self._check(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return ExpansionSeries(self.variable,
                               {j: self.coeff(j) + other.coeff(j) for j in keys},
                               min(self.cap, other.cap))

    def __sub__(self, other: "ExpansionSeries") -> "ExpansionSeries":
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "ExpansionSeries":
        return ExpansionSeries(self.variable,
                               {j: scalar * c for j, c in self.coeffs.items()},
                               self.cap)

    __rmul__ = __mul__

    def __matmul__(self, other: "ExpansionSeries") -> "ExpansionSeries":
        self._check(other)
        cap = min(self.cap, other.cap)
        out: Dict[int, np.ndarray] = {}
        for j1, A in self.coeffs.items():
            for j2, B in other.coeffs.items():
                j = j1 + j2
                if j > cap:
                    continue
                P = A @ B
                if j in out:
                    out[j] += P
                else:
                    out[j] = P
        return ExpansionSeries(self.variable, out, cap)

    def eval(self, u: complex) -> np.ndarray:
        """Sum of coeff_j u^j (u is the series variable: sqrt(z) or z-lam0)."""
        acc = np.zeros(self.shape, dtype=complex)
        for j, c in sorted(self.coeffs.items()):
            acc = acc + c * u ** j
        return acc

    def truncated(self, cap: int) -> "ExpansionSeries":
        return ExpansionSeries(self.variable,
                               {j: c for j, c in self.coeffs.items() if j <= cap},
                               cap)

    # --- structural operations -------------------------------------------
    def laurent_inverse(self, q: int) -> "ExpansionSeries":
        """Inverse series assuming lowest inverse order -q: solves the stacked
        block-Toeplitz system sum_r C_r D_{s-r} = delta_{s0} I for the D's."""
        if min(self.coeffs) < 0:
            raise ValueError("laurent_inverse expects a regular input series")
        m = self.shape[0]
        L = self.cap
        nb = L + 1
        big = np.zeros((nb * m, nb * m), dtype=complex)
        rhs = np.zeros((nb * m, m), dtype=complex)
        for a in range(nb):           # equation order s = a - q
            for b in range(nb):       # unknown order p = b - q
                r = a - b
                if 0 <= r <= L and r in self.coeffs:
                    big[a * m:(a + 1) * m, b * m:(b + 1) * m] = self.coeffs[r]
        rhs[q * m:(q + 1) * m, :] = np.eye(m)
        sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
        out = {b - q: sol[b * m:(b + 1) * m, :] for b in range(nb)}
        return ExpansionSeries(self.variable, out, L - q)

    def det_series(self) -> Dict[int, complex]:
        """Determinant as a scalar series through the cap.  det s(u) is a
        polynomial of degree <= m cap, so its values at the N > m cap roots
        of unity fix every coefficient: one batched det and one FFT."""
        if min(self.coeffs) < 0:
            raise ValueError("det_series expects a regular input series")
        m = self.shape[0]
        N = 1 << (m * self.cap).bit_length()
        orders = np.arange(self.cap + 1)
        powers = np.exp(2j * np.pi * np.outer(np.arange(N), orders) / N)
        C = np.array([self.coeff(j) for j in orders])
        dets = np.linalg.det(np.einsum("qj,jab->qab", powers, C))
        c = np.fft.fft(dets) / N
        return {int(j): complex(c[j]) for j in orders}


def series_solve(solve: Callable[[List[np.ndarray]], List[np.ndarray]],
                 M: Dict[int, Sequence[np.ndarray]],
                 rhs: Dict[int, Sequence[np.ndarray]],
                 order: int) -> List[List[np.ndarray]]:
    """X_0, ..., X_order of P(u) X(u) = b(u) with P(u) = P_0 + sum_{r>=1}
    M_r u^r, each X_p a list of blocks (one per sector), from solve(B) =
    P_0^{-1} B on such a list: X_p = solve(b_p - sum_{r=1..p} M_r X_{p-r}).
    `rhs` maps orders to the blocks of b_p (an order it lacks is zero; it
    holds order 0) and `M` maps r >= 1 to those of M_r.  A block of M_r may
    be the leading k x k block of P_r, zero elsewhere: the bordered Grushin
    operator [[M_s(u), S_s], [T_s, 0]] passes its n_s x n_s M_rs, and no
    zero-padded copy of them is formed."""
    X: List[List[np.ndarray]] = []
    for p in range(order + 1):
        acc = ([np.array(B, dtype=complex) for B in rhs[p]] if p in rhs
               else [np.zeros_like(Y) for Y in X[0]])
        for r in range(1, p + 1):
            for A, Mr, Y in zip(acc, M.get(r, ()), X[p - r]):
                k = len(Mr)
                A[:k] -= Mr @ Y[:k]
        X.append(solve(acc))
    return X
