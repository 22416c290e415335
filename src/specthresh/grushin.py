"""
Grushin reduction of M(z) = Id + K(z), Laurent inversion of the effective
operator E_-+(z), Lidskii scaling of det E_-+, and the resulting resolvent
expansions at the zero threshold and at embedded outgoing resonances.

The reduction uses the Jordan chains U = (u_r^(i)) and duals W = (w_r^(j)) of
(Id + K0) on Ran Pi_1 (from its Schur basis in each sector): S maps
coordinates to chain vectors and T is the Theta-pairing against the duals,
so T S = Id.  The bordered operator and its inverse hold all four Grushin
operators (Sjostrand & Zworski 2007):

    P(z) = [[M(z), S], [T, 0]],    P(z)^{-1} = [[E, E_+], [E_-, E_-+]],
    M(z)^{-1} = E - E_+ E_-+^{-1} E_-.

Because T S = Id these are the projected forms E = Pi' (Pi' M Pi' + Pi)^{-1}
Pi' (Pi = S T, Pi' = Id - Pi), E_+ = S - E M S, E_- = T - T M E and
E_-+ = -T M S + T M E M S, which `verify_grushin_identity` evaluates as its
independent reference.  Everything is computed twice: as truncated series
solves against P in sqrt(z) (or z - lam0), from one factorization of P at
the anchor, and by factoring P at sample points, and the two are
cross-validated.  Both run on the parity-sector blocks of P, one block of
size n_s + m_s per character of the model's reflection group
(`GrushinReduction`).

A change of chain basis S -> S A, T -> A^{-1} T sends E_-+ to A^{-1} E_-+ A
and leaves E, M^{-1} and det E_-+ as they are: the pole order, the Lidskii
constants and the resolvent coefficients do not depend on which basis of
each sector's chains is used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg as sla

from .birman_schwinger import (Discretization, EigenNearMinusOne,
                               ZeroClassification, classify_zero,
                               detect_minus_one, marker_tolerance,
                               riesz_projection)
from .jordan import (JordanBasis, build_jordan_chains,
                     complex_symmetric_cholesky)
from .kernels import BranchPoint
from .series import ExpansionSeries, series_solve
from .symmetry import BlockLU

__all__ = [
    "GrushinReduction", "LidskiiScaling",
    "ThresholdCoefficients", "ResonanceCoefficients",
    "invert_E_minus_plus", "lidskii_determinant",
    "threshold_resolvent_expansion", "resonance_resolvent_expansion",
    "verify_grushin_identity",
]


# ---------------------------------------------------------------------------
# types

@dataclass
class LidskiiScaling:
    kind: str
    order_structural: float        # predicted power of z (or of z - lam0)
    order_fit: float               # Richardson-extrapolated ladder slope
    constant_machinery: complex    # leading coefficient of det E_-+ (series)
    constant_fit: complex          # ladder estimate of the same coefficient
    constant_formula: Optional[complex]  # closed form, when available
    samples: List[Tuple[complex, complex]] = field(default_factory=list)


# The resolvent series and the operator coefficients below are flat sector
# blocks of `Discretization.sectors` (`ReflectionGroup.transform`);
# `ReflectionGroup.expand` gives the n x n matrix of one.

@dataclass
class ThresholdCoefficients:
    kind: str
    series: ExpansionSeries        # resolvent series in powers of sqrt(z)
    remainder_samples: List[Tuple[complex, float]]  # (z, rel err vs R(z))
    R_m2: np.ndarray               # coefficient of z^{-1}
    R_m1: np.ndarray               # coefficient of z^{-1/2}
    phi: Optional[np.ndarray]      # normalized resonance state (first/third)
    Z: List[np.ndarray]            # pairwise-normalized L^2 states (second/third)
    P0: Optional[np.ndarray]       # sum of <., J Z_l> Z_l
    scaling: LidskiiScaling
    constants: Dict[str, object]
    basis: Optional[JordanBasis]


@dataclass
class ResonanceCoefficients:
    lam0: float
    N0: int
    series: ExpansionSeries        # resolvent series in powers of z - lam0
    remainder_samples: List[Tuple[complex, float]]  # (offset, rel err vs R)
    R_m1: np.ndarray               # residue coefficient
    psi: List[np.ndarray]          # B-normalized outgoing states
    scaling: LidskiiScaling
    constants: Dict[str, object]
    basis: Optional[JordanBasis]
    detection: EigenNearMinusOne   # the -1 cluster of K+(lam0) projected on


# ---------------------------------------------------------------------------
# reduction

# the operator the checked LUs of the direct evaluations name in their errors
_BORDERED_AT = "the bordered Grushin operator P(z)"

class GrushinReduction:
    """Series and direct evaluations of the Grushin data of M(z), as blocks
    of the inverse of the bordered operator P(z) = [[M(z), S], [T, 0]], with
    S the chain vectors of `basis` and T the rows Theta(., w_r^(j)).

    point = "threshold": series variable sqrt(z), R0_j = i^j G_j.
    point = lam0 > 0:    series variable z - lam0, R0_j = G_j^+ / j!.
    In both, M_j = delta_j0 Id + R0_j V.  basis = None is the regular case
    m = 0, where P = M and E = M^{-1}.

    Everything runs on the sector blocks of `disc.sectors`: M_j commutes
    with the group, and each chain lies in one sector (`JordanBasis.sectors`),
    so P is block diagonal with one block [[M_s, S_s], [T_s, 0]] of size
    n_s + m_s per sector (just M_s when the sector holds no chain).  The
    reduction keeps R0_j as flat sector blocks and factors each P_s(0) once
    (`BlockLU`); every series is a `series_solve` against P_s(u): the
    columns P_s^{-1} [0; I] (`corner_blocks`: E_+ over E_-+) through the
    cap, and P_s^{-1} [R0_s; 0] (`r0_blocks`: E R0 over E_- R0) as far as
    the resolvent needs.  `columns` gives each sector's chain columns in
    the flat chain order of `basis`.  E_-+ is assembled m x m in that
    order, block diagonal by sector, and M^{-1} R0 = E R0 - E_+ E_-+^{-1}
    (E_- R0) is formed block by block, each coefficient one flat block
    buffer (`resolvent_series`).  S (n x m) and T (m x n) stay on the
    nodes for `verify_grushin_identity`.

    Every other per-anchor constant is fixed here (points near lam0 are
    offsets): the series cap (default), the point q_test at which the
    Laurent order is checked, the remainder_points of the resolvent series,
    its truncation order in M^{-1}, and the Lidskii ladder's first rung
    lidskii_z0, the rung_ratio of the series variable as z shrinks by 4 and
    z_power, the power of z per order of the series variable.
    """

    def __init__(self, disc: Discretization, basis: Optional[JordanBasis],
                 point="threshold", cap: Optional[int] = None):
        self.disc = disc
        self.basis = basis
        self.point = point
        group = self.group = disc.sectors
        if point == "threshold":
            self.var, self.cap = "sqrt_z", 8 if cap is None else cap
            self._r0 = {j: (1j ** j) * disc.gj_sectors(j)
                        for j in range(self.cap + 1)}
            self.q_test, self.truncation = 1e-3, 3
            self.remainder_points = (-1e-2, -1e-3, 1e-3 + 1e-3j)
            self.lidskii_z0, self.rung_ratio, self.z_power = -4e-2, 2.0, 0.5
        else:
            self.var, self.cap = "z_minus_lambda0", 6 if cap is None else cap
            self._r0 = {j: disc.gj_plus_sectors(j, point)
                        / math.factorial(j) for j in range(self.cap + 1)}
            self.q_test, self.truncation = 1e-4, 2
            self.remainder_points = (-1e-3, -1e-4, 1e-4 + 1e-4j)
            self.lidskii_z0, self.rung_ratio, self.z_power = -4e-3, 4.0, 1.0
        n = disc.grid.n
        if basis is None:
            self.S, self.T = np.zeros((n, 0)), np.zeros((0, n))
            col_sector = np.zeros(0, dtype=np.intp)
        else:
            self.S = basis.flat_chain()
            self.T = (basis.flat_dual() * (disc.w * disc.V)[:, None]).T
            if not np.allclose(self.T @ self.S, np.eye(self.S.shape[1]),
                               atol=1e-7):
                raise ValueError("Grushin corner is not a left inverse of "
                                 "the chains")
            col_sector = np.repeat(basis.sectors, basis.sizes)
        self.columns = [np.flatnonzero(col_sector == s)
                        for s in range(len(group.sector_orbits))]
        # Q_s^T S and Q_s^T T^T: each chain lies in its own sector
        Ss, Ts = group.to_sectors(self.S), group.to_sectors(self.T.T)
        self._S = [X[:, c] for X, c in zip(Ss, self.columns)]
        self._T = [X[:, c].T for X, c in zip(Ts, self.columns)]

    # --- series building --------------------------------------------------
    @staticmethod
    def _bordered(M: np.ndarray, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """[[M, S], [T, 0]]."""
        n, m = S.shape
        P = np.zeros((n + m, n + m), dtype=complex)
        P[:n, :n] = M
        P[:n, n:] = S
        P[n:, :n] = T
        return P

    @cached_property
    def _lu(self) -> BlockLU:
        """The checked LU of each sector's bordered P_s(0)."""
        return BlockLU([self._bordered(M, S, T) for M, S, T in
                        zip(self.group.split(self.disc.m_blocks(self._r0[0])),
                            self._S, self._T)],
                       "the bordered Grushin operator P(0)")

    def _solve(self, rhs: Dict[int, List[np.ndarray]], order: int
               ) -> List[List[np.ndarray]]:
        """`series_solve` of P_s(u) X = rhs through `order` for every
        sector, with M_r (r >= 1) passed as the leading n_s x n_s block of
        the order-r coefficient of P_s(u), zero elsewhere."""
        M = {r: self.group.split(self.disc.times_v(self._r0[r]))
             for r in range(1, order + 1)}
        return series_solve(self._lu.solve, M, rhs, order)

    @cached_property
    def corner_blocks(self) -> List[List[np.ndarray]]:
        """P_s(u)^{-1} [0; I_{m_s}] through the cap: per order, a list of
        sector blocks of n_s + m_s rows whose top n_s rows are E_+ and
        bottom m_s rows E_-+ (`series_solve`)."""
        rhs = [np.eye(len(S) + len(c))[:, len(S):]
               for S, c in zip(self._S, self.columns)]
        return self._solve({0: rhs}, self.cap)

    def r0_blocks(self, order: int) -> List[List[np.ndarray]]:
        """P_s(u)^{-1} [R0_s(u); 0] through `order`: per order, a list of
        sector blocks whose top n_s rows are E R0 and bottom m_s rows
        E_- R0 (`series_solve`)."""
        group = self.group
        rhs = {j: [np.vstack([B, np.zeros((len(c), len(B)))]) for B, c in
                   zip(group.split(self._r0[j]), self.columns)]
               for j in range(order + 1)}
        return self._solve(rhs, order)

    @property
    def Emp_series(self) -> ExpansionSeries:
        """E_-+ as an m x m series in the flat chain order, block diagonal
        by sector."""
        m = self.S.shape[1]
        out = {j: np.zeros((m, m), dtype=complex)
               for j in range(self.cap + 1)}
        for j, blocks in enumerate(self.corner_blocks):
            for X, S, c in zip(blocks, self._S, self.columns):
                out[j][np.ix_(c, c)] = X[len(S):]
        return ExpansionSeries(self.var, out, self.cap)

    def resolvent_series(self, L: int, F: Optional[ExpansionSeries] = None,
                         q: int = 0) -> ExpansionSeries:
        """M^{-1} R0 through order L, with M^{-1} = E - E_+ F E_- for F the
        Laurent inverse of E_-+ (lowest order -q; None when m = 0): on each
        sector's blocks, E R0 - E_+ F (E_- R0) from one `r0_blocks` solve
        through order L + q, each coefficient the flat buffer of its
        blocks."""
        X = self.r0_blocks(L + q)

        def part(s, rows, coeffs, cap):
            return ExpansionSeries(self.var, {j: C[s][rows] for j, C
                                              in enumerate(coeffs[:cap + 1])},
                                   cap)

        blocks = []
        for s, (S, c) in enumerate(zip(self._S, self.columns)):
            top, bottom = slice(None, len(S)), slice(len(S), None)
            Rs = part(s, top, X, L)
            if len(c):
                Fs = ExpansionSeries(self.var, {j: C[np.ix_(c, c)] for j, C
                                                in F.coeffs.items()}, F.cap)
                Rs = Rs - ((part(s, top, self.corner_blocks, L + q)
                            @ Fs.truncated(L)) @ part(s, bottom, X, L + q))
            blocks.append(Rs)
        return ExpansionSeries(self.var, {
            j: self.group.join([B.coeff(j) for B in blocks])
            for j in range(-q, L + 1)}, L)

    # --- direct evaluation ------------------------------------------------
    def bp_of(self, z: complex, side: str = "+") -> BranchPoint:
        if self.var == "sqrt_z":
            return BranchPoint.from_z(z, side=side if np.real(z) > 0
                                      and np.imag(z) == 0 else None)
        zz = complex(self.point) + complex(z)     # z is the offset xi
        if zz.imag == 0.0:
            return BranchPoint.boundary(zz.real, "+")
        return BranchPoint.from_z(zz)

    def var_of(self, bp: BranchPoint) -> complex:
        if self.var == "sqrt_z":
            return bp.sqrt_z
        return bp.z - self.point

    def _bordered_at(self, bp: BranchPoint) -> List[np.ndarray]:
        """The bordered blocks [[M_s(z), S_s], [T_s, 0]], M_s from the
        representative rows of R0 (`Discretization.M_sectors`)."""
        return [self._bordered(M, S, T) for M, S, T in
                zip(self.group.split(self.disc.M_sectors(bp)), self._S,
                    self._T)]

    def E_at(self, bp: BranchPoint) -> np.ndarray:
        """The flat sector blocks of E(z): one checked LU of the bordered
        blocks (`BlockLU`), each solved against the first n_s columns of
        the identity."""
        P = self._bordered_at(bp)
        rhs = [np.eye(len(B))[:, :len(S)] for B, S in zip(P, self._S)]
        return self.group.join([X[:len(S)] for X, S in
                                zip(BlockLU(P, _BORDERED_AT).solve(rhs),
                                    self._S)])

    def Emp_at(self, bp: BranchPoint) -> np.ndarray:
        """E_-+(z), m x m in the flat chain order: one checked LU
        (`BlockLU`) of the bordered blocks of the sectors that hold chains,
        each solved against the last m_s columns of the identity."""
        m = self.S.shape[1]
        out = np.zeros((m, m), dtype=complex)
        held = [(B, len(S), c) for B, S, c in
                zip(self._bordered_at(bp), self._S, self.columns) if len(c)]
        X = BlockLU([B for B, _, _ in held], _BORDERED_AT).solve(
            [np.eye(len(B))[:, k:] for B, k, _ in held])
        for Xs, (_, k, c) in zip(X, held):
            out[np.ix_(c, c)] = Xs[k:]
        return out


def verify_grushin_identity(red: GrushinReduction, z: complex,
                            side: str = "+") -> float:
    """Relative residual of M^{-1} = E - E_+ E_-+^{-1} E_- at one point, with
    the Grushin data formed independently of the bordered inverse:
    E = Pi' (Pi' M Pi' + Pi)^{-1} Pi' with Pi = S T, Pi' = Id - Pi,
    E_+ = S - E M S, E_- = T - T M E and E_-+ = -T M S + T M E M S."""
    bp = red.bp_of(z, side=side)
    M = red.disc.M(bp)
    Minv = np.linalg.inv(M)
    S, T = red.S, red.T
    P1 = S @ T
    P1p = np.eye(len(P1)) - P1
    E = P1p @ sla.solve(P1p @ M @ P1p + P1, P1p)
    Ep = S - E @ M @ S
    Em = T - T @ M @ E
    Emp = -T @ M @ S + T @ M @ E @ M @ S
    rec = E - Ep @ np.linalg.solve(Emp, Em)
    return float(np.linalg.norm(rec - Minv) / np.linalg.norm(Minv))


# ---------------------------------------------------------------------------
# Laurent inversion

def invert_E_minus_plus(red: GrushinReduction
                        ) -> Tuple[ExpansionSeries, int]:
    """Laurent inverse of E_-+ with lowest order -q, the smallest q whose
    inverse matches a direct one to 1e-5 relative at the anchor's -q_test,
    -q_test / 4 and, off the negative axis, i q_test."""
    zt = red.q_test
    bps = [red.bp_of(z) for z in (-zt, -zt / 4.0, 1j * zt)]
    # the direct inverses, once for every order tried
    direct = [(red.var_of(bp), np.linalg.inv(red.Emp_at(bp))) for bp in bps]

    emp = red.Emp_series
    for q in range(0, min(red.cap, 5)):
        F = emp.laurent_inverse(q)
        if all(np.linalg.norm(F.eval(u) - D) / np.linalg.norm(D) <= 1e-5
               for u, D in direct):
            return F, q
    raise ValueError("no Laurent order reproduces the inverse of E_-+")


# ---------------------------------------------------------------------------
# Lidskii scaling of det E_-+

def _structural_order(kind: str, k: int) -> Tuple[float, int]:
    """(power of z, power of the series variable) of det E_-+ at the anchor
    for k Jordan blocks."""
    orders = {"first": (0.5, 1), "second": (float(k), 2 * k),
              "third": (k - 0.5, 2 * k - 1), "resonance": (float(k), k)}
    if kind not in orders:
        raise ValueError("unknown kind for Lidskii scaling")
    return orders[kind]


def lidskii_determinant(red: GrushinReduction, kind: str,
                        constant_formula: Optional[complex] = None
                        ) -> LidskiiScaling:
    """Ladder fit of det E_-+ along z_n = z0 4^{-n}, n = 0..6 (z0 and the
    offsets of a resonance anchor from `red`), Richardson-extrapolated,
    against the structural prediction and the exact leading coefficient of
    the determinant series.  A coefficient below the structural order raises:
    the anchor is then not of the given kind."""
    order_z, order_p = _structural_order(kind, red.basis.k)

    det_c = ExpansionSeries(red.var, red.Emp_series.coeffs,
                            min(red.cap, order_p + 2)).det_series()
    const_mach = det_c.get(order_p, 0.0)
    floor = 1e-8 * max(abs(const_mach), 1e-30)
    for j in sorted(det_c):
        if j < order_p and abs(det_c[j]) > floor:
            raise ValueError(f"det E_-+ has coefficient {det_c[j]:.3e} at "
                             f"order {j}, below the structural order "
                             f"{order_p} of a {kind} anchor")

    zs = [red.lidskii_z0 * 4.0 ** (-n) for n in range(7)]
    bps = [red.bp_of(z) for z in zs]
    dets = [complex(np.linalg.det(red.Emp_at(bp))) for bp in bps]
    us = [red.var_of(bp) for bp in bps]
    slopes = [(np.log(abs(dets[i])) - np.log(abs(dets[i + 1])))
              / (np.log(abs(us[i])) - np.log(abs(us[i + 1])))
              for i in range(len(dets) - 1)]
    # the series variable shrinks by ratio rr per rung; one Richardson step
    # cancels the leading error term, of the slope mid-ladder and of the
    # leading-constant estimate d_n / u_n^{order_p} on the last two rungs
    rr, mid = red.rung_ratio, (len(slopes) - 1) // 2
    order_fit_p = float((rr * slopes[mid + 1] - slopes[mid]) / (rr - 1.0))
    c = [d / u ** order_p for d, u in zip(dets[-2:], us[-2:])]
    return LidskiiScaling(kind=kind, order_structural=order_z,
                          order_fit=order_fit_p * red.z_power,
                          constant_machinery=complex(const_mach),
                          constant_fit=complex((rr * c[1] - c[0]) / (rr - 1.0)),
                          constant_formula=constant_formula,
                          samples=[(complex(z), d) for z, d in zip(zs, dets)])


# ---------------------------------------------------------------------------
# closed-form ingredients

def _first_kind_constant(disc: Discretization, basis: JordanBasis) -> complex:
    """Leading coefficient of E_-+ for a simple threshold resonance:
    a_11 = -i <u_1, J V 1>^2 / (4 pi c)."""
    u1 = basis.chains[0][0]
    c = basis.constants[0]
    mk = disc.marker(u1)
    return -1j * mk ** 2 / (4.0 * np.pi * c)


def _eigen_phi_matrix(disc: Discretization, basis: JordanBasis,
                      blocks: List[int]) -> np.ndarray:
    """Phi[i,j] = -c_i^{-1} <u_1^(i), J u_1^(j)>_{R^3} over the given blocks,
    and the pairing matrix L, taken in the source representation (exact for
    marker-free threshold states)."""
    us = [basis.chains[b][0] for b in blocks]
    cs = [basis.constants[b] for b in blocks]
    k = len(us)
    L = np.array([[disc.l2_pair_source(us[i], us[j]) for j in range(k)]
                  for i in range(k)])
    return -np.diag([1.0 / c for c in cs]) @ L, L


def _b_matrix_discrete(disc: Discretization, G1: np.ndarray, lam0: float,
                       vecs: List[np.ndarray]) -> np.ndarray:
    """B_{lam0}(u_i, u_j) realized through the flat sector blocks G1 of the
    derivative kernel G_1^+ at lam0: B = (8 pi sqrt(lam0) / i)
    Theta(G_1^+ V u_j, u_i), the pairing (w V U)^T G_1^+ (V U) on the
    blocks (`ReflectionGroup.bilinear`); exactly the pairing entering the
    machinery's first-order coefficient."""
    U = np.column_stack(vecs)
    fac = 8.0 * np.pi * np.sqrt(lam0) / 1j
    return fac * disc.sectors.bilinear(G1, (disc.w * disc.V)[:, None] * U,
                                       disc.V[:, None] * U)


# ---------------------------------------------------------------------------
# full expansions

def _sample_remainders(red: GrushinReduction, Rs: ExpansionSeries,
                       upto: int) -> List[Tuple[complex, float]]:
    """Relative error of Rs truncated at order `upto` against R(z) at the
    anchor's remainder points, in the Frobenius norm, which is the same on
    the flat sector blocks (`Discretization.R_sectors`) as on the n x n
    matrices."""
    out = []
    part = Rs.truncated(upto)
    for z in red.remainder_points:
        bp = red.bp_of(z)
        u = red.var_of(bp)
        direct = red.disc.R_sectors(bp)
        err = np.linalg.norm(part.eval(u) - direct) / max(np.linalg.norm(direct), 1e-300)
        out.append((complex(z), float(err)))
    return out


def _singular_expansion(disc: Discretization, K: np.ndarray,
                        det: EigenNearMinusOne, point, marked=False) -> tuple:
    """The construction behind both expansions at an anchor where K (flat
    sector blocks) has the -1 cluster `det`: the cluster's invariant
    subspace (its dimension checked against the algebraic multiplicity the
    detection counted), Jordan chains on it (`build_jordan_chains`), the
    Grushin reduction, the Laurent inverse F of E_-+ with pole order q,
    M^{-1} = E - E_+ F E_- and the resolvent series M^{-1} R0.  Returns
    (reduction, q, series, remainder samples)."""
    P1 = riesz_projection(K, disc.sectors, min(det.gap / 2.5, 0.5),
                          detection=det)
    if P1.rank != det.algebraic_multiplicity:
        raise ValueError(f"Riesz projector rank {P1.rank} != algebraic "
                         f"multiplicity {det.algebraic_multiplicity}")
    basis = build_jordan_chains(P1.bases, disc.w * disc.V, disc.sectors,
                                marked=marked)
    red = GrushinReduction(disc, basis, point)
    F, q = invert_E_minus_plus(red)
    Rs = red.resolvent_series(red.truncation, F, q)
    return red, q, Rs, _sample_remainders(red, Rs, 1)


def threshold_resolvent_expansion(disc: Discretization,
                                  classification: Optional[ZeroClassification] = None
                                  ) -> ThresholdCoefficients:
    """Laurent expansion of (Id + K(z))^{-1} R0(z) V-free form around z = 0:
    R(z) = R_-2 / z + R_-1 / sqrt(z) + R_0 + ... with the singular parts
    expressed through normalized threshold states.  The chains are built on
    the -1 cluster the classification detected (by default
    `classify_zero(disc)`), marked for the third kind."""
    cls = classification or classify_zero(disc)

    if cls.kind == "regular":
        red = GrushinReduction(disc, None)
        Rs = red.resolvent_series(4)
        scal = LidskiiScaling(kind="regular", order_structural=0.0,
                              order_fit=0.0, constant_machinery=0.0,
                              constant_fit=0.0, constant_formula=None)
        return ThresholdCoefficients(
            kind="regular", series=Rs,
            remainder_samples=_sample_remainders(red, Rs, 2),
            R_m2=Rs.coeff(-2), R_m1=Rs.coeff(-1), phi=None, Z=[], P0=None,
            scaling=scal, constants={}, basis=None)

    red, q, Rs, samples = _singular_expansion(disc, disc.K0_sectors,
                                              cls.detection, "threshold",
                                              marked=cls.kind == "third")
    basis = red.basis

    constants: Dict[str, object] = {
        "c": list(basis.constants), "sizes": list(basis.sizes), "q": q}
    phi = None
    Z: List[np.ndarray] = []
    P0 = None
    formula = None

    if cls.kind in ("first", "third"):
        a11 = _first_kind_constant(disc, basis)
        u1 = basis.chains[0][0]
        phi = (2.0 * np.sqrt(np.pi) / disc.marker(u1)) * u1
        constants["a11"] = a11
        formula = a11
    if cls.kind in ("second", "third"):
        blocks = list(range(0, basis.k) if cls.kind == "second"
                      else range(1, basis.k))
        # the source pairing is exact only for marker-free states; same rule
        # as classify_zero applies to the complement of the resonance
        for b in blocks:
            u1 = basis.chains[b][0]
            if abs(disc.marker(u1)) > 10 * marker_tolerance(disc, u1):
                raise ValueError(f"eigen block {b} has integral marker "
                                 f"{abs(disc.marker(u1)):.2e}")
        Phi_src, L_src = _eigen_phi_matrix(disc, basis, blocks)
        fac = complex(np.linalg.det(Phi_src))
        formula = fac if cls.kind == "second" else constants["a11"] * fac
        # normalize with the source-representation pairing: it evaluates the
        # whole-space L^2 inner products of the threshold states exactly, so
        # the projector built from Z reproduces the z^{-1} Laurent coefficient
        Q = complex_symmetric_cholesky(L_src)
        U = np.column_stack([basis.chains[b][0] for b in blocks])
        Zmat = U @ Q.T
        Z = [Zmat[:, i] for i in range(Zmat.shape[1])]
        P0 = disc.sectors.outer(Zmat, Zmat * disc.w[:, None])
        kz = Zmat.shape[1]
        constants["Z_gram"] = np.array(
            [[disc.l2_pair_source(Zmat[:, i], Zmat[:, j])
              for j in range(kz)] for i in range(kz)])

    scal = lidskii_determinant(red, cls.kind, constant_formula=formula)
    return ThresholdCoefficients(kind=cls.kind, series=Rs,
                                 remainder_samples=samples,
                                 R_m2=Rs.coeff(-2), R_m1=Rs.coeff(-1),
                                 phi=phi, Z=Z, P0=P0, scaling=scal,
                                 constants=constants, basis=basis)


def resonance_resolvent_expansion(disc: Discretization, lam0: float
                                  ) -> ResonanceCoefficients:
    """Laurent expansion of (Id + K(z))^{-1} R0(z) around an outgoing
    resonance energy lam0 > 0 (boundary value from the upper side)."""
    K = disc.K_sectors(BranchPoint.boundary(lam0, "+"))
    det = detect_minus_one(K, disc.sectors, tol=1e-4)
    if det is None:
        raise ValueError("no eigenvalue -1 at the requested energy")
    red, q, Rs, samples = _singular_expansion(disc, K, det, float(lam0))
    basis = red.basis

    vecs = [basis.chains[b][0] for b in range(basis.k)]
    B = _b_matrix_discrete(disc, red._r0[1], lam0, vecs)
    fac = 1j * 8.0 * np.pi * np.sqrt(lam0)
    Q = complex_symmetric_cholesky(B / fac)
    U = np.column_stack(vecs)
    Psi = U @ Q.T
    psi = [Psi[:, i] for i in range(Psi.shape[1])]

    # E_-+ leading block: A = -diag(1/c) Theta(M_1^+ u_j, u_i) = -diag(1/c) B (i / 8 pi sqrt(lam0))
    A = -np.diag([1.0 / c for c in basis.constants]) @ (B * (1j / (8.0 * np.pi * np.sqrt(lam0))))
    formula = complex(np.linalg.det(A))
    scal = lidskii_determinant(red, "resonance", constant_formula=formula)
    constants = {"c": list(basis.constants), "B": B, "A": A, "q": q}
    return ResonanceCoefficients(lam0=float(lam0), N0=basis.k, series=Rs,
                                 remainder_samples=samples,
                                 R_m1=Rs.coeff(-1), psi=psi,
                                 scaling=scal, constants=constants,
                                 basis=basis, detection=det)
