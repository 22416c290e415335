"""
Grushin reduction of M(z) = Id + K(z), Laurent inversion of the effective
operator E_-+(z), Lidskii scaling of det E_-+, and the resulting resolvent
expansions at the zero threshold and at embedded outgoing resonances.

The reduction uses the Jordan chains U = (u_r^(i)) and duals W = (w_r^(j)) of
(Id + K0) on Ran Pi_1: S maps coordinates to chain vectors and T is the
Theta-pairing against the duals, so T S = Id.  The bordered operator and its
inverse hold all four Grushin operators (Sjostrand & Zworski 2007):

    P(z) = [[M(z), S], [T, 0]],    P(z)^{-1} = [[E, E_+], [E_-, E_-+]],
    M(z)^{-1} = E - E_+ E_-+^{-1} E_-.

Because T S = Id these are the projected forms E = Pi' (Pi' M Pi' + Pi)^{-1}
Pi' (Pi = S T, Pi' = Id - Pi), E_+ = S - E M S, E_- = T - T M E and
E_-+ = -T M S + T M E M S, which `verify_grushin_identity` evaluates as its
independent reference.  Everything is computed twice: as one truncated
series inverse of P in sqrt(z) (or z - lam0) and by factoring P at sample
points, and the two are cross-validated.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg as sla

from .birman_schwinger import (Discretization, EigenNearMinusOne,
                               RieszProjection, ZeroClassification,
                               classify_zero, detect_minus_one,
                               marker_tolerance, riesz_projection)
from .jordan import (JordanBasis, build_jordan_chains,
                     complex_symmetric_cholesky)
from .kernels import BranchPoint
from .model import Model
from .series import ExpansionSeries

__all__ = [
    "GrushinSystem", "GrushinReduction", "LidskiiScaling",
    "ThresholdCoefficients", "ResonanceCoefficients",
    "build_grushin", "invert_E_minus_plus", "lidskii_determinant",
    "threshold_resolvent_expansion", "resonance_resolvent_expansion",
    "verify_grushin_identity",
]


# ---------------------------------------------------------------------------
# types

@dataclass
class GrushinSystem:
    S: np.ndarray          # (n, m) chain vectors
    T: np.ndarray          # (m, n) rows Theta(., w_r^(j))
    basis: JordanBasis

    @property
    def m(self) -> int:
        return self.S.shape[1]


@dataclass
class LidskiiScaling:
    kind: str
    order_structural: float        # predicted power of z (or of z - lam0)
    order_fit: float               # Richardson-extrapolated ladder slope
    constant_machinery: complex    # leading coefficient of det E_-+ (series)
    constant_fit: complex          # ladder estimate of the same coefficient
    constant_formula: Optional[complex]  # closed form, when available
    samples: List[Tuple[complex, complex]] = field(default_factory=list)


@dataclass
class ThresholdCoefficients:
    kind: str
    series: ExpansionSeries        # resolvent series in powers of sqrt(z)
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
    R_m1: np.ndarray               # residue coefficient
    psi: List[np.ndarray]          # B-normalized outgoing states
    P_res: np.ndarray              # sum of <., J psi_l> psi_l
    scaling: LidskiiScaling
    constants: Dict[str, object]
    basis: Optional[JordanBasis]


# ---------------------------------------------------------------------------
# reduction

def build_grushin(basis: JordanBasis, tau: np.ndarray) -> GrushinSystem:
    S = basis.flat_chain()
    W = basis.flat_dual()
    T = (W * tau[:, None]).T
    TS = T @ S
    if not np.allclose(TS, np.eye(S.shape[1]), atol=1e-7):
        raise ValueError("Grushin corner is not a left inverse of the chains")
    return GrushinSystem(S=S, T=T, basis=basis)


class GrushinReduction:
    """Series and direct evaluations of the Grushin data of M(z), as blocks
    of the inverse of the bordered operator P(z) = [[M(z), S], [T, 0]].

    point = "threshold": series variable sqrt(z), R0_j = i^j G_j.
    point = lam0 > 0:    series variable z - lam0, R0_j = G_j^+ / j!.
    In both, M_j = delta_j0 Id + R0_j V.  gs = None is the regular case
    m = 0, where P = M and E = M^{-1}.
    """

    def __init__(self, disc: Discretization, gs: Optional[GrushinSystem],
                 point="threshold", cap: int = 8):
        self.disc = disc
        self.gs = gs
        self.point = point
        self.cap = cap
        self.var = "sqrt_z" if point == "threshold" else "z_minus_lambda0"
        n = disc.grid.n
        self._S = gs.S if gs is not None else np.zeros((n, 0))
        self._T = gs.T if gs is not None else np.zeros((0, n))
        self._top, self._bottom = slice(None, n), slice(n, None)
        self._r0_coeffs = self._build_r0_coeffs()
        self._inverse: Optional[ExpansionSeries] = None

    # --- series building --------------------------------------------------
    def _build_r0_coeffs(self) -> Dict[int, np.ndarray]:
        d = self.disc
        out = {}
        for j in range(0, self.cap + 1):
            if self.point == "threshold":
                out[j] = (1j ** j) * d.gj(j)
            else:
                fj = np.prod(np.arange(1, j + 1), dtype=float)
                out[j] = d.gj_plus(j, self.point) / fj
        return out

    @property
    def R0_series(self) -> ExpansionSeries:
        return ExpansionSeries(self.var, self._r0_coeffs, self.cap)

    def _bordered(self, M: np.ndarray) -> np.ndarray:
        """[[M, S], [T, 0]] for an n x n M."""
        n, m = self._S.shape
        P = np.zeros((n + m, n + m), dtype=complex)
        P[:n, :n] = M
        P[:n, n:] = self._S
        P[n:, :n] = self._T
        return P

    def _block(self, rows: slice, cols: slice) -> ExpansionSeries:
        """One block of the series of P(u)^{-1}.  P(u) = P_0 + sum_{r>=1}
        [[M_r, 0], [0, 0]]: its orders r >= 1 are passed as the n x n M_r,
        the leading block that `ExpansionSeries.inverse` accepts."""
        if self._inverse is None:
            V = self.disc.V[None, :]
            coeffs = {j: c * V for j, c in self._r0_coeffs.items()}
            coeffs[0] = self._bordered(coeffs[0] + np.eye(len(self.disc.V)))
            self._inverse = ExpansionSeries(self.var, coeffs,
                                            self.cap).inverse()
        return ExpansionSeries(self.var, {j: D[rows, cols] for j, D
                                          in self._inverse.coeffs.items()},
                               self.cap)

    @property
    def E_series(self) -> ExpansionSeries:
        return self._block(self._top, self._top)

    @property
    def Eplus_series(self) -> ExpansionSeries:
        return self._block(self._top, self._bottom)

    @property
    def Eminus_series(self) -> ExpansionSeries:
        return self._block(self._bottom, self._top)

    @property
    def Emp_series(self) -> ExpansionSeries:
        return self._block(self._bottom, self._bottom)

    # --- direct evaluation ------------------------------------------------
    def bp_of(self, z: complex, side: str = "+") -> BranchPoint:
        if self.point == "threshold":
            return BranchPoint.from_z(z, side=side if np.real(z) > 0
                                      and np.imag(z) == 0 else None)
        zz = complex(self.point) + complex(z)     # z is the offset xi
        if zz.imag == 0.0:
            return BranchPoint.boundary(zz.real, "+")
        return BranchPoint.from_z(zz)

    def var_of(self, bp: BranchPoint) -> complex:
        if self.point == "threshold":
            return bp.sqrt_z
        return bp.z - self.point

    def _solve_at(self, bp: BranchPoint, part: slice) -> np.ndarray:
        """The diagonal block `part` of P(z)^{-1}: one factorization of P(z)
        solved against the matching columns of the identity."""
        P = self._bordered(self.disc.M(bp))
        return sla.solve(P, np.eye(len(P))[:, part])[part]

    def E_at(self, bp: BranchPoint) -> np.ndarray:
        return self._solve_at(bp, self._top)

    def Emp_at(self, bp: BranchPoint) -> np.ndarray:
        return self._solve_at(bp, self._bottom)


def verify_grushin_identity(red: GrushinReduction, z: complex,
                            side: str = "+") -> float:
    """Relative residual of M^{-1} = E - E_+ E_-+^{-1} E_- at one point, with
    the Grushin data formed independently of the bordered inverse:
    E = Pi' (Pi' M Pi' + Pi)^{-1} Pi' with Pi = S T, Pi' = Id - Pi,
    E_+ = S - E M S, E_- = T - T M E and E_-+ = -T M S + T M E M S."""
    bp = red.bp_of(z, side=side)
    M = red.disc.M(bp)
    Minv = np.linalg.inv(M)
    S, T = red.gs.S, red.gs.T
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

def invert_E_minus_plus(red: GrushinReduction,
                        q: Optional[int] = None,
                        test_z: float = 1e-3,
                        rtol: float = 1e-5) -> Tuple[ExpansionSeries, int]:
    """Laurent inverse of E_-+ with lowest order -q; q is validated pointwise
    against a direct inverse at z = -test_z, -test_z / 4 and, off the
    negative axis, i test_z (for a resonance anchor these are offsets, the
    last one in the upper half-plane), and incremented on failure."""
    def err(F: ExpansionSeries, z: complex) -> float:
        bp = red.bp_of(z)
        direct = np.linalg.inv(red.Emp_at(bp))
        return (np.linalg.norm(F.eval(red.var_of(bp)) - direct)
                / np.linalg.norm(direct))

    emp = red.Emp_series
    for qq in ([q] if q is not None else range(0, min(red.cap, 5))):
        F = emp.laurent_inverse(qq)
        if all(err(F, z) <= rtol for z in (-test_z, -test_z / 4.0,
                                           1j * test_z)):
            return F, qq
    raise ValueError("no Laurent order reproduces the inverse of E_-+")


# ---------------------------------------------------------------------------
# Lidskii scaling of det E_-+

def _structural_order(kind: str, k: int, N0: int = 0) -> Tuple[float, int]:
    """(power of z, power of the series variable) of det E_-+ at the origin."""
    if kind == "first":
        return 0.5, 1
    if kind == "second":
        return float(k), 2 * k
    if kind == "third":
        return k - 0.5, 2 * k - 1
    if kind == "resonance":
        return float(N0), N0
    raise ValueError("unknown kind for Lidskii scaling")


def lidskii_determinant(red: GrushinReduction, kind: str,
                        constant_formula: Optional[complex] = None,
                        z0: float = -4e-2, n_ladder: int = 7,
                        N0: int = 0) -> LidskiiScaling:
    """Ladder fit of det E_-+ along z_n = z0 4^{-n} (offsets for a resonance
    anchor), Richardson-extrapolated, against the structural prediction and
    the exact leading coefficient of the determinant series."""
    k = red.gs.basis.k
    order_z, order_p = _structural_order(kind, k, N0=N0)

    det_c = ExpansionSeries(red.var, red.Emp_series.coeffs,
                            min(red.cap, order_p + 2)).det_series()
    live = {j: v for j, v in det_c.items() if abs(v) > 0}
    const_mach = det_c.get(order_p, 0.0)
    if live:
        lead = min(live)
        if lead < order_p and abs(live[lead]) > 1e-8 * max(abs(const_mach), 1e-30):
            const_mach = live[lead]   # structural prediction missed; report it

    samples = []
    dets, us = [], []
    for nn in range(n_ladder):
        z = z0 * 4.0 ** (-nn)
        bp = red.bp_of(z)
        d = complex(np.linalg.det(red.Emp_at(bp)))
        samples.append((complex(z), d))
        dets.append(d)
        us.append(red.var_of(bp))
    slopes = [(np.log(abs(dets[i])) - np.log(abs(dets[i + 1])))
              / (np.log(abs(us[i])) - np.log(abs(us[i + 1])))
              for i in range(n_ladder - 1)]
    # the series variable shrinks by ratio rr per rung; one Richardson step
    # cancels the leading error term
    rr = 2.0 if red.point == "threshold" else 4.0
    rich = [(rr * slopes[i + 1] - slopes[i]) / (rr - 1.0)
            for i in range(len(slopes) - 1)]
    order_fit_p = float(rich[len(rich) // 2]) if rich else float(slopes[-1])
    # leading-constant estimates d_n / u_n^{order_p}, Richardson in u
    consts = [dets[i] / us[i] ** order_p for i in range(n_ladder)]
    cr = [(rr * consts[i + 1] - consts[i]) / (rr - 1.0)
          for i in range(n_ladder - 1)]
    const_fit = complex(cr[-1]) if cr else complex(consts[-1])
    scale = 2.0 if red.point == "threshold" else 1.0
    return LidskiiScaling(kind=kind, order_structural=order_z,
                          order_fit=order_fit_p / scale,
                          constant_machinery=complex(const_mach),
                          constant_fit=const_fit,
                          constant_formula=constant_formula,
                          samples=samples)


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
                      blocks: List[int], source: bool = True) -> np.ndarray:
    """Phi[i,j] = -c_i^{-1} <u_1^(i), J u_1^(j)>_{R^3} over the given blocks,
    with the pairing taken in the source representation (exact for marker-free
    threshold states) or on the grid."""
    pair = disc.l2_pair_source if source else disc.pair
    us = [basis.chains[b][0] for b in blocks]
    cs = [basis.constants[b] for b in blocks]
    k = len(us)
    L = np.array([[pair(us[i], us[j]) for j in range(k)] for i in range(k)])
    return -np.diag([1.0 / c for c in cs]) @ L, L


def _b_matrix_discrete(disc: Discretization, G1: np.ndarray, lam0: float,
                       vecs: List[np.ndarray]) -> np.ndarray:
    """B_{lam0}(u_i, u_j) realized through the assembled derivative kernel
    G1 = G_1^+ at lam0: B = (8 pi sqrt(lam0) / i) Theta(G_1^+ V u_j, u_i);
    exactly the pairing entering the machinery's first-order coefficient."""
    M1 = G1 * disc.V[None, :]
    fac = 8.0 * np.pi * np.sqrt(lam0) / 1j
    k = len(vecs)
    return np.array([[fac * disc.theta(M1 @ vecs[j], vecs[i])
                      for j in range(k)] for i in range(k)])


# ---------------------------------------------------------------------------
# full expansions

def _sample_remainders(red: GrushinReduction, Rs: ExpansionSeries,
                       upto: int, zs) -> List[Tuple[complex, float]]:
    out = []
    part = Rs.truncated(upto)
    for z in zs:
        bp = red.bp_of(z)
        u = red.var_of(bp)
        direct = red.disc.R(bp)
        err = np.linalg.norm(part.eval(u) - direct) / max(np.linalg.norm(direct), 1e-300)
        out.append((complex(z), float(err)))
    return out


def _checked_projection(K: np.ndarray, eps: float,
                        det: EigenNearMinusOne) -> RieszProjection:
    """Riesz projector onto the -1 cluster of K, whose numerical rank must
    equal the algebraic multiplicity counted by the eigenvalue detection."""
    P = riesz_projection(K, eps, detection=det)
    if P.rank != det.algebraic_multiplicity:
        raise ValueError(f"Riesz projector rank {P.rank} != algebraic "
                         f"multiplicity {det.algebraic_multiplicity}")
    return P


def threshold_resolvent_expansion(model: Model,
                                  classification: Optional[ZeroClassification] = None,
                                  disc: Optional[Discretization] = None,
                                  cap: int = 8) -> ThresholdCoefficients:
    """Laurent expansion of (Id + K(z))^{-1} R0(z) V-free form around z = 0:
    R(z) = R_-2 / z + R_-1 / sqrt(z) + R_0 + ... with the singular parts
    expressed through normalized threshold states.  The Riesz projector is
    taken onto the -1 cluster the classification detected."""
    disc = disc or Discretization(model)
    cls = classification or classify_zero(model, disc=disc)
    n = disc.grid.n
    tau = disc.w * disc.V

    if cls.kind == "regular":
        red = GrushinReduction(disc, None, point="threshold", cap=cap)
        Rs = red.E_series.truncated(4) @ red.R0_series.truncated(4)
        Rs.remainder_samples = _sample_remainders(
            red, Rs, 2, [-1e-2, -1e-3, 1e-3 + 1e-3j])
        scal = LidskiiScaling(kind="regular", order_structural=0.0,
                              order_fit=0.0, constant_machinery=0.0,
                              constant_fit=0.0, constant_formula=None)
        zero = np.zeros((n, n), dtype=complex)
        return ThresholdCoefficients(kind="regular", series=Rs, R_m2=zero,
                                     R_m1=zero, phi=None, Z=[], P0=None,
                                     scaling=scal, constants={}, basis=None)

    det = cls.detection
    eps = min(det.gap / 2.5, 0.5)
    P1 = _checked_projection(disc.K0, eps, det)
    prefer = (lambda u: abs(disc.marker(u))) if cls.kind == "third" else None
    basis = build_jordan_chains(P1.entries, disc.K0, tau, prefer=prefer)
    gs = build_grushin(basis, tau)
    red = GrushinReduction(disc, gs, point="threshold", cap=cap)

    F, q = invert_E_minus_plus(red)
    Minvs = red.E_series - (red.Eplus_series @ F) @ red.Eminus_series
    Rs = Minvs.truncated(3) @ red.R0_series.truncated(3 + q)
    Rs.remainder_samples = _sample_remainders(
        red, Rs, 1, [-1e-2, -1e-3, 1e-3 + 1e-3j])

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
        Phi_src, L_src = _eigen_phi_matrix(disc, basis, blocks, source=True)
        _, L_grid = _eigen_phi_matrix(disc, basis, blocks, source=False)
        constants["Phi"] = Phi_src
        constants["L_source"] = L_src
        constants["L_grid"] = L_grid
        fac = complex(np.linalg.det(Phi_src))
        formula = fac if cls.kind == "second" else constants["a11"] * fac
        # normalize with the source-representation pairing: it evaluates the
        # whole-space L^2 inner products of the threshold states exactly, so
        # the projector built from Z reproduces the z^{-1} Laurent coefficient
        Q = complex_symmetric_cholesky(L_src)
        U = np.column_stack([basis.chains[b][0] for b in blocks])
        Zmat = U @ Q.T
        Z = [Zmat[:, i] for i in range(Zmat.shape[1])]
        P0 = Zmat @ (Zmat * disc.w[:, None]).T
        kz = Zmat.shape[1]
        constants["Z_gram"] = np.array(
            [[disc.l2_pair_source(Zmat[:, i], Zmat[:, j])
              for j in range(kz)] for i in range(kz)])

    scal = lidskii_determinant(red, cls.kind, constant_formula=formula)
    R_m2 = Rs.coeff(-2)
    R_m1 = Rs.coeff(-1)
    return ThresholdCoefficients(kind=cls.kind, series=Rs, R_m2=R_m2,
                                 R_m1=R_m1, phi=phi, Z=Z, P0=P0,
                                 scaling=scal, constants=constants,
                                 basis=basis)


def resonance_resolvent_expansion(model: Model, lam0: float,
                                  disc: Optional[Discretization] = None,
                                  cap: int = 6) -> ResonanceCoefficients:
    """Laurent expansion of (Id + K(z))^{-1} R0(z) around an outgoing
    resonance energy lam0 > 0 (boundary value from the upper side)."""
    disc = disc or Discretization(model)
    tau = disc.w * disc.V
    Kp = disc.K(BranchPoint.boundary(lam0, "+"))
    det = detect_minus_one(Kp, tol=1e-4)
    if det == "absent":
        raise ValueError("no eigenvalue -1 at the requested energy")
    eps = min(det.gap / 2.5, 0.5)
    P1 = _checked_projection(Kp, eps, det)
    basis = build_jordan_chains(P1.entries, Kp, tau)
    gs = build_grushin(basis, tau)
    red = GrushinReduction(disc, gs, point=float(lam0), cap=cap)

    F, q = invert_E_minus_plus(red, test_z=1e-4)
    Minvs = red.E_series - (red.Eplus_series @ F) @ red.Eminus_series
    Rs = Minvs.truncated(2) @ red.R0_series.truncated(2 + q)
    Rs.remainder_samples = _sample_remainders(
        red, Rs, 1, [-1e-3, -1e-4, 1e-4 + 1e-4j])

    N0 = basis.k
    vecs = [basis.chains[b][0] for b in range(basis.k)]
    B = _b_matrix_discrete(disc, red.R0_series.coeff(1), lam0, vecs)
    fac = 1j * 8.0 * np.pi * np.sqrt(lam0)
    Q = complex_symmetric_cholesky(B / fac)
    U = np.column_stack(vecs)
    Psi = U @ Q.T
    psi = [Psi[:, i] for i in range(Psi.shape[1])]
    P_res = Psi @ (Psi * disc.w[:, None]).T

    # E_-+ leading block: A = -diag(1/c) Theta(M_1^+ u_j, u_i) = -diag(1/c) B (i / 8 pi sqrt(lam0))
    A = -np.diag([1.0 / c for c in basis.constants]) @ (B * (1j / (8.0 * np.pi * np.sqrt(lam0))))
    formula = complex(np.linalg.det(A))
    scal = lidskii_determinant(red, "resonance", constant_formula=formula,
                               z0=-4e-3, N0=N0)
    constants = {"c": list(basis.constants), "B": B, "A": A, "q": q}
    return ResonanceCoefficients(lam0=float(lam0), N0=N0, series=Rs,
                                 R_m1=Rs.coeff(-1), psi=psi, P_res=P_res,
                                 scaling=scal, constants=constants,
                                 basis=basis)
