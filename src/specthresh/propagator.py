"""
Time evolution from resolvents: contour construction, the Dunford
representation e^{-itH} = sum of residues over upper discrete eigenvalues
plus (1/2i pi) int_Gamma e^{-itz} (H-z)^{-1} dz, generalized oscillatory
integrals, large-time decay verification, and high-energy resolvent bounds.

Two evaluation paths coexist:
  * matrix path: a dense H (finite-difference realization); resolvents are
    evaluated through a validated eigendecomposition, the contour is the
    literal curve {ray at angle nu, short segment, circle around 0, optional
    resonance detours, outgoing ray}, and the outgoing tail is pushed
    vertically into the lower half-plane past the spectrum (Cauchy).
  * integral path: the Nystrom model, whose resolvent has a genuine branch
    cut on [0, infinity).  The same contour is analytically collapsed onto
    the cut: a small circle around 0 (threshold series), the jump
    R(lam+i0) - R(lam-i0) integrated with oscillation-exact panel rules on a
    fixed mesh, and a twice-integrated-by-parts asymptotic tail; eigenvalues
    off the cut come from the contour eigensolver, as residue rings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
from scipy.special import gamma as gamma_fn
from scipy.special import roots_laguerre

from .birman_schwinger import (Discretization, _contour_zeros,
                               _spectral_projector)
from .kernels import BranchPoint
from .model import Model, weighted_operator_norm
from .grushin import ThresholdCoefficients

__all__ = [
    "Segment", "Contour", "DiscreteSpectrumReport", "DecayReport",
    "build_contour", "audit_contour", "enumerate_upper_eigenvalues",
    "generalized_integral", "dunford_propagator", "free_propagator",
    "CutPropagator", "verify_large_time", "check_high_energy",
    "resolvent_taylor",
]


# ---------------------------------------------------------------------------
# contour geometry

@dataclass(frozen=True)
class Segment:
    label: str
    kind: str                   # "ray" | "line" | "arc"
    z0: complex = 0.0           # line: start; ray: start
    z1: complex = 0.0           # line: end
    direction: complex = 0.0    # ray: unit direction
    center: complex = 0.0       # arc
    radius: float = 0.0
    th0: float = 0.0            # arc: start angle (traversal th0 -> th1)
    th1: float = 0.0

    def sample(self, m: int = 64) -> np.ndarray:
        s = np.linspace(0.0, 1.0, m)
        if self.kind == "line":
            return self.z0 + s * (self.z1 - self.z0)
        if self.kind == "arc":
            th = self.th0 + s * (self.th1 - self.th0)
            return self.center + self.radius * np.exp(1j * th)
        return self.z0 + 3.0 * s * self.direction     # representative piece


@dataclass(frozen=True)
class Contour:
    segments: List[Segment]
    eta: float
    nu: float
    resonances: List[float]


def build_contour(eta: float, nu: float,
                  resonances: Sequence[float] = (),
                  eigenvalues: Sequence[complex] = ()) -> Contour:
    """Curve oriented from -infinity to +infinity: incoming ray at angle nu
    ending at a = 2 eta - i eta sin(eta), a short segment down to the circle
    of radius eta around 0 (traversed through the lower half-plane), then
    along the upper side of the positive axis with a semicircular detour of
    radius eta over each resonance, and the outgoing ray."""
    if not (0.0 < nu < np.pi / 2):
        raise ValueError("angle nu must lie in (0, pi/2)")
    lams = sorted(float(l) for l in resonances)
    marks = [0.0] + lams + [float(np.real(z)) for z in eigenvalues
                            if abs(np.imag(z)) < eta and np.real(z) > 0]
    marks = sorted(set(marks))
    gaps = [b - a for a, b in zip(marks, marks[1:])]
    if gaps and eta >= min(gaps) / 2.0:
        raise ValueError("eta too large")
    if eta <= 0:
        raise ValueError("eta too large")

    a = 2.0 * eta - 1j * eta * np.sin(eta)
    segs = [Segment("incoming_ray", "ray", z0=a,
                    direction=-np.exp(1j * nu)),
            Segment("pre_circle", "line", z0=a,
                    z1=eta * np.exp(-1j * eta)),
            Segment("origin_circle", "arc", center=0.0, radius=eta,
                    th0=2.0 * np.pi - eta, th1=0.0)]
    prev = eta
    for j, lam in enumerate(lams):
        segs.append(Segment(f"axis_{j}", "line", z0=prev + 0j,
                            z1=lam - eta + 0j))
        segs.append(Segment(f"detour_{j}", "arc", center=lam, radius=eta,
                            th0=np.pi, th1=0.0))
        prev = lam + eta
    segs.append(Segment("outgoing_ray", "ray", z0=prev + 0j,
                        direction=1.0 + 0j))
    return Contour(segments=segs, eta=eta, nu=nu, resonances=lams)


def audit_contour(contour: Contour, singular_points: Sequence[complex],
                  m: int = 200) -> float:
    """Minimum distance between sampled contour points and the singular set
    {0} + resonances + eigenvalues; must exceed eta/2."""
    sing = np.array([0.0] + list(contour.resonances) + list(singular_points),
                    dtype=complex)
    dmin = np.inf
    for seg in contour.segments:
        pts = seg.sample(m)
        d = np.abs(pts[:, None] - sing[None, :]).min()
        dmin = min(dmin, float(d))
    return dmin


# ---------------------------------------------------------------------------
# discrete spectrum

@dataclass
class DiscreteSpectrumReport:
    eigenvalues: List[complex]
    projectors: List[np.ndarray]
    count: int


def enumerate_upper_eigenvalues(H: np.ndarray) -> DiscreteSpectrumReport:
    """Eigenvalues of the dense H in the closed upper half-plane, clustered,
    and the exact spectral projector of each cluster, all from one complex
    Schur form of H."""
    H = np.asarray(H, dtype=complex)
    T, Q = sla.schur(H, output="complex")
    evals = np.diag(T)
    sel = np.sort_complex(evals[evals.imag >= -1e-12])
    # cluster nearby eigenvalues
    clusters: List[List[complex]] = []
    for z in sel:
        if clusters and abs(z - clusters[-1][-1]) < 1e-8 * max(1.0, abs(z)):
            clusters[-1].append(z)
        else:
            clusters.append([z])
    eigs, projs = [], []
    for cl in clusters:
        zc = complex(np.mean(cl))
        members = np.abs(evals - zc) <= 1e-7 * max(1.0, abs(zc))
        eigs.append(zc)
        projs.append(_spectral_projector(T, Q, members))
    return DiscreteSpectrumReport(eigenvalues=eigs, projectors=projs,
                                  count=len(eigs))


# ---------------------------------------------------------------------------
# generalized integrals

def generalized_integral(j: Optional[int] = None, t: float = 1.0,
                         pv: bool = False) -> complex:
    """int_0^infty lam^{j/2} e^{-it lam} dlam = Gamma(j/2+1) (it)^{-j/2-1}
    with the principal branch (it)^{-b'} = t^{-b'} e^{-i pi b'/2}; the
    principal-value int_R e^{-it lam}/(lam + i0) dlam equals -2 pi i for
    every t > 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    if pv:
        return -2.0j * np.pi
    if j is None or j < -1:
        raise ValueError("order must satisfy j >= -1")
    b = -(j / 2.0 + 1.0)
    return complex(gamma_fn(j / 2.0 + 1.0) * t ** b * np.exp(1j * np.pi * b / 2.0))


# ---------------------------------------------------------------------------
# quadrature helpers

_GL = {m: np.polynomial.legendre.leggauss(m) for m in (6,)}
_STRUCTURE_SCALE = 0.02    # panel length resolving the resolvent near spectrum


def _panel_nodes(z0: complex, z1: complex,
                 t: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and dz-weights on the straight segment [z0, z1] with panel
    density set by both the oscillation t|dz| and the resolvent's structural
    scale, at most 6000 panels."""
    length = abs(z1 - z0)
    n_osc = t * length / (2.0 * np.pi) * 3.0
    n_str = length / _STRUCTURE_SCALE
    panels = int(min(max(4, np.ceil(max(n_osc, n_str))), 6000))
    x, w = _GL[6]
    edges = np.linspace(0.0, 1.0, panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    s = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    dz = z1 - z0
    return z0 + s * dz, ws * dz


def _arc_nodes(seg: Segment, t: float) -> Tuple[np.ndarray, np.ndarray]:
    length = abs(seg.th1 - seg.th0) * seg.radius
    panels = int(min(max(8, np.ceil(max(t * length / 2.0,
                                        length / _STRUCTURE_SCALE))), 2000))
    x, w = _GL[6]
    edges = np.linspace(seg.th0, seg.th1, panels + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    th = (mids[:, None] + half[:, None] * x[None, :]).ravel()
    wth = (half[:, None] * w[None, :]).ravel()
    z = seg.center + seg.radius * np.exp(1j * th)
    dz = 1j * seg.radius * np.exp(1j * th) * wth
    return z, dz


def _ray_integral(values_fn, z0: complex, direction: complex, rate: float,
                  t: float, m: int = 64) -> complex:
    """int_0^infty e^{-itz} F(z) dz along z = z0 + s * direction, where the
    oscillatory factor decays like e^{-rate s}: Gauss-Laguerre with the
    exponentials fused in one exponent (|e^{-itz}| e^{x} stays bounded, so no
    overflow even for many nodes)."""
    x, w = roots_laguerre(m)
    s = x / rate
    z = z0 + s * direction
    vals = values_fn(z)
    expo = np.exp(-1j * t * z + x)
    return complex(np.sum(w * expo * vals) * direction / rate)


# ---------------------------------------------------------------------------
# Dunford propagator (matrix path)

class _EigResolvent:
    """Fast <(H - z)^{-1} f, g> through a validated eigendecomposition."""

    def __init__(self, H: np.ndarray):
        self.H = H
        self.evals, self.vecs = sla.eig(H)
        self.vinv = np.linalg.inv(self.vecs)
        # validation against a direct dense solve at one test point
        z = complex(np.max(np.abs(self.evals)) * 1.7 + 1.0, -0.37)
        direct = sla.solve(H - z * np.eye(H.shape[0]),
                           np.ones(H.shape[0], dtype=complex))
        via = self.vecs @ ((self.vinv @ np.ones(H.shape[0])) / (self.evals - z))
        if np.linalg.norm(direct - via) > 1e-8 * np.linalg.norm(direct):
            raise ValueError("eigendecomposition resolvent failed validation")

    def pair_coeffs(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """c_k with <(H-z)^{-1} f, g> = sum_k c_k / (lam_k - z)."""
        return (self.vinv @ f) * (g.conj() @ self.vecs)

    def pairing(self, zs: np.ndarray, c: np.ndarray) -> np.ndarray:
        return np.array([np.sum(c / (self.evals - z)) for z in zs])


def dunford_propagator(H, contour: Contour, t: float,
                       f: np.ndarray, g: np.ndarray) -> complex:
    """<e^{-itH} f, g> by residues over the upper discrete spectrum plus the
    contour integral (1/2i pi) int e^{-itz} <(H-z)^{-1} f, g> dz."""
    if t <= 0:
        raise ValueError("t must be positive")
    H = np.asarray(H, dtype=complex)
    eig = _EigResolvent(H)
    total = 0.0 + 0.0j
    for P in enumerate_upper_eigenvalues(H).projectors:
        # e^{-itH} Pi_j through the compressed invariant block
        U, s, _ = sla.svd(P)
        r = int((s > 1e-8).sum())
        Q = U[:, :r]
        A = Q.conj().T @ H @ Q
        term = Q @ sla.expm(-1j * t * A) @ (Q.conj().T @ (P @ f))
        total += np.sum(term * g.conj())

    c = eig.pair_coeffs(f, g)
    Lam = float(np.max(eig.evals.real)) + 3.0
    acc = 0.0 + 0.0j
    pairing = lambda zs: eig.pairing(np.asarray(zs), c)
    for seg in contour.segments:
        if seg.kind == "line":
            z, dz = _panel_nodes(seg.z0, seg.z1, t)
        elif seg.kind == "arc":
            z, dz = _arc_nodes(seg, t)
        elif seg.label == "incoming_ray":
            # the quadrature runs outward from the junction point; the contour
            # orientation (from infinity towards the junction) is the reverse
            acc -= _ray_integral(pairing, seg.z0, seg.direction,
                                 t * np.sin(contour.nu), t, m=96)
            continue
        else:   # outgoing ray: finite part on the axis + vertical descent
            z, dz = _panel_nodes(seg.z0, Lam + 0j, t)
            acc += _ray_integral(pairing, Lam + 0j, -1j, t, t, m=64)
        vals = eig.pairing(z, c)
        acc += np.sum(np.exp(-1j * t * z) * vals * dz)
    total += acc / (2.0j * np.pi)
    return complex(total)


# ---------------------------------------------------------------------------
# resolvent Taylor data at a positive energy (both boundary sides)

def resolvent_taylor(disc: Discretization, lam: float, order: int,
                     side: str = "+") -> List[np.ndarray]:
    """Taylor coefficients T_p of mu -> R(lam + mu, side) about mu = 0, built
    from the analytic derivative kernels (the -i0 side uses the entrywise
    conjugate kernels, exact for real distances and energies): R = M^{-1} B
    with B_p = G_p^+ / p! and M = Id + B V, so one LU of M_0 gives every
    T_p = M_0^{-1} (B_p - sum_{r=1..p} B_r V T_{p-r})."""
    B = []
    for p in range(order + 1):
        Gp = disc.gj_plus(p, lam) / math.factorial(p)
        B.append(Gp if side == "+" else np.conj(Gp))
    V = disc.V[None, :]
    lu = sla.lu_factor(np.eye(disc.grid.n) + B[0] * V)
    T: List[np.ndarray] = []
    for p in range(order + 1):
        rhs = B[p] - sum((B[r] * V) @ T[p - r] for r in range(1, p + 1))
        T.append(sla.lu_solve(lu, rhs))
    return T


# ---------------------------------------------------------------------------
# branch-cut propagator (integral path)

class CutPropagator:
    """e^{-itH} for a Nystrom model with threshold structure, through the
    contour collapsed onto the branch cut:

        U(t) = residues at off-axis poles
             + (1/2i pi) oint_{|z| = delta(t), clockwise} e^{-itz} R(z) dz
             + (1/2i pi) int_{delta(t)}^{Lam} e^{-it lam} J(lam) dlam
             + asymptotic tail beyond Lam (double integration by parts),

    with J = R(lam+i0) - R(lam-i0).  The jump is sampled on a fixed graded
    mesh and each panel integrates e^{-it lam} times the quadratic
    interpolant exactly, so the cost is independent of t.  The node jumps are
    streamed, not stored: `propagate_many` walks the mesh once for a whole
    time ladder, in O(n^2 |ladder|) memory."""

    def __init__(self, model: Model, coeffs: ThresholdCoefficients,
                 disc: Optional[Discretization] = None,
                 delta0: float = 0.04, lam_max: float = 40.0,
                 n_panels: int = 380, tail_terms: int = 4):
        self.disc = disc or Discretization(model)
        self.coeffs = coeffs
        self.delta0 = delta0
        self.lam_max = lam_max
        d = self.disc

        # graded panel mesh on [delta0, lam_max] with 3 nodes per panel
        self.edges = np.geomspace(delta0, lam_max, n_panels + 1)
        # node jumps held by the object: none, they are streamed per ladder
        self.jump: Dict[float, np.ndarray] = {}

        # tail: Taylor coefficients of the jump at lam_max
        Tp = resolvent_taylor(d, lam_max, tail_terms, side="+")
        Tm = resolvent_taylor(d, lam_max, tail_terms, side="-")
        self.tail_coeffs = [tp - tm for tp, tm in zip(Tp, Tm)]

        self.poles: List[Tuple[complex, List[np.ndarray]]] = []
        self._scan_poles()

    # --- poles off the cut ------------------------------------------------
    def _scan_poles(self):
        """Eigenvalues z = k^2 off the cut, each with a 24-node residue ring:
        the zeros of M(k) inside the ellipse 0.975i + 6 cos th + 0.825i sin th
        (|Re k| <= 6, 0.15 <= Im k <= 1.8; 512 nodes).  Not searched: z near
        0, and a band along the cut that widens with Re z (|Im z| < 0.3 at
        Re z = 1, 1.7 at 10, 3.8 at 20)."""
        zeros, _ = _contour_zeros(self.disc, 0.975j, 6.0, 0.825, 512)
        ring_nodes = np.exp(2j * np.pi * (np.arange(24) + 0.5) / 24)
        for k, _ in zeros:
            zs = k * k
            rad = max(abs(zs.imag) / 3.0, 1e-3)
            # clockwise weight: -(i rad e^{i th}) * (2 pi / 24) / (2 i pi)
            ring = [(zs + rad * e, -rad * e / 24,
                     self.disc.R(BranchPoint.from_z(zs + rad * e)))
                    for e in ring_nodes]
            self.poles.append((zs, ring))

    # --- pieces -----------------------------------------------------------
    def _circle(self, t: float, rho: float) -> np.ndarray:
        nq = 64
        th = 2.0 * np.pi - 2.0 * np.pi * (np.arange(nq) + 0.5) / nq  # cw
        z = rho * np.exp(1j * th)
        u = np.sqrt(rho) * np.exp(1j * th / 2.0)   # Im sqrt(z) >= 0 branch
        acc = np.zeros((self.disc.grid.n, self.disc.grid.n), dtype=complex)
        dth = -2.0 * np.pi / nq
        for zz, uu in zip(z, u):
            acc += np.exp(-1j * t * zz) * self.coeffs.series.eval(uu) \
                * (1j * zz * dth)
        return acc / (2.0j * np.pi)

    def _series_band(self, t: float, a: float, b: float) -> np.ndarray:
        """(1/2i pi) int_a^b e^{-it lam} J_series(lam) dlam with the jump
        series J = 2 sum_{j odd} R_j lam^{j/2} (even orders cancel)."""
        if b <= a:
            return np.zeros((self.disc.grid.n, self.disc.grid.n), complex)
        m = int(min(max(16, np.ceil(t * (b - a) / 2.0)), 400))
        x, w = np.polynomial.legendre.leggauss(m)
        lam = (a + b) / 2.0 + (b - a) / 2.0 * x
        ww = (b - a) / 2.0 * w
        acc = np.zeros((self.disc.grid.n, self.disc.grid.n), dtype=complex)
        for j, c in self.coeffs.series.coeffs.items():
            if j % 2 == 0:
                continue
            s = np.sum(ww * np.exp(-1j * t * lam) * lam ** (j / 2.0))
            acc += (2.0 * s) * c
        return acc / (2.0j * np.pi)

    def _filon_bands(self, ts: np.ndarray) -> np.ndarray:
        """Oscillation-exact panel quadrature of the jump for every t of the
        ladder in one walk over the panels.  Each node jump is computed once
        (a panel's right end is the next panel's left end), and the
        t-independent interpolation coefficients once per panel."""
        n = self.disc.grid.n
        acc = np.zeros((len(ts), n * n), dtype=complex)
        fb = self.disc.jump(float(self.edges[0])).ravel()
        for a, b in zip(self.edges[:-1], self.edges[1:]):
            mid = (a + b) / 2.0
            h = b - a
            fa = fb
            fm = self.disc.jump(float(mid)).ravel()
            fb = self.disc.jump(float(b)).ravel()
            c = np.stack([fm, (fb - fa) / 2.0, (fa - 2.0 * fm + fb) / 2.0])
            wts = np.array([(h / 2.0) * np.exp(-1j * t * mid)
                            * np.array(_filon_moments(t * h / 2.0))
                            for t in ts])
            acc += wts @ c
        return acc.reshape(len(ts), n, n) / (2.0j * np.pi)

    def _tail(self, t: float) -> np.ndarray:
        """int_Lam^infty e^{-it lam} J dlam by repeated integration by parts:
        e^{-it Lam} sum_k k! J_k / (it)^{k+1} (J_k = Taylor coefficients)."""
        acc = np.zeros_like(self.tail_coeffs[0])
        fact = 1.0
        for k, Jk in enumerate(self.tail_coeffs):
            if k > 0:
                fact *= k
            acc += fact * Jk / (1j * t) ** (k + 1)
        return np.exp(-1j * t * self.lam_max) * acc / (2.0j * np.pi)

    # --- public -----------------------------------------------------------
    def propagate_many(self, ts: Sequence[float]) -> Dict[float, np.ndarray]:
        """{t: U(t)} for a time ladder from a single walk over the mesh (one
        R0 assembly and two solves per node, shared by every t)."""
        ts = np.asarray(ts, dtype=float).ravel()
        if not np.all(ts > 0):
            raise ValueError("t must be positive")
        out = {}
        for t, band in zip(ts, self._filon_bands(ts)):
            t = float(t)
            rho = min(self.delta0, 1.0 / t)
            U = self._circle(t, rho)
            U += self._series_band(t, rho, self.delta0)
            U += band
            U += self._tail(t)
            for zs, ring in self.poles:
                for z, wq, Rz in ring:
                    U += np.exp(-1j * t * z) * wq * Rz
            out[t] = U
        return out

    def propagate(self, t: float) -> np.ndarray:
        """U(t) at a single time.  Each call costs one full mesh walk; use
        `propagate_many` for several times."""
        return self.propagate_many([t])[float(t)]


def _filon_moments(th: float) -> Tuple[complex, complex, complex]:
    """int_{-1}^{1} xi^p e^{-i th xi} d xi for p = 0, 1, 2."""
    if abs(th) < 1e-4:
        M0 = 2.0 - th ** 2 / 3.0
        M1 = -1j * (2.0 * th / 3.0 - th ** 3 / 15.0)
        M2 = 2.0 / 3.0 - th ** 2 / 5.0
        return M0, M1, M2
    s, c = np.sin(th), np.cos(th)
    M0 = 2.0 * s / th
    M1 = 2.0j * (th * c - s) / th ** 2
    M2 = 2.0 * ((th ** 2 - 2.0) * s + 2.0 * th * c) / th ** 3
    return M0, M1, M2


# ---------------------------------------------------------------------------
# free propagator and decay reports

def free_propagator(grid, t: float) -> np.ndarray:
    """Exact kernel of e^{it Laplacian} on the grid:
    (4 pi i t)^{-3/2} e^{i|x-y|^2 / 4t} w_y."""
    d = grid.nodes[:, None, :] - grid.nodes[None, :, :]
    r2 = (d * d).sum(axis=2)
    amp = (4.0 * np.pi * t) ** (-1.5) * np.exp(-0.75j * np.pi)
    return amp * np.exp(1j * r2 / (4.0 * t)) * grid.weights[None, :]


@dataclass
class DecayReport:
    kind: str
    times: np.ndarray
    norms: np.ndarray
    predicted: np.ndarray
    slope_fit: float
    slope_theory: float
    r_squared: float
    coeff_rel_err: Optional[float] = None
    limit_rel_err: Optional[float] = None
    note: str = ""

    def rows(self) -> List[Tuple[float, float, float, float]]:
        return [(float(t), float(n), float(p), float(n - p))
                for t, n, p in zip(self.times, self.norms, self.predicted)]


def _loglog_fit(ts, ns) -> Tuple[float, float, float]:
    x = np.log(np.asarray(ts, dtype=float))
    y = np.log(np.asarray(ns, dtype=float))
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, b), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ [slope, b]
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(np.exp(b)), r2


def _wnorm(grid, A: np.ndarray, s: float) -> float:
    """Norm of <x>^{-s} A <x>^{-s} as an operator on L^2(grid), i.e. the
    weighted operator norm of A from L^{2,s} to L^{2,-s}."""
    return weighted_operator_norm(A, grid, s_in=s, s_out=-s)


def verify_large_time(model: Model,
                      coefficients: Optional[ThresholdCoefficients] = None,
                      s: float = 3.0,
                      t_ladder: Optional[np.ndarray] = None,
                      propagator: Optional[CutPropagator] = None) -> DecayReport:
    """Decay fits against the contour machinery: free case via the exact free
    kernel and regular threshold via the cut propagator (slope -3/2); tuned
    first kind: slope -1/2 with coefficient (i pi)^{-1/2} <., J phi> phi;
    tuned second/third kind: the large-time limit is the threshold
    projection (constant term), the remainder decays with slope -1/2."""
    grid = model.grid
    ts = np.asarray(t_ladder if t_ladder is not None
                    else np.geomspace(10.0, 1000.0, 7), dtype=float)
    kind = coefficients.kind if coefficients is not None else "free"
    if np.max(np.abs(model.V)) == 0:
        kind = "free"

    if kind == "free":
        Us = {t: free_propagator(grid, t) for t in ts}
    else:
        cp = propagator or CutPropagator(model, coefficients)
        Us = cp.propagate_many(ts)
    # second / third kind: constant term -R_{-2} plus a decaying remainder
    limit = -coefficients.R_m2 if kind in ("second", "third") else 0.0
    norms = np.array([_wnorm(grid, Us[t] - limit, s) for t in ts])
    slope, amp, r2 = _loglog_fit(ts, norms)
    rep = DecayReport(kind=kind, times=ts, norms=norms,
                      predicted=amp * ts ** slope, slope_fit=slope,
                      slope_theory=-1.5 if kind in ("free", "regular")
                      else -0.5, r_squared=r2)
    tmax = float(ts[-1])
    if kind == "first":
        phi = coefficients.phi
        target = (1j * np.pi) ** (-0.5) * np.outer(phi, grid.weights * phi)
        C = np.sqrt(tmax) * Us[tmax]
        rep.coeff_rel_err = (_wnorm(grid, C - target, s)
                             / _wnorm(grid, target, s))
    elif kind in ("second", "third"):
        P0 = coefficients.P0 if coefficients.P0 is not None else limit
        rep.limit_rel_err = (_wnorm(grid, Us[tmax] - P0, s)
                             / _wnorm(grid, P0, s))
    if rep.r_squared < 0.9:
        rep.note = "decay window not reached"
    return rep


# ---------------------------------------------------------------------------
# high-energy estimates

def check_high_energy(model: Model, s: float = 3.0,
                      lam_window: Tuple[float, float] = (4.0, 25.0),
                      orders: Sequence[int] = (0, 1),
                      disc: Optional[Discretization] = None,
                      n_samples: int = 9) -> List[dict]:
    """Fits of the weighted boundary-resolvent derivative norms
    ||<x>^{-s} d^r/d lam^r R(lam + i0) <x>^{-s}|| ~ lam^e over the window, one
    per order r, from one Taylor expansion per energy; each exponent must not
    exceed -(r+1)/2 by more than the fit slack."""
    if not orders or any(r not in (0, 1, 2) for r in orders):
        raise ValueError("derivative orders r must be 0, 1 or 2")
    disc = disc or Discretization(model)
    lams = np.geomspace(lam_window[0], lam_window[1], n_samples)
    norms = np.empty((len(orders), n_samples))
    for i, lam in enumerate(lams):
        T = resolvent_taylor(disc, float(lam), max(orders), side="+")
        for j, r in enumerate(orders):
            norms[j, i] = _wnorm(model.grid, math.factorial(r) * T[r], s)
    fits = []
    for r, nr in zip(orders, norms):
        slope, amp, r2 = _loglog_fit(lams, nr)
        fits.append({"r": r, "s": s, "lams": lams, "norms": nr,
                     "exponent": slope, "bound": -(r + 1) / 2.0,
                     "constant": amp, "r_squared": r2,
                     "pass": slope <= -(r + 1) / 2.0 + 0.2})
    return fits
