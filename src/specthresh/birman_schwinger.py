"""
Birman-Schwinger machinery: K(z) = R0(z) V, boundary operators K+(lambda),
threshold operator K0 = G0 V, detection of the eigenvalue -1, exact Riesz
projections from a reordered Schur form, classification of the zero
threshold, the contour eigensolver for the zeros of M(k) = Id + R0(k^2) V
(outgoing resonances here, poles off the cut in `propagator`), and the
checkable Gram-determinant hypotheses.

Conventions used throughout the package:
  - <u, Jv> denotes the *bilinear* pairing sum_i w_i u_i v_i (J = conjugation
    composed with the conjugated inner product leaves no conjugation),
  - Theta(u, v) = sum_i w_i V_i u_i v_i,
  - adjoints are taken in the w-weighted inner product.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import (zgecon, zgetrf, zgetrs, zlange, ztrsen,
                                 ztrsyl)

from .kernels import BranchPoint, assemble_gj, assemble_gj_plus, assemble_r0
from .model import Model, QuadratureGrid

__all__ = [
    "EigenNearMinusOne", "ZeroClassification", "RieszProjection",
    "Discretization", "detect_minus_one", "tune_coupling",
    "riesz_projection", "classify_zero", "scan_positive_resonances",
    "check_hypotheses", "b_form", "marker_tolerance",
]


# ---------------------------------------------------------------------------
# shared discretization cache

class Discretization:
    """Caches the pairwise-distance matrix and the threshold kernels G_j of a
    model, and provides the operators every other module consumes."""

    def __init__(self, model: Model):
        self.model = model
        self.grid = model.grid
        self.V = model.V
        self.w = model.grid.weights
        self.dist = model.grid.distance_matrix()
        self._gj = {}

    # --- free kernels -----------------------------------------------------
    def r0(self, bp: BranchPoint) -> np.ndarray:
        return assemble_r0(self.grid, bp, dist=self.dist)

    def gj(self, j: int) -> np.ndarray:
        if j not in self._gj:
            self._gj[j] = assemble_gj(self.grid, j, dist=self.dist)
        return self._gj[j]

    def gj_plus(self, j: int, lam0: float) -> np.ndarray:
        return assemble_gj_plus(self.grid, j, lam0, dist=self.dist)

    # --- Birman-Schwinger operators --------------------------------------
    def K(self, bp: BranchPoint) -> np.ndarray:
        return self.r0(bp) * self.V[None, :]

    @property
    def K0(self) -> np.ndarray:
        return self.gj(0) * self.V[None, :]

    def M(self, bp: BranchPoint) -> np.ndarray:
        return self._m(self.r0(bp))

    def _m(self, r0: np.ndarray, order: str = "C") -> np.ndarray:
        """Id + R0 V for an assembled R0, built in place; order "F" is the
        layout LAPACK factors without a copy."""
        A = np.multiply(r0, self.V[None, :], order=order)
        i = np.arange(self.grid.n)
        A[i, i] += 1.0
        return A

    def R(self, bp: BranchPoint) -> np.ndarray:
        """Full resolvent of the model, (Id + R0 V)^{-1} R0, by dense solve."""
        return self._resolve(self.r0(bp))

    def jump(self, lam: float) -> np.ndarray:
        """Boundary jump R(lam + i0) - R(lam - i0) from one R0 assembly: on
        the positive axis the -i0 kernel, self-cell rule included, is the
        entrywise conjugate of the +i0 one.  V is complex, so the two sides
        still need their own factorization."""
        r0p = self.r0(BranchPoint.boundary(lam, "+"))
        return self._resolve(r0p) - self._resolve(np.conj(r0p))

    def _resolve(self, r0: np.ndarray) -> np.ndarray:
        """(Id + R0 V)^{-1} R0 for an assembled R0: one LAPACK getrf and one
        getrs, with the checks of `scipy.linalg.solve`.  ValueError on a
        non-finite input; LinAlgError on a zero pivot, or when the 1-norm
        reciprocal condition number (getcon) is below machine epsilon."""
        A = self._m(r0, "F")
        if not (np.isfinite(A).all() and np.isfinite(r0).all()):
            raise ValueError("array must not contain infs or NaNs")
        anorm = zlange("1", A)
        lu, piv, info = zgetrf(A, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"Id + R0 V is singular (zero pivot "
                                        f"U[{info - 1}, {info - 1}])")
        rcond, _ = zgecon(lu, anorm, norm="1")
        if not rcond >= np.finfo(float).eps:
            raise np.linalg.LinAlgError(f"Id + R0 V is ill-conditioned "
                                        f"(rcond {rcond:.3e})")
        x, _ = zgetrs(lu, piv, r0)
        return x

    # --- pairings ---------------------------------------------------------
    def pair(self, u: np.ndarray, v: np.ndarray) -> complex:
        """Bilinear pairing <u, Jv> = sum w u v."""
        return complex(np.sum(self.w * u * v))

    def theta(self, u: np.ndarray, v: np.ndarray) -> complex:
        return complex(np.sum(self.w * self.V * u * v))

    def marker(self, psi: np.ndarray) -> complex:
        """Quadrature of integral V psi; zero iff psi belongs to L^2 in the
        continuum characterization of threshold states."""
        return complex(np.sum(self.w * self.V * psi))

    def l2_pair_source(self, u: np.ndarray, v: np.ndarray) -> complex:
        """<u, Jv> over all of R^3 for threshold states u = -G0(Vu),
        v = -G0(Vv) with vanishing markers, evaluated through the source
        representation: int u v = -<G2 (Vu), J(Vv)>. This removes the
        ball-truncation error of the plain grid pairing."""
        fu = self.w * self.V * u
        fv = self.V * v
        G2 = self.gj(2)
        return complex(-(fu @ G2 @ (fv)))


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class EigenNearMinusOne:
    eigenvalue: complex
    gap: float
    geometric_multiplicity: int
    algebraic_multiplicity: int
    eigenvectors: np.ndarray        # (n, k) null-space basis of Id + K


@dataclass(frozen=True)
class ZeroClassification:
    kind: str                       # regular | first | second | third
    k: int
    resonance_state: Optional[np.ndarray]
    eigenvectors: List[np.ndarray]  # marker-free kernel directions
    integral_marker: complex
    marker_tol: float
    # the -1 cluster of K0 this classification was read from, and the cluster
    # tol detect_minus_one ran with (None for a regular threshold)
    detection: Optional[EigenNearMinusOne] = None
    detection_tol: Optional[float] = None


@dataclass(frozen=True)
class RieszProjection:
    entries: np.ndarray
    rank: int
    contour_radius: float


# ---------------------------------------------------------------------------
# operations

def detect_minus_one(K: np.ndarray, tol: float = 1e-6
                     ) -> Union[EigenNearMinusOne, str]:
    """Dense eigendecomposition; report the eigenvalue cluster near -1."""
    A = np.asarray(K)
    evals = sla.eigvals(A)
    d = np.abs(evals + 1.0)
    in_cluster = d <= tol
    if not in_cluster.any():
        return "absent"
    rest = d[~in_cluster]
    gap = float(rest.min()) if rest.size else np.inf
    if rest.size and gap <= 2.0 * tol:
        raise ValueError("ill-separated cluster")
    m = int(in_cluster.sum())
    # geometric multiplicity and kernel basis from the SVD of Id + K
    U, s, Vh = sla.svd(np.eye(A.shape[0]) + A)
    null_tol = max(tol, 1e5 * np.finfo(float).eps * s[0])
    k = int((s < null_tol).sum())
    if k == 0:
        # sigma_min(Id + K) <= |lambda + 1| <= tol <= null_tol holds for the
        # cluster eigenvalue, so an empty null space is a roundoff failure
        raise ValueError(f"eigenvalue within {tol:g} of -1 but sigma_min "
                         f"{s[-1]:.3e} >= null tolerance {null_tol:.3e}")
    vecs = Vh[-k:, :].conj().T
    eig = complex(evals[in_cluster][np.argmin(d[in_cluster])])
    return EigenNearMinusOne(eigenvalue=eig, gap=gap, geometric_multiplicity=k,
                             algebraic_multiplicity=m, eigenvectors=vecs)


def tune_coupling(grid: QuadratureGrid, template: np.ndarray, target: str,
                  lam0: Optional[float] = None) -> complex:
    """Coupling gamma* such that -1 is an eigenvalue of G0 diag(gamma* W)
    (threshold) or of R0+(lam0) diag(gamma* W) (positive energy): with mu the
    eigenvalue of largest modulus of the untuned operator, gamma* = -1/mu."""
    W = np.asarray(template, dtype=complex)
    if np.max(np.abs(W)) == 0:
        raise ValueError("template too weak")
    if target == "threshold_zero":
        base = assemble_gj(grid, 0) * W[None, :]
    elif target == "positive":
        if lam0 is None or lam0 <= 0:
            raise ValueError("positive target needs lam0 > 0")
        base = assemble_r0(grid, BranchPoint.boundary(lam0, "+")) * W[None, :]
    else:
        raise ValueError("unknown tuning target")
    mu = sla.eigvals(base)
    mu = mu[np.abs(mu) > 1e-12]
    if mu.size == 0:
        raise ValueError("template too weak")
    return complex(-1.0 / mu[np.argmax(np.abs(mu))])


def _spectral_projector(T: np.ndarray, Q: np.ndarray,
                        select: np.ndarray) -> np.ndarray:
    """Spectral projector of A = Q T Q^H (complex Schur pair) onto the
    eigenvalues T[i, i] with select[i], in closed form (Bartels & Stewart
    1972; Bai & Demmel 1993): ztrsen moves them into the leading block of
    T = [[T11, T12], [0, T22]], ztrsyl solves T11 Y - Y T22 = -T12, and
    P = Q1 (Q1^H - Y Q2^H).  ValueError if either routine fails or the
    selection is not separated from the rest of the spectrum (scale < 1)."""
    n = T.shape[0]
    select = np.asarray(select, dtype=bool)
    if not select.any():
        return np.zeros((n, n), dtype=complex)
    if select.all():
        return np.eye(n, dtype=complex)
    Ts, Qs, _, m, _, _, info = ztrsen(select, T, Q, job="N")
    if info != 0:
        raise ValueError(f"ztrsen failed to reorder (info {info})")
    Y, scale, info = ztrsyl(Ts[:m, :m], Ts[m:, m:], -Ts[:m, m:], isgn=-1)
    if info != 0 or scale < 1.0:
        raise ValueError("selected eigenvalues are not separated from the "
                         f"rest of the spectrum (ztrsyl info {info}, "
                         f"scale {scale:.3e})")
    Q1 = Qs[:, :m]
    return Q1 @ (Q1.conj().T - Y @ Qs[:, m:].conj().T)


def riesz_projection(K0: np.ndarray, eps: float,
                     detection: Optional[EigenNearMinusOne] = None
                     ) -> RieszProjection:
    """Spectral projector onto the -1 cluster of K0, the eigenvalues inside
    the circle |w + 1| = eps, exactly from one complex Schur form
    K0 = Q T Q^H; the rank is the number of those eigenvalues."""
    if detection is not None and eps > detection.gap / 2.0:
        raise ValueError("contour captures foreign spectrum")
    T, Q = sla.schur(K0, output="complex")
    select = np.abs(np.diag(T) + 1.0) < eps
    P = _spectral_projector(T, Q, select)
    return RieszProjection(entries=P, rank=int(select.sum()),
                           contour_radius=eps)


def marker_tolerance(disc: Discretization, psi: np.ndarray) -> float:
    """Scale-invariant threshold for the integral marker: 1e-6 |V|_1 |psi|_inf."""
    v_l1 = float(np.sum(disc.w * np.abs(disc.V)))
    return 1e-6 * v_l1 * float(np.max(np.abs(psi)))


def classify_zero(model: Model, disc: Optional[Discretization] = None,
                  tol: float = 1e-6) -> ZeroClassification:
    """Classify the zero threshold through the integral marker int V psi of
    the kernel directions of Id + K0 (zero marker <=> L^2 direction)."""
    disc = disc or Discretization(model)
    det = detect_minus_one(disc.K0, tol=tol)
    if det == "absent":
        return ZeroClassification(kind="regular", k=0, resonance_state=None,
                                  eigenvectors=[], integral_marker=0.0,
                                  marker_tol=0.0)
    k = det.geometric_multiplicity
    basis = det.eigenvectors        # orthonormal columns
    markers = np.array([disc.marker(basis[:, i]) for i in range(k)])
    mtol = max(marker_tolerance(disc, basis[:, i]) for i in range(k))
    if np.linalg.norm(markers) <= mtol:
        return ZeroClassification(kind="second", k=k, resonance_state=None,
                                  eigenvectors=[basis[:, i] for i in range(k)],
                                  integral_marker=0.0, marker_tol=mtol,
                                  detection=det, detection_tol=tol)
    # direction of maximal marker inside the kernel
    c = markers.conj() / np.linalg.norm(markers)
    res = basis @ c
    res_marker = disc.marker(res)
    if k == 1:
        return ZeroClassification(kind="first", k=1, resonance_state=res,
                                  eigenvectors=[], integral_marker=res_marker,
                                  marker_tol=mtol, detection=det,
                                  detection_tol=tol)
    # third kind: complement of the resonance direction inside the kernel is
    # marker-free (geometric simplicity of the resonance)
    _, _, Vh = np.linalg.svd(markers.reshape(1, -1))
    null_coords = Vh[1:, :].conj().T            # (k, k-1): markers @ col = 0
    comp_cols = [basis @ null_coords[:, i] for i in range(k - 1)]
    for v in comp_cols:
        if abs(disc.marker(v)) > 10 * mtol:
            raise ValueError("resonance not geometrically simple")
    return ZeroClassification(kind="third", k=k, resonance_state=res,
                              eigenvectors=comp_cols, integral_marker=res_marker,
                              marker_tol=mtol, detection=det,
                              detection_tol=tol)


# contour eigensolver: probe-block width (> zeros per contour), A0 rank
# tolerance relative to the integrand size, sigma_min(M) / ||M|| at a zero
_PROBES, _RANK_TOL, _ZERO_TOL = 16, 1e-4, 1e-6


def _contour_matrices(disc: Discretization, center: complex,
                      dk: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """(q, M(center + dk[q])) over the trapezoidal nodes of `_contour_zeros`.
    On an ellipse centred on the imaginary axis with an even node count N,
    node N/2 - 1 - q (mod N) is -conj(k_q), where R0 is the entrywise
    conjugate of R0(k_q) (self-cell rule included): each mirrored pair is
    walked back to back from one R0 assembly.  Other ellipses call `disc.M`
    per node."""
    N = len(dk)
    if complex(center).real != 0.0 or N % 2:
        for q in range(N):
            k = center + dk[q]
            yield q, disc.M(BranchPoint(z=k * k, sqrt_z=k))
        return
    for q in range(N):
        p = (N // 2 - 1 - q) % N
        if p < q:
            continue                    # walked with its partner
        k = center + dk[q]
        r0 = disc.r0(BranchPoint(z=k * k, sqrt_z=k))
        yield q, disc._m(r0, "F")
        if p != q:
            yield p, disc._m(np.conj(r0), "F")


def _contour_zeros(disc: Discretization, center: complex, ax: float,
                   ay: float, n_nodes: int
                   ) -> Tuple[List[Tuple[complex, np.ndarray]], int]:
    """Zeros of the entire M(k) = Id + R0(k^2) V, k on both sheets, inside
    the ellipse center + ax cos th + i ay sin th (Beyn's method): one LU per
    trapezoidal node gives the moments A_p = (1/2 pi i) oint (k - center)^p
    M^{-1} P dk (p = 0, 1) of a fixed probe block P and arg det M.  Accepted
    only if the rank of A0 (against sum |w_q| ||X_q||) equals the winding
    count, each pencil eigenvalue lies inside and sigma_min(M) is negligible
    there; else ValueError.  Returns the distinct zeros with the singular
    values of M at each, and the count."""
    n = disc.grid.n
    rng = np.random.default_rng(0)
    P = rng.standard_normal((n, _PROBES)) + 1j * rng.standard_normal((n, _PROBES))
    th = 2.0 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    dk = ax * np.cos(th) + 1j * ay * np.sin(th)
    wq = (-ax * np.sin(th) + 1j * ay * np.cos(th)) / (1j * n_nodes)
    A0, A1 = np.zeros((2, n, _PROBES), dtype=complex)
    scale, arg_det = 0.0, np.empty(n_nodes)
    for q, M in _contour_matrices(disc, center, dk):
        lu, piv = sla.lu_factor(M, overwrite_a=True)
        X = sla.lu_solve((lu, piv), P)
        A0 += wq[q] * X
        A1 += (wq[q] * dk[q]) * X
        scale += abs(wq[q]) * np.linalg.norm(X)
        swaps = np.count_nonzero(piv != np.arange(n))
        arg_det[q] = np.sum(np.angle(np.diag(lu))) + np.pi * swaps
    steps = np.angle(np.exp(1j * np.diff(arg_det, append=arg_det[0])))
    count = int(round(steps.sum() / (2.0 * np.pi)))
    U, s, Wh = sla.svd(A0, full_matrices=False)
    rank = int((s > _RANK_TOL * scale).sum())
    if rank != count or count >= _PROBES:
        raise ValueError(f"winding count {count} but moment rank {rank} "
                         f"(probe width {_PROBES})")
    zeros: List[Tuple[complex, np.ndarray]] = []
    B = (U[:, :rank].conj().T @ A1 @ Wh[:rank].conj().T) / s[:rank]
    for e in np.linalg.eigvals(B):
        k = complex(center + e)
        if (e.real / ax) ** 2 + (e.imag / ay) ** 2 >= 1.0:
            raise ValueError(f"pencil eigenvalue k = {k:.6g} lies outside "
                             f"the contour (winding count {count})")
        if any(abs(k - k0) < _ZERO_TOL * max(1.0, abs(k)) for k0, _ in zeros):
            continue
        sv = sla.svdvals(disc.M(BranchPoint(z=k * k, sqrt_z=k)))
        if sv[-1] > _ZERO_TOL * sv[0]:
            z = k * k
            raise ValueError(f"contour zero at lambda* = {z.real:.6g} "
                             f"{z.imag:+.3e}i has sigma_min = {sv[-1]:.3e} "
                             f"(winding count {count})")
        zeros.append((k, sv))
    return zeros, count


def scan_positive_resonances(model: Model, interval: Tuple[float, float],
                             disc: Optional[Discretization] = None
                             ) -> List[Tuple[float, int]]:
    """Outgoing resonances (lambda_j, N_j) in (a, b): the real zeros
    k_j = sqrt(lambda_j) of M(k) inside a flat ellipse over [sqrt a, sqrt b]
    (a sixth as high as wide, 32 nodes), with N_j the geometric count.
    Zeros with |Im k| > 1e-8 |k| are not embedded and are left out."""
    a, b = interval
    if not (0 < a < b):
        raise ValueError("scan interval must satisfy 0 < a < b")
    disc = disc or Discretization(model)
    ka, kb = np.sqrt(a), np.sqrt(b)
    half = (kb - ka) / 2.0
    zeros, _ = _contour_zeros(disc, (ka + kb) / 2.0, half, half / 6.0, 32)
    return sorted((float(k.real ** 2), int((s < max(1e-6, 1e3 * s[-1])).sum()))
                  for k, s in zeros if abs(k.imag) <= 1e-8 * abs(k))


# ---------------------------------------------------------------------------
# hypotheses

def b_form(disc: Discretization, lam: float, u: np.ndarray, v: np.ndarray) -> complex:
    """B_lambda(u, v) = double integral of e^{i sqrt(lam)|x-y|} u V (x)
    v V (y) over the support, by the double quadrature sum."""
    E = np.exp(1j * np.sqrt(lam) * disc.dist)
    fu = disc.w * disc.V * u
    fv = disc.w * disc.V * v
    return complex(fu @ E @ fv)


# a hypothesis holds when its Gram determinant exceeds this in modulus
HYPOTHESIS_DET_TOL = 1e-10


def check_hypotheses(model: Model, classification: ZeroClassification,
                     resonances: Optional[Sequence[Tuple[float, int]]] = None,
                     disc: Optional[Discretization] = None) -> dict:
    """Evaluate the Gram-determinant conditions behind the expansion theorems.

    H1: det(<phi_j, J phi_i>) != 0 over the threshold kernel directions.
    H2: marker separation of resonance/eigen directions plus the H1-type
        condition on the eigen block (third kind).
    H3: det(B_lambda_j(psi_r, psi_l)) != 0 at each outgoing resonance.
    """
    disc = disc or Discretization(model)
    report = {"H1": True, "H2": True, "H3": True, "determinants": {}}

    vecs: List[np.ndarray] = []
    if classification.resonance_state is not None:
        vecs.append(classification.resonance_state)
    vecs.extend(classification.eigenvectors)
    if vecs:
        k = len(vecs)
        G = np.array([[disc.pair(vecs[j], vecs[i]) for j in range(k)]
                      for i in range(k)])
        d = complex(np.linalg.det(G))
        report["determinants"]["H1"] = d
        report["H1"] = abs(d) > HYPOTHESIS_DET_TOL
        if classification.kind == "third":
            ke = len(classification.eigenvectors)
            Ge = G[1:, 1:] if ke else np.zeros((0, 0))
            de = complex(np.linalg.det(Ge)) if ke else 1.0
            marker_ok = abs(classification.integral_marker) > classification.marker_tol
            report["determinants"]["H2"] = de
            report["H2"] = bool(marker_ok and abs(de) > HYPOTHESIS_DET_TOL)
    if resonances:
        for lam, _N in resonances:
            det_r = detect_minus_one(disc.K(BranchPoint.boundary(lam, "+")),
                                     tol=1e-4)
            if det_r == "absent":
                report["H3"] = False
                report["determinants"][f"H3@{lam:.6f}"] = 0.0
                continue
            B = det_r.eigenvectors
            N = B.shape[1]
            Bmat = np.array([[b_form(disc, lam, B[:, r], B[:, l])
                              for l in range(N)] for r in range(N)])
            d = complex(np.linalg.det(Bmat))
            report["determinants"][f"H3@{lam:.6f}"] = d
            report["H3"] = report["H3"] and abs(d) > HYPOTHESIS_DET_TOL
    return report
