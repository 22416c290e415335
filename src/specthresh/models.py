"""
Reference model factories: complex potentials tuned so that the discrete
Birman-Schwinger operator has an exact eigenvalue -1 at the zero threshold
(resonance and/or eigenvalue type) or at a chosen positive energy.

All constructions work at the level of the assembled Nystrom matrices, so the
tuned spectral structure holds to machine precision on the grid itself rather
than only in the continuum limit.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.optimize import root
from scipy.spatial import cKDTree

from .birman_schwinger import Discretization, tune_coupling
from .kernels import assemble_gj
from .model import Model, QuadratureGrid, build_grid, sample_potential

__all__ = [
    "default_grid", "gaussian_template", "free_model", "regular_model",
    "first_kind_model", "second_kind_model", "third_kind_model",
    "resonance_model", "dissipative_model",
]


def default_grid(extent: float = 3.0, resolution: int = 8) -> QuadratureGrid:
    return build_grid(extent, resolution, scheme="uniform")


def _support_mask(grid: QuadratureGrid) -> np.ndarray:
    """Indicator of nodes inside the ball: potentials are certified with
    support in the ball, so templates are truncated the same way before any
    coupling is tuned against them."""
    return (grid.radii() <= grid.extent + 1e-12).astype(float)


def gaussian_template(grid: QuadratureGrid, width: float = 1.0,
                      tilt: float = 0.35) -> np.ndarray:
    """Complex gaussian bump: non-self-adjoint but smooth and localized."""
    r2 = grid.radii() ** 2
    bump = np.exp(-r2 / width ** 2) * (1.0 + 1j * tilt * np.exp(-0.5 * r2))
    return bump * _support_mask(grid)


def free_model(grid: Optional[QuadratureGrid] = None) -> Model:
    grid = grid or default_grid()
    pot = sample_potential(grid, 0.0)
    return Model(grid=grid, potential=pot, name="free")


def regular_model(grid: Optional[QuadratureGrid] = None,
                  strength: complex = 0.6 + 0.25j) -> Model:
    """Weak complex potential: zero is a regular point of the threshold."""
    grid = grid or default_grid()
    V = strength * gaussian_template(grid)
    pot = sample_potential(grid, V)
    return Model(grid=grid, potential=pot, name="regular")


def first_kind_model(grid: Optional[QuadratureGrid] = None) -> Model:
    """Coupling tuned so that -1 is a simple eigenvalue of G0 V whose
    eigenfunction has a nonzero integral marker: a threshold resonance."""
    grid = grid or default_grid()
    W = gaussian_template(grid)
    gamma = tune_coupling(grid, W, "threshold_zero")
    pot = sample_potential(grid, gamma * W)
    return Model(grid=grid, potential=pot, name="first_kind")


def _dipole_source_potential(grid: QuadratureGrid, G0: np.ndarray,
                             tilt: float, alpha: complex,
                             _width: float = 1.0) -> np.ndarray:
    """Exact threshold eigenvalue by the source method in the odd (dipole)
    sector: g ~ x_1 h(q), q = x_1^2 / c^2 + x_2^2 + x_3^2 (c = `_width`),
    psi = -G0 g, V = g / psi pointwise.  Then G0 V psi = -psi on the grid
    exactly, and the integral marker of psi (= sum w g) vanishes exactly by
    parity, so psi is an eigen direction rather than a resonance.  alpha
    deforms the shape h; G0 is the threshold kernel assembled on grid.  With
    c = 1 the continuum V is radial and x_2, x_3 partners of psi put extra
    zeros of M(k) near k = 0."""
    mask = _support_mask(grid)
    x1 = grid.nodes[:, 0]
    # + 0.0 exactly when c = 1, so that q is bitwise r^2
    q = grid.radii() ** 2 + x1 ** 2 * (_width ** -2 - 1.0)
    g = (np.exp(-q) * (1.0 + tilt * 1j * np.exp(-0.5 * q))
         + alpha * q * np.exp(-1.3 * q)) * x1 * mask
    psi = -G0 @ g
    V = np.where(mask > 0, g / psi, 0.0)
    # an interior zero of psi where g is supported would blow V up
    scale = np.abs(V[np.argmax(np.abs(g))])
    if not np.abs(V).max() < 1e4 * max(scale, 1e-300):
        raise ValueError("source construction produced a near-vanishing state")
    return V


def second_kind_model(grid: Optional[QuadratureGrid] = None) -> Model:
    """Pure threshold eigenvalue (zero integral marker), kernel dimension 1;
    c = 1.5 keeps det M(k) of order 2 at k = 0 out to |k| = 0.5."""
    grid = grid or default_grid()
    V = _dipole_source_potential(grid, assemble_gj(grid, 0), tilt=0.25,
                                 alpha=0.0, _width=1.5)
    pot = sample_potential(grid, V)
    return Model(grid=grid, potential=pot, name="second_kind")


def _x1_mirror(grid: QuadratureGrid) -> np.ndarray:
    """Node map m of the reflection x_1 -> -x_1: nodes[m[i]] is the mirror
    image of nodes[i].  Raises ValueError unless the grid, weights included,
    is mirror-symmetric in x_1."""
    mirrored = grid.nodes * np.array([-1.0, 1.0, 1.0])
    dist, m = cKDTree(grid.nodes).query(mirrored)
    w = grid.weights
    if not (np.all(m[m] == np.arange(grid.n))
            and dist.max() <= 1e-12 * grid.extent
            and np.all(np.abs(w[m] - w) <= 1e-14 * w)):
        raise ValueError("grid is not mirror-symmetric in x_1 (nodes or "
                         "weights), so the dipole source has no exact "
                         "parity zero on it")
    return m


def _third_kind_potential(grid: QuadratureGrid, G0: np.ndarray,
                          alpha: complex) -> np.ndarray:
    return _dipole_source_potential(grid, G0, tilt=0.2, alpha=alpha)


def _even_sector_marked_eigenvalue(grid: QuadratureGrid, G0: np.ndarray):
    """alpha -> the marked eigenvalue of G0 V(alpha) nearest -1, where
    V(alpha) is the third-kind dipole source potential: among the
    eigenvectors whose integral marker exceeds 5% of the largest, the
    eigenvalue closest to -1.

    V is even and G0 commutes with the reflection x_1 -> -x_1, so every odd
    eigenvector has marker zero and the marked eigenvalues are exactly those
    of the even sector.  Each call solves only the even block
    B = U^T (G0 diag V) U, where the orthonormal columns of U are
    (e_i + e_m(i))/sqrt(2) for mirror pairs and e_i on the plane x_1 = 0."""
    w = grid.weights
    m = _x1_mirror(grid)
    # one column of U per mirror class {p, q = m(p)}; p = q on the plane
    P = np.flatnonzero(np.arange(grid.n) <= m)
    Q = m[P]
    col = np.empty(grid.n, dtype=int)
    col[P] = col[Q] = np.arange(len(P))
    lift = np.where(m == np.arange(grid.n), 1.0, np.sqrt(0.5))
    # summing the four (P|Q, P|Q) blocks counts a plane node twice per index
    c = np.where(P == Q, 0.5, np.sqrt(0.5))
    cc = c[:, None] * c[None, :]
    GP = cc * (G0[np.ix_(P, P)] + G0[np.ix_(Q, P)])
    GQ = cc * (G0[np.ix_(P, Q)] + G0[np.ix_(Q, Q)])

    def marked_eigenvalue(alpha: complex) -> complex:
        V = _third_kind_potential(grid, G0, alpha)
        if np.linalg.norm(V - V[m]) > 1e-10 * np.linalg.norm(V):
            raise ValueError("dipole source potential is not even in x_1")
        ev, y = sla.eig(GP * V[P][None, :] + GQ * V[Q][None, :])
        vec = lift[:, None] * y[col]          # x = U y, unit norm like y
        mk = np.abs((w * V) @ vec)
        marked = mk > 0.05 * mk.max()
        evm = ev[marked]
        return complex(evm[np.argmin(np.abs(evm + 1.0))])

    return marked_eigenvalue


def _tune_third_kind_alpha(grid: QuadratureGrid, G0: np.ndarray) -> complex:
    """Shape parameter alpha of the third-kind dipole source that puts the
    marked eigenvalue at -1: coarse scan for a basin, then `root(hybr)`."""
    marked_eigenvalue = _even_sector_marked_eigenvalue(grid, G0)
    best = None
    for ar in np.linspace(-4.0, 4.0, 9):
        for ai in (-1.5, -0.5, 0.5, 1.5):
            mu = marked_eigenvalue(ar + 1j * ai)
            if best is None or abs(mu + 1.0) < best[0]:
                best = (abs(mu + 1.0), ar + 1j * ai)

    def residual(x):
        mu = marked_eigenvalue(x[0] + 1j * x[1])
        return [mu.real + 1.0, mu.imag]

    sol = root(residual, [best[1].real, best[1].imag], method="hybr", tol=1e-13)
    alpha = complex(sol.x[0], sol.x[1])
    if not sol.success or np.linalg.norm(sol.fun) > 1e-9:
        raise ValueError(
            "two-eigenvalue tuning did not converge: |mu + 1| = "
            f"{np.linalg.norm(sol.fun):.3e} at alpha = {alpha:.6g}")
    return alpha


def third_kind_model(grid: Optional[QuadratureGrid] = None) -> Model:
    """Mixed threshold: an exact eigenvalue plus a tuned resonance.

    An odd (dipole) source g ~ x_1 h(r) gives psi = -G0 g and V = g / psi
    pointwise, so G0 V psi = -psi exactly and the marker of psi vanishes by
    parity.  The shape parameter alpha of h is then tuned (coarse scan, then
    `root(hybr)` on the eigenvalue tracked through its nonzero integral
    marker) so a second, marker-carrying eigenvalue of G0 V also sits at -1.
    Every tuning step solves only the even sector of the reflection
    x_1 -> -x_1, a block of about n/2 (all marked eigenvalues live there);
    the final V is built with the full G0.

    The grid must be mirror-symmetric in x_1, nodes and weights (ValueError
    otherwise, e.g. `gauss_radial` with an odd azimuth count): without that
    the dipole source has no exact parity zero."""
    grid = grid or default_grid()
    G0 = assemble_gj(grid, 0)
    V = _third_kind_potential(grid, G0, _tune_third_kind_alpha(grid, G0))
    pot = sample_potential(grid, V)
    return Model(grid=grid, potential=pot, name="third_kind")


def resonance_model(grid: Optional[QuadratureGrid] = None,
                    lam0: float = 1.0) -> Model:
    """Coupling tuned so that -1 is an eigenvalue of R0+(lam0) V: an outgoing
    resonance embedded at the positive energy lam0."""
    grid = grid or default_grid()
    W = gaussian_template(grid, width=1.1, tilt=0.4)
    gamma = tune_coupling(grid, W, "positive", lam0=lam0)
    pot = sample_potential(grid, gamma * W)
    return Model(grid=grid, potential=pot, name="resonance")


def dissipative_model(extent: float = 2.2, resolution: int = 7,
                      strength: float = 1.5,
                      absorption: float = 0.05) -> Model:
    """Uniform-grid model with a uniformly dissipative potential
    V = strength e^{-r^2} - i absorption: every eigenvalue of the dense
    finite-difference H sits exactly absorption below the real axis, which
    keeps contours cleanly separated from the spectrum."""
    grid = build_grid(extent, resolution, scheme="uniform")
    r2 = grid.radii() ** 2
    V = strength * np.exp(-r2) - 1j * absorption
    # keep the constant absorption on every node (including boundary-cell
    # centers slightly outside the ball) so Im spec(H) = -absorption exactly
    pot = sample_potential(grid, V, support_radius=2.0 * extent)
    return Model(grid=grid, potential=pot, name="dissipative")
