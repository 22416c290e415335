"""
Reference model factories: complex potentials tuned so that the discrete
Birman-Schwinger operator has an exact eigenvalue -1 at the zero threshold
(resonance and/or eigenvalue type) or at a chosen positive energy.

All constructions work on the sector blocks of a Discretization's Nystrom
operators (of the template, or of the free model for G0), so the tuned
spectral structure holds to machine precision on the grid itself rather
than only in the continuum limit.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla

from .birman_schwinger import Discretization, tune_coupling
from .kernels import assemble_gj
from .model import Model, QuadratureGrid, build_grid, sample_potential
from .symmetry import ReflectionGroup

__all__ = [
    "default_grid", "gaussian_template", "free_model", "regular_model",
    "first_kind_model", "second_kind_model", "third_kind_model",
    "resonance_model",
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


# G0 as the grid's reflection group and its flat sector blocks
_G0 = Tuple[ReflectionGroup, np.ndarray]


def _g0_sectors(grid: QuadratureGrid) -> _G0:
    """G0 under every grid reflection, from a `Discretization` of the free
    model (V = 0 keeps them all)."""
    free = Discretization(free_model(grid))
    return free.sectors, free.gj_sectors(0)


def _dipole_source_potential(grid: QuadratureGrid, G0: _G0,
                             tilt: float, alpha: complex,
                             _width: float = 1.0) -> np.ndarray:
    """Exact threshold eigenvalue by the source method in the odd (dipole)
    sector: g ~ x_1 h(q), q = x_1^2 / c^2 + x_2^2 + x_3^2 (c = `_width`),
    psi = -G0 g, V = g / psi pointwise.  Then G0 V psi = -psi on the grid
    exactly, and the integral marker of psi (= sum w g) vanishes exactly by
    parity, so psi is an eigen direction rather than a resonance.  alpha
    deforms the shape h; G0 is the threshold kernel (`_g0_sectors`).  With
    c = 1 the continuum V is radial and x_2, x_3 partners of psi put extra
    zeros of M(k) near k = 0.

    Nodes within 1e-12 extent of the plane x_1 = 0 count as on it: g is
    exactly 0 there and so is V (psi is a roundoff value there, and the
    ratio of two would be noise)."""
    mask = _support_mask(grid)
    x1 = grid.nodes[:, 0]
    x1 = np.where(np.abs(x1) <= 1e-12 * grid.extent, 0.0, x1)
    # + 0.0 exactly when c = 1, so that q is bitwise r^2
    q = grid.radii() ** 2 + x1 ** 2 * (_width ** -2 - 1.0)
    g = (np.exp(-q) * (1.0 + tilt * 1j * np.exp(-0.5 * q))
         + alpha * q * np.exp(-1.3 * q)) * x1 * mask
    group, flat = G0
    psi = -group.from_sectors([B @ y for B, y in zip(
        group.split(flat), group.to_sectors(g[:, None]))])[:, 0]
    V = np.divide(g, psi, out=np.zeros_like(g), where=g != 0)
    # an interior zero of psi where g is supported would blow V up
    scale = np.abs(V[np.argmax(np.abs(g))])
    if not np.abs(V).max() < 1e4 * max(scale, 1e-300):
        raise ValueError("source construction produced a near-vanishing state")
    return V


def second_kind_model(grid: Optional[QuadratureGrid] = None) -> Model:
    """Pure threshold eigenvalue (zero integral marker), kernel dimension 1;
    c = 1.5 keeps det M(k) of order 2 at k = 0 out to |k| = 0.5."""
    grid = grid or default_grid()
    V = _dipole_source_potential(grid, _g0_sectors(grid), tilt=0.25,
                                 alpha=0.0, _width=1.5)
    pot = sample_potential(grid, V)
    return Model(grid=grid, potential=pot, name="second_kind")


def _third_kind_potential(grid: QuadratureGrid, G0: _G0,
                          alpha: complex) -> np.ndarray:
    return _dipole_source_potential(grid, G0, tilt=0.2, alpha=alpha)


def _symmetric_sector_marked_eigenpair(grid: QuadratureGrid, G0: _G0):
    """alpha -> (mu, x): the marked eigenvalue mu of G0 V(alpha) nearest -1
    and its unit eigenvector x on all n nodes, where V(alpha) is the
    third-kind dipole source potential and an eigenvector counts as marked
    when its integral marker exceeds 5% of the largest.  ValueError unless
    the grid reflections hold the mirror x_1 -> -x_1.

    V, the weights and G0 are invariant under every grid reflection, and so
    is the marker functional w V.  An eigenvector outside the sector of the
    trivial character therefore has marker zero, and the marked eigenvalues
    are exactly those of that sector's block Q_0^T (G0 diag V) Q_0, the
    first G0 block times V at the orbit representatives: one unknown per
    node orbit (x = Q_0 y, Q_0 the orbit indicators over sqrt|O_a|).  When
    the grid also maps onto itself under the swap x_2 <-> x_3, so do V and
    the marker, and the swap acts inside that block as a signed permutation
    of the orbits (`ReflectionGroup.sector_map`); an eigenvector odd under
    it has marker zero too, so only the block on the even vectors is
    solved: 31 unknowns for n = 408 on the uniform grid, 51 without the
    swap.  ValueError unless V(alpha) is invariant under the reflections
    and the swap to 1e-10."""
    group, flat = G0
    if 1 not in group.elements:     # 1: the bit mask of x_1 -> -x_1
        raise ValueError("grid is not mirror-symmetric in x_1 (nodes or "
                         "weights), so the dipole source has no exact "
                         "parity zero on it")
    w, G_sector = grid.weights, group.split(flat)[0]
    root = np.sqrt(group.sizes)
    maps = list(group.maps)
    k = len(G_sector)
    pos, d = np.arange(k), np.ones(k)
    swap = grid.axis_permutations.get((0, 2, 1))
    if swap is not None and group.conjugation(swap) is not None:
        maps.append(swap)
        _, pos, d = group.sector_map(swap)[0]
    # orthonormal basis E of the even vectors y[a] = d_a y[pos a]: one per
    # pair of orbits the swap exchanges and per orbit it fixes with d_a = 1
    a = np.flatnonzero((np.arange(k) <= pos) & ((np.arange(k) != pos) | (d > 0)))
    E = np.zeros((k, len(a)))
    E[pos[a], np.arange(len(a))] = 1.0
    E[a, np.arange(len(a))] += d[a]
    E /= np.linalg.norm(E, axis=0)

    def marked_eigenpair(alpha: complex):
        V = _third_kind_potential(grid, G0, alpha)
        if max(np.linalg.norm(V - V[m]) for m in maps) \
                > 1e-10 * np.linalg.norm(V):
            raise ValueError("dipole source potential is not invariant under "
                             "the grid reflections and the x_2 <-> x_3 swap")
        ev, y = sla.eig(E.T @ (G_sector * V[group.reps][None, :]) @ E)
        mk = np.abs(E.T @ group.to_sectors((w * V)[:, None])[0][:, 0] @ y)
        marked = np.flatnonzero(mk > 0.05 * mk.max())
        i = marked[np.argmin(np.abs(ev[marked] + 1.0))]
        x = E @ y[:, i]
        return complex(ev[i]), x[group.orbit] / root[group.orbit]

    return marked_eigenpair


def _check_full_space(grid: QuadratureGrid, G0: np.ndarray, V: np.ndarray,
                      x: np.ndarray) -> None:
    """Second check of a sector eigenvector lifted to all n nodes, with the
    full n x n G0: ||(I + G0 V) x|| <= 1e-9 ||x|| and an integral marker
    above 1e-8 ||w V|| ||x|| (ValueError otherwise)."""
    residual = np.linalg.norm(x + G0 @ (V * x)) / np.linalg.norm(x)
    marker = abs((grid.weights * V) @ x) / (
        np.linalg.norm(grid.weights * V) * np.linalg.norm(x))
    if not (residual <= 1e-9 and marker > 1e-8):
        raise ValueError(
            "symmetric-sector eigenvector fails the full-space check: "
            f"||(I + G0 V) x|| / ||x|| = {residual:.3e} (gate 1e-09), "
            f"relative marker {marker:.3e} (gate 1e-08)")


def _tune_third_kind_alpha(grid: QuadratureGrid, G0: _G0) -> complex:
    """Shape parameter alpha of the third-kind dipole source that puts the
    marked eigenvalue at -1, all in the trivial sector of the grid
    reflections: a coarse 9 x 4 scan picks the start, then a damped
    Newton drives f = mu + 1 to |f| <= 1e-13.  mu(alpha) is holomorphic
    where it is simple (V(alpha) is a ratio of two affine functions of
    alpha), so its derivative is the forward difference along the real
    increment h = 1e-7 max(1, |alpha|).  The Newton step is halved while
    |f| does not fall; a trial alpha whose source has a near-vanishing
    state (ValueError) or whose mu is not finite does not fall either.
    ValueError unless |f| <= 1e-9 when Newton stops (zero or non-finite
    difference quotient, no step that moves alpha and lowers |f|, or 40
    steps); the tuned eigenvector then passes `_check_full_space` on an
    n x n G0 of its own."""
    marked_eigenpair = _symmetric_sector_marked_eigenpair(grid, G0)

    def offset(alpha: complex):
        try:
            mu, x = marked_eigenpair(alpha)
        except ValueError:
            return complex(np.nan, np.nan), None
        return mu + 1.0, x

    best = None
    for ar in np.linspace(-4.0, 4.0, 9):
        for ai in (-1.5, -0.5, 0.5, 1.5):
            alpha = complex(ar, ai)
            mu, x = marked_eigenpair(alpha)
            if best is None or abs(mu + 1.0) < abs(best[1]):
                best = (alpha, mu + 1.0, x)

    alpha, f, x = best
    for _ in range(40):
        if abs(f) <= 1e-13:
            break
        h = 1e-7 * max(1.0, abs(alpha))
        slope = (offset(alpha + h)[0] - f) / h
        if slope == 0 or not np.isfinite(slope):
            break
        step = f / slope
        while np.isfinite(step) and alpha - step != alpha:
            f_trial, x_trial = offset(alpha - step)
            if abs(f_trial) < abs(f):
                break
            step /= 2
        else:
            break
        alpha, f, x = alpha - step, f_trial, x_trial
    if not abs(f) <= 1e-9:
        raise ValueError(
            "two-eigenvalue tuning did not converge: |mu + 1| = "
            f"{abs(f):.3e} at alpha = {alpha:.6g}")
    _check_full_space(grid, assemble_gj(grid, 0),
                      _third_kind_potential(grid, G0, alpha), x)
    return alpha


def third_kind_model(grid: Optional[QuadratureGrid] = None) -> Model:
    """Mixed threshold: an exact eigenvalue plus a tuned resonance.

    An odd (dipole) source g ~ x_1 h(r) gives psi = -G0 g and V = g / psi
    pointwise, so G0 V psi = -psi exactly and the marker of psi vanishes by
    parity.  The shape parameter alpha of h is then tuned (coarse scan, then
    a damped complex Newton on the eigenvalue tracked through its nonzero
    integral marker, numpy only) so a second, marker-carrying eigenvalue of
    G0 V also sits at -1.
    G0 acts as its sector blocks under the grid reflections, and every
    tuning step solves only the trivial character's block (all marked
    eigenvalues live there): one row per node orbit, 51 for n = 408 on the
    uniform grid.  The tuned eigenvector is checked on all n nodes against
    an n x n G0 assembled for that check alone.

    The grid must be mirror-symmetric in x_1, nodes and weights (ValueError
    otherwise, e.g. `gauss_radial` with an odd azimuth count): without that
    the dipole source has no exact parity zero."""
    grid = grid or default_grid()
    G0 = _g0_sectors(grid)
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
