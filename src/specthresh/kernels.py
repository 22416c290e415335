"""
Free-resolvent kernels and Nystrom assembly.

The free resolvent R0(z) = (-Delta - z)^{-1} on R^3 has kernel
exp(+i sqrt(z) |x-y|)/(4 pi |x-y|) on the branch Im sqrt(z) > 0, with
boundary values sqrt(lambda +- i0) = +- sqrt(lambda) on the positive axis.
Near z = 0 it expands as R0(z) = sum_j (i sqrt z)^j G_j with
G_j(x,y) = |x-y|^{j-1}/(4 pi j!); near a positive energy lam0 the relevant
coefficients are the z-derivative kernels of exp(i sqrt(z) r)/(4 pi r)
evaluated at lam0 + i0.

Nystrom matrices carry the quadrature weight on columns; the diagonal
self-interaction entry is replaced by the analytic integral of the kernel
over the equal-volume ball of the node's cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
import sympy as sp

from .model import QuadratureGrid, weighted_operator_norm

__all__ = [
    "BranchPoint", "KernelFamily", "L_MAX",
    "r0_kernel", "gj_kernel", "gj_plus_kernel",
    "assemble_kernel_operator", "assemble_r0", "assemble_gj", "assemble_gj_plus",
    "verify_threshold_expansion",
]

L_MAX = 8  # maximum half-power expansion order handled anywhere


# ---------------------------------------------------------------------------
# branch bookkeeping

@dataclass(frozen=True)
class BranchPoint:
    """A spectral parameter together with its square root on the physical
    branch Im sqrt(z) >= 0; boundary sides on the positive axis are explicit,
    never inferred from a tiny imaginary part."""
    z: complex
    sqrt_z: complex

    def __post_init__(self):
        if abs(self.sqrt_z ** 2 - self.z) > 1e-12 * max(1.0, abs(self.z)):
            raise ValueError("sqrt_z inconsistent with z")

    @staticmethod
    def from_z(z: complex, side: Optional[str] = None) -> "BranchPoint":
        z = complex(z)
        if z.imag == 0.0 and z.real > 0.0:
            if side not in ("+", "-"):
                raise ValueError("branch side required")
            s = np.sqrt(z.real)
            return BranchPoint(z=z, sqrt_z=s if side == "+" else -s)
        s = complex(np.lib.scimath.sqrt(z))
        if s.imag < 0:
            s = -s
        return BranchPoint(z=z, sqrt_z=s)

    @staticmethod
    def boundary(lam: float, side: str = "+") -> "BranchPoint":
        if lam <= 0:
            raise ValueError("boundary points live on the positive axis")
        return BranchPoint.from_z(lam, side=side)


@dataclass(frozen=True)
class KernelFamily:
    """Which kernel to assemble: R0 at a BranchPoint, a threshold coefficient
    G_j, or a derivative kernel G_j^+ anchored at lam0 > 0."""
    kind: str                       # "R0" | "Gj" | "GjPlus"
    order: int = 0
    anchor: float = 0.0             # lam0 for GjPlus

    def __post_init__(self):
        if self.kind not in ("R0", "Gj", "GjPlus"):
            raise ValueError("unknown kernel family")
        if self.order < 0 or self.order > L_MAX:
            raise ValueError("kernel order outside supported range")
        if self.kind == "GjPlus" and self.anchor <= 0:
            raise ValueError("GjPlus needs a positive anchor energy")


# ---------------------------------------------------------------------------
# pointwise kernels

def r0_kernel(bp: BranchPoint, r) -> np.ndarray:
    """Free-resolvent kernel as a function of the distance r = |x-y|."""
    r = np.asarray(r, dtype=float)
    if np.any(r == 0):
        raise ValueError("diagonal singularity")
    return np.exp(1j * bp.sqrt_z * r) / (4.0 * np.pi * r)


def gj_kernel(j: int, r) -> np.ndarray:
    """Threshold coefficient kernel G_j(x,y) = r^{j-1}/(4 pi j!)."""
    r = np.asarray(r, dtype=float)
    if j == 0 and np.any(r == 0):
        raise ValueError("diagonal singularity")
    return r ** (j - 1) / (4.0 * np.pi * math.factorial(j))


@lru_cache(maxsize=None)
def _gj_plus_func(j: int):
    """Closed form of d^j/dz^j exp(i sqrt(z) r)/(4 pi r), derived once
    symbolically and compiled for numeric use."""
    zz, rr = sp.symbols("z r", positive=False)
    expr = sp.exp(sp.I * sp.sqrt(zz) * rr) / (4 * sp.pi * rr)
    dexpr = sp.diff(expr, zz, j)
    dexpr = sp.simplify(dexpr)
    return sp.lambdify((zz, rr), dexpr, modules="numpy")


def gj_plus_kernel(j: int, lam0: float, r) -> np.ndarray:
    """j-th z-derivative of the R0 kernel at z = lam0 + i0 (outgoing side)."""
    if lam0 <= 0:
        raise ValueError("anchor energy must be positive")
    if j > L_MAX:
        raise ValueError("kernel order outside supported range")
    r = np.asarray(r, dtype=float)
    if j == 0:
        return r0_kernel(BranchPoint.boundary(lam0, "+"), r)
    # sympy's principal sqrt at positive real z equals +sqrt(lam0), which is
    # exactly the +i0 boundary branch
    return np.asarray(_gj_plus_func(j)(complex(lam0), r), dtype=complex)


# ---------------------------------------------------------------------------
# diagonal (self-cell) rules

def _diag_r0(sqrt_z: complex, rc: np.ndarray) -> np.ndarray:
    """Integral of the R0 kernel over the ball |u| <= rc:
    int_0^rc rho e^{i a rho} d rho, with the a -> 0 limit rc^2/2."""
    a = sqrt_z
    if a == 0:
        return rc ** 2 / 2.0
    ia = 1j * a
    return (np.exp(ia * rc) * (ia * rc - 1.0) + 1.0) / ia ** 2


def _diag_gj(j: int, rc: np.ndarray) -> np.ndarray:
    return rc ** (j + 2) / (math.factorial(j) * (j + 2))


_GAUSS_PTS = np.polynomial.legendre.leggauss(24)


def _diag_gj_plus(j: int, lam0: float, rc: np.ndarray) -> np.ndarray:
    """Numerical cell integral 4 pi int_0^rc rho^2 f_j(rho) d rho (f_j is
    bounded at 0 for j >= 1)."""
    x, w = _GAUSS_PTS
    out = np.zeros(len(rc), dtype=complex)
    f = _gj_plus_func(j)
    for i, R in enumerate(rc):
        rho = 0.5 * R * (x + 1.0)
        ww = 0.5 * R * w
        out[i] = np.sum(ww * 4.0 * np.pi * rho ** 2 * f(complex(lam0), rho))
    return out


# ---------------------------------------------------------------------------
# Nystrom assembly

def assemble_kernel_operator(grid: QuadratureGrid, family: KernelFamily,
                             z: Optional[BranchPoint] = None,
                             dist: Optional[np.ndarray] = None) -> np.ndarray:
    """Nystrom matrix K[i,j] = kernel(x_i,x_j) w_j with the diagonal replaced
    by the cell-ball rule."""
    if dist is None:
        dist = grid.distance_matrix()
    n = grid.n
    rc = grid.cell_radii()
    off = ~np.eye(n, dtype=bool)
    K = np.zeros((n, n), dtype=complex)

    if family.kind == "R0":
        if z is None:
            raise ValueError("R0 family needs a BranchPoint")
        K[off] = r0_kernel(z, dist[off])
        diag = _diag_r0(z.sqrt_z, rc)
    elif family.kind == "Gj":
        j = family.order
        if j == 0:
            K[off] = gj_kernel(0, dist[off])
        else:
            K[off] = gj_kernel(j, dist[off])
        diag = _diag_gj(j, rc)
    else:  # GjPlus
        j, lam0 = family.order, family.anchor
        K[off] = gj_plus_kernel(j, lam0, dist[off])
        if j == 0:
            diag = _diag_r0(BranchPoint.boundary(lam0, "+").sqrt_z, rc)
        else:
            diag = _diag_gj_plus(j, lam0, rc)

    K *= grid.weights[None, :]
    np.fill_diagonal(K, diag)
    return K


def assemble_r0(grid: QuadratureGrid, z: BranchPoint,
                dist: Optional[np.ndarray] = None) -> np.ndarray:
    return assemble_kernel_operator(grid, KernelFamily("R0"), z=z, dist=dist)


def assemble_gj(grid: QuadratureGrid, j: int,
                dist: Optional[np.ndarray] = None) -> np.ndarray:
    return assemble_kernel_operator(grid, KernelFamily("Gj", order=j), dist=dist)


def assemble_gj_plus(grid: QuadratureGrid, j: int, lam0: float,
                     dist: Optional[np.ndarray] = None) -> np.ndarray:
    return assemble_kernel_operator(grid, KernelFamily("GjPlus", order=j, anchor=lam0),
                                    dist=dist)


# ---------------------------------------------------------------------------
# threshold expansion check

def verify_threshold_expansion(grid: QuadratureGrid, z: complex, ell: int,
                               s: float = 3.5) -> float:
    """Weighted-norm residual of R0(z) - sum_{j<=ell} (i sqrt z)^j G_j.

    Under z -> z/4 the residual must contract like |z|^{(ell+1)/2}, i.e. by
    2^{-(ell+1)} up to a factor of 2.
    """
    if ell > L_MAX:
        raise ValueError("expansion order above configured maximum")
    bp = BranchPoint.from_z(z)
    dist = grid.distance_matrix()
    R = assemble_r0(grid, bp, dist=dist)
    acc = np.zeros_like(R)
    for j in range(ell + 1):
        acc += (1j * bp.sqrt_z) ** j * assemble_gj(grid, j, dist=dist)
    return weighted_operator_norm(R - acc, grid, s_in=s, s_out=-s)
