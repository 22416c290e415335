"""
Free-resolvent kernels and Nystrom assembly.

The free resolvent R0(z) = (-Delta - z)^{-1} on R^3 has kernel
exp(+i sqrt(z) |x-y|)/(4 pi |x-y|) on the branch Im sqrt(z) > 0, with
boundary values sqrt(lambda +- i0) = +- sqrt(lambda) on the positive axis.
Near z = 0 it expands as R0(z) = sum_j (i sqrt z)^j G_j with
G_j(x,y) = |x-y|^{j-1}/(4 pi j!).  Near a positive energy lam0 the
coefficients are the derivative kernels G_j^+ = d^j/dz^j of
exp(i sqrt(z) r)/(4 pi r) at lam0 + i0.  With k = sqrt(z) and
d/dz = (1/2k) d/dk they are closed-form,

    d^j/dz^j e^{ikr} = e^{ikr} k^{-2j} sum_{m=1..j} a_{j,m} (ikr)^m,
    a_{0,0} = 1,  a_{j+1,m} = ((m - 2j)/2) a_{j,m} + a_{j,m-1}/2,

so every kernel here is plain numpy.

Nystrom matrices carry the quadrature weight on columns; the diagonal
self-interaction entry is replaced by the integral of the kernel over the
equal-volume ball of the node's cell.  A kernel with that self-cell rule is
a rule (`r0_rule`, `gj_rule`, `gj_plus_rule`): `assemble_entries` gathers
its entries at given pairs of nodes, the representative rows that the
pipeline's sector blocks need (`birman_schwinger.Discretization`), and
`assemble_r0`, `assemble_gj` and `assemble_gj_plus` give the n x n matrix,
for references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .model import QuadratureGrid, weighted_operator_norm

__all__ = [
    "BranchPoint", "L_MAX",
    "r0_kernel", "gj_kernel", "gj_plus_kernel",
    "r0_rule", "gj_rule", "gj_plus_rule",
    "assemble_r0", "assemble_gj", "assemble_gj_plus",
    "entry_plan", "kernel_table", "assemble_entries",
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


def _check_order(j: int) -> None:
    if not 0 <= j <= L_MAX:
        raise ValueError("kernel order outside supported range")


def _check_anchor(j: int, lam0: float) -> None:
    _check_order(j)
    if lam0 <= 0:
        raise ValueError("anchor energy must be positive")


# ---------------------------------------------------------------------------
# pointwise kernels

def r0_kernel(bp: BranchPoint, r) -> np.ndarray:
    """Free-resolvent kernel as a function of the distance r = |x-y|."""
    r = np.asarray(r, dtype=float)
    if np.any(r == 0):
        raise ValueError("diagonal singularity")
    return _r0_values(bp.sqrt_z, r)


def _r0_values(sqrt_z, r: np.ndarray) -> np.ndarray:
    return np.exp(1j * sqrt_z * r) / (4.0 * np.pi * r)


def gj_kernel(j: int, r) -> np.ndarray:
    """Threshold coefficient kernel G_j(x,y) = r^{j-1}/(4 pi j!)."""
    r = np.asarray(r, dtype=float)
    if j == 0 and np.any(r == 0):
        raise ValueError("diagonal singularity")
    return r ** (j - 1) / (4.0 * np.pi * math.factorial(j))


def _derivative_coefficients(jmax: int) -> np.ndarray:
    """Row j holds a_{j,m}, m = 0..jmax, of the module docstring's recursion."""
    a = np.zeros((jmax + 1, jmax + 1))
    a[0, 0] = 1.0
    m = np.arange(jmax + 1)
    for j in range(jmax):
        a[j + 1] = 0.5 * (m - 2 * j) * a[j]
        a[j + 1, 1:] += 0.5 * a[j, :-1]
    return a


_DERIV_COEFFS = _derivative_coefficients(L_MAX)


def gj_plus_kernel(j: int, lam0: float, r) -> np.ndarray:
    """j-th z-derivative of the R0 kernel at z = lam0 + i0 (outgoing side):
    e^{ikr} k^{-2j} sum_m a_{j,m} (ikr)^m / (4 pi r) with k = +sqrt(lam0)."""
    _check_anchor(j, lam0)
    r = np.asarray(r, dtype=float)
    bp = BranchPoint.boundary(lam0, "+")
    if j == 0:
        return r0_kernel(bp, r)
    k = bp.sqrt_z
    poly = np.polynomial.polynomial.polyval(1j * k * r, _DERIV_COEFFS[j])
    return r0_kernel(bp, r) * poly / k ** (2 * j)


# ---------------------------------------------------------------------------
# diagonal (self-cell) rules

# |i a rc| up to which the self-cell rule sums its Taylor series; the closed
# form loses about eps / |i a rc|^2 to cancellation below it
_DIAG_R0_TAYLOR = 0.1
# 1 / (n! (n + 2)) for n = 11 down to 0, in Horner order: the truncation
# error at |i a rc| = 0.1 is 4e-21
_DIAG_R0_HORNER = [1.0 / (math.factorial(n) * (n + 2))
                   for n in range(11, -1, -1)]


def _diag_r0(sqrt_z, rc: np.ndarray) -> np.ndarray:
    """Integral of the R0 kernel over the ball |u| <= rc:
    int_0^rc rho e^{i a rho} d rho = rc^2 sum_n x^n / (n! (n + 2)) with
    x = i a rc, summed by Horner for |x| <= 0.1 and otherwise taken in
    closed form (e^x (x - 1) + 1) / (i a)^2.  `sqrt_z` (the a) broadcasts
    against rc: a column of values gives one row per value."""
    rc = np.asarray(rc, dtype=float)
    ia = 1j * sqrt_z
    x = ia * rc

    def taylor():
        acc = 0.0
        for c in _DIAG_R0_HORNER:
            acc = acc * x + c
        return rc ** 2 * acc

    def closed():
        return (np.exp(x) * (x - 1.0) + 1.0) / ia ** 2

    small = np.abs(x) <= _DIAG_R0_TAYLOR
    if small.all():
        return taylor()
    if not small.any():
        return closed()
    # both branches entrywise: the closed form is 0 / 0 where a = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, taylor(), closed())


def _diag_gj(j: int, rc: np.ndarray) -> np.ndarray:
    return rc ** (j + 2) / (math.factorial(j) * (j + 2))


_GAUSS_PTS = np.polynomial.legendre.leggauss(24)


def _diag_gj_plus(j: int, lam0: float, rc: np.ndarray) -> np.ndarray:
    """Cell integrals 4 pi int_0^rc rho^2 G_j^+(rho) d rho for j >= 1 (G_j^+
    is bounded at 0), one 24-point Gauss rule per cell, all cells at once."""
    x, w = _GAUSS_PTS
    half = 0.5 * np.asarray(rc, dtype=float)[:, None]
    rho = half * (x + 1.0)
    f = gj_plus_kernel(j, lam0, rho)
    return np.sum(half * w * 4.0 * np.pi * rho ** 2 * f, axis=1)


# ---------------------------------------------------------------------------
# kernels with their self-cell rules

# a kernel as (function of the distance r, integral over a cell of radius rc)
Rule = Tuple[Callable[[np.ndarray], np.ndarray],
             Callable[[np.ndarray], np.ndarray]]


def r0_rule(z) -> Rule:
    """R0 at the BranchPoint z, or at a batch of points given by their
    square roots (an array, any sheet): the kernel and the self-cell rule
    then give one row per point."""
    if isinstance(z, BranchPoint):
        return (lambda r: r0_kernel(z, r), lambda rc: _diag_r0(z.sqrt_z, rc))
    k = np.asarray(z, dtype=complex).reshape(-1, 1)
    return lambda r: _r0_values(k, r), lambda rc: _diag_r0(k, rc)


def gj_rule(j: int) -> Rule:
    _check_order(j)
    return lambda r: gj_kernel(j, r), lambda rc: _diag_gj(j, rc)


def gj_plus_rule(j: int, lam0: float) -> Rule:
    """G_j^+ at lam0; order 0 is the boundary R0(lam0 + i0)."""
    _check_anchor(j, lam0)
    if j == 0:
        return r0_rule(BranchPoint.boundary(lam0, "+"))
    return (lambda r: gj_plus_kernel(j, lam0, r),
            lambda rc: _diag_gj_plus(j, lam0, rc))


# ---------------------------------------------------------------------------
# Nystrom assembly

def _nystrom(grid: QuadratureGrid, rule: Rule) -> np.ndarray:
    """K[i,j] = kernel(|x_i - x_j|) w_j off the diagonal, the self-cell rule
    on it.  The kernel runs once per distinct distance
    (`grid.distance_classes`, unit distance for the diagonal) and the table
    is gathered into K: the same float64 values through the same ufuncs as
    a run on the whole matrix."""
    kernel, diag = rule
    values, index = grid.distance_classes
    K = np.empty((grid.n, grid.n), dtype=complex)
    # "clip" never clips (index < len(values)) but, unlike "raise", writes
    # into K without a buffer
    np.take(np.asarray(kernel(values), dtype=complex), index, out=K,
            mode="clip")
    K *= grid.weights[None, :]
    np.fill_diagonal(K, diag(grid.cell_radii()))
    return K


def assemble_r0(grid: QuadratureGrid, z: BranchPoint) -> np.ndarray:
    return _nystrom(grid, r0_rule(z))


def assemble_gj(grid: QuadratureGrid, j: int) -> np.ndarray:
    return _nystrom(grid, gj_rule(j))


def assemble_gj_plus(grid: QuadratureGrid, j: int,
                     lam0: float) -> np.ndarray:
    return _nystrom(grid, gj_plus_rule(j, lam0))


def entry_plan(grid: QuadratureGrid, rows: np.ndarray,
               cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
    """The gather behind `assemble_entries` for the pairs (rows, cols)
    (index arrays of one shape): each pair's distance class, with the
    self-cell pairs numbered after the classes (one number per distinct
    cell radius), the column weight (1 on a self-cell pair) and the
    distinct radii of the self-cell rows' cells."""
    values, index = grid.distance_classes
    cls = index[rows, cols].astype(np.intp)
    w = np.array(grid.weights[cols], dtype=float)
    on = rows == cols
    radii, slot = np.unique(grid.cell_radii()[rows[on]], return_inverse=True)
    cls[on] = len(values) + slot
    w[on] = 1.0
    return cls, w, radii


def kernel_table(grid: QuadratureGrid, rule: Rule,
                 radii: np.ndarray) -> np.ndarray:
    """The kernel of `rule` on the grid's distance classes followed by its
    self-cell rule on the cell radii `radii`, as complex in one table; a
    rule for a batch of points (`r0_rule`) gives one row per point."""
    kernel, diag = rule
    return np.concatenate([np.asarray(kernel(grid.distance_classes[0]),
                                      dtype=complex),
                           np.asarray(diag(radii), dtype=complex)], axis=-1)


def assemble_entries(grid: QuadratureGrid, rule: Rule,
                     plan: Tuple[np.ndarray, np.ndarray, np.ndarray]
                     ) -> np.ndarray:
    """The entries K[rows, cols] of the Nystrom matrix of `rule` without
    the n x n matrix, for the pairs of `entry_plan`: the `kernel_table` on
    the plan's distinct radii gathered at the pairs alone, one gather per
    table row for a batch rule (leading axis); equal to the entries of
    `_nystrom` bit for bit."""
    cls, w, rc = plan
    T = np.take(kernel_table(grid, rule, rc), cls, axis=-1)
    T *= w
    return T


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
    R = assemble_r0(grid, bp)
    acc = np.zeros_like(R)
    for j in range(ell + 1):
        acc += (1j * bp.sqrt_z) ** j * assemble_gj(grid, j)
    return weighted_operator_norm(R - acc, grid, s_in=s, s_out=-s)
