"""
Independent reference implementations used to check the package's numerics.

Everything here is deliberately built from different primitives than the
library code: rotated-ray Gauss-Laguerre quadrature instead of closed forms,
dense eigendecompositions instead of contour calculus, scipy.integrate
instead of hand-derived cell rules.  Tests freeze their expectations against
these oracles.
"""
import itertools
import math

import numpy as np
import scipy.integrate
import scipy.linalg as sla
from scipy.optimize import root
from scipy.special import roots_genlaguerre

from specthresh.kernels import BranchPoint


def halfline_power_integral(j: int, t: float, n: int = 120,
                            delta: float = np.pi / 3.0) -> complex:
    """int_0^infty lam^{j/2} e^{-i t lam} dlam by rotating the path onto the
    ray lam = s e^{-i delta} / (t sin delta) and integrating with generalized
    Gauss-Laguerre nodes (weight s^{j/2} e^{-s}).

    On the rotated ray e^{-i t lam} = e^{-s} e^{-i s cot delta}, so the
    remaining smooth factor is a pure phase.
    """
    alpha = j / 2.0
    s, w = roots_genlaguerre(n, alpha)
    scale = np.exp(-1j * delta) / (t * np.sin(delta))
    vals = np.exp(-1j * s / np.tan(delta))
    return complex(scale ** (alpha + 1.0) * np.sum(w * vals))


def pv_plus_i0_integral(t: float) -> complex:
    """int_R e^{-i t lam} / (lam + i0) dlam for t > 0.

    Split into the principal value (an odd sine integral computed by scipy's
    oscillatory quadrature) and the half-residue -i pi from the i0 shift.
    """
    a = 1e-3
    val, _ = scipy.integrate.quad(lambda u: 1.0 / u, a, np.inf,
                                  weight="sin", wvar=t)
    # series of int_0^a sin(t u)/u du around 0
    val += t * a - (t * a) ** 3 / 18.0 + (t * a) ** 5 / 600.0
    return complex(-2j * val - 1j * np.pi)


def matrix_exponential(H: np.ndarray, t: float) -> np.ndarray:
    """e^{-i t H} by scipy's expm."""
    return sla.expm(-1j * t * H)


def spectral_projector(H: np.ndarray, select) -> np.ndarray:
    """Sum of oblique eigenprojectors v w^T / (w^T v) over the eigenvalues
    picked by `select`, from a dense two-sided eigendecomposition."""
    lam, VR = np.linalg.eig(H)
    WL = np.linalg.inv(VR)          # rows are left eigenvectors
    P = np.zeros_like(H, dtype=complex)
    for i in range(len(lam)):
        if select(lam[i]):
            P += np.outer(VR[:, i], WL[i, :])
    return P


def upper_half_eigenvalues(H: np.ndarray, tol: float = 1e-9):
    """Eigenvalues of H with nonnegative imaginary part, sorted."""
    lam = np.linalg.eig(H)[0]
    sel = lam[lam.imag >= -tol]
    return np.sort_complex(sel)


def cell_ball_integral(kernel, rc: float) -> complex:
    """4 pi int_0^rc rho^2 kernel(rho) d rho by adaptive quadrature on real
    and imaginary parts separately."""
    re, _ = scipy.integrate.quad(
        lambda rho: (4.0 * np.pi * rho ** 2 * kernel(rho)).real, 0.0, rc,
        limit=200)
    im, _ = scipy.integrate.quad(
        lambda rho: (4.0 * np.pi * rho ** 2 * kernel(rho)).imag, 0.0, rc,
        limit=200)
    return complex(re, im)


def cauchy_r0_kernel_derivative(j: int, lam0: float, r,
                                n: int = 128) -> np.ndarray:
    """j-th z-derivative of the R0 kernel exp(i sqrt(z) r)/(4 pi r) at
    z = lam0 + i0, as the Cauchy integral j!/(2 pi i) oint f(z)/(z-lam0)^{j+1}
    dz over |z - lam0| = lam0/2 (trapezoidal rule, n nodes).  The circle stays
    in Re z > 0, where numpy's principal complex sqrt continues +sqrt(lam0)."""
    r = np.asarray(r, dtype=float)
    rho = lam0 / 2.0
    theta = 2.0 * np.pi * np.arange(n) / n
    z = lam0 + rho * np.exp(1j * theta)
    f = np.exp(1j * np.sqrt(z)[:, None] * r[None, :]) / (4.0 * np.pi * r)
    # dz / (z - lam0)^{j+1} = i e^{-i j theta} d theta / rho^j
    acc = np.sum(f * np.exp(-1j * j * theta)[:, None], axis=0)
    return math.factorial(j) * acc / (n * rho ** j)


def boundary_pairing_double_sum(grid, V, lam: float, u, v) -> complex:
    """Double quadrature sum of e^{i sqrt(lam)|x-y|} (w V u)(x) (w V v)(y)
    written as an explicit loop over node pairs."""
    x = grid.nodes
    w = grid.weights
    fu = w * V * u
    fv = w * V * v
    acc = 0.0 + 0.0j
    for i in range(grid.n):
        r = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        acc += fu[i] * np.sum(np.exp(1j * np.sqrt(lam) * r) * fv)
    return complex(acc)


def central_derivative(f, x0: float, h: float = 1e-5, order: int = 1):
    """Richardson-improved central finite differences for real-parameter
    derivatives of matrix/scalar functions."""
    def d1(h):
        return (f(x0 + h) - f(x0 - h)) / (2.0 * h)

    def d2(h):
        return (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / h ** 2

    d = d1 if order == 1 else d2
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def richardson(values, ratio: float):
    """One Richardson step on a sequence whose error shrinks by `ratio` per
    term: returns the accelerated sequence."""
    v = list(values)
    return [(ratio * v[i + 1] - v[i]) / (ratio - 1.0)
            for i in range(len(v) - 1)]


def polynomial_matmul(a_coeffs: dict, b_coeffs: dict, cap: int) -> dict:
    """Truncated product of two matrix polynomials given as {order: matrix},
    computed by the plain double loop."""
    out = {}
    for i, A in a_coeffs.items():
        for j, B in b_coeffs.items():
            if i + j > cap:
                continue
            out[i + j] = out.get(i + j, 0) + A @ B
    return out


def leibniz_det_series(coeffs: dict, cap: int) -> dict:
    """Determinant of a matrix series {order: m x m matrix} truncated at
    `cap`, by the Leibniz expansion over all m! permutations: each product of
    scalar entry series is multiplied out and truncated order by order."""
    m = next(iter(coeffs.values())).shape[0]
    out = {}
    for perm in itertools.permutations(range(m)):
        # sign from the cycle decomposition: each even-length cycle flips it
        sign, seen = 1, [False] * m
        for i in range(m):
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                clen += 1
            if clen and clen % 2 == 0:
                sign = -sign
        prod = {0: 1.0}
        for i in range(m):
            nxt = {}
            for j1, v in prod.items():
                for j2, C in coeffs.items():
                    if j1 + j2 <= cap and C[i, perm[i]] != 0:
                        nxt[j1 + j2] = nxt.get(j1 + j2, 0.0) + v * C[i, perm[i]]
            prod = nxt
        for j, v in prod.items():
            out[j] = out.get(j, 0.0) + sign * v
    return out


def full_eig_marked_eigenvalue(grid, G0, V) -> complex:
    """Marked eigenvalue of G0 V nearest -1 from one dense eigendecomposition
    of the whole n x n matrix: the eigenvectors whose integral marker
    sum w V x exceeds 5% of the largest count as marked."""
    ev, vec = sla.eig(G0 * V[None, :])
    mk = np.abs((grid.weights * V) @ vec)
    evm = ev[mk > 0.05 * mk.max()]
    return complex(evm[np.argmin(np.abs(evm + 1.0))])


def full_eig_third_kind_alpha(grid, G0, potential_of) -> complex:
    """Third-kind shape parameter alpha tuned with full n x n eigen-solves:
    the same 9 x 4 coarse scan and root(hybr) as the library, with no parity
    reduction.  potential_of(alpha) gives the dipole source potential."""
    def mu(alpha):
        return full_eig_marked_eigenvalue(grid, G0, potential_of(alpha))

    best = None
    for ar in np.linspace(-4.0, 4.0, 9):
        for ai in (-1.5, -0.5, 0.5, 1.5):
            r = abs(mu(ar + 1j * ai) + 1.0)
            if best is None or r < best[0]:
                best = (r, ar + 1j * ai)

    def residual(x):
        m = mu(x[0] + 1j * x[1])
        return [m.real + 1.0, m.imag]

    sol = root(residual, [best[1].real, best[1].imag], method="hybr", tol=1e-13)
    assert sol.success and np.linalg.norm(sol.fun) <= 1e-9
    return complex(sol.x[0], sol.x[1])



def sla_solve_jump(disc, lam: float) -> np.ndarray:
    """Boundary jump R(lam + i0) - R(lam - i0) by two `scipy.linalg.solve`
    calls on Id + R0 V, with R0(lam - i0) the entrywise conjugate of one
    R0(lam + i0) assembly."""
    r0 = disc.r0(BranchPoint.boundary(lam, "+"))
    eye = np.eye(r0.shape[0])
    plus = sla.solve(eye + r0 * disc.V[None, :], r0)
    minus = sla.solve(eye + np.conj(r0) * disc.V[None, :], np.conj(r0))
    return plus - minus


def filon_moment_series(th: float, p: int) -> complex:
    """int_{-1}^{1} xi^p e^{-i th xi} d xi as the power series
    sum_k (-i th)^k / k! * int xi^(p+k), summed term by term until the
    terms fall below 1e-30."""
    acc, term, k = 0.0 + 0.0j, 1.0 + 0.0j, 0
    while True:
        if (p + k) % 2 == 0:
            acc += term * 2.0 / (p + k + 1)
        k += 1
        term *= -1j * th / k
        if abs(term) < 1e-30:
            return acc


def filon_moment_quad(th: float, p: int) -> complex:
    """int_{-1}^{1} xi^p e^{-i th xi} d xi from scipy's cosine and sine
    weighted quadrature (QAWO)."""
    re, _ = scipy.integrate.quad(lambda x: x ** p, -1.0, 1.0, weight="cos",
                                 wvar=th, epsabs=1e-15, epsrel=1e-15)
    im, _ = scipy.integrate.quad(lambda x: x ** p, -1.0, 1.0, weight="sin",
                                 wvar=th, epsabs=1e-15, epsrel=1e-15)
    return complex(re, -im)


def filon_panel_walk(edges, jump, ts) -> np.ndarray:
    """int e^{-it lam} jump(lam) dlam over the panels [edges[p], edges[p+1]]
    for each t, panel by panel: jump interpolated quadratically at both ends
    and the midpoint, times the exact moments of e^{-it lam} (term-by-term
    series for |th| <= 1, closed forms above)."""
    def moments(th):
        if abs(th) <= 1.0:
            return [filon_moment_series(th, p) for p in range(3)]
        s, c = np.sin(th), np.cos(th)
        return [2.0 * s / th, 2.0j * (th * c - s) / th ** 2,
                2.0 * ((th ** 2 - 2.0) * s + 2.0 * th * c) / th ** 3]

    acc = [0.0] * len(ts)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, h = (a + b) / 2.0, b - a
        fa, fm, fb = jump(a), jump(mid), jump(b)
        for i, t in enumerate(ts):
            M0, M1, M2 = moments(t * h / 2.0)
            acc[i] = acc[i] + (h / 2.0) * np.exp(-1j * t * mid) * (
                M0 * fm + M1 * (fb - fa) / 2.0
                + M2 * (fa - 2.0 * fm + fb) / 2.0)
    return np.array(acc)
