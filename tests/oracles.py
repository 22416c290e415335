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
import warnings

import numpy as np
import scipy.integrate
import scipy.linalg as sla
from scipy.linalg.lapack import ztrsen, ztrsyl
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


def cell_r0_series(sqrt_z: complex, rc: float, terms: int = 40) -> complex:
    """int_0^rc rho e^{i a rho} d rho (a = sqrt_z) as the power series
    rc^2 sum_n x^n / (n! (n + 2)), x = i a rc, over its first `terms` terms,
    real and imaginary parts summed exactly-rounded by math.fsum."""
    x = 1j * sqrt_z * rc
    ts = [x ** n / (math.factorial(n) * (n + 2)) for n in range(terms)]
    return rc ** 2 * complex(math.fsum(t.real for t in ts),
                             math.fsum(t.imag for t in ts))


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


def outgoing_phase(grid, lam: float) -> np.ndarray:
    """e^{i sqrt(lam) |x_i - x_j|}: one exponential per distinct distance,
    gathered, with e^0 = 1 on the diagonal."""
    values, index = grid.distance_classes
    E = np.exp(1j * np.sqrt(lam) * values).take(index)
    np.fill_diagonal(E, 1.0)
    return E


def b_form(disc, lam: float, u, v) -> complex:
    """B_lambda(u, v) = double integral of e^{i sqrt(lam)|x-y|} u V (x)
    v V (y) over the support, by the double quadrature sum through
    `outgoing_phase`."""
    fu = disc.w * disc.V * u
    fv = disc.w * disc.V * v
    return complex(fu @ outgoing_phase(disc.grid, lam) @ fv)


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


def dense_third_kind_potential(grid, G0, alpha) -> np.ndarray:
    """The third-kind dipole source potential on the n x n G0: g = x_1 (e^-q
    (1 + 0.2 i e^{-q/2}) + alpha q e^{-1.3 q}), q = |x|^2, on the ball,
    psi = -G0 g and V = g / psi where g != 0 (x_1 within 1e-12 extent of 0
    counts as 0)."""
    x1 = grid.nodes[:, 0]
    x1 = np.where(np.abs(x1) <= 1e-12 * grid.extent, 0.0, x1)
    q = grid.radii() ** 2
    g = ((np.exp(-q) * (1.0 + 0.2j * np.exp(-0.5 * q))
          + alpha * q * np.exp(-1.3 * q)) * x1
         * (grid.radii() <= grid.extent + 1e-12))
    psi = -G0 @ g
    return np.divide(g, psi, out=np.zeros_like(g), where=g != 0)


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
    the same 9 x 4 coarse scan and root(hybr) as the library, with no symmetry
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


def brute_force_node_map(grid, perm, signs):
    """Node map of the signed permutation x -> signs * x[perm] from the full
    table of distances between every image and every node: each image's
    nearest node, kept when the map is a permutation, every image lies
    within 1e-12 extent of its node and every weight matches within 1e-14
    relative; None otherwise."""
    img = grid.nodes[:, perm] * np.asarray(signs, dtype=float)
    dist = np.linalg.norm(img[:, None, :] - grid.nodes[None, :, :], axis=2)
    m = dist.argmin(axis=1)
    w = grid.weights
    if (len(set(m.tolist())) == grid.n
            and dist[np.arange(grid.n), m].max() <= 1e-12 * grid.extent
            and np.all(np.abs(w[m] - w) <= 1e-14 * w)):
        return m
    return None


def dense_tune_coupling(grid, template, target: str, lam0=None) -> complex:
    """gamma* = -1 / mu, mu the eigenvalue of largest modulus of the dense
    n x n G0 diag(W) (threshold) or R0+(lam0) diag(W) (positive), from
    `scipy.linalg.eigvals` of the whole matrix."""
    from specthresh.kernels import assemble_gj, assemble_r0
    kernel = (assemble_gj(grid, 0) if target == "threshold_zero" else
              assemble_r0(grid, BranchPoint.boundary(lam0, "+")))
    mu = sla.eigvals(kernel * np.asarray(template)[None, :])
    return complex(-1.0 / mu[np.argmax(np.abs(mu))])


def masked_nystrom(grid, kernel, diag, dist) -> np.ndarray:
    """Nystrom matrix kernel(|x_i - x_j|) w_j with `diag` on the diagonal,
    the kernel evaluated on the gathered off-diagonal distances only and
    scattered back through a boolean mask."""
    off = ~np.eye(grid.n, dtype=bool)
    K = np.zeros((grid.n, grid.n), dtype=complex)
    K[off] = kernel(dist[off])
    K *= grid.weights[None, :]
    np.fill_diagonal(K, diag)
    return K


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
    weighted quadrature (QAWO).  The 1e-15 tolerances sit at roundoff, so
    QUADPACK's roundoff notice is silenced; callers check the values."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        re, _ = scipy.integrate.quad(lambda x: x ** p, -1.0, 1.0,
                                     weight="cos", wvar=th, epsabs=1e-15,
                                     epsrel=1e-15)
        im, _ = scipy.integrate.quad(lambda x: x ** p, -1.0, 1.0,
                                     weight="sin", wvar=th, epsabs=1e-15,
                                     epsrel=1e-15)
    return complex(re, -im)


def filon_moments(th: float) -> list:
    """int_{-1}^{1} xi^p e^{-i th xi} d xi for p = 0, 1, 2: the term-by-term
    series for |th| <= 1, where the closed forms lose digits to
    cancellation, and the closed forms above."""
    if abs(th) <= 1.0:
        return [filon_moment_series(th, p) for p in range(3)]
    s, c = np.sin(th), np.cos(th)
    return [2.0 * s / th, 2.0j * (th * c - s) / th ** 2,
            2.0 * ((th ** 2 - 2.0) * s + 2.0 * th * c) / th ** 3]


def filon_panel_walk(edges, jump, ts) -> np.ndarray:
    """int e^{-it lam} jump(lam) dlam over the panels [edges[p], edges[p+1]]
    for each t, panel by panel: jump interpolated quadratically at both ends
    and the midpoint, times the exact moments of e^{-it lam}
    (`filon_moments`)."""
    acc = [0.0] * len(ts)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, h = (a + b) / 2.0, b - a
        fa, fm, fb = jump(a), jump(mid), jump(b)
        for i, t in enumerate(ts):
            M0, M1, M2 = filon_moments(t * h / 2.0)
            acc[i] = acc[i] + (h / 2.0) * np.exp(-1j * t * mid) * (
                M0 * fm + M1 * (fb - fa) / 2.0
                + M2 * (fa - 2.0 * fm + fb) / 2.0)
    return np.array(acc)


def projected_grushin_series(m_coeffs: dict, S: np.ndarray, T: np.ndarray,
                             cap: int) -> dict:
    """The Grushin series E, E_+, E_- and E_-+ of M(u) = sum_j M_j u^j
    (T S = Id) by the projected route: E_0 = Pi' (Pi' M_0 Pi' + Pi)^{-1} Pi'
    with Pi = S T and Pi' = Id - Pi, E_j = -E_0 sum_{r>=1} M_r E_{j-r}, then
    the corner products E_+ = S - E M S, E_- = T - T M E and
    E_-+ = -T M S + T M E M S, each truncated at `cap`."""
    P = S @ T
    Pp = np.eye(len(P)) - P
    E0 = Pp @ sla.solve(Pp @ m_coeffs[0] @ Pp + P, Pp)
    E = {0: E0}
    for j in range(1, cap + 1):
        E[j] = -E0 @ sum(m_coeffs[r] @ E[j - r] for r in range(1, j + 1))
    MS = {j: M @ S for j, M in m_coeffs.items()}
    TM = {j: T @ M for j, M in m_coeffs.items()}
    EMS = polynomial_matmul(E, MS, cap)
    TME = polynomial_matmul(TM, E, cap)
    TMEMS = polynomial_matmul(TME, MS, cap)
    return {"E": E,
            "E_plus": {j: (S if j == 0 else 0.0) - EMS[j] for j in EMS},
            "E_minus": {j: (T if j == 0 else 0.0) - TME[j] for j in TME},
            "E_minus_plus": {j: -T @ MS[j] + TMEMS[j] for j in TMEMS}}


def branch_cut_walk(disc, coeffs, eigenvalues, ts, delta0: float = 0.04,
                    lam_max: float = 40.0, n_panels: int = 380,
                    tail_terms: int = 4) -> dict:
    """{t: U(t)} by the contour collapsed onto the branch cut:

        U(t) = (1/2 pi i) [oint_{|z| = rho, clockwise} e^{-itz} R dz
                           + int_rho^Lam e^{-it lam} J dlam + tail]
               + residue rings of the eigenvalues off the cut,

    with J = R(lam + i0) - R(lam - i0) from `sla_solve_jump`.  The circle
    (rho = min(delta0, 1/t)) and the band [rho, delta0] use the threshold
    series sum_j R_j z^{j/2} of `coeffs`; [delta0, Lam] is the quadratic
    Filon rule of `filon_panel_walk` on a geometric mesh; beyond Lam the
    tail e^{-it Lam} sum_k k! J_k / (it)^{k+1} integrates by parts with the
    Taylor coefficients J_k of the jump at Lam.  Each eigenvalue z off the
    cut adds (1/2 pi i) oint_{clockwise} e^{-itz'} R(z') dz' on a 24-node
    ring of radius max(|Im z| / 3, 1e-3) in the z-plane.  The walk is first
    order in the mesh: about 2.5e-4 relative at t >= 20 on the reference
    models."""
    from specthresh.propagator import resolvent_taylor
    ts = np.asarray(ts, dtype=float)
    edges = np.geomspace(delta0, lam_max, n_panels + 1)
    memo = {}

    def jump(lam):
        if lam not in memo:
            memo[lam] = sla_solve_jump(disc, lam)
        return memo[lam]

    bands = filon_panel_walk(edges, jump, ts)
    memo.clear()
    Tp, Tm = ([disc.sectors.expand(T) for T in
               resolvent_taylor(disc, lam_max, tail_terms, side=side)]
              for side in "+-")
    series = {j: disc.sectors.expand(c)
              for j, c in coeffs.series.coeffs.items()}
    rings = []
    for zs in eigenvalues:
        rad = max(abs(zs.imag) / 3.0, 1e-3)
        for e in np.exp(2j * np.pi * (np.arange(24) + 0.5) / 24):
            zq = zs + rad * e
            rings.append((zq, -rad * e / 24, disc.R(BranchPoint.from_z(zq))))
    out = {}
    for t, band in zip(ts, bands):
        rho = min(delta0, 1.0 / t)
        th = 2.0 * np.pi - 2.0 * np.pi * (np.arange(64) + 0.5) / 64
        z = rho * np.exp(1j * th)
        wq = np.exp(-1j * t * z) * (1j * z * (-2.0 * np.pi / 64))
        U = sum(np.sum(wq * (np.sqrt(rho) * np.exp(1j * th / 2.0)) ** j) * c
                for j, c in series.items())
        x, w = np.polynomial.legendre.leggauss(400)
        lam = (rho + delta0) / 2.0 + (delta0 - rho) / 2.0 * x
        ww = (delta0 - rho) / 2.0 * w * np.exp(-1j * t * lam)
        U = U + sum(2.0 * np.sum(ww * lam ** (j / 2.0)) * c
                    for j, c in series.items() if j % 2)
        U = U + band
        U = U + np.exp(-1j * t * lam_max) * sum(
            math.factorial(k) * (tp - tm) / (1j * t) ** (k + 1)
            for k, (tp, tm) in enumerate(zip(Tp, Tm)))
        U = U / (2.0j * np.pi)
        for zq, wq, Rq in rings:
            U = U + np.exp(-1j * t * zq) * wq * Rq
        out[float(t)] = U
    return out


def rotated_line(disc, t: float, angle: float, n: int = 40) -> np.ndarray:
    """(1/2 pi i) PV int 2k e^{-itk^2} R(k) dk along the line
    k = s e^{-i angle} (0 < angle < pi/2), folded onto the half-ray: with
    d = e^{-i angle}, F(s) = R(sd) - R(-sd) (the 1/k^2 pole cancels),
    u = s^2 and v = tau u, tau = t sin(2 angle), it is
    (d^2 / tau) int_0^infty e^{-v} e^{-iv cot(2 angle)} F(sqrt(v / tau)) dv.
    F(s) ~ s^{-1} at 0, so the rule is generalized Gauss-Laguerre with
    alpha = -1/2 on sqrt(v) F."""
    d = np.exp(-1j * angle)
    tau = t * np.sin(2.0 * angle)
    v, w = roots_genlaguerre(n, -0.5)
    acc = 0.0
    for vm, wm in zip(v, w):
        s = np.sqrt(vm / tau)
        F = (disc.R(BranchPoint(z=(s * d) ** 2, sqrt_z=s * d))
             - disc.R(BranchPoint(z=(s * d) ** 2, sqrt_z=-s * d)))
        acc = acc + wm * np.exp(-1j * vm / np.tan(2.0 * angle)) \
            * np.sqrt(vm) * F
    return d * d / tau * acc / (2.0j * np.pi)


def dense_resolvent(disc, bp) -> np.ndarray:
    """(Id + R0 V)^{-1} R0 by `scipy.linalg.solve` on the dense n x n
    matrix, with no use of the grid's symmetry."""
    r0 = disc.r0(bp)
    return sla.solve(np.eye(disc.grid.n) + r0 * disc.V[None, :], r0)


def dense_perron_matrix(disc, y: float) -> np.ndarray:
    """F(y) = |R0(iy)| |V| as the n x n Nystrom matrix (`_nystrom`, with
    no use of the grid's symmetry), the entrywise moduli taken after the
    assembly."""
    from specthresh.kernels import _nystrom, r0_rule
    R0 = _nystrom(disc.grid, r0_rule(BranchPoint(z=-y * y, sqrt_z=1j * y)))
    return np.abs(R0) * np.abs(disc.V)[None, :]


def dense_perron_radius(disc, y: float) -> float:
    """rho(F(y)) from all n eigenvalues of the dense `dense_perron_matrix`."""
    return float(np.max(np.abs(np.linalg.eigvals(dense_perron_matrix(
        disc, y)))))


def dense_contour_zeros(disc, center: complex, ax: float, ay: float,
                        n_nodes: int, probes: int = 16):
    """(zeros, count) of M(k) = Id + R0(k^2) V inside the ellipse
    center + ax cos th + i ay sin th, from dense n x n solves only: the
    winding count of det M from `numpy.linalg.slogdet` at each trapezoidal
    node, and Beyn's pencil from the moments of M^{-1} P for a probe block
    P (its own generator), truncated at the count.  No acceptance test."""
    n = disc.grid.n
    rng = np.random.default_rng(7)
    P = (rng.standard_normal((n, probes))
         + 1j * rng.standard_normal((n, probes)))
    th = 2.0 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    dk = ax * np.cos(th) + 1j * ay * np.sin(th)
    wq = (-ax * np.sin(th) + 1j * ay * np.cos(th)) / (1j * n_nodes)
    A0 = np.zeros((n, probes), dtype=complex)
    A1 = np.zeros((n, probes), dtype=complex)
    phase = np.empty(n_nodes)
    for q in range(n_nodes):
        k = center + dk[q]
        M = disc.M(BranchPoint(z=k * k, sqrt_z=k))
        X = np.linalg.solve(M, P)
        A0 += wq[q] * X
        A1 += wq[q] * dk[q] * X
        phase[q] = np.angle(np.linalg.slogdet(M)[0])
    steps = np.angle(np.exp(1j * np.diff(phase, append=phase[0])))
    count = int(round(steps.sum() / (2.0 * np.pi)))
    if count == 0:
        return [], 0
    U, s, Wh = np.linalg.svd(A0, full_matrices=False)
    B = (U[:, :count].conj().T @ A1 @ Wh[:count].conj().T) / s[:count]
    return sorted(center + np.linalg.eigvals(B), key=lambda k: (k.real,
                                                               k.imag)), count


def sector_contour_reference(disc, center: complex, ax: float, ay: float,
                             n_nodes: int, count_only: bool = False,
                             probes: int = 16):
    """(zeros, count, per-class windings) of Beyn's method on the class
    representatives' sector blocks of M(k) = Id + R0(k^2) V inside the
    ellipse center + ax cos th + i ay sin th, one node at a time: the blocks
    of the n x n M (`group.blocks(disc.M(bp))`), `numpy.linalg.slogdet`
    and `numpy.linalg.solve` on each representative's block, the moments
    summed node by node.  The probe block (the library's generator, drawn
    in the lexicographic order of the node coordinates), the trapezoidal
    nodes and the weighted count are the library contour's; the pencil is
    truncated at the winding total.  Nothing of the
    library's batched gather or its checked LU loop runs here.  No
    acceptance test."""
    n, group = disc.grid.n, disc.sectors
    reps, sizes = np.unique(group.sector_classes, return_counts=True)
    rng = np.random.default_rng(0)
    P = np.empty((n, probes), dtype=complex)
    P[np.lexsort(disc.grid.nodes.T[::-1])] = (
        rng.standard_normal((n, probes))
        + 1j * rng.standard_normal((n, probes)))
    Ps = group.to_sectors(P)
    th = 2.0 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    dk = ax * np.cos(th) + 1j * ay * np.sin(th)
    wq = (-ax * np.sin(th) + 1j * ay * np.cos(th)) / (1j * n_nodes)
    rows = sum(len(Ps[r]) for r in reps)
    A0 = np.zeros((rows, probes), dtype=complex)
    A1 = np.zeros((rows, probes), dtype=complex)
    phase = np.empty((n_nodes, len(reps)))
    for q in range(n_nodes):
        k = center + dk[q]
        blocks = group.split(group.blocks(disc.M(BranchPoint(z=k * k,
                                                             sqrt_z=k))))
        X = []
        for j, r in enumerate(reps):
            phase[q, j] = np.angle(np.linalg.slogdet(blocks[r])[0])
            if not count_only:
                X.append(np.linalg.solve(blocks[r], Ps[r]))
        if not count_only:
            X = np.concatenate(X)
            A0 += wq[q] * X
            A1 += wq[q] * dk[q] * X
    steps = np.angle(np.exp(1j * np.diff(phase, axis=0, append=phase[:1])))
    winding = np.rint(steps.sum(axis=0) / (2.0 * np.pi)).astype(int)
    count = int(np.dot(sizes, winding))
    total = int(winding.sum())
    if count_only or total == 0:
        return [], count, winding
    U, s, Wh = np.linalg.svd(A0, full_matrices=False)
    B = (U[:, :total].conj().T @ A1 @ Wh[:total].conj().T) / s[:total]
    return sorted(center + np.linalg.eigvals(B),
                  key=lambda k: (k.real, k.imag)), count, winding


def dense_resolvent_taylor(disc, lam: float, order: int, side: str = "+"):
    """Taylor coefficients T_p of mu -> R(lam + mu, side) as n x n matrices,
    by the recursion T_p = M_0^{-1} (B_p - sum_{r=1..p} B_r V T_{p-r}) with
    B_p = G_p^+ / p! (entrywise conjugate on the -i0 side) and one dense
    `scipy.linalg.lu_factor` of M_0 = Id + B_0 V, with no use of the grid's
    symmetry and no conditioning check."""
    B = []
    for p in range(order + 1):
        Gp = disc.gj_plus(p, lam) / math.factorial(p)
        B.append(Gp if side == "+" else np.conj(Gp))
    V = disc.V[None, :]
    lu = sla.lu_factor(np.eye(disc.grid.n) + B[0] * V)
    T = []
    for p in range(order + 1):
        rhs = B[p] - sum((B[r] * V) @ T[p - r] for r in range(1, p + 1))
        T.append(sla.lu_solve(lu, rhs))
    return T


def dense_weighted_norm(A, grid, s_in: float, s_out: float) -> float:
    """||<x>^{s_out} A <x>^{-s_in}|| in the w-weighted l^2 of the nodes: the
    largest singular value of the n x n matrix
    diag(sqrt(w) <x>^{s_out}) A diag(1 / (sqrt(w) <x>^{s_in}))."""
    br = np.sqrt(1.0 + np.sum(grid.nodes ** 2, axis=1))
    d_out = np.sqrt(grid.weights) * br ** s_out
    d_in = np.sqrt(grid.weights) * br ** s_in
    return float(sla.svdvals(d_out[:, None] * A / d_in[None, :])[0])


def dense_detect_minus_one(K, tol: float):
    """(cluster eigenvalues sorted by distance to -1, gap, geometric
    multiplicity, null-space basis) of the dense n x n K: the eigenvalues
    within tol of -1 from `scipy.linalg.eigvals`, the gap to the rest, and
    the null space of Id + K from its SVD against
    max(tol, 1e5 eps sigma_max)."""
    evals = sla.eigvals(K)
    d = np.abs(evals + 1.0)
    cluster = evals[d <= tol][np.argsort(d[d <= tol])]
    gap = float(d[d > tol].min())
    _, s, Vh = sla.svd(np.eye(len(K)) + K)
    k = int((s < max(tol, 1e5 * np.finfo(float).eps * s[0])).sum())
    return cluster, gap, k, Vh[len(s) - k:].conj().T


def schur_spectral_projector(T: np.ndarray, Q: np.ndarray,
                             select) -> np.ndarray:
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


def dense_riesz_projection(K, eps: float):
    """(projector, rank) onto the eigenvalues of the dense n x n K inside
    |w + 1| = eps, from one complex Schur form of all of K
    (`schur_spectral_projector`)."""
    T, Q = sla.schur(K, output="complex")
    select = np.abs(np.diag(T) + 1.0) < eps
    return schur_spectral_projector(T, Q, select), int(select.sum())


def projector_range(P, rank_tol: float = 1e-8) -> np.ndarray:
    """An orthonormal basis of the range of P: its left singular vectors
    with singular value above rank_tol max(1, sigma_max)."""
    U, s, _ = sla.svd(P)
    return U[:, :int((s > rank_tol * max(1.0, s[0])).sum())]


def _anchor_point(point, z):
    """The branch point of z at a threshold anchor ("threshold"), or of the
    offset z from a resonance anchor lam0 (a boundary value from above on
    the real axis)."""
    if point == "threshold":
        return BranchPoint.from_z(z, side="+" if np.real(z) > 0
                                  and np.imag(z) == 0 else None)
    zz = complex(point) + complex(z)
    if zz.imag == 0.0:
        return BranchPoint.boundary(zz.real, "+")
    return BranchPoint.from_z(zz)


def dense_grushin_expansion(disc, point, tol: float,
                            marked: bool = False) -> dict:
    """The resolvent expansion at an anchor by the full-size route, with no
    use of the grid's symmetry.  K (K0, or K+(lam0) for point = lam0), the
    -1 detection (`dense_detect_minus_one`) and the Riesz projector
    (`dense_riesz_projection`) are n x n; the Jordan chains come from the
    SVD range basis B of P and the matrix B^H (B + K B) of Id + K on it
    (the library's staircase with the one-block group of the identity;
    `marked` as for `build_jordan_chains`); the bordered series
    [[M(u), S], [T, 0]] is inverted at size (n + m) by the plain inverse
    recursion; q is the smallest order whose Laurent inverse of E_-+
    matches dense solves of the bordered matrix at -q_test, -q_test / 4 and
    i q_test to 1e-5; and R = (E - E_+ F E_-) R0 through the anchor's
    truncation order.  Returns
    q, the coefficients "R" {order: n x n}, the series "Emp" of E_-+, the
    chain basis, and "E_at" / "Emp_at": z -> the dense blocks of the
    bordered inverse."""
    from specthresh.jordan import build_jordan_chains
    from specthresh.series import ExpansionSeries
    from specthresh.symmetry import ReflectionGroup
    n = disc.grid.n
    if point == "threshold":
        var, cap, L, zt = "sqrt_z", 8, 3, 1e-3
        K = disc.K0
        r0 = {j: (1j ** j) * disc.gj(j) for j in range(cap + 1)}
    else:
        var, cap, L, zt = "z_minus_lambda0", 6, 2, 1e-4
        K = disc.K(BranchPoint.boundary(point, "+"))
        r0 = {j: disc.gj_plus(j, point) / math.factorial(j)
              for j in range(cap + 1)}
    cluster, gap, _, _ = dense_detect_minus_one(K, tol)
    P, rank = dense_riesz_projection(K, min(gap / 2.5, 0.5))
    assert rank == len(cluster)
    tau = disc.w * disc.V
    one = ReflectionGroup({0: np.arange(n)})
    B = projector_range(P)
    basis = build_jordan_chains([(B, B.conj().T @ (B + K @ B))], tau, one,
                                marked=marked)
    S = basis.flat_chain()
    T = (basis.flat_dual() * tau[:, None]).T
    m = S.shape[1]

    def bordered(M):
        B = np.zeros((n + m, n + m), dtype=complex)
        B[:n, :n], B[:n, n:], B[n:, :n] = M, S, T
        return B

    # the inverse series D of the bordered P(u), order by order at full
    # size: D_0 = P_0^{-1}, D_j = -D_0 sum_{r=1..j} [[M_r, 0], [0, 0]] D_{j-r}
    D0 = np.linalg.inv(bordered(r0[0] * disc.V[None, :] + np.eye(n)))
    D = {0: D0}
    for j in range(1, cap + 1):
        acc = np.zeros_like(D0)
        for r in range(1, j + 1):
            acc[:n] += (r0[r] * disc.V[None, :]) @ D[j - r][:n]
        D[j] = -D0 @ acc

    def part(rows, cols):
        return ExpansionSeries(var, {j: c[rows, cols] for j, c in D.items()},
                               cap)

    top, bottom = slice(None, n), slice(n, None)
    Emp = part(bottom, bottom)

    def at(z, rows):
        bp = _anchor_point(point, z)
        B = bordered(disc.M(bp))
        return sla.solve(B, np.eye(n + m)[:, rows])[rows]

    def var_of(z):
        bp = _anchor_point(point, z)
        return bp.sqrt_z if point == "threshold" else bp.z - point

    for q in range(min(cap, 5)):
        F = Emp.laurent_inverse(q)
        errs = []
        for z in (-zt, -zt / 4.0, 1j * zt):
            direct = np.linalg.inv(at(z, bottom))
            errs.append(np.linalg.norm(F.eval(var_of(z)) - direct)
                        / np.linalg.norm(direct))
        if max(errs) <= 1e-5:
            break
    else:
        raise AssertionError("no Laurent order reproduces E_-+^{-1}")
    Minv = part(top, top) - (part(top, bottom) @ F) @ part(bottom, top)
    R = Minv.truncated(L) @ ExpansionSeries(var, r0, cap).truncated(L + q)
    return {"q": q, "R": {j: R.coeff(j) for j in range(-q, L + 1)},
            "Emp": Emp, "basis": basis,
            "E_at": lambda z: at(z, top), "Emp_at": lambda z: at(z, bottom)}


def two_row_census(cp, t_min: float):
    """The census of the propagator `cp` at t_min tiled in two rows per
    column, each row verified on its own (`_full_rule_tiles`, whose seam
    rule no row meets): the census row from the weight cut up to
    Im k = 0.05 and the band row from there up to the pole ellipse.
    Returns the crossed zeros as (k, Frobenius norm of the residue at
    t_min), the left-out zeros and the contour nodes factored."""
    from specthresh import propagator as prop
    rows = []
    for x0, x1, y0, y1 in prop._census_rects(t_min):
        rows += [(x0, x1, y0, 0.05), (x0, x1, 0.05, y1)]
    zeros, stats = _full_rule_tiles(cp.disc, rows)
    return _crossings(cp, zeros, t_min) + (stats["nodes"],)


def full_rule_census(cp, t_min: float):
    """The census of the propagator `cp` at t_min with every tile decided on
    all its nodes (`_full_rule_tiles` on one tile per column).  Returns the
    crossed zeros as (k, Frobenius norm of the residue at t_min), the
    left-out zeros and the counts of verified tiles, contour nodes and
    failed tiles."""
    from specthresh import propagator as prop
    zeros, stats = _full_rule_tiles(cp.disc, prop._census_rects(t_min))
    return _crossings(cp, zeros, t_min) + (stats,)


def _full_rule_tiles(disc, rects):
    """Distinct zeros of M(k) in the tiles over `rects`, and the counts of
    verified tiles, contour nodes and failed tiles: each tile one 64-node
    `_contour_zeros`; a failing tile that spans Im k = 0.05 split there,
    any other retried with 128 and 256 nodes and then split across its
    longer side, at most 4 times."""
    from specthresh import propagator as prop
    stack = [(rect, 0, 64) for rect in rects]
    zeros, stats = [], {"tiles": 0, "nodes": 0, "failed_tiles": 0}
    while stack:
        (x0, x1, y0, y1), splits, n = stack.pop()
        stats["nodes"] += n
        try:
            found, _ = prop._contour_zeros(
                disc, complex(x0 + x1, y0 + y1) / 2.0,
                (x1 - x0) / math.sqrt(2.0), (y1 - y0) / math.sqrt(2.0), n)
        except ValueError:
            stats["failed_tiles"] += 1
            if y0 < 0.05 < y1:
                stack += [((x0, x1, y0, 0.05), splits, 64),
                          ((x0, x1, 0.05, y1), splits, 64)]
                continue
            if n < 256:
                stack.append(((x0, x1, y0, y1), splits, 2 * n))
                continue
            assert splits < 4, "tile failed after 4 splits"
            wide = x1 - x0 >= y1 - y0
            a, b = (x0, x1) if wide else (y0, y1)
            for lo, hi in ((a, a + 0.6 * (b - a)), (b - 0.6 * (b - a), b)):
                part = (lo, hi, y0, y1) if wide else (x0, x1, lo, hi)
                stack.append((part, splits + 1, 64))
            continue
        stats["tiles"] += 1
        zeros += [k for k, _ in found
                  if all(abs(k - k0) > 1e-4 * abs(k) for k0 in zeros)]
    return zeros, stats


def _crossings(cp, zeros, t_min: float):
    """(crossed zeros as (k, Frobenius norm of the residue at t_min),
    left-out zeros) of a census of `zeros`: a zero is crossed when it lies
    in -pi/4 < arg k < 0 with weight e^{t_min Im k^2} at least 1e-7."""
    from specthresh import propagator as prop
    crossed, left_out = [], []
    for k in zeros:
        if -k.imag >= k.real or math.exp(t_min * (k * k).imag) < 1e-7:
            left_out.append(k)
            continue
        A1, A2 = cp._ring_moments(k, zeros)
        crossed.append((k, float(np.linalg.norm(
            prop._residue(k, A1, A2, t_min)))))
    return crossed, left_out
