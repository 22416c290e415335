"""
Time evolution from resolvents: the propagator e^{-itH} of the Nystrom
model, generalized oscillatory integrals, large-time decay verification, and
high-energy resolvent bounds.

The resolvent has a genuine branch cut on [0, infinity).  In k = sqrt z the
cut integral is an integral of the meromorphic R(k) = M(k)^{-1} R0(k) along
the real k-axis.  `CutPropagator` rotates it onto the steepest-descent line
k = s e^{-i pi/4}, where e^{-itk^2} = e^{-ts^2} (Gauss-Hermite), and adds
-R_{-2} for the indentation at k = 0 and the residues of the zeros of M(k)
the rotation crosses, found by a census of verified contour tiles;
eigenvalues off the cut come from the contour eigensolver, as residue rings,
where a Perron bound on |R0 V| does not certify that there are none.
`census_geometry` gives the k-plane curves one census searches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .birman_schwinger import (Discretization, _contour_moments,
                               _contour_verdict, _contour_zeros)
from .symmetry import SectorLU
from .model import weighted_sector_norm
from .grushin import ThresholdCoefficients
from .series import series_solve

__all__ = [
    "DecayReport", "generalized_integral", "free_propagator",
    "free_propagator_rule", "CutPropagator", "census_geometry",
    "verify_large_time", "check_high_energy", "resolvent_taylor",
]


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
    return complex(math.gamma(j / 2.0 + 1.0) * t ** b * np.exp(1j * np.pi * b / 2.0))


# ---------------------------------------------------------------------------
# resolvent Taylor data at a positive energy (both boundary sides)

def resolvent_taylor(disc: Discretization, lam: float, order: int,
                     side: str = "+") -> List[np.ndarray]:
    """Taylor coefficients T_p of mu -> R(lam + mu, side) about mu = 0, as
    flat sector blocks of `disc.sectors` (`ReflectionGroup.transform`;
    `expand(T_p)` gives the n x n matrix), built from the blocks of the
    analytic derivative kernels (`Discretization.gj_plus_sectors`; the -i0
    side uses the entrywise conjugate kernels, exact for real distances and
    energies, and so are its blocks): R =
    M^{-1} B with B_p = G_p^+ / p! and M = Id + B V, so one checked LU per
    class of equivalent blocks of M_0 (`SectorLU`) gives every
    T_p = M_0^{-1} (B_p - sum_{r=1..p} B_r V T_{p-r}) block by block
    (`series_solve`, `SectorLU.solve_flat`).  ValueError on a non-finite block; LinAlgError when
    M_0 is singular or ill-conditioned (rcond below machine epsilon)."""
    group = disc.sectors
    B = []
    for p in range(order + 1):
        Bp = disc.gj_plus_sectors(p, lam) / math.factorial(p)
        B.append(Bp if side == "+" else np.conj(Bp))
    lu = SectorLU.of_blocks(group, disc.m_blocks(B[0]))
    BV = {r: group.split(disc.times_v(B[r])) for r in range(1, order + 1)}
    # every B_p, and so every right-hand side of the recursion, commutes
    # with the permutations too: only the representatives' blocks are solved
    T = series_solve(lambda C: group.split(lu.solve_flat(group.join(C))),
                     BV, {p: group.split(Bp) for p, Bp in enumerate(B)},
                     order)
    return [group.join(X) for X in T]


# ---------------------------------------------------------------------------
# propagator of the grid resolvent on the steepest-descent k-line

# Gauss-Hermite nodes in s sqrt(t) on the line k = s e^{-i pi/4}, per time;
# the winding count of det M on |k| = _R0 must be the structural order
_LINE_X, _LINE_W = np.polynomial.hermite.hermgauss(32)
_R0 = 0.3
# census: residues where the weight e^{2 t_min Re k Im k} >= _WEIGHT_CUT, out
# to Re k = sqrt(40); _TILES columns of _TILE_NODES-node ellipses, split at
# Im k = _SEAM when they fail; rings of _RING_NODES nodes, radius <=
# _RING_MAX, ||A_{-3}|| <= _ORDER3_TOL (rho^2 ||A_{-1}|| + rho ||A_{-2}||)
_WEIGHT_CUT, _K_MAX, _TILES, _TILE_NODES, _TILE_SPLITS, _SEAM = \
    1e-7, math.sqrt(40.0), 8, 64, 4, 0.05
_RING_NODES, _RING_MAX, _ORDER3_TOL = 32, 0.05, 1e-6
# a census tile's verdict on the even half of its nodes stands when it is
# clear of each gate by the factor _CLEAR, its pencil eigenvalues within
# _CLEAR_RADIUS of the scaled radius; a closer call is decided again on
# twice the nodes (`_tile_attempt`)
_CLEAR, _CLEAR_RADIUS = 10.0, 0.9
# the pole scan's ellipse (centre, semi-axes): |Re k| <= 6, 0.15 <= Im k <= 1.8
# (0.975 - 0.825 rounds 2e-17 above 0.15); its nodes; and the height of its
# lowest point, where the Perron bound decides whether it runs
_POLE_ELLIPSE, _POLE_NODES, _POLE_FLOOR = (0.975j, 6.0, 0.825), 512, 0.15


def _residue(k: complex, A1: np.ndarray, A2: np.ndarray,
             t: float) -> np.ndarray:
    """Res_k [2k e^{-itk^2} R] from the ring moments A_{-1}, A_{-2}: t enters
    only through e^{-itk^2}, of modulus e^{t Im z} < 1 at a crossed zero or
    a decaying eigenvalue, so a large t cannot overflow."""
    e = np.exp(-1j * t * k * k)
    return (2.0 * k * e) * A1 + ((2.0 - 4j * t * k * k) * e) * A2


class CutPropagator:
    """e^{-itH} for a Nystrom model with threshold structure.  With k = sqrt z
    the cut integral is (1/2 pi i) int 2k e^{-itk^2} R(k) dk along the real
    k-axis, passing above k = 0, where R(k) = M(k)^{-1} R0(k) is
    meromorphic.  Rotated onto k = s e^{-i pi/4}, where e^{-itk^2} = e^{-ts^2}
    (Dyatlov & Zworski, Mathematical Theory of Scattering Resonances,
    ch. 2-3):

        U(t) = (1/2 pi i) PV int 2k e^{-itk^2} R(k) dk on the line
             - R_{-2}                          (the indentation at k = 0)
             - sum_j Res_{k_j} [2k e^{-itk^2} R(k)]

    over the eigenvalues off the cut (Im k_j > 0), searched in the pole
    scan's ellipse unless a Perron bound certifies that it holds none
    (`_scan_poles`), and the zeros k_j the rotation crosses: those in
    -pi/4 < arg k < 0 whose weight at the
    smallest time is at least _WEIGHT_CUT, found by one verified contour
    tile per column of Re k, from the weight cut up to the pole scan's
    ellipse (`_census_rects`; each tile decided on the even half of its
    nodes when that verdict is clear of its gates, on all of them
    otherwise, `_tile_attempt`; a failing tile is first split at
    Im k = _SEAM, `_tile_zeros`).  An eigenvalue in
    3 pi/4 < arg k < pi is crossed by the other half-line: the terms cancel.
    The line is Gauss-Hermite in s sqrt(t) on symmetric nodes (the principal
    value at k = 0), one weighted sum of R(k) over them.  Every M(k) the
    propagator factors (line, rings, census and pole contours) is
    factored once per class of equivalent parity-sector blocks of `disc`
    (`SectorLU`), in batches of nodes whose R0 is one kernel table gathered
    and transformed for the class representatives alone, within about
    0.75 MB of batch arrays (`Discretization.r0_reps`); per node only the
    getrf, gecon and getrs of the representatives run.  The line and the
    ring moments sum the representatives' blocks and set the others once
    (`Discretization.R_sums`); the residues and U(t) stay in flat sector
    blocks (`propagate_blocks`), and `propagate_many` expands each U(t) to
    n x n once."""

    def __init__(self, disc: Discretization, coeffs: ThresholdCoefficients):
        self.disc = disc
        self.coeffs = coeffs
        # node jumps held by the object: none (bench/tracing.py reads this)
        self.jump: Dict[float, np.ndarray] = {}
        self.census: Optional[dict] = None
        # the Perron certificate of the pole scan (`_scan_poles`)
        self.zero_free: dict = {}
        # (k, A_{-1}, A_{-2}) of the crossed zeros and of the eigenvalues
        self._crossed: List[Tuple[complex, np.ndarray, np.ndarray]] = []
        self.poles: List[Tuple[complex, np.ndarray, np.ndarray]] = []
        self._scan_poles()

    def _scan_poles(self):
        """Eigenvalues z = k^2 off the cut: the zeros of M(k) inside
        `_POLE_ELLIPSE` (_POLE_NODES nodes), searched only when the Perron
        bound at its lowest point, Im k = _POLE_FLOOR
        (`Discretization.perron_bound`), is not below 1: below 1 it
        certifies that M(k) has no zero with Im k >= _POLE_FLOOR, so none in
        the ellipse.  Records in `zero_free` the floor, the bound, its
        margin 1 - bound, y* (`Discretization.zero_free_height`) and the
        nodes factored.  Not searched here: z near 0, and a band along the
        cut that widens with Re z (|Im z| < 0.3 at Re z = 1, 1.7 at 10, 3.8
        at 20); the census tiles search its Re k > 0 half up to the
        ellipse.  ValueError for a zero with Re k > 0: an eigenvalue with
        Im z = 2 Re k Im k > 0, whose e^{-itz} grows."""
        rho = self.disc.perron_bound(_POLE_FLOOR)
        searched = not rho < 1.0
        self.zero_free = {"y_floor": _POLE_FLOOR, "rho_bound": rho,
                          "margin": 1.0 - rho,
                          "y_star": self.disc.zero_free_height(),
                          "pole_nodes": _POLE_NODES if searched else 0}
        ks = []
        if searched:
            zeros, _ = _contour_zeros(self.disc, *_POLE_ELLIPSE, _POLE_NODES)
            ks = [k for k, _ in zeros]
        for k in ks:
            if k.real > 0:
                raise ValueError(f"zero of M(k) at z = {k * k:.6g} is an "
                                 "eigenvalue with Im z > 0 (a growing mode)")
        self.poles = [(k,) + self._ring_moments(k, ks) for k in ks]

    def _take_census(self, t_min: float):
        """The zeros the rotation crosses for times >= t_min, into `census`:
        the r0 winding count, the verified tiles, contour nodes, failed
        tiles, tiles verified on half their nodes and attempts escalated to
        all of them (`_tile_zeros`) of the census (`_census_rects`: one
        tile per column, from the weight cut up to the pole ellipse, so
        growing modes below the ellipse are found too), the pole scan's
        certificate (`zero_free`),
        the region that neither a tile, the pole scan nor the certificate
        covers (`_unsearched`),
        each crossed zero (k, z, weight, Frobenius norm of its residue at
        t_min) and the zeros left out.  ValueError if the count is not the
        structural order, or for a zero on the real axis (an embedded
        resonance) or above it (an eigenvalue with Im z > 0)."""
        # det E_-+ ~ z^{order_structural}, so det M(k) ~ k^{2 order_structural}
        d, order = self.disc, round(2 * self.coeffs.scaling.order_structural)
        winding = _contour_zeros(d, 0.0, _R0, _R0, 64, count_only=True)[1]
        if winding != order:
            raise ValueError(f"winding count {winding} of det M on |k| = "
                             f"{_R0} but the {self.coeffs.kind} threshold "
                             f"has structural order {order}")
        zeros, stats = _tile_zeros(d, _census_rects(t_min))
        terms, crossed, left_out = [], [], []
        for k in zeros:
            z = k * k
            if abs(k.imag) <= 1e-8 * abs(k):
                raise ValueError(f"real zero of M(k) on the path: an embedded "
                                 f"resonance at lambda0 = {z.real:.6g}")
            if k.imag > 0:
                raise ValueError(f"zero of M(k) at z = {z:.6g} is an "
                                 "eigenvalue with Im z > 0 (a growing mode)")
            rec = {"k": k, "z": z, "weight": math.exp(t_min * z.imag)}
            if -k.imag >= k.real or rec["weight"] < _WEIGHT_CUT:
                left_out.append(rec)
                continue
            terms.append((k,) + self._ring_moments(k, zeros))
            rec["residue_norm"] = float(np.linalg.norm(
                _residue(*terms[-1], t_min)))
            crossed.append(rec)
        self._crossed = terms
        self.census = {"r0": _R0, "winding": winding,
                       "structural_order": order, "t_min": t_min,
                       "weight_cut": _WEIGHT_CUT, **stats,
                       "zero_free": dict(self.zero_free),
                       "unsearched": _unsearched(self.zero_free),
                       "crossed": crossed, "left_out": left_out}

    def _ring_moments(self, k: complex, zeros: Sequence[complex]):
        """A_{-p} = (1/2 pi i) oint (k' - k)^{p-1} R dk', p = 1, 2, as flat
        sector blocks, on a ring around the zero k, at most _RING_MAX and a
        third of the way to 0 and to the other `zeros`: three weighted sums
        of the nodes' R (`Discretization.R_sums`), the representatives'
        blocks summed in batches of nodes and the other blocks set once.
        ValueError if A_{-3} shows a pole of order 3 or more."""
        rho = min([_RING_MAX, abs(k) / 3.0]
                  + [abs(k - k2) / 3.0 for k2 in zeros if k2 != k])
        u = rho * np.exp(2j * np.pi * (np.arange(_RING_NODES) + 0.5)
                         / _RING_NODES)
        A = self.disc.R_sums(k + u, u ** np.arange(1, 4)[:, None]
                             / _RING_NODES)
        # Frobenius norms: the same on the blocks as on the n x n matrices
        norms = np.linalg.norm(A.reshape(3, -1), axis=1)
        if norms[2] > _ORDER3_TOL * (rho ** 2 * norms[0] + rho * norms[1]):
            raise ValueError(f"zero of M(k) at z = {k * k:.6g} is a pole of R "
                             f"of order 3 or more (||A_-3|| = {norms[2]:.3e})")
        return A[0], A[1]

    def propagate_blocks(self, ts: Sequence[float]
                         ) -> Dict[float, np.ndarray]:
        """{t: flat sector blocks of U(t)}: per t the line -(1/(pi t))
        sum_m w_m x_m R(k_m) with k_m = x_m e^{-i pi/4} / sqrt t, one
        weighted sum of the nodes' R (`Discretization.R_sums`: the
        representatives' blocks summed in batches of nodes, the other blocks
        set once), and the residues of one census."""
        ts = np.asarray(ts, dtype=float).ravel()
        if not np.all(ts > 0):
            raise ValueError("t must be positive")
        if self.census is None or ts.min() < self.census["t_min"]:
            self._take_census(float(ts.min()))
        R_m2 = self.coeffs.R_m2
        out = {}
        for t in map(float, ts):
            k = _LINE_X * np.exp(-0.25j * np.pi) / math.sqrt(t)
            U = self.disc.R_sums(k, (_LINE_W * _LINE_X)[None])[0]
            U *= -1.0 / (np.pi * t)
            U -= R_m2
            for k, A1, A2 in self.poles + self._crossed:
                if not 0 < k.imag < -k.real:    # 3 pi/4 < arg k < pi cancels
                    U -= _residue(k, A1, A2, t)
            out[t] = U
        return out

    def propagate_many(self, ts: Sequence[float]) -> Dict[float, np.ndarray]:
        """{t: U(t)}, n x n: `propagate_blocks`, each U(t) expanded once."""
        group = self.disc.sectors
        return {t: group.expand(U)
                for t, U in self.propagate_blocks(ts).items()}

    def propagate(self, t: float) -> np.ndarray:
        """U(t) at a single time."""
        return self.propagate_many([t])[float(t)]


def _columns() -> List[Tuple[float, float]]:
    """The _TILES geometric columns of Re k of the census, from inside
    |k| = r0 out to _K_MAX."""
    edges = np.geomspace(0.9 * _R0 / math.sqrt(2.0), _K_MAX, _TILES + 1)
    return list(zip(edges[:-1], edges[1:]))


def _census_rects(t_min: float) -> List[Tuple[float, float, float, float]]:
    """(Re k, Im k) rectangles of the census, one per column: from the part
    of -pi/4 < arg k < 0 with weight at least _WEIGHT_CUT at t_min, across
    the seam Im k = _SEAM, up to the lower edge of the pole scan's ellipse
    (`_POLE_ELLIPSE`) at the column's right end (the height of its centre
    beyond its right end).  With |k| < r0 they reach at least
    _POLE_FLOOR for Re k <= _K_MAX; what they leave is in `_unsearched`."""
    c = -math.log(_WEIGHT_CUT) / (2.0 * t_min)     # Re k |Im k| <= c
    center, ax, ay = _POLE_ELLIPSE

    def floor(x):
        return center.imag - ay * math.sqrt(max(0.0, 1.0 - (x / ax) ** 2))
    return [(x0, x1, -1.05 * min(x1, c / x0, math.sqrt(c)), floor(x1))
            for x0, x1 in _columns()]


def _unsearched(zero_free: dict) -> List[Dict[str, object]]:
    """The part of Re k > 0 that neither the census tiles, the pole scan's
    ellipse (when it was searched) nor the Perron certificate covers, as
    (Re k, Im k) ranges (None: unbounded).  The certificate
    (`CutPropagator.zero_free`) covers Im k >= y* (None: no height), and
    Im k >= _POLE_FLOOR when the pole scan skipped the ellipse on it.
    Below the certified height y, the tiles (with |k| < r0) reach
    _POLE_FLOOR or more for every Re k <= _K_MAX, and the ellipse's centre
    beyond its end; the ellipse, when searched, reaches its upper edge.
    What is left: Re k > _K_MAX below y and, when y lies above the centre,
    the strip from the centre to y between the ellipse's end and _K_MAX,
    and the part of the Re k range up to the end that lies above the upper
    edge (`"above": "pole_ellipse"`)."""
    center, ax, ay = _POLE_ELLIPSE
    y = zero_free["y_star"]
    if not zero_free["pole_nodes"]:
        y = min(y, _POLE_FLOOR)
    out = []
    if zero_free["pole_nodes"] and (y is None or y > center.imag):
        # the upper edge center + ay sqrt(1 - (x / ax)^2) lies below y for
        # x beyond x_lo
        rise = 1.0 if y is None else min(1.0, (y - center.imag) / ay)
        out += [{"re_k": [ax * math.sqrt(1.0 - rise ** 2), ax],
                 "im_k": [center.imag, y], "above": "pole_ellipse"},
                {"re_k": [ax, _K_MAX], "im_k": [center.imag, y]}]
    out.append({"re_k": [_K_MAX, None], "im_k": [None, y]})
    return out


def _tile_ellipse(x0: float, x1: float, y0: float, y1: float):
    """(centre, semi-axes) of the ellipse through the corners of the
    rectangle Re k in [x0, x1], Im k in [y0, y1]."""
    return (complex(x0 + x1, y0 + y1) / 2.0, (x1 - x0) / math.sqrt(2.0),
            (y1 - y0) / math.sqrt(2.0))


def _tile_attempt(disc: Discretization, ellipse, nodes: int,
                  stats: Dict[str, int]) -> List[Tuple[complex, np.ndarray]]:
    """The zeros of one verified contour on `ellipse` (centre, semi-axes),
    `_contour_zeros` on `nodes` nodes, with its count of nodes into
    `stats`.  A _TILE_NODES attempt first factors its even nodes alone, a
    trapezoidal rule of phase 1/4: a verdict on them that is clear of
    every gate stands ("half_verified"): the moment rank and sigma_min at
    each zero by the factor _CLEAR, every pencil eigenvalue within
    _CLEAR_RADIUS of the scaled radius (the `_contour_verdict` margins).
    Otherwise, a raise included, the odd nodes (phase 3/4) are factored
    and the tile is decided on both halves ("escalated"), which is the
    full rule of phase 1/2.  ValueError where the full rule fails, and
    where the checked LU rejects an even node, which the full rule holds
    too."""
    if nodes != _TILE_NODES:
        stats["nodes"] += nodes
        return _contour_zeros(disc, *ellipse, nodes)[0]
    half = nodes // 2
    stats["nodes"] += half
    even = _contour_moments(disc, *ellipse, half, phase=0.25)
    try:
        found, _, margins = _contour_verdict(disc, *ellipse, even)
    except ValueError:
        pass
    else:
        if (max(margins["rank"], margins["zero"]) * _CLEAR <= 1.0
                and margins["radius"] <= _CLEAR_RADIUS):
            stats["half_verified"] += 1
            return found
    stats["nodes"] += half
    stats["escalated"] += 1
    odd = _contour_moments(disc, *ellipse, half, phase=0.75)
    return _contour_verdict(disc, *ellipse, even.merge(odd))[0]


def _tile_zeros(disc: Discretization,
                rects: Sequence[Tuple[float, float, float, float]]
                ) -> Tuple[List[complex], Dict[str, int]]:
    """Distinct zeros of M(k) in verified tiles (the `_tile_ellipse` of
    each rectangle (x0, x1, y0, y1) of `rects`), and the counts of the
    verified tiles, of the contour nodes factored, of the failed tiles
    (attempts of _TILE_NODES nodes or more that failed), of the tiles
    verified on the even half of their _TILE_NODES nodes and of the
    attempts decided on all of them (`_tile_attempt`).
    A failing tile that spans the seam Im k = _SEAM is split there in two
    tiles; any other failing tile is retried with 2 and 4 times the nodes
    (a zero near its boundary), then split in two overlapping parts across
    its longer side, at most _TILE_SPLITS times; then ValueError."""
    stack = [(rect, 0, _TILE_NODES) for rect in rects]
    zeros: List[complex] = []
    stats = {"tiles": 0, "nodes": 0, "failed_tiles": 0, "half_verified": 0,
             "escalated": 0}
    while stack:
        (x0, x1, y0, y1), splits, nodes = stack.pop()
        try:
            found = _tile_attempt(disc, _tile_ellipse(x0, x1, y0, y1), nodes,
                                  stats)
        except ValueError as exc:
            stats["failed_tiles"] += 1
            if y0 < _SEAM < y1:
                stack += [((x0, x1, y0, _SEAM), splits, _TILE_NODES),
                          ((x0, x1, _SEAM, y1), splits, _TILE_NODES)]
            elif nodes < 4 * _TILE_NODES:
                stack.append(((x0, x1, y0, y1), splits, 2 * nodes))
            elif splits == _TILE_SPLITS:
                raise ValueError(f"census tile Re k in [{x0:.3g}, {x1:.3g}], "
                                 f"Im k in [{y0:.3g}, {y1:.3g}] failed "
                                 f"verification: {exc}") from exc
            else:
                wide = x1 - x0 >= y1 - y0
                a, b = (x0, x1) if wide else (y0, y1)
                for lo, hi in ((a, a + 0.6 * (b - a)), (b - 0.6 * (b - a), b)):
                    half = (lo, hi, y0, y1) if wide else (x0, x1, lo, hi)
                    stack.append((half, splits + 1, _TILE_NODES))
            continue
        stats["tiles"] += 1
        zeros += [k for k, _ in found
                  if all(abs(k - k0) > 1e-4 * abs(k) for k0 in zeros)]
    return zeros, stats


def census_geometry(census: dict) -> List[Tuple[str, np.ndarray]]:
    """(label, k points) of the curves a census (`CutPropagator.census`,
    or its record in `report.json`) works on: the |k| = r0 winding circle,
    the pole scan's ellipse when it was searched (`_scan_poles`), the
    ellipse of each column's census tile (the seam halves, retries and
    splits of a failing tile are not drawn), 65 points around each closed
    curve; the open line Im k = y* above which the Perron bound certifies
    that M(k) has no zero, over |Re k| <= _K_MAX, in 65 points (none when
    y* is None); and the line nodes at t_min."""
    ring = np.exp(2j * np.pi * np.arange(65) / 64)

    def ellipse(center, ax, ay):
        return center + ax * ring.real + 1j * ay * ring.imag

    t_min, zero_free = census["t_min"], census["zero_free"]
    curves = [("winding_circle", census["r0"] * ring)]
    if zero_free["pole_nodes"]:
        curves.append(("pole_ellipse", ellipse(*_POLE_ELLIPSE)))
    curves += [(f"census_tile_{j}", ellipse(*_tile_ellipse(*rect)))
               for j, rect in enumerate(_census_rects(t_min))]
    if zero_free["y_star"] is not None:
        curves.append(("zero_free_height", np.linspace(-_K_MAX, _K_MAX, 65)
                       + 1j * zero_free["y_star"]))
    curves.append(("line_nodes",
                   _LINE_X * np.exp(-0.25j * np.pi) / math.sqrt(t_min)))
    return curves


# ---------------------------------------------------------------------------
# free propagator and decay reports

def free_propagator(grid, t: float) -> np.ndarray:
    """Exact kernel of e^{it Laplacian} on the grid:
    (4 pi i t)^{-3/2} e^{i|x-y|^2 / 4t} w_y, n x n, as a reference
    (`free_propagator_rule` gives its sector blocks)."""
    d = grid.nodes[:, None, :] - grid.nodes[None, :, :]
    r2 = (d * d).sum(axis=2)
    amp = (4.0 * np.pi * t) ** (-1.5) * np.exp(-0.75j * np.pi)
    return amp * np.exp(1j * r2 / (4.0 * t)) * grid.weights[None, :]


def free_propagator_rule(t: float):
    """The kernel of e^{it Laplacian}, (4 pi i t)^{-3/2} e^{i r^2 / 4t}, as
    a kernel rule for `Discretization.gather`: the kernel is bounded, so
    the self-cell value is its value at r = 0 times the cell volume."""
    amp = (4.0 * np.pi * t) ** (-1.5) * np.exp(-0.75j * np.pi)
    return (lambda r: amp * np.exp(1j * r * r / (4.0 * t)),
            lambda rc: amp * (4.0 * np.pi / 3.0) * rc ** 3)


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
    census: Optional[dict] = None      # CutPropagator.census of the run

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


def verify_large_time(disc: Discretization,
                      coefficients: Optional[ThresholdCoefficients] = None,
                      s: float = 3.0,
                      t_ladder: Optional[np.ndarray] = None,
                      propagator: Optional[CutPropagator] = None) -> DecayReport:
    """Decay fits against the contour machinery: free case via the exact free
    kernel and regular threshold via the cut propagator (slope -3/2); tuned
    first kind: slope -1/2 with coefficient (i pi)^{-1/2} <., J phi> phi;
    tuned second/third kind: the large-time limit is the threshold
    projection (constant term), the remainder decays with slope -1/2.
    Every norm is the weighted operator norm from L^{2,s} to L^{2,-s} of
    a matrix that commutes with the group and its axis permutations (U(t),
    R_-2, P0, the first-kind target), taken on the class representatives'
    sector blocks (`weighted_sector_norm`).  U(t)
    (`CutPropagator.propagate_blocks`, or for the free model the kernel
    gathered as blocks, `free_propagator_rule`), R_-2 and P0 come as flat
    blocks, the target is built as blocks from phi
    (`ReflectionGroup.outer`), and none is expanded.  A non-zero potential
    without coefficients is a ValueError; so is a `propagator` built on
    another discretization or other coefficients."""
    grid, group = disc.grid, disc.sectors

    def wnorm(flat: np.ndarray) -> float:
        return weighted_sector_norm(group, flat, grid, s_in=s, s_out=-s)

    ts = np.asarray(t_ladder if t_ladder is not None
                    else np.geomspace(10.0, 1000.0, 7), dtype=float)
    if propagator is not None and (propagator.disc is not disc or
                                   propagator.coeffs is not coefficients):
        raise ValueError("the propagator was built on another "
                         "discretization or other coefficients")
    if np.max(np.abs(disc.V)) == 0:
        kind = "free"
    elif coefficients is None:
        raise ValueError("no threshold coefficients for a non-zero "
                         "potential")
    else:
        kind = coefficients.kind

    if kind == "free":
        Us = {t: disc.gather(free_propagator_rule(t)) for t in ts}
    else:
        cp = propagator or CutPropagator(disc, coefficients)
        Us = cp.propagate_blocks(ts)
    # second / third kind: constant term -R_{-2} plus a decaying remainder
    limit = -coefficients.R_m2 if kind in ("second", "third") else 0.0
    norms = np.array([wnorm(Us[t] - limit) for t in ts])
    slope, amp, r2 = _loglog_fit(ts, norms)
    rep = DecayReport(kind=kind, times=ts, norms=norms,
                      predicted=amp * ts ** slope, slope_fit=slope,
                      slope_theory=-1.5 if kind in ("free", "regular")
                      else -0.5, r_squared=r2,
                      census=None if kind == "free" else cp.census)
    tmax = float(ts[-1])
    if kind == "first":
        phi = coefficients.phi[:, None]
        target = (1j * np.pi) ** (-0.5) * group.outer(
            phi, grid.weights[:, None] * phi)
        C = np.sqrt(tmax) * Us[tmax]
        rep.coeff_rel_err = wnorm(C - target) / wnorm(target)
    elif kind in ("second", "third"):
        P0 = coefficients.P0 if coefficients.P0 is not None else limit
        rep.limit_rel_err = wnorm(Us[tmax] - P0) / wnorm(P0)
    if rep.r_squared < 0.9:
        rep.note = "decay window not reached"
    return rep


# ---------------------------------------------------------------------------
# high-energy estimates

# the energy window and sample count of the high-energy fits, and the slack
# by which a fitted exponent may exceed its bound -(r+1)/2
_HE_WINDOW, _HE_SAMPLES, _HE_SLACK = (4.0, 25.0), 9, 0.2


def check_high_energy(disc: Discretization, s: float = 3.0,
                      orders: Sequence[int] = (0, 1)) -> List[dict]:
    """Fits of the weighted boundary-resolvent derivative norms
    ||<x>^{-s} d^r/d lam^r R(lam + i0) <x>^{-s}|| ~ lam^e over _HE_WINDOW,
    one per order r, from one Taylor expansion per energy; each exponent
    must not exceed -(r+1)/2 by more than _HE_SLACK.  Each norm is taken on
    the sector blocks of the Taylor coefficient (`weighted_sector_norm`):
    no n x n matrix is formed."""
    if not orders or any(r not in (0, 1, 2) for r in orders):
        raise ValueError("derivative orders r must be 0, 1 or 2")
    lams = np.geomspace(*_HE_WINDOW, _HE_SAMPLES)
    norms = np.empty((len(orders), _HE_SAMPLES))
    for i, lam in enumerate(lams):
        T = resolvent_taylor(disc, float(lam), max(orders), side="+")
        for j, r in enumerate(orders):
            norms[j, i] = weighted_sector_norm(
                disc.sectors, math.factorial(r) * T[r], disc.grid,
                s_in=s, s_out=-s)
    fits = []
    for r, nr in zip(orders, norms):
        slope, amp, r2 = _loglog_fit(lams, nr)
        fits.append({"r": r, "s": s, "lams": lams, "norms": nr,
                     "exponent": slope, "bound": -(r + 1) / 2.0,
                     "constant": amp, "r_squared": r2,
                     "pass": slope <= -(r + 1) / 2.0 + _HE_SLACK})
    return fits
