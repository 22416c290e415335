"""
Physical model: quadrature grid over a ball in R^3, complex potential samples
and weighted-norm conventions.

All integral operators elsewhere in the package are Nystrom matrices living on
a QuadratureGrid; weighted L^2 norms are realized as diagonal scalings by
<x>^{+-s} at the nodes.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .symmetry import ReflectionGroup

__all__ = [
    "QuadratureGrid", "Potential", "Model",
    "build_grid", "sample_potential",
    "bracket_weight", "weight_diag", "weighted_operator_norm",
    "weighted_sector_norm", "weighted_vec",
]


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes/weights covering the ball of radius `extent`.

    weights carry units of volume; sum(weights) ~ volume of the ball.
    """
    nodes: np.ndarray          # (n, 3) float
    weights: np.ndarray        # (n,) float > 0
    extent: float
    scheme: str
    spacing: float             # nominal linear cell size (uniform scheme)
    grid_id: str = field(default="")

    def __post_init__(self):
        if not (np.all(np.isfinite(self.nodes))
                and np.all(np.isfinite(self.weights))):
            raise ValueError("degenerate grid: non-finite node or weight")
        if self.weights.min() <= 0:
            raise ValueError("degenerate grid: nonpositive weight")
        object.__setattr__(self, "grid_id", _grid_hash(self.nodes, self.weights))

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.nodes, axis=1)

    def distance_matrix(self) -> np.ndarray:
        d = self.nodes[:, None, :] - self.nodes[None, :, :]
        return np.sqrt((d * d).sum(axis=2))

    @cached_property
    def distance_classes(self) -> Tuple[np.ndarray, np.ndarray]:
        """(values, index): the distinct entries of the distance matrix with
        a unit diagonal, sorted, and the (n, n) index of each entry into
        them, in the smallest unsigned type that holds the class count.  A
        uniform grid has a few hundred classes at most against n^2 entries
        (gauss_radial about n^2 / 25), so a distance kernel runs on `values`
        and is gathered through `index`.  Computed once per grid; both
        arrays are read-only."""
        r = self.distance_matrix()
        np.fill_diagonal(r, 1.0)
        values, index = np.unique(r, return_inverse=True)
        index = index.reshape(self.n, self.n).astype(
            np.min_scalar_type(len(values) - 1))
        values.flags.writeable = index.flags.writeable = False
        return values, index

    @cached_property
    def _node_maps(self) -> dict:
        return {}

    def node_map(self, perm, signs) -> Optional[np.ndarray]:
        """Node map m of the signed permutation x -> signs * x[perm]:
        nodes[m[i]] is the image of nodes[i].  None unless the map takes
        nodes onto nodes and weights onto weights (1e-12 extent in
        position, 1e-14 relative in weight).  The image y's nearest node is
        the argmin over j of |x_j|^2 - 2 x_j . y, all n x n pairs in one
        product [y, 1] [-2 x, |x|^2]^T; the position check uses the exact
        distance of each chosen pair.  Memoized per signed permutation;
        the map is read-only."""
        key = (tuple(int(p) for p in perm), tuple(float(s) for s in signs))
        if key in self._node_maps:
            return self._node_maps[key]
        x, w = self.nodes, self.weights
        y = x[:, list(key[0])] * np.array(key[1])
        m = np.argmin(np.column_stack([y, np.ones(self.n)])
                      @ np.vstack([-2.0 * x.T, (x * x).sum(axis=1)]), axis=1)
        dist = np.sqrt(((x[m] - y) ** 2).sum(axis=1))
        if (np.array_equal(np.sort(m), np.arange(self.n))
                and dist.max() <= 1e-12 * self.extent
                and np.all(np.abs(w[m] - w) <= 1e-14 * w)):
            m.flags.writeable = False
        else:
            m = None
        self._node_maps[key] = m
        return m

    @cached_property
    def reflections(self) -> ReflectionGroup:
        """The subgroup of the eight reflections x_i -> +-x_i that take the
        grid onto itself (`node_map`), with its node orbits; element g is
        the bit mask of the flipped axes.  Computed once per grid, on first
        use."""
        maps = {}
        for g in range(8):
            m = self.node_map([0, 1, 2],
                              [-1.0 if g >> i & 1 else 1.0 for i in range(3)])
            if m is not None:
                maps[g] = m
        return ReflectionGroup(maps)

    @cached_property
    def axis_permutations(self) -> Dict[Tuple[int, ...], np.ndarray]:
        """{perm: node map} of the axis permutations x -> x[perm] other than
        the identity that take the grid onto itself (`node_map`).  Computed
        once per grid, on first use."""
        maps = {}
        for perm in itertools.permutations(range(3)):
            m = self.node_map(perm, [1.0, 1.0, 1.0])
            if perm != (0, 1, 2) and m is not None:
                maps[perm] = m
        return maps

    def cell_radii(self) -> np.ndarray:
        """Radius of the equal-volume ball of each quadrature cell."""
        return (3.0 * self.weights / (4.0 * np.pi)) ** (1.0 / 3.0)


def _grid_hash(nodes: np.ndarray, weights: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(nodes).tobytes())
    h.update(np.ascontiguousarray(weights).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Potential:
    """Complex potential sampled at the grid nodes with a decay certificate
    |V(x)| <= C_v <x>^{-rho}."""
    values: np.ndarray         # (n,) complex
    rho: float
    C_v: float
    support_radius: float
    grid_id: str

    def __post_init__(self):
        if self.rho <= 2:
            raise ValueError("decay rate rho must exceed 2")


@dataclass(frozen=True)
class Model:
    """A grid plus a potential: everything the spectral machinery needs."""
    grid: QuadratureGrid
    potential: Potential
    name: str = "model"

    def __post_init__(self):
        if self.grid.grid_id != self.potential.grid_id:
            raise ValueError("grid/potential mismatch")

    @property
    def V(self) -> np.ndarray:
        return self.potential.values


# ---------------------------------------------------------------------------
# grid construction

def build_grid(extent: float, resolution: int, scheme: str = "uniform") -> QuadratureGrid:
    """Quadrature grid covering the ball of radius `extent`.

    uniform: tensor-product cell centers, boundary cells weighted by the
    sub-sampled fraction of the cell inside the ball (keeps sum(w) close to
    the exact ball volume).
    gauss_radial: Gauss-Legendre in radius and polar angle, uniform azimuth.
    """
    if extent <= 0 or resolution < 2:
        raise ValueError("degenerate grid")
    if scheme == "uniform":
        return _uniform_grid(extent, resolution)
    if scheme == "gauss_radial":
        return _gauss_radial_grid(extent, resolution)
    raise ValueError(f"unknown grid scheme {scheme!r}")


def _uniform_grid(extent: float, resolution: int) -> QuadratureGrid:
    h = 2.0 * extent / resolution
    axis = -extent + h * (np.arange(resolution) + 0.5)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    r = np.linalg.norm(pts, axis=1)
    half_diag = 0.5 * h * np.sqrt(3.0)
    inside = r <= extent - half_diag
    outside = r >= extent + half_diag
    boundary = ~(inside | outside)

    frac = np.zeros(len(pts))
    frac[inside] = 1.0
    if boundary.any():
        # sub-sample boundary cells to estimate the covered fraction
        m = 6
        sub = (np.arange(m) + 0.5) / m - 0.5
        sx, sy, sz = np.meshgrid(sub, sub, sub, indexing="ij")
        offs = h * np.stack([sx.ravel(), sy.ravel(), sz.ravel()], axis=1)
        bpts = pts[boundary]
        d = np.linalg.norm(bpts[:, None, :] + offs[None, :, :], axis=2)
        frac[boundary] = (d <= extent).mean(axis=1)

    keep = frac > 1e-12
    nodes = pts[keep]
    weights = h ** 3 * frac[keep]
    if len(nodes) < 2:
        raise ValueError("degenerate grid")
    return QuadratureGrid(nodes=nodes, weights=weights, extent=extent,
                          scheme="uniform", spacing=h)


def _gauss_radial_grid(extent: float, resolution: int) -> QuadratureGrid:
    nr = resolution
    nth = max(resolution // 2, 2)
    nph = max(resolution, 3)
    xr, wr = np.polynomial.legendre.leggauss(nr)
    rr = 0.5 * extent * (xr + 1.0)
    wrr = 0.5 * extent * wr * rr ** 2
    xc, wc = np.polynomial.legendre.leggauss(nth)   # cos(theta) in [-1,1]
    phi = 2.0 * np.pi * (np.arange(nph) + 0.5) / nph
    wph = 2.0 * np.pi / nph
    nodes, weights = [], []
    for r, wr_ in zip(rr, wrr):
        for c, wc_ in zip(xc, wc):
            s = np.sqrt(1.0 - c * c)
            for p in phi:
                nodes.append([r * s * np.cos(p), r * s * np.sin(p), r * c])
                weights.append(wr_ * wc_ * wph)
    return QuadratureGrid(nodes=np.array(nodes), weights=np.array(weights),
                          extent=extent, scheme="gauss_radial",
                          spacing=extent / nr)


# ---------------------------------------------------------------------------
# potential sampling

def sample_potential(grid: QuadratureGrid,
                     formula: Union[Callable[[np.ndarray], np.ndarray], np.ndarray, complex],
                     rho: float = 8.0,
                     C_v: Optional[float] = None,
                     support_radius: Optional[float] = None) -> Potential:
    """Sample a complex field on the grid and certify its decay bound."""
    if callable(formula):
        vals = np.asarray(formula(grid.nodes), dtype=complex)
    elif np.isscalar(formula):
        vals = np.full(grid.n, complex(formula))
    else:
        vals = np.asarray(formula, dtype=complex)
    if vals.shape != (grid.n,):
        raise ValueError("potential values do not match grid")
    if not np.all(np.isfinite(vals)):
        raise ValueError("potential not finite at all nodes")
    if support_radius is None:
        support_radius = grid.extent
    r = grid.radii()
    vals = np.where(r <= support_radius + 1e-12, vals, 0.0)
    bracket = np.sqrt(1.0 + r ** 2)
    need = np.abs(vals) * bracket ** rho
    if C_v is None:
        C_v = float(need.max() * (1 + 1e-12) + 1e-300)
    elif need.max() > C_v * (1 + 1e-9):
        raise ValueError("decay bound violated")
    return Potential(values=vals, rho=rho, C_v=C_v,
                     support_radius=support_radius, grid_id=grid.grid_id)


# ---------------------------------------------------------------------------
# weights

def bracket_weight(grid: QuadratureGrid, s: float) -> np.ndarray:
    """<x>^s sampled at the nodes."""
    return (1.0 + grid.radii() ** 2) ** (s / 2.0)


def weight_diag(grid: QuadratureGrid, s: float) -> np.ndarray:
    """Diagonal of the isometry L^{2,s}(grid) -> l^2: sqrt(w) <x>^s."""
    return np.sqrt(grid.weights) * bracket_weight(grid, s)


def weighted_vec(grid: QuadratureGrid, u: np.ndarray, s: float) -> float:
    """Norm of u in L^{2,s}(grid)."""
    return float(np.linalg.norm(weight_diag(grid, s) * u))


def _scaled_2norm(A: np.ndarray, d_out: np.ndarray,
                  d_in: np.ndarray) -> float:
    """||diag(d_out) A diag(1/d_in)||_2."""
    return float(np.linalg.norm((d_out[:, None] * A) / d_in[None, :], 2))


def weighted_operator_norm(A: np.ndarray, grid: QuadratureGrid,
                           s_in: float = 0.0, s_out: float = 0.0) -> float:
    """Operator norm of A from L^{2,s_in} to L^{2,s_out}."""
    return _scaled_2norm(A, weight_diag(grid, s_out), weight_diag(grid, s_in))


def weighted_sector_norm(group: ReflectionGroup, flat: np.ndarray,
                         grid: QuadratureGrid, s_in: float = 0.0,
                         s_out: float = 0.0) -> float:
    """`weighted_operator_norm` of the G-invariant matrix with the flat
    sector blocks `flat` (`ReflectionGroup.transform`), from the blocks
    alone: the weight sqrt(w) <x>^s is constant on node orbits, so it
    commutes with the sector basis and the norm is the largest of the
    blocks' weighted norms, each with the weight at the representatives of
    the block's orbits.  The matrix must also commute with the group's
    axis permutations, as R0, the resolvent and its coefficients do: the
    weight is invariant under them too, so the blocks of a class have one
    weighted norm, and only each class representative's is taken
    (`ReflectionGroup.sector_classes`)."""
    d_out = weight_diag(grid, s_out)[group.reps]
    d_in = weight_diag(grid, s_in)[group.reps]
    blocks, orbits = group.split(flat), group.sector_orbits
    return max(_scaled_2norm(blocks[r], d_out[orbits[r]], d_in[orbits[r]])
               for r in set(group.sector_classes))
