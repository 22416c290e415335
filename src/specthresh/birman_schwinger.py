"""
Birman-Schwinger machinery: K(z) = R0(z) V, boundary operators K+(lambda),
threshold operator K0 = G0 V, detection of the eigenvalue -1 and the
invariant subspace of its cluster (the range of the Riesz projection) from
a reordered Schur form, both on the parity-sector blocks of K,
classification of the zero threshold, the contour eigensolver for the zeros
of M(k) = Id + R0(k^2) V (outgoing resonances here, poles off the cut in
`propagator`), and the checkable Gram-determinant hypotheses.

Conventions used throughout the package:
  - <u, Jv> denotes the *bilinear* pairing sum_i w_i u_i v_i (J = conjugation
    composed with the conjugated inner product leaves no conjugation),
  - Theta(u, v) = sum_i w_i V_i u_i v_i,
  - adjoints are taken in the w-weighted inner product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Tuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import ztrsen

from .kernels import (BranchPoint, assemble_entries, assemble_gj,
                      assemble_gj_plus, assemble_r0, entry_plan, gj_plus_rule,
                      gj_rule, r0_rule)
from .model import Model, QuadratureGrid, sample_potential
from .symmetry import ReflectionGroup, SectorLU, reflection_axes

__all__ = [
    "EigenNearMinusOne", "ZeroClassification", "RieszProjection",
    "Discretization", "detect_minus_one", "tune_coupling",
    "riesz_projection", "classify_zero", "scan_positive_resonances",
    "check_hypotheses", "marker_tolerance", "invariant_subgroup",
]


# ---------------------------------------------------------------------------
# shared discretization cache

# a grid reflection g is a symmetry of V when |V o g - V| <= this * max |V|
_V_SYMMETRY_TOL = 1e-13
# bytes that the gather of one batch of nodes holds at once: the kernel
# entries (n^2 / |G| complex per node) and the two arrays of half that size
# that the transform makes of them (`Discretization.r0_reps`); 5 nodes at
# n = 184, 1 at n = 408 under 8 reflections
_BATCH_BYTES = 3 << 18


def _v_deviation(V: np.ndarray, m: np.ndarray) -> float:
    """|V o m - V| / max |V| for the node map m (0 when V vanishes)."""
    vmax = float(np.max(np.abs(V)))
    return float(np.max(np.abs(V[m] - V))) / vmax if vmax else 0.0


def invariant_subgroup(grid_group: ReflectionGroup, V: np.ndarray
                       ) -> Tuple[ReflectionGroup, List[float]]:
    """The subgroup of the grid reflections g with |V o g - V| <=
    _V_SYMMETRY_TOL max |V|, and |V o g - V| / max |V| for every element of
    `grid_group` (0 when V vanishes)."""
    dev = [_v_deviation(V, m) for m in grid_group.maps]
    return grid_group.subgroup([int(g) for g, d in
                                zip(grid_group.elements, dev)
                                if d <= _V_SYMMETRY_TOL]), dev


class Discretization:
    """The operators every other module consumes, each G-invariant one as
    the flat sector blocks of `sectors` (`ReflectionGroup.transform`): R0,
    G_j, G_j^+, K = R0 V, K0 = G0 V, M = Id + R0 V and the resolvent, each
    gathered from its kernel's entries at the representative rows alone
    (`kernels.assemble_entries`, n^2 / |G| entries).  This is the one place
    that makes blocks; the stages pass them on as they come.  The blocks of
    G_2, which every `l2_pair_source` reads, are cached.  `r0`, `gj`,
    `gj_plus`, `K`, `K0`, `M` and `R` give n x n matrices, as references.

    Every factorization of M(k) runs in the parity sectors of `sectors`:
    the reflections x_i -> +-x_i that map the grid (nodes and weights,
    `QuadratureGrid.reflections`) and V onto themselves, found on first
    use.  M(k) is one block per character of that group, eight blocks of
    about n / 8 on the reference models; a model without symmetry is one
    n x n block.  An axis permutation that maps the grid, V and the group
    onto themselves makes blocks equivalent, and each class of equivalent
    blocks is factored once (`SectorLU`): 4 of the 8 blocks on the
    first-kind, regular and resonance models, 6 on the second and third
    kind.  `symmetry` records the group.

    Contour, line and ring nodes come in batches of `batch_nodes`: R0 at a
    batch is one kernel table (nodes x distance classes and cell radii),
    gathered at the plan's pairs and transformed for the class
    representatives alone (`r0_reps`, `M_reps`; one row per node), within
    _BATCH_BYTES (0.75 MB) for the gather's arrays.  `R_sums` sums R over
    the nodes of a line or ring on the representatives' blocks and sets
    the other blocks once; `r0_sectors`, `M_sectors` and `R_sectors` are
    the single-node entry points."""

    def __init__(self, model: Model):
        self.model = model
        self.grid = model.grid
        self.V = model.V
        self.w = model.grid.weights
        # the sector group's record, set with `sectors`
        self.symmetry: Optional[dict] = None

    @cached_property
    def sectors(self) -> ReflectionGroup:
        """The grid reflections that leave V invariant
        (`invariant_subgroup`), with their sector basis, and the axis
        permutations that map the grid (`QuadratureGrid.axis_permutations`),
        V (to _V_SYMMETRY_TOL max |V|) and that group onto themselves, which
        sort the sectors into classes of equivalent blocks; sets
        `symmetry`: the group order, the sector sizes, the largest
        |V o g - V| / max |V| among the kept reflections, the grid
        reflections V breaks (the axes each flips), the kept permutations
        (the image of the axes 1, 2, 3) with their |V o pi - V| / max |V|,
        and the representative sector of each sector's class."""
        grid_group = self.grid.reflections
        group, dev = invariant_subgroup(grid_group, self.V)
        keep = set(int(g) for g in group.elements)
        perms = [(perm, m, _v_deviation(self.V, m)) for perm, m in
                 self.grid.axis_permutations.items()]
        perms = [(perm, m, d) for perm, m, d in perms
                 if d <= _V_SYMMETRY_TOL and group.conjugation(m) is not None]
        group = group.with_permutations([m for _, m, _ in perms])
        self.symmetry = {
            "order": group.order, "grid_order": grid_group.order,
            "sector_sizes": [len(c) for c in group.sector_orbits],
            "max_v_deviation": max(d for g, d in zip(grid_group.elements, dev)
                                   if int(g) in keep),
            "broken_by_v": [reflection_axes(int(g)) for g in
                            grid_group.elements if int(g) not in keep],
            "permutations": [{"axes": [a + 1 for a in perm],
                              "v_deviation": d} for perm, _, d in perms],
            "sector_classes": group.sector_classes}
        return group

    # --- free kernels, as flat sector blocks -----------------------------
    @cached_property
    def _plan(self):
        return entry_plan(self.grid, *self.sectors.rep_pairs)

    @cached_property
    def _v_cols(self) -> np.ndarray:
        """V at the column of each entry of the plan."""
        return self.V[self.sectors.rep_pairs[1]]

    def gather(self, rule, times_v: bool = False) -> np.ndarray:
        """The flat sector blocks of the Nystrom matrix of a kernel rule
        (`kernels.r0_rule` and its kin: a kernel of |x - y| with its
        self-cell value), times V on the right when `times_v`, entry by
        entry as K = R0 V is formed."""
        T = assemble_entries(self.grid, rule, self._plan)
        if times_v:
            T *= self._v_cols
        return self.sectors.transform(T)

    def r0_sectors(self, bp: BranchPoint) -> np.ndarray:
        return self.gather(r0_rule(bp))

    def gj_sectors(self, j: int) -> np.ndarray:
        return self.gather(gj_rule(j))

    @cached_property
    def _g2_sectors(self) -> np.ndarray:
        """The blocks of G_2, read-only."""
        G2 = self.gj_sectors(2)
        G2.flags.writeable = False
        return G2

    def gj_plus_sectors(self, j: int, lam0: float) -> np.ndarray:
        return self.gather(gj_plus_rule(j, lam0))

    # --- Birman-Schwinger operators, as flat sector blocks ---------------
    def K_sectors(self, bp: BranchPoint) -> np.ndarray:
        return self.gather(r0_rule(bp), times_v=True)

    @property
    def K0_sectors(self) -> np.ndarray:
        return self.gather(gj_rule(0), times_v=True)

    def M_sectors(self, bp: BranchPoint) -> np.ndarray:
        return self.m_blocks(self.r0_sectors(bp))

    def m_blocks(self, r0_blocks: np.ndarray) -> np.ndarray:
        """The flat sector blocks Id + R0_s V_s of M from those of R0."""
        A = self.times_v(r0_blocks)
        A[self.sectors.flat_diagonal] += 1.0
        return A

    def times_v(self, blocks: np.ndarray) -> np.ndarray:
        """The flat sector blocks A_s V_s of A V from those of A (V_s: V at
        the representatives of the sector's orbits)."""
        return blocks * self._v_blocks

    @cached_property
    def _v_blocks(self) -> np.ndarray:
        """V at the column orbit of each flat block entry."""
        return self.V[self.sectors.reps][self.sectors.flat_columns]

    def R_sectors(self, bp: BranchPoint) -> np.ndarray:
        """The flat sector blocks of the resolvent (Id + R0 V)^{-1} R0: the
        one-node case of `R_sums`."""
        return self.R_sums(np.array([bp.sqrt_z]), np.ones((1, 1)))[0]

    # --- batches of nodes: the class representatives' blocks alone -------
    @cached_property
    def batch_nodes(self) -> int:
        """Nodes per batch: as many as keep the arrays of a batch's gather
        (`r0_reps`: twice its complex kernel entries) within _BATCH_BYTES,
        at least one."""
        return max(1, _BATCH_BYTES // (2 * 16 * self._plan[0].size))

    def r0_reps(self, ks: np.ndarray) -> np.ndarray:
        """The class representatives' blocks of R0(k^2) for each k of `ks`
        (any sheet), one row per k in the layout of
        `ReflectionGroup.to_reps`: one kernel table for the batch
        (`kernels.kernel_table`, R0 on the distance classes and the
        self-cell rule on the distinct cell radii), gathered at the plan's
        pairs and transformed for the representatives alone
        (`ReflectionGroup.rep_transform`)."""
        return self.sectors.rep_transform(
            assemble_entries(self.grid, r0_rule(ks), self._plan))

    def m_reps(self, r0: np.ndarray) -> np.ndarray:
        """The representatives' blocks of Id + R0 V from those of R0 (rows
        of `r0_reps`), in place."""
        r0 *= self.V[self.sectors.reps][self.sectors.rep_columns]
        r0[:, self.sectors.rep_diagonal] += 1.0
        return r0

    def M_reps(self, ks: np.ndarray) -> np.ndarray:
        """The representatives' blocks of M(k^2) for each k of `ks`, one
        row per k (`r0_reps`, `m_reps`)."""
        return self.m_reps(self.r0_reps(ks))

    def R_sums(self, ks: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_m weights[p, m] R(k_m^2) over the nodes k_m of `ks` (any
        sheet), for each row p of `weights`, as flat sector blocks (one row
        per p), R = (Id + R0 V)^{-1} R0.  Per batch of `batch_nodes` nodes:
        the representatives' blocks of R0 (`r0_reps`), one checked getrf
        and getrs per representative per node (`SectorLU`), and the
        weighted sum of the solutions; the other blocks are set once, from
        the sums (`ReflectionGroup.from_reps`, an exact +-1 copy).
        ValueError on a non-finite block entry; LinAlgError on a zero pivot
        in a block, or when the 1-norm reciprocal condition number of an
        M(k) over its blocks is below machine epsilon (`R_reps`)."""
        b, acc = self.batch_nodes, 0.0
        for s in range(0, len(ks), b):
            acc = acc + weights[:, s:s + b] @ self.R_reps(ks[s:s + b])
        return self.sectors.from_reps(acc)

    def R_reps(self, ks: np.ndarray) -> np.ndarray:
        """The representatives' blocks of R(k^2) for each k of `ks` (any
        sheet), one row per k: the representatives' blocks of R0
        (`r0_reps`), one checked getrf per representative per node
        (`SectorLU`) and getrs against the same blocks of R0 (R0 commutes
        with the permutations), in place."""
        R0 = self.r0_reps(ks)
        return SectorLU(self.sectors, self.m_reps(R0.copy())).solve_blocks(R0)

    # --- n x n references -------------------------------------------------
    def r0(self, bp: BranchPoint) -> np.ndarray:
        return assemble_r0(self.grid, bp)

    def gj(self, j: int) -> np.ndarray:
        return assemble_gj(self.grid, j)

    def gj_plus(self, j: int, lam0: float) -> np.ndarray:
        return assemble_gj_plus(self.grid, j, lam0)

    def K(self, bp: BranchPoint) -> np.ndarray:
        return self.r0(bp) * self.V[None, :]

    @property
    def K0(self) -> np.ndarray:
        return self.gj(0) * self.V[None, :]

    def M(self, bp: BranchPoint) -> np.ndarray:
        A = self.K(bp)
        A[np.diag_indices(self.grid.n)] += 1.0
        return A

    def R(self, bp: BranchPoint) -> np.ndarray:
        """The resolvent, n x n: the blocks of `R_sectors` expanded
        (`ReflectionGroup.expand`)."""
        return self.sectors.expand(self.R_sectors(bp))

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
        representation: int u v = -<G2 (Vu), J(Vv)>, paired on the sector
        blocks of G2 (`ReflectionGroup.bilinear`).  This removes the
        ball-truncation error of the plain grid pairing."""
        fu, fv = self.w * self.V * u, self.V * v
        return complex(-self.sectors.bilinear(
            self._g2_sectors, fu[:, None], fv[:, None])[0, 0])


# ---------------------------------------------------------------------------
# types

@dataclass(frozen=True)
class EigenNearMinusOne:
    eigenvalue: complex
    gap: float
    geometric_multiplicity: int
    algebraic_multiplicity: int
    eigenvectors: np.ndarray        # (n, k) null-space basis of Id + K
    # cluster eigenvalues in each parity sector of the operator's group, in
    # its sector order (trivial character first)
    sector_counts: Tuple[int, ...]
    # the sector of each eigenvector column
    eigenvector_sectors: Tuple[int, ...]

    def __post_init__(self):
        if sum(self.sector_counts) != self.algebraic_multiplicity:
            raise ValueError(f"sector counts {list(self.sector_counts)} do "
                             f"not add up to the algebraic multiplicity "
                             f"{self.algebraic_multiplicity}")


@dataclass(frozen=True)
class ZeroClassification:
    kind: str                       # regular | first | second | third
    k: int
    resonance_state: Optional[np.ndarray]
    eigenvectors: List[np.ndarray]  # marker-free kernel directions
    integral_marker: complex
    marker_tol: float
    # the -1 cluster of K0 this classification was read from (None for a
    # regular threshold); the threshold expansion projects onto it
    detection: Optional[EigenNearMinusOne] = None


@dataclass(frozen=True)
class RieszProjection:
    # per sector of the operator's group: (Q1, A) with Q1 an orthonormal
    # basis of the cluster's invariant subspace in the sector and A =
    # Id + T11 the matrix of Id + K_s on it (K_s Q1 = Q1 T11), or None for a
    # sector without cluster eigenvalues
    bases: List[Optional[Tuple[np.ndarray, np.ndarray]]]
    rank: int                       # cluster eigenvalues over the sectors


# ---------------------------------------------------------------------------
# operations

def detect_minus_one(K: np.ndarray, group: ReflectionGroup,
                     tol: float = 1e-6) -> Optional[EigenNearMinusOne]:
    """The eigenvalue cluster of K near -1, or None when no eigenvalue lies
    within tol of it, from the flat sector blocks K of a G-invariant
    operator (`Discretization.K0_sectors`, `K_sectors`; the one-block group
    of the identity for a matrix without symmetry): the eigenvalues of
    every block, the cluster gap over all of them, and the null space of
    Id + K from the SVD of each Id + K_s against one tolerance from the
    largest singular value over the blocks, lifted to the nodes
    (`ReflectionGroup.from_sectors`).
    ValueError when the cluster is not separated from the rest, or when it
    is not empty but no singular value falls under the tolerance."""
    blocks = group.split(K)
    evals = [sla.eigvals(B) for B in blocks]
    d = [np.abs(e + 1.0) for e in evals]
    counts = tuple(int((ds <= tol).sum()) for ds in d)
    if not any(counts):
        return None
    d_all = np.concatenate(d)
    in_cluster = d_all <= tol
    rest = d_all[~in_cluster]
    gap = float(rest.min()) if rest.size else np.inf
    if rest.size and gap <= 2.0 * tol:
        raise ValueError("ill-separated cluster")
    # geometric multiplicity and kernel basis from the SVD of each Id + K_s
    svds = [sla.svd(np.eye(len(B)) + B) for B in blocks]
    null_tol = max(tol, 1e5 * np.finfo(float).eps
                   * max(sv[0] for _, sv, _ in svds))
    null = [Vh[len(sv) - int((sv < null_tol).sum()):].conj().T
            for _, sv, Vh in svds]
    k = sum(v.shape[1] for v in null)
    if k == 0:
        # sigma_min(Id + K) <= |lambda + 1| <= tol <= null_tol holds for the
        # cluster eigenvalue, so an empty null space is a roundoff failure
        smin = min(sv[-1] for _, sv, _ in svds)
        raise ValueError(f"eigenvalue within {tol:g} of -1 but sigma_min "
                         f"{smin:.3e} >= null tolerance {null_tol:.3e}")
    # each sector's null vectors as their own columns, sector by sector
    Y, first = [], 0
    for v in null:
        Y.append(np.zeros((len(v), k), dtype=complex))
        Y[-1][:, first:first + v.shape[1]] = v
        first += v.shape[1]
    vecs = group.from_sectors(Y)
    e_all = np.concatenate(evals)[in_cluster]
    eig = complex(e_all[np.argmin(d_all[in_cluster])])
    return EigenNearMinusOne(eigenvalue=eig, gap=gap, geometric_multiplicity=k,
                             algebraic_multiplicity=int(in_cluster.sum()),
                             eigenvectors=vecs, sector_counts=counts,
                             eigenvector_sectors=tuple(
                                 s for s, v in enumerate(null)
                                 for _ in range(v.shape[1])))


def tune_coupling(grid: QuadratureGrid, template: np.ndarray, target: str,
                  lam0: Optional[float] = None) -> complex:
    """Coupling gamma* such that -1 is an eigenvalue of G0 diag(gamma* W)
    (threshold) or of R0+(lam0) diag(gamma* W) (positive energy): with mu the
    eigenvalue of largest modulus of the untuned operator, gamma* = -1/mu.
    The eigenvalues come from the sector blocks of K0 or K(lam0 + i0) of a
    `Discretization` of the template (W at every node), one eigvals per
    class representative: every other block of a class is its
    representative's up to a signed permutation, with the same
    eigenvalues."""
    W = np.asarray(template, dtype=complex)
    if np.max(np.abs(W)) == 0:
        raise ValueError("template too weak")
    if target == "positive" and (lam0 is None or lam0 <= 0):
        raise ValueError("positive target needs lam0 > 0")
    if target not in ("threshold_zero", "positive"):
        raise ValueError("unknown tuning target")
    disc = Discretization(Model(grid=grid, potential=sample_potential(
        grid, W, support_radius=float(grid.radii().max())), name="template"))
    flat = (disc.K0_sectors if target == "threshold_zero" else
            disc.K_sectors(BranchPoint.boundary(lam0, "+")))
    blocks = disc.sectors.split(flat)
    mu = np.concatenate([sla.eigvals(blocks[r])
                         for r in sorted(set(disc.sectors.sector_classes))])
    mu = mu[np.abs(mu) > 1e-12]
    if mu.size == 0:
        raise ValueError("template too weak")
    return complex(-1.0 / mu[np.argmax(np.abs(mu))])


def riesz_projection(K: np.ndarray, group: ReflectionGroup, eps: float,
                     detection: Optional[EigenNearMinusOne] = None
                     ) -> RieszProjection:
    """The range of the spectral projector onto the -1 cluster of the
    G-invariant operator with the flat sector blocks K, the eigenvalues
    inside the circle |w + 1| = eps, from one complex Schur form
    K_s = Q T Q^H of each block: ztrsen moves the selected eigenvalues into
    the leading block of T = [[T11, T12], [0, T22]] (Bai & Demmel 1993), so
    the leading columns Q1 of the reordered Q are an orthonormal basis of
    the range and T11 is K_s on it.  ValueError when the contour captures
    foreign spectrum or the reordering fails."""
    if detection is not None and eps > detection.gap / 2.0:
        raise ValueError("contour captures foreign spectrum")
    bases: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    rank = 0
    for B in group.split(K):
        T, Q = sla.schur(B, output="complex")
        select = np.abs(np.diag(T) + 1.0) < eps
        if not select.any():
            bases.append(None)
            continue
        Ts, Qs, _, m, _, _, info = ztrsen(select, T, Q, job="N")
        if info != 0:
            raise ValueError(f"ztrsen failed to reorder (info {info})")
        bases.append((Qs[:, :m], np.eye(m) + Ts[:m, :m]))
        rank += m
    return RieszProjection(bases=bases, rank=rank)


def marker_tolerance(disc: Discretization, psi: np.ndarray) -> float:
    """Scale-invariant threshold for the integral marker of a vector psi, or
    of the span of the orthonormal columns of an n x k psi:
    1e-6 |V|_1 max_i |psi_i|, with |psi_i| the 2-norm of row i.  For one
    vector that is its largest modulus; for a basis it does not depend on
    which orthonormal basis of the span is given."""
    v_l1 = float(np.sum(disc.w * np.abs(disc.V)))
    rows = np.asarray(psi).reshape(len(psi), -1)
    return 1e-6 * v_l1 * float(np.max(np.linalg.norm(rows, axis=1)))


def classify_zero(disc: Discretization,
                  tol: float = 1e-6) -> ZeroClassification:
    """Classify the zero threshold through the integral marker int V psi of
    the kernel directions of Id + K0 (zero marker <=> L^2 direction).

    w V is invariant under the symmetry group of the model, so a kernel
    vector outside the trivial character has marker zero: ValueError when
    one has a marker above the tolerance."""
    det = detect_minus_one(disc.K0_sectors, disc.sectors, tol=tol)
    if det is None:
        return ZeroClassification(kind="regular", k=0, resonance_state=None,
                                  eigenvectors=[], integral_marker=0.0,
                                  marker_tol=0.0)
    k = det.geometric_multiplicity
    basis = det.eigenvectors        # orthonormal columns
    markers = np.array([disc.marker(basis[:, i]) for i in range(k)])
    mtol = marker_tolerance(disc, basis)
    for mk, s in zip(markers, det.eigenvector_sectors):
        if s != 0 and abs(mk) > mtol:
            raise ValueError(f"null vector of sector {s} has integral marker "
                             f"{abs(mk):.3e} > {mtol:.3e}, but only the "
                             f"trivial character carries one")
    if np.linalg.norm(markers) <= mtol:
        return ZeroClassification(kind="second", k=k, resonance_state=None,
                                  eigenvectors=[basis[:, i] for i in range(k)],
                                  integral_marker=0.0, marker_tol=mtol,
                                  detection=det)
    # direction of maximal marker inside the kernel
    c = markers.conj() / np.linalg.norm(markers)
    res = basis @ c
    res_marker = disc.marker(res)
    if k == 1:
        return ZeroClassification(kind="first", k=1, resonance_state=res,
                                  eigenvectors=[], integral_marker=res_marker,
                                  marker_tol=mtol, detection=det)
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
                              marker_tol=mtol, detection=det)


# contour eigensolver: probe-block width (> zeros per contour), A0 rank
# tolerance relative to the integrand size, sigma_min(M) / ||M|| at a zero
_PROBES, _RANK_TOL, _ZERO_TOL = 16, 1e-4, 1e-6


def _contour_matrices(disc: Discretization, center: complex,
                      dk: np.ndarray) -> Iterator[Tuple[np.ndarray,
                                                        np.ndarray]]:
    """(nodes, representatives' blocks of M(center + dk[q]) for q in nodes,
    one row per node: `Discretization.M_reps`) over the trapezoidal nodes
    of `_contour_zeros`, in batches of `Discretization.batch_nodes` kernel
    table rows.  On an ellipse centred on the imaginary axis with an even
    node count N, node N/2 - 1 - q (mod N) is -conj(k_q), where R0 is the
    entrywise conjugate of R0(k_q) (self-cell rule included), and so are
    its blocks (the sector basis is real): one row of R0 serves each
    mirrored pair (`Discretization.r0_reps`, `m_reps`).  Other ellipses
    gather a row per node."""
    N, b = len(dk), disc.batch_nodes
    ks = center + dk
    q = np.arange(N)
    if complex(center).real != 0.0 or N % 2:
        for s in range(0, N, b):
            yield q[s:s + b], disc.M_reps(ks[s:s + b])
        return
    mirror = (N // 2 - 1 - q) % N
    rows = q[mirror >= q]               # each walked with its partner
    for s in range(0, len(rows), b):
        r = rows[s:s + b]
        R0 = disc.r0_reps(ks[r])
        paired = mirror[r] != r
        partners = np.conj(R0[paired])
        yield r, disc.m_reps(R0)
        del R0
        yield mirror[r[paired]], disc.m_reps(partners)
        del partners


def _probe_block(grid) -> np.ndarray:
    """The n x _PROBES random probe block of the contour moments, drawn in
    the lexicographic order of the node coordinates: a function of the
    node positions, so that a permutation of the nodes permutes its rows
    and leaves every rank decision of a contour as it is."""
    rng = np.random.default_rng(0)
    P = np.empty((grid.n, _PROBES), dtype=complex)
    P[np.lexsort(grid.nodes.T[::-1])] = (
        rng.standard_normal((grid.n, _PROBES))
        + 1j * rng.standard_normal((grid.n, _PROBES)))
    return P


def _contour_moments(disc: Discretization, center: complex, ax: float,
                     ay: float, n_nodes: int, count_only: bool = False
                     ) -> Tuple[np.ndarray, np.ndarray, float]:
    """(per-class windings, moments A, scale) of Beyn's method on the
    ellipse center + ax cos th + i ay sin th (`_contour_zeros`): per batch
    of nodes (`_contour_matrices`) one checked LU per representative per
    node (`SectorLU`), and per node the solve of the representative's rows
    P_r of the fixed probe block; the arg dets, the moments A_p =
    (1/2 pi i) oint (k - center)^p M_r^{-1} P_r dk (p = 0, 1), stacked over
    the representatives, and their size sum |w_q| ||X_q|| are taken for the
    whole batch at once.  `count_only`: no probe solve, A = None."""
    n, group = disc.grid.n, disc.sectors
    reps = np.unique(group.sector_classes)
    P = _probe_block(disc.grid)
    Ps = group.to_sectors(P)
    probes = [Ps[r] for r in reps]
    rows = np.cumsum([0] + [len(C) for C in probes])
    th = 2.0 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    dk = ax * np.cos(th) + 1j * ay * np.sin(th)
    wq = (-ax * np.sin(th) + 1j * ay * np.cos(th)) / (1j * n_nodes)
    A = None if count_only else np.zeros((2, rows[-1] * _PROBES),
                                         dtype=complex)
    scale, arg_det = 0.0, np.empty((n_nodes, len(reps)))
    for nodes, M in _contour_matrices(disc, center, dk):
        lu = SectorLU(group, M)
        arg_det[nodes] = lu.arg_det()
        if not count_only:
            X = np.empty((len(nodes), rows[-1], _PROBES), dtype=complex)
            for i in range(len(nodes)):
                for x, a, b in zip(lu.solve(i, probes), rows, rows[1:]):
                    X[i, a:b] = x
            X = X.reshape(len(nodes), -1)
            A += np.array([wq[nodes], wq[nodes] * dk[nodes]]) @ X
            # ||X_q||, Frobenius, from the real and imaginary parts
            X = X.view(float)
            scale += float(np.abs(wq[nodes])
                           @ np.sqrt(np.einsum("ij,ij->i", X, X)))
            del X
        # free the batch before the next one is gathered
        del M, lu
    steps = np.angle(np.exp(1j * np.diff(arg_det, axis=0,
                                         append=arg_det[:1])))
    winding = np.rint(steps.sum(axis=0) / (2.0 * np.pi)).astype(int)
    return winding, None if count_only else A.reshape(2, -1, _PROBES), scale


def _contour_zeros(disc: Discretization, center: complex, ax: float,
                   ay: float, n_nodes: int, count_only: bool = False
                   ) -> Tuple[List[Tuple[complex, np.ndarray]], int]:
    """Zeros of the entire M(k) = Id + R0(k^2) V, k on both sheets, inside
    the ellipse center + ax cos th + i ay sin th (Beyn's method) on the
    class representatives of the sector blocks of M alone: the other blocks
    of a class are the representative's up to a signed permutation, with
    the same zeros, and no node forms them.  The nodes run in batches
    (`_contour_moments`): one kernel table per batch, the representatives'
    blocks of the batch gathered and transformed at once
    (`Discretization.r0_reps`) within _BATCH_BYTES, and then only getrf,
    gecon and getrs per node and representative.
    The moments A_p of the representatives' rows of a fixed probe block
    are stacked over the representatives, and each class's winding count
    comes from the representative's arg det.  Accepted only if the rank of
    the stacked A0 (against sum |w_q| ||X_q||) equals the sum of the
    per-class windings, which must be below the probe width, each pencil
    eigenvalue lies inside and sigma_min of M, from all its sector blocks,
    is negligible there; else ValueError.  Returns the distinct zeros with
    the singular values of M at each (descending), and the count: the sum
    over the classes of the class size times the winding (`count_only`:
    the count alone, from the factorizations alone: no probe solve and no
    moments)."""
    _, sizes = np.unique(disc.sectors.sector_classes, return_counts=True)
    winding, A, scale = _contour_moments(disc, center, ax, ay, n_nodes,
                                         count_only)
    count = int(np.dot(sizes, winding))
    if count_only:
        return [], count
    U, s, Wh = sla.svd(A[0], full_matrices=False)
    rank, total = int((s > _RANK_TOL * scale).sum()), int(winding.sum())
    if rank != total or total >= _PROBES:
        raise ValueError(f"moment rank {rank} but per-class winding total "
                         f"{total} (per-class windings {winding.tolist()}; "
                         f"weighted count {count}; probe width {_PROBES})")
    zeros: List[Tuple[complex, np.ndarray]] = []
    B = (U[:, :rank].conj().T @ A[1] @ Wh[:rank].conj().T) / s[:rank]
    for e in np.linalg.eigvals(B):
        k = complex(center + e)
        if (e.real / ax) ** 2 + (e.imag / ay) ** 2 >= 1.0:
            raise ValueError(f"pencil eigenvalue k = {k:.6g} lies outside "
                             f"the contour (winding count {count})")
        if any(abs(k - k0) < _ZERO_TOL * max(1.0, abs(k)) for k0, _ in zeros):
            continue
        # the sector basis is orthogonal: sigma(M) is the union of the
        # blocks' singular values
        sv = np.sort(np.concatenate([
            sla.svdvals(B) for B in disc.sectors.split(
                disc.M_sectors(BranchPoint(z=k * k, sqrt_z=k)))]))[::-1]
        if sv[-1] > _ZERO_TOL * sv[0]:
            z = k * k
            raise ValueError(f"contour zero at lambda* = {z.real:.6g} "
                             f"{z.imag:+.3e}i has sigma_min = {sv[-1]:.3e} "
                             f"(winding count {count})")
        zeros.append((k, sv))
    return zeros, count


def scan_positive_resonances(disc: Discretization,
                             interval: Tuple[float, float]
                             ) -> List[Tuple[float, int]]:
    """Outgoing resonances (lambda_j, N_j) in (a, b): the real zeros
    k_j = sqrt(lambda_j) of M(k) inside a flat ellipse over [sqrt a, sqrt b]
    (a sixth as high as wide, 32 nodes), with N_j the geometric count.
    Zeros with |Im k| > 1e-8 |k| are not embedded and are left out."""
    a, b = interval
    if not (0 < a < b):
        raise ValueError("scan interval must satisfy 0 < a < b")
    ka, kb = np.sqrt(a), np.sqrt(b)
    half = (kb - ka) / 2.0
    zeros, _ = _contour_zeros(disc, (ka + kb) / 2.0, half, half / 6.0, 32)
    return sorted((float(k.real ** 2), int((s < max(1e-6, 1e3 * s[-1])).sum()))
                  for k, s in zeros if abs(k.imag) <= 1e-8 * abs(k))


# ---------------------------------------------------------------------------
# hypotheses

# a hypothesis holds when its Gram determinant exceeds this in modulus
HYPOTHESIS_DET_TOL = 1e-10


def check_hypotheses(disc: Discretization,
                     classification: ZeroClassification) -> dict:
    """Evaluate the Gram-determinant conditions behind the threshold
    expansion theorems.

    H1: det(<phi_j, J phi_i>) != 0 over the threshold kernel directions.
    H2: marker separation of resonance/eigen directions plus the H1-type
        condition on the eigen block (third kind).
    H3, the condition at an outgoing resonance, is read off the B matrix
    of each resonance expansion (`cli.run_pipeline`).
    """
    report = {"H1": True, "H2": True, "determinants": {}}

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
    return report
