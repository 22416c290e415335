"""
Reflection symmetry of a Nystrom discretization, and the checked
factorization of the block-diagonal matrices it gives.

The eight reflections x_i -> +-x_i form the group Z_2^3; an element is a
bit mask g (bit i set: x_{i+1} -> -x_{i+1}), and the product is XOR.  A
subgroup G that maps the grid onto itself (nodes and weights) splits the
nodes into G-orbits O_a, each with its smallest node index r_a as
representative.  When G also leaves the potential invariant, every Nystrom
matrix A of the model (R0, M = Id + R0 V, their inverses) commutes with the
node permutations, A[g i, g j] = A[i, j], and is block diagonal in the
orthonormal parity-sector basis, one block per character sigma of G
(Allgower, Boehmer, Georg & Miranda, SIAM J. Numer. Anal. 29, 1992):

    q_{sigma,a}[g r_a] = chi_sigma(g) / sqrt|O_a|  for each orbit a on whose
                                                   stabilizer chi_sigma is 1,
    A_sigma[a, b] = (sqrt(|O_a| |O_b|) / |G|) sum_g chi_sigma(g) A[r_a, g r_b].

A block needs only the rows of A at the representatives and a |G|-point
+-1 transform; the sector sizes add up to n.  Every G-invariant operator
of the pipeline is kept as one flat buffer of its blocks (`transform`),
made by `birman_schwinger.Discretization` from the kernels' entries at the
representative rows.  Vectors go into the sectors (`to_sectors`, Q_s^T X)
and back (`from_sectors`, sum_s Q_s Y_s); outer products X Y^T (`outer`)
and pairings X^T A Y (`bilinear`) run on them.  The n x n matrix of a
buffer (`expand`) and the buffer of an n x n matrix (`blocks`) are for
references.  G = {e} is one sector with the identity basis.

An axis permutation pi (x -> x[perm]) with node map p is a symmetry when it
maps the grid, V and G onto themselves (pi g pi^{-1} in G, `conjugation`).
It maps sector sigma to sigma' = sigma o pi^{-1}, chi_sigma'(pi g pi^{-1})
= chi_sigma(g).  Writing p[r_a] = h_a r_a' (h_a in G), p takes the node
g r_a to (pi g pi^{-1}) h_a r_a', so it maps q_{sigma,a} onto
d_a q_{sigma',a'} with d_a = chi_sigma'(h_a), and

    A_sigma[a, b] = d_a d_b A_sigma'[a', b']

for every A that also commutes with p.  The blocks of a class of sectors
joined by these relations are one matrix up to a signed permutation; the
class's smallest sector represents it (`sector_classes`).  The
representatives' blocks alone, without the others, come from the entries
by a transform for their characters alone (`rep_transform`, one row per
matrix of a batch) or from a full buffer (`to_reps`); `SectorLU` factors
them for a batch of matrices and solves right-hand sides given for them.
A matrix that commutes with p too, R0 and M^{-1} R0 for example, needs
only its representatives' blocks, the others set from them (`from_reps`,
an exact +-1 copy).  The reference models' 8 sectors form the
classes {0}, {1, 2, 4}, {3, 5, 6}, {7} under all five permutations, and
{0}, {1}, {2, 4}, {3, 5}, {6}, {7} under x_2 <-> x_3 alone.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import zgecon, zgetrf, zgetrs

__all__ = ["ReflectionGroup", "BatchLU", "BlockLU", "SectorLU",
           "reflection_axes"]


def reflection_axes(g: int) -> List[int]:
    """The axes (1-based) that the reflection with bit mask g flips."""
    return [i + 1 for i in range(3) if g >> i & 1]


class ReflectionGroup:
    """A subgroup G of the reflections x_i -> +-x_i acting on the nodes of a
    grid, from the node map of each element: nodes[maps[g][i]] is the image
    of nodes[i].  Holds the orbits (`orbit`, representatives `reps`, sizes
    `sizes`) and, for each node i, the index `elem[i]` into `elements` of an
    element taking the representative of i's orbit to i.  ValueError unless
    the maps hold the identity and are closed under composition."""

    def __init__(self, maps: Dict[int, np.ndarray]):
        self.elements = np.array(sorted(maps), dtype=np.intp)
        self.maps = np.array([maps[g] for g in self.elements], dtype=np.intp)
        n = self.maps.shape[1]
        index = {int(g): e for e, g in enumerate(self.elements)}
        if self.elements[0] != 0 or not np.array_equal(self.maps[0],
                                                      np.arange(n)):
            raise ValueError("reflection maps must hold the identity")
        for g in self.elements:
            for h in self.elements:
                gh = index.get(int(g ^ h))
                if gh is None or not np.array_equal(
                        maps[g][maps[h]], self.maps[gh]):
                    raise ValueError("reflection maps are not closed under "
                                     "composition")
        # the orbit of i is maps[:, i]; its smallest index represents it
        self.reps, self.orbit = np.unique(self.maps.min(axis=0),
                                          return_inverse=True)
        self.sizes = np.bincount(self.orbit)
        self.elem = np.argmax(self.maps[:, self.reps[self.orbit]]
                              == np.arange(n), axis=0)
        # products as element indices: elements[prod[e, f]] = e XOR f
        self._prod = np.array([[index[int(g ^ h)] for h in self.elements]
                               for g in self.elements], dtype=np.intp)
        # node maps of symmetry axis permutations (`with_permutations`)
        self.permutations: List[np.ndarray] = []

    @property
    def order(self) -> int:
        return len(self.elements)

    def subgroup(self, keep: Sequence[int]) -> "ReflectionGroup":
        """The subgroup of the elements (bit masks) in `keep`."""
        keep = set(keep)
        return ReflectionGroup({int(g): m for g, m in
                                zip(self.elements, self.maps)
                                if int(g) in keep})

    def with_permutations(self, permutations: Sequence[np.ndarray]
                          ) -> "ReflectionGroup":
        """This group with the node maps of axis permutations that the
        caller has found to be symmetries of the grid and the operators:
        they sort the sectors into classes of equivalent blocks
        (`sector_classes`).  ValueError unless each maps the group onto
        itself (`conjugation`)."""
        out = self.subgroup(self.elements.tolist())
        out.permutations = [np.asarray(p) for p in permutations]
        if any(out.conjugation(p) is None for p in out.permutations):
            raise ValueError("a permutation does not map the reflection "
                             "group onto itself")
        return out

    def conjugation(self, p: np.ndarray) -> Optional[np.ndarray]:
        """For the node map p of an axis permutation pi, the element index
        of pi g pi^{-1} (node map p o maps[g] o p^{-1}) for each element g,
        or None when one of them is not in the group."""
        pinv = np.argsort(p)
        index = {m.tobytes(): e for e, m in enumerate(self.maps)}
        out = [index.get(p[m[pinv]].tobytes()) for m in self.maps]
        return None if None in out else np.array(out, dtype=np.intp)

    # --- the parity-sector basis ------------------------------------------
    @cached_property
    def _sectors(self) -> "_SectorTables":
        m, K = self.order, len(self.reps)
        bits = np.array([[bin(s & int(g)).count("1") % 2
                          for g in self.elements] for s in range(8)])
        _, first = np.unique(bits, axis=0, return_index=True)
        chars = 1.0 - 2.0 * bits[np.sort(first)]
        # orbit a is in sector s iff chi_s is 1 on the stabilizer of r_a
        stab = self.maps[:, self.reps].T == self.reps[:, None]    # (K, m)
        member = np.all((chars[:, None, :] == 1.0) | ~stab[None], axis=2)
        chars = chars[member.any(axis=1)]
        cols = [np.flatnonzero(row) for row in member if row.any()]
        pick, scale = [], []
        for s, c in enumerate(cols):
            a, b = np.meshgrid(c, c, indexing="ij")
            pick.append(((s * K + a) * K + b).ravel(order="F"))
            # sqrt of the product: exactly 1 on free orbits
            scale.append(np.sqrt(self.sizes[a] * self.sizes[b]).ravel(
                order="F") / m)
        return _SectorTables(chars, cols, np.concatenate(pick),
                             np.concatenate(scale),
                             _Layout.of([len(c) for c in cols]))

    @cached_property
    def _classes(self) -> "_SectorClasses":
        """Sector s and s' = s o pi^{-1} have equivalent blocks under each
        permutation pi: pi maps the basis vector q_{s,a} onto
        d_a q_{s',a'}, with p[r_a] = h_a r_{a'} and d_a = chi_{s'}(h_a), so
        A_s[a, b] = d_a d_b A_{s'}[a', b'] for every matrix A that commutes
        with the node maps of G and of pi.  Every sector is related to the
        smallest sector reachable from it (its representative) by composing
        these relations."""
        t, S = self._sectors, len(self._sectors.cols)
        # edges[s]: (s', positions of the a' in cols[s'], signs d_a)
        edges: List[List[Tuple[int, np.ndarray, np.ndarray]]] = [
            [] for _ in range(S)]
        for p in self.permutations:
            for s, edge in enumerate(self.sector_map(p)):
                edges[s].append(edge)
        rel = [(s, np.arange(len(c)), np.ones(len(c)))
               for s, c in enumerate(t.cols)]
        changed = True
        while changed:
            changed = False
            for s in range(S):
                for s2, pos, d in edges[s]:
                    r, pos2, d2 = rel[s2]
                    if r < rel[s][0]:
                        rel[s] = (r, pos2[pos], d * d2[pos])
                        changed = True
        return _SectorClasses.build(t, rel)

    def sector_map(self, p: np.ndarray
                   ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """For the node map p of an axis permutation pi that maps the group
        onto itself (`conjugation`), per sector s: (s', pos, d) with
        s' = s o pi^{-1}, pos the position of each a' among the orbits of
        s' and d the signs d_a, so that A_s[a, b] = d_a d_b A_s'[a', b']
        for every matrix A that commutes with the node maps of G and p."""
        t, conj = self._sectors, self.conjugation(p)
        image = p[self.reps]
        orbit, h = self.orbit[image], self.elem[image]
        out = []
        for s, c in enumerate(t.cols):
            chi = np.empty(self.order)
            chi[conj] = t.chars[s]          # chi_{s'}(pi g pi^-1)
            s2 = int(np.flatnonzero((t.chars == chi).all(axis=1))[0])
            out.append((s2, np.searchsorted(t.cols[s2], orbit[c]),
                        t.chars[s2][h[c]]))
        return out

    @property
    def sector_classes(self) -> List[int]:
        """The representative (smallest) sector of each sector's class."""
        return [int(r) for r in self._classes.rep]

    def _fill_members(self, flat: np.ndarray) -> None:
        """Set every block of the flat buffer (the last axis) that is not a
        class representative from its representative's block, in place."""
        c = self._classes
        values = np.take(flat, c.src, axis=-1)
        values *= c.sign
        flat[..., c.dst] = values

    def to_reps(self, flat: np.ndarray) -> np.ndarray:
        """The class representatives' blocks of a flat block buffer (the
        last axis), ascending, one after the other: the layout of
        `rep_transform` and `SectorLU`."""
        return flat[..., self._classes.entries]

    def from_reps(self, reps: np.ndarray) -> np.ndarray:
        """The flat blocks of every sector from the representatives' blocks
        (the last axis, as `to_reps` lays them out), the other blocks set
        from them (`_fill_members`)."""
        out = np.empty(reps.shape[:-1] + self._sectors.pick.shape,
                       dtype=complex)
        out[..., self._classes.entries] = reps
        self._fill_members(out)
        return out

    @property
    def rep_columns(self) -> np.ndarray:
        """The orbit (index into `reps`) of each representative block
        entry's column, in the layout of `to_reps`."""
        return self._rep_tables.columns

    @cached_property
    def _rep_tables(self) -> "_RepTables":
        """The tables of `rep_transform`, built on first use."""
        t, c, K = self._sectors, self._classes, len(self.reps)
        # entry (r K + a) K + b of the full transform is entry
        # (i K + a) K + b of the representatives' one
        pick = t.pick[c.entries] - np.repeat(
            (np.array(c.reps) - np.arange(len(c.reps))) * K * K,
            [len(t.cols[r]) ** 2 for r in c.reps])
        return _RepTables(
            t.chars[c.reps],
            pick.astype(np.min_scalar_type(len(c.reps) * K * K - 1)),
            t.scale[c.entries],
            (pick % K).astype(np.min_scalar_type(K - 1)))

    @property
    def rep_diagonal(self) -> np.ndarray:
        """The positions of the representatives' block diagonals in the
        layout of `to_reps`."""
        return self._classes.layout.diag

    @property
    def sector_orbits(self) -> List[np.ndarray]:
        """For each sector, the orbits (indices into `reps`) it holds."""
        return self._sectors.cols

    @property
    def flat_columns(self) -> np.ndarray:
        """The orbit (index into `reps`) of each flat block entry's column."""
        return self._sectors.pick % len(self.reps)

    @property
    def flat_diagonal(self) -> np.ndarray:
        """The positions of the blocks' diagonals in a flat block buffer."""
        return self._sectors.layout.diag

    def split(self, flat: np.ndarray) -> List[np.ndarray]:
        """The blocks of a flat block buffer (`transform`), as
        Fortran-ordered views (getrf factors them in place)."""
        out, start = [], 0
        for c in self._sectors.cols:
            k = len(c)
            out.append(flat[start:start + k * k].reshape(k, k, order="F"))
            start += k * k
        return out

    @cached_property
    def rep_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols), each (|G|, K, K): the entry (r_a, g r_b) of a
        matrix that its sector blocks need, at (g, a, b); n^2 / |G| pairs
        when every orbit is free."""
        K = len(self.reps)
        rows = np.broadcast_to(self.reps[None, :, None], (self.order, K, K))
        cols = np.broadcast_to(self.maps[:, self.reps][:, None, :],
                               (self.order, K, K))
        return rows, cols

    def transform(self, T: np.ndarray) -> np.ndarray:
        """The sector blocks Q_s^T A Q_s of a G-invariant matrix A from its
        entries T = A[rep_pairs]: one +-1 transform over g; each block
        column-major, one after the other in one flat buffer (`split` gives
        the blocks)."""
        t = self._sectors
        return np.take(t.chars @ T.reshape(self.order, -1), t.pick) * t.scale

    def rep_transform(self, T: np.ndarray) -> np.ndarray:
        """The class representatives' blocks (`sector_classes`) of the
        G-invariant matrices with the entries T = A[rep_pairs] on the last
        three axes (the leading axes a batch), without the other blocks:
        the +-1 transform for the representatives' characters alone, run on
        the real and imaginary parts at once (the characters are real), and
        their entries picked through one table (`_RepTables.pick`).
        One row per matrix in the layout of `to_reps`."""
        c = self._rep_tables
        lead = T.shape[:-3]
        T = np.ascontiguousarray(T, dtype=complex).reshape(
            lead + (self.order, -1))
        X = np.matmul(c.chars, T.view(float)).view(complex)
        out = np.take(X.reshape(lead + (-1,)), c.pick, axis=-1)
        # scaled on the real view: no complex copy of the factors
        parts = out.view(float).reshape(out.shape + (2,))
        parts *= c.scale[:, None]
        return out

    def blocks(self, A: np.ndarray) -> np.ndarray:
        """The flat sector blocks of a G-invariant n x n matrix A, from its
        rows at the representatives (`transform`)."""
        rows, cols = self.rep_pairs
        return self.transform(A[rows, cols])

    def to_sectors(self, X: np.ndarray) -> List[np.ndarray]:
        """Q_s^T X for each sector s of an n x p matrix X."""
        chars, cols = self._sectors.chars, self._sectors.cols
        K, p = len(self.reps), X.shape[1]
        Y = X[self.maps[:, self.reps]].reshape(self.order, K * p)
        Z = (chars @ Y).reshape(len(cols), K, p)
        root = np.sqrt(self.sizes)
        return [np.asfortranarray(Z[s][c] * (root[c] / self.order)[:, None])
                for s, c in enumerate(cols)]

    def from_sectors(self, Y: Sequence[np.ndarray]) -> np.ndarray:
        """sum_s Q_s Y_s as an n x p matrix, the inverse of `to_sectors`:
        node i of orbit a gets chi_s(g_i) Y_s[a] / sqrt|O_a| from each
        sector s holding a."""
        chars, cols = self._sectors.chars, self._sectors.cols
        K, p = len(self.reps), Y[0].shape[1]
        Z = np.zeros((len(cols), K, p), dtype=np.result_type(*Y))
        for s, c in enumerate(cols):
            Z[s, c] = Y[s]
        W = (chars.T @ Z.reshape(len(cols), K * p)).reshape(self.order, K, p)
        return W[self.elem, self.orbit] / np.sqrt(self.sizes)[self.orbit,
                                                              None]

    @staticmethod
    def join(blocks: Sequence[np.ndarray]) -> np.ndarray:
        """The flat block buffer of a list of blocks, the inverse of
        `split`."""
        return np.concatenate([B.ravel(order="F") for B in blocks])

    @cached_property
    def _expand_index(self) -> np.ndarray:
        """(n, n) index of entry (i, j) into the back-transformed blocks:
        B[i, j] = B~[elem_i XOR elem_j, orbit_i, orbit_j], in the smallest
        unsigned type that holds |G| K^2."""
        K = len(self.reps)
        t = np.min_scalar_type(self.order * K * K - 1)
        orbit = self.orbit.astype(t)
        # built in that type: no n x n intermediate wider than the result
        out = self._prod.astype(t)[self.elem[:, None], self.elem]
        out *= K
        out += orbit[:, None]
        out *= K
        out += orbit
        out.flags.writeable = False
        return out

    def expand(self, flat: np.ndarray) -> np.ndarray:
        """sum_s Q_s B_s Q_s^T as an n x n matrix from the flat blocks B_s:
        one +-1 transform over the sectors and one gather through
        `_expand_index`."""
        t, K = self._sectors, len(self.reps)
        Bh = np.zeros(len(t.cols) * K * K, dtype=complex)
        Bh[t.pick] = flat / (t.scale * self.order)
        Bt = t.chars.T @ Bh.reshape(len(t.cols), K * K)
        return np.take(Bt, self._expand_index)

    def outer(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """The flat sector blocks (Q_s^T X)(Q_s^T Y)^T of X Y^T (X, Y n x p)
        when X Y^T is G-invariant, from `to_sectors` alone."""
        return self.join([A @ B.T for A, B in zip(self.to_sectors(X),
                                                  self.to_sectors(Y))])

    def bilinear(self, flat: np.ndarray, X: np.ndarray,
                 Y: np.ndarray) -> np.ndarray:
        """X^T A Y (X n x p, Y n x q) for the G-invariant A with the flat
        sector blocks `flat`: sum_s (Q_s^T X)^T A_s (Q_s^T Y)."""
        return sum(A.T @ B @ C for A, B, C in zip(
            self.to_sectors(X), self.split(flat), self.to_sectors(Y)))


class _Layout(NamedTuple):
    """Where square blocks sit in a flat buffer that holds them
    column-major, one after the other."""
    blocks: List[Tuple[int, int, int]]  # (first entry, size, first column)
    colstart: np.ndarray    # the first entry of every block column
    first: np.ndarray       # the index of each block's first column
    diag: np.ndarray        # the positions of the block diagonals
    unpivoted: np.ndarray   # 0-based pivots of the blocks, no swaps

    @classmethod
    def of(cls, sizes: Sequence[int]) -> "_Layout":
        sizes = [int(k) for k in sizes]
        start = np.cumsum([0] + [k * k for k in sizes[:-1]])
        first = np.cumsum([0] + sizes[:-1])
        return cls([(int(s), k, int(f)) for s, k, f in
                    zip(start, sizes, first)],
                   np.concatenate([s + np.arange(k) * k
                                   for s, k in zip(start, sizes)]),
                   first,
                   np.concatenate([s + np.arange(k) * (k + 1)
                                   for s, k in zip(start, sizes)]),
                   np.concatenate([np.arange(k) for k in sizes]))


class _SectorTables(NamedTuple):
    """The parity-sector basis of a `ReflectionGroup` (K orbits), for flat
    block buffers: every block column-major, one after the other."""
    # (sectors, |G|), +-1: the distinct restrictions of the characters of
    # Z_2^3 to G that hold an orbit, trivial first
    chars: np.ndarray
    cols: List[np.ndarray]  # each sector's orbits
    pick: np.ndarray        # entry (a, b) of sector s: (s K + a) K + b
    scale: np.ndarray       # its factor sqrt(|O_a| |O_b|) / |G|
    layout: _Layout         # where the blocks sit


class _SectorClasses(NamedTuple):
    """The classes of equivalent sector blocks of a `ReflectionGroup`:
    entry (i, j) of block s is d_i d_j B_r[pos_i, pos_j], B_r the block of
    the class representative r."""
    rep: np.ndarray         # the representative of each sector
    reps: List[int]         # the representatives, ascending
    # the flat entries of the blocks that are not representatives, the
    # entry of the representative's block each is taken from, and its sign
    dst: np.ndarray
    src: np.ndarray
    sign: np.ndarray
    # the representatives' entries in the flat buffer, and where their
    # blocks sit when they are held alone (`ReflectionGroup.to_reps`)
    entries: np.ndarray
    layout: _Layout

    @classmethod
    def build(cls, t: _SectorTables,
              rel: Sequence[Tuple[int, np.ndarray, np.ndarray]]
              ) -> "_SectorClasses":
        """The tables from (r, pos, d) per sector."""
        sizes = [len(c) for c in t.cols]
        start = [s for s, _, _ in t.layout.blocks]
        rep = np.array([r for r, _, _ in rel])
        reps = [int(r) for r in np.unique(rep)]
        moved = [(s, r, pos, d) for s, (r, pos, d) in enumerate(rel)
                 if r != s]
        dst = [start[s] + np.arange(sizes[s] ** 2) for s, _, _, _ in moved]
        src = [(start[r] + pos[:, None] + sizes[r] * pos[None, :]).ravel(
            order="F") for _, r, pos, _ in moved]
        sign = [np.outer(d, d).ravel(order="F") for _, _, _, d in moved]
        entries = [start[r] + np.arange(sizes[r] ** 2) for r in reps]
        # the smallest types that hold them: the tables live as long as
        # the group
        index = np.min_scalar_type(sum(n * n for n in sizes) - 1)

        def table(parts, dtype):
            return (np.concatenate(parts) if parts else np.zeros(0)).astype(
                dtype)

        return cls(rep, reps, table(dst, index), table(src, index),
                   table(sign, np.int8), table(entries, index),
                   _Layout.of([sizes[r] for r in reps]))


class _RepTables(NamedTuple):
    """The representatives-only transform of a `ReflectionGroup` (K orbits):
    for each entry of the representatives' blocks, in the layout of
    `_SectorClasses.entries`, entry (a, b) of the i-th representative is
    (i K + a) K + b of the transform for their characters alone."""
    chars: np.ndarray       # the representatives' characters (reps, |G|)
    pick: np.ndarray        # (i K + a) K + b, in the smallest type
    scale: np.ndarray       # sqrt(|O_a| |O_b|) / |G|
    columns: np.ndarray     # b, the orbit of the entry's column


# ---------------------------------------------------------------------------
# checked block factorization

class BatchLU:
    """Checked LAPACK getrf of a batch of block-diagonal matrices, factored
    in place: row i of `flat` holds the square blocks of matrix i,
    column-major, one after the other, where `layout` places them.  The
    checks are those of `scipy.linalg.solve`: ValueError on a non-finite
    entry; LinAlgError on a zero pivot in any block, or when the 1-norm
    reciprocal condition number of a matrix, 1 / (max_s ||B_s||_1 max_s
    ||B_s^{-1}||_1) (`rcond`, each inverse norm from the block's gecon), is
    below machine epsilon.  The finiteness check, the block norms, the
    rcond test and arg det run on the whole batch at once; getrf and gecon
    are the only work per block, and getrs the only work per solve.
    `name` names the operator in the errors."""

    def __init__(self, flat: np.ndarray, layout: "_Layout", name: str):
        # contiguous complex: getrf overwrites the blocks' views in place,
        # which `arg_det` reads
        flat = self._flat = np.ascontiguousarray(flat, dtype=complex)
        if not np.isfinite(flat).all():
            raise ValueError("array must not contain infs or NaNs")
        self._layout = L = layout
        # ||B_s||_1: the largest column sum of |B_s|, for all blocks at once
        anorm = np.maximum.reduceat(np.add.reduceat(np.abs(flat), L.colstart,
                                                    axis=1), L.first, axis=1)
        inorm = np.empty_like(anorm)
        self._piv = np.empty((len(flat), len(L.unpivoted)), dtype=np.int32)
        # (lu, piv) of each block of each matrix
        self._factors: List[List[Tuple[np.ndarray, np.ndarray]]] = []
        for i, row in enumerate(flat):
            factors = []
            for j, (s, k, f) in enumerate(L.blocks):
                lu, piv, info = zgetrf(row[s:s + k * k].reshape(k, k,
                                                                order="F"),
                                       overwrite_a=1)
                if info > 0:
                    raise np.linalg.LinAlgError(
                        f"{name} is singular (zero pivot U[{info - 1}, "
                        f"{info - 1}] of a {k} x {k} sector block)")
                a = anorm[i, j]
                rc, _ = zgecon(lu, a, norm="1")
                inorm[i, j] = np.inf if rc == 0.0 else 1.0 / (rc * a)
                self._piv[i, f:f + k] = piv
                factors.append((lu, piv))
            self._factors.append(factors)
        rcond = self.rcond = 1.0 / (anorm.max(axis=1) * inorm.max(axis=1))
        bad = np.flatnonzero(~(rcond >= np.finfo(float).eps))
        if bad.size:
            raise np.linalg.LinAlgError(f"{name} is ill-conditioned "
                                        f"(rcond {rcond[bad[0]]:.3e})")

    def arg_det(self) -> np.ndarray:
        """arg det B_s (mod 2 pi), (matrices, blocks): the angles of each
        block's LU diagonal and pi per row swap."""
        L = self._layout
        return np.add.reduceat(np.angle(self._flat[:, L.diag])
                               + np.pi * (self._piv != L.unpivoted),
                               L.first, axis=1)

    def solve(self, i: int, rhs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """B_s^{-1} C_s of matrix i for each block C_s of the right-hand
        side."""
        return [zgetrs(lu, piv, C)[0] for (lu, piv), C in
                zip(self._factors[i], rhs)]

    def solve_blocks(self, flat: np.ndarray) -> np.ndarray:
        """B_s^{-1} C_s for every block of every matrix, in place in `flat`
        (complex, C-contiguous, laid out as the factored buffer)."""
        for row, factors in zip(flat, self._factors):
            for (lu, piv), (s, k, _) in zip(factors, self._layout.blocks):
                C = row[s:s + k * k].reshape(k, k, order="F")
                X = zgetrs(lu, piv, C, overwrite_b=1)[0]
                if X is not C:          # not solved in place
                    C[...] = X
        return flat


class BlockLU:
    """The `BatchLU` of one matrix given as the list of its square blocks,
    of any sizes (the bordered Grushin blocks), copied into one buffer:
    `rcond` is its reciprocal condition number, `solve` takes one
    right-hand side per block."""

    def __init__(self, blocks: Sequence[np.ndarray], name: str):
        blocks = [np.asarray(B) for B in blocks]
        lu = BatchLU(ReflectionGroup.join(blocks)[None],
                     _Layout.of([len(B) for B in blocks]), name)
        self._lu, self._factors = lu, lu._factors[0]
        self.rcond = float(lu.rcond[0])

    def solve(self, rhs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """B_s^{-1} C_s for each block C_s of the right-hand side."""
        return self._lu.solve(0, rhs)


class SectorLU(BatchLU):
    """`BatchLU` of the sector blocks of Id + R0 V at a batch of nodes, one
    getrf and gecon per class of equivalent blocks
    (`ReflectionGroup.sector_classes`): row i of `flat` holds the class
    representatives' blocks of the i-th matrix, ascending
    (`ReflectionGroup.rep_transform`, `to_reps`).  Every block of a class
    has the representative's 1-norm, inverse 1-norm and determinant, so
    the rcond over the blocks and arg det need only the representatives.
    `solve` takes one right-hand side per representative; `solve_blocks`
    gives the representatives' blocks of M^{-1} B for a B that commutes
    with the permutations, as R0 does.  `of_blocks` is the one-node batch
    of the blocks of every sector, and `solve_flat` its M^{-1} B in all
    blocks."""

    def __init__(self, group: ReflectionGroup, flat: np.ndarray):
        super().__init__(flat, group._classes.layout, "Id + R0 V")
        self._group = group

    @classmethod
    def of_blocks(cls, group: ReflectionGroup, flat: np.ndarray
                  ) -> "SectorLU":
        """The one-node batch of the flat blocks of every sector
        (`ReflectionGroup.transform`); every entry, the other blocks' too,
        is checked finite."""
        if not np.isfinite(flat).all():
            raise ValueError("array must not contain infs or NaNs")
        return cls(group, group.to_reps(flat)[None])

    def solve_flat(self, flat: np.ndarray) -> np.ndarray:
        """The flat blocks of M^{-1} B, every sector, for the flat blocks of
        a B that commutes with the group and the permutations (a one-node
        batch): getrs on the representatives' blocks alone, the other
        blocks set from them (`ReflectionGroup.from_reps`)."""
        group = self._group
        return group.from_reps(self.solve_blocks(group.to_reps(flat)[None])[0])
