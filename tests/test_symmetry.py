"""The parity-sector layer: the reflection groups of grids and potentials,
the sector blocks of M(k) that every factorization runs on, the analysis
routines that run on the blocks (resolvent Taylor coefficients, weighted
norms, the -1 detection, the invariant subspace of the -1 cluster, the
Jordan chains and the Grushin series), and their agreement with dense
n x n references (`oracles.dense_resolvent`, `oracles.dense_contour_zeros`,
`oracles.dense_resolvent_taylor`, `oracles.dense_weighted_norm`,
`oracles.dense_detect_minus_one`, `oracles.dense_riesz_projection`,
`oracles.dense_grushin_expansion`, `oracles.dense_tune_coupling`), with
checks of the oracles' own Schur spectral projector."""
import numpy as np
import pytest
import scipy.linalg

import oracles
from test_birman_schwinger import check_invariant_subspace
from specthresh import grushin, symmetry
from specthresh.birman_schwinger import (Discretization, _contour_moments,
                                         _contour_zeros, _probe_block,
                                         detect_minus_one,
                                         invariant_subgroup, riesz_projection,
                                         tune_coupling)
from specthresh.grushin import (GrushinReduction, _structural_order,
                                resonance_resolvent_expansion,
                                threshold_resolvent_expansion)
from specthresh.kernels import (BranchPoint, assemble_gj, assemble_gj_plus,
                                assemble_r0)
from specthresh.model import (Model, QuadratureGrid, build_grid,
                              sample_potential, weighted_operator_norm,
                              weighted_sector_norm)
from specthresh.models import (first_kind_model, free_model,
                               gaussian_template, regular_model,
                               resonance_model, second_kind_model,
                               third_kind_model)
from specthresh.propagator import (_POLE_ELLIPSE, _SEAM, CutPropagator,
                                   _census_rects, _tile_ellipse,
                                   check_high_energy, resolvent_taylor)
from specthresh.series import ExpansionSeries

# points of the k-plane on both sheets, near the threshold and on the axis
KS = [0.3 - 0.2j, 1.7 + 0.4j, 0.05 * np.exp(-0.25j * np.pi), 2.5 + 0.0j]
# (model fixture, contours (center, ax, ay) that hold zeros of M(k))
CASES = {
    "first6": [(0.0, 0.3, 0.3)],
    # a double zero the census crosses
    "second6": [(0.5206 - 0.2056j, 0.05, 0.05)],
    # the physical-sheet double zero next to the threshold
    "third8": [(0.15226 + 0.10275j, 0.02, 0.02)],
    # the embedded resonance k0 = 1 in the scan's flat ellipse
    "resonance8": [((0.3 ** 0.5 + 3.0 ** 0.5) / 2.0,
                    (3.0 ** 0.5 - 0.3 ** 0.5) / 2.0,
                    (3.0 ** 0.5 - 0.3 ** 0.5) / 12.0)],
    # orbits of sizes 1, 2, 4 and 8: sectors of unequal size
    "first5": [(0.0, 0.3, 0.3)],
    "first_gauss_radial6": [(0.0, 0.3, 0.3)],
}


@pytest.fixture(scope="module")
def first5():
    return first_kind_model(build_grid(3.0, 5))


@pytest.fixture(scope="module")
def first_gauss_radial6():
    return first_kind_model(build_grid(2.0, 6, scheme="gauss_radial"))


def _asymmetric(grid, shape):
    V = regular_model(grid).V * shape(grid.nodes)
    return Model(grid=grid, potential=sample_potential(grid, V))


@pytest.mark.parametrize("name", list(CASES))
def test_sector_resolvent_and_contours_match_dense_oracles(name, request):
    model = request.getfixturevalue(name)
    disc = Discretization(model)
    for k in KS:
        bp = BranchPoint(z=k * k, sqrt_z=k)
        # the representative rows alone give the blocks of the assembled R0
        assert np.array_equal(disc.r0_sectors(bp),
                              disc.sectors.blocks(disc.r0(bp)))
        want = oracles.dense_resolvent(disc, bp)
        assert np.linalg.norm(disc.R(bp) - want) \
            <= 1e-12 * np.linalg.norm(want), k
    assert disc.symmetry["order"] == 8
    assert sum(disc.symmetry["sector_sizes"]) == model.grid.n
    for center, ax, ay in CASES[name]:
        zeros, count = _contour_zeros(disc, center, ax, ay, 64)
        want, want_count = oracles.dense_contour_zeros(disc, center, ax, ay,
                                                       64)
        assert count == want_count >= 1
        for k, _ in zeros:
            assert min(abs(k - kd) for kd in want) <= 1e-8 * max(1.0, abs(k))
        for kd in want:
            assert min(abs(k - kd) for k, _ in zeros) <= 1e-8 * max(1.0,
                                                                    abs(kd))


@pytest.mark.parametrize("name, radii", [("first6", 6),
                                         ("first_gauss_radial6", 12)])
def test_gathered_blocks_equal_blocks_of_assembled_kernels(name, radii,
                                                           request):
    # every kernel's blocks come from its entries at the representative
    # rows (`kernels.assemble_entries`), with the self-cell rule run once
    # per distinct cell radius: bit for bit the blocks of the n x n
    # assembly, on both branches of the R0 self-cell rule
    model = request.getfixturevalue(name)
    grid, disc = model.grid, Discretization(model)
    group = disc.sectors
    assert len(disc._plan[2]) == radii
    for k in (0.05, 0.7 - 0.3j):
        bp = BranchPoint(z=k * k, sqrt_z=k)
        assert np.array_equal(disc.r0_sectors(bp),
                              group.blocks(assemble_r0(grid, bp))), k
        assert np.array_equal(disc.K_sectors(bp), group.blocks(disc.K(bp)))
    assert np.array_equal(disc.K0_sectors, group.blocks(disc.K0))
    for j in range(9):
        assert np.array_equal(disc.gj_sectors(j),
                              group.blocks(assemble_gj(grid, j))), j
    for j in range(7):
        assert np.array_equal(disc.gj_plus_sectors(j, 1.3), group.blocks(
            assemble_gj_plus(grid, j, 1.3))), j


def test_grid_reflections_and_sector_sizes():
    grid = build_grid(3.0, 5)
    group = grid.reflections
    assert group.order == 8 and sorted(set(group.sizes)) == [1, 2, 4, 8]
    for g, m in zip(group.elements, group.maps):
        signs = [-1.0 if g >> i & 1 else 1.0 for i in range(3)]
        assert np.allclose(grid.nodes[m], grid.nodes * signs, rtol=0.0,
                           atol=1e-12 * grid.extent)
    n = np.arange(grid.n)
    assert np.array_equal(
        group.maps[group.elem, group.reps[group.orbit]], n)
    # Q^T A Q of a G-invariant A has the blocks, and expand inverts blocks
    rng = np.random.default_rng(1)
    A = rng.standard_normal((grid.n, grid.n)) + 0j
    A = sum(A[np.ix_(m, m)] for m in group.maps)     # invariant
    flat = group.blocks(A)
    assert np.allclose(group.expand(flat), A, rtol=0.0,
                       atol=1e-12 * np.abs(A).max())
    # outer products and pairings on the blocks, against n x n
    X, Y = rng.standard_normal((2, grid.n, 3))
    B = sum(np.outer(X[m, 0], Y[m, 0]) for m in group.maps)  # invariant
    assert np.allclose(group.expand(group.outer(
        np.column_stack([X[m, 0] for m in group.maps]),
        np.column_stack([Y[m, 0] for m in group.maps]))), B, rtol=0.0,
        atol=1e-12 * np.abs(B).max())
    assert np.allclose(group.bilinear(flat, X, Y), X.T @ A @ Y, rtol=0.0,
                       atol=1e-12 * np.abs(X.T @ A @ Y).max())
    X = rng.standard_normal((grid.n, 3))
    Y = group.to_sectors(X)
    assert sum(len(y) for y in Y) == grid.n
    assert np.isclose(sum(np.linalg.norm(y) ** 2 for y in Y),
                      np.linalg.norm(X) ** 2)
    # from_sectors inverts to_sectors, and join inverts split
    assert np.allclose(group.from_sectors(Y), X, rtol=0.0, atol=1e-14)
    assert np.array_equal(group.join(group.split(flat)), flat)


@pytest.mark.parametrize("shape, order, broken", [
    # x_2 x_3 is even under flipping both x_2 and x_3: that reflection
    # stays
    (lambda x: 1.0 + 0.1 * x[:, 0] + 0.05 * x[:, 1] * x[:, 2], 2, 6),
    (lambda x: 1.0 + 0.1 * x[:, 0] + 0.05 * x[:, 1] + 0.03 * x[:, 2], 1, 7),
])
def test_potential_breaks_reflections(shape, order, broken):
    grid = build_grid(3.0, 4)
    disc = Discretization(_asymmetric(grid, shape))
    assert disc.symmetry is None          # lazy: no factorization yet
    k = 0.7 - 0.3j
    bp = BranchPoint(z=k * k, sqrt_z=k)
    want = oracles.dense_resolvent(disc, bp)
    assert np.linalg.norm(disc.R(bp) - want) <= 1e-12 * np.linalg.norm(want)
    rec = disc.symmetry
    assert rec["order"] == order and rec["grid_order"] == 8
    assert len(rec["broken_by_v"]) == broken
    assert sum(rec["sector_sizes"]) == grid.n
    assert len(rec["sector_sizes"]) == order
    if order == 2:
        assert [2, 3] not in rec["broken_by_v"]
    assert _contour_zeros(disc, 0.0, 0.3, 0.3, 64, count_only=True)[1] \
        == oracles.dense_contour_zeros(disc, 0.0, 0.3, 0.3, 64)[1]


def test_contour_probe_follows_the_node_positions():
    # a node permutation permutes the rows of the contour probe block
    grid = build_grid(3.0, 4)
    perm = np.random.default_rng(3).permutation(grid.n)
    pgrid = QuadratureGrid(nodes=grid.nodes[perm], weights=grid.weights[perm],
                           extent=grid.extent, scheme=grid.scheme,
                           spacing=grid.spacing)
    assert np.array_equal(_probe_block(pgrid), _probe_block(grid)[perm])


def test_node_permutation_permutes_resolvent_and_keeps_census():
    grid = build_grid(3.0, 4)
    model = first_kind_model(grid)
    perm = np.random.default_rng(3).permutation(grid.n)
    pgrid = QuadratureGrid(nodes=grid.nodes[perm], weights=grid.weights[perm],
                           extent=grid.extent, scheme=grid.scheme,
                           spacing=grid.spacing)
    pmodel = Model(grid=pgrid, potential=sample_potential(pgrid,
                                                          model.V[perm]))
    censuses = []
    for m in (model, pmodel):
        disc = Discretization(m)
        cp = CutPropagator(disc, threshold_resolvent_expansion(disc))
        cp.propagate_many([10.0])
        censuses.append((disc, cp.census))
    (disc, c), (pdisc, pc) = censuses
    k = 0.9 - 0.4j
    R = disc.R(BranchPoint(z=k * k, sqrt_z=k))
    pR = pdisc.R(BranchPoint(z=k * k, sqrt_z=k))
    assert np.linalg.norm(pR - R[np.ix_(perm, perm)]) \
        <= 1e-12 * np.linalg.norm(R)
    for key in ("winding", "structural_order", "tiles", "nodes",
                "failed_tiles"):
        assert c[key] == pc[key], key
    for key in ("crossed", "left_out"):
        assert len(c[key]) == len(pc[key]), key
        for a, b in zip(c[key], pc[key]):
            assert abs(a["k"] - b["k"]) <= 1e-9 * abs(a["k"]), key


def test_block_lu_solves_and_checks_blocks_of_any_size():
    # the factorization of the bordered Grushin blocks: blocks of unequal
    # sizes, solved as scipy.linalg.solve would, with its three checks
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k in (3, 5)]
    rhs = [rng.standard_normal((k, 2)) for k in (3, 5)]
    got = symmetry.BlockLU([B.copy() for B in blocks], "P").solve(rhs)
    for X, B, C in zip(got, blocks, rhs):
        assert np.allclose(X, scipy.linalg.solve(B, C), rtol=1e-12,
                           atol=1e-12)
    singular = [np.eye(3), np.diag([1.0, 0.0])]
    with pytest.raises(np.linalg.LinAlgError, match="P is singular"):
        symmetry.BlockLU(singular, "P")
    with pytest.raises(np.linalg.LinAlgError, match="P is ill-conditioned"):
        symmetry.BlockLU([np.eye(3), np.diag([1.0, 1e-17])], "P")
    with pytest.raises(ValueError, match="infs or NaNs"):
        symmetry.BlockLU([np.eye(3), np.diag([1.0, np.nan])], "P")


def test_resolvent_raises_at_the_embedded_resonance(resonance8):
    # M(k0) is singular at k0 = sqrt(lam0) = 1 up to the tuning residual:
    # the sector rcond guard raises, as the dense one did
    disc = Discretization(resonance8)
    with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
        disc.R(BranchPoint.boundary(1.0, "+"))


def _counted(fn, calls):
    """fn, appending the shape of its matrix argument to `calls`."""
    def wrapped(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fn(a, *args, **kwargs)
    return wrapped


def _record_shapes(monkeypatch, targets):
    """Shapes of the matrix argument of every call of the sector layer's
    getrf and of the scipy/numpy functions (module, name) in `targets`."""
    shapes = []
    monkeypatch.setattr(symmetry, "zgetrf", _counted(symmetry.zgetrf, shapes))
    for mod, name in targets:
        monkeypatch.setattr(mod, name, _counted(getattr(mod, name), shapes))
    return shapes


def _record_lu_shapes(monkeypatch):
    """Shapes of every LU factorization: the sector layer's getrf, and any
    dense solve, LU or inverse from scipy or numpy."""
    return _record_shapes(monkeypatch, (
        (scipy.linalg, "lu_factor"), (scipy.linalg, "solve"),
        (scipy.linalg, "inv"), (np.linalg, "solve"), (np.linalg, "inv")))


def test_propagate_factors_only_sector_blocks(first6, coeffs_first6,
                                              monkeypatch):
    # a silent fallback to n x n factorizations fails this count
    coeffs, _ = coeffs_first6
    shapes = _record_lu_shapes(monkeypatch)
    cp = CutPropagator(Discretization(first6), coeffs)
    cp.propagate_many(np.geomspace(10.0, 1000.0, 7))
    n = first6.grid.n
    # one getrf per class of equivalent blocks: 4 per M(k) on first6, at
    # the winding circle's 64 nodes, the census's 288 (seven tiles decided
    # on their even 32 nodes, one on all 64) and 32 line nodes per time;
    # the Perron bound skips the pole ellipse, and no zero is crossed
    assert len(shapes) == 4 * (64 + 288 + 7 * 32)
    assert all(s == (n // 8, n // 8) for s in shapes), set(shapes)


def test_asymmetric_model_factors_one_full_block(monkeypatch):
    grid = build_grid(3.0, 4)
    disc = Discretization(_asymmetric(
        grid, lambda x: 1.0 + 0.1 * x[:, 0] + 0.05 * x[:, 1] + 0.03 * x[:, 2]))
    shapes = _record_lu_shapes(monkeypatch)
    k = 0.7 - 0.3j
    disc.R(BranchPoint(z=k * k, sqrt_z=k))
    _contour_zeros(disc, 0.0, 0.3, 0.3, 16, count_only=True)
    assert shapes == [(grid.n, grid.n)] * 17


# --------------------------------------------------------------------------
# the analysis half on the sector blocks: resolvent Taylor coefficients, the
# weighted norm, the -1 detection and the cluster's invariant subspace

def _tuned_asymmetric():
    # G = {e}: the first-kind potential times a shape no reflection keeps,
    # retuned so that K0 has the eigenvalue -1
    grid = build_grid(3.0, 4)
    W = first_kind_model(grid).V * (1.0 + 0.1 * grid.nodes[:, 0]
                                    + 0.05 * grid.nodes[:, 1]
                                    + 0.03 * grid.nodes[:, 2])
    gamma = tune_coupling(grid, W, "threshold_zero")
    return Model(grid=grid, potential=sample_potential(grid, gamma * W))


def _relerr(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _check_taylor_against_dense(disc, lams):
    group = disc.sectors
    for lam in lams:
        for side in "+-":
            T = resolvent_taylor(disc, lam, 2, side=side)
            want = oracles.dense_resolvent_taylor(disc, lam, 2, side=side)
            assert len(T) == 3
            for p, (Tp, Wp) in enumerate(zip(T, want)):
                assert _relerr(group.expand(Tp), Wp) <= 1e-12, \
                    (lam, side, p)
                got = weighted_sector_norm(group, Tp, disc.grid, 3.0, -3.0)
                ref = oracles.dense_weighted_norm(Wp, disc.grid, 3.0, -3.0)
                assert abs(got - ref) <= 1e-12 * ref, (lam, side, p)
                # the dense norm of the expanded blocks is the same number
                assert abs(weighted_operator_norm(group.expand(Tp), disc.grid,
                                                  3.0, -3.0) - ref) \
                    <= 1e-12 * ref


def _check_detection_against_dense(disc, K, flat, tol, counts):
    """The analysis of the blocks `flat` of K against dense oracles on K."""
    group = disc.sectors
    det = detect_minus_one(flat, group, tol=tol)
    cluster, gap, k, null = oracles.dense_detect_minus_one(K, tol)
    assert list(det.sector_counts) == counts
    assert det.algebraic_multiplicity == len(cluster) == sum(counts)
    assert det.geometric_multiplicity == k
    assert abs(det.eigenvalue - cluster[0]) <= 1e-12 * abs(cluster[0])
    assert abs(det.gap - gap) <= 1e-12 * gap
    # an orthonormal basis of the same null space, in another basis
    E = det.eigenvectors
    assert np.allclose(E.conj().T @ E, np.eye(k), rtol=0.0, atol=1e-12)
    assert np.linalg.norm(null - E @ (E.conj().T @ null)) <= 1e-12 * k
    eps = min(det.gap / 2.5, 0.5)
    proj = riesz_projection(flat, group, eps, detection=det)
    P, rank = oracles.dense_riesz_projection(K, eps)
    assert proj.rank == rank == det.algebraic_multiplicity
    check_invariant_subspace(proj, group, K, P, 1e-12)


def test_spectral_projector_rejects_unseparated_selection():
    # one copy of a defective double eigenvalue selected without the other:
    # T11 and T22 share the eigenvalue, so the Sylvester equation is singular
    T = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not separated"):
        oracles.schur_spectral_projector(T, np.eye(2, dtype=complex),
                                         [True, False])


def test_spectral_projector_empty_and_full_selection():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    T, Q = scipy.linalg.schur(A, output="complex")
    assert np.array_equal(
        oracles.schur_spectral_projector(T, Q, np.zeros(6, bool)),
        np.zeros((6, 6)))
    assert np.array_equal(
        oracles.schur_spectral_projector(T, Q, np.ones(6, bool)), np.eye(6))


@pytest.mark.parametrize("name", ["resonance8", "first6"])
def test_resolvent_taylor_matches_dense_oracle(name, request):
    _check_taylor_against_dense(
        Discretization(request.getfixturevalue(name)), (4.0, 25.0))


def test_high_energy_norms_match_dense_oracle(resonance8):
    disc = Discretization(resonance8)
    fits = check_high_energy(disc, orders=(0, 1))
    for i, lam in enumerate(fits[0]["lams"]):
        T = oracles.dense_resolvent_taylor(disc, float(lam), 1)
        for fit, Tr in zip(fits, T):
            want = oracles.dense_weighted_norm(Tr, resonance8.grid, 3.0, -3.0)
            assert abs(fit["norms"][i] - want) <= 1e-12 * want, (fit["r"], lam)


@pytest.mark.parametrize("name, counts", [
    ("first6", [1, 0, 0, 0, 0, 0, 0, 0]),
    # the resonance state is even, the eigenstate odd in x_1
    ("third8", [1, 1, 0, 0, 0, 0, 0, 0]),
    ("resonance8", [1, 0, 0, 0, 0, 0, 0, 0]),
])
def test_minus_one_detection_matches_dense_oracle(name, counts, request):
    model = request.getfixturevalue(name)
    disc = Discretization(model)
    if name == "resonance8":
        bp = BranchPoint.boundary(1.0, "+")
        K, flat, tol = disc.K(bp), disc.K_sectors(bp), 1e-4
    else:
        K, flat, tol = disc.K0, disc.K0_sectors, 1e-6
    _check_detection_against_dense(disc, K, flat, tol, counts)


@pytest.mark.parametrize("name, counts", [
    # orbits of sizes 1, 2, 4 and 8
    ("first5", [1, 0, 0, 0, 0, 0, 0, 0]),
    ("first_gauss_radial6", [1, 0, 0, 0, 0, 0, 0, 0]),
    ("asymmetric4", [1]),
])
def test_analysis_matches_dense_oracles_off_the_reference_grids(
        name, counts, request):
    model = (_tuned_asymmetric() if name == "asymmetric4"
             else request.getfixturevalue(name))
    disc = Discretization(model)
    _check_taylor_against_dense(disc, (4.0,))
    _check_detection_against_dense(disc, disc.K0, disc.K0_sectors, 1e-6,
                                   counts)
    assert disc.symmetry["order"] == (1 if name == "asymmetric4" else 8)


_DECOMPOSITIONS = ((scipy.linalg, "eig"), (scipy.linalg, "eigvals"),
                   (scipy.linalg, "svd"), (scipy.linalg, "svdvals"),
                   (scipy.linalg, "schur"), (scipy.linalg, "lu_factor"),
                   (np.linalg, "eig"), (np.linalg, "eigvals"),
                   (np.linalg, "svd"))


def _record_decomposition_shapes(monkeypatch):
    """Shapes of every eigen, singular value, Schur and LU decomposition,
    the sector layer's getrf and every matrix 2-norm."""
    shapes = _record_shapes(monkeypatch, _DECOMPOSITIONS)
    norm = np.linalg.norm

    def recording_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording_norm)
    return shapes


def test_analysis_decomposes_only_sector_blocks(first6, monkeypatch):
    # a silent fallback to n x n decompositions fails this count
    disc = Discretization(first6)
    K0 = disc.K0_sectors
    shapes = _record_decomposition_shapes(monkeypatch)
    check_high_energy(disc, orders=(0, 1))
    det = detect_minus_one(K0, disc.sectors, tol=1e-6)
    riesz_projection(K0, disc.sectors, min(det.gap / 2.5, 0.5),
                     detection=det)
    block = first6.grid.n // 8
    # 9 energies: one getrf and two norms per class of equivalent blocks
    # (4 classes); then eigvals, svd and schur per block
    assert len(shapes) == 9 * (4 + 2 * 4) + 3 * 8
    assert all(s == (block, block) for s in shapes), set(shapes)


def test_asymmetric_analysis_takes_one_full_block(monkeypatch):
    model = _tuned_asymmetric()
    disc = Discretization(model)
    K0 = disc.K0_sectors
    shapes = _record_decomposition_shapes(monkeypatch)
    check_high_energy(disc, orders=(0, 1))
    det = detect_minus_one(K0, disc.sectors, tol=1e-6)
    riesz_projection(K0, disc.sectors, min(det.gap / 2.5, 0.5),
                     detection=det)
    n = model.grid.n
    assert shapes == [(n, n)] * (9 * 3 + 3)


@pytest.mark.parametrize("resolution", [6, 8])
@pytest.mark.parametrize("target", ["threshold_zero", "positive"])
def test_tune_coupling_matches_dense_eigvals(resolution, target,
                                             monkeypatch):
    grid = build_grid(3.0, resolution)
    # the first-kind and resonance factories' templates
    W = (gaussian_template(grid) if target == "threshold_zero" else
         gaussian_template(grid, width=1.1, tilt=0.4))
    lam0 = None if target == "threshold_zero" else 1.0
    want = oracles.dense_tune_coupling(grid, W, target, lam0=lam0)
    shapes = _record_shapes(monkeypatch, ((scipy.linalg, "eigvals"),))
    gamma = tune_coupling(grid, W, target, lam0=lam0)
    assert abs(gamma - want) <= 1e-12 * abs(want)
    # one eigvals per class representative of the template's sector
    # blocks: the eight reflections in the classes {0}, {1, 2, 4},
    # {3, 5, 6}, {7} of the five axis permutations
    orbits = grid.reflections.sector_orbits
    assert shapes == [(len(orbits[r]), len(orbits[r])) for r in (0, 1, 3, 7)]


def test_tune_coupling_keeps_the_reflections_of_the_template():
    # 1 + 0.1 x_1 breaks the four reflections that flip x_1
    grid = build_grid(3.0, 6)
    W = gaussian_template(grid) * (1.0 + 0.1 * grid.nodes[:, 0])
    group, _ = invariant_subgroup(grid.reflections, W)
    assert group.order == 4 and sorted(group.elements) == [0, 2, 4, 6]
    gamma = tune_coupling(grid, W, "threshold_zero")
    want = oracles.dense_tune_coupling(grid, W, "threshold_zero")
    assert abs(gamma - want) <= 1e-12 * abs(want)


# --------------------------------------------------------------------------
# the Jordan chains and the Grushin series on the sector blocks

def _expansion(name, request):
    """(disc, expansion, point, detection tol, marked cluster) of a
    case."""
    if name == "first6":
        coeffs, disc = request.getfixturevalue("coeffs_first6")
        return disc, coeffs, "threshold", 1e-6, False
    if name == "third8":
        disc = request.getfixturevalue("disc_third")
        return (disc, request.getfixturevalue("coeffs_third"), "threshold",
                1e-6, True)
    if name == "resonance8":
        return (request.getfixturevalue("disc_resonance"),
                request.getfixturevalue("res_coeffs"), 1.0, 1e-4, False)
    model = (_tuned_asymmetric() if name == "asymmetric4"
             else request.getfixturevalue(name))
    disc = Discretization(model)
    return (disc, threshold_resolvent_expansion(disc),
            "threshold", 1e-6, False)


@pytest.mark.parametrize("name", ["first6", "third8", "resonance8", "first5",
                                  "first_gauss_radial6", "asymmetric4"])
def test_expansion_matches_dense_grushin_oracle(name, request):
    # the chain bases differ (S -> S A, T -> A^{-1} T), which leaves the
    # resolvent coefficients, q, E, det E_-+ and its series untouched
    disc, coeffs, point, tol, marked = _expansion(name, request)
    want = oracles.dense_grushin_expansion(disc, point, tol, marked=marked)
    basis = coeffs.basis
    assert coeffs.constants["q"] == want["q"]
    assert basis.sizes == want["basis"].sizes
    for j, R in want["R"].items():
        assert _relerr(disc.sectors.expand(coeffs.series.coeff(j)), R) \
            <= 1e-11, j
    kind = "resonance" if point != "threshold" else coeffs.kind
    order_p = _structural_order(kind, basis.k)[1]
    red = GrushinReduction(disc, basis, point)
    det = ExpansionSeries(red.var, want["Emp"].coeffs,
                          min(red.cap, order_p + 2)).det_series()[order_p]
    assert abs(coeffs.scaling.constant_machinery - det) <= 1e-11 * abs(det)
    for z in (-red.q_test, 1j * red.q_test):
        bp = red.bp_of(z)
        assert _relerr(red.group.expand(red.E_at(bp)),
                       want["E_at"](z)) <= 1e-11, z
        d, dw = (np.linalg.det(red.Emp_at(bp)),
                 np.linalg.det(want["Emp_at"](z)))
        assert abs(d - dw) <= 1e-11 * abs(dw), z


_EXPANSION_OPS = _DECOMPOSITIONS + (
    (scipy.linalg, "solve"), (scipy.linalg, "inv"), (np.linalg, "solve"),
    (np.linalg, "inv"), (np.linalg, "lstsq"), (np.linalg, "det"))


def _record_expansion_shapes(monkeypatch):
    """(shapes, bordered): the matrix shape of every decomposition, solve,
    inverse, least-squares solve and determinant (the last two axes), the
    sector layer's getrf and both operands of every series product; and
    the block shapes of every factorization of the bordered P(0)."""
    shapes = _record_shapes(monkeypatch, _EXPANSION_OPS)
    bordered = []
    block_lu, matmul = grushin.BlockLU, ExpansionSeries.__matmul__

    def recording_lu(blocks, name, *args, **kwargs):
        # the direct evaluations E(z), E_-+(z) factor P(z) at sample points
        if name.endswith("P(0)"):
            bordered.append([np.shape(B) for B in blocks])
        return block_lu(blocks, name, *args, **kwargs)

    def recording_matmul(self, other):
        shapes.extend((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(grushin, "BlockLU", recording_lu)
    monkeypatch.setattr(ExpansionSeries, "__matmul__", recording_matmul)
    return shapes, bordered


@pytest.mark.parametrize("name, chain_sectors", [("third8", [0, 1]),
                                                 ("resonance8", [0])])
def test_expansions_decompose_only_sector_blocks(name, chain_sectors,
                                                 request, monkeypatch):
    # a silent fallback to an n x n decomposition or an (n + m) x (n + m)
    # bordered factorization, series or solve fails this bound
    model = request.getfixturevalue(name)
    disc = Discretization(model)
    shapes, bordered = _record_expansion_shapes(monkeypatch)
    svds = []
    monkeypatch.setattr(scipy.linalg, "svd", _counted(scipy.linalg.svd, svds))
    if name == "third8":
        coeffs = threshold_resolvent_expansion(disc)
    else:
        coeffs = resonance_resolvent_expansion(disc, 1.0)
    bound = model.grid.n // 8 + coeffs.basis.m
    assert max(max(s[-2:]) for s in shapes) <= bound, bound
    assert coeffs.basis.sectors == chain_sectors
    sizes = disc.symmetry["sector_sizes"]
    m_s = [chain_sectors.count(s) for s in range(len(sizes))]
    # one factorization of the bordered P_s(0) per sector, of size n_s + m_s;
    # the shape recorder sees each of them (its getrf) and the sector
    # blocks of the Jordan chain search (a Schur form per block)
    want = [(k + m, k + m) for k, m in zip(sizes, m_s)]
    assert bordered == [want]
    assert all(s in shapes for s in want)
    assert shapes.count((sizes[0], sizes[0])) >= len(sizes)
    # one SVD per block, the null space of Id + K_s in the -1 detection: the
    # chains take the cluster's Schur basis as it is
    assert svds == [(k, k) for k in sizes]


def test_asymmetric_expansion_takes_one_bordered_block(monkeypatch):
    model = _tuned_asymmetric()
    disc = Discretization(model)
    shapes, bordered = _record_expansion_shapes(monkeypatch)
    coeffs = threshold_resolvent_expansion(disc)
    n, m = model.grid.n, coeffs.basis.m
    assert coeffs.basis.sectors == [0]
    assert bordered == [[(n + m, n + m)]]
    assert max(max(s[-2:]) for s in shapes) == n + m


# --------------------------------------------------------------------------
# classes of equivalent sector blocks under the axis permutations

_FACTORIES = {"free": free_model, "regular": regular_model,
              "first": first_kind_model, "second": second_kind_model,
              "third": third_kind_model, "resonance": resonance_model}
# the representative sector of each sector: all five axis permutations
# (first, regular, resonance, free), or x_2 <-> x_3 alone (second, third)
_ALL_AXES = [0, 1, 1, 3, 1, 3, 3, 7]
_X23 = [0, 1, 2, 3, 2, 3, 6, 7]
_EQUIVALENCE_KS = [0.7 - 0.3j, -0.4 + 0.9j, 2.0 + 0.01j]


def _node_permuted(model, seed):
    """The model on its grid with the nodes in a random order: an orbit's
    representative (its smallest node index) is then any of its nodes, and
    an axis permutation maps it to another orbit's representative times a
    reflection h_a other than the identity, whose sign d_a the class
    relations carry.  On the grids in grid order every representative is
    the node with all coordinates negative, and every h_a the identity."""
    grid = model.grid
    perm = np.random.default_rng(seed).permutation(grid.n)
    pgrid = QuadratureGrid(nodes=grid.nodes[perm], weights=grid.weights[perm],
                           extent=grid.extent, scheme=grid.scheme,
                           spacing=grid.spacing)
    return Model(grid=pgrid, potential=sample_potential(pgrid,
                                                        model.V[perm]))


@pytest.mark.parametrize("factory, resolution, shuffled", [
    (f, r, False) for f in _FACTORIES for r in (5, 6)]
    + [("first", 8, False), ("third", 8, False), ("first", 5, True),
       ("third", 6, True)])
def test_equivalent_sector_blocks_are_signed_permutations(factory,
                                                          resolution,
                                                          shuffled):
    # res 5 puts nodes on the mirror planes (sectors of 26, 17, 11 and 7)
    model = _FACTORIES[factory](build_grid(3.0, resolution))
    disc = Discretization(_node_permuted(model, 8) if shuffled else model)
    group = disc.sectors
    want = _X23 if factory in ("second", "third") else _ALL_AXES
    assert disc.symmetry["sector_classes"] == want
    assert len(disc.symmetry["permutations"]) == (1 if want == _X23 else 5)
    assert all(p["v_deviation"] <= 1e-13
               for p in disc.symmetry["permutations"])
    for k in _EQUIVALENCE_KS:
        flat = disc.M_sectors(BranchPoint(z=k * k, sqrt_z=k))
        gathered = flat.copy()
        group._fill_members(gathered)
        for s, (B, G) in enumerate(zip(group.split(flat),
                                       group.split(gathered))):
            assert np.linalg.norm(B - G) <= 1e-13 * np.linalg.norm(B), (k, s)


def test_grids_and_potentials_without_permutations_keep_every_class():
    # gauss_radial nodes are not mapped by any axis permutation
    disc = Discretization(first_kind_model(build_grid(2.0, 6,
                                                      scheme="gauss_radial")))
    assert disc.sectors.order == disc.symmetry["order"] == 8
    assert disc.symmetry["permutations"] == []
    assert disc.symmetry["sector_classes"] == list(range(8))
    grid = build_grid(3.0, 6)
    V = first_kind_model(grid).V
    # a node whose coordinates have three distinct moduli: no permutation
    # maps it into its own reflection orbit
    i = next(i for i, x in enumerate(np.abs(grid.nodes))
             if len(set(np.round(x, 9))) == 3 and V[i] != 0)
    delta = 1e-9 * np.max(np.abs(V))
    for nodes, order in (([i], 1), (grid.reflections.maps[:, i], 8)):
        W = V.copy()
        W[nodes] += delta
        disc = Discretization(Model(grid=grid,
                                    potential=sample_potential(grid, W)))
        assert disc.sectors.order == order
        assert disc.symmetry["permutations"] == []
        assert disc.symmetry["sector_classes"] == list(range(order))


def _block_arg_det(ref):
    """sum over the blocks of a BlockLU of arg det (diagonal angles and pi
    per row swap)."""
    return sum(np.angle(np.diag(lu)).sum()
               + np.pi * np.count_nonzero(piv != np.arange(len(piv)))
               for lu, piv in ref._factors)


@pytest.mark.parametrize("name", ["first5", "first6", "second6",
                                  "shuffled_first5"])
def test_sector_lu_matches_block_lu_on_every_block(name, request):
    disc = Discretization(
        _node_permuted(request.getfixturevalue("first5"), 9)
        if name == "shuffled_first5" else request.getfixturevalue(name))
    group = disc.sectors
    reps, sizes = np.unique(group.sector_classes, return_counts=True)
    rng = np.random.default_rng(7)
    n = disc.grid.n
    Ps = group.to_sectors(rng.standard_normal((n, 5))
                          + 1j * rng.standard_normal((n, 5)))
    for k in KS:
        bp = BranchPoint(z=k * k, sqrt_z=k)
        R0s = disc.r0_sectors(bp)
        flat = disc.m_blocks(R0s)
        ref = symmetry.BlockLU([B.copy() for B in group.split(flat)], "M")
        lu = symmetry.SectorLU.of_blocks(group, flat.copy())
        want = ref.solve(Ps)
        for X, r in zip(lu.solve(0, [Ps[r] for r in reps]), reps):
            assert np.linalg.norm(X - want[r]) \
                <= 1e-12 * np.linalg.norm(want[r]), k
        want = group.join(ref.solve(group.split(R0s)))
        got = lu.solve_flat(R0s)
        for X, W in zip(group.split(got), group.split(want)):
            assert np.linalg.norm(X - W) <= 1e-12 * np.linalg.norm(W), k
        step = np.angle(np.exp(1j * (np.dot(sizes, lu.arg_det()[0])
                                     - _block_arg_det(ref))))
        assert abs(step) <= 1e-12, k
        assert abs(lu.rcond[0] - ref.rcond) <= 1e-12 * ref.rcond, k


def test_sector_lu_checks_every_block(first6):
    disc = Discretization(first6)
    group = disc.sectors
    k = 0.7 - 0.3j
    flat = disc.M_sectors(BranchPoint(z=k * k, sqrt_z=k))
    # a zero column in the representative of the class {1, 2, 4}
    singular = flat.copy()
    group.split(singular)[1][:, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        symmetry.SectorLU.of_blocks(group, singular)
    # a non-finite entry in a block that is not factored
    bad = flat.copy()
    group.split(bad)[2][3, 4] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        symmetry.SectorLU.of_blocks(group, bad)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(symmetry, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(symmetry, name, counting)
    return calls


@pytest.mark.parametrize("factory, contour, classes", [
    ("first", (0.0, 0.3, 0.3), 4),
    # a tile with no zero of M(k), which verifies on third6
    ("third", (1.0 + 0.5j, 0.1, 0.1), 6)])
def test_contour_factors_one_block_per_class(factory, contour, classes,
                                             monkeypatch):
    disc = Discretization(_FACTORIES[factory](build_grid(3.0, 6)))
    getrf = _count_calls(monkeypatch, "zgetrf")
    columns = []
    getrs = symmetry.zgetrs

    def counting(lu, piv, b, *args, **kwargs):
        columns.append(b.shape[1])
        return getrs(lu, piv, b, *args, **kwargs)

    monkeypatch.setattr(symmetry, "zgetrs", counting)
    _contour_zeros(disc, *contour, 64)
    assert len(getrf) == 64 * classes
    # each representative's rows of the 16-column probe block, per node
    assert sum(columns) == 64 * 16 * classes


# the part below the seam Im k = 0.05 of the first6 census tile (t_min =
# 10) that holds the left-out zero k = 0.98738 - 0.92874i; on third6 and on
# the one-block model it holds zeros too
_TILE3 = _tile_ellipse(*_census_rects(10.0)[3][:3], _SEAM)


@pytest.fixture(scope="module")
def third6():
    return third_kind_model(build_grid(3.0, 6))


@pytest.fixture(scope="module")
def one_block5():
    """first5's potential times a shape that no grid reflection or axis
    permutation leaves invariant: one 117 x 117 sector block."""
    grid = build_grid(3.0, 5)
    x = grid.nodes
    V = first_kind_model(grid).V * (1.0 + 0.3 * x[:, 0] + 0.1 * x[:, 2]
                                    + 0.2 * x[:, 1] * x[:, 2])
    return Model(grid=grid, potential=sample_potential(grid, V))


@pytest.mark.parametrize("name, contour, nodes, count_only, count", [
    ("first6", _POLE_ELLIPSE, 512, False, 0),
    ("first6", _TILE3, 64, False, 3),
    ("first6", (0.0, 0.3, 0.3), 64, True, 1),
    ("third6", _TILE3, 64, False, 3),
    ("one_block5", _TILE3, 64, False, 3)])
def test_batched_contour_matches_per_node_reference(name, contour, nodes,
                                                    count_only, count,
                                                    request):
    # the batched gather and checked LU loop against a node-by-node
    # reference on the blocks of the n x n M(k)
    disc = Discretization(request.getfixturevalue(name))
    want, want_count, want_winding = oracles.sector_contour_reference(
        disc, *contour, nodes, count_only)
    winding = _contour_moments(disc, *contour, nodes, count_only).winding
    zeros, got_count = _contour_zeros(disc, *contour, nodes, count_only)
    assert got_count == want_count == count
    assert winding.tolist() == want_winding.tolist()
    if name == "one_block5":
        assert disc.sectors.order == 1 and len(winding) == 1
    if name == "third6":
        assert len(winding) == 6
    assert len(zeros) == len(want) == (0 if count_only else sum(winding))
    for k, _ in zeros:
        assert min(abs(k - kd) for kd in want) <= 1e-12 * abs(k), k
    for kd in want:
        assert min(abs(k - kd) for k, _ in zeros) <= 1e-12 * abs(kd), kd


def test_count_only_contour_solves_nothing(first6, monkeypatch):
    # the winding count needs only the factorizations (arg det)
    disc = Discretization(first6)
    _, count = _contour_zeros(disc, 0.0, 0.3, 0.3, 64)
    getrs = _count_calls(monkeypatch, "zgetrs")
    getrf = _count_calls(monkeypatch, "zgetrf")
    assert _contour_zeros(disc, 0.0, 0.3, 0.3, 64, count_only=True) \
        == ([], count)
    assert count == 1 and getrs == [] and len(getrf) == 64 * 4
