"""Birman-Schwinger assembly, eigenvalue detection, coupling tuning,
threshold classification and resonance scanning."""
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from specthresh import birman_schwinger, kernels
from specthresh.birman_schwinger import (HYPOTHESIS_DET_TOL, Discretization,
                                         _contour_zeros,
                                         check_hypotheses, classify_zero,
                                         detect_minus_one, riesz_projection,
                                         scan_positive_resonances,
                                         tune_coupling)
from specthresh.kernels import BranchPoint
from specthresh.propagator import _POLE_ELLIPSE, CutPropagator
from specthresh.model import build_grid, sample_potential
from specthresh.models import (first_kind_model, free_model,
                               gaussian_template, resonance_model,
                               third_kind_model)
from specthresh.model import Model
from specthresh.symmetry import ReflectionGroup


def test_resolvent_identity_small_grid():
    grid = build_grid(2.5, 5)
    V = 0.4 * gaussian_template(grid)
    model = Model(grid=grid, potential=sample_potential(grid, V))
    disc = Discretization(model)
    bp = BranchPoint.from_z(-1.3 + 0.2j)
    # (Id + K) R = R0 by construction of the solve
    lhs = (np.eye(grid.n) + disc.K(bp)) @ disc.R(bp)
    assert np.allclose(lhs, disc.r0(bp), atol=1e-10)


@pytest.mark.parametrize("lam", [0.04, 1.0, 40.0])
def test_r0_minus_side_is_conjugate_bitwise(lam):
    # the branch-cut oracle's one-assembly jump relies on this identity
    # holding exactly, the self-cell diagonal included
    disc = Discretization(free_model(build_grid(3.0, 4)))
    plus = disc.r0(BranchPoint.boundary(lam, "+"))
    minus = disc.r0(BranchPoint.boundary(lam, "-"))
    assert np.array_equal(minus, np.conj(plus))


def test_jump_matches_two_sided_resolvents():
    # the branch-cut oracle's jump (one R0 assembly, its conjugate for the
    # -i0 side) against the two boundary resolvents of the package
    grid = build_grid(2.5, 5)
    V = 0.4 * gaussian_template(grid)
    disc = Discretization(Model(grid=grid, potential=sample_potential(grid, V)))
    lam = 1.7
    want = (disc.R(BranchPoint.boundary(lam, "+"))
            - disc.R(BranchPoint.boundary(lam, "-")))
    err = np.linalg.norm(oracles.sla_solve_jump(disc, lam) - want)
    assert err <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("lam", [0.04, 1.0, 39.0])
def test_jump_matches_sla_solve(first6, lam):
    # the sector-block path of Discretization.R against scipy.linalg.solve
    # on the dense n x n matrix, on both boundary sides
    disc = Discretization(first6)
    got = (disc.R(BranchPoint.boundary(lam, "+"))
           - disc.R(BranchPoint.boundary(lam, "-")))
    want = oracles.sla_solve_jump(disc, lam)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_resolvent_assembles_no_dense_r0(first6, monkeypatch):
    # R reads the representative rows of R0 alone (`r0_sectors`)
    calls = []
    monkeypatch.setattr(birman_schwinger, "assemble_r0",
                        lambda *args: calls.append(args))
    Discretization(first6).R(BranchPoint.from_z(-1.0 + 0.5j))
    assert calls == []


def _disc_constant_v():
    """Discretization with the constant potential 0.5 + 0.5i (exact products
    with R0) on a grid of 64 nodes, whose contours, line and rings run in
    one batch of nodes."""
    grid = build_grid(2.0, 4)
    disc = Discretization(Model(grid=grid,
                                potential=sample_potential(grid, 0.5 + 0.5j)))
    assert disc.batch_nodes >= 32
    return disc


def _disc_with_r0(monkeypatch):
    """`_disc_constant_v` whose batched gather of R0 (`r0_reps`) gives the
    zero matrix at every node but the second of each batch (the only node
    of a batch of one), which gets the representatives' blocks of one R0
    that the test then fills in, and a node i where V is not cut off: the
    first such node, so the representative of its orbit."""
    disc = _disc_constant_v()
    group = disc.sectors
    r0 = np.zeros((disc.grid.n, disc.grid.n), dtype=complex)

    def r0_reps(self, ks):
        out = np.zeros((len(ks), len(group.rep_columns)), dtype=complex)
        out[min(1, len(ks) - 1)] = group.to_reps(group.blocks(r0))
        return out

    monkeypatch.setattr(Discretization, "r0_reps", r0_reps)
    i = int(np.flatnonzero(disc.V)[0])
    assert i in disc.sectors.reps
    return disc, r0, i


def _batched_paths(disc):
    """The batched evaluations of M(k) = Id + R0 V, each as a thunk: a
    contour centred on the imaginary axis (mirrored pairs), one centred on
    the real axis, the line of `propagate_blocks` at t = 10, a ring of
    `_ring_moments`, and `R` (a batch of one)."""
    cp = CutPropagator.__new__(CutPropagator)
    cp.disc, cp.poles, cp._crossed = disc, [], []
    cp.coeffs = SimpleNamespace(
        R_m2=np.zeros(len(disc.sectors.flat_columns), dtype=complex))
    cp.census = {"t_min": 1.0}
    return {"mirrored contour": lambda: _contour_zeros(disc, 0.0, 0.3, 0.3,
                                                       16),
            "contour": lambda: _contour_zeros(disc, 1.0, 0.3, 0.3, 16),
            "line": lambda: cp.propagate_blocks([10.0]),
            "ring": lambda: cp._ring_moments(0.5 - 0.5j, []),
            "R": lambda: disc.R(BranchPoint.from_z(-1.0))}


def test_resolve_raises_on_singular_matrix(monkeypatch):
    # (-1 + i)(0.5 + 0.5i) = -1 exactly, so Id + R0 V has a zero pivot at
    # the second node of the batch
    disc, r0, i = _disc_with_r0(monkeypatch)
    r0[i, i] = -1.0 + 1.0j
    for name, run in _batched_paths(disc).items():
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            run()


def test_resolve_raises_where_solve_warns_ill_conditioned(monkeypatch):
    # Id + R0 V = Id with 2^-53 at (i, i) at the second node of the batch:
    # rcond 2^-53 < eps, which scipy.linalg.solve only warns about
    disc, r0, i = _disc_with_r0(monkeypatch)
    r0[i, i] = (-1.0 + 2.0 ** -53) * (1.0 - 1.0j)
    A = np.eye(disc.grid.n) + r0 * disc.V[None, :]
    assert A[i, i] == 2.0 ** -53
    with pytest.warns(sla.LinAlgWarning):
        sla.solve(A, r0)
    for name, run in _batched_paths(disc).items():
        with pytest.raises(np.linalg.LinAlgError, match="rcond 1.110e-16"):
            run()


def test_resolve_rejects_non_finite_input(monkeypatch):
    # a NaN in the kernel table at the second node of each batch, in the
    # distance class of entry (3, 5) of sector 2's block: that block, of
    # the class {1, 2, 4}, is not formed, but the class feeds the
    # representatives' blocks too
    disc = _disc_constant_v()
    group = disc.sectors
    assert group.sector_classes[2] == 1
    a, b = (group.sector_orbits[2][j] for j in (3, 5))
    c = disc._plan[0][0, a, b]
    table = kernels.kernel_table

    def poisoned(*args):
        T = table(*args)
        if T.ndim == 2:
            T[min(1, len(T) - 1), c] = np.nan
        return T

    monkeypatch.setattr(kernels, "kernel_table", poisoned)
    for name, run in _batched_paths(disc).items():
        with pytest.raises(ValueError, match="infs or NaNs"):
            run()


@pytest.mark.parametrize("k", [0.3 + 1.2j, -2.5 + 0.15j, 4.0 - 0.6j])
def test_r0_at_mirrored_k_is_conjugate(k):
    # R0(-conj k) = conj R0(k), self-cell diagonal included: the pole
    # contour assembles one R0 per mirrored pair of nodes
    disc = Discretization(free_model(build_grid(3.0, 4)))
    a = disc.r0(BranchPoint(z=k * k, sqrt_z=k))
    km = -np.conj(k)
    b = disc.r0(BranchPoint(z=km * km, sqrt_z=km))
    assert np.linalg.norm(b - np.conj(a)) <= 1e-15 * np.linalg.norm(a)
    da, db = np.diag(a), np.diag(b)
    assert np.max(np.abs(db - np.conj(da))) <= 1e-15 * np.max(np.abs(da))


def test_contour_walk_shares_r0_across_mirrored_nodes(monkeypatch):
    # contour nodes gather the representatives' blocks alone, in batches:
    # no single-node gather, no member block and no n x n matrix
    disc = Discretization(free_model(build_grid(3.0, 4)))
    calls = {"rows": 0, "r0_sectors": 0, "M_sectors": 0, "_fill_members": 0,
             "expand": 0}
    table = kernels.kernel_table

    def rows(*args):
        T = table(*args)
        calls["rows"] += len(T) if T.ndim == 2 else 1
        return T

    def counting(cls, name):
        method = getattr(cls, name)

        def wrapped(*args):
            calls[name] += 1
            return method(*args)
        return wrapped

    monkeypatch.setattr(kernels, "kernel_table", rows)
    for cls, name in ((Discretization, "r0_sectors"),
                      (Discretization, "M_sectors"),
                      (ReflectionGroup, "_fill_members"),
                      (ReflectionGroup, "expand")):
        monkeypatch.setattr(cls, name, counting(cls, name))
    # imaginary-axis centre: one kernel-table row per mirrored pair
    assert _contour_zeros(disc, *_POLE_ELLIPSE, 512) == ([], 0)
    assert calls == {"rows": 256, "r0_sectors": 0, "M_sectors": 0,
                     "_fill_members": 0, "expand": 0}
    # real centre (the resonance scan's ellipse): a row per node
    calls.update(rows=0)
    assert _contour_zeros(disc, 1.5, 0.5, 0.5 / 6.0, 32) == ([], 0)
    assert calls == {"rows": 32, "r0_sectors": 0, "M_sectors": 0,
                     "_fill_members": 0, "expand": 0}


def _one_block(K):
    """The flat blocks of a matrix K without symmetry, and the group of the
    identity alone that holds it as one n x n sector block."""
    group = ReflectionGroup({0: np.arange(len(K))})
    return group.blocks(K), group


def test_detect_minus_one_on_synthetic_matrix():
    rng = np.random.default_rng(5)
    n = 30
    Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lams = np.linspace(0.2, 2.0, n).astype(complex)
    lams[7] = -1.0 + 1e-9
    K = Q @ np.diag(lams) @ np.linalg.inv(Q)
    det = detect_minus_one(*_one_block(K))
    assert det is not None
    assert abs(det.eigenvalue + 1.0) < 1e-8
    assert det.geometric_multiplicity == 1
    # eigenvector lies in the kernel of Id + K
    v = det.eigenvectors[:, 0]
    assert np.linalg.norm((np.eye(n) + K) @ v) < 1e-6


def test_detect_minus_one_absent():
    K = np.diag(np.linspace(0.1, 0.9, 10)).astype(complex)
    assert detect_minus_one(*_one_block(K)) is None


def test_detect_minus_one_raises_on_empty_null_space(monkeypatch):
    # an eigenvalue in the cluster but no singular value of Id + K under the
    # null tolerance can only be roundoff; it must raise, not force k = 1
    lams = np.array([-1.0 + 1e-9, 0.5, 0.7], dtype=complex)
    real_svd = birman_schwinger.sla.svd

    def svd_without_null(A, *args, **kwargs):
        U, s, Vh = real_svd(A, *args, **kwargs)
        return U, np.maximum(s, 1e-3), Vh

    monkeypatch.setattr(birman_schwinger.sla, "svd", svd_without_null)
    with pytest.raises(ValueError, match="null tolerance"):
        detect_minus_one(*_one_block(np.diag(lams)), tol=1e-6)


def test_detect_minus_one_rejects_unresolved_cluster():
    lams = np.array([-1.0 + 5e-7, -1.0 + 1.5e-6, 0.5], dtype=complex)
    with pytest.raises(ValueError, match="ill-separated"):
        detect_minus_one(*_one_block(np.diag(lams)), tol=1e-6)


def test_tune_coupling_places_eigenvalue_at_minus_one():
    grid = build_grid(3.0, 6)
    W = gaussian_template(grid)
    gamma = tune_coupling(grid, W, "threshold_zero")
    model = Model(grid=grid, potential=sample_potential(grid, gamma * W))
    disc = Discretization(model)
    ev = np.linalg.eigvals(disc.K0)
    assert np.min(np.abs(ev + 1.0)) < 1e-10


def test_discretization_keeps_only_the_g2_blocks(disc_third, coeffs_third):
    # after the threshold expansion (the blocks of G_0 ... G_8 gathered) the
    # discretization holds, of the kernels, only the blocks of G_2, which
    # the source pairing reads again, read-only, and no n x n array
    n = disc_third.grid.n
    assert [name for name in vars(disc_third)
            if name.endswith("_sectors")] == ["_g2_sectors"]
    assert not any(isinstance(value, np.ndarray) and value.size >= n * n
                   for value in vars(disc_third).values())
    G2 = disc_third._g2_sectors
    assert not G2.flags.writeable
    assert np.array_equal(G2, disc_third.gj_sectors(2))
    sizes = disc_third.symmetry["sector_sizes"]
    assert G2.shape == (sum(k * k for k in sizes),)


def check_invariant_subspace(proj, group, K, P_ref, gate):
    """The -1 cluster's subspace from `riesz_projection`, its sector bases
    lifted to the nodes (Q) with the block-diagonal matrix A of Id + K on
    them, against the n x n K and a reference projector P_ref onto the same
    cluster: orthonormal columns, as many as the rank, that P_ref leaves
    fixed (to `gate` relative to |P_ref|), and K Q = Q (A - Id) to
    1e-12 |K|."""
    Q, A = [], []
    for s, basis in enumerate(proj.bases):
        if basis is None:
            continue
        Y = [np.zeros((len(c), basis[0].shape[1]), dtype=complex)
             for c in group.sector_orbits]
        Y[s] = basis[0]
        Q.append(group.from_sectors(Y))
        A.append(basis[1])
    Q, A = np.hstack(Q), sla.block_diag(*A)
    k = proj.rank
    assert Q.shape[1] == k
    assert np.allclose(Q.conj().T @ Q, np.eye(k), rtol=0.0, atol=1e-12)
    assert np.linalg.norm(P_ref @ Q - Q) <= gate * np.linalg.norm(P_ref)
    assert np.linalg.norm(K @ Q - Q @ (A - np.eye(k))) \
        <= 1e-12 * np.linalg.norm(K)


def test_riesz_projection_matches_dense_eig():
    rng = np.random.default_rng(7)
    n = 24
    Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lams = np.linspace(0.3, 1.8, n).astype(complex)
    lams[3] = -1.0
    lams[11] = -1.0 + 1e-11          # same cluster
    K = Q @ np.diag(lams) @ np.linalg.inv(Q)
    flat, one = _one_block(K)
    det = detect_minus_one(flat, one)
    proj = riesz_projection(flat, one, eps=det.gap / 3.0, detection=det)
    want = oracles.spectral_projector(K, lambda l: abs(l + 1.0) < 1e-6)
    assert proj.rank == 2
    check_invariant_subspace(proj, one, K, want, 1e-8)


def _dense_contour_projection(K, eps, n_quad=64):
    """Independent reference for riesz_projection: the trapezoidal contour
    quadrature on |w + 1| = eps with one dense solve per node.  At the radii
    used here its quadrature error is far below the 1e-12 gate."""
    n = K.shape[0]
    P = np.zeros((n, n), dtype=complex)
    I = np.eye(n)
    for q in range(n_quad):
        th = 2.0 * np.pi * (q + 0.5) / n_quad
        wq = -1.0 + eps * np.exp(1j * th)
        P += eps * np.exp(1j * th) * sla.solve(wq * I - K, I)
    return P / n_quad


def _first4_K0():
    disc = Discretization(first_kind_model(build_grid(3.0, 4)))
    return disc.K0, disc.K0_sectors, disc.sectors, 1e-6


def _third5_K0():
    disc = Discretization(third_kind_model(build_grid(3.0, 5)))
    return disc.K0, disc.K0_sectors, disc.sectors, 1e-6


def _resonance4_Kplus():
    disc = Discretization(resonance_model(build_grid(3.0, 4), lam0=1.0))
    bp = BranchPoint.boundary(1.0, "+")
    return disc.K(bp), disc.K_sectors(bp), disc.sectors, 1e-4


@pytest.mark.parametrize("make", [_first4_K0, _third5_K0, _resonance4_Kplus],
                         ids=["first4", "third5", "resonance4"])
def test_riesz_projection_matches_dense_solve_contour(make):
    K, flat, group, tol = make()
    det = detect_minus_one(flat, group, tol=tol)
    eps = min(det.gap / 2.5, 0.5)
    proj = riesz_projection(flat, group, eps, detection=det)
    want = _dense_contour_projection(K, eps)
    # the trace of a projector is its rank
    assert proj.rank == det.algebraic_multiplicity \
        == round(np.trace(want).real)
    check_invariant_subspace(proj, group, K, want, 1e-12)


def test_riesz_projection_defective_cluster():
    # a 2x2 Jordan block at -1 next to well-separated spectrum, hidden by a
    # random similarity: the subspace has dimension 2 although the geometric
    # multiplicity is 1
    rng = np.random.default_rng(11)
    n = 20
    J = np.diag(np.linspace(0.3, 1.8, n)).astype(complex)
    J[:2, :2] = [[-1.0, 1.0], [0.0, -1.0]]
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K = S @ J @ np.linalg.inv(S)
    flat, one = _one_block(K)
    proj = riesz_projection(flat, one, eps=0.4)
    assert proj.rank == 2
    E = np.zeros(n)
    E[:2] = 1.0
    want = S @ np.diag(E) @ np.linalg.inv(S)
    check_invariant_subspace(proj, one, K, want, 1e-10)


def test_classify_free_model_regular():
    cls = classify_zero(Discretization(free_model(build_grid(3.0, 6))))
    assert cls.kind == "regular"
    assert cls.k == 0


def test_classification_kinds(cls_first, cls_second, cls_third):
    assert cls_first.kind == "first"
    assert cls_second.kind == "second"
    assert cls_third.kind == "third"
    assert abs(cls_first.integral_marker) > cls_first.marker_tol
    assert cls_second.k == 1
    assert cls_third.k == 2


def test_classification_keeps_its_detection(cls_first, cls_third):
    for cls in (cls_first, cls_third):
        assert cls.detection.geometric_multiplicity == cls.k
    assert classify_zero(Discretization(
        free_model(build_grid(3.0, 4)))).detection is None


def test_marker_tolerance_does_not_depend_on_the_null_basis(disc_third,
                                                            cls_third):
    # the largest row norm of an orthonormal basis is the same for every
    # orthonormal basis of the span; for one vector it is |psi|_inf
    E = cls_third.detection.eigenvectors
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    tol = birman_schwinger.marker_tolerance(disc_third, E)
    assert cls_third.marker_tol == tol
    assert abs(birman_schwinger.marker_tolerance(disc_third, E @ U) - tol) \
        <= 1e-15 * tol
    v_l1 = np.sum(disc_third.w * np.abs(disc_third.V))
    assert birman_schwinger.marker_tolerance(disc_third, E[:, 0]) \
        == 1e-6 * v_l1 * np.max(np.abs(E[:, 0]))


def test_marker_split_is_a_character_label(monkeypatch, disc_third,
                                           cls_third):
    # w V is invariant under the group: the resonance state is in the
    # trivial character, the marker-free eigenstate in the x_1-odd one
    det = cls_third.detection
    assert det.eigenvector_sectors == (0, 1)
    markers = [abs(disc_third.marker(v)) for v in det.eigenvectors.T]
    assert markers[0] > cls_third.marker_tol >= markers[1]
    # a marker outside the trivial character cannot be a roundoff value
    odd = det.eigenvectors[:, 1]
    real = Discretization.marker

    def marked(self, psi):
        return 1.0 if np.array_equal(psi, odd) else real(self, psi)

    monkeypatch.setattr(Discretization, "marker", marked)
    with pytest.raises(ValueError, match="null vector of sector 1 has "
                                         "integral marker 1.000e"):
        classify_zero(disc_third)


def test_second_kind_marker_vanishes(cls_second):
    assert abs(cls_second.integral_marker) <= cls_second.marker_tol


def test_bilinear_pairings(disc_first):
    rng = np.random.default_rng(1)
    n = disc_first.grid.n
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # bilinear, not sesquilinear
    assert np.isclose(disc_first.pair(1j * u, v), 1j * disc_first.pair(u, v))
    assert np.isclose(disc_first.theta(u, v), disc_first.theta(v, u))


def test_b_form_matches_double_sum(disc_resonance):
    rng = np.random.default_rng(2)
    n = disc_resonance.grid.n
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = oracles.b_form(disc_resonance, 1.0, u, v)
    want = oracles.boundary_pairing_double_sum(
        disc_resonance.grid, disc_resonance.V, 1.0, u, v)
    assert abs(got - want) < 1e-9 * abs(want)


@pytest.mark.parametrize("extent", [3.0, 2.93, 3.07])
@pytest.mark.parametrize("lam", [0.04, 1.0, 1.1])
def test_outgoing_phase_gather_is_bitwise(extent, lam):
    # the b_form oracle's e^{i sqrt(lam)|x-y|}, gathered from the distance
    # classes, against the exponential of the whole distance matrix
    grid = build_grid(extent, 6)
    want = np.exp(1j * np.sqrt(lam) * grid.distance_matrix())
    assert np.array_equal(oracles.outgoing_phase(grid, lam), want)


def test_scan_finds_tuned_resonance(disc_resonance):
    found = scan_positive_resonances(disc_resonance, (0.3, 2.0))
    assert len(found) >= 1
    lam, N = min(found, key=lambda p: abs(p[0] - 1.0))
    assert abs(lam - 1.0) < 1e-6
    assert N == 1


@pytest.mark.parametrize("window", [(0.3, 2.0), (0.3, 3.0)])
def test_scan_returns_exactly_the_tuned_resonance(disc_resonance, window):
    found = scan_positive_resonances(disc_resonance, window)
    assert len(found) == 1
    lam, N = found[0]
    assert abs(lam - 1.0) <= 1e-12
    assert N == 1


@pytest.mark.parametrize("window", [(0.3, 1.0), (0.999, 2.0)])
def test_scan_raises_on_resonance_at_window_edge(disc_resonance, window):
    # a zero on or just inside the contour breaks the winding count, so the
    # count and the moment rank disagree instead of a resonance being dropped
    with pytest.raises(ValueError,
                       match="moment rank 1 but per-class winding total 0"):
        scan_positive_resonances(disc_resonance, window)


def test_scan_window_without_resonance_is_empty(disc_resonance):
    assert scan_positive_resonances(disc_resonance, (1.2, 3.0)) == []


def test_scan_raises_when_refined_minimum_is_not_singular(monkeypatch):
    # a contour zero whose M(k) has sigma_min far from 0 must raise, not be
    # reported as a resonance: M is replaced by Id + (k - 2) q q^T, q the
    # unit indicator of node 0's orbit (invariant under the grid's
    # reflections, as every M(k) is), whose determinant k - 1 winds once
    # around k = 1, and svdvals by a non-singular spectrum
    def fake_M(self, bp):
        orbit = self.grid.reflections.orbit
        q = (orbit == orbit[0]) / np.sqrt(np.count_nonzero(orbit == orbit[0]))
        return np.eye(self.grid.n) + (bp.sqrt_z - 2.0) * np.outer(q, q)

    monkeypatch.setattr(birman_schwinger.Discretization, "M", fake_M)
    monkeypatch.setattr(birman_schwinger.Discretization, "M_sectors",
                        lambda self, bp: self.sectors.blocks(self.M(bp)))
    # the contour's batched gather of the representatives' blocks
    monkeypatch.setattr(birman_schwinger.Discretization, "M_reps",
                        lambda self, ks: self.sectors.to_reps(np.array([
                            self.M_sectors(BranchPoint(z=k * k, sqrt_z=k))
                            for k in ks])))
    monkeypatch.setattr(birman_schwinger.sla, "svdvals",
                        lambda A: np.array([1.0, 0.5]))
    disc = Discretization(free_model(build_grid(2.0, 4)))
    with pytest.raises(ValueError, match=r"lambda\* = 1 .*sigma_min = 5\.000e-01"):
        scan_positive_resonances(disc, (0.5, 1.5))


@pytest.fixture(scope="module")
def disc_third6():
    return Discretization(third_kind_model(build_grid(3.0, 6)))


def test_pole_contour_raises_when_count_is_not_verified(disc_third6):
    # the third-kind model at resolution 6 has zeros of M(k) next to the
    # pole contour (k = 0.3104 + 0.1346i lies just below Im k = 0.15); the
    # quadrature error it causes gives the representatives' moments a rank
    # other than the seven zeros their windings count
    with pytest.raises(ValueError, match=r"moment rank 9 but per-class "
                       r"winding total 7 \(per-class windings "
                       r"\[2, 1, 1, 1, 1, 1\]; weighted count 9; probe width "
                       r"16\)"):
        _contour_zeros(disc_third6, *_POLE_ELLIPSE, 512)


def test_small_contour_finds_third6_eigenvalue(disc_third6):
    zeros, count = _contour_zeros(disc_third6, 1.3637 + 0.1819j, 0.05, 0.05,
                                  32)
    assert count == 1 and len(zeros) == 1
    k, s = zeros[0]
    assert abs(k * k - (1.8265 + 0.4961j)) < 1e-4
    assert s[-1] < 1e-12 * s[0]


def test_scan_rejects_bad_interval(disc_resonance):
    with pytest.raises(ValueError):
        scan_positive_resonances(disc_resonance, (-1.0, 2.0))


def test_hypotheses_hold_on_tuned_models(cls_first, disc_first,
                                         cls_third, disc_third):
    h1 = check_hypotheses(disc_first, cls_first)
    assert h1["H1"] and h1["H2"]
    h3 = check_hypotheses(disc_third, cls_third)
    assert h3["H1"] and h3["H2"]


def test_hypothesis_h3_at_resonance(disc_resonance, res_coeffs):
    # H3, det B != 0, on the B matrix the resonance expansion builds from
    # the derivative kernel G_1^+, against the double-sum B_lambda of the
    # b_form oracle on the -1 null vectors of K+(1) and on the same chain
    # vectors (the two differ in the diagonal self-cell rule)
    B = res_coeffs.constants["B"]
    d = complex(np.linalg.det(B))
    assert abs(d) > HYPOTHESIS_DET_TOL

    def b_det(vecs):
        return complex(np.linalg.det([[oracles.b_form(disc_resonance, 1.0,
                                                      u, v) for v in vecs]
                                      for u in vecs]))

    null = res_coeffs.detection.eigenvectors
    assert abs(b_det(list(null.T))) > HYPOTHESIS_DET_TOL
    chains = [c[0] for c in res_coeffs.basis.chains]
    assert abs(b_det(chains) - d) < 5e-2 * abs(d)
