"""Birman-Schwinger assembly, eigenvalue detection, coupling tuning,
threshold classification and resonance scanning."""
import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from specthresh import birman_schwinger
from specthresh.birman_schwinger import (Discretization, _contour_zeros,
                                         _spectral_projector,
                                         b_form,
                                         check_hypotheses, classify_zero,
                                         detect_minus_one, riesz_projection,
                                         scan_positive_resonances,
                                         tune_coupling)
from specthresh.kernels import BranchPoint
from specthresh.model import build_grid, sample_potential
from specthresh.models import (first_kind_model, free_model,
                               gaussian_template, resonance_model,
                               third_kind_model)
from specthresh.model import Model


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
    # the one-assembly jump relies on this identity holding exactly, the
    # self-cell diagonal included
    disc = Discretization(free_model(build_grid(3.0, 4)))
    plus = disc.r0(BranchPoint.boundary(lam, "+"))
    minus = disc.r0(BranchPoint.boundary(lam, "-"))
    assert np.array_equal(minus, np.conj(plus))


def test_jump_matches_two_sided_resolvents():
    grid = build_grid(2.5, 5)
    V = 0.4 * gaussian_template(grid)
    disc = Discretization(Model(grid=grid, potential=sample_potential(grid, V)))
    lam = 1.7
    want = (disc.R(BranchPoint.boundary(lam, "+"))
            - disc.R(BranchPoint.boundary(lam, "-")))
    err = np.linalg.norm(disc.jump(lam) - want)
    assert err <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("lam", [0.04, 1.0, 39.0])
def test_jump_equals_sla_solve_bitwise(first6, lam):
    # the checked getrf/getrs path factors and solves exactly as
    # scipy.linalg.solve does
    disc = Discretization(first6)
    assert np.array_equal(disc.jump(lam), oracles.sla_solve_jump(disc, lam))


def _disc_with_r0(monkeypatch):
    """Discretization whose R0 assembly returns one zero matrix that the
    test then fills in, with the constant potential 0.5 + 0.5i (exact
    products with R0) and a node i where V is not cut off."""
    grid = build_grid(2.0, 4)
    disc = Discretization(Model(grid=grid,
                                potential=sample_potential(grid, 0.5 + 0.5j)))
    r0 = np.zeros((grid.n, grid.n), dtype=complex)
    monkeypatch.setattr(Discretization, "r0", lambda self, bp: r0)
    return disc, r0, int(np.flatnonzero(disc.V)[0])


def test_resolve_raises_on_singular_matrix(monkeypatch):
    # (-1 + i)(0.5 + 0.5i) = -1 exactly, so Id + R0 V has a zero pivot
    disc, r0, i = _disc_with_r0(monkeypatch)
    r0[i, i] = -1.0 + 1.0j
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        disc.R(BranchPoint.from_z(-1.0))


def test_resolve_raises_where_solve_warns_ill_conditioned(monkeypatch):
    # Id + R0 V = Id with 2^-53 at (i, i): rcond 2^-53 < eps, which
    # scipy.linalg.solve only warns about
    disc, r0, i = _disc_with_r0(monkeypatch)
    r0[i, i] = (-1.0 + 2.0 ** -53) * (1.0 - 1.0j)
    A = np.eye(disc.grid.n) + r0 * disc.V[None, :]
    assert A[i, i] == 2.0 ** -53
    with pytest.warns(sla.LinAlgWarning):
        sla.solve(A, r0)
    with pytest.raises(np.linalg.LinAlgError, match="rcond 1.110e-16"):
        disc.R(BranchPoint.from_z(-1.0))


def test_resolve_rejects_non_finite_input(monkeypatch):
    disc, r0, _ = _disc_with_r0(monkeypatch)
    r0[3, 5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        disc.R(BranchPoint.from_z(-1.0))


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
    disc = Discretization(free_model(build_grid(3.0, 4)))
    calls = {"r0": 0, "M": 0}

    def counting(name):
        method = getattr(Discretization, name)

        def wrapped(self, bp):
            calls[name] += 1
            return method(self, bp)
        return wrapped

    monkeypatch.setattr(Discretization, "r0", counting("r0"))
    monkeypatch.setattr(Discretization, "M", counting("M"))
    # imaginary-axis centre: one R0 per mirrored pair, no M(k) assembly
    assert _contour_zeros(disc, 0.975j, 6.0, 0.825, 512) == ([], 0)
    assert calls == {"r0": 256, "M": 0}
    # real centre (the resonance scan's ellipse): M(k) at every node
    calls.update(r0=0, M=0)
    assert _contour_zeros(disc, 1.5, 0.5, 0.5 / 6.0, 32) == ([], 0)
    assert calls == {"r0": 32, "M": 32}


def test_detect_minus_one_on_synthetic_matrix():
    rng = np.random.default_rng(5)
    n = 30
    Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lams = np.linspace(0.2, 2.0, n).astype(complex)
    lams[7] = -1.0 + 1e-9
    K = Q @ np.diag(lams) @ np.linalg.inv(Q)
    det = detect_minus_one(K)
    assert det != "absent"
    assert abs(det.eigenvalue + 1.0) < 1e-8
    assert det.geometric_multiplicity == 1
    # eigenvector lies in the kernel of Id + K
    v = det.eigenvectors[:, 0]
    assert np.linalg.norm((np.eye(n) + K) @ v) < 1e-6


def test_detect_minus_one_absent():
    K = np.diag(np.linspace(0.1, 0.9, 10)).astype(complex)
    assert detect_minus_one(K) == "absent"


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
        detect_minus_one(np.diag(lams), tol=1e-6)


def test_detect_minus_one_rejects_unresolved_cluster():
    lams = np.array([-1.0 + 5e-7, -1.0 + 1.5e-6, 0.5], dtype=complex)
    with pytest.raises(ValueError, match="ill-separated"):
        detect_minus_one(np.diag(lams), tol=1e-6)


def test_tune_coupling_places_eigenvalue_at_minus_one():
    grid = build_grid(3.0, 6)
    W = gaussian_template(grid)
    gamma = tune_coupling(grid, W, "threshold_zero")
    model = Model(grid=grid, potential=sample_potential(grid, gamma * W))
    disc = Discretization(model)
    ev = np.linalg.eigvals(disc.K0)
    assert np.min(np.abs(ev + 1.0)) < 1e-10


def test_riesz_projection_matches_dense_eig():
    rng = np.random.default_rng(7)
    n = 24
    Q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lams = np.linspace(0.3, 1.8, n).astype(complex)
    lams[3] = -1.0
    lams[11] = -1.0 + 1e-11          # same cluster
    K = Q @ np.diag(lams) @ np.linalg.inv(Q)
    det = detect_minus_one(K)
    P = riesz_projection(K, eps=det.gap / 3.0, detection=det).entries
    want = oracles.spectral_projector(K, lambda l: abs(l + 1.0) < 1e-6)
    assert np.linalg.norm(P - want) < 1e-8
    assert np.linalg.norm(P @ P - P) < 1e-8


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
    return Discretization(first_kind_model(build_grid(3.0, 4))).K0, 1e-6


def _third5_K0():
    # the two-eigenvalue tuning of the third kind does not converge at
    # resolution 4, so this one runs at resolution 5 (n=117)
    return Discretization(third_kind_model(build_grid(3.0, 5))).K0, 1e-6


def _resonance4_Kplus():
    disc = Discretization(resonance_model(build_grid(3.0, 4), lam0=1.0))
    return disc.K(BranchPoint.boundary(1.0, "+")), 1e-4


@pytest.mark.parametrize("make", [_first4_K0, _third5_K0, _resonance4_Kplus],
                         ids=["first4", "third5", "resonance4"])
def test_riesz_projection_matches_dense_solve_contour(make):
    K, tol = make()
    det = detect_minus_one(K, tol=tol)
    eps = min(det.gap / 2.5, 0.5)
    proj = riesz_projection(K, eps, detection=det)
    want = _dense_contour_projection(K, eps)
    assert np.linalg.norm(proj.entries - want) <= 1e-12 * np.linalg.norm(want)
    assert proj.rank == det.algebraic_multiplicity


def test_riesz_projection_defective_cluster():
    # a 2x2 Jordan block at -1 next to well-separated spectrum, hidden by a
    # random similarity: the projector has rank 2 although the geometric
    # multiplicity is 1
    rng = np.random.default_rng(11)
    n = 20
    J = np.diag(np.linspace(0.3, 1.8, n)).astype(complex)
    J[:2, :2] = [[-1.0, 1.0], [0.0, -1.0]]
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K = S @ J @ np.linalg.inv(S)
    proj = riesz_projection(K, eps=0.4)
    P = proj.entries
    assert proj.rank == 2
    assert np.linalg.norm(P @ P - P) <= 1e-10 * np.linalg.norm(P)
    E = np.zeros(n)
    E[:2] = 1.0
    want = S @ np.diag(E) @ np.linalg.inv(S)
    assert np.linalg.norm(P - want) <= 1e-10 * np.linalg.norm(want)


def test_spectral_projector_rejects_unseparated_selection():
    # one copy of a defective double eigenvalue selected without the other:
    # T11 and T22 share the eigenvalue, so the Sylvester equation is singular
    T = np.array([[-1.0, 1.0], [0.0, -1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not separated"):
        _spectral_projector(T, np.eye(2, dtype=complex), [True, False])


def test_spectral_projector_empty_and_full_selection():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    T, Q = sla.schur(A, output="complex")
    assert np.array_equal(_spectral_projector(T, Q, np.zeros(6, bool)),
                          np.zeros((6, 6)))
    assert np.array_equal(_spectral_projector(T, Q, np.ones(6, bool)),
                          np.eye(6))


def test_classify_free_model_regular():
    model = free_model(build_grid(3.0, 6))
    cls = classify_zero(model)
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
        assert cls.detection_tol == 1e-6
        assert cls.detection.geometric_multiplicity == cls.k
    assert classify_zero(free_model(build_grid(3.0, 4))).detection is None


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
    got = b_form(disc_resonance, 1.0, u, v)
    want = oracles.boundary_pairing_double_sum(
        disc_resonance.grid, disc_resonance.V, 1.0, u, v)
    assert abs(got - want) < 1e-9 * abs(want)


def test_scan_finds_tuned_resonance(resonance8, disc_resonance):
    found = scan_positive_resonances(resonance8, (0.3, 2.0),
                                     disc=disc_resonance)
    assert len(found) >= 1
    lam, N = min(found, key=lambda p: abs(p[0] - 1.0))
    assert abs(lam - 1.0) < 1e-6
    assert N == 1


@pytest.mark.parametrize("window", [(0.3, 2.0), (0.3, 3.0)])
def test_scan_returns_exactly_the_tuned_resonance(resonance8, disc_resonance,
                                                  window):
    found = scan_positive_resonances(resonance8, window, disc=disc_resonance)
    assert len(found) == 1
    lam, N = found[0]
    assert abs(lam - 1.0) <= 1e-12
    assert N == 1


@pytest.mark.parametrize("window", [(0.3, 1.0), (0.999, 2.0)])
def test_scan_raises_on_resonance_at_window_edge(resonance8, disc_resonance,
                                                 window):
    # a zero on or just inside the contour breaks the winding count, so the
    # count and the moment rank disagree instead of a resonance being dropped
    with pytest.raises(ValueError, match="winding count 0 but moment rank 1"):
        scan_positive_resonances(resonance8, window, disc=disc_resonance)


def test_scan_window_without_resonance_is_empty(resonance8, disc_resonance):
    assert scan_positive_resonances(resonance8, (1.2, 3.0),
                                    disc=disc_resonance) == []


def test_scan_raises_when_refined_minimum_is_not_singular(monkeypatch):
    # a contour zero whose M(k) has sigma_min far from 0 must raise, not be
    # reported as a resonance: M is replaced by diag(k - 1, 1, ...), whose
    # determinant winds once around k = 1, and svdvals by a non-singular
    # spectrum
    def fake_M(self, bp):
        d = np.ones(self.grid.n, dtype=complex)
        d[0] = bp.sqrt_z - 1.0
        return np.diag(d)

    monkeypatch.setattr(birman_schwinger.Discretization, "M", fake_M)
    monkeypatch.setattr(birman_schwinger.sla, "svdvals",
                        lambda A: np.array([1.0, 0.5]))
    model = free_model(build_grid(2.0, 4))
    with pytest.raises(ValueError, match=r"lambda\* = 1 .*sigma_min = 5\.000e-01"):
        scan_positive_resonances(model, (0.5, 1.5))


@pytest.fixture(scope="module")
def disc_third6():
    return Discretization(third_kind_model(build_grid(3.0, 6)))


def test_pole_contour_raises_when_count_is_not_verified(disc_third6):
    # the third-kind model at resolution 6 has zeros of M(k) next to the
    # pole contour (k = 0.3104 + 0.1346i lies just below Im k = 0.15); the
    # quadrature error it causes gives the moments a rank other than the
    # ten zeros the winding counts
    with pytest.raises(ValueError, match="winding count 10"):
        _contour_zeros(disc_third6, 0.975j, 6.0, 0.825, 512)


def test_small_contour_finds_third6_eigenvalue(disc_third6):
    zeros, count = _contour_zeros(disc_third6, 1.3637 + 0.1819j, 0.05, 0.05,
                                  32)
    assert count == 1 and len(zeros) == 1
    k, s = zeros[0]
    assert abs(k * k - (1.8265 + 0.4961j)) < 1e-4
    assert s[-1] < 1e-12 * s[0]


def test_scan_rejects_bad_interval(resonance8):
    with pytest.raises(ValueError):
        scan_positive_resonances(resonance8, (-1.0, 2.0))


def test_hypotheses_hold_on_tuned_models(first8, cls_first, disc_first,
                                         third8, cls_third, disc_third):
    h1 = check_hypotheses(first8, cls_first, disc=disc_first)
    assert h1["H1"] and h1["H2"]
    h3 = check_hypotheses(third8, cls_third, disc=disc_third)
    assert h3["H1"] and h3["H2"]


def test_hypothesis_h3_at_resonance(resonance8, disc_resonance):
    cls = classify_zero(resonance8, disc=disc_resonance)
    rep = check_hypotheses(resonance8, cls, resonances=[(1.0, 1)],
                           disc=disc_resonance)
    assert rep["H3"]
