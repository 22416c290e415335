"""Contours, generalized oscillatory integrals, the matrix Dunford
propagator, branch-cut propagation and decay / high-energy fits."""
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from specthresh.birman_schwinger import Discretization
from specthresh.kernels import BranchPoint
from specthresh.model import build_grid
from specthresh.grushin import threshold_resolvent_expansion
from specthresh.models import first_kind_model, free_model, regular_model
from specthresh.propagator import (CutPropagator, _filon_moments, _wnorm,
                                   audit_contour, build_contour,
                                   check_high_energy, dunford_propagator,
                                   enumerate_upper_eigenvalues,
                                   free_propagator, generalized_integral,
                                   resolvent_taylor, verify_large_time)


# --------------------------------------------------------------------------
# contours

def test_contour_segments_and_orientation():
    c = build_contour(0.1, np.pi / 4, resonances=[1.0])
    labels = [s.label for s in c.segments]
    assert labels[0] == "incoming_ray"
    assert "origin_circle" in labels
    assert "detour_0" in labels
    assert labels[-1] == "outgoing_ray"
    # incoming ray heads into the lower-left half-plane
    d = c.segments[0].direction
    assert d.real < 0 and d.imag < 0


def test_contour_eta_guard():
    with pytest.raises(ValueError, match="eta too large"):
        build_contour(0.6, np.pi / 4, resonances=[1.0])
    with pytest.raises(ValueError):
        build_contour(0.1, 2.0)        # nu outside (0, pi/2)


def test_audit_contour_clearance():
    c = build_contour(0.1, np.pi / 4, resonances=[1.0])
    d = audit_contour(c, [2.5 + 1.0j])
    assert d > 0.05


# --------------------------------------------------------------------------
# generalized integrals

@pytest.mark.parametrize("j", [-1, 0, 1, 2])
@pytest.mark.parametrize("t", [0.5, 1.0, 10.0])
def test_generalized_integral_against_rotated_ray(j, t):
    got = generalized_integral(j, t)
    want = oracles.halfline_power_integral(j, t)
    assert abs(got - want) < 1e-10 * abs(want)


def test_generalized_integral_closed_forms():
    # j = 0: int e^{-itlam} dlam = 1/(it); j = -1: sqrt(pi/t) e^{-i pi/4}
    t = 2.0
    assert abs(generalized_integral(0, t) - 1.0 / (1j * t)) < 1e-14
    want = np.sqrt(np.pi / t) * np.exp(-1j * np.pi / 4.0)
    assert abs(generalized_integral(-1, t) - want) < 1e-14


def test_principal_value_integral():
    got = generalized_integral(pv=True, t=3.0)
    assert abs(got + 2j * np.pi) < 1e-14
    want = oracles.pv_plus_i0_integral(3.0)
    assert abs(got - want) < 1e-8


def test_generalized_integral_validation():
    with pytest.raises(ValueError):
        generalized_integral(0, -1.0)
    with pytest.raises(ValueError):
        generalized_integral(-2, 1.0)


# --------------------------------------------------------------------------
# discrete spectrum and the Dunford propagator

def test_enumerate_upper_eigenvalues_synthetic():
    H = np.diag([0.5 + 0.2j, 1.5 - 0.3j, 3.0 + 0.05j])
    rep = enumerate_upper_eigenvalues(H)
    got = sorted(rep.eigenvalues, key=lambda z: z.real)
    assert np.allclose(got, [0.5 + 0.2j, 3.0 + 0.05j])
    for zj, P in zip(rep.eigenvalues, rep.projectors):
        want = oracles.spectral_projector(H, lambda l: abs(l - zj) < 1e-6)
        assert np.linalg.norm(P - want) < 1e-8


def _enumerate_reference_projectors(H):
    """Independent reference for enumerate_upper_eigenvalues: per-cluster
    projectors by a 32-node trapezoidal contour of radius gap/3 with one
    dense solve per node, whose quadrature error is far below the gate."""
    evals = sla.eigvals(H)
    I = np.eye(H.shape[0])
    out = {}
    for zc in evals[evals.imag >= -1e-12]:
        others = evals[np.abs(evals - zc) > 1e-7 * max(1.0, abs(zc))]
        rad = min(float(np.abs(others - zc).min()) / 3.0, 0.25)
        P = np.zeros_like(H)
        for q in range(32):
            th = 2.0 * np.pi * (q + 0.5) / 32
            z = zc + rad * np.exp(1j * th)
            P -= rad * np.exp(1j * th) * sla.solve(H - z * I, I)
        out[complex(zc)] = P / 32
    return out


@pytest.mark.parametrize("similar", [False, True])
def test_enumerate_projectors_match_dense_solve_contour(similar):
    H = np.diag([0.5 + 0.2j, 1.5 - 0.3j, 3.0 + 0.05j])
    if similar:
        S = np.random.default_rng(4).standard_normal((3, 3)) + 2.0 * np.eye(3)
        H = S @ H @ np.linalg.inv(S)
    rep = enumerate_upper_eigenvalues(H)
    want = _enumerate_reference_projectors(H)
    assert rep.count == len(want) == 2
    for zj, P in zip(rep.eigenvalues, rep.projectors):
        ref = want[min(want, key=lambda z: abs(z - zj))]
        assert np.linalg.norm(P - ref) <= 1e-12 * np.linalg.norm(ref)


def test_dunford_small_matrix_against_expm():
    rng = np.random.default_rng(8)
    n = 40
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = A @ A.conj().T / n + np.diag(2.0 + np.arange(n) * 0.2 - 0.15j)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    contour = build_contour(0.08, np.pi / 4)
    for t in (1.0, 5.0):
        got = dunford_propagator(H, contour, t, f, g)
        want = complex(g.conj() @ oracles.matrix_exponential(H, t) @ f)
        assert abs(got - want) < 1e-8 * max(abs(want), 1e-6)


def test_dunford_dissipative_with_upper_block(dissipative_H):
    H, f, g = dissipative_H
    contour = build_contour(0.02, np.pi / 4)
    for t in (1.0, 10.0):
        got = dunford_propagator(H, contour, t, f, g)
        want = complex(g.conj() @ oracles.matrix_exponential(H, t) @ f)
        assert abs(got - want) < 1e-8 * abs(want)


def test_dunford_rejects_nonpositive_time(dissipative_H):
    H, f, g = dissipative_H
    contour = build_contour(0.02, np.pi / 4)
    with pytest.raises(ValueError):
        dunford_propagator(H, contour, -1.0, f, g)


# --------------------------------------------------------------------------
# free propagator and boundary resolvent derivatives

def test_free_propagator_is_unitary_group_kernel():
    grid = build_grid(3.0, 6)
    # group property sampled on a vector: U(t1+t2) f ~ U(t1) U(t2) f fails on
    # a truncated grid, but the exact kernel obeys |det factor| scaling
    t = 50.0
    U = free_propagator(grid, t)
    amp = np.abs(U[0, 1] / grid.weights[1])
    assert np.isclose(amp, (4.0 * np.pi * t) ** -1.5, rtol=1e-12)


def test_free_decay_slope():
    grid = build_grid(3.0, 6)
    model = free_model(grid)
    rep = verify_large_time(model)
    assert abs(rep.slope_fit + 1.5) < 0.05
    assert rep.r_squared > 0.999


# --------------------------------------------------------------------------
# branch-cut propagator

# ||U(t)|| (s = 3) of the resolution-4 first-kind model over the default
# ladder, computed with every node jump precomputed and stored; the streamed
# ladder must reproduce them
LADDER = np.geomspace(10.0, 1000.0, 7)
FROZEN_NORMS_FIRST4 = [
    0.009343516886384856, 0.0063652787287237994, 0.004336561515902878,
    0.0029545225734302553, 0.0020129144986420363, 0.0013713901926939275,
    0.0009343188491757032]


@pytest.fixture(scope="module")
def cut_first4():
    model = first_kind_model(build_grid(3.0, 4))
    disc = Discretization(model)
    coeffs = threshold_resolvent_expansion(model, disc=disc)
    cp = CutPropagator(model, coeffs, disc=disc)
    return model, cp, cp.propagate_many(LADDER)


def test_cut_propagator_frozen_norms(cut_first4):
    model, cp, Us = cut_first4
    assert cp.jump == {}
    norms = [_wnorm(model.grid, Us[t], 3.0) for t in LADDER]
    np.testing.assert_allclose(norms, FROZEN_NORMS_FIRST4, rtol=1e-10)


def test_propagate_matches_ladder(cut_first4):
    _, cp, Us = cut_first4
    t = LADDER[3]
    U = cp.propagate(t)
    assert np.linalg.norm(U - Us[t]) < 1e-12 * np.linalg.norm(U)


def test_pole_scan_finds_second6_eigenvalue(cut_second6):
    # a real eigenvalue of H below the old scan box (Re z >= -1.5)
    assert len(cut_second6.poles) == 1
    zs, ring = cut_second6.poles[0]
    assert abs(zs - (-1.77857 - 0.06133j)) < 1e-5
    assert len(ring) == 24


def test_pole_scan_first6_is_empty(cut_first6):
    assert cut_first6.poles == []


def test_propagate_many_rejects_nonpositive_times(cut_first4):
    _, cp, _ = cut_first4
    for ts in ([10.0, 0.0], [-1.0], [np.nan]):
        with pytest.raises(ValueError, match="positive"):
            cp.propagate_many(ts)
    with pytest.raises(ValueError, match="positive"):
        cp.propagate(0.0)


@pytest.mark.parametrize("th", [0.0, 1e-6, 9.9e-5, 1.01e-4, 1e-3, 1e-2, 0.5,
                                1.0, 30.0])
def test_filon_moments_against_series_and_quadrature(th):
    got = _filon_moments(th)
    for p in range(3):
        want = (oracles.filon_moment_series(th, p) if th <= 1.0
                else oracles.filon_moment_quad(th, p))
        assert abs(got[p] - want) <= 1e-14, p


def test_filon_node_walk_matches_panel_loop():
    # the rank-1 walk over node weights against the per-panel quadratic
    # Filon rule, on a cheap synthetic 3 x 3 jump over the propagator's mesh
    rng = np.random.default_rng(11)
    A, B = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))

    def jump(lam):
        return A * np.sqrt(lam) / (1.0 + lam) + B * np.cos(3.0 * lam)

    edges = np.geomspace(0.04, 40.0, 381)
    ts = np.concatenate([[0.1], LADDER])
    stub = SimpleNamespace(edges=edges, disc=SimpleNamespace(
        jump=jump, grid=SimpleNamespace(n=3)))
    got = CutPropagator._filon_bands(stub, ts)
    want = oracles.filon_panel_walk(edges, jump, ts) / (2.0j * np.pi)
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)


def test_resolvent_taylor_matches_finite_difference():
    grid = build_grid(2.5, 5)
    model = regular_model(grid, strength=0.4 + 0.2j)
    disc = Discretization(model)
    lam = 2.0
    T = resolvent_taylor(disc, lam, 1, side="+")
    want = oracles.central_derivative(
        lambda l: disc.R(BranchPoint.boundary(l, "+")), lam, h=1e-4)
    assert np.linalg.norm(T[1] - want) < 1e-6 * np.linalg.norm(want)


def test_resolvent_taylor_minus_side_is_conjugate_for_real_V():
    grid = build_grid(2.0, 4)
    import specthresh.models as m
    from specthresh.model import Model, sample_potential
    V = 0.5 * np.exp(-grid.radii() ** 2)
    model = Model(grid=grid, potential=sample_potential(grid, V.astype(complex)))
    disc = Discretization(model)
    Tp = resolvent_taylor(disc, 1.5, 0, side="+")
    Tm = resolvent_taylor(disc, 1.5, 0, side="-")
    assert np.allclose(Tm[0], np.conj(Tp[0]))


def test_high_energy_exponents_free():
    model = free_model(build_grid(3.0, 8))
    fits = check_high_energy(model, orders=(0, 1))
    assert [he["r"] for he in fits] == [0, 1]
    assert all(he["pass"] for he in fits)
    for orders in ((3,), (0, 3), ()):
        with pytest.raises(ValueError):
            check_high_energy(model, orders=orders)
