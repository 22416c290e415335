"""Reference model factories: tuned spectral structure and guard rails."""
import gc
import weakref

import numpy as np
import pytest

import oracles
from specthresh import models
from specthresh.birman_schwinger import Discretization, classify_zero
from specthresh.kernels import assemble_gj
from specthresh.model import build_grid
from specthresh.models import (free_model, gaussian_template, regular_model,
                               third_kind_model)


def test_free_model_has_zero_potential():
    m = free_model(build_grid(2.0, 4))
    assert np.all(m.V == 0)


def test_gaussian_template_vanishes_outside_ball():
    grid = build_grid(3.0, 7)
    W = gaussian_template(grid)
    r = grid.radii()
    assert np.all(W[r > grid.extent + 1e-12] == 0)
    assert np.iscomplexobj(W)


def test_regular_model_is_regular():
    m = regular_model(build_grid(3.0, 6))
    disc = Discretization(m)
    ev = np.linalg.eigvals(disc.K0)
    assert np.min(np.abs(ev + 1.0)) > 1e-2


def test_first_kind_eigenvalue_placement(first8, disc_first):
    ev = np.linalg.eigvals(disc_first.K0)
    assert np.min(np.abs(ev + 1.0)) < 1e-9


def test_second_kind_exact_eigenstate(second8, disc_second):
    # the source construction makes G0 V psi = -psi exact on the grid
    ev, vec = np.linalg.eig(disc_second.K0)
    i = int(np.argmin(np.abs(ev + 1.0)))
    assert abs(ev[i] + 1.0) < 1e-10
    psi = vec[:, i]
    mk = disc_second.marker(psi)
    assert abs(mk) < 1e-8 * np.abs(psi).max()


def test_third_kind_double_eigenvalue(third8, disc_third):
    ev = np.linalg.eigvals(disc_third.K0)
    close = np.sort(np.abs(ev + 1.0))
    # at least a two-dimensional cluster at -1
    assert close[1] < 1e-8


# (extent, resolution, scheme)
SECTOR_GRIDS = [
    # resolution 5 has nodes on the plane x_1 = 0, resolution 6 has none
    pytest.param((3.0, 5, "uniform"), id="5"),
    pytest.param((3.0, 6, "uniform"), id="6"),
    pytest.param((2.93, 8, "uniform"), id="uniform-2.93-8"),
    pytest.param((3.07, 8, "uniform"), id="uniform-3.07-8"),
    # azimuth count 6 puts nodes on the plane x_1 = 0 up to roundoff
    pytest.param((2.0, 6, "gauss_radial"), id="gauss_radial-2.0-6"),
    pytest.param((2.0, 8, "gauss_radial"), id="gauss_radial-2.0-8"),
]


@pytest.mark.parametrize("grid_args", SECTOR_GRIDS)
def test_third_kind_even_sector_matches_full_eig(grid_args):
    # the library's trivial-sector block against one dense eigendecomposition
    # of the oracle's own potential, built on the n x n G0
    grid = build_grid(*grid_args)
    G0 = assemble_gj(grid, 0)
    G0_sectors = models._g0_sectors(grid)
    marked = models._symmetric_sector_marked_eigenpair(grid, G0_sectors)
    for alpha in (0.3 + 0.2j, -1.0 + 0.5j, 2.0 - 1.5j, -3.5 - 0.5j):
        want = oracles.full_eig_marked_eigenvalue(
            grid, G0, oracles.dense_third_kind_potential(grid, G0, alpha))
        V = models._third_kind_potential(grid, G0_sectors, alpha)
        mu, x = marked(alpha)
        assert abs(mu - want) <= 1e-12 * abs(want)
        assert np.linalg.norm(G0 @ (V * x) - mu * x) <= 1e-12
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-13


@pytest.mark.parametrize("grid_args", SECTOR_GRIDS)
def test_dipole_sources_match_the_dense_construction(grid_args):
    # G0 applied as sector blocks gives the potential of the n x n G0
    grid = build_grid(*grid_args)
    G0, G0_sectors = assemble_gj(grid, 0), models._g0_sectors(grid)
    for alpha in (0.3 + 0.2j, -3.5 - 0.5j):
        want = oracles.dense_third_kind_potential(grid, G0, alpha)
        got = models._third_kind_potential(grid, G0_sectors, alpha)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("grid_args", [
    pytest.param((2.93, 5, "uniform"), id="uniform-2.93-5"),
    pytest.param((2.0, 6, "gauss_radial"), id="gauss_radial-2.0-6"),
])
def test_third_kind_tunes_with_nodes_on_the_mirror_plane(grid_args):
    # nodes on x_1 = 0 up to roundoff: V is 0 there, not a ratio of two
    # roundoff values that breaks the x_2 / x_3 symmetry
    grid = build_grid(*grid_args)
    on_plane = np.abs(grid.nodes[:, 0]) <= 1e-12 * grid.extent
    assert on_plane.any() and np.any(grid.nodes[on_plane, 0] != 0.0)
    G0_sectors = models._g0_sectors(grid)
    alpha = models._tune_third_kind_alpha(grid, G0_sectors)
    V = models._third_kind_potential(grid, G0_sectors, alpha)
    assert np.all(V[on_plane] == 0)
    mu, x = models._symmetric_sector_marked_eigenpair(grid, G0_sectors)(
        alpha)
    G0 = assemble_gj(grid, 0)
    assert abs(mu + 1.0) <= 1e-9
    assert np.linalg.norm(x + G0 @ (V * x)) <= 1e-9 * np.linalg.norm(x)
    assert abs((grid.weights * V) @ x) > 1e-8 * np.linalg.norm(x) \
        * np.linalg.norm(grid.weights * V)
    ev = np.linalg.eigvals(Discretization(third_kind_model(grid)).K0)
    assert np.sort(np.abs(ev + 1.0))[1] < 1e-8


def test_full_space_check_rejects_a_wrong_or_unmarked_vector():
    grid = build_grid(3.0, 6)
    G0, G0_sectors = assemble_gj(grid, 0), models._g0_sectors(grid)
    alpha = models._tune_third_kind_alpha(grid, G0_sectors)
    V = models._third_kind_potential(grid, G0_sectors, alpha)
    _, x = models._symmetric_sector_marked_eigenpair(grid, G0_sectors)(alpha)
    with pytest.raises(ValueError, match="full-space check"):
        models._check_full_space(grid, G0, V, x + 1e-6)
    # off the tuned alpha, -1 is simple: the dipole state psi = -G0 g, whose
    # marker vanishes by parity
    V = models._third_kind_potential(grid, G0_sectors, 0.3 + 0.2j)
    ev, vec = np.linalg.eig(G0 * V[None, :])
    with pytest.raises(ValueError, match="relative marker"):
        models._check_full_space(grid, G0, V,
                                 vec[:, np.argmin(np.abs(ev + 1.0))])


def test_sector_eigenpair_rejects_a_potential_off_the_symmetric_sector(
        monkeypatch):
    grid = build_grid(3.0, 6)
    marked = models._symmetric_sector_marked_eigenpair(
        grid, models._g0_sectors(grid))
    monkeypatch.setattr(models, "_third_kind_potential",
                        lambda grid, G0, alpha: gaussian_template(grid)
                        * (1.0 + 0.5 * grid.nodes[:, 2]))
    with pytest.raises(ValueError, match="not invariant"):
        marked(0.3 + 0.2j)


def test_sector_eigenpair_rejects_a_potential_off_the_swap(monkeypatch):
    # even under every reflection but not under x_2 <-> x_3: the even
    # vectors of the swap would not hold the marked eigenvector
    grid = build_grid(3.0, 6)
    marked = models._symmetric_sector_marked_eigenpair(
        grid, models._g0_sectors(grid))
    monkeypatch.setattr(models, "_third_kind_potential",
                        lambda grid, G0, alpha: gaussian_template(grid)
                        * (1.0 + 0.5 * grid.nodes[:, 1] ** 2))
    with pytest.raises(ValueError, match="x_2 <-> x_3 swap"):
        marked(0.3 + 0.2j)


def test_third_kind_tuning_eig_calls_stay_in_the_symmetric_sector(monkeypatch):
    grid = build_grid(3.0, 8)
    G0 = models._g0_sectors(grid)
    shapes = []
    eig = models.sla.eig

    def recording_eig(a, *args, **kwargs):
        shapes.append(a.shape)
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(models.sla, "eig", recording_eig)
    models._tune_third_kind_alpha(grid, G0)
    assert len(shapes) >= 36
    # the trivial sector of the eight reflections (one row per node orbit,
    # n / 8 = 51) restricted to the vectors even under x_2 <-> x_3: one row
    # per class of node orbits that the swap joins, 31
    a = np.round(np.abs(grid.nodes), 9)
    rows = len({(x1, *sorted((x2, x3))) for x1, x2, x3 in a})
    assert rows == 31
    assert all(r == c == rows for r, c in shapes)


@pytest.mark.parametrize("extent", [2.9, 3.0, 3.1])
def test_third_kind_alpha_matches_full_eig_tuning(extent):
    # the oracle tunes with root(hybr) on full n x n eigen-solves; the
    # library's Newton must land on the same root over the benchmark's
    # extent range, from its own dense potential
    grid = build_grid(extent, 6)
    G0 = assemble_gj(grid, 0)
    want = oracles.full_eig_third_kind_alpha(
        grid, G0, lambda a: oracles.dense_third_kind_potential(grid, G0, a))
    got = models._tune_third_kind_alpha(grid, models._g0_sectors(grid))
    assert abs(got - want) <= 1e-13


def test_third_kind_model_frees_its_G0_on_return(monkeypatch):
    # the one n x n G0 is the full-space check's: with the cyclic collector
    # off, it must die with the last reference the factory holds, no
    # reference cycle may keep it alive
    refs = []

    def recording(grid, j):
        G = assemble_gj(grid, j)
        refs.append(weakref.ref(G))
        return G

    monkeypatch.setattr(models, "assemble_gj", recording)
    gc.disable()
    try:
        third_kind_model(build_grid(3.0, 5))
        alive = [r() is not None for r in refs]
    finally:
        gc.enable()
    assert alive == [False]


def test_third_kind_rejects_grid_without_mirror_symmetry():
    # gauss_radial with an odd azimuth count (nph = 5) has no x_1 mirror
    with pytest.raises(ValueError, match="mirror-symmetric"):
        third_kind_model(build_grid(2.0, 5, scheme="gauss_radial"))


def _fake_marked_eigenpair(mu_of):
    """Stand-in for `_symmetric_sector_marked_eigenpair`: alpha -> (mu, x)
    with mu = mu_of(alpha) and a fixed unit x."""
    def factory(grid, G0):
        x = np.zeros(grid.n, dtype=complex)
        x[0] = 1.0
        return lambda alpha: (complex(mu_of(alpha)), x)
    return factory


_NOT_CONVERGED = r"two-eigenvalue tuning did not converge: \|mu \+ 1\| = "


def test_third_kind_tuning_failure_reports_residual_and_alpha(monkeypatch):
    # a constant mu has no root and a zero difference quotient: Newton stops
    # at the coarse scan's first point
    monkeypatch.setattr(models, "_symmetric_sector_marked_eigenpair",
                        _fake_marked_eigenpair(lambda a: -1 + 3e-3 + 4e-3j))
    with pytest.raises(ValueError, match=_NOT_CONVERGED +
                       r"5\.000e-03 at alpha = -4-1\.5j"):
        third_kind_model(build_grid(3.0, 5))


def test_third_kind_tuning_stops_on_a_non_finite_difference_quotient(
        monkeypatch):
    # mu is finite on the coarse grid and NaN off it: the derivative is NaN
    def mu(alpha):
        on_grid = alpha.real == round(alpha.real) and alpha.imag % 1 == 0.5
        return -1 + 5e-3 if on_grid else complex(np.nan, np.nan)

    monkeypatch.setattr(models, "_symmetric_sector_marked_eigenpair",
                        _fake_marked_eigenpair(mu))
    with pytest.raises(ValueError, match=_NOT_CONVERGED +
                       r"5\.000e-03 at alpha = -4-1\.5j"):
        models._tune_third_kind_alpha(build_grid(3.0, 4), None)


def test_third_kind_tuning_gives_up_after_forty_newton_steps(monkeypatch):
    # f = 5e-3 alpha^(-1/100) has no root: each full Newton step multiplies
    # alpha by 101 and |f| by 101^(-1/100), about 0.955, so from the scan's
    # 5e-3 at alpha = -4 - 1.5i it still reads 5e-3 101^(-2/5) after 40 steps
    calls = []

    def mu(alpha):
        calls.append(alpha)
        return -1 + 5e-3 * (alpha / (-4 - 1.5j)) ** -0.01

    monkeypatch.setattr(models, "_symmetric_sector_marked_eigenpair",
                        _fake_marked_eigenpair(mu))
    with pytest.raises(ValueError, match=_NOT_CONVERGED + r"7\.893e-04"):
        models._tune_third_kind_alpha(build_grid(3.0, 4), None)
    assert len(calls) == 36 + 2 * 40


def test_third_kind_tuning_halves_a_step_onto_a_near_vanishing_state(
        monkeypatch):
    # the first Newton trial (call 38: 36 coarse points, then the difference
    # quotient) raises as a near-vanishing source would; the tuning halves
    # that step and still reaches the root it reaches without the fault
    grid = build_grid(3.0, 5)
    G0 = models._g0_sectors(grid)
    want = models._tune_third_kind_alpha(grid, G0)
    potential = models._third_kind_potential
    alphas = []

    def faulty(grid, G0, alpha):
        alphas.append(alpha)
        if len(alphas) == 38:
            raise ValueError("source construction produced a near-vanishing "
                             "state")
        return potential(grid, G0, alpha)

    monkeypatch.setattr(models, "_third_kind_potential", faulty)
    got = models._tune_third_kind_alpha(grid, G0)
    start = min(alphas[:36], key=lambda a: abs(alphas[36] - a))
    assert alphas[38] - start == pytest.approx((alphas[37] - start) / 2,
                                               rel=1e-9)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_third_kind_tunes_at_resolution_4():
    # n = 64: from the coarse scan's best start (mu = -3.88 at extent 3.0,
    # -0.41 at 2.5) root(hybr) found no root; the damped Newton finds one
    for extent in (3.0, 2.5):
        disc = Discretization(third_kind_model(build_grid(extent, 4)))
        ev = np.linalg.eigvals(disc.K0)
        assert np.sort(np.abs(ev + 1.0))[1] < 1e-8
        cls = classify_zero(disc)
        assert (cls.kind, cls.k) == ("third", 2)


def test_resonance_model_minus_one_at_lam0(resonance8, disc_resonance):
    from specthresh.kernels import BranchPoint
    Kp = disc_resonance.K(BranchPoint.boundary(1.0, "+"))
    ev = np.linalg.eigvals(Kp)
    assert np.min(np.abs(ev + 1.0)) < 1e-9
