"""Reference model factories: tuned spectral structure and guard rails."""
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from specthresh import models
from specthresh.birman_schwinger import Discretization
from specthresh.kernels import assemble_gj
from specthresh.model import build_grid
from specthresh.models import (dissipative_model, free_model,
                               gaussian_template, regular_model,
                               third_kind_model)
from specthresh.model import assemble_H


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


@pytest.mark.parametrize("resolution", [5, 6])
def test_third_kind_even_sector_matches_full_eig(resolution):
    # resolution 5 has nodes on the plane x_1 = 0, resolution 6 has none
    grid = build_grid(3.0, resolution)
    G0 = assemble_gj(grid, 0)
    marked = models._even_sector_marked_eigenvalue(grid, G0)
    for alpha in (0.3 + 0.2j, -1.0 + 0.5j, 2.0 - 1.5j, -3.5 - 0.5j):
        V = models._third_kind_potential(grid, G0, alpha)
        want = oracles.full_eig_marked_eigenvalue(grid, G0, V)
        assert abs(marked(alpha) - want) <= 1e-12 * abs(want)


def test_third_kind_alpha_matches_full_eig_tuning():
    grid = build_grid(3.0, 6)
    G0 = assemble_gj(grid, 0)
    want = oracles.full_eig_third_kind_alpha(
        grid, G0, lambda a: models._third_kind_potential(grid, G0, a))
    assert abs(models._tune_third_kind_alpha(grid, G0) - want) <= 1e-13


def test_x1_mirror_is_an_involution():
    for grid in (build_grid(3.0, 5), build_grid(2.0, 6, scheme="gauss_radial")):
        m = models._x1_mirror(grid)
        assert np.array_equal(m[m], np.arange(grid.n))
        assert np.allclose(grid.nodes[m], grid.nodes * [-1.0, 1.0, 1.0],
                           rtol=0.0, atol=1e-12 * grid.extent)


def test_third_kind_rejects_grid_without_mirror_symmetry():
    # gauss_radial with an odd azimuth count (nph = 5) has no x_1 mirror
    with pytest.raises(ValueError, match="mirror-symmetric"):
        third_kind_model(build_grid(2.0, 5, scheme="gauss_radial"))


def test_third_kind_tuning_failure_reports_residual_and_alpha(monkeypatch):
    monkeypatch.setattr(models, "root", lambda *a, **k: SimpleNamespace(
        success=False, x=np.array([0.5, -0.25]), fun=np.array([3e-3, 4e-3])))
    with pytest.raises(ValueError, match=r"\|mu \+ 1\| = 5\.000e-03 at "
                                         r"alpha = 0\.5-0\.25j"):
        third_kind_model(build_grid(3.0, 5))


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="known defect: at resolution 4 (n = 64) the marked "
                          "eigenvalue stays near -3.9 over the whole 9 x 4 "
                          "alpha scan, so root(hybr) has no basin")
def test_third_kind_tunes_at_resolution_4():
    model = third_kind_model(build_grid(3.0, 4))
    ev = np.linalg.eigvals(Discretization(model).K0)
    assert np.sort(np.abs(ev + 1.0))[1] < 1e-8


def test_resonance_model_minus_one_at_lam0(resonance8, disc_resonance):
    from specthresh.kernels import BranchPoint
    Kp = disc_resonance.K(BranchPoint.boundary(1.0, "+"))
    ev = np.linalg.eigvals(Kp)
    assert np.min(np.abs(ev + 1.0)) < 1e-9


def test_dissipative_model_uniform_absorption():
    m = dissipative_model()
    H = assemble_H(m.grid, m.potential)
    ev = np.linalg.eigvals(H)
    assert np.allclose(ev.imag, -0.05, atol=1e-10)
